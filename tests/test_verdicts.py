"""`TriVerdict.zero_cone`: the one verdict behind every "= {0}" condition."""

from __future__ import annotations

from fractions import Fraction

from polyvar.exactgeom import ConeH, ConeUnion
from polyvar.linalg import vec
from polyvar.verdicts import FAILS, HOLDS, TriVerdict


def _union(*cones: ConeH) -> ConeUnion:
    return ConeUnion.make(2, list(cones))


def test_zero_cone_holds_without_certificate_on_origin():
    origin = ConeH.from_ineqs(2, [], [vec(1, 0), vec(0, 1)])
    verdict = TriVerdict.zero_cone(_union(origin, origin))
    assert verdict == TriVerdict(HOLDS, None)


def test_zero_cone_fails_without_vector_on_empty_union():
    assert TriVerdict.zero_cone(_union()) == TriVerdict(FAILS, {"vector": None})


def test_zero_cone_fails_with_first_ray_before_lineality():
    # y >= 0: lineality (1, 0) and ray (0, 1); the ray is the certificate
    halfplane = ConeH.from_ineqs(2, [vec(0, -1)])
    verdict = TriVerdict.zero_cone(_union(halfplane))
    assert verdict.value == FAILS
    assert verdict.certificate == {"vector": vec(0, 1)}
    assert all(type(t) is Fraction for t in verdict.certificate["vector"])


def test_zero_cone_fails_with_lineality_when_no_ray():
    line = ConeH.from_ineqs(2, [], [vec(1, 1)])
    verdict = TriVerdict.zero_cone(_union(line))
    assert verdict == TriVerdict(FAILS, {"vector": vec(1, -1)})
