"""Oracle probes: determinism, consistency on the worked data, divergence."""

from __future__ import annotations

import math
from fractions import Fraction

from conftest import make_example1
from polyvar import oracle
from polyvar.exactgeom import ConvexPoly, PolySet
from polyvar.linalg import vec
from polyvar.multimaps import PolyMultimap
from polyvar.oracle import (
    CONSISTENT,
    INCONSISTENT,
    aubin_ratio_probe,
    frechet_membership_probe,
)


def test_probe_members_of_example_cone():
    ex = make_example1()
    for d in (vec(1, 0, -1), vec(1, 0, -2), vec(0, 0, -1)):
        assert (
            frechet_membership_probe(ex.omega1, ex.c, ex.origin, d, True)
            == CONSISTENT
        )


def test_probe_radial_rejection():
    # (-1, 0, 0) passes the grid limsup over omega2 cap c but fails the
    # radial test into c, matching the exact exclusion
    ex = make_example1()
    assert (
        frechet_membership_probe(ex.omega2, ex.c, ex.origin, vec(-1, 0, 0), False)
        == CONSISTENT
    )
    # and a wrong claim is flagged
    assert (
        frechet_membership_probe(ex.omega2, ex.c, ex.origin, vec(-1, 0, 0), True)
        == INCONSISTENT
    )


def test_probe_zero_direction_always_consistent():
    ex = make_example1()
    assert (
        frechet_membership_probe(ex.omega1, ex.c, ex.origin, vec(0, 0, 0), True)
        == CONSISTENT
    )


def test_probe_deterministic():
    ex = make_example1()
    runs = {
        frechet_membership_probe(ex.omega1, ex.c, ex.origin, vec(1, 0, -1), True)
        for _ in range(3)
    }
    assert runs == {CONSISTENT}


def _final_example_map() -> PolyMultimap:
    return PolyMultimap(
        1,
        1,
        PolySet.from_poly(
            ConvexPoly.make(2, [(vec(-1, 0), Fraction(0)), (vec(0, -1), Fraction(0))])
        ),
    )


def test_aubin_ratio_bounded_on_wrt_configuration():
    G = _final_example_map()
    c = ConvexPoly.make(1, [(vec(-1), Fraction(0))])
    ratio = aubin_ratio_probe(G, c, vec(0), vec(0))
    assert ratio <= 1 + 1e-6


def test_aubin_ratio_divergent_on_classical_configuration():
    G = _final_example_map()
    ratio = aubin_ratio_probe(G, ConvexPoly.whole_space(1), vec(0), vec(0))
    assert math.isinf(ratio) and ratio > 1e3


def test_aubin_verdict_agrees_with_sampled_ratio_on_shipped_examples():
    from polyvar.multimaps import aubin_wrt_check
    from polyvar.verdicts import FAILS, HOLDS

    G = _final_example_map()
    configs = [
        (ConvexPoly.make(1, [(vec(-1), Fraction(0))]), HOLDS),
        (ConvexPoly.whole_space(1), FAILS),
    ]
    for c, expected in configs:
        verdict = aubin_wrt_check(G, c, vec(0), vec(0))
        assert verdict.value == expected
        ratio = aubin_ratio_probe(G, c, vec(0), vec(0))
        if verdict.value == HOLDS:
            assert ratio <= 1e3
        else:
            assert ratio > 1e3


def test_aubin_ratio_constant_map_zero():
    F = PolyMultimap.linear(((Fraction(0),),), 1, 1)
    ratio = aubin_ratio_probe(F, ConvexPoly.whole_space(1), vec(0), vec(0))
    assert ratio == 0.0


def test_aubin_ratio_two_dimensional_linear_map(monkeypatch):
    # a coarse grid keeps the pair loop tractable in higher input dimension
    monkeypatch.setattr(oracle, "GRID_STEP", Fraction(1, 4))
    F = PolyMultimap.linear(((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))), 2, 2)
    ratio = aubin_ratio_probe(F, ConvexPoly.whole_space(2), vec(0, 0), vec(0, 0))
    assert 0.0 < ratio <= 1e3  # a linear map has a finite Lipschitz rate


def test_fine_grid_membership_agreement_random(monkeypatch):
    """Exact Fréchet-relative membership matches the sampled limsup test on a
    step 2^-8 grid for random directions (the module-level oracle invariant)."""
    import random

    from conftest import random_poly_through, random_polyset_through, rng_vec
    from polyvar.cones import frechet_normal_wrt

    monkeypatch.setattr(oracle, "GRID_STEP", Fraction(1, 256))
    rng = random.Random(509)
    done = 0
    while done < 6:
        dim = rng.randint(1, 2)
        base = rng_vec(rng, dim, -1, 1)
        omega = random_polyset_through(rng, dim, base)
        wrt = random_poly_through(rng, dim, base)
        if not (omega.contains(base) and wrt.contains(base)):
            continue
        cone = frechet_normal_wrt(omega, wrt, base)
        for _ in range(4):
            d = rng_vec(rng, dim, -2, 2)
            claimed = cone.contains(d)
            assert (
                frechet_membership_probe(omega, wrt, base, d, claimed)
                == CONSISTENT
            ), (omega, wrt, base, d, claimed)
        done += 1
