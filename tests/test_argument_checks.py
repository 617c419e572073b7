"""Engine entry points check their arguments without `assert`.

Every dimension check raises ValueError naming both dimensions, and every
cone operation given the empty marker raises ValueError, also under
`python -O`, which strips asserts.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import make_example1, run_optimized

from polyvar import cones
from polyvar.calculus import mixed_product_rule
from polyvar.exactgeom import (
    ConeH,
    ConvexPoly,
    PolySet,
    polar,
    slice_cone_at_tail,
)
from polyvar.linalg import dot, vec
from polyvar.multimaps import (
    VARIANT_SEMICOMPACT,
    VARIANT_SEMICONTINUOUS,
    PolyMultimap,
    coderivative_wrt,
    graph_normal_cone,
    inner_regularity_check,
)
from polyvar.plfunc import PLFunc, subdiff_wrt
from polyvar.quals import lqc_wrt_check, normal_densed_check
from polyvar.stratify import local_cells


def whole_map(n: int, m: int) -> PolyMultimap:
    return PolyMultimap(n, m, PolySet.from_poly(ConvexPoly.whole_space(n + m)))


def mixed_product(omega1_dim: int, omega2_dim: int, point_dim: int):
    # n = 1, m = 1, s = 2: omega1 must be 3-dim, omega2 1-dim, the point 4-dim
    return mixed_product_rule(
        PolySet.from_poly(ConvexPoly.whole_space(omega1_dim)),
        ConvexPoly.whole_space(omega1_dim),
        PolySet.from_poly(ConvexPoly.whole_space(omega2_dim)),
        ConvexPoly.whole_space(omega2_dim),
        1,
        1,
        2,
        (Fraction(0),) * point_dim,
    )


CASES = {
    "ConvexPoly.intersect": (
        lambda: ConvexPoly.whole_space(2).intersect(ConvexPoly.whole_space(3)),
        "dimension 3, expected 2",
    ),
    "ConvexPoly.embed": (
        lambda: ConvexPoly.whole_space(2).embed(3, (0,)),
        "dimension 1, expected 2",
    ),
    "ConvexPoly.minkowski": (
        lambda: ConvexPoly.whole_space(2).minkowski(ConvexPoly.whole_space(1)),
        "dimension 1, expected 2",
    ),
    "ConeH.intersect": (
        lambda: ConeH.whole_space(3).intersect(ConeH.whole_space(2)),
        "dimension 2, expected 3",
    ),
    "ConeH.minkowski": (
        lambda: ConeH.whole_space(1).minkowski(ConeH.whole_space(2)),
        "dimension 2, expected 1",
    ),
    "PolyMultimap.sum input": (
        lambda: whole_map(1, 1).sum(whole_map(2, 1)),
        "dimension 2, expected 1",
    ),
    "PolyMultimap.sum output": (
        lambda: whole_map(1, 2).sum(whole_map(1, 1)),
        "dimension 1, expected 2",
    ),
    "PolyMultimap.value_set": (
        lambda: whole_map(2, 1).value_set(vec(0)),
        "dimension 1, expected 2",
    ),
    "PolyMultimap.compose_after": (
        lambda: whole_map(1, 1).compose_after(whole_map(1, 2)),
        "dimension 2, expected 1",
    ),
    "inner_regularity_check semicompact": (
        lambda: inner_regularity_check(
            whole_map(1, 1), ConvexPoly.whole_space(1), vec(0, 0), VARIANT_SEMICOMPACT
        ),
        "dimension 2, expected 1",
    ),
    "inner_regularity_check semicontinuous": (
        lambda: inner_regularity_check(
            whole_map(1, 1), ConvexPoly.whole_space(1), vec(0), VARIANT_SEMICONTINUOUS
        ),
        "dimension 1, expected 2",
    ),
    "mixed_product_rule omega1": (
        lambda: mixed_product(2, 1, 4),
        "dimension 2, expected 3",
    ),
    "mixed_product_rule omega2": (
        lambda: mixed_product(3, 2, 4),
        "dimension 2, expected 1",
    ),
    "mixed_product_rule point": (
        lambda: mixed_product(3, 1, 3),
        "dimension 3, expected 4",
    ),
    "ConeH.embed": (
        lambda: ConeH.whole_space(2).embed(3, (0,)),
        "dimension 1, expected 2",
    ),
    "slice_cone_at_tail": (
        lambda: slice_cone_at_tail(ConeH.whole_space(2), vec(0, 0, 0)),
        "tail of dimension 3, cone of 2",
    ),
    "dot": (lambda: dot(vec(1, 2), vec(3)), "dimension 1, expected 2"),
}

# a point of the wrong length: `linalg.dot` raises on it as well, but only
# these checks name the argument
HALF_PLANE = PolySet.from_poly(ConvexPoly.make(2, [(vec(1, 0), Fraction(0))]))
PLANE = ConvexPoly.whole_space(2)
LINE = ConvexPoly.whole_space(1)
POINT_CASES = {
    "radial_cone": (lambda: cones.radial_cone(PLANE, vec(0)), "dimension 1, expected 2"),
    "frechet_normal": (
        lambda: cones.frechet_normal(HALF_PLANE, vec(0)),
        "dimension 1, expected 2",
    ),
    "frechet_normal_wrt": (
        lambda: cones.frechet_normal_wrt(HALF_PLANE, PLANE, vec(0)),
        "dimension 1, expected 2",
    ),
    "proximal_normal_wrt": (
        lambda: cones.proximal_normal_wrt(HALF_PLANE, PLANE, vec(0, 0, 0)),
        "dimension 3, expected 2",
    ),
    "limiting_normal_wrt": (
        lambda: cones.limiting_normal_wrt(HALF_PLANE, PLANE, vec(0)),
        "dimension 1, expected 2",
    ),
    "limiting_normal": (
        lambda: cones.limiting_normal(HALF_PLANE, vec(0)),
        "dimension 1, expected 2",
    ),
    "local_cells": (lambda: local_cells([HALF_PLANE], vec(0)), "dimension 1, expected 2"),
    "graph_normal_cone x": (
        lambda: graph_normal_cone(whole_map(1, 1), LINE, vec(), vec(0, 0)),
        "dimension 0, expected 1",
    ),
    "graph_normal_cone y": (
        lambda: graph_normal_cone(whole_map(1, 1), LINE, vec(0), vec(0, 0)),
        "dimension 2, expected 1",
    ),
    "coderivative_wrt x": (
        lambda: coderivative_wrt(whole_map(1, 1), LINE, vec(), vec(0, 0), vec(1)),
        "dimension 0, expected 1",
    ),
    "coderivative_wrt ystar": (
        lambda: coderivative_wrt(whole_map(1, 1), LINE, vec(0), vec(0), vec(1, 1)),
        "dimension 2, expected 1",
    ),
    "PLFunc.value": (
        lambda: PLFunc.affine(2, vec(1, 1), 0).value(vec(0)),
        "dimension 1, expected 2",
    ),
    "subdiff_wrt": (
        lambda: subdiff_wrt(PLFunc.affine(2, vec(1, 1), 0), PLANE, vec(0), "limiting"),
        "dimension 1, expected 2",
    ),
    "lqc_wrt_check": (
        lambda: lqc_wrt_check(HALF_PLANE, HALF_PLANE, PLANE, PLANE, vec(0)),
        "dimension 1, expected 2",
    ),
    "normal_densed_check": (
        lambda: normal_densed_check(HALF_PLANE, HALF_PLANE, PLANE, PLANE, vec(0)),
        "dimension 1, expected 2",
    ),
}
CASES.update({f"point: {name}": case for name, case in POINT_CASES.items()})

EMPTY_MARKER_CASES = {
    "polar": lambda: polar(ConeH.empty_marker(2)),
    "embed": lambda: ConeH.empty_marker(2).embed(3, (0, 1)),
    "to_poly": lambda: ConeH.empty_marker(2).to_poly(),
}


@pytest.mark.parametrize("ineqs, eqs", [([((1,), 0.1)], []), ([], [((1,), 0.5)])])
def test_float_offset_raises_type_error(ineqs, eqs):
    # normals and offsets alike are exact: a float is refused, not converted
    # to its binary value
    with pytest.raises(TypeError, match="not an exact rational"):
        ConvexPoly.make(1, ineqs, eqs)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dimension_mismatch_raises_value_error(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("case", sorted(EMPTY_MARKER_CASES))
def test_empty_marker_raises_value_error(case):
    with pytest.raises(ValueError, match=f"{case}: the empty marker is not a cone"):
        EMPTY_MARKER_CASES[case]()


def test_empty_marker_checks_survive_optimize():
    # without the checks, -O gave the zero cone and the whole plane
    script = """
import json, sys
from polyvar.exactgeom import ConeH, polar

def outcome(call):
    try:
        call()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return None

empty = ConeH.empty_marker(2)
json.dump({"optimize": sys.flags.optimize,
           "polar": outcome(lambda: polar(empty)),
           "to_poly": outcome(lambda: empty.to_poly())}, sys.stdout)
"""
    assert run_optimized(script) == {
        "optimize": 1,
        "polar": ["ValueError", "polar: the empty marker is not a cone"],
        "to_poly": ["ValueError", "to_poly: the empty marker is not a cone"],
    }


def test_dimension_checks_survive_optimize():
    script = """
import json, sys
from fractions import Fraction
from polyvar.calculus import mixed_product_rule
from polyvar.exactgeom import ConvexPoly, PolySet

def outcome(call):
    try:
        call()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return None

w = ConvexPoly.whole_space
calls = {
    "intersect": lambda: w(2).intersect(w(3)),
    "mixed_product_rule": lambda: mixed_product_rule(
        PolySet.from_poly(w(2)), w(2), PolySet.from_poly(w(1)), w(1),
        1, 1, 2, (Fraction(0),) * 4),
}
json.dump({"optimize": sys.flags.optimize,
           **{name: outcome(call) for name, call in calls.items()}}, sys.stdout)
"""
    assert run_optimized(script) == {
        "optimize": 1,
        "intersect": ["ValueError", "intersect: dimension 3, expected 2"],
        "mixed_product_rule": ["ValueError", "omega1 (n + s): dimension 2, expected 3"],
    }


def test_proximal_validation_raises_on_a_wrong_cone(monkeypatch):
    # -e1 leaves wrt = {x >= 0} at the origin, so no proximal normal of the
    # set relative to wrt can have it as a ray
    ex = make_example1()
    wrong = ConeH.from_generators(3, rays=[vec(-1, 0, 0)])
    monkeypatch.setattr(cones, "frechet_normal_wrt", lambda *args: wrong)
    assert cones.proximal_normal_wrt(ex.omega1, ex.c, ex.origin) == wrong
    with pytest.raises(RuntimeError, match="proximal inequality"):
        cones.proximal_normal_wrt(ex.omega1, ex.c, ex.origin, validate=True)


def test_proximal_validation_raises_on_the_whole_space(monkeypatch):
    # every direction is radially admissible in wrt = R^3, so only the
    # first-order check at the cell witnesses can reject this cone
    ex = make_example1()
    monkeypatch.setattr(cones, "frechet_normal_wrt", lambda *args: ConeH.whole_space(3))
    with pytest.raises(RuntimeError, match="proximal inequality"):
        cones.proximal_normal_wrt(ex.omega1, ex.c_full, ex.origin, validate=True)
