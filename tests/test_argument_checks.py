"""Engine entry points check their arguments without `assert`.

Every dimension check raises ValueError naming both dimensions, also under
`python -O`, which strips asserts.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import run_optimized

import polyvar
from polyvar import cones
from polyvar.calculus import mixed_product_rule
from polyvar.exactgeom import (
    ConeH,
    ConeUnion,
    ConvexPoly,
    PolySet,
    PolyUnion,
)
from polyvar.linalg import dot, vec
from polyvar.multimaps import (
    VARIANT_SEMICOMPACT,
    VARIANT_SEMICONTINUOUS,
    PolyMultimap,
    _s_map,
    _script_s,
    chain_rule,
    coderivative_wrt,
    graph_normal_cone,
    inner_regularity_check,
    sum_rule,
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
    "ConvexPoly.lift": (
        lambda: ConvexPoly.lift(3, [(ConvexPoly.whole_space(2), (0,))]),
        "lift coordinates: dimension 1, expected 2",
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
    "ConeH.subset_of": (
        lambda: ConeH.whole_space(2).subset_of(ConeH.whole_space(3)),
        "dimension 3, expected 2",
    ),
    "ConeUnion.subset_of": (
        lambda: ConeUnion.single(ConeH.whole_space(2)).subset_of(
            ConeUnion.single(ConeH.whole_space(3))
        ),
        "dimension 3, expected 2",
    ),
    "PolyUnion.subset_of": (
        lambda: PolyUnion.single(ConvexPoly.make(2, [(vec(1, 0), 0)])).subset_of(
            PolyUnion.single(ConvexPoly.make(3, [(vec(1, 0, 1), 0)]))
        ),
        "dimension 3, expected 2",
    ),
    # rows and generators from outside the engine: wrong lengths are refused,
    # not padded, cut short or misreported
    "ConvexPoly.make row": (
        lambda: ConvexPoly.make(2, [(vec(1, 0, 0), 1)]),
        "dimension 3, expected 2",
    ),
    "ConvexPoly.make equality row": (
        lambda: ConvexPoly.make(2, [], [(vec(1), 0)]),
        "dimension 1, expected 2",
    ),
    "ConeH.from_ineqs": (
        lambda: ConeH.from_ineqs(2, [vec(1, 0, 0)]),
        "dimension 3, expected 2",
    ),
    "ConeH.from_ineqs equality": (
        lambda: ConeH.from_ineqs(2, [], [vec(1)]),
        "dimension 1, expected 2",
    ),
    "ConeH.from_generators ray": (
        lambda: ConeH.from_generators(2, rays=[vec(1, 0, 0)]),
        "dimension 3, expected 2",
    ),
    "ConeH.from_generators lineality": (
        lambda: ConeH.from_generators(2, lineality=[vec(1)]),
        "dimension 1, expected 2",
    ),
    "PolyMultimap.linear row": (
        lambda: PolyMultimap.linear(((1,),), 2, 1),
        "dimension 1, expected 2",
    ),
    "PolyMultimap.linear rows": (
        lambda: PolyMultimap.linear(((1,), (2,)), 1, 1),
        "dimension 2, expected 1",
    ),
    "PLFunc.affine": (
        lambda: PLFunc.affine(2, vec(1, 0, 0), 0),
        "slope: dimension 3, expected 2",
    ),
    "PLFunc.affine domain": (
        lambda: PLFunc.affine(
            2, vec(1, 1), 0, domain=ConvexPoly.make(1, [(vec(1), 0)])
        ),
        "domain: dimension 1, expected 2",
    ),
    "PLFunc.max_affine": (
        lambda: PLFunc.max_affine(2, [(vec(1), 0)]),
        "slope: dimension 1, expected 2",
    ),
    # a union with no parts checks dimensions as well
    "ConeUnion.intersect": (
        lambda: ConeUnion.empty(2).intersect(ConeUnion.single(ConeH.whole_space(3))),
        "intersect: dimension 3, expected 2",
    ),
    "ConeUnion.minkowski": (
        lambda: ConeUnion.empty(2).minkowski(ConeUnion.single(ConeH.whole_space(3))),
        "minkowski: dimension 3, expected 2",
    ),
    "PolyUnion.intersect": (
        lambda: PolyUnion.single(ConvexPoly.whole_space(3)).intersect(PolyUnion.empty(2)),
        "intersect: dimension 2, expected 3",
    ),
    "_s_map input": (
        lambda: _s_map(whole_map(1, 1), whole_map(2, 1)),
        "dimension 2, expected 1",
    ),
    "_s_map output": (
        lambda: _s_map(whole_map(1, 2), whole_map(1, 1)),
        "dimension 1, expected 2",
    ),
    "PolyMultimap.value_set": (
        lambda: whole_map(2, 1).value_set(vec(0)),
        "dimension 1, expected 2",
    ),
    "_script_s": (
        lambda: _script_s(whole_map(1, 2), whole_map(1, 1)),
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
    "ConeH.lift": (
        lambda: ConeH.lift(3, [(ConeH.whole_space(2), (0,))]),
        "lift coordinates: dimension 1, expected 2",
    ),
    "PolySet.lift": (
        lambda: PolySet.lift(3, [(PolySet.make(2, []), (0,))]),
        "lift coordinates: dimension 1, expected 2",
    ),
    # the rules name their own dual argument before q1 and q2 run
    "sum_rule ystar": (
        lambda: sum_rule(
            whole_map(1, 1), whole_map(1, 1), LINE, LINE,
            vec(0), vec(0), vec(0), vec(0), vec(1, 1),
        ),
        "^sum_rule ystar: dimension 2, expected 1$",
    ),
    "chain_rule zstar": (
        lambda: chain_rule(
            whole_map(1, 1), whole_map(1, 2), LINE, vec(0), vec(0, 0), vec(0), vec(1),
        ),
        "^chain_rule zstar: dimension 1, expected 2$",
    ),
    "ConvexPoly.slice values": (
        lambda: ConvexPoly.whole_space(2).slice((0,), vec(0, 0)),
        "slice values: dimension 2, expected 1",
    ),
    # a tail longer than the set reaches a negative index; an index past the
    # end is refused alike
    "ConvexPoly.slice tail": (
        lambda: ConeH.whole_space(2).to_poly().slice(range(-1, 2), vec(0, 0, 0)),
        re.escape("slice coordinates (-1, 0, 1): not distinct members of range(2)"),
    ),
    "ConvexPoly.slice coordinate": (
        lambda: ConvexPoly.whole_space(2).slice((2,), vec(0)),
        re.escape("slice coordinates (2,): not distinct members of range(2)"),
    ),
    "dot": (lambda: dot(vec(1, 2), vec(3)), "dimension 1, expected 2"),
}

# a point of the wrong length: `linalg.dot` raises on it as well, but only
# these checks name the argument
HALF_PLANE = PolySet.from_poly(ConvexPoly.make(2, [(vec(1, 0), Fraction(0))]))
PLANE = ConvexPoly.whole_space(2)
LINE = ConvexPoly.whole_space(1)
POINT_CASES = {
    "ConvexPoly.contains": (lambda: PLANE.contains(vec(0)), "dimension 1, expected 2"),
    "ConeH.contains": (
        lambda: ConeH.whole_space(2).contains(vec(0, 0, 0)),
        "dimension 3, expected 2",
    ),
    "radial_cone": (lambda: cones.radial_cone(PLANE, vec(0)), "dimension 1, expected 2"),
    "frechet_normal_wrt": (
        lambda: cones.frechet_normal_wrt(HALF_PLANE, PLANE, vec(0)),
        "dimension 1, expected 2",
    ),
    "proximal_normal_wrt": (
        lambda: cones.proximal_normal_wrt(HALF_PLANE, PLANE, vec(0, 0, 0)),
        "^proximal_normal_wrt point: dimension 3, expected 2$",
    ),
    "limiting_normal_wrt": (
        lambda: cones.limiting_normal_wrt(HALF_PLANE, PLANE, vec(0)),
        "dimension 1, expected 2",
    ),
    "limiting_normal": (
        lambda: cones.limiting_normal(HALF_PLANE, vec(0)),
        "^limiting_normal point: dimension 1, expected 2$",
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

# a wrt of the wrong dimension is named as such, also when omega has no piece
# (no Omega cap C is built whose dimension check could fire instead)
SPACE = ConvexPoly.whole_space(3)
CASES.update(
    {
        f"{name} wrt": (
            lambda name=name, omega=omega: getattr(cones, name)(omega, SPACE, vec(0, 0)),
            f"{name} wrt: dimension 3, expected 2",
        )
        for name, omega in (
            ("frechet_normal_wrt", HALF_PLANE),
            ("proximal_normal_wrt", HALF_PLANE),
            ("limiting_normal_wrt", PolySet.make(2, [])),
        )
    }
)

@pytest.mark.parametrize("ineqs, eqs", [([((1,), 0.1)], []), ([], [((1,), 0.5)])])
def test_float_offset_raises_type_error(ineqs, eqs):
    # normals and offsets alike are exact: a float is refused, not converted
    # to its binary value
    with pytest.raises(TypeError, match="not an exact rational"):
        ConvexPoly.make(1, ineqs, eqs)


# a lift's coordinates are distinct members of range(total): a negative one
# would wrap, a repeated one would merge two coordinates of a row, and one
# past the end would raise a bare IndexError
TRIANGLE = ConvexPoly.make(2, [(vec(1, 1), 1), (vec(-1, 0), 0), (vec(0, -1), 0)])
LIFTS = {
    "ConvexPoly": lambda coords: ConvexPoly.lift(3, [(TRIANGLE, coords)]),
    "ConeH": lambda coords: ConeH.lift(
        3, [(ConeH.whole_space(1), (2,)), (TRIANGLE.recession(), coords)]
    ),
    # no piece, so no lifted piece: the set lift checks its coordinates itself
    "PolySet": lambda coords: PolySet.lift(3, [(PolySet.make(2, []), coords)]),
}


@pytest.mark.parametrize("coords", [(-1, 0), (0, 0), (1, 3)])
@pytest.mark.parametrize("kind", sorted(LIFTS))
def test_lift_refuses_coordinates_outside_range_or_repeated(kind, coords):
    message = f"lift coordinates {coords}: not distinct members of range(3)"
    with pytest.raises(ValueError, match=re.escape(message)):
        LIFTS[kind](coords)


def test_lift_accepts_coordinates_shared_between_factors():
    # two factors may share a coordinate: the lift is then their meet
    line = ConvexPoly.make(1, [(vec(1), Fraction(1))])
    meet = ConvexPoly.lift(2, [(TRIANGLE, range(2)), (line, (1,)), (line, [0])])
    assert meet == TRIANGLE


@pytest.mark.parametrize("case", sorted(CASES))
def test_dimension_mismatch_raises_value_error(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


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
    "slice": lambda: w(2).slice(range(-1, 2), (Fraction(0),) * 3),
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
        "slice": [
            "ValueError",
            "slice coordinates (-1, 0, 1): not distinct members of range(2)",
        ],
        "mixed_product_rule": ["ValueError", "omega1 (n + s): dimension 2, expected 3"],
    }


def test_no_assert_in_engine_sources():
    # validation must survive `python -O`, which strips every `assert`
    src = Path(polyvar.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(src.glob("*.py"))) > 10
    assert not found, found


def _imports_lp(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "polyvar.lp" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module in ("lp", "polyvar.lp") or (
            module in ("", "polyvar") and any(alias.name == "lp" for alias in node.names)
        )
    return False


def test_only_the_region_tests_import_lp():
    # the exact LP serves the cell search and union containment only
    src = Path(polyvar.__file__).parent
    importers = {
        path.stem
        for path in src.glob("*.py")
        if any(map(_imports_lp, ast.walk(ast.parse(path.read_text(), str(path)))))
    }
    assert importers == {"exactgeom", "stratify"}


def _imports_quotient(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.ImportFrom)
        and (node.module or "") in ("linalg", "polyvar.linalg")
        and any(alias.name == "quotient" for alias in node.names)
    )


def test_only_exactgeom_imports_quotient():
    # an offset becomes an exact quotient where a set is cut at fixed
    # coordinates: `ConvexPoly.slice` is that one section
    src = Path(polyvar.__file__).parent
    importers = {
        path.stem
        for path in src.glob("*.py")
        if any(map(_imports_quotient, ast.walk(ast.parse(path.read_text(), str(path)))))
    }
    assert importers == {"exactgeom"}
