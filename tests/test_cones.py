"""Normal cones: worked 3-d instance tables, grid oracles, inclusion chains."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    cap_poly,
    cone3,
    dd_generators,
    make_example1,
    perfbench_module,
    random_polyset_through,
    random_poly_through,
    raw_int_rows,
    ref_frechet_normal,
    ref_limiting_normal_wrt,
    rng_vec,
)
from polyvar import cones, quals
from polyvar.cones import (
    frechet_normal_wrt,
    limiting_normal,
    limiting_normal_wrt,
    normal_cone,
    proximal_normal_wrt,
    radial_cone,
)
from polyvar.exactgeom import ConeH, ConeUnion, ConvexPoly, PolySet, polar
from polyvar.linalg import Vec, add, dot, excess_at, neg, sub, vec
from polyvar.stratify import local_cells


def proximal_inequality_holds(
    omega: PolySet, wrt: ConvexPoly, point: Vec, cone: ConeH
) -> bool:
    """Independent exact check of a proximal normal cone relative to wrt:
    every generator against the witnesses of the adherent cells of omega cap
    wrt, and radial admissibility."""
    # first order, exactly: every cell of omega cap wrt adherent to the point
    # lies in a piece through the point, so a normal makes a non-acute angle
    # with w - point for each cell's witness w
    normals = cone.rays + cone.lineality + tuple(neg(l) for l in cone.lineality)
    offsets = [sub(cell.witness, point) for cell in local_cells([omega, wrt], point)]
    if any(dot(xstar, d) > 0 for xstar in normals for d in offsets):
        return False
    # radial admissibility, x + p x* in wrt for some p > 0, is membership in
    # the radial cone of wrt at the point
    radial = radial_cone(wrt, point)
    return all(radial.contains(xstar) for xstar in normals)


def grid_frechet_oracle(
    omega: PolySet, wrt: ConvexPoly, point: Vec, d: Vec
) -> bool:
    """Independent membership probe for the relative Fréchet cone.

    For polyhedral data the limsup condition is equivalent to
    <d, x - point> <= 0 on all x in Omega cap C near the point, tested on an
    exact rational grid; the radial condition is tested at sample step sizes.
    """
    step = Fraction(1, 8)
    offsets = [Fraction(k) * step for k in range(-8, 9)]
    for delta in itertools.product(offsets, repeat=len(point)):
        x = tuple(p + dd for p, dd in zip(point, delta))
        if omega.contains(x) and wrt.contains(x):
            if dot(d, sub(x, point)) > 0:
                return False
    return any(
        wrt.contains(tuple(p + t * dd for p, dd in zip(point, d)))
        for t in (Fraction(1, 8), Fraction(1, 64), Fraction(1))
    )


# -- radial cone ---------------------------------------------------------------


def test_radial_whole_space():
    c = ConvexPoly.whole_space(3)
    assert radial_cone(c, vec(1, 2, 3)) == ConeH.whole_space(3)


def test_radial_orthant_boundary():
    ex = make_example1()
    r = radial_cone(ex.c, vec(0, 5, -2))
    assert r == cone3([vec(-1, 0, 0)])


def test_radial_interior_point():
    halfline = ConvexPoly.make(1, [(vec(-1), Fraction(0))])
    assert radial_cone(halfline, vec(2)) == ConeH.whole_space(1)


def test_radial_outside_raises():
    halfline = ConvexPoly.make(1, [(vec(-1), Fraction(0))])
    with pytest.raises(ValueError):
        radial_cone(halfline, vec(-1))


# -- Fréchet cones, classical --------------------------------------------------


def test_frechet_interior_is_zero():
    box = PolySet.from_poly(
        ConvexPoly.make(2, [(vec(1, 0), Fraction(1)), (vec(-1, 0), Fraction(1))])
    )
    assert frechet_normal_wrt(box, ConvexPoly.whole_space(2), vec(0, 0)).is_zero()


def test_frechet_epigraph_of_identity():
    epi = PolySet.from_poly(ConvexPoly.make(2, [(vec(1, -1), Fraction(0))]))
    n = frechet_normal_wrt(epi, ConvexPoly.whole_space(2), vec(0, 0))
    assert n == ConeH.from_generators(2, [vec(1, -1)])
    # oracle: polar of the tangent halfplane (lineality (1,1), ray (0,1))
    assert n == polar(ConeH.from_generators(2, [vec(0, 1)], [vec(1, 1)]))
    for d in [vec(1, -1), vec(2, -2)]:
        assert grid_frechet_oracle(epi, ConvexPoly.whole_space(2), vec(0, 0), d)
    for d in [vec(1, 0), vec(0, -1), vec(1, -2)]:
        assert not grid_frechet_oracle(epi, ConvexPoly.whole_space(2), vec(0, 0), d)


def test_frechet_example1_omega1_boundary():
    # omega1 with the full space as reference set, on the diagonal face
    ex = make_example1()
    for p in (vec(0, 0, 0), vec(1, 5, 1)):
        n = frechet_normal_wrt(ex.omega1, ex.c_full, p)
        assert n == cone3([], []).from_generators(3, [vec(1, 0, -1)])


# -- Fréchet cones with respect to a set ----------------------------------------


def test_example1_omega1_wrt_table():
    ex = make_example1()
    w = ex.omega1
    # row 1: (x,z) = 0 -> {(u,0,v): u >= 0, u+v <= 0}
    expected_origin = cone3([vec(-1, 0, 0), vec(1, 0, 1)], [vec(0, 1, 0)])
    for p in (vec(0, 0, 0), vec(0, 1, 0)):
        assert frechet_normal_wrt(w, ex.c, p) == expected_origin
    # row 2: x = z > 0 -> ray (1,0,-1)
    ray = ConeH.from_generators(3, [vec(1, 0, -1)])
    for p in (vec(1, 0, 1), vec(2, -3, 2)):
        assert frechet_normal_wrt(w, ex.c, p) == ray
    # row 3: z > x >= 0 -> {0}
    for p in (vec(0, 0, 1), vec(1, 2, 3)):
        assert frechet_normal_wrt(w, ex.c, p).is_zero()


def test_example1_omega2_wrt_table():
    ex = make_example1()
    axis = cone3([vec(0, 1, 0)], [vec(1, 0, 0), vec(0, 0, 1)])  # {0} x R_- x {0}
    for p in (vec(0, 0, 0), vec(1, 0, 0), vec(0, 0, 5), vec(2, 0, -1)):
        assert frechet_normal_wrt(ex.omega2, ex.c, p) == axis
    for p in (vec(0, 1, 0), vec(3, 2, 1)):
        assert frechet_normal_wrt(ex.omega2, ex.c, p).is_zero()


def test_whole_space_reduction():
    ex = make_example1()
    for p in (vec(0, 0, 0), vec(1, 1, 1)):
        assert frechet_normal_wrt(ex.omega1, ex.c_full, p) == ref_frechet_normal(
            ex.omega1, p
        )


def test_outside_gives_the_empty_polyhedron():
    ex = make_example1()
    n = frechet_normal_wrt(ex.omega2, ex.c, vec(-1, 0, 0))
    assert n.is_empty() and n == ConvexPoly.empty(3)


def test_frechet_wrt_oracle_agreement():
    ex = make_example1()
    n = frechet_normal_wrt(ex.omega1, ex.c, vec(0, 0, 0))
    members = [vec(1, 0, -1), vec(1, 0, -2), vec(0, 0, -1), vec(0, 0, 0)]
    nonmembers = [vec(-1, 0, 0), vec(1, 0, 0), vec(0, 1, -1), vec(0, 0, 1)]
    for d in members:
        assert n.contains(d)
        assert grid_frechet_oracle(ex.omega1, ex.c, vec(0, 0, 0), d)
    for d in nonmembers:
        assert not n.contains(d)
        assert not grid_frechet_oracle(ex.omega1, ex.c, vec(0, 0, 0), d)


# -- proximal ------------------------------------------------------------------


def test_proximal_equals_frechet_convex():
    ex = make_example1()
    for p in (vec(0, 0, 0), vec(1, 0, 1)):
        assert proximal_normal_wrt(ex.omega1, ex.c, p) == frechet_normal_wrt(
            ex.omega1, ex.c, p
        )


def test_proximal_validation_example1():
    ex = make_example1()
    n = proximal_normal_wrt(ex.omega1, ex.c, vec(0, 0, 0))
    assert not n.is_empty()
    assert proximal_inequality_holds(ex.omega1, ex.c, vec(0, 0, 0), n)


def test_proximal_outside_wrt_empty():
    ex = make_example1()
    assert proximal_normal_wrt(ex.omega2, ex.c, vec(-2, 1, 0)) == ConvexPoly.empty(3)


def test_proximal_validation_near_an_inactive_facet():
    # wrt's facet x <= 1/4096 is inactive at 0 but closer than any fixed step
    omega = PolySet.from_poly(ConvexPoly.make(1, [(vec(1), Fraction(0))]))
    wrt = ConvexPoly.make(1, [(vec(-1), Fraction(1)), (vec(1), Fraction(1, 4096))])
    n = proximal_normal_wrt(omega, wrt, vec(0))
    assert proximal_inequality_holds(omega, wrt, vec(0), n)
    assert n == frechet_normal_wrt(omega, wrt, vec(0))
    assert n.contains(vec(1)) and not n.contains(vec(-1))


def test_proximal_validation_rejects_a_direction_leaving_wrt():
    omega = PolySet.from_poly(ConvexPoly.make(1, [(vec(1), Fraction(0))]))
    # (1,) makes an obtuse angle with every cell of omega cap wrt below 0;
    # it is radially admissible for the wide wrt only
    outward = ConeH.from_generators(1, [vec(1)])
    wide = ConvexPoly.make(1, [(vec(-1), Fraction(1)), (vec(1), Fraction(1))])
    assert proximal_inequality_holds(omega, wide, vec(0), outward)
    narrow = ConvexPoly.make(1, [(vec(-1), Fraction(1)), (vec(1), Fraction(0))])
    assert not proximal_inequality_holds(omega, narrow, vec(0), outward)


def test_proximal_validation_rejects_a_wrong_cone():
    # -e1 leaves wrt = {x >= 0} at the origin, so no proximal normal of the
    # set relative to wrt can have it as a ray
    ex = make_example1()
    wrong = ConeH.from_generators(3, rays=[vec(-1, 0, 0)])
    assert not proximal_inequality_holds(ex.omega1, ex.c, ex.origin, wrong)


def test_proximal_validation_rejects_the_whole_space():
    # every direction is radially admissible in wrt = R^3, so only the
    # first-order check at the cell witnesses can reject this cone
    ex = make_example1()
    whole = ConeH.whole_space(3)
    assert all(radial_cone(ex.c_full, ex.origin).contains(r) for r in whole.lineality)
    assert not proximal_inequality_holds(ex.omega1, ex.c_full, ex.origin, whole)


# -- limiting ------------------------------------------------------------------


def test_limiting_convex_whole_space_single_part():
    ex = make_example1()
    n = limiting_normal(ex.omega1, vec(0, 0, 0))
    assert len(n.parts) == 1
    assert n.parts[0] == ConeH.from_generators(3, [vec(1, 0, -1)])


def test_limiting_example2_intersection():
    # N_C(0, omega1 cap omega2) = {(u,w,v): 0 <= u <= -v, w <= 0}; the
    # middle coordinate is free below zero because omega2 constrains y >= 0
    ex = make_example1()
    omega = ex.omega1.intersect(ex.omega2)
    n = limiting_normal_wrt(omega, ex.c, ex.origin)
    expected = ConeUnion.single(
        cone3([vec(-1, 0, 0), vec(1, 0, 1), vec(0, 1, 0)])
    )
    assert n == expected
    assert n.contains(vec(0, -1, 0))


def test_limiting_example2_first_identity_corrected():
    # the engine value strictly contains N_C(0, omega1): the difference is
    # exactly the omega2 contribution {0} x R_- x {0}
    ex = make_example1()
    omega = ex.omega1.intersect(ex.omega2)
    lhs = limiting_normal_wrt(omega, ex.c, ex.origin)
    n1 = limiting_normal_wrt(ex.omega1, ex.c, ex.origin)
    n2 = limiting_normal_wrt(ex.omega2, ex.c, ex.origin)
    assert n1.subset_of(lhs)[0]
    assert not lhs.subset_of(n1)[0]
    assert lhs == n1.minkowski(n2)


def test_limiting_example2_wrt_factors():
    ex = make_example1()
    n1 = limiting_normal_wrt(ex.omega1, ex.c_full, ex.origin)
    n2 = limiting_normal_wrt(ex.omega2, ex.c, ex.origin)
    assert n1 == ConeUnion.single(ConeH.from_generators(3, [vec(1, 0, -1)]))
    assert n2 == ConeUnion.single(
        cone3([vec(0, 1, 0)], [vec(1, 0, 0), vec(0, 0, 1)])
    )
    total = n1.minkowski(n2)
    expected = ConeUnion.single(
        cone3([vec(-1, 0, 0), vec(0, 1, 0)], [vec(1, 0, 1)])
    )  # {(u,w,-u): u >= 0, w <= 0}
    assert total == expected


def test_limiting_outside_empty():
    ex = make_example1()
    assert limiting_normal_wrt(ex.omega2, ex.c, vec(-1, 0, 0)).is_empty()


def test_normal_cone_dispatch():
    ex = make_example1()
    assert isinstance(normal_cone(ex.omega1, ex.c, ex.origin, "frechet"), ConeH)
    assert isinstance(normal_cone(ex.omega1, ex.c, ex.origin, "limiting"), ConeUnion)
    with pytest.raises(ValueError):
        normal_cone(ex.omega1, ex.c, ex.origin, "clarke")


# -- structural invariants on random instances ----------------------------------


def test_inclusion_chain_and_convexity_random():
    rng = random.Random(53)
    for _ in range(20):
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        omega = random_polyset_through(rng, dim, base)
        wrt = random_poly_through(rng, dim, base)
        if not (omega.contains(base) and wrt.contains(base)):
            continue
        # the exact validation accepts the engine's own cone
        prox = proximal_normal_wrt(omega, wrt, base)
        assert proximal_inequality_holds(omega, wrt, base, prox)
        fre = frechet_normal_wrt(omega, wrt, base)
        lim = limiting_normal_wrt(omega, wrt, base)
        assert prox == fre  # polyhedral data
        assert ConeUnion.single(fre).subset_of(lim)[0]
        # monotonicity against the plain cone of the intersection
        inter = cap_poly(omega, wrt)
        assert fre.subset_of(frechet_normal_wrt(inter, ConvexPoly.whole_space(dim), base))
        # reduction: wrt = whole space reproduces the classical cones
        classical = limiting_normal_wrt(
            omega, ConvexPoly.whole_space(dim), base
        )
        assert classical == limiting_normal(omega, base)


def test_limiting_cone_realized_pointwise():
    """Independent check of the outer-limit construction: cones computed
    directly at points sliding into each adherent cell reproduce the cell's
    contribution, and cones at nearby grid points never leave the union."""
    rng = random.Random(61)
    done = 0
    while done < 10:
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        omega = random_polyset_through(rng, dim, base)
        wrt = random_poly_through(rng, dim, base)
        if not (omega.contains(base) and wrt.contains(base)):
            continue
        lim = limiting_normal_wrt(omega, wrt, base)
        for cell in local_cells([omega, wrt], base):
            for t in (Fraction(1, 16), Fraction(1, 64)):
                p = tuple(
                    (1 - t) * b + t * w for b, w in zip(base, cell.witness)
                )
                here = frechet_normal_wrt(omega, wrt, p)
                assert here == frechet_normal_wrt(omega, wrt, cell.witness)
                assert ConeUnion.single(here).subset_of(lim)[0]
        # inside a safe ball (below the 1-norm gap of every row inactive at
        # the base) the cone at any point of the intersection stays inside
        r_safe = Fraction(1, 4)
        for piece in list(omega.pieces) + [wrt]:
            for a, b2 in piece.ineqs:
                gap = abs(dot(a, base) - b2)
                if gap > 0:
                    r_safe = min(r_safe, gap / sum(abs(x) for x in a))
        step = r_safe / 2
        for delta in itertools.product([-step, Fraction(0), step], repeat=dim):
            x = tuple(b + d for b, d in zip(base, delta))
            if omega.contains(x) and wrt.contains(x):
                near = frechet_normal_wrt(omega, wrt, x)
                assert ConeUnion.single(near).subset_of(lim)[0], (x, base)
        done += 1


def test_limiting_parts_are_closed_cones():
    rng = random.Random(59)
    for _ in range(10):
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        omega = random_polyset_through(rng, dim, base)
        if not omega.contains(base):
            continue
        lim = limiting_normal(omega, base)
        for part in lim.parts:
            assert part.contains(tuple(Fraction(0) for _ in range(dim)))
            for r in part.rays:
                assert part.contains(tuple(3 * x for x in r))


# -- the tangent-generator form against the per-piece polar form ---------------


def ref_frechet_normal_wrt(
    omega: PolySet, wrt: ConvexPoly, point: Vec
) -> ConeH | ConvexPoly:
    request_domain = cap_poly(omega, wrt)
    if not request_domain.contains(point):
        return ConvexPoly.empty(omega.dim)
    return ref_frechet_normal(request_domain, point).intersect(radial_cone(wrt, point))


def hyperplane_through(rng: random.Random, dim: int, point: Vec) -> ConvexPoly:
    e = rng_vec(rng, dim)
    while not any(e):
        e = rng_vec(rng, dim)
    return ConvexPoly.make(dim, [], [(e, dot(e, point))])


def frechet_instances(seed: int = 71, count: int = 200):
    """(omega, wrt, base, probe) with the base in omega and wrt.

    Every third omega gains a piece inside a hyperplane through the base and
    every second a piece whose rows are all tight at the base; every fourth
    wrt is cut down to such a hyperplane and every fifth is the whole space.
    The probe is a random point, inside omega cap wrt or not.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        pieces = list(random_polyset_through(rng, dim, base).pieces)
        if k % 3 == 0:
            flat = random_poly_through(rng, dim, base)
            pieces.append(flat.intersect(hyperplane_through(rng, dim, base)))
        if k % 2 == 0:
            corner = [rng_vec(rng, dim), rng_vec(rng, dim)]
            pieces.append(ConvexPoly.make(dim, [(a, dot(a, base)) for a in corner]))
        wrt = random_poly_through(rng, dim, base)
        if k % 4 == 1:
            wrt = wrt.intersect(hyperplane_through(rng, dim, base))
        elif k % 5 == 2:
            wrt = ConvexPoly.whole_space(dim)
        probe = rng_vec(rng, dim, -1, 1)
        out.append((PolySet.make(dim, pieces), wrt, base, probe))
    return out


def assert_seeded_generators_canonical(cone: ConeH) -> None:
    assert cone.generators() == dd_generators(cone.dim, cone.ineqs, cone.eqs)


def test_frechet_cones_match_per_piece_reference():
    """One canonicalization of stacked tangent generators gives the cone the
    per-piece polars and their k + 1 intersections gave, field for field."""
    coverage = {"equality piece": 0, "flat wrt": 0, "two facets": 0, "outside": 0}
    for omega, wrt, base, probe in frechet_instances():
        coverage["equality piece"] += any(p.eqs for p in omega.pieces)
        coverage["flat wrt"] += bool(wrt.eqs)
        coverage["two facets"] += any(
            sum(dot(a, base) == b for a, b in p.ineqs) >= 2 for p in omega.pieces
        )
        for x in (base, probe):
            if omega.contains(x):
                got = frechet_normal_wrt(omega, ConvexPoly.whole_space(omega.dim), x)
                assert got == ref_frechet_normal(omega, x)
                assert_seeded_generators_canonical(got)
            got = frechet_normal_wrt(omega, wrt, x)
            ref = ref_frechet_normal_wrt(omega, wrt, x)
            assert got == ref
            coverage["outside"] += got.is_empty()
            if not got.is_empty():
                assert_seeded_generators_canonical(got)
        lim = limiting_normal_wrt(omega, wrt, base)
        assert lim.parts == ref_limiting_normal_wrt(omega, wrt, base).parts
        for part in lim.parts:
            assert_seeded_generators_canonical(part)
    assert min(coverage.values()) >= 30, coverage


def test_frechet_cones_build_no_polar_dd(monkeypatch):
    """No polar double description: no cone is built from generators."""
    instances = frechet_instances()

    def refuse(*args, **kwargs):
        raise AssertionError("ConeH.from_generators called")

    monkeypatch.setattr(ConeH, "from_generators", staticmethod(refuse))
    for omega, wrt, base, _ in instances:
        assert not frechet_normal_wrt(omega, ConvexPoly.whole_space(omega.dim), base).is_empty()
        assert not frechet_normal_wrt(omega, wrt, base).is_empty()
        assert not limiting_normal_wrt(omega, wrt, base).is_empty()


def per_cell_limiting_normal_wrt(
    omega: PolySet, wrt: ConvexPoly, point: Vec
) -> ConeUnion:
    """`limiting_normal_wrt` with one Fréchet cone per adherent cell."""
    request_domain = cap_poly(omega, wrt)
    if not request_domain.contains(point):
        return ConeUnion.empty(omega.dim)
    parts = [
        _frechet_cone(request_domain, cell.witness, wrt)
        for cell in local_cells([omega, wrt], point)
    ]
    return ConeUnion.make(omega.dim, parts)


def _frechet_cone(omega: PolySet, x: Vec, wrt: ConvexPoly) -> ConeH:
    return cones._frechet_cone(omega.dim, cones._rows_at(omega, x, wrt))


def test_limiting_cone_per_row_pattern_matches_per_cell_union():
    """One cone per pattern of rows at the witnesses gives the union of the
    per-cell cones, and of the per-piece reference cones, part for part;
    cells inside a piece (cone {0}) and wrt with equalities are covered."""
    coverage = {"interior cell": 0, "wrt with equalities": 0, "shared pattern": 0}
    for omega, wrt, base, _ in frechet_instances(seed=2317, count=50):
        got = limiting_normal_wrt(omega, wrt, base)
        assert got.parts == per_cell_limiting_normal_wrt(omega, wrt, base).parts
        assert got.parts == ref_limiting_normal_wrt(omega, wrt, base).parts
        domain = cap_poly(omega, wrt)
        witnesses = [c.witness for c in local_cells([omega, wrt], base)]
        coverage["interior cell"] += any(
            cones._active_rows(p, excess_at(w)) == ([], [])
            for p in domain.pieces
            for w in witnesses
        )
        coverage["wrt with equalities"] += bool(wrt.eqs)
        patterns = {cones._rows_at(omega, w, wrt) for w in witnesses}
        coverage["shared pattern"] += len(patterns) < len(witnesses)
    assert min(coverage.values()) >= 10, coverage


def test_classical_cones_from_relative_patterns_match_the_built_intersection():
    """Normal-densedness reads the classical limiting cone of Omega ∩ C from
    the cells of [Omega, C]: each pattern's tangent rows without C's radial
    rows, since T_{P∩C} = T_P ∩ T_C.  That union is the limiting cone of
    Omega ∩ C built piece by piece, part for part."""
    coverage = {"wrt with equalities": 0, "base on bd wrt": 0, "not the relative cone": 0}
    for omega, wrt, base, _ in frechet_instances(seed=3301, count=80):
        patterns = cones._patterns(omega, wrt, base)
        got = cones._union(omega.dim, quals._classical(patterns))
        assert got.parts == limiting_normal(cap_poly(omega, wrt), base).parts
        for part in got.parts:
            assert_seeded_generators_canonical(part)
        coverage["wrt with equalities"] += bool(wrt.eqs)
        coverage["base on bd wrt"] += any(dot(a, base) == b for a, b in wrt.ineqs)
        coverage["not the relative cone"] += got != cones._union(omega.dim, patterns)
    assert min(coverage.values()) >= 10, coverage


def _domination_instances():
    """(group, dim, omega, wrt, point): criterion 5's draws, the three
    relative cones of each criterion 6 intersection draw, and the
    benchmark's scaling generator at (d, k) = (4, 8) and (5, 10)."""
    workloads = perfbench_module("workloads")
    poly, polyset = workloads._poly, workloads._polyset
    for _, a, _ in workloads._criterion5():
        d = a["dim"]
        yield "criterion 5", d, polyset(d, a["omega"]), poly(d, a["wrt"]), a["base"]
    for rule, a, _ in workloads._criterion6():
        if rule == "intersection":
            d = a["dim"]
            o1, o2 = polyset(d, a["o1"]), polyset(d, a["o2"])
            c1, c2 = poly(d, a["c1"]), poly(d, a["c2"])
            for omega, wrt in ((o1, c1), (o2, c2), (o1.intersect(o2), c1.intersect(c2))):
                yield "criterion 6", d, omega, wrt, a["x"]
    for dk in ((4, 8), (5, 10)):
        a, _ = workloads._scaling_args(random.Random("scaling/instances"), dk)
        d = a["d"]
        yield dk, d, polyset(d, a["omega"]), poly(d, a["wrt"]), a["base"]


def test_undominated_patterns_lose_no_part_of_the_limiting_cone():
    """The cones of the undominated patterns have the same maximal parts as
    the cones of every pattern, and far fewer are built."""
    built = Counter()
    for group, dim, omega, wrt, point in _domination_instances():
        patterns = cones._patterns(omega, wrt, point)
        kept = cones._undominated(patterns)
        every = ConeUnion.make(dim, [cones._frechet_cone(dim, p) for p in patterns])
        some = ConeUnion.make(dim, [cones._frechet_cone(dim, p) for p in kept])
        assert some.parts == every.parts, (group, omega, wrt, point)
        assert set(kept) <= patterns
        built[group, "every"] += len(patterns)
        built[group, "undominated"] += len(kept)
    assert built == {
        ("criterion 5", "every"): 617,
        ("criterion 5", "undominated"): 365,
        ("criterion 6", "every"): 472,
        ("criterion 6", "undominated"): 284,
        ((4, 8), "every"): 64,
        ((4, 8), "undominated"): 17,
        ((5, 10), "every"): 164,
        ((5, 10), "undominated"): 47,
    }


def ref_active_rows(p: ConvexPoly, x: Vec):
    """`cones._active_rows` through `dot`, one conversion per row and point."""
    active = []
    for a, b in p.ineqs:
        value = dot(a, x)
        if value > b:
            return None
        if value == b:
            active.append(a)
    if any(dot(e, x) != d for e, d in p.eqs):
        return None
    return active, [e for e, _ in p.eqs]


def _onto(a: Vec, b: Fraction, x: Vec) -> Vec:
    # x moved along its first coordinate where a is nonzero onto a.x = b
    j = next(i for i, v in enumerate(a) if v)
    y = list(x)
    y[j] += (b - dot(a, x)) / a[j]
    return tuple(y)


def test_active_rows_match_dot_reference():
    rng = random.Random(4077)

    def q(den: int) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, den))

    nones = actives = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        rows = [(rng_vec(rng, dim), q(4)) for _ in range(rng.randint(1, 5))]
        rows = [(a, b) for a, b in rows if any(a)]
        if not rows:
            continue
        n_eqs = int(rng.random() < 0.4)
        canonical = ConvexPoly.make(dim, rows[n_eqs:], rows[:n_eqs])
        # rows kept as given: int entries, not primitive, not reduced
        raw = ConvexPoly(dim, raw_int_rows(rows[n_eqs:]), raw_int_rows(rows[:n_eqs]))
        for poly in (canonical, raw):
            start = tuple(q(5) for _ in range(dim))
            points = [start]
            for a, b in poly.ineqs + poly.eqs:
                if not any(a):
                    continue
                on = _onto(a, b, start)
                if poly.eqs:  # also on the first equality, where it allows
                    on = _onto(*poly.eqs[0], on)
                d = tuple(v / rng.randint(2, 7) for v in a)
                points += [on, sub(on, d), add(on, d)]  # on, inside, outside
            for x in points:
                got = cones._active_rows(poly, excess_at(x))
                assert got == ref_active_rows(poly, x), (poly, x)
                nones += got is None
                actives += bool(got and got[0])
    assert nones > 100 and actives > 100
