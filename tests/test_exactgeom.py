"""Geometry core: representation conversion, polars, unions, projections.

Derived expectations are computed by independent brute force (pairwise
active-set ray enumeration, generator sampling) before being compared with
the double-description path.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    active_pieces,
    dd_generators,
    primitive,
    random_cone,
    random_cone_union,
    raw_int_rows,
    rng_vec,
    vrep,
)
from polyvar import exactgeom, lp
from polyvar.exactgeom import (
    ConeH,
    ConeUnion,
    ConvexPoly,
    FiniteUnion,
    PolySet,
    PolyUnion,
    dd_convert,
    polar,
    union_subset,
)
from polyvar.linalg import (
    Vec,
    add,
    dot,
    integer_row,
    is_zero,
    neg,
    nullspace_ints,
    rref_ints,
    sub,
    to_vec,
    vec,
    zero,
)


def rank(rows: list[Vec]) -> int:
    return len(rref_ints([integer_row(r)[0] for r in rows])[0])


def nullspace(rows: list[Vec], dim: int) -> list[Vec]:
    """Canonical primitive basis of {x : r @ x = 0 for all rows r}."""
    return [to_vec(v) for v in nullspace_ints([integer_row(r)[0] for r in rows], dim)]


def is_bounded(p: ConvexPoly) -> bool:
    return p.recession().is_zero()


def brute_force_rays(dim: int, rows: list[Vec]) -> set[Vec]:
    """Extreme rays of a pointed cone {x : rows @ x <= 0} by active-set solve.

    Independent oracle: every extreme ray of a pointed cone is determined by
    some rank dim-1 subset of active rows; enumerate all subsets, solve, and
    keep the feasible direction.
    """
    out: set[Vec] = set()
    for size in range(dim):
        for subset in itertools.combinations(rows, size):
            if rank(list(subset)) != dim - 1:
                continue
            basis = nullspace(list(subset), dim)
            if len(basis) != 1:
                continue
            for cand in (basis[0], neg(basis[0])):
                if all(dot(a, cand) <= 0 for a in rows):
                    act = [a for a in rows if dot(a, cand) == 0]
                    if rank(act) == dim - 1:
                        out.add(primitive(cand))
    return out


# -- dd_convert --------------------------------------------------------------


def test_dd_halfline():
    c = ConeH.from_ineqs(1, [vec(-1)])
    assert dd_convert(c).rays == (vec(1),)
    assert c.lineality == ()


def test_dd_negative_orthant():
    c = ConeH.from_ineqs(2, [vec(1, 0), vec(0, 1)])
    assert set(c.rays) == {vec(-1, 0), vec(0, -1)}


def test_dd_derived_wedge():
    rows = [vec(1, 1), vec(-1, 0)]
    expected = brute_force_rays(2, rows)
    assert expected == {vec(0, -1), vec(1, -1)}
    c = ConeH.from_ineqs(2, rows)
    assert set(c.rays) == expected
    # both inclusion directions: rays satisfy H, and H-set is generated
    regen = ConeH.from_generators(2, c.rays, c.lineality)
    assert regen == c


def test_dd_round_trip_random():
    rng = random.Random(7)
    for _ in range(60):
        dim = rng.randint(1, 4)
        c = random_cone(rng, dim)
        c2 = ConeH.from_generators(dim, c.rays, c.lineality)
        assert c2 == c, (c, c2)


def test_dd_idempotent():
    c = ConeH.from_ineqs(3, [vec(1, 1, 0), vec(0, -1, 2)])
    r1 = dd_convert(c).rays
    r2 = dd_convert(c).rays
    assert r1 == r2


@pytest.mark.parametrize("dim", range(5))
def test_fixed_cones_carry_reference_generators(dim):
    whole, origin = ConeH.whole_space(dim), ConeH.zero(dim)
    for cone in (whole, origin):
        assert cone.generators() == dd_generators(dim, cone.ineqs, cone.eqs)
    assert whole == ConeH.from_ineqs(dim) and not whole.rows and not whole.eq_rows
    assert origin.is_zero()
    marker = ConeH.empty_marker(dim)
    assert (marker.ineqs, marker.eqs, marker.generators()) == ((), (), ((), ()))
    assert marker.is_empty() and marker != whole


def test_dd_empty_cone_is_origin():
    c = ConeH.zero(3)
    assert c.rays == () and c.lineality == ()
    assert c.is_zero()


# -- polar -------------------------------------------------------------------


def test_polar_whole_space():
    assert polar(ConeH.whole_space(3)) == ConeH.zero(3)


def test_polar_orthant():
    neg_orthant = ConeH.from_ineqs(2, [vec(1, 0), vec(0, 1)])
    pos_orthant = ConeH.from_ineqs(2, [vec(-1, 0), vec(0, -1)])
    assert polar(neg_orthant) == pos_orthant


def test_polar_derived_two_ray_cone():
    c = ConeH.from_generators(2, [vec(0, 1), vec(1, 1)])
    p = polar(c)
    expected = ConeH.from_ineqs(2, [vec(0, 1), vec(1, 1)])
    assert p == expected
    # sampling oracle: y in polar iff y.r <= 0 on every generator
    for y in itertools.product(range(-3, 4), repeat=2):
        yv = vec(*y)
        member = all(dot(yv, r) <= 0 for r in c.rays)
        assert p.contains(yv) == member


def test_polar_involution_random():
    rng = random.Random(11)
    for _ in range(60):
        dim = rng.randint(1, 4)
        c = random_cone(rng, dim)
        assert polar(polar(c)) == c


# -- cone unions -------------------------------------------------------------


def _example2_lhs() -> ConeUnion:
    # {(u, 0, v) : 0 <= u <= -v}
    return ConeUnion.single(
        ConeH.from_ineqs(3, [vec(-1, 0, 0), vec(1, 0, 1)], [vec(0, 1, 0)])
    )


def _example2_rhs() -> ConeUnion:
    # {(u, w, -u) : u >= 0, w <= 0}
    return ConeUnion.single(
        ConeH.from_ineqs(3, [vec(-1, 0, 0), vec(0, 1, 0)], [vec(1, 0, 1)])
    )


def test_union_ops_zero_subset_everything():
    z = ConeUnion.single(ConeH.zero(2))
    rng = random.Random(3)
    for _ in range(10):
        b = random_cone_union(rng, 2)
        assert z.subset_of(b) == (True, None)


def test_union_ops_example2_subset_failure():
    ok, w = _example2_lhs().subset_of(_example2_rhs())
    assert ok is False
    assert w is not None
    assert _example2_lhs().contains(w) and not _example2_rhs().contains(w)
    # the hand-computed witness certifies the same failure
    hand = vec(1, 0, -2)
    assert _example2_lhs().contains(hand) and not _example2_rhs().contains(hand)


def test_union_ops_example2_minkowski():
    ray = ConeUnion.single(
        ConeH.from_ineqs(3, [vec(-1, 0, 0)], [vec(0, 1, 0), vec(1, 0, 1)])
    )  # {(u,0,-u): u >= 0}
    axis = ConeUnion.single(
        ConeH.from_ineqs(3, [vec(0, 1, 0)], [vec(1, 0, 0), vec(0, 0, 1)])
    )  # {0} x R_- x {0}
    total = ray.minkowski(axis)
    assert total == _example2_rhs()


def test_union_ops_dim_mismatch():
    a = ConeUnion.single(ConeH.whole_space(2))
    b = ConeUnion.single(ConeH.whole_space(3))
    for op in (a.subset_of, a.intersect, a.minkowski):
        with pytest.raises(ValueError, match="dimension 3, expected 2"):
            op(b)


def test_is_zero_cone_cases():
    assert ConeUnion.single(ConeH.zero(2)).is_zero_cone()
    axis = ConeUnion.single(
        ConeH.from_ineqs(3, [vec(0, 1, 0)], [vec(1, 0, 0), vec(0, 0, 1)])
    )
    assert not axis.is_zero_cone()
    assert ConeUnion.single(polar(ConeH.whole_space(4))).is_zero_cone()


def test_subset_partial_order_random():
    rng = random.Random(23)
    for _ in range(12):
        dim = rng.randint(1, 4)
        a = random_cone_union(rng, dim, max_parts=4)
        b = random_cone_union(rng, dim, max_parts=4)
        c = random_cone_union(rng, dim, max_parts=4)
        assert a.subset_of(a)[0]
        if a.subset_of(b)[0] and b.subset_of(a)[0]:
            assert a == b
        if a.subset_of(b)[0] and b.subset_of(c)[0]:
            assert a.subset_of(c)[0]


def test_minkowski_commutative_and_monotone():
    rng = random.Random(31)
    for _ in range(10):
        dim = rng.randint(1, 3)
        a = random_cone_union(rng, dim)
        b = random_cone_union(rng, dim)
        assert a.minkowski(b) == b.minkowski(a)
        bigger = ConeUnion.make(dim, list(a.parts) + list(b.parts))
        assert a.subset_of(bigger)[0]
        assert a.minkowski(b).subset_of(bigger.minkowski(b))[0]


# -- convex polyhedra ---------------------------------------------------------


def test_poly_canonical_drops_redundant():
    p = ConvexPoly.make(
        2,
        [
            (vec(1, 0), Fraction(1)),
            (vec(1, 0), Fraction(2)),  # redundant
            (vec(0, 1), Fraction(1)),
        ],
    )
    assert len(p.ineqs) == 2


def test_poly_implied_equality_detected():
    p = ConvexPoly.make(2, [(vec(1, 1), Fraction(0)), (vec(-1, -1), Fraction(0))])
    assert p.eqs and not p.ineqs


def test_poly_empty_detection():
    p = ConvexPoly.make(1, [(vec(1), Fraction(0)), (vec(-1), Fraction(-1))])
    assert p.is_empty()


def test_poly_vrep_square():
    square = ConvexPoly.make(
        2,
        [
            (vec(1, 0), Fraction(1)),
            (vec(-1, 0), Fraction(0)),
            (vec(0, 1), Fraction(1)),
            (vec(0, -1), Fraction(0)),
        ],
    )
    verts, rays, lin = vrep(square)
    assert set(verts) == {vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)}
    assert rays == () and lin == ()
    assert is_bounded(square)


def test_poly_eliminate_projection():
    # triangle x >= 0, y >= 0, x + y <= 1 projected to the x axis
    tri = ConvexPoly.make(
        2,
        [
            (vec(-1, 0), Fraction(0)),
            (vec(0, -1), Fraction(0)),
            (vec(1, 1), Fraction(1)),
        ],
    )
    seg = tri.eliminate((1,))
    assert seg == ConvexPoly.make(
        1, [(vec(-1), Fraction(0)), (vec(1), Fraction(1))]
    )


def _spanned_by_make(dim: int, rays, lineality) -> ConvexPoly:
    """The polyhedron spanned by homogeneous generators, read off their
    polar through `ConvexPoly.make` (a third double description)."""
    rows, eqs = exactgeom._dd(dim + 1, rays, lineality)
    return ConvexPoly.make(
        dim, [(r[:-1], -r[-1]) for r in rows], [(e[:-1], -e[-1]) for e in eqs]
    )


def _eye_rows(dim: int) -> list[Vec]:
    return [tuple(Fraction(i == j) for j in range(dim)) for i in range(dim)]


def test_spanned_matches_the_canonicalizing_path():
    """Projections and added rays (`eliminate`, `plus_ray`) give, field for
    field, what canonicalizing the polar's rows gives."""
    rng = random.Random(2311)
    seen = dict.fromkeys(["empty", "bounded", "unbounded", "lineality", "equality"], 0)
    for _ in range(200):
        dim = rng.randint(1, 4)
        if rng.random() < 0.15:
            # only generators with t = 0: the empty polyhedron
            rays = [rng_vec(rng, dim, -2, 2) + (0,) for _ in range(rng.randint(0, 3))]
            lin = [rng_vec(rng, dim, -2, 2) + (0,) for _ in range(rng.randint(0, 1))]
        else:
            rows = [
                (rng_vec(rng, dim, -2, 2), Fraction(rng.randint(-2, 3), rng.randint(1, 2)))
                for _ in range(rng.randint(0, 4))
            ]
            n_eqs = int(rng.random() < 0.3)
            if rng.random() < 0.4:  # inside a box: bounded
                rows += [(u, Fraction(2)) for e in _eye_rows(dim) for u in (e, neg(e))]
            p = ConvexPoly.make(dim, rows[n_eqs:], rows[:n_eqs])
            if p.is_empty():
                continue
            rays, lin = exactgeom._homogeneous_generators(p)
            keep = sorted(rng.sample(range(dim), rng.randint(1, dim))) + [dim]
            rays = [tuple(r[i] for i in keep) for r in rays]
            lin = [tuple(l[i] for i in keep) for l in lin]
            dim = len(keep) - 1
            if rng.random() < 0.3:
                rays.append(rng_vec(rng, dim, -2, 2) + (0,))
        got = exactgeom._spanned(dim, rays, lin)
        assert got == _spanned_by_make(dim, rays, lin), (dim, rays, lin)
        if got.is_empty():
            seen["empty"] += 1
            continue
        rec = got.recession()
        seen["unbounded" if not rec.is_zero() else "bounded"] += 1
        seen["lineality"] += bool(rec.lineality)
        seen["equality"] += bool(got.eqs)
    assert min(seen.values()) >= 15, seen


def test_poly_union_minkowski_matches_vertex_sum():
    a = ConvexPoly.make(
        1, [(vec(1), Fraction(1)), (vec(-1), Fraction(0))]
    )  # [0,1]
    b = ConvexPoly.make(
        1, [(vec(1), Fraction(3)), (vec(-1), Fraction(-2))]
    )  # [2,3]
    s = PolyUnion.make(1, [a]).minkowski(PolyUnion.make(1, [b]))
    assert len(s.parts) == 1
    assert s.parts[0] == ConvexPoly.make(
        1, [(vec(1), Fraction(4)), (vec(-1), Fraction(-2))]
    )


def test_slice_cone_at_tail():
    # cone {(x, t) : x <= 0, t <= 0 } sliced at t = -1 gives {x <= 0}
    c = ConeH.from_ineqs(2, [vec(1, 0), vec(0, 1)])
    p = c.to_poly().slice((1,), vec(-1))
    assert p == ConvexPoly.make(1, [(vec(1), Fraction(0))])


def test_slice_holds_exactly_the_points_of_the_polyhedron():
    # u lies in p.slice(coords, v) iff the point with v at coords and u in
    # the other coordinates, in their order, lies in p; coordinates need not
    # be contiguous or sorted
    rng = random.Random(5281)
    lattice = [Fraction(k, 2) for k in range(-4, 5)]
    seen = Counter()
    for _ in range(30):
        rows = [
            (rng_vec(rng, 3, -2, 2), Fraction(rng.randint(-2, 2)))
            for _ in range(rng.randint(0, 3))
        ]
        eqs = [(rng_vec(rng, 3, -1, 1), Fraction(rng.randint(-1, 1)))]
        p = ConvexPoly.make(3, rows, eqs if rng.random() < 0.4 else [])
        for coords in ((0, 2), (1,), (2, 0), (), (0, 1, 2)):
            v = tuple(rng.choice(lattice) for _ in coords)
            section = p.slice(coords, v)
            free = [i for i in range(3) if i not in coords]
            assert section.dim == len(free)
            for u in itertools.product(lattice, repeat=len(free)):
                point = [None] * 3
                for i, x in [*zip(coords, v), *zip(free, u)]:
                    point[i] = x
                assert section.contains(u) == p.contains(tuple(point)), (p, coords, v, u)
            seen["empty" if section.is_empty() else "nonempty"] += 1
            seen["equalities"] += bool(section.eq_rows)
    assert min(seen.values()) >= 5, seen


def test_union_slice_is_the_union_of_the_part_slices():
    # a union's section is its parts' `ConvexPoly.slice` sections, a cone
    # part read as its rows, and holds u iff the point with v at coords and u
    # elsewhere lies in the union; unions of cones and of polyhedra alike
    rng = random.Random(5297)
    lattice = [Fraction(k, 2) for k in range(-4, 5)]
    seen = Counter()
    for k in range(80):
        if k % 2:
            union = random_cone_union(rng, 3)
            polys = [p.to_poly() for p in union.parts]
        else:
            pieces = [
                ConvexPoly.make(
                    3,
                    [
                        (rng_vec(rng, 3, -2, 2), Fraction(rng.randint(-2, 2)))
                        for _ in range(rng.randint(1, 3))
                    ],
                )
                for _ in range(rng.randint(1, 3))
            ]
            union = PolyUnion.make(3, pieces)
            polys = list(union.parts)
        coords = rng.choice(((2,), (0, 2), (1,), (2, 0)))
        v = tuple(rng.choice(lattice) for _ in coords)
        section = union.slice(coords, v)
        free = [i for i in range(3) if i not in coords]
        assert section.dim == len(free)
        assert all(isinstance(p, ConvexPoly) for p in section.parts)
        parts = [p.slice(coords, v) for p in polys]
        assert section.same_set(PolyUnion.make(len(free), parts))
        for u in itertools.product(lattice, repeat=len(free)):
            point = [None] * 3
            for i, x in [*zip(coords, v), *zip(free, u)]:
                point[i] = x
            assert section.contains(u) == union.contains(tuple(point)), (union, coords, v, u)
        kind = "cones" if k % 2 else "polyhedra"
        seen[kind, "empty" if section.is_empty() else "nonempty"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 3, seen


def test_polyset_membership_and_pieces():
    left = ConvexPoly.make(1, [(vec(1), Fraction(0))])
    right = ConvexPoly.make(1, [(vec(-1), Fraction(0))])
    s = PolySet.make(1, [left, right])
    assert s.contains(vec(5)) and s.contains(vec(-5))
    assert active_pieces(s, vec(0)) == (0, 1)
    assert active_pieces(s, vec(2)) in ((0,), (1,))


# -- membership and containment against the `dot` versions --------------------


def ref_contains(part, x: Vec) -> bool:
    """`contains` through `dot`, one conversion per row and point."""
    if part.is_empty():
        return False
    if isinstance(part, ConeH):
        ineqs = [(a, 0) for a in part.ineqs]
        eqs = [(e, 0) for e in part.eqs]
    else:
        ineqs, eqs = part.ineqs, part.eqs
    return all(dot(a, x) <= b for a, b in ineqs) and all(
        dot(e, x) == d for e, d in eqs
    )


def ref_cone_subset(c: ConeH, other: ConeH) -> bool:
    """`ConeH.subset_of` by `contains` of every ray and of +- each lineality
    vector."""
    if c.empty:
        return True
    if other.empty:
        return False
    gens = list(c.rays) + list(c.lineality) + [neg(l) for l in c.lineality]
    return all(ref_contains(other, to_vec(g)) for g in gens)


def _onto(a: Vec, b: Fraction, x: Vec) -> Vec:
    # x moved along its first coordinate where a is nonzero onto a.x = b
    j = next(i for i, v in enumerate(a) if v)
    y = list(x)
    y[j] += (b - dot(a, x)) / a[j]
    return tuple(y)


def test_contains_matches_dot_reference():
    rng = random.Random(5209)

    def q(den: int) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, den))

    verdicts = {True: 0, False: 0}
    for _ in range(120):
        dim = rng.randint(1, 4)
        rows = [(rng_vec(rng, dim), q(4)) for _ in range(rng.randint(1, 5))]
        rows = [(a, b) for a, b in rows if any(a)]
        if not rows:
            continue
        n_eqs = int(rng.random() < 0.4)
        polys = [
            ConvexPoly.make(dim, rows[n_eqs:], rows[:n_eqs]),
            # rows kept as given: int entries, not primitive, not reduced
            ConvexPoly(dim, raw_int_rows(rows[n_eqs:]), raw_int_rows(rows[:n_eqs])),
        ]
        cone_rows = [tuple(v / rng.randint(1, 4) for v in a) for a, _ in rows]
        raw_cone = [a for a, _ in raw_int_rows((a, 0) for a in cone_rows)]
        sets = polys + [
            ConeH.from_ineqs(dim, cone_rows[n_eqs:], cone_rows[:n_eqs]),
            ConeH(dim, tuple(raw_cone[n_eqs:]), tuple(raw_cone[:n_eqs]), (), ()),
        ]
        for part in sets:
            rows_of = part.to_poly() if isinstance(part, ConeH) else part
            start = tuple(q(5) for _ in range(dim))
            points = [start]
            for a, b in rows_of.ineqs + rows_of.eqs:
                if not any(a):
                    continue
                on = _onto(a, b, start)
                if rows_of.eqs:  # also on the first equality, where it allows
                    on = _onto(*rows_of.eqs[0], on)
                d = tuple(v / rng.randint(2, 7) for v in a)
                points += [on, sub(on, d), add(on, d)]  # on, inside, outside
            for x in points:
                got = part.contains(x)
                assert got == ref_contains(part, x), (part, x)
                verdicts[got] += 1
    assert min(verdicts.values()) > 200, verdicts


def test_cone_subset_of_matches_contains_reference():
    rng = random.Random(5227)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        dim = rng.randint(1, 4)
        c = random_cone(rng, dim)
        if rng.random() < 0.3:
            c = c.intersect(random_cone(rng, dim))
        others = [random_cone(rng, dim), c.intersect(random_cone(rng, dim))]
        if rng.random() < 0.3:  # an equality row, so lineality meets eqs
            e = rng_vec(rng, dim)
            others.append(ConeH.from_ineqs(dim, [], [e]) if any(e) else c)
        for other in others + [c.minkowski(random_cone(rng, dim))]:
            for x, y in ((c, other), (other, c)):
                got = x.subset_of(y)
                assert got == ref_cone_subset(x, y), (x, y)
                verdicts[got] += 1
    assert ConeH.empty_marker(2).subset_of(ConeH.zero(2))
    assert not ConeH.zero(2).subset_of(ConeH.empty_marker(2))
    assert min(verdicts.values()) > 100, verdicts


def ref_poly_subset(p: ConvexPoly, other: ConvexPoly) -> bool:
    """The previous `ConvexPoly.subset_of`: every row of `other` is valid on
    `p`, one LP per inequality and two per equality."""
    if p.is_empty():
        return True
    if other.is_empty():
        return False
    for a, b in other.ineqs:
        status, _, val = lp.solve(a, list(p.ineqs), list(p.eqs), p.dim)
        if status != lp.OPTIMAL or val is None or val > b:
            return False
    for e, d in other.eqs:
        for c, bound in ((e, d), (neg(e), -d)):
            status, _, val = lp.solve(c, list(p.ineqs), list(p.eqs), p.dim)
            if status != lp.OPTIMAL or val is None or val > bound:
                return False
    return True


def test_poly_subset_of_matches_lp_reference():
    """Random pairs with equalities, unbounded and empty sets, and pairs
    built to nest (a set against a relaxation or a cut of itself)."""
    rng = random.Random(5231)

    def random_poly(dim: int) -> ConvexPoly:
        rows = [(rng_vec(rng, dim, -2, 2), Fraction(rng.randint(-2, 3)))
                for _ in range(rng.randint(0, 4))]
        n_eqs = int(rng.random() < 0.3)
        return ConvexPoly.make(dim, rows[n_eqs:], rows[:n_eqs])

    def relaxed(p: ConvexPoly) -> ConvexPoly:
        rows = [(a, b + rng.randint(0, 2)) for a, b in p.ineqs]
        return ConvexPoly.make(p.dim, rows[rng.randint(0, 1):], p.eqs)

    verdicts = {True: 0, False: 0}
    kinds = {"empty": 0, "unbounded": 0, "eqs": 0}
    for _ in range(300):
        dim = rng.randint(1, 3)
        p, q = random_poly(dim), random_poly(dim)
        pairs = [(p, q), (q, p), (p, relaxed(p)), (p.intersect(q), p)]
        for x, y in pairs:
            got = x.subset_of(y)
            assert got == ref_poly_subset(x, y), (x, y)
            verdicts[got] += 1
            if x.is_empty():
                kinds["empty"] += 1
            elif not is_bounded(x):
                kinds["unbounded"] += 1
            if x.eqs or y.eqs:
                kinds["eqs"] += 1
    assert min(verdicts.values()) > 200, verdicts
    assert min(kinds.values()) > 50, kinds


# -- union containment against region subtraction ----------------------------


def ref_union_subset(a, b):
    """The region-subtraction `union_subset` of the parent tree, verbatim:
    every part of `a`, settled or not, is split along b's rows with one
    strict LP per region."""
    for part in map(_ref_rows_of, a.parts):
        regions = [(list(part.ineqs), [], list(part.eqs), None)]
        for bp in map(_ref_rows_of, b.parts):
            rows = list(bp.ineqs)
            for e, d in bp.eqs:
                rows.append((e, d))
                rows.append((neg(e), -d))
            next_regions = []
            for weak, strict, eqs, _ in regions:
                prefix = []
                for av, bv in rows:
                    cand = (weak + prefix, strict + [(neg(av), -bv)], eqs)  # a.x > b
                    point = lp.strict_feasible_point(*cand, a.dim)
                    if point is not None:
                        next_regions.append((*cand, point))
                    prefix.append((av, bv))
            regions = next_regions
            if not regions:
                break
        if regions:
            weak, strict, eqs, point = regions[0]
            if point is None:  # b has no parts: the part itself survives
                point = lp.strict_feasible_point(weak, strict, eqs, a.dim)
            return False, point
    return True, None


def _ref_rows_of(part) -> ConvexPoly:
    return part.to_poly() if isinstance(part, ConeH) else part


def _random_poly(rng: random.Random, dim: int) -> ConvexPoly:
    rows = []
    for _ in range(rng.randint(1, 3)):
        a = rng_vec(rng, dim, -2, 2)
        if any(a):
            rows.append((a, Fraction(rng.randint(-1, 3), rng.randint(1, 2))))
    return ConvexPoly.make(dim, rows)


def _random_part(rng: random.Random, dim: int, cones: bool):
    while True:
        part = random_cone(rng, dim) if cones else _random_poly(rng, dim)
        if not part.is_empty():
            return part


def _union_cases(rng: random.Random):
    """Seeded (a, b, every part of a sits in one part of b) triples.

    Kinds: a part equal to a part of b, a cone inside one part of b, a cone
    inside b's union but in no single part, random (mostly not contained),
    an empty side, and cones against polyhedra.
    """
    for _ in range(60):
        dim = rng.randint(1, 4)
        for cones in (True, False):
            make = ConeUnion.make if cones else PolyUnion.make
            parts = [_random_part(rng, dim, cones) for _ in range(rng.randint(1, 4))]
            b = make(dim, parts)
            k = rng.randint(1, len(b.parts))
            equal = rng.sample(b.parts, k)
            yield make(dim, equal), b, True
            if cones:
                inside = [q.intersect(random_cone(rng, dim)) for q in equal]
                yield ConeUnion.make(dim, inside + equal[1:]), b, True
                # a cone cut in two by a row: in the union, in neither half
                c = _random_part(rng, dim, True)
                h = rng_vec(rng, dim)
                if any(h):
                    halves = [
                        ConeH.from_ineqs(dim, c.ineqs + (h,), c.eqs),
                        ConeH.from_ineqs(dim, c.ineqs + (neg(h),), c.eqs),
                    ]
                    cover = ConeUnion.make(dim, halves + list(b.parts))
                    yield ConeUnion.single(c), cover, False
                # cones against polyhedra, both ways
                polys = PolyUnion.make(
                    dim, [_random_part(rng, dim, False) for _ in range(2)]
                )
                as_polys = PolyUnion.make(dim, [q.to_poly() for q in b.parts])
                yield b, polys, False
                yield polys, b, False
                yield b, as_polys, False
                yield ConeUnion.make(dim, inside), as_polys, False
            else:
                inside = [q.intersect(_random_poly(rng, dim)) for q in equal]
                yield make(dim, inside + equal[1:]), b, False
            parts = [_random_part(rng, dim, cones) for _ in range(rng.randint(1, 4))]
            other = make(dim, parts)
            yield other, b, False
            yield b, other, False
            yield make(dim, list(other.parts) + equal), b, False
            empty = FiniteUnion.empty(dim)
            yield empty, b, True
            yield b, empty, False


def ref_cone_in_poly(k: ConeH, q: ConvexPoly) -> bool:
    """K inside q by LP: sup a.x over K is at most b for every row of q,
    and every equality of q vanishes on K with d = 0."""
    if q.is_empty():
        return False
    rows = [(a, Fraction(0)) for a in k.ineqs]
    eqs = [(e, Fraction(0)) for e in k.eqs]

    def sup_at_most(c, bound) -> bool:
        status, _, val = lp.solve(c, rows, eqs, k.dim)
        return status == lp.OPTIMAL and val is not None and val <= bound

    return all(sup_at_most(a, b) for a, b in q.ineqs) and all(
        d == 0 and sup_at_most(e, 0) and sup_at_most(neg(e), 0) for e, d in q.eqs
    )


def test_cone_in_polyhedron_matches_lp_reference(monkeypatch):
    """Random cones against random polyhedra: the verdict is the LP
    reference's, and a cone inside settles with no region LP.  Kinds: q
    without the origin, q with equalities, K with lineality."""
    rng = random.Random(5309)
    calls = 0
    solve = lp.strict_feasible_point

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(lp, "strict_feasible_point", counted)
    verdicts = {True: 0, False: 0}
    kinds = {"no_origin": 0, "eqs": 0, "lineality": 0}
    for _ in range(250):
        dim = rng.randint(1, 3)
        k = random_cone(rng, dim, max_rows=rng.randint(0, 3))
        if rng.random() < 0.25:  # a cone with an equality, as a slice
            e = rng_vec(rng, dim)
            k = k.intersect(ConeH.from_ineqs(dim, [], [e]))
        rows = [(rng_vec(rng, dim, -2, 2), Fraction(rng.randint(-1, 2)))
                for _ in range(rng.randint(0, 3))]
        n_eqs = int(rng.random() < 0.3)
        q = ConvexPoly.make(dim, rows[n_eqs:], rows[:n_eqs])
        if rng.random() < 0.4:  # q around the cone's rows: often holds it
            q = ConvexPoly.make(
                dim,
                [(a, Fraction(rng.randint(0, 1))) for a in k.ineqs] + list(q.ineqs)[:1],
                [(e, Fraction(0)) for e in k.eqs],
            )
        calls = 0
        got, witness = union_subset(ConeUnion.single(k), PolyUnion.single(q))
        assert got == ref_cone_in_poly(k, q), (k, q)
        if got:
            assert calls == 0, (k, q)
        else:
            assert not q.contains(witness) and k.contains(witness), (k, q)
        verdicts[got] += 1
        kinds["no_origin"] += not q.contains(zero(dim))
        kinds["eqs"] += bool(q.eqs)
        kinds["lineality"] += bool(k.lineality)
    assert min(verdicts.values()) > 50, verdicts
    assert min(kinds.values()) > 20, kinds


def test_union_subset_matches_region_subtraction_reference(monkeypatch):
    rng = random.Random(5303)
    calls = 0
    solve = lp.strict_feasible_point

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(lp, "strict_feasible_point", counted)
    seen = {"settled_only": 0, "true_by_regions": 0, "false": 0, "empty_b": 0}
    for a, b, in_one_part in _union_cases(rng):
        calls = 0
        got = union_subset(a, b)
        lps = calls
        assert got == ref_union_subset(a, b), (a.parts, b.parts)
        if in_one_part:
            assert lps == 0, (a.parts, b.parts)
            seen["settled_only"] += bool(a.parts)
        elif got[0] and lps:
            seen["true_by_regions"] += 1
        seen["false"] += not got[0]
        seen["empty_b"] += b.is_empty() and bool(a.parts)
    assert min(seen.values()) >= 20, seen
