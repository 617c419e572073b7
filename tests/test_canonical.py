"""Deep checks of the canonical-form machinery the equality tests rest on."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from conftest import random_cone, random_cone_union, rng_vec, vrep
from polyvar import exactgeom, lp
from polyvar.exactgeom import (
    ConeH,
    ConvexPoly,
    PolyUnion,
    union_subset,
)
from polyvar.linalg import (
    add,
    dot,
    frozen_rows,
    integer_row,
    neg,
    rref_ints,
    scale,
    vec,
)


def test_canonical_form_invariant_under_presentation():
    """Shuffled, duplicated, rescaled and redundant-augmented row sets of the
    same polyhedron must canonicalize to identical fields."""
    rng = random.Random(601)
    for _ in range(40):
        dim = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 4)):
            a = rng_vec(rng, dim, -3, 3)
            if any(a):
                rows.append((a, Fraction(rng.randint(-2, 2))))
        if not rows:
            continue
        p1 = ConvexPoly.make(dim, rows)
        noisy = list(rows)
        noisy.append(rows[0])  # duplicate
        a0, b0 = rows[0]
        noisy.append((scale(a0, Fraction(7, 3)), b0 * Fraction(7, 3)))  # rescale
        if len(rows) >= 2:
            a1, b1 = rows[1]
            noisy.append((add(a0, a1), b0 + b1))  # implied sum row
        rng.shuffle(noisy)
        p2 = ConvexPoly.make(dim, noisy)
        assert p1 == p2, (rows, noisy)


def test_cone_canonical_form_invariant():
    rng = random.Random(607)
    for _ in range(40):
        dim = rng.randint(1, 4)
        c1 = random_cone(rng, dim)
        noisy = [scale(a, Fraction(rng.randint(1, 5))) for a in c1.ineqs]
        noisy += list(c1.ineqs)
        if len(c1.ineqs) >= 2:
            noisy.append(add(c1.ineqs[0], c1.ineqs[1]))
        rng.shuffle(noisy)
        eqs = list(c1.eqs)
        c2 = ConeH.from_ineqs(dim, noisy, eqs)
        assert c1 == c2


def test_union_subset_agrees_with_grid():
    """Two-sided: a True verdict means no grid point of A escapes B, a False
    verdict ships a verified witness."""
    rng = random.Random(613)
    step = Fraction(1, 2)
    grid = [
        vec(*p)
        for p in itertools.product(
            [k * step for k in range(-4, 5)], repeat=2
        )
    ]
    for _ in range(25):
        a = random_cone_union(rng, 2, max_parts=2)
        b = random_cone_union(rng, 2, max_parts=2)
        ok, witness = a.subset_of(b)
        if ok:
            for p in grid:
                if a.contains(p):
                    assert b.contains(p), (a, b, p)
        else:
            assert a.contains(witness) and not b.contains(witness)


def test_poly_union_subset_inhomogeneous_grid():
    rng = random.Random(617)
    step = Fraction(1, 2)
    grid = [
        vec(*p)
        for p in itertools.product([k * step for k in range(-4, 5)], repeat=2)
    ]

    def random_box_poly():
        rows = []
        for _ in range(rng.randint(1, 3)):
            a = rng_vec(rng, 2, -2, 2)
            if any(a):
                rows.append((a, Fraction(rng.randint(-1, 2))))
        return ConvexPoly.make(2, rows)

    for _ in range(20):
        a = PolyUnion.make(2, [random_box_poly() for _ in range(rng.randint(1, 2))])
        b = PolyUnion.make(2, [random_box_poly() for _ in range(rng.randint(1, 2))])
        ok, witness = union_subset(a, b)
        if ok:
            for p in grid:
                if a.contains(p):
                    assert b.contains(p), (a, b, p)
        else:
            assert a.contains(witness) and not b.contains(witness)


def _dehomogenize(cone: ConeH) -> ConvexPoly:
    # cone over (x, t), t >= 0 interpreted at t = 1
    rows = [(a[:-1], -a[-1]) for a in cone.ineqs]
    eqs = [(e[:-1], -e[-1]) for e in cone.eqs]
    return ConvexPoly.make(cone.dim - 1, rows, eqs)


def test_eliminate_matches_vertex_ray_projection():
    """The projection equals the hull of the projected vertices, rays and
    lineality of `vrep`."""
    rng = random.Random(619)
    done = 0
    while done < 20:
        dim = rng.randint(2, 3)
        rows = []
        for _ in range(rng.randint(2, 5)):
            a = rng_vec(rng, dim, -2, 2)
            if any(a):
                rows.append((a, Fraction(rng.randint(0, 2))))
        p = ConvexPoly.make(dim, rows)
        if p.is_empty():
            continue
        keep = rng.randint(1, dim - 1)
        proj = p.eliminate(tuple(range(keep, dim)))
        verts, rays, lins = vrep(p)
        gen_rays = [r[:keep] + (Fraction(0),) for r in rays]
        gen_rays += [l[:keep] + (Fraction(0),) for l in lins]
        gen_rays += [tuple(-x for x in l[:keep]) + (Fraction(0),) for l in lins]
        gen_rays += [v[:keep] + (Fraction(1),) for v in verts]
        homog = ConeH.from_generators(keep + 1, gen_rays)
        rebuilt = _dehomogenize(homog)
        if not verts:
            # no vertices (a nonpointed polyhedron): projection of generators
            # plus any feasible point still spans; recompute with one point
            w = p.feasible_point()
            assert w is not None
            homog = ConeH.from_generators(
                keep + 1, gen_rays + [w[:keep] + (Fraction(1),)]
            )
            rebuilt = _dehomogenize(homog)
        assert proj == rebuilt, (p, proj, rebuilt)
        done += 1


# -- projection by generators against LP oracles --------------------------------


def in_projection(p: ConvexPoly, keep: tuple[int, ...], y) -> bool:
    """y lies in the projection of p onto the coordinates `keep` exactly when
    the fiber {x in p : x[keep[i]] = y[i]} is nonempty: one LP, no double
    description."""
    fix = [
        (tuple(Fraction(int(j == k)) for j in range(p.dim)), v)
        for k, v in zip(keep, y)
    ]
    return lp.feasible_point(list(p.ineqs), list(p.eqs) + fix, p.dim) is not None


def projection_cases(seed: int, count: int):
    """Seeded nonempty and empty polyhedra in dimension 2-4: random rows,
    rows orthogonal to a lineality direction, an equality, or an added row
    that cuts the set away."""
    rng = random.Random(seed)
    for i in range(count):
        dim = rng.randint(2, 4)
        rows = [
            (rng_vec(rng, dim, -2, 2), Fraction(rng.randint(-1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        if i % 3 == 1:  # nonpointed: every row vanishes on direction d
            d = rng_vec(rng, dim, -1, 1)
            dd = dot(d, d)
            rows = [(add(scale(a, dd), scale(d, -dot(a, d))), b) for a, b in rows]
        eqs = []
        if i % 4 == 2:
            eqs.append((rng_vec(rng, dim, -1, 1), Fraction(rng.randint(-1, 1))))
        if i % 7 == 3:  # empty: a row and its negation with a gap
            a = rng_vec(rng, dim, -1, 1)
            rows += [(a, Fraction(-1)), (neg(a), Fraction(0))]
        rows = [(a, b) for a, b in rows if any(a)]
        yield ConvexPoly.make(dim, rows, [(e, c) for e, c in eqs if any(e)])


def test_eliminate_matches_fiber_lp_oracle():
    """On a grid of the kept coordinates, membership in `eliminate` agrees
    with the fiber LP; every point of p projects into the result."""
    grid1 = [(Fraction(k, 2),) for k in range(-5, 6)]
    grid2 = [vec(*p) for p in itertools.product(range(-2, 3), repeat=2)]
    seen = {"empty": 0, "unbounded": 0, "lineality": 0, "eqs": 0}
    hits = {True: 0, False: 0}
    rng = random.Random(653)
    for p in projection_cases(647, 60):
        kept = rng.randint(1, 2)
        keep = tuple(sorted(rng.sample(range(p.dim), kept)))
        gone = tuple(i for i in range(p.dim) if i not in keep)
        proj = p.eliminate(gone)
        assert proj.dim == kept
        for y in grid1 if kept == 1 else grid2:
            got = proj.contains(y)
            assert got == in_projection(p, keep, y), (p, keep, y)
            hits[got] += 1
        w = p.feasible_point()
        assert (w is None) == proj.is_empty()
        if w is not None:
            assert proj.contains(tuple(w[i] for i in keep))
        _, rays, lins = vrep(p)
        seen["empty"] += p.is_empty()
        seen["unbounded"] += bool(rays or lins)
        seen["lineality"] += bool(lins)
        seen["eqs"] += bool(p.eqs)
    assert min(hits.values()) > 200, hits
    assert min(seen.values()) >= 5, seen


def test_eliminate_degenerate_inputs():
    zero_ = Fraction(0)
    # a strip 0 <= x - y <= 1 (lineality (1, 1)) onto x: the whole line
    strip = ConvexPoly.make(2, [(vec(1, -1), Fraction(1)), (vec(-1, 1), zero_)])
    assert strip.eliminate((1,)) == ConvexPoly.whole_space(1)
    # the half-plane y >= x onto y: the whole line
    half = ConvexPoly.make(2, [(vec(1, -1), zero_)])
    assert half.eliminate((0,)) == ConvexPoly.whole_space(1)
    # the line x = 1, y = 2z in 3-space onto (x, y): the line x = 1
    line = ConvexPoly.make(
        3, [], [(vec(1, 0, 0), Fraction(1)), (vec(0, 1, -2), zero_)]
    )
    assert line.eliminate((2,)) == ConvexPoly.make(2, [], [(vec(1, 0), Fraction(1))])
    # the ray {(t, t, 1) : t >= 1} onto z: the point 1
    ray = ConvexPoly.make(
        3, [(vec(-1, 0, 0), Fraction(-1))],
        [(vec(1, -1, 0), zero_), (vec(0, 0, 1), Fraction(1))],
    )
    assert ray.eliminate((0, 1)) == ConvexPoly.make(1, [], [(vec(1), Fraction(1))])
    # empty in, empty out, in the smaller dimension
    empty = ConvexPoly.make(2, [(vec(1, 0), Fraction(-1)), (vec(-1, 0), zero_)])
    assert empty.eliminate((1,)) == ConvexPoly.empty(1)


def test_eliminate_every_coordinate_and_any_order():
    """Eliminating all coordinates leaves the point space Q^0, whole or empty;
    the result does not depend on the order of `coords`."""
    rng = random.Random(659)
    for p in projection_cases(661, 40):
        everything = tuple(range(p.dim))
        want = ConvexPoly.empty(0) if p.is_empty() else ConvexPoly.whole_space(0)
        assert p.eliminate(everything) == want
        assert p.eliminate(everything[::-1]) == want
        coords = tuple(rng.sample(range(p.dim), rng.randint(1, p.dim - 1)))
        shuffled = tuple(rng.sample(coords, len(coords)))
        assert p.eliminate(coords) == p.eliminate(tuple(sorted(coords)))
        assert p.eliminate(shuffled) == p.eliminate(coords)


def ref_plus_ray(p: ConvexPoly, d) -> ConvexPoly:
    """p + R_+ d by lift and eliminate, the upward closure epigraphs used to
    take: (x, t) with x - t.d in p and t >= 0, t projected away."""
    if p.is_empty():
        return p
    n = p.dim
    ineqs = [(a + (-dot(a, d),), b) for a, b in p.ineqs]
    ineqs.append((tuple([Fraction(0)] * n) + (Fraction(-1),), Fraction(0)))
    eqs = [(e + (-dot(e, d),), c) for e, c in p.eqs]
    return ConvexPoly.make(n + 1, ineqs, eqs).eliminate((n,))


def test_plus_ray_matches_lift_and_eliminate():
    rng = random.Random(673)
    grew = 0
    for p in projection_cases(677, 50):
        up = tuple(Fraction(int(i == p.dim - 1)) for i in range(p.dim))
        for d in (up, rng_vec(rng, p.dim, -2, 2), vec(*[0] * p.dim)):
            got = p.plus_ray(d)
            assert got == ref_plus_ray(p, d), (p, d)
            grew += got != p
    assert grew > 30


def test_dd_round_trip_dim_five_and_six():
    rng = random.Random(631)
    for _ in range(10):
        dim = rng.randint(5, 6)
        c = random_cone(rng, dim, max_rows=4)
        assert ConeH.from_generators(dim, c.rays, c.lineality) == c


# -- canonicalization against the LP-per-row reference -------------------------


def ref_canon_h_rows(dim, ineqs, eqs):
    """The previous `_canon_h_rows`: a feasibility LP, one implied-equality
    LP per row with a restart after every hit, then one LP per row for
    redundancy."""
    eq_rows, pivots = rref_ints([integer_row(e + (d,))[0] for e, d in eqs])
    if dim in pivots:
        return None
    work = exactgeom._reduce_rows(ineqs, eq_rows, pivots)
    if work is None:
        return None
    eq_out = [exactgeom._split(r) for r in eq_rows]
    if lp.feasible_point(work, eq_out, dim) is None:
        return None

    # implied equalities: a.x <= b that the whole system forces to bind
    changed = True
    while changed:
        changed = False
        for i, (a, b) in enumerate(work):
            status, _, val = lp.solve(a, work, eq_out, dim, maximize=False)
            if status == lp.OPTIMAL and val == b:
                eq_rows, pivots = rref_ints(eq_rows + [integer_row(a + (b,))[0]])
                eq_out = [exactgeom._split(r) for r in eq_rows]
                # the system is feasible, so no row reduces to 0 <= negative
                work = exactgeom._reduce_rows(work[:i] + work[i + 1 :], eq_rows, pivots)
                changed = True
                break

    # redundant inequalities
    keep = list(work)
    i = 0
    while i < len(keep):
        a, b = keep[i]
        others = keep[:i] + keep[i + 1 :]
        status, _, val = lp.solve(a, others, eq_out, dim, maximize=True)
        if status == lp.OPTIMAL and val is not None and val <= b:
            keep.pop(i)
        else:
            i += 1
    keep.sort()
    eq_out.sort()
    return tuple(keep), tuple(eq_out)


def canon_cases(seed: int, count: int):
    """Seeded (dim, ineqs, eqs): random rows, plus rows that bind only
    together (a1 + a2 <= -(b1 + b2) beside a1 <= b1, a2 <= b2) with a
    zero, negative or positive total, and single-row systems."""
    rng = random.Random(seed)
    for i in range(count):
        dim = 1 + i % 4
        ineqs = []
        for _ in range(rng.randint(0, 4)):
            a = rng_vec(rng, dim, -3, 3)
            ineqs.append((a, Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
        if i % 3 == 0:
            a1, a2 = rng_vec(rng, dim, -2, 2), rng_vec(rng, dim, -2, 2)
            b1, b2 = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
            gap = rng.choice([0, 0, -1, 1])
            ineqs += [(a1, b1), (a2, b2), (neg(add(a1, a2)), gap - b1 - b2)]
        if i % 5 == 0:
            ineqs = ineqs[:1]
        eqs = []
        if rng.random() < 0.3:
            eqs.append((rng_vec(rng, dim, -2, 2), Fraction(rng.randint(-2, 2))))
        rng.shuffle(ineqs)
        yield dim, ineqs, eqs


def no_lp(*args, **kwargs):
    raise AssertionError("an LP inside canonicalization")


def canon_without_lp(monkeypatch, cases):
    """`_canon_h` of every case, computed afresh with `lp.solve` disabled."""
    exactgeom._canon_h_rows.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(lp, "solve", no_lp)
        return [exactgeom._canon_h(dim, ineqs, eqs) for dim, ineqs, eqs in cases]


def assert_matches_reference(cases, got):
    for (dim, ineqs, eqs), canon in zip(cases, got):
        want = ref_canon_h_rows(dim, frozen_rows(ineqs), frozen_rows(eqs))
        assert (None if canon is None else canon[:2]) == want, (dim, ineqs, eqs)


def test_canon_matches_reference(monkeypatch):
    zero = Fraction(0)
    fixed = [
        # x + y <= 0, -x <= 0, -y <= 0: all three bind, but only together
        (2, [(vec(1, 1), zero), (vec(-1, 0), zero), (vec(0, -1), zero)], []),
        (3, [(vec(1, 1, 1), zero), (vec(-1, 0, 0), zero), (vec(0, -1, 0), zero),
             (vec(0, 0, -1), zero)], []),
        (2, [(vec(1, 0), Fraction(-1)), (vec(-1, 0), zero)], []),  # empty
        (2, [(vec(1, 0), Fraction(1))], [(vec(1, 0), Fraction(1))]),
        (1, [(vec(0), zero)], []),
        (2, [(vec(1, 2), Fraction(3))], []),
    ]
    cases = fixed + list(canon_cases(641, 400))
    got = canon_without_lp(monkeypatch, cases)
    assert_matches_reference(cases, got)
    # every outcome is reached: empty, implied equalities beyond the given
    # ones, and full dimension inside the given equalities
    outcomes = {"empty": 0, "implied": 0, "full": 0}
    for (dim, ineqs, eqs), canon in zip(cases, got):
        if canon is None:
            outcomes["empty"] += 1
        else:
            rank = len(rref_ints([integer_row(e + (d,))[0] for e, d in eqs])[0])
            outcomes["implied" if len(canon[1]) > rank else "full"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def degenerate_canon_cases():
    """(dim, ineqs, eqs): a point, affine subspaces with redundant rows,
    facets duplicated modulo implied equalities, unbounded sets and cones
    with lineality."""

    def rows(*pairs):
        return [(vec(*a), Fraction(b)) for a, b in pairs]

    return [
        # the point (1, 2), cut out by inequalities, with slack rows
        (2, rows(((1, 0), 1), ((-1, 0), -1), ((0, 1), 2), ((0, -1), -2),
                 ((1, 1), 5), ((1, -1), 0), ((-1, 1), 3)), []),
        # the same point from a tight triangle of rows
        (2, rows(((-1, 0), -1), ((0, -1), -2), ((1, 1), 3), ((1, 0), 4)), []),
        # the origin of a cone, plus a scaled and a summed row
        (2, rows(((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((-1, -1), 0),
                 ((2, 0), 0), ((1, 1), 0)), []),
        # the line y = x from inequalities, with redundant rows
        (2, rows(((1, -1), 0), ((-1, 1), 0), ((1, -1), 1), ((-2, 2), 3)), []),
        # the plane z = 1 in 3-space from inequalities, with redundant rows
        (3, rows(((0, 0, 1), 1), ((0, 0, -1), -1), ((0, 0, 2), 3),
                 ((1, 0, 1), 1), ((1, 0, 0), 5)), []),
        # the same plane given as an equality, with rows constant on it
        (3, rows(((0, 0, 1), 2), ((0, 0, -1), 0)), rows(((0, 0, 1), 1))),
        # y = 0 implied; x + y <= 1 and x + 2y <= 1 duplicate x <= 1 on it
        (2, rows(((0, 1), 0), ((0, -1), 0), ((1, 0), 1), ((1, 1), 1),
                 ((1, 2), 1), ((-1, 0), 0), ((-1, 1), 0)), []),
        # the same in a cone: x = 0 implied, x - y <= 0 duplicates -y <= 0
        (2, rows(((1, 0), 0), ((-1, 0), 0), ((0, -1), 0), ((1, -1), 0)), []),
        # a slab in x, lines in y and z, a redundant and a duplicated row
        (3, rows(((1, 0, 0), 1), ((-1, 0, 0), 0), ((1, 0, 0), 2),
                 ((2, 0, 0), 2)), []),
        # a half-space with lineality (1, -1, 0) and (0, 0, 1), redundant rows
        (3, rows(((1, 1, 0), 1), ((1, 1, 0), 2), ((2, 2, 0), 2),
                 ((3, 3, 0), 4)), []),
        # an unbounded wedge inside the plane z = x, rows duplicated modulo it
        (3, rows(((-1, 0, 0), 0), ((0, -1, 0), 0), ((-1, 0, 1), 0),
                 ((1, 0, -1), 0), ((-2, -1, 1), 0), ((0, -1, 1), 1)),
         rows(((1, 0, -1), 0))),
        # a cone with lineality (0, 0, 1) and a redundant row
        (3, rows(((-1, 0, 0), 0), ((0, -1, 0), 0), ((-1, -1, 0), 0)), []),
        # a cone that is a line: x = y = 0 implied
        (3, rows(((1, 0, 0), 0), ((-1, 0, 0), 0), ((0, 1, 0), 0),
                 ((-1, -1, 0), 0)), []),
    ]


def test_canon_degenerate_cases_match_reference(monkeypatch):
    cases = degenerate_canon_cases()
    got = canon_without_lp(monkeypatch, cases)
    assert_matches_reference(cases, got)
    assert all(canon is not None for canon in got)


def test_canon_solves_no_lp(monkeypatch):
    """Full-dimensional polyhedra, polytopes around a centre, and cones:
    canonicalization is one double description, with no LP at all."""
    rng = random.Random(643)
    cases = []
    for k in range(1, 13):
        dim = rng.randint(1, 4)
        center = rng_vec(rng, dim, -2, 2)
        rows = []
        while len(rows) < k:
            a = rng_vec(rng, dim, -3, 3)
            if any(a):
                rows.append((a, dot(a, center) + rng.randint(0, 3)))
        cases.append((dim, rows, []))
        cases.append((dim, [(a, 0) for a, _ in rows], []))
    got = canon_without_lp(monkeypatch, cases)
    assert all(canon is not None for canon in got)
    assert_matches_reference(cases, got)
