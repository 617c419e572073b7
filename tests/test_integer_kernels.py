"""The integer kernels agree with the rational kernels they replaced.

`linalg.dot`/`rref_ints`/`nullspace_ints`/`reduce_mod_rowspace`, the test
helper `primitive` and `exactgeom._dd` compute on Python ints.  The
`Fraction` versions below are the previous implementations, kept verbatim
as the reference; seeded inputs (dimensions 1-7, integer and rational
entries, zero and duplicate rows) must give equal results.  The linalg
kernels hand back `Fraction`s; the rays and lineality of `_dd` and of a cone
are canonical rows and must be all `int`.
`ref_dd` combines every (+, -) pair and prunes redundant rays by LP, where
`_dd` combines adjacent pairs only; degenerate inputs check that as well.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import dd_generators, primitive, vrep
from polyvar import exactgeom, lp
from polyvar.exactgeom import ConeH, ConvexPoly
from polyvar.linalg import (
    Vec,
    dot,
    integer_row,
    nullspace_ints,
    reduce_mod_rowspace,
    rref_ints,
    to_vec,
)


# -- Fraction wrappers of the int kernels, as `linalg` had them ---------------


def rref(rows: list[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form with primitive-integer rows.

    Returns (rows, pivot_columns).  The output is the canonical basis of the
    input row space: unique for a given span, so syntactic comparison of RREF
    rows decides row-space equality.
    """
    basis, pivots = rref_ints([integer_row(r)[0] for r in rows])
    return [to_vec(row) for row in basis], pivots


def nullspace(rows: list[Vec], dim: int) -> list[Vec]:
    """Canonical primitive basis of {x : r @ x = 0 for all rows r}."""
    basis = nullspace_ints([integer_row(r)[0] for r in rows], dim)
    return [to_vec(v) for v in basis]


# -- the rational reference kernels -------------------------------------------


def ref_is_zero(a):
    return all(x == 0 for x in a)


def ref_dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_scale(a, s):
    return tuple(x * s for x in a)


def ref_neg(a):
    return tuple(-x for x in a)


def ref_primitive(a):
    if ref_is_zero(a):
        return a
    den = 1
    for x in a:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in a]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Fraction(v // g) for v in ints)


def ref_rref(rows):
    mat = [list(r) for r in rows if not ref_is_zero(r)]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [ref_primitive(tuple(row)) for row in mat[:r]], pivots


def ref_reduce_mod_rowspace(v, rref_rows, pivots):
    w = list(v)
    for row, c in zip(rref_rows, pivots):
        if w[c] != 0:
            f = w[c] / row[c]
            w = [x - f * y for x, y in zip(w, row)]
    return tuple(w)


def ref_nullspace(rows, dim):
    basis, pivots = ref_rref(rows)
    out = []
    for c in (c for c in range(dim) if c not in pivots):
        v = [Fraction(0)] * dim
        v[c] = Fraction(1)
        for row, p in zip(basis, pivots):
            v[p] = -row[c] / row[p]
        out.append(ref_primitive(tuple(v)))
    return out


def ref_in_cone_of(dim, x, rays, lin):
    """Is x in cone(rays) + span(lin)?  LP in the coefficients."""
    k, s = len(rays), len(lin)
    if k == 0 and s == 0:
        return ref_is_zero(x)
    eqs = []
    for c in range(dim):
        coeff = tuple(r[c] for r in rays) + tuple(l[c] for l in lin)
        eqs.append((coeff, x[c]))
    ineqs = []
    for j in range(k):
        e = [Fraction(0)] * (k + s)
        e[j] = Fraction(-1)
        ineqs.append((tuple(e), Fraction(0)))
    return lp.feasible_point(ineqs, eqs, k + s) is not None


def ref_prune_rays(dim, rays, lin):
    lin_rows, lin_piv = ref_rref(list(lin))
    canon = []
    seen = set()
    for r in rays:
        rr = ref_primitive(ref_reduce_mod_rowspace(r, lin_rows, lin_piv))
        if not ref_is_zero(rr) and rr not in seen:
            seen.add(rr)
            canon.append(rr)
    i = 0
    while i < len(canon):
        others = canon[:i] + canon[i + 1 :]
        if ref_in_cone_of(dim, canon[i], others, lin):
            canon.pop(i)
        else:
            i += 1
    canon.sort()
    return canon


def ref_dd(dim, ineq_rows, eq_rows):
    lin = ref_nullspace(list(eq_rows), dim)
    rays = []
    for a in ineq_rows:
        pivot = next((l for l in lin if ref_dot(a, l) != 0), None)
        if pivot is not None:
            if ref_dot(a, pivot) > 0:
                pivot = ref_neg(pivot)
            pa = ref_dot(a, pivot)
            lin = [
                ref_sub(l, ref_scale(pivot, ref_dot(a, l) / pa))
                for l in lin
                if l is not pivot
                and not ref_is_zero(ref_sub(l, ref_scale(pivot, ref_dot(a, l) / pa)))
            ]
            rays = [ref_sub(r, ref_scale(pivot, ref_dot(a, r) / pa)) for r in rays]
            rays.append(pivot)
            rays = ref_prune_rays(dim, rays, lin)
            continue
        vals = [ref_dot(a, r) for r in rays]
        if all(v <= 0 for v in vals):
            continue
        new_rays = [r for r, v in zip(rays, vals) if v <= 0]
        for rp, vp in zip(rays, vals):
            if vp <= 0:
                continue
            for rn, vn in zip(rays, vals):
                if vn < 0:
                    comb = ref_sub(ref_scale(rn, vp), ref_scale(rp, vn))
                    if not ref_is_zero(comb):
                        new_rays.append(ref_primitive(comb))
        rays = ref_prune_rays(dim, new_rays, lin)
    return rays, lin


def ref_cone_vrep(cone):
    """The previous `ConeH._ensure_vrep`, which pruned the rays twice."""
    rays, lin = ref_dd(cone.dim, list(cone.ineqs), list(cone.eqs))
    lin_rows, _ = ref_rref(lin)
    return tuple(ref_prune_rays(cone.dim, rays, lin)), tuple(sorted(lin_rows))


# -- seeded inputs --------------------------------------------------------------


def rand_entry(rng: random.Random, rational: bool) -> Fraction:
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return Fraction(rng.randint(-3, 3))


def rand_vec(rng: random.Random, dim: int, rational: bool) -> Vec:
    return tuple(rand_entry(rng, rational) for _ in range(dim))


def rand_rows(rng: random.Random, dim: int, rational: bool, max_rows: int) -> list[Vec]:
    rows = [rand_vec(rng, dim, rational) for _ in range(rng.randint(0, max_rows))]
    if rows and rng.random() < 0.3:
        rows.append(tuple(Fraction(0) for _ in range(dim)))
    if rows and rng.random() < 0.3:
        # a duplicate, possibly rescaled by a nonzero rational
        s = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        rows.append(tuple(x * s for x in rng.choice(rows)))
    rng.shuffle(rows)
    return rows


def cases(seed: int, count: int, max_dim: int = 7):
    rng = random.Random(seed)
    for i in range(count):
        dim = 1 + i % max_dim
        rational = i % 2 == 1
        yield rng, dim, rational


def assert_fractions(*vectors) -> None:
    for v in vectors:
        assert all(type(x) is Fraction for x in v), v


def assert_ints(*vectors) -> None:
    for v in vectors:
        assert type(v) is tuple and all(type(x) is int for x in v), v


# -- the linalg kernels -------------------------------------------------------------


def test_dot_and_primitive_match_reference():
    for rng, dim, rational in cases(11, 700):
        a, b = rand_vec(rng, dim, rational), rand_vec(rng, dim, rational)
        got = dot(a, b)
        assert got == ref_dot(a, b) and type(got) is Fraction
        assert primitive(a) == ref_primitive(a)
        assert_fractions(primitive(a))


def test_rref_nullspace_and_reduction_match_reference():
    for rng, dim, rational in cases(12, 700):
        rows = rand_rows(rng, dim, rational, max_rows=6)
        basis, pivots = rref(rows)
        ref_basis, ref_pivots = ref_rref(rows)
        assert (basis, pivots) == (ref_basis, ref_pivots)
        assert_fractions(*basis)
        null = nullspace(rows, dim)
        assert null == ref_nullspace(rows, dim)
        assert_fractions(*null)
        int_basis, int_pivots = rref_ints([integer_row(r)[0] for r in rows])
        for _ in range(3):
            v = rand_vec(rng, dim, rational)
            got = to_vec(
                reduce_mod_rowspace(integer_row(v)[0], int_basis, int_pivots)
            )
            want = ref_reduce_mod_rowspace(v, ref_basis, ref_pivots)
            assert got == ref_primitive(want)
            assert_fractions(got)


# -- double description ------------------------------------------------------------


def positive_multiple(v: Vec, w: Vec) -> bool:
    """Is v = s w for some rational s > 0?"""
    k = next(i for i, x in enumerate(w) if x != 0)
    s = v[k] / w[k]
    return s > 0 and all(x == s * y for x, y in zip(v, w))


def test_dd_matches_reference():
    for rng, dim, rational in cases(13, 280):
        ineqs = rand_rows(rng, dim, rational, max_rows=5)
        eqs = rand_rows(rng, dim, rational, max_rows=1)
        rays, lin = exactgeom._dd(dim, ineqs, eqs)
        ref_rays, ref_lin = ref_dd(dim, ineqs, eqs)
        assert rays == ref_rays
        assert len(lin) == len(ref_lin)
        assert all(positive_multiple(v, w) for v, w in zip(lin, ref_lin))
        assert_ints(*rays, *lin)


def lifted(points) -> list[Vec]:
    """Points of an affine slice t = 1 as vectors (p, 1)."""
    return [tuple(Fraction(x) for x in p) + (Fraction(1),) for p in points]


def degenerate_cases():
    """(dim, ineqs, eqs) where many rays share a face, rows repeat, are
    rescaled or redundant, or nothing but lineality remains."""
    parabola = [(t, t * t) for t in range(-3, 4)]
    octagon = [(2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1), (0, -2), (1, -1)]
    cube = list(itertools.product((-1, 1), repeat=3))
    cross = [tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (-1, 1)]
    # pyramids over polygons: every base vertex lies on the base facet
    pyramid = [p + (0,) for p in parabola] + [(0, 3, 1)]
    prism = [p + (h,) for p in octagon[::2] for h in (0, 1)]
    solids = [parabola, parabola + [(0, 12)], octagon, cube, cross, pyramid, prism]
    out = []
    for gens in solids:
        dim = len(gens[0]) + 1
        # the cone's polar (rows -v) and the cone itself (its facet rows)
        polar_rows = [tuple(-x for x in v) for v in lifted(gens)]
        facets, _ = ref_dd(dim, polar_rows, [])
        out.append((dim, polar_rows, []))
        out.append((dim, list(facets), []))
    rng = random.Random(16)
    for dim, rows, _ in list(out):
        rows = list(rows)
        rows += [rng.choice(rows) for _ in range(2)]  # duplicates
        rows += [tuple(x * rng.randint(2, 5) for x in rng.choice(rows))]  # rescaled
        a, b = rng.sample(rows, 2)
        rows.append(tuple(x + y for x, y in zip(a, b)))  # redundant
        for _ in range(3):
            out.append((dim, rng.sample(rows, len(rows)), []))
    # an opposite pair cuts out a hyperplane; equalities shrink the lineality
    for dim, rows, _ in out[: len(solids) * 2 : 3]:
        out.append((dim, rows + [tuple(-x for x in rows[0])], []))
        out.append((dim, rows, [rows[1]]))
    # nothing but lineality: no rows, zero rows, rows fixed by the equalities
    for dim in range(1, 5):
        zero_row = tuple(Fraction(0) for _ in range(dim))
        unit = tuple(Fraction(int(i == 0)) for i in range(dim))
        out.append((dim, [], []))
        out.append((dim, [zero_row, zero_row], []))
        out.append((dim, [unit, tuple(-x for x in unit)], [unit]))
        out.append((dim, [], [unit]))
    return out


def test_dd_matches_reference_on_degenerate_inputs():
    for dim, ineqs, eqs in degenerate_cases():
        rays, lin = exactgeom._dd(dim, ineqs, eqs)
        ref_rays, ref_lin = ref_dd(dim, ineqs, eqs)
        assert rays == ref_rays, (dim, ineqs, eqs)
        assert len(lin) == len(ref_lin)
        assert all(positive_multiple(v, w) for v, w in zip(lin, ref_lin))


def test_dd_and_cone_rays_solve_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise RuntimeError("an LP inside the double description")

    inputs = degenerate_cases()  # built with the LP-pruned reference
    monkeypatch.setattr(lp, "solve", no_lp)
    exactgeom._canon_h_rows.cache_clear()
    for dim, ineqs, eqs in inputs:
        exactgeom._dd(dim, ineqs, eqs)
    for rng, dim, rational in cases(17, 70):
        cone = ConeH.from_ineqs(
            dim,
            [r for r in rand_rows(rng, dim, rational, max_rows=5) if any(r)],
            [r for r in rand_rows(rng, dim, rational, max_rows=1) if any(r)],
        )
        cone.rays


def test_seeded_cone_generators_equal_dd_of_canonical_rows():
    """`ConeH.from_ineqs` takes its rays and lineality from canonicalization;
    they equal, in value and order, what a fresh double description of the
    canonical rows gives, which certificates reading `rays[0]` rely on."""
    inputs = [
        (
            dim,
            [r for r in rand_rows(rng, dim, rational, max_rows=5) if any(r)],
            [r for r in rand_rows(rng, dim, rational, max_rows=1) if any(r)],
        )
        for rng, dim, rational in cases(18, 140)
    ]
    exactgeom._canon_h_rows.cache_clear()
    for dim, ineqs, eqs in inputs + degenerate_cases():
        cone = ConeH.from_ineqs(dim, ineqs, eqs)
        assert cone.generators() == dd_generators(dim, cone.ineqs, cone.eqs)


def test_ray_limit(monkeypatch):
    # the cone over a cube, |x_i| <= t, has eight extreme rays
    dim = 4
    rows = [
        tuple(Fraction(s * (i == j) - (j == 3)) for j in range(dim))
        for i in range(3)
        for s in (-1, 1)
    ]
    assert len(exactgeom._dd(dim, rows, [])[0]) == 8
    monkeypatch.setattr(exactgeom, "RAY_LIMIT", 8)
    assert len(exactgeom._dd(dim, rows, [])[0]) == 8
    monkeypatch.setattr(exactgeom, "RAY_LIMIT", 7)
    with pytest.raises(exactgeom.RayLimitError, match=r"8 rays \(limit 7\)"):
        exactgeom._dd(dim, rows, [])


def test_cone_generators_match_reference():
    for rng, dim, rational in cases(14, 140):
        cone = ConeH.from_ineqs(
            dim,
            [r for r in rand_rows(rng, dim, rational, max_rows=5) if any(r)],
            [r for r in rand_rows(rng, dim, rational, max_rows=1) if any(r)],
        )
        assert (cone.rays, cone.lineality) == ref_cone_vrep(cone)
        assert_ints(*cone.rays, *cone.lineality)


def test_poly_vrep_matches_reference(monkeypatch):
    polys = []
    for rng, dim, rational in cases(15, 140):
        ineqs = [
            (a, rand_entry(rng, rational)) for a in rand_rows(rng, dim, rational, 5)
        ]
        eqs = [
            (e, rand_entry(rng, rational)) for e in rand_rows(rng, dim, rational, 1)
        ]
        polys.append(ConvexPoly.make(dim, ineqs, eqs))
    got = [vrep(p) for p in polys]

    def ref_dd_of_fractions(dim, ineq_rows, eq_rows):
        # vrep hands `_dd` int rows; the reference divides them, so it gets
        # Fraction copies
        def fractions(rows):
            return [tuple(map(Fraction, r)) for r in rows]

        return ref_dd(dim, fractions(ineq_rows), fractions(eq_rows))

    monkeypatch.setattr(exactgeom, "_dd", ref_dd_of_fractions)
    assert got == [vrep(p) for p in polys]
    for verts, rays, lin in got:
        assert_fractions(*verts, *rays, *lin)


def test_int_entries_give_fraction_outputs():
    # ints have a numerator and a denominator too; no int may leak out
    rows = [(2, 4, 6), (1, 3, 7)]
    assert_fractions(*rref(rows)[0], *nullspace(rows, 3), primitive(rows[0]))
    assert type(dot(rows[0], rows[1])) is Fraction
