"""Exact convex polyhedra, polyhedral cones, and finite unions of both.

All sets live in Q^n.  H-forms are canonicalized at construction: equalities
as an RREF basis, inequalities reduced modulo the equality space, scaled to
primitive integers, stripped of implied equalities and redundant rows, and
sorted.  Two objects built through the factory methods therefore describe the
same set exactly when their fields compare equal.  A finite union keeps the
parts not contained in another part, and unions compare as sets.

Canonicalization solves no LP: one double description of the set (of its
homogenization when an offset is nonzero) decides emptiness, implied
equalities and facets by bit tests on the zero sets of the rows.  A
projection is the hull of projected generators (Minkowski-Weyl): the
homogenization's rays and lineality, eliminated coordinates dropped, go
through a second double description to the rows of the result.

Cones additionally carry a V-representation (extreme rays modulo lineality
plus a lineality basis), so polars and Minkowski sums are generator
transpositions.  A cone keeps the generators its canonicalization found.

Rows are int tuples inside the engine: `as_row` turns every integral entry
of an input row into an int before `_canon_h` and `_dd`, canonicalization
works on and returns primitive int rows, and the generators are the int
rows `_dd` returns.  The H-form fields (`rows`, `eq_rows`) hold those int
rows, and every operation reads them as they are.  `ineqs` and `eqs` are a
read-only view of the same rows with `Fraction` entries, built on each
read, for the report renderers of other tools and for tests.

Two bounded per-process caches, CANON_CACHE_SIZE entries each, answer
exact repeats (the third, `lp.solve`'s, lives in `lp`): `_canon_h` keyed on
(dim, rows, equalities, RAY_LIMIT) and `_dd` on the same four, the rows as
given.  The ray limit is in both keys so that a lowered limit raises
although a result computed under a higher one is held; a RayLimitError is
never kept.  H-forms in another presentation miss the first cache but reach
the second with equal reduced rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from . import lp
from ._record import record
from .linalg import (
    Vec,
    as_row,
    check_dim,
    exact,
    excess_at,
    frozen_rows,
    integer_row,
    neg,
    nullspace_ints,
    primitive_ints,
    quotient,
    rat,
    reduce_mod_rowspace,
    rref_ints,
    to_vec,
)

Row = tuple[Vec, Fraction]
IntVec = tuple[int, ...]
IntRow = tuple[IntVec, int]
Gens = tuple[IntVec, ...] | None
Canon = tuple[tuple[IntRow, ...], tuple[IntRow, ...], Gens, Gens]


# ---------------------------------------------------------------------------
# shared canonicalization of H-forms
# ---------------------------------------------------------------------------


# entries of each per-process memo of exactgeom: distinct H-forms
# canonicalized, and distinct double descriptions
CANON_CACHE_SIZE = 128


def _canon_h(dim: int, ineqs: list[Row], eqs: list[Row]) -> Canon | None:
    """Canonical (ineqs, eqs, rays, lineality) of {x : a.x <= b, e.x == d};
    None if empty.

    When every offset is 0 the set is a cone, and rays and lineality are its
    generators exactly as `ConeH` keeps them; otherwise both are None.
    Row entries may be ints or Fractions.  Identical calls (same rows in the
    same order, same RAY_LIMIT) are answered from a bounded per-process cache
    with the same immutable result, whose rows and generators are all
    primitive int rows.
    """
    return _canon_h_rows(dim, frozen_rows(ineqs), frozen_rows(eqs), RAY_LIMIT)


def _split(row: list[int]) -> IntRow:
    return tuple(row[:-1]), row[-1]


def _reduce_rows(
    rows, eq_rows: list[list[int]], pivots: list[int]
) -> list[IntRow] | None:
    """Rows (a, b) reduced modulo the equality space, made jointly primitive
    and deduplicated in order; None if one reduces to 0 <= negative."""
    out: list[IntRow] = []
    seen: set[tuple[int, ...]] = set()
    for a, b in rows:
        red = reduce_mod_rowspace(integer_row(a + (b,))[0], eq_rows, pivots)
        if not any(red[:-1]):
            if red[-1] < 0:
                return None
            continue
        key = tuple(red)
        if key not in seen:
            seen.add(key)
            out.append(_split(red))
    return out


@lru_cache(maxsize=CANON_CACHE_SIZE)
def _canon_h_rows(
    dim: int, ineqs: tuple[Row, ...], eqs: tuple[Row, ...], ray_limit: int
) -> Canon | None:
    # ray_limit is only part of the key, so that a lowered RAY_LIMIT reaches
    # the DD below; `_dd` reads the limit itself

    # equalities: RREF of the augmented rows; a pivot in the offset column
    # means 0 == nonzero
    eq_rows, pivots = rref_ints([integer_row(e + (d,))[0] for e, d in eqs])
    if dim in pivots:
        return None
    work = _reduce_rows(ineqs, eq_rows, pivots)
    if work is None:
        return None

    # one double description: of the set itself when it is a cone, else of
    # its homogenization K = {(x, t) : a.x <= b.t, t >= 0, e.x == d.t}, which
    # has a ray with t > 0 exactly when the set is nonempty
    homogeneous = not any(b for _, b in work) and not any(r[-1] for r in eq_rows)
    if homogeneous:
        rows = [a for a, _ in work]
        cone_eqs = [r[:-1] for r in eq_rows]
    else:
        rows, cone_eqs = _homogenization(dim, work, map(_split, eq_rows))
    rays, lin = _dd(dim + (not homogeneous), rows, cone_eqs)
    if not homogeneous and not any(r[-1] for r in rays):
        return None

    # a row's zero set is the bitmask of the rays it vanishes on (every row
    # vanishes on the lineality).  A row vanishing on every ray is an implied
    # equality.  A face is fixed by its rays, so the other rows whose zero
    # set is no proper subset of another's are the facets; in K, t >= 0 takes
    # part but is never output.  Over a nonempty set the facets other than
    # t >= 0 are exactly the irredundant rows.
    zero_sets = [
        sum(1 << j for j, r in enumerate(rays) if not sum(map(mul, a, r)))
        for a in rows
    ]
    full = (1 << len(rays)) - 1
    live = [z for z in zero_sets if z != full]
    implied, facets = [], []
    for (a, b), z in zip(work, zero_sets):
        if z == full:
            implied.append([*a, b])
        elif not any(z & y == z != y for y in live):
            facets.append((a, b))
    # facets duplicated modulo the implied equalities, and rows constant on
    # the set, reduce to one row or to 0 <= positive.  With no implied
    # equality the facets are rows of `work`, already reduced, primitive and
    # distinct, and the equalities already in RREF: nothing to redo
    if implied:
        eq_rows, pivots = rref_ints(eq_rows + implied)
        facets = _reduce_rows(facets, eq_rows, pivots)
    keep = tuple(sorted(facets))
    eq_out = tuple(sorted(_split(r) for r in eq_rows))
    if not homogeneous:
        return keep, eq_out, None, None
    lin_rows, _ = rref_ints(lin)
    return keep, eq_out, tuple(rays), tuple(sorted(map(tuple, lin_rows)))


# ---------------------------------------------------------------------------
# convex polyhedra
# ---------------------------------------------------------------------------


@record
class ConvexPoly:
    """A convex polyhedron {x : a.x <= b, e.x == d} in canonical H-form.

    `rows` and `eq_rows` are its canonical rows (a, b), each a primitive
    int tuple with an int offset; `ineqs` and `eqs` give them with
    `Fraction` entries.
    """

    dim: int
    rows: tuple[IntRow, ...]
    eq_rows: tuple[IntRow, ...]

    @property
    def ineqs(self) -> tuple[Row, ...]:
        """The inequality rows with `Fraction` entries, built on each read."""
        return tuple((to_vec(a), Fraction(b)) for a, b in self.rows)

    @property
    def eqs(self) -> tuple[Row, ...]:
        """The equality rows with `Fraction` entries, built on each read."""
        return tuple((to_vec(e), Fraction(d)) for e, d in self.eq_rows)

    @staticmethod
    def make(dim: int, ineqs=(), eqs=()) -> "ConvexPoly":
        """The polyhedron of rows in any exact form."""
        return ConvexPoly.from_rows(
            dim,
            [(_outside_row("row", dim, a), _offset(b)) for a, b in ineqs],
            [(_outside_row("equality row", dim, e), _offset(d)) for e, d in eqs],
        )

    @staticmethod
    def from_rows(dim: int, rows=(), eq_rows=()) -> "ConvexPoly":
        """The polyhedron of rows whose entries are ints, or Fractions where
        not integral, as the fields of other sets give them: no coercion."""
        canon = _canon_h(dim, rows, eq_rows)
        if canon is None:
            return ConvexPoly.empty(dim)
        return ConvexPoly(dim, canon[0], canon[1])

    @staticmethod
    def whole_space(dim: int) -> "ConvexPoly":
        return ConvexPoly(dim, (), ())

    @staticmethod
    def empty(dim: int) -> "ConvexPoly":
        return ConvexPoly(dim, _empty_rows(dim), ())

    def is_empty(self) -> bool:
        return self.rows == _empty_rows(self.dim)

    def contains(self, x: Vec) -> bool:
        check_dim("contains point", len(x), self.dim)
        if self.is_empty():
            return False
        excess = excess_at(x)
        return all(excess(a, b) <= 0 for a, b in self.rows) and not any(
            excess(e, d) for e, d in self.eq_rows
        )

    def intersect(self, other: "ConvexPoly") -> "ConvexPoly":
        check_dim("intersect", other.dim, self.dim)
        return ConvexPoly.from_rows(
            self.dim, self.rows + other.rows, self.eq_rows + other.eq_rows
        )

    @staticmethod
    def lift(total: int, factors) -> "ConvexPoly":
        """The meet in Q^total of the polyhedra of `factors`, (p, coords)
        pairs with p's coordinate i placed at coords[i]: one
        canonicalization of every lifted row.  One factor embeds p; coords
        range(p.dim) gives p x Q^(total - p.dim)."""
        rows, eq_rows = [], []
        for p, coords in factors:
            check_dim("lift coordinates", len(coords), p.dim)
            rows += [(_lift(a, total, coords), b) for a, b in p.rows]
            eq_rows += [(_lift(e, total, coords), d) for e, d in p.eq_rows]
        return ConvexPoly.from_rows(total, rows, eq_rows)

    def slice(self, coords, values: Vec) -> "ConvexPoly":
        """{u : the point with `values` at `coords`, and u in the other
        coordinates in their order, lies in self}: the section that undoes
        a one-factor `lift`, one canonicalization of every cut row."""
        check_dim("slice values", len(values), len(coords))
        # a.u <= b - a.w, w = nv / dv holding v at coords: offset (b.dv - a.nw) / dv
        nv, dv = integer_row(values)
        free = [i for i in range(self.dim) if i not in coords]
        if len(free) + len(coords) != self.dim:
            raise ValueError(
                f"slice coordinates {tuple(coords)}: "
                f"not distinct members of range({self.dim})"
            )
        nw = _lift(nv, self.dim, coords)

        def cut(a, b):
            offset = quotient(b * dv - sum(map(mul, a, nw)), dv)
            return tuple([a[i] for i in free]), offset

        return ConvexPoly.from_rows(
            self.dim - len(coords),
            [cut(a, b) for a, b in self.rows],
            [cut(e, d) for e, d in self.eq_rows],
        )

    def eliminate(self, coords: tuple[int, ...]) -> "ConvexPoly":
        """Project away the given coordinates: the hull of the projected
        generators (Minkowski-Weyl)."""
        if self.is_empty():
            return ConvexPoly.empty(self.dim - len(coords))
        rays, lin = _homogeneous_generators(self)
        keep = [i for i in range(self.dim + 1) if i not in coords]
        return _spanned(
            len(keep) - 1,
            [tuple(r[i] for i in keep) for r in rays],
            [tuple(l[i] for i in keep) for l in lin],
        )

    def plus_ray(self, direction: Vec) -> "ConvexPoly":
        """self + R_+ direction, exactly."""
        check_dim("plus_ray direction", len(direction), self.dim)
        if self.is_empty():
            return self
        rays, lin = _homogeneous_generators(self)
        return _spanned(self.dim, rays + [as_row(direction) + (0,)], lin)

    def recession(self) -> "ConeH":
        if self.is_empty():
            return ConeH.zero(self.dim)
        return ConeH.from_rows(
            self.dim, [a for a, _ in self.rows], [e for e, _ in self.eq_rows]
        )

    def subset_of(self, other: "ConvexPoly") -> bool:
        """Exact containment: canonical H-forms are unique per set."""
        return self.is_empty() or self.intersect(other) == self

    def feasible_point(self) -> Vec | None:
        return lp.feasible_point(list(self.rows), list(self.eq_rows), self.dim)

    def minkowski(self, other: "ConvexPoly") -> "ConvexPoly":
        """self + other by projecting {(x, u) : u in self, x - u in other}
        onto x."""
        check_dim("minkowski", other.dim, self.dim)
        n = self.dim
        rows = [((0,) * n + a, b) for a, b in self.rows]
        eq_rows = [((0,) * n + e, d) for e, d in self.eq_rows]
        rows += [(a + neg(a), b) for a, b in other.rows]
        eq_rows += [(e + neg(e), d) for e, d in other.eq_rows]
        big = ConvexPoly.from_rows(2 * n, rows, eq_rows)
        return big.eliminate(tuple(range(n, 2 * n)))


def _outside_row(what: str, dim: int, entries) -> tuple:
    """A row or generator given from outside the engine, coerced by
    `as_row` and checked to have `dim` entries."""
    row = as_row(entries)
    check_dim(what, len(row), dim)
    return row


def _offset(b) -> int | Fraction:
    return b if type(b) is int else exact(rat(b))


def _lift(v: IntVec, total: int, coords) -> IntVec:
    """v in Q^total with its coordinate i at coords[i], zero elsewhere."""
    w = [0] * total
    for i, c in enumerate(coords):
        w[c] = v[i]
    return tuple(w)


@lru_cache(maxsize=None)
def _empty_rows(dim: int) -> tuple[IntRow, ...]:
    """The H-form of the empty polyhedron, 0 <= -1: one object per dim."""
    return (((0,) * dim, -1),)


def _homogenization(dim: int, ineqs, eqs) -> tuple[list, list]:
    """Rows and equalities of K = {(x, t) : a.x <= b.t, e.x == d.t, t >= 0},
    which has a ray with t > 0 exactly when {x : a.x <= b, e.x == d} is
    nonempty; its rays with t > 0 are then the points scaled by t, the
    others and its lineality the recession directions."""
    rows = [a + (-b,) for a, b in ineqs] + [(0,) * dim + (-1,)]
    return rows, [e + (-d,) for e, d in eqs]


def _homogeneous_generators(p: ConvexPoly):
    """(rays, lineality) of the homogenization of a nonempty `p`."""
    return _dd(p.dim + 1, *_homogenization(p.dim, p.rows, p.eq_rows))


def _spanned(dim: int, rays, lineality) -> ConvexPoly:
    """The polyhedron whose homogenization the generators (x, t), t >= 0,
    span, empty if no t > 0.  The polar's rays (a, -b) are its facets and
    t >= 0 (0 <= 1, dropped), its lineality the equalities: no third DD."""
    if not any(r[-1] for r in rays):
        return ConvexPoly.empty(dim)
    rows, eqs = _dd(dim + 1, rays, lineality)
    eq_rows, pivots = rref_ints([e[:-1] + (-e[-1],) for e in eqs])
    keep = sorted(_reduce_rows([(r[:-1], -r[-1]) for r in rows], eq_rows, pivots))
    return ConvexPoly(dim, tuple(keep), tuple(sorted(map(_split, eq_rows))))


# ---------------------------------------------------------------------------
# polyhedral cones with double description
# ---------------------------------------------------------------------------


# most rays one double-description step may leave; canonicalization runs a
# DD on every H-form, and the test suite reaches 20, one pass of each
# benchmark workload at most 8
RAY_LIMIT = 128


class LimitError(RuntimeError):
    """A computation stopped at one of the engine's explicit size limits."""


class RayLimitError(LimitError):
    pass


def _dd(
    dim: int, ineq_rows: list[Vec], eq_rows: list[Vec]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Double description: generators of {x : a.x <= 0, e.x == 0}.

    Repeats are answered from a bounded per-process memo (CANON_CACHE_SIZE
    entries) keyed by dim, the rows as given and RAY_LIMIT, so a lowered
    limit still raises; a RayLimitError is never kept.  Each call returns
    fresh lists of the memoized int tuples.

    Maintains a (rays, lineality) pair generating the intersection of the
    constraints processed so far, the rays being exactly its extreme rays
    modulo the lineality.  Each ray carries its zero set, a bitmask of the
    processed rows it meets with equality.  A constraint that cuts a
    lineality direction turns it into a ray meeting every earlier row, and
    projects everything else onto the constraint's hyperplane: the projected
    rays stay extreme and gain the new row.  Otherwise rays are split by sign
    and a (+, -) pair is combined only when it is adjacent, that is when no
    third ray's zero set contains the pair's common zero set (the
    combinatorial test of Fukuda & Prodon 1996).  No ray is ever redundant,
    so no LP is needed.

    Rays and lineality are integer vectors throughout, each a primitive
    positive multiple of its rational counterpart, and are returned as int
    tuples; the returned rays are reduced modulo the lineality, primitive and
    sorted.  RayLimitError when a step leaves more than RAY_LIMIT rays.
    """
    rays, lin = _dd_rows(
        dim, tuple(map(tuple, ineq_rows)), tuple(map(tuple, eq_rows)), RAY_LIMIT
    )
    return list(rays), list(lin)


@lru_cache(maxsize=CANON_CACHE_SIZE)
def _dd_rows(
    dim: int, ineq_rows: tuple[Vec, ...], eq_rows: tuple[Vec, ...], ray_limit: int
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    lin = nullspace_ints([integer_row(e)[0] for e in eq_rows], dim)
    rays: list[list[int]] = []
    zeros: list[int] = []
    for i, row in enumerate(ineq_rows):
        a, _ = integer_row(row)
        bit = 1 << i
        lin_vals = [sum(map(mul, a, l)) for l in lin]
        k = next((j for j, v in enumerate(lin_vals) if v != 0), None)
        if k is not None:
            pivot, pa = lin[k], lin_vals[k]
            if pa > 0:
                pivot, pa = [-x for x in pivot], -pa
            # project along the pivot onto a.x = 0, scaled by -pa > 0 so
            # that no vector changes orientation; the lineality basis stays
            # independent, so none of it projects to zero.  Every earlier row
            # vanishes on the old lineality, the pivot included, so the
            # projection leaves their values on the rays unchanged.
            lin = [
                _project(l, v, pivot, pa)
                for j, (l, v) in enumerate(zip(lin, lin_vals))
                if j != k
            ]
            rays = [_project(r, sum(map(mul, a, r)), pivot, pa) for r in rays]
            rays.append(pivot)
            zeros = [z | bit for z in zeros] + [bit - 1]
        else:
            vals = [sum(map(mul, a, r)) for r in rays]
            new_rays = [r for r, v in zip(rays, vals) if v <= 0]
            new_zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals) if v <= 0]
            for p, (rp, vp, zp) in enumerate(zip(rays, vals, zeros)):
                if vp <= 0:
                    continue
                for n, (rn, vn, zn) in enumerate(zip(rays, vals, zeros)):
                    if vn >= 0:
                        continue
                    common = zp & zn
                    if any(
                        z & common == common
                        for j, z in enumerate(zeros)
                        if j != p and j != n
                    ):
                        continue
                    new_rays.append(
                        primitive_ints([vp * x - vn * y for x, y in zip(rn, rp)])
                    )
                    new_zeros.append(common | bit)
            rays, zeros = new_rays, new_zeros
        if len(rays) > ray_limit:
            raise RayLimitError(
                f"ray limit exceeded: {len(rays)} rays (limit {ray_limit})"
            )
    lin_rows, lin_piv = rref_ints(lin)
    out = sorted(tuple(reduce_mod_rowspace(r, lin_rows, lin_piv)) for r in rays)
    return tuple(out), tuple(map(tuple, lin))


def _project(v, av: int, pivot: list[int], pa: int) -> list[int]:
    return primitive_ints([av * y - pa * x for x, y in zip(v, pivot)])


@record
class ConeH:
    """A closed convex polyhedral cone {x : a.x <= 0, e.x == 0} with its
    generators: extreme rays modulo the lineality, and a lineality basis.

    `rows` and `eq_rows` are the canonical normals a and e, primitive int
    tuples like the generators; `ineqs` and `eqs` give them with `Fraction`
    entries.  A homogeneous system contains the origin, so a cone is never
    empty: a normal cone at a point outside the domain is the empty
    `ConvexPoly`.  Canonical rows fix the generators (`_dd` sorts primitive
    rays reduced modulo the lineality, which is in RREF), so comparing
    fields compares sets.
    """

    dim: int
    rows: tuple[IntVec, ...]
    eq_rows: tuple[IntVec, ...]
    rays: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]

    # not a field, never true: perfbench's `_canon` still reads it
    empty = False

    @property
    def ineqs(self) -> tuple[Vec, ...]:
        """The inequality normals with `Fraction` entries, built on each read."""
        return tuple(map(to_vec, self.rows))

    @property
    def eqs(self) -> tuple[Vec, ...]:
        """The equality normals with `Fraction` entries, built on each read."""
        return tuple(map(to_vec, self.eq_rows))

    # construction ---------------------------------------------------------

    @staticmethod
    def from_ineqs(dim: int, ineqs=(), eqs=()) -> "ConeH":
        """The cone of normals in any exact form."""
        return ConeH.from_rows(
            dim,
            [_outside_row("normal", dim, a) for a in ineqs],
            [_outside_row("equality normal", dim, e) for e in eqs],
        )

    @staticmethod
    def from_rows(dim: int, rows=(), eq_rows=()) -> "ConeH":
        """The cone of int normals, as the fields of other sets and the
        generators give them: no coercion."""
        # never None: a homogeneous system contains 0
        rows, eq_rows, rays, lin = _canon_h(
            dim, [(a, 0) for a in rows], [(e, 0) for e in eq_rows]
        )
        rows = tuple(a for a, _ in rows)
        return ConeH(dim, rows, tuple(e for e, _ in eq_rows), rays, lin)

    @staticmethod
    def from_generators(dim: int, rays=(), lineality=()) -> "ConeH":
        rays = [_outside_row("ray", dim, r) for r in rays]
        lins = [_outside_row("lineality", dim, l) for l in lineality]
        return ConeH.from_rows(dim, *_dd(dim, rays, lins))

    @staticmethod
    def whole_space(dim: int) -> "ConeH":
        return ConeH.from_rows(dim)

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(dim: int) -> "ConeH":
        eye = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        return ConeH.from_rows(dim, [], eye)

    def generators(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        return self.rays, self.lineality

    # queries --------------------------------------------------------------

    def is_empty(self) -> bool:
        return False

    def contains(self, x: Vec) -> bool:
        check_dim("contains point", len(x), self.dim)
        excess = excess_at(x)
        return all(excess(a) <= 0 for a in self.rows) and not any(
            excess(e) for e in self.eq_rows
        )

    def is_zero(self) -> bool:
        return not self.rays and not self.lineality

    def subset_of(self, other: "ConeH") -> bool:
        """Exact containment by generators: every ray of self satisfies the
        rows of `other`, and every row of `other` vanishes on the lineality
        of self.  Rows and generators are int tuples, so each test is an int
        dot product."""
        check_dim("subset_of", other.dim, self.dim)
        rows, eqs = other.rows, other.eq_rows
        return all(
            all(sum(map(mul, a, r)) <= 0 for a in rows)
            and not any(sum(map(mul, e, r)) for e in eqs)
            for r in self.rays
        ) and not any(
            sum(map(mul, a, l)) for l in self.lineality for a in rows + eqs
        )

    # operations -----------------------------------------------------------

    def intersect(self, other: "ConeH") -> "ConeH":
        check_dim("intersect", other.dim, self.dim)
        return ConeH.from_rows(
            self.dim, self.rows + other.rows, self.eq_rows + other.eq_rows
        )

    def minkowski(self, other: "ConeH") -> "ConeH":
        check_dim("minkowski", other.dim, self.dim)
        return ConeH.from_rows(
            self.dim,
            *_dd(self.dim, self.rays + other.rays, self.lineality + other.lineality),
        )

    def negate(self) -> "ConeH":
        return ConeH.from_rows(self.dim, [neg(a) for a in self.rows], self.eq_rows)

    @staticmethod
    def lift(total: int, factors) -> "ConeH":
        """The meet in Q^total of the cones of `factors`, as
        `ConvexPoly.lift`: one canonicalization of every lifted row."""
        rows, eq_rows = [], []
        for k, coords in factors:
            check_dim("lift coordinates", len(coords), k.dim)
            rows += [_lift(a, total, coords) for a in k.rows]
            eq_rows += [_lift(e, total, coords) for e in k.eq_rows]
        return ConeH.from_rows(total, rows, eq_rows)

    def to_poly(self) -> ConvexPoly:
        return ConvexPoly(
            self.dim,
            tuple((a, 0) for a in self.rows),
            tuple((e, 0) for e in self.eq_rows),
        )


def dd_convert(cone: ConeH) -> ConeH:
    """The cone itself: every cone carries both representations."""
    return cone


def polar(cone: ConeH) -> ConeH:
    """The polar cone {y : y.x <= 0 for all x in the cone}."""
    return ConeH.from_rows(cone.dim, *cone.generators())


# ---------------------------------------------------------------------------
# finite unions
# ---------------------------------------------------------------------------


@record
class PolySet:
    """A finite union of nonempty convex polyhedra (a closed set)."""

    dim: int
    pieces: tuple[ConvexPoly, ...]

    @staticmethod
    def make(dim: int, pieces) -> "PolySet":
        kept = tuple(
            sorted((p for p in pieces if not p.is_empty()), key=_poly_key)
        )
        return PolySet(dim, kept)

    @staticmethod
    def from_poly(p: ConvexPoly) -> "PolySet":
        return PolySet.make(p.dim, [p])

    def is_empty(self) -> bool:
        return not self.pieces

    def contains(self, x: Vec) -> bool:
        return any(p.contains(x) for p in self.pieces)

    def intersect(self, other: "PolySet") -> "PolySet":
        return PolySet.make(
            self.dim,
            [p.intersect(q) for p in self.pieces for q in other.pieces],
        )

    @staticmethod
    def lift(total: int, factors) -> "PolySet":
        """The meet in Q^total of the sets of `factors`, (set, coords) pairs
        as in `ConvexPoly.lift`: one lifted piece per choice of one piece
        from each set."""
        for s, c in factors:
            check_dim("lift coordinates", len(c), s.dim)
        coords = [c for _, c in factors]
        return PolySet.make(
            total,
            [
                ConvexPoly.lift(total, zip(combo, coords))
                for combo in product(*(s.pieces for s, _ in factors))
            ],
        )

    def eliminate(self, coords: tuple[int, ...]) -> "PolySet":
        return PolySet.make(
            self.dim - len(coords), [p.eliminate(coords) for p in self.pieces]
        )


def _poly_key(p):
    return (p.rows, p.eq_rows)


def _maximal_parts(parts) -> tuple:
    """The distinct parts not contained in another one, sorted by H-form.

    Canonical H-forms are unique per set, so after dedup a mutual inclusion
    cannot occur and pairwise pruning is order-free.  Serves polyhedra and
    cones alike.
    """
    alive = list(dict.fromkeys(parts))
    kept = [
        p
        for i, p in enumerate(alive)
        if not any(j != i and p.subset_of(q) for j, q in enumerate(alive))
    ]
    kept.sort(key=_poly_key)
    return tuple(kept)


class FiniteUnion:
    """A finite union of canonical convex parts of one kind: polyhedra
    (`ConvexPoly`, for coderivative and subdifferential slices and rule
    sides) or cones (`ConeH`, for limiting normal cones).

    Unlike PolySet (which models ground sets Omega), a union may be empty,
    as a limiting cone or a subdifferential is at a point outside the
    reference domain, and is canonicalized by dropping parts contained in
    other parts (no convex merging, by design).  Every operation delegates to the parts; `==` is
    set equality.
    """

    __slots__ = ("dim", "parts")

    def __init__(self, dim: int, parts=()):
        self.dim = dim
        self.parts = tuple(parts)

    @staticmethod
    def make(dim: int, parts) -> "FiniteUnion":
        return FiniteUnion(dim, _maximal_parts(p for p in parts if not p.is_empty()))

    @staticmethod
    def empty(dim: int) -> "FiniteUnion":
        return FiniteUnion(dim, ())

    @staticmethod
    def single(part) -> "FiniteUnion":
        return FiniteUnion.make(part.dim, [part])

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x: Vec) -> bool:
        return any(p.contains(x) for p in self.parts)

    def subset_of(self, other: "FiniteUnion") -> tuple[bool, Vec | None]:
        return union_subset(self, other)

    def same_set(self, other: "FiniteUnion") -> bool:
        return self.subset_of(other)[0] and other.subset_of(self)[0]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteUnion)
            and self.dim == other.dim
            and self.same_set(other)
        )

    def __hash__(self):
        return hash(self.dim)

    def __repr__(self):
        return f"FiniteUnion(dim={self.dim}, {len(self.parts)} parts)"

    def intersect(self, other: "FiniteUnion") -> "FiniteUnion":
        check_dim("intersect", other.dim, self.dim)
        return FiniteUnion.make(
            self.dim,
            [p.intersect(q) for p in self.parts for q in other.parts],
        )

    def minkowski(self, other: "FiniteUnion") -> "FiniteUnion":
        check_dim("minkowski", other.dim, self.dim)
        return FiniteUnion.make(
            self.dim,
            [p.minkowski(q) for p in self.parts for q in other.parts],
        )

    def negate(self) -> "FiniteUnion":
        """{-x : x in self}, for unions of cones."""
        return FiniteUnion.make(self.dim, [p.negate() for p in self.parts])

    def recession(self) -> "FiniteUnion":
        """The union of the parts' recession cones, for unions of
        polyhedra."""
        return FiniteUnion.make(self.dim, [p.recession() for p in self.parts])

    def slice(self, coords, values: Vec) -> "FiniteUnion":
        """The union of the parts' `ConvexPoly.slice` sections, a cone part
        read as its polyhedral rows: a union of polyhedra."""
        return FiniteUnion.make(
            self.dim - len(coords),
            [_rows_of(p).slice(coords, values) for p in self.parts],
        )

    def is_zero_cone(self) -> bool:
        if self.is_empty():
            return False
        return all(p.is_zero() for p in self.parts)

    def nonzero_vector(self) -> Vec | None:
        """A canonical nonzero member of a union of cones, if any (first ray
        or lineality), as a certificate: Fraction entries, like every
        witness."""
        for p in self.parts:
            if p.rays:
                return to_vec(p.rays[0])
            if p.lineality:
                return to_vec(p.lineality[0])
        return None


# both public names of the one union class
ConeUnion = PolyUnion = FiniteUnion


def union_subset(a: FiniteUnion, b: FiniteUnion) -> tuple[bool, Vec | None]:
    """Containment test with an exact witness on failure.

    A part of `a` inside one part of `b` is settled with no LP: it equals
    that part (canonical H-forms are unique, so equal fields mean equal
    sets), or it is a cone whose generators satisfy the rows of a cone part
    (`ConeH.subset_of`) or of a polyhedral part's recession cone, with the
    origin in that part.  Every other part is split along the defining rows
    of b's parts, a cone part read as its polyhedral rows, one strict LP per
    region; a surviving region yields a point of a \\ b found by
    slack-maximizing LP.  A settled part would leave no region, so the
    first failing part and its witness are those of region subtraction
    alone.
    """
    check_dim("subset_of", b.dim, a.dim)
    for part in a.parts:
        if _inside_one_part(part, b):
            continue
        part = _rows_of(part)
        # (weak rows, strict rows, equalities, a point of the region)
        regions: list[tuple[list[IntRow], list[IntRow], list[IntRow], Vec | None]] = [
            (list(part.rows), [], list(part.eq_rows), None)
        ]
        for bp in map(_rows_of, b.parts):
            rows = list(bp.rows)
            for e, d in bp.eq_rows:
                rows.append((e, d))
                rows.append((neg(e), -d))
            next_regions = []
            for weak, strict, eqs, _ in regions:
                prefix: list[IntRow] = []
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


def _inside_one_part(part, b: FiniteUnion) -> bool:
    if part in b.parts:
        return True
    return isinstance(part, ConeH) and any(_cone_inside(part, q) for q in b.parts)


def _cone_inside(k: ConeH, q) -> bool:
    """k inside a cone q by generators; inside a polyhedron q exactly when
    0 is in q and k lies in q's recession cone (tk in q for every t >= 0)."""
    if isinstance(q, ConeH):
        return k.subset_of(q)
    return q.contains((0,) * q.dim) and k.subset_of(q.recession())


def _rows_of(part) -> ConvexPoly:
    return part.to_poly() if isinstance(part, ConeH) else part
