"""Exact convex polyhedra, polyhedral cones, and finite unions of both.

All sets live in Q^n.  H-forms are canonicalized at construction: equalities
as an RREF basis, inequalities reduced modulo the equality space, scaled to
primitive integers, stripped of implied equalities and redundant rows, and
sorted.  Two objects built through the factory methods therefore describe the
same set exactly when their fields compare equal.  A finite union keeps the
parts not contained in another part, and unions compare as sets.

Canonicalization solves no LP: one double description of the set (of its
homogenization when an offset is nonzero) decides emptiness, implied
equalities and facets by bit tests on the zero sets of the rows.

Cones additionally carry a V-representation (extreme rays modulo lineality
plus a lineality basis), so polars and Minkowski sums are generator
transpositions.  A cone built from rows keeps the generators its
canonicalization found; any other cone computes them on first use.

Rows enter the kernels as int tuples: `as_row` turns every integral entry
into an int before `_canon_h` and `_dd`, canonicalization works on primitive
int rows, and the generators are the int rows `_dd` returns.  The H-form
fields (`ineqs`, `eqs`) hold `Fraction` entries, which reports and stored
digests of results read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import lp
from ._record import record
from .linalg import (
    Vec,
    add,
    as_row,
    check_dim,
    dot,
    exact,
    frozen_rows,
    integer_row,
    is_zero,
    neg,
    nullspace_ints,
    primitive_ints,
    rat,
    reduce_mod_rowspace,
    rref_ints,
    scale,
    sub,
    to_vec,
    zero,
)

Row = tuple[Vec, Fraction]
IntRow = tuple[tuple[int, ...], int]
Gens = tuple[tuple[int, ...], ...] | None
Canon = tuple[tuple[Row, ...], tuple[Row, ...], Gens, Gens]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# shared canonicalization of H-forms
# ---------------------------------------------------------------------------


# distinct H-forms remembered per process
CANON_CACHE_SIZE = 64


def _canon_h(dim: int, ineqs: list[Row], eqs: list[Row]) -> Canon | None:
    """Canonical (ineqs, eqs, rays, lineality) of {x : a.x <= b, e.x == d};
    None if empty.

    When every offset is 0 the set is a cone, and rays and lineality are its
    generators exactly as `ConeH` keeps them; otherwise both are None.
    Row entries may be ints or Fractions.  Identical calls (same rows in the
    same order) are answered from a bounded per-process cache with the same
    immutable result; its H-form entries are Fractions, its generators ints.
    """
    return _canon_h_rows(dim, frozen_rows(ineqs), frozen_rows(eqs))


def _split(row: list[int]) -> IntRow:
    return tuple(row[:-1]), row[-1]


def _rational(rows: list[IntRow]) -> tuple[Row, ...]:
    return tuple((to_vec(a), Fraction(b)) for a, b in rows)


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
    dim: int, ineqs: tuple[Row, ...], eqs: tuple[Row, ...]
) -> Canon | None:
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
        rows = [a + (-b,) for a, b in work] + [(0,) * dim + (-1,)]
        cone_eqs = [r[:-1] + [-r[-1]] for r in eq_rows]
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
    # the set, reduce to one row or to 0 <= positive
    eq_rows, pivots = rref_ints(eq_rows + implied)
    keep = sorted(_reduce_rows(facets, eq_rows, pivots))
    eq_out = sorted(_split(r) for r in eq_rows)
    if not homogeneous:
        return _rational(keep), _rational(eq_out), None, None
    lin_rows, _ = rref_ints(lin)
    return (
        _rational(keep),
        _rational(eq_out),
        tuple(rays),
        tuple(sorted(map(tuple, lin_rows))),
    )


# ---------------------------------------------------------------------------
# convex polyhedra
# ---------------------------------------------------------------------------


@record
class ConvexPoly:
    """A convex polyhedron {x : a.x <= b, e.x == d} in canonical H-form."""

    dim: int
    ineqs: tuple[Row, ...]
    eqs: tuple[Row, ...]

    @staticmethod
    def make(dim: int, ineqs=(), eqs=()) -> "ConvexPoly":
        canon = _canon(dim, ineqs, eqs)
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
        return self.ineqs == _empty_rows(self.dim)

    def contains(self, x: Vec) -> bool:
        if self.is_empty():
            return False
        return all(dot(a, x) <= b for a, b in self.ineqs) and all(
            dot(e, x) == d for e, d in self.eqs
        )

    def intersect(self, other: "ConvexPoly") -> "ConvexPoly":
        check_dim("intersect", other.dim, self.dim)
        return ConvexPoly.make(
            self.dim, self.ineqs + other.ineqs, self.eqs + other.eqs
        )

    def product(self, other: "ConvexPoly") -> "ConvexPoly":
        n, m = self.dim, other.dim
        ineqs = [(a + zero(m), b) for a, b in self.ineqs]
        ineqs += [(zero(n) + a, b) for a, b in other.ineqs]
        eqs = [(e + zero(m), d) for e, d in self.eqs]
        eqs += [(zero(n) + e, d) for e, d in other.eqs]
        return ConvexPoly.make(n + m, ineqs, eqs)

    def embed(self, total_dim: int, coords: tuple[int, ...]) -> "ConvexPoly":
        """Lift into Q^total_dim placing own coordinate i at coords[i]."""
        check_dim("embed coordinates", len(coords), self.dim)

        def lift(v: Vec) -> Vec:
            w = [_ZERO] * total_dim
            for i, c in enumerate(coords):
                w[c] = v[i]
            return tuple(w)

        return ConvexPoly.make(
            total_dim,
            [(lift(a), b) for a, b in self.ineqs],
            [(lift(e), d) for e, d in self.eqs],
        )

    def eliminate(self, coords: tuple[int, ...]) -> "ConvexPoly":
        """Project away the given coordinates (Fourier-Motzkin, exact)."""
        if self.is_empty():
            return ConvexPoly.empty(self.dim - len(coords))
        ineqs, eqs, d = list(self.ineqs), list(self.eqs), self.dim
        for k in sorted(coords, reverse=True):
            ineqs, eqs = _eliminate_one(ineqs, eqs, k)
            d -= 1
            canon = _canon(d, ineqs, eqs)
            if canon is None:
                return ConvexPoly.empty(self.dim - len(coords))
            ineqs, eqs = list(canon[0]), list(canon[1])
        return ConvexPoly(d, tuple(ineqs), tuple(eqs))

    def recession(self) -> "ConeH":
        if self.is_empty():
            return ConeH.zero(self.dim)
        return ConeH.from_ineqs(
            self.dim, [a for a, _ in self.ineqs], [e for e, _ in self.eqs]
        )

    def subset_of(self, other: "ConvexPoly") -> bool:
        """Exact containment: every row of `other` is valid on self."""
        if self.is_empty():
            return True
        if other.is_empty():
            return False
        for a, b in other.ineqs:
            status, _, val = lp.solve(a, list(self.ineqs), list(self.eqs), self.dim)
            if status != lp.OPTIMAL or val is None or val > b:
                return False
        for e, d in other.eqs:
            for c, bound in ((e, d), (neg(e), -d)):
                status, _, val = lp.solve(
                    c, list(self.ineqs), list(self.eqs), self.dim
                )
                if status != lp.OPTIMAL or val is None or val > bound:
                    return False
        return True

    def feasible_point(self) -> Vec | None:
        return lp.feasible_point(list(self.ineqs), list(self.eqs), self.dim)

    def minkowski(self, other: "ConvexPoly") -> "ConvexPoly":
        """self + other by projecting {(x, u) : u in self, x - u in other}
        onto x."""
        check_dim("minkowski", other.dim, self.dim)
        n = self.dim
        ineqs: list[Row] = [((zero(n) + a), b) for a, b in self.ineqs]
        eqs: list[Row] = [((zero(n) + e), d) for e, d in self.eqs]
        ineqs += [(a + neg(a), b) for a, b in other.ineqs]
        eqs += [(e + neg(e), d) for e, d in other.eqs]
        big = ConvexPoly.make(2 * n, ineqs, eqs)
        return big.eliminate(tuple(range(n, 2 * n)))


def _canon(dim: int, ineqs, eqs) -> Canon | None:
    """`_canon_h` of rows in any exact form, integral entries made ints."""
    return _canon_h(
        dim,
        [(as_row(a), _offset(b)) for a, b in ineqs],
        [(as_row(e), _offset(d)) for e, d in eqs],
    )


def _offset(b) -> int | Fraction:
    return b if type(b) is int else exact(rat(b))


@lru_cache(maxsize=None)
def _empty_rows(dim: int) -> tuple[Row, ...]:
    """The H-form of the empty polyhedron, 0 <= -1: one object per dim."""
    return ((zero(dim), Fraction(-1)),)


def _eliminate_one(
    ineqs: list[Row], eqs: list[Row], k: int
) -> tuple[list[Row], list[Row]]:
    """Fourier-Motzkin step removing coordinate k."""

    def drop(v: Vec) -> Vec:
        return v[:k] + v[k + 1 :]

    pivot_eq = next((i for i, (e, _) in enumerate(eqs) if e[k] != 0), None)
    if pivot_eq is not None:
        e0, d0 = eqs[pivot_eq]
        out_i: list[Row] = []
        for a, b in ineqs:
            f = Fraction(a[k], e0[k])
            out_i.append((drop(sub(a, scale(e0, f))), b - f * d0))
        out_e: list[Row] = []
        for i, (e, d) in enumerate(eqs):
            if i == pivot_eq:
                continue
            f = Fraction(e[k], e0[k])
            out_e.append((drop(sub(e, scale(e0, f))), d - f * d0))
        return out_i, out_e
    pos = [(a, b) for a, b in ineqs if a[k] > 0]
    nonk = [(drop(a), b) for a, b in ineqs if a[k] == 0]
    negs = [(a, b) for a, b in ineqs if a[k] < 0]
    out = list(nonk)
    for ap, bp in pos:
        for an, bn in negs:
            comb = sub(scale(an, ap[k]), scale(ap, an[k]))
            offs = ap[k] * bn - an[k] * bp
            out.append((drop(comb), offs))
    return out, [(drop(e), d) for e, d in eqs]


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
        if len(rays) > RAY_LIMIT:
            raise RayLimitError(
                f"ray limit exceeded: {len(rays)} rays (limit {RAY_LIMIT})"
            )
    lin_rows, lin_piv = rref_ints(lin)
    out = sorted(tuple(reduce_mod_rowspace(r, lin_rows, lin_piv)) for r in rays)
    return out, [tuple(l) for l in lin]


def _project(v, av: int, pivot: list[int], pa: int) -> list[int]:
    return primitive_ints([av * y - pa * x for x, y in zip(v, pivot)])


class ConeH:
    """A closed convex polyhedral cone {x : a.x <= 0, e.x == 0}.

    `empty` marks the artifact's "point outside the domain" convention; a
    homogeneous system itself always contains the origin.
    """

    __slots__ = ("dim", "ineqs", "eqs", "empty", "_rays", "_lineality")

    def __init__(self, dim, ineqs=(), eqs=(), empty=False, _rays=None, _lineality=None):
        self.dim = dim
        self.ineqs = tuple(ineqs)
        self.eqs = tuple(eqs)
        self.empty = empty
        self._rays = _rays
        self._lineality = _lineality

    # construction ---------------------------------------------------------

    @staticmethod
    def from_ineqs(dim: int, ineqs=(), eqs=()) -> "ConeH":
        canon = _canon(dim, [(a, 0) for a in ineqs], [(e, 0) for e in eqs])
        assert canon is not None  # homogeneous systems contain 0
        rows, eq_rows, rays, lin = canon
        return ConeH(
            dim,
            tuple(a for a, _ in rows),
            tuple(e for e, _ in eq_rows),
            _rays=rays,
            _lineality=lin,
        )

    @staticmethod
    def from_generators(dim: int, rays=(), lineality=()) -> "ConeH":
        rays = [as_row(r) for r in rays]
        lins = [as_row(l) for l in lineality]
        polar_rays, polar_lin = _dd(dim, rays, lins)
        return ConeH.from_ineqs(dim, polar_rays, polar_lin)

    @staticmethod
    def whole_space(dim: int) -> "ConeH":
        return ConeH(dim)

    @staticmethod
    def zero(dim: int) -> "ConeH":
        return ConeH.from_ineqs(dim, [], [tuple(unit) for unit in _eye(dim)])

    @staticmethod
    def empty_marker(dim: int) -> "ConeH":
        return ConeH(dim, (), (), empty=True)

    # representation -------------------------------------------------------

    def _ensure_vrep(self) -> None:
        if self._rays is None:
            rays, lin = _dd(
                self.dim, list(map(as_row, self.ineqs)), list(map(as_row, self.eqs))
            )
            lin_rows, _ = rref_ints(lin)
            self._rays = tuple(rays)
            self._lineality = tuple(sorted(map(tuple, lin_rows)))

    @property
    def rays(self) -> tuple[Vec, ...]:
        self._ensure_vrep()
        return self._rays

    @property
    def lineality(self) -> tuple[Vec, ...]:
        self._ensure_vrep()
        return self._lineality

    def generators(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        return self.rays, self.lineality

    # comparisons ----------------------------------------------------------

    def _key(self):
        return (self.dim, self.empty, self.ineqs, self.eqs)

    def __eq__(self, other):
        return isinstance(other, ConeH) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.empty:
            return f"ConeH(dim={self.dim}, empty)"
        return f"ConeH(dim={self.dim}, ineqs={self.ineqs}, eqs={self.eqs})"

    # queries --------------------------------------------------------------

    def is_empty(self) -> bool:
        return self.empty

    def contains(self, x: Vec) -> bool:
        if self.empty:
            return False
        return all(dot(a, x) <= 0 for a in self.ineqs) and all(
            dot(e, x) == 0 for e in self.eqs
        )

    def is_zero(self) -> bool:
        if self.empty:
            return False
        return not self.rays and not self.lineality

    def is_whole_space(self) -> bool:
        return not self.empty and not self.ineqs and not self.eqs

    def subset_of(self, other: "ConeH") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        for r in self.rays:
            if not other.contains(r):
                return False
        for l in self.lineality:
            if not other.contains(l) or not other.contains(neg(l)):
                return False
        return True

    # operations -----------------------------------------------------------

    def intersect(self, other: "ConeH") -> "ConeH":
        check_dim("intersect", other.dim, self.dim)
        if self.empty or other.empty:
            return ConeH.empty_marker(self.dim)
        return ConeH.from_ineqs(
            self.dim, self.ineqs + other.ineqs, self.eqs + other.eqs
        )

    def minkowski(self, other: "ConeH") -> "ConeH":
        check_dim("minkowski", other.dim, self.dim)
        if self.empty or other.empty:
            return ConeH.empty_marker(self.dim)
        return ConeH.from_generators(
            self.dim,
            self.rays + other.rays,
            self.lineality + other.lineality,
        )

    def negate(self) -> "ConeH":
        if self.empty:
            return self
        return ConeH.from_ineqs(
            self.dim, [neg(a) for a in self.ineqs], self.eqs
        )

    def product(self, other: "ConeH") -> "ConeH":
        n, m = self.dim, other.dim
        if self.empty or other.empty:
            return ConeH.empty_marker(n + m)
        ineqs = [a + zero(m) for a in self.ineqs]
        ineqs += [zero(n) + a for a in other.ineqs]
        eqs = [e + zero(m) for e in self.eqs]
        eqs += [zero(n) + e for e in other.eqs]
        return ConeH.from_ineqs(n + m, ineqs, eqs)

    def embed(self, total_dim: int, coords: tuple[int, ...]) -> "ConeH":
        _check_not_empty("embed", self)
        check_dim("embed coordinates", len(coords), self.dim)

        def lift(v: Vec) -> Vec:
            w = [_ZERO] * total_dim
            for i, c in enumerate(coords):
                w[c] = v[i]
            return tuple(w)

        return ConeH.from_ineqs(
            total_dim, [lift(a) for a in self.ineqs], [lift(e) for e in self.eqs]
        )

    def to_poly(self) -> ConvexPoly:
        _check_not_empty("to_poly", self)
        return ConvexPoly(
            self.dim,
            tuple((a, _ZERO) for a in self.ineqs),
            tuple((e, _ZERO) for e in self.eqs),
        )


def _check_not_empty(what: str, cone: ConeH) -> None:
    """Argument check that survives `python -O`: the empty marker stands for
    a point outside the domain, not for a cone."""
    if cone.empty:
        raise ValueError(f"{what}: the empty marker is not a cone")


def _eye(dim: int) -> list[Vec]:
    return [tuple(_ONE if i == j else _ZERO for j in range(dim)) for i in range(dim)]


def dd_convert(cone: ConeH) -> ConeH:
    """Populate both representations; idempotent by construction."""
    cone._ensure_vrep()
    return cone


def polar(cone: ConeH) -> ConeH:
    """The polar cone {y : y.x <= 0 for all x in the cone}."""
    _check_not_empty("polar", cone)
    rays, lin = cone.generators()
    return ConeH.from_ineqs(cone.dim, rays, lin)


def slice_cone_at_tail(cone: ConeH, tail: Vec) -> ConvexPoly:
    """{x : (x, tail) in cone} as a polyhedron in the leading coordinates."""
    head = cone.dim - len(tail)
    if head < 0:
        raise ValueError(
            f"slice_cone_at_tail: tail of dimension {len(tail)}, cone of {cone.dim}"
        )
    if cone.empty:
        return ConvexPoly.empty(head)
    ineqs = [(a[:head], -dot(a[head:], tail)) for a in cone.ineqs]
    eqs = [(e[:head], -dot(e[head:], tail)) for e in cone.eqs]
    return ConvexPoly.make(head, ineqs, eqs)


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

    def intersect_poly(self, c: ConvexPoly) -> "PolySet":
        return PolySet.make(self.dim, [p.intersect(c) for p in self.pieces])

    def intersect(self, other: "PolySet") -> "PolySet":
        return PolySet.make(
            self.dim,
            [p.intersect(q) for p in self.pieces for q in other.pieces],
        )

    def product(self, other: "PolySet") -> "PolySet":
        return PolySet.make(
            self.dim + other.dim,
            [p.product(q) for p in self.pieces for q in other.pieces],
        )

    def embed(self, total_dim: int, coords: tuple[int, ...]) -> "PolySet":
        return PolySet.make(
            total_dim, [p.embed(total_dim, coords) for p in self.pieces]
        )

    def eliminate(self, coords: tuple[int, ...]) -> "PolySet":
        return PolySet.make(
            self.dim - len(coords), [p.eliminate(coords) for p in self.pieces]
        )


def _poly_key(p):
    return (p.ineqs, p.eqs)


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
    the "empty set" marker for points outside the reference domain, and is
    canonicalized by dropping parts contained in other parts (no convex
    merging, by design).  Every operation delegates to the parts; `==` is
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
        return FiniteUnion.make(
            self.dim,
            [p.intersect(q) for p in self.parts for q in other.parts],
        )

    def minkowski(self, other: "FiniteUnion") -> "FiniteUnion":
        return FiniteUnion.make(
            self.dim,
            [p.minkowski(q) for p in self.parts for q in other.parts],
        )

    def product(self, other: "FiniteUnion") -> "FiniteUnion":
        return FiniteUnion.make(
            self.dim + other.dim,
            [p.product(q) for p in self.parts for q in other.parts],
        )

    def negate(self) -> "FiniteUnion":
        """{-x : x in self}, for unions of cones."""
        return FiniteUnion.make(self.dim, [p.negate() for p in self.parts])

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
    """Region-subtraction containment test with an exact witness on failure.

    Each part of `a` is split along the defining rows of b's parts, a cone
    part read as its polyhedral rows; a surviving region yields a point of
    a \\ b found by slack-maximizing LP.
    """
    for part in map(_rows_of, a.parts):
        # (weak rows, strict rows, equalities, a point of the region)
        regions: list[tuple[list[Row], list[Row], list[Row], Vec | None]] = [
            (list(part.ineqs), [], list(part.eqs), None)
        ]
        for bp in map(_rows_of, b.parts):
            rows = list(bp.ineqs)
            for e, d in bp.eqs:
                rows.append((e, d))
                rows.append((neg(e), -d))
            next_regions = []
            for weak, strict, eqs, _ in regions:
                prefix: list[Row] = []
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


def _rows_of(part) -> ConvexPoly:
    return part.to_poly() if isinstance(part, ConeH) else part


def cone_union_ops(a: ConeUnion, b: ConeUnion) -> dict:
    """subset / equal / intersection / minkowski_sum, all exact."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    sub_ab, witness = a.subset_of(b)
    return {
        "subset": sub_ab,
        "witness": witness,
        "equal": sub_ab and b.subset_of(a)[0],
        "intersection": a.intersect(b),
        "minkowski_sum": a.minkowski(b),
    }


def is_zero_cone(c: ConeUnion) -> bool:
    return c.is_zero_cone()
