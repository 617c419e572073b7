"""Exact convex polyhedra, polyhedral cones, and finite unions of both.

All sets live in Q^n.  H-forms are canonicalized at construction: equalities
as an RREF basis, inequalities reduced modulo the equality space, scaled to
primitive integers, stripped of implied equalities and redundant rows, and
sorted.  Two objects built through the factory methods therefore describe the
same set exactly when their fields compare equal (cones; for unions semantic
checks are provided on top).

Cones additionally carry a lazily computed V-representation (extreme rays
modulo lineality plus a lineality basis) obtained by the double description
method, so polars and Minkowski sums are generator transpositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import lp
from .linalg import (
    Vec,
    add,
    as_vec,
    dot,
    frozen_rows,
    is_zero,
    neg,
    nullspace,
    primitive,
    reduce_mod_rowspace,
    rref,
    scale,
    sub,
    zero,
)

Row = tuple[Vec, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# shared canonicalization of H-forms
# ---------------------------------------------------------------------------


def _norm_row(a: Vec, b: Fraction) -> Row:
    """Primitive integer scaling of (a, b) jointly, orientation preserved."""
    joint = primitive(a + (b,))
    return joint[:-1], joint[-1]


# distinct H-forms remembered per process
CANON_CACHE_SIZE = 64


def _canon_h(
    dim: int, ineqs: list[Row], eqs: list[Row]
) -> tuple[tuple[Row, ...], tuple[Row, ...]] | None:
    """Canonical (ineqs, eqs) of {x : a.x <= b, e.x == d}; None if empty.

    Identical calls (same rows in the same order) are answered from a
    bounded per-process cache with the same immutable result.
    """
    return _canon_h_rows(dim, frozen_rows(ineqs), frozen_rows(eqs))


@lru_cache(maxsize=CANON_CACHE_SIZE)
def _canon_h_rows(
    dim: int, ineqs: tuple[Row, ...], eqs: tuple[Row, ...]
) -> tuple[tuple[Row, ...], tuple[Row, ...]] | None:
    # equalities: RREF of the augmented rows; a pivot in the offset column
    # means 0 == nonzero
    aug = [e + (d,) for e, d in eqs]
    eq_rows, pivots = rref([as_vec(r) for r in aug])
    if dim in pivots:
        return None
    work: list[Row] = []
    seen: set[Row] = set()
    for a, b in ineqs:
        red = reduce_mod_rowspace(a + (b,), eq_rows, pivots)
        a2, b2 = _norm_row(red[:-1], red[-1])
        if is_zero(a2):
            if b2 < 0:
                return None
            continue
        if (a2, b2) not in seen:
            seen.add((a2, b2))
            work.append((a2, b2))
    eq_out = [(r[:-1], r[-1]) for r in eq_rows]
    if lp.feasible_point(work, eq_out, dim) is None:
        return None

    # implied equalities: a.x <= b that the whole system forces to bind
    changed = True
    while changed:
        changed = False
        for i, (a, b) in enumerate(work):
            status, _, val = lp.solve(a, work, eq_out, dim, maximize=False)
            if status == lp.OPTIMAL and val == b:
                eqs_new = eq_out + [(a, b)]
                aug = [e + (d,) for e, d in eqs_new]
                eq_rows, pivots = rref(list(aug))
                eq_out = [(r[:-1], r[-1]) for r in eq_rows]
                rebuilt: list[Row] = []
                seen = set()
                for aa, bb in work[:i] + work[i + 1 :]:
                    red = reduce_mod_rowspace(aa + (bb,), eq_rows, pivots)
                    a2, b2 = _norm_row(red[:-1], red[-1])
                    if is_zero(a2) or (a2, b2) in seen:
                        continue
                    seen.add((a2, b2))
                    rebuilt.append((a2, b2))
                work = rebuilt
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


# ---------------------------------------------------------------------------
# convex polyhedra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexPoly:
    """A convex polyhedron {x : a.x <= b, e.x == d} in canonical H-form."""

    dim: int
    ineqs: tuple[Row, ...]
    eqs: tuple[Row, ...]

    @staticmethod
    def make(dim: int, ineqs=(), eqs=()) -> "ConvexPoly":
        rows_i = [(as_vec(a), Fraction(b)) for a, b in ineqs]
        rows_e = [(as_vec(e), Fraction(d)) for e, d in eqs]
        canon = _canon_h(dim, rows_i, rows_e)
        if canon is None:
            return ConvexPoly.empty(dim)
        return ConvexPoly(dim, canon[0], canon[1])

    @staticmethod
    def whole_space(dim: int) -> "ConvexPoly":
        return ConvexPoly(dim, (), ())

    @staticmethod
    def empty(dim: int) -> "ConvexPoly":
        return ConvexPoly(dim, ((zero(dim), Fraction(-1)),), ())

    def is_empty(self) -> bool:
        return self.ineqs == ((zero(self.dim), Fraction(-1)),)

    def contains(self, x: Vec) -> bool:
        if self.is_empty():
            return False
        return all(dot(a, x) <= b for a, b in self.ineqs) and all(
            dot(e, x) == d for e, d in self.eqs
        )

    def intersect(self, other: "ConvexPoly") -> "ConvexPoly":
        assert self.dim == other.dim
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
        assert len(coords) == self.dim

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
            canon = _canon_h(d, ineqs, eqs)
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

    def vrep(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]:
        """(vertices, rays, lineality) via the homogenization cone."""
        if self.is_empty():
            return (), (), ()
        n = self.dim
        rows = [(a + (-b,)) for a, b in self.ineqs]
        rows.append(zero(n) + (Fraction(-1),))  # t >= 0
        eq_rows = [(e + (-d,)) for e, d in self.eqs]
        rays, lin = _dd(n + 1, rows, eq_rows)
        verts: list[Vec] = []
        rec: list[Vec] = []
        for r in rays:
            t = r[-1]
            if t > 0:
                verts.append(tuple(x / t for x in r[:-1]))
            else:
                rec.append(primitive(r[:-1]))
        lin_out = [primitive(v[:-1]) for v in lin]
        return tuple(sorted(verts)), tuple(sorted(rec)), tuple(sorted(lin_out))

    def is_bounded(self) -> bool:
        rec = self.recession()
        return rec.is_zero()

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

    def same_set(self, other: "ConvexPoly") -> bool:
        return self == other  # canonical form identity

    def feasible_point(self) -> Vec | None:
        return lp.feasible_point(list(self.ineqs), list(self.eqs), self.dim)

    def reflect(self) -> "ConvexPoly":
        """The set {-x : x in self}."""
        if self.is_empty():
            return self
        return ConvexPoly.make(
            self.dim,
            [(neg(a), b) for a, b in self.ineqs],
            [(neg(e), d) for e, d in self.eqs],
        )


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
            f = a[k] / e0[k]
            out_i.append((drop(sub(a, scale(e0, f))), b - f * d0))
        out_e: list[Row] = []
        for i, (e, d) in enumerate(eqs):
            if i == pivot_eq:
                continue
            f = e[k] / e0[k]
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


def _dd(dim: int, ineq_rows: list[Vec], eq_rows: list[Vec]) -> tuple[list[Vec], list[Vec]]:
    """Double description: generators of {x : a.x <= 0, e.x == 0}.

    Maintains a (rays, lineality) pair generating the intersection of the
    constraints processed so far.  A constraint that cuts a lineality
    direction turns it into a ray and projects everything else onto the
    constraint's hyperplane; otherwise rays are split by sign and adjacent
    pairs are combined.  Redundant rays are pruned after every step, which at
    this package's scale is cheaper than maintaining adjacency certificates.
    """
    lin: list[Vec] = nullspace(list(eq_rows), dim)
    rays: list[Vec] = []
    for a in ineq_rows:
        pivot = next((l for l in lin if dot(a, l) != 0), None)
        if pivot is not None:
            if dot(a, pivot) > 0:
                pivot = neg(pivot)
            pa = dot(a, pivot)
            lin = [
                sub(l, scale(pivot, dot(a, l) / pa))
                for l in lin
                if l is not pivot and not is_zero(sub(l, scale(pivot, dot(a, l) / pa)))
            ]
            rays = [sub(r, scale(pivot, dot(a, r) / pa)) for r in rays]
            rays.append(pivot)
            rays = _prune_rays(dim, rays, lin)
            continue
        vals = [dot(a, r) for r in rays]
        if all(v <= 0 for v in vals):
            continue
        new_rays = [r for r, v in zip(rays, vals) if v <= 0]
        for rp, vp in zip(rays, vals):
            if vp <= 0:
                continue
            for rn, vn in zip(rays, vals):
                if vn < 0:
                    comb = sub(scale(rn, vp), scale(rp, vn))
                    if not is_zero(comb):
                        new_rays.append(primitive(comb))
        rays = _prune_rays(dim, new_rays, lin)
    return rays, lin


def _prune_rays(dim: int, rays: list[Vec], lin: list[Vec]) -> list[Vec]:
    """Canonical ray list: reduced modulo lineality, primitive, irredundant."""
    lin_rows, lin_piv = rref(list(lin))
    canon: list[Vec] = []
    seen: set[Vec] = set()
    for r in rays:
        rr = primitive(reduce_mod_rowspace(r, lin_rows, lin_piv))
        if not is_zero(rr) and rr not in seen:
            seen.add(rr)
            canon.append(rr)
    i = 0
    while i < len(canon):
        r = canon[i]
        others = canon[:i] + canon[i + 1 :]
        if _in_cone_of(dim, r, others, lin):
            canon.pop(i)
        else:
            i += 1
    canon.sort()
    return canon


def _in_cone_of(dim: int, x: Vec, rays: list[Vec], lin: list[Vec]) -> bool:
    """Is x in cone(rays) + span(lin)?  LP in the coefficients."""
    k, s = len(rays), len(lin)
    if k == 0 and s == 0:
        return is_zero(x)
    eqs: list[Row] = []
    for c in range(dim):
        coeff = tuple(r[c] for r in rays) + tuple(l[c] for l in lin)
        eqs.append((coeff, x[c]))
    ineqs: list[Row] = []
    for j in range(k):
        e = [_ZERO] * (k + s)
        e[j] = Fraction(-1)
        ineqs.append((tuple(e), _ZERO))
    return lp.feasible_point(ineqs, eqs, k + s) is not None


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
        rows_i = [(as_vec(a), _ZERO) for a in ineqs]
        rows_e = [(as_vec(e), _ZERO) for e in eqs]
        canon = _canon_h(dim, rows_i, rows_e)
        assert canon is not None  # homogeneous systems contain 0
        return ConeH(
            dim,
            tuple(a for a, _ in canon[0]),
            tuple(e for e, _ in canon[1]),
        )

    @staticmethod
    def from_generators(dim: int, rays=(), lineality=()) -> "ConeH":
        rays = [as_vec(r) for r in rays]
        lins = [as_vec(l) for l in lineality]
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
            rays, lin = _dd(self.dim, list(self.ineqs), list(self.eqs))
            lin_rows, _ = rref(lin)
            self._rays = tuple(_prune_rays(self.dim, rays, lin))
            self._lineality = tuple(sorted(lin_rows))

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
        assert self.dim == other.dim
        if self.empty or other.empty:
            return ConeH.empty_marker(self.dim)
        return ConeH.from_ineqs(
            self.dim, self.ineqs + other.ineqs, self.eqs + other.eqs
        )

    def minkowski(self, other: "ConeH") -> "ConeH":
        assert self.dim == other.dim
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
        assert not self.empty

        def lift(v: Vec) -> Vec:
            w = [_ZERO] * total_dim
            for i, c in enumerate(coords):
                w[c] = v[i]
            return tuple(w)

        return ConeH.from_ineqs(
            total_dim, [lift(a) for a in self.ineqs], [lift(e) for e in self.eqs]
        )

    def to_poly(self) -> ConvexPoly:
        assert not self.empty
        return ConvexPoly(
            self.dim,
            tuple((a, _ZERO) for a in self.ineqs),
            tuple((e, _ZERO) for e in self.eqs),
        )


def _eye(dim: int) -> list[Vec]:
    return [tuple(_ONE if i == j else _ZERO for j in range(dim)) for i in range(dim)]


def dd_convert(cone: ConeH) -> ConeH:
    """Populate both representations; idempotent by construction."""
    cone._ensure_vrep()
    return cone


def polar(cone: ConeH) -> ConeH:
    """The polar cone {y : y.x <= 0 for all x in the cone}."""
    assert not cone.empty
    rays, lin = cone.generators()
    return ConeH.from_ineqs(cone.dim, rays, lin)


def slice_cone_at_tail(cone: ConeH, tail: Vec) -> ConvexPoly:
    """{x : (x, tail) in cone} as a polyhedron in the leading coordinates."""
    head = cone.dim - len(tail)
    assert head >= 0
    if cone.empty:
        return ConvexPoly.empty(head)
    ineqs = [(a[:head], -dot(a[head:], tail)) for a in cone.ineqs]
    eqs = [(e[:head], -dot(e[head:], tail)) for e in cone.eqs]
    return ConvexPoly.make(head, ineqs, eqs)


def slice_cone_at_head(cone: ConeH, head: Vec) -> ConvexPoly:
    """{t : (head, t) in cone} as a polyhedron in the trailing coordinates."""
    k = len(head)
    tail = cone.dim - k
    assert tail >= 0
    if cone.empty:
        return ConvexPoly.empty(tail)
    ineqs = [(a[k:], -dot(a[:k], head)) for a in cone.ineqs]
    eqs = [(e[k:], -dot(e[:k], head)) for e in cone.eqs]
    return ConvexPoly.make(tail, ineqs, eqs)


# ---------------------------------------------------------------------------
# finite unions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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

    def active_pieces(self, x: Vec) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.pieces) if p.contains(x))

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


def _poly_key(p: ConvexPoly):
    return (p.ineqs, p.eqs)


@dataclass(frozen=True)
class PolyUnion:
    """A finite union of convex polyhedra used for cone slices and rule sides.

    Unlike PolySet (which models ground sets Omega), a PolyUnion may be empty
    and is canonicalized by dropping parts contained in other parts.
    """

    dim: int
    parts: tuple[ConvexPoly, ...]

    @staticmethod
    def make(dim: int, parts) -> "PolyUnion":
        # canonical H-forms are unique per set, so after dedup a mutual
        # inclusion cannot occur and pairwise pruning is order-free
        alive = list(dict.fromkeys(p for p in parts if not p.is_empty()))
        kept = [
            p
            for i, p in enumerate(alive)
            if not any(j != i and p.subset_of(q) for j, q in enumerate(alive))
        ]
        kept.sort(key=_poly_key)
        return PolyUnion(dim, tuple(kept))

    @staticmethod
    def empty(dim: int) -> "PolyUnion":
        return PolyUnion(dim, ())

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x: Vec) -> bool:
        return any(p.contains(x) for p in self.parts)

    def subset_of(self, other: "PolyUnion") -> bool:
        return union_subset(self, other)[0]

    def same_set(self, other: "PolyUnion") -> bool:
        return self.subset_of(other) and other.subset_of(self)

    def intersect(self, other: "PolyUnion") -> "PolyUnion":
        return PolyUnion.make(
            self.dim,
            [p.intersect(q) for p in self.parts for q in other.parts],
        )

    def minkowski(self, other: "PolyUnion") -> "PolyUnion":
        return PolyUnion.make(
            self.dim,
            [
                _poly_minkowski(p, q)
                for p in self.parts
                for q in other.parts
            ],
        )


def _poly_minkowski(p: ConvexPoly, q: ConvexPoly) -> ConvexPoly:
    """p + q by projecting {(x, u) : u in p, x - u in q} onto x."""
    n = p.dim
    ineqs: list[Row] = [((zero(n) + a), b) for a, b in p.ineqs]
    eqs: list[Row] = [((zero(n) + e), d) for e, d in p.eqs]
    ineqs += [(a + neg(a), b) for a, b in q.ineqs]
    eqs += [(e + neg(e), d) for e, d in q.eqs]
    big = ConvexPoly.make(2 * n, ineqs, eqs)
    return big.eliminate(tuple(range(n, 2 * n)))


def union_subset(a: PolyUnion, b: PolyUnion) -> tuple[bool, Vec | None]:
    """Region-subtraction containment test with an exact witness on failure.

    Each part of `a` is split along the defining rows of b's parts; a
    surviving region yields a point of a \\ b found by slack-maximizing LP.
    """
    if a.is_empty():
        return True, None
    for part in a.parts:
        regions: list[tuple[list[Row], list[Row], list[Row]]] = [
            (list(part.ineqs), [], list(part.eqs))
        ]
        for bp in b.parts:
            rows = list(bp.ineqs)
            for e, d in bp.eqs:
                rows.append((e, d))
                rows.append((neg(e), -d))
            next_regions = []
            for weak, strict, eqs in regions:
                prefix: list[Row] = []
                for av, bv in rows:
                    cand = (
                        weak + prefix,
                        strict + [(neg(av), -bv)],  # a.x > b
                        eqs,
                    )
                    if (
                        lp.strict_feasible_point(
                            cand[0], cand[1], cand[2], a.dim
                        )
                        is not None
                    ):
                        next_regions.append(cand)
                    prefix.append((av, bv))
            regions = next_regions
            if not regions:
                break
        if regions:
            weak, strict, eqs = regions[0]
            witness = lp.strict_feasible_point(weak, strict, eqs, a.dim)
            assert witness is not None
            return False, witness
    return True, None


class ConeUnion:
    """A finite union of closed convex polyhedral cones.

    Canonical form drops parts contained in other parts (no convex merging,
    by design); an empty part list is the "empty set" marker used for points
    outside the reference domain.
    """

    __slots__ = ("dim", "parts")

    def __init__(self, dim: int, parts=()):
        self.dim = dim
        self.parts = tuple(parts)

    @staticmethod
    def make(dim: int, parts) -> "ConeUnion":
        alive = list(dict.fromkeys(p for p in parts if not p.empty))
        kept = [
            p
            for i, p in enumerate(alive)
            if not any(j != i and p.subset_of(q) for j, q in enumerate(alive))
        ]
        kept.sort(key=lambda c: (c.ineqs, c.eqs))
        return ConeUnion(dim, kept)

    @staticmethod
    def empty(dim: int) -> "ConeUnion":
        return ConeUnion(dim, ())

    @staticmethod
    def single(cone: ConeH) -> "ConeUnion":
        if cone.empty:
            return ConeUnion.empty(cone.dim)
        return ConeUnion.make(cone.dim, [cone])

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x: Vec) -> bool:
        return any(p.contains(x) for p in self.parts)

    def to_poly_union(self) -> PolyUnion:
        return PolyUnion.make(self.dim, [p.to_poly() for p in self.parts])

    def subset_of(self, other: "ConeUnion") -> tuple[bool, Vec | None]:
        if self.is_empty():
            return True, None
        if other.is_empty():
            return False, zero(self.dim)
        return union_subset(self.to_poly_union(), other.to_poly_union())

    def same_set(self, other: "ConeUnion") -> bool:
        return self.subset_of(other)[0] and other.subset_of(self)[0]

    def __eq__(self, other):
        return (
            isinstance(other, ConeUnion)
            and self.dim == other.dim
            and self.same_set(other)
        )

    def __hash__(self):  # pragma: no cover - unions are not dict keys
        return hash(self.dim)

    def __repr__(self):
        return f"ConeUnion(dim={self.dim}, {len(self.parts)} parts)"

    def intersect(self, other: "ConeUnion") -> "ConeUnion":
        return ConeUnion.make(
            self.dim,
            [p.intersect(q) for p in self.parts for q in other.parts],
        )

    def minkowski(self, other: "ConeUnion") -> "ConeUnion":
        return ConeUnion.make(
            self.dim,
            [p.minkowski(q) for p in self.parts for q in other.parts],
        )

    def negate(self) -> "ConeUnion":
        return ConeUnion.make(self.dim, [p.negate() for p in self.parts])

    def product(self, other: "ConeUnion") -> "ConeUnion":
        return ConeUnion.make(
            self.dim + other.dim,
            [p.product(q) for p in self.parts for q in other.parts],
        )

    def is_zero_cone(self) -> bool:
        if self.is_empty():
            return False
        return all(p.is_zero() for p in self.parts)

    def nonzero_vector(self) -> Vec | None:
        """A canonical nonzero member, if any (first ray or lineality)."""
        for p in self.parts:
            if p.rays:
                return p.rays[0]
            if p.lineality:
                return p.lineality[0]
        return None


def homogeneous_union_to_cones(pu: PolyUnion) -> ConeUnion:
    """Reinterpret a union of polyhedra through the origin as a cone union."""
    parts = []
    for p in pu.parts:
        assert all(b == 0 for _, b in p.ineqs) and all(d == 0 for _, d in p.eqs)
        parts.append(
            ConeH.from_ineqs(p.dim, [a for a, _ in p.ineqs], [e for e, _ in p.eqs])
        )
    return ConeUnion.make(pu.dim, parts)


def box_rows(
    center: Vec, radius: Fraction, total_dim: int, coords: tuple[int, ...]
) -> list[Row]:
    """Inequality rows |x_c - center_i| <= radius on selected coordinates."""
    rows: list[Row] = []
    for i, c in enumerate(coords):
        e = [_ZERO] * total_dim
        e[c] = _ONE
        rows.append((tuple(e), center[i] + radius))
        e2 = [_ZERO] * total_dim
        e2[c] = Fraction(-1)
        rows.append((tuple(e2), radius - center[i]))
    return rows


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
