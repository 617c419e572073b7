"""Piecewise-linear extended-real functions via their polyhedral epigraphs.

A function is its epigraph, a finite union of upward-closed convex polyhedra
in R^{n+1}; values are fiber minima by LP, the domain is an exact projection.
Subdifferentials relative to a convex set C are slices of the epigraph's
normal cone relative to C x R: the last dual coordinate is fixed to -1
(Fréchet/limiting) or 0 (horizon).  For a base point in C the epigraph of
the C-restriction and the plain epigraph give the same relative cones (the
reference-set intersection performs the restriction), so both are computed
from epi f cap (C x R) uniformly.
"""

from __future__ import annotations

from fractions import Fraction

from . import lp
from ._record import record
from .cones import frechet_normal_wrt, limiting_normal_wrt
from .exactgeom import (
    ConeUnion,
    ConvexPoly,
    PolySet,
    PolyUnion,
    slice_cone_at_tail,
)
from .linalg import Vec, as_vec, check_dim, neg, zero
from .multimaps import PolyMultimap, coderivative_wrt
from .verdicts import KIND_FRECHET, KIND_HORIZON, KIND_LIMITING, TriVerdict

_UP = "improper function: a fiber of the epigraph is unbounded below"


@record
class PLFunc:
    """dim, epigraph (in R^{dim+1}) and its projected domain."""

    dim: int
    epi: PolySet
    dom: PolySet

    @staticmethod
    def from_epigraph_pieces(dim: int, pieces) -> "PLFunc":
        closed_up = [_upward_close(p) for p in pieces]
        epi = PolySet.make(dim + 1, closed_up)
        down = zero(dim) + (Fraction(-1),)
        for p in epi.pieces:
            if p.recession().contains(down):
                raise ValueError(_UP)
        dom = epi.eliminate((dim,))
        return PLFunc(dim, epi, dom)

    @staticmethod
    def affine(dim: int, slope, offset, domain: ConvexPoly | None = None) -> "PLFunc":
        """f(x) = slope . x + offset on `domain` (everywhere by default)."""
        a = as_vec(slope)
        row = (neg(a) + (Fraction(1),), Fraction(offset))  # alpha >= a.x + b
        ineqs = [(r + (Fraction(0),), b) for r, b in (domain.ineqs if domain else ())]
        eqs = [(r + (Fraction(0),), b) for r, b in (domain.eqs if domain else ())]
        piece = ConvexPoly.make(dim + 1, [(neg(row[0]), -row[1])] + ineqs, eqs)
        return PLFunc.from_epigraph_pieces(dim, [piece])

    @staticmethod
    def max_affine(dim: int, terms) -> "PLFunc":
        """f = max of finitely many affine pieces (one convex epigraph piece)."""
        rows = []
        for slope, offset in terms:
            a = as_vec(slope)
            rows.append((a + (Fraction(-1),), -Fraction(offset)))
        return PLFunc.from_epigraph_pieces(
            dim, [ConvexPoly.make(dim + 1, rows)]
        )

    def value(self, x: Vec) -> Fraction | None:
        """f(x) = min{alpha : (x, alpha) in epi}; None encodes +infinity."""
        check_dim("value point", len(x), self.dim)
        best: Fraction | None = None
        obj = zero(self.dim) + (Fraction(1),)
        for p in self.epi.pieces:
            eqs = list(p.eqs) + [
                (tuple(Fraction(1 if j == i else 0) for j in range(self.dim + 1)), x[i])
                for i in range(self.dim)
            ]
            status, _, val = lp.solve(obj, list(p.ineqs), eqs, self.dim + 1, maximize=False)
            if status == lp.OPTIMAL and val is not None:
                best = val if best is None else min(best, val)
            elif status == lp.UNBOUNDED:
                raise ValueError(_UP)
        return best

    def epigraphical_map(self) -> PolyMultimap:
        """The multimap whose graph is the epigraph."""
        return PolyMultimap(self.dim, 1, self.epi)


def _upward_close(p: ConvexPoly) -> ConvexPoly:
    """p + R_+ (0, ..., 0, 1), exactly."""
    if p.is_empty():
        return p
    d = p.dim
    # (x, alpha, t): (x, alpha - t) in p, t >= 0; eliminate t
    ineqs = []
    eqs = []
    for a, b in p.ineqs:
        ineqs.append((a + (-a[d - 1],), b))
    for e, dd in p.eqs:
        eqs.append((e + (-e[d - 1],), dd))
    tpos = tuple(Fraction(0) for _ in range(d)) + (Fraction(-1),)
    ineqs.append((tpos, Fraction(0)))
    big = ConvexPoly.make(d + 1, ineqs, eqs)
    return big.eliminate((d,))


@record
class SubdiffResult:
    """A subdifferential slice: kind, reference set, union of polyhedra."""

    kind: str
    wrt: ConvexPoly
    value: PolyUnion


def subdiff_wrt(f: PLFunc, c: ConvexPoly, xbar: Vec, kind: str) -> SubdiffResult:
    """Fréchet / limiting / horizon subdifferential of f at xbar relative to c."""
    fx = f.value(xbar)
    if fx is None or not c.contains(xbar):
        return SubdiffResult(kind, c, PolyUnion.empty(f.dim))
    point = xbar + (fx,)
    wrt_lift = c.product(ConvexPoly.whole_space(1))
    last = (Fraction(-1),) if kind in (KIND_FRECHET, KIND_LIMITING) else (Fraction(0),)
    if kind == KIND_FRECHET:
        cone = frechet_normal_wrt(f.epi, wrt_lift, point)
        parts = [slice_cone_at_tail(cone, last)]
    elif kind in (KIND_LIMITING, KIND_HORIZON):
        union = limiting_normal_wrt(f.epi, wrt_lift, point)
        parts = [slice_cone_at_tail(p, last) for p in union.parts]
    else:
        raise ValueError(f"unknown subdifferential kind: {kind}")
    return SubdiffResult(kind, c, PolyUnion.make(f.dim, parts))


def subdiff_via_coderivative(
    f: PLFunc, c: ConvexPoly, xbar: Vec, kind: str = KIND_LIMITING
) -> SubdiffResult:
    """The same sets through the epigraphical multimap's coderivative.

    Limiting subgradients are D*_C E^f(xbar)(1); horizon ones are the slice
    at 0.  Independent route used to cross-check subdiff_wrt exactly.
    """
    fx = f.value(xbar)
    if fx is None or not c.contains(xbar):
        return SubdiffResult(kind, c, PolyUnion.empty(f.dim))
    ef = f.epigraphical_map()
    ystar = (Fraction(1),) if kind == KIND_LIMITING else (Fraction(0),)
    if kind not in (KIND_LIMITING, KIND_HORIZON):
        raise ValueError("coderivative route covers limiting and horizon kinds")
    sl = coderivative_wrt(ef, c, xbar, (fx,), ystar)
    return SubdiffResult(kind, c, sl.result)


def lipschitz_wrt_check(f: PLFunc, c: ConvexPoly, xbar: Vec) -> TriVerdict:
    """Local Lipschitz continuity relative to c iff the horizon cone is {0}."""
    fx = f.value(xbar)
    if fx is None or not c.contains(xbar):
        raise ValueError("base point outside dom f cap c")
    horizon = subdiff_wrt(f, c, xbar, KIND_HORIZON).value
    cones = ConeUnion.make(horizon.dim, [p.recession() for p in horizon.parts])
    if cones.is_zero_cone():
        return TriVerdict.holds()
    return TriVerdict.fails({"vector": cones.nonzero_vector()})


def fermat_check(f: PLFunc, c: ConvexPoly, xbar: Vec) -> dict:
    """0-membership in the Fréchet and limiting relative subdifferentials.

    Necessary conditions only: a point failing the Fréchet test is certified
    non-minimizing; passing certifies nothing.
    """
    fx = f.value(xbar)
    if fx is None or not c.contains(xbar):
        raise ValueError("base point outside dom f cap c")
    origin = zero(f.dim)
    fre = subdiff_wrt(f, c, xbar, KIND_FRECHET)
    lim = subdiff_wrt(f, c, xbar, KIND_LIMITING)
    return {
        "is_stationary_frechet": fre.value.contains(origin),
        "is_stationary_limiting": lim.value.contains(origin),
    }
