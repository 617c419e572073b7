"""Piecewise-linear extended-real functions via their polyhedral epigraphs.

A function is its epigraph, a finite union of upward-closed convex polyhedra
in R^{n+1}; values are fiber minima, read off each fiber's canonical H-form.
A subdifferential relative to a convex set C is the coderivative of the
epigraphical map at 1, or at 0 for the horizon kind: the `FiniteUnion.slice`
of the epigraph's normal cone relative to C x R at last dual coordinate -1
or 0.  For a base point in C the epigraph of the C-restriction and the plain
epigraph give the same relative cones (the reference-set intersection
performs the restriction), so both are computed from epi f cap (C x R).
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .cones import frechet_normal_wrt, limiting_normal_wrt
from .exactgeom import ConeUnion, ConvexPoly, PolySet, PolyUnion
from .linalg import Vec, check_dim, neg, vec, zero
from .multimaps import PolyMultimap, coderivative_wrt
from .verdicts import KIND_FRECHET, KIND_HORIZON, KIND_LIMITING, TriVerdict

_UP = "improper function: a fiber of the epigraph is unbounded below"


@record
class PLFunc:
    """dim and epigraph (in R^{dim+1})."""

    dim: int
    epi: PolySet

    @staticmethod
    def from_epigraph_pieces(dim: int, pieces) -> "PLFunc":
        up = zero(dim) + (Fraction(1),)
        epi = PolySet.make(dim + 1, [p.plus_ray(up) for p in pieces])
        for p in epi.pieces:
            if p.recession().contains(neg(up)):
                raise ValueError(_UP)
        return PLFunc(dim, epi)

    @staticmethod
    def affine(dim: int, slope, offset, domain: ConvexPoly | None = None) -> "PLFunc":
        """f(x) = slope . x + offset on `domain` (everywhere by default)."""
        a = vec(*slope)
        check_dim("slope", len(a), dim)
        # alpha >= a.x + b, on domain x R
        piece = ConvexPoly.make(dim + 1, [(a + (-1,), -Fraction(offset))])
        if domain is not None:
            check_dim("domain", domain.dim, dim)
            factors = [(piece, range(dim + 1)), (domain, range(dim))]
            piece = ConvexPoly.lift(dim + 1, factors)
        return PLFunc.from_epigraph_pieces(dim, [piece])

    @staticmethod
    def max_affine(dim: int, terms) -> "PLFunc":
        """f = max of finitely many affine pieces (one convex epigraph piece)."""
        rows = []
        for slope, offset in terms:
            a = vec(*slope)
            check_dim("slope", len(a), dim)
            rows.append((a + (Fraction(-1),), -Fraction(offset)))
        return PLFunc.from_epigraph_pieces(
            dim, [ConvexPoly.make(dim + 1, rows)]
        )

    def value(self, x: Vec) -> Fraction | None:
        """f(x) = min{alpha : (x, alpha) in epi}; None encodes +infinity.

        Each piece's fiber over x is an interval of alpha in canonical
        H-form: a point (one equality e.alpha = d), or an interval whose
        lower end, if any, is its one row a.alpha <= b with a[0] < 0.  Rows
        are ints, so each end is the exact quotient `Fraction(d, e)`.
        """
        check_dim("value point", len(x), self.dim)
        best: Fraction | None = None
        for p in self.epi.pieces:
            fiber = p.slice(range(self.dim), x)
            if fiber.is_empty():
                continue
            if fiber.eq_rows:
                ((e, d),) = fiber.eq_rows
                val = Fraction(d, e[0])
            else:
                low = [Fraction(b, a[0]) for a, b in fiber.rows if a[0] < 0]
                if not low:
                    raise ValueError(_UP)
                val = low[0]
            best = val if best is None else min(best, val)
        return best

    def epigraphical_map(self) -> PolyMultimap:
        """The multimap whose graph is the epigraph."""
        return PolyMultimap(self.dim, 1, self.epi)


@record
class SubdiffResult:
    """A subdifferential slice: kind and union of polyhedra."""

    kind: str
    value: PolyUnion


def _epi_point(f: PLFunc, c: ConvexPoly, xbar: Vec) -> Vec | None:
    """(xbar, f(xbar)) when f(xbar) is finite and xbar is in c, else None."""
    fx = f.value(xbar)
    if fx is None or not c.contains(xbar):
        return None
    return xbar + (fx,)


def subdiff_wrt(f: PLFunc, c: ConvexPoly, xbar: Vec, kind: str) -> SubdiffResult:
    """Fréchet / limiting / horizon subdifferential of f at xbar relative to c."""
    point = _epi_point(f, c, xbar)
    if point is None:
        return SubdiffResult(kind, PolyUnion.empty(f.dim))
    return _subdiff_at(f, c, point, kind)


def _subdiff_at(f: PLFunc, c: ConvexPoly, point: Vec, kind: str) -> SubdiffResult:
    """`subdiff_wrt` at the epigraph point (xbar, f(xbar)), xbar in c."""
    last = (0,) if kind == KIND_HORIZON else (-1,)
    return SubdiffResult(kind, _epi_cone(f, c, point, kind).slice((f.dim,), last))


def _epi_cone(f: PLFunc, c: ConvexPoly, point: Vec, kind: str) -> ConeUnion:
    """The normal cone of epi f relative to c x R that the kind slices."""
    wrt_lift = ConvexPoly.lift(c.dim + 1, [(c, range(c.dim))])
    if kind == KIND_FRECHET:
        return ConeUnion.single(frechet_normal_wrt(f.epi, wrt_lift, point))
    if kind in (KIND_LIMITING, KIND_HORIZON):
        return limiting_normal_wrt(f.epi, wrt_lift, point)
    raise ValueError(f"unknown subdifferential kind: {kind}")


def subdiff_via_coderivative(
    f: PLFunc, c: ConvexPoly, xbar: Vec, kind: str = KIND_LIMITING
) -> SubdiffResult:
    """The same sets through the epigraphical multimap's coderivative.

    Limiting subgradients are D*_C E^f(xbar)(1); horizon ones are the slice
    at 0.  It takes the same cone and the same section as `subdiff_wrt`.
    """
    point = _epi_point(f, c, xbar)
    if point is None:
        return SubdiffResult(kind, PolyUnion.empty(f.dim))
    ef = f.epigraphical_map()
    ystar = (Fraction(1),) if kind == KIND_LIMITING else (Fraction(0),)
    if kind not in (KIND_LIMITING, KIND_HORIZON):
        raise ValueError("coderivative route covers limiting and horizon kinds")
    sl = coderivative_wrt(ef, c, xbar, point[-1:], ystar)
    return SubdiffResult(kind, sl.result)


def lipschitz_wrt_check(f: PLFunc, c: ConvexPoly, xbar: Vec) -> TriVerdict:
    """Local Lipschitz continuity relative to c iff the horizon cone is {0}."""
    point = _epi_point(f, c, xbar)
    if point is None:
        raise ValueError("base point outside dom f cap c")
    horizon = _subdiff_at(f, c, point, KIND_HORIZON).value
    return TriVerdict.zero_cone(horizon.recession())


def fermat_check(f: PLFunc, c: ConvexPoly, xbar: Vec) -> dict:
    """0-membership in the Fréchet and limiting relative subdifferentials.

    Necessary conditions only: a point failing the Fréchet test is certified
    non-minimizing; passing certifies nothing.
    """
    point = _epi_point(f, c, xbar)
    if point is None:
        raise ValueError("base point outside dom f cap c")
    origin = zero(f.dim)
    fre = _subdiff_at(f, c, point, KIND_FRECHET)
    lim = _subdiff_at(f, c, point, KIND_LIMITING)
    return {
        "is_stationary_frechet": fre.value.contains(origin),
        "is_stationary_limiting": lim.value.contains(origin),
    }
