"""Normal cones of polyhedral unions, classically and relative to a convex set.

The three flavors are tied together by two exact facts about polyhedral data:

* at a point of a finite union of closed convex polyhedra, proximal and
  Fréchet normals coincide and equal the intersection, over the pieces
  containing the point, of the polars of the pieces' tangent cones;
* the limiting cone relative to a convex set C is the finite union of the
  Fréchet-relative cones over the sign cells adherent to the base point,
  because those cones are constant on every cell.

The relative ("with respect to C") versions intersect with the radial cone
of C, and use the empty-marker convention when the base point leaves the
reference domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactgeom import ConeH, ConeUnion, ConvexPoly, PolySet
from .linalg import Vec, check_dim, dot, neg, sub
from .stratify import local_cells

KIND_PROXIMAL = "proximal"
KIND_FRECHET = "frechet"
KIND_LIMITING = "limiting"


@dataclass(frozen=True)
class ConeRequest:
    """The (Omega, C, point) triple plus the requested cone kind."""

    omega: PolySet
    wrt: ConvexPoly
    point: Vec
    kind: str


def radial_cone(c: ConvexPoly, x: Vec) -> ConeH:
    """Directions d with x + p d in c for some p > 0 (exact for polyhedra)."""
    check_dim("radial_cone point", len(x), c.dim)
    if not c.contains(x):
        raise ValueError("point outside the set")
    ineqs = [a for a, b in c.ineqs if dot(a, x) == b]
    eqs = [e for e, _ in c.eqs]
    return ConeH.from_ineqs(c.dim, ineqs, eqs)


def _piece_normal_cone(piece: ConvexPoly, x: Vec) -> ConeH:
    # polar of the piece's tangent cone: active inequality normals plus the
    # equality normals as lineality
    rays = [a for a, b in piece.ineqs if dot(a, x) == b]
    lins = [e for e, _ in piece.eqs]
    return ConeH.from_generators(piece.dim, rays, lins)


def frechet_normal(omega: PolySet, x: Vec) -> ConeH:
    """Classical Fréchet normal cone of a union of closed convex polyhedra."""
    check_dim("frechet_normal point", len(x), omega.dim)
    active = omega.active_pieces(x)
    if not active:
        raise ValueError("point outside the set")
    cone = ConeH.whole_space(omega.dim)
    for i in active:
        cone = cone.intersect(_piece_normal_cone(omega.pieces[i], x))
    return cone


def frechet_normal_wrt(omega: PolySet, wrt: ConvexPoly, point: Vec) -> ConeH:
    """Fréchet normal cone of omega at the point, relative to the set wrt."""
    check_dim("frechet_normal_wrt point", len(point), omega.dim)
    request_domain = omega.intersect_poly(wrt)
    if not request_domain.contains(point):
        return ConeH.empty_marker(omega.dim)
    return frechet_normal(request_domain, point).intersect(radial_cone(wrt, point))


def proximal_normal_wrt(
    omega: PolySet, wrt: ConvexPoly, point: Vec, validate: bool = False
) -> ConeH:
    """Proximal normal cone relative to wrt (Euclidean ambient norm).

    For unions of closed convex polyhedra this set coincides with the
    Fréchet-relative cone; `validate` additionally checks every generator
    against the witnesses of the adherent cells of omega cap wrt and checks
    radial admissibility, both exactly.
    """
    cone = frechet_normal_wrt(omega, wrt, point)
    if validate and not cone.empty:
        if not _proximal_inequality_holds(omega, wrt, point, cone):
            raise RuntimeError("proximal inequality fails at a cell or radially")
    return cone


def _proximal_inequality_holds(
    omega: PolySet, wrt: ConvexPoly, point: Vec, cone: ConeH
) -> bool:
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


def limiting_normal_wrt(omega: PolySet, wrt: ConvexPoly, point: Vec) -> ConeUnion:
    """Limiting normal cone relative to wrt: the outer limit over adherent cells."""
    check_dim("limiting_normal_wrt point", len(point), omega.dim)
    request_domain = omega.intersect_poly(wrt)
    if not request_domain.contains(point):
        return ConeUnion.empty(omega.dim)
    cells = local_cells([omega, wrt], point)
    inter_pieces = request_domain
    parts = []
    for cell in cells:
        x = cell.witness
        part = frechet_normal(inter_pieces, x).intersect(radial_cone(wrt, x))
        parts.append(part)
    return ConeUnion.make(omega.dim, parts)


def limiting_normal(omega: PolySet, point: Vec) -> ConeUnion:
    """Classical limiting normal cone (wrt = the whole space)."""
    return limiting_normal_wrt(omega, ConvexPoly.whole_space(omega.dim), point)


def normal_cone(request: ConeRequest) -> ConeH | ConeUnion:
    """Dispatch on the requested kind; empty marker outside Omega cap C."""
    if request.kind == KIND_FRECHET:
        return frechet_normal_wrt(request.omega, request.wrt, request.point)
    if request.kind == KIND_PROXIMAL:
        return proximal_normal_wrt(request.omega, request.wrt, request.point)
    if request.kind == KIND_LIMITING:
        return limiting_normal_wrt(request.omega, request.wrt, request.point)
    raise ValueError(f"unknown cone kind: {request.kind}")
