"""Normal cones of polyhedral unions, classically and relative to a convex set.

The three flavors are tied together by two exact facts about polyhedral data:

* at a point of a finite union of closed convex polyhedra, proximal and
  Fréchet normals coincide and equal the polar of the sum of the tangent
  cones of the pieces containing the point (Rockafellar & Wets 1998,
  Thm. 6.28(a) and Thm. 6.46), computed as one canonicalization: the
  generators of each tangent cone become rows of one H-form, rays as
  inequalities and lineality as equalities;
* the limiting cone relative to a convex set C is the finite union of the
  Fréchet-relative cones over the sign cells adherent to the base point,
  because those cones are constant on every cell.

The relative ("with respect to C") versions add the rows of the radial cone
of C at the point to that H-form, and use the empty-marker convention when
the base point leaves the reference domain.
"""

from __future__ import annotations

from ._record import record
from .exactgeom import ConeH, ConeUnion, ConvexPoly, PolySet
from .linalg import Vec, check_dim, dot, neg, sub
from .stratify import local_cells
from .verdicts import KIND_FRECHET, KIND_LIMITING, KIND_PROXIMAL


@record
class ConeRequest:
    """The (Omega, C, point) triple plus the requested cone kind."""

    omega: PolySet
    wrt: ConvexPoly
    point: Vec
    kind: str


def _active_rows(p: ConvexPoly, x: Vec) -> tuple[list[Vec], list[Vec]] | None:
    """(normals of the inequalities tight at x, equality normals) of p, or
    None when x lies outside p: the rows of p's tangent cone at x."""
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


def radial_cone(c: ConvexPoly, x: Vec) -> ConeH:
    """Directions d with x + p d in c for some p > 0 (exact for polyhedra)."""
    check_dim("radial_cone point", len(x), c.dim)
    rows = _active_rows(c, x)
    if rows is None:
        raise ValueError("point outside the set")
    return ConeH.from_ineqs(c.dim, *rows)


def _frechet_cone(
    omega: PolySet, x: Vec, wrt: ConvexPoly | None = None
) -> ConeH | None:
    # one H-form: the generators of every active piece's tangent cone as
    # rows (rays as inequalities, lineality as equalities), plus the radial
    # rows of wrt when given; None when no piece contains x
    tangents = [_active_rows(p, x) for p in omega.pieces]
    tangents = [rows for rows in tangents if rows is not None]
    if not tangents:
        return None
    ineqs, eqs = ([], []) if wrt is None else _active_rows(wrt, x)
    for rows in tangents:
        rays, lineality = ConeH.from_ineqs(omega.dim, *rows).generators()
        ineqs += rays
        eqs += lineality
    return ConeH.from_ineqs(omega.dim, ineqs, eqs)


def frechet_normal(omega: PolySet, x: Vec) -> ConeH:
    """Classical Fréchet normal cone of a union of closed convex polyhedra.

    It is the polar of the sum of the tangent cones of the pieces through x
    (Rockafellar & Wets 1998, Thm. 6.28(a) and Thm. 6.46), computed as one
    canonicalization: the tangent cones' generators are its rows.
    """
    check_dim("frechet_normal point", len(x), omega.dim)
    cone = _frechet_cone(omega, x)
    if cone is None:
        raise ValueError("point outside the set")
    return cone


def frechet_normal_wrt(omega: PolySet, wrt: ConvexPoly, point: Vec) -> ConeH:
    """Fréchet normal cone of omega at the point, relative to the set wrt."""
    check_dim("frechet_normal_wrt point", len(point), omega.dim)
    cone = _frechet_cone(omega.intersect_poly(wrt), point, wrt)
    if cone is None:
        return ConeH.empty_marker(omega.dim)
    return cone


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
    parts = [
        _frechet_cone(request_domain, cell.witness, wrt)
        for cell in local_cells([omega, wrt], point)
    ]
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
