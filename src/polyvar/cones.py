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
  because those cones are constant on every cell.  A cone is fixed by the
  rows at its point, so one is built per distinct pattern of rows; a piece
  holding the point in its interior makes it {0}, with no canonicalization.

The relative ("with respect to C") versions add the rows of the radial cone
of C at the point to that H-form, and use the empty-marker convention when
the base point leaves Omega ∩ C, which is never built: T_{P∩C}(x) =
T_P(x) ∩ T_C(x), so a piece's tangent rows are its active rows plus C's.
"""

from __future__ import annotations

from .exactgeom import ConeH, ConeUnion, ConvexPoly, IntVec, PolySet
from .linalg import Vec, check_dim, excess_at
from .stratify import local_cells
from .verdicts import KIND_FRECHET, KIND_LIMITING, KIND_PROXIMAL


def _active_rows(p: ConvexPoly, x: Vec) -> tuple[list[IntVec], list[IntVec]] | None:
    """(normals of the inequalities tight at x, equality normals) of p, or
    None when x lies outside p: the rows of p's tangent cone at x."""
    excess = excess_at(x)
    active = []
    for a, b in p.rows:
        value = excess(a, b)
        if value > 0:
            return None
        if value == 0:
            active.append(a)
    if any(excess(e, d) for e, d in p.eq_rows):
        return None
    return active, [e for e, _ in p.eq_rows]


def radial_cone(c: ConvexPoly, x: Vec) -> ConeH:
    """Directions d with x + p d in c for some p > 0 (exact for polyhedra)."""
    check_dim("radial_cone point", len(x), c.dim)
    rows = _active_rows(c, x)
    if rows is None:
        raise ValueError("point outside the set")
    return ConeH.from_rows(c.dim, *rows)


def _rows_at(omega: PolySet, x: Vec, wrt: ConvexPoly):
    """(wrt's radial rows, each piece's tangent rows at x: its active rows plus
    wrt's) as hashable tuples, which fix the Fréchet cone; None outside omega ∩ wrt."""
    radial = _active_rows(wrt, x)
    if radial is None:
        return None
    ineqs, eqs = map(tuple, radial)
    found = [_active_rows(p, x) for p in omega.pieces]
    tangents = tuple(((*a, *ineqs), (*e, *eqs)) for a, e in filter(None, found))
    return ((ineqs, eqs), tangents) if tangents else None


def _frechet_cone(dim: int, rows) -> ConeH:
    # one H-form: the generators of every tangent cone as rows (rays as
    # inequalities, lineality as equalities), plus the radial rows; a tangent
    # cone with no row is the whole space, whose polar is {0}
    radial, tangents = rows
    if ((), ()) in tangents:
        return ConeH.zero(dim)
    ineqs, eqs = map(list, radial)
    for tangent in tangents:
        rays, lineality = ConeH.from_rows(dim, *tangent).generators()
        ineqs += rays
        eqs += lineality
    return ConeH.from_rows(dim, ineqs, eqs)


def frechet_normal_wrt(omega: PolySet, wrt: ConvexPoly, point: Vec) -> ConeH:
    """Fréchet normal cone of omega at the point, relative to the set wrt."""
    check_dim("frechet_normal_wrt point", len(point), omega.dim)
    check_dim("frechet_normal_wrt wrt", wrt.dim, omega.dim)
    rows = _rows_at(omega, point, wrt)
    if rows is None:
        return ConeH.empty_marker(omega.dim)
    return _frechet_cone(omega.dim, rows)


def proximal_normal_wrt(omega: PolySet, wrt: ConvexPoly, point: Vec) -> ConeH:
    """Proximal normal cone relative to wrt (Euclidean ambient norm): for
    unions of closed convex polyhedra it coincides with the Fréchet-relative
    cone."""
    check_dim("proximal_normal_wrt point", len(point), omega.dim)
    check_dim("proximal_normal_wrt wrt", wrt.dim, omega.dim)
    return frechet_normal_wrt(omega, wrt, point)


def _patterns(omega: PolySet, wrt: ConvexPoly, point: Vec) -> set:
    """The `_rows_at` patterns at the witnesses of the cells of [omega, wrt]
    adherent to the point; none when the point is outside omega ∩ wrt."""
    if not (omega.contains(point) and wrt.contains(point)):
        return set()
    return {_rows_at(omega, cell.witness, wrt) for cell in local_cells([omega, wrt], point)}


def _union(dim: int, patterns) -> ConeUnion:
    return ConeUnion.make(dim, [_frechet_cone(dim, r) for r in patterns])


def limiting_normal_wrt(omega: PolySet, wrt: ConvexPoly, point: Vec) -> ConeUnion:
    """Limiting normal cone relative to wrt: the outer limit over adherent cells."""
    check_dim("limiting_normal_wrt point", len(point), omega.dim)
    check_dim("limiting_normal_wrt wrt", wrt.dim, omega.dim)
    return _union(omega.dim, _patterns(omega, wrt, point))


def limiting_normal(omega: PolySet, point: Vec) -> ConeUnion:
    """Classical limiting normal cone (wrt = the whole space)."""
    check_dim("limiting_normal point", len(point), omega.dim)
    return limiting_normal_wrt(omega, ConvexPoly.whole_space(omega.dim), point)


def normal_cone(
    omega: PolySet, wrt: ConvexPoly, point: Vec, kind: str
) -> ConeH | ConeUnion:
    """Dispatch on the requested kind; empty marker outside Omega cap C."""
    if kind == KIND_FRECHET:
        return frechet_normal_wrt(omega, wrt, point)
    if kind == KIND_PROXIMAL:
        return proximal_normal_wrt(omega, wrt, point)
    if kind == KIND_LIMITING:
        return limiting_normal_wrt(omega, wrt, point)
    raise ValueError(f"unknown cone kind: {kind}")
