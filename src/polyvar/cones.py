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
  because those cones are constant on every cell, hence also on every
  stratum of cells that `local_cells` returns.  A cone is fixed by the rows
  at its point, its pattern, which a stratum's signs give with no point
  (`Cell.tight_rows`), so one is built per pattern of rows that no other
  pattern dominates (`_undominated`); a piece holding the point in its
  interior makes it {0}, with no canonicalization.

Within one call of a calculus rule (`rule_scope`), the patterns of each
(omega, wrt, point), the union of each set of patterns and each graph cone
of `multimaps.graph_normal_cone` are computed once and shared by the rule's qualifications and sides; the memo goes when the
call ends, so no result outlives it.

The relative ("with respect to C") versions add the rows of the radial cone
of C at the point to that H-form, and use the empty-marker convention when
the base point leaves Omega ∩ C, which is never built: T_{P∩C}(x) =
T_P(x) ∩ T_C(x), so a piece's tangent rows are its active rows plus C's.
"""

from __future__ import annotations

from functools import wraps

from .exactgeom import ConeH, ConeUnion, ConvexPoly, IntVec, PolySet
from .linalg import Vec, check_dim, excess_at
from .stratify import local_cells
from .verdicts import KIND_FRECHET, KIND_LIMITING, KIND_PROXIMAL


def _active_rows(p: ConvexPoly, excess) -> tuple[list[IntVec], list[IntVec]] | None:
    """(normals of the inequalities tight at x, equality normals) of p, or
    None when x lies outside p: the rows of p's tangent cone at x, read
    through `excess = excess_at(x)`."""
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
    rows = _active_rows(c, excess_at(x))
    if rows is None:
        raise ValueError("point outside the set")
    return ConeH.from_rows(c.dim, *rows)


def _pattern(omega: PolySet, wrt: ConvexPoly, radial, tight):
    """(wrt's radial rows, each piece's tangent rows: its active rows plus
    wrt's, None for a piece missing the point) as hashable tuples, which fix
    the Fréchet cone; `radial` and `tight` are the normals of the
    inequalities tight at the point of wrt and of each piece (or None)."""
    eqs = tuple(e for e, _ in wrt.eq_rows)
    tangents = tuple(
        None if t is None else ((*t, *radial), (*(e for e, _ in p.eq_rows), *eqs))
        for p, t in zip(omega.pieces, tight)
    )
    return (radial, eqs), tangents


def _rows_at(omega: PolySet, x: Vec, wrt: ConvexPoly):
    """The `_pattern` at x, read by evaluating every row there; None outside
    omega ∩ wrt."""
    excess = excess_at(x)
    radial = _active_rows(wrt, excess)
    found = [_active_rows(p, excess) for p in omega.pieces]
    if radial is None or not any(found):
        return None
    return _pattern(omega, wrt, tuple(radial[0]), [f and tuple(f[0]) for f in found])


def _frechet_cone(dim: int, rows) -> ConeH:
    # one H-form: the generators of every tangent cone as rows (rays as
    # inequalities, lineality as equalities), plus the radial rows; a tangent
    # cone with no row is the whole space, whose polar is {0}
    radial, tangents = rows
    if ((), ()) in tangents:
        return ConeH.zero(dim)
    ineqs, eqs = map(list, radial)
    for tangent in filter(None, tangents):
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


_memo = None  # {input: result} of the outermost open rule call, else None


def rule_scope(rule):
    """`rule` with one memo of `per_rule_call` results by input for its
    outermost call, shared by nested rule calls and dropped when that call
    ends: a rule searches each (omega, wrt, point) once.  Nothing is
    kept across calls, so every call checks its limits afresh."""

    @wraps(rule)
    def scoped(*args, **kwargs):
        global _memo
        if _memo is not None:
            return rule(*args, **kwargs)
        _memo = {}
        try:
            return rule(*args, **kwargs)
        finally:
            _memo = None

    return scoped


def per_rule_call(build):
    """build, its results kept by input in the open rule call's memo; an
    entry goes in only after its build returns."""

    @wraps(build)
    def kept(*args):
        if _memo is None:
            return build(*args)
        key = (build, *args)
        found = _memo.get(key)
        if found is None:
            found = _memo[key] = build(*args)
        return found

    return kept


@per_rule_call
def _patterns(omega: PolySet, wrt: ConvexPoly, point: Vec) -> frozenset:
    """The `_pattern`s of the strata of [omega, wrt] adherent to the point,
    read off their signs (wrt, one piece, holds every stratum); none when
    the point is outside omega ∩ wrt."""
    if not (omega.contains(point) and wrt.contains(point)):
        return frozenset()
    return frozenset(
        _pattern(omega, wrt, cell.tight_rows(1)[0], cell.tight_rows(0))
        for cell in local_cells([omega, wrt], point)
    )


def _undominated(patterns) -> list:
    """The patterns whose cones no other pattern's cone holds, one of each
    set of equal row sets.  q dominates p when they have the same radial rows
    and the same pieces, and q's tangent rows hold p's piece by piece: q's
    tangent cones are then smaller, so its cone is larger.  The equality
    rows of a piece are its own and wrt's, equal within such a group."""
    groups: dict = {}
    for p in patterns:
        radial, tangents = p
        pieces = tuple(t is not None for t in tangents)
        rows = tuple(t and frozenset(t[0]) for t in tangents)
        groups.setdefault((radial, pieces), {}).setdefault(rows, p)
    return [
        p
        for group in groups.values()
        for rows, p in group.items()
        if not any(
            other is not rows and all(r is None or r <= o for r, o in zip(rows, other))
            for other in group
        )
    ]


@per_rule_call
def _union(dim: int, patterns: frozenset) -> ConeUnion:
    """The union of the patterns' Fréchet cones, built from the undominated
    patterns only: a dominated cone lies in another part."""
    return ConeUnion.make(dim, [_frechet_cone(dim, r) for r in _undominated(patterns)])


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
