"""Sign-cell enumeration for arrangements of polyhedral constraint rows.

The combinatorics of a finite family of polyhedral sets is captured by the
sign cells of the arrangement of all their defining hyperplanes: a sign per
hyperplane (below, on, above), and a cell is nonempty when some point
realizes its sign vector.  One depth-first enumerator serves two modes.

- Near a base point (`local_cells`), rows inactive at the base keep their
  sign on every cell whose closure contains the base, so only the active
  rows branch.  A sign vector on the active rows is an adherent nonempty
  cell exactly when some direction d from the base realizes it (the segment
  from the base to any point of the cell stays in the cell), so each prefix
  is certified by an exact slack-maximizing LP over the active normals with
  zero offsets, and the cell witness is the base moved a short way along d.
  This replaces every "for x close enough to x̄" quantifier with a finite,
  exact enumeration.
- Over a whole set (`global_cells`), every row branches and the same LP
  keeps the offsets, so it finds a point of the region, which is the
  witness: one representative per cell, for rules that quantify over all
  points of a fiber.

In both modes the descent starts at the origin and a child whose sign the
parent's point already has reuses that point, so no LP runs for it.
"""

from __future__ import annotations

from fractions import Fraction

from . import lp
from ._record import record
from .exactgeom import ConvexPoly, IntRow, LimitError, PolySet
from .linalg import Vec, check_dim, dot, integer_row, neg, primitive_ints, zero

ParticipatingSet = PolySet | ConvexPoly

_ONE = Fraction(1)

# most rows one enumeration may branch on; each branches three ways, so the
# search tree has up to 3^k leaves (the test suite reaches k = 9)
ACTIVE_ROW_LIMIT = 12


class ActiveRowLimitError(LimitError):
    pass


def _check_branching(k: int) -> None:
    if k > ACTIVE_ROW_LIMIT:
        raise ActiveRowLimitError(
            f"active-row limit exceeded: {k} rows branch (limit {ACTIVE_ROW_LIMIT})"
        )


@record
class CellSignature:
    """Sign of (a.x - b) per arrangement hyperplane: -1 below, 0 on, 1 above."""

    signs: tuple[int, ...]


@record
class Cell:
    signature: CellSignature
    witness: Vec
    adherent: bool
    memberships: tuple[tuple[int, ...], ...]  # per input set: pieces containing the cell


@record
class _Hyperplane:
    """a.x = b as a primitive int row, the first nonzero of a positive."""

    normal: tuple[int, ...]
    offset: int


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def _as_pieces(s: ParticipatingSet) -> tuple[ConvexPoly, ...]:
    if isinstance(s, PolySet):
        return s.pieces
    return (s,)


def _canonical_hyperplane(a: Vec, b: Fraction) -> tuple[tuple[int, ...], int, int]:
    """Oriented primitive int (a, b) with the first nonzero of `a` positive."""
    joint = primitive_ints(integer_row(a + (b,))[0])
    av, bv = tuple(joint[:-1]), joint[-1]
    for x in av:
        if x != 0:
            if x < 0:
                return neg(av), -bv, -1
            break
    return av, bv, 1


def local_cells(sets: list[ParticipatingSet], base: Vec) -> list[Cell]:
    """All nonempty sign cells adherent to `base` and inside every input set.

    A cell is adherent exactly when the base point satisfies the closure of
    its sign conditions, which for rows inactive at the base pins the sign to
    the base's own.  Active rows branch three ways with LP pruning of
    infeasible prefixes.  Discarded are cells outside some participating set
    (they carry no sequence inside the intersection).  Raises
    ActiveRowLimitError when more than ACTIVE_ROW_LIMIT rows are active.
    """
    for s in sets:
        check_dim("local_cells base", len(base), s.dim)
    if not any(s.contains(base) for s in sets):
        raise ValueError("base point outside all sets")
    return _cells(sets, base)


def global_cells(sets: list[ParticipatingSet]) -> list[Cell]:
    """Every nonempty sign cell of the whole arrangement inside every set.

    No base point: all rows branch.  Used to pick one representative per
    combinatorial stratum when a rule quantifies over an entire set (for
    instance all intermediate points of a composition).  Raises
    ActiveRowLimitError when there are more than ACTIVE_ROW_LIMIT rows.
    """
    if not sets:
        return []
    return _cells(sets, None)


def _cells(sets: list[ParticipatingSet], base: Vec | None) -> list[Cell]:
    """The enumeration behind `local_cells` (a base) and `global_cells`."""
    dim = sets[0].dim if base is None else len(base)

    # collect canonical hyperplanes and per-piece requirements
    hyperplanes: list[_Hyperplane] = []
    index: dict[IntRow, int] = {}

    def hyperplane_id(a: Vec, b: Fraction) -> tuple[int, int]:
        av, bv, flip = _canonical_hyperplane(a, b)
        key = (av, bv)
        if key not in index:
            index[key] = len(hyperplanes)
            hyperplanes.append(_Hyperplane(av, bv))
        return index[key], flip

    # requirement per row: (hyperplane id, allowed signs) for "row satisfied"
    piece_rows: list[list[list[tuple[int, frozenset[int]]]]] = []
    for s in sets:
        rows_per_piece = []
        for piece in _as_pieces(s):
            reqs: list[tuple[int, frozenset[int]]] = []
            for a, b in piece.ineqs:
                h, flip = hyperplane_id(a, b)
                allowed = frozenset({-1, 0} if flip == 1 else {0, 1})
                reqs.append((h, allowed))
            for e, d in piece.eqs:
                h, _ = hyperplane_id(e, d)
                reqs.append((h, frozenset({0})))
            rows_per_piece.append(reqs)
        piece_rows.append(rows_per_piece)

    n_h = len(hyperplanes)
    if base is None:
        # every row branches; the region LP keeps the offsets (finds points)
        base_signs = [0] * n_h
        offsets = [hp.offset for hp in hyperplanes]
        inactive = []
    else:
        # only rows active at the base branch; the region LP drops the
        # offsets (finds directions from the base)
        values = [dot(hp.normal, base) - hp.offset for hp in hyperplanes]
        base_signs = [_sign(v) for v in values]
        offsets = [0] * n_h
        # (value at the base, normal) for the rows inactive at the base
        inactive = [(v, hp.normal) for v, hp in zip(values, hyperplanes) if v]
    active = [h for h in range(n_h) if base_signs[h] == 0]
    _check_branching(len(active))

    cells: list[Cell] = []

    def known_sign(signs: dict[int, int], h: int) -> int | None:
        if h in signs:
            return signs[h]
        return base_signs[h] if base_signs[h] != 0 else None

    def pieces_possible(signs: dict[int, int]) -> bool:
        # prune when every piece of some set already has a violated row
        for rows_per_piece in piece_rows:
            ok = False
            for reqs in rows_per_piece:
                good = True
                for h, allowed in reqs:
                    sgn = known_sign(signs, h)
                    if sgn is not None and sgn not in allowed:
                        good = False
                        break
                if good:
                    ok = True
                    break
            if not ok:
                return False
        return True

    def region_point(signs: dict[int, int]) -> Vec | None:
        # a point p with sign(a.p - offset) = s on the assigned rows
        strict: list[IntRow] = []
        eqs: list[IntRow] = []
        for h, sgn in signs.items():
            normal, offset = hyperplanes[h].normal, offsets[h]
            if sgn == 0:
                eqs.append((normal, offset))
            elif sgn < 0:
                strict.append((normal, offset))
            else:
                strict.append((neg(normal), -offset))
        return lp.strict_feasible_point([], strict, eqs, dim)

    def witness_along(d: Vec) -> Vec:
        # base + t.d keeps every inactive row's sign for 0 < t < the least
        # ratio of a row that d approaches; take half of it (at most 1/2)
        t = _ONE
        for value, normal in inactive:
            slope = dot(normal, d)
            if slope and (slope > 0) != (value > 0):
                t = min(t, -value / slope)
        t /= 2
        return tuple(x + t * y for x, y in zip(base, d))

    def descend(pos: int, signs: dict[int, int], p: Vec) -> None:
        if pos == len(active):
            full = list(base_signs)
            for h, sgn in signs.items():
                full[h] = sgn
            memberships = []
            inside_all = True
            for rows_per_piece in piece_rows:
                inside = tuple(
                    i
                    for i, reqs in enumerate(rows_per_piece)
                    if all(full[h] in allowed for h, allowed in reqs)
                )
                memberships.append(inside)
                inside_all = inside_all and bool(inside)
            if inside_all:
                cells.append(
                    Cell(
                        CellSignature(tuple(full)),
                        p if base is None else witness_along(p),
                        base is not None,
                        tuple(memberships),
                    )
                )
            return
        h = active[pos]
        value = dot(hyperplanes[h].normal, p) - offsets[h]
        for sgn in (-1, 0, 1):
            signs[h] = sgn
            if pieces_possible(signs):
                # the parent's point serves every child whose sign it has
                child = p if _sign(value) == sgn else region_point(signs)
                if child is not None:
                    descend(pos + 1, signs, child)
            del signs[h]

    if pieces_possible({}):
        descend(0, {}, zero(dim))
    cells.sort(key=lambda c: c.signature.signs)
    return cells

