"""Local cell enumeration for arrangements of polyhedral constraint rows.

Near a base point, the combinatorics of a finite family of polyhedral sets is
captured by the sign cells of the arrangement of all their defining
hyperplanes.  Rows inactive at the base point keep their sign on every cell
whose closure contains the base, so only the active rows branch.  A sign
vector on the active rows is an adherent nonempty cell exactly when some
direction d from the base realizes it (the segment from the base to any
point of the cell stays in the cell), so each surviving sign vector is
certified by an exact slack-maximizing LP over the active rows alone, and
the cell witness is the base moved a short way along d.  This replaces every
"for x close enough to x̄" quantifier with a finite, exact enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .exactgeom import ConvexPoly, PolySet
from .linalg import Vec, dot, neg, primitive, zero

Row = tuple[Vec, Fraction]

ParticipatingSet = PolySet | ConvexPoly

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CellSignature:
    """Sign of (a.x - b) per arrangement hyperplane: -1 below, 0 on, 1 above."""

    signs: tuple[int, ...]


@dataclass(frozen=True)
class Cell:
    signature: CellSignature
    witness: Vec
    adherent: bool
    memberships: tuple[tuple[int, ...], ...]  # per input set: pieces containing the cell
    closure_rows: tuple[tuple[Row, ...], tuple[Row, ...]]  # weak (ineqs, eqs)

    @property
    def closure(self) -> ConvexPoly:
        """The closed cell; canonicalized on demand (it is rarely needed)."""
        ineqs, eqs = self.closure_rows
        return ConvexPoly.make(len(self.witness), ineqs, eqs)


@dataclass(frozen=True)
class _Hyperplane:
    normal: Vec
    offset: Fraction

    def value_sign(self, x: Vec) -> int:
        v = dot(self.normal, x) - self.offset
        return (v > 0) - (v < 0)


def _as_pieces(s: ParticipatingSet) -> tuple[ConvexPoly, ...]:
    if isinstance(s, PolySet):
        return s.pieces
    return (s,)


def _canonical_hyperplane(a: Vec, b: Fraction) -> tuple[Vec, Fraction, int]:
    """Oriented primitive (a, b) with the first nonzero of `a` positive."""
    joint = primitive(a + (b,))
    av, bv = joint[:-1], joint[-1]
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
    (they carry no sequence inside the intersection).
    """
    dim = len(base)
    if not any(s.contains(base) for s in sets):
        raise ValueError("base point outside all sets")

    # collect canonical hyperplanes and per-piece requirements
    hyperplanes: list[_Hyperplane] = []
    index: dict[tuple[Vec, Fraction], int] = {}

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
    base_signs = [h.value_sign(base) for h in hyperplanes]
    active = [i for i in range(n_h) if base_signs[i] == 0]
    # (value at the base, hyperplane) for the rows inactive at the base
    inactive = [
        (dot(hp.normal, base) - hp.offset, hp)
        for hp, sgn in zip(hyperplanes, base_signs)
        if sgn != 0
    ]

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

    def direction(signs: dict[int, int]) -> Vec | None:
        # a direction d with sign(a.d) = s on the assigned active rows
        strict: list[Row] = []
        eqs: list[Row] = []
        for h, sgn in signs.items():
            normal = hyperplanes[h].normal
            if sgn == 0:
                eqs.append((normal, _ZERO))
            elif sgn < 0:
                strict.append((normal, _ZERO))
            else:
                strict.append((neg(normal), _ZERO))
        return lp.strict_feasible_point([], strict, eqs, dim)

    def witness_along(d: Vec) -> Vec:
        # base + t.d keeps every inactive row's sign for 0 < t < the least
        # ratio of a row that d approaches; take half of it (at most 1/2)
        t = _ONE
        for value, hp in inactive:
            slope = dot(hp.normal, d)
            if slope and (slope > 0) != (value > 0):
                t = min(t, -value / slope)
        t /= 2
        return tuple(x + t * y for x, y in zip(base, d))

    def descend(pos: int, signs: dict[int, int], d: Vec) -> None:
        if pos == len(active):
            full = list(base_signs)
            for h, sgn in signs.items():
                full[h] = sgn
            sig = CellSignature(tuple(full))
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
                closure = _signature_closure(dim, hyperplanes, full)
                cells.append(
                    Cell(sig, witness_along(d), True, tuple(memberships), closure)
                )
            return
        h = active[pos]
        slope = dot(hyperplanes[h].normal, d)
        for sgn in (-1, 0, 1):
            signs[h] = sgn
            if pieces_possible(signs):
                # the parent's direction serves every child whose sign it has
                same = (slope > 0) - (slope < 0) == sgn
                child = d if same else direction(signs)
                if child is not None:
                    descend(pos + 1, signs, child)
            del signs[h]

    if pieces_possible({}):
        descend(0, {}, zero(dim))
    cells.sort(key=lambda c: c.signature.signs)
    return cells


def _signature_closure(
    dim: int, hyperplanes: list[_Hyperplane], signs: list[int]
) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
    ineqs: list[Row] = []
    eqs: list[Row] = []
    for hp, sgn in zip(hyperplanes, signs):
        if sgn == 0:
            eqs.append((hp.normal, hp.offset))
        elif sgn < 0:
            ineqs.append((hp.normal, hp.offset))
        else:
            ineqs.append((neg(hp.normal), -hp.offset))
    return tuple(ineqs), tuple(eqs)


def active_pieces(s: PolySet, x: Vec) -> tuple[int, ...]:
    """Indices of pieces containing x; empty exactly when x is outside."""
    return s.active_pieces(x)


def global_cells(sets: list[ParticipatingSet]) -> list[Cell]:
    """Every nonempty sign cell of the whole arrangement inside every set.

    No base point: all rows branch.  Used to pick one representative per
    combinatorial stratum when a rule quantifies over an entire set (for
    instance all intermediate points of a composition).
    """
    if not sets:
        return []
    dim = sets[0].dim
    hyperplanes: list[_Hyperplane] = []
    index: dict[tuple[Vec, Fraction], int] = {}

    def hyperplane_id(a: Vec, b: Fraction) -> tuple[int, int]:
        av, bv, flip = _canonical_hyperplane(a, b)
        key = (av, bv)
        if key not in index:
            index[key] = len(hyperplanes)
            hyperplanes.append(_Hyperplane(av, bv))
        return index[key], flip

    piece_rows: list[list[list[tuple[int, frozenset[int]]]]] = []
    for s in sets:
        rows_per_piece = []
        for piece in _as_pieces(s):
            reqs: list[tuple[int, frozenset[int]]] = []
            for a, b in piece.ineqs:
                h, flip = hyperplane_id(a, b)
                reqs.append((h, frozenset({-1, 0} if flip == 1 else {0, 1})))
            for e, d in piece.eqs:
                h, _ = hyperplane_id(e, d)
                reqs.append((h, frozenset({0})))
            rows_per_piece.append(reqs)
        piece_rows.append(rows_per_piece)

    n_h = len(hyperplanes)
    cells: list[Cell] = []

    def pieces_possible(signs: dict[int, int]) -> bool:
        for rows_per_piece in piece_rows:
            ok = False
            for reqs in rows_per_piece:
                if all(
                    h not in signs or signs[h] in allowed for h, allowed in reqs
                ):
                    ok = True
                    break
            if not ok:
                return False
        return True

    def region_witness(signs: dict[int, int]) -> Vec | None:
        strict: list[Row] = []
        eqs: list[Row] = []
        for h, sgn in signs.items():
            hp = hyperplanes[h]
            if sgn == 0:
                eqs.append((hp.normal, hp.offset))
            elif sgn < 0:
                strict.append((hp.normal, hp.offset))
            else:
                strict.append((neg(hp.normal), -hp.offset))
        return lp.strict_feasible_point([], strict, eqs, dim)

    def descend(pos: int, signs: dict[int, int]) -> None:
        if not pieces_possible(signs):
            return
        witness = region_witness(signs)
        if witness is None:
            return
        if pos == n_h:
            full = [signs[h] for h in range(n_h)]
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
                closure = _signature_closure(dim, hyperplanes, full)
                cells.append(
                    Cell(
                        CellSignature(tuple(full)),
                        witness,
                        False,
                        tuple(memberships),
                        closure,
                    )
                )
            return
        for sgn in (-1, 0, 1):
            signs[pos] = sgn
            descend(pos + 1, signs)
            del signs[pos]

    descend(0, {})
    cells.sort(key=lambda c: c.signature.signs)
    return cells
