"""Cell and stratum enumeration for arrangements of polyhedral constraint rows.

The combinatorics of a finite family of polyhedral sets is captured by the
sign cells of the arrangement of all their defining hyperplanes: a sign per
hyperplane (below, on, above), and a cell is nonempty when some point
realizes its sign vector.  One depth-first enumerator serves two modes.

- Near a base point (`local_cells`), rows inactive at the base keep their
  sign on every cell whose closure contains the base, so only the active
  rows branch.  A sign vector on the active rows is an adherent nonempty
  cell exactly when some direction d from the base realizes it (the segment
  from the base to any point of the cell stays in the cell), so each prefix
  is a region of the active normals with zero offsets, and the witness is
  the base moved a short way along d, built only when read.  Offsets 0
  make the prefix's equalities a linear subspace with an integer basis N
  (their null space): when N is empty or one vector, the strict rows'
  signs on it settle the region, and otherwise an exact slack-maximizing
  LP does, posed on N with no equality row, so it starts feasible from its
  slack basis with no phase 1.  This replaces every "for x close enough to
  x̄" quantifier with a finite, exact enumeration.  It returns strata, unions
  of sign cells, rather than the cells themselves (a stratification in the
  sense of Adam, Červinka & Pištěk 2016; Henrion & Outrata 2008 read the
  same cones off the faces of the pieces):
  - Lazy branching.  An active hyperplane h is left unbranched, its sign
    None, when every piece (of every set) with a row on h already has a
    violated row.  Its sign then changes no piece's membership, and no
    active row of a piece that holds the region, which is all a caller
    reads of a stratum: which pieces hold it and which of their rows are
    tight there.  Both are read off its signs (`Cell.signs`, by
    `Cell.tight_rows`), with no point: they are the same at every point of
    the stratum.  Leaving h out only drops a constraint, so the region stays
    relatively open and convex and the descent below works as is.
  - Fail-first order.  The active hyperplanes branch in the order of the
    fewest pieces of a set with a row on them, so the rows of a convex set
    (one piece, such as C) branch first and violate early; ties keep their
    index order.
- Over a whole set (`global_cells`), every row branches in index order and
  the same LP keeps the offsets, so it finds a point of the region, which
  is the witness: one representative per sign cell, for rules that
  quantify over all points of a fiber.

In both modes the descent starts at the origin and a child whose sign the
parent's point already has reuses that point, so no LP runs for it.  The
parent's region R is relatively open and convex and holds its point p, so
the far side's point for a hyperplane h (below h when p lies on h) settles
the other new child: a point of that child gives, through p, one on the far
side, and a far point q gives the child the point where the segment p -> q
crosses h, or, when p lies on h, a short step from p away from q.  When p
lies on h the far side needs no LP either: it meets R exactly when h is not
constant on the subspace of R's equalities, and p stepped along the
projection of h's normal onto that subspace is then its point
(`_region_point`).  So a branching node settles at most one region, the
region LP runs only where p lies off h or local equalities leave more than
a line, and every other answer can be checked by dot products.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import lp
from ._record import record
from .exactgeom import ConvexPoly, IntRow, IntVec, LimitError, PolySet
from .linalg import (
    Vec,
    check_dim,
    excess_at,
    integer_row,
    neg,
    nullspace_ints,
    sub,
    zero,
)

ParticipatingSet = PolySet | ConvexPoly

# most rows one enumeration may take: the rows active at the base for
# `local_cells`, every row for `global_cells`.  Each branches at most three
# ways, so 3^k bounds the leaves of the search tree (the test suite reaches
# k = 12); with strata many active rows never branch
ACTIVE_ROW_LIMIT = 12


class ActiveRowLimitError(LimitError):
    pass


@record
class _Search:
    """What the cells of one search read their witnesses and patterns from:
    the base and the rows inactive at it (None and () for `global_cells`),
    and per input set, per piece, its rows' (hyperplane, allowed signs), the
    inequality rows first, and the normals of its inequality rows."""

    base: Vec | None
    inactive: tuple[IntRow, ...]
    rows: tuple[tuple[tuple[tuple[int, frozenset[int | None]], ...], ...], ...]
    normals: tuple[tuple[tuple[IntVec, ...], ...], ...]


@record
class Cell:
    """A nonempty sign cell, or a stratum of them, inside every input set.

    `signs` holds the sign of (a.x - b) per arrangement hyperplane: -1 below,
    0 on, 1 above, and None on a hyperplane the stratum did not branch on.
    A None sign means the stratum is the union of the adherent sign cells
    with its other signs, and no piece with a row there holds it.  The signs
    fix what the engine reads of a cell, which pieces hold it and which of
    their rows are tight there (`tight_rows`), with no point.  The witness,
    a point of the cell (a point near the base, for `local_cells`), is built
    from `point`, for a local stratum a direction from the base, on each
    read.  The signs order the cells, so the list and everything computed
    from it are deterministic.
    """

    signs: tuple[int | None, ...]
    point: Vec
    search: _Search

    @property
    def witness(self) -> Vec:
        base = self.search.base
        if base is None:
            return self.point
        return _step(base, self.point, self.search.inactive)

    def tight_rows(self, s: int) -> tuple[tuple[IntVec, ...] | None, ...]:
        """Per piece of the s-th input set: None when the piece misses the
        cell, else the normals of its inequality rows tight on it, in row
        order.  A piece with an unbranched row misses the stratum, so every
        sign a holding piece reads is known."""
        signs = self.signs
        return tuple(
            None
            if any(signs[h] not in allowed for h, allowed in reqs)
            else tuple(a for (h, _), a in zip(reqs, normals) if signs[h] == 0)
            for reqs, normals in zip(self.search.rows[s], self.search.normals[s])
        )


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _as_pieces(s: ParticipatingSet) -> tuple[ConvexPoly, ...]:
    if isinstance(s, PolySet):
        return s.pieces
    return (s,)


def _canonical_hyperplane(a: IntVec, b: int) -> tuple[IntVec, int, int]:
    """A piece's row (a, b), primitive int, oriented with the first nonzero
    of `a` positive; the last entry is -1 when that negated it."""
    for x in a:
        if x:
            return (a, b, 1) if x > 0 else (neg(a), -b, -1)
    return a, b, 1


def _step(p: Vec, d: Vec, rows: list[IntRow]) -> Vec:
    """p + t.d keeping the sign of each int row (a, b) at p: t is half the
    least ratio at which d reaches one, at most 1/2.

    In ints, with p = np / dp and d = nd / dd: row a has value v / dp and
    slope s / dd, v = a.np - b.dp and s = a.nd, so its ratio -v.dd / (s.dp)
    is compared with t = tn / td by cross-multiplying, and each coordinate
    of the result is one Fraction over dp.dd.2td.
    """
    np_, dp = integer_row(p)
    nd, dd = integer_row(d)
    tn, td = 1, 1
    for a, b in rows:
        s = sum(map(mul, a, nd))
        if s:
            v = sum(map(mul, a, np_)) - b * dp
            if (s > 0) != (v > 0):
                num, den = -v * dd, s * dp
                if den < 0:
                    num, den = -num, -den
                if num * td < tn * den:
                    tn, td = num, den
    td *= 2
    return tuple(
        Fraction(x * td * dd + tn * y * dp, td * dp * dd) for x, y in zip(np_, nd)
    )


def _other_side(p: Vec, q: Vec, h: IntRow, strict: list[IntRow]) -> Vec:
    """The middle child's point from the far child's point q and p, both in
    the parent's region, whose strict rows are `strict`: where p -> q
    crosses h, or, if p lies on h, a step away from q keeping each strict
    row's sign (p - q has slope 0 on every equality).

    With p = np / dp, q = nq / dq and u, w the values of h at (np, dp) and
    (nq, dq), the crossing u.(nq, dq) - w.(np, dp) is a combination of the
    two on which h vanishes."""
    normal, offset = h
    np_, dp = integer_row(p)
    u = sum(map(mul, normal, np_)) - offset * dp
    if u:
        nq, dq = integer_row(q)
        w = sum(map(mul, normal, nq)) - offset * dq
        den = u * dq - w * dp
        return tuple(Fraction(u * y - w * x, den) for x, y in zip(np_, nq))
    return _step(p, sub(p, q), strict)


def _region_point(
    p: Vec, strict: list[IntRow], eqs: list[IntRow], local: bool
) -> Vec | None:
    """A point x with a.x < b on each `strict` row and e.x == d on each of
    `eqs`, or None when there is none; `local` when every offset is 0, so
    that x is a direction from the base.  The row assigned last is last in
    its list, and p, the parent's point, has the region's sign on every
    other row.

    Exact linear algebra settles two kinds of region with no LP:
    - p lies on the last strict row (a, b).  The parent's region is
      relatively open in the affine space S of `eqs` and holds p, so
      a.x < b meets it exactly when a is not constant on S, that is when
      N^T.a != 0 for the int basis N of S's directions (the null space of
      the equality normals, the identity with none).  Then p moved along
      -N.N^T.a, which lowers a.x and keeps every equality, by `_step`, which
      keeps every other strict row's sign, is a point; N^T.a = 0 certifies
      that there is none.
    - Local, with equalities leaving a line t.v (N has one column).  Each
      strict row a fixes the sign of t through a.v, so the region is
      nonempty exactly when all of them agree, and v or -v is a point.  An
      empty N leaves only the origin, which misses every strict row (a
      local region always has one: p != 0 came from a strict child, and
      at p = 0 every child asked is strict).
    Any other region runs the exact slack-maximizing LP, in local mode
    posed on y with x = N.y: no equality row, so its slack basis is
    feasible and no phase 1 runs.
    """
    dim = len(p)
    if strict and not excess_at(p)(*strict[-1]):
        a, _ = strict[-1]
        basis = nullspace_ints([e for e, _ in eqs], dim)
        coef = [sum(map(mul, a, v)) for v in basis]
        if not any(coef):
            return None
        down = tuple(-sum(map(mul, coef, column)) for column in zip(*basis))
        return _step(p, down, strict[:-1])
    if not local or not eqs:
        return lp.strict_feasible_point([], strict, eqs, dim)
    basis = nullspace_ints([e for e, _ in eqs], dim)
    if not basis:
        return None
    reduced = [tuple(sum(map(mul, a, v)) for v in basis) for a, _ in strict]
    if len(basis) == 1:
        # t.v meets a strict row a exactly when t.(a.v) < 0
        lead = {_sign(c) for (c,) in reduced}
        if 0 in lead or len(lead) > 1:
            return None
        t = -1 if 1 in lead else 1
        return tuple(Fraction(t * x) for x in basis[0])
    y = lp.strict_feasible_point([], [(r, 0) for r in reduced], [], len(basis))
    if y is None:
        return None
    ny, dy = integer_row(y)
    return tuple(Fraction(sum(map(mul, ny, column)), dy) for column in zip(*basis))


def local_cells(sets: list[ParticipatingSet], base: Vec) -> list[Cell]:
    """The strata of the nonempty sign cells adherent to `base` and inside
    every input set.

    A cell is adherent exactly when the base point satisfies the closure of
    its sign conditions, which for rows inactive at the base pins the sign to
    the base's own.  Active rows branch three ways, fail-first, with LP
    pruning of infeasible prefixes, and only where a piece holding the
    region could change (module docstring).  Discarded are cells outside
    some participating set (they carry no sequence inside the
    intersection).  Every stratum's pieces and their tight rows are those
    of each sign cell in it.

    Membership is read off the root signs, those of the rows inactive at
    the base: a piece holds the base exactly when none of them is violated.
    Raises ValueError when the base lies outside every set, and returns []
    when it lies outside one.  Only then is the limit checked: raises
    ActiveRowLimitError when more than ACTIVE_ROW_LIMIT rows are active.
    """
    for s in sets:
        check_dim("local_cells base", len(base), s.dim)
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

    # collect canonical hyperplanes, each a primitive int row (a, b) with the
    # first nonzero of a positive, and per-piece requirements
    hyperplanes: list[IntRow] = []
    index: dict[IntRow, int] = {}

    def hyperplane_id(a: IntVec, b: int) -> tuple[int, int]:
        av, bv, flip = _canonical_hyperplane(a, b)
        key = (av, bv)
        if key not in index:
            index[key] = len(hyperplanes)
            hyperplanes.append(key)
        return index[key], flip

    # requirement per row: (hyperplane id, allowed signs) for "row satisfied",
    # where None, a sign not branched (yet), is allowed; per set, per piece
    piece_rows: list[tuple] = []
    # per hyperplane: the requirements of each piece with a row on it, and
    # the fewest pieces of a set with a row on it
    holders: dict[int, list[tuple[tuple[int, frozenset[int | None]], ...]]] = {}
    fewest: dict[int, int] = {}
    for s in sets:
        rows_per_piece = []
        pieces = _as_pieces(s)
        for piece in pieces:
            reqs: list[tuple[int, frozenset[int | None]]] = []
            for a, b in piece.rows:
                h, flip = hyperplane_id(a, b)
                allowed = frozenset({-1, 0, None} if flip == 1 else {0, 1, None})
                reqs.append((h, allowed))
            for e, d in piece.eq_rows:
                h, _ = hyperplane_id(e, d)
                reqs.append((h, frozenset({0, None})))
            reqs = tuple(reqs)
            for h, _ in reqs:
                holders.setdefault(h, []).append(reqs)
                fewest[h] = min(fewest.get(h, len(pieces)), len(pieces))
            rows_per_piece.append(reqs)
        piece_rows.append(tuple(rows_per_piece))

    n_h = len(hyperplanes)
    # signs[h]: the sign of hyperplane h on the current prefix, None while h
    # is still to branch; a row inactive at the base keeps the base's sign
    if base is None:
        # every row branches; the region LP keeps the offsets (finds points)
        signs: list[int | None] = [None] * n_h
        offsets = [b for _, b in hyperplanes]
        inactive = ()
    else:
        # only rows active at the base branch; the region LP drops the
        # offsets (finds directions from the base)
        excess = excess_at(base)
        signs = [_sign(excess(*hp)) or None for hp in hyperplanes]
        offsets = [0] * n_h
        # the rows inactive at the base
        inactive = tuple(hp for hp, s in zip(hyperplanes, signs) if s is not None)
    active = [h for h in range(n_h) if signs[h] is None]
    if base is not None:
        # fail-first: the rows of the sets with the fewest pieces branch
        # first (a stable sort, so ties keep their index order)
        active.sort(key=fewest.__getitem__)
    # each hyperplane as the region LP reads it, (normal, offset), and negated
    rows = [(a, offset) for (a, _), offset in zip(hyperplanes, offsets)]
    flipped = [(neg(normal), -offset) for normal, offset in rows]

    def violated(reqs) -> bool:
        return any(signs[h] not in allowed for h, allowed in reqs)

    # the root prune, before the limit: at the root only the rows inactive at
    # the base have a sign, so a set is held when one of its pieces holds the
    # base; with no base, when it has a piece
    held = [not all(map(violated, per_piece)) for per_piece in piece_rows]
    if base is not None and not any(held):
        raise ValueError("base point outside all sets")
    if not all(held):
        return []
    if len(active) > ACTIVE_ROW_LIMIT:
        counted = "active at the base" if base is not None else "of a global search"
        raise ActiveRowLimitError(
            f"active-row limit exceeded: {len(active)} rows {counted}"
            f" (limit {ACTIVE_ROW_LIMIT})"
        )

    cells: list[Cell] = []
    normals = tuple(
        tuple(tuple(a for a, _ in p.rows) for p in _as_pieces(s)) for s in sets
    )
    search = _Search(base, inactive, tuple(piece_rows), normals)

    def pieces_possible() -> bool:
        # prune when every piece of some set already has a violated row
        for rows_per_piece in piece_rows:
            for reqs in rows_per_piece:
                for h, allowed in reqs:
                    if signs[h] not in allowed:
                        break
                else:
                    break  # no row of this piece is violated
            else:
                return False
        return True

    def descend(pos: int, p: Vec, strict: list[IntRow], eqs: list[IntRow]) -> None:
        # p has the sign of every assigned row: a.x < b on each `strict`
        # row (each hyperplane oriented by its sign), e.x == d on `eqs`
        if pos == len(active):
            # `pieces_possible`, which let this leaf be reached, left a piece
            # of every set unviolated; such a piece has no unbranched row,
            # so every sign it reads is known and the region lies in it
            cells.append(Cell(tuple(signs), p, search))
            return
        h = active[pos]
        if base is not None and all(map(violated, holders[h])):
            # no piece with a row on h can hold the region: h stays None
            descend(pos + 1, p, strict, eqs)
            return
        side = _sign(excess_at(p)(*rows[h]))
        # the child on p's side reuses p; the far side's point (module
        # docstring) settles the other new child: empty, or a point from q
        far = 1 if side < 0 else -1
        ran, q = False, None
        for sgn in (far, 0 if side else 1, side):
            signs[h] = sgn
            if pieces_possible():
                if sgn:
                    region = (strict + [rows[h] if sgn < 0 else flipped[h]], eqs)
                else:
                    region = (strict, eqs + [rows[h]])
                if sgn == side:
                    child = p
                elif ran:
                    child = None if q is None else _other_side(p, q, rows[h], strict)
                else:
                    child = q = _region_point(p, *region, base is not None)
                    ran = True
                if child is not None:
                    descend(pos + 1, child, *region)
        signs[h] = None

    descend(0, zero(dim), [], [])
    cells.sort(key=lambda c: [2 if s is None else s for s in c.signs])
    return cells
