"""Exact linear programming over the rationals.

A dense primal simplex with Bland's rule, pivoting fraction-free on Python
ints: slow by floating-point standards, immune to cycling and to rounding.
It starts from the slack basis: an inequality a @ x <= b with b >= 0 starts
with its slack basic, and phase 1 (minimizing a sum of artificial
variables) covers only the equality rows and the inequalities with b < 0;
it is skipped when there are none.  Free variables are split as
x = x+ - x-, with x- implicit (`_Tableau`).  Problem sizes in this package
stay tiny (dimension <= 8, a few dozen rows), so clarity wins over sparsity.

Inequalities are (a, b) pairs meaning a @ x <= b; equalities mean a @ x == b.
Entries are ints or Fractions; the kernels pose theirs as ints, which hash
and convert cheaply.  Points and optimal values are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .linalg import Vec, dot, frozen_rows, integer_row, primitive_ints

_Q = Fraction  # the exact scalar type; kept for tools that report the arithmetic

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

Row = tuple[Vec, Fraction]

_ZERO = Fraction(0)

# distinct problems remembered per process: cell enumeration and containment
# tests pose the same small LPs many times over
CACHE_SIZE = 128


class _Tableau:
    """Fraction-free simplex tableau in equality standard form.

    Columns are virtual: x+ (dim) | x- (dim) | slacks | artificials, the
    order of the basis and of both pivot rules.  Row operations are linear
    and the x- column starts as minus the x+ column, so it stays so in every
    row and in the reduced-cost row, and is not stored: a row is the ints
    x+ | slacks | artificials | right-hand side, and virtual column j >= dim
    sits at j - dim (negated while j < 2 * dim).  Row i is a positive
    multiple of the rational tableau row, which is rows[i] over its entry in
    column basis[i]; so is the reduced-cost row (its last entry is minus the
    objective), whose signs are all the pivot rule reads.  Every updated row
    is divided by the gcd of its entries (that of the full-width row too).
    Pivot choices depend only on signs and on ratios within a row, which the
    scaling leaves unchanged: the pivot path is that of a rational tableau.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], dim: int):
        self.rows = rows
        self.basis = basis
        self.dim = dim
        self.cost: list[int] = []

    def stored(self, j: int) -> tuple[int, int]:
        """(stored column, sign) of virtual column j."""
        dim = self.dim
        return (j, 1) if j < dim else (j - dim, -1 if j < 2 * dim else 1)

    def set_objective(self, c: list[int]) -> None:
        # reduced-cost row for the current basis: r = c - c_B . B^-1 A, with
        # c stored like a row
        terms = []
        for row, bj in zip(self.rows, self.basis):
            s, sign = self.stored(bj)
            if c[s]:
                terms.append((sign * c[s], row, sign * row[s]))
        den = lcm(*(d for _, _, d in terms)) if terms else 1
        cost = [x * den for x in c] + [0]
        for cb, row, d in terms:
            f = cb * (den // d)
            cost = [x - f * y if y else x for x, y in zip(cost, row)]
        self.cost = primitive_ints(cost)

    def pivot(self, i: int, j: int) -> None:
        s, sign = self.stored(j)
        prow = self.rows[i]
        p = sign * prow[s]
        if p < 0:
            prow = [-x for x in prow]
            p = -p
            self.rows[i] = prow
        # a basic column is zero outside its own row, so every other row
        # keeps a positive entry p * d in its basic column
        for k, row in enumerate(self.rows):
            if k != i:
                f = sign * row[s]
                if f:
                    self.rows[k] = primitive_ints(
                        [p * x - f * y if y else p * x for x, y in zip(row, prow)]
                    )
        f = sign * self.cost[s]
        if f:
            self.cost = primitive_ints(
                [p * x - f * y if y else p * x for x, y in zip(self.cost, prow)]
            )
        self.basis[i] = j

    def run(self, limit: int) -> str:
        """Maximize until optimal/unbounded, entering stored columns < limit.

        Bland's rule: the first improving virtual column enters; the row of
        least ratio leaves, ties going to the smallest basic column.
        """
        dim = self.dim
        while True:
            cost = self.cost
            # x+ improves where cost > 0, x- where cost < 0, then the rest
            j = next((k for k in range(dim) if cost[k] > 0), None)
            if j is None:
                j = next((k + dim for k in range(dim) if cost[k] < 0), None)
                if j is None:
                    j = next((k + dim for k in range(dim, limit) if cost[k] > 0), None)
                    if j is None:
                        return OPTIMAL
            s, sign = self.stored(j)
            best = None
            for i, row in enumerate(self.rows):
                a = sign * row[s]
                if a > 0:
                    if best is None:
                        best, num, den = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                        best, num, den = i, row[-1], a
            if best is None:
                return UNBOUNDED
            self.pivot(best, j)


def solve(
    c: Vec,
    ineqs: list[Row],
    eqs: list[Row],
    dim: int,
    maximize: bool = True,
) -> tuple[str, Vec | None, Fraction | None]:
    """Optimize c @ x subject to the rows; returns (status, point, value).

    Identical calls (same objective, same rows in the same order) are
    answered from a bounded per-process cache; the result is an immutable
    tuple, equal to what a fresh solve returns.
    """
    return _solve(tuple(c), frozen_rows(ineqs), frozen_rows(eqs), dim, maximize)


@lru_cache(maxsize=CACHE_SIZE)
def _solve(
    c: Vec,
    ineqs: tuple[Row, ...],
    eqs: tuple[Row, ...],
    dim: int,
    maximize: bool,
) -> tuple[str, Vec | None, Fraction | None]:
    # stored columns: x+ (dim) | slacks (#ineqs) | artificials | rhs, with
    # x- implicit (see _Tableau).  An inequality with b >= 0 starts with its
    # own slack basic; only equalities and b < 0 get an artificial column.
    n_slack = len(ineqs)
    m = len(ineqs) + len(eqs)
    art_start = dim + n_slack  # stored index of the first artificial
    # (numerators, denominator) of each row, both negated when b < 0: then
    # the slack entry is den and the artificial entry |den|
    int_rows = []
    for a, b in ineqs + eqs:
        nums, den = integer_row((*a, b))
        int_rows.append((nums, den) if nums[-1] >= 0 else ([-x for x in nums], -den))
    needs_art = [r >= n_slack or den < 0 for r, (_, den) in enumerate(int_rows)]
    n_art = sum(needs_art)
    width = art_start + n_art
    rows: list[list[int]] = []
    basis: list[int] = []
    next_art = art_start
    for r, (nums, den) in enumerate(int_rows):
        row = nums[:dim] + [0] * (width - dim) + nums[-1:]
        if r < n_slack:
            row[dim + r] = den
        if needs_art[r]:
            row[next_art] = abs(den)
            basis.append(next_art + dim)
            next_art += 1
        else:
            basis.append(2 * dim + r)  # its slack entry den is positive
        rows.append(primitive_ints(row))
    tab = _Tableau(rows, basis, dim)

    if n_art:
        # phase 1: drive the artificials to zero
        tab.set_objective([0] * art_start + [-1] * n_art)
        tab.run(width)
        if tab.cost[-1] != 0:
            return INFEASIBLE, None, None
    # pivot basic artificials out; a row that cannot pivot is redundant (x-
    # is nonzero only where x+ is, so the first nonzero column is stored)
    for i in range(m):
        if tab.basis[i] >= art_start + dim and tab.rows[i][-1] == 0:
            row = tab.rows[i]
            k = next((k for k in range(art_start) if row[k] != 0), None)
            if k is not None:
                tab.pivot(i, k if k < dim else k + dim)

    # phase 2
    obj, _ = integer_row(c)
    if not maximize:
        obj = [-x for x in obj]
    tab.set_objective(obj + [0] * (width - dim))
    status = tab.run(art_start)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [_ZERO] * dim
    for row, bj in zip(tab.rows, tab.basis):
        if bj < 2 * dim:
            # x+ and x- of one coordinate are never both basic; a basic x-
            # gives -rhs / (-row[k]), the same rational as a basic x+
            k = bj if bj < dim else bj - dim
            x[k] = Fraction(row[-1], row[k])
    point = tuple(x)
    return OPTIMAL, point, dot(c, point)


def feasible_point(ineqs: list[Row], eqs: list[Row], dim: int) -> Vec | None:
    status, x, _ = solve((0,) * dim, ineqs, eqs, dim)
    return x if status == OPTIMAL else None


def strict_feasible_point(
    ineqs: list[Row],
    strict: list[Row],
    eqs: list[Row],
    dim: int,
) -> Vec | None:
    """A point satisfying `strict` rows strictly and the rest weakly, or None.

    Solves max t <= 1 with a @ x + t <= b on the strict rows and the other
    rows as given.  Some point satisfies the strict rows strictly exactly
    when the optimum t is positive, and then x maximizes the worst strict
    slack (capped at 1): a deterministic relative-interior pick.
    """
    lift_ineqs: list[Row] = [(a + (0,), b) for a, b in ineqs]
    lift_ineqs += [(a + (1,), b) for a, b in strict]
    lift_ineqs.append(((0,) * dim + (1,), 1))
    lift_eqs: list[Row] = [(a + (0,), b) for a, b in eqs]
    status, x, value = solve((0,) * dim + (1,), lift_ineqs, lift_eqs, dim + 1)
    if status != OPTIMAL or value <= 0:
        return None
    return x[:dim]
