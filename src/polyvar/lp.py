"""Exact linear programming over the rationals.

A dense primal simplex with Bland's rule, pivoting fraction-free on Python
ints: slow by floating-point standards, immune to cycling and to rounding.
It starts from the slack basis: an inequality a @ x <= b with b >= 0 starts
with its slack basic, and phase 1 (minimizing a sum of artificial
variables) covers only the equality rows and the inequalities with b < 0;
it is skipped when there are none.  Problem sizes in this package stay tiny
(dimension <= 8, a few dozen rows), so clarity wins over sparsity.

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

    Constraint rows are lists of ints with the right-hand side last.  Row i
    is a positive multiple of the rational tableau row, which is
    rows[i] / rows[i][basis[i]].  The reduced-cost row (its last entry is
    minus the objective) is likewise a positive multiple of the rational
    one; signs and zero tests are all the pivot rule needs from it.  Every
    updated row is divided by the gcd of its entries, so the integers stay
    as small as the rational numerators.  Pivot choices depend only on
    signs and on ratios within a row, which the scaling leaves unchanged,
    so the pivot path is that of a rational tableau under the same rule.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.n = len(rows[0]) - 1
        self.cost: list[int] = []

    def set_objective(self, c: list[int]) -> None:
        # reduced-cost row for the current basis: r = c - c_B . B^-1 A
        rows, basis = self.rows, self.basis
        terms = [
            (c[bj], rows[i], rows[i][bj]) for i, bj in enumerate(basis) if c[bj]
        ]
        den = lcm(*(d for _, _, d in terms)) if terms else 1
        cost = [x * den for x in c] + [0]
        for cb, row, d in terms:
            f = cb * (den // d)
            cost = [x - f * y if y else x for x, y in zip(cost, row)]
        self.cost = primitive_ints(cost)

    def pivot(self, i: int, j: int) -> None:
        prow = self.rows[i]
        p = prow[j]
        if p < 0:
            prow = [-x for x in prow]
            p = -p
            self.rows[i] = prow
        # a basic column is zero outside its own row, so every other row
        # keeps a positive entry p * d in its basic column
        for k, row in enumerate(self.rows):
            if k != i:
                f = row[j]
                if f:
                    self.rows[k] = primitive_ints(
                        [p * x - f * y if y else p * x for x, y in zip(row, prow)]
                    )
        f = self.cost[j]
        if f:
            self.cost = primitive_ints(
                [p * x - f * y if y else p * x for x, y in zip(self.cost, prow)]
            )
        self.basis[i] = j

    def run(self, allowed: list[bool]) -> str:
        """Maximize until optimal/unbounded, entering only `allowed` columns.

        Bland's rule: the first improving column enters; the row of least
        ratio leaves, ties going to the smallest basic column.
        """
        while True:
            cost = self.cost
            j = next((k for k in range(self.n) if allowed[k] and cost[k] > 0), None)
            if j is None:
                return OPTIMAL
            best = None
            for i, row in enumerate(self.rows):
                a = row[j]
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
    # columns: x+ (dim) | x- (dim) | slacks (#ineqs) | artificials | rhs
    # An inequality with b >= 0 starts with its own slack basic; only
    # equalities and inequalities with b < 0 get an artificial column.
    n_slack = len(ineqs)
    m = len(ineqs) + len(eqs)
    if dim == 0:
        ok = all(b >= 0 for _, b in ineqs) and all(b == 0 for _, b in eqs)
        if not ok:
            return INFEASIBLE, None, None
        return OPTIMAL, (), _ZERO
    if m == 0:
        # unconstrained: optimum is 0 at the origin unless the objective is nonzero
        if all(x == 0 for x in c):
            return OPTIMAL, tuple(_ZERO for _ in range(dim)), _ZERO
        return UNBOUNDED, None, None
    art_start = 2 * dim + n_slack
    all_rows = [(a, b, True) for a, b in ineqs] + [(a, b, False) for a, b in eqs]
    needs_art = [b < 0 or not is_ineq for _, b, is_ineq in all_rows]
    n_art = sum(needs_art)
    width = art_start + n_art
    rows: list[list[int]] = []
    basis: list[int] = []
    next_art = art_start
    for r, (a, b, is_ineq) in enumerate(all_rows):
        nums, den = integer_row(list(a) + [b])
        sgn = 1 if b >= 0 else -1
        if sgn < 0:
            nums = [-x for x in nums]
        row = [0] * (width + 1)
        row[:dim] = nums[:dim]
        row[dim : 2 * dim] = [-x for x in nums[:dim]]
        if is_ineq:
            row[2 * dim + r] = sgn * den
        if needs_art[r]:
            row[next_art] = den
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(2 * dim + r)  # its slack entry den is positive
        row[width] = nums[-1]
        rows.append(primitive_ints(row))
    tab = _Tableau(rows, basis)

    if n_art:
        # phase 1: drive the artificials to zero
        tab.set_objective([0] * art_start + [-1] * n_art)
        tab.run([True] * width)
        if tab.cost[-1] != 0:
            return INFEASIBLE, None, None
    # pivot basic artificials out; a row that cannot pivot is redundant
    for i in range(m):
        if tab.basis[i] >= art_start and tab.rows[i][-1] == 0:
            row = tab.rows[i]
            j = next((k for k in range(art_start) if row[k] != 0), None)
            if j is not None:
                tab.pivot(i, j)

    # phase 2
    obj, _ = integer_row(c)
    if not maximize:
        obj = [-x for x in obj]
    phase2 = obj + [-x for x in obj] + [0] * (width - 2 * dim)
    tab.set_objective(phase2)
    status = tab.run([True] * art_start + [False] * n_art)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [_ZERO] * dim
    for row, bj in zip(tab.rows, tab.basis):
        if bj < dim:
            x[bj] += Fraction(row[-1], row[bj])
        elif bj < 2 * dim:
            x[bj - dim] -= Fraction(row[-1], row[bj])
    point = tuple(x)
    return OPTIMAL, point, dot(c, point)


def feasible_point(ineqs: list[Row], eqs: list[Row], dim: int) -> Vec | None:
    status, x, _ = solve((0,) * dim, ineqs, eqs, dim)
    return x if status == OPTIMAL else None


def max_slack(
    ineqs: list[Row],
    strict: list[Row],
    eqs: list[Row],
    dim: int,
) -> tuple[Fraction, Vec] | None:
    """Largest common slack of the `strict` rows: (t, x), or None if infeasible.

    Solves max t <= 1 with a @ x + t <= b on the strict rows and the other
    rows as given.  The optimum t is positive exactly when some point
    satisfies the strict rows strictly, zero when the rows hold at some
    point but never all strictly, and negative when they cannot hold
    together; x maximizes the worst strict slack (capped at 1).
    """
    lift_ineqs: list[Row] = [(a + (0,), b) for a, b in ineqs]
    for a, b in strict:
        lift_ineqs.append((a + (1,), b))
    lift_ineqs.append(((0,) * dim + (1,), 1))
    lift_eqs: list[Row] = [(a + (0,), b) for a, b in eqs]
    t_obj = (0,) * dim + (1,)
    status, x, value = solve(t_obj, lift_ineqs, lift_eqs, dim + 1)
    if status != OPTIMAL:
        return None
    return value, x[:dim]


def strict_feasible_point(
    ineqs: list[Row],
    strict: list[Row],
    eqs: list[Row],
    dim: int,
) -> Vec | None:
    """A point satisfying `strict` rows strictly and the rest weakly.

    The point of `max_slack` when its slack is positive: it maximizes the
    worst strict slack (a deterministic relative-interior pick).
    """
    best = max_slack(ineqs, strict, eqs, dim)
    if best is None or best[0] <= 0:
        return None
    return best[1]
