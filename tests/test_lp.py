"""Exact simplex sanity: answers cross-checked against hand solutions."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from polyvar import lp
from polyvar.linalg import dot, frozen_rows, integer_row, primitive_ints, vec


def test_feasible_simple_box():
    # 0 <= x <= 1, 0 <= y <= 1
    ineqs = [
        (vec(-1, 0), Fraction(0)),
        (vec(1, 0), Fraction(1)),
        (vec(0, -1), Fraction(0)),
        (vec(0, 1), Fraction(1)),
    ]
    x = lp.feasible_point(ineqs, [], 2)
    assert x is not None
    assert all(0 <= c <= 1 for c in x)


def test_infeasible():
    ineqs = [(vec(1), Fraction(0)), (vec(-1), Fraction(-1))]  # x <= 0 and x >= 1
    assert lp.feasible_point(ineqs, [], 1) is None


def test_optimum_vertex():
    # max x + y on the triangle x,y >= 0, x + 2y <= 4, 3x + y <= 6
    ineqs = [
        (vec(-1, 0), Fraction(0)),
        (vec(0, -1), Fraction(0)),
        (vec(1, 2), Fraction(4)),
        (vec(3, 1), Fraction(6)),
    ]
    status, x, value = lp.solve(vec(1, 1), ineqs, [], 2)
    assert status == lp.OPTIMAL
    assert value == Fraction(14, 5)
    assert x == (Fraction(8, 5), Fraction(6, 5))


def test_unbounded():
    status, _, _ = lp.solve(vec(1), [(vec(-1), Fraction(0))], [], 1)
    assert status == lp.UNBOUNDED


def test_equality_constraints():
    # min x + y with x + y = 3, x <= 2, y <= 2
    ineqs = [(vec(1, 0), Fraction(2)), (vec(0, 1), Fraction(2))]
    eqs = [(vec(1, 1), Fraction(3))]
    status, x, value = lp.solve(vec(1, 1), ineqs, eqs, 2, maximize=False)
    assert status == lp.OPTIMAL
    assert value == Fraction(3)
    assert sum(x) == Fraction(3)


def test_degenerate_does_not_cycle():
    # Beale's cycling instance; Bland's rule must terminate at 1/20
    ineqs = [
        (vec(Fraction(1, 4), -60, Fraction(-1, 25), 9), Fraction(0)),
        (vec(Fraction(1, 2), -90, Fraction(-1, 50), 3), Fraction(0)),
        (vec(0, 0, 1, 0), Fraction(1)),
        (vec(-1, 0, 0, 0), Fraction(0)),
        (vec(0, -1, 0, 0), Fraction(0)),
        (vec(0, 0, -1, 0), Fraction(0)),
        (vec(0, 0, 0, -1), Fraction(0)),
    ]
    c = vec(Fraction(3, 4), -150, Fraction(1, 50), -6)
    status, _, value = lp.solve(c, ineqs, [], 4)
    assert status == lp.OPTIMAL
    assert value == Fraction(1, 20)


def test_strict_feasible_point():
    # open segment 0 < x < 1
    x = lp.strict_feasible_point(
        [], [(vec(-1), Fraction(0)), (vec(1), Fraction(1))], [], 1
    )
    assert x is not None
    assert 0 < x[0] < 1


def test_strict_feasible_rejects_empty_interior():
    # x <= 0 with x > 0 strictly
    x = lp.strict_feasible_point([(vec(1), Fraction(0))], [(vec(-1), Fraction(0))], [], 1)
    assert x is None


def test_strict_mixed_with_equalities():
    # on the plane x + y = 1 need x > 0, y > 0
    x = lp.strict_feasible_point(
        [],
        [(vec(-1, 0), Fraction(0)), (vec(0, -1), Fraction(0))],
        [(vec(1, 1), Fraction(1))],
        2,
    )
    assert x is not None
    assert x[0] > 0 and x[1] > 0 and x[0] + x[1] == 1


def test_free_variable_negative_solution():
    # min x subject to x >= -5 (x free otherwise)
    status, x, value = lp.solve(
        vec(1), [(vec(-1), Fraction(5))], [], 1, maximize=False
    )
    assert status == lp.OPTIMAL
    assert value == Fraction(-5)
    assert x == (Fraction(-5),)


BEALE = (
    vec(Fraction(3, 4), -150, Fraction(1, 50), -6),
    [
        (vec(Fraction(1, 4), -60, Fraction(-1, 25), 9), Fraction(0)),
        (vec(Fraction(1, 2), -90, Fraction(-1, 50), 3), Fraction(0)),
        (vec(0, 0, 1, 0), Fraction(1)),
        (vec(-1, 0, 0, 0), Fraction(0)),
        (vec(0, -1, 0, 0), Fraction(0)),
        (vec(0, 0, -1, 0), Fraction(0)),
        (vec(0, 0, 0, -1), Fraction(0)),
    ],
    [],
    4,
    True,
)


def _random_lps(seed: int, count: int):
    """Seeded LPs: feasible, infeasible, unbounded and degenerate ones."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    out = [BEALE]
    while len(out) < count:
        dim = rng.randint(1, 4)
        ineqs = [
            (tuple(q() for _ in range(dim)), q()) for _ in range(rng.randint(0, 7))
        ]
        eqs = [
            (tuple(q() for _ in range(dim)), q()) for _ in range(rng.randint(0, 2))
        ]
        if rng.random() < 0.3:  # every row through the origin: degenerate vertices
            ineqs = [(a, Fraction(0)) for a, _ in ineqs]
            eqs = [(a, Fraction(0)) for a, _ in eqs]
        if rng.random() < 0.5:  # bounded: a box around the origin
            for j in range(dim):
                e = tuple(Fraction(int(i == j)) for i in range(dim))
                ineqs += [(e, Fraction(3)), (tuple(-x for x in e), Fraction(3))]
        c = tuple(q() for _ in range(dim))
        out.append((c, ineqs, eqs, dim, rng.random() < 0.5))
    return out


def test_random_lps_exact_certificates():
    statuses = set()
    for c, ineqs, eqs, dim, maximize in _random_lps(7, 150):
        status, x, value = lp.solve(c, ineqs, eqs, dim, maximize=maximize)
        statuses.add(status)
        if status != lp.OPTIMAL:
            assert x is None and value is None
            continue
        assert len(x) == dim
        assert all(dot(a, x) <= b for a, b in ineqs)
        assert all(dot(a, x) == b for a, b in eqs)
        assert value == dot(c, x)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_random_lps_agree_with_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    expected = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}
    for c, ineqs, eqs, dim, maximize in _random_lps(11, 150):
        status, _, value = lp.solve(c, ineqs, eqs, dim, maximize=maximize)
        sign = -1 if maximize else 1
        res = optimize.linprog(
            [sign * float(x) for x in c],
            A_ub=[[float(x) for x in a] for a, _ in ineqs] or None,
            b_ub=[float(b) for _, b in ineqs] or None,
            A_eq=[[float(x) for x in a] for a, _ in eqs] or None,
            b_eq=[float(b) for _, b in eqs] or None,
            bounds=[(None, None)] * dim,
            method="highs",
        )
        assert status == expected[res.status], (c, ineqs, eqs, maximize)
        if status == lp.OPTIMAL:
            assert float(value) == pytest.approx(sign * res.fun, abs=1e-7)


# -- the full-width kernel, kept verbatim as an independent reference ---------

OPTIMAL, UNBOUNDED = lp.OPTIMAL, lp.UNBOUNDED


class RefTableau:
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


def ref_solve(c, ineqs, eqs, dim, maximize, all_artificial=False):
    """`lp._solve` on a full-width tableau that stores the x- columns.

    With `all_artificial` every row starts with an artificial basic (the
    start before the slack basis); otherwise only equalities and rows with
    b < 0 do, as in the kernel, which then takes the same pivot path.
    """
    n_slack = len(ineqs)
    m = len(ineqs) + len(eqs)
    if dim == 0:
        ok = all(b >= 0 for _, b in ineqs) and all(b == 0 for _, b in eqs)
        if not ok:
            return lp.INFEASIBLE, None, None
        return lp.OPTIMAL, (), Fraction(0)
    if m == 0:
        if all(x == 0 for x in c):
            return lp.OPTIMAL, tuple(Fraction(0) for _ in range(dim)), Fraction(0)
        return lp.UNBOUNDED, None, None
    art_start = 2 * dim + n_slack
    all_rows = [(a, b, True) for a, b in ineqs] + [(a, b, False) for a, b in eqs]
    needs_art = [all_artificial or b < 0 or not is_ineq for _, b, is_ineq in all_rows]
    n_art = sum(needs_art)
    width = art_start + n_art
    rows = []
    basis = []
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
            basis.append(2 * dim + r)
        row[width] = nums[-1]
        rows.append(primitive_ints(row))
    tab = RefTableau(rows, basis)

    if n_art:
        tab.set_objective([0] * art_start + [-1] * n_art)
        tab.run([True] * width)
        if tab.cost[-1] != 0:
            return lp.INFEASIBLE, None, None
    for i in range(m):
        if tab.basis[i] >= art_start and tab.rows[i][-1] == 0:
            row = tab.rows[i]
            j = next((k for k in range(art_start) if row[k] != 0), None)
            if j is not None:
                tab.pivot(i, j)

    obj, _ = integer_row(c)
    if not maximize:
        obj = [-x for x in obj]
    phase2 = obj + [-x for x in obj] + [0] * (width - 2 * dim)
    tab.set_objective(phase2)
    status = tab.run([True] * art_start + [False] * n_art)
    if status == lp.UNBOUNDED:
        return lp.UNBOUNDED, None, None
    x = [Fraction(0)] * dim
    for row, bj in zip(tab.rows, tab.basis):
        if bj < dim:
            x[bj] += Fraction(row[-1], row[bj])
        elif bj < 2 * dim:
            x[bj - dim] -= Fraction(row[-1], row[bj])
    point = tuple(x)
    return lp.OPTIMAL, point, dot(c, point)


def _start_basis_lps(seed: int, count: int):
    """Seeded LPs in dims 1-6 mixing every kind of row the start basis sorts.

    Inequalities with b of both signs, equalities with zero and nonzero
    right-hand sides, homogeneous systems, systems with no row needing an
    artificial, duplicate and rescaled rows, contradictory pairs, zero
    objectives, with and without a bounding box; Beale's instance first.
    """
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7)))

    out = [BEALE]
    while len(out) < count:
        dim = rng.randint(1, 6)
        ineqs = [
            (tuple(q() for _ in range(dim)), q()) for _ in range(rng.randint(0, 8))
        ]
        eqs = [
            (tuple(q() for _ in range(dim)), q() if rng.random() < 0.5 else Fraction(0))
            for _ in range(rng.choice((0, 0, 1, 2)))
        ]
        shape = rng.random()
        if shape < 0.2:  # homogeneous: every row through the origin
            ineqs = [(a, Fraction(0)) for a, _ in ineqs]
            eqs = [(a, Fraction(0)) for a, _ in eqs]
        elif shape < 0.4:  # the slack basis is feasible: no artificial at all
            ineqs = [(a, abs(b)) for a, b in ineqs]
            eqs = []
        elif shape < 0.5 and ineqs:  # a . x <= b together with a . x >= b + 1
            a, b = ineqs[0]
            ineqs.append((tuple(-x for x in a), -b - 1))
        if ineqs and rng.random() < 0.3:  # a duplicate and a rescaled copy
            a, b = rng.choice(ineqs)
            f = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            ineqs += [(a, b), (tuple(f * x for x in a), f * b)]
        if eqs and rng.random() < 0.3:
            e, d = rng.choice(eqs)
            eqs.append((tuple(-2 * x for x in e), -2 * d))
        rng.shuffle(ineqs)
        if rng.random() < 0.5:  # bounded: a box around the origin
            for j in range(dim):
                e = tuple(Fraction(int(i == j)) for i in range(dim))
                ineqs += [(e, Fraction(4)), (tuple(-x for x in e), Fraction(4))]
        if rng.random() < 0.2:  # a feasibility LP
            c = tuple(Fraction(0) for _ in range(dim))
        else:
            c = tuple(q() for _ in range(dim))
        out.append((c, ineqs, eqs, dim, rng.random() < 0.5))
    return out


def test_slack_start_matches_all_artificial_reference():
    seen = set()
    dims = set()
    for c, ineqs, eqs, dim, maximize in _start_basis_lps(17, 500):
        status, x, value = lp.solve(c, ineqs, eqs, dim, maximize=maximize)
        args = (c, frozen_rows(ineqs), frozen_rows(eqs), dim, maximize)
        assert (status, x, value) == ref_solve(*args), args
        ref = ref_solve(*args, all_artificial=True)
        assert (status, value) == (ref[0], ref[2]), args
        needs_artificial = bool(eqs) or any(b < 0 for _, b in ineqs)
        seen.add((status, needs_artificial))
        dims.add(dim)
        if status != lp.OPTIMAL:
            assert x is None and value is None
            continue
        assert len(x) == dim
        assert all(dot(a, x) <= b for a, b in ineqs)
        assert all(dot(a, x) == b for a, b in eqs)
        assert dot(c, x) == value
    # an LP whose slack basis is feasible is never infeasible
    assert seen == {
        (lp.OPTIMAL, False),
        (lp.UNBOUNDED, False),
        (lp.OPTIMAL, True),
        (lp.UNBOUNDED, True),
        (lp.INFEASIBLE, True),
    }
    assert dims == set(range(1, 7))


def _strict_point_lps(seed: int, count: int):
    """Seeded LPs shaped as `lp.strict_feasible_point` poses them, in dim + 1.

    Weak rows, strict rows lifted with a slack column, equalities, the cap
    t <= 1 and the objective t, over offsets that are zero (the directions
    of local cells) or not (the points of global cells and containment).
    """
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 5)))

    out = []
    while len(out) < count:
        dim = rng.randint(1, 5)
        homogeneous = rng.random() < 0.5

        def rows(n):
            return [
                (tuple(q() for _ in range(dim)), Fraction(0) if homogeneous else q())
                for _ in range(n)
            ]

        weak = rows(rng.choice((0, 0, 1, 3)))
        strict = rows(rng.randint(1, 6))
        eqs = rows(rng.choice((0, 0, 1, 2)))
        if strict and rng.random() < 0.3:  # a row and its negation: no interior
            a, b = strict[0]
            strict.append((tuple(-x for x in a), -b))
        ineqs = [(a + (0,), b) for a, b in weak]
        ineqs += [(a + (1,), b) for a, b in strict]
        ineqs.append(((0,) * dim + (1,), 1))
        lifted = [(a + (0,), b) for a, b in eqs]
        out.append(((0,) * dim + (1,), ineqs, lifted, dim + 1))
    return out


def test_strict_point_lps_match_full_width_reference():
    statuses = set()
    for c, ineqs, eqs, dim in _strict_point_lps(23, 400):
        got = lp.solve(c, ineqs, eqs, dim)
        assert got == ref_solve(c, frozen_rows(ineqs), frozen_rows(eqs), dim, True)
        statuses.add((got[0], got[2] is not None and got[2] > 0))
    # strictly feasible, feasible without interior, and infeasible LPs all occur
    assert {(lp.OPTIMAL, True), (lp.OPTIMAL, False), (lp.INFEASIBLE, False)} <= statuses


def test_no_variables_or_no_rows_match_reference():
    # dim 0: rows read 0 <= b and 0 == b; no rows: optimum 0 or unbounded
    cases = [
        ((), [], [], 0, lp.OPTIMAL),
        ((), [((), 1), ((), 0)], [((), 0)], 0, lp.OPTIMAL),
        ((), [((), Fraction(-1, 2))], [], 0, lp.INFEASIBLE),
        ((), [], [((), 2)], 0, lp.INFEASIBLE),
        ((0, 0), [], [], 2, lp.OPTIMAL),
        ((1, 0), [], [], 2, lp.UNBOUNDED),
        ((0, Fraction(-2, 3)), [], [], 2, lp.UNBOUNDED),
    ]
    for c, ineqs, eqs, dim, status in cases:
        for maximize in (True, False):
            got = lp.solve(c, ineqs, eqs, dim, maximize)
            assert got[0] == status
            assert got == ref_solve(c, frozen_rows(ineqs), frozen_rows(eqs), dim, maximize)
