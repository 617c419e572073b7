"""The per-process caches of `lp.solve`, `_canon_h` and `_dd` are invisible.

Callers hand in mutable lists; a later call with the same rows must get
what a fresh computation returns, whatever happened to the earlier lists.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import criterion6_draws, perfbench_module
from polyvar import exactgeom, lp
from polyvar.calculus import mixed_product_rule, product_rule
from polyvar.exactgeom import ConeH, ConvexPoly, RayLimitError
from polyvar.linalg import vec


def _triangle():
    return [
        (vec(-1, 0), Fraction(0)),
        (vec(0, -1), Fraction(0)),
        (vec(1, 1), Fraction(2)),
    ]


def test_lp_solve_ignores_later_mutation_of_its_arguments():
    c = vec(1, 2)
    ineqs, eqs = _triangle(), []
    first = lp.solve(c, ineqs, eqs, 2)
    assert first == (lp.OPTIMAL, (Fraction(0), Fraction(2)), Fraction(4))
    ineqs[2] = (vec(1, 1), Fraction(-1))  # now infeasible
    ineqs.append((vec(1, 0), Fraction(5)))
    eqs.append((vec(1, -1), Fraction(0)))
    hits = lp._solve.cache_info().hits
    assert lp.solve(c, _triangle(), [], 2) == first
    assert lp._solve.cache_info().hits == hits + 1
    assert lp.solve(c, ineqs, eqs, 2) == (lp.INFEASIBLE, None, None)


def test_lp_cache_hit_equals_fresh_solve():
    c = vec(1, -1)
    rows = _triangle() + [(vec(1, -3), Fraction(1))]
    cached = lp.solve(c, rows, [], 2, maximize=False)
    assert lp.solve(c, rows, [], 2, maximize=False) == cached
    lp._solve.cache_clear()
    assert lp.solve(c, rows, [], 2, maximize=False) == cached
    # the order of the rows is part of the key; the answer does not change
    assert lp.solve(c, rows[::-1], [], 2, maximize=False)[2] == cached[2]


def test_make_ignores_later_mutation_of_its_arguments():
    ineqs = _triangle() + [(vec(2, 2), Fraction(4))]  # a duplicate row
    eqs: list = []
    first = ConvexPoly.make(2, ineqs, eqs)
    assert len(first.ineqs) == 3
    ineqs[0] = (vec(1, 0), Fraction(-1))  # x <= -1 ...
    eqs.append((vec(1, 0), Fraction(0)))  # ... and x == 0: now empty
    again = ConvexPoly.make(2, _triangle() + [(vec(2, 2), Fraction(4))], [])
    assert again == first
    assert ConvexPoly.make(2, ineqs, eqs).is_empty()


def test_canon_cache_hit_equals_fresh_canonicalization():
    rows = _triangle() + [(vec(1, 0), Fraction(7))]  # the last row is redundant
    eqs = [(vec(1, -1), Fraction(0))]
    cached = exactgeom._canon_h(2, rows, eqs)
    hits = exactgeom._canon_h_rows.cache_info().hits
    assert exactgeom._canon_h(2, list(rows), list(eqs)) == cached
    assert exactgeom._canon_h_rows.cache_info().hits == hits + 1
    exactgeom._canon_h_rows.cache_clear()
    lp._solve.cache_clear()
    assert exactgeom._canon_h(2, rows, eqs) == cached


def _random_system(rng: random.Random):
    """A homogeneous system (dim, rows, equalities) with int and Fraction
    entries, as the double description's callers hand them in."""
    dim = rng.randint(1, 5)

    def row():
        return tuple(
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim)
        )

    rows = [r for r in (row() for _ in range(rng.randint(0, 6))) if any(r)]
    eqs = [r for r in (row() for _ in range(rng.randint(0, 2))) if any(r)]
    return dim, rows, eqs


def _uncached_dd(dim, rows, eqs):
    rays, lin = exactgeom._dd_rows.__wrapped__(
        dim, tuple(map(tuple, rows)), tuple(map(tuple, eqs)), exactgeom.RAY_LIMIT
    )
    return list(rays), list(lin)


def test_dd_memo_hit_equals_fresh_uncached_dd():
    rng = random.Random(3601)
    exactgeom._dd_rows.cache_clear()
    systems = [_random_system(rng) for _ in range(60)]
    first = [exactgeom._dd(*s) for s in systems]
    hits = exactgeom._dd_rows.cache_info().hits
    for (dim, rows, eqs), got in zip(systems, first):
        again = exactgeom._dd(dim, list(rows), list(eqs))
        assert again == got == _uncached_dd(dim, rows, eqs), (dim, rows, eqs)
    assert exactgeom._dd_rows.cache_info().hits == hits + len(systems)


def _square_cone():
    """Rows and equalities of the cone over the square |x|, |y| <= t in the
    plane z == 0, as fresh lists."""
    rows = [[-1, 0, -1, 0], [1, 0, -1, 0], [0, -1, -1, 0], [0, 1, -1, 0]]
    return rows, [[0, 0, 0, 1]]


def test_dd_ignores_mutation_of_its_arguments_and_of_its_answer():
    rows, eqs = _square_cone()
    fresh = _uncached_dd(4, rows, eqs)
    rays, lin = exactgeom._dd(4, rows, eqs)
    assert (rays, lin) == fresh and len(rays) == 4
    rays.clear()
    lin.append((1, 1, 1, 1))
    rows[0][2] = 5  # x >= 5t: the cone shrinks to the z-axis ...
    eqs.pop()  # ... which the dropped equality no longer removes
    assert exactgeom._dd(4, *_square_cone()) == fresh
    assert exactgeom._dd(4, rows, eqs) == _uncached_dd(4, rows, eqs) != fresh


def test_lowered_ray_limit_raises_through_both_memos(monkeypatch):
    # the cone over a cube, |x_i| <= t, has eight extreme rays
    rows = [tuple(s * (i == j) - (j == 3) for j in range(4)) for i in range(3) for s in (-1, 1)]
    cube = [(a[:3], 1) for a in rows]
    rays, _ = exactgeom._dd(4, rows, [])
    canon = exactgeom._canon_h(3, cube, [])
    assert len(rays) == 8
    misses = exactgeom._dd_rows.cache_info().misses
    monkeypatch.setattr(exactgeom, "RAY_LIMIT", 7)
    for _ in range(2):  # a refusal is never kept
        with pytest.raises(RayLimitError, match="8 rays"):
            exactgeom._dd(4, rows, [])
        with pytest.raises(RayLimitError, match="8 rays"):
            exactgeom._canon_h(3, cube, [])
    assert exactgeom._dd_rows.cache_info().misses == misses + 4
    monkeypatch.undo()
    assert exactgeom._dd(4, rows, [])[0] == rays
    assert exactgeom._canon_h(3, cube, []) == canon


def test_dd_memo_is_bounded_by_the_shared_size():
    size = exactgeom.CANON_CACHE_SIZE
    assert exactgeom._dd_rows.cache_info().maxsize == size
    assert exactgeom._canon_h_rows.cache_info().maxsize == size
    exactgeom._dd_rows.cache_clear()
    for k in range(size + 10):
        exactgeom._dd(2, [(1, -k), (-1, -k - 1)], [])
    assert exactgeom._dd_rows.cache_info().currsize == size


def _clear_engine_caches():
    for cache in (lp._solve, exactgeom._canon_h_rows, exactgeom._dd_rows, ConeH.zero):
        cache.cache_clear()


# computations, not memo hits, of the double description in one rule call
# started with every engine cache empty; re-recorded only on purpose
DD_COMPUTED = {"sum-13": 16, "chain-02": 38}


def test_rule_draws_compute_each_double_description_once(monkeypatch):
    """A criterion-6 sum draw and chain draw repeat over a quarter of their
    double descriptions; the memo computes each distinct input once, and
    the pinned counts show a new repeat without timing anything."""
    calls = []
    dd = exactgeom._dd

    def recorded(dim, rows, eqs):
        calls.append((dim, tuple(map(tuple, rows)), tuple(map(tuple, eqs))))
        return dd(dim, rows, eqs)

    computed = {}
    for name, rule, args in criterion6_draws():
        if name not in DD_COMPUTED:
            continue
        _clear_engine_caches()
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(exactgeom, "_dd", recorded)
            rule(*args)
        computed[name] = exactgeom._dd_rows.cache_info().misses
        assert computed[name] == len(set(calls)) < len(calls), name
    assert computed == DD_COMPUTED


# computations, not memo hits, of canonicalization in one criterion-6 rule
# call started with every engine cache empty; re-recorded only on purpose
RULE_CANON_COMPUTED = {"intersection-00": 12, "chain-00": 17}


def test_rule_draws_pin_their_canonicalizations():
    """Criterion 6's first intersection and chain draws, counted without
    timing anything: a polar, a generated cone or a cone sum that
    canonicalizes anew in place of a transposition shows as a changed
    count."""
    computed = {}
    for name, rule, args in criterion6_draws():
        if name in RULE_CANON_COMPUTED:
            _clear_engine_caches()
            rule(*args)
            computed[name] = exactgeom._canon_h_rows.cache_info().misses
    assert computed == RULE_CANON_COMPUTED


# computations, not memo hits, of canonicalization in one product-rule call
# started with every engine cache empty; re-recorded only on purpose
CANON_COMPUTED = {"product": 20, "mixed": 10}


def _criterion5_product_draws():
    """(variant, rule, args) of criterion 5's first product draw and first
    mixed draw, as the benchmark's struct workload builds them."""
    workloads = perfbench_module("workloads")
    poly, polyset = workloads._poly, workloads._polyset
    for variant in CANON_COMPUTED:
        a = next(a for v, a, _ in workloads._criterion5() if v == variant)
        omega, wrt = polyset(a["dim"], a["omega"]), poly(a["dim"], a["wrt"])
        if variant == "product":
            d2 = a["d2"]
            o2, c2 = polyset(d2, a["o2"]), poly(d2, a["c2"])
            yield variant, product_rule, (omega, wrt, o2, c2, a["base"], a["x2"])
        else:
            m, xz, y = a["m"], a["xz"], a["y"]
            o1, c1 = polyset(2, a["o1"]), poly(2, a["c1"])
            o2, c2 = polyset(m, a["o2"]), poly(m, a["c2"])
            yield variant, mixed_product_rule, (o1, c1, o2, c2, 1, m, 1, xz[:1] + y + xz[1:])


def test_product_draws_pin_their_canonicalizations():
    """The product and mixed product rules' canonicalizations, counted
    without timing anything: a lift or cone that canonicalizes anew shows
    as a changed count."""
    computed = {}
    for variant, rule, args in _criterion5_product_draws():
        _clear_engine_caches()
        assert rule(*args).equality_holds, variant
        computed[variant] = exactgeom._canon_h_rows.cache_info().misses
    assert computed == CANON_COMPUTED
