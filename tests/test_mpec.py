"""MPEC stationarity: the two worked instances plus soundness of rejections."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import rng_vec
from polyvar import cones, mpec, multimaps, plfunc, quals
from polyvar.exactgeom import ConvexPoly, PolySet
from polyvar.linalg import vec, zero
from polyvar.mpec import (
    CERTIFIED_NON_OPTIMAL,
    INCONCLUSIVE,
    NECESSARY_CONDITIONS_HOLD,
    MPECProblem,
    stationarity_check,
)
from polyvar.multimaps import PolyMultimap, coderivative_zero_cone
from polyvar.plfunc import KIND_HORIZON, KIND_LIMITING, PLFunc, subdiff_wrt
from polyvar.verdicts import FAILS, HOLDS, TriVerdict


def reference_q1(p: MPECProblem, x) -> TriVerdict:
    """q1 on its own: the horizon subdifferential of f relative to C1 meets
    -D*G(x, 0)(0) only at the origin."""
    horizon = subdiff_wrt(p.f, p.c1, x, KIND_HORIZON).value
    dzero = coderivative_zero_cone(p.G, p.c2, x, zero(p.G.out_dim))
    return TriVerdict.zero_cone(horizon.recession().intersect(dzero.negate()))


def reference_q2(p: MPECProblem, x) -> TriVerdict:
    """q2 on its own: normal-densedness of epi f, lifted to (x, y, z) with y
    free, and gph G x R at (x, 0, f(x)), relative to C1 and C2 lifted."""
    n, m = p.f.dim, p.G.out_dim
    total = n + m + 1
    omega1 = PolySet.lift(total, [(p.f.epi, tuple(range(n)) + (total - 1,))])
    omega2 = PolySet.lift(total, [(p.G.graph, tuple(range(n + m)))])
    lift1 = ConvexPoly.lift(total, [(p.c1, tuple(range(n)))])
    lift2 = ConvexPoly.lift(total, [(p.c2, tuple(range(n)))])
    base = x + zero(m) + (p.f.value(x),)
    return quals.normal_densed_check(omega1, omega2, lift1, lift2, base)


def final_example(c1_whole: bool) -> MPECProblem:
    g_graph = PolySet.from_poly(
        ConvexPoly.make(2, [(vec(-1, 0), Fraction(0)), (vec(0, -1), Fraction(0))])
    )
    G = PolyMultimap(1, 1, g_graph)
    f = PLFunc.affine(1, vec(1), 0)
    c = ConvexPoly.make(1, [(vec(-1), Fraction(0))])
    c1 = ConvexPoly.whole_space(1) if c1_whole else c
    return MPECProblem(f, G, c1, c)


def test_final_example_1():
    p = final_example(c1_whole=False)
    r = stationarity_check(p, vec(0))
    assert r.verdict == NECESSARY_CONDITIONS_HOLD
    assert r.q1.value == HOLDS and r.q2.value == HOLDS
    assert r.aubin_wrt_g.value == HOLDS
    assert r.condition_with_coderivative and r.condition_objective_only
    # the subdifferential is exactly [0, 1]
    sub = r.subdifferential
    assert sub.contains(vec(0)) and sub.contains(vec(1))
    assert sub.contains(vec(Fraction(1, 2))) and not sub.contains(vec(2))
    assert not sub.contains(vec(Fraction(-1, 64)))


def test_final_example_2():
    p = final_example(c1_whole=True)
    r = stationarity_check(p, vec(0))
    assert r.verdict == INCONCLUSIVE
    assert r.q2.value == FAILS
    assert r.aubin_wrt_g.value == HOLDS
    # diagnostic: the subdifferential is {1} and misses zero
    sub = r.subdifferential
    assert sub.contains(vec(1)) and not sub.contains(vec(0))
    assert not r.condition_objective_only


def test_q1_q2_direct():
    r = stationarity_check(final_example(c1_whole=False), vec(0))
    assert r.q1.value == HOLDS
    assert r.q2.value == HOLDS
    r2 = stationarity_check(final_example(c1_whole=True), vec(0))
    assert r2.q2.value == FAILS


def test_certified_non_optimal_shifted_objective():
    p0 = final_example(c1_whole=False)
    fneg = PLFunc.affine(1, vec(-1), 0)  # min -x: x = 0 is the worst point
    p = MPECProblem(fneg, p0.G, p0.c1, p0.c2)
    r = stationarity_check(p, vec(0))
    assert r.verdict == CERTIFIED_NON_OPTIMAL
    assert not r.condition_with_coderivative


def test_infeasible_candidates_rejected():
    p = final_example(c1_whole=False)
    with pytest.raises(ValueError, match="G"):
        stationarity_check(p, vec(-1))
    dom = ConvexPoly.make(1, [(vec(-1), Fraction(0)), (vec(1), Fraction(2))])
    frestricted = PLFunc.affine(1, vec(1), 0, domain=dom)
    p2 = MPECProblem(frestricted, p.G, p.c1, p.c2)
    with pytest.raises(ValueError, match="C1"):
        stationarity_check(
            MPECProblem(frestricted, p.G, dom.intersect(ConvexPoly.make(1, [], [(vec(1), Fraction(1))])), p.c2),
            vec(0),
        )


def test_stationarity_check_runs_one_feasibility_check(monkeypatch):
    """q1 and q2 inside a report reuse the report's own feasibility check."""
    calls = []
    real = mpec._check_feasible

    def counting(p, x):
        calls.append(x)
        return real(p, x)

    monkeypatch.setattr(mpec, "_check_feasible", counting)
    for c1_whole in (False, True):
        calls.clear()
        stationarity_check(final_example(c1_whole), vec(0))
        assert len(calls) == 1


def test_stationarity_check_evaluates_f_once(monkeypatch):
    """One f(x̄) per report; the report carries what the reference checks
    and `subdiff_wrt` give on their own."""
    p0 = final_example(c1_whole=False)
    fneg = PLFunc.affine(1, vec(-1), 0)
    problems = [
        final_example(c1_whole=False),
        final_example(c1_whole=True),
        MPECProblem(fneg, p0.G, p0.c1, p0.c2),
    ]
    verdicts = set()
    for p in problems:
        x = vec(0)
        expected = (
            reference_q1(p, x),
            reference_q2(p, x),
            subdiff_wrt(p.f, p.c1, x, KIND_LIMITING).value,
            p.f.value(x),
        )
        calls = []
        real = PLFunc.value

        def counting(self, point):
            calls.append(point)
            return real(self, point)

        monkeypatch.setattr(PLFunc, "value", counting)
        r = stationarity_check(p, x)
        monkeypatch.undo()
        assert calls == [x]
        got = (
            r.q1,
            r.q2,
            r.subdifferential,
            r.objective_value,
        )
        assert got == expected
        verdicts.add(r.verdict)
    assert verdicts == {NECESSARY_CONDITIONS_HOLD, INCONCLUSIVE, CERTIFIED_NON_OPTIMAL}


def test_stationarity_check_builds_the_epigraph_cone_once(monkeypatch):
    """One limiting normal cone of epi f per report: its horizon slice gives
    q1 and its limiting slice the subdifferential, as `reference_q1` and
    `subdiff_wrt` give them on their own."""
    p0 = final_example(c1_whole=False)
    fneg = PLFunc.affine(1, vec(-1), 0)
    problems = [
        final_example(c1_whole=False),
        final_example(c1_whole=True),
        MPECProblem(fneg, p0.G, p0.c1, p0.c2),
    ]
    real = cones.limiting_normal_wrt
    holders = [m for m in (plfunc, multimaps, quals, mpec)
               if getattr(m, "limiting_normal_wrt", None) is real]
    assert plfunc in holders
    for p in problems:
        x = vec(0)
        expected = (reference_q1(p, x), subdiff_wrt(p.f, p.c1, x, KIND_LIMITING).value)
        on_epi = []

        def counting(omega, wrt, point):
            on_epi.append(omega == p.f.epi)
            return real(omega, wrt, point)

        for module in holders:
            monkeypatch.setattr(module, "limiting_normal_wrt", counting)
        r = stationarity_check(p, x)
        monkeypatch.undo()
        assert on_epi.count(True) == 1
        assert (r.q1, r.subdifferential) == expected


def test_consistency_aubin_and_q2_imply_condition_agreement():
    rng = random.Random(401)
    done = 0
    while done < 15:
        slope = rng_vec(rng, 1, -2, 2)
        f = PLFunc.affine(1, slope, 0)
        p0 = final_example(c1_whole=False)
        p = MPECProblem(f, p0.G, p0.c2, p0.c2)
        r = stationarity_check(p, vec(0))
        if r.aubin_wrt_g.value == HOLDS and r.q2.value == HOLDS:
            assert r.condition_with_coderivative == r.condition_objective_only
        done += 1


def test_certified_non_optimal_soundness_grid():
    """Every CertifiedNonOptimal on small random instances is confirmed by a
    strictly better feasible point on a rational grid near the candidate."""
    rng = random.Random(409)
    confirmed = 0
    trials = 0
    p0 = final_example(c1_whole=False)
    while confirmed < 8 and trials < 60:
        trials += 1
        slope = Fraction(rng.randint(-3, 3))
        f = PLFunc.affine(1, (slope,), 0)
        p = MPECProblem(f, p0.G, p0.c1, p0.c2)
        r = stationarity_check(p, vec(0))
        if r.verdict != CERTIFIED_NON_OPTIMAL:
            continue
        step = Fraction(1, 32)
        best = Fraction(0)
        found_better = False
        for k in range(-8, 9):
            x = (k * step,)
            if not (
                p.G.contains(x, zero(1))
                and p.c1.contains(x)
                and p.c2.contains(x)
                and f.value(x) is not None
            ):
                continue
            if f.value(x) < best:
                found_better = True
        assert found_better, (slope,)
        confirmed += 1
    assert confirmed >= 1


def test_feasibility_of_shipped_examples():
    p = final_example(c1_whole=False)
    assert p.G.contains(vec(0), vec(0))
    assert p.c1.contains(vec(0)) and p.c2.contains(vec(0))
    assert p.f.value(vec(0)) == 0


def test_rederive_necessary_condition_via_lifted_sum_rule():
    """Re-derive the stationarity condition through the lifted epigraphical
    sum construction on the first worked instance.

    Lift f to (x, y) |-> f(x) and the feasible-set indicator to its
    epigraphical map; the coderivative sum rule at dual 1 then splits the
    Fermat inclusion into a subgradient of f and a coderivative of G."""
    from polyvar.multimaps import sum_rule

    # F1 = epigraphical map of (x, y) -> f(x) = x: graph {(x,y,z): z >= x}
    F1 = PolyMultimap(
        2, 1, PolySet.from_poly(ConvexPoly.make(3, [(vec(1, 0, -1), Fraction(0))]))
    )
    # F2 = epigraphical map of the indicator of gph G: graph R^2_+ x R_+
    F2 = PolyMultimap(
        2,
        1,
        PolySet.from_poly(
            ConvexPoly.make(
                3,
                [
                    (vec(-1, 0, 0), Fraction(0)),
                    (vec(0, -1, 0), Fraction(0)),
                    (vec(0, 0, -1), Fraction(0)),
                ],
            )
        ),
    )
    c_lift = ConvexPoly.make(2, [(vec(-1, 0), Fraction(0))])  # C x R
    base_x = vec(0, 0)
    r = sum_rule(
        F1,
        F2,
        c_lift,
        c_lift,
        base_x,
        vec(0),
        vec(0),
        vec(0),
        vec(1),
    )
    assert r.hypotheses_hold(), [(k, v.value) for k, v in r.qualifications]
    assert r.inclusion_holds
    # Fermat at the lifted minimizer: 0 is a dual-1 coderivative element
    assert r.lhs.contains(vec(0, 0))
    assert r.rhs.contains(vec(0, 0))
    # the F1 summand is exactly [0,1] x {0}: x*-components are subgradients
    d1 = r.rhs  # rhs = D1 + D2; check D1 directly
    from polyvar.multimaps import coderivative_wrt

    d1_only = coderivative_wrt(F1, c_lift, base_x, vec(0), vec(1)).result
    assert d1_only.contains(vec(0, 0)) and d1_only.contains(vec(1, 0))
    assert not d1_only.contains(vec(0, 1))
    d2_only = coderivative_wrt(F2, c_lift, base_x, vec(0), vec(1)).result
    assert d2_only.contains(vec(0, 0)) and d2_only.contains(vec(0, -1))
