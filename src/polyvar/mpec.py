"""Necessary-optimality certification for min f(x) s.t. 0 in G(x), x in C1 cap C2.

The stationarity test is necessary-only, so the verdict is three-state:
a candidate is CertifiedNonOptimal only when every hypothesis of the
applicable condition holds exactly and the condition itself fails; candidates
passing the condition get NecessaryConditionsHold (never "optimal"); any
Fails/Unknown hypothesis downgrades the report to Inconclusive with full
diagnostics.
"""

from __future__ import annotations

from ._record import record
from .exactgeom import ConeUnion, ConvexPoly, PolyUnion
from .linalg import Vec, zero
from .multimaps import PolyMultimap, aubin_wrt_check, coderivative_zero_cone
from .plfunc import PLFunc, subdiff_wrt
from .quals import normal_densed_check
from .verdicts import KIND_HORIZON, KIND_LIMITING, TriVerdict

CERTIFIED_NON_OPTIMAL = "CertifiedNonOptimal"
NECESSARY_CONDITIONS_HOLD = "NecessaryConditionsHold"
INCONCLUSIVE = "Inconclusive"


@record
class MPECProblem:
    n: int
    m: int
    f: PLFunc
    G: PolyMultimap
    c1: ConvexPoly
    c2: ConvexPoly


@record
class StationarityReport:
    candidate: Vec
    q1: TriVerdict
    q2: TriVerdict
    aubin_wrt_g: TriVerdict
    condition_with_coderivative: bool
    condition_objective_only: bool
    verdict: str
    diagnostics: dict


def _check_feasible(p: MPECProblem, x: Vec) -> None:
    if not p.G.contains(x, zero(p.m)):
        raise ValueError("infeasible candidate: 0 not in G(x)")
    if not p.c1.contains(x):
        raise ValueError("infeasible candidate: x outside C1")
    if not p.c2.contains(x):
        raise ValueError("infeasible candidate: x outside C2")
    if p.f.value(x) is None:
        raise ValueError("infeasible candidate: x outside dom f")


def check_q1(p: MPECProblem, x: Vec) -> TriVerdict:
    """Horizon subdifferential against the coderivative zero-slice of G."""
    _check_feasible(p, x)
    horizon = subdiff_wrt(p.f, p.c1, x, KIND_HORIZON).value
    cones = ConeUnion.make(horizon.dim, [q.recession() for q in horizon.parts])
    dzero = coderivative_zero_cone(p.G, p.c2, x, zero(p.m))
    overlap = cones.intersect(dzero.negate())
    if overlap.is_zero_cone():
        return TriVerdict.holds()
    return TriVerdict.fails({"vector": overlap.nonzero_vector()})


def check_q2(p: MPECProblem, x: Vec) -> TriVerdict:
    """Normal-densedness of the lifted epigraph/graph pair at (x, 0, f(x))."""
    _check_feasible(p, x)
    n, m = p.n, p.m
    total = n + m + 1
    fx = p.f.value(x)
    assert fx is not None
    # (x, y, z) with (x, z) in epi f, y free; and gph G x R
    omega1 = p.f.epi.embed(total, tuple(range(n)) + (n + m,))
    omega2 = p.G.graph.embed(total, tuple(range(n + m)))
    lift1 = p.c1.product(ConvexPoly.whole_space(m + 1))
    lift2 = p.c2.product(ConvexPoly.whole_space(m + 1))
    base = x + zero(m) + (fx,)
    return normal_densed_check(omega1, omega2, lift1, lift2, base)


def stationarity_check(p: MPECProblem, x: Vec) -> StationarityReport:
    """Evaluate the necessary conditions and aggregate the verdict."""
    _check_feasible(p, x)
    q1 = check_q1(p, x)
    q2 = check_q2(p, x)
    aubin = aubin_wrt_check(p.G, p.c2, x, zero(p.m))

    subdiff = subdiff_wrt(p.f, p.c1, x, KIND_LIMITING).value
    dzero = coderivative_zero_cone(p.G, p.c2, x, zero(p.m))

    # 0 in subdiff + dzero  <=>  subdiff meets -dzero
    reflected = PolyUnion(p.n, [c.to_poly() for c in dzero.negate().parts])
    condition_sum = not subdiff.intersect(reflected).is_empty()
    condition_obj = subdiff.contains(zero(p.n))

    if q1.is_holds() and q2.is_holds():
        verdict = (
            NECESSARY_CONDITIONS_HOLD if condition_sum else CERTIFIED_NON_OPTIMAL
        )
    else:
        verdict = INCONCLUSIVE

    diagnostics = {
        "subdifferential": subdiff,
        "coderivative_zero_slice": dzero,
        "objective_value": p.f.value(x),
        "objective_only_applicable": aubin.is_holds() and q2.is_holds(),
    }
    return StationarityReport(
        x, q1, q2, aubin, condition_sum, condition_obj, verdict, diagnostics
    )
