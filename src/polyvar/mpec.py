"""Necessary-optimality certification for min f(x) s.t. 0 in G(x), x in C1 cap C2.

The stationarity test is necessary-only, so the verdict is three-state:
a candidate is CertifiedNonOptimal only when every hypothesis of the
applicable condition holds exactly and the condition itself fails; candidates
passing the condition get NecessaryConditionsHold (never "optimal"); a
failed hypothesis downgrades the report to Inconclusive.

A `StationarityReport` keeps, beside the verdicts, what they were read
from: `subdifferential` (the limiting subdifferential of f relative to C1),
`coderivative_zero_slice` (D*_{C2} G(x, 0)(0)) and `objective_value`
(f(x)).  Both subdifferentials are `FiniteUnion.slice` sections, at -1 and
at 0, of one normal cone of epi f relative to C1 x R.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .exactgeom import ConeUnion, ConvexPoly, PolySet, PolyUnion
from .linalg import Vec, zero
from .multimaps import PolyMultimap, coderivative_zero_cone
from .plfunc import PLFunc, _epi_cone
from .quals import normal_densed_check
from .verdicts import KIND_LIMITING, TriVerdict

CERTIFIED_NON_OPTIMAL = "CertifiedNonOptimal"
NECESSARY_CONDITIONS_HOLD = "NecessaryConditionsHold"
INCONCLUSIVE = "Inconclusive"


@record
class MPECProblem:
    """min f(x) s.t. 0 in G(x), x in C1 ∩ C2: x has f.dim entries, G(x)
    lies in G.out_dim dimensions."""

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
    subdifferential: PolyUnion
    coderivative_zero_slice: ConeUnion
    objective_value: Fraction


def _check_feasible(p: MPECProblem, x: Vec) -> Vec:
    """The epigraph point (x, f(x)) of a feasible candidate x."""
    if not p.G.contains(x, zero(p.G.out_dim)):
        raise ValueError("infeasible candidate: 0 not in G(x)")
    if not p.c1.contains(x):
        raise ValueError("infeasible candidate: x outside C1")
    if not p.c2.contains(x):
        raise ValueError("infeasible candidate: x outside C2")
    fx = p.f.value(x)
    if fx is None:
        raise ValueError("infeasible candidate: x outside dom f")
    return x + (fx,)


def _q2(p: MPECProblem, point: Vec) -> TriVerdict:
    """Normal-densedness of the lifted epigraph/graph pair at (x, 0, f(x))."""
    n, m = p.f.dim, p.G.out_dim
    total = n + m + 1
    # (x, y, z) with (x, z) in epi f, y free; and gph G x R
    omega1 = PolySet.lift(total, [(p.f.epi, (*range(n), n + m))])
    omega2 = PolySet.lift(total, [(p.G.graph, range(n + m))])
    lift1 = ConvexPoly.lift(total, [(p.c1, range(n))])
    lift2 = ConvexPoly.lift(total, [(p.c2, range(n))])
    base = point[:n] + zero(m) + point[n:]
    return normal_densed_check(omega1, omega2, lift1, lift2, base)


def stationarity_check(p: MPECProblem, x: Vec) -> StationarityReport:
    """Evaluate the necessary conditions and aggregate the verdict."""
    point = _check_feasible(p, x)
    n = p.f.dim
    # D*G(x, 0)(0) once: q1 and the Aubin verdict both read it
    dzero = coderivative_zero_cone(p.G, p.c2, x, zero(p.G.out_dim))
    # epi f's limiting cone once: q1 reads its horizon slice, the condition
    # its limiting one
    epi_cone = _epi_cone(p.f, p.c1, point, KIND_LIMITING)
    # q1: the horizon subdifferential against the zero slice of D*G
    horizon = epi_cone.slice((n,), (0,))
    q1 = TriVerdict.zero_cone(horizon.recession().intersect(dzero.negate()))
    q2 = _q2(p, point)
    aubin = TriVerdict.zero_cone(dzero)

    subdiff = epi_cone.slice((n,), (-1,))

    # 0 in subdiff + dzero  <=>  subdiff meets -dzero
    reflected = PolyUnion(n, [c.to_poly() for c in dzero.negate().parts])
    condition_sum = not subdiff.intersect(reflected).is_empty()
    condition_obj = subdiff.contains(zero(n))

    if q1.is_holds() and q2.is_holds():
        verdict = (
            NECESSARY_CONDITIONS_HOLD if condition_sum else CERTIFIED_NON_OPTIMAL
        )
    else:
        verdict = INCONCLUSIVE

    return StationarityReport(
        x, q1, q2, aubin, condition_sum, condition_obj, verdict, subdiff, dzero, point[-1]
    )
