"""The two qualification conditions gating intersection/sum/chain rules.

For polyhedral data both checks are exact.

The limiting qualification condition relative to {C1, C2} reduces to a cone
intersection: the achievable limits of relative Fréchet normals along
sequences in Omega_i cap C_i are exactly the relative limiting cones, and a
vanishing-sum pair of sequences converges to some (v, -v); so the condition
holds iff N_{C1}(x, Omega1) cap [-N_{C2}(x, Omega2)] = {0}.

Normal-densedness quantifies over limits of classical normals plus a radial
direction taken along Omega cap bd C.  Over each adherent stratum the
radial cone of C is constant (C has one piece, so its rows always branch),
fixed by the rows of C tight on the stratum, which its signs give with no
point, hence the achievable radial limits form the finite union L of the
cones of the boundary strata, one per pattern of tight rows (none, with no
cell search, when no row of C is tight at x and C has no equality), and
the premise pairs are exactly
{(v1, v2) in N(x,Omega1 cap C1) x N(x,Omega2 cap C2) : v1 + v2 in L}.  The
conclusion asks for a re-representation of the sum inside the relative
limiting cones, plus a nonzero re-representation when the pair is nonzero
with zero sum; both are Minkowski/intersection computations on cone unions.

A side's relative and classical cones come from one cell search of
[Omega_i, C_i]; Omega_i cap C_i is never built, since T_{P∩C} = T_P ∩ T_C:
a cell's tangent rows alone give the classical cone of Omega_i cap C_i.
Called inside a rule, both checks read the patterns and cones of the rule
call's memo (`cones.rule_scope`), so the relative cones the LQC check
builds serve normal-densedness and the rule's sides.
"""

from __future__ import annotations

from .cones import _active_rows, _patterns, _union, limiting_normal_wrt
from .exactgeom import ConeH, ConeUnion, ConvexPoly, PolySet
from .linalg import Vec, check_dim, excess_at, zero
from .stratify import local_cells
from .verdicts import TriVerdict


def _require_membership(x: Vec, **sets: PolySet | ConvexPoly) -> None:
    for name, s in sets.items():
        check_dim(f"base point ({name})", len(x), s.dim)
        if not s.contains(x):
            raise ValueError(f"base point outside {name}")


def lqc_wrt_check(
    omega1: PolySet,
    omega2: PolySet,
    c1: ConvexPoly,
    c2: ConvexPoly,
    x: Vec,
) -> TriVerdict:
    """Limiting qualification condition relative to {c1, c2} at x."""
    _require_membership(x, omega1=omega1, omega2=omega2, c1=c1, c2=c2)
    n1 = limiting_normal_wrt(omega1, c1, x)
    n2 = limiting_normal_wrt(omega2, c2, x)
    return TriVerdict.zero_cone(n1.intersect(n2.negate()))


def boundary_radial_limit(
    omega1: PolySet, omega2: PolySet, c: ConvexPoly, x: Vec
) -> ConeUnion:
    """Outer limit of radial cones of c along Omega1 cap Omega2 cap bd c at x.

    A stratum lies in bd c when a row of c is tight on it, read off its
    signs, or c has an equality; one radial cone is built per pattern of
    tight rows.  Empty union when no sequence of that kind approaches x (in
    particular when x is interior to c, where no cell search runs), which
    makes the normal-densedness premise vacuous.
    """
    if _active_rows(c, excess_at(x)) == ([], []):
        return ConeUnion.empty(c.dim)
    tight = {cell.tight_rows(2)[0] for cell in local_cells([omega1, omega2, c], x)}
    eqs = [e for e, _ in c.eq_rows]
    return ConeUnion.make(c.dim, [ConeH.from_rows(c.dim, a, eqs) for a in tight if a or eqs])


def _classical(patterns) -> frozenset:
    """The tangent rows alone: the classical cones of Omega_i cap C_i."""
    return frozenset((((), ()), tangents) for _, tangents in patterns)


def normal_densed_check(
    omega1: PolySet,
    omega2: PolySet,
    c1: ConvexPoly,
    c2: ConvexPoly,
    x: Vec,
) -> TriVerdict:
    """Are {omega1, omega2} normal-densed in {c1, c2} at x (exact test)."""
    _require_membership(x, omega1=omega1, omega2=omega2, c1=c1, c2=c2)
    c = c1.intersect(c2)
    limit_radial = boundary_radial_limit(omega1, omega2, c, x)
    if limit_radial.is_empty():
        return TriVerdict.holds({"reason": "no boundary approach"})

    p1, p2 = _patterns(omega1, c1, x), _patterns(omega2, c2, x)
    n_wrt_1, n_wrt_2 = _union(len(x), p1), _union(len(x), p2)
    n_cl_1, n_cl_2 = _union(len(x), _classical(p1)), _union(len(x), _classical(p2))

    achievable = n_cl_1.minkowski(n_cl_2).intersect(limit_radial)
    representable = n_wrt_1.minkowski(n_wrt_2)
    ok, witness = achievable.subset_of(representable)
    if not ok:
        return TriVerdict.fails({"sum": witness})

    # zero sums of nonzero pairs need a nonzero re-representation
    opposite_cl = n_cl_1.intersect(n_cl_2.negate())
    if not opposite_cl.is_zero_cone():
        opposite_wrt = n_wrt_1.intersect(n_wrt_2.negate())
        if opposite_wrt.is_zero_cone():
            return TriVerdict.fails(
                {"sum": zero(len(x)), "pair": opposite_cl.nonzero_vector()}
            )
    return TriVerdict.holds()
