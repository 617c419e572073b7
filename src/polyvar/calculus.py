"""Set-level calculus rules: both sides computed independently, hypotheses
checked exactly, verdicts never asserted past what the checks certify.

Each rule returns a RuleReport carrying lhs, rhs, the hypothesis verdicts and
an exact witness whenever an inclusion fails.  When a hypothesis fails the
report is diagnostic: both sides are still computed, no claim is made.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cones import frechet_normal_wrt, limiting_normal, limiting_normal_wrt, rule_scope
from .exactgeom import ConeH, ConeUnion, ConvexPoly, PolySet, PolyUnion
from .linalg import Vec, check_dim
from .quals import lqc_wrt_check, normal_densed_check
from .stratify import global_cells
from .verdicts import (
    PAIRING_PROOF,
    PAIRING_STATEMENT,
    VARIANT_SEMICOMPACT,
    RuleReport,
    TriVerdict,
)

if TYPE_CHECKING:
    from .multimaps import PolyMultimap


def product_rule(
    omega1: PolySet,
    c1: ConvexPoly,
    omega2: PolySet,
    c2: ConvexPoly,
    x1: Vec,
    x2: Vec,
) -> RuleReport:
    """Product-space relative normal cones against products of factor cones:
    the mixed rule with an empty z block.

    The rule is an equality for both the Fréchet and the limiting kind, so
    the report records equality, not just inclusion.
    """
    if not (omega1.contains(x1) and c1.contains(x1)):
        raise ValueError("x1 outside omega1 cap c1")
    if not (omega2.contains(x2) and c2.contains(x2)):
        raise ValueError("x2 outside omega2 cap c2")
    return _interleaved_product(
        "product-rule", omega1, c1, omega2, c2, x1, x2, 0, PAIRING_PROOF
    )


def mixed_product_rule(
    omega1: PolySet,
    c1: ConvexPoly,
    omega2: PolySet,
    c2: ConvexPoly,
    n: int,
    m: int,
    s: int,
    point: Vec,
    pairing: str = PAIRING_PROOF,
) -> RuleReport:
    """Interleaved product rule on (x, y, z) with (x, z) in omega1, y in omega2.

    `pairing` selects which coordinates of a factor-one normal pair with the
    x-dual block: the derivation pairs (x*, z*), the headline form (x*, y*);
    the latter is only meaningful when m == s and is kept behind this flag.
    """
    check_dim("omega1 (n + s)", omega1.dim, n + s)
    check_dim("omega2 (m)", omega2.dim, m)
    check_dim("point (n + m + s)", len(point), n + m + s)
    xz, ybar = point[:n] + point[n + m :], point[n : n + m]
    if not (omega1.contains(xz) and c1.contains(xz)):
        raise ValueError("(x, z) outside omega1 cap c1")
    if not (omega2.contains(ybar) and c2.contains(ybar)):
        raise ValueError("y outside omega2 cap c2")
    return _interleaved_product(
        "mixed-product-rule", omega1, c1, omega2, c2, xz, ybar, s, pairing
    )


def _interleaved_product(
    rule_id: str,
    omega1: PolySet,
    c1: ConvexPoly,
    omega2: PolySet,
    c2: ConvexPoly,
    xz: Vec,
    ybar: Vec,
    s: int,
    pairing: str,
) -> RuleReport:
    """The mixed rule's body at (x, y, z), given (x, z) in omega1 cap c1 and
    y in omega2 cap c2; the product rule is the case s = 0."""
    n, m = len(xz) - s, len(ybar)
    total = n + m + s
    point = xz[:n] + ybar + xz[n:]
    x_then_z = tuple(range(n)) + tuple(range(n + m, total))
    y_block = tuple(range(n, n + m))
    if pairing == PAIRING_PROOF:
        coords1 = x_then_z
    elif pairing == PAIRING_STATEMENT:
        if m != s:
            raise ValueError("statement pairing needs matching block sizes")
        coords1 = tuple(range(n + m))
    else:
        raise ValueError(f"unknown pairing: {pairing}")

    omega = PolySet.lift(total, [(omega1, x_then_z), (omega2, y_block)])
    c = ConvexPoly.lift(total, [(c1, x_then_z), (c2, y_block)])

    lim_lhs = limiting_normal_wrt(omega, c, point)
    fre_lhs = frechet_normal_wrt(omega, c, point)

    n1_lim = limiting_normal_wrt(omega1, c1, xz)
    n2_lim = limiting_normal_wrt(omega2, c2, ybar)
    n1_fre = frechet_normal_wrt(omega1, c1, xz)
    n2_fre = frechet_normal_wrt(omega2, c2, ybar)

    lim_rhs = ConeUnion.make(
        total,
        [
            ConeH.lift(total, [(p, coords1), (q, y_block)])
            for p in n1_lim.parts
            for q in n2_lim.parts
        ],
    )
    fre_rhs = ConeH.lift(total, [(n1_fre, coords1), (n2_fre, y_block)])

    ok, witness = lim_lhs.subset_of(lim_rhs)
    equal = fre_lhs == fre_rhs and ok and lim_rhs.subset_of(lim_lhs)[0]
    return RuleReport(rule_id, lim_lhs, lim_rhs, (), ok and equal, equal, witness)


@rule_scope
def intersection_rule(
    omega1: PolySet,
    omega2: PolySet,
    c1: ConvexPoly,
    c2: ConvexPoly,
    x: Vec,
) -> RuleReport:
    """N_{C1 cap C2}(x, Omega1 cap Omega2) against the Minkowski sum bound."""
    lqc = lqc_wrt_check(omega1, omega2, c1, c2, x)
    densed = normal_densed_check(omega1, omega2, c1, c2, x)
    lhs = limiting_normal_wrt(omega1.intersect(omega2), c1.intersect(c2), x)
    rhs = limiting_normal_wrt(omega1, c1, x).minkowski(
        limiting_normal_wrt(omega2, c2, x)
    )
    ok, witness = lhs.subset_of(rhs)
    return RuleReport(
        "intersection-rule",
        lhs,
        rhs,
        (("lqc_wrt", lqc), ("normal_densed", densed)),
        ok,
        None,
        witness,
    )


@rule_scope
def preimage_rule(
    F: PolyMultimap, theta: PolySet, c: ConvexPoly, x: Vec
) -> RuleReport:
    """N_C(x, F^{-1}(Theta)) against the coderivative image of N(., Theta).

    The union over ybar in F(x) cap Theta is finite: one representative per
    sign cell of the fiber arrangement, on which both N(., Theta) and the
    graph cone are constant.
    """
    # the only rule on maps here: the other rules do not load multimaps
    from .multimaps import (
        _compose_slices,
        _kernel,
        _piece_product,
        graph_normal_cone,
        inner_regularity_check,
    )

    n, m = F.in_dim, F.out_dim
    whole_nm = ConvexPoly.whole_space(n + m)
    # graph of F restricted to outputs in Theta, piece by piece
    restricted = _piece_product(
        n + m, [(F.graph, range(n + m)), (theta, range(n, n + m))]
    )
    preimage = restricted.eliminate(tuple(range(n, n + m)))
    if not (preimage.contains(x) and c.contains(x)):
        raise ValueError("x outside F^{-1}(Theta) cap C")

    lhs = limiting_normal_wrt(preimage, c, x)

    fiber = F.value_set(x).intersect(theta)
    reps = [cell.witness for cell in global_cells([fiber])]

    kernel_verdict = TriVerdict.holds()
    densed_verdict = TriVerdict.holds()
    rhs_parts = []
    omega2 = PolySet.lift(n + m, [(theta, range(n, n + m))])
    c_lift = ConvexPoly.lift(n + m, [(c, range(n))])
    for ybar in reps:
        n_theta = limiting_normal(theta, ybar)
        graph_cone = graph_normal_cone(F, c, x, ybar)
        overlap = n_theta.intersect(_kernel(graph_cone, n, m))
        if not overlap.is_zero_cone() and kernel_verdict.is_holds():
            kernel_verdict = TriVerdict.fails(
                {"ybar": ybar, "vector": overlap.nonzero_vector()}
            )
        nd = normal_densed_check(F.graph, omega2, c_lift, whole_nm, x + ybar)
        if not nd.is_holds() and densed_verdict.is_holds():
            densed_verdict = nd
        rhs_parts.extend(
            _compose_slices(
                graph_cone.parts, [q.to_poly() for q in n_theta.parts], n, m
            ).parts
        )
    rhs = PolyUnion.make(n, rhs_parts)

    # semicompactness reads only the input dimension, which F shares with F|Theta
    semicompact = inner_regularity_check(F, c, x, VARIANT_SEMICOMPACT)

    ok, witness = lhs.subset_of(rhs)
    quals = (
        ("kernel_condition", kernel_verdict),
        ("normal_densed", densed_verdict),
        ("inner_semicompact", semicompact),
    )
    return RuleReport("preimage-rule", lhs, rhs, quals, ok, None, witness)
