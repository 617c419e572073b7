"""Polyhedral set-valued maps: coderivatives relative to a set, the Aubin
criterion, sum and chain rules, and the semicontinuity side conditions.

A map is its graph, a finite union of convex polyhedra in R^{n+m}; sums and
compositions are exact projections of lifted graphs.  A coderivative
relative to C is a `FiniteUnion.slice` section of the graph's limiting normal
cone relative to C x R^m, a finite union of polyhedra; the sum and chain
rules read every section off the graph cone that their call's memo
(`cones.rule_scope`) builds once per map, set and point.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from ._record import record
from .cones import limiting_normal_wrt, per_rule_call, rule_scope
from .exactgeom import (
    ConeH,
    ConeUnion,
    ConvexPoly,
    LimitError,
    PolySet,
    PolyUnion,
)
from .linalg import Vec, check_dim, neg, zero
from .quals import normal_densed_check
from .stratify import global_cells, local_cells
from .verdicts import (
    VARIANT_SEMICOMPACT,
    VARIANT_SEMICONTINUOUS,
    RuleReport,
    TriVerdict,
)

PIECE_LIMIT = 4096


class PieceLimitError(LimitError):
    pass


def _piece_product(total: int, factors) -> PolySet:
    """`PolySet.lift` of the (set, coords) factors, its count of pieces
    checked against PIECE_LIMIT before any piece is built."""
    count = prod(len(s.pieces) for s, _ in factors)
    if count > PIECE_LIMIT:
        raise PieceLimitError(
            f"piece limit exceeded: a product of {count} pieces (limit {PIECE_LIMIT})"
        )
    return PolySet.lift(total, factors)


@record
class PolyMultimap:
    """A set-valued map R^n => R^m given by its polyhedral graph."""

    in_dim: int
    out_dim: int
    graph: PolySet

    @staticmethod
    def linear(matrix: tuple[tuple, ...], in_dim: int, out_dim: int) -> "PolyMultimap":
        """The single-valued map x |-> Ax."""
        check_dim("linear map rows", len(matrix), out_dim)
        eqs = []
        for i in range(out_dim):
            check_dim("linear map row", len(matrix[i]), in_dim)
            row = list(matrix[i]) + [Fraction(0)] * out_dim
            row[in_dim + i] = Fraction(-1)
            eqs.append((tuple(row), Fraction(0)))
        piece = ConvexPoly.make(in_dim + out_dim, [], eqs)
        return PolyMultimap(in_dim, out_dim, PolySet.from_poly(piece))

    def domain(self) -> PolySet:
        coords = tuple(range(self.in_dim, self.in_dim + self.out_dim))
        return self.graph.eliminate(coords)

    def value_set(self, x: Vec) -> PolySet:
        """F(x) as a union of polyhedra in the output space."""
        check_dim("value_set point", len(x), self.in_dim)
        pieces = [p.slice(range(self.in_dim), x) for p in self.graph.pieces]
        return PolySet.make(self.out_dim, pieces)

    def contains(self, x: Vec, y: Vec) -> bool:
        self.check_point(x, y)
        return self.graph.contains(x + y)

    def check_point(self, x: Vec, y: Vec) -> None:
        check_dim("point x", len(x), self.in_dim)
        check_dim("point y", len(y), self.out_dim)


@record
class CoderivativeSlice:
    """D*_C F(x, y)(ystar): a finite union of polyhedra in the input dual."""

    base: tuple[Vec, Vec]
    ystar: Vec
    result: PolyUnion


@per_rule_call
def graph_normal_cone(F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec) -> ConeUnion:
    """N_{C x R^m}((x, y), gph F_C), the cone behind every coderivative."""
    F.check_point(x, y)
    wrt = ConvexPoly.lift(c.dim + F.out_dim, [(c, range(c.dim))])
    return limiting_normal_wrt(F.graph, wrt, x + y)


def _section(cone: ConeUnion, n: int, ystar: Vec) -> PolyUnion:
    """D*_C F(x, y)(ystar) read off the graph cone in R^{n+m}."""
    return cone.slice(range(n, n + len(ystar)), neg(ystar))


def coderivative_wrt(
    F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec, ystar: Vec
) -> CoderivativeSlice:
    check_dim("ystar", len(ystar), F.out_dim)
    if not F.contains(x, y):
        raise ValueError("base point off the graph")
    if not c.contains(x):
        raise ValueError("base point outside the reference set")
    cone = graph_normal_cone(F, c, x, y)
    return CoderivativeSlice((x, y), ystar, _section(cone, F.in_dim, ystar))


def coderivative_zero_cone(
    F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec
) -> ConeUnion:
    """D*_C F(x,y)(0) as a cone union: the slice at zero is homogeneous, so
    each part is its own recession cone."""
    return coderivative_wrt(F, c, x, y, zero(F.out_dim)).result.recession()


def _kernel(cone: ConeUnion, n: int, m: int) -> ConeUnion:
    """ker D*_C F(x,y) = {ystar : (0, -ystar) in a graph cone in R^{n+m}}."""
    # {-t : (0, t) in a part}: the sections at 0 hold -ystar
    kernels = [
        ConeH.from_rows(m, [neg(a[n:]) for a in p.rows], [e[n:] for e in p.eq_rows])
        for p in cone.parts
    ]
    return ConeUnion.make(m, kernels)


def aubin_wrt_check(F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec) -> TriVerdict:
    """Aubin property relative to c around (x, y): D*_C F(x,y)(0) = {0}."""
    return TriVerdict.zero_cone(coderivative_zero_cone(F, c, x, y))


# ---------------------------------------------------------------------------
# inner semicontinuity / semicompactness (decided exactly)
# ---------------------------------------------------------------------------


def inner_regularity_check(
    F: PolyMultimap, c: ConvexPoly, base: Vec, mode: str
) -> TriVerdict:
    """Decide the inner semicontinuity-type side conditions of F relative to c.

    Sequences run in D = dom F ∩ c (Mordukhovich 2006, Def. 1.63):

    - VARIANT_SEMICOMPACT, base = x̄: every x_k -> x̄ in D has y_k in F(x_k)
      with a convergent subsequence;
    - VARIANT_SEMICONTINUOUS, base = (x̄, ȳ) on the graph: every x_k -> x̄ in
      D has y_k in F(x_k) with y_k -> ȳ.

    D is closed, so both are vacuous when x̄ is not in D.  Both rest on one
    fact: a graph piece P is a closed convex polyhedron, so its fiber map
    x |-> P(x) is Lipschitz on its domain, the projection proj P (Walkup &
    Wets 1969).

    Semicompactness always holds: a sequence in D has a subsequence in one
    proj P, which is closed and so holds x̄, and P(x_k) has points within
    L|x_k - x̄| of a fixed point of P(x̄), so bounded y_k exist.

    Semicontinuity holds exactly when every cell of D adherent to x̄ lies in
    proj P for some piece P of A, the pieces through (x̄, ȳ).  One local cell
    enumeration over D and the rows of proj A decides it, since each stratum
    lies in or misses each proj P of A, as its signs say: a row of proj P is
    left unbranched only where proj P is already missed.  Only a failing
    stratum builds a point, its witness.  If every cell lies in some proj P
    with P in A, the tail of any sequence runs in those cells and
    dist(ȳ, P(x_k)) <= L|x_k - x̄| -> 0.  A cell that misses them all gives
    Fails with its witness w: for 0 < t <= 1 the points x̄ + t(w - x̄) stay in
    the cell, hence in D, and F there meets only pieces outside A, closed
    sets that miss (x̄, ȳ), so no y_t -> ȳ as t -> 0.
    """
    n, m = F.in_dim, F.out_dim
    if mode == VARIANT_SEMICOMPACT:
        check_dim("base point (n)", len(base), n)
        return TriVerdict.holds({"reason": "polyhedral fiber maps are Lipschitz"})
    if mode != VARIANT_SEMICONTINUOUS:
        raise ValueError(f"unknown mode: {mode}")
    check_dim("base point (n + m)", len(base), n + m)
    xbar, ybar = base[:n], base[n:]
    if not F.contains(xbar, ybar):
        raise ValueError("base point off the graph")
    if not c.contains(xbar):
        return TriVerdict.holds({"reason": "base point outside dom F ∩ C"})
    proj = [p.eliminate(tuple(range(n, n + m))) for p in F.graph.pieces]
    proj_a = [q for p, q in zip(F.graph.pieces, proj) if p.contains(base)]
    dom = PolySet.make(n, [q.intersect(c) for q in proj])
    over = PolySet.make(n, dom.pieces + tuple(proj_a))
    # the pieces of `over` that are some proj P of A
    of_a = [q in proj_a for q in over.pieces]
    for cell in local_cells([dom, over], xbar):
        if not any(a and t is not None for a, t in zip(of_a, cell.tight_rows(1))):
            return TriVerdict.fails({"witness": cell.witness})
    return TriVerdict.holds({"reason": "adherent cells lie over pieces through the base"})


# ---------------------------------------------------------------------------
# sum and chain rules: one tail through the auxiliary map S
# ---------------------------------------------------------------------------


def _rule_via_s(
    rule_id: str, s_map: PolyMultimap, c: ConvexPoly, x: Vec, out: Vec, aux: Vec,
    star: Vec, variant: str, rhs_at, q1: TriVerdict, q2: TriVerdict
) -> RuleReport:
    """Everything after q1 and q2 of a rule whose composite map is S with the
    auxiliary output projected away.  aux lies in S(x, out), and rhs_at(a) is
    the right side at one auxiliary point a: at aux under semicontinuity of
    S, or unioned over one point per cell of S(x, out) under semicompactness."""
    n, k = len(x), len(out)
    c_lift = ConvexPoly.lift(n + k, [(c, range(n))])
    base = x + out
    if variant == VARIANT_SEMICONTINUOUS:
        base += aux
    regularity = inner_regularity_check(s_map, c_lift, base, variant)

    composite = PolyMultimap(n, k, s_map.domain())
    lhs = coderivative_wrt(composite, c, x, out, star).result

    if variant == VARIANT_SEMICONTINUOUS:
        rhs = rhs_at(aux)
    else:
        cells = global_cells([s_map.value_set(x + out)])
        parts = [p for cell in cells for p in rhs_at(cell.witness).parts]
        rhs = PolyUnion.make(n, parts)

    ok, witness = lhs.subset_of(rhs)
    quals = (("q1", q1), ("q2", q2), (f"inner_{variant}", regularity))
    return RuleReport(rule_id, lhs, rhs, quals, ok, None, witness)


def _s_map(F1: PolyMultimap, F2: PolyMultimap) -> PolyMultimap:
    """S(x, y) = {(y1, y2) : yi in Fi(x), y1 + y2 = y}."""
    check_dim("sum input", F2.in_dim, F1.in_dim)
    check_dim("sum output", F2.out_dim, F1.out_dim)
    n, m = F1.in_dim, F1.out_dim
    total = n + m + 2 * m  # (x, y, y1, y2)
    rows_e = []
    for i in range(m):
        row = [Fraction(0)] * total
        row[n + m + i] = Fraction(1)
        row[n + 2 * m + i] = Fraction(1)
        row[n + i] = Fraction(-1)
        rows_e.append((tuple(row), Fraction(0)))
    at1 = tuple(range(n)) + tuple(range(n + m, n + 2 * m))
    at2 = tuple(range(n)) + tuple(range(n + 2 * m, total))
    coupling = PolySet.from_poly(ConvexPoly.make(total, [], rows_e))
    graph = _piece_product(
        total, [(F1.graph, at1), (F2.graph, at2), (coupling, range(total))]
    )
    return PolyMultimap(n + m, 2 * m, graph)


@rule_scope
def sum_rule(
    F1: PolyMultimap,
    F2: PolyMultimap,
    c1: ConvexPoly,
    c2: ConvexPoly,
    xbar: Vec,
    ybar: Vec,
    y1bar: Vec,
    y2bar: Vec,
    ystar: Vec,
    variant: str = VARIANT_SEMICONTINUOUS,
) -> RuleReport:
    """Coderivative sum rule with both hypotheses checked exactly."""
    n, m = F1.in_dim, F1.out_dim
    check_dim("sum_rule ystar", len(ystar), m)
    if tuple(a + b for a, b in zip(y1bar, y2bar)) != tuple(ybar):
        raise ValueError("y1 + y2 must equal y")
    if not (F1.contains(xbar, y1bar) and F2.contains(xbar, y2bar)):
        raise ValueError("base points off the graphs")
    c = c1.intersect(c2)
    if not c.contains(xbar):
        raise ValueError("base point outside the reference sets")

    d1_zero = _section(graph_normal_cone(F1, c1, xbar, y1bar), n, zero(m)).recession()
    d2_zero = _section(graph_normal_cone(F2, c2, xbar, y2bar), n, zero(m)).recession()
    q1 = TriVerdict.zero_cone(d1_zero.intersect(d2_zero.negate()))

    total = n + 2 * m  # (x, y1, y2)
    omega1 = PolySet.lift(total, [(F1.graph, range(n + m))])
    omega2 = PolySet.lift(total, [(F2.graph, (*range(n), *range(n + m, total)))])
    lift1 = ConvexPoly.lift(total, [(c1, range(n))])
    lift2 = ConvexPoly.lift(total, [(c2, range(n))])
    q2 = normal_densed_check(omega1, omega2, lift1, lift2, xbar + y1bar + y2bar)

    def rhs_at(y12: Vec) -> PolyUnion:
        d1 = _section(graph_normal_cone(F1, c1, xbar, y12[:m]), n, ystar)
        return d1.minkowski(_section(graph_normal_cone(F2, c2, xbar, y12[m:]), n, ystar))

    return _rule_via_s(
        "sum-rule", _s_map(F1, F2), c, xbar, ybar, y1bar + y2bar, ystar,
        variant, rhs_at, q1, q2
    )


# ---------------------------------------------------------------------------
# chain rule
# ---------------------------------------------------------------------------


def _compose_slices(
    ng_parts: tuple[ConeH, ...], b_parts: tuple[ConvexPoly, ...], n: int, m: int
) -> PolyUnion:
    """{x* : exists y* in some b part with (x*, -y*) in some graph-cone part}."""
    parts = []
    for w in ng_parts:
        for v in b_parts:
            rows_i = [(a[:n] + neg(a[n:]), 0) for a in w.rows]
            rows_e = [(e[:n] + neg(e[n:]), 0) for e in w.eq_rows]
            rows_i += [((0,) * n + a, b) for a, b in v.rows]
            rows_e += [((0,) * n + e, d) for e, d in v.eq_rows]
            big = ConvexPoly.from_rows(n + m, rows_i, rows_e)
            parts.append(big.eliminate(tuple(range(n, n + m))))
    return PolyUnion.make(n, parts)


@rule_scope
def chain_rule(
    G: PolyMultimap,
    F: PolyMultimap,
    c: ConvexPoly,
    xbar: Vec,
    zbar: Vec,
    ybar: Vec,
    zstar: Vec,
    variant: str = VARIANT_SEMICONTINUOUS,
) -> RuleReport:
    """Coderivative chain rule for F o G relative to c."""
    n, m, s = G.in_dim, G.out_dim, F.out_dim
    check_dim("chain_rule zstar", len(zstar), s)
    if not G.contains(xbar, ybar):
        raise ValueError("intermediate point off the inner graph")
    if not F.contains(ybar, zbar):
        raise ValueError("outer base point off the graph")
    if not c.contains(xbar):
        raise ValueError("base point outside the reference set")
    whole_m = ConvexPoly.whole_space(m)

    df_zero = _section(graph_normal_cone(F, whole_m, ybar, zbar), m, zero(s)).recession()
    ker_g = _kernel(graph_normal_cone(G, c, xbar, ybar), n, m)
    q1 = TriVerdict.zero_cone(df_zero.intersect(ker_g))

    total = n + m + s
    theta1 = PolySet.lift(total, [(G.graph, range(n + m))])
    theta2 = PolySet.lift(total, [(F.graph, range(n, total))])
    lift1 = ConvexPoly.lift(total, [(c, range(n))])
    lift2 = ConvexPoly.whole_space(total)
    q2 = normal_densed_check(theta1, theta2, lift1, lift2, xbar + ybar + zbar)

    def rhs_at(y: Vec) -> PolyUnion:
        b_union = _section(graph_normal_cone(F, whole_m, y, zbar), m, zstar)
        return _compose_slices(graph_normal_cone(G, c, xbar, y).parts, b_union.parts, n, m)

    return _rule_via_s(
        "chain-rule", _script_s(G, F), c, xbar, zbar, ybar, zstar,
        variant, rhs_at, q1, q2
    )


def _script_s(G: PolyMultimap, F: PolyMultimap) -> PolyMultimap:
    """S(x, z) = G(x) cap F^{-1}(z) as a multimap (x, z) => y."""
    check_dim("inner output", G.out_dim, F.in_dim)
    n, m, s = G.in_dim, G.out_dim, F.out_dim
    total = n + s + m  # (x, z, y)
    g_at = tuple(range(n)) + tuple(range(n + s, total))
    f_at = tuple(range(n + s, total)) + tuple(range(n, n + s))
    graph = _piece_product(total, [(G.graph, g_at), (F.graph, f_at)])
    return PolyMultimap(n + s, m, graph)
