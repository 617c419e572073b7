"""Polyhedral set-valued maps: coderivatives relative to a set, the Aubin
criterion, sum and chain rules, and the semicontinuity side conditions.

A map is its graph, a finite union of convex polyhedra in R^{n+m}; sums and
compositions are exact Fourier-Motzkin projections of lifted graphs.  The
coderivative relative to C slices the limiting normal cone of the graph
relative to C x R^m, so every slice is a finite union of polyhedra.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .cones import limiting_normal_wrt
from .exactgeom import (
    ConeH,
    ConeUnion,
    ConvexPoly,
    LimitError,
    PolySet,
    PolyUnion,
    slice_cone_at_tail,
)
from .linalg import Vec, check_dim, dot, neg, zero
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


@record
class PolyMultimap:
    """A set-valued map R^n => R^m given by its polyhedral graph."""

    in_dim: int
    out_dim: int
    graph: PolySet

    @staticmethod
    def linear(matrix: tuple[tuple, ...], in_dim: int, out_dim: int) -> "PolyMultimap":
        """The single-valued map x |-> Ax."""
        eqs = []
        for i in range(out_dim):
            row = list(matrix[i]) + [Fraction(0)] * out_dim
            row[in_dim + i] = Fraction(-1)
            eqs.append((tuple(row), Fraction(0)))
        piece = ConvexPoly.make(in_dim + out_dim, [], eqs)
        return PolyMultimap(in_dim, out_dim, PolySet.from_poly(piece))

    @staticmethod
    def constant(in_dim: int, values: PolySet) -> "PolyMultimap":
        whole = ConvexPoly.whole_space(in_dim)
        pieces = [whole.product(p) for p in values.pieces]
        return PolyMultimap(
            in_dim, values.dim, PolySet.make(in_dim + values.dim, pieces)
        )

    def domain(self) -> PolySet:
        coords = tuple(range(self.in_dim, self.in_dim + self.out_dim))
        return self.graph.eliminate(coords)

    def value_set(self, x: Vec) -> PolySet:
        """F(x) as a union of polyhedra in the output space."""
        check_dim("value_set point", len(x), self.in_dim)
        return PolySet.make(self.out_dim, [slice_fiber(p, x) for p in self.graph.pieces])

    def contains(self, x: Vec, y: Vec) -> bool:
        self.check_point(x, y)
        return self.graph.contains(x + y)

    def check_point(self, x: Vec, y: Vec) -> None:
        check_dim("point x", len(x), self.in_dim)
        check_dim("point y", len(y), self.out_dim)

    def inverse(self) -> "PolyMultimap":
        n, m = self.in_dim, self.out_dim
        # position j of a reindexed row reads old coordinate swap[j]
        swap = tuple(range(n, n + m)) + tuple(range(n))

        def permute(p: ConvexPoly) -> ConvexPoly:
            return ConvexPoly.make(
                n + m,
                [(tuple(a[i] for i in swap), b) for a, b in p.ineqs],
                [(tuple(e[i] for i in swap), d) for e, d in p.eqs],
            )

        return PolyMultimap(m, n, PolySet.make(n + m, [permute(p) for p in self.graph.pieces]))

    def sum(self, other: "PolyMultimap") -> "PolyMultimap":
        """(F1 + F2)(x) = F1(x) + F2(x), graph built by exact projection."""
        check_dim("sum input", other.in_dim, self.in_dim)
        check_dim("sum output", other.out_dim, self.out_dim)
        n, m = self.in_dim, self.out_dim
        if len(self.graph.pieces) * len(other.graph.pieces) > PIECE_LIMIT:
            raise PieceLimitError("sum graph piece limit exceeded")
        pieces = []
        total = n + m + m  # (x, y, y1)
        for p in self.graph.pieces:
            lift_p = p.embed(total, tuple(range(n)) + tuple(range(n + m, total)))
            for q in other.graph.pieces:
                rows_i = list(lift_p.ineqs)
                rows_e = list(lift_p.eqs)
                for a, b in q.ineqs:
                    ax, ay = a[:n], a[n:]
                    rows_i.append((ax + ay + neg(ay), b))
                for e, d in q.eqs:
                    ex, ey = e[:n], e[n:]
                    rows_e.append((ex + ey + neg(ey), d))
                big = ConvexPoly.make(total, rows_i, rows_e)
                pieces.append(big.eliminate(tuple(range(n + m, total))))
        return PolyMultimap(n, m, PolySet.make(n + m, pieces))

    def compose_after(self, inner: "PolyMultimap") -> "PolyMultimap":
        """self o inner: first inner (n => m), then self (m => s)."""
        check_dim("inner output", inner.out_dim, self.in_dim)
        n, m, s = inner.in_dim, inner.out_dim, self.out_dim
        if len(self.graph.pieces) * len(inner.graph.pieces) > PIECE_LIMIT:
            raise PieceLimitError("composition graph piece limit exceeded")
        total = n + s + m  # (x, z, y)
        pieces = []
        for g in inner.graph.pieces:
            lift_g = g.embed(total, tuple(range(n)) + tuple(range(n + s, total)))
            for f in self.graph.pieces:
                lift_f = f.embed(total, tuple(range(n + s, total)) + tuple(range(n, n + s)))
                big = lift_g.intersect(lift_f)
                pieces.append(big.eliminate(tuple(range(n + s, total))))
        return PolyMultimap(n, s, PolySet.make(n + s, pieces))


@record
class CoderivativeSlice:
    """D*_C F(x, y)(ystar): a finite union of polyhedra in the input dual."""

    base: tuple[Vec, Vec]
    wrt: ConvexPoly
    ystar: Vec
    result: PolyUnion


def graph_normal_cone(F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec) -> ConeUnion:
    """N_{C x R^m}((x, y), gph F_C), the cone behind every coderivative."""
    F.check_point(x, y)
    wrt = c.product(ConvexPoly.whole_space(F.out_dim))
    return limiting_normal_wrt(F.graph, wrt, x + y)


def coderivative_wrt(
    F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec, ystar: Vec
) -> CoderivativeSlice:
    check_dim("ystar", len(ystar), F.out_dim)
    if not F.contains(x, y):
        raise ValueError("base point off the graph")
    if not c.contains(x):
        raise ValueError("base point outside the reference set")
    cone = graph_normal_cone(F, c, x, y)
    parts = [slice_cone_at_tail(p, neg(ystar)) for p in cone.parts]
    return CoderivativeSlice((x, y), c, ystar, PolyUnion.make(F.in_dim, parts))


def coderivative_zero_cone(
    F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec
) -> ConeUnion:
    """D*_C F(x,y)(0) as a cone union: the slice at zero is homogeneous, so
    each part is its own recession cone."""
    sl = coderivative_wrt(F, c, x, y, zero(F.out_dim))
    return ConeUnion.make(F.in_dim, [p.recession() for p in sl.result.parts])


def coderivative_kernel(F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec) -> ConeUnion:
    """ker D*_C F(x,y) = {ystar : (0, -ystar) in the graph cone}."""
    n, m = F.in_dim, F.out_dim
    cone = graph_normal_cone(F, c, x, y)
    # the slices {t : (0, t) in a part} hold -ystar
    slices = [
        ConeH.from_ineqs(m, [a[n:] for a in p.ineqs], [e[n:] for e in p.eqs])
        for p in cone.parts
    ]
    return ConeUnion.make(m, [s.negate() for s in slices])


def aubin_wrt_check(F: PolyMultimap, c: ConvexPoly, x: Vec, y: Vec) -> TriVerdict:
    """Aubin property relative to c around (x, y): D*_C F(x,y)(0) = {0}."""
    cone = coderivative_zero_cone(F, c, x, y)
    if cone.is_zero_cone():
        return TriVerdict.holds()
    return TriVerdict.fails({"vector": cone.nonzero_vector()})


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
    enumeration over D and the rows of proj A decides it, since each sign
    cell lies in or misses each proj P.  If every cell lies in some proj P
    with P in A, the tail of any sequence runs in those cells and
    dist(ȳ, P(x_k)) <= L|x_k - x̄| -> 0.  A cell that misses them all gives
    Fails with its witness w: for 0 < t <= 1 the points x̄ + t(w - x̄) stay in
    the cell, hence in D, and F there meets only pieces outside A, closed
    sets that miss (x̄, ȳ), so no y_t -> ȳ as t -> 0.  Never Unknown.
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
    for cell in local_cells([dom, PolySet.make(n, dom.pieces + tuple(proj_a))], xbar):
        if not any(q.contains(cell.witness) for q in proj_a):
            return TriVerdict.fails({"witness": cell.witness})
    return TriVerdict.holds({"reason": "adherent cells lie over pieces through the base"})


def slice_fiber(piece: ConvexPoly, x: Vec) -> ConvexPoly:
    """{y : (x, y) in piece} in the trailing coordinates."""
    k = len(x)
    ineqs = [(a[k:], b - dot(a[:k], x)) for a, b in piece.ineqs]
    eqs = [(e[k:], d - dot(e[:k], x)) for e, d in piece.eqs]
    return ConvexPoly.make(piece.dim - k, ineqs, eqs)


# ---------------------------------------------------------------------------
# sum rule
# ---------------------------------------------------------------------------


def _lifted_sum_omegas(
    F1: PolyMultimap, F2: PolyMultimap
) -> tuple[PolySet, PolySet]:
    n, m = F1.in_dim, F1.out_dim
    total = n + 2 * m
    omega1 = F1.graph.embed(total, tuple(range(n + m)))
    omega2 = F2.graph.embed(total, tuple(range(n)) + tuple(range(n + m, total)))
    return omega1, omega2


def _s_map(F1: PolyMultimap, F2: PolyMultimap) -> PolyMultimap:
    """S(x, y) = {(y1, y2) : yi in Fi(x), y1 + y2 = y}."""
    n, m = F1.in_dim, F1.out_dim
    total = n + m + 2 * m  # (x, y, y1, y2)
    pieces = []
    for p in F1.graph.pieces:
        lp_ = p.embed(total, tuple(range(n)) + tuple(range(n + m, n + 2 * m)))
        for q in F2.graph.pieces:
            lq = q.embed(total, tuple(range(n)) + tuple(range(n + 2 * m, total)))
            rows_e = []
            for i in range(m):
                row = [Fraction(0)] * total
                row[n + m + i] = Fraction(1)
                row[n + 2 * m + i] = Fraction(1)
                row[n + i] = Fraction(-1)
                rows_e.append((tuple(row), Fraction(0)))
            coupling = ConvexPoly.make(total, [], rows_e)
            pieces.append(lp_.intersect(lq).intersect(coupling))
    return PolyMultimap(n + m, 2 * m, PolySet.make(total, pieces))


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
    if tuple(a + b for a, b in zip(y1bar, y2bar)) != tuple(ybar):
        raise ValueError("y1 + y2 must equal y")
    if not (F1.contains(xbar, y1bar) and F2.contains(xbar, y2bar)):
        raise ValueError("base points off the graphs")
    c = c1.intersect(c2)
    if not c.contains(xbar):
        raise ValueError("base point outside the reference sets")

    d1_zero = coderivative_zero_cone(F1, c1, xbar, y1bar)
    d2_zero = coderivative_zero_cone(F2, c2, xbar, y2bar)
    q1 = (
        TriVerdict.holds()
        if d1_zero.intersect(d2_zero.negate()).is_zero_cone()
        else TriVerdict.fails(
            {"vector": d1_zero.intersect(d2_zero.negate()).nonzero_vector()}
        )
    )

    omega1, omega2 = _lifted_sum_omegas(F1, F2)
    lift1 = c1.product(ConvexPoly.whole_space(2 * m))
    lift2 = c2.product(ConvexPoly.whole_space(2 * m))
    q2 = normal_densed_check(omega1, omega2, lift1, lift2, xbar + y1bar + y2bar)

    s_map = _s_map(F1, F2)
    c_lift = c.product(ConvexPoly.whole_space(m))
    base = xbar + ybar
    if variant == VARIANT_SEMICONTINUOUS:
        base += y1bar + y2bar
    regularity = inner_regularity_check(s_map, c_lift, base, variant)

    fsum = F1.sum(F2)
    lhs = coderivative_wrt(fsum, c, xbar, ybar, ystar).result

    if variant == VARIANT_SEMICONTINUOUS:
        rhs = coderivative_wrt(F1, c1, xbar, y1bar, ystar).result.minkowski(
            coderivative_wrt(F2, c2, xbar, y2bar, ystar).result
        )
    else:
        fiber = s_map.value_set(xbar + ybar)
        parts = []
        for cell in global_cells([fiber]):
            y1, y2 = cell.witness[:m], cell.witness[m:]
            parts.extend(
                coderivative_wrt(F1, c1, xbar, y1, ystar)
                .result.minkowski(coderivative_wrt(F2, c2, xbar, y2, ystar).result)
                .parts
            )
        rhs = PolyUnion.make(n, parts)

    ok, witness = lhs.subset_of(rhs)
    quals = (
        ("q1", q1),
        ("q2", q2),
        (f"inner_{variant}", regularity),
    )
    return RuleReport("sum-rule", lhs, rhs, quals, ok, None, witness)


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
            rows_i: list[tuple[Vec, Fraction]] = []
            rows_e: list[tuple[Vec, Fraction]] = []
            for a in w.ineqs:
                rows_i.append((a[:n] + neg(a[n:]), Fraction(0)))
            for e in w.eqs:
                rows_e.append((e[:n] + neg(e[n:]), Fraction(0)))
            for a, b in v.ineqs:
                rows_i.append((zero(n) + a, b))
            for e, d in v.eqs:
                rows_e.append((zero(n) + e, d))
            big = ConvexPoly.make(n + m, rows_i, rows_e)
            parts.append(big.eliminate(tuple(range(n, n + m))))
    return PolyUnion.make(n, parts)


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
    if not G.contains(xbar, ybar):
        raise ValueError("intermediate point off the inner graph")
    if not F.contains(ybar, zbar):
        raise ValueError("outer base point off the graph")
    if not c.contains(xbar):
        raise ValueError("base point outside the reference set")
    whole_m = ConvexPoly.whole_space(m)

    df_zero = coderivative_zero_cone(F, whole_m, ybar, zbar)
    ker_g = coderivative_kernel(G, c, xbar, ybar)
    overlap = df_zero.intersect(ker_g)
    q1 = (
        TriVerdict.holds()
        if overlap.is_zero_cone()
        else TriVerdict.fails({"vector": overlap.nonzero_vector()})
    )

    total = n + m + s
    theta1 = G.graph.embed(total, tuple(range(n + m)))
    theta2 = F.graph.embed(total, tuple(range(n, total)))
    lift1 = c.product(ConvexPoly.whole_space(m + s))
    lift2 = ConvexPoly.whole_space(total)
    q2 = normal_densed_check(theta1, theta2, lift1, lift2, xbar + ybar + zbar)

    s_map = _script_s(G, F)
    c_lift = c.product(ConvexPoly.whole_space(s))
    base = xbar + zbar
    if variant == VARIANT_SEMICONTINUOUS:
        base += ybar
    regularity = inner_regularity_check(s_map, c_lift, base, variant)

    comp = F.compose_after(G)
    lhs = coderivative_wrt(comp, c, xbar, zbar, zstar).result

    def rhs_at(y: Vec) -> PolyUnion:
        b_union = coderivative_wrt(F, whole_m, y, zbar, zstar).result
        ng = graph_normal_cone(G, c, xbar, y)
        return _compose_slices(ng.parts, b_union.parts, n, m)

    if variant == VARIANT_SEMICONTINUOUS:
        rhs = rhs_at(ybar)
    else:
        fiber = s_map.value_set(xbar + zbar)
        parts = []
        for cell in global_cells([fiber]):
            parts.extend(rhs_at(cell.witness).parts)
        rhs = PolyUnion.make(n, parts)

    ok, witness = lhs.subset_of(rhs)
    quals = (
        ("q1", q1),
        ("q2", q2),
        (f"inner_{variant}", regularity),
    )
    return RuleReport("chain-rule", lhs, rhs, quals, ok, None, witness)


def _script_s(G: PolyMultimap, F: PolyMultimap) -> PolyMultimap:
    """S(x, z) = G(x) cap F^{-1}(z) as a multimap (x, z) => y."""
    n, m, s = G.in_dim, G.out_dim, F.out_dim
    total = n + s + m
    pieces = []
    for g in G.graph.pieces:
        lg = g.embed(total, tuple(range(n)) + tuple(range(n + s, total)))
        for f in F.graph.pieces:
            lf = f.embed(total, tuple(range(n + s, total)) + tuple(range(n, n + s)))
            pieces.append(lg.intersect(lf))
    return PolyMultimap(n + s, m, PolySet.make(total, pieces))
