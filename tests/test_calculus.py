"""Calculus rules: product equalities, qualification verdicts, guarded bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import (
    cap_poly,
    make_example1,
    random_linear_map,
    random_poly_through,
    random_polyset_through,
    rng_vec,
)
from polyvar import cones, quals, stratify
from polyvar.calculus import (
    intersection_rule,
    lqc_wrt_check,
    mixed_product_rule,
    normal_densed_check,
    preimage_rule,
    product_rule,
)
from polyvar.cones import limiting_normal, limiting_normal_wrt, radial_cone
from polyvar.exactgeom import ConeUnion, ConvexPoly, PolySet
from polyvar.linalg import dot, vec, zero
from polyvar.multimaps import PolyMultimap
from polyvar.quals import boundary_radial_limit
from polyvar.runner import render
from polyvar.stratify import local_cells
from polyvar.verdicts import FAILS, HOLDS


def halfline_set(dim=1):
    return PolySet.from_poly(ConvexPoly.make(dim, [(vec(-1), Fraction(0))]))


# -- product rules -------------------------------------------------------------


def test_product_rule_classical():
    ex = make_example1()
    r = product_rule(
        ex.omega1,
        ex.c_full,
        halfline_set(),
        ConvexPoly.whole_space(1),
        ex.origin,
        vec(0),
    )
    assert r.equality_holds and r.inclusion_holds


def test_product_rule_wrt_halflines():
    # omega1 = c1 = R_+ at 0, omega2 = c2 = R at 0: both sides {0} x {0}
    c1 = ConvexPoly.make(1, [(vec(-1), Fraction(0))])
    r = product_rule(
        halfline_set(),
        c1,
        PolySet.from_poly(ConvexPoly.whole_space(1)),
        ConvexPoly.whole_space(1),
        vec(0),
        vec(0),
    )
    assert r.equality_holds
    assert len(r.lhs.parts) == 1 and r.lhs.parts[0].is_zero()


def test_product_rule_random_instances():
    rng = random.Random(101)
    done = 0
    while done < 100:
        d1 = rng.randint(1, 2)
        d2 = rng.randint(1, 2)
        x1 = rng_vec(rng, d1, -1, 1)
        x2 = rng_vec(rng, d2, -1, 1)
        o1 = random_polyset_through(rng, d1, x1)
        o2 = random_polyset_through(rng, d2, x2)
        c1 = random_poly_through(rng, d1, x1)
        c2 = random_poly_through(rng, d2, x2)
        r = product_rule(o1, c1, o2, c2, x1, x2)
        assert r.equality_holds, (o1, c1, o2, c2, x1, x2)
        done += 1


def test_product_rule_precondition():
    with pytest.raises(ValueError):
        product_rule(
            halfline_set(),
            ConvexPoly.whole_space(1),
            halfline_set(),
            ConvexPoly.whole_space(1),
            vec(-1),
            vec(0),
        )


def test_mixed_product_reduces_to_product_when_s_zero():
    c1 = ConvexPoly.make(1, [(vec(-1), Fraction(0))])
    r = mixed_product_rule(
        halfline_set(),
        c1,
        PolySet.from_poly(ConvexPoly.whole_space(1)),
        ConvexPoly.whole_space(1),
        1,
        1,
        0,
        vec(0, 0),
    )
    assert r.equality_holds


def test_mixed_product_on_lifted_epigraph_data():
    # the interleaved sets of the necessary-condition proof: omega1 = epi f
    # in (x, z), omega2 = the nonnegative-parameter factor in y
    epi = PolySet.from_poly(ConvexPoly.make(2, [(vec(1, -1), Fraction(0))]))
    nonneg = PolySet.from_poly(ConvexPoly.make(1, [(vec(-1), Fraction(0))]))
    c1 = ConvexPoly.make(2, [(vec(-1, 0), Fraction(0))])  # C x R in (x, z)
    c2 = ConvexPoly.whole_space(1)
    r = mixed_product_rule(epi, c1, nonneg, c2, 1, 1, 1, vec(0, 0, 0))
    assert r.equality_holds and r.inclusion_holds


def test_mixed_product_rule_random():
    rng = random.Random(103)
    done = 0
    while done < 15:
        n, m, s = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 1)
        xz = rng_vec(rng, n + s, -1, 1)
        y = rng_vec(rng, m, -1, 1)
        o1 = random_polyset_through(rng, n + s, xz)
        o2 = random_polyset_through(rng, m, y)
        c1 = random_poly_through(rng, n + s, xz)
        c2 = random_poly_through(rng, m, y)
        point = xz[:n] + y + xz[n:]
        r = mixed_product_rule(o1, c1, o2, c2, n, m, s, point)
        assert r.equality_holds
        done += 1


def test_mixed_product_statement_pairing():
    # the statement pairing (x*, y*) is computable when m == s but pairs the
    # wrong dual blocks: on this instance it yields a strict superset and the
    # asserted equality fails, while the proof pairing is exact -- the reason
    # the proof reading is the default
    o1 = PolySet.from_poly(ConvexPoly.make(2, [(vec(-1, 0), Fraction(0)), (vec(0, -1), Fraction(0))]))
    o2 = PolySet.from_poly(ConvexPoly.whole_space(1))
    c1 = ConvexPoly.whole_space(2)
    c2 = ConvexPoly.whole_space(1)
    r1 = mixed_product_rule(o1, c1, o2, c2, 1, 1, 1, vec(0, 0, 0), "proof")
    r2 = mixed_product_rule(o1, c1, o2, c2, 1, 1, 1, vec(0, 0, 0), "statement")
    assert r1.equality_holds
    assert not r2.equality_holds
    assert r1.lhs.subset_of(r2.rhs)[0]  # statement side over-approximates
    with pytest.raises(ValueError):
        mixed_product_rule(o1, c1, PolySet.from_poly(ConvexPoly.whole_space(2)),
                           ConvexPoly.whole_space(2), 1, 2, 1, vec(0, 0, 0, 0), "statement")


# -- qualification checks --------------------------------------------------------


def test_lqc_example1_both_pairs():
    ex = make_example1()
    assert lqc_wrt_check(ex.omega1, ex.omega2, ex.c, ex.c, ex.origin).value == HOLDS
    assert (
        lqc_wrt_check(ex.omega1, ex.omega2, ex.c_full, ex.c, ex.origin).value == HOLDS
    )


def test_lqc_fails_with_certificate():
    point_set = PolySet.from_poly(
        ConvexPoly.make(1, [], [(vec(1), Fraction(0))])
    )  # {0}
    v = lqc_wrt_check(
        point_set,
        point_set,
        ConvexPoly.whole_space(1),
        ConvexPoly.whole_space(1),
        vec(0),
    )
    assert v.value == FAILS
    cert = v.certificate["vector"]
    n1 = limiting_normal(point_set, vec(0))
    assert n1.contains(cert) and n1.contains(tuple(-c for c in cert))


def test_normal_densed_example1():
    ex = make_example1()
    assert (
        normal_densed_check(ex.omega1, ex.omega2, ex.c, ex.c, ex.origin).value == HOLDS
    )
    v = normal_densed_check(ex.omega1, ex.omega2, ex.c_full, ex.c, ex.origin)
    assert v.value == FAILS
    assert v.certificate["sum"] is not None


def test_normal_densed_certificate_reverifies():
    # the certificate sum lies in the achievable set S and outside M;
    # the hand-computed (1,0,-2) certifies the same failure
    ex = make_example1()
    c = ex.c_full.intersect(ex.c)
    limit_radial = boundary_radial_limit(ex.omega1, ex.omega2, c, ex.origin)
    s_set = (
        limiting_normal(cap_poly(ex.omega1, ex.c_full), ex.origin)
        .minkowski(limiting_normal(cap_poly(ex.omega2, ex.c), ex.origin))
        .intersect(limit_radial)
    )
    m_set = limiting_normal_wrt(ex.omega1, ex.c_full, ex.origin).minkowski(
        limiting_normal_wrt(ex.omega2, ex.c, ex.origin)
    )
    v = normal_densed_check(ex.omega1, ex.omega2, ex.c_full, ex.c, ex.origin)
    engine_cert = v.certificate["sum"]
    for cert in (engine_cert, vec(1, 0, -2)):
        assert s_set.contains(cert) and not m_set.contains(cert)


def test_lqc_with_neighborhoods_reduces_to_classical():
    # when both reference sets are neighborhoods of the base point the
    # relative condition coincides with the classical one
    rng = random.Random(113)
    done = 0
    while done < 10:
        dim = rng.randint(1, 2)
        base = rng_vec(rng, dim, -1, 1)
        o1 = random_polyset_through(rng, dim, base)
        o2 = random_polyset_through(rng, dim, base)
        box_rows_ = []
        for i in range(dim):
            e = [Fraction(0)] * dim
            e[i] = Fraction(1)
            box_rows_.append((tuple(e), base[i] + 1))
            e2 = [Fraction(0)] * dim
            e2[i] = Fraction(-1)
            box_rows_.append((tuple(e2), 1 - base[i]))
        box = ConvexPoly.make(dim, box_rows_)
        v = lqc_wrt_check(o1, o2, box, box, base)
        classical = (
            limiting_normal(o1, base)
            .intersect(limiting_normal(o2, base).negate())
            .is_zero_cone()
        )
        assert v.value == (HOLDS if classical else FAILS)
        done += 1


def test_intersection_rule_neighborhood_c2_identities():
    # with c2 a neighborhood of the base point: N_C(x, Omega) = N_{C1}(x, Omega)
    # and the bound can use the classical cone of omega2
    ex = make_example1()
    box = ConvexPoly.make(
        3,
        [
            (vec(1, 0, 0), Fraction(1)),
            (vec(-1, 0, 0), Fraction(1)),
            (vec(0, 1, 0), Fraction(1)),
            (vec(0, -1, 0), Fraction(1)),
            (vec(0, 0, 1), Fraction(1)),
            (vec(0, 0, -1), Fraction(1)),
        ],
    )
    omega = ex.omega1.intersect(ex.omega2)
    lhs_both = limiting_normal_wrt(omega, ex.c.intersect(box), ex.origin)
    lhs_c1 = limiting_normal_wrt(omega, ex.c, ex.origin)
    assert lhs_both == lhs_c1
    bound = limiting_normal_wrt(ex.omega1, ex.c, ex.origin).minkowski(
        limiting_normal(ex.omega2, ex.origin)
    )
    assert lhs_both.subset_of(bound)[0]


def test_normal_densed_interior_holds():
    # both reference sets contain the base point in their interior
    box = ConvexPoly.make(
        1, [(vec(1), Fraction(1)), (vec(-1), Fraction(1))]
    )
    ex_set = halfline_set()
    v = normal_densed_check(ex_set, ex_set, box, box, vec(0))
    assert v.value == HOLDS
    assert v.certificate == {"reason": "no boundary approach"}


def ref_boundary_radial_limit(omega1, omega2, c, x):
    """`boundary_radial_limit` as it was: a dot product per row of c and one
    radial cone per cell."""
    lower_dimensional = bool(c.eqs)
    cells = local_cells([omega1, omega2, c], x)
    parts = []
    for cell in cells:
        w = cell.witness
        on_boundary = lower_dimensional or any(
            dot(a, w) == b for a, b in c.ineqs
        )
        if on_boundary:
            parts.append(radial_cone(c, w))
    return ConeUnion.make(c.dim, parts)


def test_boundary_radial_limit_matches_per_cell_reference():
    rng = random.Random("boundary-radial-limit")
    seen = {"c with equalities": 0, "x interior to c": 0, "nonempty": 0}
    for _ in range(80):
        dim = rng.randint(1, 3)
        x = rng_vec(rng, dim, -1, 1)
        omega1 = random_polyset_through(rng, dim, x, max_pieces=2)
        omega2 = random_polyset_through(rng, dim, x, max_pieces=2)
        c = random_poly_through(rng, dim, x, max_rows=3)
        if rng.random() < 0.3:
            e = rng_vec(rng, dim, -2, 2)
            c = c.intersect(ConvexPoly.make(dim, [], [(e, dot(e, x))]))
        got = boundary_radial_limit(omega1, omega2, c, x)
        assert got.parts == ref_boundary_radial_limit(omega1, omega2, c, x).parts
        seen["c with equalities"] += bool(c.eqs)
        seen["x interior to c"] += not c.eqs and all(dot(a, x) < b for a, b in c.ineqs)
        seen["nonempty"] += not got.is_empty()
    assert min(seen.values()) >= 10, seen


# -- intersection rule -----------------------------------------------------------


def test_intersection_rule_example2_both_configs():
    ex = make_example1()
    good = intersection_rule(ex.omega1, ex.omega2, ex.c, ex.c, ex.origin)
    assert good.hypotheses_hold() and good.inclusion_holds
    bad = intersection_rule(ex.omega1, ex.omega2, ex.c_full, ex.c, ex.origin)
    assert not bad.inclusion_holds
    assert bad.witness is not None
    assert bad.lhs.contains(bad.witness) and not bad.rhs.contains(bad.witness)
    # the hand-computed witness certifies the same violation
    assert bad.lhs.contains(vec(1, 0, -2)) and not bad.rhs.contains(vec(1, 0, -2))


def test_rule_memo_lives_for_one_outermost_call(monkeypatch):
    """A rule call's memo of patterns and cones is dropped when the call
    returns or raises: the next call on the same input searches again, so a
    lowered active-row limit stops it.  Nested rule calls share the memo."""
    ex = make_example1()
    args = (ex.omega1, ex.omega2, ex.c_full, ex.c, ex.origin)
    first = render(intersection_rule(*args))
    assert cones._memo is None
    with monkeypatch.context() as patch:
        patch.setattr(stratify, "ACTIVE_ROW_LIMIT", 1)
        with pytest.raises(stratify.ActiveRowLimitError):
            intersection_rule(*args)
    assert cones._memo is None
    assert render(intersection_rule(*args)) == first

    searches = []  # of `_patterns`, not the unmemoized boundary search
    real = stratify.local_cells
    monkeypatch.setattr(cones, "local_cells", lambda *a: searches.append(a) or real(*a))
    intersection_rule(*args)
    once = len(searches)
    searches.clear()
    twice = cones.rule_scope(lambda: [render(intersection_rule(*args)) for _ in range(2)])
    assert twice() == [first, first]
    assert once == 3 and len(searches) == once and cones._memo is None


def test_intersection_rule_convex_whole_space():
    o = halfline_set()
    r = intersection_rule(
        o, o, ConvexPoly.whole_space(1), ConvexPoly.whole_space(1), vec(0)
    )
    assert r.hypotheses_hold() and r.inclusion_holds


def test_intersection_rule_guarded_random():
    rng = random.Random(107)
    done = 0
    while done < 20:
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        o1 = random_polyset_through(rng, dim, base)
        o2 = random_polyset_through(rng, dim, base)
        c1 = random_poly_through(rng, dim, base)
        c2 = random_poly_through(rng, dim, base)
        r = intersection_rule(o1, o2, c1, c2, base)
        if r.hypotheses_hold():
            assert r.inclusion_holds, (o1, o2, c1, c2, base)
        done += 1


# -- preimage rule ----------------------------------------------------------------


def test_preimage_identity_map():
    F = PolyMultimap.linear(((Fraction(1),),), 1, 1)
    theta = halfline_set()
    r = preimage_rule(F, theta, ConvexPoly.whole_space(1), vec(0))
    assert r.hypotheses_hold() and r.inclusion_holds
    # equality for the identity: both sides are N(0, theta) = R_-
    assert r.rhs.contains(vec(-5)) and not r.rhs.contains(vec(1))


def test_preimage_final_example_map():
    # G(x) = R_+ for x >= 0, Theta = {0}: preimage = [0, inf)
    g_graph = PolySet.from_poly(
        ConvexPoly.make(2, [(vec(-1, 0), Fraction(0)), (vec(0, -1), Fraction(0))])
    )
    G = PolyMultimap(1, 1, g_graph)
    theta = PolySet.from_poly(ConvexPoly.make(1, [], [(vec(1), Fraction(0))]))
    c = ConvexPoly.whole_space(1)
    r = preimage_rule(G, theta, c, vec(0))
    lhs = limiting_normal(halfline_set(), vec(0))
    assert r.lhs == lhs
    if r.hypotheses_hold():
        assert r.inclusion_holds


def test_preimage_guarded_random():
    rng = random.Random(109)
    done = 0
    while done < 50:
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        x = rng_vec(rng, n, -1, 1)
        y = rng_vec(rng, m, -1, 1)
        F = random_linear_map(rng, n, m)
        # make sure x maps to y under F by shifting theta through F(x)
        fx = F.value_set(x)
        target = fx.pieces[0].feasible_point()
        theta = random_polyset_through(rng, m, target)
        c = random_poly_through(rng, n, x)
        try:
            r = preimage_rule(F, theta, c, x)
        except ValueError:
            continue
        if r.hypotheses_hold():
            assert r.inclusion_holds, (F, theta, c, x)
        done += 1
