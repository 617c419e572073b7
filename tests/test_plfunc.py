"""Piecewise-linear functions: subdifferential slices, Lipschitz, Fermat."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_plfunc, rng_vec
from polyvar.exactgeom import ConvexPoly, PolyUnion
from polyvar.linalg import dot, vec, zero
from polyvar.plfunc import (
    KIND_FRECHET,
    KIND_HORIZON,
    KIND_LIMITING,
    PLFunc,
    fermat_check,
    lipschitz_wrt_check,
    subdiff_via_coderivative,
    subdiff_wrt,
)
from polyvar.verdicts import FAILS, HOLDS


def identity_f() -> PLFunc:
    return PLFunc.affine(1, vec(1), 0)


def halfline() -> ConvexPoly:
    return ConvexPoly.make(1, [(vec(-1), Fraction(0))])


def interval(value: str = "0", hi: str = "1") -> ConvexPoly:
    return ConvexPoly.make(
        1, [(vec(-1), -Fraction(value)), (vec(1), Fraction(hi))]
    )


def test_final_example_subdifferentials():
    f = identity_f()
    lim = subdiff_wrt(f, halfline(), vec(0), KIND_LIMITING)
    assert lim.value.same_set(
        PolyUnion.make(
            1,
            [ConvexPoly.make(1, [(vec(-1), Fraction(0)), (vec(1), Fraction(1))])],
        )
    )  # [0, 1]
    classical = subdiff_wrt(f, ConvexPoly.whole_space(1), vec(0), KIND_LIMITING)
    assert classical.value.same_set(
        PolyUnion.make(1, [ConvexPoly.make(1, [], [(vec(1), Fraction(1))])])
    )  # {1}


def test_affine_interior_cases():
    f = PLFunc.affine(2, vec(3, -2), Fraction(5))
    box = ConvexPoly.make(
        2,
        [
            (vec(1, 0), Fraction(1)),
            (vec(-1, 0), Fraction(1)),
            (vec(0, 1), Fraction(1)),
            (vec(0, -1), Fraction(1)),
        ],
    )
    for kind in (KIND_FRECHET, KIND_LIMITING):
        s = subdiff_wrt(f, box, vec(0, 0), kind)
        assert s.value.same_set(
            PolyUnion.make(
                2,
                [ConvexPoly.make(2, [], [(vec(1, 0), Fraction(3)), (vec(0, 1), Fraction(-2))])],
            )
        )
    h = subdiff_wrt(f, box, vec(0, 0), KIND_HORIZON)
    assert h.value.contains(zero(2))
    assert h.value.same_set(
        PolyUnion.make(2, [ConvexPoly.make(2, [], [(vec(1, 0), Fraction(0)), (vec(0, 1), Fraction(0))])])
    )


def test_outside_domain_is_empty():
    dom = halfline()
    f = PLFunc.affine(1, vec(0), 0, domain=dom)
    s = subdiff_wrt(f, ConvexPoly.whole_space(1), vec(-1), KIND_LIMITING)
    assert s.value.is_empty()


def test_subdiff_via_coderivative_final_examples():
    f = identity_f()
    for c in (halfline(), ConvexPoly.whole_space(1)):
        a = subdiff_wrt(f, c, vec(0), KIND_LIMITING)
        b = subdiff_via_coderivative(f, c, vec(0), KIND_LIMITING)
        assert a.value.same_set(b.value)
        ah = subdiff_wrt(f, c, vec(0), KIND_HORIZON)
        bh = subdiff_via_coderivative(f, c, vec(0), KIND_HORIZON)
        assert ah.value.same_set(bh.value)


def test_subdiff_via_coderivative_random():
    rng = random.Random(307)
    done = 0
    while done < 20:
        dim = rng.randint(1, 3)
        f = random_plfunc(rng, dim)
        x = zero(dim)
        c = ConvexPoly.whole_space(dim)
        if rng.random() < 0.5:
            c = ConvexPoly.make(dim, [(rng_vec(rng, dim, -2, 2), Fraction(0))])
            if not c.contains(x):
                continue
        a = subdiff_wrt(f, c, x, KIND_LIMITING)
        b = subdiff_via_coderivative(f, c, x, KIND_LIMITING)
        assert a.value.same_set(b.value), (f, c)
        done += 1


def test_frechet_subset_of_limiting_random():
    rng = random.Random(311)
    for _ in range(15):
        dim = rng.randint(1, 2)
        f = random_plfunc(rng, dim)
        c = ConvexPoly.whole_space(dim)
        fre = subdiff_wrt(f, c, zero(dim), KIND_FRECHET)
        lim = subdiff_wrt(f, c, zero(dim), KIND_LIMITING)
        assert fre.value.subset_of(lim.value)[0]


def test_lipschitz_final_example_and_indicator():
    f = identity_f()
    assert lipschitz_wrt_check(f, halfline(), vec(0)).value == HOLDS
    g = PLFunc.affine(1, vec(0), 0, domain=halfline())
    v = lipschitz_wrt_check(g, ConvexPoly.whole_space(1), vec(0))
    assert v.value == FAILS
    # restricted to its domain the same function is Lipschitz
    assert lipschitz_wrt_check(g, halfline(), vec(0)).value == HOLDS


def test_lipschitz_affine_everywhere():
    f = PLFunc.affine(2, vec(1, 2), 7)
    assert lipschitz_wrt_check(f, ConvexPoly.whole_space(2), vec(3, -1)).value == HOLDS


def test_fermat_final_examples():
    f = identity_f()
    both = fermat_check(f, halfline(), vec(0))
    assert both["is_stationary_frechet"] and both["is_stationary_limiting"]
    neither = fermat_check(f, ConvexPoly.whole_space(1), vec(0))
    assert not neither["is_stationary_frechet"]
    assert not neither["is_stationary_limiting"]


def test_fermat_absolute_value():
    f = PLFunc.max_affine(1, [(vec(1), 0), (vec(-1), 0)])
    r = fermat_check(f, ConvexPoly.whole_space(1), vec(0))
    assert r["is_stationary_frechet"] and r["is_stationary_limiting"]


def test_whole_space_reduction_to_classical_subdifferentials():
    # |x| at 0: the classical limiting subdifferential is [-1, 1]
    f = PLFunc.max_affine(1, [(vec(1), 0), (vec(-1), 0)])
    s = subdiff_wrt(f, ConvexPoly.whole_space(1), vec(0), KIND_LIMITING)
    assert s.value.same_set(
        PolyUnion.make(
            1, [ConvexPoly.make(1, [(vec(1), Fraction(1)), (vec(-1), Fraction(1))])]
        )
    )
    # max(x, 2x) at 0: [1, 2]
    g = PLFunc.max_affine(1, [(vec(1), 0), (vec(2), 0)])
    t = subdiff_wrt(g, ConvexPoly.whole_space(1), vec(0), KIND_LIMITING)
    assert t.value.same_set(
        PolyUnion.make(
            1, [ConvexPoly.make(1, [(vec(1), Fraction(2)), (vec(-1), Fraction(-1))])]
        )
    )


def test_min_of_affines_union_epigraph():
    # f = min(x, -x) = -|x| via a two-piece epigraph; not stationary at 0
    # for the Fréchet kind (no subgradient at a concave kink)
    f = PLFunc.from_epigraph_pieces(
        1,
        [
            ConvexPoly.make(2, [(vec(1, -1), Fraction(0))]),
            ConvexPoly.make(2, [(vec(-1, -1), Fraction(0))]),
        ],
    )
    assert f.value(vec(2)) == Fraction(-2)
    r = fermat_check(f, ConvexPoly.whole_space(1), vec(0))
    assert not r["is_stationary_frechet"]


def test_improper_epigraph_rejected():
    with pytest.raises(ValueError):
        PLFunc.from_epigraph_pieces(1, [ConvexPoly.whole_space(2)])


def test_grid_minimizer_soundness_random():
    """Contrapositive check: on convex instances a grid-discovered strict
    improvement next to the base point must kill Fréchet stationarity."""
    rng = random.Random(313)
    checked = 0
    while checked < 50:
        dim = rng.randint(1, 2)
        f = random_plfunc(rng, dim)  # convex (max of affines), f(0) = 0
        c = ConvexPoly.whole_space(dim)
        r = fermat_check(f, c, zero(dim))
        if not r["is_stationary_frechet"]:
            checked += 1
            continue
        # 0 claims stationarity; since f is convex it is a true minimum on
        # the ball, so the grid must not find anything strictly smaller
        step = Fraction(1, 16)
        for delta in itertools.product(
            [k * step for k in range(-16, 17)], repeat=dim
        ):
            val = f.value(delta)
            assert val is None or val >= 0, (f, delta, val)
        checked += 1
