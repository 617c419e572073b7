"""Piecewise-linear functions: subdifferential slices, Lipschitz, Fermat."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_plfunc, random_poly_through, ref_limiting_normal_wrt, rng_vec
from polyvar import lp
from polyvar.exactgeom import ConvexPoly, PolySet, PolyUnion
from polyvar.linalg import dot, neg, vec, zero
from polyvar.plfunc import (
    _UP,
    KIND_FRECHET,
    KIND_HORIZON,
    KIND_LIMITING,
    PLFunc,
    fermat_check,
    lipschitz_wrt_check,
    subdiff_via_coderivative,
    subdiff_wrt,
)
from polyvar.verdicts import FAILS, HOLDS, TriVerdict


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


def test_subdiff_matches_the_reference_epigraph_cone():
    """x* is a limiting subgradient iff (x*, -1) is a limiting normal of
    epi f relative to C x R, and a horizon one iff (x*, 0) is, with the cone
    built by the test reference from epi f ∩ (C x R) piece by piece.  Every
    third f is affine on a polyhedron through the base, so that its horizon
    subdifferential need not be {0}."""
    rng = random.Random(331)
    lattice = [Fraction(k, 2) for k in range(-6, 7)]
    members = Counter()
    for k in range(18):
        dim = rng.randint(1, 2)
        x = zero(dim)
        if k % 3 == 2:
            domain = random_poly_through(rng, dim, x)
            f = PLFunc.affine(dim, rng_vec(rng, dim, -2, 2), 0, domain=domain)
        else:
            f = random_plfunc(rng, dim)
        c = random_poly_through(rng, dim, x) if k % 2 else ConvexPoly.whole_space(dim)
        lift = [(a + (0,), b) for a, b in c.ineqs], [(e + (0,), d) for e, d in c.eqs]
        wrt = ConvexPoly.make(dim + 1, *lift)
        ref = ref_limiting_normal_wrt(f.epi, wrt, x + (f.value(x),))
        lim = subdiff_wrt(f, c, x, KIND_LIMITING).value
        hor = subdiff_wrt(f, c, x, KIND_HORIZON).value
        for u in itertools.product(lattice, repeat=dim):
            assert lim.contains(u) == ref.contains(u + (-1,)), (f, c, u)
            assert hor.contains(u) == ref.contains(u + (0,)), (f, c, u)
            members["limiting"] += lim.contains(u)
            members["horizon, nonzero"] += hor.contains(u) and any(u)
    assert min(members.values()) >= 10, members


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


def _counted(monkeypatch, cls, name: str) -> list:
    """Record the arguments of every call of the method `cls.name`."""
    calls = []
    real = getattr(cls, name)

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_from_epigraph_pieces_projects_nothing(monkeypatch):
    """A PLFunc is its dimension and epigraph: building one projects no
    piece."""
    calls = _counted(monkeypatch, ConvexPoly, "eliminate")
    rng = random.Random(419)
    identity_f()
    PLFunc.affine(2, vec(1, 2), 7, domain=ConvexPoly.make(2, [(vec(-1, 0), Fraction(0))]))
    PLFunc.from_epigraph_pieces(
        1,
        [
            ConvexPoly.make(2, [(vec(1, -1), Fraction(0))]),
            ConvexPoly.make(2, [(vec(-1, -1), Fraction(0))]),
        ],
    )
    for _ in range(5):
        random_plfunc(rng, rng.randint(1, 3))
    assert calls == []
    assert PLFunc.__match_args__ == ("dim", "epi")


def test_lipschitz_and_fermat_evaluate_f_once(monkeypatch):
    """Each check evaluates f at the base point once, and its verdicts are
    those read off the public `subdiff_wrt`."""
    rng = random.Random(421)
    kink = PLFunc.from_epigraph_pieces(
        1,
        [
            ConvexPoly.make(2, [(vec(1, -1), Fraction(0))]),
            ConvexPoly.make(2, [(vec(-1, -1), Fraction(0))]),
        ],
    )
    cases = [
        (identity_f(), halfline(), vec(0)),
        (identity_f(), ConvexPoly.whole_space(1), vec(0)),
        (PLFunc.affine(1, vec(0), 0, domain=halfline()), ConvexPoly.whole_space(1), vec(0)),
        (PLFunc.max_affine(1, [(vec(1), 0), (vec(-1), 0)]), interval("-1"), vec(0)),
        (kink, ConvexPoly.whole_space(1), vec(0)),
    ] + [(random_plfunc(rng, 2), ConvexPoly.whole_space(2), zero(2)) for _ in range(3)]
    for f, c, x in cases:
        horizon = subdiff_wrt(f, c, x, KIND_HORIZON).value
        origin = zero(f.dim)
        expected = (
            TriVerdict.zero_cone(horizon.recession()),
            {
                "is_stationary_frechet": subdiff_wrt(f, c, x, KIND_FRECHET).value.contains(origin),
                "is_stationary_limiting": subdiff_wrt(f, c, x, KIND_LIMITING).value.contains(origin),
            },
        )
        calls = _counted(monkeypatch, PLFunc, "value")
        lipschitz = lipschitz_wrt_check(f, c, x)
        assert calls == [(x,)]
        fermat = fermat_check(f, c, x)
        assert calls == [(x,), (x,)]
        monkeypatch.undo()
        assert (lipschitz, fermat) == expected, (f, c, x)


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


# -- PLFunc.value against the one-LP-per-piece minimum it replaced -----------


def ref_value(f: PLFunc, x):
    """`PLFunc.value` as it was: the least alpha of each fiber by LP."""
    best = None
    obj = zero(f.dim) + (Fraction(1),)
    for p in f.epi.pieces:
        eqs = list(p.eqs) + [
            (tuple(Fraction(1 if j == i else 0) for j in range(f.dim + 1)), x[i])
            for i in range(f.dim)
        ]
        status, _, val = lp.solve(obj, list(p.ineqs), eqs, f.dim + 1, maximize=False)
        if status == lp.OPTIMAL and val is not None:
            best = val if best is None else min(best, val)
        elif status == lp.UNBOUNDED:
            raise ValueError(_UP)
    return best


def _random_epi_piece(rng: random.Random, dim: int, kind: str) -> ConvexPoly:
    """alpha >= a.x + b on a random domain; "band" adds an upper bound and
    "graph" makes alpha = a.x + b, whose fibers are points."""
    up = (Fraction(1),)
    slope, offset = rng_vec(rng, dim, -2, 2), Fraction(rng.randint(-2, 2))
    ineqs = [(slope + (Fraction(-1),), -offset)]
    eqs = []
    for _ in range(rng.randint(0, 2)):
        ineqs.append((rng_vec(rng, dim, -2, 2) + (Fraction(0),), Fraction(rng.randint(-1, 2))))
    if kind == "band":
        ineqs.append((neg(rng_vec(rng, dim, -1, 1)) + up, offset + rng.randint(0, 3)))
    elif kind == "graph":
        eqs.append((neg(slope) + up, offset))
    return ConvexPoly.make(dim + 1, ineqs, eqs)


def _value_cases():
    """Seeded PL functions, several pieces each, and points in and out of
    their domains."""
    rng = random.Random("pl-values")
    for _ in range(60):
        dim = rng.randint(1, 3)
        kinds = [rng.choice(["epi", "band", "graph"]) for _ in range(rng.randint(1, 3))]
        pieces = [_random_epi_piece(rng, dim, kind) for kind in kinds]
        if rng.random() < 0.3:
            f = PLFunc.from_epigraph_pieces(dim, pieces)
        else:
            f = PLFunc(dim, PolySet.make(dim + 1, pieces))
        for _ in range(4):
            yield f, rng_vec(rng, dim, -2, 2)
    for _ in range(10):
        dim = rng.randint(1, 3)
        yield random_plfunc(rng, dim), rng_vec(rng, dim, -2, 2)


def test_value_matches_the_lp_minimum():
    seen = {"finite": 0, "outside": 0, "point fiber": 0, "several pieces": 0}
    for f, x in _value_cases():
        expected = ref_value(f, x)
        assert f.value(x) == expected, (f, x)
        seen["several pieces"] += len(f.epi.pieces) > 1
        if expected is None:
            seen["outside"] += 1
            continue
        seen["finite"] += 1
        # an equality with a nonzero alpha entry makes the fiber a point
        at = [p for p in f.epi.pieces if p.contains(x + (expected,))]
        seen["point fiber"] += any(e[-1] for p in at for e, _ in p.eqs)
    assert min(seen.values()) >= 20, seen


def test_value_solves_no_lp(monkeypatch):
    cases = [(f, x, ref_value(f, x)) for f, x in _value_cases()]

    def no_lp(*args, **kwargs):
        raise AssertionError("PLFunc.value solved an LP")

    monkeypatch.setattr(lp, "solve", no_lp)
    for f, x, expected in cases:
        assert f.value(x) == expected


def test_value_of_a_fiber_unbounded_below_raises():
    # x + alpha <= 0: the fiber over 0 is alpha <= 0, with no least point
    f = PLFunc(1, PolySet.make(2, [ConvexPoly.make(2, [(vec(1, 1), Fraction(0))])]))
    for value in (f.value, lambda x: ref_value(f, x)):
        with pytest.raises(ValueError, match="unbounded below"):
            value(vec(0))
