"""Strata read by their signs, against the same reads at their witnesses.

The three pattern readers, `cones._patterns`, `quals.boundary_radial_limit`
and `multimaps.inner_regularity_check`, read which pieces hold a stratum and
which of their rows are tight there off its signs (`Cell.tight_rows`) and
build no point.  Each is checked here against its point-read form, kept
below as the reference: build the stratum's witness and evaluate every row
there.  `_step` is counted to show which witnesses get built at all, and
`_canon_h_rows`, which skips its second echelon pass when the double
description finds no implied equality, is checked against a reference that
always runs it.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path

from conftest import (
    criterion6_draws,
    random_multimap_through,
    random_poly_through,
    random_polyset_through,
    rng_vec,
)
from polyvar import cones, exactgeom, multimaps, quals, stratify
from polyvar.calculus import intersection_rule
from polyvar.exactgeom import ConeH, ConeUnion, ConvexPoly, PolySet
from polyvar.linalg import dot, excess_at, integer_row, rref_ints, zero
from polyvar.multimaps import PolyMultimap, inner_regularity_check
from polyvar.problemfile import load_path
from polyvar.verdicts import FAILS, HOLDS, VARIANT_SEMICONTINUOUS

EVERY_OP = Path(__file__).parent / "data" / "every_op.json"


# -- the point-read forms, kept as references ----------------------------------


def point_read_patterns(omega, wrt, point):
    """`cones._patterns` through the rows at each stratum's witness."""
    if not (omega.contains(point) and wrt.contains(point)):
        return frozenset()
    cells = stratify.local_cells([omega, wrt], point)
    return frozenset(cones._rows_at(omega, cell.witness, wrt) for cell in cells)


def point_read_radial_limit(omega1, omega2, c, x):
    """`quals.boundary_radial_limit` through c's rows at each witness, with a
    cell search on every call."""
    cells = stratify.local_cells([omega1, omega2, c], x)
    tight = {tuple(cones._active_rows(c, excess_at(cell.witness))[0]) for cell in cells}
    eqs = [e for e, _ in c.eq_rows]
    return ConeUnion.make(c.dim, [ConeH.from_rows(c.dim, a, eqs) for a in tight if a or eqs])


def point_read_semicontinuity(F, c, base):
    """`inner_regularity_check` under semicontinuity through membership
    tests at each witness."""
    n, m = F.in_dim, F.out_dim
    xbar = base[:n]
    if not c.contains(xbar):
        return HOLDS, None
    proj = [p.eliminate(tuple(range(n, n + m))) for p in F.graph.pieces]
    proj_a = [q for p, q in zip(F.graph.pieces, proj) if p.contains(base)]
    dom = PolySet.make(n, [q.intersect(c) for q in proj])
    for cell in stratify.local_cells([dom, PolySet.make(n, dom.pieces + tuple(proj_a))], xbar):
        if not any(q.contains(cell.witness) for q in proj_a):
            return FAILS, cell.witness
    return HOLDS, None


def _check_cells(sets, cells, seen):
    """Each stratum's sign reads are the point reads at its witness: per
    piece, held exactly when it holds the witness, with the normals of the
    rows tight there."""
    for cell in cells:
        w = cell.witness
        for s, pieces in enumerate(sets):
            for p, t in zip(stratify._as_pieces(pieces), cell.tight_rows(s)):
                found = cones._active_rows(p, excess_at(w))
                assert t == (found and tuple(found[0])), (sets, cell)
                seen["held" if t is not None else "missed"] += 1
        seen["unbranched"] += None in cell.signs


def _checked_searches(monkeypatch, seen):
    """Every cell search of the readers from now on checks its cells."""
    real = stratify.local_cells

    def checked(sets, point):
        cells = real(sets, point)
        _check_cells(sets, cells, seen)
        seen["searches"] += 1
        return cells

    for module in (cones, quals, multimaps):
        monkeypatch.setattr(module, "local_cells", checked)


def _criterion5_cones(seed, count):
    """(omega, wrt, base) drawn as criterion 5 draws its cone instances."""
    rng = random.Random(seed)
    while count:
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        omega = random_polyset_through(rng, dim, base, max_pieces=4)
        wrt = random_poly_through(rng, dim, base)
        if omega.contains(base) and wrt.contains(base):
            count -= 1
            yield omega, wrt, base


def _off_value_maps(seed, count):
    """(F, c, base) with graphs cut to a halfspace of inputs through x̄ and a
    piece through a point near x̄ with another value, as in
    `test_multimaps`, so that semicontinuity often fails."""
    rng = random.Random(seed)
    small = [Fraction(0), Fraction(1, 10), Fraction(-1, 100)]
    for _ in range(count):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        xbar, ybar = rng_vec(rng, n, -1, 1), rng_vec(rng, m, -1, 1)
        F = random_multimap_through(rng, n, m, xbar, ybar)
        a = rng_vec(rng, n, -2, 2)
        cut = ConvexPoly.make(n + m, [(a + zero(m), dot(a, xbar))])
        near = tuple(x + rng.choice(small) for x in xbar)
        extra = random_poly_through(rng, n + m, near + rng_vec(rng, m, -2, 2))
        pieces = [p.intersect(cut) for p in F.graph.pieces] + [extra]
        F = PolyMultimap(n, m, PolySet.make(n + m, pieces))
        c = ConvexPoly.whole_space(n)
        a = rng_vec(rng, n, -2, 2)
        if rng.random() < 0.5 and any(a):
            c = ConvexPoly.make(n, [(a, dot(a, xbar))])
        yield F, c, xbar + ybar


# -- sign reads against point reads ---------------------------------------------


def test_patterns_read_off_signs_match_the_rows_at_the_witnesses(monkeypatch):
    seen = Counter()
    _checked_searches(monkeypatch, seen)
    for omega, wrt, base in _criterion5_cones(seed=5150, count=100):
        got = cones._patterns(omega, wrt, base)
        assert got == point_read_patterns(omega, wrt, base), (omega, wrt, base)
        seen["shared pattern"] += len(got) < len(stratify.local_cells([omega, wrt], base))
    assert seen["searches"] >= 100 and min(seen.values()) >= 10, seen


def test_rules_read_the_same_patterns_sets_and_pieces(monkeypatch):
    """Criterion 6's draws, the sum and chain rules under semicontinuity:
    every pattern set, radial limit and semicontinuity verdict the rules
    read equals its point-read form, and so does every stratum searched."""
    seen = Counter()
    _checked_searches(monkeypatch, seen)
    patterns, radial, inner = cones._patterns, quals.boundary_radial_limit, inner_regularity_check

    def patterns_checked(omega, wrt, point):
        got = patterns(omega, wrt, point)
        assert got == point_read_patterns(omega, wrt, point)
        seen["patterns"] += 1
        return got

    def radial_checked(omega1, omega2, c, x):
        got = radial(omega1, omega2, c, x)
        assert got == point_read_radial_limit(omega1, omega2, c, x)
        seen["radial, no search" if not any(excess_at(x)(a, b) == 0 for a, b in c.rows)
             and not c.eq_rows else "radial, searched"] += 1
        return got

    def inner_checked(F, c, base, mode):
        got = inner(F, c, base, mode)
        if mode == VARIANT_SEMICONTINUOUS:
            want = point_read_semicontinuity(F, c, base)
            assert (got.value, got.certificate.get("witness")) == want
            seen["semicontinuity " + got.value] += 1
        return got

    for module in (cones, quals):
        monkeypatch.setattr(module, "_patterns", patterns_checked)
    monkeypatch.setattr(quals, "boundary_radial_limit", radial_checked)
    monkeypatch.setattr(multimaps, "inner_regularity_check", inner_checked)
    for name, rule, args in criterion6_draws():
        if rule in (multimaps.sum_rule, multimaps.chain_rule):
            rule(*args, variant=VARIANT_SEMICONTINUOUS)
        else:
            rule(*args)
    assert seen["radial, no search"] >= 10 and seen["radial, searched"] >= 10, seen
    assert seen["patterns"] >= 100 and seen["semicontinuity holds"] >= 30, seen


def test_semicontinuity_read_off_signs_matches_its_point_read_form(monkeypatch):
    seen = Counter()
    _checked_searches(monkeypatch, seen)
    for F, c, base in _off_value_maps(seed=3400, count=120):
        got = inner_regularity_check(F, c, base, VARIANT_SEMICONTINUOUS)
        want = point_read_semicontinuity(F, c, base)
        assert (got.value, got.certificate.get("witness")) == want, (F.graph, c, base)
        seen[got.value] += 1
    assert seen[HOLDS] >= 20 and seen[FAILS] >= 20, seen


# -- which witnesses get built --------------------------------------------------


def _witness_builds(monkeypatch):
    """The count of witnesses built from now on: the `_step` calls that start
    from a search's own base.  The search's own steps start from points it
    made (a direction from the base), never from that object."""
    bases, built = [], [0]
    search, step = stratify._cells, stratify._step

    def searched(sets, base):
        bases.append(base)
        return search(sets, base)

    def counted(p, d, rows):
        built[0] += any(p is b for b in bases)
        return step(p, d, rows)

    monkeypatch.setattr(stratify, "_cells", searched)
    monkeypatch.setattr(stratify, "_step", counted)
    return bases, built


def test_readers_build_no_witness_they_do_not_report(monkeypatch):
    bases, built = _witness_builds(monkeypatch)
    for omega, wrt, base in _criterion5_cones(seed=5151, count=40):
        cones.limiting_normal_wrt(omega, wrt, base)
    for _, rule, args in criterion6_draws():
        if rule is intersection_rule:
            quals.normal_densed_check(*args)
    assert built == [0] and len(bases) >= 100, (built, len(bases))
    # a semicontinuity check builds one point when it fails, its witness
    verdicts = Counter()
    for F, c, base in _off_value_maps(seed=3401, count=60):
        before = built[0]
        v = inner_regularity_check(F, c, base, VARIANT_SEMICONTINUOUS)
        assert built[0] - before == (v.value == FAILS), (F.graph, c, base)
        verdicts[v.value] += 1
    assert min(verdicts[HOLDS], verdicts[FAILS]) >= 10, verdicts


def test_a_failing_semicontinuity_builds_its_one_witness(monkeypatch):
    """`sum-split-jumps` of the every-op problem file: only its semicontinuity
    fails, and its check builds one point, the witness it reports."""
    o = load_path(str(EVERY_OP)).objects
    s_map = multimaps._s_map(o["P"], o["Q"])
    base = (Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    c_lift = ConvexPoly.lift(2, [(o["J"], (0,))])
    bases, built = _witness_builds(monkeypatch)
    v = inner_regularity_check(s_map, c_lift, base, VARIANT_SEMICONTINUOUS)
    assert v.value == FAILS and v.certificate == {"witness": (Fraction(1, 4), Fraction(1))}
    assert built == [1] and len(bases) == 1


# -- canonicalization without the second echelon pass ---------------------------


def ref_canon_h_rows(dim, ineqs, eqs, seen):
    """`exactgeom._canon_h_rows` with its second echelon pass always run:
    the equalities and implied equalities to RREF, the facets reduced
    modulo them."""
    g = exactgeom
    eq_rows, pivots = rref_ints([integer_row(e + (d,))[0] for e, d in eqs])
    if dim in pivots:
        return None
    work = g._reduce_rows(ineqs, eq_rows, pivots)
    if work is None:
        return None
    homogeneous = not any(b for _, b in work) and not any(r[-1] for r in eq_rows)
    if homogeneous:
        rows, cone_eqs = [a for a, _ in work], [r[:-1] for r in eq_rows]
    else:
        rows, cone_eqs = g._homogenization(dim, work, map(g._split, eq_rows))
    rays, lin = g._dd(dim + (not homogeneous), rows, cone_eqs)
    if not homogeneous and not any(r[-1] for r in rays):
        return None
    zero_sets = [
        sum(1 << j for j, r in enumerate(rays) if not sum(map(mul, a, r)))
        for a in rows
    ]
    full = (1 << len(rays)) - 1
    live = [z for z in zero_sets if z != full]
    implied, facets = [], []
    for (a, b), z in zip(work, zero_sets):
        if z == full:
            implied.append([*a, b])
        elif not any(z & y == z != y for y in live):
            facets.append((a, b))
    seen[("homogeneous" if homogeneous else "affine", bool(implied))] += 1
    eq_rows, pivots = rref_ints(eq_rows + implied)
    keep = tuple(sorted(g._reduce_rows(facets, eq_rows, pivots)))
    eq_out = tuple(sorted(g._split(r) for r in eq_rows))
    if not homogeneous:
        return keep, eq_out, None, None
    lin_rows, _ = rref_ints(lin)
    return keep, eq_out, tuple(rays), tuple(sorted(map(tuple, lin_rows)))


def test_canonicalization_matches_the_one_that_always_runs_the_second_pass():
    rng = random.Random(3434)
    seen = Counter()
    for _ in range(600):
        dim = rng.randint(1, 4)
        affine = rng.random() < 0.5

        def row():
            return tuple(rng.randint(-3, 3) for _ in range(dim)), (
                rng.randint(-2, 2) if affine else 0
            )

        ineqs = [row() for _ in range(rng.randint(0, 5))]
        # a row and its opposite, scaled: an equality the DD must find
        for a, b in ineqs[: rng.randint(0, 2)]:
            k = rng.randint(1, 3)
            ineqs.append((tuple(-k * x for x in a), -k * b))
        rng.shuffle(ineqs)
        eqs = [row() for _ in range(rng.randint(0, 2))]
        ineqs, eqs = tuple(ineqs), tuple(eqs)
        got = exactgeom._canon_h_rows.__wrapped__(dim, ineqs, eqs)
        assert got == ref_canon_h_rows(dim, ineqs, eqs, seen), (dim, ineqs, eqs)
    assert min(seen[k, i] for k in ("homogeneous", "affine") for i in (False, True)) >= 30, seen
