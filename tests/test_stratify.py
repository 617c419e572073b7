"""Cell enumeration: adherence, completeness and sign constancy.

Near a base point the enumerator returns strata: a sign of None is a row it
did not branch on, which any sign of a sign cell inside the stratum matches.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import namedtuple
from fractions import Fraction

import pytest

from conftest import (
    active_pieces,
    make_example1,
    perfbench_module,
    random_poly_through,
    random_polyset_through,
    rng_vec,
)
from polyvar import cones, lp, stratify
from polyvar.exactgeom import ConvexPoly, PolySet
from polyvar.linalg import dot, integer_row, rref_ints, vec
from polyvar.stratify import global_cells, local_cells


def test_halfline_cells():
    halfline = PolySet.from_poly(ConvexPoly.make(1, [(vec(-1), Fraction(0))]))
    cells = local_cells([halfline], vec(0))
    assert len(cells) == 2
    sigs = {c.signs for c in cells}
    assert sigs == {(0,), (-1,)} or sigs == {(0,), (1,)}


def test_example1_case_split():
    ex = make_example1()
    cells = local_cells([ex.omega1, ex.c], ex.origin)
    # the case split: (x=0,z=x), (x>0,z=x), (x=0,z>x), (x>0,z>x)
    assert len(cells) == 4
    for cell in cells:
        w = cell.witness
        assert w[0] >= 0 and w[2] >= w[0]


def test_hyperplane_arrangement_with_grid_oracle():
    # union of the two halfspaces of x + 2y = 0: all three signs adherent
    below = ConvexPoly.make(2, [(vec(1, 2), Fraction(0))])
    above = ConvexPoly.make(2, [(vec(-1, -2), Fraction(0))])
    both = PolySet.make(2, [below, above])
    cells = local_cells([both], vec(0, 0))
    assert len(cells) == 3

    only_below = PolySet.from_poly(below)
    cells_b = local_cells([only_below], vec(0, 0))
    assert len(cells_b) == 2  # the strictly-above cell is outside the set

    # grid classification oracle: every grid point near the base belongs to
    # exactly one returned cell, identified by its sign vector
    step = Fraction(1, 2)
    grid = [
        (Fraction(i) * step, Fraction(j) * step)
        for i in range(-2, 3)
        for j in range(-2, 3)
    ]
    normal = vec(1, 2)
    for p in grid:
        s = dot(normal, p)
        sign = (s > 0) - (s < 0)
        matches = [c for c in cells if c.signs == (sign,)]
        assert len(matches) == 1


def test_base_outside_raises():
    halfline = PolySet.from_poly(ConvexPoly.make(1, [(vec(-1), Fraction(0))]))
    with pytest.raises(ValueError):
        local_cells([halfline], vec(-1))


def test_active_row_limit(monkeypatch):
    ex = make_example1()  # two hyperplanes, both active at the origin
    assert len(local_cells([ex.omega1, ex.c], ex.origin)) == 4
    assert global_cells([ex.c])
    monkeypatch.setattr(stratify, "ACTIVE_ROW_LIMIT", 1)
    with pytest.raises(stratify.ActiveRowLimitError, match="2 rows active at the base"):
        local_cells([ex.omega1, ex.c], ex.origin)
    assert len(local_cells([ex.c], ex.origin)) == 2
    monkeypatch.setattr(stratify, "ACTIVE_ROW_LIMIT", 0)
    with pytest.raises(stratify.ActiveRowLimitError, match="1 rows of a global search"):
        global_cells([ex.c])


def test_active_pieces_boundary_and_outside():
    ex = make_example1()
    assert active_pieces(ex.omega2, vec(0, 0, 5)) == (0,)
    assert active_pieces(ex.omega2, vec(-1, 0, 0)) == ()
    interior = PolySet.from_poly(ConvexPoly.make(1, [(vec(1), Fraction(1))]))
    assert active_pieces(interior, vec(0)) == (0,)


def test_partition_and_constancy_random():
    rng = random.Random(41)
    for _ in range(15):
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        s = random_polyset_through(rng, dim, base)
        if not s.contains(base):
            continue
        cells = local_cells([s], base)
        sigs = [c.signs for c in cells]
        assert len(sigs) == len(set(sigs))
        n_rows = len(sigs[0]) if sigs else 0
        assert len(cells) <= 3**n_rows
        # sign constancy along the segment from the base into the cell
        for cell in cells:
            for t in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
                p = tuple(
                    (1 - t) * b + t * w for b, w in zip(base, cell.witness)
                )
                assert s.contains(p)
        # grid completeness: points of s in a small enough ball around the
        # base land in exactly one returned stratum (safe radius: below the
        # 1-norm distance to every hyperplane the base does not touch)
        hyper = _hyperplanes(cells[0], s)
        r_safe = Fraction(1, 2)
        for a, b2 in hyper:
            gap = abs(dot(a, base) - b2)
            if gap > 0:
                r_safe = min(r_safe, gap / sum(abs(x) for x in a))
        step = r_safe / 3
        offsets = [Fraction(k) * step for k in range(-2, 3)]
        for delta in itertools.product(offsets, repeat=dim):
            x = tuple(b + d for b, d in zip(base, delta))
            if not s.contains(x):
                continue
            found = sum(_realizes(x, hyper, c.signs) for c in cells)
            assert found == 1, (x, base, s)


def _hyperplanes(cell, s):
    # recover the canonical hyperplane list the arrangement used; it is
    # deterministic, so rebuild it the same way local_cells does
    return _arrangement([s])


def _arrangement(sets):
    # the hyperplanes of several sets, in the order the enumerator numbers them
    from polyvar.stratify import _canonical_hyperplane

    out = []
    for s in sets:
        pieces = s.pieces if isinstance(s, PolySet) else (s,)
        for piece in pieces:
            for a, b in piece.ineqs + piece.eqs:
                av, bv, _ = _canonical_hyperplane(a, b)
                if (av, bv) not in out:
                    out.append((av, bv))
    return out


def _sign(v):
    return (v > 0) - (v < 0)


def _realizes(x, hyper, signs):
    """x has every sign of `signs` by dot products; None matches any sign."""
    return all(
        sg is None or _sign(dot(a, x) - b) == sg for (a, b), sg in zip(hyper, signs)
    )


def _within(cell_signs, stratum_signs):
    return all(t is None or s == t for s, t in zip(cell_signs, stratum_signs))


def _assert_strata_of(strata, cells):
    """Every sign cell lies in exactly one stratum, every stratum holds one."""
    for signs in cells:
        assert sum(_within(signs, st) for st in strata) == 1, (signs, strata)
    for st in strata:
        assert any(_within(signs, st) for signs in cells), (st, cells)


def _pattern(sets, x):
    """Per set, per piece: None when the piece misses x, else the indices of
    its rows tight at x (what the cones, quals and multimaps read)."""
    return tuple(
        tuple(
            frozenset(
                i for i, (a, b) in enumerate(piece.ineqs + piece.eqs) if dot(a, x) == b
            )
            if piece.contains(x)
            else None
            for piece in (s.pieces if isinstance(s, PolySet) else (s,))
        )
        for s in sets
    )


def _brute_force_cells(sets, hyper, dim, base=None):
    return set(_brute_force_points(sets, hyper, dim, base))


def _brute_force_points(sets, hyper, dim, base=None):
    # every sign vector on the rows active at the base (on all rows without
    # a base), tested on the full system with the inactive rows held
    # strictly at the base's side; each with a point realizing it
    base_signs = [0 if base is None else _sign(dot(a, base) - b) for a, b in hyper]
    active = [i for i, s in enumerate(base_signs) if s == 0]
    found = {}
    for choice in itertools.product((-1, 0, 1), repeat=len(active)):
        signs = list(base_signs)
        for i, s in zip(active, choice):
            signs[i] = s
        strict, eqs = [], []
        for (a, b), s in zip(hyper, signs):
            if s == 0:
                eqs.append((a, b))
            elif s < 0:
                strict.append((a, b))
            else:
                strict.append((tuple(-x for x in a), -b))
        point = lp.strict_feasible_point([], strict, eqs, dim)
        if point is not None and all(s.contains(point) for s in sets):
            found[tuple(signs)] = point
    return found


def test_local_cells_match_brute_force_over_sign_vectors():
    rng = random.Random(2024)
    checked = unbranched = 0
    while checked < 40 or unbranched < 15:
        dim = rng.randint(2, 3)
        base = rng_vec(rng, dim, -1, 1)
        sets = [random_polyset_through(rng, dim, base, max_pieces=2)]
        if rng.random() < 0.5:
            sets.append(random_poly_through(rng, dim, base, max_rows=4))
        hyper = _arrangement(sets)
        n_active = sum(1 for a, b in hyper if dot(a, base) == b)
        if not 1 <= n_active <= 4:
            continue
        strata = local_cells(sets, base)
        cells = _brute_force_points(sets, hyper, dim, base)
        _assert_strata_of([st.signs for st in strata], cells)
        for st in strata:
            w = st.witness
            assert _realizes(w, hyper, st.signs)
            assert all(s.contains(w) for s in sets)
            # the witness lies in an adherent sign cell, hence in the stratum
            assert tuple(_sign(dot(a, w) - b) for a, b in hyper) in cells
            # each sign cell of the stratum has the witness's pattern
            for signs, point in cells.items():
                if _within(signs, st.signs):
                    assert _pattern(sets, point) == _pattern(sets, w)
        assert {_pattern(sets, st.witness) for st in strata} == {
            _pattern(sets, point) for point in cells.values()
        }
        unbranched += any(None in st.signs for st in strata)
        checked += 1


def test_local_region_lps_on_the_null_space_of_their_equalities(monkeypatch):
    """With at least d independent active hyperplanes, deep regions assign
    enough equalities to leave only the origin.  The search matches the
    brute force (still the LP with equality rows), every witness meets its
    equalities exactly, and no region LP carries an equality row or runs
    on t alone, which is what an empty null space would pose."""
    posed, bases = [], []
    solve, nullspace = lp.solve, stratify.nullspace_ints

    def counted(c, ineqs, eqs, dim, *rest):
        posed.append((len(eqs), dim))
        return solve(c, ineqs, eqs, dim, *rest)

    def recorded(rows, dim):
        basis = nullspace(rows, dim)
        bases.append(len(basis))
        return basis

    monkeypatch.setattr(lp, "solve", counted)
    monkeypatch.setattr(stratify, "nullspace_ints", recorded)
    rng = random.Random("null-space-regions")
    checked = 0
    while checked < 30:
        dim = rng.randint(2, 3)
        base = rng_vec(rng, dim, -1, 1)
        sets = [random_polyset_through(rng, dim, base, max_pieces=2)]
        if rng.random() < 0.6:
            sets.append(random_poly_through(rng, dim, base, max_rows=4))
        hyper = _arrangement(sets)
        active = [a for a, b in hyper if dot(a, base) == b]
        if not dim < len(active) <= 5 or len(rref_ints(
            [integer_row(a)[0] for a in active]
        )[0]) < dim:
            continue
        posed.clear()
        strata = local_cells(sets, base)
        assert all(n_eqs == 0 and n_vars >= 2 for n_eqs, n_vars in posed), posed
        _assert_strata_of(
            [st.signs for st in strata], _brute_force_points(sets, hyper, dim, base)
        )
        for st in strata:
            assert _realizes(st.witness, hyper, st.signs)
            for (a, b), sg in zip(hyper, st.signs):
                if sg == 0:
                    assert dot(a, st.witness) == b and dot(a, st.point) == 0
        checked += 1
    # regions left with the origin alone were met, and posed no LP
    assert bases.count(0) >= 10, bases


def test_global_cells_match_brute_force_over_sign_vectors():
    rng = random.Random(77)
    checked = nonempty = 0
    while checked < 40:
        dim = rng.randint(1, 3)
        # sets through different points, so the hyperplanes have offsets and
        # the sets may meet in a bounded region or not at all
        sets = [random_polyset_through(rng, dim, rng_vec(rng, dim, -1, 1), max_pieces=2)]
        if rng.random() < 0.5:
            sets.append(random_poly_through(rng, dim, rng_vec(rng, dim, -1, 1)))
        hyper = _arrangement(sets)
        if not 1 <= len(hyper) <= 5:
            continue
        cells = global_cells(sets)
        assert {c.signs for c in cells} == _brute_force_cells(sets, hyper, dim)
        for cell in cells:
            w = cell.witness
            assert tuple(_sign(dot(a, w) - b) for a, b in hyper) == cell.signs
            assert all(s.contains(w) for s in sets)
        nonempty += bool(cells)
        checked += 1
    assert nonempty >= 30


# -- the enumerator that runs every region LP, kept as a reference ------------

# a reference cell: its sign per hyperplane and a point of it
_RefCell = namedtuple("_RefCell", "signs witness")


def ref_cells(sets, base):
    """`stratify._cells` as it was before the convexity skip: every child off
    the parent's side runs its region LP, in the order -1, 0, 1."""
    dim = sets[0].dim if base is None else len(base)
    hyperplanes, index = [], {}

    def hyperplane_id(a, b):
        av, bv, flip = stratify._canonical_hyperplane(a, b)
        if (av, bv) not in index:
            index[(av, bv)] = len(hyperplanes)
            hyperplanes.append((av, bv))
        return index[(av, bv)], flip

    piece_rows = []
    for s in sets:
        rows_per_piece = []
        for piece in stratify._as_pieces(s):
            reqs = []
            for a, b in piece.ineqs:
                h, flip = hyperplane_id(a, b)
                reqs.append((h, frozenset({-1, 0} if flip == 1 else {0, 1})))
            for e, d in piece.eqs:
                reqs.append((hyperplane_id(e, d)[0], frozenset({0})))
            rows_per_piece.append(reqs)
        piece_rows.append(rows_per_piece)

    n_h = len(hyperplanes)
    if base is None:
        base_signs = [0] * n_h
        offsets = [b for _, b in hyperplanes]
        inactive = []
    else:
        values = [dot(a, base) - b for a, b in hyperplanes]
        base_signs = [_sign(v) for v in values]
        offsets = [0] * n_h
        inactive = [(v, a) for v, (a, _) in zip(values, hyperplanes) if v]
    active = [h for h in range(n_h) if base_signs[h] == 0]
    cells = []

    def known_sign(signs, h):
        if h in signs:
            return signs[h]
        return base_signs[h] if base_signs[h] != 0 else None

    def pieces_possible(signs):
        return all(
            any(
                all(
                    known_sign(signs, h) is None or known_sign(signs, h) in allowed
                    for h, allowed in reqs
                )
                for reqs in rows_per_piece
            )
            for rows_per_piece in piece_rows
        )

    def region_point(signs):
        strict, eqs = [], []
        for h, sgn in signs.items():
            normal, offset = hyperplanes[h][0], offsets[h]
            if sgn == 0:
                eqs.append((normal, offset))
            elif sgn < 0:
                strict.append((normal, offset))
            else:
                strict.append((tuple(-x for x in normal), -offset))
        return lp.strict_feasible_point([], strict, eqs, dim)

    def witness_along(d):
        t = Fraction(1)
        for value, normal in inactive:
            slope = dot(normal, d)
            if slope and (slope > 0) != (value > 0):
                t = min(t, -value / slope)
        t /= 2
        return tuple(x + t * y for x, y in zip(base, d))

    def descend(pos, signs, p):
        if pos == len(active):
            full = list(base_signs)
            for h, sgn in signs.items():
                full[h] = sgn
            memberships = tuple(
                tuple(
                    i
                    for i, reqs in enumerate(rows_per_piece)
                    if all(full[h] in allowed for h, allowed in reqs)
                )
                for rows_per_piece in piece_rows
            )
            if all(memberships):
                cells.append(
                    _RefCell(tuple(full), p if base is None else witness_along(p))
                )
            return
        h = active[pos]
        value = dot(hyperplanes[h][0], p) - offsets[h]
        for sgn in (-1, 0, 1):
            signs[h] = sgn
            if pieces_possible(signs):
                child = p if _sign(value) == sgn else region_point(signs)
                if child is not None:
                    descend(pos + 1, signs, child)
            del signs[h]

    if pieces_possible({}):
        descend(0, {}, (Fraction(0),) * dim)
    cells.sort(key=lambda c: c.signs)
    return cells


def _counting(monkeypatch):
    """Count the region LPs (`lp.strict_feasible_point` calls)."""
    calls = [0]
    solve = lp.strict_feasible_point

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(lp, "strict_feasible_point", counted)
    return calls


@pytest.mark.parametrize("mode", ["local", "global"])
def test_cells_skip_region_lps_convexity_decides(monkeypatch, mode):
    calls = _counting(monkeypatch)
    rng = random.Random(f"convexity-skip/{mode}")
    checked = saved = 0
    while checked < 40:
        dim = rng.randint(1, 4)
        base = rng_vec(rng, dim, -1, 1)
        at = base if mode == "local" else rng_vec(rng, dim, -1, 1)
        sets = [random_polyset_through(rng, dim, at, max_pieces=3)]
        if rng.random() < 0.6:
            at = base if mode == "local" else rng_vec(rng, dim, -1, 1)
            sets.append(random_poly_through(rng, dim, at, max_rows=4))
        hyper = _arrangement(sets)
        if mode == "local":
            k = sum(1 for a, b in hyper if dot(a, base) == b)
        else:
            k, base = len(hyper), None
        if not 1 <= k <= 6:
            continue
        calls[0] = 0
        ref = ref_cells(sets, base)
        ref_calls = calls[0]
        calls[0] = 0
        got = stratify._cells(sets, base)
        # the same sign cells, or near a base strata of them; witnesses may
        # differ, each realizes its signs
        if base is None:
            assert [c.signs for c in got] == [c.signs for c in ref], sets
        else:
            _assert_strata_of(
                [c.signs for c in got], [c.signs for c in ref]
            )
        for cell in got:
            assert _realizes(cell.witness, hyper, cell.signs)
        assert calls[0] <= ref_calls
        saved += calls[0] < ref_calls
        checked += 1
    assert saved > 0


@pytest.mark.parametrize("mode", ["local", "global"])
def test_derived_middle_points_lie_in_their_child_region(monkeypatch, mode):
    """Each point the far side's point places with no LP is checked by exact
    dot products: it keeps the parent point's sign on every assigned row off
    h, and lies on h (parent point off h) or beyond h from q (parent on h)."""
    derive = stratify._other_side
    cases = {"p on h": 0, "p off h": 0}

    def checked(p, q, h, assigned):
        r = derive(p, q, h, assigned)
        vp, vq, vr = (_sign(dot(h[0], x) - h[1]) for x in (p, q, r))
        assert vp != vq and vq != 0
        assert vr == (-vq if vp == 0 else 0)
        for a, b in assigned:
            if (a, b) != h:
                assert _sign(dot(a, r) - b) == _sign(dot(a, p) - b)
        cases["p on h" if vp == 0 else "p off h"] += 1
        return r

    monkeypatch.setattr(stratify, "_other_side", checked)
    rng = random.Random(f"derived-middle/{mode}")
    for _ in range(60):
        dim = rng.randint(1, 4)
        base = rng_vec(rng, dim, -1, 1)
        at = base if mode == "local" else rng_vec(rng, dim, -1, 1)
        sets = [random_polyset_through(rng, dim, at, max_pieces=3)]
        if rng.random() < 0.6:
            sets.append(random_poly_through(rng, dim, at, max_rows=4))
        hyper = _arrangement(sets)
        if mode == "global":
            base = None
        elif not any(dot(a, base) == b for a, b in hyper):
            continue
        if len(hyper) > 6:
            continue
        for cell in stratify._cells(sets, base):
            assert _realizes(cell.witness, hyper, cell.signs)
    assert min(cases.values()) >= 10, cases


# sha256 of the cells of `_pinned_cases`: global recorded before the
# enumerator kept its signs in one list, local when its region LPs with
# equalities moved to the equalities' null space (same signs, new witnesses;
# every witness checked against its signs below)
PINNED_CELLS = {
    "local": "86b32588dcf4f548ffc04e7a0273686bf93b0f8445ab69571fe4c93286c7fc10",
    "global": "581e18bff19775cca852bfdedc64bc2a93091b1f5d23b786e47e15d90e71ca92",
}


def _pinned_cases(mode):
    rng = random.Random(f"pinned-cells/{mode}")
    cases = 0
    while cases < 60:
        dim = rng.randint(1, 4)
        base = rng_vec(rng, dim, -1, 1)
        at = base if mode == "local" else rng_vec(rng, dim, -1, 1)
        sets = [random_polyset_through(rng, dim, at, max_pieces=3)]
        if rng.random() < 0.6:
            at = base if mode == "local" else rng_vec(rng, dim, -1, 1)
            sets.append(random_poly_through(rng, dim, at, max_rows=4))
        hyper = _arrangement(sets)
        k = sum(1 for a, b in hyper if dot(a, base) == b) if mode == "local" else len(hyper)
        if 1 <= k <= 6:
            cases += 1
            yield sets, base if mode == "local" else None


@pytest.mark.parametrize("mode", ["local", "global"])
def test_cells_match_the_pinned_digest(mode):
    digest = hashlib.sha256()
    for sets, base in _pinned_cases(mode):
        cells = global_cells(sets) if base is None else local_cells(sets, base)
        hyper = _arrangement(sets)
        for cell in cells:
            assert _realizes(cell.witness, hyper, cell.signs)
            assert all(s.contains(cell.witness) for s in sets)
        digest.update(repr([(c.signs, c.witness) for c in cells]).encode())
    assert digest.hexdigest() == PINNED_CELLS[mode]


# the benchmark's scaling generator at (d, k): the strata of its cell search,
# that search's `lp.solve` calls, and the sha256 of the limiting cone's parts
# as (dim, rows, eq_rows, rays, lineality) tuples, which print no field names
SCALING_WORK = {
    (4, 8): (82, 180, "4f381a990a35ddc157e3cfeff74d59528edcd7a60dd31659528b2dbc34c21ac6"),
    (5, 10): (298, 453, "f6644749a5b4e48eb9b3950bca234199a4bbdae9c6d30c92bf92a176b00e50c1"),
    (6, 12): (745, 1726, "111814a6be01c58ac6093def171d935e4ddac1ddfd1533678139f6e01ed6bd9a"),
}


@pytest.mark.parametrize("dk", sorted(SCALING_WORK), ids=lambda dk: "d%d-k%d" % dk)
def test_strata_pin_the_work_on_the_scaling_generator(monkeypatch, dk):
    workloads = perfbench_module("workloads")
    a, _ = workloads._scaling_args(random.Random("scaling/instances"), dk)
    d, base = a["d"], a["base"]
    omega, wrt = workloads._polyset(d, a["omega"]), workloads._poly(d, a["wrt"])
    calls = [0]
    solve = lp.solve

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(lp, "solve", counted)
    strata = local_cells([omega, wrt], base)
    searched = calls[0]
    parts = cones.limiting_normal_wrt(omega, wrt, base).parts
    fields = [(p.dim, p.rows, p.eq_rows, p.rays, p.lineality) for p in parts]
    digest = hashlib.sha256(repr(fields).encode()).hexdigest()
    assert (len(strata), searched, digest) == SCALING_WORK[dk]
