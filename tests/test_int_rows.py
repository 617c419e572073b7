"""Exactness and the type contract of rows, points and witnesses.

Rows are int tuples: the H-form fields of the set objects (`rows` and
`eq_rows`, canonical and so primitive) and the generators of a cone (rays
and lineality, straight from double description).  `ineqs` and `eqs` are a
read-only view of the H-form rows with `Fraction` entries, built on each
read; no module of the engine reads it.  Every point, witness and
certificate vector has `Fraction` entries.  No float appears anywhere.  The
first test walks the engine results of all 14 presets; the others feed int
rows to the routines that divide rows and compare them with the canonical
path, and check that values and witnesses computed from int rows stay
`Fraction`.
"""

from __future__ import annotations

import ast
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import polyvar
from conftest import vrep
from polyvar import runner
from polyvar.cli import main
from polyvar.exactgeom import (
    ConeH,
    ConeUnion,
    ConvexPoly,
    PolySet,
    PolyUnion,
    dd_convert,
    union_subset,
)
from polyvar.linalg import integer_row
from polyvar.plfunc import PLFunc
from polyvar.presets import preset_ids
from polyvar.stratify import global_cells, local_cells


def _is_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _check_rows(rows, counts: Counter, what: str) -> None:
    """Int rows, each primitive."""
    for row in rows:
        assert all(type(x) is int for x in row), (what, row)
        assert gcd(*row) == 1, (what, row)
        counts[what] += 1


def _check_view(view, fields, flat) -> None:
    """The view equals the fields entry for entry, in Fractions."""
    assert view == fields
    for row in map(flat, view):
        assert all(type(x) is Fraction for x in row), row


def _pair(row):
    return row[0] + (row[1],)


def _check_poly_fields(p: ConvexPoly, counts: Counter) -> None:
    _check_rows(map(_pair, p.rows + p.eq_rows), counts, "H-form row")
    _check_view(p.ineqs, p.rows, _pair)
    _check_view(p.eqs, p.eq_rows, _pair)
    if p.rows:  # built on each read, not cached
        assert p.ineqs is not p.ineqs


def _walk(obj, counts: Counter) -> None:
    assert not isinstance(obj, float), obj
    if obj is None or isinstance(obj, (bool, str, int, Fraction)):
        return
    if isinstance(obj, ConeH):
        if not obj.empty:
            dd_convert(obj)
            _check_rows(obj.rows + obj.eq_rows, counts, "H-form row")
            _check_view(obj.ineqs, obj.rows, tuple)
            _check_view(obj.eqs, obj.eq_rows, tuple)
            if obj.rows:  # built on each read, not cached
                assert obj.ineqs is not obj.ineqs
            _check_rows(obj.rays + obj.lineality, counts, "generator")
        return
    if isinstance(obj, ConvexPoly):
        _check_poly_fields(obj, counts)
        return
    if isinstance(obj, (ConeUnion, PolySet)):
        for p in obj.parts if isinstance(obj, ConeUnion) else obj.pieces:
            _walk(p, counts)
        return
    fields = getattr(type(obj), "__match_args__", None)
    if fields is not None:
        counts["record"] += 1
        for name in fields:
            _walk(getattr(obj, name), counts)
        return
    if isinstance(obj, dict):
        for v in obj.values():
            _walk(v, counts)
        return
    assert isinstance(obj, (tuple, list)), type(obj)
    if obj and all(map(_is_number, obj)):
        # a point, witness or certificate vector
        assert all(type(x) is Fraction for x in obj), obj
        counts["point"] += 1
        return
    for v in obj:
        _walk(v, counts)


def test_preset_results_keep_the_type_contract(tmp_path, monkeypatch):
    results = []
    depth = [0]
    render = runner.render

    def spy(obj, decimal=False):
        if depth[0] == 0:
            results.append(obj)
        depth[0] += 1
        try:
            return render(obj, decimal)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(runner, "render", spy)
    for preset in preset_ids():
        main(["paper-example", preset, "--out", str(tmp_path / "report.json")])
    counts: Counter = Counter()
    for result in results:
        _walk(result, counts)
    # the walk reaches every kind of value it checks
    assert counts["H-form row"] >= 50 and counts["generator"] >= 20, counts
    assert counts["point"] >= 5 and counts["record"] >= 1, counts


def test_nonzero_vector_is_rational():
    line = ConeUnion.single(ConeH.from_ineqs(2, [], [(1, -1)]))
    v = line.nonzero_vector()
    assert v == (1, 1) and all(type(x) is Fraction for x in v)
    half = ConeUnion.single(ConeH.from_ineqs(1, [(-1,)]))
    assert half.nonzero_vector() == (Fraction(1),)
    assert type(half.nonzero_vector()[0]) is Fraction


# -- no engine module reads the view ------------------------------------------


def test_engine_modules_do_not_read_the_fraction_view():
    """The engine, the report renderer included, reads the int fields; only
    tests and outside tools read `ineqs`/`eqs` (the properties themselves
    are definitions, not reads)."""
    readers = []
    for path in sorted(Path(polyvar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("ineqs", "eqs"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
    for cls in (ConvexPoly, ConeH):
        for name in ("ineqs", "eqs"):
            assert isinstance(vars(cls)[name], property)
            assert vars(cls)[name].fset is None


# -- int rows through the routines that divide rows ----------------------------


def _rand_polys(seed: int, count: int):
    """Int-row records built directly (rows as drawn: not primitive, not
    reduced, not canonical) with the canonical polyhedron of their Fraction
    copies."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 3)

        def row():
            return tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-4, 4)

        ineqs = [row() for _ in range(rng.randint(0, 5))]
        # an equality's pivot rarely divides the other rows' entries
        eqs = [row() for _ in range(rng.randint(0, 1))]
        yield (
            ConvexPoly(dim, tuple(ineqs), tuple(eqs)),
            ConvexPoly.make(dim, _fractions(ineqs), _fractions(eqs)),
        )


def _fractions(rows):
    return tuple((tuple(map(Fraction, a)), Fraction(b)) for a, b in rows)


def test_vrep_of_int_rows_is_exact():
    for p_int, p_frac in _rand_polys(31, 200):
        got = vrep(p_int)
        # an empty set's raw rows still have recession directions
        assert got == vrep(p_frac) if not p_frac.is_empty() else got[0] == ()
        for part in got:
            for v in part:
                assert all(type(x) is Fraction for x in v), v


def test_eliminate_of_int_rows_is_exact():
    checked = 0
    for p_int, p_frac in _rand_polys(32, 200):
        if p_int.dim < 2:
            continue
        for coords in ((0,), (p_int.dim - 1,), tuple(range(p_int.dim - 1))):
            got = p_int.eliminate(coords)
            assert got == p_frac.eliminate(coords)
            _check_poly_fields(got, Counter())
            checked += 1
    assert checked > 100


def test_poly_minkowski_of_int_rows_is_exact():
    polys = list(_rand_polys(33, 120))
    for (p_int, p_frac), (q_int, q_frac) in zip(polys, polys[1:]):
        if p_int.dim != q_int.dim:
            continue
        got = p_int.minkowski(q_int)
        assert got == p_frac.minkowski(q_frac)
        _check_poly_fields(got, Counter())


# -- values and witnesses from int rows stay Fraction ---------------------------


def _rationals(v) -> bool:
    return all(type(x) is Fraction for x in v)


def test_plfunc_value_of_int_rows_is_a_fraction():
    # f(x) = x / 2 from the int row x - 2 alpha <= 0: fibers alpha >= x / 2
    half = PLFunc.from_epigraph_pieces(1, [ConvexPoly.make(1 + 1, [((1, -2), 0)])])
    for x, want in ((1, Fraction(1, 2)), (2, Fraction(1)), (-3, Fraction(-3, 2))):
        got = half.value((x,))
        assert got == want and type(got) is Fraction, (x, got)
    # a graph piece alpha = x / 3 has point fibers, one equality each
    third = PLFunc(1, PolySet.from_poly(ConvexPoly.make(2, [], [((1, -3), 0)])))
    for x, want in ((1, Fraction(1, 3)), (3, Fraction(1)), (0, Fraction(0))):
        got = third.value((x,))
        assert got == want and type(got) is Fraction, (x, got)
    rng = random.Random(7703)
    for _ in range(60):
        dim = rng.randint(1, 3)
        terms = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3))
        ]
        f = PLFunc.max_affine(dim, terms)
        x = tuple(rng.randint(-2, 2) for _ in range(dim))
        got = f.value(x)
        want = max(sum(a * b for a, b in zip(slope, x)) + c for slope, c in terms)
        assert got == want and type(got) is Fraction, (terms, x, got)


def test_cell_and_union_witnesses_of_int_rows_are_fractions():
    rng = random.Random(7717)
    witnesses = unions = 0
    for _ in range(40):
        dim = rng.randint(1, 3)
        base = tuple(rng.randint(-1, 1) for _ in range(dim))

        def poly():
            rows = []
            for _ in range(rng.randint(1, 3)):
                a = tuple(rng.randint(-3, 3) for _ in range(dim))
                # through the base or with slack, so every set holds it
                rows.append((a, sum(x * y for x, y in zip(a, base)) + rng.choice([0, 0, 2])))
            return ConvexPoly.make(dim, rows)

        sets = [PolySet.make(dim, [poly(), poly()]), poly()]
        for cells in (local_cells(sets, base), global_cells(sets)):
            for cell in cells:
                assert _rationals(cell.witness), cell
                witnesses += 1
        p, q = poly(), poly()
        ok, witness = union_subset(PolyUnion.single(p), PolyUnion.single(q))
        if not ok:
            assert _rationals(witness) and p.contains(witness) and not q.contains(witness)
            unions += 1
    assert witnesses > 100 and unions > 10, (witnesses, unions)
