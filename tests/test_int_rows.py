"""Exactness and the type contract of rows, points and witnesses.

Kernel rows are int tuples: the generators of a cone (rays and lineality,
straight from double description) among them.  The H-form fields of the set
objects are `Fraction` rows, and every point, witness and certificate vector
has `Fraction` entries.  No float appears anywhere.  The first test walks
the engine results of all 14 presets; the others feed int rows to the
routines that divide rows and compare them with the same calls on the
`Fraction` form of those rows.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from conftest import vrep
from polyvar import runner
from polyvar.cli import main
from polyvar.exactgeom import (
    ConeH,
    ConeUnion,
    ConvexPoly,
    PolySet,
    PolyUnion,
    _poly_minkowski,
    dd_convert,
)
from polyvar.presets import preset_ids


def _is_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _check_rows(rows, entry_type, counts: Counter, what: str) -> None:
    for row in rows:
        for x in row:
            assert type(x) is entry_type, (what, row)
        counts[what] += 1


def _walk(obj, counts: Counter) -> None:
    assert not isinstance(obj, float), obj
    if obj is None or isinstance(obj, (bool, str, int, Fraction)):
        return
    if isinstance(obj, ConeH):
        if not obj.empty:
            dd_convert(obj)
            _check_rows(obj.ineqs + obj.eqs, Fraction, counts, "H-form row")
            _check_rows(obj.rays + obj.lineality, int, counts, "generator")
        return
    if isinstance(obj, ConvexPoly):
        _check_rows((a + (b,) for a, b in obj.ineqs + obj.eqs), Fraction, counts, "H-form row")
        return
    if isinstance(obj, ConeUnion):
        for p in obj.parts:
            _walk(p, counts)
        return
    if isinstance(obj, (PolyUnion, PolySet)):
        for p in obj.parts if isinstance(obj, PolyUnion) else obj.pieces:
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


# -- int rows through the routines that divide rows ----------------------------


def _rand_polys(seed: int, count: int):
    """Int-row H-forms (not canonicalized) with their Fraction copies."""
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
            ConvexPoly(dim, _fractions(ineqs), _fractions(eqs)),
        )


def _fractions(rows):
    return tuple((tuple(map(Fraction, a)), Fraction(b)) for a, b in rows)


def _assert_rational_poly(p: ConvexPoly) -> None:
    for a, b in p.ineqs + p.eqs:
        assert all(type(x) is Fraction for x in a + (b,)), (a, b)


def test_vrep_of_int_rows_is_exact():
    for p_int, p_frac in _rand_polys(31, 200):
        got = vrep(p_int)
        assert got == vrep(p_frac)
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
            _assert_rational_poly(got)
            checked += 1
    assert checked > 100


def test_poly_minkowski_of_int_rows_is_exact():
    polys = list(_rand_polys(33, 120))
    for (p_int, p_frac), (q_int, q_frac) in zip(polys, polys[1:]):
        if p_int.dim != q_int.dim:
            continue
        got = _poly_minkowski(p_int, q_int)
        assert got == _poly_minkowski(p_frac, q_frac)
        _assert_rational_poly(got)
