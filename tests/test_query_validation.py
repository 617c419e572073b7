"""Malformed queries exit 3 with a path diagnostic, before any computation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from polyvar import exactgeom, multimaps, stratify
from polyvar.cli import main
from polyvar.problemfile import DIM_LIMIT, loads

EVERY_OP = Path(__file__).parent / "data" / "every_op.json"

OBJECTS = {
    "omega": {"type": "polyset", "dim": 3, "pieces": [{"ineqs": [[[1, 0, -1], 0]]}]},
    "c": {"type": "convex", "dim": 3, "ineqs": [[[-1, 0, 0], 0]]},
    "c2d": {"type": "convex", "dim": 2},
    "s1": {"type": "polyset", "dim": 1, "pieces": [{"ineqs": [[[-1], 0]]}]},
    "c1": {"type": "convex", "dim": 1},
    "f": {"type": "plfunc", "dim": 3, "epi_pieces": [{"ineqs": [[[1, 0, 0, -1], 0]]}]},
    "F": {"type": "multimap", "in_dim": 3, "out_dim": 1, "pieces": [{"ineqs": [[[1, 0, 0, -1], 0]]}]},
    "origin": {"type": "point", "values": [0, 0, 0]},
    "p2": {"type": "point", "values": [0, 0]},
}

CONE = {"name": "q", "op": "normal-cone", "kind": "frechet", "omega": "omega", "wrt": "c", "point": "origin"}
MIXED = {
    "name": "q", "op": "rule-mixed-product", "omega1": "omega", "c1": "c",
    "omega2": "s1", "c2": "c1", "n": 2, "m": 1, "s": 1, "point": "origin",
}


def run(tmp_path, query, objects=OBJECTS):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"version": "polyvar-1", "objects": objects, "queries": [query]}))
    op = query["op"] if isinstance(query["op"], str) else "normal-cone"
    command = ["rule", op[len("rule-") :]] if op.startswith("rule-") else [op]
    return main([*command, str(path), "--out", str(tmp_path / "report.json")])


BAD = [
    # a reference to an object of the wrong type
    ({**CONE, "omega": "origin"}, "omega", "is a point, expected a polyset"),
    ({**CONE, "wrt": "omega"}, "wrt", "is a polyset, expected a convex"),
    ({**CONE, "point": "c"}, "point", "is a convex, expected a point"),
    ({"name": "q", "op": "subdiff", "func": "omega", "point": "origin", "kind": "limiting"},
     "func", "expected a plfunc"),
    # n, m, s must be positive integers
    ({**MIXED, "n": "2"}, "n", "positive integer"),
    ({**MIXED, "m": 0}, "m", "positive integer"),
    ({**MIXED, "s": True}, "s", "positive integer"),
    ({**MIXED, "n": 1.5}, "n", "positive integer"),
    # literals outside the engine's constants
    ({**CONE, "kind": "clarke"}, "kind", "expected one of"),
    ({"name": "q", "op": "subdiff", "func": "f", "point": "origin", "kind": "proximal"},
     "kind", "expected one of"),
    ({**MIXED, "pairing": "both"}, "pairing", "expected one of"),
    ({**CONE, "kind": ["frechet"]}, "kind", "expected one of"),
    # query name and op must be strings
    ({**CONE, "name": ["a"]}, "name", "must be a string"),
    ({**CONE, "op": ["normal-cone"]}, "op", "unknown operation"),
    # dimensions must agree
    ({**CONE, "point": "p2"}, "point", "dimension 2 does not match 'omega' (3)"),
    ({**CONE, "wrt": "c2d"}, "wrt", "dimension 2 does not match 'omega' (3)"),
    ({**MIXED, "n": 1}, "omega1", "dimension 3 does not match 'n+s' (2)"),
    ({**MIXED, "m": 2}, "omega2", "dimension 1 does not match 'm' (2)"),
    ({"name": "q", "op": "check-lqc", "omega1": "omega", "omega2": "omega", "c1": "c",
      "c2": "c1", "point": "origin"}, "c2", "dimension 1 does not match 'omega1' (3)"),
    # references to maps and functions of the wrong type
    ({"name": "q", "op": "coderivative", "map": "f", "x": "origin", "y": "p2", "ystar": "p2"},
     "map", "'f' is a plfunc, expected a multimap"),
    ({**CONE, "omega": "F"}, "omega", "'F' is a multimap, expected a polyset"),
]


@pytest.mark.parametrize("query, field, message", BAD)
def test_bad_query_exits_3_with_its_path(tmp_path, capsys, query, field, message):
    assert run(tmp_path, query) == 3
    err = capsys.readouterr().err
    assert f"$.queries[0].{field}: " in err
    assert message in err
    assert not (tmp_path / "report.json").exists()


def test_bad_variant_and_map_dimensions(tmp_path, capsys):
    objects = json.loads(EVERY_OP.read_text())["objects"]
    queries = {q["name"]: q for q in json.loads(EVERY_OP.read_text())["queries"]}
    bad_variant = {**queries["sum-default"], "variant": "closed"}
    assert run(tmp_path, bad_variant, objects) == 3
    assert "$.queries[0].variant: expected one of" in capsys.readouterr().err
    # the outer map's input must be the inner map's output
    objects = {**objects, "H": {"type": "multimap", "in_dim": 2, "out_dim": 1,
                                "pieces": [{"ineqs": [[[1, 0, -1], 0]]}]}}
    bad_chain = {**queries["chain-default"], "outer": "H"}
    assert run(tmp_path, bad_chain, objects) == 3
    assert "$.queries[0].outer: dimension 2 does not match 'inner' (1)" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["in_dim", "out_dim"])
def test_bad_object_dimension_exits_3(tmp_path, capsys, key):
    objects = json.loads(EVERY_OP.read_text())["objects"]
    objects["F"][key] = "1"
    query = json.loads(EVERY_OP.read_text())["queries"][3]
    assert run(tmp_path, query, objects) == 3
    assert f"$.objects.F.{key}: expected a positive integer" in capsys.readouterr().err


BIG = 10**9  # a graph of this dimension once died of MemoryError, exit 1

TOO_BIG = [
    ({"type": "convex", "dim": BIG}, "dim", BIG),
    ({"type": "polyset", "dim": DIM_LIMIT + 1, "pieces": [{}]}, "dim", DIM_LIMIT + 1),
    ({"type": "multimap", "in_dim": BIG, "out_dim": 1, "pieces": [{}]}, "in_dim", BIG),
    ({"type": "multimap", "in_dim": 1, "out_dim": BIG, "pieces": [{}]}, "out_dim", BIG + 1),
    # each within the limit, the graph beyond it
    ({"type": "multimap", "in_dim": 8, "out_dim": 9, "pieces": [{}]}, "out_dim", 17),
    # the epigraph has one more dimension than the function
    ({"type": "plfunc", "dim": DIM_LIMIT, "epi_pieces": [{}]}, "dim", DIM_LIMIT + 1),
]


@pytest.mark.parametrize("spec, key, ambient", TOO_BIG, ids=lambda v: str(v)[:24])
def test_dimension_limit_exits_3(tmp_path, capsys, spec, key, ambient):
    assert run(tmp_path, CONE, {**OBJECTS, "big": spec}) == 3
    err = capsys.readouterr().err
    assert f"$.objects.big.{key}: ambient dimension {ambient} exceeds the limit" in err
    assert not (tmp_path / "report.json").exists()


def test_improper_function_exits_3(tmp_path, capsys):
    # no row bounds the epigraph from below, so f would take -infinity
    objects = {
        **OBJECTS,
        "g": {"type": "plfunc", "dim": 1, "epi_pieces": [{}]},
        "p1": {"type": "point", "values": [0]},
    }
    query = {"name": "q", "op": "subdiff", "func": "g", "point": "p1", "kind": "limiting"}
    assert run(tmp_path, query, objects) == 3
    err = capsys.readouterr().err
    assert "$.objects.g.epi_pieces: improper function" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_dimension_limit_is_inclusive():
    epi = [{"ineqs": [[[0] * (DIM_LIMIT - 1) + [-1], 0]]}]
    objects = {
        "c": {"type": "convex", "dim": DIM_LIMIT},
        "F": {"type": "multimap", "in_dim": 8, "out_dim": DIM_LIMIT - 8, "pieces": [{}]},
        "f": {"type": "plfunc", "dim": DIM_LIMIT - 1, "epi_pieces": epi},
    }
    pf = loads(json.dumps({"version": "polyvar-1", "objects": objects, "queries": []}))
    assert sorted(pf.objects) == ["F", "c", "f"]


def test_piece_limit_exits_3(tmp_path, capsys, monkeypatch):
    # both maps have two graph pieces, so their sum needs four
    monkeypatch.setattr(multimaps, "PIECE_LIMIT", 1)
    out = tmp_path / "report.json"
    code = main(["rule", "sum", str(EVERY_OP), "--query", "sum-default", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "query 'sum-default'" in err and "piece limit exceeded" in err
    assert not out.exists()



def test_active_row_limit_exits_3(tmp_path, capsys, monkeypatch):
    # both of omega's and c's hyperplanes pass through the origin
    monkeypatch.setattr(stratify, "ACTIVE_ROW_LIMIT", 1)
    assert run(tmp_path, {**CONE, "kind": "limiting"}) == 3
    err = capsys.readouterr().err
    assert "query 'q'" in err and "active-row limit exceeded" in err
    assert not (tmp_path / "report.json").exists()


def test_ray_limit_exits_3(tmp_path, capsys, monkeypatch):
    # the Fréchet cone at the origin is generated by two normals; loading
    # canonicalizes each object with one DD, so only the objects the query
    # reads are given, and each of them has one ray
    monkeypatch.setattr(exactgeom, "RAY_LIMIT", 1)
    objects = {name: OBJECTS[name] for name in ("omega", "c", "origin")}
    assert run(tmp_path, CONE, objects) == 3
    err = capsys.readouterr().err
    assert "query 'q'" in err and "ray limit exceeded: 2 rays (limit 1)" in err
    assert not (tmp_path / "report.json").exists()


def test_ray_limit_while_loading_exits_3(tmp_path, capsys, monkeypatch):
    # canonicalizing the cube |x_i| <= 1 runs a DD over the cone on it,
    # whose eight rays exceed the limit before any query runs
    cube = [[[s * (i == j) for j in range(3)], 1] for i in range(3) for s in (-1, 1)]
    objects = {**OBJECTS, "c": {"type": "convex", "dim": 3, "ineqs": cube}}
    monkeypatch.setattr(exactgeom, "RAY_LIMIT", 4)
    assert run(tmp_path, CONE, objects) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: $.objects.c: ray limit exceeded")
    assert not (tmp_path / "report.json").exists()

@pytest.mark.parametrize(
    "content, message",
    [
        # json.loads raises RecursionError on deep nesting
        (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
        (b"\xff\xfe", "not UTF-8 text"),
        # an integer literal past Python's limit on digits
        (b'{"version": "polyvar-1", "objects": {}, "queries": [' + b"9" * 5000 + b"]}",
         "invalid JSON"),
    ],
    ids=["deep-nesting", "not-utf8", "long-integer"],
)
def test_unreadable_problem_file_exits_3(tmp_path, capsys, content, message):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    assert main(["normal-cone", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
