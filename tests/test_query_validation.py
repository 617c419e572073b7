"""Malformed queries exit 3 with a path diagnostic, before any computation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from polyvar import multimaps
from polyvar.cli import main

EVERY_OP = Path(__file__).parent / "data" / "every_op.json"

OBJECTS = {
    "omega": {"type": "polyset", "dim": 3, "pieces": [{"ineqs": [[[1, 0, -1], 0]]}]},
    "c": {"type": "convex", "dim": 3, "ineqs": [[[-1, 0, 0], 0]]},
    "c2d": {"type": "convex", "dim": 2},
    "s1": {"type": "polyset", "dim": 1, "pieces": [{"ineqs": [[[-1], 0]]}]},
    "c1": {"type": "convex", "dim": 1},
    "f": {"type": "plfunc", "dim": 3, "epi_pieces": [{"ineqs": [[[1, 0, 0, -1], 0]]}]},
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


def test_piece_limit_exits_3(tmp_path, capsys, monkeypatch):
    # both maps have two graph pieces, so their sum needs four
    monkeypatch.setattr(multimaps, "PIECE_LIMIT", 1)
    out = tmp_path / "report.json"
    code = main(["rule", "sum", str(EVERY_OP), "--query", "sum-default", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "query 'sum-default'" in err and "piece limit exceeded" in err
    assert not out.exists()
