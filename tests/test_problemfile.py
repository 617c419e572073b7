"""Problem-file schema: strict validation with path diagnostics."""

from __future__ import annotations

import pytest

from polyvar.problemfile import ProblemFileError, loads

GOOD = """
{
  "version": "polyvar-1",
  "objects": {
    "s": {"type": "polyset", "dim": 1, "pieces": [{"ineqs": [[["-1"], "0"]]}]},
    "c": {"type": "convex", "dim": 1},
    "p": {"type": "point", "values": ["1/2"]}
  },
  "queries": [
    {"name": "q1", "op": "normal-cone", "kind": "frechet", "omega": "s", "wrt": "c", "point": "p"}
  ]
}
"""


def test_good_file_loads():
    pf = loads(GOOD)
    assert [q["name"] for q in pf.queries] == ["q1"]
    from fractions import Fraction

    assert pf.objects["p"] == (Fraction(1, 2),)


def test_unknown_top_field_rejected():
    bad = GOOD.replace('"queries"', '"extra": 1, "queries"', 1)
    with pytest.raises(ProblemFileError, match="extra"):
        loads(bad)


def test_version_tag_checked():
    with pytest.raises(ProblemFileError, match="version"):
        loads(GOOD.replace("polyvar-1", "polyvar-2"))


def test_unknown_object_field():
    bad = GOOD.replace('"dim": 1, "pieces"', '"dim": 1, "piece": [], "pieces"')
    with pytest.raises(ProblemFileError, match="piece"):
        loads(bad)


def test_bad_rational_reported_with_path():
    bad = GOOD.replace('"1/2"', '"0.5"')
    with pytest.raises(ProblemFileError, match=r"values\[0\]"):
        loads(bad)


def test_float_rational_rejected():
    bad = GOOD.replace('"1/2"', "0.5")
    with pytest.raises(ProblemFileError, match="rationals"):
        loads(bad)


def test_unknown_query_op():
    bad = GOOD.replace('"op": "normal-cone"', '"op": "frobnicate"')
    with pytest.raises(ProblemFileError, match="unknown operation"):
        loads(bad)


def test_missing_query_reference():
    bad = GOOD.replace('"omega": "s"', '"omega": "missing"')
    with pytest.raises(ProblemFileError, match="missing"):
        loads(bad)


def test_duplicate_query_names():
    pf = GOOD.replace(
        '{"name": "q1", "op": "normal-cone", "kind": "frechet", "omega": "s", "wrt": "c", "point": "p"}',
        '{"name": "q1", "op": "normal-cone", "kind": "frechet", "omega": "s", "wrt": "c", "point": "p"},'
        '{"name": "q1", "op": "normal-cone", "kind": "limiting", "omega": "s", "wrt": "c", "point": "p"}',
    )
    with pytest.raises(ProblemFileError, match="duplicate"):
        loads(pf)


def test_malformed_json_line_diagnostics():
    with pytest.raises(ProblemFileError, match="line"):
        loads("{ not json }")
