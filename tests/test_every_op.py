"""Every query operation through `cli.main`, pinned to the direct library call.

`tests/data/every_op.json` holds at least one query per operation, with
`wrt` both given and absent and `pairing`/`variant` both given and defaulted.
The arguments are asymmetric (distinct sets, base points off the diagonal),
so a field routed to the wrong parameter changes the report or the exit code.

`tests/data/every_op_reports.json` holds the sha256 of the report of each
op's command on that file, plain (keyed by the op) and with `--decimal` or
`--cross-check` (keyed "<op> <flag>"), and under "exit_codes" the exit code
of every such run.  `test_cli_matches_library` renders both sides with
`render`, so only these digests see a change in how a result renders.
Regenerate with `python tests/test_every_op.py` only when a report is meant
to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from polyvar import calculus, cones, mpec, multimaps, plfunc
from polyvar.cli import main
from polyvar.exactgeom import ConvexPoly
from polyvar.problemfile import load_path
from polyvar.runner import render

DATA = Path(__file__).parent / "data" / "every_op.json"
GOLDEN = Path(__file__).parent / "data" / "every_op_reports.json"
FLAGS = ((), ("--decimal",), ("--cross-check",))

VERDICT_CODES = {"holds": 0, "fails": 1}
MPEC_CODES = {
    mpec.NECESSARY_CONDITIONS_HOLD: 0,
    mpec.CERTIFIED_NON_OPTIMAL: 1,
    mpec.INCONCLUSIVE: 2,
}


def _whole(dim):
    return ConvexPoly.whole_space(dim)


def _cone(o, q):
    wrt = o[q["wrt"]] if "wrt" in q else _whole(o[q["omega"]].dim)
    fn = {
        "frechet": cones.frechet_normal_wrt,
        "proximal": cones.proximal_normal_wrt,
        "limiting": cones.limiting_normal_wrt,
    }[q["kind"]]
    return "cone", fn(o[q["omega"]], wrt, o[q["point"]]), 0


def _coderivative(o, q):
    F = o[q["map"]]
    wrt = o[q["wrt"]] if "wrt" in q else _whole(F.in_dim)
    sl = multimaps.coderivative_wrt(F, wrt, o[q["x"]], o[q["y"]], o[q["ystar"]])
    return "slice", sl, 0


def _subdiff(o, q):
    f = o[q["func"]]
    wrt = o[q["wrt"]] if "wrt" in q else _whole(f.dim)
    res = plfunc.subdiff_wrt(f, wrt, o[q["point"]], q["kind"])
    return "subdifferential", res, 0


def _aubin(o, q):
    F = o[q["map"]]
    wrt = o[q["wrt"]] if "wrt" in q else _whole(F.in_dim)
    v = multimaps.aubin_wrt_check(F, wrt, o[q["x"]], o[q["y"]])
    return "aubin", v, VERDICT_CODES[v.value]


def _lipschitz(o, q):
    f = o[q["func"]]
    wrt = o[q["wrt"]] if "wrt" in q else _whole(f.dim)
    v = plfunc.lipschitz_wrt_check(f, wrt, o[q["point"]])
    return "lipschitz", v, VERDICT_CODES[v.value]


def _qualification(fn):
    def run(o, q):
        v = fn(o[q["omega1"]], o[q["omega2"]], o[q["c1"]], o[q["c2"]], o[q["point"]])
        return "qualification", v, VERDICT_CODES[v.value]

    return run


def _rule(report):
    # diagnostic mode: the inclusion alone sets the exit code
    return "report", report, 0 if report.inclusion_holds else 1


def _product(o, q):
    return _rule(
        calculus.product_rule(
            o[q["omega1"]], o[q["c1"]], o[q["omega2"]], o[q["c2"]], o[q["x1"]], o[q["x2"]]
        )
    )


def _mixed(o, q):
    extra = (q["pairing"],) if "pairing" in q else ()
    return _rule(
        calculus.mixed_product_rule(
            o[q["omega1"]], o[q["c1"]], o[q["omega2"]], o[q["c2"]],
            q["n"], q["m"], q["s"], o[q["point"]], *extra,
        )
    )


def _intersection(o, q):
    return _rule(
        calculus.intersection_rule(
            o[q["omega1"]], o[q["omega2"]], o[q["c1"]], o[q["c2"]], o[q["point"]]
        )
    )


def _preimage(o, q):
    return _rule(
        calculus.preimage_rule(o[q["map"]], o[q["theta"]], o[q["wrt"]], o[q["point"]])
    )


def _sum(o, q):
    extra = (q["variant"],) if "variant" in q else ()
    return _rule(
        multimaps.sum_rule(
            o[q["map1"]], o[q["map2"]], o[q["c1"]], o[q["c2"]],
            o[q["x"]], o[q["y"]], o[q["y1"]], o[q["y2"]], o[q["ystar"]], *extra,
        )
    )


def _chain(o, q):
    extra = (q["variant"],) if "variant" in q else ()
    return _rule(
        multimaps.chain_rule(
            o[q["inner"]], o[q["outer"]], o[q["wrt"]],
            o[q["x"]], o[q["z"]], o[q["y"]], o[q["zstar"]], *extra,
        )
    )


def _mpec(o, q):
    f, G = o[q["f"]], o[q["g"]]
    problem = mpec.MPECProblem(f, G, o[q["c1"]], o[q["c2"]])
    report = mpec.stationarity_check(problem, o[q["point"]])
    return "report", report, MPEC_CODES[report.verdict]


# op -> (CLI arguments before the file, direct library call)
OPS = {
    "normal-cone": (["normal-cone"], _cone),
    "coderivative": (["coderivative"], _coderivative),
    "subdiff": (["subdiff"], _subdiff),
    "check-aubin": (["check-aubin"], _aubin),
    "check-lipschitz": (["check-lipschitz"], _lipschitz),
    "check-lqc": (["check-lqc"], _qualification(calculus.lqc_wrt_check)),
    "check-normal-densed": (
        ["check-normal-densed"],
        _qualification(calculus.normal_densed_check),
    ),
    "rule-product": (["rule", "product"], _product),
    "rule-mixed-product": (["rule", "mixed-product"], _mixed),
    "rule-intersection": (["rule", "intersection"], _intersection),
    "rule-preimage": (["rule", "preimage"], _preimage),
    "rule-sum": (["rule", "sum"], _sum),
    "rule-chain": (["rule", "chain"], _chain),
    "mpec-check": (["mpec-check"], _mpec),
}


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def test_the_file_covers_every_op_and_every_optional_field():
    queries = load_path(str(DATA)).queries
    assert {q["op"] for q in queries} == set(OPS)
    for op in ("normal-cone", "coderivative", "subdiff", "check-aubin", "check-lipschitz"):
        assert {"wrt" in q for q in queries if q["op"] == op} == {True, False}, op
    for op, field in (("rule-mixed-product", "pairing"), ("rule-sum", "variant"), ("rule-chain", "variant")):
        assert {field in q for q in queries if q["op"] == op} == {True, False}, op


@pytest.mark.parametrize("op", sorted(OPS))
def test_cli_matches_library(op, tmp_path):
    args, call = OPS[op]
    pf = load_path(str(DATA))
    out = tmp_path / "report.json"
    code = main([*args, str(DATA), "--out", str(out)])
    report = json.loads(out.read_text())
    mine = [q for q in pf.queries if q["op"] == op]
    assert [q["name"] for q in report["queries"]] == [q["name"] for q in mine]
    worst = 0
    for q, got in zip(mine, report["queries"]):
        key, result, expected_code = call(pf.objects, q)
        assert got["op"] == op
        assert _canon(got[key]) == _canon(render(result)), q["name"]
        assert got["exit_code"] == expected_code, q["name"]
        worst = max(worst, expected_code)
    assert report["exit_code"] == worst
    assert code == worst


def test_failed_inner_hypothesis_is_rendered_with_its_witness(tmp_path):
    # in sum-split-jumps only inner semicontinuity fails: the split (1, 0)
    # of y = 1 at x = 0 is not a limit of the splits (0, 1) for x > 0
    out = tmp_path / "report.json"
    code = main(["rule", "sum", str(DATA), "--quals", "strict", "--out", str(out)])
    (got,) = [
        q for q in json.loads(out.read_text())["queries"] if q["name"] == "sum-split-jumps"
    ]
    quals = dict(got["report"]["qualifications"])
    assert [v["verdict"] for v in quals.values()] == ["holds", "holds", "fails"]
    cert = quals["inner_semicontinuous"]["certificate"]
    assert cert == {"witness": ["1/4", "1"]}
    assert got["exit_code"] == 1 and code == 1
    # w certifies the failure: with S(x, y) = {(y1, y2) : y1 in P(x), y2 in
    # Q(x), y1 + y2 = y} and the base (x̄, ȳ) = (0, 1) with (y1, y2) = (1, 0),
    # the points (x̄, ȳ) + t(w - (x̄, ȳ)) lie in dom S ∩ (J x R) and in no
    # projected piece of S through the base
    o = load_path(str(DATA)).objects
    s_map = multimaps._s_map(o["P"], o["Q"])
    base = (Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    w = tuple(Fraction(v) for v in cert["witness"])
    proj = [p.eliminate((2, 3)) for p in s_map.graph.pieces]
    through = [q for p, q in zip(s_map.graph.pieces, proj) if p.contains(base)]
    c_lift = ConvexPoly.lift(2, [(o["J"], (0,))])
    for t in (Fraction(1), Fraction(1, 2)):
        z = tuple(b + t * (v - b) for b, v in zip(base[:2], w))
        assert c_lift.contains(z) and any(q.contains(z) for q in proj)
        assert through and not any(q.contains(z) for q in through)


def _record() -> dict:
    """{run label: sha256 of its report, "exit_codes": {run label: code}}."""
    out: dict = {"exit_codes": {}}
    for flags in FLAGS:
        for op, (args, _) in sorted(OPS.items()):
            label = " ".join((op,) + flags)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                out["exit_codes"][label] = main([*args, str(DATA), *flags])
            out[label] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_every_op_report_matches_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    labels = [" ".join((op,) + f) for f in FLAGS for op in OPS]
    assert sorted(golden) == sorted(labels + ["exit_codes"])
    assert sorted(golden["exit_codes"]) == sorted(labels)
    assert _record() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
