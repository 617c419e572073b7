"""CLI: exit codes, determinism, presets, oracle cross-checks."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from polyvar.cli import main
from polyvar.presets import preset_ids


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_text()


def test_exit_codes_of_presets(tmp_path):
    expectations = {
        "ex1-frechet-omega1": 0,
        "ex1-lqc": 0,
        "ex1-normal-densed-i": 0,
        "ex1-normal-densed-ii": 1,
        "ex2-intersection-holds": 0,
        "ex2-intersection-failure": 1,
        "mpec-final-1": 0,
        "mpec-final-2": 2,
        "aubin-final-wrt": 0,
        "aubin-final-classical": 1,
    }
    for preset, expected in expectations.items():
        code, _ = run_cli(["paper-example", preset], tmp_path)
        assert code == expected, preset


def test_reports_byte_identical(tmp_path):
    for preset in preset_ids():
        c1, r1 = run_cli(["paper-example", preset], tmp_path, "a.json")
        c2, r2 = run_cli(["paper-example", preset], tmp_path, "b.json")
        assert c1 == c2
        assert r1 == r2, preset


def test_intersection_failure_report_contents(tmp_path):
    code, text = run_cli(["paper-example", "ex2-intersection-failure"], tmp_path)
    assert code == 1
    report = json.loads(text)
    q = report["queries"][0]
    assert q["report"]["inclusion_holds"] is False
    assert q["report"]["witness"] is not None
    quals = dict(q["report"]["qualifications"])
    assert quals["normal_densed"]["verdict"] == "fails"


def test_aubin_final_classical_witness_bytes(tmp_path):
    # the certificate is taken from a cone's int generators; it must render
    # as an exact string like every other rational, not as a JSON number
    code, text = run_cli(["paper-example", "aubin-final-classical"], tmp_path)
    assert code == 1
    assert '"vector": [\n            "-1"\n          ]' in text
    cert = json.loads(text)["queries"][0]["aubin"]["certificate"]
    assert cert == {"vector": ["-1"]}


def test_mpec_final_2_inconclusive(tmp_path):
    code, text = run_cli(["paper-example", "mpec-final-2"], tmp_path)
    assert code == 2
    report = json.loads(text)
    by_name = {q["name"]: q for q in report["queries"]}
    assert by_name["mpec"]["report"]["verdict"] == "Inconclusive"
    # diagnostic subdifferential is {1}
    sub = by_name["subdiff"]["subdifferential"]["value"]["parts"][0]
    assert sub == {"ineqs": [], "eqs": [[["1"], "1"]]}


def test_malformed_file_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["normal-cone", str(bad)]) == 3
    missing = tmp_path / "nope.json"
    assert main(["normal-cone", str(missing)]) == 3


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_out_exit_3(where, tmp_path, capsys):
    # a missing parent directory fails on the temporary file, a directory
    # as the target fails on the rename onto it
    target = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["paper-example", "ex1-lqc", "--out", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"output error: {target}: ")
    assert "Traceback" not in captured.err
    assert not list(tmp_path.rglob(".polyvar-*"))


def test_cross_check_zero_flags(tmp_path):
    code, text = run_cli(
        ["paper-example", "ex1-frechet-omega1", "--cross-check"], tmp_path
    )
    assert code == 0
    assert json.loads(text)["oracle_flags"] == 0


def test_decimal_flag(tmp_path):
    _, plain = run_cli(["paper-example", "ex1-lqc"], tmp_path, "p.json")
    _, fancy = run_cli(["paper-example", "ex1-lqc", "--decimal"], tmp_path, "d.json")
    assert "decimal" not in plain
    assert '"decimal"' in fancy or plain == fancy  # decimal shows when rationals appear


def test_console_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "polyvar.cli",
            "paper-example",
            "ex1-normal-densed-ii",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert out.exists()


def test_query_selection(tmp_path):
    code, text = run_cli(
        ["paper-example", "mpec-final-1", "--query", "subdiff"], tmp_path
    )
    assert code == 0
    report = json.loads(text)
    assert [q["name"] for q in report["queries"]] == ["subdiff"]


def test_rule_subcommand_on_file(tmp_path):
    from importlib import resources

    src = resources.files("polyvar").joinpath("problems", "ex2.json").read_text()
    f = tmp_path / "ex2.json"
    f.write_text(src)
    code = main(["rule", "intersection", str(f), "--out", str(tmp_path / "r.json")])
    assert code == 1  # the failing configuration dominates the exit code
    report = json.loads((tmp_path / "r.json").read_text())
    assert len(report["queries"]) == 2


def test_cli_and_library_agree_bit_for_bit(tmp_path):
    from fractions import Fraction

    from polyvar.cones import limiting_normal_wrt
    from polyvar.exactgeom import ConvexPoly, PolySet
    from polyvar.linalg import vec
    from polyvar.runner import render

    code, text = run_cli(["paper-example", "ex1-limiting-omega1"], tmp_path)
    assert code == 0
    via_cli = json.loads(text)["queries"][0]["cone"]
    omega1 = PolySet.from_poly(ConvexPoly.make(3, [(vec(1, 0, -1), Fraction(0))]))
    c = ConvexPoly.make(3, [(vec(-1, 0, 0), Fraction(0))])
    via_library = render(limiting_normal_wrt(omega1, c, vec(0, 0, 0)))
    assert json.dumps(via_cli, sort_keys=True) == json.dumps(
        via_library, sort_keys=True
    )


def test_strict_quals_mode(tmp_path):
    from importlib import resources

    src = resources.files("polyvar").joinpath("problems", "ex2.json").read_text()
    f = tmp_path / "ex2.json"
    f.write_text(src)
    code = main(
        [
            "rule",
            "intersection",
            str(f),
            "--query",
            "intersection-cc",
            "--quals",
            "strict",
            "--out",
            str(tmp_path / "s.json"),
        ]
    )
    assert code == 0
