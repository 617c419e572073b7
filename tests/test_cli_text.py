"""The CLI's own text against stored output: help, usage and argument errors.

`tests/data/cli_text.json` holds the stdout, stderr and exit code of each
case below, so a change to how the argument parser is built cannot alter
what a user sees.  Regenerate with `python tests/test_cli_text.py` only when
the text is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from polyvar.cli import main
from polyvar.runner import OPS

GOLDEN = Path(__file__).parent / "data" / "cli_text.json"
COLUMNS = "80"  # argparse wraps help to the terminal width

COMMANDS = [op for op in OPS if not op.startswith("rule-")] + ["rule", "paper-example"]

CASES: dict[str, list[str]] = {
    "help": ["-h"],
    **{f"{c}-help": [c, "-h"] for c in COMMANDS},
    "no-command": [],
    "missing-file": ["normal-cone"],
    "missing-rule": ["rule"],
    "missing-preset": ["paper-example"],
    "invalid-command": ["bogus"],
    "invalid-rule": ["rule", "bogus", "problem.json"],
    "invalid-preset": ["paper-example", "bogus"],
    "invalid-quals": ["paper-example", "ex1-lqc", "--quals", "lax"],
    "flag-before-command": ["--quals", "strict", "paper-example", "ex1-lqc"],
    "unrecognized-argument": ["paper-example", "ex1-lqc", "--bogus"],
}


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _record() -> dict:
    return {name: _run(argv) for name, argv in CASES.items()}


def test_cases_are_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_text_matches_golden(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _run(CASES[name]) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
