"""The presets in a fresh `python -O` interpreter: same bytes, no numpy.

numpy and `polyvar.oracle` serve only `--cross-check`, so a run without it
must not load them, nor `dataclasses`, whose import costs more than some
queries; `-O` strips `assert`, so the exact path must not rely on one.
"""

from __future__ import annotations

import contextlib
import io

from conftest import run_optimized

from polyvar.cli import main
from polyvar.presets import preset_ids

CROSS_CHECKED = "ex1-frechet-omega1"

SCRIPT = f"""
import contextlib, io, json, sys
import polyvar, polyvar.cli
from polyvar.presets import preset_ids

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = polyvar.cli.main(argv)
    return code, buf.getvalue()

facts = {{"optimize": sys.flags.optimize}}
facts["reports"] = {{p: run(["paper-example", p]) for p in preset_ids()}}
LAZY = ("numpy", "polyvar.oracle", "dataclasses")
facts["without_cross_check"] = [m for m in LAZY if m in sys.modules]
code, text = run(["paper-example", {CROSS_CHECKED!r}, "--cross-check"])
facts["cross_check"] = [code, json.loads(text)["oracle_flags"]]
facts["with_cross_check"] = [m for m in LAZY if m in sys.modules]
json.dump(facts, sys.stdout)
"""


def _in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return [code, buf.getvalue()]


def test_presets_under_optimize_without_numpy():
    facts = run_optimized(SCRIPT)
    assert facts["optimize"] == 1
    assert facts["without_cross_check"] == []
    expected = {p: _in_process(["paper-example", p]) for p in preset_ids()}
    assert facts["reports"] == expected
    assert facts["cross_check"] == [expected[CROSS_CHECKED][0], 0]
    assert {"numpy", "polyvar.oracle"} <= set(facts["with_cross_check"])
