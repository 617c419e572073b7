"""The 14 preset reports against stored digests: the refactoring fixed point.

`tests/data/preset_reports.json` holds the sha256 of each `paper-example`
report, plain (keyed by the preset id) and with `--decimal` or
`--cross-check` (keyed "<id> <flag>"), and under "exit_codes" the exit code
of every such run.  A change that alters any report byte or exit code fails
here even though two runs of the changed tree agree with each other.
Regenerate with `python tests/test_preset_golden.py` only when a report is
meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from polyvar.cli import main
from polyvar.presets import preset_ids

GOLDEN = Path(__file__).parent / "data" / "preset_reports.json"
FLAGS = ((), ("--decimal",), ("--cross-check",))


def _record() -> dict:
    """{run label: sha256 of its report, "exit_codes": {run label: code}}."""
    out: dict = {"exit_codes": {}}
    for flags in FLAGS:
        for preset in preset_ids():
            label = " ".join((preset,) + flags)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                out["exit_codes"][label] = main(["paper-example", preset, *flags])
            out[label] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_preset_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    labels = [" ".join((p,) + f) for f in FLAGS for p in preset_ids()]
    assert sorted(golden) == sorted(labels + ["exit_codes"])
    assert sorted(golden["exit_codes"]) == sorted(labels)
    assert _record() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
