"""The 14 preset reports against stored digests: the refactoring fixed point.

`tests/data/preset_reports.json` holds the sha256 of each `paper-example`
report (no flags), so a change that alters any report byte fails here even
though two runs of the changed tree agree with each other.  Regenerate with
`python tests/test_preset_golden.py` only when a report is meant to change.
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


def _digests() -> dict[str, str]:
    out = {}
    for preset in preset_ids():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["paper-example", preset])
        out[preset] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_preset_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(preset_ids())
    assert _digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n")
