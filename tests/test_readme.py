"""The README's Python examples run as written.

Each ```python block of README.md runs in a fresh interpreter with only
`src/` on the path, so a renamed or removed public name breaks this test
before it breaks a reader's copy of the example.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks() -> list[str]:
    return BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))


def test_readme_has_the_library_tour():
    assert any("stationarity_check" in code for code in _blocks())


@pytest.mark.parametrize("index", range(len(_blocks())))
def test_readme_python_block_runs(index):
    code = _blocks()[index]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    if "stationarity_check" in code:
        assert proc.stdout.split() == ["NecessaryConditionsHold"]
