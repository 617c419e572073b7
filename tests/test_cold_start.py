"""The presets in a fresh `python -O` interpreter: same bytes, no numpy.

numpy and `polyvar.oracle` serve only `--cross-check`, so a run without it
must not load them, nor `dataclasses` or `tempfile` (for `--out`), whose
imports cost more than some queries; `-O` strips `assert`, so the exact
path must not rely on one.  Every start compiles the modules it loads, so a
preset loads only the engine modules its queries call, and `import polyvar`
loads none.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys

import pytest
from conftest import run_optimized

import polyvar
from polyvar.cli import main
from polyvar.presets import preset_ids

CROSS_CHECKED = "ex1-frechet-omega1"

SCRIPT = """
import contextlib, io, json, os, sys
# a site hook (a .pth file) may have loaded tempfile already; drop it so that
# only polyvar's own imports can bring it back
sys.modules.pop("tempfile", None)
import polyvar, polyvar.cli
from polyvar.presets import preset_ids

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = polyvar.cli.main(argv)
    return code, buf.getvalue()

facts = {{"optimize": sys.flags.optimize}}
facts["reports"] = {{p: run(["paper-example", p]) for p in preset_ids()}}
out = os.path.join({out!r}, "report.json")
code = polyvar.cli.main(["paper-example", {cross_checked!r}, "--out", out])
with open(out) as fh:
    facts["out"] = [code, fh.read(), os.stat(out).st_mode & 0o777]
facts["out_dir"] = sorted(os.listdir({out!r}))
LAZY = ("numpy", "polyvar.oracle", "dataclasses", "tempfile")
facts["without_cross_check"] = [m for m in LAZY if m in sys.modules]
code, text = run(["paper-example", {cross_checked!r}, "--cross-check"])
facts["cross_check"] = [code, json.loads(text)["oracle_flags"]]
facts["with_cross_check"] = [m for m in LAZY if m in sys.modules]
json.dump(facts, sys.stdout)
"""


def _in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return [code, buf.getvalue()]


def test_presets_under_optimize_without_numpy(tmp_path):
    facts = run_optimized(SCRIPT.format(out=str(tmp_path), cross_checked=CROSS_CHECKED))
    assert facts["optimize"] == 1
    assert facts["without_cross_check"] == []
    expected = {p: _in_process(["paper-example", p]) for p in preset_ids()}
    assert facts["reports"] == expected
    # --out writes the stdout bytes atomically, owner-only, and leaves no
    # temporary file behind
    assert facts["out"] == [*expected[CROSS_CHECKED], 0o600]
    assert facts["out_dir"] == ["report.json"]
    assert facts["cross_check"] == [expected[CROSS_CHECKED][0], 0]
    assert {"numpy", "polyvar.oracle"} <= set(facts["with_cross_check"])


# the modules every preset loads: the CLI, the problem file, the op table,
# the geometry under every engine, and the cones and qualifications
BASE = {
    "_record", "cli", "cones", "exactgeom", "linalg", "lp", "presets", "problemfile",
    "quals", "runner", "stratify", "verdicts",
}
# family -> (preset id prefixes, the polyvar modules its presets load)
FAMILIES = {
    "example-1": (("ex1-",), BASE),  # cones, LQC, normal-densedness
    "example-2": (("ex2-",), BASE | {"calculus"}),  # the intersection rule
    "mpec": (("mpec-", "aubin-"), BASE | {"mpec", "multimaps", "plfunc"}),
}

MODULES_SCRIPT = """
import contextlib, io, json, sys
import polyvar
facts = {{"import": sorted(m for m in sys.modules if m.startswith("polyvar."))}}
import polyvar.cli
from polyvar.presets import preset_ids
for p in preset_ids():
    if p.startswith({prefixes!r}):
        with contextlib.redirect_stdout(io.StringIO()):
            polyvar.cli.main(["paper-example", p])
facts["run"] = sorted(m[len("polyvar."):] for m in sys.modules if m.startswith("polyvar."))
json.dump(facts, sys.stdout)
"""


def test_families_cover_the_presets():
    prefixes = tuple(p for family, _ in FAMILIES.values() for p in family)
    assert all(p.startswith(prefixes) for p in preset_ids())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_presets_load_only_their_engine_modules(family):
    prefixes, modules = FAMILIES[family]
    facts = run_optimized(MODULES_SCRIPT.format(prefixes=prefixes))
    assert facts["import"] == []
    assert facts["run"] == sorted(modules)


def test_lazy_package_api():
    # one list of public names: the export table's
    assert polyvar.__all__ == sorted(polyvar._EXPORTS)
    namespace: dict = {}
    exec("from polyvar import *", namespace)
    assert namespace["local_cells"] is importlib.import_module("polyvar.stratify").local_cells
    assert set(polyvar.__all__) <= set(namespace) and set(polyvar.__all__) <= set(dir(polyvar))
    for name in polyvar.__all__:
        value = getattr(polyvar, name)
        assert value.__module__.startswith("polyvar."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert namespace[name] is value, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polyvar.no_such_name
    from polyvar import exactgeom, lp

    assert exactgeom is importlib.import_module("polyvar.exactgeom")
    assert lp is importlib.import_module("polyvar.lp")
