"""The benchmark's tracer still sees every layer it expects.

`perfbench/run.py --trace 1` fails a workload when a layer that
`tracing.EXPECTED` names records no calls, as when a change routes work
around a traced function.  One in-process traced pass of each in-process
workload, and the 14 presets run through `cli.main` in this process as
`perfbench/cli_item.py` runs each in its own, catch that in the suite.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest
from conftest import perfbench_module

from polyvar import cli
from polyvar.presets import preset_ids


@pytest.mark.parametrize("workload", ["struct", "rules", "scaling"])
def test_traced_pass_records_every_expected_layer(workload):
    workloads, tracing = perfbench_module("workloads"), perfbench_module("tracing")
    items = workloads.make_pass(workload, 1, 0)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.on = True
    try:
        for kind, args in items:
            workloads.verify(kind, args, workloads.compute(kind, args))
    finally:
        tracer.on = False
        tracer.uninstall()
    calls = Counter(span[0] for span in tracer.spans)
    missing = [layer for layer in tracing.EXPECTED[workload] if not calls[layer]]
    assert not missing, missing


def test_traced_presets_record_every_expected_layer(tmp_path):
    tracing = perfbench_module("tracing")
    digests = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
    )["presets"]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.on = True
    got = {}
    try:
        for preset in preset_ids():
            report = tmp_path / f"{preset}.json"
            code = cli.main(["paper-example", preset, "--out", str(report)])
            got[preset] = [hashlib.sha256(report.read_bytes()).hexdigest(), code]
    finally:
        tracer.on = False
        tracer.uninstall()
    # each report and exit code is the one the benchmark records
    assert len(got) == 14 and got == digests
    calls = Counter(span[0] for span in tracer.spans)
    missing = [layer for layer in tracing.EXPECTED["presets"] if not calls[layer]]
    assert not missing, missing
