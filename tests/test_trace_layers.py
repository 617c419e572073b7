"""The benchmark's tracer still sees every layer it expects.

`perfbench/run.py --trace 1` fails a workload when a layer that
`tracing.EXPECTED` names records no calls, as when a change routes work
around a traced function.  One in-process traced pass of each in-process
workload catches that in the suite.
"""

from __future__ import annotations

from collections import Counter

import pytest
from conftest import perfbench_module


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
