"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

From the repository root.  For each workload it runs one pass of two items,
untraced and traced, and checks that every metric of BENCHMARK.json is
printed by name with its unit and that the untraced run has fail_ratio 0.
Negative cases: a wrong recorded digest (a preset report and a random
item) must make fail_ratio positive.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import run

TINY = {"max_passes": 1, "limit": 2, "setup_s": 0.0}


def _printed(record: dict) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_report(record)
    text = buf.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def _check_names(text: str, result: dict, wanted: list[dict], where: str) -> list[str]:
    problems = []
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"{where}: {name} [{unit}] missing from the result line")
        elif f"{name} " not in text or f" {unit}\n" not in text:
            problems.append(f"{where}: {name} [{unit}] not printed")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    problems: list[str] = []
    for workload in run.WORKLOADS:
        record = run.run_workload(workload, 0, 0.0, False, run.DIGESTS, **TINY)
        text, result = _printed(record)
        problems += _check_names(text, result, spec["end_to_end"], f"{workload} untraced")
        if record["fail_ratio"] != 0:
            problems.append(f"{workload}: fail_ratio {record['fail_ratio']}: {record['errors']}")
        if "fail_ratio" not in text:
            problems.append(f"{workload}: fail_ratio not printed")
        record = run.run_workload(workload, 0, 0.0, True, run.DIGESTS, **TINY)
        text, result = _printed(record)
        problems += _check_names(text, result, spec["per_layer"], f"{workload} traced")
        print(f"selftest: {workload} ok" if not problems else f"selftest: {workload} ...")

    wrong = copy.deepcopy(digests)
    first = sorted(wrong["presets"])[0]
    wrong["presets"][first][0] = "0" * 64
    wrong["struct"]["0"][0][0] = "0" * 64
    wrong_path = os.path.join(run.OUT_DIR, "wrong-digests.json")
    with open(wrong_path, "w") as fh:
        json.dump(wrong, fh)
    for workload in ("presets", "struct"):
        limit = None if workload == "presets" else 1
        record = run.run_workload(
            workload, 0, 0.0, False, wrong_path, max_passes=1, limit=limit, setup_s=0.0
        )
        if not record["fail_ratio"] > 0:
            problems.append(f"{workload}: a wrong recorded digest left fail_ratio at 0")
    print("selftest: negative digest cases done")

    for p in problems:
        print("SELFTEST FAILURE:", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    os.makedirs(run.OUT_DIR, exist_ok=True)
    sys.exit(main())
