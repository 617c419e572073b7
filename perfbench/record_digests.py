"""Record the reference digests that every benchmark run compares against.

    python3 perfbench/record_digests.py

Run from the repository root at a commit whose outputs are trusted.  It
writes perfbench/digests.json:

- presets: for each `paper-example` id, the sha256 of its report and the
  CLI's exit code;
- struct, rules, scaling: for each default seed, the sha256 of each item's
  mathematically determined output (see workloads.material) in the first
  RECORDED_PASSES passes.  Runs on other seeds or later passes are checked
  by properties and certificate validity only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run

DEFAULT_SEEDS = range(0, 11)
RECORDED_PASSES = 2


def main() -> int:
    src = run._src()
    sys.path.insert(0, src)
    from polyvar.presets import preset_ids

    import workloads

    out: dict = {"presets": {}}
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for preset in preset_ids():
        report = os.path.join(run.OUT_DIR, f"record-{preset}.json")
        cmd = [sys.executable, "-m", "polyvar.cli", "paper-example", preset, "--out", report]
        code = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
        with open(report, "rb") as fh:
            out["presets"][preset] = [hashlib.sha256(fh.read()).hexdigest(), code]
        os.remove(report)
    for workload in ("struct", "rules", "scaling"):
        out[workload] = {}
        for seed in DEFAULT_SEEDS:
            passes = []
            for p in range(RECORDED_PASSES):
                digests = []
                for kind, args in workloads.make_pass(workload, seed, p):
                    result = workloads.compute(kind, args)
                    workloads.verify(kind, args, result)
                    digests.append(workloads.digest(workloads.material(kind, result)))
                passes.append(digests)
            out[workload][str(seed)] = passes
            print(workload, seed, flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
