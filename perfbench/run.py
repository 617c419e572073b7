"""The polyvar benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {presets,struct,rules,scaling} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the engine from `src/`.  Load
model: a closed loop with one client.  A pass is the workload's fixed list
of items, run one after another; passes with fresh seeded inputs repeat
until `--seconds` is used up.  Every pass of struct, rules and scaling runs
in a fresh interpreter, and every presets item is a fresh CLI interpreter,
so nothing one pass computes can be reused by the next; one child process
runs at a time.  Every item's time is the median over the passes, and
`run_s` is their sum: one pass of typical items.  `--trace 1` instead runs
the first two passes with layer spans recorded, each followed by the same
pass untraced, and reports per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib.util
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("presets", "struct", "rules", "scaling")
# A run makes at least MIN_PASSES passes, past --seconds if it must, and
# item_tail_ms is the highest percentile of the item executions that leaves
# at least ten of them beyond it in that many passes
MIN_PASSES = 3
SETUP_REPEATS = 7
MAX_PASSES = 24
TRACED_PASSES = 2
OUT_DIR = "perfbench_out"
DIGESTS = os.path.join(HERE, "digests.json")
# A shared VM's speed can drift by up to 2x within a minute (other tenants),
# and what the benchmark times drifts with it, so times are reported at
# reference speed: wall seconds times a yardstick's nominal time over its
# measured time, measured right before and right after.  In-process items
# use a pure-Fraction loop (REF_SECONDS); fresh interpreters (set-up, the
# presets' CLI items) use a bare interpreter start (BARE_SECONDS), which
# follows their start-up costs where the loop does not.  The wall figures
# are printed and kept in the run's record.
REF_SECONDS = 0.005
BARE_SECONDS = 0.07


def bare_start_seconds() -> float:
    """Wall time of `python3 -c pass` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Wall time of a fixed pure-Fraction loop, garbage collection off so
    that a large heap left by the engine does not slow the yardstick."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 701):
            s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _src() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "polyvar", "__init__.py")):
        raise SystemExit("perfbench: src/polyvar not found; run from the repository root")
    if src not in sys.path:
        sys.path.insert(0, src)
    return src


# -- set-up -------------------------------------------------------------------


def setup(workload: str, seed: int, pass_index: int = 0, limit: int | None = None) -> list:
    """Import the engine and generate the items of one pass from the seed.
    The presets run in one seeded order, the same on every pass."""
    _src()
    import polyvar  # noqa: F401  (its import is part of set-up)

    if workload == "presets":
        from polyvar.presets import preset_ids

        order = list(preset_ids())
        random.Random(f"presets/{seed}").shuffle(order)
        return [("preset", p) for p in order[:limit]]
    import workloads

    return workloads.make_pass(workload, seed, pass_index, workloads.instances(workload)[:limit])


def measure_setup(workload: str, seed: int) -> float:
    """Median time, at reference speed, of a fresh interpreter doing only
    the set-up of one pass."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        bare = bare_start_seconds()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start) * BARE_SECONDS / bare)
    return statistics.median(times)


# -- items --------------------------------------------------------------------


class Runner:
    """Runs passes, checks their items and keeps the per-item record of one
    run.  The presets' items run from this process, one CLI interpreter
    each; every other pass runs in a child interpreter of its own
    (`run_items` there), whose record is merged here."""

    def __init__(self, workload: str, seed: int, digests_path: str = DIGESTS,
                 limit: int | None = None, tracer=None):
        self.workload = workload
        self.seed = seed
        self.digests_path = digests_path
        with open(digests_path) as fh:
            self.digests = json.load(fh)
        self.limit = limit
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.errors: list[str] = []
        self.ref_ms: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (_src(), os.environ.get("PYTHONPATH")) if p
        ))
        os.makedirs(os.path.join(OUT_DIR, "reports"), exist_ok=True)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def run_pass(self, pass_index: int, n_items: int, traced: bool) -> list:
        """Run one pass; returns each item's (seconds at reference speed,
        wall seconds), or None where the item raised."""
        if self.workload == "presets":
            items = setup("presets", self.seed, pass_index, self.limit)
            return self.run_items(pass_index, items, traced)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(traced)),
               "--pass-index", str(pass_index), "--digests", self.digests_path]
        if self.limit is not None:
            cmd += ["--limit", str(self.limit)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        try:
            child = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            child = None
        if proc.returncode != 0 or child is None:
            self.attempted += n_items
            for _ in range(n_items):
                self._fail(f"pass {pass_index}: child exited {proc.returncode}: {proc.stderr[-300:]!r}")
            return [None] * n_items
        self.attempted += child["attempted"]
        self.failed += child["failed"]
        self.digest_checked += child["digest_checked"]
        self.errors += child["errors"][: 20 - len(self.errors)]
        self.ref_ms += child["ref_ms"]
        if traced:
            self.tracer.absorb(child["trace"])
        return [tuple(t) if t is not None else None for t in child["times"]]

    def run_items(self, pass_index: int, items, traced: bool) -> list:
        """Run the items of one pass in this process (the CLI items each in
        a fresh interpreter)."""
        yardstick, nominal = (
            (bare_start_seconds, BARE_SECONDS)
            if self.workload == "presets"
            else (reference_seconds, REF_SECONDS)
        )
        times = []
        before = yardstick()
        for index, item in enumerate(items):
            item_id = f"{pass_index}:{index}"
            self.attempted += 1
            if self.workload == "presets":
                wall = self._preset(item[1], item_id, traced)
            else:
                wall = self._in_process(pass_index, index, item, item_id, traced)
            after = yardstick()
            ref, before = (before + after) / 2, after
            self.ref_ms.append(ref * 1000.0)
            times.append(None if wall is None else (wall * nominal / ref, wall))
        return times

    def _in_process(self, pass_index, index, item, item_id, traced):
        import workloads

        kind, args = item
        if traced:
            self.tracer.item = item_id
            self.tracer.on = True
        try:
            start = time.perf_counter()
            out = workloads.compute(kind, args)
            seconds = time.perf_counter() - start
        except Exception as exc:  # an engine error fails the item, not the run
            self._fail(f"{item_id} {kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if traced:
                self.tracer.on = False
        try:
            workloads.verify(kind, args, out)
            got = workloads.digest(workloads.material(kind, out))
        except Exception as exc:  # CheckFailed, or an output the checks cannot read
            self._fail(f"{item_id} {kind}: {type(exc).__name__}: {exc}")
            return seconds
        recorded = self.digests.get(self.workload, {}).get(str(self.seed), [])
        if pass_index < len(recorded) and index < len(recorded[pass_index]):
            self.digest_checked += 1
            if recorded[pass_index][index] != got:
                self._fail(f"{item_id} {kind}: digest mismatch")
        return seconds

    def _preset(self, preset, item_id, traced):
        report = os.path.join(OUT_DIR, "reports", f"{preset}.json")
        if os.path.exists(report):
            os.remove(report)
        if traced:
            spans_path = os.path.join(OUT_DIR, "reports", f"{preset}.spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_item.py"), preset, report, spans_path]
        else:
            cmd = [sys.executable, "-m", "polyvar.cli", "paper-example", preset, "--out", report]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        seconds = time.perf_counter() - start
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                self.tracer.absorb(json.load(fh), item_id)
        expected = self.digests.get("presets", {}).get(preset)
        if not os.path.exists(report):
            self._fail(f"{item_id} {preset}: no report, exit {proc.returncode}: {proc.stderr[-300:]!r}")
            return seconds
        with open(report, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        if expected is None:
            self._fail(f"{item_id} {preset}: no recorded digest")
        elif [got, proc.returncode] != expected:
            self._fail(f"{item_id} {preset}: report {got[:12]} exit {proc.returncode}, recorded {expected[0][:12]} exit {expected[1]}")
        else:
            self.digest_checked += 1
        return seconds


def pass_child(workload: str, seed: int, pass_index: int, trace: bool,
               digests_path: str, limit: int | None) -> None:
    """The child interpreter of one pass: set up, run and check its items
    and print its record as one JSON line."""
    items = setup(workload, seed, pass_index, limit)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(workload, seed, digests_path, limit, tracer)
    times = runner.run_items(pass_index, items, trace)
    print(json.dumps({
        "times": times,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "digest_checked": runner.digest_checked,
        "errors": runner.errors,
        "ref_ms": runner.ref_ms,
        "trace": tracer.dump() if trace else None,
    }))


# -- metrics ------------------------------------------------------------------


def tail_percentile(items: int) -> int:
    """The highest whole percentile of the item executions of MIN_PASSES
    passes of `items` items that leaves at least ten of them beyond it."""
    executions = items * MIN_PASSES
    return max(0, 100 * (executions - 10) // executions)


def _rank(n: int, pct: int) -> int:
    """Nearest rank of the percentile among n values (1-based)."""
    return max(1, -(-pct * n // 100))


def _percentile(values: list[float], pct: int) -> float:
    return sorted(values)[_rank(len(values), pct) - 1]


def item_medians(passes: list[list], which: int = 0) -> list:
    """Each item's median time across the passes (0: at reference speed,
    1: wall), None if it never completed.  Every pass runs the same items
    in the same order.  A burst of machine noise then moves one sample of
    an item, not the figure."""
    out = []
    for samples in zip(*passes):
        done = [s[which] for s in samples if s is not None]
        out.append(statistics.median(done) if done else None)
    return out


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def machine_facts() -> dict:
    _src()
    from polyvar import lp

    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "lp_scalar": f"{lp._Q.__module__}.{lp._Q.__name__}",
        "fraction_path": lp._Q is Fraction,
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    digests_path: str = DIGESTS,
    max_passes: int = MAX_PASSES,
    limit: int | None = None,
    setup_s: float | None = None,
) -> dict:
    """One benchmark run; returns the full record (metrics and diagnostics)."""
    record = {"workload": workload, "seed": seed, "machine": machine_facts()}
    if setup_s is None:
        setup_s = measure_setup(workload, seed)
    if workload == "presets":
        labels = [p for _, p in setup(workload, seed, 0, limit)]
    else:
        import workloads

        labels = [variant for _, variant, _ in workloads.instances(workload)[:limit]]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(workload, seed, digests_path, limit, tracer)
    if not trace:
        done: list[list] = []
        started = time.perf_counter()
        last = 0.0
        for p in range(max_passes):
            if len(done) >= MIN_PASSES and time.perf_counter() - started + last > seconds:
                break
            pass_start = time.perf_counter()
            done.append(runner.run_pass(p, len(labels), traced=False))
            last = time.perf_counter() - pass_start
        per_item = item_medians(done)
        meds = [m for m in per_item if m is not None] or [0.0]
        executions = [t[0] for times in done for t in times if t is not None] or [0.0]
        tail_pct = tail_percentile(len(labels))
        walls = [m for m in item_medians(done, 1) if m is not None] or [0.0]
        wall_executions = [t[1] for times in done for t in times if t is not None] or [0.0]
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (sum(meds), "s"),
            "item_p50_ms": (statistics.median(meds) * 1000.0, "ms"),
            "item_tail_ms": (_percentile(executions, tail_pct) * 1000.0, "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        record["wall"] = {
            "run_s": sum(walls),
            "item_p50_ms": statistics.median(walls) * 1000.0,
            "item_tail_ms": _percentile(wall_executions, tail_pct) * 1000.0,
        }
        record["passes"] = len(done)
        record["items"] = len(labels)
        record["tail_percentile"] = tail_pct
        record["executions_beyond_tail"] = len(executions) - _rank(len(executions), tail_pct)
        if workload == "scaling":
            record["curve_ms"] = {
                f"d={d},k={k}": m * 1000.0
                for (d, k), m in zip(labels, per_item)
                if m is not None
            }
    else:
        from tracing import EXPECTED, layer_metrics

        traced_s, untraced_s = [], []
        for p in range(TRACED_PASSES):
            traced_s.append(runner.run_pass(p, len(labels), traced=True))
            untraced_s.append(runner.run_pass(p, len(labels), traced=False))
        layers = layer_metrics(tracer)
        metrics = {
            name: (value, "s" if name.endswith("_s") else "ratio" if name.endswith("yield") else "count")
            for name, value in layers.items()
        }
        run_traced = sum(m for m in item_medians(traced_s) if m is not None)
        run_plain = sum(m for m in item_medians(untraced_s) if m is not None)
        metrics["trace.run_s"] = (run_traced, "s")
        metrics["trace.untraced_run_s"] = (run_plain, "s")
        metrics["trace.overhead_ratio"] = (run_traced / run_plain - 1.0 if run_plain else 0.0, "ratio")
        calls = collections.Counter(span[0] for span in tracer.spans)
        missing = [layer for layer in EXPECTED[workload] if not calls[layer]]
        for layer in missing:
            runner._fail(f"traced layer {layer} recorded no calls (missed rebinding?)")
        record["missing_layers"] = missing
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl"))
    record["reference_ms"] = statistics.median(runner.ref_ms or [0.0])
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["fail_ratio"] = runner.failed / max(runner.attempted, 1)
    record["digest_checked"] = runner.digest_checked
    record["errors"] = runner.errors
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--digests", default=DIGESTS, help=argparse.SUPPRESS)
    ap.add_argument("--limit", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _src()
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    if args.pass_index is not None:
        pass_child(args.workload, args.seed, args.pass_index, bool(args.trace),
                   args.digests, args.limit)
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print_report(record)
    return 1 if record["failed"] else 0


def print_report(record: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    print("machine:", json.dumps(record["machine"]))
    if not record["machine"]["fraction_path"]:
        print("WARNING: not the pure-Fraction LP path; the ROADMAP counts only that one")
    for err in record["errors"]:
        print("FAILED:", err)
    nominal = BARE_SECONDS if record["workload"] == "presets" else REF_SECONDS
    print(
        f"times at reference speed: yardstick {nominal * 1000:g} ms nominal, "
        f"{record['reference_ms']:.3f} ms median in this run"
    )
    if "wall" in record:
        print("wall-clock:", json.dumps({k: round(v, 4) for k, v in record["wall"].items()}))
    if "curve_ms" in record:
        print("curve_ms (median item per d,k):", json.dumps(record["curve_ms"]))
    if "passes" in record:
        print(
            f"passes: {record['passes']} of {record['items']} items; item times are "
            f"each item's median over the passes; item_tail_ms = p{record['tail_percentile']} "
            f"of all item executions ({record['executions_beyond_tail']} beyond it)"
        )
    else:
        print(f"traced passes: {TRACED_PASSES}, each re-run untraced on the same inputs")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(
        f"  {'fail_ratio':40s} {record['fail_ratio']:.6g} ratio "
        f"({record['failed']}/{record['attempted']}; {record['digest_checked']} digest-checked)"
    )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
