"""Spans around the engine's layer entry points, recorded from outside.

`Tracer.install()` rebinds module-level functions of `polyvar` to timing
wrappers.  Callers that imported a function by name hold their own
reference, so every module attribute that *is* the original function is
replaced, wherever it lives (for instance `cones`, `quals` and
`multimaps` import `local_cells` by name).  Nothing under `src/` changes.

A span is (name, start, end, parent span index, item id, extra); spans are
kept in memory and written out when the run ends.  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time

# (module, function) -> layer name
TARGETS = (
    ("polyvar.lp", "solve", "lp.solve"),
    ("polyvar.lp", "strict_feasible_point", "lp.strict_feasible_point"),
    ("polyvar.exactgeom", "_canon_h", "exactgeom.canon"),
    ("polyvar.exactgeom", "_dd", "exactgeom.dd"),
    ("polyvar.exactgeom", "union_subset", "exactgeom.union_subset"),
    ("polyvar.stratify", "local_cells", "stratify.local_cells"),
    ("polyvar.stratify", "global_cells", "stratify.global_cells"),
    ("polyvar.cones", "frechet_normal_wrt", "cones.frechet"),
    ("polyvar.cones", "limiting_normal_wrt", "cones.limiting"),
    ("polyvar.quals", "lqc_wrt_check", "quals.lqc"),
    ("polyvar.quals", "normal_densed_check", "quals.normal_densed"),
    ("polyvar.calculus", "product_rule", "calculus.rules"),
    ("polyvar.calculus", "mixed_product_rule", "calculus.rules"),
    ("polyvar.calculus", "intersection_rule", "calculus.rules"),
    ("polyvar.calculus", "preimage_rule", "calculus.rules"),
    ("polyvar.multimaps", "sum_rule", "calculus.rules"),
    ("polyvar.multimaps", "chain_rule", "calculus.rules"),
    ("polyvar.multimaps", "coderivative_wrt", "multimaps.coderivative"),
    ("polyvar.runner", "run_query", "runner.run_query"),
    ("polyvar.cli", "main", "cli"),
)

# layers whose distinct inputs are counted (the bound on memoisation)
_KEYED = {"lp.solve", "exactgeom.canon", "exactgeom.dd"}

# the layers each workload must reach; a zero count there means a missed
# rebinding, which fails the traced run
EXPECTED = {
    "presets": (
        "lp.solve", "exactgeom.canon", "exactgeom.dd", "exactgeom.union_subset",
        "stratify.local_cells", "cones.frechet", "cones.limiting", "quals.lqc",
        "quals.normal_densed", "calculus.rules", "multimaps.coderivative",
        "runner.run_query", "cli",
    ),
    "struct": (
        "lp.solve", "exactgeom.canon", "exactgeom.dd", "exactgeom.union_subset",
        "stratify.local_cells", "cones.frechet", "cones.limiting", "calculus.rules",
        "multimaps.coderivative",
    ),
    "rules": (
        "lp.solve", "exactgeom.canon", "exactgeom.dd", "exactgeom.union_subset",
        "stratify.local_cells", "stratify.global_cells", "cones.limiting",
        "quals.lqc", "quals.normal_densed", "calculus.rules",
        "multimaps.coderivative",
    ),
    "scaling": (
        "lp.solve", "exactgeom.canon", "exactgeom.dd", "exactgeom.union_subset",
        "stratify.local_cells", "cones.frechet", "cones.limiting",
    ),
}


def _input_key(args, kwargs) -> str:
    """A process-independent fingerprint of a call's arguments."""
    return hashlib.blake2b(repr((args, sorted(kwargs.items()))).encode(), digest_size=12).hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.keys: dict[str, set] = {name: set() for name in _KEYED}
        self.item = None
        self.on = False
        self._stack: list[int] = []
        self._installed: list = []

    def _wrap(self, name: str, func):
        tracer = self
        keyed = name in _KEYED

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return func(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.item, None)
            if keyed:
                tracer.keys[name].add(_input_key(args, kwargs))
            if name == "lp.solve":
                spans[idx] = spans[idx][:5] + (out[0],)
            elif name in ("stratify.local_cells", "stratify.global_cells"):
                spans[idx] = spans[idx][:5] + (len(out),)
            return out

        return wrapper

    def install(self) -> None:
        """Rebind every reference to each target function, in every module."""
        import importlib

        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            hits = 0
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        self._installed.append((namespace, key, original))
                        hits += 1
            if not hits:  # pragma: no cover - the target itself always matches
                raise RuntimeError(f"{module_name}.{attr} was not rebound")

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._installed):
            namespace[key] = original
        self._installed.clear()

    def dump(self) -> dict:
        """Spans and distinct-input fingerprints as plain JSON data."""
        return {"spans": self.spans, "keys": {k: sorted(v) for k, v in self.keys.items()}}

    def absorb(self, data: dict, item=None) -> None:
        """Append a child process's dump, re-indexing its parent links; the
        spans get item id `item` if one is given."""
        offset = len(self.spans)
        for name, start, end, parent, own_item, extra in data["spans"]:
            self.spans.append(
                (name, start, end, parent + offset if parent >= 0 else -1, item or own_item, extra)
            )
        for k, v in data["keys"].items():
            self.keys[k].update(v)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times (seconds) from the recorded spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])

    def under(parent_layer: str) -> int:
        return sum(
            1
            for name, _, _, parent, _, _ in spans
            if name == "lp.strict_feasible_point"
            and parent >= 0
            and spans[parent][0] == parent_layer
        )

    def cells(layer: str) -> int:
        return sum(extra for name, *_, extra in spans if name == layer)

    m: dict[str, float] = {}

    def put(layer: str, *fields: str) -> None:
        for f in fields:
            if f == "calls":
                m[f"{layer}.calls"] = calls.get(layer, 0)
            elif f == "total_s":
                m[f"{layer}.total_s"] = total.get(layer, 0.0)
            elif f == "self_s":
                m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            elif f == "distinct":
                m[f"{layer}.distinct"] = len(tracer.keys[layer])

    put("lp.solve", "calls", "distinct", "self_s")
    m["lp.solve.infeasible"] = sum(
        1 for name, *_, extra in spans if name == "lp.solve" and extra == "infeasible"
    )
    put("exactgeom.canon", "calls", "distinct", "total_s", "self_s")
    put("exactgeom.dd", "calls", "distinct", "self_s")
    put("exactgeom.union_subset", "calls", "total_s")
    m["exactgeom.union_subset.regions"] = under("exactgeom.union_subset")
    for layer in ("stratify.local_cells", "stratify.global_cells"):
        put(layer, "calls", "total_s")
        nodes = under(layer)
        m[f"{layer}.nodes"] = nodes
        m[f"{layer}.cells"] = cells(layer)
    put("stratify.local_cells", "self_s")
    nodes = m["stratify.local_cells.nodes"]
    m["stratify.local_cells.yield"] = m["stratify.local_cells.cells"] / nodes if nodes else 0.0
    for layer in (
        "cones.frechet",
        "cones.limiting",
        "quals.lqc",
        "quals.normal_densed",
        "calculus.rules",
        "multimaps.coderivative",
    ):
        put(layer, "calls", "total_s")
    put("runner.run_query", "calls", "self_s")
    m["cli.self_s"] = self_s.get("cli", 0.0)
    return m

