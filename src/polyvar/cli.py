"""Command-line front end: problem files in, deterministic reports out.

Exit codes: 0 computed / condition holds; 1 condition fails or an inclusion
is violated (a witness is in the report); 2 some verdict is Unknown or a
candidate is Inconclusive; 3 malformed input.  Reports are canonical JSON
(sorted keys, exact rationals), byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .exactgeom import RayLimitError
from .multimaps import PieceLimitError
from .presets import load_preset, preset_ids
from .problemfile import ProblemFile, ProblemFileError, load_path
from .runner import (
    EXIT_INPUT,
    OPS,
    QUALS_DIAGNOSTIC,
    QUALS_STRICT,
    run_query,
)
from .stratify import ActiveRowLimitError

RULE_PREFIX = "rule-"  # op "rule-X" runs as `polyvar rule X`


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here (default: stdout)")
    p.add_argument("--cross-check", action="store_true", help="run oracle probes")
    p.add_argument(
        "--quals",
        choices=(QUALS_STRICT, QUALS_DIAGNOSTIC),
        default=QUALS_DIAGNOSTIC,
        help="how non-Holds hypotheses affect rule exit codes",
    )
    p.add_argument(
        "--decimal", action="store_true", help="add decimal renderings of rationals"
    )
    p.add_argument("--query", action="append", help="run only the named query")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyvar",
        description="exact normal cones, coderivatives and subdifferentials "
        "relative to a convex set",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in OPS:
        if not name.startswith(RULE_PREFIX):
            p = sub.add_parser(name, help=f"run {name} queries from a problem file")
            p.add_argument("file")
            _common_flags(p)
    rule = sub.add_parser("rule", help="run calculus-rule queries")
    rules = (op[len(RULE_PREFIX) :] for op in OPS if op.startswith(RULE_PREFIX))
    rule.add_argument("which", choices=sorted(rules))
    rule.add_argument("file")
    _common_flags(rule)
    pe = sub.add_parser("paper-example", help="run a bundled worked example")
    pe.add_argument("id", choices=preset_ids())
    _common_flags(pe)
    return parser


def _select_queries(pf: ProblemFile, ops: tuple[str, ...], names) -> list[dict]:
    chosen = [q for q in pf.queries if q["op"] in ops]
    if names:
        wanted = set(names)
        missing = wanted - {q["name"] for q in chosen}
        if missing:
            raise ProblemFileError(f"unknown query name(s): {sorted(missing)}")
        chosen = [q for q in chosen if q["name"] in wanted]
    if not chosen:
        raise ProblemFileError("no matching queries in the problem file")
    return chosen


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".polyvar-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "paper-example":
            pf, preset_names = load_preset(args.id)
            names = args.query or preset_names
            ops = tuple(set(q["op"] for q in pf.queries))
            command_label = f"paper-example {args.id}"
        else:
            pf = load_path(args.file)
            if args.command == "rule":
                ops = (RULE_PREFIX + args.which,)
                command_label = f"rule {args.which}"
            else:
                ops = (args.command,)
                command_label = args.command
            names = args.query
        queries = _select_queries(pf, ops, names)
    except (ProblemFileError, OSError, KeyError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT

    results = []
    worst = 0
    total_flags = 0
    try:
        for q in queries:
            rendered, code, flags = run_query(
                pf.objects,
                q,
                quals_mode=args.quals,
                cross_check=args.cross_check,
                decimal=args.decimal,
            )
            total_flags += flags
            worst = max(worst, code)
            results.append(
                {"name": q["name"], "op": q["op"], "exit_code": code, **rendered}
            )
    except (ValueError, PieceLimitError, ActiveRowLimitError, RayLimitError) as exc:
        sys.stderr.write(f"input error: query {q['name']!r}: {exc}\n")
        return EXIT_INPUT

    report = {
        "tool": "polyvar",
        "command": command_label,
        "queries": results,
        "exit_code": worst,
    }
    if args.cross_check:
        report["oracle_flags"] = total_flags
    _emit(report, args.out)
    return worst


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
