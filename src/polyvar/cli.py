"""Command-line front end: problem files in, deterministic reports out.

Exit codes: 0 computed / condition holds; 1 condition fails or an inclusion
is violated (a witness is in the report); 2 an MPEC candidate is
Inconclusive; 3 malformed input or an unwritable `--out`.  Reports are
canonical JSON (sorted keys, exact rationals), byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exactgeom import LimitError
from .presets import load_preset, preset_ids
from .problemfile import ProblemFile, ProblemFileError, load_path
from .runner import (
    EXIT_INPUT,
    OPS,
    QUALS_DIAGNOSTIC,
    QUALS_STRICT,
    run_query,
)

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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of `command` if it names one:
    parsing a command line that starts with its name needs no other."""
    parser = argparse.ArgumentParser(
        prog="polyvar",
        description="exact normal cones, coderivatives and subdifferentials "
        "relative to a convex set",
    )
    commands = [name for name in OPS if not name.startswith(RULE_PREFIX)]
    commands += ["rule", "paper-example"]
    built = [command] if command in commands else commands
    # a parser of one command still lists every command in its usage, which
    # its only top-level error (an unrecognized argument) prints; the full
    # parser names the command argument "command" in its errors
    metavar = "{" + ",".join(commands) + "}" if len(built) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in built:
        if name == "rule":
            p = sub.add_parser("rule", help="run calculus-rule queries")
            rules = (op[len(RULE_PREFIX) :] for op in OPS if op.startswith(RULE_PREFIX))
            p.add_argument("which", choices=sorted(rules))
            p.add_argument("file")
        elif name == "paper-example":
            p = sub.add_parser(name, help="run a bundled worked example")
            p.add_argument("id", choices=preset_ids())
        else:
            p = sub.add_parser(name, help=f"run {name} queries from a problem file")
            p.add_argument("file")
        _common_flags(p)
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
    # a fresh file next to the target, renamed onto it: no reader sees a
    # partial report
    directory = os.path.dirname(os.path.abspath(out))
    tmp = os.path.join(directory, f".polyvar-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
    except (ValueError, LimitError) as exc:
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
    try:
        _emit(report, args.out)
    except OSError as exc:
        sys.stderr.write(f"output error: {args.out}: {exc.strerror or exc}\n")
        return EXIT_INPUT
    return worst


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
