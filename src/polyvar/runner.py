"""Query execution and deterministic report rendering for the CLI.

`OPS` is the one table of query operations: the problem-file schema
(`problemfile.loads`), the CLI subcommands (`cli`) and `run_query` all
read it.  An op names its engine as (module, function) and `run_query`
imports that module when the op runs, so a query loads only the engine
modules it calls; the function is looked up on the module at each call,
so a rebinding of the module attribute (perfbench's tracer rebinds them)
is seen.

`render` gives a result's report: an engine result record renders as its
fields, with `rule_id` printed as `rule`; a `TriVerdict` prints as
`verdict`/`certificate`, and polyhedra, cones and unions as their rows and
parts.
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction
from typing import Any, Callable

from . import verdicts
from ._record import record
from .exactgeom import ConeH, ConvexPoly, FiniteUnion
from .linalg import Vec, neg
from .verdicts import FAILS, HOLDS, RuleReport, TriVerdict

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

QUALS_STRICT = "strict"
QUALS_DIAGNOSTIC = "diagnostic"


# -- rendering ---------------------------------------------------------------


def _num(x: int | Fraction, decimal: bool):
    return {"exact": str(x), "decimal": float(x)} if decimal else str(x)


def _vec(v: Vec, decimal: bool):
    return [_num(x, decimal) for x in v]


def _rows(rows, decimal: bool):
    return [[_vec(a, decimal), _num(b, decimal)] for a, b in rows]


# report keys that differ from their record's field names
_KEYS = {"rule_id": "rule"}


def render(obj: Any, decimal: bool = False):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return "inf" if math.isinf(obj) else obj
    if isinstance(obj, Fraction):
        return _num(obj, decimal)
    if isinstance(obj, tuple) and all(isinstance(x, Fraction) for x in obj):
        return _vec(obj, decimal)
    if isinstance(obj, ConeH):
        if obj.empty:
            return {"empty": True}
        # int rows print as the Fractions they equal
        return {
            "ineqs": [_vec(a, decimal) for a in obj.rows],
            "eqs": [_vec(e, decimal) for e in obj.eq_rows],
            "rays": [_vec(r, decimal) for r in obj.rays],
            "lineality": [_vec(l, decimal) for l in obj.lineality],
        }
    if isinstance(obj, FiniteUnion):
        return {"parts": [render(p, decimal) for p in obj.parts]}
    if isinstance(obj, ConvexPoly):
        if obj.is_empty():
            return {"empty": True}
        return {
            "ineqs": _rows(obj.rows, decimal),
            "eqs": _rows(obj.eq_rows, decimal),
        }
    if isinstance(obj, TriVerdict):
        return {"verdict": obj.value, "certificate": render(obj.certificate, decimal)}
    if isinstance(obj, dict):
        return {k: render(v, decimal) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [render(v, decimal) for v in obj]
    if hasattr(type(obj), "__match_args__"):
        # any other record: its fields are its report keys
        return {
            _KEYS.get(f, f): render(getattr(obj, f), decimal)
            for f in type(obj).__match_args__
        }
    raise TypeError(f"cannot render {type(obj).__name__}")


# -- the op table ------------------------------------------------------------


@record
class Field:
    """A query field.  `dims` names its dimension, and fields that share a
    symbol must agree: "d" for a set, function or point, "d>e" for a map's
    input>output, "n+s" for the sum of the integer fields n and s."""

    name: str
    type: Any  # a value of FIELD_TYPES
    dims: str
    optional: bool

    @property
    def is_ref(self) -> bool:
        return isinstance(self.type, str)


@record
class Op:
    key: str  # report key of the result
    engine: tuple[str, str]  # (module of polyvar, function)
    exit_code: Callable[[Any, str], int]  # (result, quals mode) -> exit code
    fields: tuple[Field, ...]  # in the engine's call order
    probe: Callable | None  # --cross-check: (args, result, decimal) -> (extra, flags)


def dims_of(obj) -> tuple[int, ...]:
    """(input, output) dimensions of a map; (dimension,) of anything else."""
    if hasattr(obj, "out_dim"):
        return obj.in_dim, obj.out_dim
    return (len(obj),) if isinstance(obj, tuple) else (obj.dim,)


def _mpec_check(f, g, c1, c2, point):
    from . import mpec

    problem = mpec.MPECProblem(f.dim, g.out_dim, f, g, c1, c2)
    return mpec.stationarity_check(problem, point)


def _computed(result, quals_mode: str) -> int:
    return EXIT_OK


def _verdict_code(v: TriVerdict, quals_mode: str) -> int:
    return {HOLDS: EXIT_OK, FAILS: EXIT_FAILS}[v.value]


def _rule_code(report: RuleReport, quals_mode: str) -> int:
    base = EXIT_OK if report.inclusion_holds else EXIT_FAILS
    if quals_mode == QUALS_DIAGNOSTIC:
        return base
    if any(v.is_fails() for _, v in report.qualifications):
        return EXIT_FAILS
    return base


def _mpec_code(report, quals_mode: str) -> int:
    from . import mpec

    return {
        mpec.NECESSARY_CONDITIONS_HOLD: EXIT_OK,
        mpec.CERTIFIED_NON_OPTIMAL: EXIT_FAILS,
        mpec.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[report.verdict]


def _probe_cone(args, result, decimal: bool) -> tuple[dict, int]:
    """Cross-check Fréchet membership of generators and their negations.

    The probe tests the Fréchet limsup property, so claims are made against
    the exact Fréchet cone at the point even when the query computed the
    limiting cone (whose extra generators are claimed non-members).
    """
    from . import cones, oracle

    omega, wrt, point, _ = args
    union = result if isinstance(result, FiniteUnion) else FiniteUnion.single(result)
    if union.is_empty():
        return {}, 0
    frechet = cones.frechet_normal_wrt(omega, wrt, point)
    directions: list[Vec] = []
    for part in union.parts:
        directions.extend(part.rays)
        directions.extend(part.lineality)
        directions.extend(neg(r) for r in part.rays)
    flags = 0
    for d in directions:
        claimed = frechet.contains(d)
        verdict = oracle.frechet_membership_probe(omega, wrt, point, d, claimed)
        if verdict == oracle.INCONSISTENT:
            flags += 1
    return {}, flags


def _probe_aubin(args, result: TriVerdict, decimal: bool) -> tuple[dict, int]:
    from . import oracle

    ratio = oracle.aubin_ratio_probe(*args)
    flagged = result.is_holds() and ratio > oracle.DIVERGENCE_SENTINEL
    return {"sampled_ratio": render(ratio, decimal)}, int(flagged)


# a reference names an object of that type in the problem file; a literal is
# a positive int or one of the engine's own constants
FIELD_TYPES: dict[str, Any] = {
    "polyset": "polyset",
    "convex": "convex",
    "multimap": "multimap",
    "plfunc": "plfunc",
    "point": "point",
    "int": int,
    "cone-kind": (verdicts.KIND_PROXIMAL, verdicts.KIND_FRECHET, verdicts.KIND_LIMITING),
    "subdiff-kind": (verdicts.KIND_FRECHET, verdicts.KIND_LIMITING, verdicts.KIND_HORIZON),
    "pairing": (verdicts.PAIRING_PROOF, verdicts.PAIRING_STATEMENT),
    "variant": (verdicts.VARIANT_SEMICONTINUOUS, verdicts.VARIANT_SEMICOMPACT),
}


def _op(key: str, engine: tuple[str, str], exit_code: Callable, spec: str, probe=None) -> Op:
    """`spec` lists the fields in call order as `name[?]:type[:dims]`; a `?`
    marks an optional field.  An absent optional reference is the whole
    space of the first argument's input dimension; an absent optional
    literal is left to the engine's default, so it must come last."""
    fields = []
    for item in spec.split():
        name, type_name, *dims = item.split(":")
        optional = name.endswith("?")
        fields.append(Field(name.rstrip("?"), FIELD_TYPES[type_name], "".join(dims), optional))
    return Op(key, engine, exit_code, tuple(fields), probe)


_TWO_SETS = "omega1:polyset:d omega2:polyset:d c1:convex:d c2:convex:d point:point:d"

# the CLI runs a "rule-X" op as `polyvar rule X` and every other op as itself
OPS: dict[str, Op] = {
    "normal-cone": _op("cone", ("cones", "normal_cone"), _computed,
        "omega:polyset:d wrt?:convex:d point:point:d kind:cone-kind", _probe_cone),
    "coderivative": _op("slice", ("multimaps", "coderivative_wrt"), _computed,
        "map:multimap:d>e wrt?:convex:d x:point:d y:point:e ystar:point:e"),
    "subdiff": _op("subdifferential", ("plfunc", "subdiff_wrt"), _computed,
        "func:plfunc:d wrt?:convex:d point:point:d kind:subdiff-kind"),
    "check-aubin": _op("aubin", ("multimaps", "aubin_wrt_check"), _verdict_code,
        "map:multimap:d>e wrt?:convex:d x:point:d y:point:e", _probe_aubin),
    "check-lipschitz": _op("lipschitz", ("plfunc", "lipschitz_wrt_check"), _verdict_code,
        "func:plfunc:d wrt?:convex:d point:point:d"),
    "check-lqc": _op("qualification", ("quals", "lqc_wrt_check"), _verdict_code,
        _TWO_SETS),
    "check-normal-densed": _op("qualification", ("quals", "normal_densed_check"),
        _verdict_code, _TWO_SETS),
    "rule-product": _op("report", ("calculus", "product_rule"), _rule_code,
        "omega1:polyset:d c1:convex:d omega2:polyset:e c2:convex:e x1:point:d x2:point:e"),
    "rule-mixed-product": _op("report", ("calculus", "mixed_product_rule"), _rule_code,
        "omega1:polyset:n+s c1:convex:n+s omega2:polyset:m c2:convex:m"
        " n:int m:int s:int point:point:n+m+s pairing?:pairing"),
    "rule-intersection": _op("report", ("calculus", "intersection_rule"), _rule_code,
        _TWO_SETS),
    "rule-preimage": _op("report", ("calculus", "preimage_rule"), _rule_code,
        "map:multimap:d>e theta:polyset:e wrt:convex:d point:point:d"),
    "rule-sum": _op("report", ("multimaps", "sum_rule"), _rule_code,
        "map1:multimap:d>e map2:multimap:d>e c1:convex:d c2:convex:d x:point:d"
        " y:point:e y1:point:e y2:point:e ystar:point:e variant?:variant"),
    "rule-chain": _op("report", ("multimaps", "chain_rule"), _rule_code,
        "inner:multimap:d>e outer:multimap:e>f wrt:convex:d x:point:d z:point:f"
        " y:point:e zstar:point:f variant?:variant"),
    "mpec-check": _op("report", ("runner", "_mpec_check"), _mpec_code,
        "f:plfunc:d g:multimap:d>e c1:convex:d c2:convex:d point:point:d"),
}


# -- execution ---------------------------------------------------------------


def run_query(
    objects: dict[str, Any],
    query: dict,
    quals_mode: str = QUALS_DIAGNOSTIC,
    cross_check: bool = False,
    decimal: bool = False,
) -> tuple[dict, int, int]:
    """Execute one query that `problemfile.loads` accepted; returns
    (rendered result, exit code, oracle flags)."""
    op = OPS[query["op"]]
    args: list = []
    for field in op.fields:
        if field.name in query:
            value = query[field.name]
            args.append(objects[value] if field.is_ref else value)
        elif field.is_ref:
            args.append(ConvexPoly.whole_space(dims_of(args[0])[0]))
    module, function = op.engine
    engine = getattr(importlib.import_module(f"{__package__}.{module}"), function)
    result = engine(*args)
    out = {op.key: render(result, decimal)}
    flags = 0
    if cross_check and op.probe is not None:
        extra, flags = op.probe(args, result, decimal)
        out.update(extra)
    return out, op.exit_code(result, quals_mode), flags
