"""Problem files: named exact-rational objects plus queries against them.

The format is strict JSON with rationals as integers or "p/q" strings;
unknown fields are rejected with a path diagnostic so that a typo cannot
silently change a problem.  One file may hold many named objects and many
named queries; the CLI selects queries by operation or by name.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from ._record import record
from .exactgeom import ConvexPoly, PolySet, RayLimitError
from .linalg import Vec, rat
from .runner import OPS, Field, dims_of

VERSION_TAG = "polyvar-1"

# the largest ambient dimension of an object, counting a map's graph
# (in_dim + out_dim) and a function's epigraph (dim + 1): well above the
# desk scale (<= 6) the engine is for, far below what exhausts memory
DIM_LIMIT = 16


class ProblemFileError(ValueError):
    pass


def _fail(path: str, message: str):
    raise ProblemFileError(f"{path}: {message}")


def _expect_keys(obj: dict, path: str, required, optional=frozenset()):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for k in obj:
        if k not in required and k not in optional:
            _fail(f"{path}.{k}", "unknown field")
    for k in required:
        if k not in obj:
            _fail(path, f"missing field {k!r}")


_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _rat(value: Any, path: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        _fail(path, "rationals must be integers or 'p/q' strings")
    if isinstance(value, str) and not _RAT_RE.match(value):
        _fail(path, f"not a 'p/q' rational: {value!r}")
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError, TypeError):
        _fail(path, f"not a rational: {value!r}")


def _vec(values: Any, dim: int, path: str) -> Vec:
    if not isinstance(values, list) or len(values) != dim:
        _fail(path, f"expected a list of {dim} rationals")
    return tuple(_rat(v, f"{path}[{i}]") for i, v in enumerate(values))


def _rows(values: Any, dim: int, path: str) -> list[tuple[Vec, Fraction]]:
    if not isinstance(values, list):
        _fail(path, "expected a list of rows")
    out = []
    for i, row in enumerate(values):
        rp = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != 2:
            _fail(rp, "a row is [normal, offset]")
        out.append((_vec(row[0], dim, f"{rp}[0]"), _rat(row[1], f"{rp}[1]")))
    return out


def _positive_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        _fail(path, "expected a positive integer")
    return value


def _dim(spec: dict, key: str, path: str, extra: int = 0) -> int:
    """`spec[key]`, a positive integer that leaves the object's ambient
    dimension, `spec[key] + extra`, within DIM_LIMIT."""
    dim = _positive_int(spec[key], f"{path}.{key}")
    if dim + extra > DIM_LIMIT:
        _fail(f"{path}.{key}", f"ambient dimension {dim + extra} exceeds the limit {DIM_LIMIT}")
    return dim


def _convex(spec: dict, path: str) -> ConvexPoly:
    _expect_keys(spec, path, {"type", "dim"}, {"ineqs", "eqs"})
    dim = _dim(spec, "dim", path)
    return ConvexPoly.make(
        dim,
        _rows(spec.get("ineqs", []), dim, f"{path}.ineqs"),
        _rows(spec.get("eqs", []), dim, f"{path}.eqs"),
    )


def _pieces(values: Any, dim: int, path: str) -> list[ConvexPoly]:
    if not isinstance(values, list) or not values:
        _fail(path, "expected a nonempty list of pieces")
    out = []
    for i, piece in enumerate(values):
        pp = f"{path}[{i}]"
        _expect_keys(piece, pp, set(), {"ineqs", "eqs"})
        out.append(
            ConvexPoly.make(
                dim,
                _rows(piece.get("ineqs", []), dim, f"{pp}.ineqs"),
                _rows(piece.get("eqs", []), dim, f"{pp}.eqs"),
            )
        )
    return out


def _build_object(name: str, spec: Any, path: str):
    if not isinstance(spec, dict) or "type" not in spec:
        _fail(path, "an object needs a 'type'")
    t = spec["type"]
    if t == "convex":
        return _convex(spec, path)
    if t == "polyset":
        _expect_keys(spec, path, {"type", "dim", "pieces"})
        dim = _dim(spec, "dim", path)
        return PolySet.make(dim, _pieces(spec["pieces"], dim, f"{path}.pieces"))
    if t == "multimap":
        from .multimaps import PolyMultimap

        _expect_keys(spec, path, {"type", "in_dim", "out_dim", "pieces"})
        n = _dim(spec, "in_dim", path)
        m = _dim(spec, "out_dim", path, n)
        pieces = _pieces(spec["pieces"], n + m, f"{path}.pieces")
        return PolyMultimap(n, m, PolySet.make(n + m, pieces))
    if t == "plfunc":
        from .plfunc import PLFunc

        _expect_keys(spec, path, {"type", "dim", "epi_pieces"})
        dim = _dim(spec, "dim", path, 1)
        return PLFunc.from_epigraph_pieces(
            dim, _pieces(spec["epi_pieces"], dim + 1, f"{path}.epi_pieces")
        )
    if t == "point":
        _expect_keys(spec, path, {"type", "values"})
        values = spec["values"]
        if not isinstance(values, list):
            _fail(f"{path}.values", "expected a list")
        return tuple(_rat(v, f"{path}.values[{i}]") for i, v in enumerate(values))
    _fail(f"{path}.type", f"unknown object type {t!r}")


def _check_field(field: Field, value: Any, types: dict[str, str], path: str) -> None:
    """`types` maps each object's name to its type in the file."""
    if field.is_ref:
        if not isinstance(value, str) or value not in types:
            _fail(path, f"unknown object reference {value!r}")
        if types[value] != field.type:
            _fail(path, f"{value!r} is a {types[value]}, expected a {field.type}")
    elif field.type is int:
        _positive_int(value, path)
    elif value not in field.type:
        _fail(path, f"expected one of {', '.join(field.type)}")


def _check_dims(fields: tuple[Field, ...], query: dict, objects: dict, path: str) -> None:
    """Fields that share a `dims` symbol agree; "n+s" sums integer fields."""
    sizes = {f.name: query[f.name] for f in fields if f.type is int}
    origin: dict[str, str] = {}
    for f in fields:
        if not f.dims or f.name not in query:
            continue
        for pattern, dim in zip(f.dims.split(">"), dims_of(objects[query[f.name]])):
            if pattern not in sizes and "+" not in pattern:
                sizes[pattern], origin[pattern] = dim, f.name
            elif dim != (want := sum(sizes[s] for s in pattern.split("+"))):
                against = origin.get(pattern, pattern)
                _fail(f"{path}.{f.name}", f"dimension {dim} does not match {against!r} ({want})")


@record
class ProblemFile:
    objects: dict[str, Any]
    queries: tuple[dict, ...]

    def query_names(self) -> tuple[str, ...]:
        return tuple(q["name"] for q in self.queries)


def loads(text: str) -> ProblemFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ProblemFileError("JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ProblemFileError(f"invalid JSON: {exc}") from None
    _expect_keys(data, "$", {"version", "objects", "queries"})
    if data["version"] != VERSION_TAG:
        _fail("$.version", f"expected {VERSION_TAG!r}")
    if not isinstance(data["objects"], dict):
        _fail("$.objects", "expected an object map")
    objects = {}
    types = {}
    for name, spec in data["objects"].items():
        path = f"$.objects.{name}"
        try:
            objects[name] = _build_object(name, spec, path)
        except RayLimitError as exc:  # canonicalizing a piece runs a DD
            _fail(path, str(exc))
        types[name] = spec["type"]
    if not isinstance(data["queries"], list):
        _fail("$.queries", "expected a list")
    queries = []
    seen = set()
    for i, q in enumerate(data["queries"]):
        path = f"$.queries[{i}]"
        if not isinstance(q, dict) or "op" not in q or "name" not in q:
            _fail(path, "a query needs 'name' and 'op'")
        if not isinstance(q["name"], str):
            _fail(f"{path}.name", "a query name must be a string")
        op = OPS.get(q["op"]) if isinstance(q["op"], str) else None
        if op is None:
            _fail(f"{path}.op", f"unknown operation {q['op']!r}")
        required = ("op", "name") + tuple(f.name for f in op.fields if not f.optional)
        _expect_keys(q, path, required, {f.name for f in op.fields if f.optional})
        if q["name"] in seen:
            _fail(f"{path}.name", "duplicate query name")
        seen.add(q["name"])
        for f in op.fields:
            if f.name in q:
                _check_field(f, q[f.name], types, f"{path}.{f.name}")
        _check_dims(op.fields, q, objects, path)
        queries.append(q)
    return ProblemFile(objects, tuple(queries))


def load_path(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ProblemFileError(f"{path}: not UTF-8 text: {exc.reason}") from None
    return loads(text)
