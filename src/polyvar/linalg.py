"""Exact rational vectors and small-matrix routines.

Everything in the package runs on `fractions.Fraction`; no floats enter the
core.  Vectors are plain tuples of Fractions, which keeps them hashable and
directly usable as canonical sort keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple[Fraction, ...]


def rat(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def vec(*entries) -> Vec:
    return tuple(rat(e) for e in entries)


def as_vec(entries) -> Vec:
    return tuple(rat(e) for e in entries)


def zero(dim: int) -> Vec:
    return (Fraction(0),) * dim


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def scale(a: Vec, s: Fraction) -> Vec:
    return tuple(x * s for x in a)


def frozen_rows(rows) -> tuple[tuple[Vec, Fraction], ...]:
    """Constraint rows (a, b) as nested tuples.

    Hashable, and unaffected by later changes to the caller's lists: the key
    of the per-process caches of exact work.
    """
    return tuple((tuple(a), b) for a, b in rows)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def primitive(a: Vec) -> Vec:
    """Scale by a positive rational so entries are coprime integers.

    The zero vector is returned unchanged.  Orientation is preserved, which
    makes primitive rows canonical representatives of inequality normals.
    """
    if is_zero(a):
        return a
    den = 1
    for x in a:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in a]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Fraction(v // g) for v in ints)


def rref(rows: list[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form with primitive-integer rows.

    Returns (rows, pivot_columns).  The output is the canonical basis of the
    input row space: unique for a given span, so syntactic comparison of RREF
    rows decides row-space equality.
    """
    mat = [list(r) for r in rows if not is_zero(r)]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = [primitive(tuple(row)) for row in mat[:r]]
    return out, pivots


def reduce_mod_rowspace(v: Vec, rref_rows: list[Vec], pivots: list[int]) -> Vec:
    """Eliminate the pivot coordinates of `v` against an RREF basis."""
    w = list(v)
    for row, c in zip(rref_rows, pivots):
        if w[c] != 0:
            f = w[c] / row[c]
            w = [x - f * y for x, y in zip(w, row)]
    return tuple(w)


def nullspace(rows: list[Vec], dim: int) -> list[Vec]:
    """Canonical primitive basis of {x : r @ x = 0 for all rows r}."""
    basis, pivots = rref(rows)
    free = [c for c in range(dim) if c not in pivots]
    out: list[Vec] = []
    for c in free:
        v = [Fraction(0)] * dim
        v[c] = Fraction(1)
        for row, p in zip(basis, pivots):
            v[p] = -row[c] / row[p]
        out.append(primitive(tuple(v)))
    return out


def rank(rows: list[Vec]) -> int:
    return len(rref(rows)[0])
