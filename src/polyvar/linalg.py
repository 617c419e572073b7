"""Exact rational vectors and small-matrix routines.

Values are exact rationals and no floats enter the core.  Vectors that pass
between modules are plain tuples, which keeps them hashable and directly
usable as canonical sort keys.  Rows are tuples of Python `int`, each
primitive, so they hash and compare without `Fraction` code: the working
rows of H-form canonicalization, the H-form fields of the set objects, the
rows the LP keys its cache on, the rays and lineality of double
description, the hyperplanes of cell enumeration.  `as_row` turns the
integral entries of an input row into ints on its way in.  Points,
witnesses and LP solutions are tuples of `fractions.Fraction`, and `dot`
returns a Fraction (and refuses vectors of unequal length); the sets'
`ineqs`/`eqs` views give their rows as Fractions to outside tools.
`Fraction(3) == 3` and `hash(Fraction(3)) == hash(3)`, so both kinds of
entry meet in one cache and sort alike.  The kernels compute on ints: a
rational vector becomes its numerators over one common denominator
(`integer_row`, at once for an int row), and elimination is fraction-free,
each row kept as a gcd-reduced positive multiple of its rational
counterpart (Bareiss 1968 style, with a gcd in place of the exact
division).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

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


def exact(value: int | Fraction) -> int | Fraction:
    """An exact value as an int when it is integral, else as a Fraction, so
    that its type depends on the value alone."""
    if type(value) is int:
        return value
    return value.numerator if value.denominator == 1 else value


def as_row(entries) -> tuple:
    """Entries of a constraint row or generator coerced by `rat`, the
    integral ones as ints (the kernels' own type)."""
    return tuple(e if type(e) is int else exact(rat(e)) for e in entries)


def check_dim(what: str, got: int, want: int) -> None:
    """Argument check that survives `python -O`: both dimensions are named."""
    if got != want:
        raise ValueError(f"{what}: dimension {got}, expected {want}")


def zero(dim: int) -> Vec:
    return (Fraction(0),) * dim


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot: dimension {len(b)}, expected {len(a)}")
    na, da = integer_row(a)
    nb, db = integer_row(b)
    den = da * db
    total = sum(map(mul, na, nb))
    return Fraction(total, den) if den != 1 else Fraction(total)


def excess_at(x: Vec):
    """The function (a, b=0) -> an int with the sign of a.x - b, for an int
    row (a, b).

    x is converted once (`integer_row`) to nx / dx with dx > 0, so a.x - b
    has the sign of a.nx - b.dx.  Set tests call it once per point instead
    of one `dot` per row.
    """
    nx, dx = integer_row(x)

    def excess(a, b=0) -> int:
        return sum(map(mul, a, nx)) - b * dx

    return excess


def quotient(num: int, den: int) -> int | Fraction:
    """num / den (den > 0) exactly, an int when it is integral, as `exact`
    gives it."""
    return num // den if num % den == 0 else Fraction(num, den)


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
    of the per-process caches of exact work.  There are three, each bounded:
    `lp.solve` keys on (objective, rows, equalities, dim, sense), with
    `lp.CACHE_SIZE` entries; `exactgeom._canon_h` on (dim, rows, equalities,
    RAY_LIMIT) and `exactgeom._dd` on (dim, rows, equalities, RAY_LIMIT), the
    double description's rows frozen as plain vectors, with
    `exactgeom.CANON_CACHE_SIZE` entries each.  The ray limit is in the
    exactgeom keys so that a lowered limit still raises.
    """
    return tuple((tuple(a), b) for a, b in rows)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


_denominator = attrgetter("denominator")
_INT_ONLY = frozenset((int,))


def integer_row(values) -> tuple[list[int], int]:
    """Numerators of exact `values` over their least common denominator."""
    if _INT_ONLY.issuperset(map(type, values)):
        return list(values), 1
    den = lcm(*map(_denominator, values))
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def primitive_ints(row: list[int]) -> list[int]:
    """Divide out the gcd of the entries (a positive factor); zero stays zero."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def to_vec(row: list[int]) -> Vec:
    return tuple(map(Fraction, row))


def rref_ints(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows, fraction-free.

    Each output row is primitive with a positive pivot: the primitive
    integer scaling of the rational RREF row.  Returns (rows, pivots).
    """
    mat = [r for r in rows if any(r)]
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
        prow = mat[r]
        if prow[c] < 0:
            prow = [-x for x in prow]
        prow = mat[r] = primitive_ints(prow)
        p = prow[c]
        # multiplying the other row by p > 0 keeps its own pivot positive
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i] = primitive_ints(
                    [p * x - f * y if y else p * x for x, y in zip(mat[i], prow)]
                )
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reduce_mod_rowspace(
    w: list[int], rref_rows: list[list[int]], pivots: list[int]
) -> list[int]:
    """Primitive reduction of integer `w` against an integer RREF basis.

    The pivot coordinates of the result are zero; it is the primitive
    integer scaling of `w` minus its rational projection onto the rows.
    """
    for row, c in zip(rref_rows, pivots):
        f = w[c]
        if f != 0:
            p = row[c]
            w = [p * x - f * y if y else p * x for x, y in zip(w, row)]
    return primitive_ints(w)


def nullspace_ints(rows: list[list[int]], dim: int) -> list[list[int]]:
    """Canonical primitive basis of {x : r @ x = 0 for all integer rows r}."""
    basis, pivots = rref_ints(rows)
    den = lcm(*(row[p] for row, p in zip(basis, pivots)))
    out: list[list[int]] = []
    for c in range(dim):
        if c in pivots:
            continue
        v = [0] * dim
        v[c] = den
        for row, p in zip(basis, pivots):
            v[p] = -row[c] * (den // row[p])
        out.append(primitive_ints(v))
    return out
