"""Shared fixtures: the worked three-dimensional example and seeded generators."""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import polyvar
from polyvar import exactgeom
from polyvar.cones import radial_cone
from polyvar.exactgeom import ConeH, ConeUnion, ConvexPoly, PolySet
from polyvar.linalg import (
    Vec,
    as_row,
    dot,
    integer_row,
    primitive_ints,
    rref_ints,
    to_vec,
    vec,
    zero,
)
from polyvar.stratify import local_cells


@dataclass(frozen=True)
class Example1:
    """The running 3-d instance: a halfspace tilted against an orthant.

    omega1 = {(x,y,z): z >= x}, omega2 = R^2_+ x R, c_full = R^3,
    c = R_+ x R^2.  All the hand-computed cone tables in the tests below
    refer to these sets at points near the origin.
    """

    omega1: PolySet
    omega2: PolySet
    c: ConvexPoly
    c_full: ConvexPoly
    origin: Vec


def make_example1() -> Example1:
    omega1 = PolySet.from_poly(ConvexPoly.make(3, [(vec(1, 0, -1), Fraction(0))]))
    omega2 = PolySet.from_poly(
        ConvexPoly.make(3, [(vec(-1, 0, 0), Fraction(0)), (vec(0, -1, 0), Fraction(0))])
    )
    c = ConvexPoly.make(3, [(vec(-1, 0, 0), Fraction(0))])
    return Example1(omega1, omega2, c, ConvexPoly.whole_space(3), vec(0, 0, 0))


def cone3(ineqs=(), eqs=()) -> ConeH:
    return ConeH.from_ineqs(3, ineqs, eqs)


def rng_vec(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> Vec:
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(dim))


def random_cone(rng: random.Random, dim: int, max_rows: int = 3) -> ConeH:
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        v = rng_vec(rng, dim)
        if any(x != 0 for x in v):
            rows.append(v)
    return ConeH.from_ineqs(dim, rows)


def random_cone_union(
    rng: random.Random, dim: int, max_parts: int = 3
) -> ConeUnion:
    return ConeUnion.make(
        dim, [random_cone(rng, dim) for _ in range(rng.randint(1, max_parts))]
    )


def random_poly_through(
    rng: random.Random, dim: int, point: Vec, max_rows: int = 3
) -> ConvexPoly:
    """A nonempty polyhedron containing `point`, rows touching it or slack."""
    ineqs = []
    for _ in range(rng.randint(0, max_rows)):
        a = rng_vec(rng, dim)
        if all(x == 0 for x in a):
            continue
        margin = Fraction(rng.choice([0, 0, 1, 2]))
        b = sum(x * y for x, y in zip(a, point)) + margin
        ineqs.append((a, b))
    return ConvexPoly.make(dim, ineqs)


def random_polyset_through(
    rng: random.Random, dim: int, point: Vec, max_pieces: int = 3
) -> PolySet:
    pieces = [
        random_poly_through(rng, dim, point)
        for _ in range(rng.randint(1, max_pieces))
    ]
    return PolySet.make(dim, pieces)


def random_multimap_through(
    rng: random.Random,
    n: int,
    m: int,
    x: Vec,
    y: Vec,
    max_pieces: int = 2,
    max_rows: int = 3,
) -> "PolyMultimap":
    """A multimap whose graph contains (x, y)."""
    from polyvar.multimaps import PolyMultimap

    graph = random_polyset_through(rng, n + m, x + y, max_pieces)
    return PolyMultimap(n, m, graph)


def random_linear_map(rng: random.Random, n: int, m: int) -> "PolyMultimap":
    from polyvar.multimaps import PolyMultimap

    matrix = tuple(rng_vec(rng, n, -2, 2) for _ in range(m))
    return PolyMultimap.linear(matrix, n, m)


def random_plfunc(rng: random.Random, dim: int, max_terms: int = 3) -> "PLFunc":
    """A piecewise-linear function finite at the origin with f(0) = 0."""
    from polyvar.plfunc import PLFunc

    terms = [
        (rng_vec(rng, dim, -2, 2), Fraction(0))
        for _ in range(rng.randint(1, max_terms))
    ]
    return PLFunc.max_affine(dim, terms)


def primitive(a: Vec) -> Vec:
    """Scale by a positive rational so entries are coprime integers.

    The zero vector is returned unchanged.  Orientation is preserved, which
    makes primitive rows canonical representatives of inequality normals.
    """
    nums, _ = integer_row(a)
    return to_vec(primitive_ints(nums)) if any(nums) else a


def raw_int_rows(rows, factor: int = 3) -> tuple:
    """Rows (a, b) in the int form of a record's fields, kept as given
    otherwise: the numerators over their common denominator times `factor`,
    so neither primitive nor reduced."""
    out = []
    for a, b in rows:
        nums, _ = integer_row(a + (b,))
        out.append((tuple(factor * x for x in nums[:-1]), factor * nums[-1]))
    return tuple(out)


def vrep(p: ConvexPoly) -> tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]:
    """(vertices, rays, lineality) of `p` via its homogenization cone.

    Looks `_dd` up on the module at each call, so a test can swap in a
    reference double description.
    """
    if p.is_empty():
        return (), (), ()
    n = p.dim
    rows = [as_row(a + (-b,)) for a, b in p.ineqs]
    rows.append((0,) * n + (-1,))  # t >= 0
    eq_rows = [as_row(e + (-d,)) for e, d in p.eqs]
    rays, lin = exactgeom._dd(n + 1, rows, eq_rows)
    verts: list[Vec] = []
    rec: list[Vec] = []
    for r in rays:
        t = r[-1]
        if t > 0:
            verts.append(tuple(Fraction(x, t) for x in r[:-1]))
        else:
            rec.append(primitive(r[:-1]))
    lin_out = [primitive(v[:-1]) for v in lin]
    return tuple(sorted(verts)), tuple(sorted(rec)), tuple(sorted(lin_out))


def dd_generators(dim: int, ineqs, eqs) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(rays, lineality) of {x : a.x <= 0, e.x == 0} from a fresh double
    description of the rows: the reference for the generators a cone gets
    from canonicalization (sorted rays, RREF lineality in sorted order)."""
    rays, lin = exactgeom._dd(dim, list(map(as_row, ineqs)), list(map(as_row, eqs)))
    lin_rows, _ = rref_ints(lin)
    return tuple(rays), tuple(sorted(map(tuple, lin_rows)))


def cap_poly(omega: PolySet, c: ConvexPoly) -> PolySet:
    """Omega ∩ C built piece by piece: the reference the relative cones are
    checked against (the engine reads Omega ∩ C's rows at a point instead)."""
    return PolySet.make(omega.dim, [p.intersect(c) for p in omega.pieces])


def active_pieces(s: PolySet, x: Vec) -> tuple[int, ...]:
    """Indices of the pieces of `s` that contain `x`."""
    return tuple(i for i, p in enumerate(s.pieces) if p.contains(x))


def ref_spanned(dim: int, rays, lineality) -> ConeH:
    """The cone the rays and lineality span, by a route independent of the
    engine's polar: one double description of the generators, whose facets
    and equalities are then canonicalized."""
    return ConeH.from_rows(dim, *exactgeom._dd(dim, list(rays), list(lineality)))


def ref_polar(cone: ConeH) -> ConeH:
    """The polar from the cone's H-form alone, never its generators: the
    cone its inequality normals and equality normals span."""
    return ref_spanned(cone.dim, cone.rows, cone.eq_rows)


def ref_piece_normal_cone(piece: ConvexPoly, x: Vec) -> ConeH:
    # polar of the piece's tangent cone: active inequality normals plus the
    # equality normals as lineality
    rays = [a for a, b in piece.ineqs if dot(a, x) == b]
    lins = [e for e, _ in piece.eqs]
    return ref_spanned(piece.dim, rays, lins)


def ref_frechet_normal(omega: PolySet, x: Vec) -> ConeH:
    """The Fréchet cone as the intersection of per-piece polar cones, one
    double description per piece, as `cones` computed it before."""
    active = active_pieces(omega, x)
    if not active:
        raise ValueError("point outside the set")
    cone = ConeH.whole_space(omega.dim)
    for i in active:
        cone = cone.intersect(ref_piece_normal_cone(omega.pieces[i], x))
    return cone


def ref_limiting_normal_wrt(omega: PolySet, wrt: ConvexPoly, point: Vec) -> ConeUnion:
    """The limiting cone relative to wrt from Omega ∩ C built piece by piece:
    per-piece polars at the witness of each adherent cell."""
    request_domain = cap_poly(omega, wrt)
    if not request_domain.contains(point):
        return ConeUnion.empty(omega.dim)
    cells = local_cells([omega, wrt], point)
    inter_pieces = request_domain
    parts = []
    for cell in cells:
        x = cell.witness
        part = ref_frechet_normal(inter_pieces, x).intersect(radial_cone(wrt, x))
        parts.append(part)
    return ConeUnion.make(omega.dim, parts)


def child_env() -> dict:
    """The environment with the tested `polyvar` first on PYTHONPATH, for a
    child interpreter."""
    src = str(Path(polyvar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_optimized(script: str) -> dict:
    """Run `script` in a fresh `python -O` interpreter; return its JSON stdout.

    `-O` strips asserts, so such a script reports what it saw as JSON for
    the caller to assert on.
    """
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
    )
    return json.loads(proc.stdout)


def perfbench_module(name: str):
    """A module of the benchmark harness (`perfbench/`), imported as the
    harness imports it; tests only read and call it."""
    harness = str(Path(__file__).resolve().parents[1] / "perfbench")
    if harness not in sys.path:
        sys.path.append(harness)
    return importlib.import_module(name)


# most preimage draws in a row that `preimage_draw` takes before it fails;
# criterion 6's 16 preimage draws need no redraw
PREIMAGE_REDRAWS = 50


def preimage_draw(rng: random.Random):
    """Criterion 6's next preimage-rule instance (F, theta, c, x) and its
    report.  An instance is redrawn only when `preimage_rule` refuses it
    because x lies outside F^{-1}(Theta) cap C; any other error propagates,
    and PREIMAGE_REDRAWS refusals in a row fail."""
    from polyvar import calculus

    for _ in range(PREIMAGE_REDRAWS):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        x = rng_vec(rng, n, -1, 1)
        F = random_linear_map(rng, n, m)
        target = F.value_set(x).pieces[0].feasible_point()
        theta = random_polyset_through(rng, m, target)
        c = random_poly_through(rng, n, x)
        try:
            return (F, theta, c, x), calculus.preimage_rule(F, theta, c, x)
        except ValueError as exc:
            if str(exc) != "x outside F^{-1}(Theta) cap C":
                raise
    raise AssertionError(f"{PREIMAGE_REDRAWS} preimage draws in a row were refused")


def criterion6_draws():
    """Criterion 6's draws as (name, rule, args), replaying its random
    stream: 40 intersection, 16 preimage (`preimage_draw`), 18 sum and 18
    chain draws."""
    from polyvar.calculus import intersection_rule, preimage_rule
    from polyvar.multimaps import chain_rule, sum_rule

    rng = random.Random(77)
    for done in range(40):
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        o1 = random_polyset_through(rng, dim, base)
        o2 = random_polyset_through(rng, dim, base)
        c1 = random_poly_through(rng, dim, base)
        c2 = random_poly_through(rng, dim, base)
        yield f"intersection-{done:02d}", intersection_rule, (o1, o2, c1, c2, base)
    for done in range(16):
        args, _ = preimage_draw(rng)
        yield f"preimage-{done:02d}", preimage_rule, args

    for done in range(18):
        m = 2 if done % 3 == 2 else 1
        x = rng_vec(rng, 1, -1, 1)
        F1 = random_linear_map(rng, 1, m)
        y1 = F1.value_set(x).pieces[0].feasible_point()
        y2 = rng_vec(rng, m, -1, 1)
        F2 = random_multimap_through(rng, 1, m, x, y2, max_pieces=2)
        ystar = rng_vec(rng, m, -2, 2)
        y = tuple(a + b for a, b in zip(y1, y2))
        c2 = random_poly_through(rng, 1, x)
        whole = ConvexPoly.whole_space(1)
        yield f"sum-{done:02d}", sum_rule, (F1, F2, whole, c2, x, y, y1, y2, ystar)

    for done in range(18):
        n = 2 if done % 3 == 2 else 1
        x = rng_vec(rng, n, -1, 1)
        G = random_multimap_through(rng, n, 1, x, zero(1), max_pieces=2)
        F = random_linear_map(rng, 1, 1)
        y = zero(1)
        z = F.value_set(y).pieces[0].feasible_point()
        zstar = rng_vec(rng, 1, -2, 2)
        c = random_poly_through(rng, n, x)
        yield f"chain-{done:02d}", chain_rule, (G, F, c, x, z, y, zstar)
