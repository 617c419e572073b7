"""Floating-point brute-force probes that cross-validate the exact engine.

The probes never override exact results: callers compare a probe against a
claimed exact answer and flag disagreement.  Grid points are exact rationals
on an integer lattice (so membership at faces is classified exactly); only
the scalar estimates (limsup ratios, Hausdorff-excess ratios) run in floats.
Everything is deterministic: fixed iteration order, no randomness.

Only ``--cross-check`` loads this module: ``runner`` imports it inside its
probes and ``polyvar`` on the first use of one of its names.  numpy is
imported inside the probes as well, on the first call; the exact engine
never needs either.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .exactgeom import ConvexPoly, PolySet
from .linalg import Vec
from .multimaps import PolyMultimap

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"

DIVERGENCE_SENTINEL = 1e3

# the sampling settings: a box of half-width RADIUS around the base point on
# a lattice of step GRID_STEP, and the slack of the sampled limsup test
RADIUS = Fraction(1)
GRID_STEP = Fraction(1, 64)
TOLERANCE = 1e-6


def _lattice(center: Vec) -> tuple[np.ndarray, int]:
    """Integer-lattice grid of the box around center; returns (points, scale).

    Points are integers equal to scale * coordinate, so row tests against
    integer-canonical polyhedra are exact in int64.
    """
    import numpy as np

    denom = GRID_STEP.denominator
    for x in center:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    scale = denom
    step_int = int(GRID_STEP * scale)
    half = int(RADIUS / GRID_STEP)
    axes = []
    for x in center:
        c_int = int(x * scale)
        axes.append(c_int + step_int * np.arange(-half, half + 1, dtype=np.int64))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return pts, scale


def _inside_poly(pts: np.ndarray, scale: int, poly: ConvexPoly) -> np.ndarray:
    import numpy as np

    # canonical H-forms have jointly-primitive integer rows, so the lattice
    # test pts @ a <= scale * b is exact in int64
    if poly.is_empty():
        return np.zeros(len(pts), dtype=bool)
    mask = np.ones(len(pts), dtype=bool)
    for a, b in poly.rows:
        mask &= pts @ np.array(a, dtype=np.int64) <= b * scale
    for e, d in poly.eq_rows:
        mask &= pts @ np.array(e, dtype=np.int64) == d * scale
    return mask


def _inside_set(pts: np.ndarray, scale: int, s: PolySet) -> np.ndarray:
    import numpy as np

    mask = np.zeros(len(pts), dtype=bool)
    for p in s.pieces:
        mask |= _inside_poly(pts, scale, p)
    return mask


def frechet_membership_probe(
    omega: PolySet,
    c: ConvexPoly,
    xbar: Vec,
    d: Vec,
    claimed: bool,
) -> str:
    """Grid limsup plus radial test against a claimed exact membership."""
    import numpy as np

    pts, scale = _lattice(xbar)
    mask = _inside_set(pts, scale, omega) & _inside_poly(pts, scale, c)
    center = np.array([int(x * scale) for x in xbar], dtype=np.int64)
    diffs = (pts[mask] - center).astype(np.float64) / scale
    norms = np.linalg.norm(diffs, axis=1)
    nz = norms > 0
    dvec = np.array([float(x) for x in d], dtype=np.float64)
    if nz.any():
        ratios = (diffs[nz] @ dvec) / norms[nz]
        limsup_ok = bool(ratios.max() <= TOLERANCE)
    else:
        limsup_ok = True
    radial_ok = any(
        c.contains(tuple(x + p * dd for x, dd in zip(xbar, d)))
        for p in (GRID_STEP, RADIUS)
    )
    probe_member = limsup_ok and radial_ok
    return CONSISTENT if probe_member == claimed else INCONSISTENT


def _axis_points(center: Fraction, widen: int = 1):
    half = int(RADIUS / GRID_STEP) * widen
    return [center + k * GRID_STEP for k in range(-half, half + 1)]


def aubin_ratio_probe(F: PolyMultimap, c: ConvexPoly, xbar: Vec, ybar: Vec) -> float:
    """Max sampled Hausdorff-excess ratio for the Aubin inequality.

    Samples x, u in c cap B(xbar, RADIUS); the excess of F(u) cap V over
    F(x) is estimated on output grids (a wider grid for the reference side).
    Returns math.inf as the divergence sentinel when some F(x) is empty
    while F(u) cap V is not.
    """
    import numpy as np

    if not F.graph.pieces:
        raise ValueError("empty samples")

    x_grid = [
        pt
        for pt in itertools.product(*map(_axis_points, xbar))
        if c.contains(pt)
    ]
    if not x_grid:
        raise ValueError("empty samples")
    y_big = list(itertools.product(*(_axis_points(yc, widen=3) for yc in ybar)))
    y_big_arr = np.array([[float(v) for v in y] for y in y_big])
    in_v = np.array(
        [all(abs(v - yc) <= RADIUS for v, yc in zip(y, ybar)) for y in y_big]
    )

    samples: list[np.ndarray] = []
    samples_v: list[np.ndarray] = []
    keys: list[bytes] = []
    for x in x_grid:
        mask = np.array([F.contains(x, y) for y in y_big])
        samples.append(y_big_arr[mask])
        samples_v.append(y_big_arr[mask & in_v])
        keys.append(mask.tobytes())

    # the excess depends only on the two sample sets; fibers repeat across
    # grid points, so memoize by fiber signature
    excess_cache: dict[tuple[bytes, bytes], float] = {}

    def excess_of(j: int, i: int) -> float:
        key = (keys[j], keys[i])
        if key not in excess_cache:
            cand, ref = samples_v[j], samples[i]
            if len(cand) == 0:
                excess_cache[key] = 0.0
            elif len(ref) == 0:
                excess_cache[key] = math.inf
            else:
                d2 = cand[:, None, :] - ref[None, :, :]
                excess_cache[key] = float(
                    np.sqrt((d2 * d2).sum(axis=2)).min(axis=1).max()
                )
        return excess_cache[key]

    worst = 0.0
    xf = [np.array([float(v) for v in x]) for x in x_grid]
    for i in range(len(x_grid)):
        for j in range(len(x_grid)):
            if len(samples_v[j]) == 0:
                continue
            e = excess_of(j, i)
            if e == math.inf:
                return math.inf
            dist_xu = float(np.linalg.norm(xf[j] - xf[i]))
            if dist_xu == 0.0:
                continue
            worst = max(worst, e / dist_xu)
    return worst
