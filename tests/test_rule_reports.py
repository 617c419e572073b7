"""The sum and chain rule reports against stored digests.

No preset runs these two rules, so this file pins them: the sha256 of the
rendered report of each of criterion 6's 18 sum and 18 chain draws, under
both inner-condition variants.  Regenerate with
`python tests/test_rule_reports.py` only when a report is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from conftest import (
    random_linear_map,
    random_multimap_through,
    random_poly_through,
    random_polyset_through,
    rng_vec,
)

from polyvar.calculus import preimage_rule
from polyvar.exactgeom import ConvexPoly
from polyvar.linalg import zero
from polyvar.multimaps import chain_rule, sum_rule
from polyvar.runner import render
from polyvar.verdicts import VARIANT_SEMICOMPACT, VARIANT_SEMICONTINUOUS

GOLDEN = Path(__file__).parent / "data" / "rule_reports.json"


def _draws():
    """Criterion 6's sum and chain draws as (name, rule, args), replaying its
    random stream: the intersection and preimage draws come first."""
    rng = random.Random(77)
    for _ in range(40):
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        random_polyset_through(rng, dim, base)
        random_polyset_through(rng, dim, base)
        random_poly_through(rng, dim, base)
        random_poly_through(rng, dim, base)
    done = 0
    while done < 16:
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        x = rng_vec(rng, n, -1, 1)
        F = random_linear_map(rng, n, m)
        target = F.value_set(x).pieces[0].feasible_point()
        theta = random_polyset_through(rng, m, target)
        c = random_poly_through(rng, n, x)
        try:
            preimage_rule(F, theta, c, x)
        except ValueError:  # criterion 6 redraws these
            continue
        done += 1

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


def _digests() -> dict[str, str]:
    out = {}
    for name, rule, args in _draws():
        for variant in (VARIANT_SEMICONTINUOUS, VARIANT_SEMICOMPACT):
            text = json.dumps(render(rule(*args, variant=variant)), sort_keys=True)
            out[f"{name}-{variant}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_rule_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 72
    assert _digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n")
