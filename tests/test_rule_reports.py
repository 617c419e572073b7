"""Calculus rule reports that no preset runs, against stored digests.

This file pins the sha256 of the rendered report of each of criterion 6's
18 sum and 18 chain draws, under both inner-condition variants, and of
criterion 5's product and mixed product draws, the mixed ones under both
pairings where the y and z blocks match.  Regenerate both files with
`python tests/test_rule_reports.py` only when a report is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    criterion6_draws,
    preimage_draw,
    random_plfunc,
    random_poly_through,
    random_polyset_through,
    rng_vec,
)

from polyvar import calculus, cli, cones, multimaps, quals, stratify
from polyvar.calculus import mixed_product_rule, product_rule
from polyvar.multimaps import chain_rule, sum_rule
from polyvar.runner import render
from polyvar.verdicts import (
    PAIRING_PROOF,
    PAIRING_STATEMENT,
    VARIANT_SEMICOMPACT,
    VARIANT_SEMICONTINUOUS,
)

GOLDEN = Path(__file__).parent / "data" / "rule_reports.json"
PRODUCT_GOLDEN = Path(__file__).parent / "data" / "product_reports.json"


def _draws():
    """Criterion 6's sum and chain draws as (name, rule, args)."""
    return [d for d in criterion6_draws() if d[1] in (sum_rule, chain_rule)]


def _product_draws():
    """Criterion 5's product and mixed product draws as (name, report),
    replaying its random stream: every instance draws its sets and a cone,
    and every fourth a product rule, a mixed one or a function."""
    rng = random.Random(20260809)
    instances = 0
    while instances < 100:
        dim = rng.randint(1, 3)
        base = rng_vec(rng, dim, -1, 1)
        omega = random_polyset_through(rng, dim, base, max_pieces=4)
        wrt = random_poly_through(rng, dim, base)
        if not (omega.contains(base) and wrt.contains(base)):
            continue
        instances += 1
        rng_vec(rng, dim, -3, 3)
        mod = instances % 4
        if mod == 0:
            d2 = rng.randint(1, 2)
            x2 = rng_vec(rng, d2, -1, 1)
            o2 = random_polyset_through(rng, d2, x2)
            c2 = random_poly_through(rng, d2, x2)
            if o2.contains(x2) and c2.contains(x2):
                yield f"product-{instances:03d}", product_rule(
                    omega, wrt, o2, c2, base, x2
                )
        elif mod == 1:
            n, m, s = 1, rng.randint(1, 2), 1
            xz = rng_vec(rng, n + s, -1, 1)
            y = rng_vec(rng, m, -1, 1)
            o1 = random_polyset_through(rng, n + s, xz)
            o2 = random_polyset_through(rng, m, y)
            c1 = random_poly_through(rng, n + s, xz)
            c2 = random_poly_through(rng, m, y)
            if all((o1.contains(xz), c1.contains(xz), o2.contains(y), c2.contains(y))):
                point = xz[:n] + y + xz[n:]
                pairings = (PAIRING_PROOF, PAIRING_STATEMENT) if m == s else (PAIRING_PROOF,)
                for pairing in pairings:
                    yield f"mixed-{instances:03d}-{pairing}", mixed_product_rule(
                        o1, c1, o2, c2, n, m, s, point, pairing
                    )
        elif mod == 2:
            random_plfunc(rng, rng.randint(1, 3))


def _sha(report) -> str:
    text = json.dumps(render(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _digests() -> dict[str, str]:
    out = {}
    for name, rule, args in _draws():
        for variant in (VARIANT_SEMICONTINUOUS, VARIANT_SEMICOMPACT):
            out[f"{name}-{variant}"] = _sha(rule(*args, variant=variant))
    return out


def _product_digests() -> dict[str, str]:
    return {name: _sha(report) for name, report in _product_draws()}


def test_criterion6_draws_raise_what_is_not_a_refusal(monkeypatch):
    """Only the preimage rule's refusal of x is redrawn: any other
    ValueError, even once, propagates out of the draws."""
    real, raised = calculus.preimage_rule, []

    def fails_once(*args):
        if not raised:
            raised.append(True)
            raise ValueError("other")
        return real(*args)

    monkeypatch.setattr(calculus, "preimage_rule", fails_once)
    with pytest.raises(ValueError, match="^other$"):
        list(criterion6_draws())


def test_preimage_draws_fail_after_bounded_refusals(monkeypatch):
    def refuses(*args):
        raise ValueError("x outside F^{-1}(Theta) cap C")

    monkeypatch.setattr(calculus, "preimage_rule", refuses)
    with pytest.raises(AssertionError, match="in a row were refused"):
        preimage_draw(random.Random(77))


def test_sum_and_chain_rules_build_each_graph_cone_once(monkeypatch):
    """q1's zero cones and kernel, the left side, the rule's one
    `coderivative_wrt` call, and the right side's coderivatives are sections
    of one graph cone per map, set and point: in a rule call no cone union is
    built twice.  `cones._undominated` runs once per `cones._union` build."""
    real_undominated, real_coderivative = cones._undominated, multimaps.coderivative_wrt
    builds, lhs_calls = Counter(), []

    def coderivative(*args):
        lhs_calls.append(args)
        return real_coderivative(*args)

    def counting(patterns):
        builds[patterns] += 1
        return real_undominated(patterns)

    monkeypatch.setattr(multimaps, "coderivative_wrt", coderivative)
    monkeypatch.setattr(cones, "_undominated", counting)
    for name, rule, args in _draws():
        builds.clear()
        lhs_calls.clear()
        rule(*args, variant=VARIANT_SEMICONTINUOUS)
        assert len(lhs_calls) == 1, name
        assert builds and max(builds.values()) == 1, (name, builds.most_common(1))


def test_sum_and_chain_rules_lift_each_graph_cone_once(monkeypatch):
    """A sum or chain call asks `graph_normal_cone` for the same map, set and
    point more than once; the rule call's memo answers each repeat, so the
    point check and the lift of C to C x R^m run once per input."""
    real, entered = multimaps.limiting_normal_wrt, Counter()

    def counting(omega, wrt, point):
        entered[omega, wrt, point] += 1
        return real(omega, wrt, point)

    monkeypatch.setattr(multimaps, "limiting_normal_wrt", counting)
    for name, rule, args in _draws():
        entered.clear()
        rule(*args, variant=VARIANT_SEMICONTINUOUS)
        assert entered and max(entered.values()) == 1, (name, entered.most_common(1))


def _count_cell_searches(monkeypatch) -> Counter:
    """A Counter of the `local_cells` inputs, (sets, point), that the
    engine's modules search from now on."""
    searches, real = Counter(), stratify.local_cells

    def counting(sets, point):
        searches[tuple(sets), point] += 1
        return real(sets, point)

    for module in (cones, quals, multimaps):
        monkeypatch.setattr(module, "local_cells", counting)
    return searches


def test_every_rule_searches_each_input_once(monkeypatch):
    """In one call of each of the four rules, every distinct input of the
    cell search is searched once: the call's memo serves the qualifications,
    both sides and the sum and chain rules' left side."""
    searches = _count_cell_searches(monkeypatch)
    calls = Counter()
    for name, rule, args in criterion6_draws():
        variants = (VARIANT_SEMICONTINUOUS, VARIANT_SEMICOMPACT)
        with_variant = rule in (sum_rule, chain_rule)
        for kwargs in [{"variant": v} for v in variants] if with_variant else [{}]:
            searches.clear()
            rule(*args, **kwargs)
            assert searches and max(searches.values()) == 1, (name, searches.most_common(1))
            calls[name.split("-")[0]] += 1
    assert calls == {"intersection": 40, "preimage": 16, "sum": 36, "chain": 36}


def test_intersection_presets_search_four_inputs_once_each(monkeypatch):
    """Example 2's intersection queries search each of [Omega1, C1],
    [Omega2, C2], [Omega1, Omega2, C1 ∩ C2] and [Omega1 ∩ Omega2, C1 ∩ C2]
    once, where the qualifications and both sides took 8 searches."""
    searches = _count_cell_searches(monkeypatch)
    for preset in ("ex2-intersection-holds", "ex2-intersection-failure"):
        searches.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["paper-example", preset])
        assert sorted(searches.values()) == [1, 1, 1, 1], (preset, searches)


def test_rule_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 72
    assert _digests() == golden


def test_product_reports_match_golden_digests():
    golden = json.loads(PRODUCT_GOLDEN.read_text())
    assert _product_digests() == golden


if __name__ == "__main__":
    for path, digests in ((GOLDEN, _digests), (PRODUCT_GOLDEN, _product_digests)):
        path.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
