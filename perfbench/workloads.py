"""Seeded inputs and the items of the in-process benchmark workloads.

Set-up turns a seed into plain rational rows only (see `instances` and
`make_pass`); every item builds its sets through the public constructors,
so canonicalizing the inputs is part of the item's time, as it is for a
library or CLI user.

An item is a pair (kind, args).  `compute(kind, args)` is the timed engine
work and returns a dict of results; `verify(kind, args, out)` checks the
properties the mathematics guarantees and the validity of any witness or
certificate (raising CheckFailed); `material(kind, out)` is the part of the
output that is determined by the mathematics (verdicts, cones and unions in
canonical form, order-free), which is what gets digested.  Witnesses and
certificates are checked, never digested: a later cell enumerator may
legitimately pick other points.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random
from fractions import Fraction

from polyvar import (
    ConeH,
    ConeUnion,
    ConvexPoly,
    PLFunc,
    PolyMultimap,
    PolySet,
    PolyUnion,
    TriVerdict,
    chain_rule,
    dd_convert,
    frechet_normal_wrt,
    intersection_rule,
    limiting_normal_wrt,
    mixed_product_rule,
    polar,
    preimage_rule,
    product_rule,
    proximal_normal_wrt,
    subdiff_via_coderivative,
    subdiff_wrt,
    sum_rule,
)
from polyvar.stratify import local_cells


class CheckFailed(Exception):
    """An output violates a property the mathematics guarantees."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- plain-row generators (set-up) --------------------------------------------


def _vec(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> tuple:
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(dim))


def _rows_through(rng: random.Random, dim: int, point: tuple, max_rows: int = 3):
    """Rows a.x <= b of a polyhedron containing `point`, touching or slack."""
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        a = _vec(rng, dim)
        if not any(a):
            continue
        margin = Fraction(rng.choice([0, 0, 1, 2]))
        rows.append((a, sum(x * y for x, y in zip(a, point)) + margin))
    return rows


def _pieces_through(rng, dim, point, max_pieces=3):
    return [_rows_through(rng, dim, point) for _ in range(rng.randint(1, max_pieces))]


def _matrix(rng, n, m):
    return tuple(_vec(rng, n, -2, 2) for _ in range(m))


def _apply(matrix, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in matrix)


def _active_count(point: tuple, *row_lists) -> int:
    """Distinct hyperplanes a.x = b through `point` among the given rows."""
    seen = set()
    for rows in row_lists:
        for a, b in rows:
            if sum(x * y for x, y in zip(a, point)) == b:
                seen.add(_hyperplane_key(a, b))
    return len(seen)


def _hyperplane_key(a, b) -> tuple:
    lead = next(x for x in a if x != 0)
    return tuple(x / lead for x in a) + (b / lead,)


def _flat(pieces):
    return [r for rows in pieces for r in rows]


def _struct_args(rng: random.Random, check: str):
    """One criterion-5 instance; returns (args, active hyperplanes of its
    largest cell enumeration)."""
    dim = rng.randint(1, 3)
    base = _vec(rng, dim, -1, 1)
    args = {
        "dim": dim,
        "base": base,
        "omega": _pieces_through(rng, dim, base, max_pieces=4),
        "wrt": _rows_through(rng, dim, base),
        "cone_row": _vec(rng, dim, -3, 3),
    }
    k = _active_count(base, _flat(args["omega"]), args["wrt"])
    if check == "product":
        d2 = rng.randint(1, 2)
        x2 = _vec(rng, d2, -1, 1)
        args.update(
            d2=d2, x2=x2, o2=_pieces_through(rng, d2, x2), c2=_rows_through(rng, d2, x2)
        )
        k += _active_count(x2, _flat(args["o2"]), args["c2"])
    elif check == "mixed":
        m = rng.randint(1, 2)
        xz = _vec(rng, 2, -1, 1)
        y = _vec(rng, m, -1, 1)
        args.update(
            m=m,
            xz=xz,
            y=y,
            o1=_pieces_through(rng, 2, xz),
            o2=_pieces_through(rng, m, y),
            c1=_rows_through(rng, 2, xz),
            c2=_rows_through(rng, m, y),
        )
        k = max(
            k,
            _active_count(xz, _flat(args["o1"]), args["c1"])
            + _active_count(y, _flat(args["o2"]), args["c2"]),
        )
    elif check == "pl":
        fdim = rng.randint(1, 3)
        terms = [_vec(rng, fdim, -2, 2) for _ in range(rng.randint(1, 3))]
        args.update(fdim=fdim, terms=terms)
        k = max(k, len(set(terms)))
    return args, k


def _rules_args(rng: random.Random, rule: str, size: int = 1):
    """One criterion-6 instance; returns (args, active hyperplanes).  `size`
    is the output dimension of a sum rule and the input dimension of a
    chain rule, which criterion 6 sets to 2 on every third draw."""
    if rule == "intersection":
        dim = rng.randint(1, 3)
        x = _vec(rng, dim, -1, 1)
        args = {
            "dim": dim,
            "x": x,
            "o1": _pieces_through(rng, dim, x),
            "o2": _pieces_through(rng, dim, x),
            "c1": _rows_through(rng, dim, x),
            "c2": _rows_through(rng, dim, x),
        }
        k = _active_count(
            x, _flat(args["o1"]), _flat(args["o2"]), args["c1"], args["c2"]
        )
    elif rule == "preimage":
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        x = _vec(rng, n, -1, 1)
        matrix = _matrix(rng, n, m)
        target = _apply(matrix, x)
        args = {
            "n": n,
            "m": m,
            "x": x,
            "matrix": matrix,
            "theta": _pieces_through(rng, m, target),
            "c": _rows_through(rng, n, x),
        }
        k = _active_count(target, _flat(args["theta"])) + _active_count(x, args["c"])
    elif rule == "sum":
        m = size
        x = _vec(rng, 1, -1, 1)
        matrix = _matrix(rng, 1, m)
        y2 = _vec(rng, m, -1, 1)
        args = {
            "m": m,
            "x": x,
            "matrix": matrix,
            "y2": y2,
            "graph2": _pieces_through(rng, 1 + m, x + y2, max_pieces=2),
            "ystar": _vec(rng, m, -2, 2),
            "c2": _rows_through(rng, 1, x),
        }
        k = _active_count(x + y2, _flat(args["graph2"])) + _active_count(x, args["c2"])
    else:
        n = size
        x = _vec(rng, n, -1, 1)
        args = {
            "n": n,
            "x": x,
            "graph_g": _pieces_through(rng, n + 1, x + (Fraction(0),), max_pieces=2),
            "matrix": _matrix(rng, 1, 1),
            "zstar": _vec(rng, 1, -2, 2),
            "c": _rows_through(rng, n, x),
        }
        k = _active_count(x + (Fraction(0),), _flat(args["graph_g"])) + _active_count(
            x, args["c"]
        )
    return args, k


def _scaling_args(rng: random.Random, dk: tuple[int, int]):
    """k hyperplanes through a base point in dimension d, shared between two
    pieces of omega (one with flipped orientation) and C, plus a slack row."""
    d, k = dk
    base = _vec(rng, d, -1, 1)
    piece1, piece2, wrt = [], [], []
    for i in range(k):
        a = _vec(rng, d, -2, 2)
        while not any(a):
            a = _vec(rng, d, -2, 2)
        b = sum(x * y for x, y in zip(a, base))
        [piece1, piece2, wrt][i % 3].append(
            (tuple(-v for v in a), -b) if i % 3 == 1 else (a, b)
        )
    slack = _vec(rng, d, -2, 2)
    if any(slack):
        wrt.append((slack, sum(x * y for x, y in zip(slack, base)) + 1))
    return {"d": d, "k": k, "base": base, "omega": [piece1, piece2], "wrt": wrt}, k


class _Frame:
    """A random signed permutation of the coordinates of one space.  It is
    orthogonal, so points, normals of rows a.x <= b and dual vectors all
    move the same way and offsets stay put."""

    def __init__(self, rng: random.Random, dim: int):
        self.perm = list(range(dim))
        rng.shuffle(self.perm)
        self.sign = [rng.choice((-1, 1)) for _ in range(dim)]

    def point(self, v) -> tuple:
        return tuple(self.sign[i] * v[self.perm[i]] for i in range(len(v)))

    def rows(self, rng: random.Random, rows) -> list:
        """Moved rows, each rescaled by 1, 2 or 3, in shuffled order."""
        out = []
        for a, b in rows:
            c = rng.choice((1, 2, 3))
            out.append((tuple(c * x for x in self.point(a)), c * b))
        rng.shuffle(out)
        return out

    def pieces(self, rng: random.Random, pieces) -> list:
        out = [self.rows(rng, rows) for rows in pieces]
        rng.shuffle(out)
        return out

    def matrix(self, matrix, domain: "_Frame") -> tuple:
        """The matrix of x -> A x in the new coordinates (self on the range)."""
        return tuple(
            tuple(
                self.sign[i] * matrix[self.perm[i]][domain.perm[k]] * domain.sign[k]
                for k in range(len(domain.perm))
            )
            for i in range(len(self.perm))
        )

    def join(self, other: "_Frame") -> "_Frame":
        """The frame of the product space, self's coordinates first."""
        out = object.__new__(_Frame)
        out.perm = self.perm + [len(self.perm) + j for j in other.perm]
        out.sign = self.sign + other.sign
        return out


def _present_struct(rng, check, a):
    f = _Frame(rng, a["dim"])
    b = dict(a)
    b.update(
        base=f.point(a["base"]),
        omega=f.pieces(rng, a["omega"]),
        wrt=f.rows(rng, a["wrt"]),
        cone_row=f.point(a["cone_row"]),
    )
    if check == "product":
        f2 = _Frame(rng, a["d2"])
        b.update(x2=f2.point(a["x2"]), o2=f2.pieces(rng, a["o2"]), c2=f2.rows(rng, a["c2"]))
    elif check == "mixed":
        # x and z keep their roles: signs but no swap
        fxz, fy = _Frame(rng, 2), _Frame(rng, a["m"])
        fxz.perm = [0, 1]
        b.update(
            xz=fxz.point(a["xz"]),
            y=fy.point(a["y"]),
            o1=fxz.pieces(rng, a["o1"]),
            c1=fxz.rows(rng, a["c1"]),
            o2=fy.pieces(rng, a["o2"]),
            c2=fy.rows(rng, a["c2"]),
        )
    elif check == "pl":
        ff = _Frame(rng, a["fdim"])
        b.update(terms=[ff.point(t) for t in a["terms"]])
    return b


def _present_rules(rng, rule, a):
    b = dict(a)
    if rule == "intersection":
        f = _Frame(rng, a["dim"])
        b.update(x=f.point(a["x"]))
        b.update({key: f.pieces(rng, a[key]) for key in ("o1", "o2")})
        b.update({key: f.rows(rng, a[key]) for key in ("c1", "c2")})
    elif rule == "preimage":
        fx, fy = _Frame(rng, a["n"]), _Frame(rng, a["m"])
        b.update(
            x=fx.point(a["x"]),
            matrix=fy.matrix(a["matrix"], fx),
            theta=fy.pieces(rng, a["theta"]),
            c=fx.rows(rng, a["c"]),
        )
    elif rule == "sum":
        fx, fy = _Frame(rng, 1), _Frame(rng, a["m"])
        b.update(
            x=fx.point(a["x"]),
            matrix=fy.matrix(a["matrix"], fx),
            y2=fy.point(a["y2"]),
            graph2=fx.join(fy).pieces(rng, a["graph2"]),
            ystar=fy.point(a["ystar"]),
            c2=fx.rows(rng, a["c2"]),
        )
    else:
        fx, fy, fz = (_Frame(rng, d) for d in (a["n"], 1, 1))
        b.update(
            x=fx.point(a["x"]),
            graph_g=fx.join(fy).pieces(rng, a["graph_g"]),
            matrix=fz.matrix(a["matrix"], fy),
            zstar=fz.point(a["zstar"]),
            c=fx.rows(rng, a["c"]),
        )
    return b


def _present_scaling(rng, _, a):
    f = _Frame(rng, a["d"])
    b = dict(a)
    b.update(base=f.point(a["base"]), omega=f.pieces(rng, a["omega"]), wrt=f.rows(rng, a["wrt"]))
    return b


# A workload is a fixed list of instances.  Struct and rules replay the
# draws of the criterion-5 and criterion-6 acceptance tests (same seeds, same
# order of random calls, hence the same instances) and keep those with at
# most MAX_ACTIVE hyperplanes active at the base point: from 4 up a single
# item takes 1.5-35 s on the pure-Fraction path, longer than a run can absorb
# (on struct that cuts 32 of the 100 draws, on rules 10 of the 92); the
# growth in that number is what the scaling workload measures.  From what is
# left, a pass takes ITEMS instances, allotted to each (variant, active
# hyperplanes) stratum by its share of the criterion's draws (largest
# remainders), the first ones of each stratum, in the criterion's order.
# The run's seed then draws, for every pass, a fresh presentation of each
# instance (a signed permutation of the coordinates, row scalings, row and
# piece order), so the rows the engine sees differ from pass to pass and
# seed to seed while the difficulty stays fixed.  (Shifts and diagonal
# scalings were tried: they change the size of the rationals, and with it
# an item's time by up to 60 %.)
MAX_ACTIVE = 3
ITEMS = {"struct": 17, "rules": 20}
# scaling: the series over d at k = 3 and over k at d = 3, crossing at (3, 3)
SCALING_SLOTS = [(d, 3) for d in range(1, 7)] + [(3, k) for k in (2, 4, 5, 6)]


def _criterion5():
    """Criterion 5's 100 draws as (variant, args, active hyperplanes)."""
    rng = random.Random(20260809)
    for i in range(1, 101):
        check = ("product", "mixed", "pl", "cells")[i % 4]
        yield (check, *_struct_args(rng, check))


def _criterion6():
    """Criterion 6's 92 draws as (variant, args, active hyperplanes)."""
    rng = random.Random(77)
    for rule, count in (("intersection", 40), ("preimage", 16), ("sum", 18), ("chain", 18)):
        for done in range(count):
            yield (rule, *_rules_args(rng, rule, 2 if done % 3 == 2 else 1))


def _proportional(draws: list, n: int) -> list:
    """n of the draws, each (variant, k) stratum getting its share of n by
    largest remainders (ties to the stratum drawn first), in draw order."""
    counts = collections.Counter((variant, k) for variant, _, k in draws)
    quota = {s: Fraction(c * n, len(draws)) for s, c in counts.items()}
    seats = {s: int(q) for s, q in quota.items()}
    by_remainder = sorted(quota, key=lambda s: seats[s] - quota[s])
    for s in by_remainder[: n - sum(seats.values())]:
        seats[s] += 1
    out = []
    for variant, args, k in draws:
        if seats[(variant, k)]:
            seats[(variant, k)] -= 1
            out.append((variant, args, k))
    return out


_PRESENT = {"struct": _present_struct, "rules": _present_rules, "scaling": _present_scaling}


def instances(workload: str) -> list:
    """The workload's fixed instances, as (kind, variant, args)."""
    if workload == "scaling":
        rng = random.Random("scaling/instances")
        return [("scaling", dk, _scaling_args(rng, dk)[0]) for dk in SCALING_SLOTS]
    draws = _criterion5() if workload == "struct" else _criterion6()
    kept = [draw for draw in draws if draw[2] <= MAX_ACTIVE]
    return [
        (f"{workload}-{variant}", variant, args)
        for variant, args, _ in _proportional(kept, ITEMS[workload])
    ]


def make_pass(workload: str, seed: int, pass_index: int, fixed=None):
    """The items of one pass; the same (seed, pass) always gives the same rows."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return [
        (kind, _PRESENT[workload](rng, variant, args))
        for kind, variant, args in (fixed or instances(workload))
    ]


# -- items (timed) ------------------------------------------------------------


def _poly(dim, rows):
    return ConvexPoly.make(dim, rows)


def _polyset(dim, pieces):
    return PolySet.make(dim, [ConvexPoly.make(dim, rows) for rows in pieces])


def _linear(matrix, n, m):
    return PolyMultimap.linear(matrix, n, m)


def _compute_struct(check, a):
    dim, base = a["dim"], a["base"]
    omega, wrt = _polyset(dim, a["omega"]), _poly(dim, a["wrt"])
    prox = proximal_normal_wrt(omega, wrt, base)
    fre = frechet_normal_wrt(omega, wrt, base)
    lim = limiting_normal_wrt(omega, wrt, base)
    out = {
        "prox": prox,
        "fre": fre,
        "lim": lim,
        "prox_eq_fre": prox == fre,
        "prox_in_fre": ConeUnion.single(prox).subset_of(ConeUnion.single(fre)),
        "fre_in_lim": ConeUnion.single(fre).subset_of(lim),
    }
    row = a["cone_row"]
    cone = ConeH.from_ineqs(dim, [row] if any(row) else [])
    out["cone"] = cone
    out["polar_involution"] = polar(polar(cone)) == cone
    out["dd_round_trip"] = ConeH.from_generators(dim, *dd_convert(cone).generators()) == cone
    if check == "product":
        d2, x2 = a["d2"], a["x2"]
        r = product_rule(omega, wrt, _polyset(d2, a["o2"]), _poly(d2, a["c2"]), base, x2)
        out["rule"] = r
    elif check == "mixed":
        m, xz, y = a["m"], a["xz"], a["y"]
        r = mixed_product_rule(
            _polyset(2, a["o1"]),
            _poly(2, a["c1"]),
            _polyset(m, a["o2"]),
            _poly(m, a["c2"]),
            1,
            m,
            1,
            xz[:1] + y + xz[1:],
        )
        out["rule"] = r
    elif check == "pl":
        fdim = a["fdim"]
        f = PLFunc.max_affine(fdim, [(t, 0) for t in a["terms"]])
        cset = ConvexPoly.whole_space(fdim)
        origin = (Fraction(0),) * fdim
        out["subdiff"] = subdiff_wrt(f, cset, origin, "limiting").value
        out["via_coderivative"] = subdiff_via_coderivative(f, cset, origin, "limiting").value
        out["two_ways_agree"] = out["subdiff"].same_set(out["via_coderivative"])
    else:
        cells = local_cells([omega, wrt], base)
        prox_union = ConeUnion.make(
            dim, [proximal_normal_wrt(omega, wrt, c.witness) for c in cells]
        )
        fre_union = ConeUnion.make(
            dim, [frechet_normal_wrt(omega, wrt, c.witness) for c in cells]
        )
        out["prox_union_eq_fre_union"] = prox_union == fre_union
        out["prox_union_eq_lim"] = prox_union == lim
    return out


def _compute_rules(rule, a):
    if rule == "intersection":
        dim, x = a["dim"], a["x"]
        r = intersection_rule(
            _polyset(dim, a["o1"]),
            _polyset(dim, a["o2"]),
            _poly(dim, a["c1"]),
            _poly(dim, a["c2"]),
            x,
        )
    elif rule == "preimage":
        n, m = a["n"], a["m"]
        r = preimage_rule(
            _linear(a["matrix"], n, m), _polyset(m, a["theta"]), _poly(n, a["c"]), a["x"]
        )
    elif rule == "sum":
        m, x, y2 = a["m"], a["x"], a["y2"]
        y1 = _apply(a["matrix"], x)
        r = sum_rule(
            _linear(a["matrix"], 1, m),
            PolyMultimap(1, m, _polyset(1 + m, a["graph2"])),
            ConvexPoly.whole_space(1),
            _poly(1, a["c2"]),
            x,
            tuple(p + q for p, q in zip(y1, y2)),
            y1,
            y2,
            a["ystar"],
        )
    else:
        n, x = a["n"], a["x"]
        y = (Fraction(0),)
        r = chain_rule(
            PolyMultimap(n, 1, _polyset(n + 1, a["graph_g"])),
            _linear(a["matrix"], 1, 1),
            _poly(n, a["c"]),
            x,
            _apply(a["matrix"], y),
            y,
            a["zstar"],
        )
    return {"rule": r}


def _compute_scaling(a):
    d, base = a["d"], a["base"]
    omega, wrt = _polyset(d, a["omega"]), _poly(d, a["wrt"])
    fre = frechet_normal_wrt(omega, wrt, base)
    lim = limiting_normal_wrt(omega, wrt, base)
    return {"fre": fre, "lim": lim, "fre_in_lim": ConeUnion.single(fre).subset_of(lim)}


def compute(kind: str, args: dict) -> dict:
    family, _, variant = kind.partition("-")
    if family == "struct":
        return _compute_struct(variant, args)
    if family == "rules":
        return _compute_rules(variant, args)
    return _compute_scaling(args)


# -- checks (untimed) ---------------------------------------------------------


def _check_inclusion(pair, lhs, rhs, what):
    ok, witness = pair
    if ok:
        _check(witness is None, f"{what}: witness on a holding inclusion")
    else:
        _check(
            witness is not None and lhs.contains(witness) and not rhs.contains(witness),
            f"{what}: witness not in lhs \\ rhs",
        )
    return ok


def _check_report(r, what):
    if r.witness is not None:
        _check(
            r.lhs.contains(r.witness) and not r.rhs.contains(r.witness),
            f"{what}: witness not in lhs \\ rhs",
        )
    for name, v in r.qualifications:
        cert = v.certificate if v.is_fails() else None
        if isinstance(cert, dict) and "vector" in cert:
            _check(any(cert["vector"]), f"{what}: zero certificate for {name}")


def verify(kind: str, args: dict, out: dict) -> None:
    family, _, variant = kind.partition("-")
    if family == "struct":
        _check(out["prox_eq_fre"], "proximal != Frechet")
        single_fre = ConeUnion.single(out["fre"])
        _check(
            _check_inclusion(out["prox_in_fre"], ConeUnion.single(out["prox"]), single_fre, "prox<=fre"),
            "proximal not inside Frechet",
        )
        _check(
            _check_inclusion(out["fre_in_lim"], single_fre, out["lim"], "fre<=lim"),
            "Frechet not inside limiting",
        )
        _check(out["polar_involution"], "polar(polar(K)) != K")
        _check(out["dd_round_trip"], "DD round trip differs")
        if variant in ("product", "mixed"):
            _check_report(out["rule"], variant)
            _check(out["rule"].equality_holds is True, f"{variant} rule equality fails")
        elif variant == "pl":
            _check(out["two_ways_agree"], "PL subdifferential differs between routes")
        else:
            _check(out["prox_union_eq_fre_union"], "cell unions differ")
            _check(out["prox_union_eq_lim"], "cell union != limiting cone")
    elif family == "rules":
        r = out["rule"]
        _check_report(r, variant)
        if r.hypotheses_hold():
            _check(r.inclusion_holds, f"guarded {variant} rule inclusion fails")
    else:
        _check(
            _check_inclusion(out["fre_in_lim"], ConeUnion.single(out["fre"]), out["lim"], "fre<=lim"),
            "Frechet not inside limiting",
        )


def _canon(obj):
    """JSON-able canonical form of a result; unions are sorted, so order-free."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, ConeH):
        if obj.empty:
            return "empty"
        return {"i": _canon(obj.ineqs), "e": _canon(obj.eqs)}
    if isinstance(obj, ConvexPoly):
        return {"i": _canon(obj.ineqs), "e": _canon(obj.eqs)}
    if isinstance(obj, (ConeUnion, PolyUnion)):
        parts = [_canon(p) for p in obj.parts]
        return sorted(parts, key=lambda p: json.dumps(p, sort_keys=True))
    if isinstance(obj, TriVerdict):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [_canon(x) for x in obj]
    raise TypeError(type(obj).__name__)


def material(kind: str, out: dict):
    """The outputs the mathematics determines, in canonical form."""
    m = {}
    for key, value in sorted(out.items()):
        if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], bool):
            m[key] = value[0]  # (verdict, witness): the witness is checked, not kept
        elif hasattr(value, "rule_id"):
            m[key] = {
                "lhs": _canon(value.lhs),
                "quals": [[n, v.value] for n, v in value.qualifications],
                "inclusion": value.inclusion_holds,
                "equality": value.equality_holds,
            }
            if value.rule_id in ("intersection-rule", "product-rule", "mixed-product-rule"):
                m[key]["rhs"] = _canon(value.rhs)
        else:
            m[key] = _canon(value)
    return [kind, m]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
