"""`record` keeps the semantics of `dataclasses.dataclass(frozen=True)`.

Every record class of the engine gets a frozen dataclass twin built from
the same annotations and defaults.  On seeded field values
the two must agree on construction (by position, by keyword, by default),
on the errors of a bad call, on `==`, `hash` and `repr`, and both must
refuse assignment and deletion.  Hash values and reprs are pinned because
set iteration order and perfbench's tracer keys depend on them.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import random
from fractions import Fraction
from pathlib import Path

import pytest

import polyvar
from polyvar.exactgeom import ConvexPoly
from polyvar.verdicts import TriVerdict


def _record_classes() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(polyvar.__path__):
        module = importlib.import_module(f"polyvar.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "__match_args__" in value.__dict__
            ):
                found.append(value)
    return found


RECORDS = _record_classes()


def test_every_record_class_is_found():
    src = Path(polyvar.__file__).parent
    decorated = sum(p.read_text().count("\n@record\n") for p in src.glob("*.py"))
    assert decorated == len(RECORDS) >= 16
    assert not any("dataclass" in p.read_text() for p in src.glob("*.py"))


def _twin(cls: type) -> type:
    names = cls.__match_args__
    namespace = {"__annotations__": dict(cls.__annotations__), "__qualname__": cls.__qualname__}
    namespace.update({n: cls.__dict__[n] for n in names if n in cls.__dict__})
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


POOL = (
    0,
    1,
    2,
    16,
    -3,
    Fraction(1, 64),
    Fraction(1, 2),
    1e-6,
    "holds",
    None,
    True,
    (),
    (Fraction(1), Fraction(-2, 3)),
    ((1, 0), (0, 1)),
    ConvexPoly.make(1, [((Fraction(1),), Fraction(2))]),
    TriVerdict.holds((Fraction(1),)),
    {"a": 1},
)


def _outcome(make):
    try:
        return make()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc) if isinstance(exc, ValueError) else None


def _agree(rec, twin) -> bool:
    """Both calls gave equal errors, or equal field values."""
    if isinstance(rec, tuple) or isinstance(twin, tuple):
        return rec == twin
    names = type(rec).__match_args__
    return all(getattr(rec, n) is getattr(twin, n) for n in names) and repr(rec) == repr(twin)


def _same_hash(rec, twin) -> bool:
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(rec)
        return True
    return hash(rec) == expected == hash(tuple(getattr(rec, n) for n in rec.__match_args__))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass(cls):
    twin = _twin(cls)
    names = cls.__match_args__
    assert names == twin.__match_args__
    required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    rng = random.Random(f"record/{cls.__name__}")
    made = []
    for _ in range(120):
        # a default half the time
        values = [
            cls.__dict__[n] if n in cls.__dict__ and rng.random() < 0.5 else rng.choice(POOL)
            for n in names
        ]
        kwargs = dict(zip(names, values))
        by_position = _outcome(lambda: cls(*values))
        assert _agree(by_position, _outcome(lambda: twin(*values)))
        assert _agree(_outcome(lambda: cls(**kwargs)), _outcome(lambda: twin(**kwargs)))
        given = {n: kwargs[n] for n in required}
        assert _agree(_outcome(lambda: cls(**given)), _outcome(lambda: twin(**given)))
        if not isinstance(by_position, tuple):
            made.append((by_position, twin(*values)))
    assert len(made) >= 20, cls

    for rec, twin_rec in made:
        assert repr(rec) == repr(twin_rec)
        assert _same_hash(rec, twin_rec)
        assert rec != twin_rec and twin_rec != rec
        assert rec != tuple(getattr(rec, n) for n in names)
        for other, twin_other in made:
            assert (rec == other) == (twin_rec == twin_other)
            assert (rec != other) == (twin_rec != twin_other)
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1)
            with pytest.raises(AttributeError):
                delattr(rec, name)
    values = [getattr(made[0][0], n) for n in names]
    bad_calls = [
        lambda c: c(*values, 0),
        lambda c: c(*values, extra=0),
        lambda c: c(*values, **{names[0]: values[0]}),
    ]
    if required:
        bad_calls.append(lambda c: c(*values[: len(required) - 1]))
    for call in bad_calls:
        assert _outcome(lambda: call(cls))[0] is _outcome(lambda: call(twin))[0] is TypeError


def test_equality_is_per_class():
    by_arity: dict[int, list[type]] = {}
    for cls in RECORDS:
        by_arity.setdefault(len(cls.__match_args__), []).append(cls)
    pairs = [group[:2] for group in by_arity.values() if len(group) >= 2]
    assert pairs
    for a, b in pairs:
        values = [1] * len(a.__match_args__)
        assert a(*values) == a(*values) and a(*values) != b(*values)
