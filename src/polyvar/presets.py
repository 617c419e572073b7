"""Named presets reproducing the worked examples, each a bundled problem file."""

from __future__ import annotations

import pkgutil

from .problemfile import ProblemFile, loads

# id -> (bundled file, query names to run; None = all)
_REGISTRY: dict[str, tuple[str, tuple[str, ...] | None]] = {
    "ex1-frechet-omega1": (
        "ex1.json",
        (
            "o1-wrt-origin",
            "o1-wrt-y-axis",
            "o1-wrt-diagonal",
            "o1-wrt-diagonal-far",
            "o1-wrt-above",
            "o1-wrt-interior",
        ),
    ),
    "ex1-frechet-omega2": (
        "ex1.json",
        ("o2-wrt-corner", "o2-wrt-x-face", "o2-wrt-z-axis", "o2-wrt-y-face", "o2-wrt-interior"),
    ),
    "ex1-classical-omega1": ("ex1.json", ("o1-classical-origin", "o1-classical-diagonal")),
    "ex1-frechet-omega2-c2": ("ex1.json", ("o2-pair2-x-face", "o2-pair2-interior")),
    "ex1-limiting-omega1": ("ex1.json", ("limiting-omega1",)),
    "ex1-lqc": ("ex1.json", ("lqc-cc", "lqc-c1c2")),
    "ex1-normal-densed-i": ("ex1.json", ("nd-cc",)),
    "ex1-normal-densed-ii": ("ex1.json", ("nd-c1c2",)),
    "ex2-intersection-holds": ("ex2.json", ("intersection-cc",)),
    "ex2-intersection-failure": ("ex2.json", ("intersection-c1c2",)),
    "mpec-final-1": ("mpec-final-1.json", None),
    "mpec-final-2": ("mpec-final-2.json", ("mpec", "subdiff")),
    "aubin-final-wrt": ("mpec-final-2.json", ("aubin-wrt",)),
    "aubin-final-classical": ("mpec-final-2.json", ("aubin-classical",)),
}


def preset_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def load_preset(preset_id: str) -> tuple[ProblemFile, tuple[str, ...] | None]:
    if preset_id not in _REGISTRY:
        raise KeyError(preset_id)
    fname, names = _REGISTRY[preset_id]
    text = pkgutil.get_data(__package__, f"problems/{fname}").decode("utf-8")
    return loads(text), names
