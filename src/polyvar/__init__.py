"""Exact calculus of normal cones, coderivatives and subdifferentials
relative to a convex polyhedral set.

Everything is computed in exact rational arithmetic: sets are finite unions
of convex rational polyhedra, all outer limits are finite unions over sign
cells of hyperplane arrangements, and every verdict (qualification
conditions, Aubin property, stationarity) carries an exact certificate.
"""

from __future__ import annotations

from .calculus import (
    intersection_rule,
    lqc_wrt_check,
    mixed_product_rule,
    normal_densed_check,
    preimage_rule,
    product_rule,
)
from .cones import (
    ConeRequest,
    frechet_normal,
    frechet_normal_wrt,
    limiting_normal,
    limiting_normal_wrt,
    normal_cone,
    proximal_normal_wrt,
    radial_cone,
)
from .exactgeom import (
    ConeH,
    ConeUnion,
    ConvexPoly,
    PolySet,
    PolyUnion,
    cone_union_ops,
    dd_convert,
    is_zero_cone,
    polar,
)
from .linalg import rat, vec
from .mpec import MPECProblem, StationarityReport, stationarity_check
from .multimaps import (
    CoderivativeSlice,
    PolyMultimap,
    aubin_wrt_check,
    chain_rule,
    coderivative_wrt,
    inner_regularity_check,
    sum_rule,
)
from .plfunc import (
    PLFunc,
    SubdiffResult,
    fermat_check,
    lipschitz_wrt_check,
    subdiff_via_coderivative,
    subdiff_wrt,
)
from .stratify import Cell, CellSignature, global_cells, local_cells
from .verdicts import RuleReport, TriVerdict

__version__ = "0.1.0"

_ORACLE_NAMES = ("SamplingPlan", "aubin_ratio_probe", "frechet_membership_probe")


def __getattr__(name: str):
    """The floating-point oracle's names, imported on first use: only
    `--cross-check` needs the oracle, so the CLI does not load it."""
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Cell",
    "CellSignature",
    "CoderivativeSlice",
    "ConeH",
    "ConeRequest",
    "ConeUnion",
    "ConvexPoly",
    "MPECProblem",
    "PLFunc",
    "PolyMultimap",
    "PolySet",
    "PolyUnion",
    "RuleReport",
    "SamplingPlan",
    "StationarityReport",
    "SubdiffResult",
    "TriVerdict",
    "aubin_ratio_probe",
    "aubin_wrt_check",
    "chain_rule",
    "cone_union_ops",
    "coderivative_wrt",
    "dd_convert",
    "fermat_check",
    "frechet_membership_probe",
    "frechet_normal",
    "frechet_normal_wrt",
    "global_cells",
    "inner_regularity_check",
    "intersection_rule",
    "is_zero_cone",
    "limiting_normal",
    "limiting_normal_wrt",
    "lipschitz_wrt_check",
    "lqc_wrt_check",
    "mixed_product_rule",
    "normal_cone",
    "normal_densed_check",
    "polar",
    "preimage_rule",
    "product_rule",
    "proximal_normal_wrt",
    "radial_cone",
    "rat",
    "stationarity_check",
    "subdiff_via_coderivative",
    "subdiff_wrt",
    "sum_rule",
    "vec",
]
