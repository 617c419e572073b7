"""Exact calculus of normal cones, coderivatives and subdifferentials
relative to a convex polyhedral set.

Everything is computed in exact rational arithmetic: sets are finite unions
of convex rational polyhedra, all outer limits are finite unions over sign
cells of hyperplane arrangements, and every verdict (qualification
conditions, Aubin property, stationarity) carries an exact certificate.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it; `import polyvar` loads none of
# them, and each is imported on first use (PEP 562), so a CLI start compiles
# only the modules its query needs and only `--cross-check` loads the oracle
_EXPORTS = {
    name: module
    for module, names in (
        ("calculus", "intersection_rule mixed_product_rule preimage_rule product_rule"),
        ("cones", "frechet_normal_wrt limiting_normal limiting_normal_wrt normal_cone"
                  " proximal_normal_wrt radial_cone"),
        ("exactgeom", "ConeH ConeUnion ConvexPoly PolySet PolyUnion dd_convert polar"),
        ("linalg", "rat vec"),
        ("mpec", "MPECProblem StationarityReport stationarity_check"),
        ("multimaps", "CoderivativeSlice PolyMultimap aubin_wrt_check chain_rule"
                      " coderivative_wrt inner_regularity_check sum_rule"),
        ("oracle", "aubin_ratio_probe frechet_membership_probe"),
        ("plfunc", "PLFunc SubdiffResult fermat_check lipschitz_wrt_check"
                   " subdiff_via_coderivative subdiff_wrt"),
        ("quals", "lqc_wrt_check normal_densed_check"),
        ("stratify", "Cell global_cells local_cells"),
        ("verdicts", "RuleReport TriVerdict"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})

