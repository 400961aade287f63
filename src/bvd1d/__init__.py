"""1D finite-volume advection with WENO-Z/THINC hybrid reconstruction.

The package evolves a periodic scalar conservation law with a semi-discrete
finite-volume method. Two candidate reconstructions (5th-order WENO-Z and
the THINC sigmoid) are hybridized cell by cell with one of four boundary
variation diminishing selection rules, which keeps discontinuities a few
cells wide without polluting smooth regions with limiter dissipation.
"""

from .bvd import (
    BVD3_EPS,
    CandidateSet,
    SelectionResult,
    assemble_interfaces,
    build_candidates,
    bvd1_select,
    bvd2_select,
    bvd3_select,
    bvd4_select,
)
from .experiments import (
    FIGURE_SCHEMES,
    PROFILES,
    Profile,
    complex_wave_profile,
    exact_advected,
    l1_error,
    linf_error,
    run_benchmark,
    transition_width,
)
from .field import CellField, Grid1D, project_initial
from .reconstruct import WENO_Z_EPS, ThincParams
from .solver import (
    SCHEMES,
    BlowupError,
    FluxSpec,
    RunResult,
    SchemeConfig,
    TimeConfig,
    advect,
    riemann_flux,
    select,
)

__version__ = "0.1.0"

__all__ = [
    "BVD3_EPS",
    "BlowupError",
    "CandidateSet",
    "CellField",
    "FIGURE_SCHEMES",
    "FluxSpec",
    "Grid1D",
    "PROFILES",
    "Profile",
    "RunResult",
    "SCHEMES",
    "SchemeConfig",
    "SelectionResult",
    "ThincParams",
    "TimeConfig",
    "WENO_Z_EPS",
    "advect",
    "assemble_interfaces",
    "build_candidates",
    "bvd1_select",
    "bvd2_select",
    "bvd3_select",
    "bvd4_select",
    "complex_wave_profile",
    "exact_advected",
    "l1_error",
    "linf_error",
    "project_initial",
    "riemann_flux",
    "run_benchmark",
    "select",
    "transition_width",
]
