"""1D finite-volume advection with WENO-Z/THINC hybrid reconstruction.

The package evolves a periodic scalar conservation law with a semi-discrete
finite-volume method. Two candidate reconstructions (5th-order WENO-Z and
the THINC sigmoid) are hybridized cell by cell with one of four boundary
variation diminishing selection rules, which keeps discontinuities a few
cells wide without polluting smooth regions with limiter dissipation.

The root exports the README's library API; every other name is imported
from its module (bvd1d.bvd, bvd1d.reconstruct, ...).
"""

from .experiments import PROFILES, run_benchmark
from .field import Grid1D, project_initial
from .solver import BlowupError, FluxSpec, SchemeConfig, TimeConfig, advect, select

__all__ = [
    "BlowupError",
    "FluxSpec",
    "Grid1D",
    "PROFILES",
    "SchemeConfig",
    "TimeConfig",
    "advect",
    "project_initial",
    "run_benchmark",
    "select",
]
