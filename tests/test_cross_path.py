"""Results do not depend on which SIMD or BLAS kernels numpy dispatches to.

Each path runs the six figure configurations at N = 200 for 0.1 period in a
fresh interpreter: the default dispatch, numpy with its X86_V4 kernels
switched off (exp and power then take the AVX2 or baseline loops), and
OpenBLAS forced to its Sandybridge kernels (the quadrature's matrix-vector
product). Selection tags, transition widths and THINC counts must not move
at all; L1 may move by rounding, within the benchmark gate's 1e-12 relative.

On the path of one RK stage, THINC's exp is the only kernel left that numpy
dispatches by CPU: bvd3's fourth powers are exact squarings, so its
indicator S takes no dispatched kernel. The profiles' exp and sin, and the
quadrature's product, act only on the initial projection.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bvd1d.experiments import FIGURE_SCHEMES

ROOT = Path(__file__).resolve().parents[1]
L1_REL_TOL = 1e-12  # the benchmark gate's bound (perfbench/workloads.py)

BVD3_FIGURE = str(next(f for f, s in FIGURE_SCHEMES.items() if s.scheme == "bvd3"))
PATHS = {
    "default": {},
    "no X86_V4": {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
    "OpenBLAS Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
}

# Prints one JSON object: the kernels this interpreter dispatches to (from
# tools/bench_summary.py's probes), and per figure the L1 error, widths,
# per-step THINC counts and final omega.
CHILD = r"""
import json
from bench_summary import kernel_dispatch, openblas_core
from bvd1d.experiments import FIGURE_SCHEMES, PROFILES, run_benchmark, selection_weights

runs = {}
for figure, scheme in FIGURE_SCHEMES.items():
    result = run_benchmark(scheme, PROFILES["complex_waves"], n_cells=200, periods=0.1)
    runs[figure] = {
        "l1": result.l1_error,
        "widths": result.transition_widths,
        "t_cells": result.t_cells_per_step.tolist(),
        "omega": selection_weights(result.final.averages, scheme).tolist(),
    }
print(json.dumps({
    "kernels": kernel_dispatch(),
    "openblas": openblas_core(),
    "runs": runs,
}))
"""


def run_path(overrides: dict) -> dict:
    env = dict(os.environ)
    for switch in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"):
        env.pop(switch, None)
    env.update(overrides)
    paths = [str(ROOT / "src"), str(ROOT / "tools"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def tag_classes(omega: list[float]) -> list[str]:
    """The CSV tag column's classes: W (omega 0), T (omega 1) or a blend."""
    return ["W" if w == 0.0 else "T" if w == 1.0 else "blend" for w in omega]


def max_rel_change(new: list[float], old: list[float]) -> float:
    new, old = np.asarray(new), np.asarray(old)
    scale = np.where(old == 0.0, 1.0, np.abs(old))
    return float(np.max(np.abs(new - old) / scale, initial=0.0))


@pytest.fixture(scope="module")
def default_path():
    return run_path(PATHS["default"])


@pytest.mark.parametrize("path", ["no X86_V4", "OpenBLAS Sandybridge"])
def test_results_hold_across_kernel_paths(default_path, path):
    got = run_path(PATHS[path])
    l1_change = 0.0
    for figure, want in default_path["runs"].items():
        run = got["runs"][figure]
        assert tag_classes(run["omega"]) == tag_classes(want["omega"]), figure
        assert run["widths"] == want["widths"], figure
        assert run["t_cells"] == want["t_cells"], figure
        assert run["l1"] == pytest.approx(want["l1"], rel=L1_REL_TOL, abs=0.0), figure
        l1_change = max(l1_change, max_rel_change([run["l1"]], [want["l1"]]))
    omega_change = max_rel_change(
        got["runs"][BVD3_FIGURE]["omega"], default_path["runs"][BVD3_FIGURE]["omega"]
    )
    print(f"\n{path}: kernels {got['kernels']}, OpenBLAS {got['openblas']} "
          f"(default {default_path['kernels']}, {default_path['openblas']}); "
          f"largest relative change: L1 {l1_change:.2g}, bvd3 omega {omega_change:.2g}")
    if got["runs"] == default_path["runs"]:
        print(f"note: {path} changed no bit of any result")
