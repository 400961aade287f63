"""perfbench/tracing.py wraps each layer under the name its caller looks it up by.

Dropping or renaming one of those module-level imports (say `weno_z_field`
from bvd) leaves the solver working but breaks the benchmark's tracing; these
tests catch it in the unit suite.
"""

import importlib.util
from pathlib import Path

import pytest

from bvd1d import experiments
from bvd1d.solver import SchemeConfig

TRACED_LAYERS = (
    "bvd.build_candidates",
    "bvd.assemble_interfaces",
    "solver.riemann_flux",
    "solver.advect",
    "experiments.selection_weights",
    "experiments.write_run_csv",
    "experiments.exact_advected",
    "field.project_initial",
)


@pytest.fixture(scope="module")
def tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_spans(tracing) -> set[str]:
    return {*tracing.KERNEL_SPANS, *tracing.SELECTOR_SPANS, *TRACED_LAYERS}


def test_every_traced_layer_has_an_install_point(tracing):
    points = tracing._install_points()
    names = {tracing.span_name(namespace[key]) for namespace, key in points}
    assert expected_spans(tracing) <= names


def test_wrappers_see_every_traced_layer_run(tracing, tmp_path):
    # Called through the module, as the benchmark calls them.
    recorder = tracing.SpanRecorder()
    profile = experiments.PROFILES["complex_waves"]
    with tracing.installed(recorder.wrap):
        for scheme in ("wenoz", "bvd1", "bvd2", "bvd3", "bvd4"):
            config = SchemeConfig(scheme)
            result = experiments.run_benchmark(config, profile, n_cells=40, periods=0.05)
            omega = experiments.selection_weights(result.final.averages, config)
            experiments.write_run_csv(tmp_path / f"{scheme}.csv", result.final.grid, result, omega)
    assert expected_spans(tracing) <= {span[0] for span in recorder.spans}
