import pytest

from bvd1d.experiments import FIGURE_SCHEMES, PROFILES, run_benchmark
from bvd1d.solver import SchemeConfig

# The six figure configurations, labelled by scheme and, off the default, beta:
# wenoz, bvd1, ..., bvd4, bvd4-beta4.
BENCHMARK_CONFIGS = {
    config.scheme + ("" if config.beta == SchemeConfig.beta else f"-beta{config.beta:g}"): config
    for config in FIGURE_SCHEMES.values()
}


@pytest.fixture(scope="session")
def complex_wave_runs():
    """One-period complex-wave benchmark (N=200, CFL 0.2) per configuration."""
    return {
        name: run_benchmark(config, PROFILES["complex_waves"], n_cells=200, cfl=0.2)
        for name, config in BENCHMARK_CONFIGS.items()
    }
