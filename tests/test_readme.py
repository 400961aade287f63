"""The README's tables and library examples match the code.

"Results at a glance" against the benchmark runs it quotes, every numeric
row of "Defaults and constants" against the default or constant it names,
"Library use" as a spec of the package root: its code blocks run as
written, and bvd1d.__all__ holds exactly the names the README reaches as
bvd1d.<name>; and the claims of its prose, one test per sentence.
"""

import pkgutil
import re
from pathlib import Path

import numpy as np

import bvd1d
from bvd1d.bvd import BVD3_EPS
from bvd1d.experiments import FIGURE_SCHEMES, PROFILES, exact_advected, l1_error
from bvd1d.field import Grid1D, project_initial
from bvd1d.reconstruct import THINC_EPS, WENO_Z_EPS
from bvd1d.solver import FluxSpec, SchemeConfig, TimeConfig, advect

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The README's text under "## title", up to the next level-2 heading."""
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


# | `bvd4` β=4 | 1 | 2.19e-02 | ...: scheme, optional beta, leading width, L1 text
ROW = re.compile(r"^\| `(\w+)`(?: β=(\d+))?\s*\| (\d+)[^|]*\| (\S+)\s*\|", re.MULTILINE)


def glance_rows() -> dict[str, tuple[int, str]]:
    """Per complex_wave_runs key, the table's square-pulse width and L1 text."""
    return {
        scheme + (f"-beta{beta}" if beta else ""): (int(width), l1)
        for scheme, beta, width, l1 in ROW.findall(section("Results at a glance"))
    }


def test_results_table_matches_the_runs(complex_wave_runs):
    rows = glance_rows()
    assert rows.keys() == complex_wave_runs.keys()
    for name, (width, l1) in rows.items():
        result = complex_wave_runs[name]
        assert f"{result.l1_error:.2e}" == l1, name
        assert result.transition_widths, name
        assert all(edge == width for edge in result.transition_widths), name


def defaults_rows() -> dict[str, str]:
    """The "Defaults and constants" table: constant name (backticks dropped) -> value text."""
    lines = section("Defaults and constants").splitlines()
    cells = (line.split("|")[1:3] for line in lines if line.startswith("| "))
    return {name.strip().strip("`"): value.strip() for name, value in cells}


def test_defaults_table_matches_the_code():
    scheme, time = SchemeConfig(), TimeConfig(t_end=1.0)
    code = {
        "beta": scheme.beta,
        "delta": scheme.delta,
        "s_cutoff": scheme.s_cutoff,
        "CFL": time.cfl,
        "WENO_Z_EPS": WENO_Z_EPS,
        "THINC_EPS": THINC_EPS,
        "BVD3_EPS": BVD3_EPS,
    }
    numeric = {}
    for name, value in defaults_rows().items():
        try:
            numeric[name] = float(value)
        except ValueError:
            continue
    assert numeric.keys() == code.keys()
    for name, value in numeric.items():
        assert value == code[name], name


def test_library_use_runs_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```$", section("Library use"), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # in order: later blocks read what earlier ones defined
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["next_field"].grid == namespace["grid"]


def test_root_exports_exactly_the_names_the_readme_uses():
    submodules = {module.name for module in pkgutil.iter_modules(bvd1d.__path__)}
    written = set(re.findall(r"\bbvd1d\.(\w+)", README.read_text(encoding="utf-8")))
    assert written - submodules == set(bvd1d.__all__)
    assert all(hasattr(bvd1d, name) for name in bvd1d.__all__)


def test_smooth_regions_retain_fifth_order_accuracy():
    """"smooth regions retain full 5th-order accuracy": on `sine`, with the smooth-ladder
    benchmark's t_end 0.2, dt = 0.2 dx^(5/3) and N = 25, 50, 100, no BVD scheme ever
    selects THINC, each ends byte-equal to wenoz, and wenoz's L1 order is 5."""
    profile, errors = PROFILES["sine"], []
    for n in (25, 50, 100):
        grid = Grid1D(n, profile.x_left, profile.x_right)
        initial = project_initial(grid, profile.func)
        time = TimeConfig(t_end=0.2, dt=0.2 * grid.dx ** (5.0 / 3.0))
        wenoz = advect(initial, FluxSpec(), time, SchemeConfig("wenoz")).final
        errors.append(l1_error(wenoz, exact_advected(profile, grid, 1.0, 0.2)))
        for scheme in ("bvd1", "bvd2", "bvd3", "bvd4"):
            run = advect(initial, FluxSpec(), time, SchemeConfig(scheme))
            assert run.final.averages.tobytes() == wenoz.averages.tobytes(), (scheme, n)
            assert not run.t_cells_per_step.any(), (scheme, n)
    assert np.all(np.log2(np.array(errors[:-1]) / errors[1:]) > 4.9)


def test_beta_4_holds_its_jump_up_to_cfl_0_3_and_acts_as_wenoz_at_0_4():
    """β = 4 "keeps re-selecting the sigmoid (and therefore only holds a 2-cell jump) for
    step sizes up to roughly CFL 0.3; at CFL 0.4 it falls back to pure WENO-Z behavior":
    complex_waves, N = 200, one period."""
    profile, sharp = PROFILES["complex_waves"], SchemeConfig("bvd4", beta=4.0)
    assert bvd1d.run_benchmark(sharp, profile, cfl=0.3).transition_widths == [1, 1]
    fallback = bvd1d.run_benchmark(sharp, profile, cfl=0.4)
    wenoz = bvd1d.run_benchmark(SchemeConfig("wenoz"), profile, cfl=0.4)
    assert fallback.transition_widths == wenoz.transition_widths == [5, 5]
    assert abs(fallback.l1_error - wenoz.l1_error) < 0.01 * wenoz.l1_error


def test_every_figure_configuration_is_stable_at_cfl_0_8():
    """"All schemes are stable well beyond 0.2": each of the six figure configurations
    finishes one period of complex_waves at N = 200 and CFL 0.8 (advect raises
    BlowupError on a NaN or Inf)."""
    for config in FIGURE_SCHEMES.values():
        result = bvd1d.run_benchmark(config, PROFILES["complex_waves"], cfl=0.8)
        assert result.n_steps > 0 and np.isfinite(result.l1_error), config
