"""The README's tables match the code.

"Results at a glance" against the benchmark runs it quotes, and every
numeric row of "Defaults and constants" against the default or constant it
names.
"""

import re
from pathlib import Path

from bvd1d.bvd import BVD3_EPS
from bvd1d.reconstruct import WENO_Z_EPS, ThincParams
from bvd1d.solver import SchemeConfig, TimeConfig

README = Path(__file__).resolve().parents[1] / "README.md"

# | `bvd4` β=4 | 1 | 2.19e-02 | ...: scheme, optional beta, leading width, L1 text
ROW = re.compile(r"^\| `(\w+)`(?: β=(\d+))?\s*\| (\d+)[^|]*\| (\S+)\s*\|", re.MULTILINE)


def glance_rows() -> dict[str, tuple[int, str]]:
    """Per complex_wave_runs key, the table's square-pulse width and L1 text."""
    text = README.read_text(encoding="utf-8")
    table = text.split("## Results at a glance", 1)[1].split("\n## ", 1)[0]
    return {
        scheme + (f"-beta{beta}" if beta else ""): (int(width), l1)
        for scheme, beta, width, l1 in ROW.findall(table)
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
    text = README.read_text(encoding="utf-8")
    section = text.split("## Defaults and constants", 1)[1].split("\n## ", 1)[0]
    cells = (line.split("|")[1:3] for line in section.splitlines() if line.startswith("| "))
    return {name.strip().strip("`"): value.strip() for name, value in cells}


def test_defaults_table_matches_the_code():
    scheme, time = SchemeConfig(), TimeConfig(t_end=1.0)
    code = {
        "beta": scheme.beta,
        "delta": scheme.delta,
        "s_cutoff": scheme.s_cutoff,
        "CFL": time.cfl,
        "WENO_Z_EPS": WENO_Z_EPS,
        "ThincParams.eps": ThincParams.eps,
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
