"""The README's "Results at a glance" table matches the benchmark runs it quotes."""

import re
from pathlib import Path

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
