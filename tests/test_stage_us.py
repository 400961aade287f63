"""tools/stage_us.py: a child process times every (scheme, N) cell, and pairs summarise.

The harness itself takes minutes; these tests run one child for one step at
one small N, and summarise made-up pairs.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def stage_us(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("stage_us", ROOT / "tools" / "stage_us.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_times_every_cell(stage_us, monkeypatch):
    monkeypatch.setattr(stage_us, "STEPS", {12: 1})
    monkeypatch.setattr(stage_us, "ROUNDS", 2)
    best = stage_us.run_side(ROOT)
    assert set(best) == set(stage_us.SCHEMES)
    assert all(set(cells) == {"12"} and cells["12"] > 0.0 for cells in best.values())


def test_summary_counts_wins_and_takes_medians(stage_us, monkeypatch):
    monkeypatch.setattr(stage_us, "STEPS", {50: 30})
    monkeypatch.setattr(stage_us, "SCHEMES", ("bvd1",))
    pairs = [({"bvd1": {"50": before}}, {"bvd1": {"50": after}})
             for before, after in ((10.0, 9.0), (12.0, 8.0), (11.0, 11.5))]
    summary = stage_us.summarise(pairs)
    cell = summary["schemes"]["bvd1"]["50"]
    assert cell["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "iqr": 1.0}
    assert cell["change"] == {"median": 9.0, "q1": 8.5, "q3": 10.25, "iqr": 1.75}
    assert cell["change_wins"] == 2 and cell["pairs"] == 3
    assert "60 times" in summary["method"] and "3 process pairs" in summary["method"]
