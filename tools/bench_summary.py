"""Summarise paired benchmark runs of a parent and a change checkout as one JSON file.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \
        [--stage-us STAGE_US.json]

Each directory is a checkout whose perfbench/out/ holds the result files of
`perfbench/run.py`, one per workload, seed and --trace level. A --trace 0 run
of the parent and one of the change on the same workload and seed form a
pair. For each workload and end-to-end metric of BENCHMARK.json, the output
records both medians and IQRs over the runs' reported values, and in how many
pairs the change was better. Under "per_layer" it records, for each per-layer
metric, the parent's and the change's median over their --trace 1 runs of
that workload. Under "calls_per_stage" it records each checkout's numpy
calls, slicings, elements written, calls with a float operand and masked
copyto calls per RK stage, per scheme and per N, counted by the checkout's
own tools/count_calls.py in a subprocess on the checkout's src/, so each
tree is counted by the counter its pins were made with. With --stage-us,
the output of tools/stage_us.py on the same two checkouts (each scheme's
stage time, before and after, per N) goes in under "stage_us".
The provenance adds what the result files leave out: numpy's
kernel dispatch for exp and power, and the OpenBLAS core. Nothing in bvd1d
imports this script.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy.lib import introspect

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
COUNT_CALLS_CHILD = """
import json, count_calls
from bvd1d import solver
print(json.dumps({scheme: {n: count_calls.stage_counts(scheme, n)[0]._asdict()
                           for n in count_calls.SIZES}
                  for scheme in solver.SCHEMES}))
"""


def load_runs(checkout: Path, trace: int) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result record}} of the checkout's runs at this --trace level."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted((checkout / "perfbench" / "out").glob(f"result-*-trace{trace}.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(record["workload"], {})[record["provenance"]["seed"]] = record
    return runs


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def paired(before: list[float], after: list[float], lower: bool = True) -> dict:
    """Both sides' quartiles over paired runs, and in how many pairs the change was better."""
    wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
    return {"parent": quartiles(before), "change": quartiles(after),
            "change_wins": wins, "pairs": len(before)}


def stage_call_counts(checkout: Path) -> dict[str, dict[str, dict[str, int]]]:
    """{scheme: {N: count_calls.Tally as a dict}} of one RK stage of the checkout's bvd1d,
    counted by the checkout's own tools/count_calls.py."""
    paths = [str(checkout.resolve() / "src"), str(checkout.resolve() / "tools")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", COUNT_CALLS_CHILD], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def openblas_core() -> str | None:
    """The core OpenBLAS picked at load, for numpy wheels that bundle scipy-openblas."""
    for lib in glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas*"):
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except AttributeError:
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def kernel_dispatch() -> dict[str, str]:
    """The float64 loop numpy dispatches exp and power to, e.g. X86_V4."""
    info = introspect.opt_func_info(func_name="^exp$|^power$", signature="^d+$")
    return {name: next(iter(loops.values()))["current"] for name, loops in info.items()}


def summarise(parent: dict, change: dict, metrics: list[dict]) -> dict:
    out = {}
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        entry = {
            "seeds": seeds,
            "failed": {
                "parent": sum(p["failed"] for p, _ in pairs),
                "change": sum(c["failed"] for _, c in pairs),
            },
        }
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            before = [p["metrics"][name]["value"] for p, _ in pairs]
            after = [c["metrics"][name]["value"] for _, c in pairs]
            entry[name] = {"unit": metric["unit"], "better": metric["better"]} | paired(
                before, after, lower)
        out[workload] = entry
    return out


def layer_medians(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """{workload: {metric: both sides' medians}} over each side's --trace 1 runs."""
    out = {}
    for workload in sorted(parent.keys() & change.keys()):
        sides = {"parent": parent[workload].values(), "change": change[workload].values()}
        entry = {"runs": {side: len(records) for side, records in sides.items()}}
        for metric in metrics:
            name = metric["name"]
            entry[name] = {"unit": metric["unit"], "better": metric["better"]} | {
                side: float(np.median([r["metrics"][name]["value"] for r in records]))
                for side, records in sides.items()
            }
        out[workload] = entry
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="change checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--stage-us", type=Path, help="tools/stage_us.py output to fold in")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent, change = load_runs(args.parent, 0), load_runs(args.change, 0)
    workloads = summarise(parent, change, spec["end_to_end"])
    if not workloads:
        raise SystemExit("no workload has --trace 0 result files in both checkouts")
    layers = layer_medians(load_runs(args.parent, 1), load_runs(args.change, 1), spec["per_layer"])
    for workload, entry in layers.items():
        workloads.setdefault(workload, {})["per_layer"] = entry
    first = {side: next(iter(next(iter(runs.values())).values()))
             for side, runs in (("parent", parent), ("change", change))}
    provenance = {key: value for key, value in first["change"]["provenance"].items()
                  if key not in ("seed", "commit", "source_sha256")}
    provenance.update(numpy_dispatch=kernel_dispatch(), openblas_core=openblas_core())
    summary = {
        "seconds": first["change"]["seconds"],
        "trace": {"end_to_end": 0, "per_layer": 1},
        "source_sha256": {side: r["provenance"]["source_sha256"] for side, r in first.items()},
        "provenance": provenance,
        "calls_per_stage": {"parent": stage_call_counts(args.parent),
                            "change": stage_call_counts(args.change)},
        "workloads": workloads,
    }
    if args.stage_us is not None:
        summary["stage_us"] = json.loads(args.stage_us.read_text(encoding="utf-8"))
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
