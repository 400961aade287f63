"""The bvd1d benchmark: one workload, seeded, measured for a fixed time, gated.

    python3 perfbench/run.py --workload sweep-n200 --seed 1 --seconds 30 --trace 0

One process, one thread per BLAS/OpenMP pool. The run imports bvd1d from this
checkout's src/, warms the solver up, then repeats full workload passes while
another one fits in --seconds (always at least one). Every solve of every pass
goes through the output gate in workloads.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. It also times the
set-up (a fresh import of bvd1d plus the workload's initial conditions and
exact references) several times before the first pass and between passes.
--trace 1 alternates untraced and traced passes (tracing.py wrappers) for the
per-layer metrics and the tracing overhead, then measures the allocation peaks
of the kernels and selectors under tracemalloc on the short warm-up pass.
Human-readable lines come first; the last line of standard output is
the JSON result. Details, provenance and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import env

env.pin_threads()

import numpy as np  # noqa: E402  (numpy may load only after pin_threads)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_FIRST = 20  # set-ups before the first pass
SETUP_SHARE = 0.03  # later set-ups, between passes, keep all set-ups at this share of the run
ALLOC_REPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> dict[str, dict]:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count (quartiles equal the value for n = 1)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def timed_setup(workload, k: int, reps: int) -> list[float]:
    """Seconds per set-up: a fresh `import bvd1d` plus the workload's projections."""
    times = []
    for _ in range(reps):
        for name in [m for m in sys.modules if m == "bvd1d" or m.startswith("bvd1d.")]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        importlib.import_module("bvd1d")
        workload.setup(k)
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Runs and gates passes of one workload translation and tallies the solves."""

    def __init__(self, workload, k: int, references: dict, scratch: Path) -> None:
        self.workload, self.k, self.references, self.scratch = workload, k, references, scratch
        self.attempted = 0
        self.failures: list[str] = []

    def run(self):
        """One gated pass: (wall seconds, solves)."""
        gc.collect()
        start = time.perf_counter()
        solves = self.workload.run_pass(self.k, self.scratch)
        wall = time.perf_counter() - start
        workloads.gate(self.workload, self.k, solves, self.references)
        self.attempted += len(solves)
        self.failures += [f"{s.label}: {'; '.join(s.failures)}" for s in solves if s.failures]
        return wall, solves

    @property
    def failed(self) -> int:
        return len(self.failures)


def fits(pass_walls: list[float], start: float, seconds: float) -> bool:
    """Whether another pass, as long as the median so far, ends within the budget."""
    if not pass_walls:
        return True
    return time.perf_counter() - start + statistics.median(pass_walls) <= seconds


def fast(values) -> float:
    """The 1st percentile, interpolated between the samples."""
    return float(np.percentile(values, 1))


def untraced_run(runner: Runner, seconds: float) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Set-ups, then passes while they fit, with more set-ups between them.

    Returns the metric values and, for the record, the per-pass samples.
    On a shared host the same code runs at speeds up to about 1.7x apart, in
    phases from a fraction of a second to minutes, so any mean or median over
    a run follows the share of slow phases the run happened to get. Short
    samples still catch the fast level now and then, and a low percentile of
    them repeats from run to run. So each timing is built from the 1st
    percentile of short samples: the steps of each configuration (timed by
    tracing.StepClock), the rest of each configuration's pass (project_initial,
    the last step, scoring and output), and the set-ups.
    """
    workload, k = runner.workload, runner.k
    clock = tracing.StepClock()
    setups = timed_setup(workload, k, SETUP_FIRST)
    pass_walls: list[float] = []
    pass_rates: list[float] = []
    step_s: dict[str, list[np.ndarray]] = defaultdict(list)  # arrays: the bookkeeping stays small
    rest_s: dict[str, list[float]] = defaultdict(list)
    shape: dict[str, tuple[int, int]] = {}  # label -> (cells, steps)
    start = time.perf_counter()
    while fits(pass_walls, start, seconds):
        while sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
            setups += timed_setup(workload, k, 1)
        with tracing.installed(clock.wrap, ("solver.riemann_flux",)):
            wall, solves = runner.run()
        pass_walls.append(wall)
        advect = sum(s.wall_time for s in solves)
        pass_rates.append(sum(s.n_cells * s.steps for s in solves) / advect if advect else 0.0)
        steps = clock.take(solves)
        if steps is None or any(s.failures for s in solves):
            continue
        for solve, durations in zip(solves, steps):
            step_s[solve.label].append(durations)
            rest_s[solve.label].append(solve.seconds - durations.sum())
            shape[solve.label] = (solve.n_cells, solve.steps)
    step = {label: fast(np.concatenate(v)) for label, v in step_s.items()}
    advect = sum(n_steps * step[label] for label, (_, n_steps) in shape.items())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "wall_s": sum((n_steps - 1) * step[label] + fast(rest_s[label])
                      for label, (_, n_steps) in shape.items()),
        "cell_updates_per_s": sum(n * n_steps for n, n_steps in shape.values()) / advect if advect else 0.0,
        "setup_s": fast(setups),
        "peak_rss_mb": rss,
    }
    samples = {"wall_s": pass_walls, "cell_updates_per_s": pass_rates, "setup_s": setups, "peak_rss_mb": [rss]}
    return values, samples


def allocation_peaks(workload, k: int) -> dict[str, float]:
    """Per-call allocation peaks over the short warm-up pass, least of ALLOC_REPS.

    A peak also counts the odd small block that numpy's dimension cache or a
    Python free list happens to need, which depends on what ran before; the
    least of a few repetitions does not, so it repeats exactly.
    """
    least: dict[str, float] = {}
    for _ in range(ALLOC_REPS):
        peaks = tracing.AllocationPeaks()
        tracemalloc.start()
        try:
            with tracing.installed(peaks.wrap, tracing.ALLOC_SPANS):
                workload.warm_up(k)
        finally:
            tracemalloc.stop()
        for name, value in peaks.metrics().items():
            least[name] = min(value, least.get(name, value))
    return least


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> dict[str, list[float]]:
    """Untraced and traced passes in turn, then the allocation peaks.

    Returns per-pass samples of each per-layer metric; its value is their median.
    """
    recorder = tracing.SpanRecorder()
    samples: dict[str, list[float]] = {}
    untraced_walls, traced_walls, all_spans = [], [], []
    start = time.perf_counter()
    while fits([u + t for u, t in zip(untraced_walls, traced_walls)], start, seconds):
        untraced_walls.append(runner.run()[0])
        with tracing.installed(recorder.wrap):
            wall, solves = runner.run()
        traced_walls.append(wall)
        spans, counts = recorder.take()
        all_spans.append(spans)
        for name, value in tracing.layer_metrics(spans, counts, solves).items():
            samples.setdefault(name, []).append(value)
    samples["trace.overhead_frac"] = [
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    ]

    for name, value in allocation_peaks(runner.workload, runner.k).items():
        samples[name] = [value]

    tracing.write_spans(spans_path, all_spans)
    return samples


def main(argv: list[str] | None = None) -> dict:
    args = parse_args(argv)
    env.use_checkout_src()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    declared = declared_metrics()
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    k = workload.translation(args.seed)
    references = workloads.load_references()

    env.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=env.OUT) as scratch:
        workload.warm_up(k)
        runner = Runner(workload, k, references, Path(scratch))
        if args.trace:
            samples = traced_run(runner, args.seconds, env.OUT / f"spans-{stem}.csv.gz")
            values = {name: statistics.median(v) for name, v in samples.items()}
        else:
            values, samples = untraced_run(runner, args.seconds)

    if set(values) != set(wanted):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}")
    summaries = {name: summary(v) for name, v in samples.items()}
    record = {
        "workload": args.workload,
        "translation_cells": k,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": env.provenance(args.seed),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.failures,
        "metrics": {
            name: {"value": values[name], "unit": wanted[name]["unit"], "samples": summaries[name]}
            for name in wanted
        },
    }
    (env.OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  translation {k} cells  "
          f"commit {record['provenance']['commit']}")
    if args.workload == "sweep-n200":
        for note in references["meta"].get("readme_mismatch", []):
            print(f"note: README quotes L1 {note['readme']:.2e} for {note['config']}; "
                  f"this code gives {note['recorded']:.4e} (untranslated)")
    for line in runner.failures[:20]:
        print(f"FAIL {line}")
    print(f"solves {runner.attempted}  failed {runner.failed}  failed_frac {record['failed_frac']:.4g}")
    for name in wanted:
        s = summaries[name]
        print(f"{name:<48} {values[name]:>14.6g} {wanted[name]['unit']:<8} samples: median "
              f"{s['median']:.6g} IQR [{s['q1']:.6g}, {s['q3']:.6g}]  n={s['n']}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": wanted[name]["unit"]} for name in wanted},
    }


if __name__ == "__main__":
    print(json.dumps(main()))
