"""Per-layer spans, allocation peaks and step times, recorded from outside the solver.

Wrappers are installed on the names callers actually look up: the solver's
imported kernels, the entries of the shared bvd.SELECTORS dict, the kernels
bvd looks up for build_candidates and bvd3_select, and every public function
in the experiments namespace. A span is (name, start_ns, end_ns, parent
index); spans stay in memory and are written out when the run ends. A
layer's self time is its span minus its children. Counting outcomes costs
time too, so it is recorded as a `trace.count` child span of the caller,
which keeps it out of the caller's self time. StepClock is the one wrapper
the untraced run installs: it times each step for the end-to-end figures.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

SELECTOR_SPANS = tuple(f"bvd.bvd{i}_select" for i in (1, 2, 3, 4))
KERNEL_SPANS = (
    "reconstruct.weno_z_field",
    "reconstruct.thinc_field",
    "reconstruct.thinc_admissible_field",
)
ALLOC_SPANS = KERNEL_SPANS + ("bvd.build_candidates",) + SELECTOR_SPANS
STEP_LABELS = ("wenoz", "bvd1", "bvd2", "bvd3", "bvd4", "bvd4-b4")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _install_points() -> list[tuple[dict, str]]:
    """(namespace, key) of every name a caller looks up a layer's function by."""
    from bvd1d import bvd, experiments, field, solver

    points = [
        (vars(solver), name)
        for name in ("build_candidates", "bvd3_select", "weno_z_field", "riemann_flux", "advect")
    ]
    points += [(bvd.SELECTORS, name) for name in bvd.SELECTORS]
    points += [
        (vars(bvd), name)
        for name in ("weno_z_field", "thinc_field", "thinc_admissible_field", "assemble_interfaces")
    ]
    points += [
        (vars(experiments), name)
        for name, value in vars(experiments).items()
        if inspect.isfunction(value)
        and value.__module__.startswith("bvd1d.")
        and not name.startswith("_")
    ]
    points.append((vars(field), "project_initial"))
    return points


@contextlib.contextmanager
def installed(wrap, names: tuple[str, ...] | None = None):
    """Replace each install point by wrap(fn) (only spans in `names`, if given)."""
    saved = [
        (ns, key, ns[key])
        for ns, key in _install_points()
        if names is None or span_name(ns[key]) in names
    ]
    try:
        for ns, key, fn in saved:
            ns[key] = wrap(fn)
        yield
    finally:
        for ns, key, fn in saved:
            ns[key] = fn


def _count_admissible(counts: Counter, args, kwargs, mask) -> None:
    counts["admissible_cells"] += int(np.count_nonzero(mask))
    counts["admissibility_tests"] += mask.size


def _count_selection(counts: Counter, args, kwargs, result) -> None:
    candidates = args[0] if args else kwargs["candidates"]
    counts["thinc_selected"] += result.thinc_cells
    counts["selector_admissible"] += int(np.count_nonzero(candidates.admissible))
    counts["clamped_cells"] += result.n_clamped


COUNTERS = {"reconstruct.thinc_admissible_field": _count_admissible}
COUNTERS.update({name: _count_selection for name in SELECTOR_SPANS})


class SpanRecorder:
    """In-memory spans plus outcome counts for the current pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn):
        name = span_name(fn)
        count = COUNTERS.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, out)
                spans.append(("trace.count", end, clock(), parent))
            return out

        return traced

    def take(self) -> tuple[list, Counter]:
        """Hand over this pass's spans and counts and start empty."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


class StepClock:
    """The start of every RK stage, from a wrapper on solver.riemann_flux.

    advect calls riemann_flux once per stage, three times per step, so every
    third stamp marks the same point of successive steps. The wrapper costs
    well under a microsecond per stage, against 150 us or more for the stage.
    """

    def __init__(self) -> None:
        self.stamps: list[int] = []

    def wrap(self, fn):
        stamps, clock = self.stamps, time.perf_counter_ns

        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            stamps.append(clock())
            return fn(*args, **kwargs)

        return clocked

    def take(self, solves) -> list[np.ndarray] | None:
        """Per solve, its steps' durations in seconds (one fewer than its steps).

        None when the stamps do not split into the solves' steps, as after a
        failed solve. Starts empty either way.
        """
        stamps = np.array(self.stamps, dtype=np.int64)
        self.stamps.clear()
        if len(stamps) != 3 * sum(s.steps for s in solves):
            return None
        out, i = [], 0
        for solve in solves:
            out.append(np.diff(stamps[i : i + 3 * solve.steps : 3]) / 1e9)
            i += 3 * solve.steps
        return out


def layer_metrics(spans: list, counts: Counter, solves) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A layer that did not run reads 0."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    for (name, start, end, _), children in zip(spans, child_ns):
        total_ns[name] += end - start
        self_ns[name] += end - start - children
        calls[name] += 1

    def us(name: str, table=total_ns) -> float:
        return table[name] / calls[name] / 1e3 if calls[name] else 0.0

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    steps = sum(s.steps for s in solves)
    metrics = {f"{name}.us": us(name) for name in KERNEL_SPANS}
    metrics["bvd.build_candidates.self_us"] = us("bvd.build_candidates", self_ns)
    for i in (1, 2, 4):
        metrics[f"bvd.bvd{i}_select.us"] = us(f"bvd.bvd{i}_select")
    metrics["bvd.bvd3_select.self_us"] = us("bvd.bvd3_select", self_ns)
    metrics["bvd.assemble_interfaces.us"] = us("bvd.assemble_interfaces")
    metrics["reconstruct.admissible_frac"] = ratio("admissible_cells", "admissibility_tests")
    metrics["bvd.thinc_selected_frac"] = ratio("thinc_selected", "selector_admissible")
    metrics["bvd.clamped_cells"] = float(counts["clamped_cells"])
    metrics["solver.advect.self_us_per_step"] = self_ns["solver.advect"] / 1e3 / steps if steps else 0.0
    metrics["solver.riemann_flux.us"] = us("solver.riemann_flux")
    metrics["solver.steps"] = float(steps)

    for label in STEP_LABELS:
        runs = [s for s in solves if s.config == label]
        steps_of = sum(s.steps for s in runs)
        metrics[f"solver.step_us.{label}"] = (
            sum(s.wall_time for s in runs) * 1e6 / steps_of if steps_of else 0.0
        )

    for name in ("experiments.selection_weights", "experiments.write_run_csv",
                 "experiments.exact_advected", "field.project_initial"):
        metrics[f"{name}.us"] = us(name)
    return metrics


def write_spans(path: Path, passes: list[list]) -> None:
    """All traced passes' spans as gzip CSV: pass, index, name, start_ns, end_ns, parent."""
    with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("pass", "index", "name", "start_ns", "end_ns", "parent"))
        for number, spans in enumerate(passes):
            for index, (name, start, end, parent) in enumerate(spans):
                writer.writerow((number, index, name, start, end, parent))


class AllocationPeaks:
    """Peak bytes allocated inside each wrapped call, outputs included.

    Call under tracemalloc. tracemalloc keeps one peak per process, so each
    call folds the peak reached so far into its caller's frame before it
    resets the peak, and resets it again on return; nested calls then do not
    hide each other's peaks.
    """

    def __init__(self) -> None:
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._frames: list[list[int]] = []  # [bytes at entry, peak bytes]

    def wrap(self, fn):
        name = span_name(fn)
        frames, peaks = self._frames, self.peak_bytes

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if frames:
                frames[-1][1] = max(frames[-1][1], peak)
            frame = [current, current]
            frames.append(frame)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                frames.pop()
                peaks[name] = max(peaks[name], frame[1] - frame[0])
                if frames:
                    frames[-1][1] = max(frames[-1][1], frame[1])
                tracemalloc.reset_peak()

        return measured

    def metrics(self) -> dict[str, float]:
        return {f"{name}.peak_temp_kb": self.peak_bytes[name] / 1024 for name in ALLOC_SPANS}
