"""Benchmark workloads, their seeded translations, and the per-solve output gate.

Every workload drives bvd1d only through its public calls, looked up as module
attributes at call time so that the tracer's wrappers (see tracing.py) see
them. A seed picks an integer-cell translation of the initial profile; the
profile's jump edges move with it. References are recorded per translation
(record_references.py), so the gate compares each solve against the numbers
this exact input produced when the references were recorded.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.jsonl")

L1_REL_TOL = 1e-12
TAG_REL_TOL = 1e-12
MASS_DRIFT_MAX = 1e-11  # acceptance criterion 7
MIN_ORDER = 4.5  # observed L1 order between the two finest ladder rungs

CFL = 0.2
SPEED = 1.0


@dataclass
class Solve:
    """One solver run inside a pass, with what the gate needs to check it."""

    label: str
    config: str  # scheme label, as in solver.step_us.<config>
    n_cells: int
    steps: int = 0
    seconds: float = 0.0  # the solve with its scoring and, where written, its CSV output
    wall_time: float = 0.0  # RunResult.wall_time: advect only
    l1: float = math.nan
    widths: list[int] = field(default_factory=list)
    mass_drift: float = math.nan
    csv_path: Path | None = None  # the written CSV, read back by the gate
    failures: list[str] = field(default_factory=list)


def figure_configs() -> list[tuple[int, str, object]]:
    """(figure number, label, SchemeConfig) for the six sweep configurations."""
    from bvd1d import experiments

    out = []
    for figure, scheme in experiments.FIGURE_SCHEMES.items():
        label = scheme.scheme if scheme.beta == 1.8 else f"{scheme.scheme}-b{scheme.beta:g}"
        out.append((figure, label, scheme))
    return out


def translate(profile, cells: int, n_coarse: int):
    """The profile moved right by `cells` cells of an n_coarse-cell grid."""
    if cells == 0:
        return profile
    length = profile.x_right - profile.x_left
    shift = cells * length / n_coarse

    def wrap(x):
        return np.mod(x - profile.x_left, length) + profile.x_left

    func = profile.func
    return dataclasses.replace(
        profile,
        func=lambda x: func(wrap(np.asarray(x, dtype=float) - shift)),
        jump_edges=tuple(float(wrap(edge + shift)) for edge in profile.jump_edges),
    )


def read_tags(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row["tag"] for row in csv.DictReader(fh)]


class _Translated:
    """Seed -> translation k, and the workload's profile moved by k coarse cells."""

    profile: str
    n_coarse: int

    def translation(self, seed: int) -> int:
        return random.Random(seed).randrange(self.n_coarse)

    def _profile(self, k: int):
        from bvd1d import experiments

        return translate(experiments.PROFILES[self.profile], k, self.n_coarse)


@dataclass(frozen=True)
class Sweep(_Translated):
    """The six figure configurations on complex_waves, as `bvd1d sweep` runs them."""

    name: str
    n_cells: int
    periods: float
    write_csv: bool
    profile: str = "complex_waves"
    n_coarse: int = 200  # translations are whole cells of the N = 200 grid

    def setup(self, k: int) -> None:
        """Project the initial condition and the exact reference the pass scores against."""
        from bvd1d import experiments, field

        profile = self._profile(k)
        grid = field.Grid1D(self.n_cells, profile.x_left, profile.x_right)
        field.project_initial(grid, profile.func)
        if self.periods != int(self.periods):
            t_end = self.periods * profile.period(SPEED)
            experiments.exact_advected(profile, grid, SPEED, t_end)

    def warm_up(self, k: int) -> None:
        """Every configuration for ten steps; no output, no gate."""
        from bvd1d import experiments

        profile = self._profile(k)
        for _, _, scheme in figure_configs():
            experiments.run_benchmark(
                scheme, profile, n_cells=self.n_cells, periods=2.0 / self.n_cells, cfl=CFL
            )

    def run_pass(self, k: int, scratch: Path) -> list[Solve]:
        from bvd1d import experiments, solver

        profile = self._profile(k)
        solves = []
        for figure, label, scheme in figure_configs():
            solve = Solve(label, label, self.n_cells)
            start = time.perf_counter()
            try:
                result = experiments.run_benchmark(
                    scheme, profile, n_cells=self.n_cells, periods=self.periods, cfl=CFL
                )
                if self.write_csv:
                    omega = experiments.selection_weights(result.final.averages, scheme)
                    solve.csv_path = experiments.write_run_csv(
                        scratch / f"figure{figure}.csv", result.final.grid, result, omega
                    )
                solve.seconds = time.perf_counter() - start
            except solver.BlowupError as exc:
                solve.failures.append(f"blowup: {exc}")
            else:
                solve.steps = result.n_steps
                solve.wall_time = result.wall_time
                solve.l1 = result.l1_error
                solve.widths = list(result.transition_widths)
                solve.mass_drift = result.mass_drift
            solves.append(solve)
        return solves


@dataclass(frozen=True)
class Ladder(_Translated):
    """`bvd1d convergence` rungs: dt = CFL * dx^(5/3), scored against exact averages."""

    name: str
    scheme: str
    profile: str
    ns: tuple[int, ...]
    t_end: float

    @property
    def n_coarse(self) -> int:
        return self.ns[0]

    def setup(self, k: int) -> None:
        from bvd1d import experiments, field

        profile = self._profile(k)
        for n in self.ns:
            grid = field.Grid1D(n, profile.x_left, profile.x_right)
            field.project_initial(grid, profile.func)
            experiments.exact_advected(profile, grid, SPEED, self.t_end)

    def warm_up(self, k: int) -> None:
        """Every rung over 2 % of t_end; no scoring, no gate."""
        from bvd1d import field, solver

        profile = self._profile(k)
        for n in self.ns:
            grid = field.Grid1D(n, profile.x_left, profile.x_right)
            initial = field.project_initial(grid, profile.func)
            time_config = solver.TimeConfig(t_end=0.02 * self.t_end, dt=self._dt(grid))
            solver.advect(initial, solver.FluxSpec(SPEED), time_config, solver.SchemeConfig(self.scheme))

    @staticmethod
    def _dt(grid) -> float:
        return CFL * grid.dx ** (5.0 / 3.0) / SPEED

    def run_pass(self, k: int, scratch: Path) -> list[Solve]:
        from bvd1d import experiments, field, solver

        profile = self._profile(k)
        scheme = solver.SchemeConfig(self.scheme)
        solves = []
        for n in self.ns:
            solve = Solve(f"n{n}", self.scheme, n)
            start = time.perf_counter()
            try:
                grid = field.Grid1D(n, profile.x_left, profile.x_right)
                initial = field.project_initial(grid, profile.func)
                time_config = solver.TimeConfig(t_end=self.t_end, dt=self._dt(grid))
                result = solver.advect(initial, solver.FluxSpec(SPEED), time_config, scheme)
                exact = experiments.exact_advected(profile, grid, SPEED, self.t_end)
                solve.l1 = experiments.l1_error(result.final, exact)
                solve.seconds = time.perf_counter() - start
            except solver.BlowupError as exc:
                solve.failures.append(f"blowup: {exc}")
            else:
                solve.steps = result.n_steps
                solve.wall_time = result.wall_time
                solve.mass_drift = result.mass_drift
            solves.append(solve)
        return solves


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep-n200", n_cells=200, periods=1.0, write_csv=True),
        Sweep("sweep-n2000", n_cells=2000, periods=0.02, write_csv=False),
        Ladder("smooth-ladder", scheme="bvd1", profile="sine", ns=(25, 50, 100), t_end=0.2),
    )
}


def encode_tags(tags: list[str]) -> str:
    """Run-length code of a CSV tag column: 'W*37 T*2 0.25*1 ...'."""
    runs: list[list] = []
    for tag in tags:
        if runs and runs[-1][0] == tag:
            runs[-1][1] += 1
        else:
            runs.append([tag, 1])
    return " ".join(f"{tag}*{count}" for tag, count in runs)


def decode_tags(code: str) -> list[str]:
    tags: list[str] = []
    for token in code.split():
        tag, _, count = token.rpartition("*")
        tags.extend([tag] * int(count))
    return tags


def reference_entry(solve: Solve) -> dict:
    entry = {"l1": solve.l1, "widths": solve.widths}
    if solve.csv_path is not None:
        entry["tags"] = encode_tags(read_tags(solve.csv_path))
    return entry


def load_references() -> dict:
    """{"meta": first line, "workloads": {name: {k: {label: entry}}}}."""
    with open(REFERENCES, encoding="utf-8") as fh:
        meta = json.loads(fh.readline())
        per_workload: dict = {}
        for line in fh:
            row = json.loads(line)
            per_workload.setdefault(row["workload"], {})[str(row["k"])] = row["solves"]
    return {"meta": meta, "workloads": per_workload}


def write_references(refs: dict) -> None:
    """One line of metadata, then one line per (workload, translation)."""
    lines = [json.dumps(refs["meta"], sort_keys=True)]
    for name, per_k in refs["workloads"].items():
        for k, solves in sorted(per_k.items(), key=lambda item: int(item[0])):
            lines.append(json.dumps({"workload": name, "k": int(k), "solves": solves}))
    REFERENCES.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tags_match(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g in ("W", "T") or w in ("W", "T"):
            if g != w:
                return False
        elif not math.isclose(float(g), float(w), rel_tol=TAG_REL_TOL, abs_tol=0.0):
            return False
    return True


def gate(workload, k: int, solves: list[Solve], references: dict) -> None:
    """Append a reason to solve.failures for every check a solve misses."""
    expected = references["workloads"][workload.name][str(k)]
    for solve in solves:
        if solve.failures:
            continue
        ref = expected[solve.label]
        if not math.isclose(solve.l1, ref["l1"], rel_tol=L1_REL_TOL, abs_tol=0.0):
            solve.failures.append(f"L1 {solve.l1!r} != reference {ref['l1']!r}")
        if solve.widths != ref["widths"]:
            solve.failures.append(f"widths {solve.widths} != reference {ref['widths']}")
        if not solve.mass_drift <= MASS_DRIFT_MAX:
            solve.failures.append(f"mass drift {solve.mass_drift:.3e} > {MASS_DRIFT_MAX:g}")
        if "tags" in ref and (
            solve.csv_path is None
            or not _tags_match(read_tags(solve.csv_path), decode_tags(ref["tags"]))
        ):
            solve.failures.append("CSV tag column differs from reference")
    if isinstance(workload, Ladder):
        by_n = {s.n_cells: s for s in solves}
        coarse, fine = by_n[workload.ns[-2]], by_n[workload.ns[-1]]
        if not (coarse.failures or fine.failures):
            order = math.log2(coarse.l1 / fine.l1)
            if not order >= MIN_ORDER:
                fine.failures.append(
                    f"observed order {order:.3f} between N = {coarse.n_cells} and "
                    f"N = {fine.n_cells} is below {MIN_ORDER}"
                )
