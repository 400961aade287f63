"""Self-test of the benchmark: the gate fires, and every metric is emitted.

    python3 perfbench/selftest.py

1. Gate. One pass of every workload at seed 0 passes the gate. Then each
   perturbation below, of one reference entry or one solve, must make the
   gate count exactly that solve as failed: L1 off by 10x its tolerance, a
   transition width off by one, one CSV tag flipped, one blend weight off by
   10x its tolerance, a mass drift above 1e-11, and (smooth-ladder) an
   observed order below 4.5.
2. Metrics. run.py at the shortest length (--seconds 1) on every workload,
   with --trace 0 and --trace 1, emits exactly the metrics BENCHMARK.json
   declares. Every timing and allocation metric is positive on the workloads
   where its layer runs (RUNS_ON) and zero elsewhere.

Exits 1 after listing every broken expectation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys
import tempfile
from pathlib import Path

import env

env.pin_threads()
env.use_checkout_src()

import run  # noqa: E402  (needs the checkout on sys.path)
import workloads  # noqa: E402

ALL = frozenset(workloads.WORKLOADS)
SWEEPS = frozenset({"sweep-n200", "sweep-n2000"})
TIMED_UNITS = {"us", "us/step", "KiB"}

# Workloads on which each timed per-layer metric's layer runs.
RUNS_ON = {
    "reconstruct.weno_z_field.us": ALL,
    "reconstruct.thinc_field.us": ALL,
    "reconstruct.thinc_admissible_field.us": ALL,
    "bvd.build_candidates.self_us": ALL,
    "bvd.bvd1_select.us": ALL,
    "bvd.bvd2_select.us": SWEEPS,
    "bvd.bvd4_select.us": SWEEPS,
    "bvd.bvd3_select.self_us": SWEEPS,
    "bvd.assemble_interfaces.us": SWEEPS,
    "solver.advect.self_us_per_step": ALL,
    "solver.riemann_flux.us": ALL,
    "solver.step_us.wenoz": SWEEPS,
    "solver.step_us.bvd1": ALL,
    "solver.step_us.bvd2": SWEEPS,
    "solver.step_us.bvd3": SWEEPS,
    "solver.step_us.bvd4": SWEEPS,
    "solver.step_us.bvd4-b4": SWEEPS,
    "experiments.selection_weights.us": {"sweep-n200"},
    "experiments.write_run_csv.us": {"sweep-n200"},
    "experiments.exact_advected.us": {"sweep-n2000", "smooth-ladder"},
    "field.project_initial.us": ALL,
    "reconstruct.weno_z_field.peak_temp_kb": ALL,
    "reconstruct.thinc_field.peak_temp_kb": ALL,
    "reconstruct.thinc_admissible_field.peak_temp_kb": ALL,
    "bvd.build_candidates.peak_temp_kb": ALL,
    "bvd.bvd1_select.peak_temp_kb": ALL,
    "bvd.bvd2_select.peak_temp_kb": SWEEPS,
    "bvd.bvd3_select.peak_temp_kb": SWEEPS,
    "bvd.bvd4_select.peak_temp_kb": SWEEPS,
}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        problems.append(message)


def flip_first_tag(entry: dict) -> None:
    tags = workloads.decode_tags(entry["tags"])
    tags[0] = "T" if tags[0] == "W" else "W"
    entry["tags"] = workloads.encode_tags(tags)


def nudge_first_weight(entry: dict) -> None:
    tags = workloads.decode_tags(entry["tags"])
    i = next(i for i, tag in enumerate(tags) if tag not in ("W", "T"))
    tags[i] = repr(float(tags[i]) * (1 + 10 * workloads.TAG_REL_TOL))
    entry["tags"] = workloads.encode_tags(tags)


def scale_l1(entry: dict) -> None:
    entry["l1"] *= 1 + 10 * workloads.L1_REL_TOL


def widen(entry: dict) -> None:
    entry["widths"][0] += 1


def check_gate(workload) -> None:
    k = workload.translation(0)
    references = workloads.load_references()
    env.OUT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.TemporaryDirectory(dir=env.OUT)  # the gate reads the CSVs back
    solves = workload.run_pass(k, Path(scratch.name))

    def gated(refs, edit_solves=None) -> list[str]:
        copies = copy.deepcopy(solves)
        if edit_solves:
            edit_solves(copies)
        workloads.gate(workload, k, copies, refs)
        return [s.label for s in copies if s.failures]

    expect(gated(references) == [], f"{workload.name}: unperturbed pass passes the gate")

    cases = [("l1", solves[0].label, scale_l1)]
    if isinstance(workload, workloads.Sweep):
        cases.append(("widths", solves[1].label, widen))
    if any(s.csv_path for s in solves):
        cases.append(("tag", solves[2].label, flip_first_tag))
        cases.append(("blend weight", "bvd3", nudge_first_weight))
    for what, label, edit in cases:
        refs = copy.deepcopy(references)
        edit(refs["workloads"][workload.name][str(k)][label])
        failed = gated(refs)
        expect(failed == [label], f"{workload.name}: perturbed {what} of {label} fails {failed}")

    def drift(copies):
        copies[-1].mass_drift = 10 * workloads.MASS_DRIFT_MAX

    failed = gated(references, drift)
    expect(failed == [solves[-1].label], f"{workload.name}: mass drift above bound fails {failed}")

    if isinstance(workload, workloads.Ladder):
        # Double the finest rung's error in the solve and its reference alike, so
        # only the observed order (5 -> 4) can fail.
        fine = solves[-1].label
        refs = copy.deepcopy(references)
        refs["workloads"][workload.name][str(k)][fine]["l1"] *= 2

        def coarsen(copies):
            copies[-1].l1 *= 2

        failed = gated(refs, coarsen)
        expect(failed == [fine], f"{workload.name}: observed order below {workloads.MIN_ORDER} fails {failed}")
    scratch.cleanup()


def check_metrics(name: str, trace: int) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.main(["--workload", name, "--seed", "0", "--seconds", "1", "--trace", str(trace)])
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(set(metrics) == set(declared), f"{name} trace {trace}: emits exactly the declared metrics")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{name} trace {trace}: {result['attempted']} solves, {result['failed']} failed")
    for metric, spec in declared.items():
        value = metrics[metric]["value"]
        unit_ok = metrics[metric]["unit"] == spec["unit"]
        if not trace:
            expect(value > 0 and unit_ok, f"{name}: {metric} = {value:.6g} {spec['unit']}")
        elif spec["unit"] in TIMED_UNITS:
            runs = name in RUNS_ON[metric]
            ok = (value > 0) == runs and unit_ok
            expect(ok, f"{name}: {metric} = {value:.6g} ({'runs' if runs else 'does not run'})")
        else:
            expect(unit_ok, f"{name}: {metric} = {value:.6g} {spec['unit']}")


def main() -> None:
    for workload in workloads.WORKLOADS.values():
        check_gate(workload)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_metrics(name, trace)
    if problems:
        print(f"{len(problems)} broken expectation(s)")
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
