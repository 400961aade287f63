"""Time one RK stage of each scheme in a parent and a change checkout, in alternating process pairs.

Usage (from the repository root):

    python tools/stage_us.py PARENT_DIR CHANGE_DIR --out stage_us.json   # about 2 min on a 2-core Xeon

Each process imports bvd1d from one checkout's src/ and times bvd1d.advect
on the complex-wave profile at CFL 0.2 over a fixed number of steps per N
(STEPS), for every scheme: wall time / (3 * steps) is the time of one RK
stage. A process visits the (scheme, N) cells round-robin ROUNDS times and
keeps each cell's minimum, so a slow phase of the host costs one sample of
every cell, not all samples of one. A pair is one parent process and one
change process, run back to back; the side that runs first alternates from
pair to pair; PAIRS pairs run. The output records, per scheme and N, both
sides' quartiles over the pairs and in how many pairs the change was faster
(tools/bench_summary.py's `paired`).
tools/bench_summary.py --stage-us folds this file into BENCH_<n>.json.
Nothing in bvd1d imports this script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_summary import paired

STEPS = {50: 30, 200: 20, 2000: 6}
PAIRS = 10
ROUNDS = 60
SCHEMES = ("wenoz", "bvd1", "bvd2", "bvd3", "bvd4")
CHILD = """
import json, sys, time
import bvd1d

steps, schemes, rounds = json.loads(sys.argv[1])
profile, flux = bvd1d.PROFILES["complex_waves"], bvd1d.FluxSpec()
cells = []
for n, k in steps.items():
    grid = bvd1d.Grid1D(int(n), profile.x_left, profile.x_right)
    window = bvd1d.TimeConfig(t_end=k * 0.2 * grid.dx, cfl=0.2)
    initial = bvd1d.project_initial(grid, profile.func)
    cells += [(scheme, n, initial, window, bvd1d.SchemeConfig(scheme)) for scheme in schemes]
best = {}
for _ in range(rounds):
    for scheme, n, initial, window, config in cells:
        start = time.perf_counter()
        result = bvd1d.advect(initial, flux, window, config)
        us = (time.perf_counter() - start) / (3 * result.n_steps) * 1e6
        cell = best.setdefault(scheme, {})
        cell[n] = min(us, cell.get(n, float("inf")))
print(json.dumps(best))
"""


def run_side(checkout: Path) -> dict[str, dict[str, float]]:
    """{scheme: {N: minimum stage us}} of one process on the checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    arg = json.dumps([STEPS, SCHEMES, ROUNDS])
    proc = subprocess.run([sys.executable, "-c", CHILD, arg], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def summarise(pairs: list[tuple[dict, dict]]) -> dict:
    schemes = {}
    for scheme in SCHEMES:
        for n in map(str, STEPS):
            before = [p[scheme][n] for p, _ in pairs]
            after = [c[scheme][n] for _, c in pairs]
            schemes.setdefault(scheme, {})[n] = paired(before, after)
    steps = "/".join(map(str, STEPS.values()))
    sizes = "/".join(map(str, STEPS))
    return {
        "method": (f"bvd1d.advect on complex_waves, CFL 0.2, {steps} steps at N = {sizes}, "
                   f"wall / (3 * steps) in us; each process visits the {len(SCHEMES) * len(STEPS)} "
                   f"(scheme, N) cells round-robin {ROUNDS} times and keeps each cell's minimum; "
                   f"{len(pairs)} process pairs, alternating which side runs first; "
                   "quartiles over the pairs"),
        "schemes": schemes,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="change checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    pairs = []
    for index in range(PAIRS):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        sides = {side: run_side(getattr(args, side)) for side in order}
        pairs.append((sides["parent"], sides["change"]))
        print(f"pair {index + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    summary = summarise(pairs)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
