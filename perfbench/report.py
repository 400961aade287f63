"""µs/step table and selector scaling from the traced sweep results.

    python3 perfbench/run.py --workload sweep-n200 --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --workload sweep-n2000 --seed 0 --seconds 30 --trace 1
    python3 perfbench/report.py

Reads the newest perfbench/out/result-sweep-n200-*-trace1.json and
result-sweep-n2000-*-trace1.json and prints, side by side for N = 200 and
N = 2000, the µs per time step of each configuration, the µs per call of each
kernel and selector, and each selector's N = 2000 / N = 200 ratio.
"""

from __future__ import annotations

import json
import sys

import env

STEP_ROWS = ("wenoz", "bvd1", "bvd2", "bvd3", "bvd4", "bvd4-b4")
CALL_ROWS = (
    ("weno_z_field", "reconstruct.weno_z_field.us"),
    ("thinc_field", "reconstruct.thinc_field.us"),
    ("thinc_admissible_field", "reconstruct.thinc_admissible_field.us"),
    ("build_candidates (self)", "bvd.build_candidates.self_us"),
    ("bvd1_select", "bvd.bvd1_select.us"),
    ("bvd2_select", "bvd.bvd2_select.us"),
    ("bvd3_select (self)", "bvd.bvd3_select.self_us"),
    ("bvd3_select (total)", ("bvd.bvd3_select.self_us", "bvd.assemble_interfaces.us")),
    ("bvd4_select", "bvd.bvd4_select.us"),
    ("riemann_flux", "solver.riemann_flux.us"),
)


def newest(workload: str) -> dict:
    found = sorted(env.OUT.glob(f"result-{workload}-seed*-trace1.json"), key=lambda p: p.stat().st_mtime)
    if not found:
        sys.exit(f"no traced result for {workload} in {env.OUT}; run it with --trace 1 first")
    return json.loads(found[-1].read_text(encoding="utf-8"))


def value(result: dict, key) -> float:
    keys = (key,) if isinstance(key, str) else key
    return sum(result["metrics"][k]["value"] for k in keys)


def main() -> None:
    small, large = newest("sweep-n200"), newest("sweep-n2000")
    for result in (small, large):
        p = result["provenance"]
        print(f"{result['workload']}: seed {p['seed']}, commit {p['commit']}, python {p['python']}, "
              f"numpy {p['numpy']}, {p['cpu']}, nproc {p['nproc']}")
    print()
    print(f"| {'scheme':<10} | µs/step N=200 | µs/step N=2000 | ratio |")
    print("|---|---|---|---|")
    for label in STEP_ROWS:
        a, b = value(small, f"solver.step_us.{label}"), value(large, f"solver.step_us.{label}")
        print(f"| {label:<10} | {a:13.0f} | {b:14.0f} | {b / a:5.2f} |")
    print()
    print(f"| {'per call':<24} | µs N=200 | µs N=2000 | ratio |")
    print("|---|---|---|---|")
    for label, key in CALL_ROWS:
        a, b = value(small, key), value(large, key)
        print(f"| {label:<24} | {a:8.1f} | {b:9.1f} | {b / a:5.2f} |")


if __name__ == "__main__":
    main()
