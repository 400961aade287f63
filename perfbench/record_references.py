"""Record the output gate's references from the current sources.

Runs one pass of every translation of every workload and writes the L1
error, transition widths and CSV tag column of each solve to
references.jsonl. The numbers are what this commit computes; rerun only when
a change is meant to alter them, and say so in the change.

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import env

env.pin_threads()
env.use_checkout_src()

import workloads  # noqa: E402  (needs the checkout on sys.path)

# L1 errors quoted in the README's results table (N = 200, one period).
README_L1 = {
    "wenoz": 4.50e-02,
    "bvd1": 2.51e-02,
    "bvd2": 2.74e-02,
    "bvd3": 5.41e-02,
    "bvd4": 2.77e-02,
    "bvd4-b4": 2.19e-02,
}


def readme_mismatches(sweep: dict) -> list[dict]:
    """Configurations whose untranslated L1 does not round to the README's figure."""
    out = []
    for label, quoted in README_L1.items():
        got = sweep["0"][label]["l1"]
        if f"{got:.2e}" != f"{quoted:.2e}":
            out.append({"config": label, "readme": quoted, "recorded": got})
    return out


def record(workload) -> dict:
    per_translation = {}
    env.OUT.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    for k in range(workload.n_coarse):
        with tempfile.TemporaryDirectory(dir=env.OUT) as scratch:
            solves = workload.run_pass(k, Path(scratch))
            failed = [(s.label, s.failures) for s in solves if s.failures]
            if failed:
                raise SystemExit(f"{workload.name} translation {k}: {failed}")
            per_translation[str(k)] = {s.label: workloads.reference_entry(s) for s in solves}
        print(f"{workload.name} k={k} ({time.perf_counter() - started:.0f} s)", flush=True)
    return per_translation


def main() -> None:
    refs = {"workloads": {name: record(w) for name, w in workloads.WORKLOADS.items()}}
    refs["meta"] = {
        "recorded_with": env.provenance(),
        "readme_l1": README_L1,
        "readme_mismatch": readme_mismatches(refs["workloads"]["sweep-n200"]),
    }
    workloads.write_references(refs)
    print(f"wrote {workloads.REFERENCES}")


if __name__ == "__main__":
    main()
