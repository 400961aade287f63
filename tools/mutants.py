"""Run tier-1 against each of a fixed list of hand-written mutants of src/bvd1d/.

Usage (from the repository root):

    python tools/mutants.py      # about 10 min on a 2-core Xeon

Each mutant is one (file, old, new) edit: a comparison boundary, a constant,
a wrong operand, swapped operands or a dropped term. The script copies the
files the suite reads (src/, tests/, tools/, perfbench/ without its out/,
README.md and pyproject.toml) into a temporary directory, runs tier-1 there
once unmutated, and then once per mutant with that single edit applied,
with `-x`, the two known reds deselected and tests/test_mutants.py left out. A
mutant is killed when the run fails and survived when it passes. Each
survivor should get a test that kills it or a written argument that it is
equivalent. tests/test_mutants.py checks that every `old` still occurs
exactly once in its file, so the list fails loudly when the code moves.
Nothing in bvd1d imports this script, and tier-1 does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "README.md", "pyproject.toml")
KNOWN_RED = (
    "tests/test_acceptance.py::test_criterion_1_wenoz_smearing",
    "tests/test_field.py::TestProjectInitial::test_constant_profile_exact",
)

BVD, RECONSTRUCT = "src/bvd1d/bvd.py", "src/bvd1d/reconstruct.py"
SOLVER, EXPERIMENTS = "src/bvd1d/solver.py", "src/bvd1d/experiments.py"
MUTANTS = (
    (BVD, "take = magnitude_k < magnitude", "take = magnitude_k <= magnitude"),
    (BVD, "signed_right * signed_left < _ZERO", "signed_right * signed_left <= _ZERO"),
    (BVD, "_discrete_result(m_thinc < m_weno,", "_discrete_result(m_thinc <= m_weno,"),
    (BVD, "(tbv_thinc < tbv_weno)", "(tbv_thinc <= tbv_weno)"),
    (BVD, "blend = smoothness < s_cutoff", "blend = smoothness <= s_cutoff"),
    (BVD, "/ np.maximum(tbv_weno, BVD3_EPS)", "/ (tbv_weno + BVD3_EPS)"),
    (BVD, "blend & ((raw < _ZERO) | (raw > _ONE))", "blend & (raw < _ZERO)"),
    (BVD, "degenerate = denom < BVD3_EPS", "degenerate = denom <= BVD3_EPS"),
    (BVD, "m_weno = np.minimum(ww, tw)[prv]", "m_weno = np.minimum(ww, wt)[prv]"),
    (BVD, "tbv_weno = np.abs(ww, out=ww)[prv] + ww", "tbv_weno = np.abs(ww, out=ww)"),
    (BVD, "wl, tl = candidates.weno_left[nxt],", "wl, tl = candidates.weno_left,"),
    (BVD, "ww = candidates.weno_right - candidates.weno_left[nxt]",
     "ww = candidates.weno_right - candidates.weno_left"),
    (RECONSTRUCT, "_THINC_EXP_CAP = 25.0", "_THINC_EXP_CAP = 20.0"),
    (RECONSTRUCT, "np.where(denom > _ZERO, denom, scaled)", "np.where(denom >= _ZERO, denom, scaled)"),
    (RECONSTRUCT, "admissible &= rise > _ZERO", "admissible &= rise >= _ZERO"),
    (RECONSTRUCT, "    b1 += curv[1 : 1 + m]\n", ""),
    (RECONSTRUCT, "    right += tb\n", ""),
    (RECONSTRUCT, "np.subtract(qm2, four[1 : 1 + m], out=b0)",
     "np.subtract(four[1 : 1 + m], qm2, out=b0)"),
    (RECONSTRUCT, "np.subtract(two[:m], v0, out=v0)", "np.subtract(v0, two[:m], out=v0)"),
    (RECONSTRUCT, "position = values - qmin", "position = qmin - values"),
    (RECONSTRUCT, "theta = qp - qm", "theta = qm - qp"),
    (RECONSTRUCT, "a = scaled - _ONE", "a = _ONE - scaled"),
    (RECONSTRUCT, "rise = qp - values", "rise = values - qp"),
    (RECONSTRUCT, "qm, qp = values[shift_index(n, -1)]", "qm, qp = values[shift_index(n, 1)]"),
    (BVD, "averages - averages[prv]", "averages - averages[nxt]"),
    (EXPERIMENTS, "np.where(values <= 0.1, -1, np.where(values >= 0.9, 1, 0))",
     "np.where(values < 0.1, -1, np.where(values > 0.9, 1, 0))"),
    (SOLVER, "time.t_end / dt - 1e-12", "time.t_end / dt - 1e-9"),
    (SOLVER, "max(abs(mass0), float(np.abs(initial.averages).sum() * grid.dx), 1e-300)",
     "max(abs(mass0), 1e-300)"),
)


def run_tier1(copy: Path) -> tuple[bool, str]:
    """(passed, first failing test or '') of tier-1 with -x in the copy.

    No bytecode is written: a mutant of the same size, written and restored
    within one second, would otherwise be served from a stale cache.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
    # test_mutants.py fails on every mutant by design: its `old` is gone.
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests",
               "--ignore", "tests/test_mutants.py"]
    command += [arg for test in KNOWN_RED for arg in ("--deselect", test)]
    proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, failed[0] if failed else ""


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="bvd1d-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns(
                    "out", "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, copy / name)
        passed, first = run_tier1(copy)
        if not passed:
            raise SystemExit(f"the unmutated copy fails tier-1: {first}")

        survivors = 0
        for index, (path, old, new) in enumerate(MUTANTS):
            target = copy / path
            original = target.read_text(encoding="utf-8")
            if original.count(old) != 1:
                raise SystemExit(f"mutant {index}: {old!r} does not occur exactly once in {path}")
            target.write_text(original.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                passed, first = run_tier1(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            survivors += passed
            verdict = "SURVIVED" if passed else f"killed by {first.split(' - ')[0]}"
            print(f"{index:2d} {path}: {old!r} -> {new!r}\n   {verdict} "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed, {survivors} survived")


if __name__ == "__main__":
    main()
