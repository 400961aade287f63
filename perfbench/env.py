"""Process set-up shared by the benchmark scripts: thread pinning, the import
of bvd1d from this checkout, the output directory and provenance.

Nothing here imports numpy, so pin_threads() can run before it is loaded.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Keep BLAS/OpenMP pools at one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_src() -> None:
    """Make `import bvd1d` load this checkout's sources and nothing else.

    Exits with status 2 when the sources are missing, so a directory holding
    only the benchmark fails instead of measuring some other installed copy.
    """
    init = SRC / "bvd1d" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"perfbench: no bvd1d sources at {init.parent}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import bvd1d

    if Path(bvd1d.__file__).resolve() != init.resolve():
        sys.stderr.write(f"perfbench: bvd1d imported from {bvd1d.__file__}, not {init}\n")
        raise SystemExit(2)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the bvd1d sources, which identifies the code when there is no .git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bvd1d").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int | None = None) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }
