"""Shared pieces of the benchmark: paths, statistics, environment stamp."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes goes under this directory.
OUT = ROOT / ".perfbench"
#: Timings of the reference workload per result stamp.
REFERENCE_REPEATS = 5


def declared_metrics(trace: bool) -> Dict[str, str]:
    """``{name: unit}`` that ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def workload_names() -> List[str]:
    """The workloads ``BENCHMARK.json`` declares, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if len(values) == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0-100), linear interpolation; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def chunked_percentile(values: Sequence[float], q: float, chunks: int) -> float:
    """Median over ``chunks`` contiguous parts of each part's percentile.

    ``values`` are in the order they were measured.  A burst of noise
    from outside the program (another process taking the CPU) lands in
    one part and moves only that part's percentile, so the median over
    parts repeats from run to run where a pooled tail percentile does
    not.
    """
    parts = np.array_split(np.asarray(values, dtype=np.float64), chunks)
    return median([percentile(part, q) for part in parts if part.size])


def metric(value: float, unit: str, n: int, definition: str) -> Dict[str, Any]:
    """One reported figure with its unit and sample count."""
    return {"value": float(value), "unit": unit, "n": int(n),
            "definition": definition}


def _blas_threads() -> Any:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> Any:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over every file under src/repro (paths and contents).

    Identifies the code under test when the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_ms() -> float:
    """Median milliseconds of a fixed numpy + pure-Python workload.

    Not a metric: it tells a reader how fast the machine ran while a
    result was taken, which on a shared machine drifts between runs.
    """
    a = np.random.default_rng(0).normal(size=(192, 192))
    times = []
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        for _ in range(10):
            a = np.tanh(a @ a.T / 192.0)
        sum(i * i for i in range(100_000))
        times.append((time.perf_counter() - started) * 1e3)
    return median(times)


def environment(seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    """The stamp every result carries: code, toolchain, machine, inputs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "reference_ms": reference_ms(),
        "seed": seed,
        "params": params,
    }
