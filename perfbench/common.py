"""Helpers shared by the workloads: statistics, set-up timing, manifest."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100); NaN for no values."""
    values = list(values)
    return float(np.percentile(values, q, method="inverted_cdf")) if values else math.nan


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- set-up time ---------------------------------------------------------------


class SetupProbes:
    """Set-up figures from fresh processes, spread over the run.

    Each probe is a new interpreter running ``run.py --setup-probe``: it
    imports the package, builds the workload's data and model, and
    reports its phase times.  ``setup_s`` is process start to that
    report, timed here.  The workloads call :meth:`probe` between
    segments of their timed phase (never concurrently with it) so the
    probes sample the host at different moments.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.cmd = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--setup-probe", "--workload", workload, "--seed", str(seed),
        ]
        self.runs: list[dict[str, float]] = []

    def probe(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not first.startswith("{"):
            raise RuntimeError(f"set-up probe failed (exit {code})")
        phases = json.loads(first)
        phases["setup_s"] = ready
        self.runs.append(phases)

    def summary(self) -> dict[str, float]:
        """Medians over the probes."""
        return {key: median(r[key] for r in self.runs) for key in self.runs[0]}


# -- run manifest ----------------------------------------------------------------


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over ``src/`` so a checkout without git history is identified."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info() -> dict:
    """The BLAS NumPy is linked against and its thread count, as found.

    Recorded, never changed: the benchmark runs with the threading a user
    gets by default.
    """
    import numpy as np

    info: dict = {
        "env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        }
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["library"] = "unknown"
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = int(getter())
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    info["threads"] = "unknown"
    return info


def manifest(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np
    from repro.compile.config import compiled_enabled
    from repro.tensor import amp_enabled, fused_enabled

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine": {
            "fused": fused_enabled(),
            "compiled": compiled_enabled(),
            "amp": amp_enabled(),
        },
        "blas": blas_info(),
    }
