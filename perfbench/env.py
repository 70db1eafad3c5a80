"""The machine and settings a result was measured on, and the noise guard.

The harness sets no allocator or BLAS variable — it measures what a user
gets — but records the ones that are set, because ``cg_serial_512``
moves by 40 % with glibc's malloc thresholds alone (see README.md).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path

from perfbench.spec import ROOT

#: a run that starts while other work keeps more than this share of the
#: cores busy is marked noisy, and ``--compare`` will not judge it
NOISY_BUSY_PER_CORE = 0.5


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def load_now() -> float:
    """The 1-minute load average (recorded with every run)."""
    return os.getloadavg()[0]


def _cpu_ticks() -> tuple[int, int]:
    fields = [int(v) for v in _read("/proc/stat").splitlines()[0].split()[1:]]
    idle = fields[3] + fields[4]          # idle + iowait
    return sum(fields) - idle, sum(fields)


def busy_cores(interval_s: float = 0.25) -> float:
    """Cores kept busy by everything else, sampled just before a run.

    The guard reads this and not the load average: the 1-minute average
    still remembers the previous workload of the same ``perfbench``
    invocation, so it would call every run but the first noisy.
    """
    try:
        busy0, total0 = _cpu_ticks()
        time.sleep(interval_s)
        busy1, total1 = _cpu_ticks()
    except (IndexError, ValueError):
        return load_now()
    if total1 == total0:
        return 0.0
    return (busy1 - busy0) / (total1 - total0) * (os.cpu_count() or 1)


def is_noisy(busy_at_start: float) -> bool:
    return busy_at_start > NOISY_BUSY_PER_CORE * (os.cpu_count() or 1)


def environment() -> dict:
    import numpy
    import scipy
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("MALLOC_") or k.endswith("_NUM_THREADS")},
    }
