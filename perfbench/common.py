"""Statistics, output checks and the run record shared by every workload."""

from __future__ import annotations

import importlib.util
import platform
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def tail(samples: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, label)``; the label names the percentile (``"p90"``)
    or ``"max"`` when the sample is too small for any percentile.
    """
    data = np.asarray(samples, dtype=np.float64)
    for p in TAIL_PERCENTILES:
        if data.size * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return float(np.percentile(data, p)), f"p{p:g}"
    return float(data.max()), "max"


def failed_ratio(failed: int, attempted: int) -> float:
    """Failure rate by Laplace's rule of succession, ``(f + 1) / (n + 2)``.

    The raw ``failed / attempted`` is 0 on a healthy run, and a ratio to
    a zero median is undefined; the smoothed estimate is never 0, stays
    put while nothing fails and rises with the first failure. The raw
    counts are reported beside it.
    """
    return (failed + 1) / (attempted + 2)


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


@dataclass
class Checks:
    """Counts checked operations; a failed check is recorded, never raised."""

    attempted: int = 0
    failed: int = 0
    #: Scheduled operations a fixed rule left unsent; counted in
    #: ``attempted`` so that its base does not move with speed.
    skipped: int = 0
    messages: List[str] = field(default_factory=list)

    def record(self, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def skip(self, count: int) -> None:
        self.attempted += count
        self.skipped += count


def stamp(seed: int, backend: str, kernel: Optional[str]) -> Dict:
    """Host and build facts every record carries."""
    from repro.utils.hardware import host_metadata

    return {
        "host": host_metadata(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": backend,
        "kernel": kernel,
        "seed": seed,
    }
