"""Shared pieces of the workloads: the speed probe, results, checks,
percentiles and memory."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Fewest samples allowed beyond the reported tail percentile.
TAIL_MARGIN = 10
TAIL_Q = 0.95


#: The speed probe: a fixed pure-Python loop timed before every round
#: trip, outside the timed interval.  Its median time on the reference
#: machine (a 2-core x86-64 container) defines one reference second.
PROBE_LOOPS = 8000
PROBE_REF_S = 0.0018
#: Probes pooled (a running median) per round trip: the host's speed
#: changes within a second, so the nearest probes track it best.
PROBE_WINDOW = 3
#: Probes taken after each repetition of a set-up step.
SETUP_PROBES = 15


def probe() -> float:
    """Seconds the fixed probe loop takes right now."""
    t0 = time.perf_counter()
    seen: Dict[int, int] = {}
    total = 0
    for i in range(PROBE_LOOPS):
        seen[i & 1023] = seen.get(i & 511, 0) + i
        total += len(seen)
    return time.perf_counter() - t0


def reference_times(latencies: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Round-trip times rescaled to the reference machine's speed.

    The host's speed moves by tens of percent within seconds and for
    minutes at a time (other tenants share it); the same fixed work then
    takes proportionally longer, and so does the probe timed beside it.  Dividing each round
    trip by the running median of nearby probes, in units of
    ``PROBE_REF_S``, removes that drift and keeps what the program
    itself changes: the probe does not call the program.
    """
    half = PROBE_WINDOW // 2
    out = []
    for i, latency in enumerate(latencies):
        near = probes[max(0, i - half):i + half + 1]
        out.append(latency * PROBE_REF_S / statistics.median(near))
    return out


@dataclass
class Timings:
    """Host seconds per round trip, with the speed probe taken before each."""

    latencies: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)

    @property
    def ref(self) -> List[float]:
        """The round trips in reference seconds (see :func:`reference_times`)."""
        return reference_times(self.latencies, self.probes)

    def speed_note(self) -> str:
        factor = statistics.median(self.probes) / PROBE_REF_S
        return (
            f"host speed factor {factor:.3f} (probe over reference); unscaled "
            f"round trip p50 {1e3 * statistics.median(self.latencies):.3f} ms"
        )


def speed_factor() -> float:
    """This moment's probe median over the reference (>1 = slower host)."""
    return statistics.median(probe() for _ in range(SETUP_PROBES)) / PROBE_REF_S


#: The import probe: a fresh interpreter importing a fixed set of
#: standard-library modules.  Set-up steps that start an interpreter
#: (the program's import, the server's start) are scaled by it instead
#: of the loop probe: the host's speed for process start and import
#: moves differently from its speed for a hot loop.  ``IMPORT_REF_S``
#: is its median wall time on the reference machine.
IMPORT_PROBE = (
    "import csv, decimal, difflib, email.mime.multipart, fractions, "
    "http.server, logging.handlers, statistics, tarfile, unittest, xml.dom.minidom"
)
IMPORT_REF_S = 0.17


def interpreter_env() -> Dict[str, str]:
    """The environment of a fresh interpreter that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", ".", env.get("PYTHONPATH")) if p)
    return env


def import_speed_factor() -> float:
    """The import probe's wall time now over the reference (>1 = slower host)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=interpreter_env(), check=True)
    return (time.perf_counter() - t0) / IMPORT_REF_S


#: Set-up steps are repeated and their median reported.
SETUP_REPEATS = 7


def repeated(
    make: Callable[[], Any],
    discard: Optional[Callable[[Any], None]] = None,
    speed: Callable[[], float] = speed_factor,
) -> Tuple[Any, float, float]:
    """Time ``make`` ``SETUP_REPEATS`` times; keep the last result.

    Returns that result, the median time in reference seconds (each
    repetition divided by the ``speed`` factor taken right after it) and
    the median unscaled time.  ``discard`` releases an earlier result,
    untimed.
    """
    raw, ref, built = [], [], None
    for _ in range(SETUP_REPEATS):
        if built is not None and discard is not None:
            discard(built)
        built = None  # one result alive at a time, for peak_rss_mb
        t0 = time.perf_counter()
        built = make()
        took = time.perf_counter() - t0
        raw.append(took)
        ref.append(took / speed())
    return built, statistics.median(ref), statistics.median(raw)


class CheckFailed(Exception):
    """A correctness check failed: the run publishes no number."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Run:
    """What one workload measured; ``run.py`` turns it into the result line."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    notes: List[str] = field(default_factory=list)


def p95(values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile; needs ``TAIL_MARGIN`` samples beyond it."""
    xs = sorted(values)
    rank = math.ceil(TAIL_Q * len(xs))
    check(
        len(xs) - rank >= TAIL_MARGIN,
        f"{len(xs)} round trips leave fewer than {TAIL_MARGIN} beyond p95",
    )
    return xs[rank - 1]


def roundtrip_metrics(latencies_s: Sequence[float], wall_s: float) -> Dict[str, float]:
    """``roundtrip_p50_ms``, ``roundtrip_p95_ms`` and ``submissions_per_s``."""
    return {
        "roundtrip_p50_ms": statistics.median(latencies_s) * 1e3,
        "roundtrip_p95_ms": p95(latencies_s) * 1e3,
        "submissions_per_s": len(latencies_s) / wall_s,
    }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory of this process (or its largest waited child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest(*parts: Any) -> str:
    """sha256 over canonical JSON (``bytes`` parts are hashed raw)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]
