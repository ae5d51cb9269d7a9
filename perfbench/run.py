#!/usr/bin/env python3
"""One benchmark for the simulator and its service.

Run from the repository root::

    python3 perfbench/run.py --workload deep_queue --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 3          # all four workloads, one process each

Workloads: ``paper_sweep``, ``deep_queue``, ``deep_queue_rw``,
``serve_roundtrip`` (see README.md beside this file).  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` is
the separate traced run that reports the per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A failed correctness check prints ``correct: false``
with no metrics and exits 1.  Results and spans are written under
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench") / ".work"

WORKLOADS = ("paper_sweep", "deep_queue", "deep_queue_rw", "serve_roundtrip")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "sim_requests_per_s": "req/s",
    "sim_cycles": "cycles",
    "roundtrip_p50_ms": "ms",
    "roundtrip_p95_ms": "ms",
    "submissions_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER: Dict[str, str] = {
    "host.driver.self_s": "s",
    "host.driver.self_frac": "ratio",
    "sim.send.calls": "count",
    "sim.send.self_s": "s",
    "sim.send.stall_frac": "ratio",
    "sim.clock.calls": "count",
    "sim.clock.cycles": "cycles",
    "sim.clock.self_s": "s",
    "device.clock.calls": "count",
    "device.clock.self_s": "s",
    "sim.clock.skipped_frac": "ratio",
    "vault.step.calls": "count",
    "vault.step.self_s": "s",
    "cmc.execute.calls": "count",
    "cmc.execute.self_s": "s",
    "sim.recv.calls": "count",
    "sim.recv.self_s": "s",
    "sim.recv.empty_frac": "ratio",
    "serve.accept.p50_ms": "ms",
    "serve.accept.growth": "ratio",
    "serve.journal_bytes": "bytes",
    "serve.execute.p50_ms": "ms",
    "checkpoint.save.calls": "count",
    "checkpoint.save.p50_ms": "ms",
    "serve.checkpoint_bytes": "bytes",
    "serve.wire.p50_ms": "ms",
    "datapath.vector_vs_scalar": "ratio",
    "trace.requests_per_s_ratio": "ratio",
    "trace.roundtrip_p50_ratio": "ratio",
    "trace.self_frac_sum": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def host_meta(args: argparse.Namespace) -> Dict[str, object]:
    """Seed, machine and code identity stamped on every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
    }


def fresh_import(module: str) -> None:
    """A fresh interpreter importing ``module``, as a user's first run does."""
    from perfbench.measure import interpreter_env

    subprocess.run([sys.executable, "-c", f"import {module}"], env=interpreter_env(), check=True)


def run_one(args: argparse.Namespace) -> int:
    from perfbench.measure import CheckFailed, import_speed_factor, repeated

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = WORK / f"spans-{args.workload}.bin"
    serve = args.workload == "serve_roundtrip"
    name = "perfbench.serve" if serve else "perfbench.device"
    _, import_s, import_raw = repeated(
        lambda: fresh_import(name), speed=import_speed_factor
    )
    module = importlib.import_module(name)
    if serve:
        workload = module.ServeWorkload(args.seed, work)
    else:
        workload = module.DeviceWorkload(args.workload, args.seed, args.seconds)
    try:
        setup_ref, setup_raw = workload.setup()
        setup_s, setup_raw = import_s + setup_ref, import_raw + setup_raw
        run = workload.measure_traced(spans) if args.trace else workload.measure()
    except CheckFailed as exc:
        print(f"CHECK FAILED [{args.workload}]: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if serve:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, units = run.layers, PER_LAYER
    else:
        values, units = dict(run.metrics, setup_s=setup_s), END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric names drifted: {sorted(set(values) ^ set(units))}")
    meta = host_meta(args)
    print("meta " + json.dumps(meta, sort_keys=True))
    for note in run.notes + [f"setup unscaled {setup_raw:.4f} s"]:
        print(f"  {note}")
    if args.trace:
        print(f"  setup_s {setup_s:.4f} s (end-to-end; reported by --trace 0)")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": True,
        "attempted": max(1, run.attempted),
        "failed": 0,  # a failed operation fails its check, and the run
        "metrics": metrics,
    }
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"meta": meta, "notes": run.notes, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each pays its own set-up."""
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            print(lines[-1])
        code = code or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # work paths (and the server's socket) are relative to the root
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    raise SystemExit(main())
