#!/usr/bin/env python3
"""Regenerate the kernel-stats golden file.

Runs every point in ``tests/workloads/kernel_stats_points.py`` and
writes each result, encoded with ``repro.serve.schemas.encode_value``,
to ``tests/workloads/golden_kernel_stats.json``.

The golden pins every field of every kernel stats object (cycle
counts, verification flags, fault and oracle counters) across
refactors of the workload driver: only regenerate it when a change is
*intended* to alter simulated results, and call that out in the PR
description.

Usage:  PYTHONPATH=src python scripts/capture_kernel_stats_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from repro.serve.schemas import encode_value  # noqa: E402
from workloads.kernel_stats_points import POINTS  # noqa: E402

GOLDEN = REPO / "tests" / "workloads" / "golden_kernel_stats.json"


def main() -> None:
    doc = {}
    for name, point in POINTS.items():
        print(f"running {name} ...", flush=True)
        doc[name] = encode_value(point())
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
