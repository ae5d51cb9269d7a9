"""Kernel-stats parity: registry runs vs the legacy-runner golden.

``golden_kernel_stats.json`` holds every kernel's stats object as the
original per-kernel ``run_*`` entrypoints produced it, encoded with
:func:`repro.serve.schemas.encode_value`.  Every kernel now runs through
the one generic driver, ``WorkloadFrontend.run``; this suite pins it
to those results field for field — cycle counts, verification flags,
fault and oracle counters — at every point in
``kernel_stats_points.py``: both shipped configurations for every
kernel, plus one run per per-kernel hook of the driver.

Regenerate with ``scripts/capture_kernel_stats_golden.py`` only when a
change is meant to alter simulated results.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.hmc.config import HMCConfig
from repro.serve.schemas import canonical_json, encode_value
from repro.workloads.registry import WORKLOADS

from .kernel_stats_points import BASE, PARAMS, VARIANTS

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_kernel_stats.json")).read_text()
)


def _check(point: str, result) -> None:
    assert canonical_json(encode_value(result)) == canonical_json(GOLDEN[point])


def test_golden_covers_every_point():
    assert sorted(GOLDEN) == sorted({**BASE, **VARIANTS})


@pytest.mark.parametrize("cfg_name", ["cfg_4link_4gb", "cfg_8link_8gb"])
@pytest.mark.parametrize("name", sorted(PARAMS))
def test_registry_run_matches_legacy_entrypoint(name, cfg_name):
    point = f"{name}-{cfg_name}"
    _check(point, BASE[point]())


@pytest.mark.parametrize("point", sorted(VARIANTS))
def test_driver_hook_matches_legacy_entrypoint(point):
    _check(point, VARIANTS[point]())


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_format_stats_renders_one_line(name):
    cfg = HMCConfig.cfg_4link_4gb()
    frontend = WORKLOADS.get(name)
    stats = frontend.run(cfg, PARAMS[name])
    line = frontend.format_stats(stats)
    assert isinstance(line, str) and line and "\n" not in line
    assert cfg.describe() in line


def test_cli_variant_params_resolve_for_every_cli_kernel():
    # The kernel subcommand trusts cli_variants to produce valid
    # parameter dicts; reject-unknown-keys must accept them all.
    for name in WORKLOADS.keys(kind="kernel"):
        frontend = WORKLOADS.get(name)
        if not frontend.cli_kernel:
            continue
        for variant in frontend.cli_variants(4):
            frontend.resolve_params(variant)
