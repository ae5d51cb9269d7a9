"""The kernel-stats golden points.

Each point runs one registered kernel through
``WORKLOADS.get(name).run`` and returns its stats object (or a list of
them).  ``scripts/capture_kernel_stats_golden.py`` encodes every result
with :func:`repro.serve.schemas.encode_value` into
``tests/workloads/golden_kernel_stats.json``; ``test_parity.py``
compares the canonical JSON of a fresh run against it.

``BASE`` holds one point per kernel and shipped configuration, at
reduced (tier-1 sized) parameters.  ``VARIANTS`` holds the runs that
exercise each per-kernel hook of the frontend driver: the mutex
fault-plan and oracle paths, the windowed stream engine, the posted
drain and rmw verification of the histogram, rmw GUPS, the timed
scattered chase, the non-offloaded graph kernels, bfs and sssp runs
with zero waves, runs on a caller-provided warm simulation context,
the three task-graph scenarios (schedule included), and closed-loop
replay of one recording on its own configuration and on one with
twice the links (which pins the recorded thread placement).
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.faults.plan import FaultPlan
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.workloads.registry import WORKLOADS
from repro.workloads.replay import record_workload

#: Reduced parameters per kernel (the defaults are CLI-sized).
PARAMS = {
    "mutex": {"threads": 4},
    "ticket": {"threads": 4},
    "stream": {"threads": 4, "blocks_per_thread": 2},
    "gups": {"threads": 4, "updates_per_thread": 8, "table_entries": 64},
    "bfs": {"threads": 4, "vertices": 32, "degree": 3},
    "hist": {"threads": 4, "samples_per_thread": 8, "bins": 8},
    "chase": {"length": 16},
    "barrier": {"threads": 4, "rounds": 2},
    "sssp": {"threads": 4, "vertices": 32, "degree": 3},
}

CONFIGS = ("cfg_4link_4gb", "cfg_8link_8gb")


def run(name: str, cfg: HMCConfig, params: Dict[str, Any], **kw) -> Any:
    return WORKLOADS.get(name).run(cfg, params, **kw)


def _base(name: str, cfg_name: str) -> Callable[[], Any]:
    return lambda: run(name, getattr(HMCConfig, cfg_name)(), PARAMS[name])


def _variant(name: str, **extra) -> Callable[[], Any]:
    return lambda: run(
        name, HMCConfig.cfg_4link_4gb(), dict(PARAMS[name], **extra)
    )


def _faulty_mutex() -> Any:
    plan = FaultPlan.parse(["xbar_drop=0.02"], seed=11)
    return run("mutex", HMCConfig.cfg_4link_4gb(), {"threads": 12}, fault_plan=plan)


def _warm(name: str, load: Callable[[HMCSim], None]) -> Callable[[], Any]:
    """Two back-to-back runs on one caller-provided context whose CMC
    ops the caller loaded (state accumulates, as in a serve session)."""

    def point() -> Any:
        cfg = HMCConfig.cfg_4link_4gb()
        sim = HMCSim(cfg)
        load(sim)
        return [run(name, cfg, PARAMS[name], sim=sim) for _ in range(2)]

    return point


def _load_mutex(sim: HMCSim) -> None:
    from repro.cmc_ops.mutex import load_mutex_ops

    load_mutex_ops(sim)


def _load_fadd(sim: HMCSim) -> None:
    sim.load_cmc("repro.cmc_ops.fadd64")


def _graph(name: str) -> Callable[[], Any]:
    return lambda: run(name, HMCConfig.cfg_4link_4gb(), {})


def _replay(cfg_name: str) -> Callable[[], Any]:
    """Closed-loop replay of an 8-thread mutex recording made on 4link.

    The recorded links are ``tid % 4``, so the 8link replay differs
    from a round-robin placement.  The replay stats are a plain class:
    the point pins every attribute.
    """

    def point() -> Any:
        _, trace = record_workload(
            "mutex", HMCConfig.cfg_4link_4gb(), {"threads": 8}
        )
        stats = run("trace", getattr(HMCConfig, cfg_name)(), {"trace": trace})
        return vars(stats)

    return point


BASE: Dict[str, Callable[[], Any]] = {
    f"{name}-{cfg_name}": _base(name, cfg_name)
    for name in sorted(PARAMS)
    for cfg_name in CONFIGS
}

VARIANTS: Dict[str, Callable[[], Any]] = {
    "mutex-fault-xbar_drop": _faulty_mutex,
    "mutex-oracle_sample": _variant("mutex", threads=8, oracle_sample=2),
    "stream-windowed": _variant("stream", windowed=True),
    "hist-posted": _variant("hist", mode="posted"),
    "hist-rmw": _variant("hist", mode="rmw"),
    "gups-rmw": _variant("gups", atomic=False),
    "chase-scatter-timing": _variant("chase", scatter=True, timing=True),
    "bfs-rmw": _variant("bfs", cas=False),
    "sssp-rmw": _variant("sssp", amin=False),
    "bfs-zero-waves": _variant("bfs", vertices=1),
    "sssp-zero-waves": _variant("sssp", vertices=1),
    "barrier-warm-sim": _warm("barrier", _load_fadd),
    "mutex-warm-sim": _warm("mutex", _load_mutex),
    "graph-counter": _graph("graph:counter"),
    "graph-pipeline": _graph("graph:pipeline"),
    "graph-kvstore": _graph("graph:kvstore"),
    "trace-closed-4link-on-4link": _replay("cfg_4link_4gb"),
    "trace-closed-4link-on-8link": _replay("cfg_8link_8gb"),
}

POINTS: Dict[str, Callable[[], Any]] = {**BASE, **VARIANTS}
