"""Registry frontends for the nine hand-written host kernels.

Each frontend puts one kernel behind the
:class:`~repro.workloads.base.WorkloadFrontend` seam.  The kernel
modules under :mod:`repro.host.kernels` hold the thread programs and
stats dataclasses; the frontends here own the construction — preloads
in :meth:`prepare`, thread fan-out in :meth:`build`, the stats object
and its correctness check in :meth:`stats` — and the seam's generic
:meth:`~repro.workloads.base.WorkloadFrontend.run` drives all nine.
Trace recording and replay drive the same ``prepare``/``build`` pair.
The two level-synchronous kernels (BFS, SSSP) share
:class:`FrontierWorkload`, whose
:meth:`~repro.workloads.base.WorkloadFrontend.waves` yields one
engine wave per frontier.

This module *defines* concrete frontends; only
:mod:`repro.workloads.catalog` may import them (workload-containment
lint).
"""

from __future__ import annotations

import struct
from abc import abstractmethod
from typing import Any, Collection, Dict, List, Set, Tuple

from repro.cmc_ops.mutex import init_lock, load_mutex_ops
from repro.cmc_ops.ticket import init_ticket_lock, load_ticket_ops
from repro.faults.watchdog import TagWatchdog
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.hmc.timing import DEFAULT_TIMING
from repro.host.engine import HostEngine
from repro.host.kernels.barrier import BarrierStats, _check_order, barrier_program
from repro.host.kernels.bfs import (
    BFSStats,
    _bfs_worker,
    reference_bfs_levels,
    synthetic_graph,
)
from repro.host.kernels.gups import GUPSStats, gups_program, hpcc_random_stream
from repro.host.kernels.histogram import HistogramStats, _hist_program
from repro.host.kernels.mutex_kernel import (
    DEFAULT_LOCK_ADDR,
    DEFAULT_MAX_CYCLES,
    FAULT_WATCHDOG_TIMEOUT,
    KERNEL_VERSION as _MUTEX_KERNEL_VERSION,
    MutexRunStats,
    mutex_program,
)
from repro.host.kernels.pointer_chase import (
    PointerChaseStats,
    build_chain,
    chase_program,
)
from repro.host.kernels.sssp import (
    INFINITY,
    SSSPStats,
    _relax_worker,
    reference_sssp,
    weighted_graph,
)
from repro.host.kernels.stream import (
    StreamStats,
    stream_triad_program,
    windowed_triad_program,
)
from repro.host.kernels.ticket_kernel import (
    DEFAULT_LOCK_ADDR as _TICKET_LOCK_ADDR,
    TicketRunStats,
    ticket_program,
)
from repro.host.thread import Program, ThreadCtx
from repro.host.window import WindowedEngine
from repro.parallel.tasks import TaskSpec
from repro.workloads.base import Footprint, ProgramFactory, Waves, WorkloadFrontend

__all__ = [
    "MutexWorkload",
    "TicketWorkload",
    "StreamWorkload",
    "GUPSWorkload",
    "BFSWorkload",
    "HistogramWorkload",
    "PointerChaseWorkload",
    "BarrierWorkload",
    "SSSPWorkload",
]


class KernelAdapter(WorkloadFrontend):
    """Shared shape for the kernel frontends."""

    kind = "kernel"
    #: Whether the ``kernel`` CLI subcommand offers this workload.
    cli_kernel = True

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        """Parameter dicts the ``kernel`` subcommand runs, in order."""
        return [{"threads": threads}]

    def format_stats(self, stats: Any, fault_plan: Any = None) -> str:
        """One CLI output line for ``stats``."""
        raise NotImplementedError


class MutexWorkload(KernelAdapter):
    """Algorithm 1: the paper's lock/trylock/unlock contention kernel."""

    name = "mutex"
    description = "Algorithm-1 lock contention (the paper's §V.B sweep)"
    supports_faults = True
    recordable = True
    # The kernel's own version tag feeds the registry fingerprint, so
    # the historical "bump KERNEL_VERSION on semantic change" discipline
    # keeps invalidating cached sweep points.
    version = _MUTEX_KERNEL_VERSION

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "lock_addr": DEFAULT_LOCK_ADDR,
            "max_cycles": DEFAULT_MAX_CYCLES,
            # 1-in-N online oracle sampling; None = off.
            "oracle_sample": None,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["threads"] < 1:
            raise ValueError("threads must be >= 1")
        # Guard on this bundle's own command codes, not "any ops": a
        # warm context (serve session) may already carry a different
        # workload's CMC family.
        if sim.cmc.lookup(125) is None:
            load_mutex_ops(sim)
        init_lock(sim, params["lock_addr"])

    def make_engine(self, sim: HMCSim, params: Dict[str, Any]) -> HostEngine:
        # A faulty run gets a per-tag watchdog: dropped responses are
        # retransmitted instead of deadlocking the sweep.
        watchdog = (
            TagWatchdog(timeout=FAULT_WATCHDOG_TIMEOUT)
            if sim.faults is not None
            else None
        )
        return HostEngine(
            sim,
            max_cycles=params["max_cycles"],
            watchdog=watchdog,
            oracle_sample=params["oracle_sample"],
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        lock_addr = params["lock_addr"]
        return [
            lambda ctx: mutex_program(ctx, lock_addr)
            for _ in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        params = self.resolve_params(params)
        return ((params["lock_addr"], 16),)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> MutexRunStats:
        return MutexRunStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            min_cycle=result.min_cycle,
            max_cycle=result.max_cycle,
            avg_cycle=result.avg_cycle,
            total_cycles=result.total_cycles,
            send_stalls=result.send_stalls,
            cmc_executions=sum(op.executions for op in sim.cmc.operations()),
            faults_injected=(
                sum(sim.faults.counters().values()) if sim.faults is not None else 0
            ),
            retransmits=result.retransmits,
            oracle_checks=result.oracle_checks,
        )

    def task_spec(
        self,
        config: HMCConfig,
        threads: int,
        *,
        fault_plan: Any = None,
        lock_addr: int = DEFAULT_LOCK_ADDR,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> TaskSpec:
        """A picklable sweep point (the parallel engine's unit of work)."""
        return TaskSpec(
            kernel=self.name,
            kernel_version=self.version,
            runner="repro.workloads.registry:run_task_spec",
            config=config,
            threads=threads,
            params=(("lock_addr", lock_addr), ("max_cycles", max_cycles)),
            fault_plan=fault_plan,
        )

    def format_stats(self, s, fault_plan=None) -> str:
        line = (
            f"{s.config_name} mutex x{s.threads}: min={s.min_cycle} "
            f"max={s.max_cycle} avg={s.avg_cycle:.2f} "
            f"(cmc executions: {s.cmc_executions})"
        )
        if fault_plan is not None:
            line += (
                f" [{fault_plan.describe()}: {s.faults_injected} faults, "
                f"{s.retransmits} retransmits]"
            )
        if s.oracle_checks:
            line += f" [oracle: {s.oracle_checks} checks, 0 divergences]"
        return line


class TicketWorkload(KernelAdapter):
    """FIFO ticket lock over the CMC21/22/23 triple."""

    name = "ticket"
    description = "FIFO ticket lock (CMC enter/wait/exit)"
    recordable = True

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "lock_addr": _TICKET_LOCK_ADDR,
            "max_cycles": 1_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["threads"] < 1:
            raise ValueError("threads must be >= 1")
        if sim.cmc.lookup(21) is None:
            load_ticket_ops(sim)
        init_ticket_lock(sim, params["lock_addr"])

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        lock_addr = params["lock_addr"]
        self._acquisitions: List[int] = []
        acquisitions = self._acquisitions
        return [
            lambda ctx: ticket_program(ctx, lock_addr, acquisitions)
            for _ in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        params = self.resolve_params(params)
        return ((params["lock_addr"], 16),)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> TicketRunStats:
        return TicketRunStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            min_cycle=result.min_cycle,
            max_cycle=result.max_cycle,
            avg_cycle=result.avg_cycle,
            total_cycles=result.total_cycles,
            fifo_order=self._acquisitions == sorted(self._acquisitions),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} ticket x{s.threads}: min={s.min_cycle} "
            f"max={s.max_cycle} avg={s.avg_cycle:.2f} fifo={s.fifo_order}"
        )


class StreamWorkload(KernelAdapter):
    """STREAM Triad over three disjoint double arrays."""

    name = "stream"
    description = "STREAM Triad bandwidth kernel (a = b + q*c)"
    accepts_sim = False

    #: Array bases, 1 MiB apart, so stride-1 traffic sweeps
    #: vaults/banks the way the interleave intends.
    _BASES = (1 << 20, 2 << 20, 3 << 20)

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "blocks_per_thread": 8,
            "q": 3.0,
            "block_bytes": 64,
            "windowed": False,
            "max_cycles": 1_000_000,
        }

    @staticmethod
    def _inputs(params: Dict[str, Any]):
        n = (
            params["threads"]
            * params["blocks_per_thread"]
            * (params["block_bytes"] // 8)
        )
        b_vals = [float(i % 97) for i in range(n)]
        c_vals = [float((i * 7) % 31) for i in range(n)]
        return n, b_vals, c_vals

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        n, b_vals, c_vals = self._inputs(params)
        _, b_base, c_base = self._BASES
        sim.mem_write(b_base, struct.pack(f"<{n}d", *b_vals))
        sim.mem_write(c_base, struct.pack(f"<{n}d", *c_vals))

    def make_engine(self, sim: HMCSim, params: Dict[str, Any]) -> Any:
        # Windowed: each thread keeps both input reads of a block in
        # flight concurrently (memory-level parallelism in the kernel).
        if params["windowed"]:
            return WindowedEngine(sim, window=2, max_cycles=params["max_cycles"])
        return super().make_engine(sim, params)

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        program = (
            windowed_triad_program if params["windowed"] else stream_triad_program
        )
        a_base, b_base, c_base = self._BASES
        bpt = params["blocks_per_thread"]
        q, bb = params["q"], params["block_bytes"]
        return [
            lambda ctx, t=t: program(
                ctx, a_base, b_base, c_base, t * bpt, bpt, q, bb
            )
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        params = self.resolve_params(params)
        size = (
            params["threads"] * params["blocks_per_thread"] * params["block_bytes"]
        )
        return tuple((base, size) for base in self._BASES)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> StreamStats:
        n, b_vals, c_vals = self._inputs(params)
        q = params["q"]
        got = struct.unpack(f"<{n}d", sim.mem_read(self._BASES[0], n * 8))
        err = max(abs(g - (bv + q * cv)) for g, bv, cv in zip(got, b_vals, c_vals))
        bytes_moved = (
            params["threads"] * params["blocks_per_thread"] * params["block_bytes"] * 3
        )
        return StreamStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            elements=n,
            cycles=result.total_cycles,
            bytes_moved=bytes_moved,
            bytes_per_cycle=bytes_moved / result.total_cycles,
            max_abs_error=err,
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} STREAM Triad x{s.threads}: {s.cycles} cycles, "
            f"{s.bytes_per_cycle:.1f} B/cycle, err={s.max_abs_error}"
        )


class GUPSWorkload(KernelAdapter):
    """HPCC RandomAccess: XOR updates over a scattered table."""

    name = "gups"
    description = "HPCC RandomAccess (atomic XOR16 vs read-modify-write)"
    accepts_sim = False

    #: The table starts at zero (cold pages read as zero): no preload.
    _TABLE_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "updates_per_thread": 32,
            "table_entries": 4096,
            "atomic": True,
            "seed": 0x2545F4914F6CDD1D,
            "max_cycles": 2_000_000,
        }

    @staticmethod
    def _updates(params: Dict[str, Any]) -> List[int]:
        return hpcc_random_stream(
            params["seed"], params["threads"] * params["updates_per_thread"]
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        upd = params["updates_per_thread"]
        all_updates = self._updates(params)
        entries, atomic = params["table_entries"], params["atomic"]
        return [
            lambda ctx, chunk=all_updates[t * upd : (t + 1) * upd]: gups_program(
                ctx, self._TABLE_BASE, entries, chunk, atomic
            )
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        params = self.resolve_params(params)
        return ((self._TABLE_BASE, params["table_entries"] * 16),)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> GUPSStats:
        # XOR-folding every update is order-independent, so the atomic
        # mode must match exactly; rmw mode may lose updates to races
        # (as HPCC itself tolerates) and reports that as unverified.
        all_updates = self._updates(params)
        entries = params["table_entries"]
        ref = [0] * entries
        for r in all_updates:
            ref[r % entries] ^= r
        verified = all(
            int.from_bytes(sim.mem_read(self._TABLE_BASE + i * 16, 8), "little")
            == ref[i]
            for i in range(entries)
        )
        return GUPSStats(
            config_name=sim.config.describe(),
            mode="atomic" if params["atomic"] else "rmw",
            threads=params["threads"],
            updates=len(all_updates),
            cycles=result.total_cycles,
            updates_per_cycle=len(all_updates) / result.total_cycles,
            requests=sum(t.requests for t in result.threads),
            verified=verified,
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [
            {"threads": threads, "atomic": False},
            {"threads": threads, "atomic": True},
        ]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} GUPS ({s.mode}) x{s.threads}: {s.cycles} cycles, "
            f"{s.updates_per_cycle:.3f} upd/cycle, verified={s.verified}"
        )


class FrontierWorkload(KernelAdapter):
    """A level-synchronous graph kernel: one engine wave per frontier.

    :meth:`prepare` seeds ``_frontier``; each wave splits its
    :meth:`work` over the threads, whose :meth:`worker` programs
    collect the vertices they found (claimed, improved), and
    :meth:`advance` turns those into the next frontier.  The waves
    stop at an empty frontier or one with no work.
    """

    accepts_sim = False

    @abstractmethod
    def work(self, sim: HMCSim, params: Dict[str, Any]) -> List[Any]:
        """The frontier's work items, in issue order."""

    @abstractmethod
    def worker(self, ctx: ThreadCtx, params, part, found: List[int]) -> Program:
        """One thread's share of a wave."""

    @abstractmethod
    def advance(self, found: List[int]) -> Collection[int]:
        """The next frontier from a wave's found vertices."""

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        """The work in contiguous per-thread chunks (empty ones dropped)."""
        work, threads = self.work(sim, params), params["threads"]
        chunk = (len(work) + threads - 1) // threads
        self._found: List[List[int]] = []
        programs = []
        for t in range(threads):
            part = work[t * chunk : (t + 1) * chunk]
            if not part:
                continue
            found: List[int] = []
            self._found.append(found)
            programs.append(
                lambda ctx, part=part, found=found: self.worker(
                    ctx, params, part, found
                )
            )
        return programs

    def waves(self, sim: HMCSim, params: Dict[str, Any]) -> Waves:
        self._waves = self._requests = 0
        while self._frontier:
            self._waves += 1
            programs = self.build(sim, params)
            if not programs:
                return
            result = yield programs
            self._requests += sum(t.requests for t in result.threads)
            self._frontier = self.advance([v for f in self._found for v in f])


class BFSWorkload(FrontierWorkload):
    """Level-synchronous BFS: one engine wave per frontier level."""

    name = "bfs"
    description = "level-synchronous BFS (CASEQ8 visited-marking vs rmw)"

    #: One 16-byte level word per vertex.
    _LEVEL_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "vertices": 256,
            "degree": 4,
            "cas": True,
            "root": 0,
            "seed": 12345,
            "max_cycles": 5_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        self._edges = synthetic_graph(
            params["vertices"], params["degree"], params["seed"]
        )
        self._adj: Dict[int, List[int]] = {}
        for u, v in self._edges:
            self._adj.setdefault(u, []).append(v)
            self._adj.setdefault(v, []).append(u)
        root = params["root"]
        sim.mem_write(
            self._LEVEL_BASE + root * 16, (1).to_bytes(8, "little") + bytes(8)
        )
        self._levels = {root: 1}
        self._frontier = [root]

    def work(self, sim: HMCSim, params: Dict[str, Any]) -> List[Tuple[int, int]]:
        """Every frontier edge to a vertex not yet levelled."""
        return [
            (u, v)
            for u in self._frontier
            for v in self._adj.get(u, ())
            if v not in self._levels
        ]

    def worker(self, ctx, params, part, found) -> Program:
        return _bfs_worker(
            ctx, self._LEVEL_BASE, part, self._levels, found, params["cas"]
        )

    def advance(self, found: List[int]) -> List[int]:
        """Level the newly claimed vertices (first claim wins)."""
        depth = self._waves + 1
        frontier = []
        for v in found:
            if v not in self._levels:
                self._levels[v] = depth
                frontier.append(v)
        return frontier

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> BFSStats:
        ref = reference_bfs_levels(params["vertices"], self._edges, params["root"])
        verified = all(
            int.from_bytes(sim.mem_read(self._LEVEL_BASE + v * 16, 8), "little")
            == lvl
            for v, lvl in ref.items()
        )
        # Link FLIT counters are cumulative over the whole traversal.
        flits = sum(
            link.flits_in + link.flits_out for d in sim.devices for link in d.links
        )
        return BFSStats(
            config_name=sim.config.describe(),
            mode="cas" if params["cas"] else "baseline",
            vertices=params["vertices"],
            edges=len(self._edges),
            levels=max(self._levels.values()),
            # A fresh context (accepts_sim is False) starts at cycle 0.
            cycles=sim.cycle,
            requests=self._requests,
            flits=flits,
            verified=verified,
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [
            {"threads": threads, "cas": False},
            {"threads": threads, "cas": True},
        ]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} BFS ({s.mode}): {s.edges} edges, "
            f"{s.requests} requests, {s.flits} flits, verified={s.verified}"
        )


class HistogramWorkload(KernelAdapter):
    """Histogram binning: atomic INC8, posted P_INC8, or host rmw."""

    name = "hist"
    description = "histogram binning (atomic / posted / rmw increments)"
    accepts_sim = False

    _BINS_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "samples_per_thread": 32,
            "bins": 16,
            "mode": "atomic",
            "seed": 99,
            "max_cycles": 2_000_000,
        }

    @staticmethod
    def _samples(params: Dict[str, Any]) -> List[int]:
        """Deterministic skewed sample stream (low bins hotter)."""
        state = params["seed"] & 0xFFFFFFFFFFFFFFFF
        samples: List[int] = []
        for _ in range(params["threads"] * params["samples_per_thread"]):
            state = (state * 2862933555777941757 + 3037000493) & 0xFFFFFFFFFFFFFFFF
            samples.append(
                int(((state >> 11) / (1 << 53)) ** 2 * params["bins"])
            )
        return samples

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["mode"] not in ("atomic", "posted", "rmw"):
            raise ValueError(f"unknown histogram mode {params['mode']!r}")

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        spt = params["samples_per_thread"]
        samples = self._samples(params)
        mode = params["mode"]
        return [
            lambda ctx, chunk=samples[t * spt : (t + 1) * spt]: _hist_program(
                ctx, self._BINS_BASE, chunk, mode
            )
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        params = self.resolve_params(params)
        return ((self._BINS_BASE, params["bins"] * 16),)

    def finish(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        # Posted increments may still be in flight when programs finish.
        if params["mode"] == "posted":
            sim.drain()

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> HistogramStats:
        samples = self._samples(params)
        ref = [0] * params["bins"]
        for s in samples:
            ref[s] += 1
        lost = sum(
            ref[b]
            - int.from_bytes(sim.mem_read(self._BINS_BASE + b * 16, 8), "little")
            for b in range(params["bins"])
        )
        flits = sum(
            link.flits_in + link.flits_out for d in sim.devices for link in d.links
        )
        return HistogramStats(
            config_name=sim.config.describe(),
            mode=params["mode"],
            threads=params["threads"],
            samples=len(samples),
            bins=params["bins"],
            cycles=result.total_cycles,
            requests=sum(t.requests for t in result.threads),
            flits=flits,
            flits_per_sample=flits / len(samples),
            exact=lost == 0,
            lost_updates=lost,
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [
            {"threads": threads, "mode": mode}
            for mode in ("rmw", "atomic", "posted")
        ]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} histogram ({s.mode}): {s.cycles} cycles, "
            f"{s.flits_per_sample:.1f} flits/sample, exact={s.exact}"
        )


class PointerChaseWorkload(KernelAdapter):
    """Serial pointer chase: latency per dependent hop."""

    name = "chase"
    description = "pointer-chase latency kernel (sequential or scattered)"
    accepts_sim = False
    cli_kernel = False  # has its own `chase` subcommand (single-thread)

    def default_params(self) -> Dict[str, Any]:
        return {
            "length": 64,
            "scatter": False,
            "timing": False,
            "base": 1 << 20,
            "max_cycles": 1_000_000,
        }

    def make_sim(self, config: HMCConfig, params: Dict[str, Any]) -> HMCSim:
        return HMCSim(config, timing=DEFAULT_TIMING if params["timing"] else None)

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        self._head = build_chain(
            sim, params["base"], params["length"], scatter=params["scatter"]
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        head = self._head
        self._visited: List[int] = []
        visited = self._visited
        return [lambda ctx: chase_program(ctx, head, visited)]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        params = self.resolve_params(params)
        return ((params["base"], params["length"] * 16),)

    def stats(
        self, sim: HMCSim, params: Dict[str, Any], result: Any
    ) -> PointerChaseStats:
        return PointerChaseStats(
            config_name=sim.config.describe(),
            length=params["length"],
            scattered=params["scatter"],
            timed=params["timing"],
            cycles=result.total_cycles,
            cycles_per_hop=result.total_cycles / params["length"],
            order_correct=self._visited == list(range(params["length"])),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} pointer chase x{s.length} "
            f"({'scattered' if s.scattered else 'sequential'}"
            f"{', timed' if s.timed else ''}): {s.cycles} cycles, "
            f"{s.cycles_per_hop:.2f} cycles/hop, "
            f"order={'ok' if s.order_correct else 'BROKEN'}"
        )


class BarrierWorkload(KernelAdapter):
    """Sense-reversing barrier over the fadd64 CMC op."""

    name = "barrier"
    description = "sense-reversing barrier (CMC04 fadd64 arrival counter)"

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "rounds": 4,
            "addr": 0x0,
            "max_cycles": 2_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["threads"] < 2:
            raise ValueError("a barrier needs at least 2 threads")
        if sim.cmc.lookup(4) is None:
            sim.load_cmc("repro.cmc_ops.fadd64")
        sim.mem_write(params["addr"], bytes(16))

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        addr, threads, rounds = params["addr"], params["threads"], params["rounds"]
        self._log: List = []
        log = self._log
        return [
            lambda ctx: barrier_program(ctx, addr, threads, rounds, log)
            for _ in range(threads)
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        params = self.resolve_params(params)
        return ((params["addr"], 16),)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> BarrierStats:
        threads, rounds = params["threads"], params["rounds"]
        return BarrierStats(
            config_name=sim.config.describe(),
            threads=threads,
            rounds=rounds,
            total_cycles=result.total_cycles,
            cycles_per_round=result.total_cycles / rounds,
            order_correct=_check_order(self._log, threads, rounds),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} barrier x{s.threads}: {s.rounds} rounds, "
            f"{s.total_cycles} cycles ({s.cycles_per_round:.1f}/round), "
            f"order={'ok' if s.order_correct else 'BROKEN'}"
        )


class SSSPWorkload(FrontierWorkload):
    """Bellman-Ford-style SSSP: one engine wave per relaxation round."""

    name = "sssp"
    description = "single-source shortest paths (CMC07 amin64 vs rmw)"

    #: One 16-byte distance word per vertex.
    _DIST_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "vertices": 128,
            "degree": 3,
            "amin": True,
            "source": 0,
            "seed": 77,
            "max_cycles": 5_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        self._edges = weighted_graph(
            params["vertices"], params["degree"], params["seed"]
        )
        self._adj: Dict[int, List[Tuple[int, int]]] = {}
        for u, v, w in self._edges:
            self._adj.setdefault(u, []).append((v, w))
            self._adj.setdefault(v, []).append((u, w))
        if params["amin"]:
            sim.load_cmc("repro.cmc_ops.amin64")
        for v in range(params["vertices"]):
            init = 0 if v == params["source"] else INFINITY
            sim.mem_write(
                self._DIST_BASE + v * 16, init.to_bytes(8, "little") + bytes(8)
            )
        self._frontier = {params["source"]}

    def work(self, sim: HMCSim, params: Dict[str, Any]) -> List[Tuple[int, int]]:
        """The round's ``(v, candidate)`` relaxations from the current
        HMC distances, pre-reduced per target vertex so each vertex is
        touched by exactly one thread per round ("owner computes") —
        keeping the baseline read-modify-write mode race-free for a
        fair correctness comparison."""
        best: Dict[int, int] = {}
        for u in self._frontier:
            du = int.from_bytes(
                sim.mem_read(self._DIST_BASE + u * 16, 8), "little"
            )
            for v, w in self._adj.get(u, ()):
                cand = du + w
                if cand < best.get(v, INFINITY):
                    best[v] = cand
        return sorted(best.items())

    def worker(self, ctx, params, part, found) -> Program:
        return _relax_worker(ctx, self._DIST_BASE, part, found, params["amin"])

    def advance(self, found: List[int]) -> Set[int]:
        """Every improved vertex relaxes its neighbours next round."""
        return set(found)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> SSSPStats:
        ref = reference_sssp(params["vertices"], self._edges, params["source"])
        verified = all(
            int.from_bytes(sim.mem_read(self._DIST_BASE + v * 16, 8), "little")
            == ref.get(v, INFINITY)
            for v in range(params["vertices"])
        )
        return SSSPStats(
            config_name=sim.config.describe(),
            mode="amin" if params["amin"] else "baseline",
            vertices=params["vertices"],
            edges=len(self._edges),
            rounds=self._waves,
            # A fresh context (accepts_sim is False) starts at cycle 0.
            cycles=sim.cycle,
            requests=self._requests,
            verified=verified,
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [
            {"threads": threads, "amin": False},
            {"threads": threads, "amin": True},
        ]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} SSSP ({s.mode}): {s.edges} edges, "
            f"{s.rounds} rounds, {s.requests} requests, verified={s.verified}"
        )
