"""The three device workloads: ``paper_sweep``, ``deep_queue``, ``deep_queue_rw``.

Each workload has a *leg*: one measured pass over inputs generated
before timing.  An untraced run is one leg.  A traced run is three
legs over the same, smaller input: untraced, traced (spans around
every layer, see :mod:`perfbench.tracer`), and the vector datapath
(``xbar="vector"``) untraced.  Every leg checks its outputs and raises
:class:`~perfbench.measure.CheckFailed` on the first wrong one.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.measure import (
    Run,
    Timings,
    check,
    digest,
    peak_rss_mb,
    probe,
    repeated,
    roundtrip_metrics,
)
from perfbench.tracer import Tracer, layer_metrics
from repro.analysis import sweep
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.packet import RequestPacket
from repro.hmc.sim import HMCSim
from repro.host import openloop

__all__ = ["DeviceWorkload", "check_table6", "open_loop_leg", "sweep_leg"]

#: Table VI as this simulator reproduces it (``benchmarks/out/table6_summary.txt``).
TABLE6 = {"4Link-4GB": (6, 394, 227.33), "8Link-8GB": (6, 390, 224.18)}
#: Table VI as the paper publishes it (§V.B).
TABLE6_PAPER = {"4Link-4GB": (6, 392, 226.48), "8Link-8GB": (6, 387, 221.48)}

#: Requests per open-loop round trip and round trips per round.
BATCH = 2048
BATCHES_PER_ROUND = 32
POOL = BATCH * BATCHES_PER_ROUND
#: Fewest rounds in an untraced run: 7 x 32 = 224 round trips, so at
#: least ten lie beyond the 95th percentile.
MIN_ROUNDS = 7
#: Fewest sweep passes in an untraced run: 3 x 198 points, so the
#: percentiles rest on three samples of every point.
MIN_PASSES = 3
#: Address footprint of the open-loop streams.
FOOTPRINT = 4 << 20

#: Simulated requests per host second on a 2-core x86-64 container;
#: with ``--seconds`` they size a run so it measures about that long there.
REFERENCE_RATE = {"paper_sweep": 50_000, "deep_queue": 58_000, "deep_queue_rw": 88_000}
SWEEP_REQUESTS = 350_581  # requests in one full Algorithm-1 sweep (both configs)

#: Simulated cycles of one full sweep pass (both configs) as this
#: simulator records them.  Speed-only changes keep it; a change in
#: either direction has broken parity.  The open loops have no such
#: record: their cycles depend on the seeded addresses.
SWEEP_CYCLES = 34_632


# -- paper_sweep ---------------------------------------------------------------


def check_table6(rows: List[Tuple[str, int, int, float]]) -> List[str]:
    """Compare Table VI with the recorded reproduction; notes the paper error."""
    notes = []
    for name, lo, hi, avg in rows:
        want = TABLE6[name]
        got = (lo, hi, round(avg, 2))
        check(got == want, f"Table VI {name}: got {got}, recorded {want}")
        plo, phi, pavg = TABLE6_PAPER[name]
        notes.append(
            f"table6 {name} {lo}/{hi}/{avg:.2f} vs paper {plo}/{phi}/{pavg:.2f}: "
            f"min {lo - plo:+d}, max {100 * (hi - phi) / phi:+.2f}%, "
            f"avg {100 * (avg - pavg) / pavg:+.2f}%"
        )
    return notes


@dataclass
class Leg(Timings):
    """One measured pass: host time per round trip plus what it simulated."""

    requests: int = 0
    cycles: int = 0
    digests: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Unscaled host seconds inside the round trips."""
        return sum(self.latencies)

    @property
    def requests_per_s(self) -> float:
        """Requests per reference second."""
        return self.requests / sum(self.ref)


def sweep_leg(passes: int, xbar: str = "queued") -> Leg:
    """The paper's thread axis 2..100 on both configs, serially, no cache.

    A round trip is one sweep point: host time from the previous
    point's completion to this one's.
    """
    leg = Leg()
    configs = [
        HMCConfig.cfg_4link_4gb(xbar=xbar),
        HMCConfig.cfg_8link_8gb(xbar=xbar),
    ]
    for _ in range(passes):
        rows, runs = [], []
        for cfg in configs:
            leg.probes.append(probe())
            mark = [time.perf_counter()]

            def progress(done, total, spec, cached, mark=mark):
                leg.latencies.append(time.perf_counter() - mark[0])
                if done < total:
                    leg.probes.append(probe())
                mark[0] = time.perf_counter()

            result = sweep.run_mutex_sweep(
                cfg, jobs=1, use_cache=False, progress=progress
            )
            rows.append(result.table6_row())
            runs.extend(result.runs)
        check(
            len(runs) == 2 * len(sweep.PAPER_THREAD_RANGE),
            f"sweep returned {len(runs)} points",
        )
        leg.notes = check_table6(rows)
        cycles = sum(r.total_cycles for r in runs)
        check(cycles == SWEEP_CYCLES, f"sweep simulated {cycles} cycles, recorded {SWEEP_CYCLES}")
        leg.requests += sum(r.cmc_executions for r in runs)
        leg.cycles += cycles
        leg.digests.append(digest([vars(r) for r in runs]))
    check(len(set(leg.digests)) == 1, f"sweep passes differ: {leg.digests}")
    return leg


# -- deep_queue / deep_queue_rw --------------------------------------------------


def _twoadd8_pool(rng: random.Random) -> List[RequestPacket]:
    blocks = FOOTPRINT // 16
    return [
        RequestPacket.build(
            hmc_rqst_t.TWOADD8,
            rng.randrange(blocks) * 16,
            0,
            data=rng.getrandbits(128).to_bytes(16, "little"),
        )
        for _ in range(POOL)
    ]


def _rw_pool(rng: random.Random) -> List[RequestPacket]:
    blocks = FOOTPRINT // 64
    pool = []
    for i in range(POOL):
        addr = rng.randrange(blocks) * 64
        if i % 2:
            pool.append(RequestPacket.build(hmc_rqst_t.RD64, addr, 0))
        else:
            data = rng.getrandbits(512).to_bytes(64, "little")
            pool.append(RequestPacket.build(hmc_rqst_t.WR64, addr, 0, data=data))
    return pool


def twoadd8_reference(pool: List[RequestPacket]) -> Dict[int, bytes]:
    """Pure-Python memory image after every TWOADD8 in ``pool`` (order-free)."""
    mask = (1 << 64) - 1
    sums: Dict[int, List[int]] = {}
    for pkt in pool:
        lo = int.from_bytes(pkt.data[:8], "little")
        hi = int.from_bytes(pkt.data[8:16], "little")
        cell = sums.setdefault(pkt.addr, [0, 0])
        cell[0] = (cell[0] + lo) & mask
        cell[1] = (cell[1] + hi) & mask
    return {
        addr: a.to_bytes(8, "little") + b.to_bytes(8, "little")
        for addr, (a, b) in sums.items()
    }


class ResponseCheck:
    """Keeps the responses the host drains; :meth:`settle` checks them.

    Inside a timed batch the only added work is one list append per
    drain, so checking stays out of the measured interval.
    """

    def __init__(self, sim: HMCSim) -> None:
        self.answered = 0
        self.bad = 0
        self.drained: List[list] = []
        cls, keep = type(sim), self.drained.append

        def recv_batch(*, dev: int = 0, link: int = 0):
            # Resolved on the class at call time, so a traced leg's
            # wrapper still sees the call.
            out = cls.recv_batch(sim, dev=dev, link=link)
            keep(out)
            return out

        sim.recv_batch = recv_batch

    def settle(self) -> None:
        """Count and check what was drained since the last call (untimed)."""
        for out in self.drained:
            self.answered += len(out)
            self.bad += sum(1 for rsp in out if rsp.errstat or rsp.dinv)
        self.drained.clear()


def open_loop_config(xbar: str) -> HMCConfig:
    return HMCConfig.cfg_8link_8gb(xbar=xbar, link_rsp_rate=16)


def open_loop_leg(
    pool: List[RequestPacket],
    reference: Optional[Dict[int, bytes]],
    rounds: int,
    xbar: str = "queued",
) -> Leg:
    """Depth-256 injection of ``pool``, ``BATCH`` requests per round trip.

    Each round runs the whole pool on a fresh sim, so every round must
    end in the same stats and memory image.  With a ``reference`` the
    image must also equal it (TWOADD8); without one (RD64/WR64) only
    the repeat is checked.
    """
    leg = Leg()
    touched = sorted({pkt.addr for pkt in pool})
    width = 16 if reference is not None else 64
    for r in range(rounds):
        # The previous round's sim is garbage held in reference cycles;
        # free it here, untimed, so it neither inflates peak_rss_mb nor
        # lands a collection inside a timed batch.
        gc.collect()
        sim = HMCSim(open_loop_config(xbar))
        responses = ResponseCheck(sim)
        for b in range(BATCHES_PER_ROUND):
            chunk = pool[b * BATCH:(b + 1) * BATCH]

            def build(idx, tag, chunk=chunk):
                pkt = chunk[idx]
                pkt.tag = tag
                return pkt

            stats = openloop.OpenLoopStats(
                config_name="8link_8gb", pattern="seeded", offered_rate=0.0,
                duration=1, injected=0, completed=0, backlogged=0, drain_cycles=0,
            )
            leg.probes.append(probe())
            t0 = time.perf_counter()
            openloop.drive_open_loop(
                sim, stats, BATCH, build, offered_rate=0.0, duration=0, depth=256
            )
            leg.latencies.append(time.perf_counter() - t0)
            responses.settle()
            check(
                stats.injected == BATCH and stats.completed == BATCH,
                f"round {r} batch {b}: {stats.completed}/{BATCH} answered",
            )
        check(
            responses.answered == POOL and responses.bad == 0,
            f"round {r}: {responses.answered}/{POOL} answered, "
            f"{responses.bad} with an error status",
        )
        image = b"".join(sim.mem_read(addr, width) for addr in touched)
        if reference is not None:
            want = b"".join(reference[addr] for addr in touched)
            check(image == want, f"round {r}: memory differs from the TWOADD8 sums")
        leg.requests += POOL
        leg.cycles += sim.cycle
        leg.digests.append(digest(sim.stats(), image))
    check(len(set(leg.digests)) == 1, f"rounds differ: {leg.digests}")
    return leg


# -- the workload driver -----------------------------------------------------------


def have_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


class DeviceWorkload:
    """Setup, the untraced run, and the traced run of one device workload."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> Tuple[float, float]:
        """Configs, a sim and the inputs: median (reference, unscaled) seconds."""
        self.pool, self.reference = None, None
        if self.name == "paper_sweep":
            # Fixed by the paper: no seed, and every point builds its own sim.
            _, ref, raw = repeated(
                lambda: (HMCConfig.cfg_4link_4gb(), HMCConfig.cfg_8link_8gb())
            )
            return ref, raw
        gen = _twoadd8_pool if self.name == "deep_queue" else _rw_pool

        def make():
            HMCSim(open_loop_config("queued"))
            pool = gen(random.Random(self.seed))
            return pool, twoadd8_reference(pool) if self.name == "deep_queue" else None

        (self.pool, self.reference), ref, raw = repeated(make)
        return ref, raw

    def size(self, traced: bool) -> int:
        """Passes (paper_sweep) or rounds (open loop) for this run."""
        if self.name == "paper_sweep":
            per_pass = SWEEP_REQUESTS / REFERENCE_RATE["paper_sweep"]
            return 1 if traced else max(MIN_PASSES, round(self.seconds / per_pass))
        if traced:
            return 1
        per_round = POOL / REFERENCE_RATE[self.name]
        return max(MIN_ROUNDS, round(self.seconds / per_round))

    def leg(self, size: int, xbar: str = "queued") -> Leg:
        if self.name == "paper_sweep":
            return sweep_leg(size, xbar)
        return open_loop_leg(self.pool, self.reference, size, xbar)

    def measure(self) -> Run:
        leg = self.leg(self.size(traced=False))
        notes = leg.notes + [f"digest {leg.digests[0]}", leg.speed_note()]
        run = Run(attempted=leg.requests, notes=notes)
        ref = leg.ref
        run.metrics = {
            "sim_requests_per_s": leg.requests_per_s,
            "sim_cycles": leg.cycles,
            **roundtrip_metrics(ref, sum(ref)),
            "peak_rss_mb": peak_rss_mb(),
        }
        return run

    def measure_traced(self, spans_path: Path) -> Run:
        size = self.size(traced=True)
        plain = self.leg(size)
        tracer = Tracer()
        with tracer:
            traced = self.leg(size)
        check(
            traced.digests == plain.digests and traced.cycles == plain.cycles,
            "traced leg simulated something else than the untraced leg",
        )
        tracer.log.write(spans_path)
        run = Run(attempted=plain.requests + traced.requests, notes=list(plain.notes))
        run.layers = layer_metrics(tracer.log, traced.busy_s)
        run.layers["trace.requests_per_s_ratio"] = (
            traced.requests_per_s / plain.requests_per_s
        )
        run.layers["trace.roundtrip_p50_ratio"] = (
            statistics.median(traced.ref) / statistics.median(plain.ref)
        )
        # The serve layers are not on a device workload's path.
        run.layers.update(
            {"serve.journal_bytes": 0, "serve.checkpoint_bytes": 0, "serve.wire.p50_ms": 0.0}
        )
        run.layers["datapath.vector_vs_scalar"] = 0.0
        if not have_numpy():
            run.notes.append("numpy missing: vector leg skipped")
            return run
        vector = self.leg(size, xbar="vector")
        check(
            vector.cycles == plain.cycles and vector.digests == plain.digests,
            f"vector datapath diverged: cycles {vector.cycles} vs {plain.cycles}",
        )
        run.attempted += vector.requests
        run.layers["datapath.vector_vs_scalar"] = (
            vector.requests_per_s / plain.requests_per_s
        )
        return run

