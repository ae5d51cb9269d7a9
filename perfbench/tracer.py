"""Spans around the public entry points of each layer, installed from outside.

:class:`Tracer` replaces a layer's public callable (a class attribute or
a module function) with a wrapper that records one span per call:
name, start, end and the span that was open on the same thread when
the call began (its parent).  Spans live in compact per-thread arrays
and are written out once, when the run ends.  A layer's self time is
its spans' durations minus the part covered by their child spans.

Uninstalling puts back the exact objects that were replaced, so code
that runs after a traced leg is the untraced program again.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEVICE_LAYERS",
    "SERVE_LAYERS",
    "SpanLog",
    "SpanStats",
    "Tracer",
    "layer_metrics",
]


def _stall(args, result, state, counts):
    if result.name == "STALL":
        counts["sim.send.stalls"] = counts.get("sim.send.stalls", 0) + 1


def _clock_before(args):
    return args[0].cycle


def _clock_after(args, result, before, counts):
    cycles = result - before
    counts["sim.clock.cycles"] = counts.get("sim.clock.cycles", 0) + cycles
    # Device steps a lock-step clock would take: every device, every cycle.
    steps = cycles * args[0].config.num_devs
    counts["sim.clock.device_cycles"] = counts.get("sim.clock.device_cycles", 0) + steps


def _empty(args, result, state, counts):
    if not result:
        counts["sim.recv.empty"] = counts.get("sim.recv.empty", 0) + 1


@dataclass(frozen=True)
class Layer:
    """One wrapped callable: ``module.owner.attr`` (owner ``None`` = module)."""

    span: str
    module: str
    owner: Optional[str]
    attr: str
    before: Optional[Callable[[tuple], Any]] = None
    after: Optional[Callable[[tuple, Any, Any, Dict[str, int]], None]] = None


#: The simulator's layers, outermost first.
DEVICE_LAYERS: Tuple[Layer, ...] = (
    Layer("host.engine.run", "repro.host.engine", "HostEngine", "run"),
    Layer("host.openloop.drive", "repro.host.openloop", None, "drive_open_loop"),
    Layer("sim.send", "repro.hmc.sim", "HMCSim", "send", after=_stall),
    Layer(
        "sim.clock", "repro.hmc.sim", "HMCSim", "clock",
        before=_clock_before, after=_clock_after,
    ),
    Layer("device.clock", "repro.hmc.device", "Device", "clock"),
    Layer("vault.step", "repro.hmc.vault", "Vault", "step"),
    Layer("cmc.execute", "repro.core.cmc", "CMCRegistry", "execute"),
    Layer("sim.recv_batch", "repro.hmc.sim", "HMCSim", "recv_batch", after=_empty),
    Layer("sim.recv", "repro.hmc.sim", "HMCSim", "recv", after=_empty),
)

#: The service's layers; installed inside the server process.
SERVE_LAYERS: Tuple[Layer, ...] = (
    Layer("serve.accept", "repro.serve.session", "SimSession", "accept"),
    Layer("serve.execute", "repro.serve.session", "SimSession", "execute_next"),
    Layer("checkpoint.save", "repro.hmc.checkpoint", None, "save_checkpoint"),
)


class _Buffer:
    """One thread's spans, as parallel arrays indexed by span number."""

    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))


class SpanLog:
    """Spans of one run, per thread, plus event counts taken at the spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.buffers: List[_Buffer] = []
        self.counts: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def summarize(self) -> Dict[str, SpanStats]:
        """Calls, total, self time and durations per span name."""
        out = {name: SpanStats() for name in self.names}
        for buf in self.buffers:
            dur = [e - s for s, e in zip(buf.start, buf.end)]
            covered = [0.0] * len(dur)
            for i, p in enumerate(buf.parent):
                if p >= 0:
                    covered[p] += dur[i]
            for i, nid in enumerate(buf.name):
                st = out[self.names[nid]]
                st.calls += 1
                st.total_s += dur[i]
                st.self_s += dur[i] - covered[i]
                st.durations.append(dur[i])
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then each thread's four arrays, raw."""
        header = {
            "names": self.names,
            "counts": self.counts,
            "threads": [len(b.start) for b in self.buffers],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in self.buffers:
                for arr in (buf.name, buf.parent, buf.start, buf.end):
                    arr.tofile(fh)

    @classmethod
    def read(cls, path: Path) -> "SpanLog":
        log = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            log.names = list(header["names"])
            log.counts = dict(header["counts"])
            for n in header["threads"]:
                buf = _Buffer()
                for arr in (buf.name, buf.parent, buf.start, buf.end):
                    arr.fromfile(fh, n)
                log.buffers.append(buf)
        return log


class Tracer:
    """Installs span wrappers on layers; a context manager restores them."""

    def __init__(self, layers: Tuple[Layer, ...] = DEVICE_LAYERS) -> None:
        self.layers = layers
        self.log = SpanLog()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (owner object, attribute, original value or None if inherited)
        self._saved: List[Tuple[Any, str, Any]] = []

    def _new_buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self.log.buffers.append(buf)
        return buf

    def _wrap(self, func: Callable, layer: Layer) -> Callable:
        nid = self.log.name_id(layer.span)
        local, new_buffer, counts = self._local, self._new_buffer, self.log.counts
        before, after = layer.before, layer.after
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.start.append(0.0)
            buf.end.append(0.0)
            stack.append(idx)
            state = before(args) if before is not None else None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.start[idx] = t0
                buf.end[idx] = t1
            if after is not None:
                after(args, result, state, counts)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            module = importlib.import_module(layer.module)
            owner = module if layer.owner is None else getattr(module, layer.owner)
            self._saved.append((owner, layer.attr, vars(owner).get(layer.attr)))
            setattr(owner, layer.attr, self._wrap(getattr(owner, layer.attr), layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def _p50_ms(st: SpanStats) -> float:
    return statistics.median(st.durations) * 1e3 if st.calls else 0.0


def layer_metrics(log: SpanLog, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced leg lasting ``wall_s`` seconds."""
    stats = log.summarize()
    empty = SpanStats()

    def get(name: str) -> SpanStats:
        return stats.get(name, empty)

    counts = log.counts
    driver = get("host.engine.run").self_s + get("host.openloop.drive").self_s
    send, clock, dev = get("sim.send"), get("sim.clock"), get("device.clock")
    recv_calls = get("sim.recv_batch").calls + get("sim.recv").calls
    cycles = counts.get("sim.clock.cycles", 0)
    device_cycles = counts.get("sim.clock.device_cycles", 0)
    accept = get("serve.accept")
    tenth = max(1, accept.calls // 10)
    head = sum(accept.durations[:tenth])
    return {
        "host.driver.self_s": driver,
        "host.driver.self_frac": driver / wall_s,
        "sim.send.calls": send.calls,
        "sim.send.self_s": send.self_s,
        "sim.send.stall_frac": counts.get("sim.send.stalls", 0) / send.calls
        if send.calls else 0.0,
        "sim.clock.calls": clock.calls,
        "sim.clock.cycles": cycles,
        "sim.clock.self_s": clock.self_s,
        "device.clock.calls": dev.calls,
        "device.clock.self_s": dev.self_s,
        "sim.clock.skipped_frac": 1.0 - dev.calls / device_cycles
        if device_cycles else 0.0,
        "vault.step.calls": get("vault.step").calls,
        "vault.step.self_s": get("vault.step").self_s,
        "cmc.execute.calls": get("cmc.execute").calls,
        "cmc.execute.self_s": get("cmc.execute").self_s,
        "sim.recv.calls": recv_calls,
        "sim.recv.self_s": get("sim.recv_batch").self_s + get("sim.recv").self_s,
        "sim.recv.empty_frac": counts.get("sim.recv.empty", 0) / recv_calls
        if recv_calls else 0.0,
        "serve.accept.p50_ms": _p50_ms(accept),
        "serve.accept.growth": sum(accept.durations[-tenth:]) / head
        if accept.calls else 0.0,
        "serve.execute.p50_ms": _p50_ms(get("serve.execute")),
        "checkpoint.save.calls": get("checkpoint.save").calls,
        "checkpoint.save.p50_ms": _p50_ms(get("checkpoint.save")),
        "trace.self_frac_sum": sum(st.self_s for st in stats.values()) / wall_s,
    }
