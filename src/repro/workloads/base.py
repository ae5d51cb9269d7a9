"""The workload-frontend seam.

HMC-Sim 2.0's evaluation (§V) drives the device with hand-written host
kernels; our reproduction grew nine of them under
:mod:`repro.host.kernels`.  This module is the seam that makes them
interchangeable: a :class:`WorkloadFrontend` turns a ``(config,
params)`` pair into thread programs for the host engine, the same way
Ramulator 2's frontend interface makes trace-driven and
execution-driven workloads swappable implementations of one API.

:meth:`WorkloadFrontend.run` is the one driver: refuse unsupported
inputs, build the context (:meth:`~WorkloadFrontend.make_sim`), set
up device state (:meth:`~WorkloadFrontend.prepare`), run one engine
(:meth:`~WorkloadFrontend.make_engine`) per wave of
:meth:`~WorkloadFrontend.waves`, placing each thread with
:meth:`~WorkloadFrontend.placement`, settle
(:meth:`~WorkloadFrontend.finish`), and turn the last engine result
into the kernel's stats object (:meth:`~WorkloadFrontend.stats`).  A
frontend declares:

``build(sim, params)``
    The heart of the seam: a list of thread-program factories
    (``Callable[[ThreadCtx], Program]``), one per simulated thread, to
    be mapped onto :class:`~repro.host.thread.SimThread`\\ s.  The
    simulation context is passed (rather than the bare config) so
    programs may close over per-run state — preloaded tables, golden
    values — that :meth:`prepare` set up.

``waves(sim, params)``
    A generator of program lists, one per engine wave, receiving each
    wave's :class:`~repro.host.engine.EngineResult` through
    ``.send()``.  Default: :meth:`build`, once; BFS and SSSP yield
    once per frontier (possibly never).

``placement(sim, params, tid)``
    The ``(link, cub)`` of thread ``tid``.  Default: round-robin over
    the links of cube 0; trace replay keeps the recorded placement.

``prepare(sim, params)``
    Initial device state: CMC modules to load, memory preloads.  Trace
    replay calls this to reconstruct the recorded run's starting state
    from the trace header alone.

``footprint(config, params)``
    The address regions the workload touches, as ``(base, nbytes)``
    pairs — consumed by trace tooling and the differential oracle's
    conflict fencing.

``stats(sim, params, result)``
    The run's stats object, built from the engine result and the final
    device state; a kernel's correctness check (lock order, table
    contents, numeric error) is computed here, once.

Frontends are registered by string name in
:class:`repro.workloads.registry.WorkloadRegistry`; only the catalog
module (:mod:`repro.workloads.catalog`) may name concrete frontend
classes — the same composition-root discipline the component registry
enforces for pipeline seams, checked by the same structural lint.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import EngineResult, HostEngine
from repro.host.thread import Program, ThreadCtx

__all__ = ["Footprint", "WorkloadFrontend", "WorkloadError"]

#: Address regions a workload touches: ``((base, nbytes), ...)``.
Footprint = Tuple[Tuple[int, int], ...]

#: A thread-program factory, as the host engine consumes them.
ProgramFactory = Callable[[ThreadCtx], Program]

#: A run's engine waves: yields program lists, receives engine results.
Waves = Generator[List[ProgramFactory], EngineResult, None]


class WorkloadFrontend(ABC):
    """One workload behind the registry seam.

    Class attributes double as registry metadata:

    ``name``
        The registry key (``"mutex"``, ``"trace"``, ``"graph:counter"``).
    ``version``
        Folded into the parallel cache key via the workload
        fingerprint; bump it whenever the workload's observable
        behaviour changes.
    ``kind``
        ``"kernel"`` (runnable via the ``kernel`` CLI subcommand),
        ``"trace"``, or ``"graph"``.
    ``supports_faults``
        Whether :meth:`run` accepts a fault plan.
    ``recordable``
        Whether the run can be captured by the trace recorder (its
        replay reconstructs state from the header, so multi-wave
        kernels are not).
    ``accepts_sim``
        Whether :meth:`run` can execute on a caller-provided warm
        simulation context (``sim=``).  False for frontends that must
        build their own context (multi-wave kernels, trace replay);
        the serve layer uses this to decide whether a session
        submission runs on the session's warm sim or a fresh one.
    """

    name: str = ""
    version: str = "1"
    description: str = ""
    kind: str = "kernel"
    supports_faults: bool = False
    recordable: bool = False
    accepts_sim: bool = True

    # -- parameters -----------------------------------------------------------

    def default_params(self) -> Dict[str, Any]:
        """The parameter dictionary :meth:`run` merges user params into."""
        return {}

    def resolve_params(self, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Merge ``params`` over the defaults; reject unknown keys."""
        merged = self.default_params()
        for key, value in (params or {}).items():
            if key not in merged:
                raise WorkloadError(
                    f"workload {self.name!r} has no parameter {key!r} "
                    f"(have: {', '.join(sorted(merged)) or '<none>'})"
                )
            merged[key] = value
        return merged

    # -- the seam -------------------------------------------------------------

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        """Set up initial device state (CMC modules, memory preloads)."""

    @abstractmethod
    def build(
        self, sim: HMCSim, params: Dict[str, Any]
    ) -> List[ProgramFactory]:
        """Thread-program factories for one engine run, in tid order."""

    def waves(self, sim: HMCSim, params: Dict[str, Any]) -> Waves:
        """The run's engine waves (default: :meth:`build`, once)."""
        yield self.build(sim, params)

    def placement(
        self, sim: HMCSim, params: Dict[str, Any], tid: int
    ) -> Tuple[int, int]:
        """``(link, cub)`` for thread ``tid``: round-robin on cube 0."""
        return tid % sim.config.num_links, 0

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        """Address regions the workload touches (may be empty)."""
        return ()

    def finish(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        """Post-engine settling (e.g. draining posted traffic)."""

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> Any:
        """The run's stats object from the last wave's engine result
        (``None`` after zero waves); default: the bare result."""
        return result

    # -- driving --------------------------------------------------------------

    def make_sim(self, config: HMCConfig, params: Dict[str, Any]) -> HMCSim:
        """A fresh simulation context for one run."""
        return HMCSim(config)

    def make_engine(self, sim: HMCSim, params: Dict[str, Any]) -> Any:
        """The engine that drives one wave's programs."""
        return HostEngine(sim, max_cycles=int(params.get("max_cycles", 1_000_000)))

    def refuse(
        self, *, sim: Any = None, fault_plan: Any = None, recorder: Any = None
    ) -> None:
        """Reject the run inputs this frontend declares it cannot take."""
        if fault_plan is not None and not self.supports_faults:
            raise WorkloadError(
                f"workload {self.name!r} does not support fault plans"
            )
        if recorder is not None and not self.recordable:
            raise WorkloadError(
                f"workload {self.name!r} cannot be trace-recorded"
            )
        if sim is not None and not self.accepts_sim:
            raise WorkloadError(
                f"workload {self.name!r} builds its own context"
            )

    def run(
        self,
        config: HMCConfig,
        params: Optional[Dict[str, Any]] = None,
        *,
        sim: Optional[HMCSim] = None,
        fault_plan: Any = None,
        recorder: Any = None,
    ) -> Any:
        """Run the workload once and return its stats object.

        On a caller-provided ``sim`` device state accumulates across
        runs; :meth:`prepare` is idempotent, so the caller never
        prepares it first.  A fault plan is attached unless the context
        already carries one.
        """
        self.refuse(sim=sim, fault_plan=fault_plan, recorder=recorder)
        resolved = self.resolve_params(params)
        if sim is None:
            sim = self.make_sim(config, resolved)
        if fault_plan is not None and sim.faults is None:
            sim.attach_faults(fault_plan)
        self.prepare(sim, resolved)
        engine = self.make_engine(sim, resolved)
        waves = self.waves(sim, resolved)
        programs = next(waves, None)
        result = None
        while programs is not None:
            if recorder is not None:
                engine.recorder = recorder
            for tid, factory in enumerate(programs):
                link, cub = self.placement(sim, resolved, tid)
                engine.add_thread(factory, link=link, cub=cub)
            result = engine.run()
            try:
                programs = waves.send(result)
            except StopIteration:
                break
            engine = self.make_engine(sim, resolved)
        self.finish(sim, resolved)
        return self.stats(sim, resolved, result)
