"""Warm simulator sessions with journaled, checkpoint-fenced execution.

A :class:`SimSession` owns one long-lived :class:`~repro.hmc.sim.HMCSim`
and executes submissions against it **serially, as fenced segments**:
run → ``sim.drain()`` → checkpoint.  The fence discipline is what makes
restart exact — generator-based thread programs cannot be serialized
mid-flight, but a *quiesced* device checkpoints completely
(checkpoint v4), and the simulator is deterministic, so:

    restore last checkpoint + re-execute the journaled submissions
    after it  ==  the uninterrupted run, bit for bit.

The session directory is the durable record::

    <root>/<name>/
        journal.jsonl      append-only: identity line, then accept,
                           done/failed and fence records
        ckpt-<seq>.json    the newest fence's checkpoint (state after
                           submission <seq>)
        result-<seq>.json  canonical result payload per submission

Each record is one flushed line, so accepting costs one append.  An
``accept`` lands *before* execution (accepted work survives a crash);
a ``fence`` is the only commit point (a checkpoint counts once its
fence is journaled, and only then is its predecessor unlinked).
:meth:`load` restores the newest fenced checkpoint that parses and
re-executes everything after it, done or not, byte-identically.

States move ``CREATED → RUNNING → DRAINING → CLOSED``: RUNNING on the
first submission, DRAINING once the server stops accepting new work
(SIGTERM or ``close``), CLOSED after the final fence.

Submission kinds (validated in :mod:`repro.serve.schemas`):

``workload``
    ``{"workload": name, "params": {...}}`` — resolved through
    :data:`~repro.workloads.registry.WORKLOADS` *by string only* (the
    workload-containment discipline), run on the warm sim.
``raw``
    ``{"requests": [{"cmd", "addr", "data"?, "link"?}, ...]}`` — a
    pipelined request stream driven directly; per-request responses
    come back in issue order.
``sweep``
    ``{"workload": name, "threads": [...]}`` — fanned over the shared
    :class:`~repro.parallel.pool.SweepExecutor`; never touches the
    session sim, and the on-disk cache dedups identical points across
    every session and client.
"""

from __future__ import annotations

import base64
import enum
import json
import os
import threading
from dataclasses import dataclass, replace as _replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.errors import HMCSimError, HMCStatus, ServeError
from repro.fileio import atomic_write
from repro.serve.schemas import canonical_json, encode_value

__all__ = ["SessionState", "SubmissionRecord", "SimSession", "build_session_config"]

#: The journal file that marks a directory as a session.
JOURNAL_NAME = "journal.jsonl"
_JOURNAL_FORMAT = 1


class SessionState(enum.Enum):
    """Lifecycle of one warm session."""

    CREATED = "created"
    RUNNING = "running"
    DRAINING = "draining"
    CLOSED = "closed"


@dataclass
class SubmissionRecord:
    """One journaled submission."""

    seq: int
    kind: str
    spec: Dict[str, Any]
    status: str = "pending"  # pending | done | failed
    error: Optional[str] = None


def build_session_config(config_name: str, components: Dict[str, str]):
    """An :class:`~repro.hmc.config.HMCConfig` for a ``create`` request.

    Component overrides are validated against the registry up front so
    a bad seam/impl is a structured ``bad_request`` refusal, not a
    session that dies on first submit.
    """
    from repro.hmc.composition import SEAM_FIELDS, validate_selection
    from repro.hmc.config import HMCConfig

    builders = {
        "4link_4gb": HMCConfig.cfg_4link_4gb,
        "8link_8gb": HMCConfig.cfg_8link_8gb,
    }
    try:
        cfg = builders[config_name]()
    except KeyError:
        raise ServeError(
            "bad_request",
            f"unknown config {config_name!r} "
            f"(have: {', '.join(sorted(builders))})",
        ) from None
    overrides = {}
    for seam, key in sorted(components.items()):
        if seam not in SEAM_FIELDS:
            raise ServeError(
                "bad_request",
                f"unknown component seam {seam!r} "
                f"(have: {', '.join(SEAM_FIELDS)})",
            )
        try:
            validate_selection(seam, key)
        except HMCSimError as exc:  # ComponentError or HMCConfigError
            raise ServeError("bad_request", str(exc)) from None
        overrides[SEAM_FIELDS[seam]] = key
    return _replace(cfg, **overrides) if overrides else cfg


def _is_int(value: Any) -> bool:
    """A JSON integer (``bool`` subclasses ``int`` but is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _journal_line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _read_journal(path: Path) -> List[Dict[str, Any]]:
    """Every complete record of a journal.  A kill mid-append can only
    leave bytes after the last newline: that torn line is truncated away
    so later appends start on a fresh line."""
    try:
        complete, newline, torn = path.read_bytes().rpartition(b"\n")
        if torn:
            os.truncate(path, len(complete) + len(newline))
        records = [json.loads(line) for line in complete.split(b"\n") if line]
    except (OSError, ValueError) as exc:
        raise ServeError(
            "internal", f"cannot load session journal {path}: {exc}"
        ) from None
    if not records or records[0].get("format") != _JOURNAL_FORMAT:
        raise ServeError(
            "internal", f"{path} has no format-{_JOURNAL_FORMAT} session record"
        )
    return records


class SimSession:
    """One warm simulator with a durable submission journal.

    Args:
        name: session name (also the directory name under ``root``).
        config_name: named device configuration.
        components: ``{seam: impl}`` pipeline overrides.
        root: parent directory for the session directory.
        checkpoint_every: fence (drain + checkpoint) after every N-th
            completed submission; 1 fences every submission.
        sweep_runner: ``(specs) -> results`` callable for sweep
            submissions; the server injects one bound to the shared
            executor + disk cache.  ``None`` runs them in-process.
    """

    def __init__(
        self,
        name: str,
        config_name: str,
        components: Optional[Dict[str, str]] = None,
        *,
        root: Path,
        checkpoint_every: int = 1,
        sweep_runner: Optional[Callable[[List[Any]], List[Any]]] = None,
        _resume: bool = False,
    ) -> None:
        self.name = name
        self.config_name = config_name
        self.components = dict(components or {})
        self.root = Path(root) / name
        self.checkpoint_every = max(1, checkpoint_every)
        self.sweep_runner = sweep_runner
        self.state = SessionState.CREATED
        self.submissions: List[SubmissionRecord] = []
        #: ``submissions[_head:]`` are pending: segments run serially in
        #: seq order, so the executed set is always a prefix.
        self._head = 0
        self._failed = 0
        self.checkpointed_through = 0
        self.resumed = _resume
        # accept() (event-loop thread) and execute_next()/drain()/close()
        # (executor threads) append under this lock: lines never interleave.
        self._lock = threading.RLock()

        self.config = build_session_config(config_name, self.components)
        from repro.hmc.sim import HMCSim

        self.sim = HMCSim(self.config)
        if _resume:
            return  # load() replays the journal and opens it
        self.root.mkdir(parents=True, exist_ok=False)
        # The identity line lands whole (atomic create), so a journal
        # on disk always names its session.
        ident = dict(type="session", format=_JOURNAL_FORMAT, name=name,
                     config=config_name, components=self.components)
        atomic_write(self.root / JOURNAL_NAME, _journal_line(ident))
        self._journal = open(self.root / JOURNAL_NAME, "a", encoding="utf-8")

    # -- durability -----------------------------------------------------------

    def checkpoint_path(self, seq: int) -> Path:
        return self.root / f"ckpt-{seq}.json"

    def result_path(self, seq: int) -> Path:
        return self.root / f"result-{seq}.json"

    def _append(self, record: Dict[str, Any]) -> None:
        """One journal record: a single flushed line (no fsync — the
        guarantee is surviving a process kill, not a power cut)."""
        with self._lock:
            self._journal.write(_journal_line(record))
            self._journal.flush()

    @classmethod
    def load(
        cls,
        session_dir: Path,
        *,
        checkpoint_every: int = 1,
        sweep_runner: Optional[Callable[[List[Any]], List[Any]]] = None,
    ) -> "SimSession":
        """Rebuild a session from its journal.

        Every submission after the restored fence is pending again —
        finished or not — so the server re-executes them in order,
        regenerating byte-identical results.
        """
        session_dir = Path(session_dir)
        records = _read_journal(session_dir / JOURNAL_NAME)
        ident = records[0]
        self = cls(
            ident["name"], ident["config"], ident["components"],
            root=session_dir.parent, checkpoint_every=checkpoint_every,
            sweep_runner=sweep_runner, _resume=True,
        )
        self.root = session_dir
        outcomes: Dict[int, Dict[str, Any]] = {}
        fences: List[Dict[str, Any]] = []
        for rec in records[1:]:
            if rec["type"] == "accept":
                self.submissions.append(
                    SubmissionRecord(rec["seq"], rec["kind"], rec["spec"])
                )
            elif rec["type"] == "fence":
                fences.append(rec)
            else:  # done | failed; a re-execution's record wins
                outcomes[rec["seq"]] = rec

        # Restore the newest fence whose checkpoint parses; a missing
        # (collected) or torn one falls back to an older fence on a
        # clean sim, and no fence at all means a fresh sim.
        from repro.hmc import checkpoint
        from repro.hmc.sim import HMCSim

        fence = None
        for cand in reversed(fences):
            try:
                checkpoint.restore_checkpoint(
                    self.sim, self.checkpoint_path(cand["seq"])
                )
                fence = cand
                break
            except (OSError, ValueError):
                self.sim = HMCSim(self.config)
        self.checkpointed_through = self._head = fence["seq"] if fence else 0
        # Everything past the fence re-executes (deterministically
        # identical), including submissions that finished — or failed,
        # leaving partial side effects — whose effects the checkpoint
        # predates.
        for sub in self.submissions[: self._head]:
            out = outcomes.get(sub.seq, {"type": "failed"})
            sub.status, sub.error = out["type"], out.get("error")
            if sub.status == "failed":
                self._failed += 1
        if fence and fence["closed"] and not self.pending():
            self.state = SessionState.CLOSED
        elif self.submissions:
            self.state = SessionState.RUNNING
        # Only the restored fence's checkpoint is needed; newer ones are
        # torn or were never committed, older ones are superseded.
        for stale in session_dir.glob("ckpt-*.json"):
            if stale != self.checkpoint_path(self.checkpointed_through):
                stale.unlink()
        # A kill between atomic_write's mkstemp and os.replace leaves
        # its temp file; nothing reads one, so every *.tmp is debris.
        for debris in session_dir.glob("*.tmp"):
            debris.unlink()
        self._journal = open(self.root / JOURNAL_NAME, "a", encoding="utf-8")
        return self

    # -- the journal ----------------------------------------------------------

    def accept(self, kind: str, spec: Dict[str, Any]) -> int:
        """Journal one submission; returns its sequence number.

        The journal write happens *before* execution: once a client has
        its ack, the work survives a server kill.
        """
        if self.state in (SessionState.DRAINING, SessionState.CLOSED):
            raise ServeError(
                "draining",
                f"session {self.name!r} is {self.state.value} and not "
                f"accepting submissions",
            )
        self._validate_spec(kind, spec)
        with self._lock:
            seq = len(self.submissions) + 1
            self._append({"type": "accept", "seq": seq, "kind": kind, "spec": spec})
            self.submissions.append(SubmissionRecord(seq=seq, kind=kind, spec=spec))
        return seq

    def pending(self) -> List[SubmissionRecord]:
        return self.submissions[self._head :]

    def _validate_spec(self, kind: str, spec: Dict[str, Any]) -> None:
        from repro.workloads.registry import WORKLOADS

        name = spec.get("workload")
        if kind in ("workload", "sweep") and not (
            isinstance(name, str) and WORKLOADS.has(name)
        ):
            raise ServeError(
                "bad_request",
                f"unknown workload {name!r} "
                f"(have: {', '.join(WORKLOADS.keys())})",
            )
        if kind == "workload":
            if not isinstance(spec.get("params", {}), dict):
                raise ServeError("bad_request", "'params' must be an object")
        elif kind == "raw":
            requests = spec.get("requests")
            if not isinstance(requests, list) or not requests:
                raise ServeError(
                    "bad_request", "'requests' must be a non-empty list"
                )
            from repro.hmc.commands import hmc_rqst_t

            max_cycles = spec.get("max_cycles", 1)
            if not _is_int(max_cycles) or max_cycles < 1:
                raise ServeError(
                    "bad_request", "'max_cycles' must be a positive integer"
                )
            bounds = (("link", self.config.num_links), ("cub", self.config.num_devs))
            for i, rq in enumerate(requests):
                if not isinstance(rq, dict):
                    raise ServeError("bad_request", f"request {i} must be an object")
                cmd = rq.get("cmd")
                if not isinstance(cmd, str) or cmd not in hmc_rqst_t.__members__:
                    raise ServeError(
                        "bad_request", f"request {i}: unknown command {cmd!r}"
                    )
                if not _is_int(rq.get("addr")):
                    raise ServeError(
                        "bad_request", f"request {i}: 'addr' must be an integer"
                    )
                try:
                    bytes.fromhex(rq.get("data") or "")
                except (TypeError, ValueError):
                    raise ServeError(
                        "bad_request", f"request {i}: 'data' must be a hex string"
                    ) from None
                for key, bound in bounds:
                    value = rq.get(key, 0)
                    if not _is_int(value) or not 0 <= value < bound:
                        raise ServeError(
                            "bad_request",
                            f"request {i}: {key!r} must be an integer in "
                            f"[0, {bound})",
                        )
        elif kind == "sweep":
            frontend = WORKLOADS.get(name)
            if not hasattr(frontend, "task_spec"):
                raise ServeError(
                    "bad_request",
                    f"workload {name!r} cannot be swept (no task_spec)",
                )
            threads = spec.get("threads")
            if (
                not isinstance(threads, list)
                or not threads
                or not all(isinstance(t, int) and t > 0 for t in threads)
            ):
                raise ServeError(
                    "bad_request",
                    "'threads' must be a non-empty list of positive integers",
                )
        else:  # pragma: no cover - schemas rejects unknown kinds first
            raise ServeError("bad_request", f"unknown submission kind {kind!r}")

    # -- execution ------------------------------------------------------------

    def execute_next(self) -> Optional[SubmissionRecord]:
        """Run the oldest pending submission as one fenced segment.

        Returns the finished record (status ``done``/``failed``) or
        ``None`` when nothing is pending.  Simulation errors fail the
        *submission*, not the session: the sim is drained and fenced so
        later submissions start from a quiesced, checkpointed state.
        """
        if self._head == len(self.submissions):
            return None
        rec = self.submissions[self._head]
        if self.state == SessionState.CREATED:
            self.state = SessionState.RUNNING
        try:
            if rec.kind == "workload":
                payload = self._run_workload(rec.spec)
            elif rec.kind == "raw":
                payload = self._run_raw(rec.spec)
            else:
                payload = self._run_sweep(rec.spec)
            status, error = "done", None
        except Exception as exc:  # noqa: BLE001 - fault barrier: any
            # schema-valid submission can still blow up in workload
            # code (e.g. task_spec(**params) with an unknown key raises
            # TypeError); an escape here would kill the worker and
            # wedge the session on a permanently-pending record.
            status, error = "failed", f"{type(exc).__name__}: {exc}"
            payload = None
        # The fence: quiesce, persist the result, journal the outcome,
        # checkpoint.  Order matters — the result file must exist
        # before the journal marks the submission done.
        self.sim.drain()
        self._reap_orphans()
        if payload is not None:
            atomic_write(self.result_path(rec.seq), canonical_json(payload))
        self._append({"type": status, "seq": rec.seq, "error": error})
        self._advance(status, error)
        if (
            rec.seq % self.checkpoint_every == 0
            or self._head == len(self.submissions)
        ):
            self._fence(rec.seq)
        return rec

    def fail_next(self, error: str) -> Optional[SubmissionRecord]:
        """Mark the oldest pending submission failed without running it.

        The server's fault barrier: if :meth:`execute_next` itself
        raises (the fence code — drain, checkpoint, journal — failed),
        the head record must not stay pending or a restarted worker
        would re-pick the same poisoned submission forever.
        """
        if self._head == len(self.submissions):
            return None
        try:
            self._append(
                {"type": "failed", "seq": self._head + 1, "error": error}
            )
        except OSError:
            pass  # in-memory state still advances past the poison
        return self._advance("failed", error)

    def _advance(self, status: str, error: Optional[str]) -> SubmissionRecord:
        """Settle the head submission and move the head past it."""
        rec = self.submissions[self._head]
        rec.status, rec.error = status, error
        self._head += 1
        if status == "failed":
            self._failed += 1
        return rec

    def _reap_orphans(self) -> None:
        """Receive-and-discard responses nobody claimed.

        A failed segment (e.g. a deadlocked workload) leaves its
        threads' in-flight responses in the retire buffers with their
        tags still outstanding; unclaimed they would poison the next
        submission with spurious tag collisions.  After a successful
        segment this is a no-op.
        """
        for link in range(self.sim.config.num_links):
            while self.sim.recv_batch(link=link):
                pass

    def _fence(self, through_seq: int, *, closed: bool = False) -> None:
        """Checkpoint, then commit it with a ``fence`` record; only then
        unlink the previous checkpoint (``load`` ignores an uncommitted
        one)."""
        from repro.hmc import checkpoint

        previous = self.checkpointed_through
        checkpoint.save_checkpoint(self.sim, self.checkpoint_path(through_seq))
        self._append({"type": "fence", "seq": through_seq, "closed": closed})
        self.checkpointed_through = through_seq
        if previous != through_seq:
            self.checkpoint_path(previous).unlink(missing_ok=True)

    def load_result(self, seq: int) -> Optional[Any]:
        """The stored canonical payload for submission ``seq`` (or None)."""
        try:
            return json.loads(self.result_path(seq).read_text())
        except FileNotFoundError:
            return None

    # -- submission kinds -----------------------------------------------------

    def _run_workload(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        from repro.workloads.registry import WORKLOADS

        name = spec["workload"]
        frontend = WORKLOADS.get(name)
        params = frontend.resolve_params(spec.get("params") or {})
        # Warm when the frontend takes a context (device state
        # accumulates across submissions); frontends that build their
        # own (multi-wave kernels, trace replay) run cold, still
        # deterministically, so journal replay regenerates the result.
        sim = self.sim if frontend.accepts_sim else None
        stats = frontend.run(self.config, params, sim=sim)
        return {
            "workload": name,
            "warm": frontend.accepts_sim,
            "fingerprint": WORKLOADS.fingerprint(name),
            "stats": encode_value(stats),
        }

    def _run_raw(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Drive a pipelined request stream on the warm sim.

        Requests issue in order (stalls retry after a clock), responses
        are matched back to issue order by tag; the stream then drains
        to the fence.
        """
        from repro.hmc.commands import hmc_rqst_t

        sim = self.sim
        requests = spec["requests"]
        max_cycles = spec.get("max_cycles", 100_000)
        num_links = sim.config.num_links
        free_tags = list(range(min(0x800, 2 * len(requests) + 4)))
        tag_to_index: Dict[int, int] = {}
        responses: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        cycles = 0

        def tick(waiting_for: str) -> None:
            nonlocal cycles
            sim.clock()
            collect()
            cycles += 1
            if cycles > max_cycles:
                raise ServeError(
                    "internal", f"raw stream exceeded max_cycles ({waiting_for})"
                )

        def collect() -> None:
            for link in range(num_links):
                for rsp in sim.recv_batch(link=link):
                    idx = tag_to_index.pop(rsp.tag)
                    free_tags.append(rsp.tag)
                    responses[idx] = {
                        "index": idx,
                        "data": base64.b64encode(rsp.data).decode("ascii")
                        if rsp.data
                        else "",
                        "cycle": sim.cycle,
                    }

        for idx, rq in enumerate(requests):
            cmd = hmc_rqst_t[rq["cmd"]]
            data = bytes.fromhex(rq.get("data") or "")
            link = rq.get("link", idx % num_links)
            while not free_tags:
                tick("tags")
            tag = free_tags.pop()
            pkt = sim.build_memrequest(
                cmd, rq["addr"], tag, cub=rq.get("cub", 0), data=data
            )
            while sim.send(pkt, link=link) is HMCStatus.STALL:
                tick("stall")
            if sim._expects_response(pkt):
                tag_to_index[tag] = idx
            else:
                free_tags.append(tag)
                responses[idx] = {"index": idx, "data": "", "cycle": -1}

        while tag_to_index and cycles <= max_cycles:
            sim.clock()
            collect()
            cycles += 1
        if tag_to_index:
            raise ServeError("internal", "raw stream failed to drain")
        return {
            "responses": [r for r in responses if r is not None],
            "issued": len(requests),
            "cycle": sim.cycle,
        }

    def _run_sweep(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Fan a thread sweep over the shared executor + disk cache.

        Never touches the session sim, so concurrent sessions
        submitting the same sweep points share work through the cache's
        fingerprint keys rather than re-simulating.
        """
        from repro.parallel.tasks import run_task
        from repro.workloads.registry import WORKLOADS

        name = spec["workload"]
        frontend = WORKLOADS.get(name)
        threads = spec["threads"]
        params = spec.get("params") or {}
        specs = [
            frontend.task_spec(self.config, int(n), **params) for n in threads
        ]
        if self.sweep_runner is not None:
            results = self.sweep_runner(specs)
        else:
            results = [run_task(s) for s in specs]
        return {
            "workload": name,
            "fingerprint": WORKLOADS.fingerprint(name),
            "threads": list(threads),
            "results": [encode_value(r) for r in results],
        }

    # -- lifecycle ------------------------------------------------------------

    def drain(self) -> None:
        """Stop accepting; fence the current state durably.

        Pending journaled submissions stay journaled — a restarted
        server re-executes them — but nothing new is admitted.
        """
        if self.state == SessionState.CLOSED:
            return
        self.state = SessionState.DRAINING
        self.sim.drain()
        # The checkpoint captures the sim *after* every executed
        # submission (segments are serial and each ends quiesced), so
        # the fence label is the head — a stale label would make
        # resume replay work the snapshot already contains.
        self._fence(self._head)

    def close(self) -> None:
        """Final fence; the session directory remains readable."""
        if self.state == SessionState.CLOSED:
            return
        self.sim.drain()
        self._fence(self._head, closed=True)
        self.state = SessionState.CLOSED
        self._journal.close()

    def snapshot(self) -> Dict[str, Any]:
        """Telemetry view of the session (O(1) in the journal length)."""
        return {
            "session": self.name,
            "state": self.state.value,
            "config": self.config_name,
            "components": dict(self.components),
            "cycle": self.sim.cycle,
            "submissions": len(self.submissions),
            "pending": len(self.submissions) - self._head,
            "done": self._head - self._failed,
            "failed": self._failed,
            "checkpointed_through": self.checkpointed_through,
            "resumed": self.resumed,
        }
