"""The ``serve_roundtrip`` workload: one client, one warm session, closed loop.

``python -m repro serve`` runs as a subprocess with its default
settings (a checkpoint after every submission, a 256-submission
quota).  One connection creates one session and then submits, waiting
for each reply, a cycle of ``mutex`` (4 threads), ``stream`` and a
``raw`` batch of 8 WR64 then 8 RD64.  Raw addresses and data come from
the seed; each raw batch reads the blocks the previous one wrote.

Checks, failing on the first wrong reply: every status is ``done``;
every ``stream`` payload is byte-identical; every ``mutex`` payload
equals the first except its cumulative ``cmc_executions``, which grows
by the same step; every RD64 returns what the previous batch wrote
(zeros for the first).  A traced run also replays the sequence
in-process through ``SimSession`` and through a traced server, and
compares all three byte for byte.
"""

from __future__ import annotations

import base64
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.measure import (
    Run,
    Timings,
    check,
    digest,
    import_speed_factor,
    peak_rss_mb,
    SETUP_REPEATS,
    probe,
    repeated,
    roundtrip_metrics,
)
from perfbench.tracer import SpanLog, layer_metrics
from repro.serve.client import ServeClient
from repro.serve.schemas import canonical_json
from repro.serve.session import SimSession

__all__ = ["ServeWorkload", "make_specs", "ReplyCheck"]

#: Submissions per leg: enough round trips for the tail percentile,
#: inside the default quota of 256 per session.
SUBMISSIONS = 240
RAW_BASE = 64 << 20  # clear of the lock word and the stream arrays
RAW_BLOCKS = 1 << 16
RAW_WRITES = 8
BLOCK = 64
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"
#: Simulated cycles of one ``mutex`` and one ``stream`` submission as
#: this simulator records them.  Neither depends on the seed; speed-only
#: changes keep them, and a change in either direction has broken parity.
MUTEX_CYCLES = 15
STREAM_CYCLES = 72

Spec = Tuple[str, Dict[str, Any]]


def make_specs(seed: int) -> List[Spec]:
    """The submission sequence; every third one is a seeded raw batch."""
    rng = random.Random(seed)
    specs: List[Spec] = []
    previous = _fresh_blocks(rng, [])
    for i in range(SUBMISSIONS):
        kind = i % 3
        if kind == 0:
            specs.append(("workload", {"workload": "mutex", "params": {"threads": 4}}))
        elif kind == 1:
            specs.append(("workload", {"workload": "stream", "params": {}}))
        else:
            blocks = _fresh_blocks(rng, previous)
            requests = [
                {
                    "cmd": "WR64",
                    "addr": RAW_BASE + b * BLOCK,
                    "data": rng.getrandbits(8 * BLOCK).to_bytes(BLOCK, "little").hex(),
                }
                for b in blocks
            ] + [{"cmd": "RD64", "addr": RAW_BASE + b * BLOCK} for b in previous]
            specs.append(("raw", {"requests": requests}))
            previous = blocks
    return specs


def _fresh_blocks(rng: random.Random, avoid: List[int]) -> List[int]:
    """``RAW_WRITES`` distinct blocks, none of them read in the same batch."""
    out: List[int] = []
    while len(out) < RAW_WRITES:
        b = rng.randrange(RAW_BLOCKS)
        if b not in avoid and b not in out:
            out.append(b)
    return sorted(out)


class ReplyCheck:
    """Checks each reply as it arrives; raises ``CheckFailed`` on the first bad one."""

    def __init__(self) -> None:
        self.memory: Dict[int, str] = {}  # addr -> hex data last written
        self.stream: Optional[str] = None
        self.mutex: Optional[Dict[str, Any]] = None
        self.mutex_step = 0
        self.mutex_seen = 0
        self.canonical: List[str] = []
        self.requests = 0
        self.stream_cycles = 0

    def __call__(self, index: int, spec: Spec, reply: Dict[str, Any]) -> None:
        kind, body = spec
        check(
            reply.get("status") == "done",
            f"submission {index} ({kind}) ended {reply.get('status')!r}: "
            f"{reply.get('error')}",
        )
        payload = reply["payload"]
        text = canonical_json(payload)
        self.canonical.append(text)
        if kind == "raw":
            self._raw(index, body, payload)
        elif body["workload"] == "stream":
            fields = payload["stats"]["fields"]
            if self.stream is None:
                check(
                    fields["cycles"] == STREAM_CYCLES,
                    f"stream simulated {fields['cycles']} cycles, recorded {STREAM_CYCLES}",
                )
                self.stream = text
            check(text == self.stream, f"submission {index}: stream payload changed")
            self.requests += fields["bytes_moved"] // BLOCK
            self.stream_cycles += fields["cycles"]
        else:
            fields = dict(payload["stats"]["fields"])
            self.mutex_seen += 1
            execs = fields.pop("cmc_executions")
            if self.mutex is None:
                check(
                    fields["total_cycles"] == MUTEX_CYCLES,
                    f"mutex simulated {fields['total_cycles']} cycles, recorded {MUTEX_CYCLES}",
                )
                self.mutex, self.mutex_step = fields, execs
            check(
                fields == self.mutex and execs == self.mutex_step * self.mutex_seen,
                f"submission {index}: mutex payload changed "
                f"({fields}, cmc_executions {execs})",
            )
            self.requests += self.mutex_step

    def _raw(self, index: int, body: Dict[str, Any], payload: Dict[str, Any]) -> None:
        requests = body["requests"]
        responses = payload["responses"]
        check(
            len(responses) == len(requests) == payload["issued"],
            f"submission {index}: {len(responses)} raw responses",
        )
        for rq, rsp in zip(requests, responses):
            if rq["cmd"] == "RD64":
                got = base64.b64decode(rsp["data"]).hex()
                want = self.memory.get(rq["addr"], "00" * BLOCK)
                check(got == want, f"submission {index}: RD64 {rq['addr']:#x} read {got[:16]}...")
        for rq in requests:
            if rq["cmd"] == "WR64":
                self.memory[rq["addr"]] = rq["data"]
        self.requests += len(requests)

    @property
    def digest(self) -> str:
        return digest(self.canonical)


class Server:
    """One ``repro serve`` subprocess in its own work directory."""

    def __init__(self, work: Path, spans: Optional[Path] = None) -> None:
        self.work = work
        self.sock = work / "s.sock"
        self.state = work / "state"
        work.mkdir(parents=True)
        argv = ["serve", "--socket", str(self.sock), "--state-dir", str(self.state)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(spans), *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        self.client: Optional[ServeClient] = None
        self.log = open(work / "server.log", "w")
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 60
            while self.client is None:
                check(
                    self.proc.poll() is None and time.monotonic() < deadline,
                    f"server did not start: {self.tail()}",
                )
                try:
                    self.client = ServeClient(str(self.sock), timeout=120.0)
                except (FileNotFoundError, ConnectionRefusedError):
                    # Not bound yet, or bound but not yet listening.
                    time.sleep(0.005)
            self.session = self.client.create()
        except BaseException:
            self._end()
            raise

    def tail(self) -> str:
        return (self.work / "server.log").read_text()[-2000:]

    def _end(self) -> None:
        """SIGTERM (the graceful drain), then wait; kill if it hangs."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    def stop(self) -> None:
        self._end()
        check(self.proc.returncode == 0, f"server exited {self.proc.returncode}: {self.tail()}")

    def session_dir(self) -> Path:
        return self.state / self.session


def drive(server: Server, specs: List[Spec], checker: ReplyCheck) -> Timings:
    """The closed loop: host seconds of every round trip, and the probes."""
    leg = Timings()
    client, session = server.client, server.session
    for i, (kind, body) in enumerate(specs):
        leg.probes.append(probe())
        t0 = time.perf_counter()
        reply = client.submit(session, kind, body, wait=True)
        leg.latencies.append(time.perf_counter() - t0)
        checker(i, (kind, body), reply)
    return leg


def dir_bytes(path: Path, journal: bool) -> int:
    """Bytes of the journal files (or of the checkpoints) in a session dir."""
    total = 0
    for f in path.iterdir():
        is_ckpt = f.name.startswith(("checkpoint", "ckpt"))
        is_result = f.name.startswith("result-")
        if (journal and not (is_ckpt or is_result)) or (not journal and is_ckpt):
            total += f.stat().st_size
    return total


class ServeWorkload:
    """Set-up, the untraced run and the traced run of ``serve_roundtrip``.

    A leg is always ``SUBMISSIONS`` round trips: the session quota, not
    ``--seconds``, bounds it.
    """

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.specs: List[Spec] = []
        self.server: Optional[Server] = None

    def setup(self) -> Tuple[float, float]:
        """Inputs, then server start + ``create``: median (reference, unscaled) s."""
        starts = iter(range(SETUP_REPEATS))

        def make() -> Server:
            self.specs = make_specs(self.seed)
            return Server(self.work / f"setup{next(starts)}")

        self.server, ref, raw = repeated(
            make, discard=Server.stop, speed=import_speed_factor
        )
        return ref, raw

    def close(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    def _leg(self, server: Server) -> Tuple[Timings, ReplyCheck, int]:
        checker = ReplyCheck()
        try:
            leg = drive(server, self.specs, checker)
            cycle = server.client.stat(server.session)["snapshot"]["cycle"]
        finally:
            server.stop()
        return leg, checker, cycle

    def measure(self) -> Run:
        server, self.server = self.server, None
        leg, checker, cycle = self._leg(server)
        ref = leg.ref
        run = Run(attempted=len(ref), notes=[f"digest {checker.digest}", leg.speed_note()])
        run.metrics = {
            "sim_requests_per_s": checker.requests / sum(ref),
            "sim_cycles": cycle + checker.stream_cycles,
            **roundtrip_metrics(ref, sum(ref)),
            "peak_rss_mb": peak_rss_mb(children=True),
        }
        return run

    def measure_traced(self, spans_path: Path) -> Run:
        server, self.server = self.server, None
        plain, plain_check, _ = self._leg(server)
        traced_server = Server(self.work / "traced", spans=spans_path)
        traced, traced_check, _ = self._leg(traced_server)
        check(
            traced_check.canonical == plain_check.canonical,
            "traced server returned other payloads than the untraced one",
        )
        direct = replay_in_process(self.specs, self.work / "direct")
        mismatch = [i for i, (a, b) in enumerate(zip(direct, plain_check.canonical)) if a != b]
        check(
            len(direct) == len(plain_check.canonical) and not mismatch,
            f"served payloads differ from in-process SimSession at {mismatch[:5]}",
        )
        log = SpanLog.read(spans_path)
        run = Run(attempted=2 * len(plain.latencies), notes=[f"digest {plain_check.digest}"])
        run.layers = layer_metrics(log, sum(traced.latencies))
        stats = log.summarize()
        accept = stats["serve.accept"].durations
        execute = stats["serve.execute"].durations
        check(
            len(accept) == len(execute) == len(traced.latencies),
            f"{len(accept)} accepts, {len(execute)} executes, "
            f"{len(traced.latencies)} round trips",
        )
        session_dir = traced_server.session_dir()
        run.layers.update({
            "serve.journal_bytes": dir_bytes(session_dir, journal=True),
            "serve.checkpoint_bytes": dir_bytes(session_dir, journal=False),
            "serve.wire.p50_ms": 1e3 * statistics.median(
                rt - a - e for rt, a, e in zip(traced.latencies, accept, execute)
            ),
            "trace.requests_per_s_ratio": (traced_check.requests / sum(traced.ref))
            / (plain_check.requests / sum(plain.ref)),
            "trace.roundtrip_p50_ratio": statistics.median(traced.ref)
            / statistics.median(plain.ref),
            "datapath.vector_vs_scalar": 0.0,
        })
        run.notes.append("datapath.vector_vs_scalar: not measured on serve (0)")
        return run


def replay_in_process(specs: List[Spec], root: Path) -> List[str]:
    """The same submissions through ``SimSession`` directly: canonical payloads."""
    root.mkdir(parents=True)
    session = SimSession("direct", "4link_4gb", root=root, checkpoint_every=1)
    out = []
    for kind, body in specs:
        seq = session.accept(kind, body)
        rec = session.execute_next()
        check(rec is not None and rec.status == "done", f"in-process {seq}: {rec}")
        out.append(session.result_path(seq).read_text())
    session.close()
    return out
