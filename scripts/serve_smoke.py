#!/usr/bin/env python
"""End-to-end smoke for the simulation service (the CI serve-smoke job).

Drives ``repro serve`` as a real subprocess and asserts the service
contract from the outside:

1. Four concurrent clients, mixed workloads, results byte-for-byte
   identical (canonical JSON) to direct, serverless runs.
2. Over-quota submission refused with a structured ``quota_exceeded``
   error; the session stays healthy.
3. SIGTERM with journaled-but-unexecuted work: clean exit (code 0)
   with a checkpoint per live session; a restarted server resumes
   from the checkpoints and finishes the journal tail with
   byte-identical results.
4. SIGKILL mid-stream: a tail submitted without waiting, the server
   killed with ``kill -9`` while it executes, a restarted server
   finishes it with payloads byte-identical to an uninterrupted run,
   leaving one checkpoint and no stray temp file in the session.

Exit code 0 = every check passed.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.errors import ServeError
from repro.hmc.config import HMCConfig
from repro.serve import schemas
from repro.serve.client import ServeClient
from repro.workloads.registry import WORKLOADS

JOBS = [
    ("c1", {"workload": "mutex", "params": {"threads": 2}}),
    ("c2", {"workload": "mutex", "params": {"threads": 4}}),
    ("c3", {"workload": "ticket", "params": {"threads": 2}}),
    ("c4", {"workload": "barrier", "params": {"threads": 2}}),
]

#: The journal tail left pending across the SIGTERM kill.
TAIL = [
    ("workload", {"workload": "ticket", "params": {"threads": 3}}),
    ("workload", {"workload": "mutex", "params": {"threads": 3}}),
]

#: Submitted without waiting, then the server is SIGKILLed mid-stream.
KILL_TAIL = [
    ("workload", {"workload": family, "params": {"threads": threads}})
    for family, threads in [
        ("mutex", 16), ("ticket", 8), ("mutex", 32), ("barrier", 8),
        ("mutex", 24), ("ticket", 12), ("mutex", 8), ("barrier", 4),
    ]
]


def direct_payload(spec) -> str:
    """What a serverless run of ``spec`` canonicalises to."""
    frontend = WORKLOADS.get(spec["workload"])
    params = frontend.resolve_params(spec["params"])
    stats = frontend.run(HMCConfig.cfg_4link_4gb(), params)
    return schemas.canonical_json(
        {
            "workload": spec["workload"],
            "warm": frontend.accepts_sim,
            "fingerprint": WORKLOADS.fingerprint(spec["workload"]),
            "stats": schemas.encode_value(stats),
        }
    )


def start_server(sock: Path, state: Path, *, max_requests: int) -> subprocess.Popen:
    if sock.exists():  # left behind by a killed server
        sock.unlink()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", str(sock),
            "--state-dir", str(state),
            "--max-requests", str(max_requests),
            "--checkpoint-every", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    while not sock.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            out = proc.communicate()[0] if proc.poll() is not None else ""
            raise SystemExit(f"server failed to come up:\n{out}")
        time.sleep(0.05)
    return proc


def stop_server(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    out = proc.communicate(timeout=120)[0]
    assert proc.returncode == 0, (
        f"server exited {proc.returncode} on SIGTERM:\n{out}"
    )
    return out


def reference_payloads(tmp: Path, name: str, specs) -> list:
    """Canonical payloads of ``specs`` on a plain, uninterrupted warm
    session (later submissions see the earlier ones' device state, so
    per-spec cold runs are not the right baseline)."""
    from repro.serve.session import SimSession

    ref = SimSession(name, "4link_4gb", root=tmp)
    for kind, spec in specs:
        ref.accept(kind, spec)
    while ref.execute_next() is not None:
        pass
    return [
        schemas.canonical_json(ref.load_result(seq))
        for seq in range(1, len(specs) + 1)
    ]


def wait_idle(client: ServeClient, session: str) -> dict:
    """Poll until the session has nothing pending; its snapshot."""
    deadline = time.monotonic() + 300
    while True:
        snap = client.stat(session)["snapshot"]
        if snap["pending"] == 0:
            return snap
        if time.monotonic() > deadline:
            check(f"{session} resumed tail finished", False, str(snap))
        time.sleep(0.1)


def journal_counts(session_dir: Path) -> dict:
    """How many records of each type the session journal holds."""
    counts: dict = {}
    for line in (session_dir / "journal.jsonl").read_text().splitlines():
        kind = json.loads(line)["type"]
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    if not ok:
        raise SystemExit(f"serve smoke failed at: {label} {detail}")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    sock, state = tmp / "sim.sock", tmp / "state"
    # Quota 3 = one submission per client up front + the 2-deep tail on
    # c1; the probe beyond that must be refused.
    proc = start_server(sock, state, max_requests=3)
    print(f"server up on {sock}")

    # --- 1. four concurrent clients, byte-for-byte vs direct runs ---
    payloads, errors = {}, []

    def drive(name, spec):
        try:
            with ServeClient(str(sock), timeout=300.0) as client:
                session = client.create(session=name)
                reply = client.submit(session, "workload", spec, wait=True)
                assert reply["status"] == "done", reply
                payloads[name] = schemas.canonical_json(reply["payload"])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"{name}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=drive, args=job) for job in JOBS]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    check("4 concurrent clients completed", not errors, "; ".join(errors))
    for name, spec in JOBS:
        check(
            f"{name} ({spec['workload']}) byte-identical to direct run",
            payloads[name] == direct_payload(spec),
        )

    # --- 2. over-quota refused with a structured error ---
    with ServeClient(str(sock), timeout=300.0) as client:
        for kind, spec in TAIL:
            client.submit("c1", kind, spec)  # journaled, may stay pending
        try:
            client.submit("c1", "workload", JOBS[0][1])
            check("over-quota submission refused", False)
        except ServeError as exc:
            check(
                "over-quota submission refused",
                exc.code == "quota_exceeded",
                f"code={exc.code}",
            )
        snap = client.stat("c1")["snapshot"]
        check("session healthy after refusal", snap["state"] in ("created", "running"))

    # --- 3. SIGTERM: clean exit, checkpoints on disk ---
    stop_server(proc)
    check("socket removed on drain", not sock.exists())
    for name, _spec in JOBS:
        check(
            f"{name} checkpointed",
            len(list((state / name).glob("ckpt-*.json"))) == 1
            and journal_counts(state / name).get("fence", 0) >= 1,
        )

    # --- 4. restart: resume from checkpoints, finish the tail ---
    proc = start_server(sock, state, max_requests=len(KILL_TAIL))
    with ServeClient(str(sock), timeout=300.0) as client:
        snap = wait_idle(client, "c1")
        check("session resumed from checkpoint", snap["resumed"] is True)
        check(
            "journal tail executed after restart",
            snap["done"] == 1 + len(TAIL) and snap["failed"] == 0,
            str(snap),
        )
        history = {
            m["submission"]: m["payload"]
            for m in client.attach("c1")["history"]
        }
    reference = reference_payloads(tmp, "smoke-ref", [("workload", JOBS[0][1])] + TAIL)
    for seq, want in enumerate(reference, start=1):
        check(
            f"resumed result {seq} byte-identical to uninterrupted run",
            schemas.canonical_json(history[seq]) == want,
        )

    # --- 5. SIGKILL mid-stream: acked work survives, bit-identically ---
    with ServeClient(str(sock), timeout=300.0) as client:
        client.create(session="k1")
        for kind, spec in KILL_TAIL:
            client.submit("k1", kind, spec)  # acked = journaled
    # Kill as soon as the first fence lands (--checkpoint-every 2: after
    # seq 2), so the restart restores a checkpoint *and* replays a tail.
    deadline = time.monotonic() + 60
    while "fence" not in journal_counts(state / "k1"):
        check("first fence landed", time.monotonic() < deadline)
        time.sleep(0.002)
    proc.send_signal(signal.SIGKILL)
    proc.communicate(timeout=60)
    counts = journal_counts(state / "k1")
    check(
        "every acked submission journaled at the kill",
        counts.get("accept") == len(KILL_TAIL),
        str(counts),
    )
    check(
        "killed mid-stream",
        0 < counts.get("done", 0) < len(KILL_TAIL),
        f"{counts.get('done', 0)}/{len(KILL_TAIL)} finished, "
        f"{counts.get('fence', 0)} fences",
    )
    # A kill between atomic_write's mkstemp and os.replace strands a
    # temp file; plant one so the restart's reaping is exercised even
    # when this kill landed elsewhere.
    (state / "k1" / "ckpt-3.json.smoke.tmp").write_text('{"torn')
    proc = start_server(sock, state, max_requests=len(KILL_TAIL))
    with ServeClient(str(sock), timeout=300.0) as client:
        snap = wait_idle(client, "k1")
        check(
            "killed tail finished after restart",
            snap["resumed"] is True and snap["done"] == len(KILL_TAIL),
            str(snap),
        )
        leftovers = sorted(f.name for f in (state / "k1").iterdir())
        check(
            "no temp file and one checkpoint left after restart",
            not any(n.endswith(".tmp") for n in leftovers)
            and sum(n.startswith("ckpt-") for n in leftovers) == 1,
            str(leftovers),
        )
        history = {
            m["submission"]: m["payload"]
            for m in client.attach("k1")["history"]
        }
    reference = reference_payloads(tmp, "kill-ref", KILL_TAIL)
    check(
        "SIGKILLed tail byte-identical to uninterrupted run",
        [schemas.canonical_json(history[seq]) for seq in sorted(history)]
        == reference,
    )
    stop_server(proc)
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
