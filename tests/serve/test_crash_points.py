"""Crash at every durable write a session makes; restart must be exact.

A session's durable writes are: the result file, each journal append,
each checkpoint write and each checkpoint unlink.  The harness counts
them in an uninterrupted run, then replays the run once per write with
a ``BaseException`` raised immediately before it and once with it
raised immediately after, restarts with :meth:`SimSession.load`, lets
the "client" resubmit whatever never reached the journal, and requires
every result file to be byte-identical to the uninterrupted run — on
both datapaths, with a fence after every submission and after every
second one.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.hmc import checkpoint
from repro.serve import session as session_mod
from repro.serve.session import SessionState, SimSession
from tests.serve.test_lifecycle import DATAPATHS, SUBMISSIONS, _skip_unless_available


class Crash(BaseException):
    """Stands in for a kill: not an ``Exception``, so no handler eats it."""


class Injector:
    """Wraps every durable write; raises :class:`Crash` at one of them.

    ``events`` lists the writes seen so far, in order.  With
    ``target=(index, "before"|"after")`` the write with that index
    crashes on the given side; ``target=None`` only records.
    """

    def __init__(self, monkeypatch, target=None) -> None:
        self.events = []
        self.target = target
        real_atomic = session_mod.atomic_write
        real_append = SimSession._append
        real_save = checkpoint.save_checkpoint
        real_unlink = pathlib.Path.unlink
        inj = self

        def atomic_write(path, text):
            label = f"result {pathlib.Path(path).name}"
            return inj._around(label, real_atomic, path, text)

        def append(session, record):
            label = f"journal {record['type']}"
            return inj._around(label, real_append, session, record)

        def save_checkpoint(sim, path, **kwargs):
            return inj._around(
                f"checkpoint {pathlib.Path(path).name}", real_save, sim, path, **kwargs
            )

        def unlink(path, *args, **kwargs):
            if not path.name.startswith("ckpt-"):
                return real_unlink(path, *args, **kwargs)
            label = f"unlink {path.name}"
            return inj._around(label, real_unlink, path, *args, **kwargs)

        monkeypatch.setattr(session_mod, "atomic_write", atomic_write)
        monkeypatch.setattr(SimSession, "_append", append)
        monkeypatch.setattr(checkpoint, "save_checkpoint", save_checkpoint)
        monkeypatch.setattr(pathlib.Path, "unlink", unlink)

    def _around(self, label, fn, *args, **kwargs):
        index = len(self.events)
        self.events.append(label)
        if self.target == (index, "before"):
            raise Crash(label)
        result = fn(*args, **kwargs)
        if self.target == (index, "after"):
            raise Crash(label)
        return result


def _drive(session: SimSession) -> None:
    """The client's whole life: submit what is not journaled, run, close."""
    for kind, spec in SUBMISSIONS[len(session.submissions):]:
        session.accept(kind, spec)
    while session.execute_next() is not None:
        pass
    session.close()


def _results(session_dir: pathlib.Path) -> list:
    return [
        (session_dir / f"result-{seq}.json").read_text()
        for seq in range(1, len(SUBMISSIONS) + 1)
    ]


def _check_final(revived: SimSession, reference) -> None:
    """A restarted session finished: same bytes, one checkpoint, closed."""
    assert [r.status for r in revived.submissions] == ["done"] * len(SUBMISSIONS)
    assert _results(revived.root) == reference
    assert len(list(revived.root.glob("ckpt-*.json"))) <= 1
    assert not list(revived.root.glob("*.tmp"))
    # The closed session reloads closed, with nothing left to run.
    again = SimSession.load(revived.root, checkpoint_every=revived.checkpoint_every)
    assert again.state == SessionState.CLOSED
    assert again.pending() == []


@pytest.mark.parametrize("every", [1, 2])
@pytest.mark.parametrize("components", DATAPATHS)
def test_every_crash_point_restarts_bit_identically(
    tmp_path, monkeypatch, components, every
):
    _skip_unless_available(components)
    ref = SimSession(
        "ref", "4link_4gb", components, root=tmp_path, checkpoint_every=every
    )
    with monkeypatch.context() as mp:
        recorder = Injector(mp)
        _drive(ref)
    reference = _results(ref.root)
    events = recorder.events
    kinds = {label.split()[0] for label in events}
    assert kinds == {"result", "journal", "checkpoint", "unlink"}, events

    failures = []
    for index, label in enumerate(events):
        for side in ("before", "after"):
            name = f"v{index}{side[0]}"
            victim = SimSession(
                name, "4link_4gb", components, root=tmp_path, checkpoint_every=every
            )
            with monkeypatch.context() as mp:
                Injector(mp, target=(index, side))
                try:
                    _drive(victim)
                except Crash:
                    pass
                else:  # pragma: no cover - the event list is deterministic
                    failures.append(f"{side} {label}: no crash")
                    continue
            del victim
            try:
                revived = SimSession.load(tmp_path / name, checkpoint_every=every)
                _drive(revived)
                _check_final(revived, reference)
            except AssertionError as exc:
                failures.append(f"crash {side} #{index} {label}: {exc}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("components", DATAPATHS)
def test_checkpoint_landed_fence_not_recorded(tmp_path, monkeypatch, components):
    """The window where the new checkpoint is on disk but not committed.

    With ``checkpoint_every=2`` the first fence follows seq 2.  Dying
    right after its checkpoint is written, before anything records
    it, must not let a restart treat that checkpoint as the state
    after seq 0: seq 1-2 would run twice on top of themselves.
    """
    _skip_unless_available(components)
    ref = SimSession("ref", "4link_4gb", components, root=tmp_path, checkpoint_every=2)
    for kind, spec in SUBMISSIONS:
        ref.accept(kind, spec)
    while ref.execute_next() is not None:
        pass
    reference = _results(ref.root)

    victim = SimSession(
        "victim", "4link_4gb", components, root=tmp_path, checkpoint_every=2
    )
    for kind, spec in SUBMISSIONS:
        victim.accept(kind, spec)
    real_save = checkpoint.save_checkpoint

    def save_then_die(sim, path, **kwargs):
        real_save(sim, path, **kwargs)
        raise Crash("after checkpoint write")

    with monkeypatch.context() as mp:
        mp.setattr(checkpoint, "save_checkpoint", save_then_die)
        victim.execute_next()
        with pytest.raises(Crash):
            victim.execute_next()
    del victim

    revived = SimSession.load(tmp_path / "victim", checkpoint_every=2)
    assert revived.checkpointed_through == 0
    assert [r.seq for r in revived.pending()] == [1, 2, 3, 4]
    while revived.execute_next() is not None:
        pass
    assert _results(revived.root) == reference


@pytest.mark.parametrize("components", DATAPATHS)
def test_torn_final_journal_line_is_ignored(tmp_path, components):
    _skip_unless_available(components)
    ref = SimSession("ref", "4link_4gb", components, root=tmp_path)
    _drive(ref)
    reference = _results(ref.root)

    victim = SimSession("victim", "4link_4gb", components, root=tmp_path)
    for kind, spec in SUBMISSIONS[:3]:
        victim.accept(kind, spec)
    victim.execute_next()
    del victim
    # A kill mid-append leaves a line with no newline: here the next
    # accept, which the client never saw acknowledged.
    journal = tmp_path / "victim" / session_mod.JOURNAL_NAME
    whole = journal.read_bytes()
    with open(journal, "ab") as fh:
        fh.write(b'{"kind":"raw","seq":4,"sp')

    revived = SimSession.load(tmp_path / "victim")
    assert journal.read_bytes() == whole  # torn tail cut off
    assert [r.seq for r in revived.pending()] == [2, 3]
    _drive(revived)
    _check_final(revived, reference)
    for line in journal.read_text().splitlines():
        json.loads(line)


@pytest.mark.parametrize("components", DATAPATHS)
def test_truncated_checkpoint_falls_back_to_previous_fence(
    tmp_path, monkeypatch, components
):
    _skip_unless_available(components)
    ref = SimSession("ref", "4link_4gb", components, root=tmp_path)
    _drive(ref)
    reference = _results(ref.root)

    # Die after fence 3 is journaled, before ckpt-2 is collected; then
    # tear ckpt-3 (the disk lost its tail).  Fence 3's record exists,
    # but its checkpoint does not parse, so fence 2 must be used.
    victim = SimSession("victim", "4link_4gb", components, root=tmp_path)
    for kind, spec in SUBMISSIONS:
        victim.accept(kind, spec)
    real_unlink = pathlib.Path.unlink

    def unlink(path, *args, **kwargs):
        if path.name == "ckpt-2.json":
            raise Crash("before unlink of ckpt-2")
        return real_unlink(path, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(pathlib.Path, "unlink", unlink)
        with pytest.raises(Crash):
            while victim.execute_next() is not None:
                pass
    del victim
    session_dir = tmp_path / "victim"
    ckpt3 = session_dir / "ckpt-3.json"
    ckpt3.write_bytes(ckpt3.read_bytes()[: ckpt3.stat().st_size // 2])

    revived = SimSession.load(session_dir)
    assert revived.checkpointed_through == 2
    assert [r.seq for r in revived.pending()] == [3, 4]
    _drive(revived)
    _check_final(revived, reference)


def test_load_reaps_stray_temp_files(tmp_path):
    # A SIGKILL between atomic_write's mkstemp and os.replace runs no
    # exception handler, so the temp file outlives the process; the
    # restart must remove every one of them, whichever writer left it.
    ref = SimSession("ref", "4link_4gb", root=tmp_path)
    _drive(ref)
    reference = _results(ref.root)

    victim = SimSession("victim", "4link_4gb", root=tmp_path)
    for kind, spec in SUBMISSIONS:
        victim.accept(kind, spec)
    victim.execute_next()
    victim.execute_next()
    del victim
    session_dir = tmp_path / "victim"
    for stray in ("ckpt-3.json.k3j4.tmp", "result-3.json.q81z.tmp"):
        (session_dir / stray).write_text('{"torn')

    revived = SimSession.load(session_dir)
    assert not list(session_dir.glob("*.tmp"))
    assert [p.name for p in session_dir.glob("ckpt-*")] == ["ckpt-2.json"]
    _drive(revived)
    _check_final(revived, reference)
