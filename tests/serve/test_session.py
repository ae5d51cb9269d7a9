"""SimSession: journal durability, fences, validation, resume."""

from __future__ import annotations

import base64
import json
import sys
import threading

import pytest

from repro.errors import ServeError
from repro.hmc import checkpoint
from repro.serve.session import (
    JOURNAL_NAME,
    SessionState,
    SimSession,
    build_session_config,
)


def _mutex(threads=2):
    return {"workload": "mutex", "params": {"threads": threads}}


def make_session(root, name="s1", **kwargs):
    return SimSession(name, "4link_4gb", root=root, **kwargs)


def journal(session):
    """The session's journal records after the identity line."""
    lines = (session.root / JOURNAL_NAME).read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


class TestConfig:
    def test_named_configs(self):
        assert build_session_config("4link_4gb", {}).num_links == 4
        assert build_session_config("8link_8gb", {}).num_links == 8

    def test_unknown_config(self):
        with pytest.raises(ServeError) as exc:
            build_session_config("16link", {})
        assert exc.value.code == "bad_request"

    def test_unknown_seam(self):
        with pytest.raises(ServeError) as exc:
            build_session_config("4link_4gb", {"alu": "fast"})
        assert exc.value.code == "bad_request"

    def test_unknown_impl(self):
        with pytest.raises(ServeError) as exc:
            build_session_config("4link_4gb", {"xbar": "warp-drive"})
        assert exc.value.code == "bad_request"

    def test_component_override_applies(self):
        cfg = build_session_config("4link_4gb", {"xbar": "ideal"})
        assert cfg.xbar == "ideal"


class TestJournal:
    def test_accept_journals_before_execution(self, tmp_path):
        session = make_session(tmp_path)
        seq = session.accept("workload", _mutex())
        assert seq == 1
        # Journaled durably, not yet executed, no fence yet.
        assert journal(session) == [
            {"type": "accept", "seq": 1, "kind": "workload", "spec": _mutex()}
        ]
        assert session.checkpointed_through == 0

    def test_execute_fences_and_stores_result(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        rec = session.execute_next()
        assert rec.status == "done"
        assert session.checkpointed_through == 1
        assert session.checkpoint_path(1).exists()
        assert [r["type"] for r in journal(session)] == ["accept", "done", "fence"]
        payload = session.load_result(1)
        assert payload["workload"] == "mutex"
        assert payload["warm"] is True

    def test_execute_next_empty(self, tmp_path):
        assert make_session(tmp_path).execute_next() is None

    def test_checkpoint_every_spaces_fences(self, tmp_path):
        session = make_session(tmp_path, checkpoint_every=2)
        for _ in range(3):
            session.accept("workload", _mutex())
        session.execute_next()
        # seq 1 is not a fence multiple, but submissions remain pending,
        # so no fence yet.
        assert session.checkpointed_through == 0
        session.execute_next()
        assert session.checkpointed_through == 2
        session.execute_next()  # last pending -> forced fence
        assert session.checkpointed_through == 3

    def test_failed_submission_does_not_kill_session(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("workload", {"workload": "mutex", "params": {"threads": 2, "max_cycles": 1}})
        rec = session.execute_next()
        assert rec.status == "failed"
        assert rec.error
        # The session fenced anyway and still runs new work.
        session.accept("workload", _mutex())
        assert session.execute_next().status == "done"

    def test_sweep_bad_params_fail_record_not_session(self, tmp_path):
        # task_spec(**params) with an unknown key raises TypeError —
        # outside the old (HMCSimError, ValueError) net — which used to
        # escape execute_next and leave the record pending forever.
        session = make_session(tmp_path)
        session.accept(
            "sweep",
            {"workload": "mutex", "threads": [2], "params": {"bogus": 1}},
        )
        rec = session.execute_next()
        assert rec.status == "failed"
        assert "TypeError" in rec.error
        session.accept("workload", _mutex())
        assert session.execute_next().status == "done"

    def test_fail_next_marks_head_failed(self, tmp_path):
        session = make_session(tmp_path)
        assert session.fail_next("boom") is None
        session.accept("workload", _mutex())
        rec = session.fail_next("RuntimeError: boom")
        assert rec.status == "failed"
        assert session.pending() == []
        assert journal(session)[-1] == {
            "type": "failed", "seq": 1, "error": "RuntimeError: boom"
        }

    def test_accept_refused_while_draining(self, tmp_path):
        session = make_session(tmp_path)
        session.drain()
        with pytest.raises(ServeError) as exc:
            session.accept("workload", _mutex())
        assert exc.value.code == "draining"


class TestConstantCost:
    """Bookkeeping must not grow with the journal (counted, not timed)."""

    def _one_accept(self, session, monkeypatch):
        """Bytes each file grows by, and the journal writes, of one accept."""
        def sizes():
            return {f.name: f.stat().st_size for f in session.root.iterdir()}

        before = sizes()
        writes = []
        real = session._journal

        class Counting:
            def write(self, text):
                writes.append(len(text))
                return real.write(text)

            def flush(self):
                real.flush()

        def no_rewrite(path, text):
            raise AssertionError(f"accept rewrote {path}")

        with monkeypatch.context() as mp:
            mp.setattr(session, "_journal", Counting())
            mp.setattr("repro.serve.session.atomic_write", no_rewrite)
            session.accept("workload", _mutex())
        after = sizes()
        grown = {
            n: after[n] - before.get(n, 0)
            for n in after
            if after[n] != before.get(n)
        }
        return writes, grown

    def test_accept_writes_only_its_own_line(self, tmp_path, monkeypatch):
        results = {}
        for records in (10, 10_000):
            session = make_session(tmp_path, name=f"s{records}")
            for _ in range(records):
                session.accept("workload", _mutex())
            writes, grown = self._one_accept(session, monkeypatch)
            line = (session.root / JOURNAL_NAME).read_bytes().splitlines(True)[-1]
            assert json.loads(line)["seq"] == records + 1
            assert writes == [len(line)]
            assert grown == {JOURNAL_NAME: len(line)}
            results[records] = len(line)
            snap = session.snapshot()
            assert (snap["pending"], snap["done"]) == (records + 1, 0)
        # Same record, so the same bytes but for the seq's extra digits.
        assert results[10_000] - results[10] == len("10001") - len("11")

    def test_counters_follow_execution_and_resume(self, tmp_path):
        session = make_session(tmp_path, checkpoint_every=10)
        session.accept("workload", _mutex())
        session.accept(
            "workload", {"workload": "mutex", "params": {"threads": 2, "max_cycles": 1}}
        )
        session.accept("workload", _mutex())
        session.execute_next()
        session.execute_next()
        snap = session.snapshot()
        assert (snap["pending"], snap["done"], snap["failed"]) == (1, 1, 1)
        session.execute_next()  # last pending: fences at 3
        snap = SimSession.load(session.root).snapshot()
        assert (snap["pending"], snap["done"], snap["failed"]) == (0, 2, 1)


class TestFenceCost:
    """A fence re-encodes only the pages that changed since the last one
    (counted through the checkpoint module's base64 encoder, not timed)."""

    @staticmethod
    def _writes(addrs):
        return {
            "requests": [
                {"cmd": "WR16", "addr": addr, "data": "c3" * 16} for addr in addrs
            ]
        }

    def test_fence_encodes_only_changed_pages(self, tmp_path, monkeypatch):
        encoded = []

        class CountingBase64:
            def __getattr__(self, name):
                return getattr(base64, name)

            def b64encode(self, data):
                encoded.append(data)
                return base64.b64encode(data)

        k = 3
        for resident in (10, 1_000):
            session = make_session(tmp_path, name=f"s{resident}")
            page = session.sim.backend.page_size
            session.accept("raw", self._writes(p * page for p in range(resident)))
            assert session.execute_next().status == "done"
            assert session.sim.backend.resident_pages == resident

            fresh = [(resident + 1 + i) * page for i in range(k)]
            session.accept("raw", self._writes(fresh))
            encoded.clear()
            with monkeypatch.context() as mp:
                mp.setattr(checkpoint, "base64", CountingBase64())
                assert session.execute_next().status == "done"
            assert session.checkpointed_through == 2
            assert session.sim.backend.resident_pages == resident + k
            assert encoded == [b"\xc3" * 16] * k


class TestConcurrency:
    def test_concurrent_accepts_keep_the_journal_whole(self, tmp_path):
        # accept() runs on the event-loop thread while segments append
        # done/fence records from the session thread.  With a tiny
        # switch interval and more writers than cores, every record
        # must still land as one whole line and every seq exactly once.
        session = make_session(tmp_path, checkpoint_every=1000)
        writers, per_writer = 4, 20
        total = writers * per_writer
        writing = threading.Barrier(writers + 1)

        def submit():
            writing.wait(timeout=30)
            for _ in range(per_writer):
                session.accept("workload", _mutex())

        def run():
            writing.wait(timeout=30)
            while any(t.is_alive() for t in threads[:-1]) or session.pending():
                session.execute_next()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit) for _ in range(writers)]
            threads.append(threading.Thread(target=run))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

        records = journal(session)  # every line parses
        accepted = [r["seq"] for r in records if r["type"] == "accept"]
        finished = [r["seq"] for r in records if r["type"] == "done"]
        assert accepted == list(range(1, total + 1))
        assert finished == list(range(1, total + 1))
        assert [r.seq for r in session.submissions] == accepted
        snap = session.snapshot()
        assert (snap["pending"], snap["done"], snap["failed"]) == (0, total, 0)


class TestValidation:
    def test_unknown_workload(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError) as exc:
            session.accept("workload", {"workload": "does-not-exist"})
        assert exc.value.code == "bad_request"

    def test_raw_unknown_command(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError) as exc:
            session.accept("raw", {"requests": [{"cmd": "FROB", "addr": 0}]})
        assert exc.value.code == "bad_request"

    def test_raw_missing_addr(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError):
            session.accept("raw", {"requests": [{"cmd": "RD64"}]})

    @pytest.mark.parametrize(
        "field",
        [
            {"data": "zz"},
            {"data": 12},
            {"link": "x"},
            {"link": 4},
            {"link": -1},
            {"link": True},
            {"cub": 5},
            {"cub": -1},
        ],
        ids=lambda f: "-".join(f"{k}={v!r}" for k, v in f.items()),
    )
    def test_raw_doomed_request_field(self, tmp_path, field):
        # Rejected at accept: journaled, each would fail at execution
        # with a Python error (data, link) or address a missing cube.
        session = make_session(tmp_path)
        rq = dict({"cmd": "RD16", "addr": 0x40}, **field)
        with pytest.raises(ServeError) as exc:
            session.accept("raw", {"requests": [rq]})
        assert exc.value.code == "bad_request"
        assert session.submissions == []
        assert journal(session) == []

    @pytest.mark.parametrize("max_cycles", [-1, 0, "100", 2.5, None])
    def test_raw_max_cycles_must_be_positive(self, tmp_path, max_cycles):
        session = make_session(tmp_path)
        spec = {"requests": [{"cmd": "RD16", "addr": 0}], "max_cycles": max_cycles}
        with pytest.raises(ServeError) as exc:
            session.accept("raw", spec)
        assert exc.value.code == "bad_request"
        assert journal(session) == []

    def test_sweep_bad_threads(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError):
            session.accept("sweep", {"workload": "mutex", "threads": []})
        with pytest.raises(ServeError):
            session.accept("sweep", {"workload": "mutex", "threads": [0]})

    def test_rejected_spec_not_journaled(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError):
            session.accept("workload", {"workload": "nope"})
        assert session.submissions == []


class TestKinds:
    def test_raw_stream(self, tmp_path):
        session = make_session(tmp_path)
        session.accept(
            "raw",
            {
                "requests": [
                    {"cmd": "WR64", "addr": 0x1000, "data": "ab" * 64},
                    {"cmd": "RD64", "addr": 0x1000, "link": 3, "cub": 0},
                ],
                "max_cycles": 64,
            },
        )
        rec = session.execute_next()
        assert rec.status == "done"
        payload = session.load_result(1)
        assert payload["issued"] == 2
        assert len(payload["responses"]) == 2

    def test_sweep_in_process(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("sweep", {"workload": "mutex", "threads": [2, 4]})
        rec = session.execute_next()
        assert rec.status == "done"
        payload = session.load_result(1)
        assert payload["threads"] == [2, 4]
        assert len(payload["results"]) == 2

    def test_cold_frontend_runs(self, tmp_path):
        # stream builds its own context (accepts_sim=False); the serve
        # layer must not hand it the warm sim.
        session = make_session(tmp_path)
        session.accept(
            "workload",
            {"workload": "stream", "params": {"threads": 2, "blocks_per_thread": 2}},
        )
        rec = session.execute_next()
        assert rec.status == "done"
        assert session.load_result(1)["warm"] is False

    def test_mixed_cmc_families_on_one_warm_sim(self, tmp_path):
        # mutex (125) then ticket (21): the per-code prepare guards must
        # load the second family even though ops already exist.
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.accept(
            "workload", {"workload": "ticket", "params": {"threads": 2}}
        )
        assert session.execute_next().status == "done"
        assert session.execute_next().status == "done"


class TestResume:
    def test_load_rewinds_past_fence(self, tmp_path):
        session = make_session(tmp_path, checkpoint_every=10)
        for _ in range(3):
            session.accept("workload", _mutex())
        session.execute_next()
        session.execute_next()
        # Simulate a kill: forget the object, reload from disk.  The
        # fence only covers... nothing (checkpoint_every=10 and work is
        # still pending), so all three rewind to pending.
        loaded = SimSession.load(session.root)
        assert loaded.resumed is True
        assert [r.status for r in loaded.submissions] == ["pending"] * 3

    def test_load_keeps_fenced_results(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.execute_next()
        loaded = SimSession.load(session.root)
        assert loaded.checkpointed_through == 1
        assert loaded.submissions[0].status == "done"
        assert loaded.pending() == []

    def test_closed_sessions_stay_closed(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.execute_next()
        session.close()
        loaded = SimSession.load(session.root)
        assert loaded.state == SessionState.CLOSED

    def test_failed_submissions_not_replayed(self, tmp_path):
        session = make_session(tmp_path, checkpoint_every=10)
        session.accept("workload", {"workload": "mutex", "params": {"threads": 2, "max_cycles": 1}})
        session.execute_next()
        loaded = SimSession.load(session.root)
        assert loaded.submissions[0].status == "failed"
        assert loaded.pending() == []
