"""The benchmark's own tests: planted faults fail the command, wrappers
restore the originals, and the printed metrics match ``BENCHMARK.json``.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import base64
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import device, run, serve
from perfbench.measure import CheckFailed
from perfbench.tracer import DEVICE_LAYERS, SERVE_LAYERS, SpanLog, Tracer, layer_metrics
from repro.analysis import sweep
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.serve.client import ServeClient

ROOT = Path(__file__).resolve().parents[2]


def last_json(text: str) -> dict:
    return json.loads(text.strip().split("\n")[-1])


def run_main(monkeypatch, capsys, workload: str) -> tuple:
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0"])
    return code, last_json(capsys.readouterr().out)


# -- metric names ------------------------------------------------------------------


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_printed_metrics_match_declared(trace, names):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_queue_rw",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name in names:
        assert f"  {name} " in proc.stdout  # printed by name, with its unit
    if trace:
        assert result["metrics"]["cmc.execute.calls"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_queue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- planted faults ----------------------------------------------------------------


def test_table6_check_rejects_a_wrong_value():
    rows = [("4Link-4GB", 6, 394, 227.33), ("8Link-8GB", 6, 391, 224.18)]
    with pytest.raises(CheckFailed, match="8Link-8GB"):
        device.check_table6(rows)
    notes = device.check_table6([("4Link-4GB", 6, 394, 227.33), ("8Link-8GB", 6, 390, 224.18)])
    assert "paper 6/392/226.48" in notes[0]


def test_wrong_table6_fails_the_command(monkeypatch, capsys):
    # A truncated thread axis yields a Table VI that differs from the record.
    monkeypatch.setattr(sweep, "PAPER_THREAD_RANGE", (2, 3))
    code, result = run_main(monkeypatch, capsys, "paper_sweep")
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_corrupted_twoadd8_image_fails(monkeypatch):
    workload = device.DeviceWorkload("deep_queue", 3, 1)
    workload.setup()
    addr = workload.pool[0].addr
    workload.reference[addr] = bytes(16)
    with pytest.raises(CheckFailed, match="TWOADD8"):
        device.open_loop_leg(workload.pool, workload.reference, 1)


def plant_in_replies(monkeypatch, plant):
    real = ServeClient.submit
    kinds = []

    def submit(self, session, kind, spec, *, wait=False):
        reply = real(self, session, kind, spec, wait=wait)
        kinds.append(kind)
        return plant(kinds, reply)

    monkeypatch.setattr(ServeClient, "submit", submit)


def test_corrupted_payload_fails_the_command(monkeypatch, capsys):
    def corrupt(kinds, reply):
        if kinds.count("raw") == 2 and kinds[-1] == "raw":
            # The last RD64 reads a block the first raw batch wrote.
            reply["payload"]["responses"][-1]["data"] = base64.b64encode(bytes(64)).decode()
        return reply

    plant_in_replies(monkeypatch, corrupt)
    code, result = run_main(monkeypatch, capsys, "serve_roundtrip")
    assert code == 1 and result["correct"] is False and result["metrics"] == {}


def test_failed_submission_fails_the_command(monkeypatch, capsys):
    def fail(kinds, reply):
        return dict(reply, status="failed", error="planted") if len(kinds) == 2 else reply

    plant_in_replies(monkeypatch, fail)
    code, result = run_main(monkeypatch, capsys, "serve_roundtrip")
    assert code == 1 and result["correct"] is False and result["metrics"] == {}


# -- the tracer --------------------------------------------------------------------


def current(layers):
    out = []
    for layer in layers:
        module = importlib.import_module(layer.module)
        owner = module if layer.owner is None else getattr(module, layer.owner)
        out.append(vars(owner).get(layer.attr))
    return out


def test_wrappers_restore_the_originals(tmp_path):
    layers = DEVICE_LAYERS + SERVE_LAYERS
    before = current(layers)
    tracer = Tracer(layers)
    with pytest.raises(ValueError):
        with tracer:
            assert all(a is not b for a, b in zip(current(layers), before))
            sim = HMCSim(HMCConfig.cfg_4link_4gb())
            sim.send(sim.build_memrequest(hmc_rqst_t.RD64, 0, 1))
            sim.clock(8)
            raise ValueError("leave the traced region by an exception")
    assert current(layers) == before

    path = tmp_path / "spans.bin"
    tracer.log.write(path)
    stats = SpanLog.read(path).summarize()
    assert {k: (v.calls, v.self_s) for k, v in stats.items()} == {
        k: (v.calls, v.self_s) for k, v in tracer.log.summarize().items()
    }
    assert stats["sim.send"].calls == stats["sim.clock"].calls == 1
    assert stats["device.clock"].calls >= 1
    assert stats["sim.clock"].self_s == pytest.approx(
        stats["sim.clock"].total_s - stats["device.clock"].total_s
    )
    assert tracer.log.counts["sim.clock.cycles"] == 8


def test_skipped_frac_counts_every_device():
    sim = HMCSim(HMCConfig.cfg_4link_4gb(num_devs=2))
    tracer = Tracer(DEVICE_LAYERS)
    with tracer:
        sim.clock(8)
    assert tracer.log.counts["sim.clock.device_cycles"] == 16
    steps = tracer.log.summarize()["device.clock"].calls
    layers = layer_metrics(tracer.log, 1.0)
    assert layers["sim.clock.skipped_frac"] == pytest.approx(1 - steps / 16)
    assert 0.0 <= layers["sim.clock.skipped_frac"] <= 1.0


def test_moved_cycles_fail_the_served_checks():
    # Simulated time of a seed-free submission is pinned, in either direction.
    for delta in (-1, 1):
        fields = {"cycles": serve.STREAM_CYCLES + delta, "bytes_moved": 64}
        reply = {"status": "done", "payload": {"stats": {"fields": fields}}}
        with pytest.raises(CheckFailed, match="cycles"):
            serve.ReplyCheck()(0, ("workload", {"workload": "stream", "params": {}}), reply)
