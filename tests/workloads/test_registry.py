"""The workload registry: resolution, params, fingerprints.

The registry is the workload seam's composition mechanism (mirroring
the component and CMC registries): everything that runs a workload
resolves it by string name, and the cache key of a parallel sweep
point tracks the registered implementation via ``fingerprint``.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadFrontend
from repro.workloads.registry import WORKLOADS, WorkloadRegistry

#: Every frontend the catalog registers, by kind.
KERNELS = {
    "mutex",
    "ticket",
    "stream",
    "gups",
    "bfs",
    "hist",
    "chase",
    "barrier",
    "sssp",
}
OTHERS = {"trace", "graph:counter", "graph:pipeline", "graph:kvstore"}


def test_catalog_registers_every_frontend():
    assert set(WORKLOADS.keys()) == KERNELS | OTHERS
    assert set(WORKLOADS.keys(kind="kernel")) == KERNELS
    assert set(WORKLOADS.keys(kind="graph")) == {
        "graph:counter",
        "graph:pipeline",
        "graph:kvstore",
    }
    assert set(WORKLOADS.keys(kind="trace")) == {"trace"}


def test_get_returns_a_fresh_instance_per_call():
    # Frontends keep per-run state (loaded traces, built graphs);
    # sharing instances would leak it across runs.
    a = WORKLOADS.get("mutex")
    b = WORKLOADS.get("mutex")
    assert a is not b
    assert type(a) is type(b)
    assert isinstance(a, WorkloadFrontend)


def test_unknown_name_is_a_workload_error():
    with pytest.raises(WorkloadError, match="no workload registered"):
        WORKLOADS.get("nope")
    with pytest.raises(WorkloadError):
        WORKLOADS.fingerprint("nope")
    assert not WORKLOADS.has("nope")


def test_unknown_param_is_rejected_with_the_valid_set():
    frontend = WORKLOADS.get("mutex")
    with pytest.raises(WorkloadError, match="lock_addr"):
        frontend.resolve_params({"lock_adr": 0})


def test_params_merge_over_defaults():
    frontend = WORKLOADS.get("mutex")
    resolved = frontend.resolve_params({"threads": 3})
    assert resolved["threads"] == 3
    assert resolved["lock_addr"] == frontend.default_params()["lock_addr"]


def test_describe_rows_cover_every_name():
    rows = WORKLOADS.describe()
    assert {name for name, _, _ in rows} == KERNELS | OTHERS
    assert all(desc for _, _, desc in rows)


def test_duplicate_registration_raises_without_replace():
    reg = WorkloadRegistry()

    class A(WorkloadFrontend):
        name = "dup"

        def build(self, sim, params):
            return []

    reg.register(A)
    with pytest.raises(WorkloadError, match="already registered"):
        reg.register(A)
    reg.register(A, replace=True)  # explicit override is allowed


def test_fingerprint_tracks_class_and_version():
    # The no-alias property the parallel cache key relies on: the
    # fingerprint changes when the class or its version changes.
    reg = WorkloadRegistry()

    class A(WorkloadFrontend):
        name = "x"
        version = "1"

        def build(self, sim, params):
            return []

    class B(A):
        version = "2"

    reg.register(A)
    fp_a = reg.fingerprint("x")
    assert fp_a.startswith("w") and len(fp_a) == 17
    reg.register(B, replace=True)
    assert reg.fingerprint("x") != fp_a
    reg.register(A, replace=True)
    assert reg.fingerprint("x") == fp_a


def test_global_fingerprints_are_distinct():
    fps = [WORKLOADS.fingerprint(name) for name in WORKLOADS.keys()]
    assert len(set(fps)) == len(fps)


def test_lookup_during_lazy_load_waits_for_the_catalog():
    # One thread runs the loader while another looks up: the second
    # must see the whole catalog, not the empty registry.
    started, release = threading.Event(), threading.Event()

    class A(WorkloadFrontend):
        name = "slow"

        def build(self, sim, params):
            return []

    def loader():
        started.set()
        release.wait(timeout=30)
        reg.register(A)
        assert reg.has("slow")  # the catalog import may look up too

    reg = WorkloadRegistry(loader)
    first = threading.Thread(target=reg.has, args=("slow",))
    first.start()
    assert started.wait(timeout=30)
    seen = []
    second = threading.Thread(target=lambda: seen.append(reg.has("slow")))
    second.start()
    release.set()
    first.join(timeout=30)
    second.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
    assert seen == [True]


@pytest.mark.parametrize(
    "hook", ["make_sim", "prepare", "make_engine", "finish", "stats"]
)
def test_every_driver_hook_has_an_overriding_frontend(hook):
    # A hook of WorkloadFrontend.run that no frontend overrides is dead
    # configurability; each one exists for at least one kernel.
    base = getattr(WorkloadFrontend, hook)
    assert any(
        getattr(cls, hook) is not base for cls in WORKLOADS.classes().values()
    )


@pytest.mark.parametrize(
    "name, kwargs, message",
    [
        ("stream", {"sim": "warm"}, "builds its own context"),
        ("bfs", {"sim": "warm"}, "builds its own context"),
        ("ticket", {"fault_plan": "plan"}, "does not support fault plans"),
        ("graph:counter", {"recorder": "rec"}, "cannot be trace-recorded"),
        ("trace", {"recorder": "rec"}, "cannot be trace-recorded"),
    ],
)
def test_run_refuses_what_the_frontend_declares(name, kwargs, message):
    # One refusal check, driven by accepts_sim / supports_faults /
    # recordable, guards every frontend's run before any work starts.
    from repro.hmc.config import HMCConfig

    with pytest.raises(WorkloadError, match=message):
        WORKLOADS.get(name).run(HMCConfig.cfg_4link_4gb(), **kwargs)
