"""The task-graph runtime: topology, gating, and the built-in scenarios.

Dependency gating runs *in simulated memory* (spin-reads on per-task
completion flags), so these tests check both the pure graph mechanics
(deterministic topological order, cycle detection) and the simulated
outcome: the counter scenario's final check really observes every
increment, the pipeline consumer really sees every pushed item, and
the recorded schedule respects the declared edges.
"""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.hmc.config import HMCConfig
from repro.workloads.graph import GraphWorkload, TaskGraph
from repro.workloads.registry import WORKLOADS


def _noop(ctx):
    return
    yield  # pragma: no cover — makes the body a generator


class AdHocGraph(GraphWorkload):
    """A one-off scenario running a caller-built graph."""

    name = "graph:adhoc"

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph

    def default_params(self):
        return {"flags_base": 1 << 20, "max_cycles": 2_000_000}

    def build_graph(self, sim, params):
        return self.graph

    def verify(self, sim, params, result):
        return True


def run_graph(graph: TaskGraph):
    return AdHocGraph(graph).run(HMCConfig.cfg_4link_4gb())


class TestTopology:
    def test_topo_order_is_deterministic_and_respects_edges(self):
        g = TaskGraph()
        g.add("c", _noop, after=("a", "b"))
        g.add("a", _noop)
        g.add("b", _noop, after=("a",))
        order = [n.name for n in g.topo_order()]
        assert order == ["a", "b", "c"]
        assert order == [n.name for n in g.topo_order()]

    def test_declaration_order_breaks_ties(self):
        g = TaskGraph()
        for name in ("z", "m", "a"):
            g.add(name, _noop)
        assert [n.name for n in g.topo_order()] == ["z", "m", "a"]

    def test_unknown_dependency_raises(self):
        g = TaskGraph()
        g.add("a", _noop, after=("ghost",))
        with pytest.raises(WorkloadError, match="unknown task 'ghost'"):
            g.topo_order()

    def test_cycle_raises_with_the_stuck_tasks(self):
        g = TaskGraph()
        g.add("a", _noop, after=("b",))
        g.add("b", _noop, after=("a",))
        with pytest.raises(WorkloadError, match="cycle"):
            g.topo_order()

    def test_duplicate_task_name_raises(self):
        g = TaskGraph()
        g.add("a", _noop)
        with pytest.raises(WorkloadError, match="declared twice"):
            g.add("a", _noop)

    def test_empty_graph_is_rejected_by_the_runtime(self):
        with pytest.raises(WorkloadError, match="empty"):
            run_graph(TaskGraph())


class TestScenarios:
    @pytest.mark.parametrize("cfg_name", ["cfg_4link_4gb", "cfg_8link_8gb"])
    def test_counter_scenario_verifies(self, cfg_name):
        cfg = getattr(HMCConfig, cfg_name)()
        stats = WORKLOADS.get("graph:counter").run(cfg, {"tasks": 4})
        assert stats.verified is True
        assert stats.tasks == 5  # 4 increments + the check task
        assert stats.total_cycles > 0
        assert set(stats.schedule) == {"inc0", "inc1", "inc2", "inc3", "check"}

    def test_counter_check_runs_after_every_increment(self):
        cfg = HMCConfig.cfg_4link_4gb()
        stats = WORKLOADS.get("graph:counter").run(cfg, {"tasks": 4})
        check_start = stats.schedule["check"][0]
        for name, (_, done) in stats.schedule.items():
            if name != "check":
                assert done <= check_start, (
                    f"{name} finished at {done}, after check started "
                    f"at {check_start}"
                )

    @pytest.mark.parametrize("cfg_name", ["cfg_4link_4gb", "cfg_8link_8gb"])
    def test_pipeline_scenario_verifies(self, cfg_name):
        cfg = getattr(HMCConfig, cfg_name)()
        stats = WORKLOADS.get("graph:pipeline").run(
            cfg, {"producers": 2, "items": 4}
        )
        assert stats.verified is True
        assert stats.tasks == 3  # two producers + the gated consumer

    def test_scenarios_verify_on_the_vector_engine(self):
        pytest.importorskip("numpy")
        cfg = HMCConfig.cfg_4link_4gb(xbar="vector")
        for name in ("graph:counter", "graph:pipeline"):
            stats = WORKLOADS.get(name).run(cfg)
            assert stats.verified is True, name

    def test_graph_workloads_reject_faults_and_recording(self):
        cfg = HMCConfig.cfg_4link_4gb()
        frontend = WORKLOADS.get("graph:counter")
        with pytest.raises(WorkloadError, match="fault"):
            frontend.run(cfg, fault_plan=object())
        with pytest.raises(WorkloadError, match="recorded"):
            frontend.run(cfg, recorder=object())


class TestRuntime:
    def test_named_threads_share_one_simthread(self):
        # Two tasks pinned to thread 0 plus one auto task: the engine
        # must see exactly two threads.
        seen = []

        def touch(name):
            def body(ctx):
                seen.append((name, ctx.tid))
                rsp = yield ctx.read(0x1000, 16)
                assert rsp is not None

            return body

        g = TaskGraph()
        g.add("first", touch("first"), thread=0)
        g.add("second", touch("second"), after=("first",), thread=0)
        g.add("other", touch("other"))
        stats = run_graph(g)
        assert stats.threads == 2 and stats.tasks == 3
        assert dict(seen)["first"] == dict(seen)["second"]
        assert set(stats.schedule) == {"first", "second", "other"}

    def test_cross_thread_gating_orders_execution(self):
        order = []

        def log(name):
            def body(ctx):
                order.append(name)
                rsp = yield ctx.read(0x1000, 16)
                assert rsp is not None

            return body

        g = TaskGraph()
        g.add("up", log("up"))
        g.add("down", log("down"), after=("up",))
        run_graph(g)
        assert order == ["up", "down"]
