"""Lifecycle of the compiled executive plan and the per-problem transfer table.

The plan is compiled once per *frozen* schedule and shared by every
simulated iteration; an in-construction schedule is compiled afresh on
each call, pickles carry the schedule without its plan, and the
network runtime needs no schedule at all (only the problem's transfer
table).
"""

import pickle

import pytest

from repro.core.plan import DEADLINE_SLACK, ExecutivePlan
from repro.core.schedule import Schedule
from repro.core.solution1 import schedule_solution1
from repro.core.timeline import CommPlanner
from repro.obs.campaign import enumerate_space, run_campaign
from repro.paper.examples import figure8_problem, first_example_problem
from repro.sim import FailureScenario, simulate
from repro.sim.engine import Simulator
from repro.sim.network import NetworkRuntime
from repro.sim.trace import IterationTrace


def _fingerprint(trace):
    return (
        [(f.dependency, f.sender, f.destinations, f.link, f.start, f.end,
          f.delivered, f.takeover) for f in trace.frames],
        [(e.op, e.processor, e.start, e.end, e.completed)
         for e in trace.executions],
        [(d.op, d.watcher, d.suspect, d.time) for d in trace.detections],
        dict(trace.output_values),
        dict(trace.output_times),
        trace.final_known_failed,
    )


@pytest.fixture(scope="module")
def fig17():
    return schedule_solution1(first_example_problem(failures=1)).schedule


class TestInConstruction:
    def test_extension_after_a_simulation_is_simulated(self, fig17):
        """Simulating before freeze() must not pin the plan: timeouts
        added afterwards change the takeover dates."""
        crash = FailureScenario.crash("P1", at=0.0)
        partial = Schedule(fig17.problem, fig17.semantics)
        for replica in fig17.all_replicas():
            partial.add_replica(replica)
        for slot in fig17.comms:
            partial.add_comm(slot)
        # No ladder yet: every watcher takes over at once.
        hasty = simulate(partial, crash)
        for entry in fig17.timeouts:
            partial.add_timeout(entry)
        extended = simulate(partial, crash)
        assert _fingerprint(extended) != _fingerprint(hasty)
        assert _fingerprint(extended) == _fingerprint(simulate(fig17, crash))
        assert partial.executive_plan() is not partial.executive_plan()
        partial.freeze()
        assert partial.executive_plan() is partial.executive_plan()
        assert _fingerprint(simulate(partial, crash)) == _fingerprint(extended)

    def test_indexes_follow_additions(self, fig17):
        partial = Schedule(fig17.problem, fig17.semantics)
        for replica in fig17.all_replicas():
            partial.add_replica(replica)
        for slot in fig17.comms[::-1]:
            partial.add_comm(slot)
        for entry in fig17.timeouts[::-1]:
            partial.add_timeout(entry)
        for proc in fig17.problem.architecture.processor_names:
            assert partial.processor_timeline(proc) == fig17.processor_timeline(proc)
        for dep in fig17.problem.algorithm.dependencies:
            before = partial.comms_for_dependency(dep.key)
            assert sorted(before, key=str) == sorted(
                fig17.comms_for_dependency(dep.key), key=str
            )
            # Insertion order until freeze() sorts the comms.
            assert before == [c for c in fig17.comms[::-1] if c.dependency == dep.key]
        for entry in fig17.timeouts:
            key = (entry.op, entry.dependency, entry.watcher)
            assert partial.timeout_ladder(*key) == fig17.timeout_ladder(*key)
        partial.freeze()
        for dep in fig17.problem.algorithm.dependencies:
            assert partial.comms_for_dependency(list(dep.key)) == \
                fig17.comms_for_dependency(dep.key)

    def test_queries_return_fresh_lists(self, fig17):
        dep = fig17.comms[0].dependency
        fig17.comms_for_dependency(dep).clear()
        fig17.processor_timeline("P1").clear()
        assert fig17.comms_for_dependency(dep)
        assert fig17.processor_timeline("P1")


class TestFrozen:
    def test_plan_is_compiled_once(self, fig17):
        plan = fig17.executive_plan()
        assert isinstance(plan, ExecutivePlan)
        simulate(fig17, FailureScenario.crash("P2", at=3.0))
        assert fig17.executive_plan() is plan

    def test_ladders_and_slack(self, fig17):
        plan = fig17.executive_plan()
        assert plan.watch_order
        for key in plan.watch_order:
            assert list(plan.ladders[key]) == fig17.timeout_ladder(*key)
        assert 0 < DEADLINE_SLACK < 1e-6

    def test_pickled_schedule_simulates_identically_in_workers(self, fig17):
        simulate(fig17)  # the plan is compiled and cached here
        assert b"ExecutivePlan" not in pickle.dumps(fig17)
        clone = pickle.loads(pickle.dumps(fig17))
        scenario = FailureScenario.crash("P2", at=3.0)
        assert _fingerprint(simulate(clone, scenario)) == \
            _fingerprint(simulate(fig17, scenario))
        space = enumerate_space(fig17, failures=1)
        serial = run_campaign(fig17, space, jobs=1)
        fanned = run_campaign(fig17, space, jobs=2)
        assert [o.to_dict() for o in serial.outcomes] == \
            [o.to_dict() for o in fanned.outcomes]


class TestTransferTable:
    def test_network_runtime_needs_no_schedule(self):
        problem = figure8_problem()
        sim = Simulator()
        trace = IterationTrace()
        network = NetworkRuntime(sim, problem, FailureScenario.none(), trace)
        network.on_deliver = lambda *args: None
        sim.call_at(0.0, lambda: network.dispatch(("A", "B"), "P1", ["P3"]))
        sim.run()
        hops = problem.transfers.hops(("A", "B"), "P1", "P3")
        assert [(f.sender, f.link, f.end - f.start) for f in trace.frames] == \
            [(hop_from, link, duration) for hop_from, _to, link, duration in hops]

    def test_one_table_per_problem(self):
        problem = first_example_problem(failures=1)
        table = problem.transfers
        CommPlanner(problem).worst_case_transfer(("A", "B"), "P1", "P2")
        assert problem.transfers is table
        assert table.hop_plans

    def test_replaced_communication_table_is_honoured(self):
        problem = figure8_problem()
        before = problem.transfers.hops(("A", "B"), "P1", "P3")
        doubled = problem.communication.copy()
        for (dep, link), duration in list(doubled.entries.items()):
            doubled.set_duration(dep, link, 2 * duration)
        problem.communication = doubled
        after = problem.transfers.hops(("A", "B"), "P1", "P3")
        assert [hop[3] for hop in after] == [2 * hop[3] for hop in before]
