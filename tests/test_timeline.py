"""Unit tests for timeline state and communication planning."""

import pytest

from repro.core.solution1 import Solution1Scheduler
from repro.core.solution2 import Solution2Scheduler
from repro.core.timeline import CommPlanner, TimelineState
from repro.paper.examples import (
    figure8_problem,
    first_example_problem,
    second_example_problem,
)
from tests.test_mixed_topologies import (
    bus_plus_express,
    mixed_problem,
    two_buses_bridged,
)


def _snapshot(state):
    """Plain copies of the four state families, for equality checks."""
    return tuple(
        dict(family)
        for family in (
            state.proc_free, state.link_free,
            state.dep_arrival, state.replica_end,
        )
    )


class TestTimelineState:
    def test_fresh_state(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        assert state.proc_free == {"P1": 0.0, "P2": 0.0, "P3": 0.0}
        assert state.link_free == {"bus": 0.0}

    def test_clone_is_independent(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        clone = state.clone()
        clone.proc_free["P1"] = 5.0
        clone.record_arrival(("A", "B"), "P2", 1.0)
        assert state.proc_free["P1"] == 0.0
        assert state.arrival(("A", "B"), "P2") is None

    def test_record_replica_advances_processor(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        state.record_replica("A", "P1", 3.0)
        assert state.proc_free["P1"] == 3.0
        assert state.local_copy_end("A", "P1") == 3.0
        assert state.local_copy_end("A", "P2") is None

    def test_record_arrival_keeps_earliest(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        state.record_arrival(("A", "B"), "P2", 4.0)
        state.record_arrival(("A", "B"), "P2", 2.0)
        state.record_arrival(("A", "B"), "P2", 3.0)
        assert state.arrival(("A", "B"), "P2") == 2.0

    def test_data_available_prefers_earliest_source(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        assert state.data_available(("A", "B"), "P2") is None
        state.record_replica("A", "P2", 5.0)
        assert state.data_available(("A", "B"), "P2") == 5.0
        state.record_arrival(("A", "B"), "P2", 3.0)
        assert state.data_available(("A", "B"), "P2") == 3.0


class TestUnicastTransfer:
    def test_same_processor_is_free(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        arrival = planner.transfer(state, ("A", "B"), "P1", "P1", ready=2.0)
        assert arrival == 2.0
        assert state.link_free["bus"] == 0.0

    def test_single_hop(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        slots = []
        arrival = planner.transfer(
            state, ("A", "B"), "P1", "P2", ready=3.0, collect=slots
        )
        assert arrival == pytest.approx(3.5)  # A->B costs 0.5
        assert state.link_free["bus"] == pytest.approx(3.5)
        (slot,) = slots
        assert slot.sender == "P1" and slot.destinations == ("P2",)

    def test_link_contention_serializes(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        planner.transfer(state, ("A", "B"), "P1", "P2", ready=0.0)
        arrival = planner.transfer(state, ("A", "C"), "P1", "P3", ready=0.0)
        # Second transfer waits for the bus: 0.5 + 0.5.
        assert arrival == pytest.approx(1.0)

    def test_multi_hop_route(self):
        problem = figure8_problem()
        planner = CommPlanner(problem)
        state = TimelineState.for_problem(problem)
        slots = []
        arrival = planner.transfer(
            state, ("A", "B"), "P1", "P3", ready=0.0, collect=slots
        )
        # A->B costs 0.5 per link, two hops.
        assert arrival == pytest.approx(1.0)
        assert [s.link for s in slots] == ["L1.2", "L2.3"]
        assert slots[0].hop == 0 and slots[1].hop == 1
        assert slots[1].route_length == 2
        # The relay then holds the data too.
        assert state.arrival(("A", "B"), "P3") == pytest.approx(1.0)

    def test_ready_time_respected(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        arrival = planner.transfer(state, ("E", "O"), "P3", "P1", ready=7.0)
        assert arrival == pytest.approx(8.0)  # E->O costs 1.0


class TestBroadcast:
    def test_single_frame_serves_bus_destinations(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        slots = []
        arrivals = planner.broadcast(
            state, ("A", "B"), "P1", ["P2", "P3"], ready=3.0, collect=slots
        )
        assert len(slots) == 1
        assert set(slots[0].destinations) == {"P2", "P3"}
        assert arrivals == {"P2": 3.5, "P3": 3.5}
        assert state.link_free["bus"] == pytest.approx(3.5)

    def test_broadcast_on_p2p_falls_back_to_unicasts(self, p2p_problem):
        planner = CommPlanner(p2p_problem)
        state = TimelineState.for_problem(p2p_problem)
        slots = []
        arrivals = planner.broadcast(
            state, ("A", "B"), "P1", ["P2", "P3"], ready=3.0, collect=slots
        )
        assert len(slots) == 2
        assert {s.link for s in slots} == {"L1.2", "L1.3"}
        # Parallel links: both arrive at 3.5.
        assert arrivals["P2"] == pytest.approx(3.5)
        assert arrivals["P3"] == pytest.approx(3.5)

    def test_broadcast_skips_sender(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        arrivals = planner.broadcast(
            state, ("A", "B"), "P1", ["P1", "P2"], ready=1.0
        )
        assert arrivals["P1"] == 1.0  # local, no frame
        assert arrivals["P2"] == pytest.approx(1.5)

    def test_broadcast_deduplicates_destinations(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = TimelineState.for_problem(bus_problem)
        slots = []
        planner.broadcast(
            state, ("A", "B"), "P1", ["P2", "P2"], ready=0.0, collect=slots
        )
        assert len(slots) == 1
        assert slots[0].destinations == ("P2",)


class TestWorstCaseTransfer:
    def test_same_processor_zero(self, bus_problem):
        planner = CommPlanner(bus_problem)
        assert planner.worst_case_transfer(("A", "B"), "P1", "P1") == 0.0

    def test_single_hop_bound(self, bus_problem):
        planner = CommPlanner(bus_problem)
        assert planner.worst_case_transfer(("A", "D"), "P1", "P3") == pytest.approx(1.0)

    def test_multi_hop_bound(self):
        problem = figure8_problem()
        planner = CommPlanner(problem)
        assert planner.worst_case_transfer(("I", "A"), "P1", "P3") == pytest.approx(2.5)


class TestReadOnlyArrival:
    """``CommPlanner.arrival`` returns what ``transfer`` would, writing nothing."""

    @staticmethod
    def _busy_state(problem):
        state = TimelineState.for_problem(problem)
        for index, link in enumerate(problem.architecture.link_names):
            state.link_free[link] = 0.5 + index
        return state

    def _assert_matches_transfer(self, problem, pairs, ready=0.25):
        planner = CommPlanner(problem)
        state = self._busy_state(problem)
        before = _snapshot(state)
        for dep in problem.algorithm.dependencies:
            for sender, dest in pairs:
                expected = planner.transfer(
                    state.clone(), dep.key, sender, dest, ready=ready
                )
                got = planner.arrival(state, dep.key, sender, dest, ready=ready)
                assert got == expected, (dep.key, sender, dest)
        assert _snapshot(state) == before

    def test_bus_problem(self, bus_problem):
        procs = bus_problem.architecture.processor_names
        pairs = [(a, b) for a in procs for b in procs if a != b]
        self._assert_matches_transfer(bus_problem, pairs)

    def test_bus_plus_express(self):
        problem = mixed_problem(bus_plus_express())
        self._assert_matches_transfer(
            problem, [("P1", "P2"), ("P2", "P1"), ("P1", "P3"), ("P4", "P2")]
        )

    def test_multi_hop_route_across_bridge(self):
        problem = mixed_problem(two_buses_bridged())
        route = problem.routing.route_for_dependency(
            "PA1", "PC2", problem.algorithm.dependencies[0].key,
            problem.communication,
        )
        assert route.hop_count == 2
        self._assert_matches_transfer(
            problem, [("PA1", "PC2"), ("PC1", "PA2"), ("PA1", "PB")]
        )

    def test_sender_is_destination(self, bus_problem):
        planner = CommPlanner(bus_problem)
        state = self._busy_state(bus_problem)
        before = _snapshot(state)
        assert planner.arrival(state, ("A", "B"), "P2", "P2", ready=3.0) == 3.0
        assert _snapshot(state) == before

    def test_sees_the_ghost_writes(self, p2p_problem):
        planner = CommPlanner(p2p_problem)
        state = TimelineState.for_problem(p2p_problem)
        before = _snapshot(state)
        ghost = state.ghost()
        planner.transfer(ghost, ("A", "B"), "P1", "P2", ready=1.0)
        got = planner.arrival(ghost, ("A", "C"), "P1", "P2", ready=0.0)
        replay = state.clone()
        planner.transfer(replay, ("A", "B"), "P1", "P2", ready=1.0)
        expected = planner.transfer(replay, ("A", "C"), "P1", "P2", ready=0.0)
        assert got == expected
        assert got > 1.0  # queued behind the ghost's own frame
        assert _snapshot(state) == before


class TestGhost:
    def test_writes_stay_in_the_ghost(self, bus_problem):
        state = TimelineState.for_problem(bus_problem)
        before = _snapshot(state)
        ghost = state.ghost()
        ghost.link_free["bus"] = 4.0
        ghost.record_arrival(("A", "B"), "P2", 4.0)
        assert ghost.link_free.get("bus") == 4.0
        assert ghost.arrival(("A", "B"), "P2") == 4.0
        assert _snapshot(state) == before

    @pytest.mark.parametrize(
        "scheduler_class", [Solution1Scheduler, Solution2Scheduler]
    )
    def test_evaluation_leaves_committed_state_unchanged(
        self, scheduler_class, p2p_problem
    ):
        scheduler = scheduler_class(p2p_problem)
        algorithm = p2p_problem.algorithm
        sources = [
            op for op in algorithm.operation_names
            if not algorithm.predecessors(op)
        ]
        for op in sources:
            scheduler.commit(op, scheduler._keep_best(op))
        ready = [
            op for op in algorithm.operation_names
            if op not in sources
            and all(pred in sources for pred in algorithm.predecessors(op))
        ]
        assert ready
        before = _snapshot(scheduler.state)
        for op in ready:
            for proc in p2p_problem.allowed_processors(op):
                scheduler.evaluate_placement(op, proc)
        assert _snapshot(scheduler.state) == before
