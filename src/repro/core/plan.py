"""The compiled executive: the static half of a schedule's runtime.

AAA generates the distributed executive from the static schedule at
compile time: every operation sequence, send, destination set,
release date and Solution-1 timeout ladder is fixed before the system
runs.  :class:`ExecutivePlan` is that compiled form.  It is built once
per frozen schedule (:meth:`repro.core.schedule.Schedule.executive_plan`)
and read by every simulated iteration
(:class:`~repro.sim.executive.ExecutiveRuntime`, the pipelined runner)
and by the static prover (:mod:`repro.lint.proof`), which keep only
per-run state: events, fail flags, link frontiers and the trace.  How
frames travel (routes, bus broadcasts) is per problem, in
:class:`~repro.graphs.transfers.TransferTable`.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from ..graphs.algorithm import OperationKind
from .schedule import Schedule, ScheduleSemantics, TimeoutEntry

__all__ = ["DEADLINE_SLACK", "PlanRow", "ExecutivePlan"]

DependencyKey = Tuple[str, str]

#: Arrival exactly at the worst-case bound is timely: a watchdog fires
#: strictly after its deadline (Section 6.1 item 2 computes the bound
#: as the least value avoiding spurious elections).
DEADLINE_SLACK = 1e-9

#: The failure-detection observability modes (see
#: :mod:`repro.sim.executive`).
DETECTION_MODES = ("snoop", "oracle")


class PlanRow(NamedTuple):
    """One replica of a processor's static operation sequence."""

    op: str
    #: ``(predecessor, dependency)`` per input, in predecessor order.
    inputs: Tuple[Tuple[str, DependencyKey], ...]
    duration: float
    kind: OperationKind
    initial_value: float
    out_deps: Tuple[DependencyKey, ...]
    is_output: bool


class ExecutivePlan:
    """Everything the executive of ``schedule`` does, known statically.

    Attributes
    ----------
    timeline:
        Per processor, its replicas in static order.
    destinations:
        Per dependency of a scheduled operation, the processors that
        must receive it over the network: every host of a consumer
        replica except those also hosting a producer replica (which
        use the local copy — Sections 6.1 and 7.1).
    senders:
        The replica senders in spawn order: every replica under
        Solution 2, the main replica otherwise.
    releases:
        Per ``(dependency, sender)``, the static release date of the
        sender's frame: the earliest planned first-hop start.
    sends:
        Per sender ``(op, proc)``, its frames ``(dependency, release,
        destinations)`` in out-dependency order (release ``None``: no
        planned frame, sent as soon as produced).
    ladders, watch_order:
        Solution 1: per ``(op, dependency, watcher)`` the watchdog's
        timeout ladder in rank order, and the watchdog spawn order.
    data_events, observed_events, produced_events:
        ``(key, name)`` of every event one run creates.
    """

    def __init__(self, schedule: Schedule) -> None:
        problem = schedule.problem
        algorithm = problem.algorithm
        architecture = problem.architecture
        self.semantics = schedule.semantics
        self.processors: Tuple[str, ...] = tuple(architecture.processor_names)
        self.links: Tuple[str, ...] = tuple(architecture.link_names)
        self.outputs: Tuple[str, ...] = tuple(algorithm.outputs)
        self.default_detection = "snoop" if architecture.has_bus else "oracle"
        self.default_snoop_recovery = (
            schedule.semantics is ScheduleSemantics.SOLUTION1
            and architecture.is_single_bus
        )

        self.out_deps: Dict[str, Tuple[DependencyKey, ...]] = {
            op: tuple(dep.key for dep in algorithm.out_dependencies(op))
            for op in algorithm.operation_names
        }

        outputs = set(self.outputs)
        self.timeline: Dict[str, Tuple[PlanRow, ...]] = {}
        for proc in self.processors:
            rows = []
            for placement in schedule.processor_timeline(proc):
                op = placement.op
                operation = algorithm.operation(op)
                rows.append(PlanRow(
                    op=op,
                    inputs=tuple(
                        (pred, (pred, op)) for pred in algorithm.predecessors(op)
                    ),
                    duration=problem.execution.duration(op, proc),
                    kind=operation.kind,
                    initial_value=operation.initial_value or 0.0,
                    out_deps=self.out_deps[op],
                    is_output=op in outputs,
                ))
            self.timeline[proc] = tuple(rows)

        self.operations: Tuple[str, ...] = tuple(schedule.operations)
        self.replicas: Dict[str, Tuple[str, ...]] = {}
        self.rank: Dict[Tuple[str, str], int] = {}
        for op in self.operations:
            hosts = tuple(schedule.processors_of(op))
            self.replicas[op] = hosts
            for index, proc in enumerate(hosts):
                self.rank[(op, proc)] = index

        self.destinations: Dict[DependencyKey, Tuple[str, ...]] = {}
        for op in self.operations:
            for dep in self.out_deps[op]:
                self.destinations[dep] = tuple(sorted(
                    proc
                    for proc in schedule.processors_of(dep[1])
                    if schedule.replica_on(op, proc) is None
                ))

        # The generated executive is time-triggered on its comm side:
        # each planned frame is emitted at its static start date, in
        # static order.  This is what makes the failure-free run
        # reproduce the planned communication schedule exactly — and
        # therefore what makes the watchdog deadlines (anchored on the
        # static frame ends) free of spurious elections.  Frames
        # without a plan (take-over sends) are event-triggered.
        self.releases: Dict[Tuple[DependencyKey, str], float] = {}
        for slot in schedule.comms:
            if slot.hop == 0:
                key = (slot.dependency, slot.sender)
                known = self.releases.get(key)
                if known is None or slot.start < known:
                    self.releases[key] = slot.start

        every_replica = schedule.semantics is ScheduleSemantics.SOLUTION2
        self.senders: Tuple[Tuple[str, str], ...] = tuple(
            (op, proc)
            for op in self.operations
            for proc in (self.replicas[op] if every_replica else self.replicas[op][:1])
        )
        self.sends: Dict[
            Tuple[str, str],
            Tuple[Tuple[DependencyKey, Optional[float], Tuple[str, ...]], ...],
        ] = {}
        for op, proc in self.senders:
            frames = []
            for dep in self.out_deps[op]:
                dests = tuple(d for d in self.destinations[dep] if d != proc)
                if dests:
                    frames.append((dep, self.releases.get((dep, proc)), dests))
            self.sends[(op, proc)] = tuple(frames)

        self.ladders: Dict[Tuple[str, DependencyKey, str], Tuple[TimeoutEntry, ...]] = {}
        watch_order = []
        if schedule.semantics is ScheduleSemantics.SOLUTION1:
            for op in self.operations:
                for watcher in self.replicas[op][1:]:
                    for dep in self.out_deps[op]:
                        if not self.destinations[dep]:
                            # Every consumer replica holds a local copy
                            # of the producer: no message to watch (no
                            # OpComm for an intra-processor transfer).
                            continue
                        key = (op, dep, watcher)
                        self.ladders[key] = tuple(
                            schedule.timeout_ladder(op, dep, watcher)
                        )
                        watch_order.append(key)
        self.watch_order: Tuple[Tuple[str, DependencyKey, str], ...] = tuple(
            watch_order
        )

        self.data_events = tuple(
            ((dep.key, proc), f"data:{dep}@{proc}")
            for dep in algorithm.dependencies
            for proc in self.processors
        )
        self.observed_events = tuple(
            (dep.key, f"observed:{dep}") for dep in algorithm.dependencies
        )
        self.produced_events = tuple(
            ((op, proc), f"produced:{op}@{proc}")
            for op in algorithm.operation_names
            for proc in self.processors
        )

    def detection_mode(self, detection: Optional[str]) -> str:
        """``detection``, or the default (snoop on a bus, else oracle)."""
        if detection is None:
            return self.default_detection
        if detection not in DETECTION_MODES:
            raise ValueError(f"unknown detection mode {detection!r}")
        return detection

    def snoop_recovery_mode(self, snoop_recovery: Optional[bool]) -> bool:
        """``snoop_recovery``, or the default (Solution 1 on one bus)."""
        if snoop_recovery is None:
            return self.default_snoop_recovery
        return snoop_recovery
