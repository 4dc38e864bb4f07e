"""The distributed real-time executive, interpreted over the simulator.

AAA's second step generates, from the static schedule, a distributed
executive: per processor, the computation unit runs its operation
sequence in static order (each operation blocking until its inputs are
locally available), and the communication units perform the sends,
receives and — for Solution 1 — the ``OpComm`` watchdogs of Figure 12.
This module builds exactly those behaviours as simulation processes,
parameterized by the schedule's semantics:

``BASELINE``
    The single replica of each operation executes; the producer sends
    each inter-processor dependency once.  No redundancy: a crash
    starves the consumers and the iteration never completes.

``SOLUTION1``
    All replicas execute.  Only the main replica sends (one frame per
    outgoing dependency).  Every backup runs one watchdog per outgoing
    dependency: it waits for the presumed main's frame until the
    statically computed deadline, then declares that processor faulty
    (fail flag, Section 5.5), moves to the next candidate, and sends
    itself once it has become the presumed main.  Backups already
    knowing a candidate is dead (flags carried from earlier
    iterations) skip the wait — which is why subsequent iterations
    (Figure 18(b)) are faster than the transient one (Figure 18(a)).

``SOLUTION2``
    All replicas execute and all replicas send; receivers keep the
    first copy of each input and discard the rest.  No watchdogs, no
    timeouts.  Senders skip destinations they believe dead — the
    behaviour that makes recovery of an intermittently failed
    processor impossible on point-to-point links (Section 7.4).

Failure detection observability is configurable:

* ``snoop`` — a watchdog observes a frame only if it was carried by a
  multi-point link (every bus member physically sees every frame).
  This is the paper's Solution-1 setting.
* ``oracle`` — any completed frame is observable by every watchdog.
  This idealizes the agreement protocol the paper says point-to-point
  detection would need; it exists so Solution 1 can be simulated on
  point-to-point architectures for comparison experiments.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..core.plan import DEADLINE_SLACK
from ..core.schedule import Schedule, ScheduleSemantics
from .engine import Delay, Event, Simulator, Wait, WaitAny
from .faults import FailureScenario
from .network import NetworkRuntime
from .trace import DetectionRecord, ExecutionRecord, IterationTrace
from .values import compute_value

__all__ = ["ExecutiveRuntime"]

DependencyKey = Tuple[str, str]


class ExecutiveRuntime:
    """One simulated iteration of a schedule under a failure scenario.

    The static half of the executive — operation sequences, sends,
    destinations, release dates, timeout ladders — is the schedule's
    compiled :class:`~repro.core.plan.ExecutivePlan`; a runtime holds
    only the per-run state (events, fail flags, network, trace).

    Parameters
    ----------
    schedule:
        A frozen schedule from any of the three schedulers.
    scenario:
        The failures injected during this iteration.
    detection:
        ``"snoop"`` | ``"oracle"`` | ``None`` (auto: ``snoop`` when the
        architecture has a bus, ``oracle`` otherwise).
    initial_flags:
        Per-processor fail-flag arrays carried over from previous
        iterations; ``scenario.known_failed`` is merged into every
        array.
    snoop_recovery:
        When True (auto: Solution 1 on a single-bus architecture),
        observing a frame from a flagged processor clears its flag
        everywhere — the Section 6.1 item 3 mechanism that lets
        intermittent fail-silent processors rejoin.
    iteration:
        Index of the simulated iteration; only influences the values
        sampled by input extios (see :mod:`repro.sim.values`).
    """

    def __init__(
        self,
        schedule: Schedule,
        scenario: Optional[FailureScenario] = None,
        detection: Optional[str] = None,
        initial_flags: Optional[Dict[str, Set[str]]] = None,
        snoop_recovery: Optional[bool] = None,
        iteration: int = 0,
    ) -> None:
        self.schedule = schedule
        self.problem = schedule.problem
        self.plan = plan = schedule.executive_plan()
        self.scenario = scenario or FailureScenario.none()
        self.scenario.check_against(plan.processors, plan.links)
        self.iteration = iteration
        self.detection = plan.detection_mode(detection)
        self.snoop_recovery = plan.snoop_recovery_mode(snoop_recovery)

        self.sim = Simulator()
        self.trace = IterationTrace(
            scenario_name=str(self.scenario),
            expected_outputs=plan.outputs,
        )
        self.network = NetworkRuntime(
            self.sim, self.problem, self.scenario, self.trace
        )
        self.network.on_deliver = self._on_deliver
        self.network.on_observe = self._on_observe

        #: Per-processor fail-flag arrays (Section 5.5).
        known = self.scenario.known_failed
        self.flags: Dict[str, Set[str]] = {
            proc: set(known) for proc in plan.processors
        }
        for proc, flagged in (initial_flags or {}).items():
            self.flags[proc].update(flagged)

        # Events: the produced event carries the local value of the
        # operation, which its senders put on the wire.
        self._data: Dict[Tuple[DependencyKey, str], Event] = {
            key: Event(name) for key, name in plan.data_events
        }
        self._produced: Dict[Tuple[str, str], Event] = {
            key: Event(name) for key, name in plan.produced_events
        }
        self._observed: Dict[DependencyKey, Event] = {
            key: Event(name) for key, name in plan.observed_events
        }

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> IterationTrace:
        """Build all processes, run to quiescence, return the trace."""
        plan = self.plan
        process = self.sim.process
        for proc in plan.processors:
            process(self._computation_unit(proc))
        for op, proc in plan.senders:
            process(self._replica_sender(op, proc))
        for op, dep, watcher in plan.watch_order:
            process(self._watchdog(op, dep, watcher))
        self.sim.run()
        self.trace.final_known_failed = frozenset().union(*self.flags.values())
        return self.trace

    # ------------------------------------------------------------------
    # Network callbacks
    # ------------------------------------------------------------------
    def _on_deliver(
        self, dep: DependencyKey, dest: str, time: float, payload: object
    ) -> None:
        # First copy wins; redundant later copies are ignored by the
        # one-shot event semantics (the Solution-2 receive rule).
        self.sim.fire(self._data[(dep, dest)], payload)

    def _on_observe(
        self, dep: DependencyKey, sender: str, link: str, time: float
    ) -> None:
        observable = self.detection == "oracle" or self.network.is_bus(link)
        if observable:
            self.sim.fire(self._observed[dep])
        if self.snoop_recovery and observable:
            # A frame from a flagged processor proves it came back to
            # life (intermittent fail-silent recovery, Section 6.1).
            for flags in self.flags.values():
                flags.discard(sender)

    # ------------------------------------------------------------------
    # Aliveness helpers
    # ------------------------------------------------------------------
    def _alive(self, proc: str) -> bool:
        return self.scenario.alive_at(proc, self.sim.now)

    # ------------------------------------------------------------------
    # Computation units
    # ------------------------------------------------------------------
    def _computation_unit(self, proc: str):
        """Run the processor's replicas in static order, data-driven."""
        sim = self.sim
        scenario = self.scenario
        data = self._data
        for row in self.plan.timeline[proc]:
            inputs: Dict[str, int] = {}
            for pred, dep in row.inputs:
                inputs[pred] = yield Wait(data[(dep, proc)])
            if not scenario.alive_at(proc, sim.now):
                return
            start = sim.now
            yield Delay(row.duration)
            end = sim.now
            completed = scenario.alive_through(proc, start, end)
            self.trace.executions.append(
                ExecutionRecord(
                    op=row.op, processor=proc, start=start, end=end,
                    completed=completed,
                )
            )
            if not completed:
                return
            value = compute_value(
                row.op,
                row.kind,
                inputs,
                initial_value=row.initial_value,
                iteration=self.iteration,
            )
            # The data of op now exists locally: feed local consumers
            # and mark production for the communication units.
            for dep in row.out_deps:
                sim.fire(data[(dep, proc)], value)
            sim.fire(self._produced[(row.op, proc)], value)
            if row.is_output:
                self._record_output(row.op, proc, end, value)

    def _record_output(self, op: str, proc: str, end: float, value: int) -> None:
        """First production wins; replica disagreement is an anomaly."""
        if op not in self.trace.output_values:
            self.trace.output_values[op] = value
        elif self.trace.output_values[op] != value:
            self.trace.value_anomalies.append(
                f"output {op!r} on {proc}: value {value} differs from the "
                f"first recorded {self.trace.output_values[op]}"
            )
        known = self.trace.output_times.get(op)
        if known is None or end < known:
            self.trace.output_times[op] = end

    # ------------------------------------------------------------------
    # Communication units: senders
    # ------------------------------------------------------------------
    def _replica_sender(self, op: str, proc: str):
        """Send every outgoing dependency of ``op`` once produced.

        Sends follow the static plan: ordered by their planned start
        dates and released no earlier than them (frames without a
        plan go out at once).  Solution-2 senders skip destinations
        their processor believes dead (the fail-flag array) — harmless
        when wrong, and the very mechanism that starves
        falsely-suspected processors on point-to-point links (Section
        7.4).
        """
        value = yield Wait(self._produced[(op, proc)])
        sim = self.sim
        if not self._alive(proc):
            return
        flagged = (
            self.flags[proc]
            if self.plan.semantics is ScheduleSemantics.SOLUTION2
            else None
        )
        plans = []
        for dep, release, dests in self.plan.sends[(op, proc)]:
            if flagged:
                dests = tuple(d for d in dests if d not in flagged)
                if not dests:
                    continue
            plans.append((sim.now if release is None else release, dep, dests))
        # (release, dependency) is unique per sender: dests never compare.
        plans.sort()
        for release, dep, dests in plans:
            if sim.now < release:
                yield Delay(release - sim.now)
            if not self._alive(proc):
                return
            self.network.dispatch(dep, proc, dests, payload=value)

    # ------------------------------------------------------------------
    # Communication units: Solution-1 watchdogs (Figure 12's OpComm)
    # ------------------------------------------------------------------
    def _watchdog(self, op: str, dep: DependencyKey, watcher: str):
        """One OpComm instance: watch the message of ``dep``, take over.

        Mirrors Figure 12: ``m`` starts at the main; flagged
        candidates are skipped without waiting; a timeout marks the
        candidate's unit failed and advances ``m``; if ``m`` reaches
        the watcher, it sends the result itself.
        """
        observed = self._observed[dep]
        flags = self.flags[watcher]
        for entry in self.plan.ladders[(op, dep, watcher)]:
            if not self._alive(watcher):
                return
            if entry.candidate in flags:
                continue  # already known faulty: no wait (Figure 12)
            outcome = yield WaitAny(
                (observed,), deadline=entry.deadline + DEADLINE_SLACK
            )
            if not self._alive(watcher):
                return
            if outcome is not None:
                return  # a healthier candidate sent: nothing to do
            self._declare_faulty(op, watcher, entry.candidate)
        # Every earlier candidate is believed dead: the watcher is the
        # effective main for this message.
        if observed.fired:
            return
        value = yield Wait(self._produced[(op, watcher)])
        if not self._alive(watcher):
            return
        dests = [d for d in self.plan.destinations[dep] if d != watcher]
        if dests:
            self.network.dispatch(
                dep, watcher, dests, takeover=True, payload=value,
            )
        # The watcher's own send is, of course, observed by the
        # remaining (later) watchers.
        self.sim.fire(observed)

    def _declare_faulty(self, op: str, watcher: str, suspect: str) -> None:
        if suspect in self.flags[watcher]:
            return
        self.flags[watcher].add(suspect)
        self.trace.detections.append(
            DetectionRecord(op=op, watcher=watcher, suspect=suspect, time=self.sim.now)
        )
