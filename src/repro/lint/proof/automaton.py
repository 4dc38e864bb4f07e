"""Compile a schedule into an explicit delivery automaton.

The automaton is a *static* description of everything the generated
executive will do at run time to deliver each data-dependency:

* which replicas are statically scheduled to send (the main replica
  under Solution 1 / baseline, every replica under Solution 2), at
  which planned release dates, to which destinations, over which
  routes;
* which backup replicas watch the message with which timeout-ladder
  rungs (from ``core/timeouts.py``), in rank order — each rung is an
  edge that can *re-arm* a takeover;
* the **stand-down edge**: the per-dependency ``observed`` signal is
  one-shot, so the first observable frame (or the mere *dispatch* of a
  takeover frame) permanently retires every still-waiting watcher.

The static tables are the schedule's compiled
:class:`~repro.core.plan.ExecutivePlan` — the very plan the simulator's
executive runs — and the problem's
:class:`~repro.graphs.transfers.TransferTable`; the automaton adds only
the run options (detection mode, snoop recovery) and the static event
windows.  No simulator module is imported.  The verifier
(:mod:`repro.lint.proof.verifier`) interprets this structure under
abstract crash dates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...core.plan import ExecutivePlan
from ...core.schedule import Schedule, ScheduleSemantics
from ...core.timeline import event_boundaries
from ...graphs.problem import Problem

__all__ = ["DeliveryAutomaton", "compile_automaton"]


@dataclass(frozen=True)
class DeliveryAutomaton:
    """The compiled, statically known delivery protocol of a schedule."""

    schedule: Schedule
    #: The executive plan: sequences, sends, destinations, ladders.
    plan: ExecutivePlan
    detection: str
    snoop_recovery: bool
    #: The static event windows (see :func:`~repro.core.timeline.event_boundaries`).
    boundaries: Tuple[float, ...]

    @property
    def problem(self) -> Problem:
        return self.schedule.problem

    def summary(self) -> Dict[str, object]:
        """Automaton shape, persisted into the proof artifact."""
        plan = self.plan
        deps = {}
        for dep, dests in sorted(plan.destinations.items()):
            if not dests:
                continue
            src = dep[0]
            watchers = [
                watcher
                for (op, d, watcher) in plan.watch_order
                if op == src and d == dep
            ]
            hosts = plan.replicas[src]
            senders = (
                hosts if plan.semantics is ScheduleSemantics.SOLUTION2 else hosts[:1]
            )
            deps["%s -> %s" % dep] = {
                "senders": list(senders),
                "destinations": list(dests),
                "watchers": watchers,
                "ladder_rungs": sum(
                    len(plan.ladders.get((src, dep, w), ())) for w in watchers
                ),
            }
        return {
            "semantics": plan.semantics.value,
            "detection": self.detection,
            "processors": list(plan.processors),
            "failures": self.problem.failures,
            "windows": len(self.boundaries),
            "dependencies": deps,
        }


def compile_automaton(
    schedule: Schedule,
    detection: Optional[str] = None,
    snoop_recovery: Optional[bool] = None,
) -> DeliveryAutomaton:
    """The delivery automaton of ``schedule`` (read-only)."""
    plan = schedule.executive_plan()
    return DeliveryAutomaton(
        schedule=schedule,
        plan=plan,
        detection=plan.detection_mode(detection),
        snoop_recovery=plan.snoop_recovery_mode(snoop_recovery),
        boundaries=tuple(event_boundaries(schedule)),
    )
