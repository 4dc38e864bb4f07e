"""Timeline bookkeeping shared by the list-scheduling heuristics.

The SynDEx-style heuristics are *append-only* list schedulers: every
computation unit and every link keeps a frontier ("free from date t")
that only moves forward as operations and comms are appended.  This
module holds that mutable state plus the two communication-planning
primitives used by all three schedulers:

* :meth:`CommPlanner.transfer` — carry one dependency's data from one
  processor to another along the static route (one slot per hop);
* :meth:`CommPlanner.broadcast` — carry one dependency's data from one
  processor to several destinations sharing a bus in a single frame
  (what makes Solution 1 cheap on multi-point links).

Schedulers evaluate tentative placements (the ``S(n)(o, p)`` term of
the schedule pressure) on an O(1) copy-on-write :meth:`TimelineState.ghost`
of the committed state, and rank candidate senders with the read-only
:meth:`CommPlanner.arrival`, so an evaluation never copies the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..graphs.problem import Problem
from ..graphs.transfers import split_bus_groups
from .schedule import CommSlot, Schedule

__all__ = [
    "TimelineState",
    "CommPlanner",
    "split_bus_groups",
    "event_boundaries",
]

DependencyKey = Tuple[str, str]


def event_boundaries(schedule: Schedule) -> List[float]:
    """Every date at which the schedule's static plan changes state.

    The sorted, de-duplicated union of 0, every replica start/end,
    every comm-slot start/end, and every Solution-1 timeout deadline.
    Between two consecutive boundaries nothing statically scheduled
    begins, ends, or expires — so two crashes of the same processor
    inside one such window interrupt the very same set of in-flight
    activities.  The fault-injection campaign
    (:mod:`repro.obs.campaign`) builds its crash-time equivalence
    classes and critical instants on these windows.
    """
    dates = {0.0}
    for replica in schedule.all_replicas():
        dates.add(replica.start)
        dates.add(replica.end)
    for slot in schedule.comms:
        dates.add(slot.start)
        dates.add(slot.end)
    for entry in schedule.timeouts:
        dates.add(entry.deadline)
    return sorted(dates)


class _Overlay:
    """Copy-on-write view of one state family: reads fall through to
    ``base`` unless written here; writes never reach ``base``.

    Implements only what the planners and :class:`TimelineState` use
    on a ghost (``get`` and ``[]=``).
    """

    __slots__ = ("base", "local")

    def __init__(self, base: dict) -> None:
        self.base = base
        self.local: dict = {}

    def get(self, key, default=None):
        local = self.local
        if key in local:
            return local[key]
        return self.base.get(key, default)

    def __setitem__(self, key, value) -> None:
        self.local[key] = value


@dataclass
class TimelineState:
    """The mutable frontier of a partial schedule.

    Attributes
    ----------
    proc_free:
        Per processor, the date from which its computation unit is
        idle.
    link_free:
        Per link, the date from which the medium is idle (the link
        arbiter serializes all comms, Section 4.3).
    dep_arrival:
        Per (dependency, processor), the date at which the
        dependency's data has arrived on that processor through a
        comm.  Used both to compute input readiness and to avoid
        resending data already delivered.
    replica_end:
        Per (operation, processor), the completion date of the replica
        of the operation hosted by the processor (if any) — the date
        from which the data is available *locally*.
    """

    proc_free: Dict[str, float] = field(default_factory=dict)
    link_free: Dict[str, float] = field(default_factory=dict)
    dep_arrival: Dict[Tuple[DependencyKey, str], float] = field(default_factory=dict)
    replica_end: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @classmethod
    def for_problem(cls, problem: Problem) -> "TimelineState":
        """A fresh (empty) state for ``problem``."""
        return cls(
            proc_free={p: 0.0 for p in problem.architecture.processor_names},
            link_free={l: 0.0 for l in problem.architecture.link_names},
        )

    def clone(self) -> "TimelineState":
        """An independent deep copy (O(state))."""
        return TimelineState(
            proc_free=dict(self.proc_free),
            link_free=dict(self.link_free),
            dep_arrival=dict(self.dep_arrival),
            replica_end=dict(self.replica_end),
        )

    def ghost(self) -> "TimelineState":
        """An O(1) copy-on-write view for one tentative evaluation.

        Evaluations write only link frontiers and data arrivals, so
        only those two families get an :class:`_Overlay`; the
        processor frontiers and replica completions are shared with
        this state and must be treated as read-only through the ghost.
        This state must not change while the ghost is in use.
        """
        return TimelineState(
            proc_free=self.proc_free,
            link_free=_Overlay(self.link_free),
            dep_arrival=_Overlay(self.dep_arrival),
            replica_end=self.replica_end,
        )

    # ------------------------------------------------------------------
    # Local data availability
    # ------------------------------------------------------------------
    def local_copy_end(self, op: str, proc: str) -> Optional[float]:
        """Completion date of a replica of ``op`` on ``proc``, if any."""
        return self.replica_end.get((op, proc))

    def arrival(self, dep: DependencyKey, proc: str) -> Optional[float]:
        """Arrival date of ``dep``'s data on ``proc`` via a comm, if any."""
        if type(dep) is not tuple:
            dep = tuple(dep)
        return self.dep_arrival.get((dep, proc))

    def record_arrival(self, dep: DependencyKey, proc: str, date: float) -> None:
        """Record (or improve) the arrival of ``dep`` on ``proc``."""
        if type(dep) is not tuple:
            dep = tuple(dep)
        key = (dep, proc)
        known = self.dep_arrival.get(key)
        if known is None or date < known:
            self.dep_arrival[key] = date

    def record_replica(self, op: str, proc: str, end: float) -> None:
        """Record the completion date of ``op``'s replica on ``proc``."""
        self.replica_end[(op, proc)] = end
        self.proc_free[proc] = max(self.proc_free.get(proc, 0.0), end)

    def data_available(self, dep: DependencyKey, proc: str) -> Optional[float]:
        """Date from which ``dep``'s data is usable on ``proc``.

        The earliest of a local replica of the source operation and a
        delivered comm; ``None`` when the data is not (yet) reachable
        on ``proc`` without scheduling a new comm.
        """
        local = self.replica_end.get((dep[0], proc))
        arrived = self.arrival(dep, proc)
        if local is None:
            return arrived
        if arrived is None:
            return local
        return min(local, arrived)


class CommPlanner:
    """Schedules comms onto links, honouring static routes.

    One planner per problem.  :meth:`transfer` and :meth:`broadcast`
    mutate the supplied :class:`TimelineState` and optionally append
    the created :class:`~repro.core.schedule.CommSlot` objects to
    ``collect`` (pass ``None`` for tentative evaluation);
    :meth:`arrival` only reads it.

    Each call reads the problem's
    :class:`~repro.graphs.transfers.TransferTable`: the hop plan
    ``(hop_from, hop_to, link, duration)`` of every (sender,
    destination, dependency) and the :func:`split_bus_groups` answer
    of every (dependency, sender, destinations) with each bus frame's
    duration — the same table the simulator and the prover read.
    """

    def __init__(self, problem: Problem) -> None:
        self._transfers = problem.transfers
        self._plans = self._transfers.hop_plans
        self._splits = self._transfers.bus_splits

    # ------------------------------------------------------------------
    # Unicast transfer along the static route
    # ------------------------------------------------------------------
    def transfer(
        self,
        state: TimelineState,
        dep: DependencyKey,
        sender: str,
        dest: str,
        ready: float,
        collect: Optional[List[CommSlot]] = None,
        sender_replica: int = 0,
    ) -> float:
        """Carry ``dep`` from ``sender`` to ``dest``; return arrival date.

        ``ready`` is the date from which the data exists on
        ``sender``.  Each hop occupies its link from
        ``max(data there, link free)`` for the dependency's duration
        on that link (store-and-forward).
        """
        if sender == dest:
            state.record_arrival(dep, dest, ready)
            return ready
        hops = self._plans.get((sender, dest, dep)) or self._transfers.hops(
            dep, sender, dest
        )
        link_free = state.link_free
        date = ready
        for index, (hop_from, hop_to, link, duration) in enumerate(hops):
            start = max(date, link_free.get(link, 0.0))
            end = start + duration
            link_free[link] = end
            if collect is not None:
                collect.append(
                    CommSlot(
                        dependency=tuple(dep),
                        sender=hop_from,
                        destinations=(hop_to,),
                        link=link,
                        start=start,
                        end=end,
                        sender_replica=sender_replica,
                        hop=index,
                        route_length=len(hops),
                    )
                )
            date = end
        state.record_arrival(dep, dest, date)
        return date

    def arrival(
        self,
        state: TimelineState,
        dep: DependencyKey,
        sender: str,
        dest: str,
        ready: float,
    ) -> float:
        """The date :meth:`transfer` would return, without writing.

        Walks the same hop plan with the same arithmetic; since a route
        never uses a link twice, no hop can see a frontier an earlier
        hop of the same transfer would have moved.
        """
        if sender == dest:
            return ready
        hops = self._plans.get((sender, dest, dep)) or self._transfers.hops(
            dep, sender, dest
        )
        link_free = state.link_free
        date = ready
        for _hop_from, _hop_to, link, duration in hops:
            date = max(date, link_free.get(link, 0.0)) + duration
        return date

    # ------------------------------------------------------------------
    # Broadcast on a shared bus
    # ------------------------------------------------------------------
    def broadcast(
        self,
        state: TimelineState,
        dep: DependencyKey,
        sender: str,
        dests: Sequence[str],
        ready: float,
        collect: Optional[List[CommSlot]] = None,
        sender_replica: int = 0,
    ) -> Dict[str, float]:
        """Carry ``dep`` from ``sender`` to each of ``dests``.

        Destinations sharing a bus with the sender are served by a
        single frame (multi-point links physically broadcast, paper
        Section 2.1) — unless a strictly faster dedicated route exists
        for them (see :func:`split_bus_groups`); the rest fall back to
        unicast routed transfers.  Returns the arrival date per
        destination.
        """
        arrivals: Dict[str, float] = {d: ready for d in dests if d == sender}
        groups, unicast = (
            self._splits.get((dep, sender, tuple(dests)))
            or self._transfers.split(dep, sender, dests)
        )

        for link_name, duration, served in groups:
            start = max(ready, state.link_free.get(link_name, 0.0))
            end = start + duration
            state.link_free[link_name] = end
            if collect is not None:
                collect.append(
                    CommSlot(
                        dependency=tuple(dep),
                        sender=sender,
                        destinations=served,
                        link=link_name,
                        start=start,
                        end=end,
                        sender_replica=sender_replica,
                    )
                )
            for dest in served:
                state.record_arrival(dep, dest, end)
                arrivals[dest] = end

        for dest in unicast:
            arrivals[dest] = self.transfer(
                state, dep, sender, dest, ready, collect, sender_replica
            )
        return arrivals

    # ------------------------------------------------------------------
    # Worst-case point-to-point bound (used for Solution-1 timeouts)
    # ------------------------------------------------------------------
    def worst_case_transfer(self, dep: DependencyKey, sender: str, dest: str) -> float:
        """Upper bound of ``dep``'s transmission delay sender -> dest.

        Contention-free route time: the paper computes each timeout
        "as the worst case upper-bound of the message transmission
        delay ... from the characteristics of the communication
        network" (Section 6.1, item 2).
        """
        if sender == dest:
            return 0.0
        return sum(hop[3] for hop in self._transfers.hops(dep, sender, dest))
