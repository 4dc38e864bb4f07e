"""Static transfer plans of a problem: routed hops and bus broadcasts.

How a dependency's data travels from one processor to others is fixed
by the architecture, the routing rule and the communication table —
all static for a problem.  :class:`TransferTable` answers the two
questions every layer asks about it, once per distinct question:

* :meth:`TransferTable.hops` — the store-and-forward hops ``(hop_from,
  hop_to, link, duration)`` of a unicast transfer along the static
  route (:meth:`~repro.graphs.routing.RoutingTable.route_for_dependency`);
* :meth:`TransferTable.split` — which destinations one bus frame
  serves and which fall back to unicast routes
  (:func:`split_bus_groups`), with each bus frame's duration.

The list schedulers' :class:`~repro.core.timeline.CommPlanner`, the
simulator's network and the static prover all read the one table of a
problem (:attr:`repro.graphs.problem.Problem.transfers`), so planned
and simulated frames agree by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .problem import Problem

__all__ = ["TransferTable", "split_bus_groups"]

DependencyKey = Tuple[str, str]

#: One hop of a routed transfer: (hop_from, hop_to, link, duration).
Hop = Tuple[str, str, str, float]

#: A bus split: ((bus, frame duration, served dests), ...), unicast dests.
Split = Tuple[Tuple[Tuple[str, float, Tuple[str, ...]], ...], Tuple[str, ...]]


def split_bus_groups(
    problem: "Problem",
    dep: DependencyKey,
    sender: str,
    dests: Sequence[str],
) -> Tuple[List[Tuple[str, List[str]]], List[str]]:
    """Partition destinations into bus broadcasts and unicast routes.

    A destination is grouped onto one of the sender's buses only when
    the bus is no slower (for this dependency) than the destination's
    best unicast route — otherwise a dedicated fast link would be
    wasted on it (e.g. an express point-to-point link shunting a slow
    backbone bus).  Ties go to the bus: one broadcast frame beats
    several unicasts.  Returns ``([(bus, [dest...]), ...], [unicast
    dest...])`` with deterministic ordering.
    """
    comm = problem.communication
    routing = problem.routing
    pending = [d for d in dict.fromkeys(dests) if d != sender]
    groups: List[Tuple[str, List[str]]] = []
    for link in problem.architecture.links_of(sender):
        if not link.is_bus or not pending:
            continue
        bus_cost = comm.duration(dep, link.name)
        served = []
        for dest in pending:
            if dest not in link.endpoints:
                continue
            best = routing.route_for_dependency(
                sender, dest, dep, comm
            ).transfer_time(tuple(dep), comm)
            if bus_cost <= best + 1e-12:
                served.append(dest)
        if served:
            groups.append((link.name, served))
            pending = [d for d in pending if d not in served]
    return groups, pending


class TransferTable:
    """Hop plans and bus splits of one problem, filled on first use.

    Built by :attr:`~repro.graphs.problem.Problem.transfers`; the
    problem's communication table is captured at construction.
    """

    def __init__(self, problem: "Problem") -> None:
        self._problem = problem
        self.communication = problem.communication
        #: Per link, True when it is a multi-point link (a bus).
        self.is_bus: Dict[str, bool] = {
            link.name: link.is_bus for link in problem.architecture.links
        }
        #: Answers of :meth:`hops` by ``(sender, dest, dep)`` and of
        #: :meth:`split` by ``(dep, sender, tuple(dests))``: hot loops
        #: read them directly and call the method only on a miss.
        self.hop_plans: Dict[Tuple[str, str, DependencyKey], Tuple[Hop, ...]] = {}
        self.bus_splits: Dict[Tuple[DependencyKey, str, Tuple[str, ...]], Split] = {}

    def hops(self, dep: DependencyKey, sender: str, dest: str) -> Tuple[Hop, ...]:
        """The routed hops carrying ``dep`` from ``sender`` to ``dest``."""
        key = (sender, dest, dep)
        hops = self.hop_plans.get(key)
        if hops is None:
            route = self._problem.routing.route_for_dependency(
                sender, dest, dep, self.communication
            )
            duration = self.communication.duration
            hops = tuple(
                (hop_from, hop_to, link, duration(dep, link))
                for hop_from, hop_to, link in route.hops()
            )
            self.hop_plans[key] = hops
        return hops

    def split(self, dep: DependencyKey, sender: str, dests: Sequence[str]) -> Split:
        """:func:`split_bus_groups` of ``dests``, with bus frame durations."""
        key = (dep, sender, tuple(dests))
        split = self.bus_splits.get(key)
        if split is None:
            groups, unicast = split_bus_groups(self._problem, dep, sender, dests)
            duration = self.communication.duration
            split = (
                tuple(
                    (link, duration(dep, link), tuple(served))
                    for link, served in groups
                ),
                tuple(unicast),
            )
            self.bus_splits[key] = split
        return split
