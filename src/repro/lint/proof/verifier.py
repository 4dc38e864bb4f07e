"""The static delivery verifier: exhaustive ≤K-crash proof or refutation.

Two ideas make the proof both *sound* and *finite*:

1. **Guard-recording abstract interpretation.**  One evaluation of the
   delivery automaton under concrete crash dates follows exactly the
   branch structure of the generated executive (planned time-triggered
   sends, timeout-ladder watchdogs with one-shot stand-down, link
   serialization, store-and-forward relays).  Every branch that
   depends on a crash date goes through :meth:`_Run._alive_at` /
   :meth:`_Run._alive_through`, which record the compared date as a
   *guard*.  The run's verdict is therefore valid for every crash-date
   assignment in the maximal region around the representative in which
   no guard flips.

2. **Region refinement.**  For each crash subset S (|S| ≤ K) the
   verifier partitions the crash-date space ``[0, ∞)^S`` along the
   recorded guards, evaluating one representative per region until the
   whole space is covered — the "(processor, window)-class collapse"
   of the static event windows, made exact: one evaluation typically
   covers many window classes (counted as ``proof.classes_collapsed``),
   and derived dates (e.g. a takeover frame completing mid-window)
   split windows that the static boundaries cannot see.

Subset-lattice pruning is sound because refutation is monotone in the
crash *set*: if S fails for dates T, then S ∪ {q} fails for T
extended with q crashing after all activity (identical trajectory).
Proven-dead subsets therefore retire all their supersets
(``proof.pruned``).

A run is a table-driven interpreter without generators or closures
(:class:`_Program` holds the static process tables, :class:`_Run` a
few flat containers of state: fired events, per-process state tuples
with wake tokens, a heap of plain ``(time, seq, kind, a, b)`` entries,
fail flags and link frontiers).  Because that state is cheap to copy,
each proof runs the fault-free iteration once and snapshots it before
every new event date (:class:`_Checkpoints`); every evaluation then
starts from the latest snapshot whose *horizon* — the largest date any
crash check had compared against — lies below all of its crash dates,
instead of replaying the shared fault-free prefix from t=0.  Events
processed, over every run of a proof, are counted as ``proof.events``.

No simulator module is imported: everything runs on the compiled
:class:`~repro.lint.proof.automaton.DeliveryAutomaton`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...core.plan import DEADLINE_SLACK
from ...core.schedule import Schedule, ScheduleSemantics
from ...obs import get_instrumentation
from .automaton import DeliveryAutomaton, compile_automaton
from .model import (
    ClassRegion,
    Counterexample,
    DependencyWitness,
    ProofResult,
    render_class,
    window_index,
)

__all__ = ["prove_delivery", "check_scenario", "ScenarioCheck"]

DependencyKey = Tuple[str, str]


# ----------------------------------------------------------------------
# One abstract run: concrete crash dates in, verdict + guards out
# ----------------------------------------------------------------------
#: Heap entry kinds.  An entry is ``(time, seq, kind, a, b)``: ``seq``
#: breaks time ties in push order (so ``kind``, ``a`` and ``b`` never
#: compare); ``_RESUME``/``_FIRED`` wake process ``a`` if its wake token
#: is still ``b`` (``_FIRED``: by the event it waits on, ``_RESUME``: by
#: its spawn, delay or deadline); ``_FRAME`` completes frame ``a``.
_RESUME, _FIRED, _FRAME = 0, 1, 2

#: Process kinds, in the executive's spawn order.
_UNIT, _SENDER, _WATCHDOG = 0, 1, 2

#: Wake token of a process that has returned.
_DONE = -1


@dataclass
class _Race:
    """A takeover frame that stood watchers down and was then lost."""

    dep: DependencyKey
    dispatcher: str
    dispatch_time: float
    frame_end: float
    stood_down: Tuple[Tuple[str, int], ...] = ()


def _copied(state: tuple) -> tuple:
    """``state`` with every container copied (their items are immutable)."""
    return tuple(
        value.copy() if hasattr(value, "copy") else value for value in state
    )


class _Program:
    """The automaton's processes as flat tables, with integer event ids.

    Every process of the executive is a static record plus a small
    state tuple, so a whole run is a handful of flat containers that
    :class:`_Checkpoints` can copy.  Process ``pid`` is, in spawn
    order: one computation unit per processor (``(proc, rows)``, a row
    being ``(input event ids, duration, output data event ids, produced
    event id, op, is_output)``), one replica sender per planned sender
    (``(op, proc, produced event id, frames)``) and one watchdog per
    Solution-1 ladder (``(op, dep, watcher, ((candidate, deadline),
    ...), observed event id, produced event id, takeover destinations)``).
    """

    def __init__(self, auto: DeliveryAutomaton) -> None:
        self.auto = auto
        self.plan = plan = auto.plan
        self.transfers = auto.problem.transfers
        self.oracle = auto.detection == "oracle"
        self.snoop_recovery = auto.snoop_recovery
        self.solution2 = plan.semantics is ScheduleSemantics.SOLUTION2
        ids = itertools.count()
        self.data = {key: next(ids) for key, _name in plan.data_events}
        self.produced = {key: next(ids) for key, _name in plan.produced_events}
        self.observed = {key: next(ids) for key, _name in plan.observed_events}
        self.event_count = next(ids)

        kinds, statics, states = [], [], []
        for proc in plan.processors:
            rows = tuple(
                (
                    tuple(self.data[(dep, proc)] for _pred, dep in row.inputs),
                    row.duration,
                    tuple(self.data[(dep, proc)] for dep in row.out_deps),
                    self.produced[(row.op, proc)],
                    row.op,
                    row.is_output,
                )
                for row in plan.timeline[proc]
            )
            kinds.append(_UNIT)
            statics.append((proc, rows))
            states.append((0, 0, False))  # (row, input, executing)
        for op, proc in plan.senders:
            kinds.append(_SENDER)
            statics.append(
                (op, proc, self.produced[(op, proc)], plan.sends[(op, proc)])
            )
            states.append((0, (), 0))  # (phase, frames, frame index)
        for op, dep, watcher in plan.watch_order:
            rungs = tuple(
                (rung.candidate, rung.deadline + DEADLINE_SLACK)
                for rung in plan.ladders[(op, dep, watcher)]
            )
            kinds.append(_WATCHDOG)
            statics.append((
                op, dep, watcher, rungs,
                self.observed[dep],
                self.produced[(op, watcher)],
                tuple(d for d in plan.destinations[dep] if d != watcher),
            ))
            states.append((0, 0))  # (phase, rung index)
        self.kinds = tuple(kinds)
        self.statics = tuple(statics)
        self._states = tuple(states)

    def initial_state(self, known_failed: Iterable[str] = ()) -> tuple:
        """The run state at t=0: every process spawned, nothing fired."""
        count = len(self.kinds)
        flagged = frozenset(known_failed)
        return (
            0.0,  # now
            count,  # next heap sequence number
            [(0.0, pid, _RESUME, pid, 0) for pid in range(count)],
            bytearray(self.event_count),  # fired
            {},  # waiters: event -> ((pid, token), ...)
            list(self._states),
            [0] * count,  # wake tokens
            {proc: flagged for proc in self.plan.processors},
            dict.fromkeys(self.transfers.is_bus, 0.0),  # link frontiers
            set(),  # outputs done
            {},  # delivery source: (dep, dest) -> (kind, sender, rank)
            {},  # observed cause: dep -> (cause, sender, date)
            [],  # stand-downs: (op, dep, watcher, rung, date)
            [],  # lost takeovers: (dep, dispatcher, dispatch date, frame end)
            0,  # detections
            -math.inf,  # horizon
        )


class _Run:
    """Interpret the automaton under permanent crash dates ``crashes``.

    The run starts from ``state`` (:meth:`_Program.initial_state` or a
    :class:`_Checkpoints` snapshot, copied, never modified) and
    follows exactly the branch structure of the generated executive:
    planned time-triggered sends, timeout-ladder watchdogs with
    one-shot stand-down, link serialization, store-and-forward relays.
    It records, per crashed processor, every date its crash time was
    compared against (the *guards*), the largest date any check
    compared against (the *horizon*), and the delivery bookkeeping the
    proof artifact and the FT4xx rules need.
    """

    def __init__(
        self, program: _Program, crashes: Dict[str, float], state: tuple
    ) -> None:
        self.program = program
        self.plan = program.plan
        self.crashes = crashes
        self.guards: Dict[str, Set[float]] = {p: set() for p in crashes}
        self.events = 0
        (
            self.now, self.seq, self.heap, self.fired, self.waiters,
            self.states, self.tokens, self.flags, self.busy,
            self.outputs_done, self.delivery_source, self.observed_cause,
            self.stand_downs, self.lost_takeovers, self.detections,
            self.horizon,
        ) = _copied(state)
        self._bodies = (self._unit, self._sender, self._watchdog)

    def snapshot(self) -> tuple:
        """The run state, in :meth:`_Program.initial_state` layout."""
        return _copied((
            self.now, self.seq, self.heap, self.fired, self.waiters,
            self.states, self.tokens, self.flags, self.busy,
            self.outputs_done, self.delivery_source, self.observed_cause,
            self.stand_downs, self.lost_takeovers, self.detections,
            self.horizon,
        ))

    # -- crash predicates (every call records a guard) ------------------
    def _alive_at(self, proc: str, time: float) -> bool:
        if time > self.horizon:
            self.horizon = time
        at = self.crashes.get(proc)
        if at is None:
            return True
        self.guards[proc].add(time)
        return time < at

    #: ``_alive_through(proc, end)``: alive over a whole activity ending
    #: at ``end`` (a frame grant checks it before the frame runs).
    _alive_through = _alive_at

    # -- the event loop -------------------------------------------------
    def execute(self, checkpoints: Optional["_Checkpoints"] = None) -> "_Run":
        """Run to quiescence; with ``checkpoints``, store a snapshot
        before the first event of every new date."""
        heap = self.heap
        tokens = self.tokens
        bodies = self._bodies
        kinds = self.program.kinds
        pop = heapq.heappop
        while heap:
            if checkpoints is not None and heap[0][0] > self.now:
                checkpoints.add(self)
            self.now, _seq, kind, a, b = pop(heap)
            self.events += 1
            if kind == _FRAME:
                self._complete(a)
            elif tokens[a] == b:
                bodies[kinds[a]](a, kind == _FIRED)
        return self

    def _push(self, time: float, kind: int, a, b) -> None:
        now = self.now
        heapq.heappush(self.heap, (time if time > now else now, self.seq, kind, a, b))
        self.seq += 1

    def _block(self, pid: int) -> int:
        """A fresh wake token for ``pid``: older heap entries go stale."""
        token = self.tokens[pid] + 1
        self.tokens[pid] = token
        return token

    def _wait(self, pid: int, event: int) -> int:
        token = self._block(pid)
        self.waiters[event] = self.waiters.get(event, ()) + ((pid, token),)
        return token

    def _sleep(self, pid: int, time: float) -> None:
        self._push(time, _RESUME, pid, self._block(pid))

    def _fire(self, event: int) -> None:
        if self.fired[event]:
            return
        self.fired[event] = 1
        waiters = self.waiters.pop(event, None)
        if waiters:
            tokens = self.tokens
            for pid, token in waiters:
                if tokens[pid] == token:
                    self._push(self.now, _FIRED, pid, token)

    # -- processes (mirror the executive's spawn order and branches) ----
    # A process resumes only when its awaited event has fired (events
    # are one-shot), so re-testing ``fired`` on resume is the wait's
    # own "already fired" fast path.
    def _unit(self, pid: int, _by_event: bool) -> None:
        proc, rows = self.program.statics[pid]
        row, waited, executing = self.states[pid]
        fired = self.fired
        if executing:
            _inputs, _duration, out_data, produced, op, is_output = rows[row]
            if not self._alive_through(proc, self.now):
                self.tokens[pid] = _DONE
                return
            for event in out_data:
                self._fire(event)
            self._fire(produced)
            if is_output:
                self.outputs_done.add(op)
            row, waited = row + 1, 0
        while row < len(rows):
            inputs, duration = rows[row][:2]
            while waited < len(inputs):
                if not fired[inputs[waited]]:
                    self.states[pid] = (row, waited, False)
                    self._wait(pid, inputs[waited])
                    return
                waited += 1
            if not self._alive_at(proc, self.now):
                break
            self.states[pid] = (row, waited, True)
            self._sleep(pid, self.now + duration)
            return
        self.tokens[pid] = _DONE

    def _sender(self, pid: int, _by_event: bool) -> None:
        op, proc, produced, sends = self.program.statics[pid]
        phase, frames, index = self.states[pid]
        delayed = phase == 1  # resumed from frames[index]'s release delay
        if phase == 0:
            if not self.fired[produced]:
                self._wait(pid, produced)
                return
            if not self._alive_at(proc, self.now):
                self.tokens[pid] = _DONE
                return
            flagged = self.flags[proc] if self.program.solution2 else None
            plans = []
            for dep, release, dests in sends:
                if flagged:
                    dests = tuple(d for d in dests if d not in flagged)
                    if not dests:
                        continue
                plans.append(
                    (release if release is not None else self.now, dep, dests)
                )
            # (release, dependency) is unique per sender: dests never compare.
            plans.sort()
            frames = tuple(plans)
        while index < len(frames):
            release, dep, dests = frames[index]
            if not delayed and self.now < release:
                self.states[pid] = (1, frames, index)
                self._sleep(pid, self.now + (release - self.now))
                return
            delayed = False
            if not self._alive_at(proc, self.now):
                break
            self._dispatch(dep, proc, dests, takeover=False)
            index += 1
        self.tokens[pid] = _DONE

    def _watchdog(self, pid: int, by_event: bool) -> None:
        op, dep, watcher, rungs, observed, produced, dests = (
            self.program.statics[pid]
        )
        phase, index = self.states[pid]
        fired = self.fired
        if phase == 1:  # resumed from rung ``index``: observed or timed out
            if not self._alive_at(watcher, self.now):
                self.tokens[pid] = _DONE
                return
            if by_event:
                self._stand_down(pid, op, dep, watcher, index)
                return
            candidate = rungs[index][0]
            if candidate not in self.flags[watcher]:
                self.flags[watcher] |= {candidate}
                self.detections += 1
            index += 1
        if phase != 2:
            while index < len(rungs):
                if not self._alive_at(watcher, self.now):
                    self.tokens[pid] = _DONE
                    return
                candidate, deadline = rungs[index]
                if candidate in self.flags[watcher]:
                    index += 1
                    continue  # coalesced skip: already known faulty, no wait
                if fired[observed]:
                    # Already observed: the wait returns at once, and the
                    # liveness re-check at the same date is the one above.
                    self._stand_down(pid, op, dep, watcher, index)
                    return
                self.states[pid] = (1, index)
                self._push(deadline, _RESUME, pid, self._wait(pid, observed))
                return
            if fired[observed]:
                self._stand_down(pid, op, dep, watcher, len(rungs))
                return
        if not fired[produced]:
            self.states[pid] = (2, index)
            self._wait(pid, produced)
            return
        self.tokens[pid] = _DONE
        if not self._alive_at(watcher, self.now):
            return
        if dests:
            self._dispatch(dep, watcher, dests, takeover=True)
        self._fire_observed(dep, "takeover-dispatch", watcher)

    def _stand_down(self, pid, op, dep, watcher, index) -> None:
        """The one-shot stand-down edge: the watchdog returns."""
        self.stand_downs.append((op, dep, watcher, index, self.now))
        self.tokens[pid] = _DONE

    # -- network --------------------------------------------------------
    def _dispatch(
        self, dep: DependencyKey, sender: str, dests: Tuple[str, ...], takeover: bool
    ) -> None:
        transfers = self.program.transfers
        groups, unicast = (
            transfers.bus_splits.get((dep, sender, dests))
            or transfers.split(dep, sender, dests)
        )
        for link, duration, served in groups:
            self._emit(dep, sender, served, link, duration, takeover, None, 0)
        for dest in unicast:
            hops = (
                transfers.hop_plans.get((sender, dest, dep))
                or transfers.hops(dep, sender, dest)
            )
            self._forward(dep, hops, 0, takeover)

    def _forward(self, dep, hops, index, takeover) -> None:
        if index >= len(hops):
            return
        hop_from, hop_to, link, duration = hops[index]
        is_last = index == len(hops) - 1
        self._emit(
            dep, hop_from, (hop_to,), link, duration, takeover,
            None if is_last else hops, index + 1,
        )

    def _emit(
        self, dep, sender, dests, link, duration, takeover, hops, next_hop
    ) -> None:
        """Grant ``link`` to one frame; ``hops[next_hop:]`` (when
        ``hops`` is given) continue the route once it completes."""
        start = self.now
        if self.busy[link] > start:
            start = self.busy[link]
        if not self._alive_at(sender, start):
            return  # fail-stop before grant: frame never exists
        end = start + duration
        self.busy[link] = end
        if not self._alive_through(sender, end):
            # The frame occupies the link but is lost mid-transmission.
            if takeover:
                self.lost_takeovers.append((dep, sender, self.now, end))
            return
        self._push(
            end, _FRAME, (dep, sender, dests, link, takeover, hops, next_hop), None
        )

    def _complete(self, frame) -> None:
        dep, sender, dests, link, takeover, hops, next_hop = frame
        program = self.program
        # Snoop detection observes bus frames only; oracle, any frame.
        if program.oracle or program.transfers.is_bus[link]:
            self._fire_observed(dep, "frame", sender)
            if program.snoop_recovery:
                flags = self.flags
                for proc, flagged in flags.items():
                    if sender in flagged:
                        flags[proc] = flagged - {sender}
        for dest in dests:
            if self._alive_at(dest, self.now):
                self._deliver(dep, dest, sender, takeover)
        if hops is not None:
            self._forward(dep, hops, next_hop, takeover)

    def _deliver(self, dep, dest, sender, takeover) -> None:
        event = self.program.data[(dep, dest)]
        if not self.fired[event]:
            kind = "takeover" if takeover else "planned"
            self.delivery_source[(dep, dest)] = (
                kind,
                sender,
                self.plan.rank.get((dep[0], sender), 0),
            )
        self._fire(event)

    def _fire_observed(self, dep, cause: str, sender: str) -> None:
        event = self.program.observed[dep]
        if not self.fired[event]:
            self.observed_cause[dep] = (cause, sender, self.now)
        self._fire(event)

    # -- verdict --------------------------------------------------------
    @property
    def missing_outputs(self) -> Tuple[str, ...]:
        return tuple(
            op for op in self.plan.outputs if op not in self.outputs_done
        )

    @property
    def ok(self) -> bool:
        return not self.missing_outputs

    def undelivered(self) -> List[Tuple[DependencyKey, str]]:
        """(dep, destination) pairs where a *surviving* consumer
        replica never received the data it depends on."""
        data = self.program.data
        starved = []
        for dep, dests in sorted(self.plan.destinations.items()):
            for dest in dests:
                if dest in self.crashes:
                    continue
                if not self.fired[data[(dep, dest)]]:
                    starved.append((dep, dest))
        return starved

    def races(self) -> List[_Race]:
        """Lost takeover frames whose dispatch-time observe retired
        watchers that still held armed rungs — the stand-down race."""
        out = []
        for dep, dispatcher, dispatch_time, frame_end in self.lost_takeovers:
            cause = self.observed_cause.get(dep)
            if not cause or cause[0] != "takeover-dispatch":
                continue
            if cause[1] != dispatcher:
                continue
            stood = tuple(
                (watcher, index)
                for (_op, stood_dep, watcher, index, time) in self.stand_downs
                if stood_dep == dep
                and watcher != dispatcher
                and time >= dispatch_time
            )
            if stood:
                out.append(
                    _Race(dep, dispatcher, dispatch_time, frame_end, stood)
                )
        return out

    def witness_depth(self) -> int:
        depth = 0
        for kind, _sender, rank in self.delivery_source.values():
            depth = max(depth, rank + 1 if kind == "takeover" else 1)
        return depth


class _Checkpoints:
    """Snapshots of the fault-free run, at most one per event date.

    Before the first event of each new date the fault-free run stores
    its state and its *horizon*: the largest date any crash check has
    compared against so far (a granted frame's end date included, which
    can lie ahead of the checkpoint).  Under crash dates ``c`` every
    earlier check answered "alive" whenever the horizon is below
    ``min(c)``, so the crashed run reaches that checkpoint's state
    exactly, and the guards it skips all lie below every crash date.
    """

    def __init__(self, program: _Program) -> None:
        self.program = program
        initial = program.initial_state()
        self.horizons: List[float] = [initial[-1]]
        self.states: List[tuple] = [initial]
        #: Events the fault-free run processed.
        self.events = _Run(program, {}, initial).execute(checkpoints=self).events

    def add(self, run: _Run) -> None:
        if run.horizon == self.horizons[-1]:
            # Same validity, later start: the new snapshot supersedes.
            self.states[-1] = run.snapshot()
        else:
            self.horizons.append(run.horizon)
            self.states.append(run.snapshot())

    def start(self, crashes: Dict[str, float]) -> tuple:
        """The latest snapshot whose horizon lies below every crash date."""
        first = min(crashes.values(), default=math.inf)
        return self.states[bisect_left(self.horizons, first) - 1]

    def run(self, crashes: Dict[str, float]) -> _Run:
        return _Run(self.program, crashes, self.start(crashes)).execute()


# ----------------------------------------------------------------------
# Region sweep over one crash subset
# ----------------------------------------------------------------------
@dataclass
class _SubsetResult:
    subset: Tuple[str, ...]
    status: str  # "safe" | "refuted" | "unproven"
    evaluations: int = 0
    refuted_cells: List[Tuple[tuple, _Run]] = field(default_factory=list)
    classes_collapsed: int = 0
    events: int = 0
    witness_depth: int = 0
    chains: Dict[DependencyKey, Dict[Tuple[str, str, int], int]] = field(
        default_factory=dict
    )


def _cell_windows(boundaries, lo: float, hi: float) -> Tuple[int, int]:
    """Inclusive (first, last) static window index overlapped by [lo, hi)."""
    first = window_index(boundaries, lo)
    if math.isinf(hi):
        return first, len(boundaries) - 1
    inner = max(lo, math.nextafter(hi, -math.inf))
    return first, window_index(boundaries, inner)


def _sweep_subset(
    checkpoints: _Checkpoints,
    subset: Tuple[str, ...],
    budget: int,
) -> _SubsetResult:
    result = _SubsetResult(subset=subset, status="safe")
    boundaries = checkpoints.program.auto.boundaries
    worklist: List[tuple] = [tuple((0.0, math.inf) for _ in subset)]
    while worklist:
        cell = worklist.pop()
        if result.evaluations >= budget:
            result.status = "unproven"
            return result
        reps = {p: interval[0] for p, interval in zip(subset, cell)}
        run = checkpoints.run(reps)
        result.evaluations += 1
        result.events += run.events
        # Partition the cell along the recorded guards; the verdict
        # holds on the representative's (guard-free) sub-cell.
        axes = []
        for proc, (lo, hi) in zip(subset, cell):
            cuts = sorted(
                cut
                for cut in (
                    math.nextafter(date, math.inf)
                    for date in run.guards.get(proc, ())
                )
                if lo < cut < hi
            )
            edges = [lo, *cuts, hi]
            axes.append(
                [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
            )
        rep_cell = tuple(axis[0] for axis in axes)
        for combo in itertools.product(*axes):
            if combo != rep_cell:
                worklist.append(combo)
        # Account the (processor, window)-classes this one evaluation
        # decided; anything beyond the first is a collapsed class.
        covered = 1
        for (lo, hi) in rep_cell:
            first, last = _cell_windows(boundaries, lo, hi)
            covered *= last - first + 1
        result.classes_collapsed += covered - 1
        if run.ok:
            result.witness_depth = max(result.witness_depth, run.witness_depth())
            for (dep, _dest), chain in run.delivery_source.items():
                result.chains.setdefault(dep, {})
                result.chains[dep][chain] = result.chains[dep].get(chain, 0) + 1
        else:
            result.status = "refuted"
            result.refuted_cells.append((rep_cell, run))
    return result


# ----------------------------------------------------------------------
# Monotone dead-subset certificate
# ----------------------------------------------------------------------
def _reaches_output(auto: DeliveryAutomaton) -> Set[str]:
    reaches = set(auto.plan.outputs)
    changed = True
    while changed:
        changed = False
        for op, deps in auto.plan.out_deps.items():
            if op in reaches:
                continue
            if any(dst in reaches for (_src, dst) in deps):
                reaches.add(op)
                changed = True
    return reaches


def _dead_certificate(
    auto: DeliveryAutomaton, subset: Tuple[str, ...], reaches: Set[str]
) -> Optional[str]:
    """An operation whose *every* replica host is in ``subset`` and
    which an expected output depends on: crashing the whole subset at
    t=0 then provably starves that output, for this subset and every
    superset (the monotone certificate behind lattice pruning)."""
    crashed = set(subset)
    for op in auto.plan.operations:
        hosts = auto.plan.replicas[op]
        if hosts and set(hosts) <= crashed and op in reaches:
            return op
    return None


# ----------------------------------------------------------------------
# The prover
# ----------------------------------------------------------------------
def prove_delivery(
    schedule: Schedule,
    detection: Optional[str] = None,
    max_evals_per_subset: int = 8000,
    max_failures: Optional[int] = None,
    probe_beyond: bool = True,
) -> ProofResult:
    """Prove (or refute) delivery under every ≤K crash subset.

    Returns a :class:`~repro.lint.proof.model.ProofResult` whose
    verdict is ``SAFE`` (proof artifact with per-dependency witness
    chains), ``UNSAFE`` (with a concrete, campaign-replayable
    counterexample), or ``UNPROVEN`` (the per-subset evaluation budget
    was exhausted before covering the region space — never claimed as
    either proof or refutation).
    """
    obs = get_instrumentation()
    with obs.span("proof.compile"):
        auto = compile_automaton(schedule, detection=detection)
    failures = auto.problem.failures if max_failures is None else max_failures
    with obs.span(
        "proof.verify",
        semantics=auto.plan.semantics.value,
        processors=len(auto.plan.processors),
        failures=failures,
    ):
        checkpoints = _Checkpoints(_Program(auto))
        obs.count("proof.events", checkpoints.events)
        result = _prove(checkpoints, failures, max_evals_per_subset, obs)
    if (
        probe_beyond
        and result.verdict == "SAFE"
        and max_failures is None
        and failures + 1 < len(auto.plan.processors)
        and _choose(len(auto.plan.processors), failures + 1) <= 64
    ):
        beyond = _prove(
            checkpoints, failures + 1, max_evals_per_subset, obs,
            sizes=(failures + 1,),
        )
        if beyond.verdict == "SAFE":
            result.beyond = {
                "certified_failures": failures,
                "proven_failures": failures + 1,
            }
    obs.observe("proof.witness_depth", float(result.witness_depth))
    return result


def _choose(n: int, k: int) -> int:
    return math.comb(n, k) if hasattr(math, "comb") else int(
        math.factorial(n) / (math.factorial(k) * math.factorial(n - k))
    )


def _prove(
    checkpoints: _Checkpoints,
    failures: int,
    budget: int,
    obs,
    sizes: Optional[Tuple[int, ...]] = None,
) -> ProofResult:
    auto = checkpoints.program.auto
    processors = auto.plan.processors
    reaches = _reaches_output(auto)
    dead_roots: List[frozenset] = []
    subsets_checked = 0
    pruned = 0
    evaluations = 0
    events = 0
    classes_collapsed = 0
    witness_depth = 0
    refuted_regions: List[ClassRegion] = []
    counterexamples: List[Counterexample] = []
    races: Dict[tuple, dict] = {}
    never_rearms: Dict[tuple, dict] = {}
    unproven_subsets: List[Tuple[str, ...]] = []
    chains: Dict[DependencyKey, Dict[Tuple[str, str, int], int]] = {}

    all_sizes = sizes if sizes is not None else tuple(range(failures + 1))
    for size in all_sizes:
        for combo in itertools.combinations(processors, size):
            subset = frozenset(combo)
            if any(root <= subset for root in dead_roots):
                pruned += 1
                continue
            subsets_checked += 1
            dead_op = _dead_certificate(auto, combo, reaches)
            if dead_op is not None:
                dead_roots.append(subset)
                region = ClassRegion(
                    windows={proc: (0, 0) for proc in combo},
                    subset=combo,
                )
                refuted_regions.append(region)
                run = checkpoints.run({proc: 0.0 for proc in combo})
                events += run.events
                counterexamples.append(
                    _certificate_counterexample(auto, combo, dead_op, run)
                )
                continue
            swept = _sweep_subset(checkpoints, combo, budget)
            evaluations += swept.evaluations
            events += swept.events
            classes_collapsed += swept.classes_collapsed
            witness_depth = max(witness_depth, swept.witness_depth)
            for dep, per_chain in swept.chains.items():
                chains.setdefault(dep, {})
                for chain, count in per_chain.items():
                    chains[dep][chain] = chains[dep].get(chain, 0) + count
            if swept.status == "unproven":
                unproven_subsets.append(combo)
            elif swept.status == "refuted":
                dead_roots.append(subset)
                for cell, run in swept.refuted_cells:
                    windows = {}
                    for proc, (lo, hi) in zip(combo, cell):
                        windows[proc] = _cell_windows(auto.boundaries, lo, hi)
                    refuted_regions.append(
                        ClassRegion(windows=windows, subset=combo)
                    )
                    _collect_race_findings(run, races, never_rearms)
                counterexamples.append(
                    _cell_counterexample(auto, combo, swept.refuted_cells[0])
                )

    obs.count("proof.subsets_checked", subsets_checked)
    obs.count("proof.pruned", pruned)
    obs.count("proof.evaluations", evaluations)
    obs.count("proof.events", events)
    obs.count("proof.classes_collapsed", classes_collapsed)

    if counterexamples:
        verdict = "UNSAFE"
    elif unproven_subsets:
        verdict = "UNPROVEN"
    else:
        verdict = "SAFE"
    counterexamples.sort(key=lambda cx: (len(cx.subset), cx.subset, cx.label))
    return ProofResult(
        verdict=verdict,
        semantics=auto.plan.semantics.value,
        detection=auto.detection,
        processors=processors,
        failures=failures,
        boundaries=auto.boundaries,
        subsets_checked=subsets_checked,
        subsets_pruned=pruned,
        evaluations=evaluations,
        classes_collapsed=classes_collapsed,
        witness_depth=witness_depth,
        dependencies=_dependency_witnesses(auto, chains, counterexamples),
        refuted_regions=refuted_regions,
        counterexamples=counterexamples,
        races=sorted(races.values(), key=lambda r: (r["dependency"], r["dispatcher"])),
        never_rearms=sorted(
            never_rearms.values(), key=lambda r: r["dependency"]
        ),
        unproven_subsets=tuple(unproven_subsets),
        automaton=auto.summary(),
    )


def _collect_race_findings(run: _Run, races, never_rearms) -> None:
    undelivered = {dep for dep, _dest in run.undelivered()}
    for race in run.races():
        if race.dep not in undelivered:
            continue
        key = (race.dep, race.dispatcher)
        races.setdefault(
            key,
            {
                "dependency": "%s -> %s" % race.dep,
                "dispatcher": race.dispatcher,
                "dispatch_time": round(race.dispatch_time, 6),
                "frame_end": round(race.frame_end, 6),
                "stood_down": sorted(
                    {watcher for watcher, _rank in race.stood_down}
                ),
            },
        )
    for dep in sorted(undelivered):
        cause = run.observed_cause.get(dep)
        if cause is None:
            continue
        # The one-shot observe fired, delivery still failed, and no
        # rung can ever re-arm: the ladder is permanently retired.
        never_rearms.setdefault(
            (dep,),
            {
                "dependency": "%s -> %s" % dep,
                "observed_by": cause[1],
                "observed_at": round(cause[2], 6),
                "cause": cause[0],
            },
        )


def _dependency_witnesses(auto, chains, counterexamples) -> List[DependencyWitness]:
    refuted_deps = set()
    for cx in counterexamples:
        refuted_deps.update(cx.undelivered_deps())
    witnesses = []
    for dep in sorted(auto.plan.destinations):
        label = "%s -> %s" % dep
        if not auto.plan.destinations[dep]:
            witnesses.append(
                DependencyWitness(dependency=label, status="local", chains=())
            )
            continue
        status = "refuted" if label in refuted_deps else "proven"
        per_chain = chains.get(dep, {})
        witnesses.append(
            DependencyWitness(
                dependency=label,
                status=status,
                chains=tuple(
                    {
                        "kind": kind,
                        "sender": sender,
                        "rank": rank,
                        "regions": count,
                    }
                    for (kind, sender, rank), count in sorted(per_chain.items())
                ),
            )
        )
    return witnesses


def _cell_counterexample(
    auto: DeliveryAutomaton, subset, refuted_cell
) -> Counterexample:
    cell, run = refuted_cell
    crashes = {proc: lo for proc, (lo, hi) in zip(subset, cell)}
    return _counterexample_from_run(auto, subset, crashes, run)


def _certificate_counterexample(
    auto: DeliveryAutomaton, subset, dead_op: str, run: _Run
) -> Counterexample:
    """``run``: the crash of the whole ``subset`` at t=0."""
    cx = _counterexample_from_run(auto, subset, run.crashes, run)
    cx.narrative = (
        "every replica of %r is hosted on the crashed set %s: production "
        "is impossible from t=0, so this subset (and every superset) is "
        "provably dead" % (dead_op, sorted(subset))
    )
    return cx


def _counterexample_from_run(
    auto: DeliveryAutomaton, subset, crashes: Dict[str, float], run: _Run
) -> Counterexample:
    key = tuple(
        sorted(
            (proc, window_index(auto.boundaries, at))
            for proc, at in crashes.items()
        )
    )
    narrative_bits = []
    for race in run.races():
        narrative_bits.append(
            "watchers %s stood down at t=%.6f on %s's takeover frame for "
            "%s -> %s, which was then lost at t=%.6f; no rung re-arms"
            % (
                ", ".join(sorted({w for w, _r in race.stood_down})),
                race.dispatch_time,
                race.dispatcher,
                race.dep[0],
                race.dep[1],
                race.frame_end,
            )
        )
    for dep, dest in run.undelivered():
        narrative_bits.append(
            "%s -> %s never delivered to surviving replica on %s"
            % (dep[0], dep[1], dest)
        )
    return Counterexample(
        subset=tuple(sorted(subset)),
        crashes={proc: crashes[proc] for proc in sorted(crashes)},
        class_key=key,
        label=render_class(key),
        missing_outputs=run.missing_outputs,
        undelivered=tuple(
            "%s -> %s @ %s" % (dep[0], dep[1], dest)
            for dep, dest in run.undelivered()
        ),
        narrative="; ".join(narrative_bits),
    )


# ----------------------------------------------------------------------
# Single-scenario static check (reproducer interop)
# ----------------------------------------------------------------------
@dataclass
class ScenarioCheck:
    """Static verdict for one concrete crash scenario."""

    refuted: bool
    class_key: tuple
    label: str
    missing_outputs: Tuple[str, ...]
    undelivered: Tuple[str, ...]
    counterexample: Optional[Counterexample]


def check_scenario(
    schedule: Schedule,
    crashes: Dict[str, float],
    known_failed: Iterable[str] = (),
    detection: Optional[str] = None,
) -> ScenarioCheck:
    """Statically decide one concrete crash assignment (no simulator).

    This is the ``repro prove --repro`` path: the committed
    reproducer's exact crash dates are interpreted over the automaton,
    and — when delivery fails — the returned counterexample pins the
    reproducer's own (processor, window)-class.
    """
    auto = compile_automaton(schedule, detection=detection)
    program = _Program(auto)
    run = _Run(
        program, dict(crashes), program.initial_state(known_failed)
    ).execute()
    cx = None
    if not run.ok:
        cx = _counterexample_from_run(
            auto, tuple(sorted(crashes)), dict(crashes), run
        )
    key = tuple(
        sorted(
            (proc, window_index(auto.boundaries, at))
            for proc, at in crashes.items()
        )
    )
    return ScenarioCheck(
        refuted=not run.ok,
        class_key=key,
        label=render_class(key),
        missing_outputs=run.missing_outputs,
        undelivered=tuple(
            "%s -> %s @ %s" % (dep[0], dep[1], dest)
            for dep, dest in run.undelivered()
        ),
        counterexample=cx,
    )
