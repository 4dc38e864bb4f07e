"""A small generator-based discrete-event simulation kernel.

The distributed executive of :mod:`repro.sim.executive` is expressed as
concurrent *processes* (Python generators) that yield simulation
commands:

* ``Delay(dt)`` — suspend for ``dt`` simulated time units;
* ``Wait(event)`` — suspend until ``event`` fires; the yielded
  expression evaluates to the event's value;
* ``WaitAny(events, deadline)`` — suspend until any of the events
  fires or until the absolute ``deadline`` passes; evaluates to the
  index of the fired event, or ``None`` on timeout.

Determinism: simultaneous callbacks run in scheduling order (a
monotonically increasing sequence number breaks time ties), so runs
are exactly reproducible — which the tests rely on.

This is deliberately a minimal subset of what a library like simpy
offers; keeping it local avoids a dependency and keeps the semantics
of failure injection (processes of a crashed processor simply stop
being resumed) explicit and auditable.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence, Tuple

from ..obs import get_instrumentation

__all__ = ["Delay", "Wait", "WaitAny", "Event", "Simulator", "SimulationError"]

#: Processes are generators yielding commands and receiving wait results.
ProcessBody = Generator[Any, Any, None]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (bad command, negative delay...)."""


@dataclass(frozen=True)
class Delay:
    """Command: suspend the process for ``duration`` time units."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SimulationError(f"negative delay {self.duration}")


@dataclass(frozen=True)
class Wait:
    """Command: suspend until ``event`` fires; returns its value."""

    event: "Event"


@dataclass(frozen=True)
class WaitAny:
    """Command: suspend until one of ``events`` fires or ``deadline``.

    The process receives the index (into ``events``) of the fired
    event, or ``None`` when the absolute deadline passed first.
    ``deadline=None`` waits indefinitely.
    """

    events: Tuple["Event", ...]
    deadline: Optional[float] = None


class Event:
    """A one-shot level-triggered signal carrying an optional value.

    Once fired the event stays fired: late waiters resume immediately.
    Firing twice is a no-op (first value wins), which is exactly the
    "first copy wins, later copies are discarded" semantics Solution 2
    needs.
    """

    __slots__ = ("name", "fired", "value", "fire_time", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.fired = False
        self.value: Any = None
        self.fire_time: Optional[float] = None
        self._waiters: List[Callable[[], None]] = []

    def add_waiter(self, callback: Callable[[], None]) -> None:
        self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"fired@{self.fire_time}" if self.fired else "pending"
        return f"Event({self.name!r}, {state})"


class Simulator:
    """The event loop: a time-ordered heap of callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    # ------------------------------------------------------------------
    # Low-level scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: {time} < {self.now}"
            )
        heapq.heappush(self._heap, (max(time, self.now), next(self._sequence), callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` time units."""
        self.call_at(self.now + delay, callback)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh (unfired) event."""
        return Event(name)

    def fire(self, event: Event, value: Any = None) -> None:
        """Fire ``event`` now; waiters resume in registration order.

        Firing an already-fired event is ignored (first value wins).
        """
        if event.fired:
            return
        event.fired = True
        event.value = value
        event.fire_time = self.now
        waiters, event._waiters = event._waiters, []
        for callback in waiters:
            self.call_at(self.now, callback)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def process(self, body: ProcessBody) -> None:
        """Start a generator process at the current time."""
        self.call_at(self.now, lambda: self._step(body, None))

    def _step(self, body: ProcessBody, send_value: Any) -> None:
        try:
            command = body.send(send_value)
        except StopIteration:
            return
        self._dispatch(body, command)

    def _dispatch(self, body: ProcessBody, command: Any) -> None:
        if isinstance(command, Delay):
            self.call_after(command.duration, lambda: self._step(body, None))
        elif isinstance(command, Wait):
            self._wait_any(body, (command.event,), None, single=True)
        elif isinstance(command, WaitAny):
            self._wait_any(body, command.events, command.deadline, single=False)
        else:
            raise SimulationError(f"unknown simulation command: {command!r}")

    def _wait_any(
        self,
        body: ProcessBody,
        events: Sequence[Event],
        deadline: Optional[float],
        single: bool,
    ) -> None:
        # Already-fired events win immediately (level-triggered).
        for index, event in enumerate(events):
            if event.fired:
                self._step(body, event.value if single else index)
                return

        # The process blocks: the first of its wake-ups resumes it.
        done = {"resumed": False}

        def resume(result: Any) -> None:
            if done["resumed"]:
                return
            done["resumed"] = True
            self._step(body, result)

        for index, event in enumerate(events):
            def on_fire(idx: int = index, ev: Event = event) -> None:
                resume(ev.value if single else idx)

            event.add_waiter(on_fire)

        if deadline is not None:
            self.call_at(deadline, lambda: resume(None))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains (or ``until`` passes).

        Returns the final simulated time.  Processes still blocked on
        unfired events when the heap drains are abandoned — this is
        how "a receiver waiting for a dead processor blocks forever"
        naturally terminates the simulation.
        """
        obs = get_instrumentation()
        processed = 0
        try:
            while self._heap:
                time, _seq, callback = self._heap[0]
                if until is not None and time > until:
                    self.now = until
                    return self.now
                heapq.heappop(self._heap)
                self.now = time
                callback()
                processed += 1
            return self.now
        finally:
            # One registry update per run(), not per event: the hot
            # loop itself only pays a local integer increment.
            obs.count("sim.engine.events", processed)
