"""Checkpoint soundness: a run restored from the fault-free prefix is exact.

The prover evaluates each crash-date region from the latest snapshot of
the fault-free run whose *horizon* (the largest date any crash check
has compared against so far) lies below every crash date.  This file
checks, for many crash assignments on seeded schedules, that such a run
ends in exactly the state of a run from t=0: verdict, starved
deliveries, stand-down races, delivery sources, observe causes,
stand-downs, detections, and every guard at or above the earliest crash
date (the guards below it are cut at or under each cell's lower edge,
so the region sweep drops them anyway).

The crash dates include every checkpoint's own event date, its horizon
and the float just above it, and dates inside frames granted before
the crash (between a checkpoint's date and its horizon).  Those frames
make the horizon, not the checkpoint date, the validity rule;
``test_frames_in_flight_are_exercised`` checks that the battery
contains such cases.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import schedule_solution1, schedule_solution2
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint.proof import compile_automaton
from repro.lint.proof.verifier import _Checkpoints, _Program, _Run
from repro.paper import examples

SCHEDULES = {
    "fig17-solution1": lambda: schedule_solution1(
        examples.first_example_problem(failures=1)
    ).schedule,
    "bus6-k2-solution1": lambda: schedule_solution1(
        random_bus_problem(operations=6, processors=4, failures=2, seed=1)
    ).schedule,
    "bus8-k2-solution2": lambda: schedule_solution2(
        random_bus_problem(operations=8, processors=4, failures=2, seed=1)
    ).schedule,
    "p2p8-k2-solution1": lambda: schedule_solution1(
        random_p2p_problem(operations=8, processors=4, failures=2, seed=1)
    ).schedule,
    "p2p12-k1-solution2": lambda: schedule_solution2(
        random_p2p_problem(operations=12, processors=4, failures=1, seed=1)
    ).schedule,
}


def _event_date(state) -> float:
    """The date of the first event processed after the snapshot."""
    heap = state[2]
    return heap[0][0] if heap else state[0]


def _crash_dates(checkpoints):
    """Structured candidate crash dates, plus dates inside frames."""
    dates = {0.0}
    for horizon, state in zip(checkpoints.horizons, checkpoints.states):
        date = _event_date(state)
        dates.add(date)
        if math.isfinite(horizon):
            dates.add(horizon)
            dates.add(math.nextafter(horizon, math.inf))
            if horizon > date:
                dates.add((date + horizon) / 2)
    return sorted(dates)


def _scenarios(checkpoints, processors, failures, seed, count=60):
    rng = random.Random(seed)
    dates = _crash_dates(checkpoints)
    last = max(dates)
    for _ in range(count):
        size = rng.randint(1, min(failures + 1, len(processors)))
        subset = rng.sample(processors, size)
        crashes = {}
        for proc in subset:
            if rng.random() < 0.7:
                crashes[proc] = rng.choice(dates)
            else:
                crashes[proc] = rng.uniform(0.0, last * 1.1)
        yield crashes


def _observable(run: _Run, first: float):
    return {
        "ok": run.ok,
        "missing_outputs": run.missing_outputs,
        "undelivered": run.undelivered(),
        "races": run.races(),
        "delivery_source": run.delivery_source,
        "observed_cause": run.observed_cause,
        "stand_downs": run.stand_downs,
        "detections": run.detections,
        "guards": {
            proc: sorted(date for date in dates if date >= first)
            for proc, dates in run.guards.items()
        },
    }


@pytest.fixture(scope="module", params=sorted(SCHEDULES))
def prepared(request):
    schedule = SCHEDULES[request.param]()
    program = _Program(compile_automaton(schedule))
    return request.param, schedule, program, _Checkpoints(program)


def test_restored_run_equals_run_from_initial_state(prepared):
    name, schedule, program, checkpoints = prepared
    processors = list(program.plan.processors)
    scenarios = list(
        _scenarios(checkpoints, processors, schedule.problem.failures, seed=name)
    )
    assert scenarios
    for crashes in scenarios:
        first = min(crashes.values())
        full = _Run(program, dict(crashes), program.initial_state()).execute()
        restored = checkpoints.run(dict(crashes))
        assert _observable(restored, first) == _observable(full, first), crashes
        # The restored run skipped exactly the prefix events.
        assert restored.events <= full.events


def test_every_checkpoint_is_reached_exactly(prepared):
    """A crash just above each checkpoint's horizon restores that
    checkpoint itself, and still matches the run from t=0."""
    _name, _schedule, program, checkpoints = prepared
    proc = program.plan.processors[-1]
    for index, horizon in enumerate(checkpoints.horizons):
        if not math.isfinite(horizon):
            continue
        crash = math.nextafter(horizon, math.inf)
        crashes = {proc: crash}
        assert checkpoints.start(crashes) is checkpoints.states[index]
        full = _Run(program, dict(crashes), program.initial_state()).execute()
        restored = checkpoints.run(dict(crashes))
        assert _observable(restored, crash) == _observable(full, crash)


def test_checkpoint_state_is_never_modified(prepared):
    _name, _schedule, program, checkpoints = prepared
    before = [repr(state) for state in checkpoints.states]
    proc = program.plan.processors[0]
    for horizon in checkpoints.horizons[1:]:
        checkpoints.run({proc: math.nextafter(horizon, math.inf)})
    assert [repr(state) for state in checkpoints.states] == before


def test_fault_free_run_from_last_checkpoint_matches():
    schedule = SCHEDULES["bus6-k2-solution1"]()
    program = _Program(compile_automaton(schedule))
    checkpoints = _Checkpoints(program)
    full = _Run(program, {}, program.initial_state()).execute()
    restored = checkpoints.run({})
    assert _observable(restored, math.inf) == _observable(full, math.inf)
    assert full.ok
    assert restored.events < full.events == checkpoints.events


def test_frames_in_flight_are_exercised():
    """Some checkpoint's horizon lies beyond its own event date: a
    frame granted before it ends later, so a crash between the two
    must restore an earlier checkpoint than the date alone suggests."""
    in_flight = 0
    for make in SCHEDULES.values():
        checkpoints = _Checkpoints(_Program(compile_automaton(make())))
        for horizon, state in zip(checkpoints.horizons, checkpoints.states):
            if math.isfinite(horizon) and horizon > _event_date(state):
                in_flight += 1
    assert in_flight > 0
