"""Golden traces: the executive reproduces a committed reference bit for bit.

Every case of ``fixtures/trace_golden.json`` records a SHA-256 digest
of simulated behaviour, every float at full precision:

* ``campaign`` cases simulate one schedule under each scenario of its
  :func:`~repro.obs.campaign.enumerate_space` space (K taken from the
  problem) and digest, per scenario, every frame, execution and
  detection record, the output values and dates, the value anomalies
  and the final fail flags;
* ``sequence`` cases digest the iterations of
  :func:`~repro.sim.transient_then_steady` and of an intermittent /
  link-failure :func:`~repro.sim.simulate_sequence`, plus the carried
  flags;
* ``pipelined`` cases digest the completion dates of
  :func:`~repro.sim.pipeline.simulate_pipelined`.

The schedules are the paper examples and a few of the random problems
of ``test_schedule_golden.py`` (bus problems at K=2, point-to-point at
K=1), under the baseline, Solution 1 (snoop or oracle detection) and
Solution 2.  A performance change to the simulator must leave every
digest untouched.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_trace_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.solution1 import Solution1Scheduler
from repro.core.solution2 import Solution2Scheduler
from repro.core.syndex import SyndexScheduler
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.obs.campaign import enumerate_space
from repro.paper import examples
from repro.sim import (
    FailureScenario,
    simulate,
    simulate_sequence,
    transient_then_steady,
)
from repro.sim.pipeline import simulate_pipelined

FIXTURE = Path(__file__).parent / "fixtures" / "trace_golden.json"

SCHEDULERS = {
    "syndex": SyndexScheduler,
    "solution1": Solution1Scheduler,
    "solution2": Solution2Scheduler,
}


def _random(case):
    """The ``random-<case>`` problem of ``test_schedule_golden.py``."""
    make = random_bus_problem if case % 2 else random_p2p_problem
    return make(
        operations=10 + case,
        processors=3 + case % 3,
        failures=1 + case % 2,
        seed=case,
    )


PROBLEMS = {
    "paper-first": lambda: examples.first_example_problem(failures=1),
    "paper-second": lambda: examples.second_example_problem(failures=1),
    "random-0": lambda: _random(0),
    "random-1": lambda: _random(1),
    "random-2": lambda: _random(2),
    "random-5": lambda: _random(5),
}

CAMPAIGN_CASES = [
    (problem, scheduler)
    for problem in PROBLEMS
    for scheduler in ("solution1", "solution2")
] + [("paper-first", "syndex"), ("paper-second", "syndex")]


def _schedule(problem, scheduler):
    return SCHEDULERS[scheduler](PROBLEMS[problem]()).run().schedule


def trace_record(trace) -> list:
    """Everything the executive decides in one iteration, as plain data."""
    return [
        [
            [list(f.dependency), f.sender, list(f.destinations), f.link,
             f.start, f.end, f.delivered, f.takeover]
            for f in trace.frames
        ],
        [
            [e.op, e.processor, e.start, e.end, e.completed]
            for e in trace.executions
        ],
        [[d.op, d.watcher, d.suspect, d.time] for d in trace.detections],
        sorted(trace.output_values.items()),
        sorted(trace.output_times.items()),
        list(trace.value_anomalies),
        sorted(trace.final_known_failed),
    ]


def _digest(payload) -> str:
    text = json.dumps(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def campaign_fingerprint(problem, scheduler) -> dict:
    schedule = _schedule(problem, scheduler)
    space = enumerate_space(schedule, failures=schedule.problem.failures)
    records = [
        [str(entry.scenario), trace_record(simulate(schedule, entry.scenario))]
        for entry in space.scenarios
    ]
    return {"scenarios": len(records), "digest": _digest(records)}


def sequence_fingerprint() -> dict:
    schedule = _schedule("paper-first", "solution1")
    runs = [
        transient_then_steady(schedule, "P2", 3.0, steady_iterations=2),
        # Snoop recovery: the intermittent processor's frames clear its
        # flag, then a link failure hits the rejoined schedule.
        simulate_sequence(schedule, [
            FailureScenario.intermittent("P2", 2.0, 5.0),
            FailureScenario.none(),
            FailureScenario.link_failure("bus", 4.0),
        ]),
    ]
    payload = [
        [
            [trace_record(trace) for trace in run.iterations],
            sorted((p, sorted(known)) for p, known in run.final_flags.items()),
        ]
        for run in runs
    ]
    iterations = sum(len(run.iterations) for run in runs)
    return {"iterations": iterations, "digest": _digest(payload)}


def pipelined_fingerprint() -> dict:
    schedule = _schedule("paper-second", "solution2")
    runs = [
        simulate_pipelined(schedule, period=schedule.makespan / 2, iterations=6),
        simulate_pipelined(
            schedule, period=schedule.makespan, iterations=4,
            scenario=FailureScenario.crash("P2", 4.0),
        ),
    ]
    payload = [[run.period, run.completion_times] for run in runs]
    return {"runs": len(runs), "digest": _digest(payload)}


def fingerprints() -> dict:
    golden = {
        f"campaign-{problem}-{scheduler}": campaign_fingerprint(problem, scheduler)
        for problem, scheduler in CAMPAIGN_CASES
    }
    golden["sequence-paper-first-solution1"] = sequence_fingerprint()
    golden["pipelined-paper-second-solution2"] = pipelined_fingerprint()
    return golden


def _golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "problem, scheduler", CAMPAIGN_CASES,
    ids=[f"{problem}-{scheduler}" for problem, scheduler in CAMPAIGN_CASES],
)
def test_campaign_traces_match_golden(problem, scheduler):
    expected = _golden()[f"campaign-{problem}-{scheduler}"]
    assert campaign_fingerprint(problem, scheduler) == expected


def test_transient_then_steady_matches_golden():
    assert sequence_fingerprint() == _golden()["sequence-paper-first-solution1"]


def test_pipelined_matches_golden():
    assert pipelined_fingerprint() == _golden()["pipelined-paper-second-solution2"]


def test_fixture_covers_every_case():
    expected = {f"campaign-{p}-{s}" for p, s in CAMPAIGN_CASES}
    expected |= {"sequence-paper-first-solution1", "pipelined-paper-second-solution2"}
    assert set(_golden()) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_trace_golden.py --write")
    golden = fingerprints()
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} case(s) to {FIXTURE}")
