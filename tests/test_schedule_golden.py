"""Golden schedules: the heuristics reproduce a committed reference bit for bit.

Every case of ``fixtures/schedule_golden.json`` records, for one
(problem, scheduler, tie-break seed) triple, the schedule's canonical
content hash (:func:`repro.graphs.io.schedule_hash`), its makespan and
a digest of the full decision log (every evaluated placement of every
step, with exact float values).  A performance change to the
evaluation loop must leave all three untouched.

The fixture covers the SynDEx baseline, Solution 1 and Solution 2 on
both paper examples, on 21 random bus / point-to-point problems, on a
layered 6-processor point-to-point problem, and on the ``layered(16,
8)`` bus8 and p2p20 problem shapes at K=1 and K=2.

Regenerate (only when a schedule change is intended) with::

    PYTHONPATH=src python tests/test_schedule_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.solution1 import Solution1Scheduler
from repro.core.solution2 import Solution2Scheduler
from repro.core.syndex import SyndexScheduler
from repro.graphs.architecture import (
    bus_architecture,
    fully_connected_architecture,
)
from repro.graphs.generators import (
    layered,
    random_bus_problem,
    random_p2p_problem,
    random_problem,
)
from repro.graphs.io import schedule_hash
from repro.paper import examples

FIXTURE = Path(__file__).parent / "fixtures" / "schedule_golden.json"

SCHEDULERS = {
    "SyndexScheduler": SyndexScheduler,
    "Solution1Scheduler": Solution1Scheduler,
    "Solution2Scheduler": Solution2Scheduler,
}


def _random(case):
    make = random_bus_problem if case % 2 else random_p2p_problem
    return make(
        operations=10 + case,
        processors=3 + case % 3,
        failures=1 + case % 2,
        seed=case,
    )


def _layered_p2p6():
    architecture = fully_connected_architecture(
        [f"P{i + 1}" for i in range(6)], name="p2p6"
    )
    return random_problem(
        layered(6, 5, seed=5), architecture, failures=1, seed=5
    )


def _layered_16x8(shape, failures, sub=1):
    if shape == "bus8":
        architecture = bus_architecture(
            [f"P{i + 1}" for i in range(8)], name="bus8"
        )
    else:
        architecture = fully_connected_architecture(
            [f"P{i + 1}" for i in range(20)], name="p2p20"
        )
    return random_problem(
        layered(16, 8, seed=sub), architecture, failures=failures, seed=sub
    )


def _problems():
    """``(name, problem factory, tie-break seed)`` of every golden problem."""
    problems = [
        ("paper-first", lambda: examples.first_example_problem(failures=1), None),
        ("paper-second", lambda: examples.second_example_problem(failures=1), None),
    ]
    for case in range(21):
        problems.append(
            (f"random-{case}", lambda case=case: _random(case), case * 7)
        )
    problems.append(("layered-p2p6", _layered_p2p6, 11))
    for shape in ("bus8", "p2p20"):
        for failures in (1, 2):
            problems.append((
                f"{shape}-k{failures}",
                lambda shape=shape, failures=failures: _layered_16x8(
                    shape, failures
                ),
                None,
            ))
    return problems


CASES = [
    (f"{name}-{scheduler}", make, scheduler, seed)
    for name, make, seed in _problems()
    for scheduler in SCHEDULERS
]


def decision_digest(decisions) -> str:
    """SHA-256 of a decision log, every float at full precision."""
    records = [
        [
            record.step,
            record.chosen,
            record.urgency,
            [
                [op, [
                    [e.op, e.processor, e.start, e.end, e.pressure, e.kept]
                    for e in evaluations
                ]]
                for op, evaluations in sorted(record.candidates.items())
            ],
            record.main,
            list(record.replicas),
            list(record.selection_tied),
            [list(group) for group in record.placement_tie_groups],
            record.tie_break,
        ]
        for record in decisions.records
    ]
    timeouts = [
        [note.op, list(note.dependency), note.watcher, note.candidate,
         note.rank, note.deadline]
        for note in decisions.timeouts
    ]
    text = json.dumps([decisions.tie_break, records, timeouts])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(make, scheduler, seed) -> dict:
    """Schedule hash, makespan and decision digest of one case."""
    result = SCHEDULERS[scheduler](make(), seed=seed).run()
    return {
        "schedule_hash": schedule_hash(result.schedule),
        "makespan": result.makespan,
        "decisions": decision_digest(result.decisions),
    }


def _golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "name, make, scheduler, seed", CASES, ids=[case[0] for case in CASES]
)
def test_schedule_matches_golden(name, make, scheduler, seed):
    expected = _golden()[name]
    assert fingerprint(make, scheduler, seed) == expected


def test_fixture_covers_every_case():
    assert sorted(_golden()) == sorted(case[0] for case in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_schedule_golden.py --write")
    golden = {
        name: fingerprint(make, scheduler, seed)
        for name, make, scheduler, seed in CASES
    }
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} case(s) to {FIXTURE}")
