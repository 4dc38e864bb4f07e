"""Golden proofs: the static prover reproduces a committed reference exactly.

Every case of ``fixtures/proof_golden.json`` records the canonical JSON
of one :meth:`~repro.lint.proof.model.ProofResult.to_dict` (verdict,
counters, refuted regions, counterexamples with their exact crash
dates, races, witness chains, automaton summary), or of one
:func:`~repro.lint.proof.check_scenario` verdict.  The battery covers:

* ``repro prove --paper fig17`` and ``--paper fig22`` (Solution 1 on
  the bus example, Solution 2 on the point-to-point one);
* seeded random bus / point-to-point problems at 6, 8 and 12
  operations on 4 processors, K=1 and K=2, under Solution 1 and
  Solution 2: SAFE and UNSAFE verdicts, and the K+1 ``beyond`` probe
  that every SAFE proof runs (it proves K+1 crashes safe on none of
  them, so ``beyond`` stays empty);
* one budget-exhausted UNPROVEN proof;
* ``check_scenario`` on the committed ROADMAP reproducer, with and
  without processors known to have failed before the iteration.

A performance change to the prover must leave every case untouched.

Regenerate (only when a verdict change is intended) with::

    PYTHONPATH=src python tests/test_proof_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core import schedule_solution1, schedule_solution2
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint.proof import check_scenario, prove_delivery
from repro.obs.campaign import load_reproducer, problem_from_spec, scenario_from_dict
from repro.paper import examples

FIXTURE = Path(__file__).parent / "fixtures" / "proof_golden.json"
REPRODUCER = Path(__file__).parent / "fixtures" / "roadmap_delivery_gap.json"

SCHEDULERS = {"solution1": schedule_solution1, "solution2": schedule_solution2}
GENERATORS = {"bus": random_bus_problem, "p2p": random_p2p_problem}

#: ``<topology><operations>-k<K>-<method>`` on 4 processors, seed 1.
RANDOM_CASES = [
    (topology, operations, failures, method)
    for topology in GENERATORS
    for operations in (6, 8, 12)
    for failures in (1, 2)
    for method in SCHEDULERS
]


def _random_schedule(topology, operations, failures, method):
    problem = GENERATORS[topology](
        operations=operations, processors=4, failures=failures, seed=1
    )
    return SCHEDULERS[method](problem).schedule


def _paper_schedule(figure):
    if figure == "fig17":
        return schedule_solution1(examples.first_example_problem(failures=1)).schedule
    return schedule_solution2(examples.second_example_problem(failures=1)).schedule


def _canonical(document) -> object:
    """``document`` as its canonical JSON reads back (tuples -> lists)."""
    return json.loads(json.dumps(document, sort_keys=True))


def _scenario_document(check) -> dict:
    cx = check.counterexample
    return {
        "refuted": check.refuted,
        "class": [list(item) for item in check.class_key],
        "label": check.label,
        "missing_outputs": list(check.missing_outputs),
        "undelivered": list(check.undelivered),
        "counterexample": None if cx is None else cx.to_dict(),
    }


def _gap_case(known_failed):
    reproducer = load_reproducer(REPRODUCER)
    problem = problem_from_spec(reproducer["problem"])
    schedule = schedule_solution1(problem).schedule
    scenario = scenario_from_dict(reproducer["scenario"])
    crashes = {crash.processor: crash.at for crash in scenario.crashes}
    return check_scenario(schedule, crashes, known_failed=known_failed)


def _cases() -> dict:
    """Case name -> zero-argument callable producing the document."""
    cases = {
        f"paper-{figure}": (
            lambda figure=figure: prove_delivery(_paper_schedule(figure)).to_dict()
        )
        for figure in ("fig17", "fig22")
    }
    for case in RANDOM_CASES:
        topology, operations, failures, method = case
        cases[f"{topology}{operations}-k{failures}-{method}"] = (
            lambda case=case: prove_delivery(_random_schedule(*case)).to_dict()
        )
    cases["unproven-fig22-budget3"] = lambda: prove_delivery(
        _paper_schedule("fig22"), max_evals_per_subset=3
    ).to_dict()
    cases["scenario-roadmap-gap"] = lambda: _scenario_document(_gap_case(()))
    cases["scenario-roadmap-gap-known-P4"] = lambda: _scenario_document(
        _gap_case(("P4",))
    )
    return cases


CASES = _cases()


def _golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_proof_matches_golden(name):
    assert _canonical(CASES[name]()) == _golden()[name]


def test_fixture_covers_every_case():
    assert set(_golden()) == set(CASES)


def test_battery_spans_every_verdict():
    verdicts = {
        document.get("verdict")
        for document in _golden().values()
        if "verdict" in document
    }
    assert verdicts == {"SAFE", "UNSAFE", "UNPROVEN"}
    # The known-failed flags skip P4's timeouts, so delivery succeeds.
    assert _golden()["scenario-roadmap-gap"]["refuted"] is True
    assert _golden()["scenario-roadmap-gap-known-P4"]["refuted"] is False


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_proof_golden.py --write")
    golden = {name: _canonical(make()) for name, make in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} case(s) to {FIXTURE}")
