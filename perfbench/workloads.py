"""The three benchmark workloads: inputs, one timed operation, checks.

Each workload drives one user-level flow through the library's public
API, on inputs generated from the benchmark seed:

* ``schedule`` -- what ``repro schedule`` does: parse a problem from
  JSON text, build its routing, construct the scheduler and run it;
* ``prove`` -- what ``repro prove`` does: ``prove_delivery`` on a
  schedule built at set-up;
* ``campaign`` -- what ``repro campaign run`` does: ``enumerate_space``
  then a serial ``run_campaign`` on a schedule built at set-up.

Each workload mixes (half, K) *classes*, where the half is ``s1``
(bus, Solution 1) or ``s2`` (point-to-point, Solution 2).  A seed draws
a fixed number of inputs of every class from ``pool.json``: per class,
generator sub-seeds cut into strata (see ``make_pool.py``), each
stratum giving a fixed number of draws.  The inputs therefore depend on
the seed and the committed pool alone, and every seed gets the same
mix of cheap and costly inputs.  The timed loop runs whole passes over
all of a seed's inputs, so every run times the same inputs however fast
the code is.

Each operation's output is checked outside the timed region by
:meth:`Workload.check`, which returns the reasons the output is wrong
(empty when it is right).  A check that raises counts as a failure.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import approx_le, paper
from repro.analysis.bounds import makespan_lower_bound
from repro.core import Solution1Scheduler, Solution2Scheduler
from repro.core.timeline import event_boundaries
from repro.core.validate import validate_schedule
from repro.graphs import bus_architecture, fully_connected_architecture
from repro.graphs.generators import (
    layered,
    random_bus_problem,
    random_p2p_problem,
    random_problem,
)
from repro.graphs.io import problem_from_dict, problem_to_dict
from repro.lint.proof import counterexample_reproducer, prove_delivery
from repro.obs.campaign import (
    CampaignScenario,
    class_key,
    enumerate_space,
    execute_scenario,
    run_campaign,
    scenario_from_dict,
)
from repro.sim.runner import simulate
from repro.sim.values import reference_outputs

SCHEDULERS = {"s1": Solution1Scheduler, "s2": Solution2Scheduler}
METHODS = {"s1": "solution1", "s2": "solution2"}
HALVES = ("s1", "s2")
POOL = Path(__file__).resolve().parent / "pool.json"


@dataclass
class Item:
    """One input of a workload; ``key`` identifies it within a run."""

    key: str
    half: str
    failures: int
    payload: Any


class NullSpans:
    """The untraced run's span sink: every span is a no-op."""

    def span(self, name: str):
        return _NULL


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


_NULL = _Null()


class Workload:
    """Base class: inputs drawn at set-up, then ``run``/``check`` per item."""

    name = ""
    #: (half, failures, draws): every class the workload mixes, and how
    #: many of its inputs one seed draws.
    CLASSES: Tuple[Tuple[str, int, int], ...] = ()

    def __init__(self, seed: Optional[int] = None) -> None:
        self.items: List[Item] = [] if seed is None else self.draw(seed)
        #: Per-item signature of the first checked output; later
        #: operations on the same item must reproduce it.
        self.signatures: Dict[str, Any] = {}

    def draw(self, seed: int, pool: Optional[dict] = None) -> List[Item]:
        """The seed's inputs from the pool, the classes interleaved."""
        pool = load_pool()[self.name] if pool is None else pool
        rows = []
        for half, failures, _ in self.CLASSES:
            name = class_name(half, failures)
            rng = random.Random(f"{self.name}/{name}/{seed}")
            rows.append([
                self.make_item(half, failures, sub)
                for stratum in pool[name]
                for sub in rng.sample(stratum["seeds"], stratum["draws"])
            ])
        return [
            item
            for column in itertools.zip_longest(*rows)
            for item in column if item is not None
        ]

    def make_item(self, half: str, failures: int, sub: int) -> Item:
        """The input of one class made from generator seed ``sub``."""
        raise NotImplementedError

    def warmup_items(self) -> List[Item]:
        """Tiny items on the paper's examples, one per half, whose
        untimed runs load everything the first timed operation needs."""
        return [
            Item(key=f"warmup.{half}", half=half, failures=1,
                 payload=_paper_scheduled(half))
            for half in HALVES
        ]

    def run(self, item: Item, spans) -> Any:
        raise NotImplementedError

    def work(self, item: Item, output: Any) -> float:
        """Work units one operation completed: operations scheduled,
        verdicts or scenarios."""
        raise NotImplementedError

    def schedule_of(self, item: Item, output: Any):
        """The schedule the operation used or produced."""
        raise NotImplementedError

    def makespan_ratio(self, item: Item, output: Any) -> float:
        """Makespan over the problem's replicated makespan lower bound."""
        schedule = self.schedule_of(item, output)
        bound = makespan_lower_bound(schedule.problem, replicated=True)
        return schedule.makespan / bound

    def decided(self, item: Item, output: Any) -> bool:
        return True

    def sim_work(self, output: Any) -> Dict[str, float]:
        """``sim.*`` counters the output carries, when the program keeps
        them out of the caller's registry."""
        return {}

    def verify(self, item: Item, output: Any) -> List[str]:
        """The full check of the first output on ``item``."""
        raise NotImplementedError

    def signature(self, item: Item, output: Any) -> Any:
        raise NotImplementedError

    def check(self, item: Item, output: Any) -> List[str]:
        signature = self.signature(item, output)
        if item.key not in self.signatures:
            reasons = self.verify(item, output)
            if not reasons:
                self.signatures[item.key] = signature
            return reasons
        if signature != self.signatures[item.key]:
            return [
                f"output differs from the first run on {item.key}: "
                f"{signature!r} != {self.signatures[item.key]!r}"
            ]
        return []


def class_name(half: str, failures: int) -> str:
    return f"{half}.k{failures}"


def load_pool() -> dict:
    with open(POOL) as handle:
        return json.load(handle)["strata"]


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------
class ScheduleWorkload(Workload):
    """Seeded ``layered(16, 8)`` problems: bus8/Solution 1 and p2p20/Solution 2.

    The problem JSON text is made at set-up; parsing it is part of the
    operation, as it is for ``repro schedule FILE``.
    """

    name = "schedule"
    CLASSES = (("s1", 1, 3), ("s1", 2, 3), ("s2", 1, 3), ("s2", 2, 3))
    WIDTH, DEPTH = 16, 8
    BUS_PROCESSORS, P2P_PROCESSORS = 8, 20

    def make_item(self, half: str, failures: int, sub: int) -> Item:
        if half == "s1":
            names = [f"P{i + 1}" for i in range(self.BUS_PROCESSORS)]
            arch = bus_architecture(names, name="bus8")
        else:
            names = [f"P{i + 1}" for i in range(self.P2P_PROCESSORS)]
            arch = fully_connected_architecture(names, name="p2p20")
        problem = random_problem(
            layered(self.WIDTH, self.DEPTH, seed=sub),
            arch, failures=failures, seed=sub,
        )
        return Item(
            key=f"{class_name(half, failures)}.{sub}",
            half=half,
            failures=failures,
            payload=json.dumps(problem_to_dict(problem)),
        )

    def run(self, item: Item, spans) -> Any:
        with spans.span("graphs.load"):
            problem = problem_from_dict(json.loads(item.payload))
        with spans.span("graphs.routing"):
            problem.routing
        with spans.span("core.init"):
            scheduler = SCHEDULERS[item.half](problem)
        with spans.span("core.run"):
            return scheduler.run()

    def warmup_items(self) -> List[Item]:
        return [
            Item(key=f"warmup.{half}", half=half, failures=1,
                 payload=json.dumps(problem_to_dict(_paper_problem(half))))
            for half in HALVES
        ]

    def work(self, item: Item, output: Any) -> float:
        return float(len(output.schedule.problem.algorithm))

    def schedule_of(self, item: Item, output: Any):
        return output.schedule

    def signature(self, item: Item, output: Any) -> Any:
        schedule = output.schedule
        return (
            output.makespan,
            len(schedule.all_replicas()),
            len(schedule.comms),
            len(schedule.timeouts),
        )

    def verify(self, item: Item, output: Any) -> List[str]:
        return check_schedule(output.schedule, output.makespan)


def check_schedule(schedule, makespan: float) -> List[str]:
    """The reasons ``schedule``, claimed to end by ``makespan``, is wrong.

    A schedule must be well-formed, and its fault-free run must
    complete every replica, produce the reference output values,
    declare nobody faulty and respond by the static makespan, which is
    the runtime's worst case.  Responding earlier is normal: the
    runtime is message-driven and durations are worst-case bounds.
    """
    reasons = []
    report = validate_schedule(schedule)
    if not report.ok:
        reasons.append(f"validate_schedule: {len(report.violations)} violation(s)")
    trace = simulate(schedule)
    executed = sum(1 for run in trace.executions if run.completed)
    if not trace.completed:
        reasons.append("fault-free simulation did not complete")
    elif dict(trace.output_values) != dict(reference_outputs(schedule.problem.algorithm)):
        reasons.append("fault-free run produced wrong output values")
    if executed != len(schedule.all_replicas()):
        reasons.append(
            f"fault-free run executed {executed} of "
            f"{len(schedule.all_replicas())} replicas"
        )
    if trace.detections or trace.takeover_frames():
        reasons.append("fault-free run declared a processor faulty")
    if not approx_le(trace.response_time, makespan):
        reasons.append(
            f"fault-free run responds at {trace.response_time:g}, "
            f"after the static makespan {makespan:g}"
        )
    return reasons


# ----------------------------------------------------------------------
# prove
# ----------------------------------------------------------------------
@dataclass
class Scheduled:
    """A schedule built at set-up, with the spec that rebuilds its problem."""

    schedule: Any
    spec: Dict[str, Any]
    method: str


def _scheduled(half: str, operations: int, processors: int,
               failures: int, seed: int) -> Scheduled:
    kind = "random-bus" if half == "s1" else "random-p2p"
    make = random_bus_problem if half == "s1" else random_p2p_problem
    problem = make(operations, processors, failures, seed=seed)
    schedule = SCHEDULERS[half](problem).run().schedule
    spec = {
        "kind": kind, "operations": operations, "processors": processors,
        "failures": failures, "seed": seed,
    }
    return Scheduled(schedule, spec, METHODS[half])


def _paper_problem(half: str):
    if half == "s1":
        return paper.first_example_problem(failures=1)
    return paper.second_example_problem(failures=1)


def _paper_scheduled(half: str) -> Scheduled:
    schedule = SCHEDULERS[half](_paper_problem(half)).run().schedule
    kind = "paper-first" if half == "s1" else "paper-second"
    return Scheduled(schedule, {"kind": kind, "failures": 1}, METHODS[half])


class ProveWorkload(Workload):
    """K=2 problems of 6 operations on 4 processors, bus and p2p alternating.

    Problems have 6 operations, not 8: one 8-operation proof costs
    0.6-5 s, too few of them fit in a run to average their spread.
    """

    name = "prove"
    CLASSES = (("s1", 2, 18), ("s2", 2, 14))
    OPERATIONS, PROCESSORS = 6, 4

    def make_item(self, half: str, failures: int, sub: int) -> Item:
        return Item(
            key=f"{class_name(half, failures)}.{sub}", half=half,
            failures=failures,
            payload=_scheduled(
                half, self.OPERATIONS, self.PROCESSORS, failures, sub
            ),
        )

    def run(self, item: Item, spans) -> Any:
        with spans.span("proof.prove"):
            return prove_delivery(item.payload.schedule)

    def work(self, item: Item, output: Any) -> float:
        return 1.0

    def schedule_of(self, item: Item, output: Any):
        return item.payload.schedule

    def decided(self, item: Item, output: Any) -> bool:
        return output.verdict in ("SAFE", "UNSAFE")

    def signature(self, item: Item, output: Any) -> Any:
        return (
            output.verdict,
            output.evaluations,
            tuple(cx.label for cx in output.counterexamples),
        )

    def verify(self, item: Item, output: Any) -> List[str]:
        return check_verdict(item.payload, output)


def check_verdict(scheduled: Scheduled, proof) -> List[str]:
    """Cross-check a prover verdict on the simulator.

    Every UNSAFE counterexample, replayed through the executive, must
    fail the campaign verdict; a SAFE schedule must pass its whole
    enumerated campaign space.  UNPROVEN claims nothing to check.
    """
    schedule = scheduled.schedule
    reasons = []
    if proof.verdict == "UNSAFE":
        if not proof.counterexamples:
            reasons.append("UNSAFE without a counterexample")
        boundaries = event_boundaries(schedule)
        reference = reference_outputs(schedule.problem.algorithm)
        for counterexample in proof.counterexamples:
            reproducer = counterexample_reproducer(
                counterexample, scheduled.spec, scheduled.method
            )
            scenario = scenario_from_dict(reproducer["scenario"])
            outcome = execute_scenario(
                schedule,
                CampaignScenario(
                    scenario=scenario,
                    key=class_key(scenario, boundaries),
                    origin="counterexample",
                ),
                reference,
                minimize=False,
            )
            if outcome.status != "fail":
                reasons.append(
                    f"counterexample {counterexample.label} passes on the executive"
                )
    elif proof.verdict == "SAFE":
        failures = schedule.problem.failures
        space = enumerate_space(schedule, failures=failures)
        result = run_campaign(
            schedule, space, failures=failures, minimize=False
        )
        if not result.all_passed:
            reasons.append(
                f"SAFE schedule fails {len(result.failed)} campaign scenario(s), "
                f"first {result.failed[0].name}"
            )
    return reasons


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class CampaignWorkload(Workload):
    """20-operation, 4-processor problems, bus/Solution 1 and p2p/Solution 2, K=1 and K=2."""

    name = "campaign"
    CLASSES = (("s1", 1, 3), ("s1", 2, 3), ("s2", 1, 3), ("s2", 2, 3))
    OPERATIONS, PROCESSORS = 20, 4

    def make_item(self, half: str, failures: int, sub: int) -> Item:
        return Item(
            key=f"{class_name(half, failures)}.{sub}", half=half,
            failures=failures,
            payload=_scheduled(
                half, self.OPERATIONS, self.PROCESSORS, failures, sub
            ),
        )

    def run(self, item: Item, spans) -> Any:
        scheduled = item.payload
        with spans.span("campaign.enumerate"):
            space = enumerate_space(scheduled.schedule, failures=item.failures)
        with spans.span("campaign.run"):
            return run_campaign(
                scheduled.schedule,
                space,
                label=item.key,
                method=scheduled.method,
                failures=item.failures,
                problem_spec=scheduled.spec,
            )

    def work(self, item: Item, output: Any) -> float:
        return float(len(output.outcomes))

    def schedule_of(self, item: Item, output: Any):
        return item.payload.schedule

    def sim_work(self, output: Any) -> Dict[str, float]:
        # Each scenario simulates in its own instrumented session, so
        # its counters reach the caller only through ``outcome.work``.
        totals: Dict[str, float] = {}
        for outcome in output.outcomes:
            for name, value in outcome.work.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def signature(self, item: Item, output: Any) -> Any:
        return (
            len(output.outcomes),
            len(output.enumerated),
            len(output.failed),
        )

    def verify(self, item: Item, output: Any) -> List[str]:
        return []

    def check(self, item: Item, output: Any) -> List[str]:
        # The per-outcome checks are cheap, so every run gets them; the
        # base class adds the totals comparison across runs of an item.
        return check_campaign(output) + super().check(item, output)


def check_campaign(result) -> List[str]:
    """The fault-free baseline passes and every FAIL carries a diagnosis."""
    reasons = []
    baseline = [o for o in result.outcomes if o.origin == "baseline"]
    if len(baseline) != 1 or baseline[0].status != "pass":
        reasons.append("fault-free baseline scenario missing or failing")
    undiagnosed = [o.name for o in result.failed if not o.diagnosis]
    if undiagnosed:
        reasons.append(f"FAIL without a diagnosis: {undiagnosed[0]}")
    return reasons


WORKLOADS = {
    cls.name: cls
    for cls in (ScheduleWorkload, ProveWorkload, CampaignWorkload)
}
