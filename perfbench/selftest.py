"""Self-tests of the benchmark's correctness checks and metric names.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each check is fed a corrupted output through the worker's own
operation path, which must count it as a failed operation rather than
skip it; and the metric names the worker prints must be exactly the
ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from repro import approx_le  # noqa: E402
from repro.core.schedule import Schedule  # noqa: E402
from repro.lint.proof import prove_delivery  # noqa: E402
from repro.sim.runner import simulate  # noqa: E402
from spans import Recorder  # noqa: E402
from worker import Run  # noqa: E402
from workloads import Item, NullSpans  # noqa: E402

#: A bus problem whose Solution 1 schedule the prover refutes at K=2
#: and whose default campaign space contains a failing scenario.
REFUTED_BUS = {"operations": 8, "processors": 4, "failures": 2, "seed": 5}
#: A ``schedule`` s2.k1 generator seed whose fault-free run responds
#: after the makespan at this commit (``known_failing`` in the pool).
KNOWN_LATE = 3012


class Corrupting:
    """A workload whose operation returns a given (corrupted) output."""

    def __init__(self, base: workloads.Workload, output) -> None:
        self.base = base
        self.output = output

    def run(self, item, spans):
        return self.output

    def __getattr__(self, name):
        return getattr(self.base, name)


def operate_once(base: workloads.Workload, item: Item, output) -> Run:
    run = Run(Corrupting(base, output), Recorder())
    run.operate(item, traced=False)
    return run


def without_one_replica(schedule) -> Schedule:
    """A copy of ``schedule`` missing the last replica of its first op."""
    op = schedule.operations[0]
    dropped = schedule.replicas(op)[-1]
    copy = Schedule(schedule.problem, schedule.semantics)
    for replica in schedule.all_replicas():
        if replica is not dropped:
            copy.add_replica(replica)
    for slot in schedule.comms:
        copy.add_comm(slot)
    for entry in schedule.timeouts:
        copy.add_timeout(entry)
    return copy.freeze()


def paper_item(half: str) -> Item:
    return Item(key=f"paper.{half}", half=half, failures=1,
                payload=workloads._paper_scheduled(half))


class ScheduleCheck(unittest.TestCase):
    def test_missing_replica_counts_as_failed(self):
        for half in workloads.HALVES:
            item = paper_item(half)
            schedule = item.payload.schedule
            good = SimpleNamespace(schedule=schedule, makespan=schedule.makespan)
            run = operate_once(workloads.ScheduleWorkload(), item, good)
            self.assertEqual(run.failed, 0)
            bad_schedule = without_one_replica(schedule)
            bad = SimpleNamespace(
                schedule=bad_schedule, makespan=bad_schedule.makespan
            )
            run = operate_once(workloads.ScheduleWorkload(), item, bad)
            self.assertEqual((run.attempted, run.failed), (1, 1))

    def test_response_after_the_makespan_counts_as_failed(self):
        for half in workloads.HALVES:
            item = paper_item(half)
            schedule = item.payload.schedule
            early = SimpleNamespace(schedule=schedule, makespan=schedule.makespan / 2)
            run = operate_once(workloads.ScheduleWorkload(), item, early)
            self.assertEqual((run.attempted, run.failed), (1, 1))

    def test_known_late_response_counts_as_failed(self):
        # A pool reproducer of the Solution 2 runtime defect (README,
        # "Known state"): the check must fail it exactly while the
        # fault-free run still responds after the makespan.
        base = workloads.ScheduleWorkload()
        item = base.make_item("s2", 1, KNOWN_LATE)
        result = base.run(item, NullSpans())
        late = not approx_le(
            simulate(result.schedule).response_time, result.makespan
        )
        run = operate_once(base, item, result)
        self.assertEqual((run.attempted, run.failed), (1, int(late)))

    def test_changed_output_on_a_repeat_counts_as_failed(self):
        base = workloads.ScheduleWorkload()
        item = paper_item("s2")
        schedule = item.payload.schedule
        good = SimpleNamespace(schedule=schedule, makespan=schedule.makespan)
        self.assertEqual(base.check(item, good), [])
        worse = SimpleNamespace(schedule=schedule, makespan=schedule.makespan + 1)
        self.assertEqual(operate_once(base, item, worse).failed, 1)


class ProveCheck(unittest.TestCase):
    def setUp(self):
        self.base = workloads.ProveWorkload()
        scheduled = workloads._scheduled("s1", **{
            k: REFUTED_BUS[k]
            for k in ("operations", "processors", "failures", "seed")
        })
        self.item = Item(key="refuted", half="s1", failures=2, payload=scheduled)
        self.proof = prove_delivery(scheduled.schedule)

    def test_true_verdict_passes(self):
        self.assertEqual(self.proof.verdict, "UNSAFE")
        self.assertEqual(operate_once(self.base, self.item, self.proof).failed, 0)

    def test_safe_claim_on_refuted_schedule_counts_as_failed(self):
        claim = SimpleNamespace(verdict="SAFE", evaluations=0, counterexamples=[])
        run = operate_once(self.base, self.item, claim)
        self.assertEqual((run.attempted, run.failed), (1, 1))

    def test_counterexample_that_delivers_counts_as_failed(self):
        harmless = SimpleNamespace(
            label="none", subset=(), crashes={}, class_key=(),
            missing_outputs=(), undelivered=(), narrative="",
        )
        claim = SimpleNamespace(
            verdict="UNSAFE", evaluations=0, counterexamples=[harmless]
        )
        run = operate_once(self.base, self.item, claim)
        self.assertEqual(run.failed, 1)


class CampaignCheck(unittest.TestCase):
    def setUp(self):
        self.base = workloads.CampaignWorkload()
        self.item = paper_item("s1")
        self.result = self.base.run(self.item, NullSpans())

    def test_true_result_passes(self):
        self.assertEqual(operate_once(self.base, self.item, self.result).failed, 0)

    def test_failing_baseline_counts_as_failed(self):
        baseline = next(o for o in self.result.outcomes if o.origin == "baseline")
        baseline.status = "fail"
        self.assertEqual(operate_once(self.base, self.item, self.result).failed, 1)

    def test_undiagnosed_fail_counts_as_failed(self):
        outcome = next(o for o in self.result.outcomes if o.origin != "baseline")
        outcome.status = "fail"
        outcome.diagnosis = None
        self.assertEqual(operate_once(self.base, self.item, self.result).failed, 1)

    def test_changed_totals_on_a_repeat_count_as_failed(self):
        self.assertEqual(self.base.check(self.item, self.result), [])
        self.result.outcomes.pop()
        self.assertEqual(operate_once(self.base, self.item, self.result).failed, 1)


class Inputs(unittest.TestCase):
    class Keys(workloads.Workload):
        name = "keys"
        CLASSES = (("s1", 1, 2), ("s2", 2, 1))

        def make_item(self, half, failures, sub):
            return Item(key=f"{half}.{sub}", half=half, failures=failures,
                        payload=None)

    POOL = {
        "s1.k1": [{"draws": 1, "seeds": [1, 2, 3]},
                  {"draws": 1, "seeds": [4, 5, 6]}],
        "s2.k2": [{"draws": 1, "seeds": list(range(10, 30))}],
    }

    def keys(self, seed):
        return [item.key for item in self.Keys().draw(seed, self.POOL)]

    def test_a_seed_draws_the_same_inputs_from_every_stratum(self):
        self.assertEqual(self.keys(7), self.keys(7))
        for seed in range(20):
            keys = self.keys(seed)
            self.assertEqual([key.split(".")[0] for key in keys],
                             ["s1", "s2", "s1"])
            self.assertIn(int(keys[0].split(".")[1]), (1, 2, 3))
            self.assertIn(int(keys[2].split(".")[1]), (4, 5, 6))
        self.assertGreater(len({tuple(self.keys(seed)) for seed in range(20)}), 1)

    def test_the_pool_fills_every_class(self):
        pool = workloads.load_pool()
        known_failing = json.loads(workloads.POOL.read_text())["known_failing"]
        for name, workload_class in workloads.WORKLOADS.items():
            for half, failures, draws in workload_class.CLASSES:
                strata = pool[name][workloads.class_name(half, failures)]
                self.assertEqual(sum(s["draws"] for s in strata), draws)
                failing = known_failing.get(name, {}).get(
                    workloads.class_name(half, failures), []
                )
                for stratum in strata:
                    self.assertLessEqual(stratum["draws"], len(stratum["seeds"]))
                    self.assertFalse(set(stratum["seeds"]) & set(failing))


class MetricNames(unittest.TestCase):
    def test_worker_prints_the_declared_metrics(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"] for m in declared["end_to_end"]}
        per_layer = {m["name"] for m in declared["per_layer"]}
        run = Run(workloads.CampaignWorkload(), Recorder())
        for traced in (False, True):
            run.operate(paper_item("s1"), traced=traced)
        self.assertEqual((run.attempted, run.failed), (2, 0))
        # run.py adds the set-up metrics from its set-up interpreters.
        self.assertEqual(set(run.end_to_end()) | {"setup_s"}, end_to_end)
        self.assertEqual(
            set(run.per_layer()) | {"setup.import_s", "setup.inputs_s"},
            per_layer,
        )


if __name__ == "__main__":
    unittest.main()
