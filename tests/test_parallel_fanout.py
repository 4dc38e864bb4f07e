"""Determinism of the process-parallel fan-outs under any ``jobs`` value.

The acceptance contract of the ``--jobs N`` flag: seed exploration and
Monte-Carlo estimation return *bit-identical* results however many
worker processes run them — same winner, same decision log, same
trial tallies.
"""

from repro.core.list_scheduler import best_over_seeds, explore_seeds
from repro.core.solution1 import Solution1Scheduler, schedule_solution1
from repro.paper import examples
from repro.sim.montecarlo import estimate_availability


class TestSeedExploration:
    def test_explore_seeds_identical_across_jobs(self):
        problem = examples.first_example_problem(failures=1)
        seeds = [None, 1, 2, 3, 4]
        serial = explore_seeds(Solution1Scheduler, problem, seeds, jobs=1)
        fanned = explore_seeds(Solution1Scheduler, problem, seeds, jobs=3)
        assert [r.makespan for r in serial] == [r.makespan for r in fanned]
        for a, b in zip(serial, fanned):
            assert a.decisions == b.decisions

    def test_best_over_seeds_identical_winner(self):
        problem = examples.second_example_problem(failures=1)
        serial = best_over_seeds(
            Solution1Scheduler, problem, attempts=6, jobs=1
        )
        fanned = best_over_seeds(
            Solution1Scheduler, problem, attempts=6, jobs=2
        )
        assert serial.makespan == fanned.makespan
        assert serial.decisions == fanned.decisions

    def test_scheduler_kwargs_reach_workers(self):
        problem = examples.first_example_problem(failures=1)
        results = explore_seeds(
            Solution1Scheduler, problem, [1, 2], jobs=2,
            drain_margin_frames=0.0,
        )
        baseline = explore_seeds(
            Solution1Scheduler, problem, [1, 2], jobs=1,
            drain_margin_frames=0.0,
        )
        assert [r.makespan for r in results] == \
            [r.makespan for r in baseline]
        assert [r.decisions for r in results] == \
            [r.decisions for r in baseline]


class TestMonteCarloJobs:
    def test_estimate_identical_across_jobs(self):
        schedule = schedule_solution1(
            examples.first_example_problem(failures=1)
        ).schedule
        serial = estimate_availability(schedule, 0.12, trials=61, seed=5)
        for jobs in (2, 3, 4):
            fanned = estimate_availability(
                schedule, 0.12, trials=61, seed=5, jobs=jobs
            )
            # AvailabilityEstimate equality excludes elapsed wall time.
            assert fanned == serial

    def test_jobs_capped_by_trials(self):
        schedule = schedule_solution1(
            examples.first_example_problem(failures=1)
        ).schedule
        serial = estimate_availability(schedule, 0.3, trials=3, seed=1)
        fanned = estimate_availability(schedule, 0.3, trials=3, seed=1,
                                       jobs=8)
        assert fanned == serial
