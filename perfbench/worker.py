"""One benchmark workload in a fresh interpreter.

Started by ``run.py``, never by hand: ``--t0`` is the parent's
``time.monotonic()`` just before this interpreter was spawned, so
``setup_s`` runs from interpreter start to inputs ready, and
``--slowdown-before`` is the host's slowdown the parent measured right
before (see ``reference.py``).  Prints one
JSON object as its last line of standard output.

* ``--setup-only``: import the library, build the inputs, report the
  set-up times and exit.
* otherwise: warm up, then run whole passes over the seed's inputs as
  a closed loop with one client (each operation starts when the
  previous one has finished): at least one pass, and another only
  while the timed operations should still end within ``--seconds``.
  Every output is checked outside the timed region.  With
  ``--trace 1`` every operation runs twice, untraced then traced, and
  the per-layer metrics come from the traced runs.
"""

from __future__ import annotations

import time

INTERPRETER_STARTED = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import reference  # noqa: E402

HALVES = ("s1", "s2")

#: Registry counter -> per-layer metric, read per traced operation.
COUNTERS = {
    "pressure.evals": "core.pressure_evals",
    "scheduler.steps": "core.scheduler_steps",
    "evalcache.hits": "core.evalcache_hits",
    "evalcache.misses": "core.evalcache_misses",
    "evalcache.invalidated": "core.evalcache_invalidated",
    "timeouts.entries": "core.timeouts_entries",
    "sim.executions": "sim.executions",
    "sim.frames_sent": "sim.frames_sent",
    "sim.frames_delivered": "sim.frames_delivered",
    "sim.detections": "sim.detections",
    "sim.takeovers": "sim.takeovers",
    "campaign.scenarios": "campaign.scenarios",
    "campaign.classes_enumerated": "campaign.classes",
    "campaign.deduplicated": "campaign.deduplicated",
    "campaign.failed": "campaign.fail_scenarios",
    "proof.subsets_checked": "proof.subsets_checked",
    "proof.pruned": "proof.subsets_pruned",
    "proof.evaluations": "proof.evaluations",
    "proof.classes_collapsed": "proof.classes_collapsed",
}

#: Span name -> per-layer self-time metric.
SPAN_TIMES = {
    "graphs.load": "graphs.load_s",
    "graphs.routing": "graphs.routing_s",
    "core.init": "core.init_s",
    "core.run": "core.run_s",
    "sim.simulate": "sim.simulate_s",
    "campaign.enumerate": "campaign.enumerate_s",
    "campaign.run": "campaign.execute_self_s",
    "campaign.minimize": "campaign.diagnose_s",
    "campaign.diagnose": "campaign.diagnose_s",
    "proof.compile": "proof.compile_s",
    "proof.prove": "proof.verify_s",
}

#: Every per-layer metric reported per half, in output order.
PER_HALF = (
    "graphs.load_s", "graphs.routing_s",
    "core.init_s", "core.run_s", "core.us_per_eval",
    "core.pressure_evals", "core.scheduler_steps",
    "core.evalcache_hits", "core.evalcache_misses",
    "core.evalcache_invalidated", "core.evalcache_hit_rate",
    "core.timeouts_entries",
    "sim.simulate_s", "sim.calls", "sim.us_per_call", "sim.executions",
    "sim.frames_sent", "sim.frames_delivered", "sim.detections",
    "sim.takeovers",
    "campaign.enumerate_s", "campaign.execute_self_s", "campaign.diagnose_s",
    "campaign.scenarios", "campaign.classes", "campaign.dedup_ratio",
    "campaign.fail_scenarios",
    "proof.compile_s", "proof.verify_s", "proof.us_per_eval",
    "proof.evaluations", "proof.subsets_checked", "proof.subsets_pruned",
    "proof.classes_collapsed", "proof.safe", "proof.unsafe", "proof.unproven",
    "trace.ops",
)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


class Run:
    """Accumulates one run's timed operations, checks and layer data."""

    def __init__(self, workload, recorder) -> None:
        self.workload = workload
        self.recorder = recorder
        #: Host slowdown during each untraced timed operation.
        self.slowdowns = []
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.walls = {True: 0.0, False: 0.0}  # traced? -> timed wall
        #: item key -> [half, work units, untraced wall], summed over passes
        self.rates = {}
        self.passes = 0
        self.makespan_ratios = {}  # item key -> makespan / lower bound
        self.decided = 0
        self.verdicts = 0
        self.counts = defaultdict(float)  # (metric, half) -> count

    def operate(self, item, traced: bool) -> None:
        """One timed operation, then its check outside the timed region."""
        from workloads import NullSpans

        self.attempted += 1
        output, error = None, None
        # Every operation starts from a collected heap, so that the
        # garbage of earlier operations and checks is not charged to it.
        gc.collect()
        if traced:
            from repro.obs import Tracer, instrumented

            op_id = self.attempted
            with instrumented(tracer=Tracer(enabled=False)) as obs:
                with self.recorder.operation(op_id, item.half, item.key):
                    started = time.perf_counter()
                    try:
                        output = self.workload.run(item, self.recorder)
                    except Exception:
                        error = traceback.format_exc()
                    wall = time.perf_counter() - started
            for name, metric in COUNTERS.items():
                self.counts[(metric, item.half)] += obs.registry.counter_value(name)
        else:
            # The host's speed drifts within one operation, so it is
            # sampled while the operation runs (reference.py).
            with reference.Sampler() as host:
                started = time.perf_counter()
                try:
                    output = self.workload.run(item, NullSpans())
                except Exception:
                    error = traceback.format_exc()
                wall = time.perf_counter() - started - host.spent
            slowdown = host.slowdown()
        self.walls[traced] += wall
        started = time.perf_counter()
        if error is None:
            try:
                reasons = self.workload.check(item, output)
            except Exception:
                reasons = [traceback.format_exc()]
        else:
            reasons = [error]
        self.check_s += time.perf_counter() - started
        if reasons:
            self.failed += 1
            print(f"FAILED {item.key}: {'; '.join(reasons)}", file=sys.stderr)
        if error is not None:
            return
        # An output that fails its check is still timed and measured, so
        # that every run measures the same inputs; ok_frac reports it.
        self.makespan_ratios[item.key] = self.workload.makespan_ratio(item, output)
        if traced:
            self._trace_counts(item, output)
            return
        totals = self.rates.setdefault(item.key, [item.half, 0.0, 0.0])
        totals[1] += self.workload.work(item, output)
        totals[2] += wall / slowdown
        self.slowdowns.append(slowdown)
        self.verdicts += 1
        self.decided += self.workload.decided(item, output)

    def _trace_counts(self, item, output) -> None:
        half = item.half
        self.counts[("trace.ops", half)] += 1
        for name, value in self.workload.sim_work(output).items():
            self.counts[(COUNTERS[name], half)] += value
        verdict = getattr(output, "verdict", None)
        if verdict is not None:
            self.counts[(f"proof.{verdict.lower()}", half)] += 1

    def slowdown(self) -> float:
        """How much slower than nominal the host ran the timed loop."""
        return statistics.median(self.slowdowns) if self.slowdowns else 0.0

    def end_to_end(self) -> dict:
        metrics = {}
        for half in HALVES:
            rates = [
                _ratio(units, wall)
                for of, units, wall in self.rates.values() if of == half
            ]
            metrics[f"throughput.{half}"] = (geomean(rates), "1/s")
        metrics["makespan_ratio"] = (geomean(self.makespan_ratios.values()), "ratio")
        metrics["decided_frac"] = (_ratio(self.decided, self.verdicts), "fraction")
        metrics["ok_frac"] = (
            _ratio(self.attempted - self.failed, self.attempted), "fraction"
        )
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return metrics

    def per_layer(self) -> dict:
        values = defaultdict(float)
        for (name, half), (self_s, calls) in self.recorder.self_times().items():
            if name in SPAN_TIMES:
                values[(SPAN_TIMES[name], half)] += self_s
            if name == "sim.simulate":
                values[("sim.calls", half)] += calls
        for key, count in self.counts.items():
            values[key] += count
        metrics = {}
        for half in HALVES:
            v = {name: values[(name, half)] for name in PER_HALF}
            requested = v["core.evalcache_hits"] + v["core.evalcache_misses"]
            v["core.us_per_eval"] = _ratio(v["core.run_s"], requested, 1e6)
            v["core.evalcache_hit_rate"] = _ratio(v["core.evalcache_hits"], requested)
            v["sim.us_per_call"] = _ratio(v["sim.simulate_s"], v["sim.calls"], 1e6)
            v["campaign.dedup_ratio"] = _ratio(
                v["campaign.scenarios"],
                v["campaign.scenarios"] + values[("campaign.deduplicated", half)],
            )
            v["proof.us_per_eval"] = _ratio(
                v["proof.verify_s"], v["proof.evaluations"], 1e6
            )
            for name in PER_HALF:
                metrics[f"{name}.{half}"] = (v[name], per_layer_unit(name))
        metrics["trace.overhead_frac"] = (
            _ratio(self.walls[True], self.walls[False]) - 1.0, "fraction"
        )
        metrics["check_s"] = (self.check_s, "s")
        metrics["host.slowdown"] = (self.slowdown(), "ratio")
        metrics["failed_frac"] = (_ratio(self.failed, self.attempted), "fraction")
        return metrics


def geomean(values) -> float:
    logs = [math.log(value) for value in values if value > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith(("core.us_per", "sim.us_per", "proof.us_per")):
        return "us"
    if name.endswith(("_rate", "_ratio")):
        return "fraction"
    return "count"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=INTERPRETER_STARTED)
    parser.add_argument("--slowdown-before", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro  # noqa: F401
    import workloads

    import_s = time.perf_counter() - started
    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs_s = time.perf_counter() - started
    setup_s = time.monotonic() - args.t0
    # Set-up is timed once per interpreter, so a slow spell of the host
    # moves it more than the timed operations; it is scaled to the
    # nominal host by the reference routine (see reference.py), run
    # right before the interpreter started and right after set-up.
    slowdown = (args.slowdown_before + reference.sample()) / 2.0
    setup = {
        "setup_s": setup_s / slowdown,
        "import_s": import_s,
        "inputs_s": inputs_s,
        "host_slowdown": slowdown,
    }
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    from spans import Recorder, wrap_layers

    recorder = Recorder()
    if args.trace:
        wrap_layers(recorder)
    run = Run(workload, recorder)

    # Untimed runs on tiny inputs load what the first timed operation
    # would otherwise pay for.
    for item in workload.warmup_items():
        workload.run(item, workloads.NullSpans())
    # The inputs live for the whole run; keep the collector from
    # rescanning them on every collection.
    gc.collect()
    gc.freeze()

    # Whole passes over the same inputs, so that every run times them
    # all; another pass starts only while it should end within --seconds.
    while True:
        for item in workload.items:
            run.operate(item, traced=False)
            if args.trace:
                run.operate(item, traced=True)
        run.passes += 1
        elapsed = run.walls[False] + run.walls[True]
        if elapsed * (run.passes + 1) / run.passes > args.seconds:
            break

    metrics = run.per_layer() if args.trace else run.end_to_end()
    if args.spans_out:
        recorder.write(args.spans_out)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "setup": setup,
        "passes": run.passes,
        "host_slowdown": run.slowdown(),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
