"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload schedule --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload`` is ``schedule``, ``prove`` or ``campaign`` (see
``perfbench/README.md``); ``all`` runs the three untraced and prints
every end-to-end metric under its user-facing name and unit.

Each workload runs in fresh interpreters started from here, with the
checkout's ``src`` on ``PYTHONPATH``: :data:`SETUP_PROBES` that only set
up, then one that also measures.  ``setup_s`` is the median set-up
time over all of them, and ``peak_rss_mb`` belongs to the measuring
interpreter alone.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1``
the metrics are the per-layer ones and the spans are written to
``.perfbench/``.  Exits non-zero, printing no result, when the checkout
has no ``src/repro`` or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("schedule", "prove", "campaign")
#: Set-up-only interpreters per run, besides the measuring one.
SETUP_PROBES = 3
#: Every interpreter of one run must end within this many seconds.
RUN_DEADLINE_S = 170.0

#: (workload, end-to-end metric) -> (user-facing name, scale, unit)
#: for ``--workload all``.
USER_NAMES = {
    "schedule": {
        "throughput.s1": ("schedule_ops_per_s.s1", 1.0, "ops/s"),
        "throughput.s2": ("schedule_ops_per_s.s2", 1.0, "ops/s"),
        "makespan_ratio": ("makespan_ratio", 1.0, "ratio"),
    },
    "prove": {
        "throughput.s1": ("verdicts_per_min.s1", 60.0, "1/min"),
        "throughput.s2": ("verdicts_per_min.s2", 60.0, "1/min"),
        "decided_frac": ("decided_frac", 1.0, "fraction"),
    },
    "campaign": {
        "throughput.s1": ("scenarios_per_s.s1", 1.0, "1/s"),
        "throughput.s2": ("scenarios_per_s.s2", 1.0, "1/s"),
    },
}


class RunError(RuntimeError):
    pass


def interpreter(args, extra, deadline: float) -> dict:
    """Start ``worker.py`` in a fresh interpreter; its last JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing keeps set iteration, hence every schedule,
    # identical from one interpreter to the next.
    env["PYTHONHASHSEED"] = "0"
    # The host's slowdown right before the interpreter starts; the
    # interpreter scales its set-up time by the mean of this and its
    # own right after set-up.
    slowdown = reference.sample()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--slowdown-before", repr(slowdown), "--t0", repr(time.monotonic()),
    ] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting an interpreter")
    child = subprocess.Popen(
        command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{args.workload}: interpreter timed out")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RunError(f"{args.workload}: interpreter exited {child.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    probes = [
        interpreter(args, ["--setup-only"], deadline)["setup"]
        for _ in range(SETUP_PROBES)
    ]
    extra = []
    if args.trace:
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        extra = ["--spans-out", str(spans)]
    result = interpreter(args, extra, deadline)
    setups = probes + [result["setup"]]
    metrics = result["metrics"]
    if args.trace:
        for name in ("import_s", "inputs_s"):
            metrics[f"setup.{name}"] = {
                "value": statistics.median(s[name] for s in setups),
                "unit": "s",
            }
    else:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s",
        }
    expected = declared_metrics(args.trace)
    if set(metrics) != expected:
        raise RunError(
            f"metric names differ from BENCHMARK.json: "
            f"extra {sorted(set(metrics) - expected)}, "
            f"missing {sorted(expected - set(metrics))}"
        )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }


def declared_metrics(trace: int) -> set:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Every workload untraced; every end-to-end metric by its user name."""
    failed = False
    for workload in WORKLOADS:
        args.workload = workload
        result = run_workload(args)
        metrics = result["metrics"]
        failed = failed or not result["correct"]
        rows = [("setup_s", metrics["setup_s"]["value"], "s")]
        for name, (user, scale, unit) in USER_NAMES[workload].items():
            rows.append((user, metrics[name]["value"] * scale, unit))
        attempted, fails = result["attempted"], result["failed"]
        rows.append(("failed_frac", fails / attempted, "fraction"))
        rows.append(("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB"))
        print(f"{workload}  ({attempted} operations, {fails} failed)")
        for name, value, unit in rows:
            print(f"  {name:<24} {value:>12.6g} {unit}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a perfbench workload and print its metrics."
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so the interpreter it started is killed
    # and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args)
        print(json.dumps(run_workload(args)))
    except RunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
