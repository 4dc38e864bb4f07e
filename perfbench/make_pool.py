"""Build ``pool.json``: the generator sub-seeds the workloads draw from.

Run once from the root of a checkout (about ten minutes); the result is
committed, so that a seed's inputs depend on the seed and this file
alone, never on the code being measured::

    PYTHONHASHSEED=0 python3 perfbench/make_pool.py

For every class of every workload, ``draws x BLOCK`` candidate inputs
are made from consecutive sub-seeds, each is run once (untimed
warm-up first, the heap collected before each) and checked.  A
candidate that fails its check is a reproducer of a program defect:
it is listed under ``known_failing`` and never drawn, since a run must
check out correct on every seed.  The other candidates, sorted by time
per work unit, are cut into consecutive blocks of near-equal size, one
draw each, so every seed gets the same mix of cheap and costly inputs.

The measured times are kept in the file for reference only; the
workloads read nothing but the strata.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

#: Candidates per draw of a class.
BLOCK = 8


def measure(workload, half: str, failures: int, sub: int) -> dict:
    item = workload.make_item(half, failures, sub)
    gc.collect()
    started = time.perf_counter()
    output = workload.run(item, workloads.NullSpans())
    wall = time.perf_counter() - started
    try:
        reasons = workload.verify(item, output)
    except Exception:
        reasons = [traceback.format_exc()]
    return {
        "seed": sub,
        "s_per_unit": wall / workload.work(item, output),
        "fails": bool(reasons),
    }


def strata(candidates: list, draws: int) -> list:
    ranked = sorted(
        (c for c in candidates if not c["fails"]),
        key=lambda c: c["s_per_unit"],
    )
    blocks = [
        ranked[index * len(ranked) // draws:(index + 1) * len(ranked) // draws]
        for index in range(draws)
    ]
    return [{"draws": 1, "seeds": [c["seed"] for c in block]} for block in blocks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: run with PYTHONHASHSEED=0, as the benchmark does",
              file=sys.stderr)
        return 2
    pool = {"strata": {}, "known_failing": {}, "measured": {}}
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class()
        for item in workload.warmup_items():
            workload.run(item, workloads.NullSpans())
        pool["strata"][name] = {}
        pool["measured"][name] = {}
        for index, (half, failures, draws) in enumerate(workload.CLASSES):
            cls = workloads.class_name(half, failures)
            base = 1000 * (index + 1)
            candidates = [
                measure(workload, half, failures, base + offset)
                for offset in range(draws * BLOCK)
            ]
            pool["strata"][name][cls] = strata(candidates, draws)
            failing = [c["seed"] for c in candidates if c["fails"]]
            if failing:
                pool["known_failing"].setdefault(name, {})[cls] = failing
            pool["measured"][name][cls] = {
                str(c["seed"]): [round(c["s_per_unit"], 6), c["fails"]]
                for c in candidates
            }
            print(f"{name} {cls}: {len(candidates)} candidates, "
                  f"{len(failing)} failing their check", flush=True)
    with open(workloads.POOL, "w") as handle:
        json.dump(pool, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
