"""In-memory spans around the calls into each layer, and their self times.

The traced run records a span at every layer boundary the benchmark
can see from its own files: the calls :mod:`workloads` makes into the
library, plus the public functions one layer calls inside another
(``simulate`` inside the campaign executor, ``compile_automaton``
inside ``prove_delivery``), which :func:`wrap_layers` replaces, in
the traced run only, by recording wrappers.  Nothing under ``src/``
is edited.

Spans are kept in memory while the run lasts and written out, one JSON
object per line, when it ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: (module, attribute, span name) of the nested public calls to wrap.
NESTED_CALLS = (
    ("repro.obs.campaign.executor", "simulate", "sim.simulate"),
    ("repro.obs.campaign.executor", "minimize_scenario", "campaign.minimize"),
    ("repro.obs.campaign.executor", "diagnose", "campaign.diagnose"),
    ("repro.lint.proof.verifier", "compile_automaton", "proof.compile"),
)


class Recorder:
    """Spans of one run: name, start, end, parent span and operation id.

    Only spans opened while an operation is armed (:meth:`operation`)
    are kept, so wrapped functions called from the correctness checks
    leave no trace.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._op = None

    def operation(self, op_id: int, half: str, key: str):
        return _Operation(self, op_id, half, key)

    @property
    def armed(self) -> bool:
        return self._op is not None

    def span(self, name: str):
        return _Span(self, name)

    def self_times(self) -> Dict[Tuple[str, str], List[float]]:
        """(span name, half) -> [total self time in s, span count]."""
        children = defaultdict(float)
        for span in self.spans:
            if span["parent"] >= 0:
                children[span["parent"]] += span["end"] - span["start"]
        totals: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0.0, 0]
        )
        for index, span in enumerate(self.spans):
            entry = totals[(span["name"], span["half"])]
            entry[0] += span["end"] - span["start"] - children[index]
            entry[1] += 1
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class _Operation:
    def __init__(self, recorder: Recorder, op_id: int, half: str, key: str):
        self.recorder = recorder
        self.op = {"op": op_id, "half": half, "key": key}

    def __enter__(self):
        self.recorder._op = self.op
        self.span = _Span(self.recorder, "op")
        self.span.__enter__()
        return self

    def __exit__(self, *exc_info):
        self.span.__exit__(*exc_info)
        self.recorder._op = None
        return None


class _Span:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        recorder = self.recorder
        op = recorder._op
        parent = recorder._stack[-1] if recorder._stack else -1
        self.index = len(recorder.spans)
        recorder.spans.append({
            "name": self.name, "op": op["op"], "half": op["half"],
            "key": op["key"], "parent": parent, "start": 0.0, "end": 0.0,
        })
        recorder._stack.append(self.index)
        recorder.spans[self.index]["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        recorder = self.recorder
        recorder.spans[self.index]["end"] = end
        recorder._stack.pop()
        return None


def wrap_layers(recorder: Recorder) -> None:
    """Record a span around each nested public call while armed."""
    for module_name, attribute, span_name in NESTED_CALLS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        setattr(module, attribute, _recording(original, span_name, recorder))


def _recording(function, span_name: str, recorder: Recorder):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.armed:
            return function(*args, **kwargs)
        with recorder.span(span_name):
            return function(*args, **kwargs)

    return wrapper
