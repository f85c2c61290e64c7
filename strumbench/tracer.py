"""In-memory span tracer that wraps the package's public functions from outside.

`Tracer.install()` swaps each function named in `TRACED` for a wrapper in
every loaded `strumscribe` module that refers to it, so the real CLI path is
what gets timed. A span is (name, start, end, parent span, op id). Counters
come only from a wrapped call's arguments and return value, computed in a
`trace.hook` span of their own so that their cost is charged to tracing
rather than to the layer that called the wrapped function. A layer's self
time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import math
import sys
import time
import warnings
from collections import defaultdict
from typing import Callable

import outputs

# layer (module) -> public functions timed in it
TRACED = {
    "cli": ("main",),
    "vocabulary": ("load_vocabulary",),
    "onsets": ("load_wav", "onset_strength", "pick_peaks"),
    "barlines": ("postprocess_barlines",),
    "timeline": ("bin_strums",),
    "likelihood": ("contribution_tables",),
    "decoder": ("decode", "reconstruct_strums"),
    "render": ("render_text",),
    "metrics": ("evaluate_transcription", "match_events"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
OP_SPAN = "op"
HOOK_SPAN = "trace.hook"

STRUM_TOLERANCE_SEC = 0.05
BARLINE_TOLERANCE_SEC = 0.07


def _onset_strength(args, kwargs, result, ctx):
    return {"onsets.frames": len(result)}


def _pick_peaks(args, kwargs, result, ctx):
    picked = list(result.times_sec)
    counts = {"onsets.picked": len(picked)}
    if "true_plucks" in ctx:
        counts["onsets.f1"] = outputs.f1_score(ctx["true_plucks"], picked, STRUM_TOLERANCE_SEC)
    return counts


def _postprocess_barlines(args, kwargs, result, ctx):
    raw, cleaned = list(args[0].times_sec), list(result.times_sec)
    counts = {
        "barlines.estimates_in": len(raw),
        "barlines.inserted": len(set(cleaned) - set(raw)),
        "barlines.deleted": len(set(raw) - set(cleaned)),
    }
    if "true_barlines" in ctx:
        counts["barlines.f1"] = outputs.f1_score(ctx["true_barlines"], cleaned, BARLINE_TOLERANCE_SEC)
    return counts


def _contribution_tables(args, kwargs, result, ctx):
    measures, vocab = args[0], args[1]
    cells = 2 * len(measures) * len(vocab)
    forbidden = sum(int((table == math.inf).sum()) for table in result)
    distinct = len({m.positions for m in measures})
    return {
        "likelihood.cells": cells,
        "likelihood.forbidden_ratio": forbidden / cells,
        "likelihood.distinct_measure_ratio": distinct / len(measures),
    }


def _decode(args, kwargs, result, ctx):
    return {"decoder.states": len(args[0]) * len(args[1])}


def _bin_strums(args, kwargs, result, ctx):
    return {"timeline.strums_discarded": result[1]}


def _load_vocabulary(args, kwargs, result, ctx):
    return {"vocabulary.loads_per_op": 1}


COUNTER_HOOKS = {
    "onsets.onset_strength": _onset_strength,
    "onsets.pick_peaks": _pick_peaks,
    "barlines.postprocess_barlines": _postprocess_barlines,
    "likelihood.contribution_tables": _contribution_tables,
    "decoder.decode": _decode,
    "timeline.bin_strums": _bin_strums,
    "vocabulary.load_vocabulary": _load_vocabulary,
}
COUNTERS = (
    "onsets.frames", "onsets.picked", "onsets.f1",
    "barlines.estimates_in", "barlines.inserted", "barlines.deleted", "barlines.f1",
    "likelihood.cells", "likelihood.forbidden_ratio", "likelihood.distinct_measure_ratio",
    "decoder.states", "vocabulary.loads_per_op", "timeline.strums_discarded", "render.lossy_slots",
)
# summed over the calls of one op; every other counter is a per-call ratio
# averaged over the op's calls
SUMMED_COUNTERS = {name for name in COUNTERS if not name.endswith(("f1", "_ratio"))}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self.counters: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.context: dict = {}  # truth of the current op, read by counter hooks
        self.op_id: int | None = None
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "op": self.op_id})
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = self.clock()
        self._stack.pop()

    def begin_op(self, op_id: int, context: dict) -> None:
        self.op_id, self.context = op_id, context
        self._open(OP_SPAN)

    def end_op(self) -> float:
        index = self._stack[-1]
        self._close(index)
        self.op_id = None
        span = self.spans[index]
        return span["end"] - span["start"]

    def count(self, name: str, value: float) -> None:
        self.counters[self.op_id][name].append(float(value))

    # -- wrapping ------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = COUNTER_HOOKS.get(name)
        lossy = name == "render.render_text"

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                if lossy:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook or lossy:
                hook_index = self._open(HOOK_SPAN)
                try:
                    if lossy:
                        self.count("render.lossy_slots", sum(
                            type(w.message).__name__ == "LossyRenderWarning" for w in caught))
                    if hook:
                        for key, value in hook(args, kwargs, result, self.context).items():
                            self.count(key, value)
                finally:
                    self._close(hook_index)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every traced function wherever a loaded strumscribe module
        holds it; return a function that puts the originals back."""
        modules = [m for name, m in sys.modules.items()
                   if name == "strumscribe" or name.startswith("strumscribe.")]
        replaced = []
        for layer, fns in TRACED.items():
            home = sys.modules[f"strumscribe.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            replaced.append((module, attr, original))

        def restore() -> None:
            for module, attr, original in replaced:
                setattr(module, attr, original)

        return restore

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start"], span["end"]))
        result = []
        for index, span in enumerate(self.spans):
            start, end = span["start"], span["end"]
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result.append((end - start) - covered)
        return result

    def per_op(self) -> dict[int, dict]:
        """For each op: wall time, self time per span name, and counters."""
        ops: dict[int, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            op = ops.setdefault(span["op"], {"wall": 0.0, "self": defaultdict(float)})
            op["self"][span["name"]] += own
            if span["name"] == OP_SPAN:
                op["wall"] = span["end"] - span["start"]
        for op_id, op in ops.items():
            op["counters"] = {
                key: (sum(values) if key in SUMMED_COUNTERS else sum(values) / len(values))
                for key, values in self.counters.get(op_id, {}).items()
            }
        return ops

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"spans": self.spans}, fp)
            fp.write("\n")
