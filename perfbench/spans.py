"""Span tracing of `hedgeval` from outside the package.

Run as a launcher, it installs the wrappers and then calls
``hedgeval.cli.main`` with the remaining arguments::

    python3 perfbench/spans.py SPANS_JSON PASS_ID eval --gt ... --dt ...

Each wrapper replaces a public function under every name a `hedgeval`
module binds it to, because callers look functions up in their own module
(``evaluate`` imports ``iou_matrix`` and ``decode`` by name). A wrapper
records one span per call: name, start, end, parent span, and the counts
its counter derives from the arguments and result. Spans stay in memory
and are written to SPANS_JSON when ``main`` returns, as two JSON lines: a
header (pass id, time inside ``main``, tracing's own time) and the spans.
``summarize`` derives busy and self time from them. A hook whose target no
longer exists records no spans, so it reads as zero calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

PACKAGE = "hedgeval"


def _iou_counts(args, kwargs, result):
    a, b = args[0], args[1]
    pixels = int(np.asarray(a[0]).size) if len(a) else 0
    # the dense kernel stacks both operands as float32 rows of H*W pixels
    return {"pairs": len(a) * len(b), "nonzero": int(np.count_nonzero(result)),
            "bytes_computed": 4 * pixels * (len(a) + len(b))}


def _pairwise_counts(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * n, "nonzero": int(np.count_nonzero(result))}


def _load_counts(args, kwargs, result):
    return {"records": result.n_loaded,
            "rejected": result.rejected_bad_score + result.rejected_empty_mask}


# "module.function" -> counter(args, kwargs, result) -> {quantity: count}
HOOKS = {
    "coco.load_ground_truth": None,
    "coco.load_detections": _load_counts,
    "coco.load_semantic_masks": None,
    "coco.write_detections": None,
    "coco.write_report": None,
    "mask.decompress_leb": lambda args, kwargs, result: {"chars": len(args[0])},
    "mask.decode": None,
    "mask.compress_leb": None,
    "mask.iou_matrix": _iou_counts,
    "mask.pairwise_iou": _pairwise_counts,
    "matching.greedy_match_from_ious":
        lambda args, kwargs, result: {"pairs": int(np.asarray(args[0]).size)},
    "matching.agnostic_match_from_ious": None,
    "pr.build_pr_curve": None,
    "pr.average_precision": None,
    "lrp.olrp_scan": None,
    "lrp.lrp_from_matching": None,
    "hedging.duplicate_confusion": lambda args, kwargs, result: {"groups": len(args[0])},
    "hedging.dc_single": None,
    "hedging.naming_error": None,
    "evaluate.build_report": None,
    "evaluate.evaluate": None,
    "nms.run_nms": None,
    "nms.semantic_sort": None,
    "nms.semantic_nms": None,
    "nms.mask_nms": None,
    "nms.matrix_nms": None,
    "nms.soft_nms": None,
}


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the counts, not the run
            self.spans.append(span)
            return result
        return wrapper

    def install(self) -> list[str]:
        """Wrap every hook target found; returns the names installed."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        installed = []
        for name, counter in HOOKS.items():
            module_name, func_name = name.split(".")
            # sys.modules, not getattr: the package's `evaluate` attribute
            # is the function, which shadows the module
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(module, func_name, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(name, fn, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
            installed.append(name)
        return installed


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``s`` (busy time summed over calls), ``self_s`` (busy
    time minus the time of child spans), ``calls`` and summed counts.

    ``iou_matrix`` calls made by ``pairwise_iou`` are left to the
    ``pairwise_iou`` entry, so ``mask.iou_matrix`` covers det-vs-GT and NMS
    calls only.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["name"] == "mask.iou_matrix" and parent and parent["name"] == "mask.pairwise_iou":
            continue
        agg = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        busy = s["end"] - s["start"]
        agg["s"] += busy
        agg["self_s"] += busy - child_time.get(s["id"], 0.0)
        agg["calls"] += 1
        for k, v in s.get("counts", {}).items():
            agg[k] = agg.get(k, 0) + v
    return out


def _launch(spans_path: str, pass_id: str, cli_args: list[str]) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import hedgeval.cli

    installing = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        hedgeval.cli.main(cli_args, prog_name=PACKAGE, standalone_mode=False)
    finally:
        end = time.perf_counter()
        spans_text = json.dumps(tracer.spans)
        # tracing's own cost outside main, so start-up can exclude it
        trace_s = (start - installing) + (time.perf_counter() - end)
        header = {"pass": int(pass_id), "main_s": end - start, "trace_s": trace_s}
        with open(spans_path, "w") as f:
            f.write(f"{json.dumps(header)}\n{spans_text}\n")


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.exit("usage: spans.py SPANS_JSON PASS_ID HEDGEVAL_ARGS...")
    _launch(sys.argv[1], sys.argv[2], sys.argv[3:])
