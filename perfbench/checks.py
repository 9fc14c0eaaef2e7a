"""Known-answer checks on `hedgeval` outputs, and determinism digests.

Every answer follows from how ``inputs`` builds the scene, so the checks
hold for any seed:

- hedged ``eval``: mAP = 1, NE = 0, F1 = 2/(k+2) for k spatial copies
  (each instance gives one TP and k FPs), DC > 0.
- coco ``eval``: mAP = 1 (all originals outrank all copies and fit under
  ``max_dets``), NE = relabeled copies / ground truths.
- ``nms`` semantic and mask: exactly one survivor per ground truth.
- ``nms`` matrix and soft: every detection survives, in input order, and
  no score rises.
- every kept file reloads with zero rejections.

Each check returns a list of failure messages; empty means the output holds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hedgeval.coco import LoadError, load_detections

TOL = 1e-12


def _close(value, want: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - want) <= TOL


def check_report(report: dict, inputs, scene: str) -> list[str]:
    fails = []
    try:
        m = report["metrics"]
        if report["counts"]["n_detections"] != inputs.n_dets:
            fails.append(f"report counts {report['counts']['n_detections']} "
                         f"detections, input has {inputs.n_dets}")
        if not _close(m["map"], 1.0):
            fails.append(f"mAP {m['map']} != 1")
        if scene == "hedged":
            k = inputs.spatial_copies
            if not _close(m["ne"], 0.0):
                fails.append(f"NE {m['ne']} != 0")
            if not _close(m["f1"], 2.0 / (k + 2)):
                fails.append(f"F1 {m['f1']} != 2/({k}+2)")
            if not (isinstance(m["dc"], (int, float)) and m["dc"] > 0):
                fails.append(f"DC {m['dc']} is not positive")
        else:
            want = inputs.relabeled / inputs.n_gt
            if not _close(m["ne"], want):
                fails.append(f"NE {m['ne']} != {inputs.relabeled}/{inputs.n_gt}")
    except (KeyError, TypeError) as e:
        fails.append(f"report lacks {e}")
    return fails


def check_kept(method: str, kept: list, input_records: list, inputs) -> list[str]:
    """``kept`` and ``input_records`` are the parsed detection arrays."""
    if method in ("semantic", "mask"):
        if len(kept) != inputs.n_gt:
            return [f"{method} kept {len(kept)}, want {inputs.n_gt} (one per ground truth)"]
        return []
    if len(kept) != len(input_records):
        return [f"{method} kept {len(kept)} of {len(input_records)}, want all"]
    for i, (out, src) in enumerate(zip(kept, input_records)):
        if (out["image_id"], out["category_id"]) != (src["image_id"], src["category_id"]):
            return [f"{method} detection {i} is not input detection {i}"]
        if out["score"] > src["score"]:
            return [f"{method} raised detection {i} from {src['score']} to {out['score']}"]
    return []


def check_reload(path: Path, dataset) -> list[str]:
    try:
        res = load_detections(path, dataset)
    except LoadError as e:
        return [f"{path.name} does not reload: {e}"]
    rejected = res.rejected_bad_score + res.rejected_empty_mask
    return [f"{path.name} reloads with {rejected} rejections"] if rejected else []


def report_digest(report: dict) -> str:
    """SHA-256 of the report without its ``created_at`` timestamp."""
    body = {k: v for k, v in report.items() if k != "created_at"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
