"""hedgeval: instance-segmentation evaluation beyond AP.

Duplicate-confusion and naming-error hedging metrics, AP/F1/LRP, semantic
sorting + semantic NMS, COCO-format mask I/O, and a synthetic part-counting
dataset generator for end-to-end verification.
"""

__version__ = "0.1.0"

from hedgeval.coco import (
    DERIVE_FROM_DT,
    DERIVE_FROM_GT,
    Dataset,
    Detection,
    GroundTruthInstance,
    LoadError,
    SemanticMaskSet,
    load_detections,
    load_ground_truth,
    load_semantic_masks,
    write_detections,
    write_ground_truth,
    write_report,
)
from hedgeval.evaluate import EvalConfig, build_report, evaluate
from hedgeval.hedging import DcConfig, dc_cell_scores, duplicate_confusion, naming_error
from hedgeval.lrp import lrp, olrp
from hedgeval.mask import RleMask, decode, encode, iou, iou_matrix
from hedgeval.nms import NmsConfig, run_nms
from hedgeval.pr import average_precision, build_pr_curve, f1_score, mean_ap

# the generator loads on first use: evaluating and filtering never need it
_SYNTH_NAMES = ("SynthConfig", "generate", "perfect_detector")


def __getattr__(name):
    if name in _SYNTH_NAMES:
        from hedgeval import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DERIVE_FROM_DT",
    "DERIVE_FROM_GT",
    "Dataset",
    "DcConfig",
    "Detection",
    "EvalConfig",
    "GroundTruthInstance",
    "LoadError",
    "NmsConfig",
    "RleMask",
    "SemanticMaskSet",
    "SynthConfig",
    "average_precision",
    "build_pr_curve",
    "build_report",
    "dc_cell_scores",
    "decode",
    "duplicate_confusion",
    "encode",
    "evaluate",
    "f1_score",
    "generate",
    "iou",
    "iou_matrix",
    "load_detections",
    "load_ground_truth",
    "load_semantic_masks",
    "lrp",
    "mean_ap",
    "naming_error",
    "olrp",
    "perfect_detector",
    "run_nms",
    "write_detections",
    "write_ground_truth",
    "write_report",
]
