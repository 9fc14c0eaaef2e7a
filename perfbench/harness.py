"""Workloads, timed passes and metrics of the `hedgeval` benchmark.

A pass runs each of a workload's commands once, every one as a fresh
``python -m hedgeval.cli`` child process, which is what a user pays:
interpreter start-up, imports, file ingestion, compute and output. All
passes use the CLI defaults (``--threads 1``) and the BLAS and thread
environment exactly as found. Passes repeat, closed loop, until the
measuring time is used up. Outputs are checked after each pass, outside
its timed interval.

End-to-end metrics come from untraced passes. A traced run alternates
untraced passes with passes launched through ``spans.py``, which wraps the
public functions of each module; per-layer metrics come from the traced
passes and ``trace.overhead_frac`` from the difference between the two.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from checks import check_kept, check_reload, check_report, file_digest, report_digest
from hedgeval.coco import load_ground_truth
from inputs import DT_FILE, GT_FILE, SCENES, SEMANTIC_DIR, Inputs
from spans import summarize

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 7
MIN_PASSES = 3
REPORT_FILE = "report.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: str  # key of inputs.SCENES
    n_images: int
    commands: tuple[str, ...]  # "eval", or an `nms --method` name


WORKLOADS = {w.name: w for w in (
    Workload("eval-hedged",
             "dense duplicate graphs: duplicate confusion is ~40% of evaluate, dense IoU most of the rest",
             "hedged", 16, ("eval",)),
    Workload("eval-coco",
             "640x480, 5 categories, ~120 dets/image: dense IoU dominates, DC is small",
             "coco", 3, ("eval",)),
    Workload("nms-occupancy",
             "semantic vs mask NMS: ingestion, RLE writing and start-up, no iou_matrix",
             "hedged", 32, ("semantic", "mask")),
    Workload("nms-rescore",
             "matrix and soft NMS: pairwise IoU rescoring, every detection kept",
             "hedged", 6, ("matrix", "soft")),
)}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("dets_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("coco.load_ground_truth.s", "s"),
    ("coco.load_detections.s", "s"),
    ("coco.load_detections.records", "count"),
    ("coco.load_detections.rejected", "count"),
    ("coco.load_semantic_masks.s", "s"),
    ("coco.write_detections.s", "s"),
    ("coco.write_report.s", "s"),
    ("mask.decompress_leb.s", "s"),
    ("mask.decompress_leb.calls", "count"),
    ("mask.decompress_leb.chars", "count"),
    ("mask.decode.s", "s"),
    ("mask.decode.calls", "count"),
    ("mask.compress_leb.s", "s"),
    ("mask.compress_leb.calls", "count"),
    ("mask.iou_matrix.s", "s"),
    ("mask.iou_matrix.calls", "count"),
    ("mask.iou_matrix.pairs", "count"),
    ("mask.iou_matrix.nonzero_frac", "ratio"),
    ("mask.iou_matrix.bytes_computed", "B"),
    ("mask.pairwise_iou.s", "s"),
    ("mask.pairwise_iou.calls", "count"),
    ("mask.pairwise_iou.pairs", "count"),
    ("mask.pairwise_iou.nonzero_frac", "ratio"),
    ("matching.greedy_match_from_ious.s", "s"),
    ("matching.greedy_match_from_ious.calls", "count"),
    ("matching.greedy_match_from_ious.pairs", "count"),
    ("matching.agnostic_match_from_ious.s", "s"),
    ("pr.build_pr_curve.s", "s"),
    ("pr.average_precision.s", "s"),
    ("lrp.olrp_scan.s", "s"),
    ("lrp.lrp_from_matching.s", "s"),
    ("hedging.duplicate_confusion.s", "s"),
    ("hedging.duplicate_confusion.groups", "count"),
    ("hedging.dc_single.calls", "count"),
    ("hedging.naming_error.s", "s"),
    ("evaluate.build_report.s", "s"),
    ("evaluate.evaluate.s", "s"),
    ("evaluate.evaluate.self_s", "s"),
    ("nms.run_nms.s", "s"),
    ("nms.semantic_sort.s", "s"),
    ("nms.semantic_nms.s", "s"),
    ("nms.mask_nms.s", "s"),
    ("nms.matrix_nms.s", "s"),
    ("nms.soft_nms.s", "s"),
    ("nms.kept_frac.semantic", "ratio"),
    ("nms.kept_frac.mask", "ratio"),
    ("nms.kept_frac.matrix", "ratio"),
    ("nms.kept_frac.soft", "ratio"),
    ("cli.startup_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def kept_file(method: str) -> str:
    return f"kept-{method}.json"


def output_file(command: str) -> str:
    return REPORT_FILE if command == "eval" else kept_file(command)


def cli_args(command: str) -> list[str]:
    files = ["--gt", GT_FILE, "--dt", DT_FILE]
    if command == "eval":
        return ["eval", *files, "--out", REPORT_FILE]
    args = ["nms", *files, "--out", kept_file(command), "--method", command]
    if command == "semantic":
        args += ["--semantic", SEMANTIC_DIR]
    return args


@dataclass
class Child:
    """One CLI process of a pass."""

    command: str
    wall: float
    rss_mb: float
    code: int
    main_s: float | None = None  # time inside cli.main (traced only)
    trace_s: float = 0.0  # hook install and span serialisation (traced only)
    layers: dict = field(default_factory=dict)  # spans.summarize output
    kept: int | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall s, peak RSS MB, exit code).

    The RSS is the child's own, from wait4, not the benchmark's.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_pass(workload: Workload, inputs: Inputs, pass_id: int, traced: bool, env: dict) -> list[Child]:
    children = []
    for command in workload.commands:
        (inputs.root / output_file(command)).unlink(missing_ok=True)
        spans_path = inputs.root / f"spans-{pass_id}-{command}.json"
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"), str(spans_path), str(pass_id)]
        else:
            argv = [sys.executable, "-m", "hedgeval.cli"]
        wall, rss, code = spawn(argv + cli_args(command), inputs.root, env, inputs.root / "cli.log")
        child = Child(command, wall, rss, code)
        if traced and code == 0:
            header, spans = (json.loads(line) for line in spans_path.read_text().splitlines())
            child.main_s = header["main_s"]
            child.trace_s = header["trace_s"]
            child.layers = summarize(spans)
            spans_path.unlink()
        children.append(child)
    return children


class Checker:
    """Checks every pass of one run against the inputs and the first pass."""

    def __init__(self, workload: Workload, inputs: Inputs):
        self.workload = workload
        self.inputs = inputs
        self.dataset = load_ground_truth(inputs.root / GT_FILE)
        self.input_records = json.loads((inputs.root / DT_FILE).read_text())
        self.digests: dict[str, str] = {}  # output file -> first pass's digest

    def check(self, children: list[Child]) -> list[str]:
        fails = []
        for child in children:
            if child.code != 0:
                fails.append(f"{child.command} exited with {child.code}")
                continue
            path = self.inputs.root / output_file(child.command)
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError) as e:
                fails.append(f"{child.command} output unreadable: {e}")
                continue
            if child.command == "eval":
                fails += check_report(data, self.inputs, self.workload.scene)
                digest = report_digest(data)
            else:
                child.kept = len(data)
                fails += check_kept(child.command, data, self.input_records, self.inputs)
                fails += check_reload(path, self.dataset)
                digest = file_digest(path)
            first = self.digests.setdefault(output_file(child.command), digest)
            if digest != first:
                fails.append(f"{output_file(child.command)} digest {digest[:12]} "
                             f"differs from the first pass's {first[:12]}")
        return fails


@dataclass
class Run:
    workload: Workload
    inputs: Inputs
    setup_s: list[float]
    digests: dict[str, str]
    untraced: list[list[Child]] = field(default_factory=list)
    traced: list[list[Child]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def setup(workload: Workload, seed: int, work: Path) -> tuple[Inputs, list[float]]:
    """Generate the inputs SETUP_REPEATS times; keep the first copy."""
    times, kept = [], None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = SCENES[workload.scene](work / f"inputs-{i}", workload.n_images, seed)
        times.append(time.perf_counter() - start)
        if kept is None:
            kept = inputs
        else:
            shutil.rmtree(inputs.root)
    return kept, times


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Run:
    inputs, setup_s = setup(workload, seed, work)
    checker = Checker(workload, inputs)
    env = child_env()
    run = Run(workload, inputs, setup_s, checker.digests)
    modes = (False, True) if trace else (False,)
    deadline = time.perf_counter() + seconds
    while run.attempted < MIN_PASSES * len(modes) or time.perf_counter() < deadline:
        for traced in modes:
            children = run_pass(workload, inputs, run.attempted, traced, env)
            fails = checker.check(children)
            run.attempted += 1
            if fails:
                run.failed += 1
                run.failures += [f"pass {run.attempted}: {f}" for f in fails]
            (run.traced if traced else run.untraced).append(children)
    return run


def pass_wall(children: list[Child]) -> float:
    return sum(c.wall for c in children)


def end_to_end(run: Run) -> dict[str, float]:
    walls = [pass_wall(p) for p in run.untraced]
    processed = run.inputs.n_dets * len(run.workload.commands)
    return {
        "setup_s": median(run.setup_s),
        "wall_s": median(walls),
        "dets_per_s": median(processed / w for w in walls),
        "peak_rss_mb": median(max(c.rss_mb for c in p) for p in run.untraced),
    }


def _layer_value(layers: dict, name: str) -> float:
    span, qty = name.rsplit(".", 1)
    agg = layers.get(span, {})
    if qty == "nonzero_frac":
        return agg.get("nonzero", 0) / agg["pairs"] if agg.get("pairs") else 0.0
    return agg.get(qty, 0)


def _merged_layers(children: list[Child]) -> dict:
    merged: dict = {}
    for child in children:
        for span, agg in child.layers.items():
            into = merged.setdefault(span, {})
            for k, v in agg.items():
                into[k] = into.get(k, 0) + v
    return merged


def per_layer(run: Run) -> dict[str, float]:
    """Medians over traced passes of each PER_LAYER quantity."""
    n_dets = run.inputs.n_dets
    by_pass = [_merged_layers(p) for p in run.traced]
    out = {}
    for name, _ in PER_LAYER:
        if name.startswith("nms.kept_frac."):
            method = name.rsplit(".", 1)[1]
            fracs = [c.kept / n_dets for p in run.traced for c in p
                     if c.command == method and c.kept is not None]
            out[name] = median(fracs) if fracs else 0.0
        elif name == "cli.startup_s":
            startups = [c.wall - c.main_s - c.trace_s
                        for p in run.traced for c in p if c.main_s is not None]
            out[name] = median(startups) if startups else 0.0
        elif name == "trace.overhead_frac":
            out[name] = (median(pass_wall(p) for p in run.traced)
                         / median(pass_wall(p) for p in run.untraced) - 1.0)
        else:
            out[name] = median(_layer_value(layers, name) for layers in by_pass)
    return out
