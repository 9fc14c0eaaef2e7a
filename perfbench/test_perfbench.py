"""Tests of the benchmark itself: its checks reject tampered outputs, every
workload runs at a tiny size, and a non-default seed passes every check.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import spans
from checks import check_kept, check_reload, check_report
from hedgeval.coco import load_detections, load_semantic_masks, write_detections, write_report
from hedgeval.evaluate import build_report
from hedgeval.nms import NmsConfig, run_nms
from inputs import DT_FILE, SEMANTIC_DIR, make_coco, make_hedged

HERE = Path(__file__).resolve().parent
SEED = 7  # not the CLI's default seed 0


@pytest.fixture(scope="module")
def hedged(tmp_path_factory):
    inputs = make_hedged(tmp_path_factory.mktemp("hedged"), 2, SEED)
    checker = harness.Checker(harness.WORKLOADS["eval-hedged"], inputs)
    return inputs, checker


def _report(inputs, dataset):
    dets = load_detections(inputs.root / DT_FILE, dataset)
    return json.loads(json.dumps(build_report(dataset, dets)))


def _tampered(report, key, value):
    out = json.loads(json.dumps(report))
    out["metrics"][key] = value
    return out


def test_hedged_report_passes_and_every_tamper_fails(hedged):
    inputs, checker = hedged
    report = _report(inputs, checker.dataset)
    assert check_report(report, inputs, "hedged") == []
    for key, value in (("map", 0.99), ("ne", 0.01), ("f1", 0.5), ("dc", 0.0)):
        assert check_report(_tampered(report, key, value), inputs, "hedged"), key
    dropped = json.loads(json.dumps(report))
    dropped["counts"]["n_detections"] -= 1
    assert check_report(dropped, inputs, "hedged")
    assert check_report({"counts": report["counts"]}, inputs, "hedged")


def test_coco_report_passes_and_every_tamper_fails(tmp_path):
    inputs = make_coco(tmp_path, 1, SEED)
    assert inputs.relabeled > 0
    checker = harness.Checker(harness.WORKLOADS["eval-coco"], inputs)
    report = _report(inputs, checker.dataset)
    assert check_report(report, inputs, "coco") == []
    wrong_ne = report["metrics"]["ne"] + 1.0 / inputs.n_gt
    for key, value in (("map", 0.9), ("ne", wrong_ne)):
        assert check_report(_tampered(report, key, value), inputs, "coco"), key


@pytest.mark.parametrize("method", ["semantic", "mask", "matrix", "soft"])
def test_kept_file_passes_and_every_tamper_fails(hedged, tmp_path, method):
    inputs, checker = hedged
    dets = load_detections(inputs.root / DT_FILE, checker.dataset)
    semantic = load_semantic_masks(inputs.root / SEMANTIC_DIR, checker.dataset)
    kept = run_nms(dets.by_image, NmsConfig(method=method), semantic)
    path = tmp_path / "kept.json"
    write_detections([d for i in sorted(kept) for d in kept[i]], path)
    records = json.loads(path.read_text())
    assert check_kept(method, records, checker.input_records, inputs) == []
    assert check_reload(path, checker.dataset) == []

    assert check_kept(method, records[:-1], checker.input_records, inputs)
    if method in ("matrix", "soft"):
        raised = [dict(r) for r in records]
        raised[1]["score"] = checker.input_records[1]["score"] + 1e-9
        assert check_kept(method, raised, checker.input_records, inputs)
    bad = [dict(r) for r in records]
    bad[0]["score"] = 1.5
    path.write_text(json.dumps(bad))
    assert check_reload(path, checker.dataset)


def test_checker_fails_exit_codes_and_digest_changes(hedged):
    inputs, checker = hedged
    report = _report(inputs, checker.dataset)
    path = inputs.root / harness.REPORT_FILE
    ok = [harness.Child("eval", 1.0, 1.0, 0)]

    write_report(report, path)
    assert checker.check(ok) == []
    write_report({**report, "created_at": "another time"}, path)
    assert checker.check(ok) == []
    report["counts"]["n_images"] += 1
    write_report(report, path)
    assert any("digest" in f for f in checker.check(ok))
    assert checker.check([harness.Child("eval", 1.0, 1.0, 1)])


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_workload_runs_tiny_with_a_non_default_seed(tmp_path, name):
    workload = replace(harness.WORKLOADS[name], n_images=1)
    run = harness.measure(workload, SEED, 0.0, True, tmp_path)
    assert run.failures == [] and run.failed == 0
    assert run.attempted == 2 * harness.MIN_PASSES

    e2e = harness.end_to_end(run)
    assert [k for k, _ in harness.END_TO_END] == list(e2e)
    assert all(v > 0 for v in e2e.values())

    layers = harness.per_layer(run)
    assert [k for k, _ in harness.PER_LAYER] == list(layers)
    assert layers["cli.startup_s"] > 0
    assert layers["coco.load_detections.records"] == run.inputs.n_dets * len(workload.commands)
    if name.startswith("eval"):
        assert layers["hedging.dc_single.calls"] > 0
        assert layers["mask.iou_matrix.pairs"] > 0
    if name == "nms-occupancy":
        assert layers["mask.iou_matrix.calls"] == 0
        assert layers["mask.compress_leb.calls"] > 0
    for method in ("semantic", "mask", "matrix", "soft"):
        assert (layers[f"nms.kept_frac.{method}"] > 0) == (method in workload.commands)


def test_summarize_self_time_and_pairwise_split():
    def span(i, name, start, end, parent=None, **counts):
        return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                "counts": counts}

    out = spans.summarize([
        span(0, "evaluate.evaluate", 0.0, 10.0),
        span(1, "mask.pairwise_iou", 1.0, 4.0, 0, pairs=4, nonzero=2),
        span(2, "mask.iou_matrix", 1.5, 3.5, 1, pairs=4, nonzero=2),
        span(3, "mask.iou_matrix", 5.0, 6.0, 0, pairs=6, nonzero=1),
    ])
    assert out["evaluate.evaluate"]["s"] == 10.0
    assert out["evaluate.evaluate"]["self_s"] == 6.0
    assert out["mask.pairwise_iou"]["self_s"] == 1.0
    assert out["mask.iou_matrix"] == {"s": 1.0, "self_s": 1.0, "calls": 1, "pairs": 6, "nonzero": 1}


def test_missing_hook_target_installs_nothing(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", {"mask.no_such_function": None,
                                         "no_such_module.decode": None})
    assert spans.Tracer().install() == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in harness.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-hedged",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
