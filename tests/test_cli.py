"""Command-line interface, exercised through CliRunner against real files."""

import csv
import dataclasses
import io
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hedgeval.cli import main
from hedgeval.coco import (
    CategoryInfo,
    Dataset,
    Detection,
    GroundTruthInstance,
    ImageInfo,
    load_detections,
    load_ground_truth,
    write_detections,
    write_ground_truth,
)
from hedgeval.mask import encode


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small generated dataset with hedged detections, shared read-only."""
    out = tmp_path_factory.mktemp("synth")
    result = CliRunner().invoke(main, [
        "synth", "--out", str(out), "--n-images", "6", "--seed", "42",
        "--spatial-copies", "3",
    ])
    assert result.exit_code == 0, result.output
    return out


def toy_files(tmp_path):
    """One image, one GT, one TP at 0.8 behind one FP at 0.9."""
    gt_mask = np.zeros((16, 16), dtype=bool)
    gt_mask[2:8, 2:8] = True
    fp_mask = np.zeros((16, 16), dtype=bool)
    fp_mask[10:14, 10:14] = True
    ds = Dataset({1: ImageInfo(1, 16, 16)}, {1: CategoryInfo(1, "thing")},
                 {1: [GroundTruthInstance(1, 1, 1, encode(gt_mask))]})
    gt_path = tmp_path / "gt.json"
    dt_path = tmp_path / "dt.json"
    write_ground_truth(ds, gt_path)
    write_detections([Detection(1, 1, 0.9, encode(fp_mask)),
                      Detection(1, 1, 0.8, encode(gt_mask))], dt_path)
    return gt_path, dt_path


class TestSynthCommand:
    def test_writes_dataset_and_detections(self, synth_dir):
        assert (synth_dir / "annotations.json").exists()
        assert (synth_dir / "config.json").exists()
        assert (synth_dir / "semantic" / "1" / "1.json").exists()
        ds = load_ground_truth(synth_dir / "annotations.json")
        assert len(ds.images) == 6
        dets = load_detections(synth_dir / "detections.json", ds)
        assert dets.n_loaded == 4 * ds.n_ground_truths

    def test_rejects_impossible_geometry(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--out", str(tmp_path / "x"), "--height", "64",
            "--width", "64", "--length-range", "80,90",
        ])
        assert result.exit_code == 2
        assert "larger than image" in result.stderr

    def test_rejects_non_finite_part_sizes(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--out", str(tmp_path / "x"), "--length-range", "nan,nan",
        ])
        assert result.exit_code == 2
        assert "length_range" in result.stderr

    def test_rejects_non_finite_conf_step(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--out", str(tmp_path / "x"), "--n-images", "1",
            "--spatial-copies", "1", "--conf-step", "nan",
        ])
        assert result.exit_code == 1
        assert "conf_step nan" in result.stderr
        assert not (tmp_path / "x" / "detections.json").exists()

    def test_category_noise_needs_second_category(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--out", str(tmp_path / "x"), "--n-images", "1",
            "--category-noise", "0.5",
        ])
        assert result.exit_code == 1
        assert "two categories" in result.stderr
        assert not list((tmp_path / "x").glob("*"))  # checked before anything is written

    def test_out_under_a_file_is_an_error(self, runner, tmp_path):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        result = runner.invoke(main, ["synth", "--out", str(out), "--n-images", "1"])
        assert result.exit_code == 1
        assert result.stderr == f"Error: cannot write {out}: Not a directory\n"

    def test_unwritable_detections_is_an_error(self, runner, tmp_path):
        out = tmp_path / "x"
        (out / "detections.json").mkdir(parents=True)  # a directory, not a file
        result = runner.invoke(main, ["synth", "--out", str(out), "--n-images", "1",
                                      "--detections"])
        assert result.exit_code == 1
        assert result.stderr == f"Error: cannot write {out / 'detections.json'}: Is a directory\n"

    def test_negative_spatial_copies_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--out", str(tmp_path / "x"), "--n-images", "1",
            "--spatial-copies", "-1",
        ])
        assert result.exit_code == 2
        assert "-1" in result.stderr
        assert not list((tmp_path / "x").glob("*"))

    def test_negative_category_noise_is_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--out", str(tmp_path / "x"), "--n-images", "1",
            "--category-noise", "-0.5",
        ])
        assert result.exit_code == 1
        assert "category_noise must lie in [0, 1]" in result.stderr
        assert not list((tmp_path / "x").glob("*"))


class TestEvalCommand:
    def test_report_file_and_table(self, runner, synth_dir, tmp_path):
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, [
            "eval", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
            "--out", str(report_path), "--verify",
        ])
        assert result.exit_code == 0, result.output
        assert "mAP" in result.output and "DC" in result.output
        assert "verify: ok" in result.output
        report = json.loads(report_path.read_text())
        assert report["metrics"]["map"] == 1.0
        assert report["metrics"]["dc"] > 0
        assert report["verify"]["ok"] is True
        assert report["config"]["gt"].endswith("annotations.json")

    def test_threads_yield_identical_reports(self, runner, synth_dir, tmp_path):
        paths = []
        for threads in ("1", "8"):
            p = tmp_path / f"report{threads}.json"
            result = runner.invoke(main, [
                "eval", "--gt", str(synth_dir / "annotations.json"),
                "--dt", str(synth_dir / "detections.json"),
                "--threads", threads, "--out", str(p),
            ])
            assert result.exit_code == 0, result.output
            paths.append(p)
        a, b = (json.loads(p.read_text()) for p in paths)
        a.pop("created_at"), b.pop("created_at")
        assert a == b

    def test_threads_env_fallback(self, runner, synth_dir):
        result = runner.invoke(main, [
            "eval", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
        ], env={"HEDGEVAL_THREADS": "3"})
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("args, env", [(["--threads", "0"], {}),
                                           ([], {"HEDGEVAL_THREADS": "0"})],
                             ids=["option", "env"])
    def test_threads_must_be_positive(self, runner, synth_dir, args, env):
        result = runner.invoke(main, [
            "eval", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"), *args,
        ], env=env)
        assert result.exit_code == 2
        assert "--threads" in result.output

    def test_verify_checks_each_sampled_images_naming_error(self, runner, synth_dir,
                                                            monkeypatch):
        evaluate_mod = importlib.import_module("hedgeval.evaluate")
        args = ["eval", "--gt", str(synth_dir / "annotations.json"),
                "--dt", str(synth_dir / "detections.json"), "--verify"]
        clean = runner.invoke(main, args)
        right = evaluate_mod.naming_error

        def one_more_mismatch(items):  # per image: that image's count is one off
            res = right(items)
            return dataclasses.replace(res, mismatches=res.mismatches + 1)

        monkeypatch.setattr(evaluate_mod, "naming_error", one_more_mismatch)
        broken = runner.invoke(main, args)
        assert clean.exit_code == 0 and broken.exit_code == 1
        counts = clean.output.split("verify: ok ")[1]
        assert f"verify: FAILED {counts}" in broken.output

    def test_summary_names_rejected_detections(self, runner, synth_dir, tmp_path):
        gt = str(synth_dir / "annotations.json")
        result = runner.invoke(main, ["eval", "--gt", gt,
                                      "--dt", str(synth_dir / "detections.json")])
        assert result.exit_code == 0, result.output
        assert "rejected" not in result.output
        # 'sum' scores lie above 1, so the loader rejects every kept detection
        kept = tmp_path / "kept.json"
        result = runner.invoke(main, [
            "nms", "--gt", gt, "--dt", str(synth_dir / "detections.json"),
            "--out", str(kept), "--semantic", "derive-from-gt", "--score-mode", "sum",
        ])
        assert result.exit_code == 0, result.output
        n_kept = len(json.loads(kept.read_text()))
        assert n_kept > 0
        result = runner.invoke(main, ["eval", "--gt", gt, "--dt", str(kept)])
        assert result.exit_code == 0, result.output
        assert (f"detections 0  rejected: bad score {n_kept}  empty mask 0"
                in result.output)

    def test_missing_gt_fails_on_stderr(self, runner, tmp_path):
        result = runner.invoke(main, [
            "eval", "--gt", str(tmp_path / "nope.json"), "--dt", str(tmp_path / "d.json"),
        ])
        assert result.exit_code != 0
        assert "nope.json" in result.stderr

    @pytest.mark.parametrize("option, field", [
        ("--iou-thrs", "iou_thrs"), ("--dc-iou-thrs", "dc_iou_thrs"),
        ("--dc-conf-thrs", "dc_conf_thrs"),
    ])
    def test_repeated_threshold_is_a_usage_error(self, runner, synth_dir, option, field):
        result = runner.invoke(main, [
            "eval", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"), option, "0.5,0.5",
        ])
        assert result.exit_code == 2
        assert f"{field} lists 0.5 more than once" in result.stderr

    def test_unknown_metric_name(self, runner, synth_dir):
        result = runner.invoke(main, [
            "eval", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"), "--metrics", "map,bogus",
        ])
        assert result.exit_code == 2
        assert "bogus" in result.stderr

    @pytest.mark.parametrize("metrics", [",", ""])
    def test_empty_metric_list_is_a_usage_error(self, runner, tmp_path, metrics):
        gt_path, dt_path = toy_files(tmp_path)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", "--gt", str(gt_path), "--dt", str(dt_path),
                                      "--metrics", metrics, "--out", str(out)])
        assert result.exit_code == 2
        assert "expected at least one metric name" in result.stderr
        assert not out.exists()

    def test_out_in_missing_directory_is_an_error(self, runner, tmp_path):
        gt_path, dt_path = toy_files(tmp_path)
        out = tmp_path / "missing" / "report.json"
        result = runner.invoke(main, ["eval", "--gt", str(gt_path), "--dt", str(dt_path),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr == f"Error: cannot write {out}: No such file or directory\n"

    def test_metric_selection_filters_table(self, runner, synth_dir):
        result = runner.invoke(main, [
            "eval", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
            "--metrics", "ap,fp-tp-curve",
        ])
        assert result.exit_code == 0
        assert "AP[1]" in result.output and "FP:TP@0.50" in result.output
        assert "mAP" not in result.output and "oLRP" not in result.output

    def test_verify_on_empty_image_table(self, runner, tmp_path):
        gt_path, dt_path = tmp_path / "gt.json", tmp_path / "dt.json"
        write_ground_truth(Dataset({}, {1: CategoryInfo(1, "thing")}, {}), gt_path)
        write_detections([], dt_path)
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", "--gt", str(gt_path), "--dt", str(dt_path),
                                      "--verify", "--out", str(report_path)])
        assert result.exit_code == 0, result.output
        verify = json.loads(report_path.read_text())["verify"]
        assert verify["images_checked"] == 0 and verify["ok"] is True

    def test_malformed_gt_reports_load_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"images": []}))
        result = runner.invoke(main, ["eval", "--gt", str(bad), "--dt", str(bad)])
        assert result.exit_code == 1
        assert "missing required field" in result.stderr


    @pytest.mark.parametrize("which", ["gt", "dt"])
    def test_truncated_json_reports_load_error(self, runner, tmp_path, which):
        paths = dict(zip(("gt", "dt"), toy_files(tmp_path)))
        bad = paths[which]
        bad.write_text(bad.read_text()[:40])
        result = runner.invoke(main, ["eval", "--gt", str(paths["gt"]), "--dt", str(paths["dt"])])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"Error: {bad} is not valid JSON: ")


class TestNmsCommand:
    def test_semantic_round_trip_restores_counts(self, runner, synth_dir, tmp_path):
        out = tmp_path / "kept.json"
        result = runner.invoke(main, [
            "nms", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
            "--out", str(out), "--semantic", "derive-from-gt",
        ])
        assert result.exit_code == 0, result.output
        ds = load_ground_truth(synth_dir / "annotations.json")
        kept = load_detections(out, ds)
        assert kept.n_loaded == ds.n_ground_truths
        for image_id, gts in ds.gts_by_image.items():
            assert len(kept.by_image[image_id]) == len(gts)

    def test_unreadable_semantic_file_reports_load_error(self, runner, tmp_path):
        gt_path, dt_path = toy_files(tmp_path)
        sem_file = tmp_path / "semantic" / "1" / "1.json"
        sem_file.mkdir(parents=True)  # a directory, not a file
        result = runner.invoke(main, ["nms", "--gt", str(gt_path), "--dt", str(dt_path),
                                      "--out", str(tmp_path / "kept.json"),
                                      "--semantic", str(tmp_path / "semantic")])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"Error: semantic mask {sem_file}: ")

    def test_out_in_missing_directory_is_an_error(self, runner, tmp_path):
        gt_path, dt_path = toy_files(tmp_path)
        out = tmp_path / "missing" / "kept.json"
        result = runner.invoke(main, ["nms", "--gt", str(gt_path), "--dt", str(dt_path),
                                      "--out", str(out), "--method", "mask"])
        assert result.exit_code == 1
        assert result.stderr == f"Error: cannot write {out}: No such file or directory\n"

    def test_semantic_requires_source(self, runner, synth_dir, tmp_path):
        result = runner.invoke(main, [
            "nms", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
            "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 1
        assert "--semantic" in result.stderr

    @pytest.mark.parametrize("method", ["matrix", "soft"])
    def test_non_finite_sigma_is_a_usage_error(self, runner, synth_dir, tmp_path, method):
        result = runner.invoke(main, [
            "nms", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
            "--out", str(tmp_path / "x.json"), "--method", method, "--sigma", "nan",
        ])
        assert result.exit_code == 2
        assert "sigma" in result.stderr
        assert not (tmp_path / "x.json").exists()

    def test_mask_method_needs_no_semantic(self, runner, synth_dir, tmp_path):
        out = tmp_path / "kept.json"
        result = runner.invoke(main, [
            "nms", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
            "--out", str(out), "--method", "mask",
        ])
        assert result.exit_code == 0, result.output
        ds = load_ground_truth(synth_dir / "annotations.json")
        assert load_detections(out, ds).n_loaded == ds.n_ground_truths

    def test_semantic_directory_source(self, runner, synth_dir, tmp_path):
        out = tmp_path / "kept.json"
        result = runner.invoke(main, [
            "nms", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
            "--out", str(out), "--semantic", str(synth_dir / "semantic"),
        ])
        assert result.exit_code == 0, result.output

    def test_directory_and_derived_sources_keep_the_same_bytes(self, runner, synth_dir, tmp_path):
        # synth writes the union of its ground truth, which derive-from-gt builds
        kept = {}
        for name, source in (("dir", str(synth_dir / "semantic")), ("gt", "derive-from-gt")):
            kept[name] = tmp_path / f"kept-{name}.json"
            result = runner.invoke(main, [
                "nms", "--gt", str(synth_dir / "annotations.json"),
                "--dt", str(synth_dir / "detections.json"),
                "--out", str(kept[name]), "--semantic", source,
            ])
            assert result.exit_code == 0, result.output
        assert kept["dir"].read_bytes() == kept["gt"].read_bytes()

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_semantic_source_that_is_no_directory(self, runner, synth_dir, tmp_path, kind):
        source = tmp_path / "semantic"
        if kind == "file":
            source.write_text("{}")
        result = runner.invoke(main, [
            "nms", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"),
            "--out", str(tmp_path / "x.json"), "--semantic", str(source),
        ])
        assert result.exit_code == 1
        assert result.stderr == f"Error: semantic mask source {source} is not a directory\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("floor", ["nan", "7", "-0.5"])
    def test_conf_floor_outside_unit_interval_is_a_usage_error(self, runner, synth_dir,
                                                               tmp_path, floor):
        result = runner.invoke(main, [
            "nms", "--gt", str(synth_dir / "annotations.json"),
            "--dt", str(synth_dir / "detections.json"), "--out", str(tmp_path / "x.json"),
            "--semantic", "derive-from-dt", "--conf-floor", floor,
        ])
        assert result.exit_code == 2
        assert "conf_floor must lie in [0, 1]" in result.stderr
        assert not (tmp_path / "x.json").exists()


class TestPrcurveCommand:
    def test_csv_matches_toy_ranking(self, runner, tmp_path):
        gt_path, dt_path = toy_files(tmp_path)
        result = runner.invoke(main, ["prcurve", "--gt", str(gt_path),
                                      "--dt", str(dt_path)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [r["rank"] for r in rows] == ["1", "2"]
        assert [r["is_tp"] for r in rows] == ["0", "1"]
        assert float(rows[1]["precision"]) == 0.5
        assert float(rows[1]["recall"]) == 1.0

    def test_out_file(self, runner, tmp_path):
        gt_path, dt_path = toy_files(tmp_path)
        out = tmp_path / "curve.csv"
        result = runner.invoke(main, ["prcurve", "--gt", str(gt_path),
                                      "--dt", str(dt_path), "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text().startswith("rank,confidence,is_tp")

    def test_builds_only_the_ranked_path(self, runner, synth_dir, monkeypatch):
        # the package exports a function named evaluate over the submodule
        evaluate_mod = importlib.import_module("hedgeval.evaluate")

        def unused(*args, **kwargs):
            raise AssertionError("prcurve computed an input it does not use")

        for name in ("table_pairwise_iou", "naming_error", "dc_cell_scores"):
            monkeypatch.setattr(evaluate_mod, name, unused)
        result = runner.invoke(main, ["prcurve", "--gt", str(synth_dir / "annotations.json"),
                                      "--dt", str(synth_dir / "detections.json")])
        assert result.exit_code == 0, result.output
        assert len(result.output.splitlines()) > 1

    def test_unknown_category(self, runner, tmp_path):
        gt_path, dt_path = toy_files(tmp_path)
        result = runner.invoke(main, ["prcurve", "--gt", str(gt_path),
                                      "--dt", str(dt_path), "--category", "7"])
        assert result.exit_code == 1
        assert "category 7" in result.stderr


class TestBenchCommand:
    def test_csv_shape(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        result = runner.invoke(main, [
            "bench-nms", "--sizes", "40,80", "--repeats", "2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert [(r["n"], r["method"]) for r in rows] == [
            ("40", "mask"), ("40", "semantic"), ("80", "mask"), ("80", "semantic")]
        assert all(float(r["seconds"]) > 0 for r in rows)

    @pytest.mark.parametrize("sizes, message", [
        ("101", "multiple"),
        ("inf", "expected integers, got 'inf'"),
        ("nan", "expected integers, got 'nan'"),
    ], ids=["101", "inf", "nan"])
    def test_bad_sizes(self, runner, sizes, message):
        result = runner.invoke(main, ["bench-nms", "--sizes", sizes])
        assert result.exit_code == 2
        assert message in result.stderr

    @pytest.mark.parametrize("dup_factor", ["0", "-1"])
    def test_dup_factor_below_one_is_a_usage_error(self, runner, dup_factor):
        result = runner.invoke(main, ["bench-nms", "--sizes", "8", "--dup-factor", dup_factor])
        assert result.exit_code == 2
        assert "dup_factor must be at least 1" in result.stderr


class TestImports:
    def test_cli_loads_only_what_eval_and_nms_run(self):
        # the traced modules load with the CLI; the generator, the NMS
        # timing harness and the brute-force references load on first use
        import hedgeval

        src = str(Path(hedgeval.__file__).resolve().parent.parent)
        code = ("import json, sys; import hedgeval.cli; "
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hedgeval.'))))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        loaded = set(json.loads(out.stdout))
        eager = {"coco", "mask", "matching", "pr", "lrp", "hedging", "evaluate", "nms"}
        assert {f"hedgeval.{m}" for m in eager} <= loaded
        assert not {"hedgeval.synth", "hedgeval.bench", "hedgeval.oracles"} & loaded

    def test_pairwise_nms_never_loads_numpy_ma(self, synth_dir, tmp_path):
        # np.unique loads numpy.ma (about 10 ms per process on numpy 2.4)
        import hedgeval

        src = str(Path(hedgeval.__file__).resolve().parent.parent)
        code = ("import sys; from hedgeval.cli import main\n"
                "for method in ('mask', 'matrix', 'soft'):\n"
                "    main(['nms', '--gt', sys.argv[1], '--dt', sys.argv[2], '--out', sys.argv[3],\n"
                "          '--method', method], standalone_mode=False)\n"
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, str(synth_dir / "annotations.json"),
                              str(synth_dir / "detections.json"), str(tmp_path / "kept.json")],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        lines = out.stdout.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == ["mask", "matrix", "soft"]
        assert lines[-1] == "False"

    def test_eval_without_verify_never_loads_numpy_random(self, synth_dir):
        # numpy 2 loads numpy.random on first use (9-13 ms per process on
        # numpy 2.4); only --verify draws a sample
        import hedgeval

        src = str(Path(hedgeval.__file__).resolve().parent.parent)
        code = ("import sys; from hedgeval.cli import main\n"
                "main(['eval', '--gt', sys.argv[1], '--dt', sys.argv[2]], standalone_mode=False)\n"
                "print('numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, str(synth_dir / "annotations.json"),
                              str(synth_dir / "detections.json")],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.splitlines()[-1] == "False"

    def test_package_still_exports_the_generator(self):
        from hedgeval import SynthConfig, generate, perfect_detector
        from hedgeval import synth

        assert (SynthConfig, generate, perfect_detector) == (
            synth.SynthConfig, synth.generate, synth.perfect_detector)
