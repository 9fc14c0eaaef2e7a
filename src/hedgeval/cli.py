"""Command-line front end.

Reports go to JSON files, human-readable tables to standard output, curves
and benchmark timings to CSV. Ratios live in [0, 1] everywhere; the LRP
family is scaled by 100 in printed tables only.
"""

from __future__ import annotations

from pathlib import Path

import click

from . import __version__
from .coco import (
    DERIVE_FROM_DT,
    DERIVE_FROM_GT,
    LoadError,
    load_detections,
    load_ground_truth,
    load_semantic_masks,
    write_detections,
    write_report,
)
from .evaluate import EvalConfig, build_report, pool_rows, ranked_image
from .nms import DECAYS, METHODS, SCORE_MODES, NmsConfig, run_nms
from .pr import build_pr_curve

METRIC_NAMES = ("map", "ap", "f1", "dc", "ne", "lrp", "olrp", "fp-tp-curve")
DEFAULT_METRICS = "map,f1,dc,ne,lrp,olrp"
SEMANTIC_MODES = (DERIVE_FROM_GT, DERIVE_FROM_DT)


def _parse_float_list(ctx, param, value):
    if value is None:
        return None
    try:
        out = tuple(float(x) for x in value.replace(",", " ").split())
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {value!r}")
    if not out:
        raise click.BadParameter("expected at least one value")
    return out


def _parse_int_list(ctx, param, value):
    floats = _parse_float_list(ctx, param, value)
    if floats is None:
        return None
    if not all(v.is_integer() for v in floats):  # inf and nan are not
        raise click.BadParameter(f"expected integers, got {value!r}")
    return tuple(int(v) for v in floats)


def _parse_pair(ctx, param, value):
    floats = _parse_float_list(ctx, param, value)
    if floats is None:
        return None
    if len(floats) != 2:
        raise click.BadParameter(f"expected two numbers lo,hi, got {value!r}")
    return floats


def _parse_metrics(ctx, param, value):
    names = tuple(x for x in value.replace(",", " ").split() if x)
    if not names:
        raise click.BadParameter("expected at least one metric name")
    unknown = [x for x in names if x not in METRIC_NAMES]
    if unknown:
        raise click.BadParameter(
            f"unknown metric(s) {', '.join(unknown)}; valid: {', '.join(METRIC_NAMES)}")
    return names


@click.group()
@click.version_option(__version__)
def main():
    """Instance-segmentation evaluation beyond AP: hedging-aware metrics
    (duplicate confusion, naming error), AP/F1/LRP, semantic NMS, and a
    synthetic part-counting dataset."""


def _load_pair(gt, dt):
    try:
        dataset = load_ground_truth(gt)
        dets = load_detections(dt, dataset)
    except LoadError as e:
        raise click.ClickException(str(e))
    return dataset, dets


def _write(writer, obj, path):
    try:
        writer(obj, path)
    except OSError as e:
        raise click.ClickException(f"cannot write {path}: {e.strerror or e}")


def _fmt(value, scale=1.0, digits=4):
    return "n/a" if value is None else f"{value * scale:.{digits}f}"


def _print_table(report, names, cfg):
    m = report["metrics"]
    rows = []
    if "map" in names:
        rows.append(("mAP", _fmt(m["map"])))
    if "ap" in names:
        for cat, v in sorted(m["ap_per_category"].items(), key=lambda kv: int(kv[0])):
            rows.append((f"AP[{cat}]", _fmt(v)))
    if "f1" in names:
        rows.append((f"F1@{cfg.f1_iou_thr:g}", _fmt(m["f1"])))
    if "dc" in names:
        rows.append(("DC", _fmt(m["dc"])))
    if "ne" in names:
        rows.append(("NE", _fmt(m["ne"])))
    if "lrp" in names:
        rows.append(("LRP (x100)", _fmt(m["lrp"], 100, 2)))
        rows.append(("LRP_Loc (x100)", _fmt(m["lrp_loc"], 100, 2)))
        rows.append(("LRP_FP (x100)", _fmt(m["lrp_fp"], 100, 2)))
        rows.append(("LRP_FN (x100)", _fmt(m["lrp_fn"], 100, 2)))
    if "olrp" in names:
        rows.append(("oLRP (x100)", _fmt(m["olrp"], 100, 2)))
    if "fp-tp-curve" in names:
        for b, v in m["fp_tp_curve"].items():
            rows.append((f"FP:TP@{b}", _fmt(v)))
    width = max(len(n) for n, _ in rows)
    for name, value in rows:
        click.echo(f"{name:<{width}}  {value}")
    c = report["counts"]
    summary = (f"\nimages {c['n_images']}  categories {c['n_categories']}  "
               f"ground truths {c['n_ground_truths']}  detections {c['n_detections']}")
    if c["rejected_bad_score"] or c["rejected_empty_mask"]:
        summary += (f"  rejected: bad score {c['rejected_bad_score']}  "
                    f"empty mask {c['rejected_empty_mask']}")
    click.echo(summary)
    if "verify" in report:
        v = report["verify"]
        state = "ok" if v["ok"] else "FAILED"
        click.echo(f"verify: {state} (images {v['images_checked']}, "
                   f"matches {v['matches_checked']}, graphs {v['graphs_checked']})")


@main.command("eval")
@click.option("--gt", required=True, type=click.Path(exists=True, dir_okay=False),
              help="COCO ground-truth annotation file.")
@click.option("--dt", required=True, type=click.Path(exists=True, dir_okay=False),
              help="COCO detection results array.")
@click.option("--semantic", default=None,
              help="Semantic mask source (directory, derive-from-gt or "
                   "derive-from-dt); recorded in the report for provenance.")
@click.option("--metrics", default=DEFAULT_METRICS, callback=_parse_metrics,
              show_default=True,
              help="Comma-separated metric names to print; the report always "
                   "carries all of them.")
@click.option("--iou-thrs", default=None, callback=_parse_float_list,
              help="AP IoU thresholds (default 0.50..0.95 step 0.05).")
@click.option("--dc-iou-thrs", default=None, callback=_parse_float_list,
              help="Duplicate-confusion IoU grid (default 0.50..0.95).")
@click.option("--dc-conf-thrs", default=None, callback=_parse_float_list,
              help="Duplicate-confusion confidence grid (default 0.1..0.9).")
@click.option("--f1-iou-thr", default=0.5, show_default=True)
@click.option("--lrp-iou-thr", default=0.5, show_default=True)
@click.option("--min-score", default=0.0, show_default=True,
              help="Confidence floor for the F1 detection set.")
@click.option("--max-dets", default=100, show_default=True,
              help="Per-image cap for the ranked (AP/LRP) paths.")
@click.option("--threads", default=1, show_default=True, envvar="HEDGEVAL_THREADS",
              type=click.IntRange(min=1), expose_value=False,
              help="Accepted; evaluation runs serially whatever the value.")
@click.option("--verify", is_flag=True,
              help="Check the reported records of a sample of images against "
                   "brute-force references; non-zero exit on divergence.")
@click.option("--seed", default=0, show_default=True,
              help="Seed for the verification sample.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="Write the JSON report here.")
def cmd_eval(gt, dt, semantic, metrics, iou_thrs, dc_iou_thrs, dc_conf_thrs,
             f1_iou_thr, lrp_iou_thr, min_score, max_dets, verify, seed, out):
    """Evaluate detections against ground truth."""
    overrides = {k: v for k, v in (("iou_thrs", iou_thrs),
                                   ("dc_iou_thrs", dc_iou_thrs),
                                   ("dc_conf_thrs", dc_conf_thrs)) if v is not None}
    try:
        cfg = EvalConfig(f1_iou_thr=f1_iou_thr, lrp_iou_thr=lrp_iou_thr,
                         min_score=min_score, max_dets=max_dets, verify=verify,
                         verify_seed=seed, **overrides)
    except ValueError as e:
        raise click.BadParameter(str(e))
    dataset, dets = _load_pair(gt, dt)
    source = {"gt": str(gt), "dt": str(dt), "semantic": semantic,
              "metrics": list(metrics)}
    report = build_report(dataset, dets, cfg, source=source)
    if out:
        _write(write_report, report, out)
    _print_table(report, metrics, cfg)
    if verify and not report["verify"]["ok"]:
        raise click.ClickException("verification failed: production metrics "
                                   "disagree with the brute-force references")


@main.command("nms")
@click.option("--gt", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Annotation file giving image sizes and the category table.")
@click.option("--dt", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Write surviving detections here.")
@click.option("--method", default="semantic", type=click.Choice(METHODS),
              show_default=True)
@click.option("--iou-thr", default=0.5, show_default=True,
              help="Suppression overlap for mask NMS; decay gate for linear soft NMS.")
@click.option("--score-floor", default=None, type=float,
              help="Post-NMS score floor (default depends on method).")
@click.option("--occupancy-thr", default=0.5, show_default=True,
              help="Semantic NMS keep threshold on unclaimed-support fraction.")
@click.option("--decay", default="gaussian", type=click.Choice(DECAYS), show_default=True)
@click.option("--sigma", default=2.0, show_default=True)
@click.option("--score-mode", default="averaged", type=click.Choice(SCORE_MODES),
              show_default=True,
              help="Semantic NMS output score convention; 'sum' can write scores "
                   "above 1, which every loader rejects.")
@click.option("--semantic", default=None,
              help="Semantic mask source for method=semantic: a directory, "
                   f"{DERIVE_FROM_GT}, or {DERIVE_FROM_DT}.")
@click.option("--conf-floor", default=0.5, show_default=True,
              help=f"Detection confidence floor for {DERIVE_FROM_DT}.")
def cmd_nms(gt, dt, out, method, iou_thr, score_floor, occupancy_thr, decay,
            sigma, score_mode, semantic, conf_floor):
    """Filter a detection file with the chosen suppression method."""
    try:
        cfg = NmsConfig(method=method, iou_thr=iou_thr, score_floor=score_floor,
                        occupancy_thr=occupancy_thr, decay=decay, sigma=sigma,
                        score_mode=score_mode)
    except ValueError as e:
        raise click.BadParameter(str(e))
    dataset, dets = _load_pair(gt, dt)
    sem_sets = None
    if method == "semantic":
        if semantic is None:
            raise click.ClickException("method=semantic needs --semantic "
                                       f"(a directory, {DERIVE_FROM_GT} or {DERIVE_FROM_DT})")
        source = semantic if semantic in SEMANTIC_MODES else Path(semantic)
        try:
            sem_sets = load_semantic_masks(source, dataset, dets.by_image, conf_floor)
        except LoadError as e:
            raise click.ClickException(str(e))
        except ValueError as e:
            raise click.BadParameter(str(e), param_hint="--conf-floor")
    kept = run_nms(dets.by_image, cfg, semantic_sets=sem_sets)
    flat = [d for image_id in sorted(kept) for d in kept[image_id]]
    _write(write_detections, flat, out)
    click.echo(f"{method} nms kept {len(flat)} of {dets.n_loaded} detections -> {out}")


@main.command("synth")
@click.option("--out", required=True, type=click.Path(file_okay=False),
              help="Output directory (annotations.json, semantic/, config.json).")
@click.option("--n-images", default=100, show_default=True)
@click.option("--parts", default=10, show_default=True,
              help="Parts dropped per image before occlusion.")
@click.option("--height", default=256, show_default=True)
@click.option("--width", default=256, show_default=True)
@click.option("--sigma-frac", default=1.0 / 6.0, show_default="1/6",
              help="Placement spread as a fraction of the image size.")
@click.option("--length-range", default="48,72", callback=_parse_pair,
              show_default=True)
@click.option("--width-range", default="6,10", callback=_parse_pair,
              show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--detections", is_flag=True,
              help="Also write detections.json from the built-in detector "
                   "(implied by the hedging options below).")
@click.option("--spatial-copies", default=0, show_default=True, type=click.IntRange(min=0),
              help="Jittered low-confidence duplicates per instance.")
@click.option("--category-noise", default=0.0, show_default=True,
              help="Probability of a wrong-category copy per instance. It needs a "
                   "second category, and synth builds one, so any value above 0 "
                   "exits 1 for now.")
@click.option("--conf-step", default=0.05, show_default=True)
@click.option("--jitter-px", default=2, show_default=True)
@click.option("--detector-seed", default=0, show_default=True)
def cmd_synth(out, n_images, parts, height, width, sigma_frac, length_range,
              width_range, seed, detections, spatial_copies, category_noise,
              conf_step, jitter_px, detector_seed):
    """Generate the synthetic part-counting dataset."""
    from .synth import SynthConfig, _write_scene, generate, perfect_detector

    try:
        cfg = SynthConfig(n_images=n_images, parts_per_image=parts, height=height,
                          width=width, sigma_frac=sigma_frac,
                          length_range=length_range, width_range=width_range,
                          seed=seed)
    except ValueError as e:
        raise click.BadParameter(str(e))
    dataset, semantic = generate(cfg)
    dets = None
    if detections or spatial_copies > 0 or category_noise != 0:
        try:  # before anything is written, so a bad option leaves no output
            dets = perfect_detector(dataset, spatial_copies=spatial_copies,
                                    category_noise=category_noise,
                                    conf_step=conf_step, jitter_px=jitter_px,
                                    seed=detector_seed)
        except ValueError as e:
            raise click.ClickException(str(e))
    _write(lambda scene, path: _write_scene(path, cfg, *scene), (dataset, semantic), out)
    click.echo(f"wrote {n_images} images, {dataset.n_ground_truths} annotations -> {out}")
    if dets is not None:
        flat = [d for image_id in sorted(dets) for d in dets[image_id]]
        path = Path(out) / "detections.json"
        _write(write_detections, flat, path)
        click.echo(f"wrote {len(flat)} detections -> {path}")


@main.command("prcurve")
@click.option("--gt", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dt", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--iou-thr", default=0.5, show_default=True)
@click.option("--category", default=None, type=int,
              help="Restrict to one category id (default: pool all).")
@click.option("--max-dets", default=100, show_default=True)
@click.option("--out", default="-", type=click.File("w"),
              help="CSV destination (default standard output).")
def cmd_prcurve(gt, dt, iou_thr, category, max_dets, out):
    """Emit the ranked precision-recall curve as CSV.

    Detections are ranked, capped per image and matched exactly as eval
    does for AP.
    """
    import csv

    try:
        cfg = EvalConfig(iou_thrs=(iou_thr,), max_dets=max_dets)
    except ValueError as e:
        raise click.BadParameter(str(e))
    dataset, dets = _load_pair(gt, dt)
    if category is not None and category not in dataset.categories:
        raise click.ClickException(f"category {category} is not in the dataset")

    wanted = ((category,) if category is not None else tuple(sorted(dataset.categories)))
    by_image = (ranked_image(dataset.gts_by_image.get(i, []), dets.by_image.get(i, []),
                             cfg.iou_thrs, cfg.max_dets)[-1] for i in sorted(dataset.images))
    rows = pool_rows([r[c] for r in by_image for c in wanted if c in r], cfg.iou_thrs).ranked()
    curve = build_pr_curve(rows.scores, rows.tp(iou_thr), rows.n_gt, iou_thr, category)
    writer = csv.writer(out)
    writer.writerow(["rank", "confidence", "is_tp", "precision", "recall"])
    for i in range(len(curve)):
        writer.writerow([i + 1, f"{curve.scores[i]:.6g}", int(curve.is_tp[i]),
                         f"{curve.precision[i]:.6g}", f"{curve.recall[i]:.6g}"])


@main.command("bench-nms")
@click.option("--sizes", default="100,400,1600", callback=_parse_int_list,
              show_default=True, help="Detection counts to time.")
@click.option("--dup-factor", default=4, show_default=True,
              help="Detections per distinct mask (1 original + duplicates).")
@click.option("--seed", default=0, show_default=True)
@click.option("--repeats", default=5, show_default=True,
              help="Timed samples per size and method; the median time per call is reported.")
@click.option("--out", default="-", type=click.File("w"),
              help="CSV destination (default standard output).")
def cmd_bench_nms(sizes, dup_factor, seed, repeats, out):
    """Time dense pairwise mask NMS against semantic NMS on hedged scenes."""
    import csv

    from .bench import run_bench

    try:
        rows = run_bench(sizes, dup_factor, seed, repeats)
    except ValueError as e:
        raise click.BadParameter(str(e))
    writer = csv.writer(out)
    writer.writerow(["n", "method", "seconds"])
    for row in rows:
        writer.writerow([row["n"], row["method"], f"{row['seconds']:.6g}"])


if __name__ == "__main__":
    main()
