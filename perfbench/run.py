"""Seeded end-to-end and per-layer benchmark of `hedgeval eval` and `hedgeval nms`.

Run from the repository root::

    python3 perfbench/run.py --workload eval-hedged --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

It generates the workload's inputs from the seed, runs the real CLI from
``src/`` as child processes until ``--seconds`` are used up, checks every
output, and prints each metric by name and unit. With ``--trace 0`` the
metrics are end-to-end (``harness.END_TO_END``); with ``--trace 1`` they are
per-layer (``harness.PER_LAYER``). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed / attempted`` is the share of passes whose output failed a check.

Inputs and outputs live in a scratch directory under ``.bench_build/`` that
is removed at exit. Exits non-zero, printing no result, when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "HEDGEVAL_THREADS")


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas() -> str | None:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return None
    blas = deps.get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def environment(workload: str, seed: int) -> dict:
    """What the numbers depend on, as found; nothing here is changed."""
    import numpy as np

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }


def _print_metrics(prefix: str, values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"{prefix}{name:<40} {value!r:>24} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hedgeval" / "cli.py").is_file():
        print(f"error: no hedgeval source under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, str(SRC))
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in harness.WORKLOADS for n in names):
        parser.error(f"--workload must be one of: all, {', '.join(harness.WORKLOADS)}")
    table = harness.PER_LAYER if args.trace else harness.END_TO_END
    units = dict(table)

    # turn SIGTERM into SystemExit so a running child is killed and reaped
    # and the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(parents=True, exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = harness.WORKLOADS[name]
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            run = harness.measure(workload, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        values = harness.per_layer(run) if args.trace else harness.end_to_end(run)
        inputs = run.inputs
        print(f"# {name}: {workload.why}")
        print(f"env {json.dumps(environment(name, args.seed), sort_keys=True)}")
        print(f"inputs images={inputs.n_images} ground_truths={inputs.n_gt} "
              f"detections={inputs.n_dets} commands={','.join(workload.commands)} "
              f"passes={len(run.untraced)} traced_passes={len(run.traced)}")
        walls = sorted(harness.pass_wall(p) for p in run.untraced)
        print(f"pass wall_s min={walls[0]!r} max={walls[-1]!r} all={[round(w, 4) for w in walls]}")
        for output, digest in sorted(run.digests.items()):
            print(f"digest {output} sha256={digest}")
        for failure in run.failures:
            print(f"FAILED {failure}")
        prefix = f"{name}." if len(names) > 1 else ""
        _print_metrics(prefix, values, units)
        print(f"{prefix}{'failed_frac':<40} {run.failed / run.attempted!r:>24} ratio")
        correct = correct and run.failed == 0
        attempted += run.attempted
        failed += run.failed
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
