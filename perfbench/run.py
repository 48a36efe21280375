"""Run one workload of the NCPU benchmark and print its result.

    python3 perfbench/run.py --workload ncpu_usecase --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout of the repository: the program is
imported from ``src/``.  Every run gets a fresh private artifact cache
(``REPRO_CACHE_DIR``) under ``.perfbench-work/``, removed at the end, so
``~/.cache/repro`` is never read or written.  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` the layers'
entry points are wrapped and the result holds the per-layer metrics.

The second-to-last line of standard output is the run's detail record
(provenance, simulated-statistics digest, per-workload numbers, failed
checks); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Both are also
written under ``.perfbench-out/``, with the spans of a traced run.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, so the timings do not depend on the BLAS pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("ncpu_usecase", "bnn_classify", "experiments_suite")

#: failed-check descriptions kept in the detail record
MAX_ERRORS = 20

#: end-to-end metrics and their units (every workload reports each)
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one NCPU benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, workdir: Path):
    """Run the workload; ``(result, detail, span recorder or None)``."""
    from ncpubench import harness, tracing
    from ncpubench.workloads import WORKLOADS

    ctx = harness.RunContext(root=ROOT, seed=args.seed,
                             seconds=args.seconds, workdir=workdir)
    instrumentation = None
    if args.trace:
        ctx.recorder = tracing.SpanRecorder()
        instrumentation = tracing.Instrumentation(ctx.recorder).__enter__()
    t0 = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        if instrumentation is not None:
            instrumentation.__exit__(None, None, None)
    wall_s = time.perf_counter() - t0

    if args.trace:
        values = tracing.layer_metrics(ctx.recorder, wall_s)
        units = tracing.per_layer_metric_units()
    else:
        values, units = outcome.metrics, END_TO_END_UNITS
    correct = outcome.failed == 0 and not outcome.errors \
        and outcome.digest is not None
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "provenance": harness.provenance(ROOT, args.seed),
        "end_to_end": outcome.metrics,
        "digest": outcome.digest,
        "detail": outcome.detail,
        "failed_checks": len(outcome.errors),
        "errors": outcome.errors[:MAX_ERRORS],
    }
    return result, detail, ctx.recorder


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # hermetic: no inherited engine/profile/cache choice, a private cache
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    work_parent = ROOT / ".perfbench-work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=str(work_parent)))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result, detail, recorder = run(args, workdir)
    except Exception:  # report the failure without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:  # another run is using it
            pass

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"result": result, **detail}, indent=1))
    if recorder is not None:
        recorder.write(out_dir / f"{stem}.spans.json")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
