"""Run table/figure reproductions: registry-driven, cache-aware, parallel.

Usage::

    python -m repro.experiments.runner                 # all experiments
    python -m repro.experiments.runner fig13 t1        # substring filtering
    python -m repro.experiments.runner --json          # machine-readable
    python -m repro.experiments.runner -j 4 --markdown # parallel + markdown

Experiments self-register through :mod:`repro.experiments.registry`;
completed :class:`ExperimentResult`\\ s are memoized in the session's
artifact cache (keyed on the experiment module's source fingerprint, so
edits invalidate automatically) and re-runs come back instantly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import all_experiments, get_spec
from repro.logutil import configure_logging, get_logger
from repro.sim import SimConfig, SimSession, get_session, set_session

logger = get_logger("experiments")

#: artifact-cache namespace for completed experiment results
RESULT_NAMESPACE = "results"

#: attribute attached to each returned result carrying per-run metadata
#: (wall time, cache hit/miss, trace path) — never cached with the result
RUN_META_ATTR = "run_meta"


def run_meta(result: ExperimentResult) -> Optional[Dict]:
    """The per-run metadata attached by :func:`run_experiment` (or None)."""
    return getattr(result, RUN_META_ATTR, None)


def experiments() -> Dict[str, Callable[[], ExperimentResult]]:
    """Name -> runner mapping (compatibility with the old module dict)."""
    return {name: spec.func for name, spec in all_experiments().items()}


def select(patterns: Optional[List[str]] = None) -> List[str]:
    """Experiment names whose key contains any of the given substrings."""
    return [name for name in all_experiments()
            if not patterns or any(pattern in name for pattern in patterns)]


def run_experiment(name: str, use_cache: bool = True,
                   trace_dir: Optional[str] = None) -> ExperimentResult:
    """Run one experiment, consulting the session result cache.

    With ``trace_dir`` set, an actually-executed (cache-missed) experiment
    runs under an installed tracer and its events land in
    ``<trace_dir>/<name>.trace.json``; cache hits skip tracing.  Every
    returned result carries :func:`run_meta` — wall time, cache hit/miss,
    and the trace path (never stored with the cached artifact).
    """
    spec = get_spec(name)
    session = get_session()
    start = time.perf_counter()
    traced_path: Optional[str] = None
    # heartbeat instants: visible to any installed tracer/probe, so long
    # parallel runs are inspectable while they execute
    session.stats.emit("experiment.started", name=name, worker=os.getpid())
    logger.info("experiment %s: started (worker %d)", name, os.getpid())

    def build() -> ExperimentResult:
        nonlocal traced_path
        if trace_dir is None:
            return spec.func()
        from repro.trace import tracing, write_chrome_trace

        path = Path(trace_dir)
        path.mkdir(parents=True, exist_ok=True)
        with tracing(session) as tracer:
            with tracer.span(f"experiment.{name}", track="runner",
                             clock=lambda: (time.perf_counter() - start)
                             * 1e6):
                built = spec.func()
        target = path / f"{name}.trace.json"
        write_chrome_trace(tracer, target)
        traced_path = str(target)
        return built

    caching = use_cache and spec.cacheable and session.cache.enabled
    if caching:
        hits_before = session.cache.hits
        result = session.cache.fetch(RESULT_NAMESPACE, spec.cache_key(),
                                     build)
        cache_hit = session.cache.hits > hits_before
    else:
        result = build()
        cache_hit = False
    wall_time = round(time.perf_counter() - start, 6)
    scenario_dict = session.config.effective_scenario.to_dict()
    if result.scenario is None:
        result.scenario = scenario_dict
    setattr(result, RUN_META_ATTR, {
        "name": name,
        "wall_time_s": wall_time,
        "cache_hit": cache_hit,
        "trace_path": traced_path,
        "engine": session.config.engine,
        "scenario": scenario_dict,
    })
    session.stats.emit("experiment.finished", name=name,
                       worker=os.getpid(), wall_time_s=wall_time,
                       cache_hit=cache_hit)
    logger.info("experiment %s: finished in %.3fs (%s)", name, wall_time,
                "cache hit" if cache_hit else "cache miss")
    return result


def _run_in_worker(name: str, use_cache: bool,
                   trace_dir: Optional[str] = None) -> ExperimentResult:
    return run_experiment(name, use_cache=use_cache, trace_dir=trace_dir)


def run_selected(patterns: Optional[List[str]] = None, *,
                 use_cache: bool = True,
                 jobs: int = 1,
                 trace_dir: Optional[str] = None) -> List[ExperimentResult]:
    """Run experiments whose key contains any of the given substrings.

    With ``jobs > 1`` the experiments fan out over a process pool (each
    worker shares the on-disk artifact cache; writes are atomic, and each
    worker traces into its own ``<trace_dir>/<name>.trace.json``).
    """
    names = select(patterns)
    if jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_run_in_worker, name, use_cache,
                                   trace_dir): name for name in names}
            done = 0
            for future in as_completed(futures):
                done += 1
                logger.info("experiments: %d/%d finished (%s)", done,
                            len(futures), futures[future])
            # results keep submission order regardless of completion order
            return [future.result() for future in futures]
    return [run_experiment(name, use_cache=use_cache, trace_dir=trace_dir)
            for name in names]


# -- metrics export ------------------------------------------------------
def write_experiment_metrics(results: List[ExperimentResult],
                             directory) -> List[Path]:
    """Write per-experiment metrics JSON + one aggregate OpenMetrics file.

    ``<dir>/<name>.metrics.json`` carries the run manifest, the per-run
    metadata, and the paper-vs-measured rows; ``<dir>/experiments.om``
    exposes wall time, cache hits, and every measured value as
    manifest-labelled OpenMetrics series for cross-run scraping.
    """
    from repro.metrics import (
        MetricsCollection,
        RunManifest,
        write_openmetrics,
    )

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.collect()
    collection = MetricsCollection(manifest)
    written: List[Path] = []
    for result in results:
        meta = run_meta(result) or {}
        name = meta.get("name", result.experiment_id)
        document = {
            "schema": "repro-experiment-metrics/1",
            "manifest": manifest.as_dict(),
            "run": meta,
            "result": result.to_dict(),
        }
        path = target / f"{name}.metrics.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True)
                        + "\n")
        written.append(path)
        labels = {"experiment": name}
        if "wall_time_s" in meta:
            collection.gauge("repro_experiment_wall_seconds",
                             meta["wall_time_s"], labels=labels,
                             unit="seconds",
                             help="per-experiment runner wall time")
            collection.gauge("repro_experiment_cache_hit",
                             1.0 if meta.get("cache_hit") else 0.0,
                             labels=labels,
                             help="1 when the result came from the "
                                  "artifact cache")
        for metric in result.metrics:
            collection.gauge(
                "repro_experiment_metric", metric.measured,
                labels={**labels, "metric": metric.name},
                help="measured experiment metric value")
    written.append(write_openmetrics(collection, target / "experiments.om"))
    return written


# -- reporters ----------------------------------------------------------
def render_markdown(results: List[ExperimentResult],
                    include_run_summary: bool = True) -> str:
    lines = ["# EXPERIMENTS — paper vs measured", ""]
    lines += [
        "Regenerate with `python -m repro.experiments.runner` (text) or see",
        "`benchmarks/` for the per-experiment pytest-benchmark targets.",
        "",
    ]
    for result in results:
        lines.append(result.to_markdown())
    metas = [run_meta(result) for result in results]
    if include_run_summary and any(metas):
        lines += ["## Run summary", "",
                  "| experiment | wall time | cache | trace |",
                  "|---|---|---|---|"]
        for result, meta in zip(results, metas):
            if meta is None:
                continue
            cache = "hit" if meta["cache_hit"] else "miss"
            trace = meta["trace_path"] or "-"
            lines.append(f"| {meta['name']} | {meta['wall_time_s']:.3f} s "
                         f"| {cache} | {trace} |")
        lines.append("")
    return "\n".join(lines)


def render_json(results: List[ExperimentResult],
                indent: Optional[int] = 2) -> str:
    entries = []
    for result in results:
        entry = result.to_dict()
        entry["run"] = run_meta(result)
        entries.append(entry)
    return json.dumps(entries, indent=indent)


def render_text(results: List[ExperimentResult]) -> str:
    return "\n\n".join(result.to_table() for result in results)


# -- CLI ----------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="reproduce the paper's tables and figures",
    )
    parser.add_argument("patterns", nargs="*",
                        help="substring filters, e.g. fig13 table2")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="progress chatter on stderr (-v info, "
                             "-vv debug)")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="run experiments in N parallel processes")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON results")
    parser.add_argument("--markdown", action="store_true",
                        help="emit EXPERIMENTS.md-style markdown")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute experiment results: cached results are "
                             "neither read nor written (trained models are "
                             "still reused from and saved to the cache)")
    parser.add_argument("--cache-dir",
                        help="artifact cache root (default ~/.cache/repro, "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="trace each executed experiment into "
                             "DIR/<name>.trace.json (Perfetto format)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(verbosity=args.verbose)
    if args.cache_dir:
        set_session(SimSession(SimConfig(cache_dir=args.cache_dir)))
    if not select(args.patterns or None):
        print(f"no experiments match {' '.join(args.patterns)!r}; known: "
              f"{', '.join(all_experiments())}", file=sys.stderr)
        return 1
    results = run_selected(args.patterns or None,
                           use_cache=not args.no_cache, jobs=args.jobs,
                           trace_dir=args.trace_dir)
    if args.json:
        print(render_json(results))
    elif args.markdown:
        print(render_markdown(results))
    else:
        print(render_text(results))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
