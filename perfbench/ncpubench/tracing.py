"""Outside-in span tracing for the benchmark's traced runs.

Each layer's public entry points are wrapped *from here*; nothing inside
``src/`` changes.  A span records its name, start, end, parent span and
the item it belongs to.  Spans stay in memory (one tuple each) and are
written out when the run ends.  A layer's self time is a span's duration
minus the part of it that its child spans cover.

Counts are recorded at the same boundaries (simulated cycles from the
pipeline's ``RunResult``, rows through the BNN engine, cache hits), so a
ratio such as host ns per simulated cycle is measured where the work
happens.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: marker attribute on every wrapper, pointing at the wrapped function
WRAPPED_ATTR = "__perfbench_wrapped__"

#: registered experiment ids; per-experiment wall metrics are reported
#: for each (zero on workloads that do not run the suite)
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "table4", "fig07", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "ablations", "device_zoo", "extension",
)

#: span name -> metric prefix for every per-layer self-time metric
SELF_TIME_SPANS = {
    "isa.assemble": "isa.assemble",
    "cpu.pipeline.run": "cpu.pipeline.run",
    "mem.sram.write": "mem.sram.write",
    "mem.sram.read": "mem.sram.read",
    "core.ncpu.cpu_mode": "core.ncpu.cpu_mode",
    "core.ncpu.bnn_mode": "core.ncpu.bnn_mode",
    "bnn.engine.predict": "bnn.engine.predict",
    "bnn.engine.scores": "bnn.engine.scores",
    "bnn.input_convert": "bnn.input_convert",
    "bnn.accelerator.infer_batch": "bnn.accelerator.infer_batch",
    "bnn.accelerator.batch_timing": "bnn.accelerator.batch_timing",
    "bnn.training.train": "bnn.training.train",
    "nalu.train_task": "nalu.train_task",
    "sim.cache.get": "sim.cache.get",
    "sim.cache.put": "sim.cache.put",
}

def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "isa.assemble.calls": "count",
        "isa.assemble.self_s": "s",
        "cpu.pipeline.run.self_s": "s",
        "cpu.pipeline.sim_cycles": "count",
        "cpu.pipeline.sim_instructions": "count",
        "cpu.pipeline.sim_stall_cycles": "count",
        "cpu.pipeline.sim_flush_cycles": "count",
        "cpu.pipeline.host_ns_per_cycle": "ns",
        "mem.sram.words_written": "count",
        "mem.sram.write.self_s": "s",
        "mem.sram.words_read": "count",
        "mem.sram.read.self_s": "s",
        "core.ncpu.cpu_mode.self_s": "s",
        "core.ncpu.bnn_mode.self_s": "s",
        "core.ncpu.mode_switches": "count",
        "bnn.engine.predict.calls": "count",
        "bnn.engine.predict.self_s": "s",
        "bnn.engine.scores.self_s": "s",
        "bnn.engine.rows": "count",
        "bnn.engine.host_ns_per_row": "ns",
        "bnn.input_convert.self_s": "s",
        "bnn.accelerator.infer_batch.self_s": "s",
        "bnn.accelerator.batch_timing.self_s": "s",
        "bnn.training.train.calls": "count",
        "bnn.training.train.self_s": "s",
        "bnn.datasets.generate_s": "s",
        "nalu.train_task.self_s": "s",
        "sim.cache.get.calls": "count",
        "sim.cache.get.hits": "count",
        "sim.cache.get.misses": "count",
        "sim.cache.get.self_s": "s",
        "sim.cache.put.calls": "count",
        "sim.cache.put.bytes": "bytes",
        "sim.cache.put.self_s": "s",
        "sim.cache.hit_ratio": "ratio",
    }
    for name in EXPERIMENT_IDS:
        units[f"experiments.{name}.wall_s"] = "s"
        units[f"experiments.{name}.rerun_wall_s"] = "s"
    units.update({
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


# ---------------------------------------------------------------------------
# recorder
# ---------------------------------------------------------------------------

#: one span: (span_id, parent_id, name, start_s, end_s, item, thread_id)
Span = Tuple[int, int, str, float, float, Any, int]


class SpanRecorder:
    """In-memory span and boundary-count store for one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: the item id new spans are tagged with (set by the workload)
        self.item: Any = None
        self.t0 = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a span ``name``; ``on_return(rec, args,
        kwargs, result)`` records counts at the boundary."""
        recorder = self
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack()
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder.spans.append((span_id, parent, name, start, end,
                                       recorder.item, ident()))
            if on_return is not None:
                on_return(recorder, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_ATTR, fn)
        return wrapper

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        Children run on their parent's thread and nest inside it, so the
        part of a span its children cover is the sum of their durations.
        """
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent:
                covered[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, _, name, start, end, _, _ in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += max(0.0, (end - start) - covered[span_id])
        return dict(table)

    def to_json(self) -> Dict[str, Any]:
        return {
            "t0": self.t0,
            "fields": ["id", "parent", "name", "start_s", "end_s", "item",
                       "thread"],
            "spans": [list(span) for span in self.spans],
            "counts": dict(self.counts),
        }

    def merge_json(self, doc: Dict[str, Any], item_prefix: str = "") -> None:
        """Fold in another process's spans (ids are re-numbered, string
        items get ``item_prefix``)."""
        offset = next(self._ids) + 1
        highest = 0
        for span_id, parent, name, start, end, item, thread in doc["spans"]:
            if item_prefix and isinstance(item, str):
                item = item_prefix + item
            self.spans.append((span_id + offset, parent + offset if parent
                               else 0, name, start, end, item, thread))
            highest = max(highest, span_id)
        self._ids = itertools.count(offset + highest + 1)
        self.counts.update(doc["counts"])

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle)


# ---------------------------------------------------------------------------
# boundary counters
# ---------------------------------------------------------------------------

def _count_pipeline(rec, args, kwargs, result):
    stats = result.stats
    rec.counts["cpu.pipeline.sim_cycles"] += stats.cycles
    rec.counts["cpu.pipeline.sim_instructions"] += stats.instructions
    rec.counts["cpu.pipeline.sim_stall_cycles"] += stats.stalls
    rec.counts["cpu.pipeline.sim_flush_cycles"] += stats.flushes


def _count_calls(counter: str) -> Callable:
    def count(rec, args, kwargs, result):
        rec.counts[counter] += 1
    return count


def _count_engine_rows(rec, args, kwargs, result):
    if all(not name.startswith("bnn.engine.") for _, name in rec.stack()):
        # outermost engine call on this thread (its own span is already
        # closed): count its rows once
        x_signs = args[2] if len(args) > 2 else kwargs["x_signs"]
        rec.counts["bnn.engine.rows"] += len(x_signs)


def _count_written_words(rec, args, kwargs, result):
    values = args[2] if len(args) > 2 else kwargs.get("values", ())
    rec.counts["mem.sram.words_written"] += len(values)


def _count_raw_words(rec, args, kwargs, result):
    import numpy as np

    rec.counts["mem.sram.words_written"] += int(np.asarray(args[1]).size)


def _count_read_words(rec, args, kwargs, result):
    rec.counts["mem.sram.words_read"] += len(result)


def _count_lookup(rec, args, kwargs, result):
    from repro.sim.cache import _MISS

    rec.counts["sim.cache.get.misses" if result is _MISS
               else "sim.cache.get.hits"] += 1


def _count_put(rec, args, kwargs, result):
    cache, namespace, key = args[0], args[1], args[2]
    try:
        rec.counts["sim.cache.put.bytes"] += \
            cache.path_for(namespace, key).stat().st_size
    except OSError:  # memory-only store (disabled or unwritable cache)
        pass


# (module, attribute path, span name, boundary counter); a dotted path
# names a method on a class in that module
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.isa.assembler", "assemble", "isa.assemble", None),
    ("repro.cpu.pipeline", "PipelinedCPU.run", "cpu.pipeline.run",
     _count_pipeline),
    ("repro.mem.sram", "SRAMBank.write_words", "mem.sram.write",
     _count_written_words),
    ("repro.mem.sram", "SRAMBank.read_words", "mem.sram.read",
     _count_read_words),
    # the use case's raw-data writers are its bulk writes into the banks
    ("repro.workloads.image_pipeline", "write_raw_frame", "mem.sram.write",
     _count_raw_words),
    ("repro.workloads.motion_features", "write_window", "mem.sram.write",
     _count_raw_words),
    ("repro.core.ncpu", "NCPUCore.run_cpu_program", "core.ncpu.cpu_mode",
     None),
    ("repro.core.ncpu", "NCPUCore.run_bnn", "core.ncpu.bnn_mode", None),
    ("repro.bnn.batched", "encode_batch", "bnn.input_convert", None),
    ("repro.bnn.accelerator", "BNNAccelerator.infer_batch",
     "bnn.accelerator.infer_batch", None),
    ("repro.bnn.accelerator", "BNNAccelerator.batch_timing",
     "bnn.accelerator.batch_timing", None),
    ("repro.bnn.training", "BNNTrainer.train", "bnn.training.train", None),
    ("repro.bnn.datasets", "synthetic_mnist", "bnn.datasets.generate", None),
    ("repro.bnn.datasets", "synthetic_motion", "bnn.datasets.generate",
     None),
    ("repro.bnn.datasets", "synthetic_keywords", "bnn.datasets.generate",
     None),
    ("repro.nalu.training", "train_task", "nalu.train_task", None),
    # _lookup is the read every public read (get/has/fetch) goes
    # through; wrapping fetch instead would charge the build function it
    # runs on a miss to the cache
    ("repro.sim.cache", "ArtifactCache._lookup", "sim.cache.get",
     _count_lookup),
    ("repro.sim.cache", "ArtifactCache.put", "sim.cache.put", _count_put),
)


class Instrumentation:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        self._unsubscribe: Optional[Callable[[], None]] = None

    def _patch(self, owner: Any, attr: str, name: str,
               on_return: Optional[Callable]) -> None:
        original = getattr(owner, attr)
        if hasattr(original, WRAPPED_ATTR):
            return
        had_own = attr in vars(owner)
        wrapper = self.recorder.wrap(name, original, on_return)
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original, had_own))
        if not isinstance(owner, type):
            # rebind copies taken by ``from module import name``
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (module is not owner and namespace is not None
                        and getattr(module, "__name__", "").startswith(
                            "repro")):
                    for key, value in list(namespace.items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, original,
                                                  True))

    def __enter__(self) -> "Instrumentation":
        from repro.engine import engine_names, get_engine
        from repro.sim import get_session

        for module_name, path, name, on_return in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            self._patch(owner, attr, name, on_return)
        for engine_name in engine_names():
            cls = type(get_engine(engine_name))
            self._patch(cls, "predict", "bnn.engine.predict",
                        _chain(_count_calls("bnn.engine.predict.calls"),
                               _count_engine_rows))
            self._patch(cls, "scores", "bnn.engine.scores",
                        _count_engine_rows)
        self._patch_experiment_runner()

        stats = get_session().stats
        recorder = self.recorder

        def on_switch(event, payload):
            recorder.counts["core.ncpu.mode_switches"] += 1

        stats.subscribe("soc.mode_switch", on_switch)
        self._unsubscribe = lambda: stats.unsubscribe("soc.mode_switch",
                                                      on_switch)
        return self

    def _patch_experiment_runner(self) -> None:
        from repro.experiments import runner

        recorder = self.recorder
        original = runner.run_experiment
        traced = recorder.wrap("experiments.run", original)

        @functools.wraps(original)
        def run_experiment(name, *args, **kwargs):
            outer, recorder.item = recorder.item, name
            try:
                return traced(name, *args, **kwargs)
            finally:
                recorder.item = outer

        setattr(run_experiment, WRAPPED_ATTR, original)
        runner.run_experiment = run_experiment
        self._restore.append((runner, "run_experiment", original, True))

    def __exit__(self, *exc_info) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
        for owner, attr, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()


def _chain(*counters: Callable) -> Callable:
    def count(rec, args, kwargs, result):
        for counter in counters:
            counter(rec, args, kwargs, result)
    return count


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def span_overhead_s(samples: int = 20000) -> float:
    """Measured host cost of recording one span (wrapper + append)."""
    recorder = SpanRecorder()

    def noop():
        return None

    traced = recorder.wrap("calibration", noop)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / samples)
    return max(best, 0.0)


def layer_metrics(recorder: SpanRecorder, wall_s: float
                  ) -> Dict[str, float]:
    """Every per-layer metric from a traced run's spans and counts.

    Experiment spans whose item carries the ``rerun:`` prefix are the
    suite's rerun pass (``experiments.<id>.rerun_wall_s``).  Layers a
    workload does not reach report 0.
    """
    table = recorder.self_times()
    counts = recorder.counts
    metrics = {name: 0.0 for name in per_layer_metric_units()}

    for span_name, prefix in SELF_TIME_SPANS.items():
        metrics[f"{prefix}.self_s"] = table.get(span_name, {}).get("self_s",
                                                                   0.0)
    for name in ("isa.assemble", "bnn.training.train"):
        metrics[f"{name}.calls"] = table.get(name, {}).get("calls", 0)
    for name in ("cpu.pipeline.sim_cycles", "cpu.pipeline.sim_instructions",
                 "cpu.pipeline.sim_stall_cycles",
                 "cpu.pipeline.sim_flush_cycles", "mem.sram.words_written",
                 "mem.sram.words_read", "core.ncpu.mode_switches",
                 "bnn.engine.predict.calls", "bnn.engine.rows",
                 "sim.cache.get.hits", "sim.cache.get.misses",
                 "sim.cache.put.bytes"):
        metrics[name] = counts.get(name, 0)
    cycles = metrics["cpu.pipeline.sim_cycles"]
    if cycles:
        metrics["cpu.pipeline.host_ns_per_cycle"] = \
            table["cpu.pipeline.run"]["total_s"] * 1e9 / cycles
    rows = metrics["bnn.engine.rows"]
    if rows:
        metrics["bnn.engine.host_ns_per_row"] = \
            _outermost_engine_s(recorder) * 1e9 / rows
    metrics["bnn.datasets.generate_s"] = table.get(
        "bnn.datasets.generate", {}).get("total_s", 0.0)
    lookups = table.get("sim.cache.get", {}).get("calls", 0)
    metrics["sim.cache.get.calls"] = lookups
    metrics["sim.cache.put.calls"] = table.get("sim.cache.put", {}).get(
        "calls", 0)
    if lookups:
        metrics["sim.cache.hit_ratio"] = metrics["sim.cache.get.hits"] \
            / lookups
    for _, _, name, start, end, item, _ in recorder.spans:
        if name != "experiments.run" or not isinstance(item, str):
            continue
        pass_name = "rerun_wall_s" if item.startswith("rerun:") else "wall_s"
        experiment = item.split(":")[-1]
        if experiment in EXPERIMENT_IDS:
            metrics[f"experiments.{experiment}.{pass_name}"] += end - start

    n_spans = len(recorder.spans)
    metrics["trace.spans"] = n_spans
    metrics["trace.wall_s"] = wall_s
    metrics["trace.overhead_pct"] = \
        100.0 * n_spans * span_overhead_s() / wall_s if wall_s else 0.0
    return metrics


def _outermost_engine_s(recorder: SpanRecorder) -> float:
    """Inclusive time of engine spans not nested in another engine span."""
    names = {span[0]: span[2] for span in recorder.spans}
    parents = {span[0]: span[1] for span in recorder.spans}
    total = 0.0
    for span_id, parent, name, start, end, _, _ in recorder.spans:
        if not name.startswith("bnn.engine."):
            continue
        ancestor = parent
        while ancestor and not names.get(ancestor, "").startswith(
                "bnn.engine."):
            ancestor = parents.get(ancestor, 0)
        if not ancestor:
            total += end - start
    return total
