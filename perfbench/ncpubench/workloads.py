"""The benchmark's three workloads.

Each ``run_<workload>(ctx)`` builds its inputs from ``ctx.seed`` (set-up,
repeated and timed), measures for about ``ctx.seconds``, checks every
output against a reference computed outside the timed region, and
returns an :class:`~ncpubench.harness.Outcome`.  Item latencies are host
wall time; the digest is simulated time and counts, never mixed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from ncpubench import harness
from ncpubench.harness import Outcome, RunContext, percentile

# ---------------------------------------------------------------------------
# ncpu_usecase: RV32I pre-processing -> trans_bnn -> BNN on one NCPU core
# ---------------------------------------------------------------------------

#: items per block: one image frame and two motion windows, in a seeded
#: order.  A block is one round of the min-of-N timing, so every round
#: does the same work.
USECASE_BLOCK = ("frame", "window", "window")
USECASE_BLOCKS = 24
IMAGE_LAYERS = (256, 100, 100, 100, 10)
MOTION_LAYERS = (60, 100, 100, 100, 6)
MOTION_WINDOW = 64


def usecase_inputs(seed: int) -> Dict[str, Any]:
    """Models, binarization thresholds and the seeded item sequence."""
    from repro.bnn import BNNModel
    from repro.bnn.datasets import synthetic_motion
    from repro.workloads import motion_features as mf

    rng = np.random.default_rng(seed)
    image_model = BNNModel.random(list(IMAGE_LAYERS), rng)
    motion_model = BNNModel.random(list(MOTION_LAYERS), rng)
    calibration = synthetic_motion(n_samples=96, length=MOTION_WINDOW,
                                   seed=seed + 1)
    thresholds = mf.training_thresholds(np.array(
        [mf.float_features(trace) for trace in calibration.traces]))
    windows = synthetic_motion(n_samples=USECASE_BLOCKS * 2,
                               length=MOTION_WINDOW, seed=seed + 2).traces
    items: List[Tuple[str, np.ndarray]] = []
    next_window = 0
    for _ in range(USECASE_BLOCKS):
        for kind in rng.permutation(USECASE_BLOCK):
            if kind == "frame":
                items.append(("frame", rng.integers(0, 256,
                                                    size=(3, 32, 32))))
            else:
                items.append(("window",
                              mf.quantize_trace(windows[next_window])))
                next_window += 1
    return {"image_model": image_model, "motion_model": motion_model,
            "thresholds": thresholds, "items": items}


def _usecase_setup(seed: int) -> Dict[str, Any]:
    from repro.core import NCPUCore
    from repro.workloads import image_pipeline as ip
    from repro.workloads import motion_features as mf

    inputs = usecase_inputs(seed)
    image_core = NCPUCore("image")
    image_core.load_model(inputs["image_model"])
    motion_core = NCPUCore("motion")
    motion_core.load_model(inputs["motion_model"])
    mf.write_thresholds(motion_core.memory.data_memory(),
                        inputs["thresholds"])

    def source(input_bits: int, body: str) -> str:
        # transition neurons: BNN input size and batch of one
        return (f"\n    li a0, {input_bits}\n    mv_neu 0, a0\n"
                f"    li a0, 1\n    mv_neu 1, a0\n" + body)

    inputs["lanes"] = {
        "frame": (image_core, ip.write_raw_frame,
                  source(IMAGE_LAYERS[0], ip.full_pipeline_asm(
                      ip.ImageShape(32, 32), finish="trans_bnn"))),
        "window": (motion_core, mf.write_window,
                   source(MOTION_LAYERS[0], mf.full_motion_asm(
                       MOTION_WINDOW, finish="trans_bnn"))),
    }
    return inputs


def _usecase_reference(kind: str, data: np.ndarray, thresholds: np.ndarray
                       ) -> np.ndarray:
    """The sign-domain BNN input the CPU program must leave in memory."""
    from repro.bnn import quantize as q
    from repro.workloads import image_pipeline as ip
    from repro.workloads import motion_features as mf

    if kind == "frame":
        _, packed = ip.pipeline_reference(data)
        return q.bits_to_sign(q.unpack_bits(packed, IMAGE_LAYERS[0]))
    return mf.binarize_features(mf.features_reference(data), thresholds)


def _usecase_readback(kind: str, core) -> np.ndarray:
    from repro.bnn import quantize as q
    from repro.workloads import image_pipeline as ip
    from repro.workloads import motion_features as mf

    memory = core.memory.data_memory()
    if kind == "frame":
        return q.bits_to_sign(ip.read_packed_input(memory, IMAGE_LAYERS[0]))
    return q.bits_to_sign(mf.read_packed_features(memory))


def run_ncpu_usecase(ctx: RunContext) -> Outcome:
    from repro import isa

    setup_s, state = harness.median_setup(lambda: _usecase_setup(ctx.seed))
    setup_s += harness.import_time_s(ctx.root, ctx.workdir, (
        "numpy", "repro.core", "repro.isa", "repro.workloads.image_pipeline",
        "repro.workloads.motion_features"))
    models = {"frame": state["image_model"], "window": state["motion_model"]}
    items = state["items"]
    # items are 0.15-0.5 s, long enough to calibrate around each one
    rounds = harness.Rounds(dict.fromkeys(
        ("ops_per_s", "latency_p50_ms", "latency_p99_ms"), "python"),
        per_item=True)
    errors: List[str] = []
    failed = sram_accesses = index = 0
    start_counters = harness.counters()
    first_round = None
    deadline = time.perf_counter() + ctx.seconds
    # one round is one block; the run ends on a round boundary
    while not rounds or time.perf_counter() < deadline:
        for _ in USECASE_BLOCK:
            kind, data = items[index % len(items)]
            core, write, source = state["lanes"][kind]
            banks = core.memory.banks.values()
            accesses = sum(bank.accesses for bank in banks)
            ctx.set_item(f"{kind}-{index}")
            t0 = time.perf_counter()
            program = isa.assemble(source)
            write(core.memory.data_memory(), data)
            run = core.run_cpu_program(program)
            predictions = core.run_bnn()
            core.switch_to_cpu()
            latency = time.perf_counter() - t0
            ctx.set_item(None)
            rounds.add_item(latency)
            sram_accesses += sum(bank.accesses for bank in banks) - accesses

            reference = _usecase_reference(kind, data, state["thresholds"])
            expected = int(models[kind].predict_batch(reference[None])[0])
            problems = []
            if run.stop_reason != "trans_bnn":
                problems.append(f"stop_reason {run.stop_reason!r}")
            if not np.array_equal(_usecase_readback(kind, core), reference):
                problems.append("packed input differs from the reference")
            if predictions != [expected]:
                problems.append(f"prediction {predictions} != [{expected}]")
            if problems:
                failed += 1
                errors.append(f"item {index} ({kind}): "
                              + "; ".join(problems))
            index += 1
        rounds.end_round(len(USECASE_BLOCK))
        if first_round is None:
            first_round = harness.digest(start_counters, harness.counters())
    total = harness.digest(start_counters, harness.counters())
    total["sram_accesses"] = sram_accesses
    return Outcome(
        attempted=index, failed=failed,
        metrics={"setup_s": setup_s, "peak_rss_mb": harness.peak_rss_mb(),
                 **rounds.metrics()},
        digest=first_round,
        detail={"items": index, "rounds": len(rounds),
                "raw": rounds.raw(), "digest_total": total},
        errors=errors)


# ---------------------------------------------------------------------------
# bnn_classify: synthetic-MNIST rows through BNNAccelerator.infer_batch
# ---------------------------------------------------------------------------

BNN_POOL_ROWS = 4096
BNN_MAX_BATCH = 4096
#: calls per model per block; a block's batch sizes are the log-uniform
#: grid 1 .. 4096, so every block, and every seed, does the same work
BNN_CALLS_PER_MODEL = 16
BNN_SMALL = (256, 100, 100, 100, 10)
BNN_WIDE = (256, 400, 400, 400, 10)
BNN_ENGINE = "fast"


def reference_predict(model, x_signs: np.ndarray) -> np.ndarray:
    """``BNNModel.predict_batch`` in float64 arithmetic.

    Every partial sum is an integer below 2**53, so the result is exact
    and equal to the scalar int32 path, which takes seconds on the wide
    model; set-up checks the two agree on a sample of rows.
    """
    activation = np.asarray(x_signs, dtype=np.float64).T
    for layer in model.layers[:-1]:
        pre = layer.weights.astype(np.float64) @ activation \
            + layer.bias[:, None]
        activation = np.where(pre >= 0, 1.0, -1.0)
    last = model.layers[-1]
    scores = last.weights.astype(np.float64) @ activation + last.bias[:, None]
    return np.argmax(scores, axis=0)


def bnn_batch_sizes() -> List[int]:
    """The log-uniform grid of batch sizes from 1 to ``BNN_MAX_BATCH``."""
    steps = BNN_CALLS_PER_MODEL - 1
    return [int(round(BNN_MAX_BATCH ** (k / steps)))
            for k in range(BNN_CALLS_PER_MODEL)]


def bnn_schedule(seed: int, blocks: int) -> List[Tuple[int, int, int]]:
    """``(model index, batch size, pool offset)`` per call: ``blocks``
    blocks that alternate the small and wide model and visit every grid
    size once per model, in a seeded order at seeded pool offsets."""
    rng = np.random.default_rng(seed + 7)
    sizes = bnn_batch_sizes()
    calls = []
    for _ in range(blocks):
        orders = [rng.permutation(sizes) for _model in range(2)]
        for position in range(BNN_CALLS_PER_MODEL):
            for model_index in range(2):
                calls.append((model_index,
                              int(orders[model_index][position]),
                              int(rng.integers(0, BNN_POOL_ROWS))))
    return calls


def bnn_inputs(seed: int) -> Dict[str, Any]:
    from repro.bnn import BNNModel
    from repro.bnn.datasets import synthetic_mnist

    rows = synthetic_mnist(n_samples=BNN_POOL_ROWS, seed=seed).binarized()
    rng = np.random.default_rng(seed + 3)
    models = [BNNModel.random(list(BNN_SMALL), rng),
              BNNModel.random(list(BNN_WIDE), rng)]
    return {"rows": rows, "models": models}


def _bnn_setup(seed: int) -> Dict[str, Any]:
    from repro.bnn import AcceleratorConfig, BNNAccelerator

    state = bnn_inputs(seed)
    rows = state["rows"]
    sample = rows[:: BNN_POOL_ROWS // 64]
    references = []
    for model in state["models"]:
        if not np.array_equal(reference_predict(model, sample),
                              model.predict_batch(sample)):
            raise RuntimeError("float64 reference disagrees with "
                               "BNNModel.predict_batch")
        predictions = reference_predict(model, rows)
        references.append(np.concatenate([predictions, predictions]))
    state["references"] = references
    state["doubled"] = np.concatenate([rows, rows])
    state["accelerators"] = [
        BNNAccelerator(),
        BNNAccelerator(AcceleratorConfig(neurons_per_layer=BNN_WIDE[1])),
    ]
    return state


def run_bnn_classify(ctx: RunContext) -> Outcome:
    setup_s, state = harness.median_setup(lambda: _bnn_setup(ctx.seed))
    setup_s += harness.import_time_s(ctx.root, ctx.workdir, (
        "numpy", "repro.bnn", "repro.bnn.datasets", "repro.engine"))
    models, doubled = state["models"], state["doubled"]
    references, accelerators = state["references"], state["accelerators"]
    block = 2 * BNN_CALLS_PER_MODEL
    # throughput and p99 are set by the large batches (numpy-bound), the
    # median call by per-call interpreter overhead
    rounds = harness.Rounds({"ops_per_s": "numpy",
                             "latency_p50_ms": "python",
                             "latency_p99_ms": "numpy"})
    failed = calls = 0
    errors: List[str] = []
    schedule: List[Tuple[int, int, int]] = []
    start_counters = harness.counters()
    first_round = None
    deadline = time.perf_counter() + ctx.seconds
    # one round is one block of calls; the run ends on a round boundary
    while not rounds or time.perf_counter() < deadline:
        if calls == len(schedule):
            schedule = bnn_schedule(ctx.seed, blocks=len(rounds) + 8)
        rows = 0
        for call in range(calls, calls + block):
            model_index, size, offset = schedule[call]
            batch = doubled[offset:offset + size]
            ctx.set_item(f"call-{call}")
            t0 = time.perf_counter()
            predictions, _ = accelerators[model_index].infer_batch(
                models[model_index], batch, engine=BNN_ENGINE)
            latency = time.perf_counter() - t0
            ctx.set_item(None)
            rounds.add_item(latency)
            wrong = int(np.count_nonzero(
                np.asarray(predictions)
                != references[model_index][offset:offset + size]))
            if wrong:
                failed += wrong
                errors.append(f"call {call}: {wrong}/{size} wrong "
                              "predictions")
            rows += size
        calls += block
        rounds.end_round(rows)
        if first_round is None:
            first_round = harness.digest(start_counters, harness.counters())
    return Outcome(
        attempted=int(sum(rounds.work)), failed=failed,
        metrics={"setup_s": setup_s, "peak_rss_mb": harness.peak_rss_mb(),
                 **rounds.metrics()},
        digest=first_round,
        detail={"calls": calls, "rounds": len(rounds), "raw": rounds.raw(),
                "digest_total": harness.digest(start_counters,
                                               harness.counters())},
        errors=errors)


# ---------------------------------------------------------------------------
# experiments_suite: the registered `repro experiments` suite, cold + rerun
# ---------------------------------------------------------------------------



def _child(ctx: RunContext, cache_dir: Path, args: List[str],
           check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ncpubench.suite_child", *args],
        env=harness.child_env(ctx.root, cache_dir), cwd=str(ctx.root),
        capture_output=True, text=True, check=check)


def suite_pass(ctx: RunContext, cache_dir: Path, name: str,
               cli_args: List[str], patterns: Tuple[str, ...] = ()
               ) -> Dict[str, Any]:
    """One ``repro experiments --json`` pass in a child interpreter, with
    the layers' entry points wrapped in a traced run."""
    stats_path = ctx.workdir / f"{name}.stats.json"
    spans_path = ctx.workdir / f"{name}.spans.json"
    cpu = harness.child_core()
    args = ["--stats-out", str(stats_path)]
    if cpu is not None:
        args += ["--cpu", str(cpu)]
    if ctx.traced:
        args += ["--spans-out", str(spans_path)]
    args += ["--", "experiments", *patterns, "--json", *cli_args]
    with harness.SpeedSampler(cpu) as sampler:
        t0 = time.perf_counter()
        done = _child(ctx, cache_dir, args)
        wall = time.perf_counter() - t0
    stats = json.loads(stats_path.read_text())
    return {
        "wall_s": wall,
        "slowness": sampler.slowness(),
        "results": json.loads(done.stdout),
        "digest": harness.digest({}, stats),
        "spans": json.loads(spans_path.read_text()) if ctx.traced
        else None,
    }


def _strip_run(results: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [{key: value for key, value in entry.items() if key != "run"}
            for entry in results]


def anchor_failures(root: Path, results: List[Dict[str, Any]]
                    ) -> Dict[str, List[str]]:
    """Experiments whose paper-anchor metrics leave their baseline band."""
    from repro.metrics.gate import REGRESSION, compare, load_baseline

    baseline = load_baseline(root / "benchmarks" / "baseline.json")
    measured = {}
    for entry in results:
        for metric in entry["metrics"]:
            measured[f"experiment:{entry['run']['name']}:{metric['name']}"] \
                = float(metric["measured"])
    ran = {entry["run"]["name"] for entry in results}
    anchors = {"metrics": {name: spec for name, spec
                           in baseline["metrics"].items()
                           if name.startswith("experiment:")
                           and name.split(":")[1] in ran}}
    failures: Dict[str, List[str]] = {}
    for delta in compare(measured, anchors):
        if delta.status == REGRESSION or delta.current is None:
            experiment = delta.name.split(":")[1]
            failures.setdefault(experiment, []).append(
                f"{delta.name}: {delta.current} vs {delta.baseline}")
    return failures


def run_experiments_suite(ctx: RunContext,
                          patterns: Tuple[str, ...] = ()) -> Outcome:
    cache_dir = ctx.workdir / "cache"
    probe_samples = []
    for _ in range(harness.SETUP_REPEATS):
        t0 = time.perf_counter()
        _child(ctx, cache_dir, ["--probe"])
        probe_samples.append(time.perf_counter() - t0)
    cold_entries = sorted(cache_dir.rglob("*")) if cache_dir.exists() \
        else []
    # the rerun reuses the models the cold pass trained and cached
    cold = suite_pass(ctx, cache_dir, "cold", [], patterns)
    rerun = suite_pass(ctx, cache_dir, "rerun", ["--no-cache"], patterns)

    errors: List[str] = []
    if cold_entries:
        errors.append(f"cold pass started with {len(cold_entries)} cache "
                      "entries")
    failing = set()
    for before, after in zip(_strip_run(cold["results"]),
                             _strip_run(rerun["results"])):
        if before != after:
            failing.add(before["experiment_id"])
            errors.append(f"{before['experiment_id']}: cold and rerun "
                          "results differ")
    for experiment, problems in anchor_failures(
            ctx.root, cold["results"]).items():
        failing.add(experiment)
        errors.extend(problems)
    if ctx.traced:
        ctx.recorder.merge_json(cold["spans"])
        ctx.recorder.merge_json(rerun["spans"], item_prefix="rerun:")
    passes = [cold, rerun]
    # each pass's wall time scaled to the reference host's speed
    walls = [done["wall_s"] / done["slowness"] for done in passes]
    return Outcome(
        attempted=sum(len(done["results"]) for done in passes),
        # a failing experiment fails in both passes
        failed=len(passes) * len(failing),
        metrics={
            "setup_s": statistics.median(probe_samples),
            "peak_rss_mb": harness.peak_rss_mb(children=True),
            # the item is one suite pass: the nearest-rank p50 of the
            # passes is the rerun, the p99 the cold pass
            "ops_per_s": len(walls) / sum(walls),
            "latency_p50_ms": 1e3 * percentile(walls, 0.50),
            "latency_p99_ms": 1e3 * percentile(walls, 0.99),
        },
        digest=cold["digest"],
        detail={"cold_s": walls[0], "rerun_s": walls[1],
                "raw_wall_s": [done["wall_s"] for done in passes],
                "slowness": [done["slowness"] for done in passes],
                "rerun_digest": rerun["digest"],
                "experiments": len(cold["results"]),
                "cold_cache_entries": len(cold_entries)},
        errors=errors)


WORKLOADS = {
    "ncpu_usecase": run_ncpu_usecase,
    "bnn_classify": run_bnn_classify,
    "experiments_suite": run_experiments_suite,
}
