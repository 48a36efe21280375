"""Self-tests of the NCPU benchmark (not part of the repository's suite).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncpubench import tracing, workloads
from ncpubench.harness import RunContext

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, env=None):
    done = subprocess.run([sys.executable, str(RUN), *args], cwd=str(ROOT),
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def context(tmp_path, seed=5, seconds=0.01):
    workdir = tmp_path / "work"
    workdir.mkdir(exist_ok=True)
    return RunContext(root=ROOT, seed=seed, seconds=seconds, workdir=workdir)


# -- names -------------------------------------------------------------------

def test_names_are_well_formed_and_match_the_code():
    import run

    doc = benchmark_json()
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in doc["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        tracing.per_layer_metric_units()


# -- seeded inputs -----------------------------------------------------------

def _usecase_bytes(seed):
    inputs = workloads.usecase_inputs(seed)
    parts = [kind.encode() + data.tobytes() for kind, data in inputs["items"]]
    parts.append(inputs["thresholds"].tobytes())
    for model in (inputs["image_model"], inputs["motion_model"]):
        parts += [layer.weights.tobytes() for layer in model.layers]
    return b"".join(parts)


def _bnn_bytes(seed):
    inputs = workloads.bnn_inputs(seed)
    parts = [inputs["rows"].tobytes(),
             np.array(workloads.bnn_schedule(seed, blocks=4)).tobytes()]
    for model in inputs["models"]:
        parts += [layer.weights.tobytes() for layer in model.layers]
    return b"".join(parts)


@pytest.mark.parametrize("generate", [_usecase_bytes, _bnn_bytes])
def test_seed_determines_inputs(generate):
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def test_bnn_schedule_is_stratified_log_uniform():
    calls = workloads.bnn_schedule(1, blocks=2)
    assert len(calls) == 4 * workloads.BNN_CALLS_PER_MODEL
    assert [model for model, _, _ in calls[:4]] == [0, 1, 0, 1]
    sizes = sorted(size for model, size, _ in calls[:32] if model == 0)
    assert 1 <= sizes[0] <= 2 and sizes[-1] >= 2048


def test_float_reference_matches_scalar_predict():
    inputs = workloads.bnn_inputs(2)
    rows = inputs["rows"][:32]
    for model in inputs["models"]:
        assert np.array_equal(workloads.reference_predict(model, rows),
                              model.predict_batch(rows))


# -- output checks -----------------------------------------------------------

def test_wrong_bnn_prediction_is_counted(tmp_path, monkeypatch):
    from repro.bnn import BNNAccelerator

    original = BNNAccelerator.infer_batch

    def corrupt(self, model, x_signs, **kwargs):
        predictions, timing = original(self, model, x_signs, **kwargs)
        predictions = np.array(predictions)
        predictions[0] = (predictions[0] + 1) % model.n_classes
        return predictions, timing

    monkeypatch.setattr(BNNAccelerator, "infer_batch", corrupt)
    outcome = workloads.run_bnn_classify(context(tmp_path))
    calls = 2 * workloads.BNN_CALLS_PER_MODEL
    assert outcome.failed == calls  # one wrong row in every call
    assert len(outcome.errors) == calls


def test_wrong_usecase_prediction_is_counted(tmp_path, monkeypatch):
    from repro.core import NCPUCore

    original = NCPUCore.run_bnn

    def corrupt(self, *args, **kwargs):
        return [(p + 1) % self.model.n_classes
                for p in original(self, *args, **kwargs)]

    monkeypatch.setattr(NCPUCore, "run_bnn", corrupt)
    outcome = workloads.run_ncpu_usecase(context(tmp_path))
    assert outcome.attempted == len(workloads.USECASE_BLOCK)
    assert outcome.failed == outcome.attempted
    assert all("prediction" in error for error in outcome.errors)


def test_clean_usecase_run_passes_every_check(tmp_path):
    outcome = workloads.run_ncpu_usecase(context(tmp_path))
    assert outcome.failed == 0 and not outcome.errors
    assert outcome.digest["cpu_cycles"] > 0
    assert outcome.digest["bnn_inferences"] == len(workloads.USECASE_BLOCK)


# -- traced run --------------------------------------------------------------

@pytest.mark.parametrize("workload", ["bnn_classify", "ncpu_usecase"])
def test_self_times_fit_in_the_wall_time(workload):
    detail, result = run_cli("--workload", workload, "--seed", "2",
                             "--seconds", "0.2", "--trace", "1")
    assert result["correct"]
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    self_total = sum(value for name, value in metrics.items()
                     if name.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"] <= detail["wall_s"]
    assert set(metrics) == set(tracing.per_layer_metric_units())


def test_simulated_digest_repeats_exactly(tmp_path):
    first = workloads.run_bnn_classify(context(tmp_path, seed=9))
    second = workloads.run_bnn_classify(context(tmp_path, seed=9))
    assert first.digest == second.digest
    assert first.digest["bnn_macs"] > 0


# -- hermetic cache ----------------------------------------------------------

def test_run_leaves_the_user_cache_untouched(tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["HOME"] = str(home)
    _, result = run_cli("--workload", "bnn_classify", "--seed", "1",
                        "--seconds", "0.2", "--trace", "0", env=env)
    assert result["correct"]
    assert not (home / ".cache").exists()


def test_suite_cold_pass_starts_empty(tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    outcome = workloads.run_experiments_suite(context(tmp_path),
                                              patterns=("fig13",))
    assert outcome.detail["cold_cache_entries"] == 0
    assert outcome.failed == 0 and not outcome.errors
    assert outcome.attempted == 2  # one experiment, cold and rerun
    assert not (home / ".cache").exists()
