"""Differential scenario fuzzing: determinism + agreement of every path."""

import pytest

from repro.scenario.fuzz import (
    HIDDEN_WIDTH_CHOICES,
    DifferentialResult,
    Mismatch,
    ScenarioFuzzer,
    fuzz,
    run_differential,
)
from repro.scenario.schema import Scenario, WorkloadSpec

CPU_SCENARIO = Scenario(
    name="diff-cpu",
    workload=WorkloadSpec(kind="cpu", name="dhrystone", layer_sizes=(),
                          iterations=2),
    batch_size=1)


class TestFuzzerDeterminism:
    def test_same_seed_same_scenarios(self):
        first = list(ScenarioFuzzer(seed=7).scenarios(10))
        second = list(ScenarioFuzzer(seed=7).scenarios(10))
        assert first == second

    def test_different_seeds_differ(self):
        assert list(ScenarioFuzzer(seed=0).scenarios(10)) != \
            list(ScenarioFuzzer(seed=1).scenarios(10))

    def test_scenario_names_carry_seed_and_index(self):
        names = [s.name for s in ScenarioFuzzer(seed=3).scenarios(3)]
        assert names == ["fuzz-3-0", "fuzz-3-1", "fuzz-3-2"]

    def test_draws_cover_both_kinds(self):
        kinds = {s.workload.kind
                 for s in ScenarioFuzzer(seed=0).scenarios(20)}
        assert kinds == {"bnn", "cpu"}

    def test_kind_restriction_respected(self):
        fuzzer = ScenarioFuzzer(seed=0, kinds=("cpu",))
        assert all(s.workload.kind == "cpu"
                   for s in fuzzer.scenarios(10))

    def test_drawn_scenarios_respect_accelerator_fan_out(self):
        # hidden/output layer widths must fit the 100-neuron array; only
        # the input width (fan-in) may exceed it
        limit = max(HIDDEN_WIDTH_CHOICES)
        for scenario in ScenarioFuzzer(seed=5).scenarios(50):
            if scenario.workload.kind == "bnn":
                assert all(w <= limit
                           for w in scenario.workload.layer_sizes[1:])

    def test_engines_default_to_registry(self):
        from repro.engine import engine_names

        assert ScenarioFuzzer().engines == engine_names()


class TestDifferential:
    def test_bnn_scenario_all_engines_agree(self):
        scenario = Scenario(
            name="diff-bnn",
            workload=WorkloadSpec(kind="bnn", layer_sizes=(65, 33, 4),
                                  iterations=1),
            seed=11, batch_size=9)
        result = run_differential(scenario)
        assert result.ok, [str(m) for m in result.mismatches]
        assert result.compared == ("accurate", "fast")

    def test_cpu_scenario_runtime_matches_both_oracles(self):
        result = run_differential(CPU_SCENARIO, engines=("fast",))
        assert result.ok, [str(m) for m in result.mismatches]
        # whatever the engines, CPU runs compare the runtime to the
        # pipeline and the ISS
        assert result.compared == ("pipeline", "runtime", "iss")

    def test_cpu_cycle_drift_is_a_mismatch(self, monkeypatch):
        import repro.cpu.fastpath as fastpath

        monkeypatch.setattr(fastpath, "TAKEN_PENALTY", 3)
        result = run_differential(CPU_SCENARIO)
        fields = {(m.field, m.engine) for m in result.mismatches}
        assert ("cycles", "runtime") in fields
        assert ("flushes", "runtime") in fields
        # architectural state still agrees, and the ISS has no cycles
        assert all(m.engine == "runtime" for m in result.mismatches)
        assert "registers" not in {m.field for m in result.mismatches}

    def test_small_fuzz_run_all_agree(self):
        results = fuzz(count=6, seed=0)
        assert len(results) == 6
        assert all(r.ok for r in results), [
            str(m) for r in results for m in r.mismatches]

    def test_on_result_callback_sees_every_scenario(self):
        seen = []
        fuzz(count=3, seed=1, kinds=("cpu",), on_result=seen.append)
        assert [r.scenario.name for r in seen] == \
            ["fuzz-1-0", "fuzz-1-1", "fuzz-1-2"]

    def test_result_to_dict_is_json_ready(self):
        import json

        result = fuzz(count=1, seed=2, kinds=("cpu",))[0]
        document = json.loads(json.dumps(result.to_dict()))
        assert document["ok"] is True
        assert document["scenario"]["name"] == "fuzz-2-0"
        assert document["mismatches"] == []

    def test_mismatches_flip_ok(self):
        result = DifferentialResult(scenario=Scenario(), compared=("a", "b"))
        assert result.ok
        result.mismatches.append(
            Mismatch(field="pc", engine="b", reference_engine="a",
                     detail="1 vs 2"))
        assert not result.ok
        assert "pc: b != a" in str(result.mismatches[0])

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_differential(Scenario(), engines=("accurate", "warp"))
