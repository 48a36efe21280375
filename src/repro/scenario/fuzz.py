"""Differential scenario fuzzing: random scenarios, every path agrees.

The hand-written differential suites pin bit-identical results on a few
fixed workloads; this module turns that contract into a property-based
harness: a seeded :class:`ScenarioFuzzer` draws bounded random scenarios
(shapes, batch sizes, seeds, operating points), and
:func:`run_differential` executes each one on every path that must agree
and compares the outputs bit for bit:

* **BNN scenarios** run on each engine (the BNN kernels).  Class scores,
  argmax predictions and per-layer hidden sign activations must be
  array-equal, and the accelerator's cycle/MAC accounting (which no
  engine touches) must be exactly equal.
* **CPU scenarios** run on the runtime (:func:`repro.cpu.run_program`)
  and on both oracles, the cycle-accurate pipeline and the functional
  ISS.  Stop reason, final PC, all 32 registers, retired-instruction
  counts, memory traffic and the per-mnemonic histogram must match all
  three; cycles, stalls, flushes, stage occupancy and event cycles must
  match between the runtime and the pipeline.

``repro fuzz --count N --seed S`` drives this from the CLI.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.scenario.schema import (
    BATCH_POLICIES,
    CPU_PROGRAMS,
    DevicePoint,
    EngineSpec,
    Scenario,
    WorkloadSpec,
)

def default_engines() -> Tuple[str, ...]:
    """The engines BNN scenarios are compared across by default: all."""
    from repro.engine import engine_names

    return engine_names()


#: what every CPU scenario runs on; the first is the reference
CPU_SIMULATORS = ("pipeline", "runtime", "iss")


#: fuzzer draw bounds — small enough that a 25-scenario run stays in
#: seconds, wide enough to hit odd shapes (widths on and off multiples
#: of 64 and of BLAS block sizes).  Hidden/output widths
#: respect the accelerator array's 100-neuron fan-out limit; the input
#: width (fan-in of layer 1) is architecturally unbounded.
INPUT_WIDTH_CHOICES = (1, 3, 17, 33, 64, 65, 100, 127, 200)
HIDDEN_WIDTH_CHOICES = (1, 3, 10, 17, 33, 64, 65, 100)
CLASS_COUNT_CHOICES = (2, 4, 10)
BATCH_SIZE_CHOICES = (1, 2, 7, 16, 33, 64)
CPU_ITERATION_CHOICES = (1, 2, 5, 10)
VDD_CHOICES = (0.4, 0.6, 0.8, 1.0)
MAX_HIDDEN_LAYERS = 3


class ScenarioFuzzer:
    """Deterministic random-scenario generator.

    The same ``seed`` always yields the same scenario sequence
    (``random.Random`` is stable across platforms and Python builds),
    so a failing fuzz run is reproducible from its seed + index alone.
    ``engines`` are the BNN engines scenarios draw from and are compared
    across.
    """

    def __init__(self, seed: int = 0,
                 engines: Optional[Sequence[str]] = None,
                 kinds: Sequence[str] = ("bnn", "cpu")):
        self.seed = seed
        self.engines = tuple(engines) if engines else default_engines()
        self.kinds = tuple(kinds)
        self._rng = random.Random(seed)
        self._drawn = 0

    def draw(self) -> Scenario:
        """The next random scenario in this fuzzer's sequence."""
        rng = self._rng
        index = self._drawn
        self._drawn += 1
        kind = rng.choice(self.kinds)
        seed = rng.randrange(0, 2**31)
        engine = EngineSpec(name=rng.choice(self.engines))
        device = DevicePoint(vdd=rng.choice(VDD_CHOICES))
        if kind == "cpu":
            workload = WorkloadSpec(
                kind="cpu", name=rng.choice(CPU_PROGRAMS),
                layer_sizes=(),
                iterations=rng.choice(CPU_ITERATION_CHOICES))
            batch_size = 1
        else:
            hidden = [rng.choice(HIDDEN_WIDTH_CHOICES)
                      for _ in range(rng.randint(1, MAX_HIDDEN_LAYERS))]
            sizes = ([rng.choice(INPUT_WIDTH_CHOICES)] + hidden
                     + [rng.choice(CLASS_COUNT_CHOICES)])
            workload = WorkloadSpec(kind="bnn", name="random",
                                    layer_sizes=tuple(sizes), iterations=1)
            batch_size = rng.choice(BATCH_SIZE_CHOICES)
        return Scenario(name=f"fuzz-{self.seed}-{index}",
                        workload=workload, engine=engine, seed=seed,
                        batch_size=batch_size,
                        batch_policy=rng.choice(BATCH_POLICIES),
                        device=device, repeats=1)

    def scenarios(self, count: int) -> Iterator[Scenario]:
        for _ in range(count):
            yield self.draw()


@dataclasses.dataclass
class Mismatch:
    """One field two engines (or simulators) disagreed on."""

    field: str
    engine: str
    reference_engine: str
    detail: str

    def __str__(self) -> str:
        return (f"{self.field}: {self.engine} != {self.reference_engine} "
                f"({self.detail})")


@dataclasses.dataclass
class DifferentialResult:
    """Outcome of running one scenario on every compared path: the
    engines of a BNN scenario, :data:`CPU_SIMULATORS` for a CPU one."""

    scenario: Scenario
    compared: Tuple[str, ...]
    mismatches: List[Mismatch] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "compared": list(self.compared),
            "ok": self.ok,
            "mismatches": [str(m) for m in self.mismatches],
        }


def _compare_arrays(field: str, reference: Any, candidate: Any,
                    engine: str, reference_engine: str,
                    mismatches: List[Mismatch]) -> None:
    import numpy as np

    ref = np.asarray(reference)
    got = np.asarray(candidate)
    if ref.shape != got.shape:
        mismatches.append(Mismatch(field, engine, reference_engine,
                                   f"shape {got.shape} vs {ref.shape}"))
        return
    if not np.array_equal(ref, got):
        bad = int(np.count_nonzero(ref != got))
        mismatches.append(Mismatch(field, engine, reference_engine,
                                   f"{bad}/{ref.size} elements differ"))


def _compare_scalar(field: str, reference: Any, candidate: Any,
                    engine: str, reference_engine: str,
                    mismatches: List[Mismatch]) -> None:
    if reference != candidate:
        mismatches.append(Mismatch(field, engine, reference_engine,
                                   f"{candidate!r} vs {reference!r}"))


def _bnn_observation(scenario: Scenario, engine_name: str) -> Dict[str, Any]:
    from repro.bnn import BNNAccelerator
    from repro.engine import get_engine
    from repro.scenario.materialize import build_inputs, build_model

    engine = get_engine(engine_name)
    model = build_model(scenario)
    inputs = build_inputs(scenario)
    predictions, timing = BNNAccelerator().infer_batch(
        model, inputs, stream_weights=scenario.batch_policy == "stream",
        engine=engine)
    return {
        "scores": engine.scores(model, inputs),
        "predictions": predictions,
        "hidden": engine.hidden_forward(model, inputs),
        "total_cycles": int(timing.total_cycles),
        "macs": int(timing.macs),
    }


def _cpu_observations(scenario: Scenario) -> Dict[str, Dict[str, Any]]:
    from repro.cpu import run_oracles, run_program
    from repro.scenario.materialize import build_program

    program = build_program(scenario)
    runs = {"runtime": run_program(program), **run_oracles(program)}
    observations = {}
    for name, (cpu, result) in runs.items():
        stats = result.stats
        observed = {
            "stop_reason": result.stop_reason,
            "pc": result.pc,
            "registers": [cpu.regs.read(index) for index in range(32)],
            "instructions": stats.instructions,
            "mem_reads": stats.mem_reads,
            "mem_writes": stats.mem_writes,
            "instr_counts": dict(stats.instr_counts),
        }
        if name != "iss":  # the ISS has no pipeline timing
            observed.update(
                cycles=stats.cycles, stalls=stats.stalls,
                flushes=stats.flushes, stage_busy=dict(stats.stage_busy),
                events=[(e.name, e.cycle, e.pc, e.imm)
                        for e in cpu.env.events])
        observations[name] = observed
    return observations


#: observation fields compared exactly as arrays (everything else is
#: compared as plain scalars/mappings)
_ARRAY_FIELDS = ("scores", "predictions", "hidden", "registers")


def run_differential(scenario: Scenario,
                     engines: Optional[Sequence[str]] = None
                     ) -> DifferentialResult:
    """Run ``scenario`` on every compared path; the first is the
    reference.  ``engines`` (BNN scenarios only) defaults to all."""
    if scenario.workload.kind == "cpu":
        names = CPU_SIMULATORS
        observations = _cpu_observations(scenario)
    else:
        names = tuple(engines) if engines else default_engines()
        observations = {name: _bnn_observation(scenario, name)
                        for name in names}
    result = DifferentialResult(scenario=scenario, compared=names)
    reference_name = names[0]
    reference = observations[reference_name]
    for name in names[1:]:
        for field, value in observations[name].items():
            compare = (_compare_arrays if field in _ARRAY_FIELDS
                       else _compare_scalar)
            compare(field, reference[field], value, name, reference_name,
                    result.mismatches)
    return result


def fuzz(count: int = 25, seed: int = 0,
         engines: Optional[Sequence[str]] = None,
         kinds: Sequence[str] = ("bnn", "cpu"),
         on_result=None) -> List[DifferentialResult]:
    """Generate ``count`` scenarios and differentially run each one.

    ``on_result`` (when given) is called with each
    :class:`DifferentialResult` as it completes — the CLI uses it for
    per-scenario progress lines.  Runs inside a throwaway session so
    fuzzing never pollutes the caller's stats or artifact cache.
    """
    from repro.sim import use_session

    fuzzer = ScenarioFuzzer(seed=seed, engines=engines, kinds=kinds)
    results: List[DifferentialResult] = []
    with use_session(cache_enabled=False):
        for scenario in fuzzer.scenarios(count):
            result = run_differential(scenario, engines=fuzzer.engines)
            results.append(result)
            if on_result is not None:
                on_result(result)
    return results
