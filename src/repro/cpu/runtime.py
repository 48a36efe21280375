"""The CPU runtime: the one entry point callers run programs through.

:func:`run_program` runs :class:`~repro.cpu.FastCPU`, which
reports the pipeline's exact timing, except while the session tracer is
active: then it runs :class:`~repro.cpu.pipeline.PipelinedCPU`, the only
simulator that emits per-cycle stage lanes, stalls and flushes into a
trace.  Both return the same registers, memory, events and
:class:`~repro.cpu.env.ExecStats`.  :func:`run_oracles` runs a program on
the two simulators the runtime is checked against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.cpu.env import CoreEnv, RunResult
from repro.cpu.fastpath import FastCPU
from repro.cpu.functional import FunctionalCPU
from repro.cpu.memory import DataMemory
from repro.cpu.pipeline import DEFAULT_MAX_CYCLES, PipelinedCPU
from repro.isa.program import Program
from repro.sim import get_session


def run_program(
    program: Program,
    memory: Optional[DataMemory] = None,
    env: Optional[CoreEnv] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> Tuple[Union[FastCPU, PipelinedCPU], RunResult]:
    """Run ``program`` for at most ``max_cycles`` cycles; ``(cpu, result)``."""
    tracer = get_session().tracer
    traced = tracer is not None and tracer.active
    cpu = (PipelinedCPU if traced else FastCPU)(program, memory=memory,
                                                env=env)
    return cpu, cpu.run(max_cycles=max_cycles)


def run_oracles(program: Program) -> Dict[
        str, Tuple[Union[PipelinedCPU, FunctionalCPU], RunResult]]:
    """Run ``program`` to completion on each oracle, on fresh memory:
    ``{"pipeline": ..., "iss": ...}`` of ``(cpu, result)`` — the
    cycle-accurate pipeline (timing) and the functional ISS
    (architectural state)."""
    runs = {}
    for name, cpu in (("pipeline", PipelinedCPU(program)),
                      ("iss", FunctionalCPU(program))):
        runs[name] = cpu, cpu.run()
    return runs
