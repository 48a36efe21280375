"""CPU simulators: the runtime, the cycle-accurate pipeline and the ISS.

:func:`run_program` is how programs run: on :class:`FastCPU` (pipeline
timing without per-cycle simulation), or on :class:`PipelinedCPU` while
a tracer records per-cycle lanes.  :class:`PipelinedCPU` is also the
timing oracle and the ``forwarding=False`` ablation;
:class:`FunctionalCPU` is the instruction-level golden model.
"""

from repro.cpu.env import CoreEnv, CoreEvent, ExecStats, RunResult
from repro.cpu.fastpath import FastCPU
from repro.cpu.functional import FunctionalCPU, run_functional
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.pipeline import PipelinedCPU, run_pipelined
from repro.cpu.runtime import run_oracles, run_program
from repro.cpu.state import RegisterFile

__all__ = [
    "CoreEnv",
    "CoreEvent",
    "ExecStats",
    "RunResult",
    "FastCPU",
    "FunctionalCPU",
    "run_functional",
    "PipelinedCPU",
    "run_pipelined",
    "run_oracles",
    "run_program",
    "DataMemory",
    "FlatMemory",
    "RegisterFile",
]
