"""Functional (instruction-accurate) RV32I simulator.

This is the golden model: one instruction per step, no timing.  The
cycle-accurate pipeline in :mod:`repro.cpu.pipeline` is validated against it
(same architectural results, different cycle counts).
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.env import CoreEnv, ExecStats, RunResult
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.semantics import Slot, slot_for
from repro.cpu.state import RegisterFile
from repro.errors import SimulationError
from repro.isa.program import Program
from repro.sim import get_session

DEFAULT_MAX_STEPS = 50_000_000


class FunctionalCPU:
    """Single-step RV32I interpreter with NCPU extension support."""

    def __init__(
        self,
        program: Program,
        memory: Optional[DataMemory] = None,
        env: Optional[CoreEnv] = None,
        pc: Optional[int] = None,
    ):
        self.program = program
        self.memory = memory if memory is not None else FlatMemory()
        self.env = env if env is not None else CoreEnv()
        self.regs = RegisterFile()
        self.pc = program.base if pc is None else pc
        self.stats = ExecStats()
        self._slots = {}

    # ------------------------------------------------------------------
    def _fetch(self, pc: int) -> Slot:
        cached = self._slots.get(pc)
        if cached is not None:
            return cached
        try:
            word = self.program.word_at(pc)
        except IndexError as exc:
            raise SimulationError(str(exc)) from exc
        slot = self._slots[pc] = slot_for(word)
        return slot

    def step(self) -> Optional[str]:
        """Execute one instruction; return a stop reason or ``None``."""
        pc = self.pc
        slot = self._fetch(pc)
        name = slot.name
        regs = self.regs
        a, b = regs.read(slot.src1), regs.read(slot.src2)
        alu, target = slot.ex(a, b, pc)

        stop: Optional[str] = None
        if slot.mem:
            memory = self.env.l2_memory() if slot.l2 else self.memory
            if slot.mem == 1:
                regs.write(slot.rd, memory.load(alu, slot.size,
                                                signed=slot.signed))
                self.stats.mem_reads += 1
                if slot.l2:
                    self.env.l2_reads += 1
            else:
                memory.store(alu, b, slot.size)
                self.stats.mem_writes += 1
                if slot.l2:
                    self.env.l2_writes += 1
        elif name == "ebreak":
            stop = "halt"
        elif name == "trans_bnn":
            self.env.record("trans_bnn", self.stats.cycles, pc, slot.imm)
            stop = "trans_bnn"
        elif name == "trigger_bnn":
            self.env.record("trigger_bnn", self.stats.cycles, pc, slot.imm)
        elif name == "mv_neu":
            self.env.write_transition_neuron(slot.rd, alu)
        elif slot.dest >= 0:
            regs.write(slot.dest, alu)

        self.pc = pc + 4 if target is None else target
        self.stats.instructions += 1
        self.stats.cycles += 1  # single-cycle model
        self.stats.instr_counts[name] += 1
        return stop

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
        """Run until halt / mode switch / step limit.

        Mirrors the run's :class:`ExecStats` growth into the session
        :class:`~repro.sim.StatsRegistry` under ``cpu.functional.*``.
        """
        before = self.stats.scalars()
        stop = None
        for _ in range(max_steps):
            stop = self.step()
            if stop is not None:
                break
        reason = stop if stop is not None else "max_cycles"
        delta = self.stats.delta(before)
        registry = get_session().stats
        scope = registry.scope("cpu.functional")
        scope.incr("runs")
        scope.incr_many(delta)
        registry.emit("cpu.run", simulator="functional", stop_reason=reason,
                      **delta)
        return RunResult(stats=self.stats, stop_reason=reason, pc=self.pc,
                         env=self.env)


def run_functional(
    program: Program,
    memory: Optional[DataMemory] = None,
    env: Optional[CoreEnv] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
):
    """Convenience wrapper: build a :class:`FunctionalCPU`, run it, return it.

    Returns ``(cpu, result)`` so callers can inspect registers and memory.
    """
    cpu = FunctionalCPU(program, memory=memory, env=env)
    result = cpu.run(max_steps=max_steps)
    return cpu, result
