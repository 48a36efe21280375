"""Cycle-accurate 5-stage in-order RV32I pipeline.

Models the paper's in-house Rocket-like core (section IV.A) that the NCPU
emulates on its neural layers:

* stages IF, ID, EX, MEM, WB (NeuroPC/NeuroIF, NeuroID, NeuroEX, NeuroMEM, WB),
* full operand forwarding from EX/MEM and MEM/WB into EX,
* a one-cycle load-use interlock,
* all control transfers resolved in EX with the target wired back to IF
  (two squashed slots per taken branch/jump — paper Fig 3),
* the NCPU custom instructions commit their side effects at WB.

Architectural results match :class:`repro.cpu.functional.FunctionalCPU`
exactly; only the cycle accounting differs.

Simulation design.  Every instruction word is predecoded once into a
:class:`~repro.cpu.semantics.Slot` — destination and source registers,
memory access size and flags, the compiled EX closure, whether it stops
fetch — cached by word, since decode is a pure function of the word.  A
word is still decoded only when it reaches ID, so a bad word fetched down
a squashed path raises nothing.  :meth:`PipelinedCPU.run` is one loop, one
iteration per cycle, evaluating the stages back to front (WB, MEM, EX, ID,
IF) so each stage consumes its input latch before the stage behind it
overwrites it.  WB writes the register file before EX reads it, so the
MEM/WB bypass is the register read itself; only the EX/MEM bypass is
explicit.  Latches, counters and the PC live in locals during a run, and a
``finally`` block writes them back: a run that faults leaves exact
statistics, and one that stops at ``max_cycles`` resumes where it stopped.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.cpu.env import CoreEnv, ExecStats, RunResult
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.semantics import (DEST, EX, IMM, L2, MEM, NAME, RD, SIDE,
                                 SIGNED, SIZE, SRC1, SRC2, STOPS_FETCH,
                                 slot_for)
from repro.cpu.state import RegisterFile
from repro.cpu.trace import STAGES, PipelineTrace
from repro.errors import SimulationError
from repro.isa.program import Program
from repro.sim import get_session

DEFAULT_MAX_CYCLES = 100_000_000

_M = 0xFFFFFFFF

#: all four latches empty: IF/ID (pc, word), ID/EX (pc, slot),
#: EX/MEM (pc, slot, alu, store value), MEM/WB (pc, slot, value);
#: a None pc is a bubble
_DRAINED = ((None, 0), (None, None), (None, None, 0, 0), (None, None, 0))


class PipelinedCPU:
    """The cycle-accurate 5-stage pipeline simulator."""

    def __init__(
        self,
        program: Program,
        memory: Optional[DataMemory] = None,
        env: Optional[CoreEnv] = None,
        pc: Optional[int] = None,
        forwarding: bool = True,
        trace: Optional["PipelineTrace"] = None,
    ):
        """``forwarding=False`` ablates the operand-forwarding network: every
        RAW hazard then resolves through the register file by stalling in ID
        (the design-choice ablation for the paper's data-forwarding paths,
        section IV.A)."""
        self.program = program
        self.memory = memory if memory is not None else FlatMemory()
        self.env = env if env is not None else CoreEnv()
        self.regs = RegisterFile()
        self.pc = program.base if pc is None else pc
        self.forwarding = forwarding
        self.trace = trace
        self.stats = ExecStats()

        self._latches = _DRAINED
        self._fetching = True
        self._stop_reason: Optional[str] = None
        self._resume_pc = 0
        self._slots = {}

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> RunResult:
        """Run until halt / mode switch / cycle limit.

        Completed runs mirror their :class:`ExecStats` growth into the
        session :class:`~repro.sim.StatsRegistry` under ``cpu.pipeline.*``
        and emit a ``cpu.run`` probe event.
        """
        stats = self.stats
        before = stats.scalars()
        session = get_session()
        # resolved once per run: untraced, a cycle pays one bool check
        tracer = session.tracer
        if tracer is not None and not tracer.active:
            tracer = None
        capture = self.trace
        observed = tracer is not None or capture is not None
        forwarding = self.forwarding
        program, memory, env = self.program, self.memory, self.env
        fetched = {}  # pc -> word, filled by this run's fetches
        slots = self._slots
        regs = self.regs._regs

        cycles, instructions = stats.cycles, stats.instructions
        stalls, flushes = stats.stalls, stats.flushes
        reads, writes = stats.mem_reads, stats.mem_writes
        busy_if = busy_id = busy_ex = busy_mem = busy_wb = 0
        retired = defaultdict(int)
        pc, fetching, stop = self.pc, self._fetching, self._stop_reason
        resume_pc = self._resume_pc
        # latch locals: f_ IF/ID (fetched), d_ ID/EX (decoded),
        # e_ EX/MEM (executed), w_ MEM/WB (to write back)
        ((f_pc, f_word), (d_pc, d_slot), (e_pc, e_slot, e_alu, e_store),
         (w_pc, w_slot, w_val)) = self._latches
        try:
            while stop is None and cycles < max_cycles:
                cycles += 1
                if observed:
                    stages = {"IF": pc if fetching else None, "ID": f_pc,
                              "EX": d_pc, "MEM": e_pc, "WB": w_pc}
                    if capture is not None:
                        capture.capture(cycles, stages)
                    if tracer is not None:
                        tracer.cpu_cycle(cycles, **stages, wb_name=(
                            w_slot[NAME] if w_pc is not None else None))

                # ---- WB -----------------------------------------------
                if w_pc is not None:
                    busy_wb += 1
                    if w_slot[DEST] >= 0:
                        regs[w_slot[DEST]] = w_val
                    elif w_slot[SIDE]:
                        if w_slot[NAME] == "mv_neu":
                            env.write_transition_neuron(w_slot[RD], w_val)
                        elif w_slot[NAME] != "ebreak":
                            env.record(w_slot[NAME], cycles, w_pc, w_slot[IMM])
                    instructions += 1
                    retired[w_slot[NAME]] += 1
                    if w_slot[STOPS_FETCH]:
                        stop = "halt" if w_slot[NAME] == "ebreak" else "trans_bnn"
                        resume_pc = w_pc + 4
                        break

                # ---- MEM ----------------------------------------------
                if e_pc is not None:
                    busy_mem += 1
                    if e_slot[MEM]:
                        target = env.l2_memory() if e_slot[L2] else memory
                        if e_slot[MEM] == 1:
                            w_val = target.load(e_alu, e_slot[SIZE],
                                                signed=e_slot[SIGNED]) & _M
                            reads += 1
                            if e_slot[L2]:
                                env.l2_reads += 1
                        else:
                            target.store(e_alu, e_store, e_slot[SIZE])
                            w_val = e_alu
                            writes += 1
                            if e_slot[L2]:
                                env.l2_writes += 1
                    else:
                        w_val = e_alu
                    w_pc, w_slot = e_pc, e_slot
                else:
                    w_pc = None

                # ---- EX (e_* still holds the instruction now in MEM) ----
                redirect = None
                if d_pc is not None:
                    busy_ex += 1
                    src1, src2 = d_slot[SRC1], d_slot[SRC2]
                    a, b = regs[src1], regs[src2]
                    # (a dest of -1 never matches a source register)
                    if forwarding and e_pc is not None and (
                            e_slot[DEST] == src1 or e_slot[DEST] == src2):
                        if e_slot[MEM] == 1:
                            raise SimulationError(
                                "load-use hazard reached EX; interlock "
                                "failed")  # pragma: no cover - interlocked
                        if e_slot[DEST] == src1:
                            a = e_alu
                        if e_slot[DEST] == src2:
                            b = e_alu
                    e_alu, redirect = d_slot[EX](a, b, d_pc)
                    e_pc, e_slot, e_store = d_pc, d_slot, b
                else:
                    e_pc = None

                if redirect is not None:
                    # Squash the two younger slots (IF/ID and this cycle's
                    # fetch) and steer the PC to the target: a 2-cycle penalty.
                    flushes += 2
                    if tracer is not None:
                        tracer.instant("cpu.flush", track="cpu.pipeline",
                                       ts=cycles, cat="cpu", cause="control",
                                       pc=d_pc, target=redirect, squashed=2)
                    f_pc = d_pc = None
                    pc = redirect
                    fetching = True
                    continue

                # ---- ID -----------------------------------------------
                if f_pc is not None:
                    slot = slots.get(f_word)
                    if slot is None:
                        slot = slots[f_word] = slot_for(f_word)
                    # With forwarding only a load just entering MEM stalls
                    # its consumer (one bubble); without it, the consumer
                    # waits until every in-flight producer has written back.
                    src1, src2 = slot[SRC1], slot[SRC2]
                    if forwarding:
                        hazard = (e_pc is not None and e_slot[MEM] == 1 and (
                            e_slot[DEST] == src1 or e_slot[DEST] == src2))
                    else:
                        hazard = (e_pc is not None and (
                            e_slot[DEST] == src1 or e_slot[DEST] == src2)) or (
                            w_pc is not None and (
                                w_slot[DEST] == src1 or w_slot[DEST] == src2))
                    if hazard:
                        stalls += 1
                        if tracer is not None:
                            tracer.instant(
                                "cpu.stall", track="cpu.pipeline", ts=cycles,
                                cat="cpu", cause=("load_use" if forwarding
                                                  else "raw_interlock"),
                                pc=f_pc)
                        d_pc = None  # bubble into EX; IF/ID and PC hold
                        continue
                    busy_id += 1
                    d_pc, d_slot = f_pc, slot
                    f_pc = None
                    if slot[STOPS_FETCH]:
                        fetching = False
                else:
                    d_pc = None

                # ---- IF -----------------------------------------------
                if fetching:
                    word = fetched.get(pc)
                    if word is None:
                        try:
                            word = fetched[pc] = program.word_at(pc)
                        except IndexError as exc:
                            # Speculative fetch past the program end is fine
                            # while an older control transfer may still
                            # redirect the PC; it is an error once the
                            # pipeline has drained.
                            if (f_pc is None and d_pc is None and e_pc is None
                                    and w_pc is None):
                                raise SimulationError(
                                    f"instruction fetch outside program: {exc}"
                                ) from exc
                            continue
                    busy_if += 1
                    f_pc, f_word = pc, word
                    pc += 4
        finally:
            stats.cycles, stats.instructions = cycles, instructions
            stats.stalls, stats.flushes = stalls, flushes
            stats.mem_reads, stats.mem_writes = reads, writes
            for stage, count in zip(STAGES, (busy_if, busy_id, busy_ex,
                                             busy_mem, busy_wb)):
                if count:
                    stats.stage_busy[stage] += count
            for name, count in retired.items():
                stats.instr_counts[name] += count
            self.pc, self._fetching = pc, fetching
            self._stop_reason, self._resume_pc = stop, resume_pc
            self._latches = ((f_pc, f_word), (d_pc, d_slot),
                             (e_pc, e_slot, e_alu, e_store),
                             (w_pc, w_slot, w_val))

        reason = stop or "max_cycles"
        delta = stats.delta(before)
        registry = session.stats
        scope = registry.scope("cpu.pipeline")
        scope.incr("runs")
        scope.incr_many(delta)
        registry.emit("cpu.run", simulator="pipeline", stop_reason=reason,
                      **delta)
        return RunResult(stats=stats, stop_reason=reason,
                         pc=resume_pc if stop else pc, env=self.env)


def run_pipelined(
    program: Program,
    memory: Optional[DataMemory] = None,
    env: Optional[CoreEnv] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
):
    """Build a :class:`PipelinedCPU`, run it, and return ``(cpu, result)``."""
    cpu = PipelinedCPU(program, memory=memory, env=env)
    result = cpu.run(max_cycles=max_cycles)
    return cpu, result
