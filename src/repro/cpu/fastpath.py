"""Fast-path RV32I interpreter: decoded basic blocks replayed as closures.

:class:`FastCPU` is the CPU half of the ``--engine fast`` execution engine.
It computes exactly the architectural state the golden-model
:class:`~repro.cpu.functional.FunctionalCPU` computes — same registers,
memory, events, :class:`~repro.cpu.env.ExecStats` (single-cycle timing) and
stop reasons — but instead of decode/execute dispatch per step it compiles
each **superblock** once into a list of specialised Python closures and
replays the list on every revisit:

* every straight-line instruction becomes one closure over its
  :class:`~repro.cpu.semantics.Slot` that computes its value with the
  slot's shared EX closure — the same one the functional model and the
  pipeline call, so :mod:`repro.cpu.semantics` is the only place an RV32I
  result is defined — and mutates the register list in place (x0 writes
  are elided, and an op whose sources are both x0, such as ``lui``,
  ``auipc`` or ``li``, is evaluated once at compile time),
* unconditional ``jal`` jumps are *folded into the body*: decoding
  continues at the (always-taken) target, so call-heavy code compiles
  into superblocks — precomputed decode traces spanning taken jumps —
  instead of stopping at every ``call``/``j`` (formation stops when a
  target was already decoded into the trace, on a decode error, or at
  :data:`MAX_SUPERBLOCK_BODY` body instructions),
* the block's terminator (conditional branch / ``jalr`` / ``ebreak`` /
  ``trans_bnn`` / ``trigger_bnn`` / decode error / unfoldable ``jal``) is
  one closure returning the next PC and an optional stop reason,
* per-instruction statistics are committed in bulk per block, with the
  per-mnemonic histogram flushed lazily at the end of the run; a per-op
  PC table keeps partial commits (step limits, faults) landing on the
  exact faulting PC even across folded jumps.

``trans_bnn``/``trigger_bnn`` events still record the exact pre-instruction
cycle count, and exceptions (memory faults, decode errors) leave ``stats``
and ``pc`` exactly as the functional model would — the differential suite in
``tests/cpu/test_fastpath_equivalence.py`` pins all of this against both the
functional model and the cycle-accurate pipeline.  The pipeline remains the
timing oracle; this engine only changes how fast the *simulation* runs.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Optional, Tuple

from repro.bnn.batched import BatchedBNNHalf
from repro.cpu.env import CoreEnv, ExecStats, RunResult
from repro.cpu.functional import DEFAULT_MAX_STEPS
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.semantics import MEM_SIZES, Slot, slot_for
from repro.cpu.state import RegisterFile
from repro.errors import SimulationError
from repro.engine import EngineCapabilities, ExecutionEngine, register_engine
from repro.isa.program import Program
from repro.sim import get_session

_MASK = 0xFFFFFFFF

#: mnemonics that end a basic block (control transfer or environment call
#: that must observe an exact cycle count)
TERMINATORS = frozenset({
    "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "ebreak", "trans_bnn", "trigger_bnn",
})

#: cap on body instructions folded into one superblock; bounds compile
#: time and memory for pathological jump chains
MAX_SUPERBLOCK_BODY = 4096

_BodyFn = Callable[[List[int]], None]
_TermFn = Callable[[List[int]], Tuple[int, Optional[str]]]


class _Block:
    """One compiled superblock: jump-folded body + one terminator."""

    __slots__ = ("start_pc", "term_pc", "pcs", "body", "body_names",
                 "n_body", "n_reads", "n_writes", "terminator", "counts")

    def __init__(self, start_pc: int, term_pc: int, pcs: List[int],
                 body: List[_BodyFn], body_names: List[str], n_reads: int,
                 n_writes: int, terminator: _TermFn,
                 term_name: Optional[str]):
        self.start_pc = start_pc
        self.term_pc = term_pc
        # pcs[k] is the PC of body op k; pcs[n_body] is the terminator's
        # PC — with folded jumps the body is no longer straight-line, so
        # partial commits resume from this table instead of start_pc + 4k
        self.pcs = tuple(pcs) + (term_pc,)
        self.body = body
        self.body_names = body_names
        self.n_body = len(body)
        self.n_reads = n_reads
        self.n_writes = n_writes
        self.terminator = terminator
        # mnemonic histogram of one full execution (body + terminator);
        # flushed lazily per (block, repeat count) at the end of a run
        self.counts = Counter(body_names)
        if term_name is not None:
            self.counts[term_name] += 1


class FastCPU:
    """Basic-block RV32I interpreter, architecturally identical to
    :class:`~repro.cpu.functional.FunctionalCPU`."""

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
        self._blocks: dict = {}

    # -- block compiler ---------------------------------------------------
    @property
    def cached_blocks(self) -> int:
        """Number of basic blocks compiled so far (decode-cache size)."""
        return len(self._blocks)

    def _compile_body(self, slot: Slot, pc: int) -> _BodyFn:
        """One straight-line instruction as a closure over the register list.

        Every value comes from the shared EX closure ``slot.ex``, whose
        results are unsigned 32-bit, so every write keeps the register-file
        invariant of :class:`~repro.cpu.state.RegisterFile.write`.  An op
        whose sources are both x0 (``lui``, ``auipc``, ``li``, a folded
        ``jal`` link...) is evaluated once here and stored as a constant.
        """
        if slot.mem:
            return self._compile_mem(slot, pc)
        ex, dest, src1, src2 = slot.ex, slot.dest, slot.src1, slot.src2
        if slot.name == "mv_neu":
            def fn(r, _w=self.env.write_transition_neuron, _rd=slot.rd):
                _w(_rd, ex(r[src1], r[src2], pc)[0])
            return fn
        if dest < 0:  # architectural no-op, still costs a cycle
            return lambda r: None
        if not src1 and not src2:
            const = ex(0, 0, pc)[0]

            def fn(r):
                r[dest] = const
            return fn

        def fn(r):
            r[dest] = ex(r[src1], r[src2], pc)[0]
        return fn

    def _compile_mem(self, slot: Slot, pc: int) -> _BodyFn:
        ex, dest, src1, src2 = slot.ex, slot.dest, slot.src1, slot.src2
        size, signed = slot.size, slot.signed
        env = self.env

        if slot.l2:
            if slot.mem == 1:
                def fn(r):
                    value = env.l2_memory().load(ex(r[src1], 0, pc)[0], size,
                                                 signed)
                    env.l2_reads += 1
                    if dest >= 0:
                        r[dest] = value & _MASK
            else:
                def fn(r):
                    env.l2_memory().store(ex(r[src1], 0, pc)[0], r[src2],
                                          size)
                    env.l2_writes += 1
            return fn
        if slot.mem == 1:
            if dest >= 0:
                def fn(r, _load=self.memory.load):
                    r[dest] = _load(ex(r[src1], 0, pc)[0], size,
                                    signed) & _MASK
            else:
                def fn(r, _load=self.memory.load):
                    _load(ex(r[src1], 0, pc)[0], size, signed)
            return fn

        def fn(r, _store=self.memory.store):
            _store(ex(r[src1], 0, pc)[0], r[src2], size)
        return fn

    def _compile_terminator(self, slot: Slot, pc: int) -> _TermFn:
        name = slot.name
        fall = (pc + 4) & _MASK

        if name == "ebreak":
            def term(r):
                return fall, "halt"
        elif name in ("trans_bnn", "trigger_bnn"):
            # env.record must see the cycle count *before* this instruction;
            # body stats are committed before the terminator runs, so
            # stats.cycles is exact here even with bulk accounting.
            env = self.env
            stats = self.stats
            stop = "trans_bnn" if name == "trans_bnn" else None
            imm = slot.imm

            def term(r):
                env.record(name, stats.cycles, pc, imm)
                return fall, stop
        else:  # jal / jalr / conditional branch
            ex, dest, src1, src2 = slot.ex, slot.dest, slot.src1, slot.src2
            if dest >= 0:
                def term(r):
                    # ex reads the *old* rs1 even when rd == rs1
                    link, tgt = ex(r[src1], r[src2], pc)
                    r[dest] = link
                    return (fall if tgt is None else tgt), None
            else:
                def term(r):
                    tgt = ex(r[src1], r[src2], pc)[1]
                    return (fall if tgt is None else tgt), None
        return term

    def _build(self, start_pc: int) -> _Block:
        """Decode forward from ``start_pc`` until a terminator and compile.

        Unconditional ``jal`` jumps are folded into the body (the link
        register write becomes a body closure and decoding continues at
        the target), growing basic blocks into superblocks.  Folding
        stops — leaving ``jal`` as an ordinary terminator — when the
        target was already decoded into this trace (a jump cycle), or
        when the body reaches :data:`MAX_SUPERBLOCK_BODY`.
        """
        body: List[_BodyFn] = []
        names: List[str] = []
        pcs: List[int] = []
        n_reads = n_writes = 0
        pc = start_pc
        visited = {start_pc}
        while True:
            try:
                slot = slot_for(self.program.word_at(pc))
            except IndexError as exc:
                # fetching off the program raises exactly like the
                # functional model (SimulationError wrapping the message)
                message = str(exc)

                def term(r, _msg=message):
                    raise SimulationError(_msg)
                term_name = None
                break
            except Exception as exc:
                exc_type, exc_args = type(exc), exc.args

                def term(r, _t=exc_type, _a=exc_args):
                    raise _t(*_a)
                term_name = None
                break
            name = slot.name
            if name == "jal":
                tgt = slot.ex(0, 0, pc)[1]
                if tgt not in visited and len(body) < MAX_SUPERBLOCK_BODY:
                    # the link write is a constant: a both-x0-sources fold
                    body.append(self._compile_body(slot, pc))
                    names.append(name)
                    pcs.append(pc)
                    pc = tgt
                    visited.add(pc)
                    continue
            if name in TERMINATORS:
                term, term_name = self._compile_terminator(slot, pc), name
                break
            body.append(self._compile_body(slot, pc))
            names.append(name)
            pcs.append(pc)
            if slot.mem == 1:
                n_reads += 1
            elif slot.mem == 2:
                n_writes += 1
            pc += 4
            visited.add(pc)
        block = _Block(start_pc, pc, pcs, body, names, n_reads, n_writes,
                       term, term_name)
        self._blocks[start_pc] = block
        return block

    # -- execution --------------------------------------------------------
    def _commit_partial(self, block: _Block, executed: int) -> None:
        """Account for the first ``executed`` body instructions of a block
        (exception or step-limit path)."""
        stats = self.stats
        stats.instructions += executed
        stats.cycles += executed
        names = block.body_names[:executed]
        stats.instr_counts.update(names)
        for name in names:
            if name in MEM_SIZES:
                if name[0] == "l":
                    stats.mem_reads += 1
                else:
                    stats.mem_writes += 1

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
        """Run until halt / mode switch / step limit.

        Mirrors the run's :class:`ExecStats` growth into the session
        :class:`~repro.sim.StatsRegistry` under ``cpu.fastpath.*``.
        """
        before = self.stats.scalars()
        stats = self.stats
        regs = self.regs._regs
        blocks = self._blocks
        pending: dict = {}  # block -> full executions (lazy histogram)
        remaining = max_steps
        reason = "max_cycles"
        try:
            while True:
                pc = self.pc
                block = blocks.get(pc)
                if block is None:
                    block = self._build(pc)
                n_body = block.n_body
                if remaining <= n_body:
                    # step limit lands inside the body: resume from the
                    # per-op PC table (the body may span folded jumps)
                    executed = 0
                    try:
                        for fn in block.body[:remaining]:
                            fn(regs)
                            executed += 1
                    finally:
                        self._commit_partial(block, executed)
                        self.pc = block.pcs[executed]
                    break
                executed = 0
                try:
                    for fn in block.body:
                        fn(regs)
                        executed += 1
                except BaseException:
                    self._commit_partial(block, executed)
                    self.pc = block.pcs[executed]
                    raise
                stats.instructions += n_body
                stats.cycles += n_body
                stats.mem_reads += block.n_reads
                stats.mem_writes += block.n_writes
                try:
                    next_pc, stop = block.terminator(regs)
                except BaseException:
                    stats.instr_counts.update(block.body_names)
                    self.pc = block.term_pc
                    raise
                stats.instructions += 1
                stats.cycles += 1
                pending[block] = pending.get(block, 0) + 1
                self.pc = next_pc
                remaining -= n_body + 1
                if stop is not None:
                    reason = stop
                    break
                if remaining <= 0:
                    break
        finally:
            counts = stats.instr_counts
            for block, times in pending.items():
                for name, count in block.counts.items():
                    counts[name] += count * times
        delta = stats.delta(before)
        registry = get_session().stats
        scope = registry.scope("cpu.fastpath")
        scope.incr("runs")
        scope.incr_many(delta)
        registry.emit("cpu.run", simulator="fastpath", stop_reason=reason,
                      **delta)
        return RunResult(stats=stats, stop_reason=reason, pc=self.pc,
                         env=self.env)


def run_fastpath(
    program: Program,
    memory: Optional[DataMemory] = None,
    env: Optional[CoreEnv] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
):
    """Convenience wrapper: build a :class:`FastCPU`, run it, return it.

    Returns ``(cpu, result)`` so callers can inspect registers and memory.
    """
    cpu = FastCPU(program, memory=memory, env=env)
    result = cpu.run(max_steps=max_steps)
    return cpu, result


@register_engine
class FastEngine(BatchedBNNHalf, ExecutionEngine):
    """The ``fast`` engine: :class:`FastCPU` + the exact GEMM BNN kernel.

    CPU half registered here; BNN half provided by
    :class:`~repro.bnn.batched.BatchedBNNHalf`.  Instruction-accurate
    with single-cycle timing — the pipeline stays the timing oracle.
    """

    name = "fast"
    description = ("superblock interpreter (single-cycle timing) and "
                   "exact whole-batch float32 GEMM BNN inference")
    capabilities = EngineCapabilities(
        timing_accurate=False, functional=True, batched=True,
        phase_attribution=True)

    def create_cpu(self, program: Program,
                   memory: Optional[DataMemory] = None,
                   env: Optional[CoreEnv] = None, *,
                   prefer_functional: bool = False) -> FastCPU:
        # prefer_functional is moot: FastCPU *is* the functional engine
        return FastCPU(program, memory=memory, env=env)

    def run_program(self, program: Program, *,
                    limit: Optional[int] = None,
                    memory: Optional[DataMemory] = None,
                    env: Optional[CoreEnv] = None,
                    prefer_functional: bool = False):
        cpu = self.create_cpu(program, memory=memory, env=env)
        result = cpu.run() if limit is None else cpu.run(max_steps=limit)
        return cpu, result
