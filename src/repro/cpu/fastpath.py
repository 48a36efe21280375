"""Pipeline-exact RV32I interpreter: decoded superblocks replayed as closures.

:class:`FastCPU` is the CPU runtime.  It computes exactly the architectural
state the golden-model :class:`~repro.cpu.functional.FunctionalCPU`
computes, and exactly the :class:`~repro.cpu.env.ExecStats` the
cycle-accurate :class:`~repro.cpu.pipeline.PipelinedCPU` reports — cycles,
stalls, flushes, stage occupancy and the write-back cycle stamped on
``trans_bnn``/``trigger_bnn`` events — but instead of simulating five
stages per cycle it compiles each **superblock** once into a list of
specialised Python closures and replays the list on every revisit:

* every straight-line instruction becomes one closure over its
  :class:`~repro.cpu.semantics.Slot` that computes its value with the
  slot's shared EX closure — the same one the functional model and the
  pipeline call, so :mod:`repro.cpu.semantics` is the only place an RV32I
  result is defined — and mutates the register list in place (x0 writes
  are elided, and an op whose sources are both x0, such as ``lui``,
  ``auipc`` or ``li``, is evaluated once at compile time),
* unconditional ``jal`` jumps are *folded into the body*: decoding
  continues at the (always-taken) target, so call-heavy code compiles
  into superblocks instead of stopping at every ``call``/``j``
  (formation stops when a target was already decoded into the trace, on
  a decode error, or at :data:`MAX_SUPERBLOCK_BODY` body instructions),
* the block's terminator (conditional branch / ``jalr`` / ``ebreak`` /
  ``trans_bnn`` / ``trigger_bnn`` / decode error / unfoldable ``jal``) is
  one closure returning the next PC and whether it stopped or redirected.

Timing.  With full forwarding the pipeline's cycle count depends only on
the committed instruction stream: the first instruction writes back in
cycle 5 (a 4-cycle fill), each later one a cycle after its predecessor,
plus one load-use stall when it reads the destination of the load just
before it, plus two squashed slots after every taken control transfer
(paper Fig 3).  Every terminator is a non-load, so no stall crosses a
block boundary, and every folded ``jal`` is taken: each op's write-back
offset inside its block is a compile-time prefix sum.  At run time the
loop only adds the block's length, +2 after a taken terminator, and the
+4 fill.  Statistics are committed in bulk per block at the end of a run.

``run(max_cycles=...)`` is a cycle budget, like the pipeline's: an
instruction retires when its write-back cycle fits, so a cut leaves the
pipeline's retired instructions and registers, and a resumed run ends
exactly where an uncut one does.  A memory fault leaves the pipeline's
full :class:`ExecStats` (it faults in MEM, with the next instruction in
ID); decode errors and fetches outside the program raise like the
functional model and leave its state (registers, memory, PC, retired
counts).  ``tests/cpu/test_fastpath_equivalence.py`` pins all of this
against both oracles.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Optional, Tuple

from repro.cpu.env import CoreEnv, ExecStats, RunResult
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.pipeline import DEFAULT_MAX_CYCLES
from repro.cpu.semantics import Slot, slot_for
from repro.cpu.state import RegisterFile
from repro.cpu.trace import STAGES
from repro.errors import DecodingError, SimulationError
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

#: cycles from the first fetch to the first write-back
PIPELINE_FILL = 4

#: squashed slots after a taken control transfer
TAKEN_PENALTY = 2

#: a terminator's second result when it redirected the PC
TAKEN = "taken"

_BodyFn = Callable[[List[int]], None]
_TermFn = Callable[[List[int], int], Tuple[int, Optional[str]]]


class _Block:
    """One compiled superblock: jump-folded body + one terminator.

    ``slots`` holds the body ops' slots then the terminator's (``None``
    for a decode or fetch fault).  ``wb[k]`` is op ``k``'s write-back
    cycle counted from the block's entry clock, ``stall[k]`` its load-use
    bubble and ``flush[k]``/``squash[k]`` the penalty and squashed fetch
    of a folded ``jal``.
    """

    __slots__ = ("start_pc", "term_pc", "pcs", "body", "body_names", "slots",
                 "n_body", "terminator", "counts", "wb", "stall", "flush",
                 "squash", "cycles", "n_stalls", "n_flushes", "n_squash",
                 "n_reads", "n_writes", "term_squash")

    def __init__(self, program: Program, pcs: List[int], body: List[_BodyFn],
                 slots: List[Optional[Slot]], terminator: _TermFn):
        self.start_pc = pcs[0]
        self.term_pc = pcs[-1]
        # pcs[k] is the PC of op k; with folded jumps the body is not
        # straight-line, so partial commits resume from this table
        self.pcs = tuple(pcs)
        self.body = body
        self.n_body = n_body = len(body)
        self.slots = slots
        self.body_names = [slot.name for slot in slots[:n_body]]
        self.terminator = terminator
        # mnemonic histogram of one full execution (body + terminator)
        self.counts = Counter(self.body_names)
        if slots[-1] is not None:
            self.counts[slots[-1].name] += 1

        wb, stall, flush, squash = [], [], [], []
        clock, previous = 0, None
        for index, slot in enumerate(slots):
            bubble = int(previous is not None and previous.mem == 1
                         and slot is not None
                         and previous.dest in (slot.src1, slot.src2))
            clock += 1 + bubble
            folded = index < n_body and slot.name == "jal"
            wb.append(clock)
            stall.append(bubble)
            flush.append(TAKEN_PENALTY if folded else 0)
            squash.append(int(folded and _fetchable(program, pcs[index] + 4)))
            clock += flush[-1]
            previous = slot
        self.wb, self.stall, self.flush, self.squash = wb, stall, flush, squash
        self.cycles = wb[-1]
        self.n_stalls = sum(stall)
        self.n_flushes = sum(flush)
        self.n_squash = sum(squash)
        self.n_reads = sum(1 for slot in slots[:n_body] if slot.mem == 1)
        self.n_writes = sum(1 for slot in slots[:n_body] if slot.mem == 2)
        self.term_squash = int(_fetchable(program, self.term_pc + 4))

    def after(self, count: int) -> int:
        """Clock offset once the first ``count`` body ops have retired."""
        return self.wb[count - 1] + self.flush[count - 1] if count else 0


def _fetchable(program: Program, pc: int) -> bool:
    try:
        program.word_at(pc)
    except IndexError:
        return False
    return True


class FastCPU:
    """Superblock RV32I interpreter with the pipeline's exact timing."""

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
        # entry clock of the next instruction: it writes back at
        # _clock + 1 (+1 on a load-use stall)
        self._clock = PIPELINE_FILL
        # destination of a load retired just before a budget cut; the
        # first instruction of the resumed run may stall on it
        self._load_dest = 0
        self._stop: Optional[str] = None

    # -- block compiler ---------------------------------------------------
    @property
    def cached_blocks(self) -> int:
        """Number of superblocks compiled so far (decode-cache size)."""
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
        """The block's last instruction as ``term(regs, wb_cycle)``.

        Returns ``(next_pc, None)``, ``(target, TAKEN)`` after a taken
        control transfer, or ``(next_pc, stop_reason)``.
        """
        name = slot.name
        fall = (pc + 4) & _MASK

        if name == "ebreak":
            def term(r, t):
                return fall, "halt"
        elif name in ("trans_bnn", "trigger_bnn"):
            # stamped with the cycle the instruction writes back, as the
            # pipeline records it at WB
            record, imm = self.env.record, slot.imm
            stop = "trans_bnn" if name == "trans_bnn" else None

            def term(r, t):
                record(name, t, pc, imm)
                return fall, stop
        else:  # jal / jalr / conditional branch
            ex, dest, src1, src2 = slot.ex, slot.dest, slot.src1, slot.src2
            if dest >= 0:
                def term(r, t):
                    # ex reads the *old* rs1 even when rd == rs1
                    link, tgt = ex(r[src1], r[src2], pc)
                    r[dest] = link
                    return (fall, None) if tgt is None else (tgt, TAKEN)
            else:
                def term(r, t):
                    tgt = ex(r[src1], r[src2], pc)[1]
                    return (fall, None) if tgt is None else (tgt, TAKEN)
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
        slots: List[Optional[Slot]] = []
        pcs: List[int] = []
        pc = start_pc
        visited = {start_pc}
        while True:
            pcs.append(pc)
            try:
                slot = slot_for(self.program.word_at(pc))
            except IndexError as exc:
                # fetching off the program raises exactly like the
                # functional model (SimulationError wrapping the message)
                message = str(exc)

                def term(r, t, _msg=message):
                    raise SimulationError(_msg)
                slots.append(None)
                break
            except Exception as exc:
                exc_type, exc_args = type(exc), exc.args

                def term(r, t, _t=exc_type, _a=exc_args):
                    raise _t(*_a)
                slots.append(None)
                break
            slots.append(slot)
            name = slot.name
            if name == "jal":
                tgt = slot.ex(0, 0, pc)[1]
                if tgt not in visited and len(body) < MAX_SUPERBLOCK_BODY:
                    # the link write is a constant: a both-x0-sources fold
                    body.append(self._compile_body(slot, pc))
                    pc = tgt
                    visited.add(pc)
                    continue
            if name in TERMINATORS:
                term = self._compile_terminator(slot, pc)
                break
            body.append(self._compile_body(slot, pc))
            pc += 4
            visited.add(pc)
        block = _Block(self.program, pcs, body, slots, term)
        self._blocks[start_pc] = block
        return block

    # -- execution --------------------------------------------------------
    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> RunResult:
        """Run until halt / mode switch / the cycle budget.

        ``max_cycles`` bounds the cumulative cycle count, and a core that
        stopped stays stopped, as with :meth:`PipelinedCPU.run`.  Mirrors
        the run's :class:`ExecStats` growth into the session
        :class:`~repro.sim.StatsRegistry` under ``cpu.pipeline.*`` (the
        timing is the pipeline's) and emits ``cpu.run`` with
        ``simulator="fastpath"``.
        """
        stats = self.stats
        before = stats.scalars()
        reason = self._stop or self._execute(max_cycles)
        delta = stats.delta(before)
        registry = get_session().stats
        scope = registry.scope("cpu.pipeline")
        scope.incr("runs")
        scope.incr_many(delta)
        registry.emit("cpu.run", simulator="fastpath", stop_reason=reason,
                      **delta)
        return RunResult(stats=stats, stop_reason=reason, pc=self.pc,
                         env=self.env)

    def _execute(self, max_cycles: int) -> str:
        """The block loop; returns the stop reason."""
        stats = self.stats
        regs = self.regs._regs
        blocks = self._blocks
        full: dict = {}  # block -> complete executions (committed lazily)
        taken: dict = {}  # block -> taken terminators
        pc, clock = self.pc, self._clock
        reason = "max_cycles"
        cut = None  # (kind, block, retired body ops) if the run ends mid-block
        try:
            if self._load_dest:
                block = blocks.get(pc) or self._build(pc)
                first = block.slots[0]
                if first is not None and self._load_dest in (first.src1,
                                                             first.src2):
                    clock += 1
                    stats.stalls += 1
                self._load_dest = 0
            while True:
                block = blocks.get(pc)
                if block is None:
                    block = self._build(pc)
                end = clock + block.cycles
                body = block.body
                if end > max_cycles:
                    # the budget ends inside this block: run only the
                    # body ops that write back in time
                    count = 0
                    while (count < block.n_body
                           and clock + block.wb[count] <= max_cycles):
                        count += 1
                    body = body[:count]
                executed = 0
                try:
                    for fn in body:
                        fn(regs)
                        executed += 1
                except BaseException:
                    cut = ("fault", block, executed)
                    raise
                if end > max_cycles:
                    cut = ("budget", block, executed)
                    break
                try:
                    pc, stop = block.terminator(regs, end)
                except BaseException:
                    cut = ("iss_fault", block, block.n_body)
                    raise
                clock = end
                full[block] = full.get(block, 0) + 1
                if stop is not None:
                    if stop is TAKEN:
                        clock += TAKEN_PENALTY
                        taken[block] = taken.get(block, 0) + 1
                    else:
                        reason = self._stop = stop
                        break
        finally:
            self._commit(full, taken)
            if cut is None:
                stats.cycles = clock
            else:
                pc, clock = self._commit_cut(*cut, clock, max_cycles)
            self.pc, self._clock = pc, clock
        return reason

    def _commit(self, full: dict, taken: dict) -> None:
        """Add the lazily counted complete block executions to ``stats``."""
        stats = self.stats
        counts = stats.instr_counts
        retired = fetches = 0
        for block, times in full.items():
            retired += times * (block.n_body + 1)
            stats.stalls += times * block.n_stalls
            stats.flushes += times * block.n_flushes
            stats.mem_reads += times * block.n_reads
            stats.mem_writes += times * block.n_writes
            fetches += times * block.n_squash
            for name, count in block.counts.items():
                counts[name] += count * times
        for block, times in taken.items():
            stats.flushes += times * TAKEN_PENALTY
            fetches += times * block.term_squash
        self._retire(retired, fetches)

    def _retire(self, retired: int, fetches: int, issued: int = 0,
                decoded: int = 0) -> None:
        """Stage occupancy: every retired op passed all five stages; a
        squashed fetch only IF, an op caught mid-pipeline by a fault
        ``issued`` (IF..MEM) or ``decoded`` (IF, ID)."""
        self.stats.instructions += retired
        busy = (retired + issued + decoded + fetches,
                retired + issued + decoded, retired + issued,
                retired + issued, retired)
        for stage, count in zip(STAGES, busy):
            if count:
                self.stats.stage_busy[stage] += count

    def _commit_cut(self, kind: str, block: _Block, count: int, clock: int,
                    max_cycles: int) -> Tuple[int, int]:
        """Commit a run that ended inside ``block`` after ``count`` body
        ops retired; returns the resume PC and entry clock."""
        stats = self.stats
        slots = block.slots
        names = block.body_names[:count]
        stats.instr_counts.update(names)
        stats.stalls += sum(block.stall[:count])
        stats.flushes += sum(block.flush[:count])
        stats.mem_reads += sum(1 for slot in slots[:count] if slot.mem == 1)
        stats.mem_writes += sum(1 for slot in slots[:count] if slot.mem == 2)
        fetches = sum(block.squash[:count])
        resume = clock + block.after(count)
        if kind == "budget":
            self._retire(count, fetches)
            stats.cycles = max(stats.cycles, max_cycles)
            if count:
                last = slots[count - 1]
                self._load_dest = max(last.dest, 0) if last.mem == 1 else 0
        elif kind == "fault":
            # the pipeline raises in the faulting op's MEM cycle, one
            # before its write-back, with the next op already decoded
            stats.cycles = clock + block.wb[count] - 1
            stats.stalls += block.stall[count]
            decoded = fetches_next = 0
            next_pc = block.pcs[count] + 4
            if _fetchable(self.program, next_pc):
                fetches_next = 1
                try:
                    following = slot_for(self.program.word_at(next_pc))
                except DecodingError:
                    following = None
                faulting = slots[count]
                if following is not None:
                    if faulting.mem == 1 and faulting.dest in (
                            following.src1, following.src2):
                        stats.stalls += 1
                    else:
                        decoded = 1
                        if not following.stops_fetch and _fetchable(
                                self.program, next_pc + 4):
                            fetches_next = 2
            self._retire(count, fetches + fetches_next - decoded, issued=1,
                         decoded=decoded)
        else:  # decode or fetch fault: the functional model's prefix
            self._retire(count, fetches)
            stats.cycles = resume
        return block.pcs[count], resume
