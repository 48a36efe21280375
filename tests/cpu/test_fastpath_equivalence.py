"""Differential equivalence: FastCPU vs. the pipeline and the ISS.

:class:`FastCPU` is the CPU runtime.  It must be indistinguishable from
the cycle-accurate pipeline on every :class:`ExecStats` field (cycles,
stalls, flushes, stage occupancy, the per-mnemonic histogram), on
core-environment events and their write-back cycles, on registers and on
memory — over the verification suite, the paper's workloads,
hypothesis-generated programs with jumps and loops, and every cycle
budget.  On architectural state it must also equal the functional ISS,
which is the contract for decode errors and fetches outside the program.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn.datasets import synthetic_motion
from repro.cpu import (
    CoreEnv,
    FastCPU,
    FlatMemory,
    FunctionalCPU,
    PipelinedCPU,
    run_program,
)
from repro.errors import DecodingError, MemoryError_, SimulationError
from repro.isa import assemble
from repro.isa.program import Program
from repro.sim import use_session
from repro.trace import install_tracer, uninstall_tracer
from repro.workloads import mibench
from repro.workloads import motion_features as mf
from repro.workloads.dhrystone import dhrystone_asm
from repro.workloads.verification import PASS_VALUE, SIGNATURE_ADDR, generate_all
from tests.cpu.test_pipeline_golden import (
    FRAME_SOURCE,
    GOLDEN,
    MISALIGNED_SOURCE,
    SMALL_SOURCE,
    core_bytes,
    frame_core,
)


def observe(cpu, result, memory_bytes=b""):
    """Everything a run leaves behind, for whole-run comparisons."""
    return {
        "stats": result.stats.as_dict(),
        "stop_reason": result.stop_reason,
        "pc": result.pc,
        "events": [(e.name, e.cycle, e.pc, e.imm) for e in cpu.env.events],
        "regs": cpu.regs.snapshot(),
        "neurons": list(cpu.env.transition_neurons),
        "l2": (cpu.env.l2_reads, cpu.env.l2_writes),
        "memory": bytes(memory_bytes),
    }


def run_on(cls, program, memory=None, l2=False, **run_kwargs):
    memory = FlatMemory() if memory is None else memory
    env = CoreEnv(l2=FlatMemory(size=1 << 16)) if l2 else CoreEnv()
    cpu = cls(program, memory=memory, env=env)
    return cpu, cpu.run(**run_kwargs)


def assert_matches_pipeline(program, memory_factory=FlatMemory, l2=False):
    """Run on FastCPU and the pipeline from identical memory; every
    observable must agree.  Returns the FastCPU run."""
    runs = {}
    for cls in (PipelinedCPU, FastCPU):
        memory = memory_factory()
        cpu, result = run_on(cls, program, memory, l2=l2)
        runs[cls] = cpu, result, observe(cpu, result, memory._bytes)
    assert runs[FastCPU][2] == runs[PipelinedCPU][2]
    # key order shows in JSON exports of the histogram
    assert list(runs[FastCPU][1].stats.instr_counts) == \
        list(runs[PipelinedCPU][1].stats.instr_counts)
    return runs[FastCPU][:2]


def assert_iss_prefix(functional, fast):
    """The architectural state the functional model leaves behind."""
    assert fast.regs.snapshot() == functional.regs.snapshot()
    assert fast.pc == functional.pc
    for field in ("instructions", "mem_reads", "mem_writes"):
        assert getattr(fast.stats, field) == getattr(functional.stats, field)
    assert fast.stats.instr_counts == functional.stats.instr_counts
    assert bytes(fast.memory._bytes) == bytes(functional.memory._bytes)


def assert_matches_iss(program, fast):
    functional = FunctionalCPU(program, memory=FlatMemory())
    functional.run()
    assert fast.regs.snapshot() == functional.regs.snapshot()
    assert fast.stats.instructions == functional.stats.instructions
    assert fast.stats.instr_counts == functional.stats.instr_counts


def raise_on_both(program, expected, memory_size=1 << 20):
    """Run a faulting program on FastCPU and the ISS; both must raise
    the same exception.  Returns ``(functional, fast)``."""
    cpus = []
    messages = []
    for cls in (FunctionalCPU, FastCPU):
        cpu = cls(program, memory=FlatMemory(size=memory_size))
        with pytest.raises(expected) as excinfo:
            cpu.run()
        cpus.append(cpu)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    return cpus


class TestVerificationSuite:
    """Every self-checking ISA verification program."""

    @pytest.mark.parametrize("name", sorted(generate_all()))
    def test_matches_pipeline_and_iss(self, name):
        program = assemble(generate_all()[name])
        fast, result = assert_matches_pipeline(program)
        assert result.stop_reason == "halt"
        assert fast.memory.load_word(SIGNATURE_ADDR) == PASS_VALUE
        assert_matches_iss(program, fast)


def _motion_window_memory(seed):
    window = mf.quantize_trace(
        synthetic_motion(n_samples=1, seed=seed).traces[0])
    matrix = np.array([mf.float_features(t) for t in
                       synthetic_motion(n_samples=40, seed=seed).traces])
    memory = FlatMemory(size=1 << 17)
    mf.write_window(memory, window)
    mf.write_thresholds(memory, mf.training_thresholds(matrix))
    return memory


class TestWorkloads:
    """The programs behind the paper's numbers, field for field."""

    def test_dhrystone(self):
        assert_matches_pipeline(assemble(dhrystone_asm(40)))

    @pytest.mark.parametrize("name", mibench.KERNEL_NAMES)
    def test_mibench_kernel(self, name, monkeypatch):
        captured = []
        original = mibench.run_program

        def capture(program, memory=None, **kwargs):
            captured.append((program, copy.deepcopy(memory)))
            return original(program, memory=memory, **kwargs)

        monkeypatch.setattr(mibench, "run_program", capture)
        assert mibench.run_kernel(name).passed
        (program, memory), = captured
        assert_matches_pipeline(program, lambda: copy.deepcopy(memory))

    def test_use_case_frame_on_ncpu_core(self):
        program = assemble(FRAME_SOURCE)
        observed = {}
        for cls in (PipelinedCPU, FastCPU):
            core = frame_core()
            cpu = cls(program, memory=core.memory.data_memory(),
                      env=core.env)
            result = cpu.run()
            observed[cls] = observe(cpu, result, core_bytes(core))
        assert observed[FastCPU] == observed[PipelinedCPU]
        assert observed[FastCPU]["events"] == GOLDEN["frame"]["events"]

    @pytest.mark.parametrize("seed", [4, 5, 6, 7])
    def test_motion_window(self, seed):
        program = assemble(mf.full_motion_asm(64, finish="trans_bnn"))
        fast, result = assert_matches_pipeline(
            program, lambda: _motion_window_memory(seed))
        assert result.stop_reason == "trans_bnn"


class TestCustomInstructions:
    def test_mv_neu_trigger_and_trans_event_cycles(self):
        source = """
            li a0, 7
            li a1, 3
            mv_neu 0, a0
            mv_neu 1, a1
            trigger_bnn 5
            lw a2, 0(x0)
            trigger_bnn 6
            addi a0, a0, 1
            trans_bnn 2
            ebreak
        """
        fast, result = assert_matches_pipeline(assemble(source))
        assert result.stop_reason == "trans_bnn"
        assert [(e.name, e.cycle) for e in fast.env.events] == [
            ("trigger_bnn", 9), ("trigger_bnn", 11), ("trans_bnn", 13)]

    def test_l2_loads_and_stores(self):
        source = """
            li a0, 256
            li a1, 1234
            sw_l2 a1, 0(a0)
            lw_l2 a2, 0(a0)
            sw a2, 4(a0)
            ebreak
        """
        fast, _ = assert_matches_pipeline(assemble(source), l2=True)
        assert fast.env.l2_memory().load_word(256) == 1234
        assert fast.regs.read(12) == 1234


class TestTimingEdges:
    """The cases where FastCPU's compile-time timing could slip."""

    def test_load_feeding_the_terminator_stalls(self):
        source = """
            li s0, 256
            li a1, 3
            sw a1, 0(s0)
        loop:
            lw a0, 0(s0)
            addi a1, a0, -1
            sw a1, 0(s0)
            lw a0, 0(s0)
            bnez a0, loop
            ebreak
        """
        _, result = assert_matches_pipeline(assemble(source))
        assert result.stats.stalls == 6  # two load-use pairs per pass

    def test_load_then_folded_jal_then_reader_does_not_stall(self):
        source = """
            lw a0, 0(x0)
            j next
            addi a0, a0, 99
        next:
            addi a1, a0, 1
            ebreak
        """
        fast, result = assert_matches_pipeline(assemble(source))
        assert fast.cached_blocks == 1  # the jal is folded into the body
        assert (result.stats.stalls, result.stats.flushes) == (0, 2)

    def test_redirects_at_the_last_program_word(self):
        # both the folded `j done` and the taken `bnez` sit at the last
        # word: nothing past the program is fetched, so nothing is
        # squashed and IF counts only real fetches
        source = """
            li a0, 3
            j loop
        done:
            ebreak
        loop:
            addi a0, a0, -1
            beqz a0, done
            bnez a0, loop
        """
        _, result = assert_matches_pipeline(assemble(source))
        # j, beqz once and bnez twice redirect; the two bnez redirects
        # at the last word squash no fetch
        assert result.stats.flushes == 2 * 4
        assert result.stats.stage_busy["IF"] == \
            result.stats.instructions + 2
        tail = """
            j body
        done:
            ebreak
        body:
            addi a0, x0, 1
            j done
        """
        _, result = assert_matches_pipeline(assemble(tail))
        assert result.stats.stage_busy["IF"] == \
            result.stats.instructions + 1  # only `j body` squashes a fetch

    def test_small_golden_program(self):
        fast, result = assert_matches_pipeline(
            assemble(SMALL_SOURCE), lambda: FlatMemory(size=4096))
        assert result.stats.as_dict() == GOLDEN["small"]["stats"]

    def test_misaligned_store_mid_block_leaves_pipeline_stats(self):
        fast = FastCPU(assemble(MISALIGNED_SOURCE),
                       memory=FlatMemory(size=4096))
        with pytest.raises(MemoryError_, match="misaligned"):
            fast.run()
        assert fast.stats.as_dict() == GOLDEN["misaligned"]
        assert fast.regs.read(12) == 10

    @pytest.mark.parametrize("source", [
        # a faulting load whose result the next instruction reads
        "lui a3, 0xFFFFF\nlw a4, 0(a3)\naddi a5, a4, 1\nebreak",
        # ... and one whose next instruction does not
        "lui a3, 0xFFFFF\nlw a4, 0(a3)\naddi a5, a3, 1\naddi a6, a3, 2",
        # a faulting store at the last program word
        "li a0, 3\nlui a3, 0xFFFFF\nsw a0, 0(a3)",
        # a fault after a taken branch and a folded jump
        "li a0, 2\nj go\nebreak\ngo: addi a0, a0, -1\nbnez a0, go\n"
        "lui a3, 0xFFFFF\nlh a4, 2(a3)\nebreak",
    ])
    def test_memory_faults_leave_pipeline_stats(self, source):
        program = assemble(source)
        stats = []
        for cls in (PipelinedCPU, FastCPU):
            cpu = cls(program, memory=FlatMemory(size=4096))
            with pytest.raises(MemoryError_):
                cpu.run()
            stats.append((cpu.stats.as_dict(), cpu.regs.snapshot()))
        assert stats[0] == stats[1]


class TestCycleBudgets:
    """``max_cycles`` is a cycle budget, exactly as on the pipeline."""

    SOURCE = """
        li a0, 0
        li a1, 5
        li s0, 0x100
    loop:
        addi a0, a0, 2
        sw   a0, 0(s0)
        lw   a2, 0(s0)
        addi a2, a2, 1
        addi a1, a1, -1
        bne  a1, x0, loop
        jal  ra, done
        addi a0, a0, 99
    done:
        trigger_bnn 3
        ebreak
    """

    def _whole(self):
        return run_on(FastCPU, assemble(self.SOURCE))

    def test_every_budget_retires_what_the_pipeline_retires(self):
        program = assemble(self.SOURCE)
        total = self._whole()[1].stats.cycles
        for budget in range(total + 3):
            pipe, p_result = run_on(PipelinedCPU, program,
                                    max_cycles=budget)
            fast, f_result = run_on(FastCPU, program, max_cycles=budget)
            assert f_result.stop_reason == p_result.stop_reason
            assert f_result.stats.cycles == p_result.stats.cycles
            assert f_result.stats.instructions == \
                p_result.stats.instructions
            assert fast.regs.snapshot() == pipe.regs.snapshot()
            expected = "halt" if budget >= total else "max_cycles"
            assert f_result.stop_reason == expected

    def test_every_cut_resumes_to_the_uncut_run(self):
        program = assemble(self.SOURCE)
        whole, w_result = self._whole()
        reference = observe(whole, w_result)
        for cut in range(w_result.stats.cycles + 1):
            fast, _ = run_on(FastCPU, program, max_cycles=cut)
            result = fast.run()
            assert observe(fast, result) == reference, cut

    def test_one_cycle_at_a_time(self):
        program = assemble(self.SOURCE)
        whole, w_result = self._whole()
        fast = FastCPU(program, memory=FlatMemory())
        budget = 0
        while True:
            budget += 1
            result = fast.run(max_cycles=budget)
            if result.stop_reason != "max_cycles":
                break
        assert budget == w_result.stats.cycles
        assert observe(fast, result) == observe(whole, w_result)

    def test_zero_budget(self):
        fast, result = run_on(FastCPU, assemble(self.SOURCE), max_cycles=0)
        assert result.stop_reason == "max_cycles"
        assert (result.stats.cycles, result.stats.instructions) == (0, 0)

    def test_budget_below_the_cycle_count_is_a_no_op(self):
        program = assemble(self.SOURCE)
        for cls in (PipelinedCPU, FastCPU):
            cpu, _ = run_on(cls, program, max_cycles=20)
            retired = cpu.stats.instructions
            result = cpu.run(max_cycles=10)
            assert result.stop_reason == "max_cycles"
            assert (result.stats.cycles, result.stats.instructions) == \
                (20, retired)

    def test_stopped_core_stays_stopped(self):
        fast, first = self._whole()
        before = observe(fast, first)
        again = fast.run()
        assert again.stop_reason == "halt"
        assert observe(fast, again) == before


class TestZeroOperands:
    """Ops reading only x0 are folded at compile time; x0 writes are dropped."""

    SOURCE = """
        li    a0, 5
        lui   a1, 0xABCDE
        auipc a2, 0x10
        xori  a3, x0, -1
        sltiu t0, zero, 1
        sub   t1, x0, x0
        add   x0, a0, a1
        addi  zero, zero, 7
        add   a4, a0, x0
        ebreak
    """

    def test_matches_pipeline_and_iss(self):
        program = assemble(self.SOURCE)
        fast, _ = assert_matches_pipeline(program)
        assert_matches_iss(program, fast)
        regs = fast.regs
        assert regs.read(0) == 0
        assert [regs.read(n) for n in (10, 11, 13, 5, 6, 14)] == \
            [5, 0xABCDE000, 0xFFFFFFFF, 1, 0, 5]


class TestErrorPaths:
    """Decode errors and fetches outside the program raise like the ISS
    and leave its state."""

    def test_running_off_the_program(self):
        program = assemble("addi a0, x0, 1")  # no ebreak
        functional, fast = raise_on_both(program, SimulationError)
        assert_iss_prefix(functional, fast)

    def test_undecodable_word(self):
        good = assemble("addi a0, x0, 1").words[0]
        program = Program(words=[good, 0xFFFFFFFF])
        functional, fast = raise_on_both(program, DecodingError)
        assert_iss_prefix(functional, fast)

    def test_jal_off_the_program(self):
        program = assemble("addi a0, x0, 1\nj 64")
        functional, fast = raise_on_both(program, SimulationError)
        assert_iss_prefix(functional, fast)

    def test_memory_fault_keeps_the_iss_architectural_prefix(self):
        source = """
            addi a0, x0, 1
            addi a1, x0, 2
            lw   a2, 8(x0)
            lui  a3, 0xFFFFF
            lw   a4, 0(a3)
            ebreak
        """
        functional, fast = raise_on_both(assemble(source), MemoryError_,
                                         memory_size=512)
        assert_iss_prefix(functional, fast)


class TestSuperblocks:
    """Unconditional ``jal`` folding must be invisible."""

    # three calls into straight-line helpers, linked by unconditional
    # jumps — the whole chain should fold into one superblock
    CHAIN = """
        addi a0, x0, 1
        jal  ra, part2
        addi a0, a0, 99        # skipped: jal always takes
    part2:
        addi a1, a0, 2
        j    part3
        addi a1, a1, 99        # skipped
    part3:
        addi a2, a1, 3
        ebreak
    """

    def test_jal_chain_folds_into_one_superblock(self):
        fast, _ = assert_matches_pipeline(assemble(self.CHAIN))
        assert fast.cached_blocks == 1
        block = fast._blocks[0]
        assert block.counts["jal"] == 2  # both jumps folded into the body
        assert len(block.pcs) == block.n_body + 1

    def test_link_register_written_by_folded_jal(self):
        fast, _ = run_on(FastCPU, assemble(self.CHAIN))
        # ra holds the return address of the *first* jal (pc 4 -> ra 8)
        assert fast.regs.read(1) == 8

    def test_budgets_across_folded_jumps(self):
        program = assemble(self.CHAIN)
        whole, w_result = run_on(FastCPU, program)
        for budget in range(w_result.stats.cycles + 2):
            pipe, p_result = run_on(PipelinedCPU, program,
                                    max_cycles=budget)
            fast, f_result = run_on(FastCPU, program, max_cycles=budget)
            assert (f_result.stats.instructions, fast.regs.snapshot()) == \
                (p_result.stats.instructions, pipe.regs.snapshot())
            assert observe(fast, fast.run()) == observe(whole, w_result)

    @pytest.mark.parametrize("source", ["top: addi a0, a0, 1\nj top",
                                        "spin: j spin"])
    def test_jump_cycles_terminate_compilation(self, source):
        # a backward jal into the already-decoded trace must stop folding
        # (else _build would never terminate) and still run correctly
        program = assemble(source)
        pipe, p_result = run_on(PipelinedCPU, program, max_cycles=60)
        fast, f_result = run_on(FastCPU, program, max_cycles=60)
        assert f_result.stop_reason == "max_cycles"
        assert f_result.stats.instructions == p_result.stats.instructions
        assert fast.regs.snapshot() == pipe.regs.snapshot()

    def test_body_cap_bounds_superblock_growth(self, monkeypatch):
        import repro.cpu.fastpath as fp

        monkeypatch.setattr(fp, "MAX_SUPERBLOCK_BODY", 2)
        fast, _ = assert_matches_pipeline(assemble(self.CHAIN))
        assert fast.cached_blocks > 1  # capped: the chain split into blocks


class TestBlockCacheAndProbes:
    def test_blocks_compiled_once(self):
        program = assemble(TestCycleBudgets.SOURCE)
        fast, result = run_on(FastCPU, program)
        compiled = fast.cached_blocks
        # far fewer blocks than executed instructions: loop bodies replay
        assert 1 < compiled < result.stats.instructions
        # a mid-block cut compiles at most one extra suffix block
        fast2, _ = run_on(FastCPU, program, max_cycles=8)
        fast2.run()
        assert compiled <= fast2.cached_blocks <= compiled + 1

    def test_run_publishes_pipeline_scope_and_probe(self):
        program = assemble("addi a0, x0, 1\nebreak")
        with use_session(cache_enabled=False) as session:
            events = []
            session.stats.subscribe(
                "cpu.run", lambda name, payload: events.append(payload))
            _, result = run_on(FastCPU, program)
            counters = session.stats.counters("cpu.")
        assert result.stop_reason == "halt"
        assert events[0]["simulator"] == "fastpath"
        assert (events[0]["instructions"], events[0]["cycles"]) == (2, 6)
        # the timing is the pipeline's, so is the scope
        assert all(name.startswith("cpu.pipeline.") for name in counters)
        assert (counters["cpu.pipeline.runs"],
                counters["cpu.pipeline.instructions"],
                counters["cpu.pipeline.cycles"]) == (1, 2, 6)


class TestRuntime:
    def test_runs_fastcpu_untraced(self):
        with use_session(cache_enabled=False):
            cpu, result = run_program(assemble(SMALL_SOURCE),
                                      memory=FlatMemory(size=4096))
        assert isinstance(cpu, FastCPU)
        assert result.stats.as_dict() == GOLDEN["small"]["stats"]

    def test_runs_the_pipeline_under_an_active_tracer(self):
        with use_session(cache_enabled=False) as session:
            tracer = install_tracer(session)
            cpu, result = run_program(assemble(SMALL_SOURCE),
                                      memory=FlatMemory(size=4096))
            uninstall_tracer(session)
        assert isinstance(cpu, PipelinedCPU)
        assert result.stats.as_dict() == GOLDEN["small"]["stats"]
        assert any(event.name == "cpu.stall" for event in tracer.events)

    def test_budget(self):
        cpu, result = run_program(assemble("spin: j spin"), max_cycles=50)
        assert (result.stop_reason, result.stats.cycles) == \
            ("max_cycles", 50)


# -- hypothesis: programs with loops, jumps, and custom instructions -----
_REGS = ["a0", "a1", "a2", "a3", "t0", "t1", "zero"]
_ALU_R = ["add", "sub", "and", "or", "xor", "slt", "sltu", "sll", "srl",
          "sra", "mul"]
_ALU_I = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
_SHIFT_I = ["slli", "srli", "srai"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]


@st.composite
def jumpy_program(draw):
    """Straight-line chunks joined by forward branches, jumps, and one
    bounded backward loop — exercises block boundaries of every kind."""
    lines = ["li s0, 256"]
    for reg in _REGS:
        lines.append(f"li {reg}, {draw(st.integers(-100, 100))}")
    loop_trips = draw(st.integers(1, 4))
    lines += [f"li s1, {loop_trips}", "loop_head:"]
    count = draw(st.integers(3, 25))
    for index in range(count):
        kind = draw(st.sampled_from(
            ["alu_r", "alu_i", "shift", "load", "store", "branch", "jal",
             "jalr", "mv_neu", "trigger"]))
        rd = draw(st.sampled_from(_REGS))
        rs1 = draw(st.sampled_from(_REGS))
        rs2 = draw(st.sampled_from(_REGS))
        if kind == "alu_r":
            lines.append(f"{draw(st.sampled_from(_ALU_R))} {rd}, {rs1}, {rs2}")
        elif kind == "alu_i":
            lines.append(f"{draw(st.sampled_from(_ALU_I))} {rd}, {rs1}, "
                         f"{draw(st.integers(-512, 511))}")
        elif kind == "shift":
            lines.append(f"{draw(st.sampled_from(_SHIFT_I))} {rd}, {rs1}, "
                         f"{draw(st.integers(0, 31))}")
        elif kind == "load":
            width = draw(st.sampled_from(["lw", "lh", "lhu", "lb", "lbu"]))
            lines.append(f"{width} {rd}, {draw(st.integers(0, 6)) * 4}(s0)")
        elif kind == "store":
            width = draw(st.sampled_from(["sw", "sh", "sb"]))
            lines.append(f"{width} {rs2}, {draw(st.integers(0, 6)) * 4}(s0)")
        elif kind == "branch":
            op = draw(st.sampled_from(_BRANCHES))
            lines.append(f"{op} {rs1}, {rs2}, S{index}")
            for _ in range(draw(st.integers(1, 3))):
                filler = draw(st.sampled_from(_REGS))
                lines.append(f"addi {filler}, {filler}, 1")
            lines.append(f"S{index}:")
        elif kind == "jal":
            lines += [f"jal t2, S{index}",
                      f"addi {rd}, {rd}, 13",  # skipped
                      f"S{index}:"]
        elif kind == "jalr":
            # t2 holds the link from `jal +8`: jumping back to it via jalr
            # lands on the instruction after the jal
            lines += [f"jal t2, S{index}",
                      f"jal x0, T{index}",
                      f"S{index}:", "jalr x0, t2, 0",
                      f"T{index}:"]
        elif kind == "mv_neu":
            lines.append(f"mv_neu {draw(st.integers(0, 7))}, {rs1}")
        else:
            lines.append(f"trigger_bnn {draw(st.integers(0, 15))}")
    lines += ["addi s1, s1, -1", "bne s1, x0, loop_head", "ebreak"]
    return "\n".join(lines)


@settings(max_examples=50, deadline=None)
@given(source=jumpy_program())
def test_random_programs_match_pipeline_and_iss(source):
    program = assemble(source)
    fast, result = assert_matches_pipeline(program)
    assert result.stop_reason == "halt"
    assert_matches_iss(program, fast)


@settings(max_examples=25, deadline=None)
@given(source=jumpy_program(), budget=st.integers(0, 150))
def test_random_programs_under_cycle_budgets(source, budget):
    program = assemble(source)
    pipe, p_result = run_on(PipelinedCPU, program, max_cycles=budget)
    fast, f_result = run_on(FastCPU, program, max_cycles=budget)
    assert (f_result.stop_reason, f_result.stats.cycles,
            f_result.stats.instructions, fast.regs.snapshot()) == \
        (p_result.stop_reason, p_result.stats.cycles,
         p_result.stats.instructions, pipe.regs.snapshot())
    # resumed, both end exactly where an uncut run ends
    whole, w_result = run_on(FastCPU, program)
    assert observe(fast, fast.run()) == observe(whole, w_result)
    p_end = pipe.run()
    assert observe(pipe, p_end)["stats"] == w_result.stats.as_dict()
