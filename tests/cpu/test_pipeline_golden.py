"""End-to-end golden pins for the cycle-accurate pipeline.

Each scenario runs a real program on :class:`PipelinedCPU` and compares
a fingerprint of everything the run leaves behind — the full
``ExecStats.as_dict()``, stop reason, resume PC, environment events,
registers and a digest of memory — against values captured from the
reference implementation.  Any change to how the pipeline simulates must
keep every simulated number bit-identical, so these pins are exact.
"""

import hashlib

import numpy as np
import pytest

from repro.bnn.datasets import synthetic_motion
from repro.core import NCPUCore
from repro.cpu import FlatMemory, PipelinedCPU
from repro.cpu.trace import STAGES, PipelineTrace
from repro.errors import MemoryError_
from repro.isa import assemble
from repro.sim import use_session
from repro.trace import install_tracer, uninstall_tracer
from repro.workloads import image_pipeline as ip
from repro.workloads import motion_features as mf
from repro.workloads.dhrystone import dhrystone_asm

FRAME_SOURCE = """
    li a0, 256
    mv_neu 0, a0
    li a0, 1
    mv_neu 1, a0
""" + ip.full_pipeline_asm(ip.ImageShape(32, 32), finish="trans_bnn")

#: loads, a load-use pair, a store, a taken and a not-taken branch, a
#: call/return and both NCPU environment instructions
SMALL_SOURCE = """
    li a1, 256
    li a2, 3
    li a0, 0
loop:
    lw a3, 0(a1)
    add a0, a0, a3
    addi a3, a3, 5
    sw a3, 0(a1)
    addi a2, a2, -1
    bnez a2, loop
    call helper
    mv_neu 2, a0
    trigger_bnn 7
    ebreak
helper:
    slli a0, a0, 1
    ret
"""

MISALIGNED_SOURCE = """
    li a1, 64
    li a0, 9
    sw a0, 0(a1)
    lw a2, 0(a1)
    addi a2, a2, 1
    sw a2, 2(a1)
    ebreak
"""


def _digest(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


def fingerprint(cpu, result, memory_bytes) -> dict:
    return {
        "stats": result.stats.as_dict(),
        # key order shows in JSON exports such as ``repro run --stats-json``
        "key_order": [list(result.stats.instr_counts),
                      list(result.stats.stage_busy)],
        "stop_reason": result.stop_reason,
        "pc": result.pc,
        "events": [(e.name, e.cycle, e.pc, e.imm) for e in cpu.env.events],
        "regs": _digest(np.array(cpu.regs.snapshot(), dtype="<u4")),
        "memory": _digest(memory_bytes),
        "neurons": list(cpu.env.transition_neurons[:4]),
    }


def frame_core():
    core = NCPUCore("image")
    raw = np.random.default_rng(0).integers(0, 256, size=(3, 32, 32))
    ip.write_raw_frame(core.memory.data_memory(), raw)
    return core


def core_bytes(core) -> bytes:
    return b"".join(bytes(bank._bytes) for bank in core.memory.banks.values())


def core_accesses(core) -> dict:
    return {name: (bank.reads, bank.writes)
            for name, bank in core.memory.banks.items()}


def motion_memory() -> FlatMemory:
    window = mf.quantize_trace(synthetic_motion(n_samples=1, seed=4).traces[0])
    matrix = np.array([mf.float_features(t) for t in
                       synthetic_motion(n_samples=40, seed=4).traces])
    memory = FlatMemory(size=1 << 17)
    mf.write_window(memory, window)
    mf.write_thresholds(memory, mf.training_thresholds(matrix))
    return memory


def run_frame(forwarding=True):
    core = frame_core()
    cpu = PipelinedCPU(assemble(FRAME_SOURCE),
                       memory=core.memory.data_memory(), env=core.env,
                       forwarding=forwarding)
    result = cpu.run()
    return {**fingerprint(cpu, result, core_bytes(core)),
            "banks": core_accesses(core)}


def run_flat(source, memory, **kwargs):
    cpu = PipelinedCPU(assemble(source), memory=memory, **kwargs)
    result = cpu.run()
    return cpu, fingerprint(cpu, result, memory._bytes)


class TestGoldenRuns:
    def test_frame_on_ncpu_core(self):
        core = frame_core()
        result = core.run_cpu_program(assemble(FRAME_SOURCE))
        got = {**fingerprint(_CoreView(core), result, core_bytes(core)),
               "banks": core_accesses(core), "clock": core.clock}
        assert got == GOLDEN["frame"]
        assert (result.stats.cycles, result.stats.instructions,
                result.stats.stalls, result.stats.flushes) == (
                    43_053, 33_691, 4_896, 4_462)

    def test_frame_without_forwarding(self):
        assert run_frame(forwarding=False) == GOLDEN["frame_no_forwarding"]

    def test_motion_window(self):
        _, got = run_flat(mf.full_motion_asm(64), motion_memory())
        assert got == GOLDEN["window"]

    def test_dhrystone(self):
        _, got = run_flat(dhrystone_asm(50), FlatMemory())
        assert got == GOLDEN["dhrystone"]

    def test_pipeline_trace_history(self):
        trace = PipelineTrace()
        _, got = run_flat(SMALL_SOURCE, FlatMemory(size=4096), trace=trace)
        assert got == GOLDEN["small"]
        history = {stage: trace.stage_history(stage) for stage in STAGES}
        assert [record.cycle for record in trace.records] == list(
            range(1, got["stats"]["cycles"] + 1))
        assert history == GOLDEN["small_history"]

    def test_session_tracer_events(self):
        with use_session() as session:
            tracer = install_tracer(session)
            _, got = run_flat(SMALL_SOURCE, FlatMemory(size=4096))
            events = [(e.name, e.ph, e.ts, e.track, sorted(e.args.items()))
                      for e in tracer.events if e.cat == "cpu"]
            uninstall_tracer(session)
        assert got == GOLDEN["small"]
        assert _digest(repr(events).encode()) == GOLDEN["small_tracer"]
        assert len(events) == GOLDEN["small_tracer_events"]

    def test_misaligned_store_fault(self):
        memory = FlatMemory(size=4096)
        cpu = PipelinedCPU(assemble(MISALIGNED_SOURCE), memory=memory)
        with pytest.raises(MemoryError_, match="misaligned"):
            cpu.run()
        assert cpu.stats.as_dict() == GOLDEN["misaligned"]
        assert cpu.regs.read(12) == 10


class _CoreView:
    """The fingerprint's view of the core's last CPU-mode run."""

    def __init__(self, core):
        self.regs = core.registers
        self.env = core.env


class TestResume:
    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 5, 6, 7, 11, 97, 1000, 4321])
    def test_cut_and_resumed_run_matches_one_run(self, cut):
        _, whole = run_flat(mf.full_motion_asm(64), motion_memory())
        memory = motion_memory()
        cpu = PipelinedCPU(assemble(mf.full_motion_asm(64)), memory=memory)
        first = cpu.run(max_cycles=cut)
        assert first.stop_reason == "max_cycles"
        assert first.stats.cycles == cut
        result = cpu.run()
        assert fingerprint(cpu, result, memory._bytes) == whole

    def test_every_cycle_a_cut(self):
        trace = PipelineTrace()
        _, whole = run_flat(SMALL_SOURCE, FlatMemory(size=4096), trace=trace)
        memory = FlatMemory(size=4096)
        stepped = PipelineTrace()
        cpu = PipelinedCPU(assemble(SMALL_SOURCE), memory=memory,
                           trace=stepped)
        cycles = 0
        while True:
            cycles += 1
            result = cpu.run(max_cycles=cycles)
            if result.stop_reason != "max_cycles":
                break
        assert fingerprint(cpu, result, memory._bytes) == whole
        assert [r.stages for r in stepped.records] == [
            r.stages for r in trace.records]

    def test_run_after_halt_is_idempotent(self):
        memory = FlatMemory(size=4096)
        cpu = PipelinedCPU(assemble(SMALL_SOURCE), memory=memory)
        first = fingerprint(cpu, cpu.run(), memory._bytes)
        assert fingerprint(cpu, cpu.run(), memory._bytes) == first


# Captured from the reference pipeline; exact by design.
GOLDEN = {'frame': {'stats': {'cycles': 43053,
                     'instructions': 33691,
                     'stalls': 4896,
                     'flushes': 4462,
                     'mem_reads': 6372,
                     'mem_writes': 1484,
                     'ipc': 0.782547093117785,
                     'instr_counts': {'addi': 6465,
                                      'mv_neu': 2,
                                      'lui': 12,
                                      'mul': 967,
                                      'add': 8815,
                                      'slli': 4760,
                                      'lw': 6372,
                                      'srli': 1220,
                                      'sw': 1484,
                                      'blt': 2053,
                                      'srai': 1,
                                      'sub': 257,
                                      'slt': 256,
                                      'xori': 256,
                                      'sll': 256,
                                      'or': 256,
                                      'bne': 257,
                                      'jal': 1,
                                      'trans_bnn': 1},
                     'stage_busy': {'IF': 35922,
                                    'ID': 33691,
                                    'EX': 33691,
                                    'MEM': 33691,
                                    'WB': 33691}},
           'key_order': [['addi', 'mv_neu', 'lui', 'mul', 'add', 'slli',
                          'lw', 'srli', 'sw', 'blt', 'srai', 'sub', 'slt',
                          'xori', 'sll', 'or', 'bne', 'jal', 'trans_bnn'],
                         ['IF', 'ID', 'EX', 'MEM', 'WB']],
           'stop_reason': 'trans_bnn',
           'pc': 616,
           'events': [('trans_bnn', 43053, 612, 0)],
           'regs': '3d59e7c20b9a6b82',
           'memory': '11943a8fe1ce68d1',
           'neurons': [256, 1, 0, 0],
           'banks': {'image': (0, 8),
                     'output': (0, 0),
                     'w1': (3072, 3072),
                     'w2': (768, 768),
                     'w3': (2020, 256),
                     'w4': (512, 452),
                     'bias': (0, 0),
                     'icache': (0, 0)},
           'clock': 43057},
 'frame_no_forwarding': {'stats': {'cycles': 77289,
                                   'instructions': 33691,
                                   'stalls': 39132,
                                   'flushes': 4462,
                                   'mem_reads': 6372,
                                   'mem_writes': 1484,
                                   'ipc': 0.43590937908369887,
                                   'instr_counts': {'addi': 6465,
                                                    'mv_neu': 2,
                                                    'lui': 12,
                                                    'mul': 967,
                                                    'add': 8815,
                                                    'slli': 4760,
                                                    'lw': 6372,
                                                    'srli': 1220,
                                                    'sw': 1484,
                                                    'blt': 2053,
                                                    'srai': 1,
                                                    'sub': 257,
                                                    'slt': 256,
                                                    'xori': 256,
                                                    'sll': 256,
                                                    'or': 256,
                                                    'bne': 257,
                                                    'jal': 1,
                                                    'trans_bnn': 1},
                                   'stage_busy': {'IF': 35922,
                                                  'ID': 33691,
                                                  'EX': 33691,
                                                  'MEM': 33691,
                                                  'WB': 33691}},
                         'key_order': [['addi', 'mv_neu', 'lui', 'mul',
                                        'add', 'slli', 'lw', 'srli', 'sw',
                                        'blt', 'srai', 'sub', 'slt', 'xori',
                                        'sll', 'or', 'bne', 'jal',
                                        'trans_bnn'],
                                       ['IF', 'ID', 'EX', 'MEM', 'WB']],
                         'stop_reason': 'trans_bnn',
                         'pc': 616,
                         'events': [('trans_bnn', 77289, 612, 0)],
                         'regs': '3d59e7c20b9a6b82',
                         'memory': '11943a8fe1ce68d1',
                         'neurons': [256, 1, 0, 0],
                         'banks': {'image': (0, 8),
                                   'output': (0, 0),
                                   'w1': (3072, 3072),
                                   'w2': (768, 768),
                                   'w3': (2020, 256),
                                   'w4': (512, 452),
                                   'bias': (0, 0),
                                   'icache': (0, 0)}},
 'window': {'stats': {'cycles': 19472,
                      'instructions': 13618,
                      'stalls': 1596,
                      'flushes': 4254,
                      'mem_reads': 1656,
                      'mem_writes': 446,
                      'ipc': 0.6993631881676253,
                      'instr_counts': {'lui': 8,
                                       'addi': 4058,
                                       'slli': 1644,
                                       'add': 2478,
                                       'lw': 1656,
                                       'blt': 1278,
                                       'srai': 396,
                                       'mul': 6,
                                       'sw': 446,
                                       'bge': 1152,
                                       'sub': 194,
                                       'slt': 60,
                                       'xori': 60,
                                       'sll': 60,
                                       'or': 60,
                                       'bne': 60,
                                       'beq': 1,
                                       'ebreak': 1},
                      'stage_busy': {'IF': 15745,
                                     'ID': 13618,
                                     'EX': 13618,
                                     'MEM': 13618,
                                     'WB': 13618}},
            'key_order': [['lui', 'addi', 'slli', 'add', 'lw', 'blt',
                           'srai', 'mul', 'sw', 'bge', 'sub', 'slt', 'xori',
                           'sll', 'or', 'bne', 'beq', 'ebreak'],
                          ['IF', 'ID', 'EX', 'MEM', 'WB']],
            'stop_reason': 'halt',
            'pc': 448,
            'events': [],
            'regs': '46e5e811543b1ec4',
            'memory': 'b7000fd4b93fe5af',
            'neurons': [0, 0, 0, 0]},
 'dhrystone': {'stats': {'cycles': 34267,
                         'instructions': 25225,
                         'stalls': 2800,
                         'flushes': 6238,
                         'mem_reads': 4400,
                         'mem_writes': 2025,
                         'ipc': 0.7361309714886042,
                         'instr_counts': {'lui': 6,
                                          'addi': 5829,
                                          'slli': 2458,
                                          'add': 5124,
                                          'sw': 2025,
                                          'blt': 2458,
                                          'jal': 487,
                                          'lw': 4400,
                                          'jalr': 450,
                                          'andi': 850,
                                          'bne': 800,
                                          'sub': 50,
                                          'xor': 50,
                                          'and': 50,
                                          'or': 50,
                                          'srai': 50,
                                          'beq': 87,
                                          'ebreak': 1},
                         'stage_busy': {'IF': 28344,
                                        'ID': 25225,
                                        'EX': 25225,
                                        'MEM': 25225,
                                        'WB': 25225}},
               'key_order': [['lui', 'addi', 'slli', 'add', 'sw', 'blt',
                              'jal', 'lw', 'jalr', 'andi', 'bne', 'sub',
                              'xor', 'and', 'or', 'srai', 'beq', 'ebreak'],
                             ['IF', 'ID', 'EX', 'MEM', 'WB']],
               'stop_reason': 'halt',
               'pc': 256,
               'events': [],
               'regs': '89eb2ef1f6ce5727',
               'memory': '06fa2122d2824864',
               'neurons': [0, 0, 0, 0]},
 'small': {'stats': {'cycles': 42,
                     'instructions': 27,
                     'stalls': 3,
                     'flushes': 8,
                     'mem_reads': 3,
                     'mem_writes': 3,
                     'ipc': 0.6428571428571429,
                     'instr_counts': {'addi': 9,
                                      'lw': 3,
                                      'add': 3,
                                      'sw': 3,
                                      'bne': 3,
                                      'jal': 1,
                                      'slli': 1,
                                      'jalr': 1,
                                      'mv_neu': 1,
                                      'trigger_bnn': 1,
                                      'ebreak': 1},
                     'stage_busy': {'IF': 30,
                                    'ID': 27,
                                    'EX': 27,
                                    'MEM': 27,
                                    'WB': 27}},
           'key_order': [['addi', 'lw', 'add', 'sw', 'bne', 'jal', 'slli',
                          'jalr', 'mv_neu', 'trigger_bnn', 'ebreak'],
                         ['IF', 'ID', 'EX', 'MEM', 'WB']],
           'stop_reason': 'halt',
           'pc': 52,
           'events': [('trigger_bnn', 41, 44, 7)],
           'regs': 'ceca80cf11765e68',
           'memory': '9b1a675492654887',
           'neurons': [0, 0, 30, 0]},
 'small_history': {'IF': [0, 4, 8, 12, 16, 20, 20, 24, 28, 32, 36, 40, 12,
                          16, 20, 20, 24, 28, 32, 36, 40, 12, 16, 20, 20,
                          24, 28, 32, 36, 40, 44, 52, 56, 60, 60, 40, 44,
                          48, 52, None, None, None],
                   'ID': [None, 0, 4, 8, 12, 16, 16, 20, 24, 28, 32, 36,
                          None, 12, 16, 16, 20, 24, 28, 32, 36, None, 12,
                          16, 16, 20, 24, 28, 32, 36, 40, None, 52, 56,
                          None, None, 40, 44, 48, None, None, None],
                   'EX': [None, None, 0, 4, 8, 12, None, 16, 20, 24, 28, 32,
                          None, None, 12, None, 16, 20, 24, 28, 32, None,
                          None, 12, None, 16, 20, 24, 28, 32, 36, None,
                          None, 52, 56, None, None, 40, 44, 48, None,
                          None],
                   'MEM': [None, None, None, 0, 4, 8, 12, None, 16, 20, 24,
                           28, 32, None, None, 12, None, 16, 20, 24, 28, 32,
                           None, None, 12, None, 16, 20, 24, 28, 32, 36,
                           None, None, 52, 56, None, None, 40, 44, 48,
                           None],
                   'WB': [None, None, None, None, 0, 4, 8, 12, None, 16, 20,
                          24, 28, 32, None, None, 12, None, 16, 20, 24, 28,
                          32, None, None, 12, None, 16, 20, 24, 28, 32, 36,
                          None, None, 52, 56, None, None, 40, 44, 48]},
 'small_tracer': '53518157833164ec',
 'small_tracer_events': 50,
 'misaligned': {'cycles': 10,
                'instructions': 5,
                'stalls': 1,
                'flushes': 0,
                'mem_reads': 1,
                'mem_writes': 1,
                'ipc': 0.5,
                'instr_counts': {'addi': 3, 'sw': 1, 'lw': 1},
                'stage_busy': {'IF': 7,
                               'ID': 7,
                               'EX': 6,
                               'MEM': 6,
                               'WB': 5}}}
