"""Disabled tracing must stay free on the pipelined-CPU hot loop.

The pipeline resolves the session tracer once per run and drops an
inactive one, so a disabled tracer is touched only at run boundaries.
The check is structural: it counts every attribute the run reads off the
tracer and requires the count not to grow with the number of cycles.
"""

import time
from collections import Counter

from repro.cpu import PipelinedCPU
from repro.sim import use_session
from repro.trace import Tracer, install_tracer, uninstall_tracer
from repro.trace import tracer as tracer_module
from repro.workloads.dhrystone import dhrystone_asm
from repro.isa import assemble


class CountingTracer(Tracer):
    """A tracer that counts every public attribute read off it."""

    def __init__(self, **kwargs):
        self.touches = Counter()
        super().__init__(**kwargs)

    def __getattribute__(self, name):
        if not name.startswith("_") and name != "touches":
            object.__getattribute__(self, "touches")[name] += 1
        return object.__getattribute__(self, name)


def disabled_tracer_touches(iterations: int):
    program = assemble(dhrystone_asm(iterations=iterations))
    with use_session() as session:
        tracer = install_tracer(session, enabled=False)
        tracer.touches.clear()
        cpu = PipelinedCPU(program)
        cpu.run()
        uninstall_tracer(session)
    return cpu.stats.cycles, tracer.touches


def test_disabled_tracer_is_not_touched_per_cycle(monkeypatch):
    monkeypatch.setattr(tracer_module, "Tracer", CountingTracer)
    short_cycles, short = disabled_tracer_touches(2)
    long_cycles, long = disabled_tracer_touches(30)
    assert long_cycles > 10 * short_cycles
    # run-boundary reads only: nothing scales with the cycle count
    assert long == short, (short, long)
    assert long["cpu_cycle"] == long["instant"] == 0


def test_inactive_tracer_records_nothing_during_run():
    program = assemble(dhrystone_asm(iterations=2))
    with use_session() as session:
        tracer = install_tracer(session, enabled=False)
        PipelinedCPU(program).run()
        assert len(tracer) == 0
        uninstall_tracer(session)


def test_standalone_disabled_tracer_is_cheap_per_call():
    tracer = Tracer(enabled=False)
    start = time.perf_counter()
    for cycle in range(50_000):
        tracer.cpu_cycle(cycle, WB=cycle)
    elapsed = time.perf_counter() - start
    assert len(tracer) == 0
    assert elapsed < 1.0  # ~20 ns/call budget with huge headroom
