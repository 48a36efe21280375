"""``repro.trace`` — cycle-accurate tracing and profiling.

Layered on the session :class:`~repro.sim.StatsRegistry` probe channel:

* :class:`Tracer` — spans/instants/counters with cycle timestamps, a
  bounded ring buffer, and optional sampling (:mod:`repro.trace.tracer`);
* exporters — Chrome/Perfetto trace-event JSON and JSONL
  (:mod:`repro.trace.export`);
* profilers — per-PC hot spots with exact stall attribution, per-layer
  BNN breakdowns, utilization-gap analysis (:mod:`repro.trace.profile`,
  :mod:`repro.trace.report`).

Quick start::

    from repro.cpu import run_program
    from repro.trace import tracing, write_chrome_trace, build_report
    with tracing() as tracer:
        run_program(program)   # traced: the per-cycle pipeline runs
    write_chrome_trace(tracer, "trace.json")   # load in ui.perfetto.dev
    print(render_report(build_report(tracer)))
"""

from repro.trace.export import (
    chrome_trace,
    iter_chrome_events,
    read_jsonl,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.trace.profile import (
    PAPER_UTILIZATION,
    CoreUtilization,
    CpuProfile,
    HotSpot,
    LayerStat,
    bnn_profile,
    cpu_profile,
    render_bnn_profile,
    render_utilization,
    utilization_report,
)
from repro.trace.report import RunReport, build_report, render_report
from repro.trace.tracer import (
    BNN_TRACK,
    CPU_TRACK,
    CYCLE_EVENT,
    DEFAULT_CAPACITY,
    DMA_TRACK,
    DROPPED_RECORDS_STAT,
    FLUSH_EVENT,
    SERVE_REQUEST_LANES,
    SERVE_TRACK,
    STALL_EVENT,
    ProbeBridge,
    TraceEvent,
    Tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "BNN_TRACK",
    "CPU_TRACK",
    "CYCLE_EVENT",
    "CoreUtilization",
    "CpuProfile",
    "DEFAULT_CAPACITY",
    "DMA_TRACK",
    "DROPPED_RECORDS_STAT",
    "FLUSH_EVENT",
    "HotSpot",
    "LayerStat",
    "PAPER_UTILIZATION",
    "ProbeBridge",
    "RunReport",
    "SERVE_REQUEST_LANES",
    "SERVE_TRACK",
    "STALL_EVENT",
    "TraceEvent",
    "Tracer",
    "bnn_profile",
    "build_report",
    "chrome_trace",
    "cpu_profile",
    "install_tracer",
    "iter_chrome_events",
    "read_jsonl",
    "render_bnn_profile",
    "render_report",
    "render_utilization",
    "tracing",
    "uninstall_tracer",
    "utilization_report",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
    "write_jsonl",
]
