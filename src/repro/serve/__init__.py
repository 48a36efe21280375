"""``repro.serve`` — the serving layer with SLO observability.

Turns the closed-loop simulator into a *served system*: a deterministic
open-loop load generator (:mod:`repro.serve.loadgen`) produces Poisson /
uniform / bursty arrival schedules, and :class:`NCPUServer` replays one
on a virtual clock, coalescing requests into dynamic batches for any
registered execution engine.  Batch device time is simulated cycles
over the scenario's device clock, so one schedule always gives one
report.

Observability is first-class rather than bolted on:

* every request's lifecycle (submit → dispatch → respond) is published
  as ``serve.*`` probe events, so an installed
  :class:`~repro.trace.Tracer` renders per-request Perfetto lanes next
  to the accelerator's tracks;
* :mod:`repro.serve.slo` keeps one exact latency sample per request and
  folds p50/p95/p99, queue-depth / inflight / shed / timeout telemetry
  into the standard ``repro.metrics`` OpenMetrics/JSON path;
* :mod:`repro.serve.report` emits the manifest-stamped ``repro-serve/2``
  SLO document (attainment vs target) that ``repro serve`` prints and
  the regression gate consumes.
"""

from repro.serve.loadgen import (
    arrival_offsets,
    serve_scenario,
    summarize_offsets,
)
from repro.serve.report import (
    SLO_SCHEMA,
    build_slo_report,
    render_slo_report,
    validate_slo_report,
    write_slo_report,
)
from repro.serve.server import NCPUServer, Request
from repro.serve.slo import (
    SERVE_METRIC_HELP,
    SLO_QUANTILES,
    SLORecorder,
    add_serve_metrics,
)

__all__ = [
    "NCPUServer",
    "Request",
    "SERVE_METRIC_HELP",
    "SLO_QUANTILES",
    "SLO_SCHEMA",
    "SLORecorder",
    "add_serve_metrics",
    "arrival_offsets",
    "build_slo_report",
    "render_slo_report",
    "serve_scenario",
    "summarize_offsets",
    "validate_slo_report",
    "write_slo_report",
]
