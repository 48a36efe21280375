"""SLO telemetry: per-request latency samples and exact quantiles.

Serving runs on a virtual clock (:mod:`repro.serve.server`), so every
latency is exact and the recorder simply keeps one sample per completed
request; quantiles come from :func:`repro.metrics.quantile`.

:class:`SLORecorder` bundles those samples — total latency, one list per
obs phase, batch sizes — with the admission counters and
queue-depth/inflight gauges, and :func:`add_serve_metrics` folds a
recorder into a :class:`~repro.metrics.MetricsCollection` using the
canonical metric families in :data:`SERVE_METRIC_HELP` (the table
``docs/SERVING.md`` mirrors, linted by ``tools/check_docs.py``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.metrics import quantile
from repro.obs import PHASES

#: the latency quantiles every SLO report and metric export carries
SLO_QUANTILES = (0.5, 0.95, 0.99)

#: canonical serve metric families -> one-line help (the contract between
#: :func:`add_serve_metrics`, docs/SERVING.md and tools/check_docs.py)
SERVE_METRIC_HELP: Dict[str, str] = {
    "repro_serve_requests": "requests submitted to the server",
    "repro_serve_completed": "requests that received a prediction",
    "repro_serve_shed": "requests rejected by queue-depth admission "
                        "control",
    "repro_serve_timeouts": "requests dropped after exceeding the "
                            "request timeout",
    "repro_serve_batches": "dynamic batches dispatched to the engine",
    "repro_serve_latency_seconds": "end-to-end request latency quantile "
                                   "(exact, virtual device clock)",
    "repro_serve_phase_seconds": "per-phase request latency quantile "
                                 "(six-phase obs vocabulary)",
    "repro_serve_batch_size": "rows per dispatched dynamic batch",
    "repro_serve_queue_depth_peak": "peak arrival-queue depth observed",
    "repro_serve_queue_depth_mean": "mean arrival-queue depth sampled at "
                                    "each enqueue",
    "repro_serve_inflight_peak": "peak concurrently-inflight requests",
    "repro_serve_throughput_rps": "completed requests per second of "
                                  "virtual makespan",
    "repro_serve_attainment": "fraction of completed requests under the "
                              "latency budget",
    "repro_serve_trace_dropped_records": "trace ring-buffer records "
                                         "evicted while serving",
}


def summary_ms(samples_s: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 + mean/min/max of a latency sample, in milliseconds."""
    block = {f"p{int(q * 100)}": quantile(samples_s, q) * 1e3
             for q in SLO_QUANTILES}
    block["mean"] = sum(samples_s) / len(samples_s) * 1e3
    block["min"] = min(samples_s) * 1e3
    block["max"] = max(samples_s) * 1e3
    return block


class SLORecorder:
    """All the telemetry one server run accumulates.

    One latency sample per completed request, the same per obs phase,
    one size per dispatched batch, counters for admission-control
    outcomes and queue/inflight peaks.
    """

    def __init__(self):
        self.latencies_s: List[float] = []
        self.phase_samples_s: Dict[str, List[float]] = {
            phase: [] for phase in PHASES}
        self.batch_sizes: List[int] = []
        self.requests = 0
        self.shed = 0
        self.timeouts = 0
        self.queue_depth_peak = 0
        self.queue_depth_sum = 0
        self.inflight_peak = 0

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    def record_submit(self, queue_depth: int, inflight: int) -> None:
        self.requests += 1
        self.queue_depth_sum += queue_depth
        self.queue_depth_peak = max(self.queue_depth_peak, queue_depth)
        self.inflight_peak = max(self.inflight_peak, inflight)

    def record_completion(self, latency_s: float,
                          phases_s: Mapping[str, float]) -> None:
        self.latencies_s.append(latency_s)
        for phase in PHASES:
            self.phase_samples_s[phase].append(phases_s.get(phase, 0.0))

    def record_shed(self) -> None:
        self.shed += 1

    def record_timeout(self) -> None:
        self.timeouts += 1

    def record_batch(self, size: int) -> None:
        self.batch_sizes.append(size)

    @property
    def queue_depth_mean(self) -> float:
        """Mean queue depth seen by arrivals (sampled at each submit)."""
        if not self.requests:
            return 0.0
        return self.queue_depth_sum / self.requests

    def attainment(self, budget_s: float) -> float:
        """Fraction of completed requests at or under ``budget_s``."""
        if not self.latencies_s:
            return 0.0
        met = sum(1 for latency in self.latencies_s if latency <= budget_s)
        return met / len(self.latencies_s)


def add_serve_metrics(collection, recorder: SLORecorder, *,
                      budget_s: float, makespan_s: float,
                      labels: Optional[Mapping[str, str]] = None,
                      trace_dropped: int = 0) -> None:
    """Fold an :class:`SLORecorder` into a metrics collection.

    Emits exactly the families of :data:`SERVE_METRIC_HELP`; latency
    quantiles become per-quantile-labelled gauges so the OpenMetrics
    exposition needs no native summary support.
    """
    base = dict(labels or {})

    def put_counter(name: str, value: float, **extra: str) -> None:
        collection.counter(name, value, labels=dict(base, **extra),
                           help=SERVE_METRIC_HELP[name])

    def put_gauge(name: str, value: float, unit: str = "",
                  **extra: str) -> None:
        collection.gauge(name, value, labels=dict(base, **extra),
                         unit=unit, help=SERVE_METRIC_HELP[name])

    put_counter("repro_serve_requests", recorder.requests)
    put_counter("repro_serve_completed", recorder.completed)
    put_counter("repro_serve_shed", recorder.shed)
    put_counter("repro_serve_timeouts", recorder.timeouts)
    put_counter("repro_serve_batches", len(recorder.batch_sizes))
    put_counter("repro_serve_trace_dropped_records", max(0, trace_dropped))
    if recorder.latencies_s:
        for q in SLO_QUANTILES:
            put_gauge("repro_serve_latency_seconds",
                      quantile(recorder.latencies_s, q), unit="seconds",
                      quantile=f"{q:g}")
        for phase in PHASES:
            for q in (0.5, 0.99):
                put_gauge("repro_serve_phase_seconds",
                          quantile(recorder.phase_samples_s[phase], q),
                          unit="seconds", phase=phase, quantile=f"{q:g}")
    if recorder.batch_sizes:
        collection.histogram("repro_serve_batch_size",
                             [float(size) for size in recorder.batch_sizes],
                             labels=base,
                             help=SERVE_METRIC_HELP["repro_serve_batch_size"])
    put_gauge("repro_serve_queue_depth_peak", recorder.queue_depth_peak)
    put_gauge("repro_serve_queue_depth_mean", recorder.queue_depth_mean)
    put_gauge("repro_serve_inflight_peak", recorder.inflight_peak)
    throughput = recorder.completed / makespan_s if makespan_s > 0 else 0.0
    put_gauge("repro_serve_throughput_rps", throughput)
    put_gauge("repro_serve_attainment", recorder.attainment(budget_s))
