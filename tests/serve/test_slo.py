"""SLO recorder (exact per-request samples) + serve metric export."""

import pytest

from repro.metrics import MetricsCollection, to_openmetrics, \
    validate_openmetrics
from repro.obs import PHASES
from repro.serve import SERVE_METRIC_HELP, SLORecorder, add_serve_metrics
from repro.serve.slo import summary_ms


class TestSLORecorder:
    def filled(self) -> SLORecorder:
        recorder = SLORecorder()
        recorder.record_submit(0, 1)
        recorder.record_submit(3, 4)
        recorder.record_submit(1, 2)
        recorder.record_completion(
            0.010, {phase: 0.010 / len(PHASES) for phase in PHASES})
        recorder.record_completion(
            0.090, {phase: 0.090 / len(PHASES) for phase in PHASES})
        recorder.record_shed()
        recorder.record_batch(2)
        return recorder

    def test_counters_and_gauges(self):
        recorder = self.filled()
        assert recorder.requests == 3
        assert recorder.completed == 2
        assert recorder.shed == 1
        assert recorder.queue_depth_peak == 3
        assert recorder.queue_depth_mean == pytest.approx(4 / 3)
        assert recorder.inflight_peak == 4
        assert recorder.batch_sizes == [2]

    def test_attainment(self):
        recorder = self.filled()
        assert recorder.attainment(0.050) == pytest.approx(0.5)
        assert recorder.attainment(1.0) == pytest.approx(1.0)
        assert SLORecorder().attainment(1.0) == 0.0

    def test_phase_samples_cover_vocabulary(self):
        recorder = self.filled()
        assert set(recorder.phase_samples_s) == set(PHASES)
        for phase in PHASES:
            assert len(recorder.phase_samples_s[phase]) == 2

    def test_attainment_counts_the_budget_itself(self):
        recorder = SLORecorder()
        for latency in (0.010, 0.050, 0.051):
            recorder.record_completion(latency, {})
        assert recorder.attainment(0.050) == pytest.approx(2 / 3)


class TestSummaryMs:
    def test_exact_quantiles_of_the_samples(self):
        block = summary_ms([0.004, 0.001, 0.003, 0.002, 0.005])
        assert block == pytest.approx({
            "p50": 3.0, "p95": 4.8, "p99": 4.96, "mean": 3.0, "min": 1.0,
            "max": 5.0})

    def test_single_sample_is_every_quantile(self):
        assert summary_ms([0.0123]) == pytest.approx(dict.fromkeys(
            ("p50", "p95", "p99", "mean", "min", "max"), 12.3))


class TestAddServeMetrics:
    def collection(self, recorder=None, **kwargs) -> MetricsCollection:
        collection = MetricsCollection()
        recorder = recorder if recorder is not None \
            else TestSLORecorder().filled()
        add_serve_metrics(collection, recorder, budget_s=0.05,
                          makespan_s=0.5,
                          labels={"engine": "fast"}, **kwargs)
        return collection

    def test_emits_every_family(self):
        collection = self.collection()
        emitted = {series.name for series in collection.series()}
        assert emitted == set(SERVE_METRIC_HELP)

    def test_openmetrics_exposition_validates(self):
        collection = self.collection(trace_dropped=3)
        summary = validate_openmetrics(to_openmetrics(collection))
        by_name = {}
        for family, _, labels, value in summary["parsed"]:
            by_name.setdefault(family, []).append((labels, value))
        assert "repro_serve_requests" in by_name
        latency = by_name["repro_serve_latency_seconds"]
        quantiles = {labels["quantile"] for labels, _ in latency}
        assert quantiles == {"0.5", "0.95", "0.99"}
        phases = by_name["repro_serve_phase_seconds"]
        assert {labels["phase"] for labels, _ in phases} == set(PHASES)

    def test_trace_dropped_clamped_non_negative(self):
        collection = self.collection(trace_dropped=-5)
        series = collection.get("repro_serve_trace_dropped_records",
                                labels={"engine": "fast"})
        assert series is not None and series.value == 0.0

    def test_empty_recorder_skips_quantiles(self):
        collection = MetricsCollection()
        add_serve_metrics(collection, SLORecorder(), budget_s=0.05,
                          makespan_s=0.0)
        emitted = {series.name for series in collection.series()}
        assert "repro_serve_latency_seconds" not in emitted
        assert "repro_serve_batch_size" not in emitted
        assert "repro_serve_requests" in emitted
