"""End-to-end serving on the virtual clock: batching, admission control,
golden schedule, determinism, device clock, report, tracing."""

import dataclasses
import json

import numpy as np
import pytest

from repro.bnn.accelerator import BatchTiming
from repro.errors import ConfigurationError
from repro.obs import OVERHEAD, PHASES
from repro.power import get_profile, models_for, profile_names
from repro.scenario import Scenario, ServeSpec, WorkloadSpec
from repro.scenario.schema import DevicePoint
from repro.serve import (
    NCPUServer,
    arrival_offsets,
    build_slo_report,
    render_slo_report,
    serve_scenario,
    validate_slo_report,
    write_slo_report,
)
from repro.serve.server import device_clock_hz
from repro.sim import use_session

#: device phases a batch's cycles split into (the rest are 0 or queue)
DEVICE_PHASES = ("init", "memory_io", "inference")

#: a clock so slow that any batch keeps the device busy for > 250 ms
SLOW_DEVICE = DevicePoint(clock_mhz=1e-4)


def small_scenario(engine: str = "fast", device: DevicePoint = DevicePoint(),
                   **serve_fields) -> Scenario:
    serve = {"arrival": "poisson", "rate_rps": 4000.0, "requests": 24,
             "batch_window_ms": 1.0, "max_batch": 8, **serve_fields}
    return Scenario(
        name="serve-test",
        workload=WorkloadSpec(kind="bnn", name="random",
                              layer_sizes=(24, 16, 10)),
        batch_size=8, device=device,
        serve=ServeSpec(**serve)).with_engine(name=engine)


def run_serve(scenario, session=None, with_server=False):
    return serve_scenario(scenario, session=session,
                          with_server=with_server)


def serve_with_server(scenario):
    with use_session(cache_enabled=False) as session:
        return run_serve(scenario, session=session, with_server=True)


class TestServeEndToEnd:
    @pytest.mark.parametrize("engine", ["accurate", "fast"])
    def test_full_session_meets_report_schema(self, engine):
        report, server = serve_with_server(small_scenario(engine))
        summary = validate_slo_report(report)
        assert summary["requests"] == 24
        assert report["engine"] == engine
        assert report["requests"]["completed"] == 24
        assert report["batches"]["count"] >= 24 / 8
        assert report["batches"]["sim_cycles"] > 0
        assert report["makespan_s"] == max(request.t_respond
                                           for request in server.requests)

    def test_predictions_match_direct_engine_batch(self):
        """Dynamic batching must not change any prediction: each request's
        answer equals the engine's whole-pool batched answer for its row."""
        from repro.bnn import BNNAccelerator
        from repro.engine import resolve_engine
        from repro.scenario.materialize import build_inputs, build_model

        scenario = small_scenario("fast")
        with use_session(cache_enabled=False) as session:
            _, server = run_serve(scenario, session=session,
                                  with_server=True)
            model = build_model(scenario)
            pool = build_inputs(scenario, batch_size=scenario.batch_size)
            rows = np.stack([pool[index % len(pool)]
                             for index in range(scenario.serve.requests)])
            reference, _ = BNNAccelerator().infer_batch(
                model, rows, engine=resolve_engine("fast"))
        for request in server.requests:
            assert request.status == "ok"
            assert request.prediction == int(reference[request.index])

    def test_engines_agree_under_identical_schedules(self):
        reports = {}
        for engine in ("accurate", "fast"):
            report, _ = serve_with_server(small_scenario(engine))
            del report["engine"], report["manifest"]
            del report["scenario"]["engine"]["name"]
            reports[engine] = report
        assert reports["fast"] == reports["accurate"]

    def test_rerun_gives_identical_report(self):
        first, _ = serve_with_server(small_scenario("fast"))
        second, _ = serve_with_server(small_scenario("fast"))
        assert first["manifest"].pop("created_unix") > 0
        second["manifest"].pop("created_unix")
        assert first == second

    def test_rejects_cpu_scenarios(self):
        scenario = Scenario(
            name="cpu", workload=WorkloadSpec(kind="cpu", name="dhrystone",
                                              layer_sizes=()))
        with use_session(cache_enabled=False):
            with pytest.raises(ConfigurationError, match="bnn"):
                NCPUServer(scenario)

    def test_rejects_schedule_longer_than_rows(self):
        with use_session(cache_enabled=False):
            server = NCPUServer(small_scenario())
            with pytest.raises(ConfigurationError, match="input rows"):
                server.run([np.ones(24)], [0.0, 0.001])

    def test_max_batch_bounds_every_batch(self):
        scenario = small_scenario("fast", rate_rps=50000.0, requests=40,
                                  max_batch=4)
        _, server = serve_with_server(scenario)
        assert server.recorder.batch_sizes
        assert max(server.recorder.batch_sizes) <= 4
        assert sum(server.recorder.batch_sizes) == 40


class TestRequestPhases:
    def test_phases_partition_latency(self):
        _, server = serve_with_server(small_scenario("fast"))
        for request in server.requests:
            assert set(request.phases_s) == set(PHASES)
            assert sum(request.phases_s.values()) == \
                pytest.approx(request.latency_s, rel=1e-12)
            # queue wait (submit -> dispatch) is overhead
            assert request.phases_s[OVERHEAD] == \
                request.t_dispatch - request.t_submit
            assert request.phases_s["preprocess"] == 0.0
            assert request.phases_s["postprocess"] == 0.0
            assert request.phases_s["inference"] > 0.0


class TestDeviceClock:
    """Uniform arrivals 1 ms apart with a 2.5 ms window: every batch closes
    on its window with the device long idle, so the batches are the same
    at every clock and only the device phases move."""

    def device_phases(self, device: DevicePoint):
        scenario = small_scenario("fast", device=device, arrival="uniform",
                                  rate_rps=1000.0, requests=12,
                                  batch_window_ms=2.5)
        _, server = serve_with_server(scenario)
        assert server.recorder.batch_sizes == [3, 3, 3, 3]
        return [{phase: request.phases_s[phase] for phase in DEVICE_PHASES}
                for request in server.requests]

    @pytest.mark.parametrize("profile", profile_names())
    def test_profile_frequency_is_the_default_clock(self, profile):
        device_profile = get_profile(profile)
        device = DevicePoint(vdd=device_profile.vdd_nominal, profile=profile)
        assert device_clock_hz(device) == models_for(
            device_profile).frequency.f_hz(device_profile.vdd_nominal)
        assert device_clock_hz(dataclasses.replace(device, clock_mhz=50.0)) \
            == 50e6

    def test_halving_clock_doubles_device_phases_exactly(self):
        fast = self.device_phases(DevicePoint(clock_mhz=200.0))
        slow = self.device_phases(DevicePoint(clock_mhz=100.0))
        for fast_phases, slow_phases in zip(fast, slow):
            assert slow_phases == {phase: 2.0 * value
                                   for phase, value in fast_phases.items()}

    def test_lower_vdd_lengthens_device_phases_by_frequency_ratio(self):
        frequency = models_for(get_profile("ncpu-65nm")).frequency
        ratio = frequency.f_hz(1.0) / frequency.f_hz(0.6)
        nominal = self.device_phases(DevicePoint(vdd=1.0))
        low = self.device_phases(DevicePoint(vdd=0.6))
        for nominal_phases, low_phases in zip(nominal, low):
            for phase in DEVICE_PHASES:
                assert low_phases[phase] == \
                    pytest.approx(nominal_phases[phase] * ratio, rel=1e-12)


class TestGoldenSchedule:
    """A hand-computed schedule on a 1 MHz device (1 cycle = 1 us).

    Eight uniform arrivals 1 ms apart; window 0.6 ms, max batch 2, queue
    depth 1, timeout 2.5 ms.  The stubbed batch timing is 2200 cycles of
    latency, 1000 per extra row and 100 of memory I/O, so a batch of one
    holds the device 2.3 ms (init 1.2, memory_io 0.1, inference 1.0) and
    a batch of two 3.3 ms (inference 2.0):

    * r0 @0 opens a batch, closes at 0.6, done 2.9;
    * r1 @1 queues, r2 @2 is shed (queue full); the batch opens at 2.9
      with r1, r3 @3 fills it, closes at 3.0, done 6.3;
    * r4 @4 queues, r5 @5 and r6 @6 are shed; the batch opens at 6.3,
      closes at 6.9 and r4 (age 2.9 > 2.5) times out;
    * r7 @7 opens a batch on an idle device, closes at 7.6, done 9.9.
    """

    #: index -> (status, batch, latency ms, queue wait ms)
    GOLDEN = {
        0: ("ok", 0, 2.9, 0.6),
        1: ("ok", 1, 5.3, 2.0),
        2: ("shed", None, 0.0, 0.0),
        3: ("ok", 1, 3.3, 0.0),
        4: ("timeout", None, 2.9, 2.9),
        5: ("shed", None, 0.0, 0.0),
        6: ("shed", None, 0.0, 0.0),
        7: ("ok", 2, 2.9, 0.6),
    }

    @staticmethod
    def fake_infer_batch(model, matrix, stream_weights, engine):
        n = len(matrix)
        timing = BatchTiming(n_inputs=n, latency_cycles=2200,
                             total_cycles=2200 + (n - 1) * 1000 + 100,
                             interval_cycles=1000, macs=0,
                             weight_stream_cycles=100)
        return np.zeros(n, dtype=int), timing

    @pytest.fixture(scope="class")
    def served(self):
        scenario = small_scenario(
            "fast", device=DevicePoint(clock_mhz=1.0), arrival="uniform",
            rate_rps=1000.0, requests=8, batch_window_ms=0.6, max_batch=2,
            max_queue_depth=1, timeout_ms=2.5)
        offsets = arrival_offsets("uniform", 1000.0, 8)
        with use_session(cache_enabled=False):
            server = NCPUServer(scenario)
            server.accelerator.infer_batch = self.fake_infer_batch
            server.run([np.ones(24)] * 8, offsets)
        return server, build_slo_report(server, offsets)

    def test_per_request_outcomes(self, served):
        server, _ = served
        for request in server.requests:
            status, batch, latency_ms, wait_ms = self.GOLDEN[request.index]
            assert request.status == status
            assert request.batch_index == batch
            assert request.latency_s == pytest.approx(latency_ms / 1e3,
                                                      abs=1e-12)
            assert request.phases_s[OVERHEAD] == \
                pytest.approx(wait_ms / 1e3, abs=1e-12)
            if status == "ok":
                rows = request.batch_size
                assert request.phases_s["init"] == pytest.approx(1.2e-3)
                assert request.phases_s["memory_io"] == \
                    pytest.approx(0.1e-3)
                assert request.phases_s["inference"] == \
                    pytest.approx(rows * 1e-3)

    def test_counts_batches_and_quantiles(self, served):
        server, report = served
        assert report["requests"] == {"submitted": 8, "completed": 4,
                                      "shed": 3, "timeout": 1}
        assert server.recorder.batch_sizes == [1, 2, 1]
        assert report["batches"]["sim_cycles"] == 2300 + 3300 + 2300
        # completed latencies 2.9, 2.9, 3.3, 5.3 ms (linear interpolation)
        latency = report["latency_ms"]
        assert latency["p50"] == pytest.approx(3.1)
        assert latency["p95"] == pytest.approx(3.3 + 0.85 * 2.0)
        assert latency["p99"] == pytest.approx(3.3 + 0.97 * 2.0)
        assert latency["mean"] == pytest.approx(3.6)
        assert (latency["min"], latency["max"]) == \
            (pytest.approx(2.9), pytest.approx(5.3))
        assert report["makespan_s"] == pytest.approx(9.9e-3)
        assert report["throughput_rps"] == pytest.approx(4 / 9.9e-3)
        assert report["queue"] == {"depth_peak": 1, "depth_mean": 3 / 8,
                                   "inflight_peak": 4}
        validate_slo_report(report)


class TestAdmissionControl:
    def test_full_queue_sheds_arrivals_while_device_busy(self):
        """r0 takes the device for > 250 ms; r1 fills the depth-1 queue
        and r2..r4 are shed."""
        scenario = small_scenario("fast", device=SLOW_DEVICE,
                                  arrival="uniform", rate_rps=1000.0,
                                  requests=5, batch_window_ms=0.0,
                                  max_queue_depth=1, timeout_ms=600_000.0)
        with use_session(cache_enabled=False) as session:
            _, server = run_serve(scenario, session=session,
                                  with_server=True)
        assert [request.status for request in server.requests] == \
            ["ok", "ok", "shed", "shed", "shed"]
        assert server.recorder.shed == 3
        assert server.recorder.completed == 2
        assert server.recorder.batch_sizes == [1, 1]
        assert session.stats.as_dict()["counters"].get(
            "serve.requests.shed") == 3

    def test_expired_requests_time_out_at_batch_close(self):
        scenario = small_scenario("fast", requests=1, batch_window_ms=1.0,
                                  timeout_ms=1e-3)
        _, server = serve_with_server(scenario)
        (result,) = server.requests
        assert result.status == "timeout"
        assert result.prediction is None
        assert server.recorder.timeouts == 1
        assert server.recorder.completed == 0
        assert server.recorder.batch_sizes == []
        # the whole wait (the batch window) is overhead
        assert result.latency_s == pytest.approx(1e-3)
        assert result.phases_s[OVERHEAD] == result.latency_s
        assert sum(result.phases_s.values()) == result.latency_s

    def test_shed_and_timeouts_conserve_request_count(self):
        """r0..r3 fill the first batch at 0.375 ms; the device then stays
        busy for > 250 ms, so r4 and r5 queue (depth 2), r6..r15 are shed,
        and r4/r5 time out when their batch closes."""
        scenario = small_scenario("fast", device=SLOW_DEVICE,
                                  arrival="uniform", rate_rps=8000.0,
                                  requests=16, batch_window_ms=1.0,
                                  max_batch=4, max_queue_depth=2)
        report, server = serve_with_server(scenario)
        recorder = server.recorder
        assert (recorder.completed, recorder.shed, recorder.timeouts) == \
            (4, 10, 2)
        assert recorder.requests == 16
        assert recorder.batch_sizes == [4]
        validate_slo_report(report)


class TestSLOReport:
    def report(self):
        scenario = small_scenario("fast")
        with use_session(cache_enabled=False) as session:
            return run_serve(scenario, session=session)

    def test_render_and_write_roundtrip(self, tmp_path):
        report = self.report()
        text = render_slo_report(report)
        assert "SLO" in text and "| p50 |" in text
        assert "virtual makespan" in text
        target = write_slo_report(report, tmp_path / "slo.json")
        loaded = json.loads(target.read_text())
        assert validate_slo_report(loaded)["requests"] == 24

    def test_policy_block_mirrors_serve_spec(self):
        report = self.report()
        spec = small_scenario("fast").serve
        assert report["policy"] == {
            key: value for key, value in dataclasses.asdict(spec).items()
            if key not in ("arrival", "rate_rps", "requests",
                           "burst_factor")}

    def test_report_without_completions_renders(self):
        scenario = small_scenario("fast", requests=3, timeout_ms=1e-3)
        report, _ = serve_with_server(scenario)
        assert report["requests"]["timeout"] == 3
        assert report["latency_ms"] is None and report["phases_ms"] is None
        assert report["throughput_rps"] == 0.0
        validate_slo_report(report)
        assert "| p50 |" not in render_slo_report(report)

    def test_validate_rejects_lost_requests(self):
        report = self.report()
        report["requests"]["completed"] -= 1
        with pytest.raises(ValueError, match="loses requests"):
            validate_slo_report(report)

    def test_validate_rejects_non_monotone_quantiles(self):
        report = self.report()
        report["latency_ms"]["p50"] = report["latency_ms"]["p99"] * 2
        with pytest.raises(ValueError, match="not monotone"):
            validate_slo_report(report)

    def test_validate_rejects_inconsistent_met_flag(self):
        report = self.report()
        report["slo"]["met"] = not report["slo"]["met"]
        with pytest.raises(ValueError, match="contradicts"):
            validate_slo_report(report)

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_slo_report({"schema": "nope/9"})

    def test_manifest_stamps_identity(self):
        report = self.report()
        for key in ("config_hash", "git_sha", "seed", "engine"):
            assert key in report["manifest"]


class TestServeTracing:
    def test_request_lifecycle_lanes_in_chrome_trace(self):
        from repro.trace import install_tracer, uninstall_tracer
        from repro.trace.export import chrome_trace, iter_chrome_events, \
            validate_chrome_trace

        scenario = small_scenario("fast")
        with use_session(cache_enabled=False) as session:
            tracer = install_tracer(session, capacity=None)
            try:
                run_serve(scenario, session=session)
            finally:
                uninstall_tracer(session)
            payload = chrome_trace(tracer)
        summary = validate_chrome_trace(payload)
        assert any(track.startswith("serve.req")
                   for track in summary["tracks"])
        assert "serve.batcher" in summary["tracks"]
        assert "serve.queue" in summary["tracks"]
        spans = [event for event in iter_chrome_events(payload)
                 if event.get("cat") == "serve" and event["ph"] == "X"]
        names = {span["name"] for span in spans}
        assert {"queue_wait", "engine_infer"} <= names

    def test_shed_events_render_as_admission_instants(self):
        from repro.trace import install_tracer, uninstall_tracer
        from repro.trace.export import chrome_trace, validate_chrome_trace

        scenario = small_scenario("fast", device=SLOW_DEVICE, requests=4,
                                  batch_window_ms=0.0, max_queue_depth=1)
        with use_session(cache_enabled=False) as session:
            tracer = install_tracer(session, capacity=None)
            try:
                run_serve(scenario, session=session)
            finally:
                uninstall_tracer(session)
        summary = validate_chrome_trace(chrome_trace(tracer))
        assert "serve.admission" in summary["tracks"]
