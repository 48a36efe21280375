"""End-to-end serving: batching, admission control, report, tracing."""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import PHASES
from repro.scenario import Scenario, ServeSpec, WorkloadSpec
from repro.serve import (
    NCPUServer,
    ServePolicy,
    arrival_offsets,
    build_slo_report,
    drive,
    render_slo_report,
    serve_scenario,
    validate_slo_report,
    write_slo_report,
)
from repro.sim import use_session


def small_scenario(engine: str = "fast", **serve_fields) -> Scenario:
    serve = {"arrival": "poisson", "rate_rps": 4000.0, "requests": 24,
             "batch_window_ms": 1.0, "max_batch": 8, **serve_fields}
    return Scenario(
        name="serve-test",
        workload=WorkloadSpec(kind="bnn", name="random",
                              layer_sizes=(24, 16, 10)),
        batch_size=8,
        serve=ServeSpec(**serve)).with_engine(name=engine)


def run_serve(scenario, session=None, with_server=False):
    return serve_scenario(scenario, session=session,
                          with_server=with_server)


class TestServeEndToEnd:
    @pytest.mark.parametrize("engine", ["accurate", "fast"])
    def test_full_session_meets_report_schema(self, engine):
        scenario = small_scenario(engine)
        with use_session(cache_enabled=False) as session:
            report, server = run_serve(scenario, session=session,
                                       with_server=True)
        summary = validate_slo_report(report)
        assert summary["requests"] == 24
        assert report["engine"] == engine
        assert report["requests"]["completed"] == 24
        assert report["batches"]["count"] >= 24 / 8
        assert report["batches"]["sim_cycles"] > 0
        # every request partitioned its latency into the six phases
        for request in server.requests:
            assert set(request.phases_s) == set(PHASES)
            assert sum(request.phases_s.values()) == \
                pytest.approx(request.latency_s, abs=1e-6)

    def test_predictions_match_direct_engine_batch(self):
        """Dynamic batching must not change any prediction: each request's
        answer equals the engine's whole-pool batched answer for its row."""
        import numpy as np

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
        predictions = {}
        for engine in ("accurate", "fast"):
            scenario = small_scenario(engine)
            with use_session(cache_enabled=False) as session:
                _, server = run_serve(scenario, session=session,
                                      with_server=True)
            predictions[engine] = [request.prediction
                                   for request in server.requests]
        assert predictions["fast"] == predictions["accurate"]

    def test_rejects_cpu_scenarios(self):
        scenario = Scenario(
            name="cpu", workload=WorkloadSpec(kind="cpu", name="dhrystone",
                                              layer_sizes=()))
        with use_session(cache_enabled=False):
            with pytest.raises(ConfigurationError, match="bnn"):
                NCPUServer(scenario)

    def test_submit_requires_running_server(self):
        scenario = small_scenario()
        with use_session(cache_enabled=False):
            server = NCPUServer(scenario)
            with pytest.raises(RuntimeError, match="not running"):
                asyncio.run(server.submit([1.0] * 24))

    def test_max_batch_bounds_every_batch(self):
        scenario = small_scenario("fast", rate_rps=50000.0, requests=40,
                                  max_batch=4)
        with use_session(cache_enabled=False) as session:
            _, server = run_serve(scenario, session=session,
                                  with_server=True)
        assert server.recorder.batch_sizes
        assert max(server.recorder.batch_sizes) <= 4
        assert sum(server.recorder.batch_sizes) == 40


class TestAdmissionControl:
    def test_zero_depth_policy_sheds_everything(self):
        scenario = small_scenario("fast")
        policy = ServePolicy(max_queue_depth=0)

        async def main(session):
            server = NCPUServer(scenario, policy=policy, session=session)
            async with server:
                rows = [[1.0] * 24] * 5
                results = await asyncio.gather(
                    *(server.submit(row) for row in rows))
            return server, results

        with use_session(cache_enabled=False) as session:
            server, results = asyncio.run(main(session))
        assert all(request.status == "shed" for request in results)
        assert server.recorder.shed == 5
        assert server.recorder.completed == 0
        assert session.stats.as_dict()["counters"].get(
            "serve.requests.shed") == 5

    def test_expired_requests_time_out_at_assembly(self):
        scenario = small_scenario("fast")
        policy = ServePolicy(timeout_s=0.0, batch_window_s=0.001)

        async def main(session):
            server = NCPUServer(scenario, policy=policy, session=session)
            async with server:
                result = await server.submit([1.0] * 24)
            return server, result

        with use_session(cache_enabled=False) as session:
            server, result = asyncio.run(main(session))
        assert result.status == "timeout"
        assert result.prediction is None
        assert server.recorder.timeouts == 1
        # a timed-out request still closes its phase partition
        assert sum(result.phases_s.values()) == \
            pytest.approx(result.latency_s, abs=1e-6)

    def test_shed_and_timeouts_conserve_request_count(self):
        scenario = small_scenario("fast", requests=16, rate_rps=8000.0)
        policy = ServePolicy(max_queue_depth=2, batch_window_s=0.001,
                             max_batch=4)

        async def main(session):
            server = NCPUServer(scenario, policy=policy, session=session)
            rows = [[1.0] * 24] * 16
            offsets = arrival_offsets("uniform", 8000.0, 16)
            async with server:
                await drive(server, rows, offsets)
            return server

        with use_session(cache_enabled=False) as session:
            server = asyncio.run(main(session))
        recorder = server.recorder
        assert recorder.completed + recorder.shed + recorder.timeouts \
            == recorder.requests == 16
        report = build_slo_report(server, list(range(16)))
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
        target = write_slo_report(report, tmp_path / "slo.json")
        loaded = json.loads(target.read_text())
        assert validate_slo_report(loaded)["requests"] == 24

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
        assert {"enqueue", "batch_assemble", "dispatch", "engine_infer",
                "respond"} <= names

    def test_shed_events_render_as_admission_instants(self):
        from repro.trace import install_tracer, uninstall_tracer
        from repro.trace.export import chrome_trace, validate_chrome_trace

        scenario = small_scenario("fast")
        policy = ServePolicy(max_queue_depth=0)

        async def main(session):
            server = NCPUServer(scenario, policy=policy, session=session)
            async with server:
                await server.submit([1.0] * 24)

        with use_session(cache_enabled=False) as session:
            tracer = install_tracer(session, capacity=None)
            try:
                asyncio.run(main(session))
            finally:
                uninstall_tracer(session)
        summary = validate_chrome_trace(chrome_trace(tracer))
        assert "serve.admission" in summary["tracks"]
