"""The serving front-end: dynamic batching on a virtual clock.

:class:`NCPUServer` replays a pre-computed open-loop arrival schedule
against one modelled NCPU.  Time is virtual: a request is stamped with
its scheduled arrival offset, and a batch occupies the single device for
``timing.total_cycles / f`` seconds, where ``f`` is the scenario's
device clock (:func:`device_clock_hz`).  Nothing reads the host clock,
so one schedule always gives one report.

The policy:

* **admission** — an arrival is shed when ``max_queue_depth`` requests
  are already queued;
* **batching** — a batch opens at the head of the queue once the device
  is free, and closes ``batch_window_ms`` later or as soon as it holds
  ``max_batch`` requests;
* **timeouts** — a request older than ``timeout_ms`` when its batch
  closes is timed out.

Each batch makes exactly one ``BNNAccelerator.infer_batch`` call, so
predictions are bit-identical to a direct batched call.  A request's
latency splits into the six ``repro.obs`` phases: the queue wait
(submit → dispatch) is ``overhead``; the batch's device time is split by
:func:`~repro.obs.attribution.bnn_phase_cycles`; ``preprocess`` and
``postprocess`` are 0.  The lifecycle is published as ``serve.request``
/ ``serve.batch`` / ``serve.shed`` / ``serve.timeout`` probe events on
the session :class:`~repro.sim.StatsRegistry`, so an installed tracer
shows per-request Perfetto lanes with no extra code here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import OVERHEAD, PHASES, bnn_phase_cycles
from repro.scenario.schema import DevicePoint, Scenario
from repro.serve.slo import SLORecorder

#: request outcomes
OK = "ok"
SHED = "shed"
TIMEOUT = "timeout"


def device_clock_hz(device: DevicePoint) -> float:
    """The modelled core clock of a scenario's device point, in Hz.

    ``device.clock_mhz`` when set, otherwise the profile's frequency
    model evaluated at ``device.vdd``.
    """
    if device.clock_mhz is not None:
        return device.clock_mhz * 1e6
    from repro.power import get_profile, models_for

    return models_for(get_profile(device.profile)).frequency.f_hz(device.vdd)


@dataclass
class Request:
    """One served classification request and its lifecycle stamps.

    All ``t_*`` fields are virtual seconds from the schedule origin.  A
    shed request responds at submit; a timed-out one at its batch's
    close and is never dispatched (``t_dispatch`` stays 0.0).
    """

    index: int
    t_submit: float
    status: str = OK
    prediction: Optional[int] = None
    batch_index: Optional[int] = None
    batch_size: int = 0
    t_dispatch: float = 0.0
    t_respond: float = 0.0
    phases_s: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.t_respond - self.t_submit

    def respond(self, t_respond: float, status: str) -> None:
        """Resolve without device work: the whole wait is overhead."""
        self.status = status
        self.t_respond = t_respond
        self.phases_s = dict.fromkeys(PHASES, 0.0)
        self.phases_s[OVERHEAD] = t_respond - self.t_submit


class NCPUServer:
    """Dynamic-batching inference server over one bnn scenario.

    :meth:`run` serves one arrival schedule; one server serves one
    schedule.
    """

    def __init__(self, scenario: Scenario, engine: Optional[str] = None,
                 session=None):
        from repro.bnn import BNNAccelerator
        from repro.engine import resolve_engine
        from repro.scenario.materialize import build_model
        from repro.sim import get_session

        if scenario.workload.kind != "bnn":
            raise ConfigurationError(
                f"scenario {scenario.name!r} is "
                f"kind={scenario.workload.kind!r}; the serve layer batches "
                "bnn classification scenarios only")
        self.scenario = scenario
        self.spec = scenario.serve
        self.engine = resolve_engine(engine or scenario.engine.name)
        self.session = session if session is not None else get_session()
        self.model = build_model(scenario)
        self.accelerator = BNNAccelerator()
        self.stream_weights = scenario.batch_policy == "stream"
        self.clock_hz = device_clock_hz(scenario.device)
        self.recorder = SLORecorder()
        self.requests: List[Request] = []
        self.sim_cycles = 0
        self.sim_macs = 0
        self.makespan_s = 0.0

    def run(self, rows: Sequence, offsets: Sequence[float]
            ) -> List[Request]:
        """Submit ``rows[k]`` at virtual time ``offsets[k]`` (open loop)
        and serve until every request resolved; returns the requests."""
        if len(rows) < len(offsets):
            raise ConfigurationError(
                f"serve: {len(offsets)} offsets but only {len(rows)} input "
                "rows")
        spec = self.spec
        window_s = spec.batch_window_ms / 1e3
        queue = deque()  # admitted (request, row) awaiting a batch
        free_at = 0.0  # when the device can take the next batch
        running = 0  # requests of the batch on the device until free_at
        k = 0
        while True:
            # arrivals while the device is busy, or the one that opens
            # the next batch on an idle device, join the queue
            while k < len(offsets) and (not queue or offsets[k] < free_at):
                busy = running if offsets[k] < free_at else 0
                entry = self._arrive(k, offsets[k], rows[k], len(queue),
                                     len(queue) + busy)
                if entry is not None:
                    queue.append(entry)
                k += 1
            if not queue:
                break
            t_open = max(free_at, queue[0][0].t_submit)
            batch = [queue.popleft()
                     for _ in range(min(len(queue), spec.max_batch))]
            t_close = t_open + window_s
            # the queue is empty while the batch has room, so window
            # arrivals are never shed and join the batch at once
            while len(batch) < spec.max_batch and k < len(offsets) \
                    and offsets[k] <= t_close:
                batch.append(self._arrive(k, offsets[k], rows[k], 0,
                                          len(batch)))
                k += 1
            if len(batch) == spec.max_batch:
                t_close = max(t_open, batch[-1][0].t_submit)
            free_at, running = self._dispatch(batch, t_close, len(queue))
        self.makespan_s = max(request.t_respond for request in self.requests)
        return self.requests

    def _arrive(self, index: int, t: float, row, depth: int, others: int):
        """Admit or shed one arrival; returns its queue entry or None."""
        request = Request(index=index, t_submit=t)
        self.requests.append(request)
        self.recorder.record_submit(depth, others + 1)
        if depth >= self.spec.max_queue_depth:
            request.respond(t, SHED)
            self.recorder.record_shed()
            self.session.stats.incr("serve.requests.shed")
            self.session.stats.emit("serve.shed", {
                "request": index, "t_s": t, "queue_depth": depth})
            return None
        self.session.stats.incr("serve.requests.submitted")
        return request, row

    def _dispatch(self, batch, t_close: float, queue_depth: int):
        """Close a batch at ``t_close``; returns (device free time,
        requests on the device)."""
        import numpy as np

        timeout_s = self.spec.timeout_ms / 1e3
        live = []
        for request, row in batch:
            age = t_close - request.t_submit
            if age > timeout_s:
                request.respond(t_close, TIMEOUT)
                self.recorder.record_timeout()
                self.session.stats.incr("serve.requests.timeout")
                self.session.stats.emit("serve.timeout", {
                    "request": request.index, "t_s": t_close,
                    "age_s": age})
            else:
                live.append((request, row))
        if not live:
            return t_close, 0
        batch_index = len(self.recorder.batch_sizes)
        predictions, timing = self.accelerator.infer_batch(
            self.model, np.stack([row for _, row in live]),
            stream_weights=self.stream_weights, engine=self.engine)
        cycles = int(timing.total_cycles)
        t_done = t_close + cycles / self.clock_hz
        device_phases = {phase: phase_cycles / self.clock_hz
                         for phase, phase_cycles
                         in bnn_phase_cycles(timing).items()}
        self.sim_cycles += cycles
        self.sim_macs += int(timing.macs)
        self.recorder.record_batch(len(live))
        self.session.stats.incr("serve.batches")
        self.session.stats.incr("serve.batch_rows", len(live))
        for position, (request, _) in enumerate(live):
            request.prediction = int(predictions[position])
            request.batch_index = batch_index
            request.batch_size = len(live)
            request.t_dispatch = t_close
            request.t_respond = t_done
            request.phases_s = dict(device_phases)
            request.phases_s[OVERHEAD] = t_close - request.t_submit
            self.recorder.record_completion(request.latency_s,
                                            request.phases_s)
            self.session.stats.incr("serve.requests.completed")
            self.session.stats.emit("serve.request", {
                "request": request.index, "status": request.status,
                "batch": batch_index, "batch_size": len(live),
                "submit_s": request.t_submit,
                "dispatch_s": request.t_dispatch,
                "respond_s": request.t_respond})
        self.session.stats.emit("serve.batch", {
            "batch": batch_index, "size": len(live),
            "dispatch_s": t_close, "done_s": t_done,
            "queue_depth": queue_depth, "cycles": cycles})
        return t_done, len(live)
