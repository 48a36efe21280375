"""System-on-chip models: the two-core NCPU SoC and the heterogeneous
baseline (paper Fig 6).

* :class:`NCPUSoC` — N reconfigurable cores sharing an incoherent L2 through
  the write-through ``sw_l2``/``lw_l2`` instructions and a DMA engine.
* :class:`HeterogeneousSoC` — the conventional organization: one CPU core
  plus one standalone BNN accelerator with its own scratchpad.  Inputs must
  be *offloaded* (DMA'd) into the accelerator, and the accelerator runs
  concurrently with the CPU's work on the next item.

Both execute real programs/models (functional fidelity) while tracking
per-core cycle clocks and timelines.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bnn import quantize as q
from repro.bnn.accelerator import AcceleratorConfig, BNNAccelerator
from repro.bnn.model import BNNModel
from repro.core import events
from repro.core.ncpu import NCPUCore
from repro.core.transition import TransitionPolicy
from repro.cpu import CoreEnv, RunResult, run_program
from repro.cpu.memory import FlatMemory
from repro.errors import ConfigurationError, SimulationError
from repro.isa import Program
from repro.mem.bus import DEFAULT_L2_BYTES, SharedL2, SystemBus
from repro.mem.dma import DMAEngine
from repro.sim import get_session


class NCPUSoC:
    """The fabricated two-core NCPU system."""

    def __init__(
        self,
        n_cores: int = 2,
        l2_bytes: int = DEFAULT_L2_BYTES,
        accelerator_config: Optional[AcceleratorConfig] = None,
        transition_policy: Optional[TransitionPolicy] = None,
        engine=None,
    ):
        if n_cores < 1:
            raise ConfigurationError("need at least one core")
        self.l2 = SharedL2(size=l2_bytes)
        self.bus = SystemBus(self.l2)
        self.dma = DMAEngine()
        self.bus.register_client("dma")
        self.cores: List[NCPUCore] = []
        for index in range(n_cores):
            core = NCPUCore(name=f"ncpu{index}", l2=self.l2,
                            accelerator_config=accelerator_config,
                            transition_policy=transition_policy,
                            engine=engine)
            self.bus.register_client(core.name)
            self.cores.append(core)

    def core(self, index: int) -> NCPUCore:
        return self.cores[index]

    def load_model_all(self, model: BNNModel) -> None:
        for core in self.cores:
            core.load_model(model)

    def merged_timeline(self) -> events.Timeline:
        timeline = events.Timeline()
        for core in self.cores:
            timeline.segments.extend(core.timeline.segments)
        return timeline

    @property
    def makespan(self) -> int:
        return max((core.clock for core in self.cores), default=0)

    def utilizations(self) -> dict:
        """Per-core busy fraction over the SoC makespan."""
        span = self.makespan
        if span == 0:
            utils = {core.name: 0.0 for core in self.cores}
        else:
            utils = {core.name: core.timeline.busy_cycles(core.name) / span
                     for core in self.cores}
        stats = get_session().stats
        for name, value in utils.items():
            stats.set_gauge(f"soc.utilization.{name}", value)
        return utils

    # -- cooperative mode ---------------------------------------------------
    def run_chained_inference(self, model: BNNModel, x_signs,
                              split_at: Optional[int] = None):
        """Run a deep BNN with the two cores connected in series.

        Paper section VI.A: the cores can "operate cooperatively, e.g. form
        a deeper neural network accelerator by connecting these two NCPU
        cores in series".  Core 0 evaluates the front layers, the DMA moves
        the packed binary activations into core 1's image memory, and
        core 1 finishes the network.  Inference is pipelined across the
        batch: core 0 starts image *i+1* while core 1 digests image *i*.

        Returns ``(predictions, makespan_cycles)``.
        """
        import numpy as np

        from repro.bnn import quantize as q_mod

        if len(self.cores) < 2:
            raise ConfigurationError("chained inference needs two cores")
        x_signs = np.asarray(x_signs)
        if x_signs.ndim == 1:
            x_signs = x_signs[None, :]
        n_inputs = len(x_signs)
        split = split_at if split_at is not None else (model.n_layers + 1) // 2
        front, back = model.split(split)
        core0, core1 = self.cores[0], self.cores[1]
        core0.load_model(front)
        core1.load_model(back)

        # functional path: real bank writes at each hop; the resolved
        # engine supplies the (bit-identical) forward math for both halves
        engine = core0.engine
        activations = engine.hidden_forward(front, x_signs)
        predictions = engine.predict(back, activations)
        words_per_act = (front.n_classes + 31) // 32
        for index in range(n_inputs):
            packed = q_mod.pack_bits(q_mod.sign_to_bits(activations[index]))
            core1.memory.banks["image"].write_words(
                4 * words_per_act * index, [int(w) for w in packed])
            core1.memory.write_result(index, int(predictions[index]))

        # timing: a three-stage pipeline (front / DMA / back)
        front_interval = core0.accelerator.interval_cycles(front)
        back_interval = core1.accelerator.interval_cycles(back)
        dma_cycles = self.dma.transfer_cycles(words_per_act)
        front_latency = core0.accelerator.latency_cycles(front)
        back_latency = core1.accelerator.latency_cycles(back)
        bottleneck = max(front_interval, back_interval, dma_cycles)
        makespan = (front_latency + dma_cycles + back_latency
                    + (n_inputs - 1) * bottleneck)

        start0 = core0.clock
        core0.timeline.add(core0.name, events.BNN, start0,
                           start0 + front_latency + (n_inputs - 1) * bottleneck,
                           f"chained front x{n_inputs}")
        core0.clock = start0 + front_latency + (n_inputs - 1) * bottleneck
        start1 = core1.clock + front_latency + dma_cycles
        core1.timeline.add(core1.name, events.IDLE, core1.clock, start1,
                           "waiting on chained front")
        core1.timeline.add(core1.name, events.BNN, start1,
                           start1 + back_latency + (n_inputs - 1) * bottleneck,
                           f"chained back x{n_inputs}")
        core1.clock = start1 + back_latency + (n_inputs - 1) * bottleneck
        self.bus.account("dma", words_per_act * n_inputs)
        return [int(p) for p in predictions], makespan


class BNNAcceleratorDevice:
    """A standalone BNN accelerator with a private input scratchpad."""

    def __init__(self, config: Optional[AcceleratorConfig] = None):
        self.accelerator = BNNAccelerator(config)
        self.scratchpad = FlatMemory(size=8 * 1024)
        self.model: Optional[BNNModel] = None
        self.free_at = 0
        self.results: List[int] = []

    def load_model(self, model: BNNModel) -> None:
        self.accelerator.check_model(model)
        self.model = model

    def classify_packed(self, start_cycle: int, n_inputs: int) -> int:
        """Run inference on the scratchpad contents; returns finish cycle."""
        if self.model is None:
            raise SimulationError("accelerator has no model loaded")
        words_per_input = (self.model.input_size + 31) // 32
        signs = []
        for index in range(n_inputs):
            words = np.array(
                self.scratchpad.read_words(4 * words_per_input * index,
                                           words_per_input),
                dtype=np.uint32,
            )
            signs.append(q.bits_to_sign(q.unpack_bits(words,
                                                      self.model.input_size)))
        predictions = self.model.predict_batch(np.array(signs))
        self.results.extend(int(p) for p in predictions)
        timing = self.accelerator.batch_timing(self.model, n_inputs,
                                               stream_weights=False)
        begin = max(start_cycle, self.free_at)
        self.free_at = begin + timing.total_cycles
        return self.free_at


class HeterogeneousSoC:
    """The conventional CPU + BNN-accelerator baseline."""

    def __init__(self, accelerator_config: Optional[AcceleratorConfig] = None,
                 memory_bytes: int = 1 << 17):
        self.cpu_memory = FlatMemory(size=memory_bytes)
        self.l2 = SharedL2()
        self.env = CoreEnv(l2=self.l2)
        self.device = BNNAcceleratorDevice(accelerator_config)
        self.dma = DMAEngine()
        self.timeline = events.Timeline()
        self.cpu_clock = 0

    # -- CPU side ---------------------------------------------------------
    def run_cpu_program(self, program: Program,
                        max_cycles: int = 50_000_000,
                        label: str = "") -> RunResult:
        _, result = run_program(program, memory=self.cpu_memory, env=self.env,
                                max_cycles=max_cycles)
        self.timeline.add("cpu", events.CPU, self.cpu_clock,
                          self.cpu_clock + result.stats.cycles,
                          label or "program")
        self.cpu_clock += result.stats.cycles
        return result

    # -- offload + accelerate ----------------------------------------------
    def offload_and_classify(self, packed_addr: int, n_inputs: int = 1) -> None:
        """DMA the packed input to the accelerator, then launch it.

        The DMA blocks the CPU (software-managed offload on an incoherent
        low-cost SoC); the accelerator then runs concurrently.
        """
        if self.device.model is None:
            raise SimulationError("accelerator has no model loaded")
        words_per_input = (self.device.model.input_size + 31) // 32
        total_words = words_per_input * n_inputs
        cycles = self.dma.copy(self.cpu_memory, packed_addr,
                               self.device.scratchpad, 0, total_words,
                               description="offload")
        self.timeline.add("cpu", events.DMA, self.cpu_clock,
                          self.cpu_clock + cycles, "offload")
        self.cpu_clock += cycles
        start = self.cpu_clock
        previous_free = max(self.device.free_at, 0)
        if start > previous_free and previous_free < start:
            self.timeline.add("bnn", events.IDLE, previous_free, start)
        finish = self.device.classify_packed(start, n_inputs)
        self.timeline.add("bnn", events.BNN, max(start, previous_free), finish,
                          f"infer x{n_inputs}")

    # -- accounting ---------------------------------------------------------
    @property
    def makespan(self) -> int:
        return max(self.cpu_clock, self.device.free_at)

    def results(self) -> List[int]:
        return list(self.device.results)

    def utilizations(self) -> dict:
        span = self.makespan
        if span == 0:
            utils = {"cpu": 0.0, "bnn": 0.0}
        else:
            utils = {
                "cpu": self.timeline.busy_cycles("cpu") / span,
                "bnn": self.timeline.busy_cycles("bnn") / span,
            }
        stats = get_session().stats
        for name, value in utils.items():
            stats.set_gauge(f"soc.utilization.{name}", value)
        return utils
