"""Shared measurement plumbing: percentiles, set-up timing, memory,
simulated-statistics digest and run provenance."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

#: times set-up is repeated in one run; ``setup_s`` is the median
SETUP_REPEATS = 3

#: session counters that make up the simulated-statistics digest
DIGEST_COUNTERS = {
    "cpu_cycles": "cpu.pipeline.cycles",
    "cpu_instructions": "cpu.pipeline.instructions",
    "cpu_stall_cycles": "cpu.pipeline.stalls",
    "cpu_flush_cycles": "cpu.pipeline.flushes",
    "cpu_mem_reads": "cpu.pipeline.mem_reads",
    "cpu_mem_writes": "cpu.pipeline.mem_writes",
    "bnn_cycles": "bnn.cycles",
    "bnn_macs": "bnn.macs",
    "bnn_inferences": "bnn.inferences",
}


@dataclass
class RunContext:
    """What one workload run is given."""

    root: Path
    seed: int
    seconds: float
    workdir: Path
    #: the span recorder of a traced run, else None
    recorder: Any = None

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def set_item(self, item: Any) -> None:
        if self.recorder is not None:
            self.recorder.item = item


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int
    failed: int
    #: end-to-end metrics (name -> value)
    metrics: Dict[str, float]
    #: simulated statistics of the timed region (must repeat exactly)
    digest: Dict[str, int]
    #: workload-specific numbers for the detail record
    detail: Dict[str, Any] = field(default_factory=dict)
    #: descriptions of failed checks (empty on a correct run)
    errors: List[str] = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


#: reference time of each calibration kernel: the fast state of the
#: two-core machine the bounds in BENCHMARK.json were set on.  Normalized
#: times are host times scaled to a host where the kernel takes this long.
CALIBRATION_REFERENCE_S = {"python": 0.0035, "numpy": 0.0030,
                           "mixed": 0.0065}


class Calibration:
    """Times a fixed kernel to measure the host's current speed.

    ``python`` is an interpreter-bound loop, like the pipeline simulator;
    ``numpy`` is XOR-popcount over packed words, like
    the fast engine's kernels on large batches; ``mixed`` runs both.
    """

    def __init__(self, kernel: str):
        if kernel not in CALIBRATION_REFERENCE_S:
            raise ValueError(f"unknown calibration kernel {kernel!r}")
        self.kernel = kernel
        rng = np.random.default_rng(0)
        self._words = rng.integers(0, 2 ** 63, size=(256, 1024),
                                   dtype=np.uint64)
        self._row = rng.integers(0, 2 ** 63, size=1024, dtype=np.uint64)

    def _run(self) -> None:
        if self.kernel in ("python", "mixed"):
            total = 0
            for value in range(100_000):
                total += value
        if self.kernel in ("numpy", "mixed"):
            for _ in range(4):
                np.bitwise_count(self._words ^ self._row).sum(axis=1)

    def speed(self, repeats: int = 3,
              clock: Callable[[], float] = time.perf_counter) -> float:
        """Current host slowness: the median of ``repeats`` timed runs of
        the kernel over its reference time (1.0 on the reference host,
        1.5 when everything takes half as long again)."""
        samples = []
        for _ in range(repeats):
            start = clock()
            self._run()
            samples.append(clock() - start)
        return statistics.median(samples) \
            / CALIBRATION_REFERENCE_S[self.kernel]


class SpeedSampler:
    """Samples the host's slowness on the core a child process is pinned
    to, while it runs (the suite workload, whose passes cannot be split
    into calibrated rounds).

    The sampler thread shares the child's core and runs one kernel every
    ``SAMPLE_INTERVAL_S``, a few percent of the core.  It times the
    kernel in thread CPU time, which counts only while the sampler runs,
    so it measures how fast the core executes, not how long the child
    kept the sampler waiting.  Use as a context manager around the child.
    """

    SAMPLE_INTERVAL_S = 0.2

    def __init__(self, cpu: Optional[int]):
        self.cpu = cpu
        self.calibration = Calibration("mixed")
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.wait(self.SAMPLE_INTERVAL_S):
            self.samples.append(self.calibration.speed(
                repeats=1, clock=time.thread_time))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def slowness(self) -> float:
        return statistics.mean(self.samples) if self.samples else 1.0


def child_core() -> Optional[int]:
    """The core the suite's child and its sampler share (None: any)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1] if cpus else None


class Rounds:
    """Item latencies grouped in rounds of equal work, timed between
    calibrations of the host's speed.

    Host speed on a shared machine drifts by up to 1.5x for seconds at a
    time, per core, and a whole 10 s run can sit in a slow stretch.  Each
    item's latency is divided by the host's slowness at that moment (the
    mean of the calibrations on either side of it: after every item with
    ``per_item``, else after every round), and the metrics are medians
    over the rounds, so they estimate the program's speed on the
    reference host.  ``kernels`` names the calibration kernel that
    normalizes each of ``ops_per_s``, ``latency_p50_ms`` and
    ``latency_p99_ms``: the one whose work is most like the work that
    sets that metric.
    """

    def __init__(self, kernels: Dict[str, str], per_item: bool = False):
        self.kernels = kernels
        self.per_item = per_item
        self.calibrations = {kernel: Calibration(kernel)
                             for kernel in set(kernels.values())}
        #: per round: (latency, {kernel: slowness}) per item
        self.rounds: List[List[tuple]] = []
        self.work: List[float] = []
        self._items: List[tuple] = []
        self._pending: List[float] = []
        self._last = self._calibrate()

    def _calibrate(self) -> Dict[str, float]:
        return {kernel: calibration.speed()
                for kernel, calibration in self.calibrations.items()}

    def _mark(self) -> None:
        now = self._calibrate()
        slowness = {kernel: (self._last[kernel] + value) / 2
                    for kernel, value in now.items()}
        self._items.extend((latency, slowness) for latency in self._pending)
        self._pending = []
        self._last = now

    def add_item(self, latency: float) -> None:
        self._pending.append(latency)
        if self.per_item:
            self._mark()

    def end_round(self, work: float) -> None:
        """Close a round whose items did ``work`` units between them."""
        if self._pending:
            self._mark()
        self.rounds.append(self._items)
        self.work.append(work)
        self._items = []

    def __len__(self) -> int:
        return len(self.rounds)

    def _normalized(self, metric: str) -> List[List[float]]:
        kernel = self.kernels[metric]
        return [[latency / slowness[kernel] for latency, slowness in items]
                for items in self.rounds]

    def metrics(self) -> Dict[str, float]:
        """Median over rounds of the normalized throughput, median item
        latency and p99 item latency."""
        return {
            "ops_per_s": statistics.median(
                units / sum(latencies) for latencies, units
                in zip(self._normalized("ops_per_s"), self.work)),
            "latency_p50_ms": 1e3 * statistics.median(
                percentile(latencies, 0.50)
                for latencies in self._normalized("latency_p50_ms")),
            "latency_p99_ms": 1e3 * statistics.median(
                percentile(latencies, 0.99)
                for latencies in self._normalized("latency_p99_ms")),
        }

    def raw(self) -> Dict[str, float]:
        """The same metrics over every item, in host seconds as measured
        (for the detail record; they carry the host's drift), with the
        median slowness each kernel measured."""
        items = [item for round_ in self.rounds for item in round_]
        latencies = [latency for latency, _ in items]
        return {
            "ops_per_s": sum(self.work) / sum(latencies),
            "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
            "latency_p99_ms": 1e3 * percentile(latencies, 0.99),
            **{f"slowness_{kernel}": statistics.median(
                slowness[kernel] for _, slowness in items)
               for kernel in self.calibrations},
        }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def child_env(root: Path, cache_dir: Path) -> Dict[str, str]:
    """Environment for a child interpreter: the checkout's sources, the
    run's private artifact cache, and no inherited ``REPRO_*`` choice."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent.parent)])
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def import_time_s(root: Path, cache_dir: Path, modules: Sequence[str],
                  repeats: int = SETUP_REPEATS) -> float:
    """Median wall time for a fresh interpreter to import ``modules``."""
    code = "import " + ", ".join(modules)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=child_env(root, cache_dir), cwd=str(root))
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def median_setup(build: Callable[[], Any],
                 repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; ``(median seconds, last result)``."""
    samples = []
    result = None
    for _ in range(repeats):
        result = None  # let the previous build go before timing the next
        start = time.perf_counter()
        result = build()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def counters() -> Dict[str, float]:
    from repro.sim import get_session

    return dict(get_session().stats.counters())


def digest(before: Dict[str, float], after: Dict[str, float]
           ) -> Dict[str, int]:
    """Simulated statistics accumulated between two counter snapshots."""
    return {name: int(after.get(key, 0) - before.get(key, 0))
            for name, key in DIGEST_COUNTERS.items()}


def source_sha256(root: Path) -> str:
    """Content hash of the program's sources (identifies the code when
    the checkout is not a git repository)."""
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root),
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip() or None


def provenance(root: Path, seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "platform": platform.platform(),
    }
