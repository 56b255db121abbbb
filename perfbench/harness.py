"""Rounds, the host calibration kernels and the per-run statistics.

Every saturated phase runs as *rounds*: identical units of work (the same
number of steps, requests or tokens each time).  Between rounds a fixed
calibration mix is timed, made of some of: a 256x256 float32 matmul
(compute-bound BLAS), an 8 MB copy (memory-bound), an interpreter loop, tiny
NumPy calls (per-op overhead) and Python object churn.  Its time against
fixed reference times gives the host's speed factor at that moment (1.0 in
the fast state of the reference host, about 1.35 in its slow state).

The host switches between a fast and a slow speed state in phases of
seconds to tens of seconds, so whole runs can fall in one state.  Every
timed figure of a round is therefore divided by the speed factor measured
around it (the geometric mean of the calibrations just before and just
after the round): the figures read as on the reference host in its fast
state, and a change in the program still moves them, since the calibration
mix runs none of its code.  A run's throughput is its items over its
rounds' summed reference-speed time; its latency the median of every
light-phase sample at reference speed.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Callable, List, Optional

#: One BLAS/OpenMP thread, for this process and for the sharded worker
#: (``WorkerSpec.env``): the second OpenBLAS thread burns CPU on these GEMM
#: sizes without adding throughput (README.md).  Set before NumPy loads,
#: so ``run.py`` imports this module first.
PIN_BLAS = (("OMP_NUM_THREADS", "1"), ("OPENBLAS_NUM_THREADS", "1"),
            ("MKL_NUM_THREADS", "1"))
os.environ.update(PIN_BLAS)

import numpy as np  # noqa: E402  (after the BLAS thread count is pinned)

#: Fast-state times (ms) of the calibration kernels on the reference host
#: (2 vCPUs, Python 3.11, OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_MS = {"matmul": 1.6, "copy": 2.4, "interp": 1.3, "small_ops": 1.3,
                "objects": 2.4}


#: The mix for work dominated by BLAS, array passes and interpreted loops.
ARRAY_KERNELS = ("matmul", "copy", "interp")
#: The mix for work dominated by per-call overhead on tiny arrays.
ALL_KERNELS = tuple(REFERENCE_MS)


class _Item:
    def __init__(self, value):
        self.value = value


class HostCalibration:
    """Fixed kernels whose time tracks the host, not the program.

    ``kernels`` names the kernels of the mix.  ``cpus`` lists the CPUs whose
    speed matters when the work spans more than the calling thread's CPU;
    the mix then runs on each of them in turn and the factor is the
    geometric mean.
    """

    def __init__(self, kernels=ARRAY_KERNELS, cpus: Optional[List[int]] = None):
        self.kernels = [(name, getattr(self, "_" + name), REFERENCE_MS[name])
                        for name in kernels]
        self.cpus = cpus
        rng = np.random.default_rng(20220402)
        self.a = rng.standard_normal((256, 256), dtype=np.float32)
        self.b = rng.standard_normal((256, 256), dtype=np.float32)
        self.src = rng.standard_normal(1 << 21, dtype=np.float32)
        self.dst = np.empty_like(self.src)
        self.x = rng.standard_normal((8, 16))
        self.w = rng.standard_normal((16, 16))
        self.samples_ms: List[float] = []
        self()

    def _matmul(self):
        for _ in range(4):
            np.matmul(self.a, self.b)

    def _copy(self):
        for _ in range(2):
            np.copyto(self.dst, self.src)

    def _interp(self):
        total = 0
        for i in range(25000):
            total += i & 7
        return total

    def _small_ops(self):
        for _ in range(300):
            y = np.matmul(self.x, self.w) + self.x
            y.argmax(axis=-1)
            np.concatenate([y, self.x], axis=0)

    def _objects(self):
        table = {}
        for i in range(6000):
            item = _Item(i)
            table[i % 97] = item
            pair = [item.value, i]
            table.get(pair[1] % 13)

    def __call__(self) -> float:
        """Time the mix; return the speed factor (>1 on a slower host)."""
        if not self.cpus:
            return self._measure()
        saved = os.sched_getaffinity(0)
        try:
            log_factors = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                log_factors.append(math.log(self._measure()))
        finally:
            os.sched_setaffinity(0, saved)
        return math.exp(sum(log_factors) / len(log_factors))

    def _measure(self) -> float:
        log_ratio = 0.0
        total_ms = 0.0
        for _, kernel, reference_ms in self.kernels:
            start = time.perf_counter()
            kernel()
            elapsed_ms = (time.perf_counter() - start) * 1e3
            total_ms += elapsed_ms
            log_ratio += math.log(elapsed_ms / reference_ms)
        self.samples_ms.append(total_ms)
        return math.exp(log_ratio / len(self.kernels))

    def around(self, fn: Callable[[], object]):
        """Run ``fn`` between two calibrations; return (result, seconds, factor)."""
        before = self()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        return result, elapsed, math.sqrt(before * self())


#: Rounds every saturated phase runs, however short its time.
MIN_ROUNDS = 2


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    items: int
    factor: float
    info: dict = field(default_factory=dict)


def run_rounds(seconds: float, round_fn: Callable[[], dict], items_per_round: int,
               calib: HostCalibration, recorder=None,
               span_name: str = "bench.round") -> List[Round]:
    """Run whole rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``).

    ``round_fn`` does one round of work and returns a dict of details; it
    must do the same work every time (the callers assert their counts).
    The calibration mix runs before the first round and after every round.
    A round that calibrates inside itself returns ``calib_s`` (the time it
    spent calibrating, taken out of its wall and CPU time: the mix keeps one
    CPU busy) and its own ``factor``.
    With a recorder, the calibrations and rounds are the root spans
    (``host.calib`` and ``span_name``) of the driving thread.
    """
    def calibrate() -> float:
        frame = recorder.open("host.calib") if recorder else None
        factor = calib()
        if frame is not None:
            recorder.close(frame)
        return factor

    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    factor_before = calibrate()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        frame = recorder.open(span_name) if recorder else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        info = round_fn()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if frame is not None:
            recorder.close(frame)
        factor_after = calibrate()
        info = info or {}
        inner = info.get("calib_s", 0.0)
        rounds.append(Round(wall - inner, cpu - inner, items_per_round,
                            info.get("factor", math.sqrt(factor_before * factor_after)),
                            info))
        factor_before = factor_after
    return rounds


def collect(futures) -> list:
    """Wait for every future of a round at once; return each result, or the
    exception of a failed operation in its place.

    One wake-up for the whole round: a client thread woken per future takes
    the interpreter lock from the serving thread each time.
    """
    wait(futures, timeout=120)
    results = []
    for future in futures:
        try:
            results.append(future.result(timeout=0))
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            results.append(error)
    return results


def throughput(rounds: List[Round]) -> float:
    """Items per second at reference host speed over all saturated rounds."""
    return sum(r.items for r in rounds) / sum(r.wall_s / r.factor for r in rounds)


def raw_throughput(rounds: List[Round]) -> float:
    return sum(r.items for r in rounds) / sum(r.wall_s for r in rounds)


def cpu_ms_per_item(rounds: List[Round]) -> float:
    return sum(r.cpu_s * 1e3 / r.factor for r in rounds) / sum(r.items for r in rounds)


def at_reference_speed(rounds: List[Round], per_round_ms: List[List[float]]) -> List[float]:
    """Each light-phase sample divided by its round's speed factor."""
    return [value / r.factor for r, values in zip(rounds, per_round_ms) for value in values]


def tail_percentile(latencies_ms: List[float]) -> Optional[tuple]:
    """Highest percentile (of 50, 90, 95, 99, 99.9) with at least ten samples
    beyond it, as ``(percentile, value_ms, sample_count)``; ``None`` with
    fewer than forty samples, where no such percentile is a tail."""
    count = len(latencies_ms)
    if count < 40:
        return None
    ordered = sorted(latencies_ms)
    best = None
    for pct in (50, 90, 95, 99, 99.9):
        index = int(np.ceil(pct / 100.0 * count)) - 1
        if count - 1 - index >= 10:
            best = (pct, ordered[index], count)
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup_fn: Callable[[], object], count: int,
                 dispose: Callable[[object], None], calib: HostCalibration):
    """Run ``setup_fn`` ``count`` times; return (last result, median seconds at
    reference host speed, raw seconds of each set-up).

    Every earlier result is disposed of before the next set-up starts.
    """
    normalized: List[float] = []
    raw: List[float] = []
    result = None
    for _ in range(count):
        if result is not None:
            dispose(result)
        result, seconds, factor = calib.around(setup_fn)
        raw.append(seconds)
        normalized.append(seconds / factor)
    return result, statistics.median(normalized), raw
