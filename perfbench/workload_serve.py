"""serve_mobilenet and serve_sharded_cnn: frozen BFP models behind a server.

Both run the same two phases, closed-loop or burst, never timer-driven:

* light: one request at a time (a client that waits for each reply), on a
  server with ``max_batch_size=1``, so no request waits for company;
* burst: every request of a round is queued at once, on a server with
  ``max_batch_size=BURST_BATCH`` and a flush delay far longer than any
  round, so every engine batch is full and the count of batches per round
  is fixed however the threads interleave.

Each response is checked against a forward made apart from the server on
the same input (and the same batch composition), so a response returned to
the wrong request fails.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import (ARRAY_KERNELS, PIN_BLAS, HostCalibration, at_reference_speed, collect,
                     run_rounds)

BURST_BATCH = 8
LIGHT_REQUESTS = 8
#: Share of the measured time given to the light phase.
LIGHT_SHARE = 0.3
#: Flush delay of the burst server: far longer than a round, so only a full
#: batch flushes.
HOLD_MS = 120_000.0
BFP = dict(exponent_bits=8, group_size=16)


def _quantize_for_serving(model) -> None:
    """4-bit BFP weights and activations (nearest rounding), eval mode."""
    from repro.core import BFPConfig
    from repro.training import FixedBFPSchedule
    FixedBFPSchedule(4, config=BFPConfig(**BFP), stochastic_gradients=False,
                     seed=0).prepare(model, 1)
    model.eval()


def light_phase(predict, requests: np.ndarray, seconds: float, calib, recorder):
    """Sequential requests; returns (rounds, per-round latencies, outputs)."""
    latencies: List[List[float]] = []
    outputs: List[list] = []

    def one_round():
        lat, outs = [], []
        for request in requests:
            start = time.perf_counter()
            result = predict(request)
            lat.append((time.perf_counter() - start) * 1e3)
            outs.append(result)
        latencies.append(lat)
        outputs.append(outs)
        return {}

    rounds = run_rounds(seconds, one_round, len(requests), calib, recorder=recorder,
                        span_name="bench.light_round")
    return rounds, latencies, outputs


def burst_phase(submit, requests: np.ndarray, seconds: float, calib, recorder):
    """Queue every request at once, then wait; returns (rounds, results)."""
    results: List[list] = []

    def one_round():
        results.append(collect([submit(request) for request in requests]))
        return {}

    rounds = run_rounds(seconds, one_round, len(requests), calib, recorder=recorder)
    return rounds, results


def score(light_out, light_expected, burst_out, burst_expected) -> Dict[str, object]:
    """Compare every response with its expected row (failed requests are
    counted by ``measure``)."""
    mismatched = 0
    batch_sizes = set()
    for outs in light_out:
        for got, want in zip(outs, light_expected):
            if not isinstance(got, Exception) and not np.array_equal(got.output, want):
                mismatched += 1
    for outs in burst_out:
        for got, want in zip(outs, burst_expected):
            if isinstance(got, Exception):
                continue
            batch_sizes.add(got.timing.batch_size)
            if not np.array_equal(got.output, want):
                mismatched += 1
    return {"mismatched": mismatched, "batch_sizes": batch_sizes}


def request_timings(burst_out) -> Dict[str, float]:
    """Median queue wait and server self time (total - queue - engine) per request."""
    queue_ms, self_ms = [], []
    for outs in burst_out:
        for got in outs:
            if not isinstance(got, Exception):
                t = got.timing
                queue_ms.append(t.queue_ms)
                self_ms.append(t.total_ms - t.queue_ms - t.compute_ms)
    return {"serving.server.queue.ms": float(np.median(queue_ms)) if queue_ms else 0.0,
            "serving.server.self.ms": float(np.median(self_ms)) if self_ms else 0.0}


class _ServedWorkload:
    """Shared measure/verify of the two served workloads."""

    item = "request"
    calibration = ARRAY_KERNELS
    #: The model's work is each batch the server's batching thread executes.
    model_entries = ("serving.server.execute",)
    input_shape = (3, 32, 32)
    burst_requests_per_round = 64

    def __init__(self, seed: int, workdir: Path, short: bool = False):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        burst = 2 * BURST_BATCH if short else self.burst_requests_per_round
        self.light_requests = rng.standard_normal(
            (LIGHT_REQUESTS,) + self.input_shape).astype(np.float32)
        self.burst_requests = rng.standard_normal(
            (burst,) + self.input_shape).astype(np.float32)
        self.outputs = {"light": [], "burst": []}
        self.engine_batches: List[float] = []

    def expected(self, forward):
        """Rows the light phase (batch 1) and the burst phase (full batches) must return."""
        light = [forward(r[None])[0] for r in self.light_requests]
        burst = []
        for start in range(0, len(self.burst_requests), BURST_BATCH):
            burst.extend(forward(self.burst_requests[start:start + BURST_BATCH]))
        return light, burst

    def measure(self, state, seconds: float, calib: HostCalibration, recorder=None):
        light_server, burst_server = self.servers(state)
        light_rounds, latencies, light_out = light_phase(
            light_server.predict, self.light_requests, seconds * LIGHT_SHARE, calib, recorder)
        before = self.batches(state)
        burst_rounds, burst_out = burst_phase(
            burst_server.submit, self.burst_requests, seconds * (1 - LIGHT_SHARE),
            calib, recorder)
        self.engine_batches.append((self.batches(state) - before) / len(burst_rounds))
        self.outputs["light"].extend(light_out)
        self.outputs["burst"].extend(burst_out)
        attempted = (len(light_rounds) * len(self.light_requests)
                     + len(burst_rounds) * len(self.burst_requests))
        failed = sum(isinstance(o, Exception) for outs in light_out + burst_out for o in outs)
        return {"rounds": burst_rounds,
                "latencies": at_reference_speed(light_rounds, latencies),
                "items": attempted,
                "attempted": attempted, "failed": failed, "extra": request_timings(burst_out)}

    def verify(self, state) -> Dict[str, bool]:
        light_expected, burst_expected = self.expected(self.reference_forward(state))
        result = score(self.outputs["light"], light_expected,
                       self.outputs["burst"], burst_expected)
        per_round = len(self.burst_requests) // BURST_BATCH
        return {
            "responses_match_reference_forward": result["mismatched"] == 0,
            "burst_batches_full": result["batch_sizes"] <= {BURST_BATCH},
            "engine_batches_per_round_fixed": all(b == per_round for b in self.engine_batches),
        }

    def checkpoint_kb(self, state) -> float:
        return state["path"].stat().st_size / 1024.0


class ServeMobileNet(_ServedWorkload):
    """Frozen BFP MobileNet-v2 (float32) behind an in-process InferenceServer."""

    name = "serve_mobilenet"
    burst_requests_per_round = 32

    def setup(self):
        from repro import serving
        from repro.models import mobilenet_v2

        model = mobilenet_v2(width=8, rng=np.random.default_rng(self.seed + 1))
        _quantize_for_serving(model)
        model.to(np.float32)
        path = serving.save_frozen(serving.freeze(model), self.workdir / "mobilenet.npz")
        engine = serving.InferenceEngine(serving.load_frozen(path).cast(np.float32))
        engine.warmup(self.light_requests[:1])
        engine.warmup(self.burst_requests[:BURST_BATCH])
        light = serving.InferenceServer(engine, serving.BatchingConfig(
            max_batch_size=1, max_delay_ms=0.0), name="light")
        burst = serving.InferenceServer(engine, serving.BatchingConfig(
            max_batch_size=BURST_BATCH, max_delay_ms=HOLD_MS), name="burst")
        return {"model": model, "engine": engine, "path": path, "light": light,
                "burst": burst}

    def dispose(self, state) -> None:
        from repro.core import default_layout_cache
        from repro.nn import functional as F
        self.close(state)
        F.clear_im2col_cache()
        default_layout_cache().clear()

    def close(self, state) -> None:
        state["light"].close()
        state["burst"].close()

    def servers(self, state):
        return state["light"], state["burst"]

    def batches(self, state) -> int:
        return state["engine"].stats().calls

    def reference_forward(self, state):
        """The live ``nn`` model's eval forward."""
        from repro import nn
        model = state["model"]

        def forward(batch):
            with nn.no_grad():
                return model(batch).data
        return forward

class ServeShardedCNN(_ServedWorkload):
    """A saved small-CNN checkpoint behind ShardedServer with one spawn worker."""

    name = "serve_sharded_cnn"
    cpus_used = 2
    #: (front-end CPU, worker CPU), set by ``run.place`` before set-up;
    #: ``None`` where the process cannot be pinned.
    cpus = (None, None)

    def _build_checkpoint(self) -> Path:
        from repro import nn, serving
        from repro.nn.quantized import QuantizedConv2d, QuantizedLinear

        rng = np.random.default_rng(self.seed + 1)
        model = nn.Sequential(
            QuantizedConv2d(3, 16, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
            QuantizedConv2d(16, 32, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
            nn.Flatten(), QuantizedLinear(32 * 8 * 8, 10, rng=rng))
        _quantize_for_serving(model)
        return serving.save_frozen(serving.freeze(model), self.workdir / "cnn.npz")

    def setup(self):
        from repro import serving

        path = self._build_checkpoint()
        spec = serving.WorkerSpec(
            checkpoint=str(path), model="cnn",
            warmup_shapes=((1,) + self.input_shape, (BURST_BATCH,) + self.input_shape),
            warmup_dtype="float32", cast_dtype="float32", env=PIN_BLAS)
        shm_before = _shm_segments()
        # Workers inherit the affinity they are spawned with: spawn them on
        # the second CPU, then bring every thread of this process back to
        # the first.
        front, worker_cpu = self.cpus
        if worker_cpu is not None:
            os.sched_setaffinity(0, {worker_cpu})
        try:
            light = serving.ShardedServer([spec], serving.ClusterConfig(
                batching=serving.BatchingConfig(max_batch_size=1, max_delay_ms=0.0)))
            burst = serving.ShardedServer([spec], serving.ClusterConfig(
                batching=serving.BatchingConfig(max_batch_size=BURST_BATCH,
                                                max_delay_ms=HOLD_MS)))
        finally:
            for thread in threading.enumerate():
                if front is not None and thread.native_id is not None:
                    os.sched_setaffinity(thread.native_id, {front})
        # The in-process reference loads the same checkpoint the worker serves.
        local = serving.InferenceEngine(serving.load_frozen(path).cast(np.float32))
        return {"path": path, "light": light, "burst": burst, "local": local,
                "shm_before": shm_before, "shm_leaked": None}

    def dispose(self, state) -> None:
        self.close(state)

    def close(self, state) -> None:
        if state["shm_leaked"] is None:
            state["light"].close()
            state["burst"].close()
            state["shm_leaked"] = sorted(_shm_segments() - state["shm_before"])
            # The transport's shared memory started multiprocessing's
            # resource tracker process; stop it and wait for it (after the
            # leak check: on exit it unlinks what it still tracks).
            tracker = getattr(resource_tracker, "_resource_tracker", None)
            if tracker is not None and hasattr(tracker, "_stop"):
                tracker._stop()

    def servers(self, state):
        return state["light"], state["burst"]

    def batches(self, state) -> int:
        return state["burst"].stats().batches

    def reference_forward(self, state):
        return state["local"].model.predict

    def verify(self, state) -> Dict[str, bool]:
        result = super().verify(state)
        self.close(state)
        result["no_shm_segment_survives_close"] = not state["shm_leaked"]
        return result

def _shm_segments() -> set:
    """Names of the transport's shared-memory segments that exist now."""
    root = "/dev/shm"
    if not os.path.isdir(root):
        return set()
    return {name for name in os.listdir(root) if name.startswith("repro_ring_")}
