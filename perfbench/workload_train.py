"""train_fast_resnet20: FAST-Adaptive training of ResNet-20 (the paper's own use).

``ClassificationTrainer.fit`` over synthetic CIFAR (16x16 RGB, 10 classes,
batch 32) under ``FASTSchedule``: per-layer, per-iteration 2- or 4-bit BFP
for weights, activations and gradients, stochastic gradient rounding from
pooled noise, float32 compute, SGD with momentum.  A round is one
``fit(epochs=1)`` over ``STEPS_PER_ROUND`` batches; the model keeps training
from round to round, and each round's FAST schedule runs Algorithm 1 over
that round's iterations.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import ARRAY_KERNELS, HostCalibration, run_rounds
import checks

BATCH = 32
IMAGE = 16
STEPS_PER_ROUND = 4
WARMUP_STEPS = 1
#: Calls of each rounding mode compared against the independent quantizer.
SAMPLED_CALLS = 16


class StepClock:
    """The loader handed to ``fit``: times and calibrates each step.

    A step runs from the moment its batch is handed out to the moment the
    next batch is asked for (or the epoch ends).  The host calibration runs
    between steps, so each step is brought to reference host speed by the
    factor measured right around it (``step_ms``), and the time spent
    calibrating is kept apart (``calib_s``).  With a recorder, the wait
    inside the real ``DataLoader`` becomes a ``data.batch_wait`` span and
    the step itself a ``training.step`` span.
    """

    def __init__(self, loader, calib: HostCalibration, recorder=None):
        self.loader = loader
        self.calib = calib
        self.recorder = recorder
        self.step_ms: List[float] = []
        self.raw_s = 0.0
        self.reference_s = 0.0
        self.calib_s = 0.0

    def __len__(self):
        return len(self.loader)

    def _calibrate(self) -> float:
        start = time.perf_counter()
        frame = self.recorder.open("host.calib") if self.recorder else None
        factor = self.calib()
        if frame is not None:
            self.recorder.close(frame)
        self.calib_s += time.perf_counter() - start
        return factor

    def __iter__(self):
        recorder = self.recorder
        iterator = iter(self.loader)
        step_frame = None
        step_start = None
        factor_before = self._calibrate()
        while True:
            now = time.perf_counter()
            if step_frame is not None:
                recorder.close(step_frame)
                step_frame = None
            if step_start is not None:
                factor_after = self._calibrate()
                factor = math.sqrt(factor_before * factor_after)
                factor_before = factor_after
                self.raw_s += now - step_start
                self.reference_s += (now - step_start) / factor
                self.step_ms.append((now - step_start) * 1e3 / factor)
            wait = recorder.open("data.batch_wait") if recorder else None
            try:
                batch = next(iterator)
            except StopIteration:
                if wait is not None:
                    recorder.close(wait)
                return
            if wait is not None:
                recorder.close(wait)
                step_frame = recorder.open("training.step")
            step_start = time.perf_counter()
            yield batch


class TrainFastResNet20:
    name = "train_fast_resnet20"
    calibration = ARRAY_KERNELS
    item = "training sample"
    #: The model runs on the driving thread, one ``training.step`` at a time.
    model_entries = ("training.step",)

    def __init__(self, seed: int, workdir: Path, short: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.steps = 2 if short else STEPS_PER_ROUND
        self.losses: List[float] = []
        self.decisions: List[tuple] = []

    # ----------------------------------------------------------------- #
    def setup(self):
        from repro import nn
        from repro.data import synthetic_cifar
        from repro.data.loader import DataLoader
        from repro.models import resnet20
        from repro.training import ClassificationTrainer, FASTSchedule

        dataset = synthetic_cifar(num_samples=BATCH * self.steps, image_size=IMAGE,
                                  seed=self.seed, dtype=np.float32)
        model = resnet20(rng=np.random.default_rng(self.seed + 1))
        optimizer = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        schedule = FASTSchedule(stochastic_gradients=True, noise_pool=True,
                                seed=self.seed + 2)
        trainer = ClassificationTrainer(model, optimizer, schedule,
                                        compute_dtype=np.float32)
        loader = DataLoader(dataset, batch_size=BATCH, shuffle=True,
                            drop_last=True, seed=self.seed + 3)
        # Warm-up: WARMUP_STEPS ordinary steps prime every cache the timed
        # steps use (im2col indices, grouped layouts, noise pools).
        warm = DataLoader(dataset, batch_size=BATCH, shuffle=False, drop_last=True)
        trainer.fit(_Take(warm, WARMUP_STEPS), epochs=1)
        return {"trainer": trainer, "schedule": schedule, "loader": loader}

    def dispose(self, state) -> None:
        from repro.core import default_layout_cache
        from repro.nn import functional as F
        # Process-wide caches would make every set-up after the first a warm
        # one; clear them so each set-up pays the same.
        F.clear_im2col_cache()
        default_layout_cache().clear()

    def close(self, state) -> None:
        pass

    # ----------------------------------------------------------------- #
    def measure(self, state, seconds: float, calib: HostCalibration, recorder=None):
        trainer, schedule = state["trainer"], state["schedule"]
        per_round_steps: List[float] = []

        def one_round():
            clock = StepClock(state["loader"], calib, recorder)
            result = trainer.fit(clock, epochs=1)
            if result.iterations != self.steps or len(clock.step_ms) != self.steps:
                raise AssertionError(
                    f"round ran {result.iterations} steps, expected {self.steps}")
            self.losses.extend(result.loss_history)
            self.decisions.extend(schedule.setting_history().values())
            per_round_steps.extend(clock.step_ms)
            return {"calib_s": clock.calib_s, "factor": clock.raw_s / clock.reference_s}

        rounds = run_rounds(seconds, one_round, BATCH * self.steps, calib,
                            recorder=recorder)
        return {"rounds": rounds, "latencies": per_round_steps,
                "items": sum(r.items for r in rounds),
                "attempted": len(rounds) * self.steps, "failed": 0}

    # ----------------------------------------------------------------- #
    def verify(self, state) -> Dict[str, bool]:
        """Re-run one round with the quantizer calls captured, then check them."""
        from repro.nn import quantized

        captured = {"nearest": [], "stochastic": []}
        original = quantized.bfp_quantize

        def capture(x, **kwargs):
            out = original(x, **kwargs)
            calls = captured[kwargs.get("rounding", "nearest")]
            if len(calls) < SAMPLED_CALLS:
                calls.append((np.array(x), np.array(out), kwargs))
            return out

        quantized.bfp_quantize = capture
        try:
            state["trainer"].fit(state["loader"], epochs=1)
        finally:
            quantized.bfp_quantize = original

        def args(kwargs):
            return (kwargs["mantissa_bits"], kwargs["group_size"], kwargs["exponent_bits"])

        flat = {bits for setting in self.decisions for bits in setting}
        return {
            "nearest_matches_independent_quantizer": bool(captured["nearest"]) and all(
                checks.check_nearest(x, out, *args(kw)) for x, out, kw in captured["nearest"]),
            "stochastic_on_grid_within_one_step": bool(captured["stochastic"]) and all(
                checks.check_stochastic(x, out, *args(kw))
                for x, out, kw in captured["stochastic"]),
            "fast_decisions_in_2_4": bool(flat) and flat <= {2, 4},
            "loss_finite_and_decreasing": bool(self.losses) and all(
                np.isfinite(self.losses)) and self.losses[-1] < self.losses[0],
        }

    def high_bits_share(self) -> float:
        values = [bits for setting in self.decisions for bits in setting]
        return sum(1 for bits in values if bits == 4) / len(values) if values else 0.0

    def checkpoint_kb(self, state) -> float:
        from repro import serving
        model = state["trainer"].model
        model.eval()
        path = serving.save_frozen(serving.freeze(model), self.workdir / "resnet20.npz")
        size = path.stat().st_size / 1024.0
        path.unlink()
        model.train()
        return size


class _Take:
    """The first ``count`` batches of a loader, as a loader."""

    def __init__(self, loader, count: int):
        self.loader = loader
        self.count = count

    def __len__(self):
        return self.count

    def __iter__(self):
        for index, batch in enumerate(self.loader):
            if index >= self.count:
                return
            yield batch
