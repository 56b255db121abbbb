"""generate_seq2seq: a frozen transformer behind GenerationServer.

A solo phase (one sequence at a time; its inter-token gap is the server's
time from first to last token over the steps between them) is followed by
burst rounds: SOURCES sequences
with mixed source lengths and token caps are queued at once, so sequences
retire at different decode steps and waiting ones join mid-flight.

The weights are seeded and untrained.  The end-of-sequence index is set
past the vocabulary, so every sequence runs to its cap and the token count
of a round never depends on what the weights happen to emit; the solo and
burst outputs are checked token for token against full-recompute greedy
decoding of the live ``nn`` model.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import ALL_KERNELS, HostCalibration, at_reference_speed, collect, run_rounds

VOCAB = 64
MAX_LENGTH = 32
BOS = 1
MAX_ACTIVE = 8
SOURCE_LENGTHS = (5, 12, 8, 16, 6, 10, 14, 7)
TOKEN_CAPS = (4, 24, 9, 16, 6, 20, 12, 28)
SOURCES = 24
SOLO_CAP = 24
SOLO_SEQUENCES = 2
LIGHT_SHARE = 0.3
#: The scheduler's idle poll: far longer than any run, so it wakes only when
#: a sequence is submitted, never on a timer while a burst is being queued.
IDLE_POLL_MS = 600_000.0


def expected_decode_steps(caps, max_active: int) -> int:
    """Decode steps of a FIFO continuous-batching scheduler given all caps queued
    at once: admit up to ``max_active`` before each step, retire at the cap."""
    pending = list(caps)
    active: List[int] = []
    steps = 0
    while pending or active:
        while pending and len(active) < max_active:
            active.append(pending.pop(0))
        steps += 1
        active = [left - 1 for left in active if left > 1]
    return steps


def steps_since(server, before: int, expected: int) -> int:
    """Decode steps the server counted since ``before``.

    The scheduler resolves a step's futures before it counts the step, so a
    count read as the last future resolves can miss that step; wait for it
    (at most a second) before reading the final count.
    """
    deadline = time.perf_counter() + 1.0
    while True:
        steps = server.stats().decode_steps - before
        if steps >= expected or time.perf_counter() > deadline:
            return steps
        time.sleep(0.001)


class GenerateSeq2Seq:
    name = "generate_seq2seq"
    #: Per-op overhead dominates decoding: the mix includes the tiny-array
    #: and object kernels (see README.md, "Host speed").
    calibration = ALL_KERNELS
    item = "generated token"
    #: The model runs on the scheduler thread: batched prefills and decode steps.
    model_entries = ("serving.generation.prefill", "serving.generation.decode_step")

    def __init__(self, seed: int, workdir: Path, short: bool = False):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        count = MAX_ACTIVE if short else SOURCES
        self.lengths = [SOURCE_LENGTHS[i % len(SOURCE_LENGTHS)] for i in range(count)]
        self.caps = [TOKEN_CAPS[i % len(TOKEN_CAPS)] for i in range(count)]
        self.sources = [rng.integers(3, VOCAB, size=length) for length in self.lengths]
        self.solo_source = rng.integers(3, VOCAB, size=SOURCE_LENGTHS[1])
        self.steps_per_round = expected_decode_steps(self.caps, MAX_ACTIVE)
        self.outputs = {"solo": [], "burst": []}
        self.step_counts: List[int] = []

    def setup(self):
        from repro import serving
        from repro.core import BFPConfig
        from repro.models import transformer_small
        from repro.training import FixedBFPSchedule

        model = transformer_small(vocab_size=VOCAB, max_length=MAX_LENGTH,
                                  rng=np.random.default_rng(self.seed + 1))
        FixedBFPSchedule(4, config=BFPConfig(exponent_bits=8, group_size=16),
                         stochastic_gradients=False, seed=0).prepare(model, 1)
        model.eval()
        # eos past the vocabulary: never emitted, every sequence runs to its cap.
        meta = {"bos_index": BOS, "eos_index": VOCAB}
        path = serving.save_frozen(serving.freeze(model, meta=meta),
                                   self.workdir / "seq2seq.npz")
        server = serving.GenerationServer(serving.load_frozen(path), serving.GenerationConfig(
            max_active=MAX_ACTIVE, idle_poll_ms=IDLE_POLL_MS))
        server.generate(self.solo_source, max_new_tokens=4, timeout=120)
        return {"model": model, "server": server, "path": path}

    def dispose(self, state) -> None:
        self.close(state)

    def close(self, state) -> None:
        state["server"].close()

    # ----------------------------------------------------------------- #
    def measure(self, state, seconds: float, calib: HostCalibration, recorder=None):
        server = state["server"]
        gaps: List[List[float]] = []

        def solo_round():
            round_gaps = []
            for _ in range(SOLO_SEQUENCES):
                # The client waits for the whole sequence: a client thread
                # woken per streamed token takes the interpreter lock from
                # the scheduler at every token and bunches what it sees.
                result = server.submit(self.solo_source, max_new_tokens=SOLO_CAP).result(
                    timeout=120)
                timing = result.timing
                if timing.steps != SOLO_CAP:
                    raise AssertionError(f"solo sequence took {timing.steps} steps, "
                                         f"expected {SOLO_CAP}")
                round_gaps.append((timing.total_ms - timing.ttft_ms) / (timing.steps - 1))
                self.outputs["solo"].append(result)
            gaps.append(round_gaps)
            return {}

        def burst_round():
            before = server.stats().decode_steps
            # Queue the whole burst before the scheduler thread can run: with
            # a long switch interval the submitting thread keeps the
            # interpreter until it blocks in wait(), so admission
            # sees every sequence at once, as from one arrival.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(30.0)
            try:
                futures = [server.submit(src, max_new_tokens=cap)
                           for src, cap in zip(self.sources, self.caps)]
            finally:
                sys.setswitchinterval(interval)
            self.outputs["burst"].append(collect(futures))
            self.step_counts.append(steps_since(server, before, self.steps_per_round))
            return {}

        light = run_rounds(seconds * LIGHT_SHARE, solo_round, SOLO_CAP * SOLO_SEQUENCES, calib,
                           recorder=recorder, span_name="bench.light_round")
        burst = run_rounds(seconds * (1 - LIGHT_SHARE), burst_round, sum(self.caps), calib,
                           recorder=recorder)
        failed = sum(isinstance(o, Exception) for outs in self.outputs["burst"][-len(burst):]
                     for o in outs)
        return {"rounds": burst, "latencies": at_reference_speed(light, gaps),
                "items": sum(r.items for r in light + burst),
                "attempted": len(light) * SOLO_SEQUENCES + len(burst) * len(self.sources),
                "failed": failed}

    # ----------------------------------------------------------------- #
    def verify(self, state) -> Dict[str, bool]:
        model = state["model"]

        def reference(src, cap):
            return model.greedy_decode(src[None], BOS, VOCAB, max_length=cap + 1)[0]

        solo_ref = reference(self.solo_source, SOLO_CAP)
        burst_ref = [reference(src, cap) for src, cap in zip(self.sources, self.caps)]
        solo_ok = all(np.array_equal(r.tokens, solo_ref) for r in self.outputs["solo"])
        burst_ok = all(
            not isinstance(got, Exception) and np.array_equal(got.tokens, want)
            for outs in self.outputs["burst"] for got, want in zip(outs, burst_ref))
        return {
            "tokens_match_full_recompute": solo_ok and burst_ok,
            "decode_steps_per_round_fixed": all(
                count == self.steps_per_round for count in self.step_counts),
        }

    def checkpoint_kb(self, state) -> float:
        return state["path"].stat().st_size / 1024.0
