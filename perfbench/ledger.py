"""Per-layer figures from a traced run, and the join with the paper's cost model.

Every ``.ms`` per-layer metric is *self* time (span minus its child spans)
per item of the workload: per training sample, request or generated token.
The cost-model join takes each conv and linear call's GEMM shape and the
(W, A, G) mantissa widths in force, and prices it with
``hardware.performance.layer_cycles`` on the FAST system (all three training
products) or, for forward-only serving, with the forward product alone
(``hardware.systolic.tiled_matmul_cycles``, the function ``layer_cycles``
sums over the three products).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import numpy as np

from spans import SpanRecorder

GEMM_LAYERS = ("nn.conv_fwd_dense", "nn.conv_fwd_pointwise", "nn.conv_fwd_depthwise",
               "nn.linear_fwd")
#: Layer owning the bits of a GEMM call made inside it.
BIT_OWNERS = ("nn.quantized_layer", "serving.frozen_op", "nn.linear_fwd")
#: Layers whose self time is the work of one named function (a quantizer,
#: a conv, the policy, ...).  Any other self time under the model's entry
#: spans -- the entries' own, a quantized layer's or frozen op's around its
#: GEMM, the engine's forward around the frozen ops -- is code no wrapper
#: names.
NAMED_LAYERS = frozenset((
    "core.quantize_nearest", "core.quantize_stochastic", "core.policy",
    "nn.conv_fwd_dense", "nn.conv_fwd_pointwise", "nn.conv_fwd_depthwise",
    "nn.linear_fwd", "nn.backward", "nn.optim_step",
    "serving.generation.kv_append", "serving.generation.kv_gather",
    "serving.cluster.round_trip", "serving.transport",
))
#: Most of the model thread's busy time that the named layers may leave
#: unattributed (see ``unattributed_share``).
LEDGER_MARGIN = 0.25


def spearman(xs: List[float], ys: List[float]) -> float:
    """Spearman rank correlation (ties get their average rank)."""
    if len(xs) < 3:
        return 0.0

    def ranks(values):
        order = np.argsort(values, kind="stable")
        result = np.empty(len(values))
        sorted_values = np.asarray(values)[order]
        start = 0
        while start < len(values):
            end = start
            while end + 1 < len(values) and sorted_values[end + 1] == sorted_values[start]:
                end += 1
            result[order[start:end + 1]] = (start + end) / 2.0
            start = end + 1
        return result

    rx, ry = ranks(xs), ranks(ys)
    if np.std(rx) == 0 or np.std(ry) == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def cost_model_rows(recorder: SpanRecorder, training: bool) -> List[dict]:
    """One row per (layer, GEMM shape, bits): measured and modelled cost per call."""
    from repro.hardware.performance import layer_cycles, product_passes
    from repro.hardware.system import iso_area_systems
    from repro.hardware.systolic import tiled_matmul_cycles
    from repro.hardware.workloads import GemmShape

    fast = iso_area_systems()["fast_adaptive"]
    by_id = {span.span_id: span for span in recorder.spans}
    rows: Dict[Tuple, dict] = {}
    for span in recorder.spans:
        if span.layer not in GEMM_LAYERS or not span.attrs or "m" not in span.attrs:
            continue
        owner = span if "bits" in span.attrs else by_id.get(span.parent_id)
        if owner is None or owner.layer not in BIT_OWNERS or not owner.attrs:
            layer_id, bits = None, (None, None, None)
        else:
            layer_id, bits = owner.attrs["layer"], owner.attrs["bits"]
        a = span.attrs
        key = (layer_id, span.layer, a["m"], a["k"], a["n"], a["groups"])
        row = rows.setdefault(key, {"layer": layer_id, "kind": span.layer, "m": a["m"],
                                    "k": a["k"], "n": a["n"], "groups": a["groups"],
                                    "flops": a["flops"], "self_s": [], "bits": []})
        row["self_s"].append(span.self_time)
        row["bits"].append(bits)

    def cycles_for(row, bits) -> float:
        # Unquantized or not-yet-decided tensors are priced at 4 bits (the
        # FAST high precision); a missing gradient width takes the
        # activation width.
        w = bits[0] or 4
        a = bits[1] or 4
        passes = product_passes(w, a, bits[2] or a)
        shape = GemmShape(row["kind"], row["m"], row["k"], row["n"])
        if training:
            cycles = layer_cycles(shape, fast, passes)
        else:
            cycles = tiled_matmul_cycles(shape.m, shape.k, shape.n, fast.array_rows,
                                         fast.array_cols, k_per_cycle=fast.values_per_mac,
                                         passes=passes["forward"])
        return float(cycles * row["groups"])

    result = []
    for row in rows.values():
        ms = statistics.median(row["self_s"]) * 1e3
        cycles = [cycles_for(row, bits) for bits in row["bits"]]
        result.append({**row, "calls": len(row["self_s"]), "ms": ms,
                       "bits": max(set(row["bits"]), key=row["bits"].count),
                       "gflops": row["flops"] / (ms * 1e6) if ms > 0 else 0.0,
                       "cycles": float(np.mean(cycles)), "cycles_total": float(np.sum(cycles))})
    result.sort(key=lambda r: (r["layer"] is None, r["layer"] or 0, r["n"]))
    return result


def unattributed_share(recorder: SpanRecorder, entries, windows) -> float:
    """Share of the model thread's busy time that no named layer accounts for.

    ``entries`` are the layers whose spans are the model's work on the thread
    that runs it (a training step, a server's batch execution, a prefill or
    decode step).  Within the round windows their summed duration is that
    thread's busy time, and the self times of the spans under them add up to
    it; the share returned is the part outside ``NAMED_LAYERS``.
    """
    by_id = {span.span_id: span for span in recorder.spans}

    def entry_of(span):
        while span is not None and span.layer not in entries:
            span = by_id.get(span.parent_id)
        return span

    busy = unattributed = 0.0
    for span in recorder.spans:
        entry = entry_of(span)
        if entry is None or not within(entry, windows):
            continue
        if span is entry:
            busy += span.dur
        if span.layer not in NAMED_LAYERS:
            unattributed += span.self_time
    return unattributed / busy if busy else 1.0


def round_windows(recorder: SpanRecorder, name: str) -> List[Tuple[float, float]]:
    return [(s.start, s.start + s.dur) for s in recorder.spans if s.layer == name]


def within(span, windows) -> bool:
    return any(start <= span.start and span.start + span.dur <= end for start, end in windows)


def mean_attr(spans, key: str) -> float:
    values = [s.attrs[key] for s in spans if s.attrs and key in s.attrs]
    return float(np.mean(values)) if values else 0.0


def scheduler_self_s(recorder: SpanRecorder, windows) -> float:
    """Scheduler-thread time inside rounds not spent in prefill/decode_step."""
    model_calls = [s for s in recorder.spans
                   if s.layer in ("serving.generation.prefill",
                                  "serving.generation.decode_step")]
    total = 0.0
    for start, end in windows:
        inside = [s for s in model_calls if start <= s.start and s.start + s.dur <= end]
        if inside:
            busy = max(s.start + s.dur for s in inside) - min(s.start for s in inside)
            total += busy - sum(s.dur for s in inside)
    return total


def layer_metrics(recorder: SpanRecorder, items: int, training: bool, model_entries,
                  extra: Dict[str, float]) -> Tuple[Dict[str, float], list, dict]:
    """Per-layer metrics (name -> value), the cost-model rows and the self-time table.

    ``model_entries`` are the layers of the model thread's entry spans
    (``unattributed_share``).
    """
    self_by_layer = recorder.self_time_by_layer()

    def per_item_ms(layer: str) -> float:
        return self_by_layer.get(layer, 0.0) * 1e3 / items

    def melems(layer: str) -> float:
        return sum(s.attrs["elements"] for s in recorder.by_layer(layer)) / 1e6 / items

    def gflops(layer: str) -> float:
        spans = recorder.by_layer(layer)
        seconds = sum(s.self_time for s in spans)
        return sum(s.attrs["flops"] for s in spans) / seconds / 1e9 if seconds else 0.0

    burst = round_windows(recorder, "bench.round")
    every_round = burst + round_windows(recorder, "bench.light_round")
    rows = cost_model_rows(recorder, training)
    lookups = recorder.counters.get("layout_lookups", 0.0)
    metrics = {
        "core.quantize_nearest.ms": per_item_ms("core.quantize_nearest"),
        "core.quantize_nearest.melems": melems("core.quantize_nearest"),
        "core.quantize_stochastic.ms": per_item_ms("core.quantize_stochastic"),
        "core.quantize_stochastic.melems": melems("core.quantize_stochastic"),
        "core.layout_cache.hit_ratio": (recorder.counters.get("layout_hits", 0.0) / lookups
                                        if lookups else 0.0),
        "core.policy.ms": per_item_ms("core.policy"),
        "core.policy.evals": len(recorder.by_layer("core.policy")) / items,
        "nn.conv_fwd_dense.ms": per_item_ms("nn.conv_fwd_dense"),
        "nn.conv_fwd_dense.gflops": gflops("nn.conv_fwd_dense"),
        "nn.conv_fwd_pointwise.ms": per_item_ms("nn.conv_fwd_pointwise"),
        "nn.conv_fwd_pointwise.gflops": gflops("nn.conv_fwd_pointwise"),
        "nn.conv_fwd_depthwise.ms": per_item_ms("nn.conv_fwd_depthwise"),
        "nn.conv_fwd_depthwise.gflops": gflops("nn.conv_fwd_depthwise"),
        "nn.linear_fwd.ms": per_item_ms("nn.linear_fwd"),
        "nn.backward.ms": per_item_ms("nn.backward"),
        "nn.optim_step.ms": per_item_ms("nn.optim_step"),
        "data.batch_wait.ms": per_item_ms("data.batch_wait"),
        "training.step_self.ms": per_item_ms("training.step"),
        "serving.engine.predict.ms": per_item_ms("serving.engine.predict"),
        "serving.engine.batch_size": mean_attr(
            [s for s in recorder.by_layer("serving.engine.predict") if within(s, burst)],
            "batch"),
        "serving.generation.prefill.ms": per_item_ms("serving.generation.prefill"),
        "serving.generation.decode_step.ms": per_item_ms("serving.generation.decode_step"),
        "serving.generation.kv_append.ms": per_item_ms("serving.generation.kv_append"),
        "serving.generation.kv_gather.ms": per_item_ms("serving.generation.kv_gather"),
        "serving.generation.scheduler_self.ms": scheduler_self_s(
            recorder, every_round) * 1e3 / items,
        "serving.generation.decode_width": mean_attr(
            [s for s in recorder.by_layer("serving.generation.decode_step")
             if within(s, burst)], "batch"),
        "serving.cluster.round_trip.ms": per_item_ms("serving.cluster.round_trip"),
        "serving.cluster.batch_size": mean_attr(
            [s for s in recorder.by_layer("serving.cluster.round_trip") if within(s, burst)],
            "batch"),
        "serving.transport.ms": per_item_ms("serving.transport"),
        "hardware.model_cycles": sum(r["cycles_total"] for r in rows) / items,
        "hardware.rank_agreement": spearman([r["ms"] for r in rows],
                                            [r["cycles"] for r in rows]),
        "trace.ledger_gap": unattributed_share(recorder, model_entries, every_round),
    }
    metrics.update({"serving.server.queue.ms": 0.0, "serving.server.self.ms": 0.0})
    metrics.update(extra)
    table = {layer: (len(recorder.by_layer(layer)), seconds)
             for layer, seconds in sorted(self_by_layer.items(), key=lambda kv: -kv[1])}
    return metrics, rows, table
