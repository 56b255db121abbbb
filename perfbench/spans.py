"""In-memory spans around the calls into each layer's public functions.

The traced run replaces each function under the name the *calling* module
binds it to (``bfp_quantize`` as imported by ``repro.nn.quantized`` and by
``repro.serving.frozen``, ``conv2d`` as looked up through ``F`` in
``repro.nn.modules``, ...), records one span per call and puts the original
back afterwards.  Nothing in ``src/`` changes.

A span's *self time* is its duration minus the durations of its direct child
spans on the same thread; it is computed when the span closes.  The self
times of a thread's spans therefore add up to the duration of its root spans
(``bench.round`` and ``host.calib`` on the thread that drives the workload).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    layer: str
    tid: int            # the OS thread id
    start: float
    dur: float
    self_time: float
    attrs: Optional[dict]


class SpanRecorder:
    """Keeps spans in memory; one stack of open spans per thread."""

    def __init__(self, origin: Optional[float] = None):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self.origin = time.perf_counter() if origin is None else origin

    # ----------------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> list:
        stack = self._stack()
        frame = [layer, next(self._ids), stack[-1][1] if stack else None, 0.0,
                 time.perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: list, attrs: Optional[dict] = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order (top was {popped[0]})")
        layer, span_id, parent_id, child_time, start = frame
        dur = end - start
        if stack:
            stack[-1][3] += dur
        span = Span(span_id, parent_id, layer, threading.get_native_id(), start, dur,
                    dur - child_time, attrs)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # ----------------------------------------------------------------- #
    def wrap(self, owner, attr: str, layer, attrs_fn: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``layer`` is a layer name or a function of the call's arguments that
        returns one; ``attrs_fn(args, kwargs, result)`` returns the span's
        attributes (GEMM shape, batch size, ...).
        """
        inherited = attr not in vars(owner)
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            frame = recorder.open(layer(args, kwargs) if callable(layer) else layer)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                recorder.close(frame, attrs_fn(args, kwargs, result) if attrs_fn else None)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, inherited))

    def wrap_counting(self, owner, attr: str, counter_fn: Callable) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts (no span)."""
        inherited = attr not in vars(owner)
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return counter_fn(original, args, kwargs)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, inherited))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ----------------------------------------------------------------- #
    def to_chrome(self) -> dict:
        events = []
        for span in self.spans:
            args = {"self_us": round(span.self_time * 1e6, 3), "id": span.span_id}
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            if span.attrs:
                args.update({k: v for k, v in span.attrs.items()
                             if isinstance(v, (int, float, str))})
            events.append({
                "name": span.layer, "cat": span.layer.split(".")[0], "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round(span.dur * 1e6, 3),
                "pid": 1, "tid": span.tid, "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # ----------------------------------------------------------------- #
    def self_time_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + span.self_time
        return totals

    def by_layer(self, layer: str) -> List[Span]:
        return [span for span in self.spans if span.layer == layer]


# --------------------------------------------------------------------------- #
# What is wrapped, and under which names
# --------------------------------------------------------------------------- #
def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def conv_attrs(x, weight, stride, padding, groups) -> dict:
    """GEMM view of one convolution call (Figure 3): per group an
    (O/g x C/g*k*k) . (C/g*k*k x N*H_out*W_out) product."""
    batch, _, height, width = np.shape(x)
    out_channels, in_per_group, kernel_h, kernel_w = np.shape(weight)
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    m = out_channels // groups
    k = in_per_group * kernel_h * kernel_w
    n = batch * out_h * out_w
    return {"m": m, "k": k, "n": n, "groups": groups, "flops": 2.0 * groups * m * k * n}


def conv_kind(weight, groups) -> str:
    out_channels, in_per_group, kernel_h, kernel_w = np.shape(weight)
    if groups > 1 and in_per_group == 1:
        return "depthwise"
    if kernel_h == 1 and kernel_w == 1:
        return "pointwise"
    return "dense"


def _conv_layer(args, kwargs) -> str:
    weight = _arg(args, kwargs, 1, "weight")
    weight = getattr(weight, "data", weight)
    return "nn.conv_fwd_" + conv_kind(weight, _arg(args, kwargs, 5, "groups", 1))


def _conv_span_attrs(args, kwargs, result) -> dict:
    x = _arg(args, kwargs, 0, "x")
    weight = _arg(args, kwargs, 1, "weight")
    return conv_attrs(getattr(x, "data", x), getattr(weight, "data", weight),
                      _arg(args, kwargs, 3, "stride", 1), _arg(args, kwargs, 4, "padding", 0),
                      _arg(args, kwargs, 5, "groups", 1))


def linear_attrs(x_shape, weight_shape) -> dict:
    m, k = weight_shape
    n = int(np.prod(x_shape[:-1]))
    return {"m": m, "k": k, "n": n, "groups": 1, "flops": 2.0 * m * k * n}


def _linear_span_attrs(args, kwargs, result) -> dict:
    x = _arg(args, kwargs, 0, "x")
    weight = _arg(args, kwargs, 1, "weight")
    return linear_attrs(np.shape(getattr(x, "data", x)), np.shape(getattr(weight, "data", weight)))


def _quantize_layer(args, kwargs) -> str:
    rounding = _arg(args, kwargs, 4, "rounding", "nearest")
    return "core.quantize_" + ("stochastic" if rounding == "stochastic" else "nearest")


def _quantize_attrs(args, kwargs, result) -> dict:
    return {"elements": int(np.size(_arg(args, kwargs, 0, "x")))}


class LayerIds:
    """Stable small integers for layer objects, in order of first call."""

    def __init__(self):
        self._ids: Dict[int, int] = {}
        self._keep: list = []

    def __call__(self, obj) -> int:
        key = id(obj)
        if key not in self._ids:
            self._ids[key] = len(self._ids)
            self._keep.append(obj)
        return self._ids[key]


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro import serving
    from repro.core import kernels, precision_policy
    from repro.nn import functional as F
    from repro.nn import optim, quantized, tensor
    from repro.serving import cluster, engine, frozen, generation, server, transport
    from repro.training import trainer

    ids = LayerIds()

    # core: BFP conversion (as bound by its two calling modules), r(X)
    # policy evaluations, and the grouped-layout caches.
    for module in (quantized, frozen):
        recorder.wrap(module, "bfp_quantize", _quantize_layer, _quantize_attrs)
    recorder.wrap(precision_policy, "relative_improvement", "core.policy")

    def count_layout(original, args, kwargs):
        cache = args[0]
        hits = cache.hits
        layout = original(*args, **kwargs)
        recorder.count("layout_hits", cache.hits - hits)
        recorder.count("layout_lookups", 1)
        return layout

    recorder.wrap_counting(kernels.LayoutCache, "get", count_layout)

    # nn: convolutions through F (autograd and grad-free), linear layers,
    # the quantized layers around them, backward and the optimizer step.
    recorder.wrap(F, "conv2d", _conv_layer, _conv_span_attrs)
    recorder.wrap(F, "conv2d_infer", _conv_layer, _conv_span_attrs)
    recorder.wrap(F, "linear", "nn.linear_fwd", _linear_span_attrs)

    def qlayer_attrs(args, kwargs, result):
        layer = args[0]
        setting = layer.scheme.precision_setting()
        return {"layer": ids(layer), "bits": (setting["weight"], setting["activation"],
                                              setting["gradient"])}

    for cls in (quantized.QuantizedConv2d, quantized.QuantizedLinear):
        recorder.wrap(cls, "forward", "nn.quantized_layer", qlayer_attrs)
    recorder.wrap(tensor.Tensor, "backward", "nn.backward")
    recorder.wrap(optim.SGD, "step", "nn.optim_step")

    # training: the fit loop (its steps are opened by the benchmark's loader).
    recorder.wrap(trainer.ClassificationTrainer, "fit", "training.fit")

    # serving: frozen ops, engine, in-process server, generation tier,
    # sharded tier and checkpoints.
    def frozen_op_attrs(args, kwargs, result):
        op = args[0]
        desc = op.scheme_desc or {}
        bits = (desc.get("weight_bits"), desc.get("activation_bits"), None)
        attrs = {"layer": ids(op), "bits": bits}
        if isinstance(op, frozen.FrozenLinear):
            attrs.update(linear_attrs(np.shape(_arg(args[1:], kwargs, 0, "x")), op.weight.shape))
        return attrs

    recorder.wrap(frozen.FrozenConv2d, "run", "serving.frozen_op", frozen_op_attrs)
    recorder.wrap(frozen.FrozenLinear, "run", "nn.linear_fwd", frozen_op_attrs)
    recorder.wrap(engine.InferenceEngine, "predict", "serving.engine.predict",
                  lambda a, k, r: {"batch": int(np.shape(a[1])[0])})
    recorder.wrap(server.InferenceServer, "submit", "serving.server.submit")
    # The one call that runs a batch on a server's batching thread (also
    # inside each shard of a ShardedServer): the root of that thread's spans.
    recorder.wrap(server.InferenceServer, "_execute", "serving.server.execute")
    recorder.wrap(frozen.FrozenSeq2SeqTransformer, "prefill", "serving.generation.prefill",
                  lambda a, k, r: {"batch": int(np.shape(a[1])[0])})
    recorder.wrap(frozen.FrozenSeq2SeqTransformer, "decode_step",
                  "serving.generation.decode_step",
                  lambda a, k, r: {"batch": int(np.size(a[1]))})
    recorder.wrap(generation.KVCacheManager, "append_step", "serving.generation.kv_append")
    recorder.wrap(generation.KVCacheManager, "gather", "serving.generation.kv_gather")
    recorder.wrap(generation.GenerationServer, "submit", "serving.generation.submit")
    recorder.wrap(cluster.RemoteEngine, "predict", "serving.cluster.round_trip",
                  lambda a, k, r: {"batch": int(np.shape(a[1])[0])})
    recorder.wrap(cluster.ShardedServer, "submit", "serving.cluster.submit")
    recorder.wrap(transport.ShmRing, "write", "serving.transport")
    recorder.wrap(transport.ShmRing, "view", "serving.transport")
    recorder.wrap(serving, "load_frozen", "serving.checkpoint.load")
