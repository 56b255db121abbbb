"""End-to-end benchmark of FAST training, frozen serving, generation and the
sharded tier.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_fast_resnet20 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve_mobilenet --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --short        # every workload and check, in seconds

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import harness  # first: pins BLAS/OpenMP to one thread before NumPy loads

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
    "checkpoint_kb": "KB",
}

PER_LAYER = {
    "core.quantize_nearest.ms": "ms/item",
    "core.quantize_nearest.melems": "Melem/item",
    "core.quantize_stochastic.ms": "ms/item",
    "core.quantize_stochastic.melems": "Melem/item",
    "core.layout_cache.hit_ratio": "ratio",
    "core.policy.ms": "ms/item",
    "core.policy.evals": "count/item",
    "core.policy.high_bits_share": "ratio",
    "nn.conv_fwd_dense.ms": "ms/item",
    "nn.conv_fwd_dense.gflops": "GFLOP/s",
    "nn.conv_fwd_pointwise.ms": "ms/item",
    "nn.conv_fwd_pointwise.gflops": "GFLOP/s",
    "nn.conv_fwd_depthwise.ms": "ms/item",
    "nn.conv_fwd_depthwise.gflops": "GFLOP/s",
    "nn.linear_fwd.ms": "ms/item",
    "nn.backward.ms": "ms/item",
    "nn.optim_step.ms": "ms/item",
    "data.batch_wait.ms": "ms/item",
    "training.step_self.ms": "ms/item",
    "serving.engine.predict.ms": "ms/item",
    "serving.engine.batch_size": "count",
    "serving.server.queue.ms": "ms",
    "serving.server.self.ms": "ms",
    "serving.generation.prefill.ms": "ms/item",
    "serving.generation.decode_step.ms": "ms/item",
    "serving.generation.kv_append.ms": "ms/item",
    "serving.generation.kv_gather.ms": "ms/item",
    "serving.generation.scheduler_self.ms": "ms/item",
    "serving.generation.decode_width": "count",
    "serving.cluster.round_trip.ms": "ms/item",
    "serving.cluster.batch_size": "count",
    "serving.transport.ms": "ms/item",
    "serving.checkpoint.load.ms": "ms",
    "hardware.model_cycles": "cycles/item",
    "hardware.rank_agreement": "rho",
    "host.calib.ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.ledger_gap": "ratio",
}


def _import_program():
    """Put the checkout's ``src`` first on the path and import the program."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails outside a full checkout)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")


def _workloads():
    from workload_generate import GenerateSeq2Seq
    from workload_serve import ServeMobileNet, ServeShardedCNN
    from workload_train import TrainFastResNet20
    return {w.name: w for w in (TrainFastResNet20, ServeMobileNet, GenerateSeq2Seq,
                                ServeShardedCNN)}


def place(workload) -> list:
    """Pin the process to fixed CPUs; return the CPUs the calibration covers.

    The host's CPUs change speed independently of each other, so the speed
    factor describes the work only when it is measured on the CPUs the work
    runs on.  An in-process workload runs on one CPU, with the calibration
    (threads started later inherit the affinity).  The sharded workload's
    front end keeps the first CPU and its worker process gets the second
    (``ServeShardedCNN.setup``), and the calibration runs on both.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[0]})
    except OSError:  # affinity not settable here: run unpinned
        return []
    spread = getattr(workload, "cpus_used", 1) > 1 and len(cpus) > 1
    workload.cpus = (cpus[0], cpus[1] if spread else cpus[0])
    return list(workload.cpus) if spread else []


def _measured(measurements):
    rounds = [r for m in measurements for r in m["rounds"]]
    latencies = [lat for m in measurements for lat in m["latencies"]]
    return rounds, latencies


def run_workload(name: str, seed: int, seconds: float, traced: bool, short: bool) -> dict:
    import ledger
    import spans

    workdir = OUT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = _workloads()[name](seed, workdir, short=short)
    calib = harness.HostCalibration(workload.calibration, place(workload))
    setup_recorder = spans.SpanRecorder()
    try:
        if traced:
            spans.install(setup_recorder)
        try:
            state, setup_s, setup_all = harness.timed_setups(
                workload.setup, 1 if short else SETUPS, workload.dispose, calib)
        finally:
            setup_recorder.restore()
        try:
            if not traced:
                measurements = [workload.measure(state, seconds, calib)]
            else:
                reference = workload.measure(state, seconds / 2, calib)
                recorder = spans.SpanRecorder(origin=setup_recorder.origin)
                first_traced_calib = len(calib.samples_ms)
                spans.install(recorder)
                started = time.perf_counter()
                try:
                    traced_run = workload.measure(state, seconds / 2, calib, recorder)
                finally:
                    traced_wall = time.perf_counter() - started
                    recorder.restore()
                measurements = [reference, traced_run]
            checks = workload.verify(state)
            checkpoint_kb = workload.checkpoint_kb(state)
        finally:
            workload.close(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds, latencies = _measured(measurements)
    attempted = sum(m["attempted"] for m in measurements)
    failed = sum(m["failed"] for m in measurements)
    report = {"workload": name, "item": workload.item, "checks": checks,
              "attempted": attempted, "failed": failed, "rounds": len(rounds),
              "setup_samples_s": setup_all,
              "factors": [r.factor for r in rounds],
              "raw_throughput": harness.raw_throughput(rounds),
              "raw_rates": [r.items / r.wall_s for r in rounds],
              "tail": harness.tail_percentile(latencies)}
    if not traced:
        report["metrics"] = {
            "setup_s": setup_s,
            "throughput_per_s": harness.throughput(rounds),
            "latency_ms_p50": statistics.median(latencies),
            "cpu_ms_per_item": harness.cpu_ms_per_item(rounds),
            "peak_rss_mb": harness.peak_rss_mb(),
            "checkpoint_kb": checkpoint_kb,
        }
        return report

    traced_items = traced_run["items"]
    loads = setup_recorder.by_layer("serving.checkpoint.load")
    extra = dict(traced_run.get("extra", {}))
    extra.update({
        "core.policy.high_bits_share": getattr(workload, "high_bits_share", lambda: 0.0)(),
        "serving.checkpoint.load.ms": (sum(s.self_time for s in loads) * 1e3 / len(loads)
                                       if loads else 0.0),
        "host.calib.ms": statistics.median(calib.samples_ms[first_traced_calib:]),
        "trace.overhead_ratio": (harness.throughput(traced_run["rounds"])
                                 / harness.throughput(reference["rounds"])),
    })
    metrics, rows, table = ledger.layer_metrics(
        recorder, traced_items, training=name.startswith("train"),
        model_entries=workload.model_entries, extra=extra)
    checks["named_layers_cover_model_thread"] = (metrics["trace.ledger_gap"]
                                                 <= ledger.LEDGER_MARGIN)
    from repro.observability.tracing import validate_chrome_trace
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    payload = recorder.to_chrome()
    payload["traceEvents"] = setup_recorder.to_chrome()["traceEvents"] + payload["traceEvents"]
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(payload))
    report["trace_events"] = validate_chrome_trace(json.loads(trace_path.read_text()))
    report["trace_path"] = str(trace_path.relative_to(ROOT))
    report["metrics"] = metrics
    report["ledger"] = {"wall_s": traced_wall, "items": traced_items, "table": table,
                        "rows": rows}
    return report


def print_report(report: dict, traced: bool) -> None:
    units = PER_LAYER if traced else END_TO_END
    print(f"== {report['workload']} ({'traced' if traced else 'untraced'}): "
          f"{report['rounds']} saturated rounds, {report['attempted']} operations "
          f"attempted, {report['failed']} failed")
    for check, ok in report["checks"].items():
        print(f"   check {check}: {'ok' if ok else 'FAILED'}")
    for name, value in report["metrics"].items():
        print(f"   {name:40s} {value:14.6g} {units[name]}")
    tail = report["tail"]
    if tail is None:
        print("   latency tail: fewer than 40 samples, no tail percentile")
    else:
        print(f"   latency tail: p{tail[0]} = {tail[1]:.4g} ms over {tail[2]} samples")
    print(f"   setup samples (s): {', '.join(f'{s:.3f}' for s in report['setup_samples_s'])}")
    print(f"   host speed factor per saturated round: "
          f"{' '.join(f'{f:.3f}' for f in report['factors'])}")
    print(f"   items/s per saturated round, raw: "
          f"{' '.join(f'{r:.5g}' for r in report['raw_rates'])}")
    print(f"   throughput before the speed factor: {report['raw_throughput']:.6g} /s")
    if traced:
        ledger = report["ledger"]
        print(f"   trace: {report['trace_events']} events in {report['trace_path']}; "
              f"traced wall {ledger['wall_s']:.3f} s over {ledger['items']} "
              f"items ({report['item']}s)")
        print(f"   {'layer (self time)':36s} {'calls':>8s} {'ms':>10s} {'ms/item':>10s} share")
        for layer, (calls, seconds) in ledger["table"].items():
            print(f"   {layer:36s} {calls:8d} {seconds * 1e3:10.2f} "
                  f"{seconds * 1e3 / ledger['items']:10.4f} {seconds / ledger['wall_s']:6.1%}")
        print(f"   {'GEMM layer':24s} {'M':>5s} {'K':>5s} {'N':>6s} {'g':>3s} {'W/A/G':>7s} "
              f"{'calls':>6s} {'ms/call':>8s} {'GFLOP/s':>8s} {'model cycles':>12s}")
        for row in ledger["rows"]:
            bits = "/".join("-" if b is None else str(b) for b in row["bits"])
            label = f"{row['kind'].split('.')[-1]}#{row['layer']}"
            print(f"   {label:24s} {row['m']:5d} {row['k']:5d} {row['n']:6d} "
                  f"{row['groups']:3d} {bits:>7s} {row['calls']:6d} {row['ms']:8.3f} "
                  f"{row['gflops']:8.2f} {row['cycles']:12.0f}")


def result_line(report: dict, traced: bool) -> str:
    units = PER_LAYER if traced else END_TO_END
    correct = all(report["checks"].values())
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": float(report["metrics"][name]), "unit": unit}
                    for name, unit in units.items()},
    })


def short_mode() -> int:
    """Every workload, untraced and traced, on small inputs."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in _workloads():
        for traced in (False, True):
            report = run_workload(name, seed=0, seconds=1.0, traced=traced, short=True)
            print_report(report, traced)
            line = json.loads(result_line(report, traced))
            names = {m["name"] for m in declared["per_layer" if traced else "end_to_end"]}
            ok &= line["correct"] and line["failed"] == 0 and set(line["metrics"]) == names
    print(json.dumps({"short_mode": "ok" if ok else "FAILED"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="run every workload and every check on small inputs")
    args = parser.parse_args()
    try:
        _import_program()
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if args.short:
        return short_mode()
    if args.workload not in _workloads():
        parser.error(f"--workload must be one of {sorted(_workloads())}")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print_report(report, bool(args.trace))
    print(result_line(report, bool(args.trace)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - no result line on any failure
        traceback.print_exc()
        sys.exit(1)
