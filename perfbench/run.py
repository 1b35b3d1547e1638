"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the program is imported from
``src/`` there.  Each invocation is a fresh interpreter that runs one
workload, so ``peak_rss_mb`` belongs to that workload alone.

``--trace 0`` sets the workload up three times (``setup_s`` is the
median), makes the checker's reference runs, measures ``--seconds`` of
closed-loop ops and prints the end-to-end metrics; times are scaled by
the run's host-calibration factor (see ``workloads.py``).  ``--trace 1`` sets
up once, measures half the time untraced and half with the layer
wrappers of ``layers.py`` installed, and prints the per-layer metrics,
including the tracing overhead between the two halves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, the input digest and the sample counts.
The exit code is 0 only when every op ran and matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Settings that would make the numbers measure something other than the
# package defaults with tracing off.
REFUSED_ENV = (
    "REPRO_OBS",
    "REPRO_STORE",
    "REPRO_BUILD_JOBS",
    "REPRO_ROUND_ENGINE",
    "REPRO_DISTANCE_ENGINE",
    "REPRO_STORE_CHAOS",
    "REPRO_PARALLEL_CRASH_SHARD",
)

# setup_s is the median of this many set-ups.  The count is fixed: a
# count that followed the clock would move peak_rss_mb with it.
SETUP_REPEATS = 3


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def throughput(tallies, raw: bool = False) -> float:
    """Ops per second of calibrated (or raw) measured time, summed over
    the clients."""
    return sum(len(t.latencies) / (t.measured if raw else t.normalized) for t in tallies)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    from workloads import Calibration, drive

    calibration = Calibration()
    raw_setup = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
            state = None
        calibration.sample()
        start = perf_counter()
        state = workload.setup(seed)
        raw_setup.append(perf_counter() - start)
    try:
        workload.reference(state)
        tallies = drive(workload, state, seconds, seed, workload.exact_cycles, calibration)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        inputs = workload.inputs(state)
    finally:
        workload.close(state)

    latencies = [x for t in tallies for x in t.latencies]
    exact_ops = sum(t.exact_ops for t in tallies)
    messages = sum(t.messages for t in tallies)
    metrics = {
        "ops_per_s": metric(throughput(tallies), "op/s"),
        "latency_p50_ms": metric(1000 * quantile(latencies, 0.5), "ms"),
        "latency_p90_ms": metric(1000 * quantile(latencies, 0.9), "ms"),
        "setup_s": metric(statistics.median(raw_setup) * calibration.factor, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "messages_per_op": metric(messages / exact_ops, "msgs"),
        "rounds_per_op": metric(sum(t.rounds for t in tallies) / exact_ops, "rounds"),
        "spanner_edges_per_op": metric(sum(t.edges for t in tallies) / exact_ops, "edges"),
        "msg_ratio": metric(messages / sum(t.direct for t in tallies), "ratio"),
    }
    raw = [x for t in tallies for x in t.raw_latencies]
    info = {
        "raw_ops_per_s": throughput(tallies, raw=True),
        "raw_latency_p50_ms": 1000 * quantile(raw, 0.5),
        "raw_latency_p90_ms": 1000 * quantile(raw, 0.9),
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > quantile(latencies, 0.9)),
        "exact_ops": exact_ops,
        "raw_setup_s": statistics.median(raw_setup),
        "calibration_factor": calibration.factor,
        "calibration_samples": len(calibration.samples),
        "inputs": inputs,
    }
    return metrics, tallies, info


def traced_run(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    from layers import LAYERS, LayerTracer
    from workloads import Calibration, drive

    state = workload.setup(seed)
    try:
        workload.reference(state)
        half = seconds / 2
        plain = drive(
            workload, state, half, seed, workload.exact_cycles, Calibration()
        )
        before = workload.counters(state)
        tracer = LayerTracer()
        tracer.install()
        try:
            tracer.recording = True
            traced = drive(
                workload, state, half, seed, 0, Calibration(), tracer.op
            )
            tracer.recording = False
        finally:
            tracer.uninstall()
        after = workload.counters(state)
        waits = 0.0
        if after:
            traces = state.front.traces[before["traces"] : after["traces"]]
            waits = sum(trace.wait_seconds for trace in traces)
        inputs = workload.inputs(state)
        generate_s = state.generate_s
    finally:
        workload.close(state)

    ops = sum(len(t.latencies) for t in traced)
    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = metric(tracer.busy[layer] / ops, "s")
        metrics[f"{layer}.self_s"] = metric(tracer.self_time[layer] / ops, "s")
        metrics[f"{layer}.calls"] = metric(tracer.calls[layer] / ops, "count")

    exact_ops = sum(t.exact_ops for t in plain)
    for name in ("trials", "queries", "levels"):
        total = sum(getattr(t, name) for t in plain)
        metrics[f"core.{name}_per_op"] = metric(total / exact_ops, "count")

    def delta(group: str, key: str) -> int:
        return after[group][key] - before[group][key] if after else 0

    hits = delta("store", "memory_hits") + delta("store", "disk_hits")
    lookups = hits + delta("store", "misses")
    metrics["store.hit_ratio"] = metric(hits / lookups if lookups else 0.0, "ratio")
    for key in ("misses", "puts", "retries", "lock_contended"):
        metrics[f"store.{key}"] = metric(delta("store", key) / ops, "count")
    requests = delta("service", "requests")
    metrics["service.wait_s"] = metric(waits / ops, "s")
    metrics["service.merged_ratio"] = metric(
        delta("service", "merged") / requests if requests else 0.0, "ratio"
    )
    for key in ("repairs", "rebuilds", "timeouts"):
        metrics[f"service.{key}"] = metric(delta("service", key) / ops, "count")
    metrics["graphs.generate.busy_s"] = metric(generate_s, "s")
    op_time = sum(x for t in traced for x in t.raw_latencies)
    metrics["trace.unattributed_frac"] = metric(
        max(0.0, op_time - tracer.covered - waits) / op_time, "fraction"
    )
    metrics["trace.overhead"] = metric(throughput(traced) / throughput(plain), "ratio")
    info = {
        "samples": ops,
        "untraced_samples": sum(len(t.latencies) for t in plain),
        "inputs": inputs,
    }
    return metrics, plain + traced, info


def print_table(metrics: dict, trace: bool) -> None:
    if not trace:
        for name, entry in metrics.items():
            print(f"  {name:24s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
        return
    from layers import LAYERS

    header = f"  {'layer':28s} {'busy_s/op':>12s} {'self_s/op':>12s} {'calls/op':>10s}"
    print(header, file=sys.stderr)
    for layer in LAYERS:
        busy, own, calls = (
            metrics[f"{layer}.{key}"]["value"] for key in ("busy_s", "self_s", "calls")
        )
        if calls:
            print(f"  {layer:28s} {busy:12.6f} {own:12.6f} {calls:10.3f}", file=sys.stderr)
    for name, entry in metrics.items():
        if name.rsplit(".", 1)[0] not in LAYERS:
            print(f"  {name:28s} {entry['value']:12.6g} {entry['unit']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pinned = [name for name in REFUSED_ENV if os.environ.get(name)]
    if pinned:
        print(
            f"refusing to run: {', '.join(pinned)} set; the benchmark measures the defaults",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    run = traced_run if args.trace else timed_run
    metrics, tallies, info = run(workload, args.seed, args.seconds)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    errors = [e for t in tallies for e in t.errors]
    info.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        error_rate=failed / attempted,
        errors=errors[:5],
        env=environment(),
    )
    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed",
        file=sys.stderr,
    )
    print_table(metrics, bool(args.trace))
    print(json.dumps({"info": info}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
