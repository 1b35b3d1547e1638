"""The oracle-ratio harness (``python -m repro.bench --perf``).

``perfbench/`` times every end-to-end workload.  This harness records
what it cannot: each fast path's in-run speedup over the body it is
checked against, the exact cost columns (messages, rounds, |S|,
queries) both bodies must agree on, and the 10^5-node scale and memory
record, in ``BENCH_core.json`` at the repo root.

``--check`` gates only what carries across hosts (:func:`check_against`):
exact columns must equal the committed ones, a speedup may not drop more
than :data:`REGRESSION_TOLERANCE` below its committed value, and best
times are compared only when the environment fingerprint (versions,
platform, CPU model and count, RAM) equals the committed one.

``peak_rss_mb`` is each kernel's own high-water mark: freed heap goes
back to the OS and ``/proc/self/clear_refs`` resets ``VmHWM`` before
``build()``; it is read after the first fast body.  Where either step is
unavailable the column is omitted.
"""

from __future__ import annotations

import ctypes
import fnmatch
import gc
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import networkx
import numpy

from repro import obs
from repro.algorithms import (
    BallCollect, BfsLayers, LubyMis, MinIdAggregation, RandomMatching, RandomizedColoring,
    run_direct,
)
from repro.core import SamplerParams, build_spanner
from repro.core.distributed import simulate_sampler
from repro.engines import Engines
from repro.graphs import barabasi_albert, dense_gnm, erdos_renyi, torus
from repro.local.network import Network
from repro.service import ConcurrentSimulationService, SimulationService
from repro.simulate import flood_schedule, t_local_broadcast
from repro.simulate.gossip import run_push_pull

__all__ = [
    "BENCH_FILE", "REGRESSION_TOLERANCE", "SPREAD_WARNING", "Kernel", "default_kernels",
    "run_perf_suite", "check_against", "format_report", "parse_filter",
    "render_readme_section", "update_readme",
]

BENCH_FILE = "BENCH_core.json"
REGRESSION_TOLERANCE = 0.25  # a speedup may drop, or seconds grow, by this much
SPREAD_WARNING = 0.20  # warn when (max - min) / min across samples exceeds this

_SPANNER_PARAMS = SamplerParams(k=2, h=2, seed=1)
_SERVICE_PARAMS = SamplerParams(k=2, h=2, seed=19, c_query=0.7, c_target=1.0)
FLOOD_RADIUS = 4  # reaches most of the spanner
_SHORT = 11  # best-of for sub-0.1 s bodies, whose ratios moved ~20% at 3-5


@dataclass(frozen=True)
class Kernel:
    """One measured unit.  ``build()`` makes the input (untimed): a
    :class:`Network`, or a tuple whose first element is the one whose
    ``n``/``m`` are recorded.  ``run(input)`` is the timed fast body.
    ``baseline``, when set, is the body the fast one is checked against,
    named by ``label`` and timed on the same input; the entry's
    ``speedup`` is its best time over the fast body's.  ``exact(result)``
    returns the cost columns the result already holds (messages, rounds,
    |S|); both bodies must agree on them."""

    name: str
    build: Callable[[], object]
    run: Callable[[object], object]
    exact: Callable[[object], dict]
    baseline: Callable[[object], object] | None = None
    label: str = ""
    repeats: int = 3  # best-of


def _net_of(built: object) -> Network:
    return built[0] if isinstance(built, tuple) else built


def _gnp(n: int, engine: str = "reference") -> Network:
    return erdos_renyi(n, 8 / (n - 1), seed=1, engine=engine)


def _build_costs(result) -> dict:
    """|S| and the centralized build's queries (its message analogue)."""
    return {"spanner_edges": result.size, "queries": result.trace.total_queries}


def _costs(result) -> dict:
    """Messages and rounds of a run report, a flood schedule or a
    distributed spanner result."""
    return {"messages": result.messages.total, "rounds": result.rounds}


def _spanner_costs(result) -> dict:
    return {**_costs(result), "spanner_edges": result.size}


def _spanner(net: Network, incremental: bool = True) -> object:
    return build_spanner(net, _SPANNER_PARAMS, incremental=incremental)


def _spanner_obs(enabled: bool, net: Network) -> object:
    """The default build with the telemetry plane forced on or off, so
    the ratio holds even when the suite itself runs under ``REPRO_OBS``."""
    previous = obs.set_enabled(enabled)
    try:
        return build_spanner(net, _SPANNER_PARAMS)
    finally:
        obs.set_enabled(previous)
        if enabled:
            obs.collector().reset()


def _simulate(h: int, scheduler: str, net: Network) -> object:
    return simulate_sampler(net, SamplerParams(k=3, h=h, seed=1), scheduler=scheduler)


def _flood(engine: str, sub: Network) -> object:
    return flood_schedule(sub, FLOOD_RADIUS, engine=engine)


def _service_batch() -> list:
    """The five payload families round-robined 8x; duplicates are the
    *same* object, so the batching window can merge them across worker
    threads.  Fresh instances per call keep one run's recent-window
    from feeding the next."""
    return [
        MinIdAggregation(3), RandomMatching(1), RandomizedColoring(2), BfsLayers(0, 2), LubyMis(1)
    ] * 8


def _warm_front(workers: int) -> tuple[Network, ConcurrentSimulationService]:
    net = _gnp(2000)
    service = SimulationService(net, params=_SERVICE_PARAMS, seed=33)
    front = ConcurrentSimulationService(service=service, max_workers=workers, merge_window=1.0)
    front.serve(_service_batch()[:5])  # pay construction outside the timing
    return net, front


def _serve(built: tuple[Network, ConcurrentSimulationService]) -> object:
    return built[1].serve(_service_batch())


def _serve_serial(built: tuple[Network, ConcurrentSimulationService]) -> object:
    net, front = built
    service = SimulationService(net, store=front.store, params=_SERVICE_PARAMS, seed=33)
    return [service.submit(request) for request in _service_batch()]


def _served_costs(responses: list) -> dict:
    return {
        "messages": sum(r.report.simulation_messages for r in responses),
        "rounds": sum(r.report.simulation_rounds for r in responses),
        "spanner_edges": responses[0].spanner.size,
    }


def _vec_flood(engine: str, net: Network) -> object:
    return t_local_broadcast(
        net, payload_of=lambda v: (v,), radius=2, engines=Engines("runtime", rounds=engine)
    )


def _vec_gossip(engine: str, net: Network) -> object:
    return run_push_pull(net, rounds=12, t=2, seed=3, engines=Engines(rounds=engine))


def _vec_algo(engine: str, net: Network) -> list:
    """``BallCollect(2)``, then the Luby MIS and matching twins."""
    return [
        run_direct(net, algo, seed=7, engines=Engines(rounds=engine))
        for algo in (BallCollect(2), LubyMis(1), RandomMatching(1))
    ]


def _summed_costs(results: list) -> dict:
    return {
        "messages": sum(r.messages.total for r in results),
        "rounds": sum(r.rounds for r in results),
    }


def _engine_pair(name: str, build, body, repeats: int = 3, exact=_costs) -> Kernel:
    """``body`` on its vector engine against the reference one."""
    vector, reference = partial(body, "vector"), partial(body, "reference")
    return Kernel(name, build, vector, exact, reference, "reference", repeats)


def default_kernels() -> list[Kernel]:
    """The 12 kernels, in run order.  The first is the scale record
    (DESIGN.md §3.11), best-of-1 because its body takes seconds; every
    other kernel carries the body its fast path is checked against:

    * ``spanner/gnp/n2000``: the seed recount (DESIGN.md §3.2);
    * ``obs/overhead``: the same build with spans on, so the speedup is
      the telemetry on-cost and a slower off path drops it (§3.13);
    * ``spanner_dist/*``: the message-passing ``Sampler`` (the oracle of
      the derived construction, §3.14) under the dense scheduler, in its
      quiescent regime — k ~ log log n, h ~ log n, sparse inputs — where
      most trial windows are idle for most nodes (§3.6);
    * ``flood/gnp/n2000``: ``flood_schedule`` on the reference distance
      plane (§3.7);
    * ``service/concurrent/*``: a 1-worker serial ``submit()`` loop over
      the same 40 requests and warm store, where every request pays a
      full replay (§3.12);
    * ``runtime_vec/*``: the per-node interpreter (§3.10) on a radius-2
      runtime flood over a dense G(n, m) (the paper's m >> n regime),
      12 rounds of push-pull gossip and three LOCAL algorithms
      (``BallCollect(2)``, ``LubyMis(1)``, ``RandomMatching(1)``).
    """
    gnp2000 = partial(_gnp, 2000)
    dist = (
        ("gnp/n2000", partial(erdos_renyi, 2000, 3 / 1999, seed=1), 11),
        ("torus/32x32", partial(torus, 32, 32), 10),
        ("ba/n2000", partial(barabasi_albert, 2000, 2, seed=1), 11),
    )
    return [
        Kernel("spanner/gnp/n100000", partial(_gnp, 100000, "array"), _spanner, _build_costs,
               repeats=1),
        Kernel("spanner/gnp/n2000", gnp2000, _spanner, _build_costs,
               partial(_spanner, incremental=False), "oracle", _SHORT),
        Kernel("obs/overhead", gnp2000, partial(_spanner_obs, False), _build_costs,
               partial(_spanner_obs, True), "obs-on", _SHORT),
        *(Kernel(f"spanner_dist/{name}", build, partial(_simulate, h, "active"), _spanner_costs,
                 partial(_simulate, h, "dense"), "dense") for name, build, h in dist),
        _engine_pair("flood/gnp/n2000", lambda: _spanner(_gnp(2000)).subnetwork(), _flood, _SHORT),
        *(Kernel(f"service/concurrent/warm_w{workers}", partial(_warm_front, workers), _serve,
                 _served_costs, _serve_serial, "serial") for workers in (1, 4)),
        _engine_pair("runtime_vec/flood/n2000", partial(dense_gnm, 2000, 90000, seed=1),
                     _vec_flood),
        _engine_pair("runtime_vec/gossip/n2000", gnp2000, _vec_gossip),
        _engine_pair("runtime_vec/algo/n2000", gnp2000, _vec_algo, _SHORT, _summed_costs),
    ]


def _timed(run: Callable[[object], object], built: object) -> tuple[float, object]:
    gc.collect()  # the other body's garbage is not this body's time
    started = time.perf_counter()
    result = run(built)
    return time.perf_counter() - started, result


def _spread(samples: list[float]) -> float:
    low = min(samples)
    return (max(samples) - low) / low if low > 0 else 0.0


def _proc_field(path: str, key: str) -> str | None:
    """The value after ``key:`` in a Linux ``/proc`` text file."""
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def _kib_to_mb(value: str | None) -> float | None:
    return None if value is None else round(int(value.split()[0]) / 1024, 1)


def _reset_peak_rss() -> bool:
    """Hand freed heap back to the OS (glibc ``malloc_trim``), so earlier
    kernels' garbage does not count, then reset ``VmHWM`` to the current
    RSS; False where either is unavailable."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except (OSError, AttributeError):
        return False
    return True


def _measure_kernel(kernel: Kernel, repeats: int | None) -> dict:
    """Build, time and cost one kernel.  Fast and baseline samples
    alternate, so drift in the host's load moves both sides of the ratio
    alike.  Raises when the baseline's exact columns differ from the fast
    body's: a ratio between bodies that disagree means nothing."""
    gc.collect()
    tracked = _reset_peak_rss()
    built = kernel.build()
    net = _net_of(built)
    best_of = repeats if repeats is not None else kernel.repeats
    samples, base_samples, peak = [], [], None
    for _ in range(best_of):
        seconds, result = _timed(kernel.run, built)
        samples.append(seconds)
        if tracked and peak is None:  # its build and one fast body, no baseline yet
            peak = _kib_to_mb(_proc_field("/proc/self/status", "VmHWM"))
        if kernel.baseline is not None:
            seconds, base_result = _timed(kernel.baseline, built)
            base_samples.append(seconds)
    entry: dict = {
        "seconds": round(min(samples), 4),
        "n": net.n,
        "m": net.m,
        "repeats": best_of,
        "exact": kernel.exact(result),
    }
    if peak is not None:
        entry["peak_rss_mb"] = peak
    if _spread(samples) > SPREAD_WARNING:
        entry["spread"] = round(_spread(samples), 2)
    if kernel.baseline is not None:
        if kernel.exact(base_result) != entry["exact"]:
            raise RuntimeError(
                f"{kernel.name}: fast body {entry['exact']} disagrees with its "
                f"{kernel.label} baseline {kernel.exact(base_result)}"
            )
        entry["baseline"] = kernel.label
        entry["baseline_seconds"] = round(min(base_samples), 4)
        entry["speedup"] = round(min(base_samples) / min(samples), 2)
    return entry


def _baseline_text(entry: dict) -> str:
    if "baseline_seconds" not in entry:
        return "—"
    return f"{entry['baseline']} {entry['baseline_seconds']:.3f}s ({entry['speedup']:.2f}x)"


def _progress_line(name: str, entry: dict) -> str:
    line = f"{name}: {entry['seconds']:.3f}s (n={entry['n']}, m={entry['m']})"
    if "baseline_seconds" in entry:
        line += f"; {_baseline_text(entry)}"
    if "spread" in entry:
        line += (
            f"  ** warning: sample spread {entry['spread'] * 100:.0f}% exceeds "
            f"{SPREAD_WARNING * 100:.0f}% — timings are noisy **"
        )
    return line


def _environment() -> dict:
    """The host fingerprint: best times are compared only between
    documents whose fingerprints are equal."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "ram_total_mb": _kib_to_mb(_proc_field("/proc/meminfo", "MemTotal")),
    }


def _matches(name: str, patterns: list[str] | None) -> bool:
    """fnmatch against a glob list; ``!glob`` entries exclude.  A name
    matches when no ``!`` pattern matches it and some positive pattern
    does, or there is none: ``!*n100000`` is "all but the scale record"."""
    if not patterns:
        return True
    negative = [p[1:] for p in patterns if p.startswith("!")]
    if any(fnmatch.fnmatch(name, pattern) for pattern in negative):
        return False
    positive = [p for p in patterns if not p.startswith("!")]
    if not positive:
        return True
    return any(fnmatch.fnmatch(name, pattern) for pattern in positive)


def parse_filter(spec: str | None) -> list[str] | None:
    """``--filter`` value → list of fnmatch globs (comma-separated,
    ``!``-prefixed globs exclude — see :func:`_matches`)."""
    if not spec:
        return None
    patterns = [part.strip() for part in spec.split(",") if part.strip()]
    return patterns or None


def run_perf_suite(progress: Callable[[str], None] | None = None, *,
                   filter_patterns: list[str] | None = None, repeats: int | None = None) -> dict:
    """Measure every kernel (or the ``filter_patterns`` subset) in this
    process, in order; returns the ``BENCH_core.json`` document.
    ``repeats`` overrides each kernel's best-of count when given."""
    doc: dict = {"schema": 2, "suite": "core", "environment": _environment(), "kernels": {}}
    for kernel in default_kernels():
        if _matches(kernel.name, filter_patterns):
            entry = doc["kernels"][kernel.name] = _measure_kernel(kernel, repeats)
            if progress:
                progress(_progress_line(kernel.name, entry))
    return doc


def check_against(committed: dict, fresh: dict,
                  filter_patterns: list[str] | None = None) -> list[str]:
    """Regressions of ``fresh`` against ``committed``: changed exact
    columns, a speedup more than :data:`REGRESSION_TOLERANCE` below the
    committed one and — only when both documents carry the same
    environment fingerprint — a best time that much above it.  With
    ``filter_patterns``, only committed kernels matching the globs are
    compared; kernels excluded by the filter are not "missing"."""
    same_host = committed.get("environment") == fresh.get("environment")
    tolerance = f"tolerance {REGRESSION_TOLERANCE * 100:.0f}%"
    problems: list[str] = []
    for name, old in committed.get("kernels", {}).items():
        if not _matches(name, filter_patterns):
            continue
        new = fresh["kernels"].get(name)
        if new is None:
            problems.append(f"{name}: kernel missing from fresh run")
            continue
        if new.get("exact") != old.get("exact"):
            problems.append(f"{name}: exact columns {new.get('exact')} vs {old.get('exact')}")
        ratio, floor = new.get("speedup", 0.0), old.get("speedup", 0.0) * (1 - REGRESSION_TOLERANCE)
        if ratio < floor:
            problems.append(
                f"{name}: speedup over {old.get('baseline', 'baseline')} {ratio:.2f}x vs "
                f"committed {old['speedup']:.2f}x ({tolerance})"
            )
        before, after = old["seconds"], new["seconds"]
        if same_host and before > 0 and after > before * (1 + REGRESSION_TOLERANCE):
            problems.append(
                f"{name}: {after:.3f}s vs committed {before:.3f}s "
                f"(+{(after / before - 1) * 100:.0f}%, {tolerance})"
            )
    return problems


def format_report(doc: dict) -> str:
    """The kernels as a Markdown table: the run report and the README
    Performance block."""
    if not doc["kernels"]:
        return "(no kernels matched)"
    lines = [
        "| kernel | n | m | exact columns | best time | baseline | peak RSS |",
        "|---|---:|---:|---|---:|---:|---:|",
    ]
    for name, entry in doc["kernels"].items():
        exact = " ".join(f"{key}={value}" for key, value in entry["exact"].items())
        peak = f"{entry['peak_rss_mb']:.1f} MB" if "peak_rss_mb" in entry else "—"
        spread = f" (spread {entry['spread'] * 100:.0f}%)" if "spread" in entry else ""
        lines.append(
            f"| `{name}` | {entry['n']} | {entry['m']} | {exact} | "
            f"{entry['seconds']:.3f}s{spread} | {_baseline_text(entry)} | {peak} |"
        )
    return "\n".join(lines)


README_BEGIN = "<!-- BENCH_core:begin -->"
README_END = "<!-- BENCH_core:end -->"
_README_NOTES = """\
Each baseline is the body its fast path is checked against, timed on the
same input in the same run, and both must report the same exact columns
(`repro.bench.perf.default_kernels` says which body each label names).
`peak RSS` is each kernel's own high-water mark, from its build through
its first fast body.  Regenerate with `PYTHONPATH=src python -m repro.bench
--perf --update-readme`.  `--perf --check` fails when an exact column
changes or a speedup drops more than 25%; best times are compared only
on a host whose fingerprint matches the committed `environment`."""


def render_readme_section(doc: dict) -> str:
    """The README's Performance block, generated from the bench doc."""
    return "\n\n".join([README_BEGIN, format_report(doc), _README_NOTES + "\n" + README_END])


def update_readme(doc: dict, readme_path: str = "README.md") -> bool:
    """Regenerate the README's Performance block; True on success."""
    try:
        with open(readme_path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return False
    start, stop = text.find(README_BEGIN), text.find(README_END)
    if start == -1 or stop == -1:
        return False
    with open(readme_path, "w", encoding="utf-8") as handle:
        handle.write(text[:start] + render_readme_section(doc) + text[stop + len(README_END):])
    return True


def main_perf(args) -> int:
    """Entry point used by ``repro.bench.harness`` for ``--perf``."""
    patterns = parse_filter(args.filter)
    doc = run_perf_suite(
        progress=lambda line: print(f"  .. {line}", flush=True),
        filter_patterns=patterns,
        repeats=args.repeats,
    )
    sys.stdout.write(format_report(doc) + "\n")
    budget = args.memory_budget
    if budget is not None:
        over = [
            f"  {name}: peak RSS {entry['peak_rss_mb']:.1f} MB\n"
            for name, entry in doc["kernels"].items()
            if entry.get("peak_rss_mb", 0.0) > budget
        ]
        if over:
            sys.stderr.write(f"memory budget exceeded ({budget:.0f} MB):\n" + "".join(over))
            return 1
        sys.stdout.write(f"memory check OK: every kernel's peak RSS within {budget:.0f} MB\n")
    if args.check:
        try:
            with open(BENCH_FILE, encoding="utf-8") as handle:
                committed = json.load(handle)
        except FileNotFoundError:
            sys.stderr.write(f"--check: no committed {BENCH_FILE}; run --perf first\n")
            return 2
        problems = check_against(committed, doc, filter_patterns=patterns)
        if problems:
            sys.stderr.write("perf regressions detected:\n" + "".join(f"  {p}\n" for p in problems))
            return 1
        same_host = committed.get("environment") == doc["environment"]
        sys.stdout.write(
            f"perf check OK against {BENCH_FILE}: exact columns equal, no speedup dropped "
            f"beyond {REGRESSION_TOLERANCE * 100:.0f}%; best times "
            f"{'compared' if same_host else 'not compared: the host fingerprint differs'}\n"
        )
        return 0
    if patterns:
        # A filtered run measures a subset; committing it as the baseline
        # would delete every other kernel's record.
        sys.stderr.write(f"--filter without --check: refusing to overwrite {BENCH_FILE}\n")
        return 2
    with open(BENCH_FILE, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    sys.stdout.write(f"wrote {BENCH_FILE}\n")
    if args.update_readme:
        if update_readme(doc):
            sys.stdout.write("updated README.md Performance section\n")
        else:
            sys.stderr.write("README.md markers not found; section not updated\n")
    return 0
