"""Command-line entry point: ``python -m repro.bench``.

Examples::

    python -m repro.bench --experiment E3
    python -m repro.bench --experiment all --scale quick
    python -m repro.bench --experiment all --scale full --out results.txt
    python -m repro.bench --experiment all --store /tmp/artifacts  # reuse spanners
    python -m repro.bench --perf                   # measure kernels, write BENCH_core.json
    python -m repro.bench --perf --check           # exact columns + speedups vs committed
    python -m repro.bench --perf --check --filter "!*n100000" --repeats 1
    python -m repro.bench --perf --memory-budget 4096  # fail past 4 GB in any kernel
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.tables import format_table

__all__ = ["main"]


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        # 0 repeats would time nothing and record infinite kernel times
        raise argparse.ArgumentTypeError("must be a positive integer")
    return parsed


def _experiment_key(name: str) -> tuple[int, object]:
    """Natural sort: E2 before E10; unknown shapes sort last, lexicographically."""
    suffix = name[1:]
    if name[:1].upper() == "E" and suffix.isdigit():
        return (0, int(suffix))
    return (1, name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the paper's claims as measured tables "
            "(Bitton-Emek-Izumi-Kutten, DISC 2019)."
        ),
    )
    parser.add_argument("--experiment", default="all", help="experiment id (E1..E11) or 'all'")
    parser.add_argument(
        "--scale",
        default="quick",
        choices=("quick", "full"),
        help="workload sizes: quick (seconds each) or full (minutes total)",
    )
    parser.add_argument("--out", default=None, help="also append the rendered tables to this file")
    parser.add_argument(
        "--perf", action="store_true", help="run the perf kernels instead of the experiments"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with --perf: compare against the committed BENCH_core.json and "
        "exit non-zero when an exact column changes or a speedup drops "
        "more than 25%% (best times too, on a host with the committed "
        "fingerprint); does not overwrite the file",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="GLOB",
        help="with --perf: run only kernels matching these comma-"
        "separated fnmatch globs (e.g. 'runtime_vec/*,flood/*'); prefix "
        "a glob with '!' to exclude (e.g. '!*n100000'); with "
        "--check, only matching kernels are compared",
    )
    parser.add_argument(
        "--repeats",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --perf: override every kernel's best-of repeat count",
    )
    parser.add_argument(
        "--memory-budget",
        type=float,
        default=None,
        metavar="MB",
        help="with --perf: fail (exit 1) if any kernel's own peak RSS — "
        "the high-water mark from its build through its first fast body — "
        "exceeds this many megabytes",
    )
    parser.add_argument(
        "--update-readme",
        action="store_true",
        help="regenerate the README's generated sections: Performance "
        "with --perf, Robustness with an experiment run that includes E11",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve the experiments through a shared artifact store at "
        "DIR (sets REPRO_STORE for this run), so cells that share a graph "
        "+ SamplerParams reuse the spanner and flood schedule; tables are "
        "bit-identical either way (DESIGN.md §3.8).  Ignored with --perf",
    )
    args = parser.parse_args(argv)

    if args.store and not args.perf:
        # Environment (not a parameter): every store-aware consumer the
        # experiments reach reads it without any plumbing.
        os.environ["REPRO_STORE"] = args.store

    if args.perf:
        from repro.bench.perf import main_perf

        # A store warm from earlier runs would change what the service
        # kernels' build and baseline pay, so perf runs are always
        # store-off.  The variable is restored afterwards: in-process
        # callers keep their configured store.
        saved_store = os.environ.pop("REPRO_STORE", None)
        if saved_store is not None:
            print("perf: ignoring inherited REPRO_STORE (kernels run store-off)")
        try:
            return main_perf(args)
        finally:
            if saved_store is not None:
                os.environ["REPRO_STORE"] = saved_store

    names = (
        sorted(EXPERIMENTS, key=_experiment_key)
        if args.experiment.lower() == "all"
        else [args.experiment]
    )

    chunks: list[str] = []
    failures = 0
    tables: dict[str, object] = {}  # E11's table feeds --update-readme
    for name in names:
        started = time.perf_counter()
        try:
            table = run_experiment(name, args.scale)
        except AssertionError as exc:
            chunks.append(f"== {name}: FAILED ==\n{exc}")
            failures += 1
            continue
        chunks.append(f"{format_table(table)}\n({time.perf_counter() - started:.1f}s)")
        tables[name.upper()] = table
    output = "\n\n".join(chunks) + "\n"
    sys.stdout.write(output)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(output)
    if args.update_readme:
        from repro.bench.experiments_dynamic import update_readme_robustness

        table = tables.get("E11")
        if table is None:
            sys.stderr.write(
                "--update-readme without --perf regenerates the Robustness "
                "section and needs E11 in the run\n"
            )
        elif update_readme_robustness(table):
            sys.stdout.write("updated README.md Robustness section\n")
        else:
            sys.stderr.write("README.md markers not found; section not updated\n")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
