"""Short-mode self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Every run is a fresh interpreter of
``run.py`` measuring one second.  For each workload it checks that:

* the run with ``--trace 0`` prints every ``end_to_end`` metric of
  ``BENCHMARK.json`` with its unit, and the run with ``--trace 1`` every
  ``per_layer`` metric, and that every op matched its reference;
* two runs with the same seed give identical exact columns;
* a run with another seed generates different inputs, so a claim can be
  checked on a seed held out while the change was written.

It also checks that ``run.py`` refuses to run, without printing a
result, in a directory that holds only the benchmark and no program.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
EXACT = ("messages_per_op", "rounds_per_op", "spanner_edges_per_op", "msg_ratio")


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable,
        str(cwd / BENCH.name / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        print(workload)
        runs = {}
        for key, seed, trace in (("a", 1, 0), ("b", 1, 0), ("other", 2, 0), ("traced", 1, 1)):
            proc = run(ROOT, workload, seed, trace)
            why = "" if proc.returncode == 0 else f" ({proc.stderr.strip()[-300:]})"
            expect(proc.returncode == 0, f"seed {seed} trace {trace} exits 0{why}")
            if proc.returncode != 0:
                break
            runs[key] = parse(proc)
        if len(runs) < 4:
            continue
        for key, group in (("a", "end_to_end"), ("traced", "per_layer")):
            result, _ = runs[key]
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            expect(got == want, f"{group} metrics and units as BENCHMARK.json names them")
            expect(result["correct"] and result["failed"] == 0, f"{group} run: every op matched")
        a, b = runs["a"][0]["metrics"], runs["b"][0]["metrics"]
        expect(
            all(a[name]["value"] == b[name]["value"] for name in EXACT),
            "same seed, identical exact columns",
        )
        expect(runs["a"][1]["inputs"] == runs["b"][1]["inputs"], "same seed, same inputs")
        expect(runs["a"][1]["inputs"] != runs["other"][1]["inputs"], "other seed, other inputs")

    print("bare directory")
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 1, 0)
        expect(
            proc.returncode != 0 and not proc.stdout.strip(),
            "refuses without the program, prints no result",
        )
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
