"""Columnar level engine: bit-identity with the oracle (DESIGN.md §3.11).

The contract is absolute: ``build_spanner(..., jobs=j)`` for any ``j``
returns a ``SpannerResult`` that compares equal — edges, full trace with
every per-node ``NodeLevelTrace``, finished-cluster certificates — to
the seed recount ``build_spanner(..., incremental=False)``.  These tests
pin that across graph families, seeds, shard counts, and both trial
regimes (vectorized exhaustive trials and the ``TrialMachine``
fallback), plus the operational contract: ``jobs=1`` runs in-process
without a pool or shared memory, and shared-memory segments never
outlive a build, even when a worker dies mid-level.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SamplerParams, build_spanner
from repro.core import parallel
from repro.core.sampler import JOBS_ENV, resolve_jobs
from repro.dynamic import ChurnPlan, apply_churn, repair_spanner
from repro.errors import ConfigurationError, SimulationError
from repro.graphs import barabasi_albert, erdos_renyi, torus

_PARAMS = SamplerParams(k=2, h=2, seed=1)

_FAMILIES = {
    "gnp": lambda: erdos_renyi(120, 0.08, seed=5),
    "torus": lambda: torus(8, 9),
    "ba": lambda: barabasi_albert(90, 3, seed=5),
}


def _no_leaked_segments() -> bool:
    return parallel._LIVE_SEGMENTS == set()


class TestBitIdentity:
    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_equals_serial(self, family, jobs):
        net = _FAMILIES[family]()
        oracle = build_spanner(net, _PARAMS, incremental=False)
        par = build_spanner(net, _PARAMS, jobs=jobs)
        assert par == oracle  # full equality: edges, trace, certificates
        assert _no_leaked_segments()

    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    def test_equals_serial_without_exhaustive_fast_path(self, family):
        """``exhaustive_small_pools=False`` forces every cluster through
        the real TrialMachine fallback inside the workers."""
        params = SamplerParams(k=2, h=2, seed=1, exhaustive_small_pools=False)
        net = _FAMILIES[family]()
        assert build_spanner(net, params, jobs=2) == build_spanner(
            net, params, incremental=False
        )
        assert _no_leaked_segments()

    @given(
        seed=st.integers(0, 200),
        n=st.integers(min_value=30, max_value=120),
        jobs=st.sampled_from([2, 3, 4]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_serial_property(self, seed, n, jobs):
        net = erdos_renyi(n, min(0.95, 8 / max(1, n - 1)), seed=seed)
        params = SamplerParams(k=2, h=2, seed=seed + 1)
        assert build_spanner(net, params, jobs=jobs) == build_spanner(
            net, params, incremental=False
        )
        assert _no_leaked_segments()

    def test_jobs_one_runs_in_process(self, monkeypatch):
        """jobs=1 runs the columnar engine in-process: no process pool
        and no shared-memory segment is ever created."""
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise AssertionError("jobs=1 must not create a pool or a segment")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        net = _FAMILIES["gnp"]()
        from repro.core.sampler import SamplerRun

        run = SamplerRun(net, _PARAMS, jobs=1)
        for j in range(_PARAMS.levels):
            run.run_level(j)
        assert type(run._engine) is parallel.LevelEngine
        run.close()
        assert _no_leaked_segments()
        assert run.result() == build_spanner(net, _PARAMS, incremental=False)

    def test_reference_strategy_ignores_jobs(self):
        """incremental=False is the seed equivalence baseline; jobs must
        be a no-op there, not an error."""
        net = erdos_renyi(60, 0.15, seed=3)
        ref = build_spanner(net, _PARAMS, incremental=False, jobs=4)
        assert ref == build_spanner(net, _PARAMS, incremental=False)
        assert _no_leaked_segments()


class TestJobsResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(None) == 7

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)

    def test_env_drives_build(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        net = erdos_renyi(80, 0.1, seed=2)
        assert build_spanner(net, _PARAMS) == build_spanner(net, _PARAMS, jobs=1)
        assert _no_leaked_segments()


class TestCrashCleanup:
    def test_worker_crash_raises_and_unlinks(self, monkeypatch):
        """A worker dying mid-shard (simulated via the crash hook, which
        makes every shard task ``os._exit(13)``) must surface as
        SimulationError — not hang, not leak the shm segment."""
        monkeypatch.setenv(parallel._CRASH_ENV, "1")
        net = erdos_renyi(100, 0.08, seed=4)
        with pytest.raises(SimulationError):
            build_spanner(net, _PARAMS, jobs=2)
        assert _no_leaked_segments()
        if os.path.isdir("/dev/shm"):
            leaked = [f for f in os.listdir("/dev/shm") if "repro" in f]
            assert leaked == []

    def test_build_usable_after_crash(self, monkeypatch):
        """The failed build must not poison the process: a fresh build
        (in-process or parallel) right after still works and agrees."""
        net = erdos_renyi(100, 0.08, seed=4)
        monkeypatch.setenv(parallel._CRASH_ENV, "1")
        with pytest.raises(SimulationError):
            build_spanner(net, _PARAMS, jobs=2)
        monkeypatch.delenv(parallel._CRASH_ENV)
        assert build_spanner(net, _PARAMS, jobs=2) == build_spanner(net, _PARAMS)
        assert _no_leaked_segments()


class TestRepairParallel:
    def _churned(self, seed=7, rate=0.1):
        net = erdos_renyi(150, 0.08, seed=5)
        child, log = apply_churn(
            net,
            ChurnPlan(
                seed=seed,
                epochs=1,
                edge_removal=rate,
                edge_addition=rate / 2,
                node_crash=rate / 10,
                node_recovery=0.5,
            ),
            epoch=0,
        )
        return net, child, log

    def test_repair_of_parallel_parent(self):
        """Repair from a parallel-built parent equals repair from the
        oracle's build of the same graph, and both equal the rebuild."""
        net, child, log = self._churned()
        par_parent = build_spanner(net, _PARAMS, jobs=2)
        ref_parent = build_spanner(net, _PARAMS, incremental=False)
        assert par_parent == ref_parent
        repaired = repair_spanner(par_parent, child, log)
        assert repaired == repair_spanner(ref_parent, child, log)
        assert repaired == build_spanner(child, _PARAMS, incremental=False)

    @pytest.mark.parametrize("rate", [0.05, 0.4])
    def test_parallel_repair_equals_serial_repair(self, rate):
        """repair_spanner(jobs=2) shards every level of the rebuild; the
        result is the in-process repair and the oracle's build."""
        net, child, log = self._churned(seed=11, rate=rate)
        parent = build_spanner(net, _PARAMS)
        par = repair_spanner(parent, child, log, jobs=2)
        ser = repair_spanner(parent, child, log)
        assert par == ser
        assert par == build_spanner(child, _PARAMS, incremental=False)
        assert _no_leaked_segments()
