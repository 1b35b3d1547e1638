"""Columnar level engine: bit-identity with the oracle (DESIGN.md §3.2).

The contract is absolute: the default ``build_spanner(...)``, which runs
every level on the columnar engine, returns a ``SpannerResult`` that
compares equal — edges, full trace with every per-node
``NodeLevelTrace``, finished-cluster certificates — to the seed recount
``build_spanner(..., incremental=False)``.  These tests pin that across
graph families, seeds, hierarchy depths, both trial regimes (vectorized
exhaustive trials and the ``TrialMachine`` fallback), and repair from a
default-built parent.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SamplerParams, build_spanner
from repro.dynamic import ChurnPlan, apply_churn, repair_spanner
from repro.graphs import barabasi_albert, erdos_renyi, torus

_PARAMS = SamplerParams(k=2, h=2, seed=1)

_FAMILIES = {
    "gnp": lambda: erdos_renyi(120, 0.08, seed=5),
    "torus": lambda: torus(8, 9),
    "ba": lambda: barabasi_albert(90, 3, seed=5),
}


class TestBitIdentity:
    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    @pytest.mark.parametrize("k", [2, 4])
    def test_equals_serial(self, family, k):
        params = SamplerParams(k=k, h=2, seed=1)
        net = _FAMILIES[family]()
        oracle = build_spanner(net, params, incremental=False)
        assert build_spanner(net, params) == oracle  # edges, trace, certificates

    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    def test_equals_serial_without_exhaustive_fast_path(self, family):
        """``exhaustive_small_pools=False`` forces every cluster through
        the real TrialMachine fallback."""
        params = SamplerParams(k=2, h=2, seed=1, exhaustive_small_pools=False)
        net = _FAMILIES[family]()
        assert build_spanner(net, params) == build_spanner(
            net, params, incremental=False
        )

    @given(
        seed=st.integers(0, 200),
        n=st.integers(min_value=30, max_value=120),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_serial_property(self, seed, n):
        net = erdos_renyi(n, min(0.95, 8 / max(1, n - 1)), seed=seed)
        params = SamplerParams(k=2, h=2, seed=seed + 1)
        assert build_spanner(net, params) == build_spanner(
            net, params, incremental=False
        )


class TestRepair:
    def test_repair_of_default_parent(self):
        """Repair from a default-built parent equals repair from the
        oracle's build of the same graph, and both equal the oracle's
        rebuild."""
        net = erdos_renyi(150, 0.08, seed=5)
        child, log = apply_churn(
            net,
            ChurnPlan(
                seed=7,
                epochs=1,
                edge_removal=0.1,
                edge_addition=0.05,
                node_crash=0.01,
                node_recovery=0.5,
            ),
            epoch=0,
        )
        parent = build_spanner(net, _PARAMS)
        ref_parent = build_spanner(net, _PARAMS, incremental=False)
        assert parent == ref_parent
        repaired = repair_spanner(parent, child, log)
        assert repaired == repair_spanner(ref_parent, child, log)
        assert repaired == build_spanner(child, _PARAMS, incremental=False)
