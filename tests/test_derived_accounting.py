"""Derived distributed construction == the message-passing oracle.

``build_spanner_distributed`` derives the distributed ``Sampler``'s
result from the centralized trace and the global schedule (DESIGN.md
§3.14); ``simulate_sampler`` runs the real program and meters it.  The
two ``SpannerResult``s must be equal in full: edges, trace, rounds, and
``total``/``by_tag``/``per_round`` of the messages.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import validate_spanner
from repro.core import SamplerParams, SpannerResult
from repro.core.distributed import build_spanner_distributed, simulate_sampler
from repro.graphs import caveman, complete_graph, dense_gnm, erdos_renyi, torus
from repro.local.network import Network
from test_core_equivalence import CASES


def assert_results_equal(derived: SpannerResult, oracle: SpannerResult) -> None:
    assert derived.edges == oracle.edges
    assert derived.trace == oracle.trace
    assert derived.rounds == oracle.rounds
    assert derived.messages.total == oracle.messages.total
    assert derived.messages.by_tag == oracle.messages.by_tag
    assert derived.messages.per_round == oracle.messages.per_round
    assert derived == oracle


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
def test_derived_equals_oracle_on_core_cases(case):
    _name, build, params = case
    net = build()
    assert_results_equal(
        build_spanner_distributed(net, params), simulate_sampler(net, params)
    )


EDGE_CASES = {
    "single": lambda: Network.from_edge_pairs(1, [], name="single"),
    "edgeless": lambda: Network.from_edge_pairs(5, [], name="edgeless"),
    "path4": lambda: Network.from_edge_pairs(4, [(0, 1), (1, 2), (2, 3)]),
    "star6": lambda: Network.from_edge_pairs(6, [(0, i) for i in range(1, 6)]),
    "two-triangles": lambda: Network.from_edge_pairs(
        7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
@pytest.mark.parametrize("k,h", [(1, 1), (2, 2)])
def test_derived_equals_oracle_on_degenerate_graphs(name, k, h):
    net = EDGE_CASES[name]()
    params = SamplerParams(k=k, h=h, seed=2)
    assert_results_equal(
        build_spanner_distributed(net, params), simulate_sampler(net, params)
    )


FAMILIES = {
    "gnp": lambda seed: erdos_renyi(48, 0.15, seed=seed),
    "torus": lambda seed: torus(6, 6),
    "caveman": lambda seed: caveman(5, 6),
    "complete": lambda seed: complete_graph(24),
    "dense_gnm": lambda seed: dense_gnm(40, 300, seed=seed),
}
KH = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 1)]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    graph_seed=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=1000),
    kh=st.sampled_from(KH),
)
def test_property_derived_equals_oracle(family, graph_seed, seed, kh):
    k, h = kh
    net = FAMILIES[family](graph_seed)
    params = SamplerParams(k=k, h=h, seed=seed, c_query=0.7, c_target=1.0)
    assert_results_equal(
        build_spanner_distributed(net, params), simulate_sampler(net, params)
    )


def test_derived_round_trips_through_npz_equal_to_oracle(tmp_path):
    net = erdos_renyi(60, 0.15, seed=12)
    params = SamplerParams(k=2, h=2, seed=4)
    path = tmp_path / "derived.npz"
    build_spanner_distributed(net, params).to_npz(path)
    loaded = SpannerResult.from_npz(path, net)
    assert_results_equal(loaded, simulate_sampler(net, params))


def test_derived_result_is_a_valid_spanner():
    net = erdos_renyi(80, 0.12, seed=2)
    validate_spanner(build_spanner_distributed(net, SamplerParams(k=2, h=2, seed=11)))
