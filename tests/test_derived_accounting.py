"""Derived distributed construction == the message-passing oracle.

``build_spanner_distributed`` derives the distributed ``Sampler``'s
result from the centralized trace and the global schedule (DESIGN.md
§3.14); ``simulate_sampler`` runs the real program and meters it.  The
two ``SpannerResult``s must be equal in full: edges, trace, rounds, and
``total``/``by_tag``/``per_round`` of the messages.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import validate_spanner
from repro.core import SamplerParams, SpannerResult
from repro.core.distributed import build_spanner_distributed, simulate_sampler
from repro.errors import SimulationError
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


@pytest.mark.parametrize("kh,seed", [((2, 2), 208), ((3, 1), 718)])
def test_oracle_runs_the_whole_schedule_after_an_early_finish(kh, seed):
    # Every cluster of caveman(5, 6) finishes before the last level on
    # these seeds: all nodes halt early, yet the run lasts the schedule
    # and the trailing levels are traced empty, as the derived view says.
    k, h = kh
    net = caveman(5, 6)
    params = SamplerParams(k=k, h=h, seed=seed, c_query=0.7, c_target=1.0)
    oracle = simulate_sampler(net, params)
    assert oracle.trace.levels[-1].population == 0
    assert_results_equal(build_spanner_distributed(net, params), oracle)


def _doctored_run(monkeypatch, doctor):
    """Make ``simulate_sampler`` see ``doctor(report)`` instead of its run."""
    from repro.core.distributed import driver

    real = driver.run_program
    monkeypatch.setattr(
        driver, "run_program", lambda *a, **kw: doctor(real(*a, **kw))
    )


def test_oracle_rejects_a_run_past_the_schedule(monkeypatch):
    _doctored_run(monkeypatch, lambda report: replace(report, rounds=report.rounds + 1))
    with pytest.raises(SimulationError, match="round overrun"):
        simulate_sampler(erdos_renyi(40, 0.15, seed=1), SamplerParams(k=2, h=2, seed=3))


def test_oracle_rejects_a_record_beyond_the_last_level(monkeypatch):
    def doctor(report):
        out = report.outputs[0]
        extra = dict(out["records"][0], level=out["records"][0]["level"] + 99)
        out["records"] = [*out["records"], extra]
        return report

    _doctored_run(monkeypatch, doctor)
    with pytest.raises(SimulationError, match="archived at level"):
        simulate_sampler(erdos_renyi(40, 0.15, seed=1), SamplerParams(k=2, h=2, seed=3))


def test_oracle_rejects_an_early_halt_with_clusters_left(monkeypatch):
    # Truncating a full run to end early leaves the last level populated:
    # that is a protocol fault, not an early finish.
    net = erdos_renyi(40, 0.15, seed=1)
    params = SamplerParams(k=2, h=2, seed=3)
    assert simulate_sampler(net, params).trace.levels[-1].population
    _doctored_run(monkeypatch, lambda report: replace(report, rounds=report.rounds - 1))
    with pytest.raises(SimulationError, match="rounds early with clusters left"):
        simulate_sampler(net, params)
