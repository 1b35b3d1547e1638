"""The whole engine product against the oracle (DESIGN.md §3.15).

:class:`~repro.engines.Engines` picks one engine per layer — simulation
(fast / runtime), distance plane (vector / reference) and round engine
(vector / reference).  Every one of the eight combinations must produce
the report :data:`~repro.engines.ORACLE` produces: outputs, total and
per-round messages, and rounds, on the one- and two-stage schemes,
the direct runner and the flood under a fault plan.  Hypothesis draws
the graph family, its seed, the scheme seed and the payload; each
example runs all eight combinations, so no combination is left to
chance.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import (
    LocalAlgorithm,
    LubyMis,
    MinIdAggregation,
    RandomMatching,
    RandomizedColoring,
    run_direct,
)
from repro.algorithms.vector import inprocess_engine
from repro.core import SamplerParams
from repro.engines import (
    DISTANCE_ENGINES,
    ORACLE,
    ROUND_ENGINES,
    SIMULATION_ENGINES,
    Engines,
)
from repro.graphs import barabasi_albert, caveman, erdos_renyi, torus
from repro.graphs.distance import default_engine, resolve_engine
from repro.local import FaultPlan
from repro.local.engine import default_round_engine, resolve_round_engine
from repro.service import SimulationRequest, SimulationService
from repro.simulate import run_one_stage, run_two_stage, t_local_broadcast

PRODUCT = tuple(
    Engines(*choice)
    for choice in itertools.product(SIMULATION_ENGINES, DISTANCE_ENGINES, ROUND_ENGINES)
)
FAMILIES = {
    "gnp": lambda seed: erdos_renyi(40, 0.15, seed=seed),
    "torus": lambda seed: torus(6, 6),
    "ba": lambda seed: barabasi_albert(40, 2, seed=seed),
    "caveman": lambda seed: caveman(4, 6),
}


class MaxToken(LocalAlgorithm):
    """Flood the largest tape-drawn token for two rounds.  It has no
    vector twin, so every round engine runs it on the reference
    interpreter: the product keeps that branch of the fast replay."""

    name = "max-token"

    def rounds(self, n):
        return 2

    def init(self, info, tape):
        return {"ports": info.ports, "token": tape.randrange(1000), "changed": True}

    def step(self, state, r, inbox):
        best = max([state["token"], *inbox.values()])
        state["changed"] = state["changed"] or best != state["token"]
        state["token"] = best
        outbox = {}
        if state["changed"]:
            outbox = {eid: best for eid in state["ports"]}
            state["changed"] = False
        return state, outbox

    def output(self, state):
        return state["token"]


# Four registered vector populations and one algorithm only the
# reference interpreter runs, so the fast replay takes both paths.
PAYLOADS = {
    "coloring": lambda: RandomizedColoring(2),
    "matching": lambda: RandomMatching(1),
    "maxtoken": MaxToken,
    "minid": lambda: MinIdAggregation(2),
    "mis": lambda: LubyMis(1),
}
PARAMS = SamplerParams(k=1, h=2, seed=3, c_query=0.7, c_target=1.0)

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_reports_equal(report, oracle):
    assert report.outputs == oracle.outputs
    assert report.total_messages == oracle.total_messages
    assert report.combined_messages.per_round == oracle.combined_messages.per_round
    assert report.total_rounds == oracle.total_rounds
    assert report == oracle


def test_product_has_eight_distinct_configs():
    assert len(set(PRODUCT)) == 8
    assert ORACLE in PRODUCT
    assert Engines() in PRODUCT


def test_payloads_cover_both_replay_branches():
    vector = Engines(rounds="vector")
    replay = {name: inprocess_engine(make(), vector) for name, make in PAYLOADS.items()}
    assert replay == {
        name: "reference" if name == "maxtoken" else "vector" for name in PAYLOADS
    }


@_SETTINGS
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    graph_seed=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=1000),
    payload=st.sampled_from(sorted(PAYLOADS)),
)
def test_one_stage_product_equals_oracle(family, graph_seed, seed, payload):
    net = FAMILIES[family](graph_seed)

    def run(engines):
        algo = PAYLOADS[payload]()
        return run_one_stage(net, algo, params=PARAMS, seed=seed, engines=engines)

    oracle = run(ORACLE)
    for engines in PRODUCT:
        assert_reports_equal(run(engines), oracle)


@_SETTINGS
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    graph_seed=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=1000),
    payload=st.sampled_from(sorted(PAYLOADS)),
)
def test_two_stage_product_equals_oracle(family, graph_seed, seed, payload):
    net = FAMILIES[family](graph_seed)

    def run(engines):
        algo = PAYLOADS[payload]()
        return run_two_stage(
            net, algo, stage1_params=PARAMS, stage2_k=2, seed=seed, engines=engines
        )

    oracle = run(ORACLE)
    for engines in PRODUCT:
        report = run(engines)
        assert_reports_equal(report, oracle)
        assert report.stage2_edges == oracle.stage2_edges


class TestUnderFaults:
    PLAN = FaultPlan(drop_probability=0.1, seed=17)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_run_direct_product(self, family):
        net = FAMILIES[family](4)
        oracle = run_direct(net, MinIdAggregation(2), seed=6, engines=ORACLE, faults=self.PLAN)
        assert oracle.messages.dropped > 0  # the plan actually bit
        for engines in PRODUCT:
            report = run_direct(
                net, MinIdAggregation(2), seed=6, engines=engines, faults=self.PLAN
            )
            assert report == oracle

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_flood_product(self, family):
        net = FAMILIES[family](4)

        def flood(engines):
            return t_local_broadcast(
                net, lambda v: ("item", v), 3, seed=6, engines=engines, faults=self.PLAN
            )

        oracle = flood(ORACLE)
        assert oracle.messages.dropped > 0
        for engines in PRODUCT:
            if engines.simulation == "fast":
                # The fast engine derives the failure-free flood.
                with pytest.raises(ValueError, match="runtime engine"):
                    flood(engines)
                continue
            report = flood(engines)
            assert report.collected == oracle.collected
            assert report.messages.per_round == oracle.messages.per_round
            assert report.messages.dropped == oracle.messages.dropped
            assert report == oracle


def test_served_product_equals_oracle():
    net = FAMILIES["gnp"](9)
    service = SimulationService(net, params=PARAMS, seed=2)
    oracle = run_one_stage(net, MinIdAggregation(2), params=PARAMS, seed=2, engines=ORACLE)
    for engines in PRODUCT:
        response = service.submit(
            SimulationRequest(algo=MinIdAggregation(2), engines=engines)
        )
        assert_reports_equal(response.report, oracle)


class TestFromEnv:
    def test_defaults_are_the_fast_paths(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISTANCE_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_ROUND_ENGINE", raising=False)
        assert Engines.from_env() == Engines("fast", "vector", "vector")
        assert Engines.resolve(None) == Engines()
        assert Engines.resolve(ORACLE) is ORACLE

    def test_env_pins_the_oracle_planes(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTANCE_ENGINE", "reference")
        monkeypatch.setenv("REPRO_ROUND_ENGINE", "reference")
        assert Engines.from_env() == Engines("fast", "reference", "reference")

    @pytest.mark.parametrize(
        "var,kind",
        [
            ("REPRO_DISTANCE_ENGINE", "distance engine"),
            ("REPRO_ROUND_ENGINE", "round engine"),
        ],
    )
    def test_rejects_unknown_value(self, monkeypatch, var, kind):
        monkeypatch.setenv(var, "simd")
        with pytest.raises(
            ValueError,
            match=rf"unknown {kind} 'simd'; expected one of \('vector', 'reference'\)",
        ):
            Engines.from_env()

    def test_a_bad_value_breaks_only_its_own_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTANCE_ENGINE", "reference")
        monkeypatch.setenv("REPRO_ROUND_ENGINE", "simd")
        assert default_engine() == "reference"
        assert resolve_engine(None) == "reference"
        with pytest.raises(ValueError, match="unknown round engine 'simd'"):
            default_round_engine()
        monkeypatch.setenv("REPRO_DISTANCE_ENGINE", "warp")
        monkeypatch.setenv("REPRO_ROUND_ENGINE", "reference")
        assert resolve_round_engine(None) == "reference"
        with pytest.raises(ValueError, match="unknown distance engine 'warp'"):
            default_engine()
