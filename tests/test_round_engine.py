"""The array-native round engine contract (DESIGN.md §3.10).

One pillar, checked from many directions: ``Engines(rounds="vector")``
and ``Engines(rounds="reference")`` produce identical
:class:`~repro.local.metrics.RunReport`s — outputs, rounds, ``halted``,
``total``/``by_tag``/``per_round``/``dropped``/``corrupted`` — for every
shipped population (flood, gossip, registered LOCAL algorithms, and the
hybrid-plane ``Sampler``), across graph families × seeds × fault plans
(drops *and* corruption) × ``fixed_rounds`` × both reference
schedulers.  Hypothesis drives the same assertions over random dense
multigraph-free networks so hand-picked cases are not the only
witnesses.
"""

from __future__ import annotations

from dataclasses import replace
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import (
    BallCollect,
    BfsLayers,
    LubyMis,
    MinIdAggregation,
    RandomMatching,
    RandomizedColoring,
    run_direct,
    run_inprocess,
)
from repro.algorithms.runner import _AlgorithmProgram, node_tapes
from repro.algorithms.vector import vector_population
from repro.core import SamplerParams
from repro.core.distributed import simulate_sampler
from repro.core.distributed.program import SamplerProgram
from repro.core.distributed.schedule import Schedule
from repro.engines import Engines
from repro.errors import ProtocolError
from repro.graphs import barabasi_albert, dense_gnm, erdos_renyi, torus
from repro.local import FaultPlan, Knowledge, Network
from repro.local.engine import VectorRuntime, resolve_round_engine
from repro.local.runtime import run_program
from repro.simulate import t_local_broadcast
from repro.simulate.gossip import PushPullGossip, _VectorGossip, run_push_pull
from repro.simulate.tlocal import _FloodProgram

FAMILIES = {
    "gnp": lambda: erdos_renyi(60, 0.12, seed=5),
    "torus": lambda: torus(8, 8),
    "ba": lambda: barabasi_albert(64, 2, seed=7),
}
SEEDS = (0, 1, 2)
# Fields a test does not pin follow the process env, so the oracle-engines
# CI job still drives them through the reference planes.
ENV = Engines.from_env()
VECTOR = replace(ENV, rounds="vector")
REFERENCE = replace(ENV, rounds="reference")
PLANS = {
    "none": None,
    "drops": FaultPlan(drop_probability=0.05, seed=13),
    "corrupt": FaultPlan(corrupt_probability=0.06, seed=13),
    "both": FaultPlan(drop_probability=0.04, corrupt_probability=0.05, seed=29),
}
ALGORITHMS = (
    BallCollect(2),
    BfsLayers(0, 3),
    LubyMis(2),
    MinIdAggregation(3),
    RandomMatching(1),
    RandomizedColoring(2),
)

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_reports_equal(vec, ref):
    assert vec.outputs == ref.outputs
    assert vec.rounds == ref.rounds
    assert vec.halted == ref.halted
    assert vec.messages.total == ref.messages.total
    assert vec.messages.by_tag == ref.messages.by_tag
    assert vec.messages.per_round == ref.messages.per_round
    assert vec.messages.dropped == ref.messages.dropped
    assert vec.messages.corrupted == ref.messages.corrupted


def run_gossip(net: Network, rounds: int, seed: int, faults, engine: str):
    """Full-RunReport gossip run (run_push_pull only reports coverage)."""
    if engine == "vector":
        return VectorRuntime(
            net,
            _VectorGossip(net, seed),
            fixed_rounds=rounds,
            max_rounds=rounds + 1,
            faults=faults,
        ).run()
    return run_program(
        net,
        lambda node: PushPullGossip(node),
        seed=seed,
        fixed_rounds=rounds,
        max_rounds=rounds + 1,
        faults=faults,
    )


def run_algorithm(net: Network, algo, seed: int, faults, engine: str):
    """Full-RunReport algorithm run (run_direct drops ``halted``)."""
    t = algo.rounds(net.n)
    if engine == "vector":
        population = vector_population(algo, net, seed)
        assert population is not None, f"{algo.name} has no vector twin"
        return VectorRuntime(net, population, max_rounds=t + 2, faults=faults).run()
    tapes = node_tapes(seed)
    return run_program(
        net,
        lambda node: _AlgorithmProgram(node, algo, tapes, t),
        seed=seed,
        max_rounds=t + 2,
        faults=faults,
    )


@st.composite
def small_network(draw) -> Network:
    n = draw(st.integers(min_value=4, max_value=36))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=max(0, n - 4), max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return dense_gnm(n, m, seed=seed)


# ---------------------------------------------------------------------------
# flood population
# ---------------------------------------------------------------------------
class TestFloodEngine:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_runtime_flood_identical(self, family, plan):
        net = FAMILIES[family]()
        reports = {
            engine: t_local_broadcast(
                net,
                payload_of=lambda v: ("ball", v),
                radius=3,
                engines=replace(ENV, simulation="runtime", rounds=engine),
                faults=PLANS[plan],
            )
            for engine in ("vector", "reference")
        }
        vec, ref = reports["vector"], reports["reference"]
        assert vec.collected == ref.collected
        assert vec.rounds == ref.rounds
        assert vec.messages.total == ref.messages.total
        assert vec.messages.by_tag == ref.messages.by_tag
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.dropped == ref.messages.dropped
        assert vec.messages.corrupted == ref.messages.corrupted

    @pytest.mark.parametrize("scheduler", ("active", "dense"))
    def test_against_both_reference_schedulers(self, scheduler):
        net = FAMILIES["gnp"]()
        vec = t_local_broadcast(
            net, lambda v: (v,), radius=2, engines=replace(ENV, simulation="runtime", rounds="vector")
        )
        ref = run_program(
            net,
            lambda node: _FloodProgram(node, (node,), 2),
            fixed_rounds=2,
            max_rounds=3,
            scheduler=scheduler,
            engine="reference",
        )
        assert vec.collected == ref.outputs
        assert vec.messages.per_round == ref.messages.per_round

    def test_isolated_nodes(self):
        # Nodes 4..6 have no ports: the vector population must report
        # the same singleton balls and round count the reference does.
        net = Network.from_edge_pairs(7, [(0, 1), (1, 2), (2, 3)])
        reports = [
            t_local_broadcast(
                net, lambda v: v, radius=2, engines=replace(ENV, simulation="runtime", rounds=engine)
            )
            for engine in ("vector", "reference")
        ]
        assert reports[0].collected == reports[1].collected
        assert reports[0].rounds == reports[1].rounds

    @_SETTINGS
    @given(
        net=small_network(),
        radius=st.integers(min_value=0, max_value=4),
        plan=st.sampled_from(sorted(PLANS)),
    )
    def test_property_flood(self, net: Network, radius: int, plan: str):
        reports = [
            t_local_broadcast(
                net,
                payload_of=lambda v: (v, v * v),
                radius=radius,
                engines=replace(ENV, simulation="runtime", rounds=engine),
                faults=PLANS[plan],
            )
            for engine in ("vector", "reference")
        ]
        assert reports[0].collected == reports[1].collected
        assert reports[0].messages.per_round == reports[1].messages.per_round
        assert reports[0].messages.dropped == reports[1].messages.dropped
        assert reports[0].messages.corrupted == reports[1].messages.corrupted


# ---------------------------------------------------------------------------
# gossip population
# ---------------------------------------------------------------------------
class TestGossipEngine:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_full_runreport_identical(self, family, plan):
        net = FAMILIES[family]()
        vec = run_gossip(net, rounds=5, seed=3, faults=PLANS[plan], engine="vector")
        ref = run_gossip(net, rounds=5, seed=3, faults=PLANS[plan], engine="reference")
        assert_reports_equal(vec, ref)

    @pytest.mark.parametrize("scheduler", ("active", "dense"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_coverage_report_identical(self, scheduler, seed):
        net = FAMILIES["ba"]()
        vec = run_push_pull(net, rounds=6, t=2, seed=seed, engines=VECTOR)
        ref = run_push_pull(net, rounds=6, t=2, seed=seed, engines=REFERENCE)
        direct = run_program(
            net,
            PushPullGossip,
            seed=seed,
            fixed_rounds=6,
            max_rounds=7,
            scheduler=scheduler,
            engine="reference",
        )
        assert vec.coverage == ref.coverage
        assert vec.rounds == ref.rounds == direct.rounds
        assert vec.messages.total == ref.messages.total == direct.messages.total
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.per_round == direct.messages.per_round

    def test_isolated_nodes(self):
        # An isolated node halts reactively on both engines (it can
        # neither push nor be pulled from) and outputs its own id.
        net = Network.from_edge_pairs(5, [(0, 1), (1, 2)])
        vec = run_gossip(net, rounds=4, seed=1, faults=None, engine="vector")
        ref = run_gossip(net, rounds=4, seed=1, faults=None, engine="reference")
        assert_reports_equal(vec, ref)
        assert vec.outputs[4] == frozenset({4})

    @_SETTINGS
    @given(
        net=small_network(),
        seed=st.integers(min_value=0, max_value=1000),
        rounds=st.integers(min_value=0, max_value=6),
        plan=st.sampled_from(sorted(PLANS)),
    )
    def test_property_gossip(self, net: Network, seed: int, rounds: int, plan: str):
        vec = run_gossip(net, rounds, seed, PLANS[plan], "vector")
        ref = run_gossip(net, rounds, seed, PLANS[plan], "reference")
        assert_reports_equal(vec, ref)


# ---------------------------------------------------------------------------
# registered LOCAL algorithm populations
# ---------------------------------------------------------------------------
class TestAlgorithmEngine:
    @pytest.mark.parametrize("algo", ALGORITHMS, ids=lambda a: a.name)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_run_direct_identical(self, algo, seed):
        net = FAMILIES["gnp"]()
        vec = run_direct(net, algo, seed=seed, engines=VECTOR)
        ref = run_direct(net, algo, seed=seed, engines=REFERENCE)
        assert vec.outputs == ref.outputs
        assert vec.rounds == ref.rounds
        assert vec.messages.total == ref.messages.total
        assert vec.messages.by_tag == ref.messages.by_tag
        assert vec.messages.per_round == ref.messages.per_round

    @pytest.mark.parametrize("algo", ALGORITHMS, ids=lambda a: a.name)
    def test_run_direct_under_drops(self, algo):
        net = FAMILIES["torus"]()
        plan = PLANS["drops"]
        vec = run_direct(net, algo, seed=1, engines=VECTOR, faults=plan)
        ref = run_direct(net, algo, seed=1, engines=REFERENCE, faults=plan)
        assert vec.outputs == ref.outputs
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.dropped == ref.messages.dropped

    def test_corrupt_plans_fall_back_identically(self):
        # Corrupt-capable plans route the vector engine to the reference
        # interpreter (tampered payloads are defined per node program).
        # Pure LOCAL algorithms define no corrupted-payload handling —
        # they fail — so the engine contract here is *identical
        # failure*: same exception type, same message.
        net = FAMILIES["gnp"]()
        plan = PLANS["both"]

        def run(engine):
            return run_direct(
                net,
                MinIdAggregation(3),
                seed=2,
                engines=replace(ENV, rounds=engine),
                faults=plan,
            )

        outcomes = {}
        for engine in ("vector", "reference"):
            try:
                outcomes[engine] = ("ok", run(engine))
            except Exception as exc:  # noqa: BLE001 - comparing verbatim
                outcomes[engine] = ("raised", type(exc), str(exc))
        if outcomes["vector"][0] == "ok":
            vec, ref = outcomes["vector"][1], outcomes["reference"][1]
            assert vec.outputs == ref.outputs
            assert vec.messages.per_round == ref.messages.per_round
            assert vec.messages.corrupted == ref.messages.corrupted
        else:
            assert outcomes["vector"] == outcomes["reference"]

    def test_isolated_nodes(self):
        net = Network.from_edge_pairs(4, [(0, 1)])
        for algo in (MinIdAggregation(2), BallCollect(3)):
            vec = run_direct(net, algo, seed=1, engines=VECTOR)
            ref = run_direct(net, algo, seed=1, engines=REFERENCE)
            assert vec.outputs == ref.outputs
            assert vec.rounds == ref.rounds
            assert vec.messages.per_round == ref.messages.per_round

    # Luby MIS and matching twins: default and zero phase counts, an
    # input with isolated nodes, with and without a drop plan.
    TWIN_CASES = {
        "mis-default": (LubyMis, None),
        "mis-t0": (LubyMis, 0),
        "matching-default": (RandomMatching, None),
        "matching-t0": (RandomMatching, 0),
    }
    TWIN_NETS = {
        "gnp": FAMILIES["gnp"],
        # 30 nodes, 20 edges: several nodes have no port at all.
        "gnm-isolated": lambda: dense_gnm(30, 20, seed=4, connected=False),
    }

    @pytest.mark.parametrize("case", sorted(TWIN_CASES))
    @pytest.mark.parametrize("family", sorted(TWIN_NETS))
    @pytest.mark.parametrize("plan", ["none", "drops"])
    def test_mis_and_matching_twins(self, case, family, plan):
        cls, phases = self.TWIN_CASES[case]
        net = self.TWIN_NETS[family]()
        if family == "gnm-isolated":
            assert min(net.degree(v) for v in range(net.n)) == 0
        algo = cls(phases)
        dropped = 0
        for seed in SEEDS:
            vec = run_algorithm(net, algo, seed, PLANS[plan], "vector")
            ref = run_algorithm(net, algo, seed, PLANS[plan], "reference")
            assert_reports_equal(vec, ref)
            dropped += ref.messages.dropped
        if plan == "drops" and algo.rounds(net.n) > 0:
            assert dropped > 0  # the plan actually bit

    def test_matching_reports_kt0_port_labels(self):
        net = FAMILIES["gnp"]().with_knowledge(Knowledge.KT0)
        vec = run_direct(net, RandomMatching(), seed=3, engines=VECTOR)
        ref = run_direct(net, RandomMatching(), seed=3, engines=REFERENCE)
        assert vec == ref
        assert any(port is not None for port in vec.outputs.values())

    SERVE_FAMILIES = (
        MinIdAggregation(3),
        RandomMatching(1),
        RandomizedColoring(2),
        BfsLayers(0, 2),
        LubyMis(1),
        BallCollect(2),
    )

    def test_run_inprocess_serve_families_at_scale(self):
        net = erdos_renyi(2000, 8 / 1999, seed=1)
        for algo in self.SERVE_FAMILIES:
            vec = run_inprocess(net, algo, seed=11, engines=VECTOR)
            assert vec == run_inprocess(net, algo, seed=11, engines=REFERENCE), algo.name

    @_SETTINGS
    @given(
        net=small_network(),
        seed=st.integers(min_value=0, max_value=1000),
        index=st.integers(min_value=0, max_value=len(ALGORITHMS) - 1),
    )
    def test_property_run_direct(self, net: Network, seed: int, index: int):
        algo = ALGORITHMS[index]
        vec = run_direct(net, algo, seed=seed, engines=VECTOR)
        ref = run_direct(net, algo, seed=seed, engines=REFERENCE)
        assert vec.outputs == ref.outputs
        assert vec.rounds == ref.rounds
        assert vec.messages.per_round == ref.messages.per_round


# ---------------------------------------------------------------------------
# the Sampler's hybrid planes
# ---------------------------------------------------------------------------
class TestSamplerEngine:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_spanner_results_identical(self, family):
        net = FAMILIES[family]()
        params = SamplerParams(k=1, h=3, seed=11, c_query=0.7, c_target=1.0)
        vec = simulate_sampler(net, params, engine="vector")
        ref = simulate_sampler(net, params, engine="reference")
        assert vec.edges == ref.edges
        assert vec.rounds == ref.rounds
        assert vec.trace.signature() == ref.trace.signature()
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.by_tag == ref.messages.by_tag

    def test_vector_engine_vs_dense_scheduler(self):
        net = FAMILIES["gnp"]()
        params = SamplerParams(k=2, h=2, seed=7)
        vec = simulate_sampler(net, params, engine="vector")
        dense = simulate_sampler(net, params, scheduler="dense")
        assert vec.edges == dense.edges
        assert vec.trace.signature() == dense.trace.signature()
        assert vec.messages.per_round == dense.messages.per_round

    @pytest.mark.parametrize("drop_seed", (9, 17, 23))
    def test_stranded_faults_agree(self, drop_seed):
        # Dropped broadcasts can strand convergecasts mid-protocol; the
        # two engines must then fail identically (same ProtocolError
        # text) or succeed with identical reports.
        net = erdos_renyi(48, 0.1, seed=2)
        plan = FaultPlan(drop_probability=0.02, seed=drop_seed)
        params = SamplerParams(k=1, h=2, seed=3)
        schedule = Schedule.build(params)

        def run(engine):
            return run_program(
                net,
                lambda node: SamplerProgram(node, params, schedule),
                seed=params.seed,
                max_rounds=schedule.total_rounds + 2,
                n_hint=net.n,
                faults=plan,
                fixed_rounds=schedule.total_rounds,
                engine=engine,
            )

        try:
            ref = run("reference")
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as vec_exc:
                run("vector")
            assert str(vec_exc.value) == str(exc)
            return
        vec = run("vector")
        assert_reports_equal(vec, ref)

    def test_corruption_disables_planes_not_equality(self):
        # can_corrupt plans keep every message on the per-node dispatch
        # path (hybrid planes are delivery-time absorption and cannot
        # express tampered payloads), so the engine switch must stay
        # behaviour-invariant — here, identical reports or identical
        # failure, since the Sampler defines no corrupted-payload
        # handling and faults on a handshake tag blow up the protocol.
        net = FAMILIES["torus"]()
        plan = FaultPlan(corrupt_probability=0.03, seed=5)
        params = SamplerParams(k=1, h=2, seed=3)
        schedule = Schedule.build(params)

        def run(engine):
            return run_program(
                net,
                lambda node: SamplerProgram(node, params, schedule),
                seed=params.seed,
                max_rounds=schedule.total_rounds + 2,
                n_hint=net.n,
                faults=plan,
                fixed_rounds=schedule.total_rounds,
                engine=engine,
            )

        outcomes = {}
        for engine in ("vector", "reference"):
            try:
                outcomes[engine] = ("ok", run(engine))
            except Exception as exc:  # noqa: BLE001 - comparing verbatim
                outcomes[engine] = ("raised", type(exc), str(exc))
        if outcomes["vector"][0] == "ok":
            assert_reports_equal(outcomes["vector"][1], outcomes["reference"][1])
        else:
            assert outcomes["vector"] == outcomes["reference"]


# ---------------------------------------------------------------------------
# the switch itself
# ---------------------------------------------------------------------------
class TestEngineSwitch:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ROUND_ENGINE", raising=False)
        assert resolve_round_engine(None) == "vector"
        monkeypatch.setenv("REPRO_ROUND_ENGINE", "reference")
        assert resolve_round_engine(None) == "reference"
        assert resolve_round_engine("vector") == "vector"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown round engine"):
            resolve_round_engine("simd")
