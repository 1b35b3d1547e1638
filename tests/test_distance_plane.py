"""The distance plane's engine-equivalence contract (DESIGN.md §3.7).

The vector engine (NumPy bitset sweeps) and the reference engine (the
seed pure-Python BFS) must produce *equal values* for every consumer:
``FloodSchedule`` (balls, ecc, per_round, by_tag), ``StretchReport``
(including truncated-cutoff and disconnected-spanner cases),
eccentricities/diameter, and the transformer's coverage verdicts.
Hypothesis drives families × radii × seeds through both engines; the
unit tests pin the edge cases property shrinking tends to miss.
"""

from __future__ import annotations

from dataclasses import replace
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import BallCollect, MinIdAggregation
from repro.analysis.stretch import adjacent_pair_stretch, bfs_distances, pairwise_stretch
from repro.core import SamplerParams, build_spanner
from repro.engines import Engines
from repro.graphs import barabasi_albert, dense_gnm, erdos_renyi, torus
from repro.graphs.distance import (
    DISTANCE_ENGINES,
    BallFamily,
    adjacency_csr,
    ball_matrix_blocks,
    balls_and_eccentricities,
    csr_from_adjacency,
    default_engine,
    distance_blocks,
    eccentricities,
    resolve_engine,
    single_source_distances,
)
from repro.local.network import Network
from repro.simulate import flood_schedule, simulate_over_spanner
from repro.simulate.global_tasks import graph_diameter

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FAMILIES = {
    "gnp": lambda seed: erdos_renyi(40 + seed % 17, 0.09, seed=seed),
    "torus": lambda seed: torus(4 + seed % 4, 5),
    "ba": lambda seed: barabasi_albert(40 + seed % 13, 2 + seed % 2, seed=seed),
    "gnm": lambda seed: dense_gnm(20 + seed % 11, 30 + seed % 40, seed=seed),
}


def _spanner_edges(net: Network, seed: int) -> frozenset[int]:
    return build_spanner(net, SamplerParams(k=1, h=2, seed=seed)).edges


def _thinned(edges: frozenset[int], seed: int, keep: float) -> list[int]:
    """A seeded subset of the spanner's edges (to force disconnection)."""
    rng = random.Random(seed)
    kept = [eid for eid in sorted(edges) if rng.random() < keep]
    return kept


class TestFloodScheduleEquality:
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        radius=st.integers(min_value=0, max_value=7),
        seed=st.integers(min_value=0, max_value=500),
    )
    @_SETTINGS
    def test_engines_agree(self, family, radius, seed):
        net = _FAMILIES[family](seed)
        sub = net.subnetwork(_spanner_edges(net, seed))
        fast = flood_schedule(sub, radius, engine="vector")
        ref = flood_schedule(sub, radius, engine="reference")
        assert fast.ecc == ref.ecc
        assert fast.rounds == ref.rounds
        assert fast.messages.total == ref.messages.total
        assert fast.messages.per_round == ref.messages.per_round
        assert fast.messages.by_tag == ref.messages.by_tag
        assert fast.balls == ref.balls
        assert ref.balls == fast.balls  # symmetric across representations
        assert fast == ref
        assert fast.mean_ball_size() == ref.mean_ball_size()

    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        seed=st.integers(min_value=0, max_value=500),
        keep=st.sampled_from([0.0, 0.3, 0.7]),
    )
    @_SETTINGS
    def test_engines_agree_on_disconnected_spanners(self, family, seed, keep):
        """Thinning the spanner disconnects it; ball/ecc values must
        still match (frontiers die early on islands)."""
        net = _FAMILIES[family](seed)
        sub = net.subnetwork(_thinned(_spanner_edges(net, seed), seed, keep))
        fast = flood_schedule(sub, 4, engine="vector")
        ref = flood_schedule(sub, 4, engine="reference")
        assert fast == ref


class TestStretchReportEquality:
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        seed=st.integers(min_value=0, max_value=500),
        cutoff=st.sampled_from([math.inf, 1, 2, 3, 2.5]),
        keep=st.sampled_from([1.0, 0.5, 0.1]),
    )
    @_SETTINGS
    def test_adjacent_pair_engines_agree(self, family, seed, cutoff, keep):
        net = _FAMILIES[family](seed)
        edges = _spanner_edges(net, seed)
        spanner = sorted(edges) if keep >= 1.0 else _thinned(edges, seed, keep)
        fast = adjacent_pair_stretch(net, spanner, cutoff=cutoff, engine="vector")
        ref = adjacent_pair_stretch(net, spanner, cutoff=cutoff, engine="reference")
        assert fast == ref
        # thinned spanners must be able to produce both buckets
        assert fast.unreachable_pairs >= 0 and fast.beyond_cutoff >= 0

    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        seed=st.integers(min_value=0, max_value=500),
        sources=st.sampled_from([None, 7]),
        keep=st.sampled_from([1.0, 0.4]),
    )
    @_SETTINGS
    def test_pairwise_engines_agree(self, family, seed, sources, keep):
        net = _FAMILIES[family](seed)
        edges = _spanner_edges(net, seed)
        spanner = sorted(edges) if keep >= 1.0 else _thinned(edges, seed, keep)
        fast = pairwise_stretch(net, spanner, sources=sources, seed=seed, engine="vector")
        ref = pairwise_stretch(net, spanner, sources=sources, seed=seed, engine="reference")
        assert fast == ref

    def test_sampling_path_engines_agree(self):
        net = erdos_renyi(80, 0.1, seed=6)
        edges = _spanner_edges(net, 6)
        fast = adjacent_pair_stretch(net, edges, sample=40, seed=3, engine="vector")
        ref = adjacent_pair_stretch(net, edges, sample=40, seed=3, engine="reference")
        assert fast == ref
        assert fast.pairs_measured == 40


class TestSimulationEquality:
    @pytest.mark.parametrize("radius", [0, 1, 2, None])
    def test_transformer_distance_engines_agree(self, radius):
        """Vector and reference coverage checks pick the same uncovered
        centers — outcomes are identical even under-flooded."""
        net = erdos_renyi(40, 0.08, seed=9)
        result = build_spanner(net, SamplerParams(k=1, h=2, seed=9))
        algo = BallCollect(2)
        outcomes = [
            simulate_over_spanner(
                net,
                result.edges,
                result.stretch_bound,
                algo,
                seed=7,
                radius=radius,
                engines=replace(Engines.from_env(), distance=engine),
            )
            for engine in DISTANCE_ENGINES
        ]
        assert outcomes[0] == outcomes[1]

    def test_one_stage_under_reference_engine(self):
        from repro.simulate import run_one_stage

        net = erdos_renyi(50, 0.15, seed=3)
        algo = MinIdAggregation(2)
        params = SamplerParams(k=1, h=2, seed=5)
        fast = run_one_stage(net, algo, params=params, seed=2)
        # process-default engine flows through the whole pipeline
        assert fast.outputs  # sanity: covered by engine-equality above


class TestBatchedPrimitives:
    def test_distance_blocks_match_single_source(self):
        net = barabasi_albert(50, 2, seed=4)
        adj = [list(net.neighbors(v)) for v in range(net.n)]
        indptr, indices = csr_from_adjacency(adj)
        for cutoff in (math.inf, 2, 3.5):
            for offset, dist, exhausted in distance_blocks(
                indptr, indices, range(net.n), cutoff=cutoff
            ):
                for i in range(dist.shape[0]):
                    ref = single_source_distances(adj, offset + i, cutoff)
                    got = {w: int(d) for w, d in enumerate(dist[i]) if d >= 0}
                    assert got == ref

    def test_adjacency_csr_matches_neighbors(self):
        net = erdos_renyi(30, 0.2, seed=8)
        indptr, indices = adjacency_csr(net)
        for v in range(net.n):
            got = sorted(indices[indptr[v] : indptr[v + 1]].tolist())
            assert got == sorted(net.neighbors(v))

    def test_ball_matrix_blocks_match_family(self):
        net = torus(5, 5)
        indptr, indices = adjacency_csr(net)
        family, _ = balls_and_eccentricities(net, 2, engine="vector")
        for offset, rows in ball_matrix_blocks(indptr, indices, range(net.n), 2):
            for i in range(rows.shape[0]):
                assert frozenset(np.nonzero(rows[i])[0].tolist()) == family[offset + i]

    def test_eccentricities_and_diameter(self):
        net = torus(5, 5)  # wraparound grid, diameter 4
        ecc_v, reached_v = eccentricities(net, engine="vector")
        ecc_r, reached_r = eccentricities(net, engine="reference")
        assert (ecc_v, reached_v) == (ecc_r, reached_r)
        assert graph_diameter(net) == 4
        two = Network.from_edge_pairs(4, [(0, 1), (2, 3)], name="two-islands")
        with pytest.raises(ValueError):
            graph_diameter(two)
        with pytest.raises(ValueError):
            graph_diameter(two, engine="reference")

    def test_single_node_and_edgeless(self):
        lone = Network.from_edge_pairs(1, [])
        assert flood_schedule(lone, 3, engine="vector") == flood_schedule(
            lone, 3, engine="reference"
        )
        islands = Network.from_edge_pairs(5, [])
        fast = flood_schedule(islands, 2, engine="vector")
        assert all(ball == {v} for v, ball in enumerate(fast.balls))
        assert fast == flood_schedule(islands, 2, engine="reference")


class TestBallFamily:
    def _family_pair(self):
        net = erdos_renyi(30, 0.12, seed=2)
        packed, ecc_p = balls_and_eccentricities(net, 2, engine="vector")
        sets, ecc_s = balls_and_eccentricities(net, 2, engine="reference")
        return packed, sets

    def test_sequence_protocol(self):
        packed, sets = self._family_pair()
        assert len(packed) == len(sets)
        assert list(packed) == list(sets)
        assert packed[-1] == sets[len(sets) - 1]
        assert packed[1:3] == sets[1:3]
        with pytest.raises(IndexError):
            packed[len(packed)]

    def test_equality_across_representations(self):
        packed, sets = self._family_pair()
        assert packed == sets and sets == packed
        assert packed == tuple(sets)  # plain sequences compare too
        other = BallFamily.from_sets([frozenset({0})] * len(packed), packed.universe)
        assert packed != other

    def test_sizes_and_membership(self):
        packed, sets = self._family_pair()
        assert packed.sizes().tolist() == [len(s) for s in sets]
        rows = packed.membership_rows([0, 3])
        assert frozenset(np.nonzero(rows[0])[0].tolist()) == sets[0]
        set_rows = sets.membership_rows([0, 3])
        assert np.array_equal(rows, set_rows)

    def test_unhashable_and_constructor_guard(self):
        packed, _ = self._family_pair()
        with pytest.raises(TypeError):
            hash(packed)
        with pytest.raises(ValueError):
            BallFamily(3)


class TestEngineSelection:
    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_engine("warp")
        with pytest.raises(ValueError):
            flood_schedule(torus(3, 3), 1, engine="warp")
        with pytest.raises(ValueError):
            adjacent_pair_stretch(torus(3, 3), [], engine="warp")

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTANCE_ENGINE", "reference")
        assert default_engine() == "reference"
        assert resolve_engine(None) == "reference"
        monkeypatch.delenv("REPRO_DISTANCE_ENGINE")
        assert default_engine() == "vector"

    def test_bfs_distances_alias(self):
        net = torus(4, 4)
        adj = [list(net.neighbors(v)) for v in range(net.n)]
        assert bfs_distances(adj, 0, cutoff=2) == single_source_distances(
            adj, 0, cutoff=2
        )
