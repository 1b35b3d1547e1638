"""Targeted tests of the distributed Sampler's wire-level behaviour."""

from __future__ import annotations

import pytest

from repro.core import SamplerParams
from repro.core.distributed import Schedule, simulate_sampler
from repro.core.distributed.schedule import PhaseKind, tree_height_bound
from repro.graphs import complete_graph, erdos_renyi


class TestTreeHeightBound:
    def test_values(self):
        assert [tree_height_bound(j) for j in range(4)] == [0, 1, 4, 13]


class TestScheduleStructure:
    @pytest.fixture(scope="class")
    def schedule(self):
        return Schedule.build(SamplerParams(k=2, h=2))

    def test_phases_are_contiguous(self, schedule):
        previous_end = 0
        for phase in schedule.phases:
            assert phase.start == previous_end + 1
            previous_end = phase.end
        assert previous_end == schedule.total_rounds

    def test_levels_in_order(self, schedule):
        levels = [p.level for p in schedule.phases]
        assert levels == sorted(levels)

    def test_single_round_phases(self, schedule):
        for phase in schedule.phases:
            if phase.kind in (
                PhaseKind.QUERY,
                PhaseKind.RESPONSE,
                PhaseKind.STATUS_REQ,
                PhaseKind.STATUS_REP,
                PhaseKind.ATTACH,
                PhaseKind.FINISH,
                PhaseKind.END,
            ):
                assert phase.length == 1

    def test_final_level_has_no_join_block(self, schedule):
        last_level_kinds = {p.kind for p in schedule.phases if p.level == 2}
        assert PhaseKind.JOIN not in last_level_kinds
        assert PhaseKind.REROOT not in last_level_kinds

    def test_window_lengths_follow_lemma8(self, schedule):
        for phase in schedule.phases:
            if phase.kind in (PhaseKind.GATHER, PhaseKind.SCATTER, PhaseKind.PLAN,
                              PhaseKind.COLLECT, PhaseKind.STATUS, PhaseKind.CAND,
                              PhaseKind.JOIN):
                assert phase.length == tree_height_bound(phase.level) + 1
            if phase.kind is PhaseKind.REROOT:
                assert phase.length == 2 * tree_height_bound(phase.level) + 2


class TestMessageTags:
    """The wire protocol only ever uses the documented tags."""

    EXPECTED = {
        "gather", "scatter", "plan", "query", "response", "collect",
        "status", "status_req", "status_rep", "cand", "join", "attach",
        "reroot", "finish",
    }

    def test_only_documented_tags_on_the_wire(self):
        net = erdos_renyi(60, 0.15, seed=2)
        dist = simulate_sampler(net, SamplerParams(k=2, h=2, seed=3))
        assert dist.messages is not None
        used = {tag for tag, count in dist.messages.by_tag.items() if count}
        assert used <= self.EXPECTED

    def test_queries_equal_responses(self):
        net = erdos_renyi(60, 0.15, seed=2)
        dist = simulate_sampler(net, SamplerParams(k=2, h=2, seed=3))
        assert dist.messages is not None
        assert dist.messages.by_tag["query"] == dist.messages.by_tag["response"]
        assert dist.messages.by_tag["status_req"] == dist.messages.by_tag["status_rep"]

    def test_tree_sessions_scale_with_cluster_mass(self):
        # gather and scatter costs are identical by construction
        net = complete_graph(50)
        dist = simulate_sampler(
            net, SamplerParams(k=1, h=2, seed=4, c_query=0.4, c_target=0.5)
        )
        assert dist.messages is not None
        assert dist.messages.by_tag["gather"] == dist.messages.by_tag["scatter"]


class TestDistributedTraceShape:
    def test_levels_and_population(self):
        net = erdos_renyi(50, 0.2, seed=5)
        params = SamplerParams(k=2, h=1, seed=6)
        dist = simulate_sampler(net, params)
        assert len(dist.trace.levels) == params.levels
        assert dist.trace.levels[0].population == net.n
        # every level-k node finishes with decision 'final'
        assert set(dist.trace.levels[-1].unclustered) == set(
            dist.trace.levels[-1].nodes
        )

    def test_spanner_edges_match_level_f_union(self):
        net = erdos_renyi(50, 0.2, seed=5)
        dist = simulate_sampler(net, SamplerParams(k=1, h=2, seed=7))
        union: set[int] = set()
        for level in dist.trace.levels:
            union |= level.f_edges
        assert union == set(dist.edges)
