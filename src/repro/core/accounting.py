"""Closed-form message accounting for the distributed ``Sampler``.

Given the execution trace (which both drivers produce identically for a
seed), the number of messages of every protocol phase is a simple sum:

* tree sessions (gather/scatter/plan/collect/status/cand/join) cost one
  message per non-root member of each participating cluster;
* query/response cost one message per distinct query edge per trial;
* status_req/status_rep/finish cost one message per ``F`` edge;
* attach costs one message per join; reroot one per old-tree edge.

The test suite asserts these formulas match the *metered* counts of the
real message-passing run exactly, tag by tag — the strongest possible
cross-validation between the model and the implementation.  Experiments
then use the cheap model to sweep sizes the full simulation cannot reach.

:func:`derived_message_stats` adds *when* each message is sent: replaying
the trace's joins on a :class:`~repro.core.forest.ClusterForest` gives
every cluster tree, and the fixed :class:`Schedule` gives every phase
start, so the whole metered :class:`MessageStats` — ``per_round``
included — follows without running the program (DESIGN.md §3.14).
"""

from __future__ import annotations

from collections import Counter

from repro.core.distributed.schedule import PhaseKind, Schedule
from repro.core.forest import ClusterForest
from repro.core.params import SamplerParams
from repro.core.trace import SamplerTrace
from repro.local.metrics import MessageStats
from repro.local.network import Network
from repro.local.tree import RootedTree

__all__ = [
    "derived_message_stats",
    "expected_message_counts",
    "expected_total_messages",
    "expected_rounds",
]


def expected_message_counts(trace: SamplerTrace) -> Counter:
    """Exact per-tag message counts implied by a ``Sampler`` trace."""
    counts: Counter = Counter()
    params = trace.params
    for level in trace.levels:
        sizes = level.cluster_sizes
        tree_messages = sum(s - 1 for s in sizes.values())
        counts["gather"] += tree_messages
        counts["scatter"] += tree_messages
        for vid, node in level.nodes.items():
            members = sizes[vid]
            for trial in node.trial_stats:
                counts["plan"] += members - 1
                counts["collect"] += members - 1
                counts["query"] += len(trial.queried_eids)
                counts["response"] += len(trial.queried_eids)
        if level.level < params.k:
            centers = set(level.centers)
            f_total = sum(len(node.f_active) for node in level.nodes.values())
            counts["status"] += tree_messages
            counts["status_req"] += f_total
            counts["status_rep"] += f_total
            counts["cand"] += sum(
                sizes[vid] - 1 for vid in sizes if vid not in centers
            )
            counts["join"] += tree_messages
            counts["attach"] += len(level.joins)
            counts["reroot"] += sum(sizes[joiner] - 1 for joiner, _c, _e in level.joins)
            counts["finish"] += sum(
                len(level.nodes[vid].f_active) for vid in level.unclustered
            )
    return +counts  # drop zero entries


def expected_total_messages(trace: SamplerTrace) -> int:
    return sum(expected_message_counts(trace).values())


def expected_rounds(params: SamplerParams) -> int:
    """Deterministic round count of the global schedule (Theorem 11)."""
    return Schedule.build(params).total_rounds


def derived_message_stats(network: Network, trace: SamplerTrace) -> MessageStats:
    """The distributed run's exact :class:`MessageStats`, without running it.

    ``total`` and ``by_tag`` are :func:`expected_message_counts`.  For
    ``per_round`` (one entry per round ``0..total_rounds``; a message
    sent in round ``r`` is metered in ``per_round[r]``) each level's
    cluster trees are read off a :class:`ClusterForest` that replays the
    trace's joins, exactly the Lemma 8 trees the program builds:

    * a broadcast (scatter/plan/status/join) reaches a member at depth
      ``d`` in round ``phase start + d - 1``;
    * a convergecast (gather/collect/cand) leaves a member in round
      ``phase start + height of its subtree``;
    * a reroot flood reaches a member at distance ``d`` from the join
      edge's end of the old tree in round ``phase start + d - 1``;
    * the point-to-point tags are sent at the start of their 1-round
      phases.
    """
    params = trace.params
    schedule = Schedule.build(params)
    per_round = [0] * (schedule.total_rounds + 1)
    forest = ClusterForest(network)

    def spread(start: int, hist: Counter) -> None:
        for offset, count in hist.items():
            per_round[start + offset] += count

    for level in trace.levels:
        j = level.level
        plan, query, response, collect = (
            [schedule.start_of(kind, j, t) for t in range(1, params.trials + 1)]
            for kind in (
                PhaseKind.PLAN,
                PhaseKind.QUERY,
                PhaseKind.RESPONSE,
                PhaseKind.COLLECT,
            )
        )
        queries = [0] * params.trials
        bcast_all: Counter = Counter()
        conv_all: Counter = Counter()
        cand: Counter = Counter()
        centers = set(level.centers)
        trees: dict[int, RootedTree] = {}
        for cid, node in level.nodes.items():
            for t, stats in enumerate(node.trial_stats):
                queries[t] += len(stats.queried_eids)
            if forest.size(cid) == 1:
                continue  # a singleton cluster has no tree traffic
            trees[cid] = forest.tree(cid)
            bcast, conv = _tree_offsets(trees[cid])
            bcast_all.update(bcast)
            conv_all.update(conv)
            if cid not in centers:
                cand.update(conv)
            for t in range(len(node.trial_stats)):
                spread(plan[t], bcast)
                spread(collect[t], conv)
        for t, count in enumerate(queries):
            per_round[query[t]] += count
            per_round[response[t]] += count
        spread(schedule.start_of(PhaseKind.GATHER, j), conv_all)
        spread(schedule.start_of(PhaseKind.SCATTER, j), bcast_all)
        if j == params.k:
            continue
        f_total = sum(len(node.f_active) for node in level.nodes.values())
        spread(schedule.start_of(PhaseKind.STATUS, j), bcast_all)
        per_round[schedule.start_of(PhaseKind.STATUS_REQ, j)] += f_total
        per_round[schedule.start_of(PhaseKind.STATUS_REP, j)] += f_total
        spread(schedule.start_of(PhaseKind.CAND, j), cand)
        spread(schedule.start_of(PhaseKind.JOIN, j), bcast_all)
        per_round[schedule.start_of(PhaseKind.ATTACH, j)] += len(level.joins)
        per_round[schedule.start_of(PhaseKind.FINISH, j)] += sum(
            len(level.nodes[cid].f_active) for cid in level.unclustered
        )
        reroot = schedule.start_of(PhaseKind.REROOT, j)
        for joiner, _center, eid in level.joins:
            if joiner in trees:
                x = next(
                    p for p in network.endpoints(eid) if forest.cluster_of(p) == joiner
                )
                dist = trees[joiner].distances_from(x)
                spread(reroot, Counter(d - 1 for d in dist.values() if d))
        for joiner, center, eid in level.joins:
            forest.attach(joiner, center, eid)

    counts = expected_message_counts(trace)
    return MessageStats(
        total=sum(counts.values()), by_tag=counts, per_round=per_round
    )


def _tree_offsets(tree: RootedTree) -> tuple[Counter, Counter]:
    """Non-root members of ``tree`` counted by ``depth - 1`` and by
    subtree height: the round offsets of their broadcast and
    convergecast messages."""
    depth = tree.depths()
    height = dict.fromkeys(depth, 0)
    for v in reversed(depth):  # BFS order reversed: children first
        if v != tree.root:
            p = tree.parent[v][0]
            height[p] = max(height[p], height[v] + 1)
    bcast = Counter(depth[v] - 1 for v in tree.parent)
    conv = Counter(height[v] for v in tree.parent)
    return bcast, conv
