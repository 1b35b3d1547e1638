"""Centralized driver of algorithm ``Sampler`` (Pseudocode 1).

This is the canonical implementation: it executes levels
``j = 0 .. k``, running one :class:`~repro.core.trials.TrialMachine` per
virtual node (the first step of ``Cluster_j``), then marks centers and
forms clusters (the second step), contracting the result into the next
level.

Semantics match the distributed implementation exactly (see
DESIGN.md): a cluster's unexplored pool is

    ``X_v = dedup(member incident edges)  minus  finish announcements``

where *dedup* drops every edge id appearing twice among the members
(such edges are intra-cluster — the unique-edge-ID trick), and finish
announcements are the edge lists that unclustered clusters push over
their ``F`` edges when they leave the hierarchy.  Edges leading to
finished clusters that never announced (only possible for the rare
``STRANDED`` label) remain in ``X_v`` and are discovered and peeled via
an ``active=False`` query response.

Two level strategies produce bit-identical traces (the
``test_perf_contracts`` and ``test_parallel_build`` suites enforce
this):

* **columnar** (the default): each level is one in-process call of the
  columnar level engine (:mod:`repro.core.parallel`) — every pool
  derived at once from array views of the graph, exhaustive trials as
  one vectorized group-by, over-budget pools on a real
  ``TrialMachine``.  Finish announcements stay factored (receiver -> the
  finished clusters that announced to it; finisher -> its payload) and
  the engine applies them by membership.
* **reference** (``incremental=False``): the seed implementation —
  recount every pool from a ``Counter`` over all member-incident edges
  at every level and rebuild the neighbor maps from per-edge dict
  lookups.  It is the oracle the columnar engine is checked against and
  the ``--perf`` harness's speedup reference.

Randomness is drawn from per-``(purpose, level, cluster)`` streams of a
:class:`~repro.rng.RngFactory` rooted at ``params.seed``, which is what
makes the centralized and distributed runs bit-identical.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro import obs
from repro.core.forest import ClusterForest
from repro.core.parallel import IdObjects, LevelEngine, _concat_ranges
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.core.trace import FinishedCluster, LevelTrace, NodeLevelTrace, SamplerTrace
from repro.core.trials import QueryResult, TrialMachine
from repro.errors import SimulationError
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = ["build_spanner", "SamplerRun"]


class SamplerRun:
    """One centralized execution; exposed for step-by-step inspection.

    ``incremental=True`` (the default) runs every level on the columnar
    level engine; ``incremental=False`` runs the seed recount, the
    oracle.
    """

    def __init__(
        self,
        network: Network,
        params: SamplerParams,
        *,
        incremental: bool = True,
    ) -> None:
        self.network = network
        self.params = params
        self.forest = ClusterForest(network)
        self.spanner_edges: set[int] = set()
        self.trace = SamplerTrace(n=network.n, m=network.m, params=params)
        self._rngf = RngFactory(params.seed)
        # One int object per node and edge id, shared by everything the
        # columnar strategy records (see IdObjects).
        self._ids = IdObjects.of(network)
        self._active: set[int] = set(self._ids.node_ids)
        self._finished: dict[int, FinishedCluster] = {}
        self._level_done = 0
        self._engine = (
            LevelEngine(network, params, self._ids) if incremental else None
        )
        self._eid_row, self._ep_u, self._ep_v = network.endpoints_flat()
        # Reference strategy: announced edges per receiving phys node.
        self._phys_dead: dict[int, set[int]] = {}
        # Columnar strategy: ``_dead_pairs[receiver]`` is the set of
        # finished clusters that announced to cluster ``receiver``, and
        # ``_payloads[finisher]`` the announced edge array.  The
        # receiver's dead set is (by definition) the union of its
        # announcers' payloads; the engine applies it by membership
        # without anyone ever materializing the union.
        self._dead_pairs: dict[int, set[int]] = {}
        self._payloads: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # public driver
    # ------------------------------------------------------------------
    def run(self) -> SpannerResult:
        with obs.span(
            "build/spanner", n=self.network.n, m=self.network.m
        ) as build_span:
            for j in range(self.params.levels):
                self.run_level(j)
            result = self.result()
            build_span.set(edges=len(result.edges))
        return result

    def result(self) -> SpannerResult:
        return SpannerResult(
            network=self.network,
            params=self.params,
            edges=frozenset(self.spanner_edges),
            trace=self.trace,
        )

    # ------------------------------------------------------------------
    # one invocation of Cluster_j
    # ------------------------------------------------------------------
    def run_level(self, j: int) -> LevelTrace:
        if j != self._level_done:
            raise SimulationError(f"levels must run in order; expected {self._level_done}")
        level = (
            self._run_level_columnar
            if self._engine is not None
            else self._run_level_reference
        )
        if not obs.enabled():
            return level(j)
        with obs.span("build/level", level=j) as level_span:
            trace = level(j)
            level_span.set(
                population=trace.population, edges=len(trace.f_edges)
            )
        return trace

    # ------------------------------------------------------------------
    # columnar strategy (repro.core.parallel)
    # ------------------------------------------------------------------
    def _run_level_columnar(self, j: int) -> LevelTrace:
        """One invocation of ``Cluster_j`` on the columnar level engine.

        The trial population comes back as one columnar
        :class:`~repro.core.parallel.LevelPartial`.
        """
        active_sorted = sorted(self._active)
        part = self._engine.run_level(
            j,
            root_of=self.forest.root_of,
            active_sorted=active_sorted,
            dead_pairs=self._dead_pairs,
            payloads=self._payloads,
        )
        sizes, heights = self._sizes_and_heights(active_sorted)

        ids = self._ids
        nodes = part.node_traces(j, self.params, ids)
        level_f = frozenset(ids.eids(part.fa_e))
        self.spanner_edges |= level_f

        if j < self.params.k:
            centers = tuple(ids.nodes(part.centers))
            joins = part.joins(ids)
            clustered = np.concatenate(
                [
                    part.centers,
                    np.asarray([v for v, _u, _e in joins], dtype=np.int64),
                ]
            )
            unclustered = tuple(
                ids.nodes(np.setdiff1d(part.cids, clustered, assume_unique=True))
            )
        else:
            # Final level: no clustering; every node of G_k is unclustered.
            centers, joins = (), ()
            unclustered = tuple(active_sorted)

        level_trace = LevelTrace(
            level=j,
            population=len(active_sorted),
            active_edges=part.active_edges // 2,
            stale_edges=part.stale_edges,
            cluster_sizes=sizes,
            cluster_heights=heights,
            nodes=nodes,
            centers=centers,
            joins=joins,
            unclustered=unclustered,
            f_edges=level_f,
        )
        self.trace.levels.append(level_trace)

        # Apply the level's outcome.
        if joins:
            self._attach_joins(joins)
        self._finish_clusters(j, unclustered, part, nodes)
        for cid in unclustered:
            self._dead_pairs.pop(cid, None)
        self._active = set(centers) if j < self.params.k else set()
        self._level_done = j + 1
        return level_trace

    def _rows(self, eids: np.ndarray) -> np.ndarray:
        """Endpoint-array rows of ``eids``."""
        if self._eid_row is None:
            return eids
        return np.searchsorted(
            np.asarray(self.network.edge_ids, dtype=np.int64), eids
        )

    def _sizes_and_heights(
        self, active_sorted: list[int]
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Member counts and tree heights of the active clusters, from
        vectorized sweeps: O(n * tree height) in total instead of one
        forest walk per cluster."""
        n = self.network.n
        root_np = np.asarray(self.forest.root_of, dtype=np.int64)
        active_np = np.asarray(active_sorted, dtype=np.int64)
        counts = np.bincount(root_np, minlength=n)
        sizes = dict(zip(active_sorted, counts[active_np].tolist()))
        ident = np.arange(n, dtype=np.int64)
        pa = ident.copy()
        for child, (par_phys, _eid) in self.forest.parent_items():
            pa[child] = par_phys
        # depth[x] = hops from x to its tree root: chase parent pointers
        # in lockstep, at most tree-height iterations (Lemma 8 bounds it
        # by (3^j - 1) / 2).
        depth = (pa != ident).astype(np.int64)
        cur = pa
        while True:
            nxt = pa[cur]
            moved = nxt != cur
            if not moved.any():
                break
            depth += moved
            cur = nxt
        tree_h = np.zeros(n, dtype=np.int64)
        np.maximum.at(tree_h, root_np, depth)
        heights = dict(zip(active_sorted, tree_h[active_np].tolist()))
        return sizes, heights

    def _attach_joins(self, joins: tuple[tuple[int, int, int], ...]) -> None:
        """Merge the level's joiners into their centers, moving each
        joiner's announcement state along."""
        je = np.asarray([e for _v, _u, e in joins], dtype=np.int64)
        jv = np.asarray([v for v, _u, _e in joins], dtype=np.int64)
        rows = self._rows(je)
        pu = np.frombuffer(self._ep_u, dtype=np.int64)[rows]
        pv = np.frombuffer(self._ep_v, dtype=np.int64)[rows]
        root_np = np.asarray(self.forest.root_of, dtype=np.int64)
        joiner_side = root_np[pu] == jv
        xs = np.where(joiner_side, pu, pv).tolist()
        ys = np.where(joiner_side, pv, pu).tolist()
        self.forest.bulk_attach(joins, xs, ys)
        dead_pairs = self._dead_pairs
        for joiner, center, _eid in joins:
            pairs_j = dead_pairs.pop(joiner, None)
            if not pairs_j:
                continue
            pairs_c = dead_pairs.get(center)
            if pairs_c is None:
                dead_pairs[center] = pairs_j
            elif len(pairs_j) > len(pairs_c):
                pairs_j |= pairs_c
                dead_pairs[center] = pairs_j
            else:
                pairs_c |= pairs_j

    def _finish_clusters(self, j, unclustered, part, nodes) -> None:
        """Record the level's unclustered clusters and announce their
        pools over their ``F`` edges, with the receiver lookup
        vectorized over all announced edges at once."""
        finished = self._finished
        trace_finished = self.trace.finished
        announce = j < self.params.k
        for cid in unclustered:
            live_arr = part.live_array(cid)
            record = FinishedCluster(
                cid=cid,
                level=j,
                label=nodes[cid].label,
                live_edges=frozenset(self._ids.eids(live_arr)),
            )
            finished[cid] = record
            trace_finished[cid] = record
            if announce:
                self._payloads[cid] = live_arr
        if not announce or not unclustered:
            return  # final level: no further sampling, nothing to announce
        finishers = np.asarray(unclustered, dtype=np.int64)
        pos = np.searchsorted(part.cids, finishers)
        fa_off = np.zeros(len(part.cids) + 1, dtype=np.int64)
        np.cumsum(part.fa_cnt, out=fa_off[1:])
        cnt = part.fa_cnt[pos]
        eids = part.fa_e[_concat_ranges(fa_off[pos], cnt)]
        owner = np.repeat(finishers, cnt)
        rows = self._rows(eids)
        root_np = np.asarray(self.forest.root_of, dtype=np.int64)
        ru = root_np[np.frombuffer(self._ep_u, dtype=np.int64)[rows]]
        rv = root_np[np.frombuffer(self._ep_v, dtype=np.int64)[rows]]
        # The finisher neither joined nor centered this level, so its
        # members' assignment is unchanged post-attach: the member
        # endpoint is the one whose root is the finisher itself.
        recv = np.where(ru == owner, rv, ru)
        dead_pairs = self._dead_pairs
        for o, r in zip(owner.tolist(), recv.tolist()):
            pairs_r = dead_pairs.get(r)
            if pairs_r is None:
                dead_pairs[r] = {o}
            else:
                pairs_r.add(o)

    # ------------------------------------------------------------------
    # reference strategy (the seed recount; the oracle)
    # ------------------------------------------------------------------
    def _run_level_reference(self, j: int) -> LevelTrace:
        live = {cid: self._live_edges(cid) for cid in self._active}
        by_neighbor = {
            cid: self._group_by_neighbor(cid, edges) for cid, edges in live.items()
        }
        edge_neighbor = {
            cid: {eid: other for other, bundle in groups.items() for eid in bundle}
            for cid, groups in by_neighbor.items()
        }
        sizes = {cid: self.forest.size(cid) for cid in self._active}
        heights = {cid: self.forest.tree(cid).height for cid in self._active}

        machines: dict[int, TrialMachine] = {}
        for cid in sorted(self._active):
            machine = TrialMachine(
                vid=cid,
                level=j,
                incident_edges=live[cid],
                params=self.params,
                n=self.network.n,
                rng=self._rngf.stream("trials", j, cid),
            )
            while machine.wants_trial():
                queried = machine.begin_trial()
                results = [
                    self._resolve(cid, eid, by_neighbor, edge_neighbor)
                    for eid in queried
                ]
                machine.deliver(results)
            machines[cid] = machine

        level_f: set[int] = set()
        for machine in machines.values():
            level_f.update(machine._f_active.values())
        self.spanner_edges |= level_f

        if j < self.params.k:
            centers, joins, unclustered = self._form_clusters(j, machines)
        else:
            # Final level: no clustering; every node of G_k is unclustered.
            centers, joins = (), ()
            unclustered = tuple(sorted(self._active))

        active_edges = stale_edges = 0
        for cid, groups in by_neighbor.items():
            for other, bundle in groups.items():
                if other in self._active:
                    active_edges += len(bundle)
                else:
                    stale_edges += len(bundle)
        level_trace = LevelTrace(
            level=j,
            population=len(live),
            active_edges=active_edges // 2,
            stale_edges=stale_edges,
            cluster_sizes=sizes,
            cluster_heights=heights,
            nodes={
                cid: NodeLevelTrace.of_machine(
                    machine, len(live[cid]), len(by_neighbor[cid])
                )
                for cid, machine in machines.items()
            },
            centers=centers,
            joins=joins,
            unclustered=unclustered,
            f_edges=frozenset(level_f),
        )
        self.trace.levels.append(level_trace)

        # Apply the level's outcome.
        for joiner, center, eid in joins:
            self.forest.attach(joiner, center, eid)
        for cid in unclustered:
            self._finish_cluster(cid, j, machines[cid], live[cid])
        self._active = set(centers) if j < self.params.k else set()
        self._level_done = j + 1
        return level_trace

    def _live_edges(self, cid: int) -> list[int]:
        """``X_v`` at level start: dedup minus received finish payloads."""
        counts: Counter[int] = Counter()
        dead_set: set[int] = set()
        for phys in self.forest.members(cid):
            counts.update(self.network.incident(phys))
            phys_dead = self._phys_dead.get(phys)
            if phys_dead:
                dead_set |= phys_dead
        return sorted(e for e, c in counts.items() if c == 1 and e not in dead_set)

    def _group_by_neighbor(
        self, cid: int, edges: list[int]
    ) -> dict[int, tuple[int, ...]]:
        """Partition ``X_v`` by the cluster at the other end of each edge,
        via per-edge endpoint tuples and dict lookups."""
        groups: dict[int, list[int]] = {}
        for eid in edges:
            a, b = self.network.endpoints(eid)
            ca = self.forest.cluster_of(a)
            other = self.forest.cluster_of(b) if ca == cid else ca
            if other == cid:
                raise SimulationError(f"edge {eid} is intra-cluster for {cid}")
            groups.setdefault(other, []).append(eid)
        return {other: tuple(bundle) for other, bundle in groups.items()}

    def _resolve(
        self,
        cid: int,
        eid: int,
        by_neighbor: dict[int, dict[int, tuple[int, ...]]],
        edge_neighbor: dict[int, dict[int, int]],
    ) -> QueryResult:
        """Answer one query edge exactly as the network would.

        The distributed responder ships its whole edge list ``E_j(u)``;
        the querying machine then intersects it with ``X_v``, i.e. uses
        exactly ``E_j(v, u)``.  The centralized oracle hands over that
        intersection directly — byte-identical machine behaviour at a
        fraction of the cost (see test_core_equivalence).
        """
        other = edge_neighbor[cid][eid]
        return QueryResult(
            eid=eid,
            neighbor=other,
            neighbor_edges=by_neighbor[cid][other],
            active=other in self._active,
        )

    def _form_clusters(
        self, j: int, machines: dict[int, TrialMachine]
    ) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        """Second step of ``Cluster_j``: centers, joins, unclustered."""
        p_j = self.params.center_probability(j, self.network.n)
        centers = {
            cid
            for cid in self._active
            if self._rngf.uniform("center", j, cid) < p_j
        }
        # Read-only view of each finished machine's neighbor map; trials
        # are over, so sharing the internal dict is safe and copy-free.
        outgoing = {cid: machines[cid]._f_active for cid in self._active}
        incoming: dict[int, dict[int, int]] = {cid: {} for cid in self._active}
        for cid, f_map in outgoing.items():
            for neighbor, eid in f_map.items():
                incoming[neighbor][cid] = eid

        joins: list[tuple[int, int, int]] = []
        for vid in sorted(self._active - centers):
            candidates = {u for u in outgoing[vid] if u in centers}
            candidates |= {u for u in incoming[vid] if u in centers}
            if not candidates:
                continue
            chosen = min(candidates)
            options = [
                eid
                for eid in (outgoing[vid].get(chosen), incoming[vid].get(chosen))
                if eid is not None
            ]
            joins.append((vid, chosen, min(options)))
        joined = {vid for vid, _u, _e in joins}
        unclustered = tuple(sorted(self._active - centers - joined))
        return tuple(sorted(centers)), tuple(joins), unclustered

    def _finish_cluster(
        self, cid: int, level: int, machine: TrialMachine, live: list[int]
    ) -> None:
        """Leave the hierarchy: record and announce over the ``F`` edges."""
        record = FinishedCluster(
            cid=cid,
            level=level,
            label=machine.label,
            live_edges=frozenset(live),
        )
        self._finished[cid] = record
        self.trace.finished[cid] = record
        if level >= self.params.k:
            return  # final level: no further sampling, nothing to announce
        members = set(self.forest.members(cid))
        payload = set(live)
        for _neighbor, eid in machine.f_active.items():
            a, b = self.network.endpoints(eid)
            receiver = b if a in members else a
            self._phys_dead.setdefault(receiver, set()).update(payload)


def build_spanner(
    network: Network,
    params: SamplerParams,
    *,
    incremental: bool = True,
) -> SpannerResult:
    """Run centralized ``Sampler`` and return the spanner with its trace.

    The default runs the columnar level engine in-process;
    ``incremental=False`` selects the seed recount, the oracle, with a
    bit-identical result (DESIGN.md §3.2).
    """
    return SamplerRun(network, params, incremental=incremental).run()
