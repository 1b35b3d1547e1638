"""The columnar level engine of ``Sampler`` (DESIGN.md §3.2).

Inside one level of ``Sampler`` every active cluster's trial machine is
independent: per-``(purpose, level, cluster)`` RNG streams
(:class:`~repro.rng.RngFactory`) make the outcome of each cluster a pure
function of ``(graph, params, level state)``, regardless of execution
order.  This module exploits that: a level is one pass over array views
of the graph — the :class:`Network` endpoint and incidence CSR arrays —
plus a per-level block: cluster assignment ``root_of``, active flags,
and a members-by-cluster index.  For every active cluster at once it
derives the unexplored pool ``X_v`` (the cut edges incident to the
cluster, minus finish announcements), executes the level's trials, and
returns one columnar :class:`LevelPartial`: pools, ``F`` edges,
per-cluster trace columns, center coins, and active/stale edge counts.

The fast path vectorizes the *exhaustive* trial (pool no larger than the
query budget — the overwhelmingly common case under the repo's budget
formulas): such a machine runs exactly one trial that queries its whole
sorted pool, peels every edge, keeps the minimum edge id per discovered
neighbor, draws nothing from its RNG, and ends ``LIGHT``.  That outcome
is a pure group-by over ``(cluster, neighbor, eid)``.  Clusters whose
pool exceeds the budget (or any cluster when ``exhaustive_small_pools``
is off) fall back to a real :class:`~repro.core.trials.TrialMachine`
seeded from the identical ``("trials", j, cid)`` stream, so the engine
never approximates: ``SpannerResult`` equality including the full trace
against the seed recount (``build_spanner(..., incremental=False)``, the
oracle) is enforced by tests/test_perf_contracts.py and
tests/test_parallel_build.py.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro import obs
from repro.core.params import SamplerParams
from repro.core.trace import NodeLevelTrace
from repro.core.trials import NodeLabel, TrialMachine, TrialStats
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = ["IdObjects", "LevelEngine", "LevelPartial"]


def _static_arrays(network: Network) -> dict[str, np.ndarray]:
    """Zero-copy int64 views of the network's endpoint and incidence
    arrays, plus the sorted edge ids when they are not ``0..m-1``."""
    eid_row, ep_u, ep_v = network.endpoints_flat()
    indptr, inc = network.incidence_csr()
    arrays = {
        "ep_u": np.frombuffer(ep_u, dtype=np.int64),
        "ep_v": np.frombuffer(ep_v, dtype=np.int64),
        "indptr": np.frombuffer(indptr, dtype=np.int64),
        "inc": np.frombuffer(inc, dtype=np.int64),
    }
    if eid_row is not None:
        # Rows are sorted by eid, so the edge-id array itself is the
        # sorted key a level binary-searches.
        arrays["eids"] = np.asarray(network.edge_ids, dtype=np.int64)
    return arrays


def _level_block(
    root_of: list[int], active_sorted: list[int]
) -> dict[str, np.ndarray]:
    """The per-level fields: cluster assignment, the stable
    members-by-cluster permutation with its sorted key array, the sorted
    active cluster ids and their flags."""
    root = np.asarray(root_of, dtype=np.int64)
    member_order = np.argsort(root, kind="stable")
    active = np.asarray(active_sorted, dtype=np.int64)
    aflags = np.zeros(len(root), dtype=np.uint8)
    aflags[active] = 1
    return {
        "root": root,
        "member_order": member_order,
        "roots_sorted": root[member_order],
        "active_sorted": active,
        "aflags": aflags,
    }


class IdObjects:
    """One Python int object per node id and per edge id.

    ``ndarray.tolist()`` makes a new int object for every mention of an
    id, so a trace assembled straight from the columns would hold about
    four times the int objects of the reference path's, whose ids come
    from shared tuples — a cached spanner would cost half as much memory
    again.  Mapping the columns through these tables makes every
    mention of an id the same object.
    """

    __slots__ = ("node_ids", "edge_ids", "_sorted_eids")

    def __init__(self, n: int, edge_ids, sorted_eids: np.ndarray | None) -> None:
        self.node_ids = tuple(range(n))
        self.edge_ids = edge_ids  # indexed by row: ascending edge id
        self._sorted_eids = sorted_eids  # None when row == eid

    @classmethod
    def of(cls, network: Network) -> "IdObjects":
        """Tables for ``network``, sharing its own edge-id tuple."""
        eid_row, _ep_u, _ep_v = network.endpoints_flat()
        edge_ids = network.edge_ids
        if eid_row is None:
            return cls(network.n, edge_ids, None)
        return cls(network.n, edge_ids, np.asarray(edge_ids, dtype=np.int64))

    def nodes(self, values: np.ndarray) -> list[int]:
        table = self.node_ids
        return [table[v] for v in values.tolist()]

    def eids(self, values: np.ndarray) -> list[int]:
        if self._sorted_eids is not None:
            values = np.searchsorted(self._sorted_eids, values)
        table = self.edge_ids
        return [table[row] for row in values.tolist()]


# ----------------------------------------------------------------------
# one level
# ----------------------------------------------------------------------
def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of ``[s, s+c)`` for every ``(s, c)`` pair, concatenated."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    pos = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + pos


def _announcements(
    active: np.ndarray,
    dead_pairs: dict[int, set[int]],
    payloads: dict[int, np.ndarray],
) -> tuple | None:
    """The factored finish announcements whose receiver is active, as
    ``(receivers, finishers, {finisher: payload})``, or ``None``."""
    recv: list[int] = []
    fin: list[int] = []
    for cid, finishers in dead_pairs.items():
        recv.extend([cid] * len(finishers))
        fin.extend(finishers)
    if not recv or not len(active):
        return None
    recv_a = np.asarray(recv, dtype=np.int64)
    fin_a = np.asarray(fin, dtype=np.int64)
    pos = np.searchsorted(active, recv_a)
    live = pos < len(active)
    live[live] = active[pos[live]] == recv_a[live]
    if not live.any():
        return None
    f = fin_a[live]
    return (
        recv_a[live],
        f,
        {fid: payloads[fid] for fid in np.unique(f).tolist()},
    )


def _run_level(engine: LevelEngine, j: int, pairs: tuple | None) -> LevelPartial:
    """Run every active cluster of level ``j``; return its columns keyed
    by ascending cluster id.

    ``pairs`` is the output of :func:`_announcements`.
    """
    views = engine.views
    params = engine.params
    n = engine.n
    cids = views["active_sorted"]
    A = len(cids)
    target_j = params.target(j, n)
    budget_j = params.queries_per_trial(j, n)
    # Edge ids lie in [0, span); combined int64 sort and membership
    # keys fall back to slower forms when they could overflow.
    if not engine.m:
        span = 1
    else:
        span = engine.m if engine.identity else int(views["eids"][-1]) + 1
    wide = n * n * span >= 2**62

    # --- pools: cut edges per cluster, minus finish announcements ----
    # Rows are gathered cluster by cluster, so C is ascending.  Every
    # array here is O(m) on a dense level, so temporaries are dropped as
    # soon as they are dead: the level's peak memory is their overlap.
    roots_sorted = views["roots_sorted"]
    starts = np.searchsorted(roots_sorted, cids, side="left")
    mcnt = np.searchsorted(roots_sorted, cids, side="right") - starts
    members = views["member_order"][_concat_ranges(starts, mcnt)]
    indptr = views["indptr"]
    estarts = indptr[members]
    ecnt = indptr[members + 1] - estarts
    E = views["inc"][_concat_ranges(estarts, ecnt)]
    C = np.repeat(np.repeat(cids, mcnt), ecnt)
    rows = E if engine.identity else np.searchsorted(views["eids"], E)
    root = views["root"]
    ru = root[views["ep_u"][rows]]
    other = root[views["ep_v"][rows]]
    del rows
    np.copyto(other, ru, where=ru != C)  # the endpoint not in C
    del ru
    keep = other != C  # both-endpoints-inside edges are intra-cluster
    if pairs is not None:
        # An edge of cluster C is dead iff its far cluster O is a
        # finisher that announced to C (pair test) and the edge is in
        # that finisher's payload (membership test).  Sound because an
        # announced payload edge incident to C always has its far
        # endpoint inside the announcing (hence forever unmerged)
        # finished cluster.
        recv_a, fin_a, payload_map = pairs
        cand = np.isin(C * np.int64(n) + other, recv_a * np.int64(n) + fin_a)
        cand &= keep
        if cand.any():
            if int(fin_a.max()) * span < 2**62:
                payload_keys = np.concatenate(
                    [
                        np.asarray(arr, dtype=np.int64) + fid * span
                        for fid, arr in payload_map.items()
                    ]
                )
                idx = np.flatnonzero(cand)
                hit = np.isin(other[idx] * span + E[idx], payload_keys)
                keep[idx[hit]] = False
            else:  # combined key would overflow: rare huge-eid graphs
                for r, f in zip(recv_a.tolist(), fin_a.tolist()):
                    keep &= ~(
                        (C == r)
                        & (other == f)
                        & np.isin(E, np.asarray(payload_map[f], dtype=np.int64))
                    )
        del cand
    E = E[keep]
    C = C[keep]
    O = other[keep]
    del other, keep

    # --- pool order: ascending eid per cluster -------------------------
    # One argsort of the combined key (cluster, eid) — unique, since an
    # edge lies in a cluster's pool at most once; all-singleton levels
    # arrive sorted already (CSR incidence lists are ascending).  C is
    # unchanged by the permutation.  From here on a row is a pool row.
    if wide:
        po = np.lexsort((E, C))
    else:
        key = C * span + E
        po = None if bool(np.all(key[1:] > key[:-1])) else np.argsort(key)
        del key
    if po is not None:
        E = E[po]
        O = O[po]
        del po
    live = E
    live_off = np.zeros(A + 1, dtype=np.int64)
    live_off[1:] = np.searchsorted(C, cids, side="right")
    pool_len = np.diff(live_off)

    # --- group order: one group per (cluster, neighbor) bundle ---------
    go = np.lexsort((E, O, C)) if wide else np.argsort((C * n + O) * span + E)
    Og = O[go]
    Eg = np.ascontiguousarray(E[go])  # C[go] == C: clusters stay put
    N = len(go)
    first = np.empty(N, dtype=bool)
    if N:
        first[0] = True
        first[1:] = (C[1:] != C[:-1]) | (Og[1:] != Og[:-1])
    gpos = np.flatnonzero(first)  # group starts in group order
    gO = Og[gpos]
    del Og
    aflags = views["aflags"]
    gA = aflags[gO].astype(bool)
    n_active = int(np.count_nonzero(aflags[O]))
    # Cluster i owns groups [gcum[i], gcum[i + 1]).
    gcum = np.searchsorted(gpos, live_off)
    deg = np.diff(gcum)
    # Exhaustive trials keep the minimum eid per neighbor: the group
    # firsts, already ascending by neighbor within each cluster.
    gi = np.repeat(np.arange(A, dtype=np.int64), deg)
    fa_i, fa_o, fa_e = gi[gA], gO[gA], Eg[gpos[gA]]
    fi_i, fi_o, fi_e = gi[~gA], gO[~gA], Eg[gpos[~gA]]
    del gi

    # --- fallback: pools larger than the budget run a real machine ---
    if params.exhaustive_small_pools:
        fb_idx = np.flatnonzero(pool_len > budget_j)
    else:
        fb_idx = np.flatnonzero(pool_len > 0)
    fallback: dict[int, NodeLevelTrace] = {}
    if len(fb_idx):
        # Group of every pool row, so a queried eid finds its bundle.
        gid = np.empty(N, dtype=np.int64)
        gid[go] = np.cumsum(first) - 1
        fallback, fa, fi = _run_fallback_machines(
            engine,
            j,
            fb_idx,
            cids,
            live,
            live_off,
            gid,
            gcum,
            np.append(gpos, N),
            gO,
            gA,
            memoryview(Eg),
            target_j,
            budget_j,
        )
        # Replace the fallback clusters' group-first rows with their
        # machines' F sets: drop those rows, append the machine rows,
        # and restore cluster order with one stable sort on the index.
        is_fb = np.zeros(A, dtype=bool)
        is_fb[fb_idx] = True
        fa_i, fa_o, fa_e = _splice(fa_i, fa_o, fa_e, is_fb, fa)
        fi_i, fi_o, fi_e = _splice(fi_i, fi_o, fi_e, is_fb, fi)

    # --- center coins (deterministic replay of the parent's stream) --
    centers = np.empty(0, dtype=np.int64)
    if j < params.k:
        pref = engine.rngf.prefix("center", j)
        p_j = params.center_probability(j, n)
        uniform = pref.uniform
        centers = np.asarray(
            [cid for cid in cids.tolist() if uniform(cid) < p_j],
            dtype=np.int64,
        )

    return LevelPartial(
        cids=cids,
        live=live,
        live_off=live_off,
        fa_o=fa_o,
        fa_e=fa_e,
        fa_cnt=np.bincount(fa_i, minlength=A).astype(np.int64),
        fi_o=fi_o,
        fi_e=fi_e,
        fi_cnt=np.bincount(fi_i, minlength=A).astype(np.int64),
        deg=deg,
        active_edges=n_active,
        stale_edges=N - n_active,
        centers=centers,
        fallback=fallback,
    )


def _splice(idx, o, e, is_fb, machine_rows):
    """Swap the fallback clusters' rows of one ``F`` column set for the
    machine-built ``(cluster index, neighbor, eid)`` rows."""
    mi, mo, me = machine_rows
    keep = ~is_fb[idx]
    idx = np.concatenate([idx[keep], np.asarray(mi, dtype=np.int64)])
    o = np.concatenate([o[keep], np.asarray(mo, dtype=np.int64)])
    e = np.concatenate([e[keep], np.asarray(me, dtype=np.int64)])
    order = np.argsort(idx, kind="stable")
    return idx[order], o[order], e[order]


def _run_fallback_machines(
    engine,
    j,
    fb_idx,
    cids,
    live,
    live_off,
    gid,
    gcum,
    gbounds,
    g_other,
    g_active,
    g_eids,
    target_j,
    budget_j,
):
    """Run real trial machines for the over-budget pools ``fb_idx``.

    ``live``/``live_off`` are the pools (ascending per cluster), ``gid``
    each pool row's bundle, ``gcum`` each cluster's bundle range, and
    ``gbounds`` the bundle boundaries in ``g_eids`` (eids grouped by
    cluster, then neighbor); ``g_other``/``g_active`` give each bundle's
    neighbor cluster and its active flag.  Only one cluster's slices
    become Python lists at a time.  A queried eid is found in its
    cluster's sorted pool by bisection, so no per-cluster map is built;
    ``g_eids`` is a memoryview, so handing a machine a bundle is a
    zero-copy slice (bundles between merged clusters run to thousands
    of edges, and most queries hit an already-peeled one).

    Returns the machines' traces and their ``F`` rows, active and
    inactive, as ``(cluster index, neighbor, eid)`` column lists.
    """
    params = engine.params
    n = engine.n
    ids = engine.ids
    trial_prefix = engine.rngf.prefix("trials", j)
    shared_rng = random.Random()
    fallback: dict[int, NodeLevelTrace] = {}
    fa = ([], [], [])
    fi = ([], [], [])
    for i, cid in zip(fb_idx.tolist(), ids.nodes(cids[fb_idx])):
        lo = live_off[i]
        hi = live_off[i + 1]
        g0 = gcum[i]
        g1 = gcum[i + 1]
        pool = ids.eids(live[lo:hi])
        pool_gid = (gid[lo:hi] - g0).tolist()
        other = ids.nodes(g_other[g0:g1])
        active = g_active[g0:g1].tolist()
        bounds = gbounds[g0 : g1 + 1].tolist()
        # One Random re-seeded per machine: each machine runs to
        # completion before the next starts, so the draw sequence is
        # identical to giving every machine a fresh Random.
        shared_rng.seed(trial_prefix.child_seed(cid))
        machine = TrialMachine(
            vid=cid,
            level=j,
            incident_edges=pool,
            params=params,
            n=n,
            rng=shared_rng,
            target=target_j,
            budget=budget_j,
        )
        while machine.wants_trial():
            # Plain eid-first tuples: deliver() unpacks positionally,
            # so the QueryResult envelope is skipped on the hot path.
            results = []
            for eid in machine.begin_trial():
                g = pool_gid[bisect_left(pool, eid)]
                results.append(
                    (eid, other[g], g_eids[bounds[g] : bounds[g + 1]], active[g])
                )
            machine.deliver(results)
        trace = fallback[cid] = NodeLevelTrace.of_machine(
            machine, len(pool), int(g1 - g0)
        )
        for rows, items in ((fa, trace.f_active), (fi, trace.f_inactive)):
            if items:
                rows[0].extend([i] * len(items))
                rows[1].extend([o for o, _e in items])
                rows[2].extend([e for _o, e in items])
    return fallback, fa, fi


# ----------------------------------------------------------------------
# the level's outcome and the engine
# ----------------------------------------------------------------------
@dataclass
class LevelPartial:
    """The outcome of one level, columnar and keyed by ascending
    cluster id throughout."""

    cids: np.ndarray
    live: np.ndarray
    live_off: np.ndarray
    fa_o: np.ndarray
    fa_e: np.ndarray
    fa_cnt: np.ndarray
    fi_o: np.ndarray
    fi_e: np.ndarray
    fi_cnt: np.ndarray
    deg: np.ndarray
    active_edges: int
    stale_edges: int
    centers: np.ndarray
    fallback: dict[int, NodeLevelTrace]
    _index: dict[int, int] | None = field(default=None, repr=False)

    def live_array(self, cid: int) -> np.ndarray:
        """The level-start pool ``X_v`` of ``cid`` (ascending eids), as
        an int64 array view."""
        index = self._index
        if index is None:
            index = self._index = {
                int(c): i for i, c in enumerate(self.cids.tolist())
            }
        i = index[cid]
        return self.live[self.live_off[i] : self.live_off[i + 1]]

    def node_traces(
        self, level: int, params: SamplerParams, ids: IdObjects
    ) -> dict[int, NodeLevelTrace]:
        """Per-cluster traces: vector-assembled for exhaustive trials,
        the machine-built trace for fallback clusters."""
        n = len(ids.node_ids)
        target_j = params.target(level, n)
        budget_j = params.queries_per_trial(level, n)
        cids = ids.nodes(self.cids)
        pool_len = np.diff(self.live_off)
        # Only the exhaustive clusters' columns become Python objects
        # (fallback clusters bring their machine-built trace), consumed
        # in one forward pass via islice in cid order.
        vec = np.ones(len(cids), dtype=bool)
        fallback = self.fallback
        if fallback:
            vec[np.searchsorted(self.cids, list(fallback))] = False
        live_it = iter(ids.eids(self.live[np.repeat(vec, pool_len)]))
        fa_sel = np.repeat(vec, self.fa_cnt)
        fi_sel = np.repeat(vec, self.fi_cnt)
        fa_it = zip(ids.nodes(self.fa_o[fa_sel]), ids.eids(self.fa_e[fa_sel]))
        fi_it = zip(ids.nodes(self.fi_o[fi_sel]), ids.eids(self.fi_e[fi_sel]))
        take = islice
        pool_len = pool_len.tolist()
        fa_cnt = self.fa_cnt.tolist()
        fi_cnt = self.fi_cnt.tolist()
        deg = self.deg.tolist()
        light = NodeLabel.LIGHT
        trace_cls = NodeLevelTrace
        stats_cls = TrialStats
        # NodeLevelTrace is a NamedTuple; building through tuple.__new__
        # skips its python-level argument-parsing __new__ on this
        # ~population-sized loop.  Instances are indistinguishable.
        tnew = tuple.__new__
        empty = ()
        nodes: dict[int, NodeLevelTrace] = {}
        for i, (cid, exhaustive) in enumerate(zip(cids, vec.tolist())):
            if not exhaustive:
                nodes[cid] = fallback[cid]
                continue
            na = fa_cnt[i]
            ni = fi_cnt[i]
            fa = tuple(take(fa_it, na)) if na else empty
            fi = tuple(take(fi_it, ni)) if ni else empty
            size = pool_len[i]
            if size:
                d = deg[i]
                pool = tuple(take(live_it, size))
                nodes[cid] = tnew(
                    trace_cls,
                    (
                        cid,
                        light,
                        1,
                        size,
                        size,
                        na,
                        ni,
                        size,
                        0,
                        d,
                        target_j,
                        budget_j,
                        fa,
                        fi,
                        (stats_cls(1, size, size, pool, d, size),),
                    ),
                )
            else:
                nodes[cid] = tnew(
                    trace_cls,
                    (cid, light, 0, 0, 0, 0, 0, 0, 0, 0,
                     target_j, budget_j, empty, empty, empty),
                )
        return nodes

    def joins(self, ids: IdObjects) -> tuple[tuple[int, int, int], ...]:
        """Vectorized join rule: every active non-center picks its
        minimum candidate center, tie-broken by the minimum edge id
        between the pair (outgoing or incoming)."""
        centers = self.centers
        if not len(centers) or not len(self.fa_o):
            return ()
        cflag = np.zeros(len(ids.node_ids), dtype=bool)
        cflag[centers] = True
        fa_c = np.repeat(self.cids, self.fa_cnt)
        co = cflag[self.fa_o]
        cc = cflag[fa_c]
        mo = co & ~cc  # owner v joins discovered center u
        mi = cc & ~co  # discovered v joins owning center u
        v = np.concatenate([fa_c[mo], self.fa_o[mi]])
        if not len(v):
            return ()
        u = np.concatenate([self.fa_o[mo], fa_c[mi]])
        e = np.concatenate([self.fa_e[mo], self.fa_e[mi]])
        order = np.lexsort((e, u, v))
        v = v[order]
        u = u[order]
        e = e[order]
        keep = np.empty(len(v), dtype=bool)
        keep[0] = True
        keep[1:] = v[1:] != v[:-1]
        return tuple(
            zip(ids.nodes(v[keep]), ids.nodes(u[keep]), ids.eids(e[keep]))
        )


class LevelEngine:
    """The columnar level engine, one in-process pass per level.

    Holds zero-copy views of the network's arrays for the whole build;
    :class:`~repro.core.sampler.SamplerRun` creates one per build and
    calls :meth:`run_level` once per level.
    """

    __slots__ = ("views", "params", "n", "m", "identity", "ids", "rngf")

    def __init__(
        self, network: Network, params: SamplerParams, ids: IdObjects
    ) -> None:
        self.views = _static_arrays(network)
        self.params = params
        self.n = network.n
        self.m = network.m
        self.identity = "eids" not in self.views
        self.ids = ids
        self.rngf = RngFactory(params.seed)

    def run_level(
        self,
        j: int,
        *,
        root_of: list[int],
        active_sorted: list[int],
        dead_pairs: dict[int, set[int]],
        payloads: dict[int, np.ndarray],
    ) -> LevelPartial:
        """Run level ``j`` over every active cluster.

        ``dead_pairs``/``payloads`` are the finish announcements of
        earlier levels, factored: receiver -> announcing finishers,
        finisher -> announced edge array.  The level applies them by
        membership without materializing the per-receiver unions.
        """
        self.views.update(_level_block(root_of, active_sorted))
        pairs = _announcements(self.views["active_sorted"], dead_pairs, payloads)
        with obs.span("build/shard", level=int(j)) as shard_span:
            part = _run_level(self, j, pairs)
            shard_span.set(clusters=len(active_sorted))
        return part
