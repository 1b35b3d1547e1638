"""The columnar level engine of ``Sampler`` (DESIGN.md §3.2, §3.11).

Inside one level of ``Sampler`` every active cluster's trial machine is
independent: per-``(purpose, level, cluster)`` RNG streams
(:class:`~repro.rng.RngFactory`) make the outcome of each cluster a pure
function of ``(graph, params, level state)``, regardless of execution
order.  This module exploits that:

* A level is one *shard function* over array views of the graph — the
  :class:`Network` endpoint and incidence CSR arrays — plus a per-level
  block: cluster assignment ``root_of``, active flags, and a
  members-by-cluster index.  For a contiguous ascending range of the
  active cluster ids it derives each cluster's unexplored pool ``X_v``
  (the cut edges incident to the cluster, minus finish announcements),
  executes the level's trials, and returns columnar partials: pools,
  ``F`` edges, per-cluster trace columns, center coins, and
  active/stale edge counts.
* :class:`LevelEngine` (``jobs=1``) runs the shard function in-process,
  as one shard over plain numpy views of the network's arrays — no
  process pool, no shared memory.
* :class:`ParallelBuildEngine` (``jobs>1``) copies the same arrays into
  one :mod:`multiprocessing.shared_memory` segment at build start
  (zero-copy for every worker), rewrites the per-level block at each
  level boundary, and runs one shard per worker of a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Shards are
  ascending-``cid`` ranges and every per-cluster output is keyed by
  ``cid``, so the reduce is plain concatenation in shard order —
  ``jobs=2`` and ``jobs=8`` produce the same :class:`LevelPartial`.

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

import os
import random
import weakref
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro import obs
from repro.core.params import SamplerParams
from repro.core.trace import NodeLevelTrace
from repro.core.trials import NodeLabel, TrialMachine, TrialStats
from repro.errors import SimulationError
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = ["IdObjects", "LevelEngine", "ParallelBuildEngine", "LevelPartial"]

# Names of shared-memory segments this process created and has not yet
# unlinked — the leak detector used by the worker-crash tests.
_LIVE_SEGMENTS: set[str] = set()

# Test hook: when set in the environment, every shard task of a worker
# pool dies before doing any work, simulating a hard worker crash
# mid-level.  In-process shards ignore it.
_CRASH_ENV = "REPRO_PARALLEL_CRASH_SHARD"


# ----------------------------------------------------------------------
# array layout
# ----------------------------------------------------------------------
def _layout(n: int, m: int, identity: bool) -> tuple[dict, int]:
    """``{field: (byte offset, element count, dtype)}`` plus total bytes
    of the shared-memory segment.

    Static fields (written once per build): the CSR endpoint arrays,
    incidence index, and — only when edge ids are non-consecutive — the
    sorted edge-id array the shard binary-searches for row lookup.
    Dynamic fields (rewritten per level): cluster assignment, active
    flags, the stable members-by-cluster permutation with its sorted key
    array, and the sorted active cluster ids.
    """
    fields: dict[str, tuple[int, int, object]] = {}
    offset = 0

    def add(name: str, count: int, dtype) -> None:
        nonlocal offset
        fields[name] = (offset, count, dtype)
        offset += count * np.dtype(dtype).itemsize

    add("ep_u", m, np.int64)
    add("ep_v", m, np.int64)
    add("indptr", n + 1, np.int64)
    add("inc", 2 * m, np.int64)
    add("eids", 0 if identity else m, np.int64)
    add("root", n, np.int64)
    add("member_order", n, np.int64)
    add("roots_sorted", n, np.int64)
    add("active_sorted", n, np.int64)
    add("aflags", n, np.uint8)
    return fields, max(offset, 1)


def _views(buf, fields: dict, writeable: bool) -> dict[str, np.ndarray]:
    views: dict[str, np.ndarray] = {}
    for name, (offset, count, dtype) in fields.items():
        view = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        view.flags.writeable = writeable
        views[name] = view
    return views


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
        # sorted key the shard binary-searches.
        arrays["eids"] = np.asarray(network.edge_ids, dtype=np.int64)
    return arrays


def _level_block(
    root_of: list[int], active_sorted: list[int]
) -> dict[str, np.ndarray]:
    """The dynamic fields of one level (see :func:`_layout`)."""
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


class _PlainIds:
    """A pool worker's stand-in for :class:`IdObjects`: shared objects
    do not survive pickling, so workers skip the O(n + m) tables."""

    @staticmethod
    def nodes(values: np.ndarray) -> list[int]:
        return values.tolist()

    eids = nodes


class _ShardContext:
    """Everything the shard function reads besides its level arguments."""

    __slots__ = ("views", "params", "n", "m", "identity", "ids", "rngf", "shm")

    def __init__(self, views, params, n, m, identity, ids, shm=None) -> None:
        self.views = views
        self.params = params
        self.n = n
        self.m = m
        self.identity = identity
        self.ids = ids
        self.rngf = RngFactory(params.seed)
        self.shm = shm  # keeps a worker's mapping alive for the views


# ----------------------------------------------------------------------
# pool-worker side
# ----------------------------------------------------------------------
_WORKER: _ShardContext | None = None


def _attach_worker(shm_name: str, n: int, m: int, identity: bool, params) -> None:
    """Pool initializer: map the segment read-only, build array views."""
    global _WORKER
    import atexit
    from multiprocessing import resource_tracker, shared_memory

    # Attaching would register the segment with the resource tracker as
    # if this process owned it; the parent is the sole owner/unlinker,
    # so suppress registration (the 3.13 ``track=False`` knob,
    # hand-rolled for 3.10-3.12 — bpo-39959).
    original_register = resource_tracker.register
    try:
        resource_tracker.register = (
            lambda name, rtype: None
            if rtype == "shared_memory"
            else original_register(name, rtype)
        )
        shm = shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original_register
    fields, _ = _layout(n, m, identity)
    views = _views(shm.buf, fields, writeable=False)
    _WORKER = _ShardContext(views, params, n, m, identity, _PlainIds(), shm)
    atexit.register(_detach_worker)


def _detach_worker() -> None:
    """Drop the views (buffer exports) so the mapping closes cleanly."""
    global _WORKER
    state, _WORKER = _WORKER, None
    if state is None:
        return
    state.views.clear()
    try:
        state.shm.close()
    except Exception:
        pass


def _run_shard(j: int, lo: int, hi: int, pairs: tuple | None) -> dict:
    """Pool task: one shard of level ``j`` against the worker's views.

    When the obs plane is on, the shard's span tree (a ``build/shard``
    root tagged with the worker pid) rides back to the parent as a
    ``"spans"`` columnar partial, drained from this worker's collector
    so persistent workers never accumulate state across levels.
    """
    if os.environ.get(_CRASH_ENV):
        os._exit(13)
    if not obs.enabled():
        return _run_shard_impl(_WORKER, j, lo, hi, pairs)
    # Forked workers inherit the parent collector's finished records;
    # shipping those back would make the parent re-adopt its own
    # history (duplicating it per shard, compounding per build).  Only
    # records produced by THIS task may ride back, so clear first.
    # (Never in-process: there the records are the parent's own.)
    obs.collector().drain_records()
    out = _traced_shard(_WORKER, j, lo, hi, pairs)
    out["spans"] = obs.collector().drain_records()
    return out


# ----------------------------------------------------------------------
# the shard function
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


def _traced_shard(
    ctx: _ShardContext, j: int, lo: int, hi: int, pairs: tuple | None
) -> dict:
    with obs.span(
        "build/shard", level=int(j), lo=int(lo), hi=int(hi)
    ) as shard_span:
        out = _run_shard_impl(ctx, j, lo, hi, pairs)
        shard_span.set(clusters=int(hi - lo))
    return out


def _run_shard_impl(
    ctx: _ShardContext, j: int, lo: int, hi: int, pairs: tuple | None
) -> dict:
    """Run clusters ``active_sorted[lo:hi]`` of level ``j``; return
    partials keyed by ascending cluster id.

    ``pairs`` is ``(receivers, finishers, {finisher: payload})``: the
    factored finish announcements whose receiver lies in this shard
    (see :meth:`LevelEngine.submit_level`), or ``None``.
    """
    views = ctx.views
    params = ctx.params
    n = ctx.n
    cids = views["active_sorted"][lo:hi]
    A = len(cids)
    target_j = params.target(j, n)
    budget_j = params.queries_per_trial(j, n)
    # Edge ids lie in [0, span); combined int64 sort and membership
    # keys fall back to slower forms when they could overflow.
    if not ctx.m:
        span = 1
    else:
        span = ctx.m if ctx.identity else int(views["eids"][-1]) + 1
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
    rows = E if ctx.identity else np.searchsorted(views["eids"], E)
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
            ctx,
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
        pref = ctx.rngf.prefix("center", j)
        p_j = params.center_probability(j, n)
        uniform = pref.uniform
        centers = np.asarray(
            [cid for cid in cids.tolist() if uniform(cid) < p_j],
            dtype=np.int64,
        )

    return {
        "cids": np.ascontiguousarray(cids),
        "live": np.ascontiguousarray(live),
        "live_off": live_off,
        "fa_o": np.ascontiguousarray(fa_o),
        "fa_e": np.ascontiguousarray(fa_e),
        "fa_cnt": np.bincount(fa_i, minlength=A).astype(np.int64),
        "fi_o": np.ascontiguousarray(fi_o),
        "fi_e": np.ascontiguousarray(fi_e),
        "fi_cnt": np.bincount(fi_i, minlength=A).astype(np.int64),
        "deg": deg,
        "active_edges": n_active,
        "stale_edges": N - n_active,
        "centers": centers,
        "fallback": fallback,
    }


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
    ctx,
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
    params = ctx.params
    n = ctx.n
    ids = ctx.ids
    trial_prefix = ctx.rngf.prefix("trials", j)
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
# parent side
# ----------------------------------------------------------------------
@dataclass
class LevelPartial:
    """The deterministic reduce of one level's shard outputs.

    Columnar, keyed by ascending cluster id throughout; identical for
    every shard count because shards are contiguous ``cid`` ranges and
    each column is concatenated in shard order.
    """

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


def _reduce(parts: list[dict]) -> LevelPartial:
    """Concatenate shard partials in shard order (ascending cid)."""

    def cat(key: str) -> np.ndarray:
        arrays = [part[key] for part in parts]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    live_off = np.zeros(
        sum(len(part["cids"]) for part in parts) + 1, dtype=np.int64
    )
    cursor = 0
    base = 0
    for part in parts:
        offs = part["live_off"]
        count = len(offs) - 1
        live_off[cursor + 1 : cursor + 1 + count] = offs[1:] + base
        base += int(offs[-1])
        cursor += count
    fallback: dict[int, NodeLevelTrace] = {}
    for part in parts:
        fallback.update(part["fallback"])
    return LevelPartial(
        cids=cat("cids"),
        live=cat("live"),
        live_off=live_off,
        fa_o=cat("fa_o"),
        fa_e=cat("fa_e"),
        fa_cnt=cat("fa_cnt"),
        fi_o=cat("fi_o"),
        fi_e=cat("fi_e"),
        fi_cnt=cat("fi_cnt"),
        deg=cat("deg"),
        active_edges=sum(part["active_edges"] for part in parts),
        stale_edges=sum(part["stale_edges"] for part in parts),
        centers=cat("centers"),
        fallback=fallback,
    )


def _pairs_by_shard(
    shards: list[tuple[int, int]],
    active: np.ndarray,
    dead_pairs: dict[int, set[int]],
    payloads: dict[int, np.ndarray],
) -> dict[int, tuple]:
    """Split the factored announcements by their receiver's shard:
    ``{shard: (receivers, finishers, {finisher: payload})}``."""
    recv: list[int] = []
    fin: list[int] = []
    for cid, finishers in dead_pairs.items():
        recv.extend([cid] * len(finishers))
        fin.extend(finishers)
    if not recv or not len(active):
        return {}
    recv_a = np.asarray(recv, dtype=np.int64)
    fin_a = np.asarray(fin, dtype=np.int64)
    pos = np.searchsorted(active, recv_a)
    live = pos < len(active)
    live[live] = active[pos[live]] == recv_a[live]
    his = np.asarray([hi for _lo, hi in shards], dtype=np.int64)
    shard_of = np.searchsorted(his, pos, side="right")
    out: dict[int, tuple] = {}
    for i in np.unique(shard_of[live]).tolist():
        sel = live & (shard_of == i)
        f = fin_a[sel]
        out[i] = (
            recv_a[sel],
            f,
            {fid: payloads[fid] for fid in np.unique(f).tolist()},
        )
    return out


class LevelEngine:
    """The columnar level engine run in-process (``jobs=1``).

    Each level is one shard over plain numpy views of the network's
    arrays: no process pool, no shared memory, nothing to release.
    :class:`~repro.core.sampler.SamplerRun` creates one per build and
    drives it with :meth:`submit_level` then :meth:`collect`.
    """

    jobs = 1

    def __init__(
        self, network: Network, params: SamplerParams, ids: IdObjects
    ) -> None:
        arrays = _static_arrays(network)
        self._ctx = _ShardContext(
            arrays, params, network.n, network.m, "eids" not in arrays, ids
        )

    def close(self) -> None:
        """Release the engine's resources (none in-process)."""

    def submit_level(
        self,
        j: int,
        *,
        root_of: list[int],
        active_sorted: list[int],
        dead_pairs: dict[int, set[int]],
        payloads: dict[int, np.ndarray],
    ) -> list:
        """Publish level ``j``'s state and start its shards; returns the
        pending shard outputs for :meth:`collect`.

        ``dead_pairs``/``payloads`` are the finish announcements of
        earlier levels, factored: receiver -> announcing finishers,
        finisher -> announced edge array.  The shard applies them by
        membership without materializing the per-receiver unions.
        """
        block = _level_block(root_of, active_sorted)
        self._publish(block)
        A = len(active_sorted)
        shards = [
            (int(chunk[0]), int(chunk[-1]) + 1)
            for chunk in np.array_split(np.arange(A), self.jobs)
            if len(chunk)
        ]
        pairs = _pairs_by_shard(
            shards, block["active_sorted"], dead_pairs, payloads
        )
        return self._start(j, shards, pairs)

    def collect(self, pending: list) -> LevelPartial:
        """Await one :meth:`submit_level` batch and reduce it."""
        return _reduce(self._await(pending))

    # -- execution hooks (in-process: run now, nothing to await) -------
    def _publish(self, block: dict[str, np.ndarray]) -> None:
        self._ctx.views.update(block)

    def _start(self, j: int, shards: list, pairs: dict) -> list:
        return [
            _traced_shard(self._ctx, j, lo, hi, pairs.get(i))
            for i, (lo, hi) in enumerate(shards)
        ]

    def _await(self, pending: list) -> list[dict]:
        return pending


def _release(shm, executor, views: dict) -> None:
    """Idempotent teardown shared by ``close()``, GC, and exit."""
    if executor is not None:
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
    if shm is not None:
        views.clear()  # drop the buffer exports or the mmap cannot close
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
        _LIVE_SEGMENTS.discard(shm.name)


class ParallelBuildEngine(LevelEngine):
    """The columnar level engine across a process pool (``jobs > 1``).

    Publishes the network's arrays into one shared-memory segment and
    keeps a persistent worker pool for the whole build (the static CSR
    block is written exactly once); each level rewrites the dynamic
    block and runs one contiguous shard per worker.  Closed by the run,
    with a :func:`weakref.finalize` backstop so a crashed or abandoned
    run can never leak the segment.
    """

    def __init__(
        self, network: Network, params: SamplerParams, ids: IdObjects, jobs: int
    ) -> None:
        from multiprocessing import shared_memory

        if jobs < 2:
            raise SimulationError("the parallel engine needs jobs >= 2")
        super().__init__(network, params, ids)
        self.jobs = jobs
        n, m = network.n, network.m
        identity = self._ctx.identity
        fields, total = _layout(n, m, identity)
        self._shm = shared_memory.SharedMemory(create=True, size=total)
        _LIVE_SEGMENTS.add(self._shm.name)
        self._views = _views(self._shm.buf, fields, writeable=True)
        for name, array in self._ctx.views.items():
            self._views[name][:] = array
        self._pool = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_attach_worker,
            initargs=(self._shm.name, n, m, identity, params),
        )
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release, self._shm, self._pool, self._views
        )

    def close(self) -> None:
        """Shut the pool down and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release(self._shm, self._pool, self._views)

    def _publish(self, block: dict[str, np.ndarray]) -> None:
        if self._closed:
            raise SimulationError("parallel engine already closed")
        for name, array in block.items():
            self._views[name][: len(array)] = array

    def _start(self, j: int, shards: list, pairs: dict) -> list:
        return [
            self._pool.submit(_run_shard, j, lo, hi, pairs.get(i))
            for i, (lo, hi) in enumerate(shards)
        ]

    def _await(self, pending: list) -> list[dict]:
        parts = []
        try:
            for future in pending:
                parts.append(future.result())
        except BrokenProcessPool as exc:
            self.close()
            raise SimulationError(
                "parallel build worker crashed; shared-memory segment "
                "released, rerun with jobs=1 to diagnose"
            ) from exc
        # Adopt worker span partials in shard order (deterministic) and
        # strip them before the columnar reduce sees the dicts.
        for part in parts:
            spans = part.pop("spans", None)
            if spans and obs.enabled():
                obs.collector().adopt(spans)
        return parts
