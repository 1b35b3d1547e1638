"""Vector populations for the library's LOCAL algorithms.

Each class here is the struct-of-arrays twin of one
:class:`~repro.algorithms.base.LocalAlgorithm` run through
``_AlgorithmProgram``: same round structure (``algo.step(r)`` for
``r = 0..t``, step-``t`` outbox discarded, every node halts after step
``t``), same per-node randomness (coloring, Luby MIS and matching
pre-draw their coins from the identical
:func:`~repro.algorithms.runner.node_tapes` stream, in the reference
``init`` order), same outputs — so
:func:`~repro.algorithms.runner.run_direct` is RunReport-identical
across engines, drop plans included: every twin computes a round from
the delivered :class:`PopulationInbox`, never from the graph.

A message in these populations always carries "the value its sender
last announced", so no payload columns ride on the outbox: the
population keeps one ``sent_*`` array per node and delivered rows read
``sent_*[sender]``.  That works because sends of round ``r`` are
delivered in round ``r + 1``, *before* the sender's next announcement
is written.  Luby MIS and matching track per-port state (the reference
``live_ports``/``live`` sets) as one flag per incidence-CSR *slot*;
their outboxes carry the sender's slot as ``data``, and
``_twin[slot]`` is the receiver's slot of the same edge.

:func:`vector_population` is the registry lookup the runner dispatches
through; algorithms without an entry (e.g. Baswana–Sen's clustering
program) fall back to the reference interpreter.
"""

from __future__ import annotations

import random
from typing import Any, Callable

import numpy as np

from repro.algorithms.aggregation import BallCollect, MinIdAggregation
from repro.algorithms.base import LocalAlgorithm
from repro.algorithms.bfs import BfsLayers
from repro.algorithms.coloring import RandomizedColoring
from repro.algorithms.matching import RandomMatching
from repro.algorithms.mis import LubyMis
from repro.algorithms.runner import node_tapes
from repro.engines import Engines
from repro.local.engine import (
    PopulationInbox,
    PopulationOutbox,
    VectorProgram,
    broadcast_outbox,
    gather_segments,
)
from repro.local.network import Network

__all__ = ["inprocess_engine", "vector_population"]


def _tape_draws(
    seed: int,
    n: int,
    width: int,
    draw: Callable[[int, random.Random], list],
    dtype: type,
) -> np.ndarray:
    """``(n, width)`` coins: row ``v`` is ``draw(v, tape_v)`` on node
    ``v``'s tape, i.e. the reference ``init``'s pre-draws in order.

    One ``Random`` is re-seeded per node: the same state as a fresh
    ``node_tapes(seed).stream(v)``, without the per-node allocation.
    """
    child_seed = node_tapes(seed).child_seed
    tape = random.Random()
    rows = []
    for v in range(n):
        tape.seed(child_seed(v))
        rows.append(draw(v, tape))
    return np.array(rows, dtype=dtype).reshape(n, width)


def _with_none(values: list, missing: np.ndarray) -> dict[int, Any]:
    """``{v: values[v]}`` with ``None`` at the ``missing`` nodes."""
    for v in np.flatnonzero(missing).tolist():
        values[v] = None
    return dict(enumerate(values))


class _AlgoPopulation(VectorProgram):
    """Shared scaffolding: incidence CSR, round budget, halting."""

    def __init__(self, algo: LocalAlgorithm, network: Network) -> None:
        self.tag = algo.name
        n = network.n
        self._n = n
        self._t = algo.rounds(n)
        indptr, inc = network.incidence_csr()
        self._indptr = np.frombuffer(indptr, dtype=np.int64)
        self._inc = np.frombuffer(inc, dtype=np.int64)
        self._degs = np.diff(self._indptr)
        # Every node halts after step t (reference `_finish` at r == t,
        # or straight from on_start when t == 0).
        self._live = 0 if self._t == 0 else n

    def _broadcast(self, nodes: np.ndarray) -> PopulationOutbox | None:
        return broadcast_outbox(self._indptr, self._inc, nodes)

    def _receivers(self, inbox: PopulationInbox) -> np.ndarray:
        return np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(inbox.indptr)
        )

    @property
    def live(self) -> int:
        return self._live


class _SlotPopulation(_AlgoPopulation):
    """Per-port state as one flag per incidence-CSR slot.

    Slot ``s`` is ``(owner[s], inc[s])``; a node's slots are its
    incident edges in ascending id, the reference ``sorted(ports)``
    order.  ``_slot_live`` mirrors the reference's per-node set of
    live ports.
    """

    def __init__(self, algo: LocalAlgorithm, network: Network) -> None:
        super().__init__(algo, network)
        slots = self._inc.size
        self._slots = np.arange(slots, dtype=np.int64)
        self._owner = np.repeat(np.arange(self._n, dtype=np.int64), self._degs)
        # Each edge id fills exactly two slots (no self-loops): sorted by
        # (eid, owner) they pair up, and each is the other's twin.
        order = np.lexsort((self._owner, self._inc))
        self._twin = np.empty(slots, dtype=np.int64)
        self._twin[order[0::2]] = order[1::2]
        self._twin[order[1::2]] = order[0::2]
        self._slot_live = np.ones(slots, dtype=bool)

    def _received_slots(self, inbox: PopulationInbox) -> np.ndarray:
        """Receiver-side slot of every delivered row."""
        if inbox.rows.size == 0:  # nothing in flight: no outbox data
            return inbox.rows
        return self._twin[inbox.data[inbox.rows]]

    def _send(self, senders: np.ndarray, slots: np.ndarray) -> PopulationOutbox | None:
        if slots.size == 0:
            return None
        return PopulationOutbox(eids=self._inc[slots], senders=senders, data=slots)

    def _send_all(self, nodes: np.ndarray, live_only: bool) -> PopulationOutbox | None:
        """``nodes`` (ascending) send on every (live) port, eid order."""
        owners, slots = gather_segments(self._indptr, self._slots, nodes)
        if live_only:
            keep = self._slot_live[slots]
            owners, slots = owners[keep], slots[keep]
        return self._send(owners, slots)


class _VectorBfs(_AlgoPopulation):
    """:class:`BfsLayers`: dist = 1 + min over first-round arrivals."""

    def __init__(self, algo: BfsLayers, network: Network) -> None:
        super().__init__(algo, network)
        self._root = algo._root
        self._dist = np.full(self._n, -1, dtype=np.int64)
        self._dist[self._root] = 0

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        return self._broadcast(np.asarray([self._root], dtype=np.int64))

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        newly = np.empty(0, dtype=np.int64)
        if inbox.senders.size:
            receivers = self._receivers(inbox)
            values = self._dist[inbox.senders]
            starts = np.flatnonzero(np.r_[True, receivers[1:] != receivers[:-1]])
            segmin = np.minimum.reduceat(values, starts)
            uniq = receivers[starts]
            unset = self._dist[uniq] < 0
            newly = uniq[unset]
            self._dist[newly] = segmin[unset] + 1
        if round_index >= self._t:
            self._live = 0
            return None
        return self._broadcast(newly) if newly.size else None

    def outputs(self) -> dict[int, int | None]:
        return _with_none(self._dist.tolist(), self._dist < 0)


class _VectorMinId(_AlgoPopulation):
    """:class:`MinIdAggregation`: broadcast the running minimum on change."""

    def __init__(self, algo: MinIdAggregation, network: Network) -> None:
        super().__init__(algo, network)
        self._best = np.arange(self._n, dtype=np.int64)
        self._sent = self._best.copy()  # value carried by in-flight messages

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        # Step 0 emits at every node (`r == 0` forces the send).
        return self._broadcast(np.arange(self._n, dtype=np.int64))

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        if inbox.senders.size:
            receivers = self._receivers(inbox)
            values = self._sent[inbox.senders]
            starts = np.flatnonzero(np.r_[True, receivers[1:] != receivers[:-1]])
            segmin = np.minimum.reduceat(values, starts)
            uniq = receivers[starts]
            np.minimum.at(self._best, uniq, segmin)
        if round_index >= self._t:
            self._live = 0
            return None
        changed = np.flatnonzero(self._best != self._sent)
        if changed.size == 0:
            return None
        self._sent[changed] = self._best[changed]
        return self._broadcast(changed)

    def outputs(self) -> dict[int, int]:
        return dict(enumerate(self._best.tolist()))


class _VectorBallCollect(_AlgoPopulation):
    """:class:`BallCollect`: flood-style bitset accumulation."""

    def __init__(self, algo: BallCollect, network: Network) -> None:
        super().__init__(algo, network)
        n = self._n
        words = (n + 63) // 64
        self._known = np.zeros((n, words), dtype=np.uint64)
        idx = np.arange(n, dtype=np.int64)
        self._known[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
        self._sent = self._known.copy()  # each node's last `new` bundle

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        # Step 0: `new` is the node's own id — everyone with ports emits.
        return self._broadcast(np.arange(self._n, dtype=np.int64))

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        emitters = np.empty(0, dtype=np.int64)
        if inbox.senders.size:
            receivers = self._receivers(inbox)
            starts = np.flatnonzero(np.r_[True, receivers[1:] != receivers[:-1]])
            orred = np.bitwise_or.reduceat(
                self._sent[inbox.senders], starts, axis=0
            )
            uniq = receivers[starts]
            fresh = orred & ~self._known[uniq]
            sel = (fresh != 0).any(axis=1)
            self._known[uniq] |= fresh
            emitters = uniq[sel]
            if round_index < self._t and emitters.size:
                self._sent[emitters] = fresh[sel]
        if round_index >= self._t:
            self._live = 0
            return None
        return self._broadcast(emitters) if emitters.size else None

    def outputs(self) -> dict[int, tuple[int, ...]]:
        width = 64 * self._known.shape[1]
        # One scan over all rows (the padding bits past n are never
        # set); row-major order keeps each node's origins ascending.
        bits = np.unpackbits(self._known.view(np.uint8), bitorder="little")
        origins = np.flatnonzero(bits.view(bool))
        row_ends = width * np.arange(1, self._n + 1, dtype=np.int64)
        ends = np.searchsorted(origins, row_ends).tolist()
        origins %= width
        flat = tuple(origins.tolist())  # tuple slices are the outputs
        starts = [0, *ends[:-1]]
        return {v: flat[a:b] for v, (a, b) in enumerate(zip(starts, ends))}


class _VectorColoring(_AlgoPopulation):
    """:class:`RandomizedColoring`: trial-color with pre-drawn tapes.

    Neighbor-fixed colors live in per-node bitsets over the global
    color range; proposal selection picks the ``draw % |allowed|``-th
    zero bit below the node's own palette size — the same list indexing
    the reference does, without building the list.
    """

    def __init__(
        self, algo: RandomizedColoring, network: Network, seed: int
    ) -> None:
        super().__init__(algo, network)
        n, t = self._n, self._t
        self._palette = self._degs + 1
        max_palette = int(self._palette.max()) if n else 1
        self._words = (max_palette + 63) // 64
        # Identical coin consumption to the reference init: one
        # randrange(palette) per node per round 0..t.
        palette = self._palette.tolist()
        self._draws = _tape_draws(
            seed,
            n,
            t + 1,
            lambda v, tape: [tape.randrange(palette[v]) for _ in range(t + 1)],
            np.int64,
        )
        self._fixed = np.full(n, -1, dtype=np.int64)
        self._proposal = np.full(n, -1, dtype=np.int64)
        self._nfixed = np.zeros((n, self._words), dtype=np.uint64)
        self._sent_color = np.zeros(n, dtype=np.int64)
        self._sent_isfixed = np.zeros(n, dtype=bool)

    def _emit_round(self, r: int) -> PopulationOutbox | None:
        """Steps 3 of the reference: announce-once + proposals."""
        n = self._n
        emit = np.zeros(n, dtype=bool)
        newly = np.flatnonzero(self._fixed >= 0) if r == 0 else self._newly
        if newly.size:
            emit[newly] = True
            self._sent_color[newly] = self._fixed[newly]
            self._sent_isfixed[newly] = True
            self._proposal[newly] = -1
        uncolored = np.flatnonzero(self._fixed < 0)
        if uncolored.size:
            bits = np.unpackbits(
                self._nfixed[uncolored].view(np.uint8),
                axis=1,
                bitorder="little",
            )
            cols = np.arange(bits.shape[1], dtype=np.int64)
            allowed = (bits == 0) & (cols[None, :] < self._palette[uncolored, None])
            counts = allowed.sum(axis=1)
            ok = counts > 0
            if ok.any():
                pick = self._draws[uncolored, r] % np.maximum(counts, 1)
                ranks = np.cumsum(allowed, axis=1)
                chosen = np.argmax(allowed & (ranks == (pick + 1)[:, None]), axis=1)
                proposers = uncolored[ok]
                self._proposal[proposers] = chosen[ok]
                self._sent_color[proposers] = chosen[ok]
                self._sent_isfixed[proposers] = False
                emit[proposers] = True
            self._proposal[uncolored[~ok]] = -1
        emitters = np.flatnonzero(emit)
        return self._broadcast(emitters) if emitters.size else None

    def on_start(self) -> PopulationOutbox | None:
        self._newly = np.empty(0, dtype=np.int64)
        if self._t == 0:
            return None
        return self._emit_round(0)

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        n = self._n
        props = np.zeros((n, self._words), dtype=np.uint64)
        if inbox.senders.size:
            receivers = self._receivers(inbox)
            colors = self._sent_color[inbox.senders]
            flags = self._sent_isfixed[inbox.senders]
            words = colors >> 6
            bit = np.uint64(1) << (colors & 63).astype(np.uint64)
            np.bitwise_or.at(
                self._nfixed, (receivers[flags], words[flags]), bit[flags]
            )
            keep = ~flags
            np.bitwise_or.at(
                props, (receivers[keep], words[keep]), bit[keep]
            )
        # Resolve last round's proposals against proposals + fixed.
        cand = np.flatnonzero((self._fixed < 0) & (self._proposal >= 0))
        if cand.size:
            prop = self._proposal[cand]
            taken = (
                (self._nfixed[cand, prop >> 6] | props[cand, prop >> 6])
                >> (prop & 63).astype(np.uint64)
            ) & np.uint64(1)
            won = cand[taken == 0]
            self._fixed[won] = self._proposal[won]
            self._newly = won
        else:
            self._newly = np.empty(0, dtype=np.int64)
        if round_index >= self._t:
            self._live = 0
            return None
        return self._emit_round(round_index)

    def outputs(self) -> dict[int, int | None]:
        return _with_none(self._fixed.tolist(), self._fixed < 0)


_UNDECIDED, _IN, _OUT = 0, 1, 2


class _VectorLubyMis(_SlotPopulation):
    """:class:`LubyMis`: even rounds absorb winners and announce
    priorities on live ports, odd rounds crown the local maxima.

    A round's inbox holds one message kind (priorities after an even
    round, winner notes after an odd one), so rows need no payload: a
    priority row reads ``_prio[sender, phase]``.
    """

    def __init__(self, algo: LubyMis, network: Network, seed: int) -> None:
        super().__init__(algo, network)
        phases = algo.phases(self._n)
        self._prio = _tape_draws(
            seed,
            self._n,
            phases,
            lambda v, tape: [tape.random() for _ in range(phases)],
            np.float64,
        )
        self._status = np.full(self._n, _UNDECIDED, dtype=np.int8)

    def _announce(self) -> PopulationOutbox | None:
        undecided = np.flatnonzero(self._status == _UNDECIDED)
        return self._send_all(undecided, live_only=True)

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        return self._announce()

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        receivers = self._receivers(inbox)
        slots = self._received_slots(inbox)
        # Only rows on a port the receiver still holds live count.
        on_live = self._slot_live[slots]
        if round_index % 2 == 0:
            lost = slots[on_live]
            losers = receivers[on_live]
            self._status[losers[self._status[losers] == _UNDECIDED]] = _OUT
            self._slot_live[lost] = False
            if round_index >= self._t:
                self._live = 0
                return None
            return self._announce()
        phase = (round_index - 1) // 2
        prio = self._prio[:, phase]
        beaten = on_live & (prio[inbox.senders] >= prio[receivers])
        contenders = self._status == _UNDECIDED
        contenders[receivers[beaten]] = False
        winners = np.flatnonzero(contenders)
        self._status[winners] = _IN
        # t = 2 * phases is even, so an odd round always emits.
        return self._send_all(winners, live_only=True)

    def outputs(self) -> dict[int, bool | None]:
        label = (None, True, False)
        return dict(enumerate(label[s] for s in self._status.tolist()))


class _VectorMatching(_SlotPopulation):
    """:class:`RandomMatching`: propose / accept / announce per phase.

    The proposal of a free proposer is its ``(draw >> 1) % |live|``-th
    live slot — a masked rank over the eid-sorted CSR row, read off one
    cumulative count of live slots.  With ``port_labels`` the matched
    edge is reported as the local port index, as node programs on a
    ``KT0`` network see it, instead of the global edge id.
    """

    def __init__(
        self,
        algo: RandomMatching,
        network: Network,
        seed: int,
        port_labels: bool = False,
    ) -> None:
        super().__init__(algo, network)
        self._port_labels = port_labels
        n = self._n
        phases = algo.phases(n)
        self._draws = _tape_draws(
            seed,
            n,
            phases,
            lambda v, tape: [tape.randrange(2**30) for _ in range(phases)],
            np.int64,
        )
        self._matched = np.full(n, -1, dtype=np.int64)  # matched slot
        self._proposal = np.full(n, -1, dtype=np.int64)  # proposed slot
        self._acceptor = np.zeros(n, dtype=bool)
        self._announced = np.zeros(n, dtype=bool)

    def _take_roles(self, round_index: int) -> PopulationOutbox | None:
        """Stage 0: free nodes flip roles, proposers propose."""
        indptr = self._indptr
        cum = np.zeros(self._slots.size + 1, dtype=np.int64)
        np.cumsum(self._slot_live, out=cum[1:])
        before = cum[indptr[:-1]]
        count = cum[indptr[1:]] - before
        free = np.flatnonzero((self._matched < 0) & (count > 0))
        draw = self._draws[free, round_index // 3]
        odd = (draw & 1).astype(bool)
        self._acceptor[free[odd]] = True
        proposers = free[~odd]
        rank = before[proposers] + (draw[~odd] >> 1) % count[proposers]
        # The first prefix position whose count exceeds the rank is one
        # past the rank-th live slot.
        slots = np.searchsorted(cum, rank + 1) - 1
        self._proposal[proposers] = slots
        return self._send(proposers, slots)

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        return self._take_roles(0)

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        receivers = self._receivers(inbox)
        slots = self._received_slots(inbox)
        stage = round_index % 3
        if stage == 0:
            self._slot_live[slots] = False  # "matched" announcements
            self._proposal[:] = -1
            self._acceptor[:] = False
            if round_index >= self._t:
                self._live = 0
                return None
            return self._take_roles(round_index)
        if stage == 1:
            # Binding accept of the smallest proposing edge.
            if slots.size == 0:
                return None
            starts = np.flatnonzero(np.r_[True, receivers[1:] != receivers[:-1]])
            first = np.minimum.reduceat(slots, starts)
            uniq = receivers[starts]
            accept = self._acceptor[uniq] & (self._matched[uniq] < 0)
            acceptors, chosen = uniq[accept], first[accept]
            self._matched[acceptors] = chosen
            return self._send(acceptors, chosen)
        accepted = (self._matched[receivers] < 0) & (
            self._proposal[receivers] == slots
        )
        self._matched[receivers[accepted]] = slots[accepted]
        newly = np.flatnonzero((self._matched >= 0) & ~self._announced)
        self._announced[newly] = True
        return self._send_all(newly, live_only=False)

    def outputs(self) -> dict[int, int | None]:
        matched = self._matched
        if self._port_labels:  # KT0: a port is the slot's rank in its row
            labels = self._slots - self._indptr[self._owner]
        else:
            labels = self._inc
        return _with_none(labels[matched].tolist(), matched < 0)


# Builders take ``(algo, network, seed, port_labels)``.
_BUILDERS: dict[type, Callable[..., VectorProgram]] = {
    BfsLayers: lambda algo, network, seed, ports: _VectorBfs(algo, network),
    MinIdAggregation: lambda algo, network, seed, ports: _VectorMinId(algo, network),
    BallCollect: lambda algo, network, seed, ports: _VectorBallCollect(algo, network),
    RandomizedColoring: lambda algo, network, seed, ports: _VectorColoring(
        algo, network, seed
    ),
    LubyMis: lambda algo, network, seed, ports: _VectorLubyMis(algo, network, seed),
    RandomMatching: _VectorMatching,
}


def inprocess_engine(algo: LocalAlgorithm, engines: Engines | None = None) -> str:
    """The round engine :func:`~repro.algorithms.runner.run_inprocess`
    executes ``algo`` on: ``"vector"`` when ``engines.rounds`` (default
    :meth:`Engines.from_env`) is vector and ``algo`` has a registered
    twin, else ``"reference"``."""
    if Engines.resolve(engines).rounds == "vector" and type(algo) in _BUILDERS:
        return "vector"
    return "reference"


def vector_population(
    algo: LocalAlgorithm, network: Network, seed: int, *, port_labels: bool = False
) -> VectorProgram | None:
    """The vector twin of ``algo``, or ``None`` when only the reference
    interpreter can execute it (unregistered algorithm class).

    ``port_labels`` makes outputs that name an edge (matching) report
    the node's local port index, as node programs on a ``KT0`` network
    see it, instead of the global edge id.
    """
    builder = _BUILDERS.get(type(algo))
    if builder is None:
        return None
    return builder(algo, network, seed, port_labels)
