"""Execution backends for :class:`~repro.algorithms.base.LocalAlgorithm`.

* :func:`run_direct` — executes the algorithm on the message-passing
  kernel, metering real messages and rounds.  This is the "naive"
  execution whose message complexity the paper's scheme reduces
  (algorithms that talk to all neighbors every round cost
  ``Theta(m)`` messages per round here).
* :func:`run_inprocess` — a fast synchronous evaluation without message
  objects, used where only outputs matter (baseline spanner content,
  large sweeps).  Identical results by construction, which tests check.

Both derive node tapes as ``RngFactory(seed).stream("tape", node)``,
hashed once per run under :func:`node_tapes` — the same derivation the
message-reduction transformer uses, so outputs are comparable bit for
bit across all three execution modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.algorithms.base import LocalAlgorithm, NodeInit
from repro.engines import Engines
from repro.errors import ProtocolError
from repro.local.engine import VectorRuntime
from repro.local.faults import FaultPlan
from repro.local.knowledge import Knowledge
from repro.local.message import Inbound
from repro.local.metrics import MessageStats, RunReport
from repro.local.network import Network
from repro.local.node import Context, NodeProgram
from repro.local.runtime import run_program
from repro.rng import RngFactory, RngPrefix

__all__ = ["run_direct", "run_inprocess", "DirectOutcome", "node_tapes"]


def node_tapes(seed: int) -> RngPrefix:
    """The canonical per-node randomness tapes (shared across backends):
    ``node_tapes(seed).stream(v)`` is ``RngFactory(seed).stream("tape", v)``
    with the ``(seed, "tape")`` prefix hashed once."""
    return RngFactory(seed).prefix("tape")


@dataclass(frozen=True)
class DirectOutcome:
    """Result of a kernel execution of a LOCAL algorithm."""

    outputs: dict[int, Any]
    messages: MessageStats
    rounds: int

    @property
    def total_messages(self) -> int:
        return self.messages.total


class _AlgorithmProgram(NodeProgram):
    """Adapter: pure LocalAlgorithm -> kernel NodeProgram."""

    def __init__(
        self, node: int, algo: LocalAlgorithm, tapes: RngPrefix, t: int
    ) -> None:
        self._node = node
        self._algo = algo
        self._tapes = tapes
        self._t = t
        self._state: Any = None
        self._out: Any = None
        self._round = 0
        self._precomputed = False

    def on_start(self, ctx: Context) -> None:
        info = NodeInit(node=ctx.node, ports=tuple(ctx.ports), n=ctx.n_hint)
        self._state = self._algo.init(info, self._tapes.stream(ctx.node))
        self._state, outbox = self._algo.step(self._state, 0, {})
        if self._t == 0:
            self._finish(ctx)
            return
        self._emit(ctx, outbox)
        if not ctx.ports:
            # An isolated node can never receive, so every remaining
            # step sees an empty inbox and is computable right now; the
            # node then sleeps until its halting round t, keeping the
            # run's round count identical to dense stepping.
            for r in range(1, self._t + 1):
                self._state, outbox = self._algo.step(self._state, r, {})
                if r < self._t:
                    self._emit(ctx, outbox)
            self._out = self._algo.output(self._state)
            self._precomputed = True
            ctx.sleep_until(self._t)

    def on_round(self, ctx: Context, inbox: Sequence[Inbound]) -> None:
        if self._precomputed:
            # Output is ready; halt only at the halting round t so the
            # dense scheduler (which still steps this node every round)
            # reports the same rounds as the active one.
            if ctx.round >= self._t:
                ctx.halt()
            return
        self._round += 1
        r = self._round
        packed: dict[int, Any] = {}
        for msg in inbox:
            if msg.port in packed:
                raise ProtocolError(
                    f"two messages on edge {msg.port} in one round at node {ctx.node}"
                )
            packed[msg.port] = msg.payload
        self._state, outbox = self._algo.step(self._state, r, packed)
        if r < self._t:
            self._emit(ctx, outbox)
        else:
            self._finish(ctx)

    def output(self) -> Any:
        return self._out

    def _emit(self, ctx: Context, outbox: dict[int, Any]) -> None:
        for eid, payload in sorted(outbox.items()):
            ctx.send(eid, payload, tag=self._algo.name)

    def _finish(self, ctx: Context) -> None:
        self._out = self._algo.output(self._state)
        ctx.halt()


def run_direct(
    network: Network,
    algo: LocalAlgorithm,
    seed: int = 0,
    *,
    engines: Engines | None = None,
    faults: FaultPlan | None = None,
) -> DirectOutcome:
    """Execute on the kernel; messages and rounds are metered exactly.

    ``engines.rounds`` (default :meth:`Engines.from_env`) selects the
    round engine.  The vector path runs registered algorithms as array
    populations and silently falls back to the reference interpreter
    for everything else — and for corrupt-capable fault plans, whose
    tampered payloads only the per-node programs' error behaviour
    defines.
    """
    engines = Engines.resolve(engines)
    t = algo.rounds(network.n)
    plan = faults or FaultPlan.none()
    if engines.rounds == "vector" and not plan.can_corrupt:
        from repro.algorithms.vector import vector_population

        population = vector_population(
            algo, network, seed, port_labels=network.knowledge is Knowledge.KT0
        )
        if population is not None:
            report = VectorRuntime(
                network, population, max_rounds=t + 2, faults=faults
            ).run()
            return DirectOutcome(
                outputs=report.outputs,
                messages=report.messages,
                rounds=report.rounds,
            )
    tapes = node_tapes(seed)
    report: RunReport = run_program(
        network,
        lambda node: _AlgorithmProgram(node, algo, tapes, t),
        seed=seed,
        max_rounds=t + 2,
        faults=faults,
        engine=engines.rounds,
    )
    return DirectOutcome(outputs=report.outputs, messages=report.messages, rounds=report.rounds)


def run_inprocess(
    network: Network,
    algo: LocalAlgorithm,
    seed: int = 0,
    *,
    engines: Engines | None = None,
) -> dict[int, Any]:
    """Fast synchronous evaluation (no kernel); outputs only.

    Under the vector round engine (``engines.rounds``, default
    :meth:`Engines.from_env`), registered algorithms execute as array
    populations (same outputs, no per-node Python stepping); everything
    else runs the original message-free loop.
    """
    from repro.algorithms.vector import inprocess_engine, vector_population

    if inprocess_engine(algo, engines) == "vector":
        t = algo.rounds(network.n)
        return VectorRuntime(
            network, vector_population(algo, network, seed), max_rounds=t + 2
        ).run().outputs
    n = network.n
    t = algo.rounds(n)
    tapes = node_tapes(seed)
    states: list[Any] = []
    for node in network.nodes():
        info = NodeInit(node=node, ports=tuple(network.incident(node)), n=n)
        states.append(algo.init(info, tapes.stream(node)))
    inboxes: list[dict[int, Any]] = [{} for _ in range(n)]
    for r in range(t + 1):
        next_inboxes: list[dict[int, Any]] = [{} for _ in range(n)]
        for node in network.nodes():
            states[node], outbox = algo.step(states[node], r, inboxes[node])
            if r == t:
                continue
            for eid, payload in outbox.items():
                next_inboxes[network.other_end(eid, node)][eid] = payload
        inboxes = next_inboxes
    return {node: algo.output(states[node]) for node in network.nodes()}
