"""The distributed ``Sampler``'s result: derived by default, simulated as oracle.

:func:`build_spanner_distributed` returns what the message-passing run
returns without running it (DESIGN.md §3.14).  The spanner and the
hierarchy come from the centralized driver, whose trace the distributed
run reproduces level for level; the messages and rounds are derived
from that trace and the global :class:`Schedule`
(:func:`repro.core.accounting.derived_message_stats`).

:func:`simulate_sampler` is the oracle: it wires
:class:`~repro.core.distributed.program.SamplerProgram` into the
:mod:`repro.local` runtime, meters every message, and reconstructs the
trace from the leaders' archived records.  The test suite asserts the
two results are equal in full — edges, trace, rounds, and ``total``,
``by_tag`` and ``per_round`` of the messages.

Fields the distributed view cannot observe locally (per-node degrees in
``G_j``, active/stale edge splits, tree heights, finished clusters) are
filled with ``-1`` / empty markers on both paths; analyses needing them
use the centralized trace.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

from repro import obs
from repro.core.distributed.program import SamplerProgram
from repro.core.distributed.schedule import Schedule
from repro.core.params import SamplerParams
from repro.core.sampler import build_spanner
from repro.core.spanner import SpannerResult
from repro.core.trace import LevelTrace, NodeLevelTrace, SamplerTrace
from repro.errors import ProtocolError, SimulationError
from repro.local.knowledge import Knowledge
from repro.local.network import Network
from repro.local.runtime import run_program

__all__ = ["build_spanner_distributed", "simulate_sampler"]


def build_spanner_distributed(
    network: Network, params: SamplerParams
) -> SpannerResult:
    """The distributed ``Sampler``'s exact result, derived from the
    centralized trace instead of simulated message by message.

    Equal in full to :func:`simulate_sampler` for every input it
    accepts, and like it refuses ``KT0`` networks: the protocol needs
    unique edge ids.
    """
    # Lazy: accounting imports the schedule from this package.
    from repro.core.accounting import derived_message_stats

    if network.knowledge is Knowledge.KT0:
        raise ProtocolError("Sampler requires unique edge IDs (not KT0)")
    rounds = Schedule.build(params).total_rounds
    with obs.span(
        "build/distributed", n=network.n, m=network.m, engine="derived"
    ) as build_span:
        central = build_spanner(network, params)
        trace = SamplerTrace(
            n=network.n,
            m=network.m,
            params=params,
            levels=[_project(level) for level in central.trace.levels],
        )
        messages = derived_message_stats(network, trace)
        build_span.set(rounds=rounds, messages=messages.total)
    return SpannerResult(
        network=network,
        params=params,
        edges=central.edges,
        trace=trace,
        messages=messages,
        rounds=rounds,
    )


def _project(level: LevelTrace) -> LevelTrace:
    """A centralized level as the distributed run records it."""
    return replace(
        level,
        active_edges=-1,
        stale_edges=-1,
        cluster_heights={},
        nodes={vid: node._replace(degree=-1) for vid, node in level.nodes.items()},
    )


def simulate_sampler(
    network: Network,
    params: SamplerParams,
    *,
    scheduler: str = "active",
    engine: str | None = None,
) -> SpannerResult:
    """Execute ``Sampler`` as a real message-passing LOCAL algorithm.

    The oracle of :func:`build_spanner_distributed`, with metered
    messages.  Raises :class:`SimulationError` if the run overruns the
    :class:`Schedule`; a run whose clusters all finish before the last
    level ends early and is reported over the whole schedule, its
    remaining rounds silent and its remaining levels empty.

    ``scheduler`` selects the stepping discipline: ``"active"``
    (default) steps only nodes with pending messages or due wake rounds
    — the ``SamplerProgram`` derives its wake set from the global
    :class:`Schedule` — while ``"dense"`` is the step-everyone seed
    baseline; both produce identical reports (DESIGN.md §3.6).
    ``engine`` selects the round engine (DESIGN.md §3.10): under
    ``"vector"`` the active scheduler services the program's declared
    hybrid planes (query/response and the status handshake) during
    delivery; ``"reference"`` keeps every message on the per-node
    dispatch path.  Reports are identical either way.
    """
    schedule = Schedule.build(params)
    with obs.span(
        "build/distributed", n=network.n, m=network.m, engine="simulate"
    ) as build_span:
        report = run_program(
            network,
            lambda node: SamplerProgram(node, params, schedule),
            seed=params.seed,
            max_rounds=schedule.total_rounds + 2,
            n_hint=network.n,
            scheduler=scheduler,
            engine=engine,
        )
        build_span.set(
            rounds=report.rounds, messages=report.messages.total
        )
    if not report.halted:
        raise SimulationError("distributed Sampler did not halt")
    if report.rounds > schedule.total_rounds:
        raise SimulationError(
            f"round overrun: ran {report.rounds}, schedule says "
            f"{schedule.total_rounds}"
        )

    records_by_level: dict[int, dict[int, dict]] = defaultdict(dict)
    for out in report.outputs.values():
        for record in out["records"]:
            level = record["level"]
            cid = record["cid"]
            if level >= params.levels:
                raise SimulationError(f"cluster {cid} archived at level {level}")
            if cid in records_by_level[level]:
                raise SimulationError(
                    f"two leaders archived cluster {cid} at level {level}"
                )
            records_by_level[level][cid] = record

    trace = SamplerTrace(n=network.n, m=network.m, params=params)
    spanner: set[int] = set()
    sizes: dict[int, int] = {v: 1 for v in network.nodes()}
    for level in range(params.levels):
        records = records_by_level.get(level, {})
        f_edges: set[int] = set()
        nodes: dict[int, NodeLevelTrace] = {}
        joins: list[tuple[int, int, int]] = []
        centers: list[int] = []
        unclustered: list[int] = []
        for cid in sorted(records):
            record = records[cid]
            f_edges |= set(record["f_active"].values())
            nodes[cid] = _node_trace(record)
            if record["center"]:
                centers.append(cid)
            if record["decision"] == "join":
                joins.append((cid, record["join_to"], record["join_eid"]))
            elif record["decision"] in ("finish", "final"):
                unclustered.append(cid)
        spanner |= f_edges
        trace.levels.append(
            LevelTrace(
                level=level,
                population=len(records),
                active_edges=-1,
                stale_edges=-1,
                cluster_sizes={cid: sizes[cid] for cid in records},
                cluster_heights={},
                nodes=nodes,
                centers=tuple(centers),
                joins=tuple(joins),
                unclustered=tuple(unclustered),
                f_edges=frozenset(f_edges),
            )
        )
        for joiner, center, _eid in joins:
            sizes[center] += sizes.pop(joiner)

    silent = schedule.total_rounds - report.rounds
    if silent and trace.levels[-1].population:
        raise SimulationError(f"halted {silent} rounds early with clusters left")
    per_round = report.messages.per_round + [0] * silent
    return SpannerResult(
        network=network,
        params=params,
        edges=frozenset(spanner),
        trace=trace,
        messages=replace(report.messages, per_round=per_round),
        rounds=schedule.total_rounds,
    )


def _node_trace(record: dict) -> NodeLevelTrace:
    stats = record["stats"]
    return NodeLevelTrace(
        vid=record["cid"],
        label=record["label"],
        trials=record["trials"],
        draws=sum(s.draws for s in stats),
        queries_sent=sum(len(s.queried_eids) for s in stats),
        neighbors_found=len(record["f_active"]),
        inactive_found=len(record["f_inactive"]),
        pool_initial=record["pool_initial"],
        pool_final=record["pool_final"],
        degree=-1,
        target=record["target"],
        query_budget=record["budget"],
        f_active=tuple(sorted(record["f_active"].items())),
        f_inactive=tuple(sorted(record["f_inactive"].items())),
        trial_stats=tuple(stats),
    )
