"""Spanner repair after churn: a lineage-checked rebuild.

:func:`repair_spanner` takes a cached :class:`SpannerResult` (typically
the distributed construction the artifact store holds), the post-churn
:class:`Network`, and the :class:`~repro.dynamic.churn.MutationLog`
chain connecting the two, checks that the chain really leads from the
parent's graph to the new one, and builds the spanner of the new graph
with the parent's parameters on the columnar level engine.  The result
is **bit-identical** to a fresh centralized ``build_spanner(new_network,
params)`` (and therefore trace-signature-identical to a fresh
distributed rebuild, by the repo's headline equivalence), with the
parent graph's fingerprint appended to its ``provenance``.

Each level's outcome is a pure function of ``(graph, params, level
state)``, so a fresh columnar build is already the cheapest exact
answer: replaying unchanged clusters from the parent trace measured
slower than rebuilding.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.sampler import build_spanner
from repro.core.spanner import SpannerResult
from repro.errors import ConfigurationError
from repro.local.network import Network

from repro.dynamic.churn import MutationLog

__all__ = ["repair_spanner"]


def repair_spanner(
    parent: SpannerResult,
    network: Network,
    logs: MutationLog | Sequence[MutationLog],
) -> SpannerResult:
    """Repair ``parent``'s spanner onto the post-churn ``network``.

    ``logs`` is the mutation chain from the parent's graph to
    ``network`` (a single log or a fingerprint-chained sequence, oldest
    first); a chain that does not connect the two graphs is refused.
    The result is bit-identical to ``build_spanner(network,
    parent.params)`` — same edges, same full trace — with
    ``provenance`` extended by the parent graph's fingerprint, and
    ``messages``/``rounds`` of ``None`` (repair is centralized work; it
    meters no distributed messages).
    """
    chain = (logs,) if isinstance(logs, MutationLog) else tuple(logs)
    if not chain:
        raise ConfigurationError("repair needs at least one mutation log")
    expected = parent.network.fingerprint()
    for log in chain:
        if log.parent_fingerprint != expected:
            raise ConfigurationError(
                f"mutation log for epoch {log.epoch} chains from "
                f"{log.parent_fingerprint[:12]}…, expected {expected[:12]}…"
            )
        expected = log.child_fingerprint
    if expected != network.fingerprint():
        raise ConfigurationError(
            f"mutation chain ends at {expected[:12]}…, but the target "
            f"network is {network.fingerprint()[:12]}…"
        )
    return replace(
        build_spanner(network, parent.params),
        provenance=parent.provenance + (parent.network.fingerprint(),),
    )
