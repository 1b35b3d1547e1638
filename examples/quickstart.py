#!/usr/bin/env python3
"""Quickstart: build a spanner with ``Sampler`` and check its guarantees.

Run:  python examples/quickstart.py
"""

from repro.analysis import adjacent_pair_stretch, validate_spanner
from repro.core import SamplerParams, build_spanner
from repro.core.distributed import build_spanner_distributed
from repro.graphs import dense_gnm


def main() -> None:
    # A dense communication graph: 400 nodes, 24k edges (avg degree 120).
    net = dense_gnm(400, 24_000, seed=1)
    print(f"graph: n={net.n}, m={net.m}")

    # Theorem 2 knobs: k controls stretch (2*3^k - 1), h the trial count.
    params = SamplerParams(k=2, h=3, seed=7, c_query=0.7, c_target=1.0)
    print(
        f"params: k={params.k} h={params.h} -> delta={params.delta:.4f}, "
        f"eps={params.eps:.4f}, stretch bound {params.stretch_bound}"
    )

    # Centralized reference run (fast; exact same output as distributed).
    result = build_spanner(net, params)
    print(result.summary())
    validate_spanner(result)  # raises unless H is a valid spanner
    stretch = adjacent_pair_stretch(net, result.edges)
    print(
        f"spanner: |S|={result.size} ({result.density_ratio():.1%} of E), "
        f"measured stretch max={stretch.max_stretch:.0f} "
        f"mean={stretch.mean_stretch:.2f} (bound {result.stretch_bound})"
    )

    # The distributed construction — same seed, bit-identical spanner,
    # with the exact messages and rounds of the message-passing run
    # (derived from the trace; simulate_sampler executes the program).
    dist = build_spanner_distributed(net, params)
    assert dist.edges == result.edges, "drivers must agree"
    assert dist.messages is not None
    print(
        f"distributed run: {dist.messages.total:,} messages over {dist.rounds} "
        f"rounds (graph has 2m = {2 * net.m:,} message slots per round)"
    )
    print("top message tags:", dist.messages.by_tag.most_common(4))


if __name__ == "__main__":
    main()
