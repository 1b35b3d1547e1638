"""Distributed implementation of ``Sampler`` (Section 5 of the paper).

The algorithm runs on the :mod:`repro.local` kernel as a real
message-passing program:

* each *physical* node runs :class:`~repro.core.distributed.program.SamplerProgram`;
* virtual nodes (clusters) are simulated by broadcast/convergecast
  sessions over their spanning trees ``T_j(v)`` (Lemma 8), which are
  themselves built from spanner edges as the levels progress;
* query edges are realized as genuine messages over the physical graph.

All nodes follow one global :class:`~repro.core.distributed.schedule.Schedule`
computed from ``(k, h)`` alone — this is the standard synchronous-model
trick the paper uses (every node can compute the same phase windows, so
no coordination messages are needed for control flow).

The module guarantees and the test suite asserts: for a given seed the
distributed run produces **the same spanner, labels, centers, joins, and
finishes** as the centralized driver, and its exact message counts match
the closed-form model of :mod:`repro.core.accounting`.  That is why
:func:`build_spanner_distributed` derives the run's result instead of
executing it, and :func:`simulate_sampler` executes it as the oracle
(DESIGN.md §3.14).
"""

from repro.core.distributed.driver import build_spanner_distributed, simulate_sampler
from repro.core.distributed.schedule import PhaseKind, Schedule

__all__ = ["PhaseKind", "Schedule", "build_spanner_distributed", "simulate_sampler"]
