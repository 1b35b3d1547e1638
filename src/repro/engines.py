"""One execution config for every simulation entry point (DESIGN.md §3.15).

A ``t``-round LOCAL algorithm's output at a node is a function of its
``t``-hop ball, so every engine computes the same object.  Per layer
there is one oracle (the seed semantics) and one fast path:
``simulation`` runtime / fast, ``distance`` reference / vector,
``rounds`` reference / vector.  Entry points take ``engines: Engines |
None`` and resolve ``None`` once through :meth:`Engines.from_env`, the
only reader of ``REPRO_DISTANCE_ENGINE`` and ``REPRO_ROUND_ENGINE``.
All eight combinations produce identical reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "DISTANCE_ENGINES",
    "Engines",
    "ORACLE",
    "ROUND_ENGINES",
    "SIMULATION_ENGINES",
    "check_engine",
]

SIMULATION_ENGINES = ("fast", "runtime")
DISTANCE_ENGINES = ("vector", "reference")
ROUND_ENGINES = ("vector", "reference")
_ENV_VARS = {"distance": "REPRO_DISTANCE_ENGINE", "rounds": "REPRO_ROUND_ENGINE"}


def check_engine(kind: str, name: str, choices: tuple[str, ...]) -> str:
    """Return ``name`` if it is one of ``choices``, else raise ``ValueError``."""
    if name not in choices:
        raise ValueError(f"unknown {kind} {name!r}; expected one of {choices}")
    return name


@dataclass(frozen=True)
class Engines:
    """The engine of each layer; the defaults are the fast paths."""

    simulation: str = "fast"
    distance: str = "vector"
    rounds: str = "vector"

    def __post_init__(self) -> None:
        check_engine("simulation engine", self.simulation, SIMULATION_ENGINES)
        check_engine("distance engine", self.distance, DISTANCE_ENGINES)
        check_engine("round engine", self.rounds, ROUND_ENGINES)

    @classmethod
    def from_env(cls, *layers: str) -> Engines:
        """The process default: fast paths unless the env vars say not.

        Naming ``layers`` (``"distance"``, ``"rounds"``) reads and
        validates only their variables, so a bad value for one layer
        cannot break a caller that needs only another.
        """
        names = layers or _ENV_VARS
        return cls(**{k: os.environ.get(_ENV_VARS[k], "vector") for k in names})

    @classmethod
    def resolve(cls, engines: Engines | None) -> Engines:
        """``engines`` itself, or the process default for ``None``."""
        return cls.from_env() if engines is None else engines


ORACLE = Engines("runtime", "reference", "reference")
