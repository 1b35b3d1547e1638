"""Outside-in layer timing for the traced benchmark run.

The tracer replaces chosen functions *at their call sites* (the name a
caller module looks up at call time) with timing wrappers, so no file of
the program is edited and ``REPRO_OBS`` stays off.  It is installed only
for the traced pass of a ``--trace 1`` run and removed afterwards; the
timed end-to-end runs never see it.

A layer's ``busy`` time sums its calls' wall time; its ``self`` time is
``busy`` minus the wall time of timed calls nested directly inside it.
A call into a layer that is already open on the same thread is not
counted again (``fetch_spanner`` peeks through ``peek_spanner``, both in
``store.fetch_spanner``).  Generator functions (the distance plane's
block iterators) are timed over the time spent producing their items,
not the caller's loop body between them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer -> call sites, each ``(module, attribute path)``.  An attribute
# path with a dot names a method or classmethod of a class in the module.
LAYER_SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "core.distributed": (
        ("repro.simulate.scheme", "build_spanner_distributed"),
        # ArtifactStore imports it lazily from the package on a miss.
        ("repro.core.distributed", "build_spanner_distributed"),
    ),
    "local.run_program": (
        ("repro.core.distributed.driver", "run_program"),
        ("repro.simulate.tlocal", "run_program"),
    ),
    "core.build": (("repro.core", "build_spanner"),),
    "dynamic.apply_churn": (("repro.service.service", "_apply_churn"),),
    "dynamic.repair": (("repro.service.service", "repair_spanner"),),
    "simulate.over_spanner": (
        ("repro.simulate.scheme", "simulate_over_spanner"),
        ("repro.service.service", "simulate_over_spanner"),
    ),
    "simulate.flood_schedule": (
        ("repro.simulate.transformer", "flood_schedule"),
        # ArtifactStore derives bypassed schedules through the tlocal
        # name and builds cached profiles through FloodProfile.build.
        ("repro.simulate.tlocal", "flood_schedule"),
        ("repro.store.serialize", "FloodProfile.build"),
    ),
    "simulate.replay_ball": (("repro.simulate.transformer", "replay_ball"),),
    "algorithms.run_inprocess": (("repro.simulate.transformer", "run_inprocess"),),
    "graphs.balls": (
        ("repro.simulate.tlocal", "balls_and_eccentricities"),
        ("repro.store.serialize", "distance_blocks"),
    ),
    "graphs.ball_blocks": (("repro.simulate.transformer", "ball_matrix_blocks"),),
    "store.fetch_spanner": (
        ("repro.store.store", "ArtifactStore.fetch_spanner"),
        ("repro.store.store", "ArtifactStore.peek_spanner"),
    ),
    "store.put_spanner": (("repro.store.store", "ArtifactStore.put_spanner"),),
    "store.fetch_flood_schedule": (
        ("repro.store.store", "ArtifactStore.fetch_flood_schedule"),
    ),
    "store.write": (
        ("repro.store.serialize", "save_spanner"),
        ("repro.store.serialize", "FloodProfile.to_npz"),
    ),
    "service.serve": (("repro.service.service", "SimulationService.submit"),),
}

LAYERS = tuple(LAYER_SITES)


class LayerTracer:
    """Per-layer busy/self/calls accounting over wrapped call sites.

    Thread-safe: every thread keeps its own stack of open calls, and the
    totals are updated under one lock.  Totals accumulate only while
    :attr:`recording` is true, so checker work done with the wrappers
    installed is never counted.
    """

    def __init__(self) -> None:
        self.recording = False
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.covered = 0.0  # op wall time inside outermost timed calls
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, sites in LAYER_SITES.items():
            for module_name, path in sites:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                else:
                    wrapped = self._wrap(layer, raw)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def op(self):
        """Mark the calling thread as inside an op, for ``covered``."""
        self._local.in_op = True
        try:
            yield
        finally:
            self._local.in_op = False

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> list | None:
        stack = self._stack()
        if any(frame[0] == layer for frame in stack):
            return None
        frame = [layer, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list | None, count: bool) -> None:
        if frame is None:
            return
        duration = perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += duration
        if not self.recording:
            return
        layer = frame[0]
        with self._lock:
            self.busy[layer] += duration
            self.self_time[layer] += duration - frame[2]
            self.calls[layer] += int(count)
            if not stack and getattr(self._local, "in_op", False):
                self.covered += duration

    def _wrap(self, layer: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    frame = self._enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame, first)
                        first = False
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, True)

        return wrapper
