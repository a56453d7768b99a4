"""Per-layer host-time tracing, applied from outside the simulator.

The tracer wraps the public methods of each layer's classes (and the
arrival sampler the service workload calls while it builds) with a
timing shim, *before* any simulator object is constructed, so bound
methods cached at construction time are wrapped too.  Each shim records
one call and the layer's self time: the span of the call minus the spans
of the wrapped calls it made.  Self times therefore add up to the span of
the outermost wrapped call, ``ClusterSimulator.run``; whatever runs in an
unwrapped helper is charged to the nearest wrapped caller.

Known blind spot: node handlers that ``EventQueue.drain`` invokes
directly (the ground-truth drain stepper) are charged to ``engine.events``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections.abc import Callable
from types import FunctionType
from typing import Any

#: Layer name -> (module, owner attribute, method names).  An owner is a
#: class (its own methods only, never inherited ones) or the module itself
#: (``None``) for a plain function.
LAYERS: dict[str, tuple[tuple[str, str | None, tuple[str, ...]], ...]] = {
    "core.cluster": (("repro.core.cluster", "ClusterSimulator", ("run",)),),
    "engine.events": (
        (
            "repro.engine.events",
            "EventQueue",
            (
                "push", "push_many", "schedule", "schedule_many",
                "pop", "drain", "peek_time", "cancel",
            ),
        ),
    ),
    "node": (
        (
            "repro.node.node",
            "SimulatedNode",
            ("deliver", "drain_window", "pop_and_handle", "peek_time"),
        ),
    ),
    "node.nic": (
        (
            "repro.node.nic",
            "NicModel",
            ("build_frames", "receive_fragment", "match", "pace"),
        ),
    ),
    "node.hostmodel": (
        (
            "repro.node.hostmodel",
            "HostExecutionModel",
            ("slowdown_pair", "take_jitter", "slowdowns", "slowdowns_from"),
        ),
    ),
    "core.quantum": tuple(
        ("repro.core.quantum", owner, ("next", "window", "idle_chunk"))
        for owner in ("QuantumPolicy", "FixedQuantumPolicy", "AdaptiveQuantumPolicy")
    ),
    "network.controller": (
        (
            "repro.network.controller",
            "NetworkController",
            (
                "submit", "submit_held_batch", "release_due",
                "end_quantum", "next_held_time",
            ),
        ),
    ),
    # Input generation inside ``ServiceWorkload.build_apps`` (looked up
    # as a module global at call time, so patching the module suffices).
    "setup.inputs": (("repro.service.workload", None, ("draw_arrivals",)),),
}

#: The layers whose self time makes up a traced ``run()``.
RUN_LAYERS = tuple(name for name in LAYERS if not name.startswith("setup."))


class LayerTracer:
    """Installs the timing shims; a context manager that removes them.

    ``self_s[layer]`` and ``calls[layer]`` accumulate until :meth:`reset`.
    ``releases`` counts ``NetworkController.release_due`` calls as
    ``(calls that released nothing, all calls)``.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []
        self._stack: list[float] = [0.0]
        self._acc: dict[str, list[float]] = {name: [0.0, 0] for name in LAYERS}
        self._releases = [0, 0]

    @property
    def self_s(self) -> dict[str, float]:
        return {name: acc[0] for name, acc in self._acc.items()}

    @property
    def calls(self) -> dict[str, int]:
        return {name: int(acc[1]) for name, acc in self._acc.items()}

    @property
    def releases(self) -> tuple[int, int]:
        return self._releases[0], self._releases[1]

    def reset(self) -> None:
        self._stack[:] = [0.0]
        for acc in self._acc.values():
            acc[0] = 0.0
            acc[1] = 0
        self._releases[:] = [0, 0]

    def __enter__(self) -> LayerTracer:
        try:
            for layer, targets in LAYERS.items():
                for module_name, owner_name, methods in targets:
                    module = importlib.import_module(module_name)
                    owner = module if owner_name is None else getattr(module, owner_name)
                    for method in methods:
                        self._install(layer, owner, method)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original attribute back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _install(self, layer: str, owner: Any, name: str) -> None:
        original = vars(owner).get(name)
        if not isinstance(original, FunctionType):
            # Inherited, absent (an older or newer tree), or not a plain
            # function: nothing of this owner's own to time.
            return
        func: Callable[..., Any] = original
        if (layer, name) == ("network.controller", "release_due"):
            func = _count_releases(func, self._releases)
        setattr(owner, name, _timed(func, self._acc[layer], self._stack))
        self._saved.append((owner, name, original))


def _timed(
    func: Callable[..., Any], acc: list[float], stack: list[float]
) -> Callable[..., Any]:
    clock = time.perf_counter

    @functools.wraps(func)
    def shim(*args: Any, **kwargs: Any) -> Any:
        stack.append(0.0)
        start = clock()
        try:
            return func(*args, **kwargs)
        finally:
            span = clock() - start
            children = stack.pop()
            stack[-1] += span
            acc[0] += span - children
            acc[1] += 1

    return shim


def _count_releases(func: Callable[..., Any], counts: list[int]) -> Callable[..., Any]:
    @functools.wraps(func)
    def counting(*args: Any, **kwargs: Any) -> Any:
        released = func(*args, **kwargs)
        counts[1] += 1
        if not released:
            counts[0] += 1
        return released

    return counting
