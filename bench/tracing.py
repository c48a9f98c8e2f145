"""In-memory spans around the benchmark's calls into the package's layers.

A span records its name, start, end, parent span and the id of the op it
belongs to.  Spans are opened only by wrappers that the benchmark builds
around public functions of ``musselbed``; nothing inside ``src/`` is
edited.  A layer is the module a function lives in (``model``,
``linear``, ``delay``, ``normal_form``, ``sim``, ``verify``, ``cli``).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

from musselbed import cli, delay, linear, model, normal_form, sim, verify

LAYER_MODULES = {"model": model, "linear": linear, "delay": delay,
                 "normal_form": normal_form, "sim": sim, "verify": verify}

# Public functions the workloads call, by layer.
WORKLOAD_CALLS = {
    "model": ["check_hypotheses"],
    "linear": ["turing_analysis", "hopf_points_in_r", "turing_curve"],
    "delay": ["tau_star"],
    "normal_form": ["hopf_coefficients", "eigenpair"],
    "sim": ["simulate_pde", "detect_orbit", "lyapunov_value",
            "amplitude_sweep"],
    "verify": ["newton_track_root", "bilinear_pairing_quadrature",
               "discrete_spectrum", "grid_classify"],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str


class Tracer:
    """Collects spans in memory; `dump` writes them out once at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""
        # op id -> factor that scales its spans to the reference speed
        self.scale: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path: str) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "scale": self.scale}, fh)


def layer_api(tracer: Optional[Tracer] = None) -> types.SimpleNamespace:
    """The functions the workloads call, wrapped in spans when tracing."""
    calls: dict[str, Any] = {}
    for layer, names in WORKLOAD_CALLS.items():
        for name in names:
            fn = getattr(LAYER_MODULES[layer], name)
            calls[name] = (fn if tracer is None
                           else tracer.wrap(f"{layer}.{name}", fn))
    return types.SimpleNamespace(**calls)


class _TracedModule:
    """Stand-in for a module alias inside `cli`: functions come back wrapped."""

    def __init__(self, tracer: Tracer, layer: str, module) -> None:
        self._tracer, self._layer, self._module = tracer, layer, module

    def __getattr__(self, name: str):
        value = getattr(self._module, name)
        if inspect.isfunction(value):
            return self._tracer.wrap(f"{self._layer}.{name}", value)
        return value


@contextmanager
def traced_cli(tracer: Tracer):
    """Wrap every layer function `cli` imports in a span, then restore.

    Direct imports (``from .delay import tau_star``) are replaced in the
    `cli` module namespace; module aliases (``verify_mod``) are replaced
    by proxies whose functions are wrapped on access.
    """
    modules = {m.__name__: layer for layer, m in LAYER_MODULES.items()}
    saved: dict[str, Any] = {}
    for name, value in vars(cli).items():
        if inspect.ismodule(value) and value.__name__ in modules:
            saved[name] = value
        elif (inspect.isfunction(value)
              and value.__module__ in modules):
            saved[name] = value
    try:
        for name, value in saved.items():
            if inspect.ismodule(value):
                layer = modules[value.__name__]
                setattr(cli, name, _TracedModule(tracer, layer, value))
            else:
                layer = modules[value.__module__]
                setattr(cli, name, tracer.wrap(f"{layer}.{name}", value))
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)
