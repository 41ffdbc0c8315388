"""In-memory span tracer wrapped around the public entry points of each layer.

The benchmark installs these wrappers only for its traced run; the
untraced run measures the program as shipped.  Each span records its
name, start, end and parent span in flat arrays, so a traced
run of a few million spans stays in tens of MiB.  Self time is the
span's duration minus the part its child spans cover, accumulated as
spans close; :meth:`Tracer.save` writes the raw spans out when the
benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer", "install"]


class Tracer:
    """Span recorder: one open-span stack, flat per-span arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: List[int] = []
        self._covered: List[float] = []
        self._self: List[float] = []
        self._calls: List[int] = []

    def name_id_for(self, name: str) -> int:
        """Small integer id of span name ``name`` (registered on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._self.append(0.0)
            self._calls.append(0)
        return nid

    def open(self, nid: int) -> None:
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(len(self.start))
        self._covered.append(0.0)
        self.start.append(perf_counter())

    def close(self) -> None:
        t = perf_counter()
        idx = self._stack.pop()
        covered = self._covered.pop()
        self.end[idx] = t
        duration = t - self.start[idx]
        nid = self.name_id[idx]
        self._self[nid] += duration - covered
        self._calls[nid] += 1
        if self._covered:
            self._covered[-1] += duration

    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Span name -> summed self time (seconds)."""
        return dict(zip(self.names, self._self))

    def calls(self) -> Dict[str, int]:
        """Span name -> number of closed spans."""
        return dict(zip(self.names, self._calls))

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path: str) -> None:
        """Write every span (name table plus per-span arrays) as ``.npz``."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.name_id_for(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        open_(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close()

    return traced


def _frame_span(tracer: Tracer, fn: Callable) -> Callable:
    """``NetNode.on_frame`` wrapper: one span name per frame kind.

    AODV control frames are split by message type (``Rreq``, ``Rrep``,
    ``Rerr``) so the RREQ share of delivered copies is measured here.
    """
    ids: Dict[str, int] = {}
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(self, frame):
        kind = frame.kind
        if kind == "aodv.ctrl":
            kind = f"aodv.ctrl.{type(frame.payload).__name__}"
        nid = ids.get(kind)
        if nid is None:
            nid = ids[kind] = tracer.name_id_for(f"frame:{kind}")
        open_(nid)
        try:
            return fn(self, frame)
        finally:
            close()

    return traced


def _owners(cls: type, attr: str) -> List[type]:
    """``cls`` plus every loaded subclass that overrides ``attr``."""
    out = [cls]
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        todo.extend(sub.__subclasses__())
        if attr in sub.__dict__:
            out.append(sub)
    return out


def install(
    tracer: Tracer, on_harvest: Optional[Callable[[object], None]] = None
) -> Callable[[], None]:
    """Wrap each layer's public entry points; returns the undo callable.

    Must run before the traced simulations are built, so bound methods
    the program caches at construction time are the wrappers.
    ``on_harvest`` is called with each harvested simulation after its
    harvest span closes.
    """
    from repro.core.servent import Servent
    from repro.experiments.cache import RunCache
    from repro.experiments.executor import ExperimentExecutor
    from repro.metrics.analytics import AnalyticsEngine
    from repro.mobility.base import MobilityModel
    from repro.net.energy import EnergyModel
    from repro.net.radio import Channel, NetNode
    from repro.net.topology import TopologyBackend
    from repro.obs.registry import Registry
    from repro.scenarios import runner
    from repro.sim.kernel import Simulator

    targets: List[Tuple[type, str, str]] = [
        (Simulator, "run", "sim.run"),
        (Channel, "broadcast", "radio.broadcast"),
        (Channel, "unicast", "radio.unicast"),
        (EnergyModel, "charge_rx", "energy.charge_rx"),
        (EnergyModel, "charge_tx", "energy.charge_tx"),
        (TopologyBackend, "refresh", "topology.refresh"),
        (Servent, "on_p2p", "core.on_p2p"),
        (Registry, "aggregated", "obs.aggregated"),
        (Registry, "wall_times", "obs.wall_times"),
        (ExperimentExecutor, "run_configs", "experiments.run_configs"),
        (RunCache, "get", "experiments.cache_get"),
        (RunCache, "put", "experiments.cache_put"),
    ]
    for attr in ("positions", "positions_of", "current_segments", "next_change_horizon"):
        targets.append((MobilityModel, attr, f"mobility.{attr}"))
    for attr, value in vars(AnalyticsEngine).items():
        if not attr.startswith("_") and inspect.isfunction(value):
            targets.append((AnalyticsEngine, attr, f"analytics.{attr}"))

    undo: List[Tuple[object, str, object]] = []
    for owner, attr, name in targets:
        for cls in _owners(owner, attr):
            original = vars(cls)[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, _span(tracer, name, original))
    original = vars(NetNode)["on_frame"]
    undo.append((NetNode, "on_frame", original))
    NetNode.on_frame = _frame_span(tracer, original)

    harvest = _span(tracer, "scenarios.harvest", runner.harvest)

    def traced_harvest(simulation):
        result = harvest(simulation)
        if on_harvest is not None:
            on_harvest(simulation)
        return result

    undo += [(runner, "build_scenario", runner.build_scenario), (runner, "harvest", runner.harvest)]
    runner.build_scenario = _span(tracer, "scenarios.build", runner.build_scenario)
    runner.harvest = traced_harvest

    def restore() -> None:
        for cls, attr, original in reversed(undo):
            setattr(cls, attr, original)

    return restore
