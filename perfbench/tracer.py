"""Outside-in tracer: spans recorded by wrapping public layer boundaries.

The program's own ``repro.telemetry`` spans cover only part of the
stack, so the traced run patches the boundaries listed in
:data:`BOUNDARIES` from here, records one span per call (name, start,
end, parent span, round id) and restores the originals afterwards.
A layer's self time is the duration of its spans minus the part their
child spans cover; the benchmark's per-round root span keeps what no
boundary covers (the benchmark's own loop) as ``untraced``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: (module, class or None for a module function, attribute, layer)
_RUNTIME_VERBS = (
    "pim_malloc",
    "pim_free",
    "pim_op",
    "pim_op_many",
    "pim_op_to_host",
    "pim_popcount",
    "pim_write",
    "pim_read",
)
_ARITH_KERNELS = (
    "compare_const",
    "combine_masks",
    "copy_plane",
    "mask_bits",
    "masked_sum",
    "masked_histogram",
)
_CLIENT_VERBS = ("query", "update", "analyze", "subscribe", "run")
BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    # the public facade the benchmark drives is part of the service layer
    *(("repro.service.api", "ServiceClient", v, "service") for v in _CLIENT_VERBS),
    ("repro.cluster.router", "ClusterRouter", "submit_request", "cluster"),
    ("repro.cluster.router", "ClusterRouter", "run", "cluster"),
    ("repro.service.service", "BitmapQueryService", "submit_request", "service"),
    ("repro.service.clock", "EventLoop", "run", "service.clock"),
    ("repro.service.scheduler", "CoalescingScheduler", "dispatch", "service"),
    ("repro.service.scheduler", "CoalescingScheduler", "execute_calls", "service"),
    ("repro.service.engine", "ResidentPimEngine", "execute", "service"),
    ("repro.service.engine", "ResidentPimEngine", "update_vector", "service"),
    ("repro.arith.compile", "AnalyticsCompiler", "replay", "arith"),
    ("repro.arith.compile", "AnalyticsCompiler", "observe", "arith"),
    # the engine calls the arith kernels through its own module globals
    *(("repro.service.engine", None, k, "arith") for k in _ARITH_KERNELS),
    ("repro.plan.planner", "QueryPlanner", "execute_many", "plan"),
    ("repro.plan.planner", "QueryPlanner", "execute_popcount", "plan"),
    ("repro.plan.planner", "QueryPlanner", "execute_to_host", "plan"),
    ("repro.plan.planner", "QueryPlanner", "on_write", "plan"),
    ("repro.plan.repair", "RepairEngine", "on_delta", "plan.repair"),
    *(("repro.runtime.api", "PimRuntime", v, "runtime") for v in _RUNTIME_VERBS),
    ("repro.runtime.driver", "PimDriver", "flush", "runtime"),
    ("repro.core.executor", "PinatuboExecutor", "bitwise_many", "core"),
    ("repro.core.executor", "PinatuboExecutor", "bitwise_to_host", "core"),
    ("repro.core.executor", "PinatuboExecutor", "write_vector", "core"),
    ("repro.core.executor", "PinatuboExecutor", "read_vector", "core"),
    ("repro.memsim.controller", "MemoryController", "execute_batch", "memsim"),
    ("repro.memsim.controller", "MemoryController", "execute", "memsim"),
    ("repro.memsim.mainmem", "MainMemory", "write_frames", "memsim"),
)

#: the per-round root span; its self time is what no boundary covers
ROUND = "round"
UNTRACED = "untraced"
LAYERS = (
    "cluster",
    "service",
    "service.clock",
    "arith",
    "plan",
    "plan.repair",
    "runtime",
    "core",
    "memsim",
    UNTRACED,
)


def boundary_name(owner: Optional[str], attr: str) -> str:
    return f"{owner or 'kernels'}.{attr}"


BOUNDARY_NAMES = tuple(boundary_name(o, a) for _, o, a, _ in BOUNDARIES)


class SpanLog:
    """Flat, append-only span record (parallel lists, parent links)."""

    def __init__(self, names: Sequence[str], layers: Sequence[str]) -> None:
        self.names = list(names)
        self.layers = list(layers)
        self.name_id: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.round: List[int] = []
        self._stack: List[int] = []
        self.round_id = -1

    def open(self, name_id: int) -> int:
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.round_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name_id)


def self_times(log: SpanLog) -> np.ndarray:
    """Per-span exclusive time: duration minus the children's durations.

    Spans nest strictly (one thread), so the children of a span cover
    disjoint parts of it and their durations add.
    """
    start = np.asarray(log.start, dtype=np.float64)
    dur = np.asarray(log.end, dtype=np.float64) - start
    parent = np.asarray(log.parent, dtype=np.int64)
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


def layer_self_times(log: SpanLog) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``({layer: self seconds}, {span name: calls})`` over the log."""
    name_id = np.asarray(log.name_id, dtype=np.int64)
    n = len(log.names)
    per_name = np.bincount(name_id, weights=self_times(log), minlength=n)
    calls = np.bincount(name_id, minlength=n)
    layers = dict.fromkeys(LAYERS, 0.0)
    for i, layer in enumerate(log.layers):
        layers[layer] = layers.get(layer, 0.0) + float(per_name[i])
    return layers, {name: int(calls[i]) for i, name in enumerate(log.names)}


class OutsideTracer:
    """Installs span-recording wrappers on :data:`BOUNDARIES`.

    Wrappers record only while :attr:`recording` is set, so set-up and
    warm-up run wrapped but leave no spans.  :meth:`restore` puts every
    original attribute back and :meth:`assert_restored` proves it.
    """

    def __init__(self, boundaries=BOUNDARIES) -> None:
        self.boundaries = boundaries
        self.log = SpanLog(
            [ROUND] + [boundary_name(o, a) for _, o, a, _ in boundaries],
            [UNTRACED] + [layer for *_, layer in boundaries],
        )
        self.recording = False
        #: (holder, attribute, original from holder.__dict__ or None)
        self._saved: List[tuple] = []

    @staticmethod
    def _holder(module: str, owner: Optional[str]):
        mod = importlib.import_module(module)
        return mod if owner is None else getattr(mod, owner)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name_id, (module, owner, attr, _) in enumerate(self.boundaries, 1):
            holder = self._holder(module, owner)
            original = inspect.getattr_static(holder, attr)
            own = vars(holder).get(attr)
            self._saved.append((holder, attr, own))
            setattr(holder, attr, self._wrap(name_id, original))

    def _wrap(self, name_id: int, fn):
        log = self.log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = log.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(index)

        traced.__perfbench_wrapper__ = True
        return traced

    def restore(self) -> None:
        self.recording = False
        for holder, attr, own in reversed(self._saved):
            if own is None:
                delattr(holder, attr)
            else:
                setattr(holder, attr, own)

    def assert_restored(self) -> int:
        """Raise unless every boundary is the original object again."""
        for holder, attr, own in self._saved:
            now = vars(holder).get(attr)
            if now is not own or getattr(
                inspect.getattr_static(holder, attr), "__perfbench_wrapper__", False
            ):
                raise AssertionError(f"{holder.__name__}.{attr} still wrapped")
        return len(self._saved)

    def round_span(self, round_id: int) -> "_RoundSpan":
        return _RoundSpan(self, round_id)


class _RoundSpan:
    __slots__ = ("_tracer", "_round", "_index")

    def __init__(self, tracer: OutsideTracer, round_id: int) -> None:
        self._tracer = tracer
        self._round = round_id

    def __enter__(self):
        tracer = self._tracer
        tracer.log.round_id = self._round
        tracer.recording = True
        self._index = tracer.log.open(0)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer.log.close(self._index)
        self._tracer.recording = False
        return False


def chrome_trace(log: SpanLog, max_round: int) -> dict:
    """Chrome trace-event JSON of the spans of rounds below ``max_round``."""
    events = []
    t0 = log.start[0] if log.start else 0.0
    for i in range(len(log)):
        if log.round[i] >= max_round:
            continue
        name_id = log.name_id[i]
        events.append(
            {
                "name": log.names[name_id],
                "cat": log.layers[name_id],
                "ph": "X",
                "ts": (log.start[i] - t0) * 1e6,
                "dur": (log.end[i] - log.start[i]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"round": log.round[i], "parent": log.parent[i]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(log: SpanLog, path, max_round: int) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(log, max_round), fh)
