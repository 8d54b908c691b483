"""The traced run: class-level wrappers around each layer's public entry points.

:func:`installed` replaces, for the duration of a ``with`` block, every
method listed in :func:`layer_targets` on its class (and on each subclass
that overrides it) with a wrapper that records one span per call into a
:class:`SpanRecorder`.  The simulator is not modified and knows nothing of
the wrappers; they only read the clock, so the traced result must carry the
same digest as the untraced one.

A call that re-enters the layer it is already in (``super().decide()``,
``predict_running`` delegating to ``predict_running_batch``) gets no span of
its own, so each layer counts the calls made into it from outside.  Self time
is a span's duration minus the durations of its direct children, so the self
times of all layers plus the root ``loop`` span add up to the traced run.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

#: Span name of the ``run_*`` call itself: its self time is the event loop.
LOOP = "loop"


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def layer_targets() -> dict[str, list[tuple[type, str]]]:
    """Span name -> the ``(class, method)`` pairs whose calls it records."""
    from repro.core.predictor import OutputLengthPredictor
    from repro.engine.cost_model import CostModel
    from repro.engine.engine import InferenceEngine
    from repro.memory.block_manager import BlockKVCachePool
    from repro.memory.prefix_cache import PrefixCache
    from repro.schedulers import registry  # noqa: F401  (imports every scheduler class)
    from repro.schedulers.base import Scheduler
    from repro.serving import cluster
    from repro.serving.routing import Router

    def overriding(base: type, method: str) -> list[tuple[type, str]]:
        return [(cls, method) for cls in _with_subclasses(base) if method in vars(cls)]

    return {
        "routing.decide": overriding(Router, "decide"),
        # ReplicaView construction happens in the replica's snapshot method,
        # which gathers the per-request token tuples the view carries.
        "routing.view": [(cluster._Replica, "snapshot")],
        "scheduler.schedule": overriding(Scheduler, "schedule"),
        "scheduler.horizon": overriding(Scheduler, "saturated_no_admit_horizon"),
        "core.predictor": [
            (OutputLengthPredictor, name)
            for name in ("predict_new", "predict_running", "predict_running_batch")
        ],
        "engine.step": [(InferenceEngine, "step")],
        "engine.jump": [(InferenceEngine, "try_jump"), (InferenceEngine, "try_jump_saturated")],
        "cost_model": [(CostModel, "step_seconds"), (CostModel, "decode_step_durations")],
        "memory.pool": [
            (BlockKVCachePool, name)
            for name in ("allocate", "append_token", "append_tokens", "append_token_to_all", "free")
        ],
        "memory.prefix": [
            (PrefixCache, name)
            for name in (
                "lookup",
                "claim",
                "retain",
                "evict_for_allocation",
                "evict_for_extension",
                "evict_for_one_block",
            )
        ],
    }


def _request_id(args: tuple) -> str | None:
    """The request a call is about: a request-id string or an object carrying one."""
    for arg in args[:2]:
        if isinstance(arg, str):
            return arg
        request_id = getattr(arg, "request_id", None)
        if isinstance(request_id, str):
            return request_id
    return None


class SpanRecorder:
    """In-memory spans: name, start, end, parent span and request id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._kind_of: dict[str, int] = {}
        self.kinds = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.request_ids: dict[int, str] = {}
        self._stack: list[int] = []

    def kind(self, name: str) -> int:
        """Integer id of a span name."""
        if name not in self._kind_of:
            self._kind_of[name] = len(self.names)
            self.names.append(name)
        return self._kind_of[name]

    def __len__(self) -> int:
        return len(self.starts)

    def _open(self, kind: int, args: tuple) -> int:
        index = len(self.starts)
        self.kinds.append(kind)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        request_id = _request_id(args)
        if request_id is not None:
            self.request_ids[index] = request_id
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, method: Callable) -> Callable:
        """``method`` recording one ``name`` span per call from outside the layer."""
        kind = self.kind(name)
        stack = self._stack
        kinds = self.kinds

        @functools.wraps(method)
        def traced(*args, **kwargs):
            if stack and kinds[stack[-1]] == kind:
                return method(*args, **kwargs)
            index = self._open(kind, args[1:])
            try:
                return method(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one ``name`` span around the ``with`` body."""
        index = self._open(self.kind(name), ())
        try:
            yield
        finally:
            self._close(index)

    # ----------------------------------------------------------- analysis
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        kinds = np.asarray(self.kinds, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=durations[nested], minlength=len(self))
        self_time = durations - child_time
        count = len(self.names)
        calls = np.bincount(kinds, minlength=count)
        inclusive = np.bincount(kinds, weights=durations, minlength=count)
        exclusive = np.bincount(kinds, weights=self_time, minlength=count)
        return {
            name: (int(calls[k]), float(inclusive[k]), float(exclusive[k]))
            for k, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span once, as compressed arrays (see :meth:`totals` for the layout)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        request_ids = np.full(len(self), "", dtype=object)
        for index, request_id in self.request_ids.items():
            request_ids[index] = request_id
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            kind=np.asarray(self.kinds, dtype=np.int64),
            parent=np.asarray(self.parents, dtype=np.int64),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            request_id=request_ids.astype(str),
        )


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the class-level wrappers for the ``with`` body, then restore the originals."""
    saved: list[tuple[type, str, object]] = []
    try:
        for name, targets in layer_targets().items():
            for cls, method in targets:
                original = vars(cls)[method]
                saved.append((cls, method, original))
                setattr(cls, method, recorder.wrap(name, original))
        yield recorder
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)
