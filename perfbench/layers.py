"""Where the traced run records spans: one tap per layer of the program.

Each tap patches public methods of the objects a workload built, so
every call into the layer records one span, and ``SpanRecorder.restore``
puts the originals back.  Span names are ``<layer>.<what>``; the layer
is the ``repro`` package the call enters (``nn``, ``core``, ``optim``,
``serve``, ``online``).

Training: ``Trainer.fit`` is ``train.fit``; the trainer's own phase
timers (``phase/estep|grad|mstep|sgd``) open and close ``optim.<phase>``
spans, and ``optim.step`` covers one whole iteration; ``Network.forward``
and ``backward``, the loss head and every layer's ``forward``/``backward``
are ``nn.*``; ``GMRegularizer.gradient`` is ``core.reg_grad``.

Serving: ``ModelRegistry.active/publish/activate`` are
``serve.resolve/publish/activate`` and the served model's ``predict`` is
``serve.score``.  Single-row requests also get ``serve.cache_key`` and
``serve.cache_get`` around ``PredictionCache.make_key/get``; a bulk
``predict_many`` call gets one ``serve.predict_many`` span instead of a
span per row.  ``serve.queue_wait`` runs from the moment a call's rows
entered the server's queue path (a cache miss of a single request, or
the start of a ``predict_many`` call) to the start of the ``predict``
call that scored them, as a child of that call's span; the score span
joins the trace of the first call in its batch.

Online: ``ContinuousLoop.step`` is ``online.step``,
``OnlineTrainer.partial_fit`` is ``online.partial_fit`` and
``RegistryPublisher.maybe_publish`` is ``online.maybe_publish``.
``ShadowEvaluator.observe`` runs once per row, so its time is summed
per step into one ``online.shadow`` span instead of one span a row.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core import GMRegularizer
from repro.serve.cache import PredictionCache

from spans import SpanRecorder

PHASES = ("estep", "grad", "mstep", "sgd")


def weight_regularizers(model: Any) -> List[GMRegularizer]:
    """The GM regularizers attached to ``model``'s parameters."""
    return [
        param.regularizer for param in model.parameters()
        if isinstance(param.regularizer, GMRegularizer)
    ]


def trace_regularizers(recorder: SpanRecorder, model: Any) -> None:
    """``core.reg_grad`` around every GM regularizer's ``gradient``."""
    for reg in weight_regularizers(model):
        recorder.trace_method(reg, "gradient", "core.reg_grad")


def trace_training(recorder: SpanRecorder, trainer: Any, model: Any) -> None:
    """Spans for ``Trainer.fit``, its phases and every network layer."""
    recorder.trace_method(trainer, "fit", "train.fit")
    open_spans: Dict[str, list] = {}
    for phase in PHASES:
        timer = trainer.metrics.timer(f"phase/{phase}")
        recorder.patch(timer, "start", _phase_start(recorder, phase, timer.start,
                                                    open_spans))
        recorder.patch(timer, "stop", _phase_stop(recorder, phase, timer.stop,
                                                  open_spans))
    recorder.trace_method(model, "forward", "nn.forward")
    recorder.trace_method(model, "backward", "nn.backward")
    recorder.trace_method(model.loss_head, "loss_and_gradient", "nn.loss")
    for layer in model.layers:
        recorder.trace_method(layer, "forward", f"nn.{layer.name}.fwd")
        recorder.trace_method(layer, "backward", f"nn.{layer.name}.bwd")
    trace_regularizers(recorder, model)


def _phase_start(recorder, phase, start, open_spans):
    def traced() -> None:
        if phase == PHASES[0]:
            open_spans["step"] = recorder.open("optim.step")
        open_spans[phase] = recorder.open(f"optim.{phase}")
        start()
    return traced


def _phase_stop(recorder, phase, stop, open_spans):
    def traced() -> float:
        elapsed = stop()
        recorder.close(open_spans.pop(phase))
        if phase == PHASES[-1]:
            recorder.close(open_spans.pop("step"))
        return elapsed
    return traced


class ServeTap:
    """Spans around the serving layer, plus each row's queue wait."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._lock = threading.Lock()
        self._local = threading.local()
        # row bytes -> rows of that content waiting to be scored:
        # (time it entered the queue path, span of the call that sent it)
        self._pending: Dict[bytes, Deque[Tuple[float, list]]] = {}
        self._scored: Set[int] = set()  # ids of models whose predict is wrapped

    def install(self, server: Any, registry: Any, per_request: bool) -> None:
        """Patch ``server``/``registry``.

        ``per_request`` wraps the cache lookup of every single-row
        request; bulk ``predict_many`` callers get one span per call.
        """
        rec = self.recorder
        rec.patch(registry, "active", self._resolve(registry.active))
        rec.trace_method(registry, "publish", "serve.publish")
        rec.trace_method(registry, "activate", "serve.activate")
        if per_request:
            rec.trace_method(PredictionCache, "make_key", "serve.cache_key")
            rec.patch(server.cache, "get", self._cache_get(server.cache.get))
        else:
            rec.patch(server, "predict_many",
                      self._predict_many(server.predict_many))

    def request(self, server: Any, method: str, row: np.ndarray) -> Any:
        """``server.request`` inside a ``serve.request`` span."""
        record = self.recorder.open("serve.request")
        self._local.entry = (np.ascontiguousarray(row).tobytes(), record)
        try:
            return server.request(method, row)
        finally:
            self._local.entry = None
            self.recorder.close(record)

    # -- wrappers --------------------------------------------------------
    def _queue(self, keys: List[bytes], entered: float, record: list) -> None:
        with self._lock:
            for key in keys:
                self._pending.setdefault(key, deque()).append((entered, record))

    def _cache_get(self, get):
        rec = self.recorder

        def traced(key: bytes) -> Tuple[bool, Any]:
            record = rec.open("serve.cache_get")
            hit, value = get(key)
            rec.close(record)
            entry = getattr(self._local, "entry", None)
            if not hit and entry is not None:
                self._queue([entry[0]], time.perf_counter(), entry[1])
            return hit, value
        return traced

    def _predict_many(self, predict_many):
        rec = self.recorder

        def traced(x: np.ndarray, method: str = "predict") -> List[Any]:
            record = rec.open("serve.predict_many")
            keys = [np.ascontiguousarray(row).tobytes() for row in x]
            self._queue(keys, time.perf_counter(), record)
            try:
                return predict_many(x, method)
            finally:
                self._forget(keys, record)
                rec.close(record)
        return traced

    def _forget(self, keys: List[bytes], record: list) -> None:
        """Drop rows of ``record`` that never reached the model (cache hits)."""
        with self._lock:
            for key in keys:
                waiting = self._pending.get(key)
                if waiting is None:
                    continue
                kept = deque(item for item in waiting if item[1] is not record)
                if kept:
                    self._pending[key] = kept
                else:
                    del self._pending[key]

    def _resolve(self, active):
        rec = self.recorder

        def traced(name: str) -> Any:
            record = rec.open("serve.resolve")
            snapshot = active(name)
            rec.close(record)
            model = snapshot.model
            with self._lock:
                if id(model) not in self._scored:
                    self._scored.add(id(model))
                    rec.patch(model, "predict", self._score(model.predict))
            return snapshot
        return traced

    def _score(self, predict):
        rec = self.recorder

        def traced(batch: np.ndarray) -> Any:
            started = time.perf_counter()
            waits = []
            with self._lock:
                for row in batch:
                    key = np.ascontiguousarray(row).tobytes()
                    waiting = self._pending.get(key)
                    if waiting:
                        waits.append(waiting.popleft())
                        if not waiting:
                            del self._pending[key]
            record = rec.open("serve.score",
                              parent=waits[0][1] if waits else None)
            try:
                return predict(batch)
            finally:
                rec.close(record)
                # Rows sent by one call entered together and waited
                # together: one span per sending call, not per row.
                calls = {id(parent): (entered, parent)
                         for entered, parent in waits}
                for entered, parent in calls.values():
                    rec.add("serve.queue_wait", entered, started, parent)
        return traced


class ShadowTap:
    """Sums ``ShadowEvaluator.observe`` time per loop step."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._first: Optional[float] = None
        self._total = 0.0

    def install(self, shadow: Any) -> None:
        """Time every ``observe`` call without a span per row."""
        observe = shadow.observe

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return observe(*args, **kwargs)
            finally:
                if self._first is None:
                    self._first = started
                self._total += time.perf_counter() - started
        self.recorder.patch(shadow, "observe", timed)

    def flush(self, step_record: list) -> None:
        """Record this step's summed observe time as one child span."""
        if self._first is not None:
            self.recorder.add("online.shadow", self._first,
                              self._first + self._total, step_record)
        self._first = None
        self._total = 0.0


def trace_online(recorder: SpanRecorder, loop: Any) -> None:
    """Spans for one ``ContinuousLoop`` and the online pieces it drives."""
    shadow = ShadowTap(recorder)
    shadow.install(loop.shadow)
    step = loop.step

    def traced_step(x: np.ndarray, y: np.ndarray) -> Any:
        record = recorder.open("online.step")
        try:
            return step(x, y)
        finally:
            shadow.flush(record)
            recorder.close(record)
    recorder.patch(loop, "step", traced_step)
    recorder.trace_method(loop.trainer, "partial_fit", "online.partial_fit")
    recorder.trace_method(loop.publisher, "maybe_publish",
                          "online.maybe_publish")
    trace_regularizers(recorder, loop.trainer.model)
