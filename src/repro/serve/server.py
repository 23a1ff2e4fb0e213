"""Model server: one request lifecycle over a pluggable dispatch backend.

:class:`ModelServer` is the front door of ``repro.serve``.  Per request
it:

1. resolves the model — either a fixed instance or, through a
   :class:`~repro.serve.registry.ModelRegistry`, whatever version is
   currently active (hot-swaps take effect between batches);
2. validates the row at the boundary — its shape after squeezing a
   length-1 batch axis, a numeric dtype and finite values.  A bad row
   raises :class:`InvalidRequest` and bumps
   ``serve/rejected/<reason>_total`` before it is queued, so it can
   never fail the other rows of a coalesced batch;
3. consults the LRU :class:`~repro.serve.cache.PredictionCache`
   (keyed on method x version x row bytes);
4. enqueues the row into the :class:`~repro.serve.batching.MicroBatcher`
   lane its dispatch backend routes it to and blocks until the
   coalesced batch dispatch fans its result back;
5. degrades gracefully instead of failing: a **full queue** sheds the
   request to an inline single-row model call (``serve/shed_total``),
   and an expired **deadline** cancels the queued request and answers
   it the same way (``serve/deadline_expired_total``) — callers always
   get an answer, memory stays bounded.

What differs between serving tiers lives in a dispatch backend:
which lane a row goes to, how a coalesced batch is scored, which errors
are always rescued inline and what each shard reports in
:meth:`ModelServer.health`.  :class:`InProcessBackend` (the default) is
one lane of ``workers`` threads scoring the resolved model in this
process; :class:`~repro.serve.sharding.server.ShardFleet` scores on a
fleet of worker processes behind
:class:`~repro.serve.sharding.server.ShardedModelServer`.  Everything
else on this page is the same for both.

With a :class:`~repro.serve.resilience.ResiliencePolicy` attached the
unhappy paths get the same treatment: model and registry calls are
retried with jittered backoff, registry resolution sits behind a
circuit breaker whose open state degrades to the last-known-good model
snapshot (``resilience/stale_model_served_total``), a failed coalesced
batch is rescued row-by-row on the callers' threads
(``serve/rescued_total``), and cache entries carry integrity checksums
so a poisoned entry costs one recompute instead of a wrong answer.
:meth:`ModelServer.health` exposes the whole picture — queue depth,
breaker states, cache hit rate, active version, per-shard status — as
the operator probe documented in ``docs/RUNBOOK.md``.

Every step is instrumented on a
:class:`~repro.telemetry.metrics.MetricsRegistry`: request/batch/shed
counters, cache hit/miss counters, a queue-depth gauge and latency /
batch-size histograms, so a serving process exposes the same snapshot
machinery as the training loop.

**Numerical note.**  Coalescing changes the BLAS call shapes: a row
scored inside a ``(32, d)`` batch can differ from the same row scored
alone by a few ulps (reduction-order effects), so *probabilities* are
equal only to ~1e-12 while the hard *predictions* (thresholded /
argmaxed labels) are bit-identical — which is what the equivalence
tests and the throughput benchmark assert.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import threading
from types import TracebackType
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from ..telemetry import trace as tracing
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import Tracer, add_event
from .batching import MicroBatcher, ServeRequest, ServerClosed
from .cache import PredictionCache
from .registry import ActiveModel, ModelRegistry
from .resilience import (
    BreakerOpen,
    CircuitBreaker,
    FaultInjector,
    ResiliencePolicy,
)

if TYPE_CHECKING:
    from .sharding.server import ShardFleet

__all__ = [
    "InProcessBackend",
    "InvalidRequest",
    "ModelServer",
]

#: dtype kinds a request row may carry: bool, signed/unsigned int, float.
_NUMERIC_KINDS = frozenset("biuf")


class InvalidRequest(ValueError):
    """A request failed boundary validation and was never queued.

    ``reason`` is ``"shape"``, ``"dtype"`` or ``"non_finite"`` — the
    ``<reason>`` of the ``serve/rejected/<reason>_total`` counter the
    rejection bumped.
    """

    def __init__(self, reason: str, detail: str) -> None:
        self.reason = reason
        super().__init__(f"invalid request ({reason}): {detail}")


class InProcessBackend:
    """The default dispatch backend: one lane scoring in this process.

    A dispatch backend owns only what differs between serving tiers;
    :class:`ModelServer` owns the rest of the request lifecycle.  This
    class and :class:`~repro.serve.sharding.server.ShardFleet` are the
    two backends and have the same members: ``lanes`` (the batcher
    lanes — here one, of ``workers`` threads), ``rescues`` (batch errors
    always rescued inline — here none), ``row_dtype`` (the dtype
    validated rows are cast to — here none) and the methods below.
    """

    rescues: Tuple[Type[BaseException], ...] = ()
    row_dtype: Optional[type] = None

    def __init__(
        self,
        server: "ModelServer",
        max_batch_size: int,
        batch_timeout: float,
        max_queue: int,
        workers: int,
    ) -> None:
        self._server = server
        self.lanes = [
            MicroBatcher(
                functools.partial(server._dispatch, 0),
                max_batch_size=max_batch_size,
                batch_timeout=batch_timeout,
                max_queue=max_queue,
                workers=workers,
            )
        ]

    def row_width(self, model: Any) -> Optional[int]:
        """Required row width: the model's ``n_features``, if declared."""
        width = getattr(model, "n_features", None)
        return None if width is None else int(width)

    def route(self, method: str, row: np.ndarray) -> int:
        """Index of the lane that scores ``row``: the only one."""
        return 0

    def score(
        self,
        lane: int,
        method: str,
        rows: List[np.ndarray],
        version: str,
        model: Any,
        span: Any,
    ) -> Tuple[str, Sequence[Any]]:
        """Score a coalesced batch; returns ``(version, results)``.

        ``version``/``model`` are the server's resolution for this
        batch and the returned version labels the cache entries;
        ``span`` is the dispatch span (``None`` when untraced).  Here:
        one (chaos-wrapped, retried) call of the resolved model.
        """
        return version, self._server._score(model, method, np.stack(rows))

    def breakers(self) -> List[CircuitBreaker]:
        """Circuit breakers the backend owns: none in-process."""
        return []

    def shard_statuses(self, version: Optional[str]) -> List[Dict[str, Any]]:
        """One status entry per shard: this process is the only one."""
        lane = self.lanes[0]
        return [
            {
                "shard": 0,
                "alive": not lane.closed,
                "queue_depth": lane.depth(),
                "active_version": version,
                "breaker": None,
                "respawns": 0,
                "pid": os.getpid(),
            }
        ]

    def shutdown(self) -> None:
        """Release what the backend owns beyond its lanes: nothing."""


class ModelServer:
    """Serve single-row ``predict``-family queries with micro-batching.

    Parameters
    ----------
    model:
        A fixed model instance to serve, or ``None`` when serving from a
        registry.
    registry, name:
        Serve ``registry.active(name)``; the active version is resolved
        per batch, so :meth:`ModelRegistry.activate` hot-swaps a running
        server without restarts.
    max_batch_size, batch_timeout, max_queue, workers:
        Micro-batching knobs (see
        :class:`~repro.serve.batching.MicroBatcher`).
    cache_size:
        LRU prediction-cache capacity in rows (0 disables caching).
    metrics:
        Shared registry for instruments; a private one is created by
        default.
    resilience:
        A :class:`~repro.serve.resilience.ResiliencePolicy` giving every
        external-facing call site its retry / breaker / degrade
        decision.  ``None`` keeps the PR-3 happy-path behaviour, except
        that attaching a ``fault_injector`` implies
        ``ResiliencePolicy.default()`` — chaos without resilience would
        just be a broken server.
    fault_injector:
        Optional :class:`~repro.serve.resilience.FaultInjector` whose
        ``"model"`` / ``"registry"`` / ``"cache"`` sites wrap the
        corresponding calls (the ``--chaos`` harness).
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  When set (or
        when an ambient tracer is installed via
        :func:`~repro.telemetry.trace.use_tracer`) every request gets a
        ``serve/request`` root span, dispatches get child spans on the
        worker thread, and the resilience layer's retries / breaker
        transitions / fallbacks land on the request span as events.
        ``None`` with no ambient tracer keeps the request path
        trace-free (cost: one context-variable read per request).

    Rows are checked against ``model.n_features`` when the model
    declares it; a model that does not is served without a width check.
    """

    def __init__(
        self,
        model: Any = None,
        registry: Optional[ModelRegistry] = None,
        name: Optional[str] = None,
        max_batch_size: int = 32,
        batch_timeout: float = 0.002,
        max_queue: int = 256,
        workers: int = 2,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        resilience: Optional[ResiliencePolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if (model is None) == (registry is None):
            raise ValueError("pass exactly one of model= or registry=")
        if registry is not None and not name:
            raise ValueError("serving from a registry requires name=")
        self._model = model
        self._registry = registry
        self._name = name
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer
        if resilience is None and fault_injector is not None:
            resilience = ResiliencePolicy.default()
        self.resilience = resilience
        self.fault_injector = fault_injector
        if self.resilience is not None:
            self.resilience.bind_metrics(self.metrics)
        if self.fault_injector is not None:
            self.fault_injector.bind_metrics(self.metrics)
        integrity = (
            self.resilience.cache_integrity
            if self.resilience is not None
            else False
        )
        self.cache = PredictionCache(cache_size, integrity=integrity)
        self._last_good: Optional[ActiveModel] = None
        self._closed = False
        self._close_lock = threading.Lock()
        self._backend = self._make_backend(
            max_batch_size, batch_timeout, max_queue, workers
        )
        self._lanes = self._backend.lanes
        # Looked up once: a MetricsRegistry lookup takes its lock, and
        # the dispatch path should only increment.
        self._lane_counters = [
            (self.metrics.counter(f"serve/shard/{lane}/batches_total"),
             self.metrics.counter(f"serve/shard/{lane}/requests_total"))
            for lane in range(len(self._lanes))
        ]
        self._cast = self._backend.row_dtype
        # A registry-backed server learns the width from each resolved
        # snapshot instead (see _resolve).
        self._width = self._backend.row_width(model)

    def _make_backend(
        self,
        max_batch_size: int,
        batch_timeout: float,
        max_queue: int,
        workers: int,
    ) -> InProcessBackend | ShardFleet:
        """The dispatch backend scoring this server's batches."""
        return InProcessBackend(
            self, max_batch_size, batch_timeout, max_queue, workers
        )

    @property
    def registry(self) -> Optional[ModelRegistry]:
        """The backing registry, if serving live models (else ``None``).

        Publishing to it hot-swaps what this server answers with.
        """
        return self._registry

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------
    def predict(self, row: np.ndarray, deadline: Optional[float] = None) -> Any:
        """Hard label for one sample (blocking)."""
        return self.request("predict", row, deadline=deadline)

    def predict_proba(
        self, row: np.ndarray, deadline: Optional[float] = None
    ) -> Any:
        """Probability output for one sample (blocking)."""
        return self.request("predict_proba", row, deadline=deadline)

    def decision_function(
        self, row: np.ndarray, deadline: Optional[float] = None
    ) -> Any:
        """Raw score for one sample (blocking)."""
        return self.request("decision_function", row, deadline=deadline)

    def request(
        self, method: str, row: np.ndarray, deadline: Optional[float] = None
    ) -> Any:
        """Score one sample via ``method``.

        ``row`` is a single sample *without* the batch axis (a length-1
        leading axis is squeezed away).  ``deadline`` is a per-request
        budget in seconds: a request still queued when it expires is
        cancelled and answered inline instead of erroring.

        Raises
        ------
        InvalidRequest
            When the row has the wrong shape, a non-numeric dtype or a
            non-finite value; nothing was queued.
        ServerClosed
            When the server (or its batcher) has begun shutting down.
        """
        clock = self.metrics.clock
        start = clock()
        if self.closed:
            raise ServerClosed()
        with self._start_span("serve/request", method=method) as span:
            version, model = self._resolve()
            span.set_attribute("version", version)
            row = self._validate(row, batch=False)
            self._check_method(model, method)
            self.metrics.counter("serve/requests_total").inc()

            key = None
            if self.cache.maxsize:
                key = PredictionCache.make_key(method, version, row)
                hit, value = self.cache.get(key)
                if hit:
                    span.event("cache_hit")
                    self.metrics.counter("serve/cache_hits_total").inc()
                    self._observe_latency(clock() - start)
                    return value
                span.event("cache_miss")
                self.metrics.counter("serve/cache_misses_total").inc()

            lane = self._backend.route(method, row)
            batcher = self._lanes[lane]
            pending = ServeRequest(
                method, row, enqueued_at=start,
                context=self._capture_context(),
            )
            if not batcher.submit(pending):
                # Bounded-queue backpressure: serve inline rather than grow.
                span.event("shed", reason="queue_full", shard=lane)
                self.metrics.counter("serve/shed_total").inc()
                return self._predict_inline(method, row, model, key, start)
            self._gauge_depth()

            if pending.event.wait(timeout=deadline):
                return self._finish(pending, start)
            # Deadline expired while queued: cancel and degrade to the
            # inline path so the caller still gets an answer.
            if batcher.cancel(pending):
                span.event("deadline_expired", shard=lane)
                self.metrics.counter("serve/deadline_expired_total").inc()
                return self._predict_inline(method, row, model, key, start)
            # Already being dispatched; the result is moments away.
            pending.event.wait()
            return self._finish(pending, start)

    def predict_many(
        self, x: np.ndarray, method: str = "predict"
    ) -> List[Any]:
        """Submit every row of ``x`` concurrently and wait for all.

        The rows flow through the same lanes as individual requests, so
        they coalesce into micro-batches; order of results matches the
        row order of ``x``.  ``x`` is validated as a whole: one bad row
        rejects the call with :class:`InvalidRequest` before any row is
        queued.
        """
        if self.closed:
            raise ServerClosed()
        clock = self.metrics.clock
        with self._start_span(
            "serve/predict_many", method=method, rows=len(x)
        ) as span:
            version, model = self._resolve()
            span.set_attribute("version", version)
            x = self._validate(x, batch=True)
            self._check_method(model, method)
            results: List[Any] = [None] * len(x)
            lanes = self._lanes
            buckets: List[List[Tuple[int, ServeRequest]]] = [
                [] for _lane in lanes
            ]
            caching = bool(self.cache.maxsize)
            requests_total = self.metrics.counter("serve/requests_total")
            route = self._backend.route
            for index, row in enumerate(x):
                start = clock()
                requests_total.inc()
                if caching:
                    key = PredictionCache.make_key(method, version, row)
                    hit, value = self.cache.get(key)
                    if hit:
                        self.metrics.counter("serve/cache_hits_total").inc()
                        self._observe_latency(clock() - start)
                        results[index] = value
                        continue
                    self.metrics.counter("serve/cache_misses_total").inc()
                # Per-request context copies: a shared Context object
                # cannot be entered by two dispatching workers at once.
                buckets[route(method, row)].append(
                    (index,
                     ServeRequest(method, row, enqueued_at=start,
                                  context=self._capture_context()))
                )
            waiting: List[Tuple[int, ServeRequest]] = []
            for lane, pairs in enumerate(buckets):
                if not pairs:
                    continue
                # One bulk enqueue per lane instead of a lock/notify
                # round-trip per row; whatever exceeds the queue bound
                # is shed to the inline path, same as a single
                # over-capacity submit.
                accepted = lanes[lane].submit_many(
                    [request for _index, request in pairs]
                )
                if accepted < len(pairs):
                    span.event(
                        "shed", reason="queue_full", shard=lane,
                        rows=len(pairs) - accepted,
                    )
                for index, request in pairs[accepted:]:
                    self.metrics.counter("serve/shed_total").inc()
                    key = (
                        PredictionCache.make_key(method, version, request.row)
                        if caching else None
                    )
                    results[index] = self._predict_inline(
                        method, request.row, model, key, request.enqueued_at
                    )
                waiting.extend(pairs[:accepted])
            self._gauge_depth()
            for index, request in waiting:
                request.event.wait()
                results[index] = self._finish(request, request.enqueued_at)
            return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start_span(self, name: str, **attributes: Any) -> Any:
        """Open a span on this server's tracer (or the ambient one).

        Returns the inert null span when neither exists, so every call
        site writes an unconditional ``with self._start_span(...)``.
        """
        return tracing.start_span(
            name, attributes=attributes or None, tracer=self.tracer
        )

    def _capture_context(self) -> Optional[contextvars.Context]:
        """Submit-time context snapshot for cross-thread propagation.

        Only taken when the submitting request's span is **sampled** —
        an unsampled trace records no payload anywhere in its subtree,
        so copying a context that could only ever feed no-ops would put
        a per-request allocation on the 90%-of-traffic path for
        nothing.  This is what keeps tracing at the default 0.1 rate
        inside its ≤5% QPS budget (``benchmarks/bench_trace_overhead``).
        The untraced hot path costs one context-variable read.
        """
        active = tracing.current_span()
        if active is not None and active.sampled:
            return contextvars.copy_context()
        return None

    def _validate(self, x: Any, batch: bool) -> np.ndarray:
        """Boundary check of one row, or of every row of a batch at once.

        A length-1 leading axis of a row is squeezed away first.  The
        checks are the row width (when known), a numeric dtype and
        finiteness — for a batch, one reduction over the whole array.
        Failing rows raise :class:`InvalidRequest` and count toward
        ``serve/rejected/<reason>_total``; passing rows are cast to the
        backend's ``row_dtype`` when it has one.
        """
        rows = len(x) if batch else 1
        try:
            x = np.asarray(x)
        except ValueError as exc:  # ragged rows
            self._reject("shape", str(exc), rows)
        axis = 1 if batch else 0
        if x.ndim >= axis + 2 and x.shape[axis] == 1:
            x = x[:, 0] if batch else x[0]
        width = self._width
        if width is not None and x.shape != x.shape[:axis] + (width,):
            self._reject(
                "shape", f"expected rows of width {width}, got shape "
                f"{x.shape}", rows,
            )
        if x.dtype.kind not in _NUMERIC_KINDS:
            self._reject("dtype", f"non-numeric dtype {x.dtype}", rows)
        # A numpy ufunc releases the GIL even on one short row, handing
        # the interpreter to a dispatch worker in the middle of this
        # request; a single row is therefore checked in Python, a batch
        # in one reduction.
        finite = (
            np.isfinite(x).all() if batch
            else all(map(math.isfinite, x.ravel().tolist()))
        )
        if not finite:
            self._reject("non_finite", "NaN or infinite value", rows)
        if self._cast is not None:
            x = np.ascontiguousarray(x, dtype=self._cast)
        return x

    def _reject(self, reason: str, detail: str, rows: int) -> NoReturn:
        """Count a boundary rejection (one per row) and raise it."""
        self.metrics.counter(f"serve/rejected/{reason}_total").inc(rows)
        add_event("rejected", reason=reason, rows=rows)
        raise InvalidRequest(reason, detail)

    @staticmethod
    def _check_method(model: Any, method: str) -> None:
        if not callable(getattr(model, method, None)):
            raise ValueError(
                f"model {type(model).__name__} does not support {method!r}"
            )

    def _load_active(self) -> ActiveModel:
        """One chaos-wrapped registry resolution (the breaker's payload)."""
        registry = self._registry
        if registry is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("no registry attached")
        name = self._name or ""
        if self.fault_injector is not None:
            active = self.fault_injector.call("registry", registry.active, name)
        else:
            active = registry.active(name)
        return active

    def _load_live(self) -> ActiveModel:
        """Registry resolution, behind the breaker and retries if any."""
        policy = self.resilience
        if policy is None:
            return self._load_active()
        return policy.registry_breaker.call(
            policy.retry.call, self._load_active
        )

    def _resolve(self) -> Tuple[str, Any]:
        """Current ``(version, model)`` — re-read per batch for hot-swap.

        With a resilience policy, registry resolution is retried with
        backoff *inside* the registry circuit breaker; when the breaker
        is open (or the load still fails after retries) the last-known-
        good snapshot is served instead
        (``resilience/stale_model_served_total``) — an unavailable
        registry degrades to stale-but-correct answers rather than
        errors.  Only when no snapshot exists yet does the failure
        propagate.
        """
        if self._registry is None:
            return "v0", self._model
        try:
            active = self._load_live()
        except Exception as exc:
            stale = self._last_good
            if stale is None or self.resilience is None:
                raise
            add_event(
                "stale_model_served",
                reason=(
                    "breaker_open" if isinstance(exc, BreakerOpen)
                    else type(exc).__name__
                ),
                version=stale.version,
            )
            self.metrics.counter(
                "resilience/stale_model_served_total"
            ).inc()
            return stale.version, stale.model
        if active is not self._last_good:
            self._width = self._backend.row_width(active.model)
            self._last_good = active
        return active.version, active.model

    def _score(self, model: Any, method: str, batch: np.ndarray) -> Any:
        """One (chaos-wrapped, retried) model call on a stacked batch."""
        bound = getattr(model, method)
        if self.fault_injector is not None:
            if self.resilience is not None:
                return self.resilience.retry.call(
                    self.fault_injector.call, "model", bound, batch
                )
            return self.fault_injector.call("model", bound, batch)
        if self.resilience is not None:
            return self.resilience.retry.call(bound, batch)
        return bound(batch)

    def _dispatch(
        self, lane: int, method: str, rows: List[np.ndarray]
    ) -> List[Any]:
        """Score a coalesced batch from ``lane`` with one backend call.

        Runs on a batcher worker thread; when the head request captured
        its submit-time context the worker restored it around this
        call, so the dispatch span parents to that request's span.
        Without a restored span (untraced or unsampled submitter) the
        dispatch is not traced — a parentless dispatch root would be an
        orphan trace no summary could attach to a request.
        """
        traced = tracing.current_span() is not None
        with (
            self._start_span(
                "serve/dispatch", method=method, batch_size=len(rows)
            )
            if traced
            else contextlib.nullcontext()
        ) as span:
            version, model = self._resolve()
            with self.metrics.timer("serve/dispatch_seconds"):
                version, out = self._backend.score(
                    lane, method, rows, version, model, span
                )
        self.metrics.counter("serve/batches_total").inc()
        lane_batches, lane_requests = self._lane_counters[lane]
        lane_batches.inc()
        lane_requests.inc(float(len(rows)))
        self.metrics.histogram("serve/batch_size").observe(len(rows))
        self._gauge_depth()
        results = list(out)
        if self.cache.maxsize:
            for row, result in zip(rows, results):
                self._cache_put(
                    PredictionCache.make_key(method, version, row), result
                )
        return results

    def _cache_put(self, key: bytes, value: Any) -> None:
        """Store a result, routing through cache chaos and degrading on error.

        Under chaos the ``"cache"`` site may corrupt the stored bytes;
        the poisoned copy is planted under the *honest* checksum
        (:meth:`PredictionCache.put_poisoned`) so the next lookup
        detects the mismatch and recomputes — the detectable-corruption
        drill.  Any cache failure only costs the memoization, never the
        request: errors are counted (``resilience/cache_errors_total``)
        and swallowed.
        """
        try:
            if self.fault_injector is not None:
                checksum_value = value
                stored = self.fault_injector.corrupt("cache", value)
                if stored is not checksum_value and self.cache.integrity:
                    self.cache.put_poisoned(key, stored, checksum_value)
                    return
                value = stored
            self.cache.put(key, value)
        except Exception:
            self.metrics.counter("resilience/cache_errors_total").inc()

    def _predict_inline(
        self,
        method: str,
        row: np.ndarray,
        model: Any,
        key: Optional[bytes],
        start: float,
    ) -> Any:
        """Single-item sync path: shed, expired and rescued requests.

        Scores on this process's own snapshot of the resolved model —
        the guarantee that no request is ever dropped, whatever state
        the backend's lanes are in.
        """
        with self._start_span("serve/inline_predict", method=method):
            result = self._score(model, method, row[np.newaxis, ...])[0]
        if key is not None:
            self._cache_put(key, result)
        self._observe_latency(self.metrics.clock() - start)
        return result

    def _finish(self, request: ServeRequest, start: float) -> Any:
        """Deliver a completed request's result (or rescue/raise its error).

        A request whose coalesced batch failed is re-scored alone on the
        caller's thread (``serve/rescued_total``) when the error is one
        the backend always rescues (a dead shard, say) or, under
        ``rescue_batch_errors``, any error the dispatch retries did not
        absorb — one poisoned row can fail a batch, but it should not
        fail its 31 neighbours.  :class:`ServerClosed` is never rescued
        by policy; shutdown is not a fault.
        """
        error = request.error
        if error is not None:
            policy = self.resilience
            if isinstance(error, self._backend.rescues) or (
                policy is not None
                and policy.rescue_batch_errors
                and not isinstance(error, ServerClosed)
            ):
                add_event("row_rescue", error=type(error).__name__)
                self.metrics.counter("serve/rescued_total").inc()
                version, model = self._resolve()
                key = (
                    PredictionCache.make_key(
                        request.method, version, request.row
                    )
                    if self.cache.maxsize
                    else None
                )
                return self._predict_inline(
                    request.method, request.row, model, key, start
                )
            self._observe_latency(self.metrics.clock() - start)
            raise error
        self._observe_latency(self.metrics.clock() - start)
        return request.result

    def _observe_latency(self, seconds: float) -> None:
        self.metrics.histogram("serve/latency_seconds").observe(seconds)

    def _depth(self) -> int:
        return sum(map(MicroBatcher.depth, self._lanes))

    def _gauge_depth(self) -> None:
        self.metrics.gauge("serve/queue_depth").set(self._depth())

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the lanes, then the backend (idempotent).

        ``drain=True`` completes queued requests first; ``drain=False``
        fails them promptly with :class:`ServerClosed`.  Either way no
        accepted request is left blocking forever.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for lane in self._lanes:
            lane.close(drain=drain)
        self._backend.shutdown()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun; closed servers reject requests."""
        with self._close_lock:
            return self._closed

    def health(self) -> Dict[str, Any]:
        """Liveness/diagnostics probe: one operator-facing dict, one shape.

        Keys (see ``docs/RUNBOOK.md`` for the semantics table):

        - ``status`` — ``"ok"``, ``"degraded"`` (some circuit breaker is
          not closed, a shard is dead, the model is stale or none is
          resolvable: the stack answers but from fallbacks), or
          ``"closed"``;
        - ``queue_depth`` / ``queue_capacity`` / ``queue_saturation`` —
          backpressure headroom summed over every lane (saturation 1.0
          means new requests shed to the inline path);
        - ``workers`` — dispatch threads across every lane;
        - ``cache`` — the full :meth:`PredictionCache.stats` snapshot
          (hit rate, evictions, detected corruptions);
        - ``breakers`` — ``{name: state}`` for every breaker in the
          resilience policy and the backend;
        - ``active_model`` — ``{"name", "version", "stale"}`` of what a
          request would be scored by right now (``version=None`` when
          nothing is resolvable), ``stale=True`` when that is the
          last-known-good fallback because the registry is unreachable;
        - ``n_shards`` / ``alive_shards`` / ``shards`` — one status
          entry per shard (``shard``, ``alive``, ``queue_depth``,
          ``active_version``, ``breaker``, ``respawns``, ``pid``).  The
          in-process backend reports this process as its one shard.
        """
        breakers = {
            breaker.name: breaker.state
            for breaker in (
                (self.resilience.breakers() if self.resilience else [])
                + self._backend.breakers()
            )
        }
        version: Optional[str] = "v0"
        stale = False
        if self._registry is not None:
            try:
                version = self._load_live().version
            except Exception:
                snapshot = self._last_good
                if snapshot is not None and self.resilience is not None:
                    version, stale = snapshot.version, True
                else:
                    version = None
        shards = self._backend.shard_statuses(version)
        alive = sum(1 for shard in shards if shard["alive"])
        depth = sum(int(shard["queue_depth"]) for shard in shards)
        capacity = sum(lane.max_queue for lane in self._lanes)
        closed_now = self.closed
        if closed_now:
            status = "closed"
        elif (
            version is None
            or stale
            or alive < len(shards)
            or any(state != "closed" for state in breakers.values())
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "closed": closed_now,
            "queue_depth": depth,
            "queue_capacity": capacity,
            "queue_saturation": depth / capacity if capacity else 0.0,
            "workers": sum(lane.workers for lane in self._lanes),
            "cache": self.cache.stats(),
            "breakers": breakers,
            "active_model": {
                "name": self._name or type(self._model).__name__,
                "version": version,
                "stale": stale,
            },
            "n_shards": len(shards),
            "alive_shards": alive,
            "shards": shards,
        }

    def ready(self) -> bool:
        """Readiness probe: can this replica answer a request right now?

        True when the server is open *and* a model is resolvable —
        either live or via the stale-snapshot fallback.  A fleet with
        dead shards is still ready: the inline path answers for them.
        Load balancers should route only to ready replicas;
        :meth:`health` explains *why* one is not.
        """
        if self.closed:
            return False
        try:
            self._resolve()
        except Exception:
            return False
        return True

    def stats(self) -> Dict[str, Any]:
        """Derived serving stats on top of the raw metrics snapshot."""
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        batch_hist = self.metrics.histogram("serve/batch_size")
        latency_hist = self.metrics.histogram("serve/latency_seconds")
        stats: Dict[str, Any] = {
            "requests": counters.get("serve/requests_total", 0.0),
            "batches": counters.get("serve/batches_total", 0.0),
            "shed": counters.get("serve/shed_total", 0.0),
            "deadline_expired": counters.get(
                "serve/deadline_expired_total", 0.0
            ),
            "rescued": counters.get("serve/rescued_total", 0.0),
            "stale_model_served": counters.get(
                "resilience/stale_model_served_total", 0.0
            ),
            "retries": counters.get("resilience/retries_total", 0.0),
            "respawns": sum(
                int(shard["respawns"])
                for shard in self._backend.shard_statuses(None)
            ),
            "shard_requests": {
                str(lane): counters.get(
                    f"serve/shard/{lane}/requests_total", 0.0
                )
                for lane in range(len(self._lanes))
            },
            "cache_hit_rate": self.cache.hit_rate,
            "mean_batch_size": (
                batch_hist.mean if batch_hist.count else 0.0
            ),
            "metrics": snapshot,
        }
        if latency_hist.count:
            stats["latency_p50_ms"] = latency_hist.quantile(0.5) * 1e3
            stats["latency_p99_ms"] = latency_hist.quantile(0.99) * 1e3
        return stats

    def __repr__(self) -> str:
        target = (
            f"registry:{self._name}" if self._registry is not None
            else type(self._model).__name__
        )
        return (
            f"{type(self).__name__}({target}, shards={len(self._lanes)}, "
            f"max_batch_size={self._lanes[0].max_batch_size}, "
            f"closed={self.closed})"
        )
