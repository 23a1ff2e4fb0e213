"""Sharded serving: the ``ModelServer`` lifecycle over a process fleet.

:class:`ShardedModelServer` is a :class:`~repro.serve.server.ModelServer`
whose coalesced batches are scored by a :class:`ShardFleet` — N worker
*processes* instead of GIL-bound threads.  Validation, resolution, the
cache, micro-batching, shedding, deadlines, rescue and the
health/ready/stats probes are the one lifecycle in
:mod:`repro.serve.server`; the fleet owns only what differs:

- **routing** — every request's content key (method + row bytes) lands
  on a shard via a seeded consistent-hash ring, so identical rows
  always reach the same worker and changing the fleet size moves only
  ~1/N of the keyspace;
- **lanes** — each shard has its own parent-side
  :class:`~repro.serve.batching.MicroBatcher` (one dispatcher thread);
- **dispatch** — a coalesced batch travels to its worker through a
  shared-memory slab (no per-request pickling) and the results fan
  back from the response slab, with worker-side timing recorded as a
  child span of the dispatch;
- **resilience** — each shard sits behind its own
  :class:`~repro.serve.resilience.CircuitBreaker`; dead or tripped
  shards are routed around on the ring, a batch stranded by a worker
  death is always rescued row-by-row on the parent's own model
  snapshot (``serve/rescued_total`` — zero requests dropped), and the
  supervisor respawns the worker with the last-known-good state;
- **hot-swap** — when the version the server resolves for a batch
  moves, the fleet broadcasts its state blob to every worker before
  scoring under it, so a publish atomically reaches the whole fleet.

Per-shard instruments (``serve/shard/<i>/...``) sit alongside the
aggregate ones, and the per-shard entries of
:meth:`~repro.serve.server.ModelServer.health` make a half-dead fleet
distinguishable from a healthy one.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ... import rng as repro_rng
from ...telemetry.metrics import MetricsRegistry
from ...telemetry.trace import Tracer, add_event
from ..batching import MicroBatcher
from ..registry import ModelRegistry
from ..resilience import (
    BreakerOpen,
    CircuitBreaker,
    FaultInjector,
    ResiliencePolicy,
)
from ..server import ModelServer
from .hashing import ConsistentHashRing, routing_key
from .shm import ScoreResult, ShardDead, ShardWorkerError
from .supervisor import ShardSupervisor

__all__ = ["ShardFleet", "ShardedModelServer"]

#: Virtual nodes per shard on the consistent-hash ring.
RING_REPLICAS = 64

#: Seed of the ring layout; replicas of one deployment must agree on it.
RING_SEED = repro_rng.REPRO_DEFAULT_SEED

#: Seconds a dispatch waits on a *live but silent* worker before
#: declaring the shard dead (a killed worker is detected within one
#: liveness poll, independent of this).
DISPATCH_TIMEOUT = 30.0

_PROBE_METHODS = ("predict", "predict_proba", "decision_function")


def _probe_methods(model: Any, n_features: int) -> Dict[str, int]:
    """Per-method output width, probed once on a zero row."""
    widths: Dict[str, int] = {}
    probe = np.zeros((1, n_features), dtype=np.float64)
    for method in _PROBE_METHODS:
        bound = getattr(model, method, None)
        if not callable(bound):
            continue
        try:
            out = np.asarray(bound(probe))
        except Exception:
            continue
        widths[method] = max(1, int(out.reshape(1, -1).shape[1]))
    return widths


class ShardFleet:
    """Dispatch backend scoring batches on ``n_shards`` worker processes.

    Rows are cast to float64 (the slab dtype) at validation, and a dead
    worker, a worker-side error or an open shard breaker is always
    rescued inline, whatever the resilience policy says.
    """

    rescues: Tuple[Type[BaseException], ...] = (
        ShardDead, ShardWorkerError, BreakerOpen,
    )
    row_dtype: Optional[type] = np.float64

    def __init__(
        self,
        server: ModelServer,
        snapshot: Any,
        version: str,
        n_shards: int,
        n_features: Optional[int],
        max_batch_size: int,
        batch_timeout: float,
        max_queue: int,
        monitor_interval: float,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        width = n_features or getattr(snapshot, "n_features", None)
        if width is None:
            raise ValueError(
                "pass n_features= (model does not self-describe its row "
                "width)"
            )
        self.n_features = int(width)
        out_widths = _probe_methods(snapshot, self.n_features)
        if not out_widths:
            raise ValueError(
                f"model {type(snapshot).__name__} supports none of "
                f"{_PROBE_METHODS}"
            )
        self._metrics = server.metrics
        self._injector = server.fault_injector
        self.ring = ConsistentHashRing(
            n_shards, replicas=RING_REPLICAS, seed=RING_SEED
        )
        self._version = version
        self._swap_lock = threading.Lock()
        # Workers fork *here*, before any thread below exists.
        self.supervisor = ShardSupervisor(
            snapshot,
            n_shards=n_shards,
            slots=max_batch_size,
            n_features=self.n_features,
            out_width=max(out_widths.values()),
            version=version,
            metrics=self._metrics,
            monitor_interval=monitor_interval,
        )
        self._breakers = [
            CircuitBreaker(
                name=f"shard{i}",
                window=16,
                failure_threshold=0.5,
                min_calls=4,
                reset_timeout=0.25,
                half_open_probes=1,
                metrics=self._metrics,
            )
            for i in range(n_shards)
        ]
        self.lanes = [
            MicroBatcher(
                functools.partial(server._dispatch, i),
                max_batch_size=max_batch_size,
                batch_timeout=batch_timeout,
                max_queue=max_queue,
                workers=1,
            )
            for i in range(n_shards)
        ]
        self.supervisor.start()

    @property
    def version(self) -> str:
        """Version every worker has acknowledged."""
        with self._swap_lock:
            return self._version

    def row_width(self, model: Any) -> Optional[int]:
        """The slab width, whatever the model."""
        return self.n_features

    def route(self, method: str, row: np.ndarray) -> int:
        """Ring-route a request, skipping dead or breaker-open shards."""
        alive = self.supervisor.alive_mask()
        routable = [
            alive[i] and self._breakers[i].state != "open"
            for i in range(len(alive))
        ]
        key = routing_key(method, np.ascontiguousarray(row).tobytes())
        return self.ring.route(key, alive=routable)

    def sync(self, version: str, model: Any) -> None:
        """Move every worker to ``model`` unless already on ``version``.

        A no-op when the fleet is already there, so concurrent callers
        race harmlessly; when it returns, no worker scores another batch
        with the previous parameters.
        """
        with self._swap_lock:
            if version == self._version:
                return
            self.supervisor.broadcast_swap(version, model)
            self._version = version
        add_event("sharded_hot_swap", version=version,
                  shards=self.supervisor.n_shards)

    def score(
        self,
        lane: int,
        method: str,
        rows: List[np.ndarray],
        version: str,
        model: Any,
        span: Any,
    ) -> Tuple[str, Sequence[Any]]:
        """Score one coalesced batch on shard ``lane``'s worker.

        Runs on that shard's dispatcher thread.  A dead worker raises
        :class:`~repro.serve.sharding.shm.ShardDead` through the
        breaker (tripping it) and triggers an eager respawn; the
        batcher delivers the error to every waiter, whose ``_finish``
        rescues each row inline.  Returns the version the worker
        actually scored with — it can lag a concurrent hot-swap by one
        in-flight batch, and it is what labels the cache entries.
        """
        self.sync(version, model)
        batch = np.ascontiguousarray(np.stack(rows), dtype=np.float64)
        try:
            with self._metrics.timer(f"serve/shard/{lane}/dispatch_seconds"):
                result = self._breakers[lane].call(
                    self._score_on_worker, lane, method, batch
                )
        except ShardDead:
            add_event("shard_dead", shard=lane)
            self._metrics.counter(f"serve/shard/{lane}/deaths_total").inc()
            self.supervisor.respawn(lane)
            raise
        if span is not None:
            span.set_attribute("shard", lane)
            span.record_child(
                "serve/worker_score", result.worker_seconds,
                attributes={"shard": lane},
            )
        self._metrics.gauge(f"serve/shard/{lane}/queue_depth").set(
            self.lanes[lane].depth()
        )
        return result.version, [result.row_value(i) for i in range(len(rows))]

    def _score_on_worker(
        self, lane: int, method: str, batch: np.ndarray
    ) -> ScoreResult:
        """One worker round trip, under the ``"model"`` chaos site."""
        channel = self.supervisor.handles[lane].channel
        if self._injector is not None:
            result: ScoreResult = self._injector.call(
                "model", channel.score, method, batch, DISPATCH_TIMEOUT
            )
            return result
        return channel.score(method, batch, DISPATCH_TIMEOUT)

    def breakers(self) -> List[CircuitBreaker]:
        """The per-shard breakers, index-aligned with the ring."""
        return list(self._breakers)

    def shard_statuses(self, version: Optional[str]) -> List[Dict[str, Any]]:
        """Supervisor view plus each shard's queue depth and breaker."""
        statuses = self.supervisor.statuses()
        for status in statuses:
            shard_id = int(status["shard"])
            status["queue_depth"] = self.lanes[shard_id].depth()
            status["breaker"] = self._breakers[shard_id].state
        return statuses

    def shutdown(self) -> None:
        """Stop the supervisor and the worker processes."""
        self.supervisor.close()


class ShardedModelServer(ModelServer):
    """Serve ``predict``-family queries across a sharded process fleet.

    Parameters are those of :class:`~repro.serve.server.ModelServer`
    (``max_batch_size``, ``batch_timeout`` and ``max_queue`` apply per
    shard; each shard has one dispatcher thread, so there is no
    ``workers``), plus:

    n_shards:
        Worker process count.
    n_features:
        Row width; defaults to ``model.n_features`` when the model
        self-describes.
    monitor_interval:
        Seconds between the supervisor's liveness sweeps.

    The fleet's ``supervisor`` (kill/respawn drills use it), its
    consistent-hash ``ring`` and ``n_shards`` are attributes.
    """

    def __init__(
        self,
        model: Any = None,
        registry: Optional[ModelRegistry] = None,
        name: Optional[str] = None,
        n_shards: int = 2,
        n_features: Optional[int] = None,
        max_batch_size: int = 32,
        batch_timeout: float = 0.002,
        max_queue: int = 256,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        resilience: Optional[ResiliencePolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        monitor_interval: float = 0.05,
    ) -> None:
        self._fleet_shape = (n_shards, n_features, monitor_interval)
        super().__init__(
            model, registry, name, max_batch_size, batch_timeout, max_queue,
            1, cache_size, metrics, resilience, fault_injector, tracer,
        )

    def _make_backend(
        self,
        max_batch_size: int,
        batch_timeout: float,
        max_queue: int,
        workers: int,
    ) -> ShardFleet:
        """Fork the fleet on the active registry snapshot (or ``model``)."""
        n_shards, n_features, monitor_interval = self._fleet_shape
        if self._registry is not None:
            active = self._registry.active(self._name or "")
            version, snapshot = active.version, active.model
        else:
            version, snapshot = "v0", self._model
        fleet = ShardFleet(
            self, snapshot, version, n_shards, n_features, max_batch_size,
            batch_timeout, max_queue, monitor_interval,
        )
        self._fleet = fleet
        self.supervisor = fleet.supervisor
        self.ring = fleet.ring
        self.n_shards = n_shards
        return fleet

    @property
    def version(self) -> str:
        """Version every worker has acknowledged."""
        return self._fleet.version

    def hot_swap(self, version: Optional[str] = None) -> str:
        """Atomically move the whole fleet to ``version`` now.

        ``None`` means the registry's currently active version.  Returns
        the version installed.  Without this call the fleet follows the
        registry on the next dispatched batch.
        """
        registry = self._registry
        if registry is None:
            raise RuntimeError("hot_swap requires a registry-backed server")
        name = self._name or ""
        target = version or registry.active_version(name)
        if target is None:
            raise KeyError(f"model {name!r} has no active version")
        if target != self.version:
            self._fleet.sync(target, registry.load(name, target))
        return target
