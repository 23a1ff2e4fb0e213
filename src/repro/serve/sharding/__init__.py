"""Multi-process sharded serving tier.

A dispatch backend for :class:`~repro.serve.server.ModelServer`, built
from four pieces:

- :mod:`~repro.serve.sharding.hashing` — seeded consistent-hash ring
  (stable, bounded-movement routing of cache-keyed requests);
- :mod:`~repro.serve.sharding.shm` — shared-memory slab channel (row
  data never crosses the process boundary through pickle);
- :mod:`~repro.serve.sharding.worker` — the shard process loop with an
  isolated model snapshot and in-place hot-swap;
- :mod:`~repro.serve.sharding.supervisor` — spawn/watch/respawn with
  last-known-good snapshots and atomic swap broadcast;
- :mod:`~repro.serve.sharding.server` — the
  :class:`~repro.serve.sharding.server.ShardFleet` backend and
  :class:`~repro.serve.sharding.server.ShardedModelServer`, the
  ``ModelServer`` that scores on it.
"""

from .hashing import ConsistentHashRing, routing_key
from .server import ShardedModelServer, ShardFleet
from .shm import ScoreResult, ShardChannel, ShardDead, ShardWorkerError
from .supervisor import ShardHandle, ShardSupervisor
from .worker import apply_state_blob, shard_worker_main, state_blob

__all__ = [
    "ConsistentHashRing",
    "routing_key",
    "ShardedModelServer",
    "ShardFleet",
    "ScoreResult",
    "ShardChannel",
    "ShardDead",
    "ShardWorkerError",
    "ShardHandle",
    "ShardSupervisor",
    "apply_state_blob",
    "shard_worker_main",
    "state_blob",
]
