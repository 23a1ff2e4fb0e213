"""Sharded tier: routing, chaos recovery, hot-swap, health.

The backend-independent expectations of ``test_server.py`` and
``test_tracing.py`` run here a second time, on the shard fleet
(``BACKEND`` selects it for the ``backend`` fixture in conftest.py).
This module adds only what is particular to the fleet.
"""

import time

import numpy as np
import pytest

from repro.linear.logistic import LogisticRegression
from repro.serve import ModelRegistry, ModelServer, ServerClosed
from repro.serve.sharding import ShardedModelServer
# Collected a second time here, on the fleet.
from test_server import (
    test_cache_hits_and_counters,  # noqa: F401
    test_close_drains_and_further_requests_rejected,  # noqa: F401
    test_concurrent_single_requests_equivalent,  # noqa: F401
    test_deadline_expiry_degrades_to_inline,  # noqa: F401
    test_dispatch_errors_propagate_to_callers,  # noqa: F401
    test_hot_swap_invalidates_cache_by_key,  # noqa: F401
    test_invalid_row_raises_typed_error_and_counts,  # noqa: F401
    test_metrics_account_for_every_request,  # noqa: F401
    test_microbatched_predictions_bit_identical,  # noqa: F401
    test_microbatched_probabilities_match_per_request,  # noqa: F401
    test_mixed_methods_route_correctly,  # noqa: F401
    test_registry_outage_serves_stale_and_health_says_so,  # noqa: F401
    test_registry_server_requires_name,  # noqa: F401
    test_saturation_sheds_without_errors,  # noqa: F401
    test_single_row_accepts_1d_and_1xn,  # noqa: F401
    test_unsupported_method_rejected,  # noqa: F401
    test_wrong_width_row_fails_alone_in_its_batch,  # noqa: F401
)
from test_tracing import (
    test_breaker_transition_becomes_span_event,  # noqa: F401
    test_cache_hit_is_an_event_on_the_request_span,  # noqa: F401
    test_chaos_retry_and_stale_fallback_reconstructable,  # noqa: F401
    test_concurrent_requests_get_distinct_traces,  # noqa: F401
    test_request_and_dispatch_share_one_trace,  # noqa: F401
    test_unsampled_requests_export_nothing,  # noqa: F401
    test_untraced_server_works_identically,  # noqa: F401
)

BACKEND = "sharded"
D = 12


@pytest.fixture
def model():
    return LogisticRegression(D, rng=np.random.default_rng(0))


@pytest.fixture
def x():
    return np.random.default_rng(1).normal(size=(96, D))


@pytest.fixture
def server(model):
    srv = ShardedModelServer(
        model=model, n_shards=2, monitor_interval=0.02,
        batch_timeout=0.001,
    )
    yield srv
    srv.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_single_request_paths(server, model, x):
    assert server.predict(x[0]) == model.predict(x[:1])[0]
    assert server.predict_proba(x[1]) == pytest.approx(
        model.predict_proba(x[:2])[1], abs=1e-12
    )


def test_same_row_always_routes_to_same_shard(model, x):
    srv = ShardedModelServer(
        model=model, n_shards=2, cache_size=0, monitor_interval=0.02,
    )
    try:
        for _ in range(10):
            srv.predict(x[0])
        split = srv.stats()["shard_requests"]
        active = [shard for shard, n in split.items() if n > 0]
        assert len(active) == 1  # content-hashed: one owner per row
    finally:
        srv.close()


# ----------------------------------------------------------------------
# Chaos: dead workers
# ----------------------------------------------------------------------
def test_kill_one_worker_drops_nothing(server, model, x):
    got1 = np.asarray(server.predict_many(x[:32]))
    server.supervisor.kill(0)
    got2 = np.asarray(server.predict_many(x))  # mid-death traffic
    assert np.array_equal(got1, model.predict(x[:32]))
    assert np.array_equal(got2, model.predict(x))


def test_dead_worker_is_respawned_and_serves_again(server, model, x):
    server.supervisor.kill(1)
    assert _wait_for(lambda: server.supervisor.handles[1].alive)
    assert server.supervisor.handles[1].respawns >= 1
    got = np.asarray(server.predict_many(x))
    assert np.array_equal(got, model.predict(x))


def test_health_reports_dead_shard_as_degraded(model):
    # A very slow monitor so the dead worker stays dead while we probe.
    srv = ShardedModelServer(
        model=model, n_shards=2, monitor_interval=30.0,
    )
    try:
        assert srv.health()["status"] == "ok"
        srv.supervisor.kill(0)
        assert _wait_for(
            lambda: not srv.supervisor.handles[0].alive
        )
        health = srv.health()
        assert health["status"] == "degraded"
        assert health["alive_shards"] == 1
        dead = health["shards"][0]
        assert dead["alive"] is False
        assert srv.ready()  # inline fallback still answers
        # Manual respawn restores full health.
        assert srv.supervisor.respawn(0)
        assert _wait_for(lambda: srv.health()["status"] == "ok")
    finally:
        srv.close()


# ----------------------------------------------------------------------
# Hot-swap propagation
# ----------------------------------------------------------------------
def _registry_with(model):
    registry = ModelRegistry()
    registry.register(
        "m", lambda: LogisticRegression(D, weight_init_std=0.0)
    )
    return registry, registry.publish("m", model)


def test_publish_reaches_every_worker(model, x):
    registry, v1 = _registry_with(model)
    srv = ShardedModelServer(
        registry=registry, name="m", n_shards=2, monitor_interval=0.02,
    )
    try:
        assert np.array_equal(
            np.asarray(srv.predict_many(x)), model.predict(x)
        )
        other = LogisticRegression(D, rng=np.random.default_rng(7))
        v2 = registry.publish("m", other)
        assert v2 != v1
        got = np.asarray(srv.predict_many(x))
        assert srv.version == v2
        assert np.array_equal(got, other.predict(x))
        for status in srv.supervisor.statuses():
            assert status["active_version"] == v2
    finally:
        srv.close()


def test_respawn_uses_last_known_good_version(model, x):
    registry, _v1 = _registry_with(model)
    srv = ShardedModelServer(
        registry=registry, name="m", n_shards=2, monitor_interval=0.02,
    )
    try:
        other = LogisticRegression(D, rng=np.random.default_rng(7))
        v2 = registry.publish("m", other)
        srv.hot_swap()
        srv.supervisor.kill(0)
        assert _wait_for(
            lambda: srv.supervisor.handles[0].alive
            and srv.supervisor.handles[0].respawns >= 1
        )
        assert srv.supervisor.statuses()[0]["active_version"] == v2
        got = np.asarray(srv.predict_many(x))
        assert np.array_equal(got, other.predict(x))
    finally:
        srv.close()


def test_hot_swap_requires_registry(server):
    with pytest.raises(RuntimeError, match="registry"):
        server.hot_swap()


# ----------------------------------------------------------------------
# Lifecycle and introspection
# ----------------------------------------------------------------------
def test_close_rejects_new_requests(model, x):
    srv = ShardedModelServer(model=model, n_shards=2)
    srv.close()
    assert srv.closed
    assert not srv.ready()
    assert srv.health()["status"] == "closed"
    with pytest.raises(ServerClosed):
        srv.predict(x[0])
    srv.close()  # idempotent


def test_health_shape(server):
    health = server.health()
    assert health["n_shards"] == 2
    assert len(health["shards"]) == 2
    for status in health["shards"]:
        for key in ("shard", "alive", "queue_depth", "active_version",
                    "breaker", "respawns", "pid"):
            assert key in status


def test_base_server_health_exposes_shards_key(model):
    with ModelServer(model=model) as srv:
        health = srv.health()
        assert health["n_shards"] == health["alive_shards"] == 1
        assert len(health["shards"]) == 1
        local = health["shards"][0]
        assert local["alive"] is True
        assert local["active_version"] == "v0"
        assert local["breaker"] is None
        assert local["respawns"] == 0


def test_health_key_set_matches_in_process(server, model):
    with ModelServer(model=model) as local:
        ours = local.health()
    fleet = server.health()
    assert ours.keys() == fleet.keys()
    assert ours["active_model"].keys() == fleet["active_model"].keys()
    assert ours["shards"][0].keys() == fleet["shards"][0].keys()


def test_stats_per_shard_split_sums_to_dispatched(server, x):
    server.predict_many(x)
    stats = server.stats()
    dispatched = sum(stats["shard_requests"].values())
    inline = stats["shed"] + stats["deadline_expired"] + stats["rescued"]
    cache_hits = stats["metrics"]["counters"].get(
        "serve/cache_hits_total", 0.0
    )
    assert dispatched + inline + cache_hits == stats["requests"]


def test_constructor_validation(model):
    with pytest.raises(ValueError, match="exactly one"):
        ShardedModelServer()
    with pytest.raises(ValueError, match="n_shards"):
        ShardedModelServer(model=model, n_shards=0)
    with pytest.raises(ValueError, match="n_features"):
        ShardedModelServer(model=object())
