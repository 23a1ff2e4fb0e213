"""Micro-batching equivalence, caching, backpressure and lifecycle.

Tests taking the ``backend`` fixture hold for every dispatch backend;
``test_sharding.py`` runs them again on the shard fleet.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.linear.logistic import LogisticRegression
from repro.serve import (
    FaultInjector,
    FaultProfile,
    InvalidRequest,
    MicroBatcher,
    ModelRegistry,
    PredictionCache,
)

D = 12


@pytest.fixture
def model():
    return LogisticRegression(D, rng=np.random.default_rng(0))


@pytest.fixture
def x():
    return np.random.default_rng(1).normal(size=(96, D))


class SlowModel:
    """Wraps a model with a per-call delay to force queue build-up."""

    def __init__(self, inner, delay=0.01):
        self.inner = inner
        self.n_features = inner.n_features
        self.delay = delay
        self.calls = 0

    def predict(self, batch):
        self.calls += 1
        time.sleep(self.delay)
        return self.inner.predict(batch)


# ----------------------------------------------------------------------
# Batching equivalence
# ----------------------------------------------------------------------
def test_microbatched_predictions_bit_identical(backend, model, x):
    """Coalesced labels must equal per-request labels bit for bit."""
    per_request = np.array([model.predict(row)[0] for row in x])
    with backend(model=model, max_batch_size=16, cache_size=0) as server:
        batched = np.array(server.predict_many(x))
        assert server.stats()["mean_batch_size"] > 1.0  # really coalesced
    assert batched.dtype == per_request.dtype
    assert np.array_equal(batched, per_request)


def test_microbatched_probabilities_match_per_request(backend, model, x):
    # Probabilities agree to reduction-order precision (the batch shape
    # changes the BLAS summation order, so bitwise equality is not
    # guaranteed — labels are covered by the bit-identical test above).
    per_request = np.array([model.predict_proba(row)[0] for row in x])
    with backend(model=model, max_batch_size=16, cache_size=0) as server:
        batched = np.array(server.predict_many(x, method="predict_proba"))
    np.testing.assert_allclose(batched, per_request, rtol=0.0, atol=1e-12)


def test_concurrent_single_requests_equivalent(backend, model, x):
    expected = model.predict(x)
    with backend(model=model, max_batch_size=8) as server:
        with ThreadPoolExecutor(max_workers=12) as pool:
            got = np.array(list(pool.map(server.predict, x)))
    assert np.array_equal(got, expected)


def test_single_row_accepts_1d_and_1xn(backend, model, x):
    with backend(model=model) as server:
        a = server.predict(x[0])
        b = server.predict(x[0][np.newaxis, :])
        assert a == b == model.predict(x[:1])[0]
        score = server.decision_function(x[0])
        assert np.isclose(score, model.decision_function(x[:1])[0])


def test_mixed_methods_route_correctly(backend, model, x):
    with backend(model=model, cache_size=0) as server:
        with ThreadPoolExecutor(max_workers=8) as pool:
            labels = pool.map(server.predict, x[:20])
            probas = pool.map(server.predict_proba, x[:20])
            labels, probas = np.array(list(labels)), np.array(list(probas))
    assert np.array_equal(labels, model.predict(x[:20]))
    np.testing.assert_allclose(
        probas, model.predict_proba(x[:20]), rtol=0.0, atol=1e-12
    )


def test_unsupported_method_rejected(backend, model, x):
    with backend(model=model) as server:
        with pytest.raises(ValueError, match="does not support"):
            server.request("decision_boundary", x[0])


# ----------------------------------------------------------------------
# Prediction cache
# ----------------------------------------------------------------------
def test_cache_hits_and_counters(backend, model, x):
    with backend(model=model) as server:
        first = server.predict(x[0])
        second = server.predict(x[0])
        assert first == second
        counters = server.stats()["metrics"]["counters"]
        assert counters["serve/cache_hits_total"] == 1
        assert counters["serve/cache_misses_total"] == 1
        assert counters["serve/requests_total"] == 2
        # A different method misses: the method is part of the key.
        server.predict_proba(x[0])
        counters = server.stats()["metrics"]["counters"]
        assert counters["serve/cache_misses_total"] == 2


def test_cache_lru_eviction():
    cache = PredictionCache(maxsize=2)
    keys = [
        PredictionCache.make_key("predict", "v1", np.array([float(i)]))
        for i in range(3)
    ]
    cache.put(keys[0], 0)
    cache.put(keys[1], 1)
    assert cache.get(keys[0]) == (True, 0)  # refresh 0; 1 is now LRU
    cache.put(keys[2], 2)
    assert cache.get(keys[1]) == (False, None)
    assert cache.get(keys[0]) == (True, 0)
    assert len(cache) == 2


def test_hot_swap_invalidates_cache_by_key(backend):
    registry = ModelRegistry()
    registry.register("m", lambda: LogisticRegression(D, weight_init_std=0.0))
    m1 = LogisticRegression(D, rng=np.random.default_rng(3))
    m2 = LogisticRegression(D, rng=np.random.default_rng(4))
    registry.publish("m", m1)
    row = np.random.default_rng(5).normal(size=D)
    with backend(registry=registry, name="m") as server:
        before = server.predict_proba(row)
        assert np.isclose(before, m1.predict_proba(row)[0])
        registry.publish("m", m2)  # hot-swap; old cache entries unreachable
        after = server.predict_proba(row)
        assert np.isclose(after, m2.predict_proba(row)[0])


# ----------------------------------------------------------------------
# Backpressure, deadlines, degradation
# ----------------------------------------------------------------------
def test_saturation_sheds_without_errors(backend, model, x):
    slow = SlowModel(model, delay=0.02)
    server = backend(
        model=slow, max_batch_size=4, max_queue=4, workers=1,
        batch_timeout=0.0, cache_size=0,
    )
    expected = model.predict(x)
    with server:
        with ThreadPoolExecutor(max_workers=24) as pool:
            got = np.array(list(pool.map(server.predict, x)))
    stats = server.stats()
    # Graceful degradation: every request answered, correctly, while the
    # bounded queue shed overflow to the inline path.
    assert np.array_equal(got, expected)
    assert stats["shed"] > 0
    assert stats["requests"] == len(x)


def test_queue_bound_is_respected():
    calls = []

    def dispatch(method, rows):
        calls.append(len(rows))
        return [0] * len(rows)

    from repro.serve.batching import ServeRequest

    batcher = MicroBatcher(
        dispatch, max_batch_size=4, batch_timeout=0.0, max_queue=3, workers=1
    )
    # A burst larger than the bound is only accepted up to the bound.
    requests = [ServeRequest("predict", np.zeros(1), 0.0) for _ in range(10)]
    accepted = batcher.submit_many(requests)
    assert accepted == 3
    for request in requests[:accepted]:
        request.event.wait(timeout=5.0)
    batcher.close()


def test_deadline_expiry_degrades_to_inline(backend, model, x):
    slow = SlowModel(model, delay=0.05)
    server = backend(
        model=slow, max_batch_size=2, max_queue=64, workers=1,
        batch_timeout=0.0, cache_size=0,
    )
    expected = model.predict(x[:12])
    with server:
        with ThreadPoolExecutor(max_workers=12) as pool:
            got = np.array(
                list(pool.map(lambda row: server.predict(row, deadline=0.01),
                              x[:12]))
            )
    stats = server.stats()
    assert np.array_equal(got, expected)  # deadlines never cost correctness
    assert stats["deadline_expired"] > 0


def test_dispatch_errors_propagate_to_callers(backend, x):
    class Exploding:
        """Answers the all-zero probe a shard fleet sends, then explodes."""

        n_features = D

        def predict(self, batch):
            if batch.any():
                raise RuntimeError("kaboom")
            return np.zeros(len(batch), dtype=np.int64)

    with backend(model=Exploding(), cache_size=0) as server:
        with pytest.raises(RuntimeError, match="kaboom"):
            server.predict(x[0])


# ----------------------------------------------------------------------
# Lifecycle and metrics accounting
# ----------------------------------------------------------------------
def test_close_drains_and_further_requests_rejected(backend, model, x):
    server = backend(model=model, cache_size=0)
    assert server.predict(x[0]) == model.predict(x[:1])[0]
    server.close()
    server.close()  # idempotent
    assert server.closed
    with pytest.raises(RuntimeError):
        server.predict(x[0])
    with pytest.raises(RuntimeError):
        server.predict_many(x[:2])


def test_metrics_account_for_every_request(backend, model, x):
    with backend(model=model, max_batch_size=8, cache_size=0) as server:
        server.predict_many(x)
        snapshot = server.stats()
    counters = snapshot["metrics"]["counters"]
    histograms = snapshot["metrics"]["histograms"]
    assert counters["serve/requests_total"] == len(x)
    # Every non-shed request went through exactly one dispatched batch.
    assert histograms["serve/batch_size"]["sum"] + snapshot["shed"] == len(x)
    assert histograms["serve/latency_seconds"]["count"] == len(x)
    assert snapshot["metrics"]["gauges"]["serve/queue_depth"] == 0
    assert "latency_p50_ms" in snapshot and "latency_p99_ms" in snapshot


def test_registry_server_requires_name(backend, model):
    with pytest.raises(ValueError):
        backend(model=model, registry=ModelRegistry())
    with pytest.raises(ValueError):
        backend(registry=ModelRegistry())
    with pytest.raises(ValueError):
        backend()


# ----------------------------------------------------------------------
# Boundary validation
# ----------------------------------------------------------------------
def test_wrong_width_row_fails_alone_in_its_batch(backend, model, x):
    """A 13-wide row among four good ones must not fail its neighbours."""
    server = backend(model=model, batch_timeout=0.05, cache_size=0)
    rows = list(x[:4]) + [np.ones(D + 1)]

    def call(row):
        try:
            return server.predict(row)
        except InvalidRequest as exc:
            return exc

    with ThreadPoolExecutor(max_workers=len(rows)) as pool:
        got = list(pool.map(call, rows))
    assert got[:4] == list(model.predict(x[:4]))
    assert isinstance(got[4], InvalidRequest)
    assert got[4].reason == "shape"
    counters = server.stats()["metrics"]["counters"]
    assert counters["serve/rejected/shape_total"] == 1
    assert counters["serve/requests_total"] == 4


@pytest.mark.parametrize(
    "reason, bad_row",
    [
        ("shape", np.zeros(D + 1)),
        ("dtype", np.array(["0.5"] * D)),
        ("non_finite", np.r_[np.zeros(D - 1), np.nan]),
    ],
)
def test_invalid_row_raises_typed_error_and_counts(
    backend, model, x, reason, bad_row
):
    server = backend(model=model)
    with pytest.raises(InvalidRequest) as info:
        server.predict(bad_row)
    assert info.value.reason == reason
    # predict_many checks the whole array up front: nothing is queued.
    with pytest.raises(InvalidRequest):
        server.predict_many(np.stack([x[0], bad_row]) if reason != "shape"
                            else [x[0], bad_row, x[1]])
    counters = server.stats()["metrics"]["counters"]
    assert counters[f"serve/rejected/{reason}_total"] >= 2
    assert counters.get("serve/requests_total", 0.0) == 0
    assert server.predict(x[0]) == model.predict(x[:1])[0]


def test_registry_outage_serves_stale_and_health_says_so(backend, model, x):
    registry = ModelRegistry()
    registry.register("m", lambda: LogisticRegression(D, weight_init_std=0.0))
    version = registry.publish("m", model)
    injector = FaultInjector(seed=2018)
    server = backend(
        registry=registry, name="m", cache_size=0, fault_injector=injector,
    )
    assert server.predict(x[0]) == model.predict(x[:1])[0]
    assert server.health()["active_model"]["stale"] is False
    injector.profiles["registry"] = FaultProfile(error_rate=1.0)
    got = [server.predict(row) for row in x[1:5]]
    assert got == list(model.predict(x[1:5]))
    health = server.health()
    assert health["active_model"] == {
        "name": "m", "version": version, "stale": True,
    }
    assert health["status"] == "degraded"
    assert server.stats()["stale_model_served"] > 0
    assert server.ready()
