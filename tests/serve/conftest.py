"""Serve-tier fixtures.

Every test runs under the runtime lock-order sanitizer: each
``threading.Lock``/``RLock``/``Condition`` created by ``repro.*``
modules during a test is a :class:`CheckedLock`; any lock-order
inversion observed live fails the test at teardown.  Recording mode
(no mid-flight raise) keeps worker threads alive so the request that
exhibited the inversion still completes — the teardown assertion is
what turns the suite red.

``backend`` builds the server under test, so one set of expectations
covers both dispatch backends: ``test_sharding.py`` sets
``BACKEND = "sharded"`` and re-runs the backend-independent tests of
``test_server.py`` and ``test_tracing.py`` on the shard fleet.
"""

import pytest

from repro.serve import ModelServer, ShardedModelServer
from repro.tools.analyze import lockcheck


@pytest.fixture(autouse=True)
def lock_order_sanitizer():
    tracker = lockcheck.LockOrderTracker(raise_on_inversion=False)
    with lockcheck.installed(tracker=tracker):
        yield tracker
    assert not tracker.inversions, "\n".join(
        inversion.describe() for inversion in tracker.inversions
    )


@pytest.fixture
def backend(request):
    """Factory for the server under test; closes what it built.

    Takes :class:`ModelServer` keyword arguments.  On the ``"sharded"``
    backend it builds a two-shard :class:`ShardedModelServer` instead
    (``workers`` does not apply: each shard has one dispatcher thread).
    """
    sharded = getattr(request.module, "BACKEND", "in_process") == "sharded"
    built = []

    def make(**kwargs):
        if sharded:
            kwargs.pop("workers", None)
            server = ShardedModelServer(
                n_shards=2, monitor_interval=0.02, **kwargs
            )
        else:
            server = ModelServer(**kwargs)
        built.append(server)
        return server

    yield make
    for server in built:
        server.close()
