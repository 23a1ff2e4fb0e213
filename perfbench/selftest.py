"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

``test_stall``: a deliberately stalled fake server shows that the open-loop
generator charges a stall's wait to the requests queued behind it and
that the wait shows in the generator's lateness.  ``test_spans``: wrapped
calls nest, self time comes out right and patches are undone.
``test_names``: every workload, traced and untraced, prints exactly the
metric names and units ``BENCHMARK.json`` declares.  ``test_bare``: in a
directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from common import OUT, ROOT, declared_metrics, workload_names

sys.path.insert(0, str(ROOT / "src"))

import openloop  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from repro.loadgen import TrafficMix, build_schedule  # noqa: E402


def test_stall() -> None:
    """A stall delays every request due during it, and the metrics show it."""
    rate, n, stall_at, stall_s = 500.0, 400, 100, 0.2
    plan = build_schedule(TrafficMix(mean_gap=1.0, gap_sigma=0.5),
                          n_requests=n, n_rows=10, seed=3)
    due = openloop.due_times(plan, rate)
    server_lock = threading.Lock()

    def send(request):
        # One server: while it stalls, every client waits on it.
        with server_lock:
            time.sleep(stall_s if request.index == stall_at else 0.0005)
        return request.row_id

    result = openloop.run_step(send, plan, rate, clients=2)
    assert result.sent == n and result.failed == 0
    assert [result.answers[i] for i in range(n)] == [r.row_id for r in plan]
    stall_end = due[stall_at] + stall_s
    behind = [i for i in range(stall_at + 1, n)
              if due[i] < stall_end - 0.05]
    assert len(behind) >= 10, behind
    for i in behind:
        # Charged from the due time: at least the rest of the stall.
        assert result.latencies[i] >= stall_end - due[i] - 0.005, (
            i, result.latencies[i], stall_end - due[i])
    # The generator fell behind by most of the stall: it shows in lateness.
    late_p99 = float(np.percentile(result.sent_lateness(), 99))
    assert late_p99 >= stall_s / 2, late_p99
    # Timed from issue instead, the queued requests look fast.
    from_issue = result.latencies[behind] - result.lateness[behind]
    assert float(np.median(from_issue)) < 0.02, np.median(from_issue)


def test_spans() -> None:
    """Nesting, self time via summarize_spans, and restore."""
    class Layer:
        def inner(self) -> int:
            time.sleep(0.02)
            return 1

        def outer(self) -> int:
            time.sleep(0.01)
            return self.inner() + 1

    layer = Layer()
    recorder = SpanRecorder()
    recorder.trace_method(layer, "inner", "x.inner")
    recorder.trace_method(layer, "outer", "x.outer")
    assert layer.outer() == 2
    recorder.restore()
    assert "inner" not in vars(layer) and "outer" not in vars(layer)
    assert layer.outer() == 2 and len(recorder.spans()) == 2
    outer, inner = sorted(recorder.spans(), key=lambda s: s["start"])
    assert inner["parent_id"] == outer["span_id"]
    assert inner["trace_id"] == outer["trace_id"]
    summary = recorder.summary()
    self_outer = summary["x.outer"]["self_seconds"]
    assert abs(self_outer - (outer["duration"] - inner["duration"])) < 1e-9
    assert 0.005 < self_outer < inner["duration"]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def test_names() -> None:
    """The printed metrics are exactly the declared ones, with their units."""
    for trace in (0, 1):
        declared = declared_metrics(bool(trace))
        for workload in workload_names():
            done = _run(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr[-2000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], result.keys()
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared, (workload, trace, printed)
            assert result["correct"] and result["failed"] == 0, (
                workload, trace, done.stdout[-3000:])


def test_bare() -> None:
    """Without the program the benchmark fails without printing a result."""
    OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, workload_names()[0], 0)
        assert done.returncode != 0, done.stdout
        assert '"correct"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


TESTS = (test_stall, test_spans, test_names, test_bare)


def main() -> int:
    failed = 0
    for test in TESTS:
        started = time.perf_counter()
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
            continue
        print(f"ok   {test.__name__} ({time.perf_counter() - started:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
