"""Open-loop request generation on a seeded ``repro.loadgen`` schedule.

Independent users do not wait for each other, so requests are sent on a
schedule whatever the server does.  The rows and inter-arrival gaps come
from :func:`repro.loadgen.build_schedule`; the gaps are rescaled so the
step offers exactly the requested rate, and each request gets an
absolute due time.  ``clients`` threads take requests in due order,
sleep until each is due and send it.  When every client is blocked on a
slow answer, requests that fall due meanwhile are sent late.

Latency is measured from the due time, not from the moment the request
was sent, so the wait a stall imposes on the requests queued behind it
is charged to them.  How late the generator ran is reported separately.
``repro.loadgen.LoadGenerator.run`` is not used: it times from issue and
replays gaps per worker, which hides that wait.

The schedule's ``slow`` field (a client stalling after its reply) is
ignored, because one user's slow read does not delay another user.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.loadgen import ScheduledRequest

#: A step whose clients are still sending after this long is abandoned.
TIMEOUT_S = 120.0


def due_times(schedule: Sequence[ScheduledRequest], rate: float) -> np.ndarray:
    """Seconds after the step start at which each request is due.

    The schedule's gaps keep their shape (lognormal tail, zero-gap
    bursts) and are scaled so ``len(schedule)`` requests span exactly
    ``len(schedule) / rate`` seconds.
    """
    gaps = np.asarray([request.gap for request in schedule], dtype=np.float64)
    due = np.cumsum(gaps)
    if due[-1] <= 0.0:
        raise ValueError("schedule has no positive gaps to rescale")
    return due * (len(schedule) / rate / due[-1])


@dataclass
class StepResult:
    """What one open-loop step sent, got back and how late it ran."""

    rate: float
    planned: int
    answers: List[Any]
    latencies: np.ndarray  # seconds from due time to answer; NaN if unsent/failed
    lateness: np.ndarray   # seconds from due time to send; NaN if unsent
    errors: List[str] = field(default_factory=list)
    stopped_late: bool = False
    wall_seconds: float = 0.0

    @property
    def sent(self) -> int:
        """Requests actually sent."""
        return int(np.count_nonzero(~np.isnan(self.lateness)))

    @property
    def failed(self) -> int:
        """Sent requests that raised instead of answering."""
        return len(self.errors)

    def answered_latencies(self) -> np.ndarray:
        """Latencies of the answered requests, in seconds."""
        return self.latencies[~np.isnan(self.latencies)]

    def sent_lateness(self) -> np.ndarray:
        """Generator lateness of the sent requests, in seconds."""
        return self.lateness[~np.isnan(self.lateness)]


def run_step(
    send: Callable[[ScheduledRequest], Any],
    schedule: Sequence[ScheduledRequest],
    rate: float,
    clients: int,
    late_limit: Optional[float] = None,
) -> StepResult:
    """Send ``schedule`` at ``rate`` requests/s from ``clients`` threads.

    With ``late_limit`` set, sending stops as soon as one request goes
    out more than ``late_limit`` seconds after its due time: the backlog
    is growing and the step has already failed.  Raises ``TimeoutError``
    when the clients have not finished ``TIMEOUT_S`` seconds after the
    step began.
    """
    due = due_times(schedule, rate)
    n = len(schedule)
    answers: List[Any] = [None] * n
    latencies = np.full(n, np.nan)
    lateness = np.full(n, np.nan)
    errors: List[str] = []
    lock = threading.Lock()
    state = {"next": 0, "stop": False}
    start = time.perf_counter() + 0.005

    def client() -> None:
        while True:
            with lock:
                index = state["next"]
                if state["stop"] or index >= n:
                    return
                state["next"] = index + 1
            target = start + due[index]
            delay = target - time.perf_counter()
            if delay > 0.0:
                time.sleep(delay)
            issued = time.perf_counter()
            lateness[index] = issued - target
            if late_limit is not None and issued - target > late_limit:
                with lock:
                    state["stop"] = True
            try:
                answers[index] = send(schedule[index])
            except Exception as exc:  # counted as a failed request
                with lock:
                    errors.append(f"{index}: {type(exc).__name__}: {exc}")
                continue
            latencies[index] = time.perf_counter() - target

    threads = [
        threading.Thread(target=client, name=f"openloop-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, start + TIMEOUT_S - time.perf_counter()))
        if thread.is_alive():
            with lock:
                state["stop"] = True
            raise TimeoutError(
                f"open-loop clients still busy after {TIMEOUT_S}s")
    return StepResult(
        rate=rate,
        planned=n,
        answers=answers,
        latencies=latencies,
        lateness=lateness,
        errors=errors,
        stopped_late=state["stop"],
        wall_seconds=time.perf_counter() - start,
    )
