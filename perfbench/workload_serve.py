"""``serve-open``: single-row predict requests on an open-loop schedule.

A default :class:`repro.serve.ModelServer` serves a seeded
37-768-384-2 MLP by name from a :class:`repro.serve.ModelRegistry` and
scores rows of 50 000 encoded synthetic readmission records.  Arrivals
follow ``TrafficMix.heavy_tail()``: lognormal gaps, 8-request bursts and
30% of requests on a 4-row hot pool, so the prediction cache answers
about a third of the requests and the median stays on the miss path.

The offered rate climbs a ladder.  A step passes when its p99 latency
from due time and the generator's lateness at the step's end both stay
within ``LIMIT_S``; the climb ends at the first step that misses.  A
step above the lowest stops sending as soon as the generator falls more
than ``LIMIT_S`` behind; the lowest step gives the latency metrics and
always sends every request.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from repro.datasets.preprocessing import TabularEncoder
from repro.datasets.synthetic import CategoricalSpec, TabularSchema, generate_dataset
from repro.loadgen import TrafficMix, build_schedule
from repro.nn import Network
from repro.nn.layers import Dense, ReLU
from repro.rng import spawn
from repro.serve import ModelRegistry, ModelServer

import openloop
from common import chunked_percentile, median, metric, percentile
from layers import ServeTap
from spans import SpanRecorder

NAME = "readmission-mlp"
N_ROWS = 50_000
WIDTHS = (768, 384)
RATES = (300, 600, 1200, 2400)
LIMIT_S = 0.100
CLIENTS = 2
#: Set-ups timed per run; the last one is measured, the first (cold)
#: one is left out of ``setup_s``.
SETUPS = 5
#: The p50 at the lowest rate and the throughput are medians over this
#: many consecutive parts, so a few seconds in which another process
#: takes the CPU move one or two parts, not the figure.
CHUNKS = 10
#: Share of ``--seconds`` given to each ladder step, lowest rate first.
STEP_SHARE = (0.7, 0.1, 0.1, 0.1)
#: Requests per second of ``--seconds`` in the saturation step.
SATURATION_PER_S = 100
#: Offered rate of the saturation step: every request is due at once,
#: so the clients send back to back (a closed loop of ``CLIENTS``).
SATURATION_RPS = 1e6
WARMUP_REQUESTS = 64


def params(seed: int, seconds: float) -> Dict[str, Any]:
    """Every parameter of the workload, for the result's stamp."""
    return {
        "model": f"mlp 37-{WIDTHS[0]}-{WIDTHS[1]}-2",
        "n_rows": N_ROWS,
        "mix": TrafficMix.heavy_tail().__dict__,
        "rates_rps": RATES,
        "step_requests": [step_requests(i, seconds) for i in range(len(RATES))],
        "limit_ms": LIMIT_S * 1e3,
        "clients": CLIENTS,
        "setups": SETUPS,
        "parts": CHUNKS,
        "server": "ModelServer defaults",
        "saturation_requests": saturation_requests(seconds),
        "schedule_seeds": [seed * 16 + i for i in range(len(RATES) + 2)],
    }


def step_requests(step: int, seconds: float) -> int:
    """Requests planned for ladder step ``step``."""
    return max(200, int(RATES[step] * STEP_SHARE[step] * seconds))


def saturation_requests(seconds: float) -> int:
    """Requests sent back to back to measure throughput."""
    return max(200, int(SATURATION_PER_S * seconds))


def build_rows(seed: int) -> np.ndarray:
    """Encoded synthetic readmission rows (37 features)."""
    schema = TabularSchema(
        n_continuous=24,
        categorical=(
            CategoricalSpec("ward", 6),
            CategoricalSpec("payer", 4),
            CategoricalSpec("admission", 3),
        ),
        predictive_fraction=0.4,
    )
    table, _labels, _weights = generate_dataset(
        schema, n_samples=N_ROWS, rng=spawn(seed, 1)
    )
    return TabularEncoder().fit_transform(table)


def build_model(n_features: int, seed: int) -> Network:
    """The seeded MLP the server scores with."""
    rng = spawn(seed, 2)
    return Network([
        Dense("fc1", n_features, WIDTHS[0], rng=rng),
        ReLU("r1"),
        Dense("fc2", WIDTHS[0], WIDTHS[1], rng=rng),
        ReLU("r2"),
        Dense("head", WIDTHS[1], 2, rng=rng),
    ], name="serve-mlp")


class Stack:
    """Rows, registry and a started server, warmed up."""

    def __init__(self, seed: int) -> None:
        started = time.perf_counter()
        self.rows = build_rows(seed)
        self.registry = ModelRegistry()
        self.registry.publish(NAME, build_model(self.rows.shape[1], seed),
                              activate=True)
        self.server = ModelServer(registry=self.registry, name=NAME)
        # Rows past the hot pool, so warm-up leaves no hot key cached.
        for row in self.rows[-WARMUP_REQUESTS:]:
            self.server.request("predict", row)
        self.setup_s = time.perf_counter() - started

    def close(self) -> None:
        self.server.close()


def setup(seed: int) -> tuple:
    """Set up ``SETUPS`` times; keep the last stack and the warm times."""
    times = []
    stack = None
    for _ in range(SETUPS):
        if stack is not None:
            stack.close()
        stack = Stack(seed)
        times.append(stack.setup_s)
    return stack, times[1:]


def schedule(seed: int, step: int, n: int) -> List[Any]:
    return build_schedule(TrafficMix.heavy_tail(), n_requests=n,
                          n_rows=N_ROWS, seed=seed * 16 + step)


def check_step(stack: Stack, schedule_: List[Any],
               result: openloop.StepResult) -> int:
    """Sent requests that failed or whose label is wrong."""
    model = stack.registry.active(NAME).model
    sent = [i for i in range(result.planned) if not np.isnan(result.lateness[i])]
    answered = [i for i in sent if not np.isnan(result.latencies[i])]
    if answered:
        ids = [schedule_[i].row_id for i in answered]
        expected = model.predict(stack.rows[ids])
        got = np.asarray([result.answers[i] for i in answered])
        wrong = int(np.count_nonzero(got != expected))
    else:
        wrong = 0
    return result.failed + wrong


def passes(result: openloop.StepResult) -> bool:
    """The step met the latency limit without a growing backlog."""
    if result.stopped_late or result.failed:
        return False
    late = result.sent_lateness()
    return (percentile(result.answered_latencies(), 99) <= LIMIT_S
            and float(late[-1]) <= LIMIT_S)


def part_rates(done: np.ndarray, parts: int) -> List[float]:
    """Answers per second in ``parts`` consecutive runs of answers.

    ``done`` holds each answer's seconds since the step began (every
    request of a saturation step is due at its start).
    """
    done = np.sort(done)
    edges = np.linspace(0, done.size, parts + 1).astype(int)
    rates = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        began = done[lo - 1] if lo else 0.0
        rates.append((hi - lo) / (done[hi - 1] - began))
    return rates


def _send(stack: Stack):
    server, rows = stack.server, stack.rows
    return lambda request: server.request("predict", rows[request.row_id])


def measure(seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: the rate ladder."""
    stack, setups = setup(seed)
    attempted = failed = 0
    steps = []
    try:
        for index, rate in enumerate(RATES):
            plan = schedule(seed, index, step_requests(index, seconds))
            # The lowest step gives the latency metrics, so it always
            # runs to the end; higher steps only probe the climb.
            result = openloop.run_step(_send(stack), plan, rate, CLIENTS,
                                       late_limit=LIMIT_S if index else None)
            attempted += result.sent
            failed += check_step(stack, plan, result)
            steps.append(result)
            if not passes(result):
                break
        plan = schedule(seed, len(RATES) + 1, saturation_requests(seconds))
        saturated = openloop.run_step(_send(stack), plan, SATURATION_RPS,
                                      CLIENTS)
        attempted += saturated.sent
        failed += check_step(stack, plan, saturated)
    finally:
        stack.close()
    base = steps[0]
    lat_ms = base.answered_latencies() * 1e3
    passed = [s for s in steps if passes(s)]
    max_rate = passed[-1].rate if passed else 0.0
    # Throughput is what the clients get sending back to back: it bounds
    # the ladder rate but, unlike that pass/fail rate, has no cliff when
    # a step narrowly misses the limit.
    done = saturated.answered_latencies()
    metrics = {
        "setup_s": metric(median(setups), "s", len(setups),
                          "median over set-ups of row generation, model "
                          "build, registry publish, server start, warm-up"),
        "throughput_per_s": metric(
            median(part_rates(done, CHUNKS)), "1/s", done.size,
            f"answers/s, {CLIENTS} clients sending back to back, median "
            f"over {CHUNKS} parts"),
        "latency_p50_ms": metric(chunked_percentile(lat_ms, 50, CHUNKS), "ms",
                                 len(lat_ms),
                                 f"serve.latency_p50_ms at {RATES[0]} rps, "
                                 f"from due time, median over {CHUNKS} parts"),
    }
    report = {
        "serve.max_rate_rps": metric(max_rate, "rps", len(steps),
                                     "highest ladder rate with p99 and "
                                     "lateness within "
                                     f"{LIMIT_S * 1e3:.0f} ms"),
        "serve.latency_p50_ms": metric(metrics["latency_p50_ms"]["value"],
                                       "ms", len(lat_ms), "= latency_p50_ms"),
        "serve.latency_p99_ms": metric(percentile(lat_ms, 99), "ms",
                                       len(lat_ms), f"p99 at {RATES[0]} rps, "
                                       "from due time"),
    }
    for step in steps:
        lat = step.answered_latencies() * 1e3
        late = step.sent_lateness() * 1e3
        report[f"serve.step_{int(step.rate)}rps"] = {
            "sent": step.sent, "planned": step.planned, "failed": step.failed,
            "p50_ms": percentile(lat, 50), "p99_ms": percentile(lat, 99),
            "late_p99_ms": percentile(late, 99),
            "late_end_ms": float(late[-1]) if late.size else 0.0,
            "stopped_late": step.stopped_late, "passes": passes(step),
        }
    return {"metrics": metrics, "report": report, "attempted": attempted,
            "failed": failed,
            "problems": [e for s in steps + [saturated] for e in s.errors]}


def traced(seed: int, seconds: float, recorder: SpanRecorder) -> Dict[str, Any]:
    """Traced run: the lowest ladder step untraced, then traced."""
    stack, _setups = setup(seed)
    tap = ServeTap(recorder)
    n = step_requests(0, seconds)
    try:
        plain_plan = schedule(seed, 0, n)
        plain = openloop.run_step(_send(stack), plain_plan, RATES[0], CLIENTS)
        plan = schedule(seed, len(RATES), n)
        stack.server.metrics.reset()
        tap.install(stack.server, stack.registry, per_request=True)
        server, rows = stack.server, stack.rows
        try:
            result = openloop.run_step(
                lambda request: tap.request(server, "predict",
                                            rows[request.row_id]),
                plan, RATES[0], CLIENTS)
        finally:
            recorder.restore()
        snapshot = stack.server.metrics.snapshot()
        failed = check_step(stack, plain_plan, plain) + check_step(
            stack, plan, result)
    finally:
        stack.close()
    late_ms = result.sent_lateness() * 1e3

    def service(step: openloop.StepResult) -> float:
        # Mean seconds from send to answer: the client-side wall time
        # each request costs, comparable across the two steps.
        return float(np.mean(step.answered_latencies() - step.sent_lateness()))

    values = {
        **serve_values(recorder, snapshot),
        "serve.cache_lookup_us_p50": percentile(
            recorder.durations("serve.cache_get"), 50) * 1e6,
        "loadgen.sent": result.sent,
        "loadgen.succeeded": result.sent - result.failed,
        "loadgen.failed": result.failed,
        "loadgen.late_p99_ms": percentile(late_ms, 99),
        "trace.overhead_ratio": service(result) / service(plain),
    }
    return {"values": values, "report": {},
            "attempted": plain.sent + result.sent, "failed": failed,
            "problems": plain.errors + result.errors}


def serve_values(recorder: SpanRecorder,
                 snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer serve figures shared by every workload that serves."""
    counters = snapshot["counters"]
    hits = counters.get("serve/cache_hits_total", 0.0)
    misses = counters.get("serve/cache_misses_total", 0.0)
    batch = snapshot["histograms"].get("serve/batch_size", {})
    waits_ms = [d * 1e3 for d in recorder.durations("serve.queue_wait")]
    scores = recorder.durations("serve.score")
    return {
        "serve.requests": counters.get("serve/requests_total", 0.0),
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.queue_wait_ms_p50": percentile(waits_ms, 50),
        "serve.queue_wait_ms_p99": percentile(waits_ms, 99),
        "serve.batch_rows_mean": batch.get("mean", 0.0),
        "serve.score_ms_p50": percentile(scores, 50) * 1e3,
        "serve.score_s": float(sum(scores)),
        "serve.resolve_us_p50": percentile(
            recorder.durations("serve.resolve"), 50) * 1e6,
        "serve.shed": counters.get("serve/shed_total", 0.0),
        "serve.deadline_expired": counters.get("serve/deadline_expired_total",
                                               0.0),
        "serve.publish_ms_p50": percentile(
            recorder.durations("serve.publish"), 50) * 1e3,
        "serve.activate_ms_p50": percentile(
            recorder.durations("serve.activate"), 50) * 1e3,
    }
