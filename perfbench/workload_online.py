"""``online-drift``: the continuous-learning loop over a drifting stream.

Mirrors ``benchmarks/bench_online.py``'s drift run at a fixed length: a
``LogisticRegression`` with a ``DecayedGMRegularizer`` is pre-trained on
pre-drift data and published; then ``ContinuousLoop`` steps through
``STEPS`` batches of a ``DriftStream`` whose labels flip at
``DRIFT_AT``.  Every batch is served through a default ``ModelServer``
(32-row ``predict_many`` calls), trained on with ``partial_fit``,
published as a candidate every 10 steps, shadowed at fraction 0.5 and
promoted or rolled back by ``PromotionPolicy``.  The registry lives on
disk under the benchmark's work directory, so publishes and promotions
write checkpoints while the server reads.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from typing import Any, Dict, List

import numpy as np

from repro.core import GMRegularizer
from repro.linear.logistic import LogisticRegression
from repro.online import (
    ContinuousLoop, DecayedGMRegularizer, DriftStream, OnlineTrainer,
    PromotionPolicy, PublishTriggers, RegistryPublisher, ShadowEvaluator,
)
from repro.optim.trainer import Trainer
from repro.rng import spawn
from repro.serve import ModelRegistry, ModelServer

import layers
from common import OUT, chunked_percentile, median, metric, percentile
from layers import ServeTap
from spans import SpanRecorder
from workload_serve import serve_values

NAME = "drift-demo"
N_FEATURES = 12
BATCH = 32
STEPS = 2000
DRIFT_AT = 667
#: Live accuracy must be within this of a from-scratch retrain.
RETRAIN_GAP = 0.02
#: Loops per untraced run never fall below this.
MIN_LOOPS = 2
#: Set-ups timed before each loop and thrown away, so the set-up samples
#: are spread over the run instead of taken in one burst.
SETUPS_PER_LOOP = 8
#: Steps per segment: the throughput and p50 are medians over segments
#: of this many consecutive steps, so a few seconds in which another
#: process takes the CPU move one or two segments, not the figure.
SEGMENT = 200


def params(seed: int) -> Dict[str, Any]:
    """Every parameter of the workload, for the result's stamp."""
    return {
        "stream": {"n_features": N_FEATURES, "batch_size": BATCH,
                   "drift_at": DRIFT_AT, "seed": seed},
        "steps": STEPS,
        "pretrain": {"holdout": 1024, "lr": 0.5, "batch_size": 64,
                     "epochs": 5, "rho": 0.9, "warmup_steps": 10},
        "online_trainer": {"lr": 0.3, "n_reference": 1024},
        "publish_every_steps": 10,
        "shadow_fraction": 0.5,
        "promotion_min_samples": 20,
        "server": "ModelServer defaults",
        "registry": "on disk",
        "retrain_gap": RETRAIN_GAP,
        "min_loops": MIN_LOOPS,
        "setups_per_loop": SETUPS_PER_LOOP,
        "segment_steps": SEGMENT,
    }


class Loop:
    """Pre-trained model, on-disk registry, server and the loop around them."""

    def __init__(self, seed: int) -> None:
        started = time.perf_counter()
        self.seed = seed
        self.stream = DriftStream(n_features=N_FEATURES, batch_size=BATCH,
                                  drift_at=DRIFT_AT, seed=seed)
        x0, y0 = self.stream.holdout(1024, batch_index=0)
        model = LogisticRegression(
            N_FEATURES,
            regularizer=DecayedGMRegularizer(N_FEATURES, rho=0.9,
                                             warmup_steps=10),
            rng=spawn(seed, 2),
        )
        Trainer(model, lr=0.5, batch_size=64).fit(x0, y0, epochs=5,
                                                  rng=spawn(seed, 3))
        OUT.mkdir(parents=True, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="registry-", dir=OUT)
        self.registry = ModelRegistry(root=self.root)
        self.registry.register(
            NAME, lambda: LogisticRegression(N_FEATURES, weight_init_std=0.0)
        )
        self.registry.publish(NAME, model, activate=True)
        trainer = OnlineTrainer(model, lr=0.3, n_reference=1024)
        metrics = trainer.metrics
        self.server = ModelServer(registry=self.registry, name=NAME)
        self.loop = ContinuousLoop(
            trainer,
            RegistryPublisher(self.registry, NAME,
                              PublishTriggers(every_steps=10), metrics=metrics),
            ShadowEvaluator(self.registry, NAME, fraction=0.5, metrics=metrics,
                            seed=seed),
            PromotionPolicy(min_samples=20, metrics=metrics),
            server=self.server,
            metrics=metrics,
        )
        self.server.predict_many(x0[:BATCH])  # warm-up
        self.setup_s = time.perf_counter() - started
        self.step_s: List[float] = []
        self.loop_s = 0.0

    def run(self) -> None:
        """Step through the stream, timing each step."""
        step = self.loop.step
        started = time.perf_counter()
        for x, y in self.stream.batches(STEPS):
            t0 = time.perf_counter()
            step(x, y)
            self.step_s.append(time.perf_counter() - t0)
        self.loop_s = time.perf_counter() - started

    def live_accuracy(self) -> float:
        """Accuracy of the final active version on a post-drift holdout."""
        x, y = self.stream.holdout(1000, batch_index=STEPS)
        return float(np.mean(self.registry.active(NAME).model.predict(x) == y))

    def retrain_accuracy(self) -> float:
        """The same holdout, scored by a from-scratch post-drift retrain."""
        x, y = self.stream.holdout(1000, batch_index=STEPS)
        x_post, y_post = self.stream.holdout(1024, batch_index=DRIFT_AT)
        scratch = LogisticRegression(
            N_FEATURES, regularizer=GMRegularizer(N_FEATURES),
            rng=spawn(self.seed, 4),
        )
        Trainer(scratch, lr=0.5, batch_size=64).fit(
            x_post, y_post, epochs=5, rng=spawn(self.seed, 5))
        return float(np.mean(scratch.predict(x) == y))

    def check(self) -> List[str]:
        """Problems with the loop's outputs (empty when correct)."""
        status = self.loop.status()
        problems = []
        if status["answers_total"] != status["requests_total"]:
            problems.append(f"{status['dropped_requests']} requests unanswered")
        if status["promotions"] < 1:
            problems.append("no candidate was promoted")
        gap = self.retrain_accuracy() - self.live_accuracy()
        if gap > RETRAIN_GAP:
            problems.append(f"live accuracy trails a retrain by {gap:.3f}")
        return problems

    def close(self) -> None:
        self.server.close()
        shutil.rmtree(self.root, ignore_errors=True)


def _checked(loops: List[Loop]) -> Dict[str, Any]:
    failed = 0
    problems: List[str] = []
    for loop in loops:
        found = loop.check()
        if found:
            failed += STEPS
            problems.extend(found)
    return {"attempted": STEPS * len(loops), "failed": failed,
            "problems": problems}


def measure(seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: whole loops from a fresh set-up until time is used."""
    loops: List[Loop] = []
    setups: List[float] = []
    started = time.perf_counter()
    try:
        while True:
            for _ in range(SETUPS_PER_LOOP):
                extra = Loop(seed)
                extra.close()
                setups.append(extra.setup_s)
            loop = Loop(seed)
            loops.append(loop)
            loop.run()
            loop.server.close()
            used = time.perf_counter() - started
            if (len(loops) >= MIN_LOOPS
                    and used * (len(loops) + 1) / len(loops) > seconds):
                break
        checked = _checked(loops)
        live = [loop.live_accuracy() for loop in loops]
        # The first set-up of the process is cold: left out.
        setups = setups[1:] + [loop.setup_s for loop in loops]
    finally:
        for loop in loops:
            loop.close()
    steps_ms = [s * 1e3 for loop in loops for s in loop.step_s]
    rates = [STEPS * BATCH / loop.loop_s for loop in loops]
    segments = np.array_split(np.asarray(steps_ms), len(steps_ms) // SEGMENT)
    segment_rates = [part.size * BATCH / (part.sum() / 1e3) for part in segments]
    metrics = {
        "setup_s": metric(median(setups), "s", len(setups),
                          "median over set-ups of stream, pre-training, "
                          "registry publish, server start, warm-up"),
        "throughput_per_s": metric(
            median(segment_rates), "1/s", len(segment_rates),
            f"rows / time in ContinuousLoop.step, median over {SEGMENT}-step "
            "segments"),
        "latency_p50_ms": metric(
            chunked_percentile(steps_ms, 50, len(segments)), "ms",
            len(steps_ms),
            f"p50 of ContinuousLoop.step, median over {SEGMENT}-step "
            "segments"),
    }
    status = loops[-1].loop.status()
    report = {
        "online.samples_per_s": metric(median(rates), "rows/s", len(rates),
                                       "rows consumed / loop wall time, "
                                       "median over loops"),
        "online.step_p99_ms": metric(percentile(steps_ms, 99), "ms",
                                     len(steps_ms),
                                     "p99 of ContinuousLoop.step"),
        "online.live_accuracy": metric(median(live), "ratio", len(live),
                                       "final active version on a "
                                       "post-drift holdout"),
        "online.publishes": status["published_total"],
        "online.promotions": status["promotions"],
        "online.rollbacks": status["rollbacks"],
    }
    return {"metrics": metrics, "report": report, **checked}


def traced(seed: int, seconds: float, recorder: SpanRecorder) -> Dict[str, Any]:
    """Traced run: one untraced loop, then one traced loop."""
    del seconds  # two loops, whatever the budget
    plain = Loop(seed)
    loops = [plain]
    try:
        plain.run()
        loop = Loop(seed)
        loops.append(loop)
        loop.server.metrics.reset()
        tap = ServeTap(recorder)
        tap.install(loop.server, loop.registry, per_request=False)
        layers.trace_online(recorder, loop.loop)
        try:
            loop.run()
        finally:
            recorder.restore()
        snapshot = loop.server.metrics.snapshot()
        timers = loop.loop.metrics.snapshot()["timers"]
        status = loop.loop.status()
        checked = _checked(loops)
    finally:
        for each in loops:
            each.close()

    regs = layers.weight_regularizers(loop.loop.trainer.model)
    partial_fit_ms = [d * 1e3 for d in recorder.durations("online.partial_fit")]
    values = {
        **serve_values(recorder, snapshot),
        "core.reg_grad_s": recorder.total("core.reg_grad"),
        "core.estep_refreshes": sum(reg.estep_count for reg in regs),
        "core.mstep_refreshes": sum(reg.mstep_count for reg in regs),
        "core.density_evals": sum(reg.density_evals for reg in regs),
        "core.components": sum(reg.pi.size for reg in regs),
        "online.serve_s": recorder.total("serve.predict_many"),
        "online.partial_fit_s": recorder.total("online.partial_fit"),
        "online.partial_fit_ms_p99": percentile(partial_fit_ms, 99),
        "online.mstep_s": timers["phase/mstep"]["total_seconds"],
        "online.shadow_s": recorder.total("online.shadow"),
        "online.publish_s": (recorder.total("online.maybe_publish")
                             + recorder.total("serve.activate")),
        "online.publishes": status["published_total"],
        "online.promotions": status["promotions"],
        "online.rollbacks": status["rollbacks"],
        "trace.overhead_ratio": loop.loop_s / plain.loop_s,
    }
    return {"values": values, "report": {}, **checked}

