"""Training workloads: Algorithm 1 (eager EM+SGD) and Algorithm 2 (lazy).

``train-eager`` trains Alex-CIFAR-10 with the Figs. 5-7 timing
configuration and a GM regularizer per layer with no schedule, so the
E- and M-steps run every iteration and the EM in ``repro.core`` is most
of the time.  ``train-lazy`` trains the Table VI configuration with the
lazy update (``Im = Ig = 50``, one eager epoch), so the network's
forward and backward in ``repro.nn`` are nearly all of it.  Both build
the model, regularizers and trainer the way
``repro.experiments.deep.train_deep`` does, with library defaults.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core import GMHyperParams, GMRegularizer, LazyUpdateSchedule
from repro.experiments.deep import (
    DEFAULT_GAMMA, DeepRunConfig, alex_bench_config, build_model,
    load_image_data,
)
from repro.experiments.timing import timing_bench_config
from repro.optim import Trainer
from repro.telemetry.events import Callback

import layers
from common import median, metric, percentile
from spans import SpanRecorder

LAZY = dict(model_interval=50, gm_interval=50, eager_epochs=1)
#: Fits per run never fall below this, whatever ``--seconds`` says.
MIN_FITS = 2
#: Set-ups timed before each fit and thrown away, so the set-up samples
#: are spread over the run instead of taken in one burst.
SETUPS_PER_FIT = 15
#: Tail percentile of iteration time: a fit has 150 (lazy) or 360
#: (eager) iterations, so p95 is the highest with >= 10 samples beyond
#: it in ``MIN_FITS`` fits of either workload.
TAIL = 95


def config(workload: str, seed: int) -> DeepRunConfig:
    """The data/model/training configuration for ``seed``."""
    factory = timing_bench_config if workload == "train-eager" else alex_bench_config
    return factory(data_seed=seed, seed=seed)


def schedule(workload: str) -> Optional[LazyUpdateSchedule]:
    """``None`` (EM every iteration) for eager, the lazy schedule otherwise."""
    return LazyUpdateSchedule(**LAZY) if workload == "train-lazy" else None


def params(workload: str, seed: int) -> Dict[str, Any]:
    """Every parameter of the workload, for the result's stamp."""
    return {
        "config": dataclasses.asdict(config(workload, seed)),
        "regularizer": "GMRegularizer per weight tensor",
        "gamma": DEFAULT_GAMMA["alex"],
        "alpha_exponent": 0.5,
        "init_method": "linear",
        "lazy_schedule": LAZY if workload == "train-lazy" else None,
        "min_fits": MIN_FITS,
        "setups_per_fit": SETUPS_PER_FIT,
    }


class StepClock(Callback):
    """Wall time of every mini-batch iteration, from the trainer's hooks."""

    def __init__(self) -> None:
        self.steps: List[float] = []
        self._last = 0.0

    def on_epoch_start(self, epoch: int, ctx: Any) -> None:
        self._last = time.perf_counter()

    def on_batch_end(self, info: Any, ctx: Any) -> None:
        now = time.perf_counter()
        self.steps.append(now - self._last)
        self._last = now


class Run:
    """One fit from scratch: data, model, regularizers, trainer."""

    def __init__(self, workload: str, seed: int) -> None:
        started = time.perf_counter()
        self.cfg = config(workload, seed)
        self.data = load_image_data(self.cfg)
        self.model = build_model(self.cfg)
        hp = GMHyperParams(gamma=DEFAULT_GAMMA[self.cfg.model], alpha_exponent=0.5)
        lazy = schedule(workload)
        self.model.attach_regularizers(
            lambda _name, m, std: GMRegularizer(
                n_dimensions=m, weight_init_std=std, hyperparams=hp,
                init_method="linear", schedule=lazy,
            )
        )
        self.trainer = Trainer(
            self.model, lr=self.cfg.effective_lr, momentum=self.cfg.momentum,
            batch_size=self.cfg.batch_size,
        )
        self.setup_s = time.perf_counter() - started
        self.clock = StepClock()
        self.history = None
        self.fit_s = 0.0

    def fit(self) -> None:
        """``Trainer.fit`` for the configured epochs, timed."""
        started = time.perf_counter()
        self.history = self.trainer.fit(
            self.data.x_train, self.data.y_train, epochs=self.cfg.epochs,
            rng=np.random.default_rng(self.cfg.seed + 1),
            callbacks=[self.clock],
        )
        self.fit_s = time.perf_counter() - started

    def epoch_rates(self) -> List[float]:
        """Training samples per second of every epoch."""
        n = self.data.x_train.shape[0]
        return [n / r.elapsed_seconds for r in self.history.records]

    def test_accuracy(self) -> float:
        """Held-out accuracy of the trained model."""
        return float(np.mean(self.model.predict(self.data.x_test)
                             == self.data.y_test))

    def check(self) -> List[str]:
        """Problems with the fit's outputs (empty when correct)."""
        problems = []
        for record in self.history.records:
            if not np.isfinite(record.train_loss):
                problems.append(f"epoch {record.epoch} loss {record.train_loss}")
        for name, reg in self.model.weight_regularizers().items():
            pi, lam = reg.pi, reg.lam
            if not (np.all(np.isfinite(pi)) and np.all(pi >= 0.0)
                    and abs(float(pi.sum()) - 1.0) <= 1e-9):
                problems.append(f"{name}: pi off the simplex: {pi}")
            if not (np.all(np.isfinite(lam)) and np.all(lam > 0.0)):
                problems.append(f"{name}: lambda not finite and positive: {lam}")
        return problems

    def iterations(self) -> int:
        """Mini-batch iterations the fit ran."""
        return len(self.clock.steps)


def _check_runs(runs: List[Run]) -> Dict[str, Any]:
    attempted = sum(run.iterations() for run in runs)
    failed = 0
    problems: List[str] = []
    for run in runs:
        found = run.check()
        if found:
            failed += run.iterations()
            problems.extend(found)
    return {"attempted": attempted, "failed": failed, "problems": problems}


def measure(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: fits from scratch until ``seconds`` are used."""
    runs: List[Run] = []
    setups: List[float] = []
    started = time.perf_counter()
    while True:
        setups += [Run(workload, seed).setup_s for _ in range(SETUPS_PER_FIT)]
        run = Run(workload, seed)
        run.fit()
        runs.append(run)
        used = time.perf_counter() - started
        if len(runs) >= MIN_FITS and used * (len(runs) + 1) / len(runs) > seconds:
            break
    # The first set-up of the process is cold: left out.
    setups = setups[1:] + [run.setup_s for run in runs]
    rates = [rate for run in runs for rate in run.epoch_rates()]
    steps_ms = [s * 1e3 for run in runs for s in run.clock.steps]
    losses = [run.history.final_loss for run in runs]
    accuracies = [run.test_accuracy() for run in runs]
    checked = _check_runs(runs)
    n_fits = len(runs)
    metrics = {
        "setup_s": metric(median(setups), "s", len(setups),
                          "median over set-ups of data generation + model, "
                          "regularizer and trainer construction"),
        "throughput_per_s": metric(median(rates), "1/s", len(rates),
                                   "train.samples_per_s: median over epochs "
                                   "of n_train / epoch wall time"),
        "latency_p50_ms": metric(percentile(steps_ms, 50), "ms", len(steps_ms),
                                 "p50 of one mini-batch iteration"),
    }
    report = {
        f"train.step_p{TAIL}_ms": metric(percentile(steps_ms, TAIL), "ms",
                                        len(steps_ms),
                                        f"p{TAIL} of one mini-batch iteration"),
        "train.samples_per_s": metric(
            sum(run.data.x_train.shape[0] * len(run.history.records)
                for run in runs) / sum(run.fit_s for run in runs),
            "samples/s", n_fits, "n_train x epochs / Trainer.fit wall time"),
        "train.final_loss": metric(median(losses), "nats", n_fits,
                                   "mean training loss of the last epoch"),
        "train.test_accuracy": metric(median(accuracies), "ratio", n_fits,
                                      "held-out accuracy"),
    }
    return {"metrics": metrics, "report": report, **checked}


def traced(workload: str, seed: int, seconds: float,
           recorder: SpanRecorder) -> Dict[str, Any]:
    """Traced run: an untraced fit, then a traced one, per-layer figures."""
    del seconds  # two fits, whatever the budget
    plain = Run(workload, seed)
    plain.fit()
    run = Run(workload, seed)
    layers.trace_training(recorder, run.trainer, run.model)
    try:
        run.fit()
    finally:
        recorder.restore()
    summary = recorder.summary()
    snapshot = run.trainer.metrics.snapshot()
    timers = snapshot["timers"]
    gauges = snapshot["gauges"]
    steps_ms = [d * 1e3 for d in recorder.durations("optim.step")]

    values: Dict[str, float] = {
        "nn.forward_s": recorder.total("nn.forward"),
        "nn.backward_s": recorder.total("nn.backward"),
        "nn.loss_s": recorder.total("nn.loss"),
        "core.reg_grad_s": recorder.total("core.reg_grad"),
        "core.estep_refreshes": gauges.get("em/estep_refreshes", 0.0),
        "core.mstep_refreshes": gauges.get("em/mstep_refreshes", 0.0),
        "core.density_evals": gauges.get("em/density_evals", 0.0),
        "core.components": sum(
            reg.pi.size for reg in layers.weight_regularizers(run.model)
        ),
        "optim.step_p50_ms": percentile(steps_ms, 50),
        "optim.step_p99_ms": percentile(steps_ms, 99),
        "trace.overhead_ratio": run.fit_s / plain.fit_s,
    }
    for layer in run.model.layers:
        for way in ("fwd", "bwd"):
            name = f"nn.{layer.name}.{way}"
            values[f"{name}_s"] = recorder.total(name)
    for phase in layers.PHASES:
        values[f"optim.{phase}_s"] = timers[f"phase/{phase}"]["total_seconds"]
    attributed = sum(
        row["self_seconds"] for name, row in summary.items()
        if name.startswith(("nn.", "optim."))
    )
    fit_wall = recorder.total("train.fit")
    checked = _check_runs([plain, run])
    return {
        "values": values,
        "report": {
            "trace.fit_wall_s": metric(fit_wall, "s", 1, "traced Trainer.fit"),
            "trace.nn_optim_self_s": metric(
                attributed, "s", 1, "self time of nn.* and optim.* spans"),
            "trace.attributed_ratio": metric(
                attributed / fit_wall, "ratio", 1,
                "nn.* + optim.* self time / traced fit wall time"),
        },
        **checked,
    }
