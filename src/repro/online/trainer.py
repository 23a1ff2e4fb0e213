"""Streaming trainer: ``partial_fit`` without a fixed epoch horizon.

The batch :class:`~repro.optim.trainer.Trainer` owns the full dataset
and walks it in epochs; the GEMINI-style continuous loop never sees the
full dataset — mini-batches arrive forever.  :class:`OnlineTrainer`
runs the batch trainer's own iteration body
(:class:`~repro.optim.trainer.Stepper`: E-step → gradient → M-step →
SGD, each under its ``phase/<name>`` timer) but replaces the epoch loop
with a single :meth:`partial_fit` call per arriving batch,
pairing naturally with :class:`~repro.online.em.DecayedGMRegularizer`
whose decayed statistics stand in for the vanished full-data view.

The regularizer weight follows the same ``1/N`` normalization as the
batch trainer (prior counted once against ``N`` likelihood terms);
online, ``N`` is either a declared reference dataset size
(``n_reference``, e.g. the size of the batch-training corpus the model
was seeded from) or the running count of streamed samples.

Snapshot/restore goes through the shared
:class:`~repro.optim.trainer.TrainerState` path — the same typed state
the batch trainer produces — so a batch-trained model hands off to the
stream (and back) without touching private fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..optim.schedules import ConstantLR, LRSchedule
from ..optim.sgd import SGD
from ..optim.trainer import (
    Stepper,
    TrainableModel,
    TrainerState,
    capture_trainer_state,
    restore_trainer_state,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import start_span

__all__ = ["StepResult", "OnlineTrainer"]

#: Smoothing factor of the trainer's running loss EWMA (the signal the
#: publisher's ``loss_delta`` trigger watches).
_LOSS_EWMA_BETA = 0.9


@dataclass(frozen=True)
class StepResult:
    """Outcome of one :meth:`OnlineTrainer.partial_fit` call."""

    step: int
    loss: float
    loss_ewma: float
    samples_seen: int
    lr: float


class OnlineTrainer:
    """Mini-batch SGD + online EM, one streamed batch at a time.

    Parameters
    ----------
    model:
        Any :class:`~repro.optim.trainer.TrainableModel`; its adaptive
        regularizers should be
        :class:`~repro.online.em.DecayedGMRegularizer` instances so the
        M-step runs on decayed statistics (a batch
        :class:`~repro.core.gm_regularizer.GMRegularizer` also works —
        it just recomputes from each batch's weights alone).
    lr:
        Learning rate or :class:`~repro.optim.schedules.LRSchedule`
        (evaluated on the *step* counter, there being no epochs).
    momentum:
        SGD momentum.
    n_reference:
        Effective dataset size ``N`` for the ``1/N`` regularizer
        weight.  ``None`` uses the running streamed-sample count.
    clock:
        Injectable monotonic clock shared with the metrics registry.
    metrics:
        :class:`~repro.telemetry.metrics.MetricsRegistry` receiving the
        ``phase/<name>`` timers and stream counters; a fresh registry on
        ``clock`` is created when omitted.
    """

    def __init__(
        self,
        model: TrainableModel,
        lr: "float | LRSchedule" = 0.1,
        momentum: float = 0.0,
        n_reference: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n_reference is not None and n_reference < 1:
            raise ValueError(f"n_reference must be >= 1, got {n_reference}")
        self.model = model
        self.schedule = (
            lr if isinstance(lr, LRSchedule) else ConstantLR(float(lr))
        )
        self.momentum = float(momentum)
        self.n_reference = None if n_reference is None else int(n_reference)
        self.clock = clock
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(clock=clock)
        )
        self._optimizer = SGD(
            [p.value for p in model.parameters()],
            lr=self.schedule.lr_at(0),
            momentum=self.momentum,
        )
        self._stepper = Stepper(model, self._optimizer, self.metrics)
        self._iteration = 0
        self._samples_seen = 0
        self._loss_ewma: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def step_count(self) -> int:
        """Streaming steps completed so far."""
        return self._iteration

    @property
    def samples_seen(self) -> int:
        """Total streamed samples consumed so far."""
        return self._samples_seen

    @property
    def loss_ewma(self) -> Optional[float]:
        """Smoothed streaming loss (``None`` before the first step)."""
        return self._loss_ewma

    # ------------------------------------------------------------------
    def partial_fit(self, x: np.ndarray, y: np.ndarray) -> StepResult:
        """Consume one mini-batch: Algorithm 2's iteration body, once.

        No epoch horizon: the step counter advances forever, the lazy
        schedule's warm-up window is expressed in steps (see
        :class:`~repro.online.em.DecayedGMRegularizer`), and the loss
        EWMA feeds the publisher's ``loss_delta`` trigger.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x and y disagree on sample count: {x.shape[0]} vs {y.shape[0]}"
            )
        with start_span(
            "online/partial_fit",
            attributes={"step": self._iteration, "batch": int(x.shape[0])},
        ) as span:
            self._samples_seen += int(x.shape[0])
            n_effective = self.n_reference or self._samples_seen
            reg_scale = 1.0 / float(max(n_effective, 1))
            lr = self.schedule.lr_at(self._iteration)
            self._optimizer.set_lr(lr)
            it = self._iteration
            loss = self._stepper.step(x, y, it, reg_scale)
            self._iteration = it + 1

            loss = float(loss)
            if self._loss_ewma is None:
                self._loss_ewma = loss
            else:
                self._loss_ewma = (
                    _LOSS_EWMA_BETA * self._loss_ewma
                    + (1.0 - _LOSS_EWMA_BETA) * loss
                )
            self.metrics.counter("online/steps_total").inc()
            self.metrics.counter("online/samples_total").inc(float(x.shape[0]))
            self.metrics.histogram("online/batch_loss").observe(loss)
            self.metrics.gauge("online/loss_ewma").set(self._loss_ewma)
            span.set_attribute("loss", loss)
            return StepResult(
                step=it,
                loss=loss,
                loss_ewma=self._loss_ewma,
                samples_seen=self._samples_seen,
                lr=lr,
            )

    # ------------------------------------------------------------------
    # Shared snapshot/restore path (satellite: no private-field reaching)
    # ------------------------------------------------------------------
    def state(self) -> TrainerState:
        """Typed snapshot: iteration + per-regularizer EM state.

        Identical shape to :meth:`repro.optim.trainer.Trainer.state`,
        including the decayed statistics when the regularizers are
        :class:`~repro.online.em.DecayedGMRegularizer`.
        """
        return capture_trainer_state(self.model, self._iteration)

    def load_state(self, state: TrainerState) -> None:
        """Resume the stream from a :class:`TrainerState` snapshot."""
        restore_trainer_state(self.model, state)
        self._iteration = int(state.iteration)

    def __repr__(self) -> str:
        return (
            f"OnlineTrainer(step={self._iteration}, "
            f"samples_seen={self._samples_seen})"
        )
