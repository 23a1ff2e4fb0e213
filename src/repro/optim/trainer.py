"""Training loop implementing Algorithms 1 and 2 of the paper.

The trainer interleaves SGD on the model parameters with the lightweight
EM on the GM parameters.  Per mini-batch iteration the exact Algorithm 2
ordering is followed:

1. *E-step* (lazy): each adaptive regularizer refreshes its cached
   ``g_reg``; every due GM regularizer shares one stacked kernel call.
2. The data-misfit gradient ``g_ll`` is computed by the model and the
   regularizer gradients are added (Equation (10)).  Because the models
   report the *mean* per-sample loss while the MAP objective (Equation
   (8)) counts the prior once against a likelihood summed over all ``N``
   training samples, the regularizer gradient is scaled by ``1/N``.
   This is the standard weight-decay normalization and is what makes
   the paper's learned precisions (``lambda`` up to ~2000, Table IV)
   compatible with its learning rates: the per-step decay is
   ``lr * lambda / N``.
3. *M-step* (lazy): the GM parameters are updated
   (``Regularizer.update``) from the E-step's responsibilities.
4. *SGD step*: the optimizer applies the combined gradient.

:class:`Stepper` is that iteration body, written once; :class:`Trainer`
(epochs) and :class:`~repro.online.trainer.OnlineTrainer` (a stream)
are the loops around it.  The same loop trains logistic regression and
the deep networks; the model only has to satisfy :class:`TrainableModel`.

**Observability.**  Each of the four phases above runs inside a named
phase timer of the trainer's :class:`~repro.telemetry.metrics.MetricsRegistry`
(``phase/estep``, ``phase/grad``, ``phase/mstep``, ``phase/sgd``), so
the lazy-update savings of Figs. 5-7 are directly measurable per phase
rather than inferred from whole-epoch wall-clock.  ``fit`` additionally
accepts :class:`~repro.telemetry.events.Callback` observers which are
fired around epochs/batches/EM-steps without changing the Algorithm 2
ordering — telemetry reads state the loop already produced, so enabling
it leaves the losses bit-identical.  All timing (including the per-epoch
:class:`EpochRecord`) uses an injectable clock, making timing-dependent
tests deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..core.em import RegularizerEMState
from ..core.fusion import NonFiniteParameter, Workspace, stacked_estep
from ..core.gm_regularizer import GMRegularizer
from ..core.regularizers import Regularizer
from ..rng import default_generator
from ..telemetry.events import (
    BatchInfo,
    Callback,
    CallbackList,
    EMStepInfo,
    RunContext,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.runtime import default_callbacks
from ..telemetry.trace import start_span
from .schedules import ConstantLR, LRSchedule
from .sgd import SGD

__all__ = [
    "Parameter",
    "TrainableModel",
    "EpochRecord",
    "TrainingHistory",
    "TrainerState",
    "capture_trainer_state",
    "restore_trainer_state",
    "Stepper",
    "Trainer",
]


@dataclass
class Parameter:
    """One trainable tensor plus its (optional) regularizer.

    Deep models attach a separate :class:`GMRegularizer` to each layer's
    weights (per-layer GMs, Section V-B1) and leave biases and batch-norm
    scales unregularized, mirroring standard weight-decay practice.
    """

    name: str
    value: np.ndarray
    regularizer: Optional[Regularizer] = None


class TrainableModel(Protocol):
    """What the trainer needs from a model."""

    def parameters(self) -> Sequence[Parameter]:
        """All trainable parameters, in a stable order."""
        ...

    def loss_and_gradients(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, List[np.ndarray]]:
        """Data-misfit loss and its gradients aligned with ``parameters()``."""
        ...

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard label predictions for accuracy evaluation."""
        ...


@dataclass
class EpochRecord:
    """Per-epoch training telemetry."""

    epoch: int
    train_loss: float
    elapsed_seconds: float
    cumulative_seconds: float
    val_accuracy: Optional[float] = None


@dataclass
class TrainingHistory:
    """Sequence of :class:`EpochRecord` plus convergence metadata."""

    records: List[EpochRecord] = field(default_factory=list)
    converged_epoch: Optional[int] = None

    @property
    def total_seconds(self) -> float:
        """Total wall-clock training time."""
        return self.records[-1].cumulative_seconds if self.records else 0.0

    @property
    def final_loss(self) -> float:
        """Training loss of the last epoch."""
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].train_loss

    def losses(self) -> np.ndarray:
        """Per-epoch training losses."""
        return np.asarray([r.train_loss for r in self.records])

    def cumulative_times(self) -> np.ndarray:
        """Cumulative wall-clock seconds after each epoch (Fig. 5/7 series)."""
        return np.asarray([r.cumulative_seconds for r in self.records])


@dataclass(frozen=True)
class TrainerState:
    """Typed snapshot of a trainer's resumable EM state.

    Holds the global iteration counter plus, per regularized parameter,
    a :class:`~repro.core.em.RegularizerEMState` (``pi``/``lambda``, the
    refresh counters and — for online trainers — the decayed sufficient
    statistics).  Both :class:`Trainer` and
    :class:`~repro.online.trainer.OnlineTrainer` produce and consume
    this one type through :func:`capture_trainer_state` /
    :func:`restore_trainer_state`, so checkpoint restores and
    batch-to-online handoffs share a single code path instead of
    reaching into private regularizer fields.
    """

    iteration: int
    em: Dict[str, RegularizerEMState]

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-JSON form for checkpoint sidecar files."""
        return {
            "iteration": int(self.iteration),
            "em": {
                name: state.to_jsonable() for name, state in self.em.items()
            },
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "TrainerState":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            iteration=int(payload["iteration"]),
            em={
                name: RegularizerEMState.from_jsonable(state)
                for name, state in payload.get("em", {}).items()
            },
        )


def capture_trainer_state(model: TrainableModel, iteration: int) -> TrainerState:
    """Snapshot every regularizer's EM state into a :class:`TrainerState`.

    Parameters without a regularizer (or with one that does not expose
    ``em_state()``, e.g. the fixed-form baselines) are skipped — there
    is nothing EM-resumable about them.
    """
    em: Dict[str, RegularizerEMState] = {}
    for param in model.parameters():
        snapshot = getattr(param.regularizer, "em_state", None)
        if callable(snapshot):
            em[param.name] = snapshot()
    return TrainerState(iteration=int(iteration), em=em)


def restore_trainer_state(model: TrainableModel, state: TrainerState) -> None:
    """Load a :class:`TrainerState` back into the model's regularizers.

    Parameter names present in the snapshot but absent from the model
    (or vice versa) are ignored, mirroring the lenient ``strict=False``
    checkpoint semantics: restoring a partial snapshot resumes what it
    can.
    """
    for param in model.parameters():
        snapshot = state.em.get(param.name)
        if snapshot is None:
            continue
        restore = getattr(param.regularizer, "load_em_state", None)
        if callable(restore):
            restore(snapshot)


#: The Algorithm 2 phases, timed separately as ``phase/<name>``.
PHASES = ("estep", "grad", "mstep", "sgd")


class Stepper:
    """One Algorithm-2 iteration: E-step → gradient → M-step → SGD.

    The iteration body both trainers share; :class:`Trainer` wraps it in
    epochs and observers, :class:`~repro.online.trainer.OnlineTrainer`
    in a stream.  Each phase runs under its ``phase/<name>`` timer.

    - *E-step* (lines 4-7): every GM regularizer whose E-step is due
      joins one :func:`~repro.core.fusion.stacked_estep` call and adopts
      its slice as the cached ``g_reg``; other regularizers run their
      own ``prepare`` hook.
    - *Gradient*: ``g_ll + reg_scale * reg.gradient(w)`` per parameter
      (Equation (10)).
    - *M-step* (lines 9-11): each GM regularizer's M-step receives the
      responsibilities this iteration's E-step computed for it, so the
      densities are evaluated once.  An M-step due without an E-step
      runs the kernel itself.
    - *SGD* (line 12): the optimizer applies the combined gradients.

    A NaN or infinite regularized weight raises
    :class:`~repro.core.fusion.NonFiniteParameter` naming the parameter
    and the iteration, before any M-step replaces a mixture.
    """

    def __init__(
        self,
        model: TrainableModel,
        optimizer: SGD,
        metrics: MetricsRegistry,
    ) -> None:
        self.model = model
        self.params = list(model.parameters())
        self.optimizer = optimizer
        self.timers = {
            phase: metrics.timer(f"phase/{phase}") for phase in PHASES
        }
        self._workspace = Workspace()

    def step(
        self, x: np.ndarray, y: np.ndarray, iteration: int, reg_scale: float
    ) -> float:
        """Run one iteration on batch ``(x, y)``; returns its data loss."""
        timers = self.timers
        with timers["estep"]:
            responsibilities = self._estep(iteration)
        with timers["grad"]:
            loss, grads = self.model.loss_and_gradients(x, y)
            for param, grad in zip(self.params, grads):
                if param.regularizer is not None:
                    grad += reg_scale * param.regularizer.gradient(param.value)
        with timers["mstep"]:
            for i, param in enumerate(self.params):
                reg = param.regularizer
                if isinstance(reg, GMRegularizer):
                    try:
                        reg.update(
                            param.value, iteration, responsibilities.get(i)
                        )
                    except NonFiniteParameter:
                        raise NonFiniteParameter(
                            i, param.name, iteration
                        ) from None
                elif reg is not None:
                    reg.update(param.value, iteration)
        with timers["sgd"]:
            self.optimizer.step(grads)
        return loss

    def _estep(self, iteration: int) -> Dict[int, np.ndarray]:
        """The E-step phase; returns responsibilities by parameter index."""
        due: List[int] = []
        regs: List[GMRegularizer] = []
        for i, param in enumerate(self.params):
            reg = param.regularizer
            if isinstance(reg, GMRegularizer):
                if reg.estep_due(iteration):
                    due.append(i)
                    regs.append(reg)
            elif reg is not None:
                reg.prepare(param.value, iteration)
        try:
            results = stacked_estep(
                [reg.mixture for reg in regs],
                [self.params[i].value for i in due],
                self._workspace,
            )
        except NonFiniteParameter as exc:
            raise NonFiniteParameter(
                due[exc.index], self.params[due[exc.index]].name, iteration
            ) from None
        for reg, result in zip(regs, results):
            reg.adopt_estep(result)
        return {i: result.responsibilities for i, result in zip(due, results)}


class Trainer:
    """Mini-batch SGD + interleaved EM (Algorithms 1 and 2).

    Parameters
    ----------
    model:
        Any :class:`TrainableModel`.
    lr:
        Learning rate, or an :class:`LRSchedule` for decaying rates.
    momentum:
        SGD momentum (paper: 0.9 for CNNs, 0 for logistic regression).
    batch_size:
        Mini-batch size; the number of mini-batches per epoch is the
        ``B`` of Algorithm 2.
    shuffle:
        Whether to reshuffle the training set every epoch.
    convergence_tol:
        When set, training stops early once the relative improvement of
        the epoch loss falls below this tolerance for ``patience``
        consecutive epochs ("while not converged" in Algorithms 1/2).
    patience:
        Consecutive low-improvement epochs required to declare
        convergence.
    clock:
        Monotonic time source used for every duration this trainer
        records (epoch records and phase timers).  Injectable so tests
        can use a fake clock instead of sleeping; defaults to
        :func:`time.perf_counter`.
    metrics:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` receiving
        phase timers and counters.  A fresh registry (sharing ``clock``)
        is created when omitted.  The registry is reset at the start of
        every :meth:`fit`.
    """

    def __init__(
        self,
        model: TrainableModel,
        lr: float | LRSchedule = 0.1,
        momentum: float = 0.0,
        batch_size: int = 32,
        shuffle: bool = True,
        convergence_tol: Optional[float] = None,
        patience: int = 3,
        clock: Callable[[], float] = time.perf_counter,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.model = model
        self.schedule = lr if isinstance(lr, LRSchedule) else ConstantLR(float(lr))
        self.momentum = float(momentum)
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.convergence_tol = convergence_tol
        self.patience = int(patience)
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=clock)
        self._iteration = 0
        self._reg_scale = 1.0

    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        rng: Optional[np.random.Generator] = None,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        augment=None,
        callbacks: Optional[Sequence[Callback]] = None,
    ) -> TrainingHistory:
        """Train for up to ``epochs`` epochs (early-stops on convergence).

        Parameters
        ----------
        x, y:
            Training inputs and integer labels; first axis is samples.
        epochs:
            Maximum number of passes over the data.
        rng:
            Source of shuffling randomness (seeded for reproducibility).
        x_val, y_val:
            Optional held-out split evaluated after every epoch.
        augment:
            Optional callable ``(batch, rng) -> batch`` applied to each
            mini-batch (the ResNet pad-crop/flip augmentation).
        callbacks:
            :class:`~repro.telemetry.events.Callback` observers.  Any
            ambient callbacks installed through
            :func:`repro.telemetry.runtime.use_callbacks` are appended
            automatically.  Callbacks never alter the computation; a
            callback may request an early stop via
            :meth:`~repro.telemetry.events.RunContext.request_stop`,
            honoured at the end of the epoch.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        n = x.shape[0]
        if y.shape[0] != n:
            raise ValueError(f"x and y disagree on sample count: {n} vs {y.shape[0]}")
        rng = rng if rng is not None else default_generator()
        # Prior counted once vs. likelihood summed over N samples: with a
        # mean per-sample loss the regularizer enters at weight 1/N.
        self._reg_scale = 1.0 / float(n)
        params = list(self.model.parameters())
        optimizer = SGD(
            [p.value for p in params], lr=self.schedule.lr_at(0), momentum=self.momentum
        )
        stepper = Stepper(self.model, optimizer, self.metrics)

        self.metrics.reset()
        cbs = CallbackList(list(callbacks or ()) + list(default_callbacks()))
        ctx = RunContext(
            model=self.model,
            parameters=params,
            metrics=self.metrics,
            n_samples=n,
            batch_size=self.batch_size,
            max_epochs=epochs,
        )
        emit_em = cbs.wants_em_step
        emit_batch = cbs.wants_batch_end
        timers = stepper.timers
        batch_counter = self.metrics.counter("train/batches")
        epoch_counter = self.metrics.counter("train/epochs")
        loss_hist = self.metrics.histogram("train/epoch_loss")

        history = TrainingHistory()
        previous_loss: Optional[float] = None
        stall = 0
        start = self.clock()

        cbs.on_train_start(ctx)
        # One ambient span per fit; each epoch gets a child span whose
        # per-phase breakdown is recorded as synthetic children from the
        # phase-timer deltas (no per-batch span allocation).  Without an
        # ambient tracer these are all inert null spans.
        with start_span(
            "train/fit",
            attributes={"epochs": epochs, "n_samples": n},
        ):
            for epoch in range(epochs):
                with start_span(
                    "train/epoch", attributes={"epoch": epoch}
                ) as epoch_span:
                    phase_base = {
                        phase: timers[phase].total_seconds for phase in PHASES
                    }
                    optimizer.set_lr(self.schedule.lr_at(epoch))
                    self.metrics.gauge("train/lr").set(optimizer.lr)
                    cbs.on_epoch_start(epoch, ctx)
                    epoch_start = self.clock()
                    order = rng.permutation(n) if self.shuffle else np.arange(n)
                    epoch_loss = 0.0
                    n_batches = 0
                    for lo in range(0, n, self.batch_size):
                        batch = order[lo : lo + self.batch_size]
                        xb, yb = x[batch], y[batch]
                        if augment is not None:
                            xb = augment(xb, rng)
                        iteration = self._iteration
                        loss = self._train_step(
                            stepper, xb, yb, cbs if emit_em else None,
                            ctx, epoch,
                        )
                        epoch_loss += loss
                        batch_counter.inc()
                        if emit_batch:
                            cbs.on_batch_end(
                                BatchInfo(
                                    epoch=epoch,
                                    batch_index=n_batches,
                                    iteration=iteration,
                                    size=xb.shape[0],
                                    loss=loss,
                                ),
                                ctx,
                            )
                        n_batches += 1
                    epoch_loss /= max(n_batches, 1)
                    epoch_counter.inc()
                    loss_hist.observe(epoch_loss)

                    for param in params:
                        if param.regularizer is not None:
                            param.regularizer.epoch_end(epoch)
                    self._record_em_totals(params)

                    now = self.clock()
                    val_acc = None
                    if x_val is not None and y_val is not None:
                        val_acc = float(
                            np.mean(self.model.predict(x_val) == y_val)
                        )
                    record = EpochRecord(
                        epoch=epoch,
                        train_loss=epoch_loss,
                        elapsed_seconds=now - epoch_start,
                        cumulative_seconds=now - start,
                        val_accuracy=val_acc,
                    )
                    history.records.append(record)
                    epoch_span.set_attribute("loss", epoch_loss)
                    for phase in PHASES:
                        delta = (
                            timers[phase].total_seconds - phase_base[phase]
                        )
                        if delta > 0.0:
                            epoch_span.record_child(
                                f"train/{phase}", delta
                            )
                    cbs.on_epoch_end(record, ctx)

                if self.convergence_tol is not None and previous_loss is not None:
                    scale = max(abs(previous_loss), 1e-12)
                    if (previous_loss - epoch_loss) / scale < self.convergence_tol:
                        stall += 1
                    else:
                        stall = 0
                    if stall >= self.patience:
                        history.converged_epoch = epoch
                        break
                previous_loss = epoch_loss
                if ctx.stop_requested:
                    break
        cbs.on_train_end(history, ctx)
        return history

    # ------------------------------------------------------------------
    def state(self) -> TrainerState:
        """Snapshot the trainer's resumable EM state (see :class:`TrainerState`).

        Taken after :meth:`fit` this is the final EM state — the handoff
        an :class:`~repro.online.trainer.OnlineTrainer` resumes from.
        """
        return capture_trainer_state(self.model, self._iteration)

    def load_state(self, state: TrainerState) -> None:
        """Resume from a :class:`TrainerState` snapshot.

        Restores every regularizer's ``pi``/``lambda`` and the global
        iteration counter, so a subsequent :meth:`fit` continues the
        lazy-update schedule instead of restarting it.
        """
        restore_trainer_state(self.model, state)
        self._iteration = int(state.iteration)

    # ------------------------------------------------------------------
    def _record_em_totals(self, params: List[Parameter]) -> None:
        """Publish cumulative E-/M-step refresh counts as gauges.

        Summed across parameters so the Figs. 5-7 benchmarks can verify
        measured per-phase savings against the schedule's expected
        refresh fraction.
        """
        esteps = msteps = densities = 0
        seen = False
        for param in params:
            reg = param.regularizer
            if reg is None:
                continue
            e = getattr(reg, "estep_count", None)
            m = getattr(reg, "mstep_count", None)
            if e is None and m is None:
                continue
            seen = True
            esteps += int(e or 0)
            msteps += int(m or 0)
            densities += int(getattr(reg, "density_evals", None) or 0)
        if seen:
            self.metrics.gauge("em/estep_refreshes").set(esteps)
            self.metrics.gauge("em/mstep_refreshes").set(msteps)
            self.metrics.gauge("em/density_evals").set(densities)

    # ------------------------------------------------------------------
    def _train_step(
        self,
        stepper: Stepper,
        xb: np.ndarray,
        yb: np.ndarray,
        em_observers: Optional[CallbackList],
        ctx: RunContext,
        epoch: int,
    ) -> float:
        """One Algorithm-2 iteration plus its EM-step observers."""
        it = self._iteration
        params = stepper.params
        if em_observers is not None:
            counts_before = [
                (
                    getattr(p.regularizer, "estep_count", 0),
                    getattr(p.regularizer, "mstep_count", 0),
                )
                if p.regularizer is not None
                else (0, 0)
                for p in params
            ]
        loss = stepper.step(xb, yb, it, self._reg_scale)
        if em_observers is not None:
            for param, (e0, m0) in zip(params, counts_before):
                reg = param.regularizer
                if reg is None:
                    continue
                did_estep = getattr(reg, "estep_count", 0) > e0
                did_mstep = getattr(reg, "mstep_count", 0) > m0
                if did_estep or did_mstep:
                    em_observers.on_em_step(
                        EMStepInfo(
                            epoch=epoch,
                            iteration=it,
                            param_name=param.name,
                            did_estep=did_estep,
                            did_mstep=did_mstep,
                            state=reg.telemetry_state(),
                        ),
                        ctx,
                    )
        self._iteration = it + 1
        return loss
