"""Online EM for the GM prior: decayed sufficient statistics.

The batch M-step (Equations (13)/(17)) needs only two per-component
sums over the weight vector — the responsibility mass
``S0_k = sum_m r_k(w_m)`` and the weighted square sum
``S1_k = sum_m r_k(w_m) w_m^2``.  :func:`repro.core.em.em_step_from_stats`
is the one M-step, written over exactly those statistics, so the
*online* variant only changes how the statistics are produced: instead
of recomputing them from scratch each step it maintains an
exponentially decayed running summary

    S <- rho * S + (1 - rho) * s_t        (first update: S = s_t)

and hands it to that M-step, which carries the summary through its
prune and merge (batch EM is the no-memory case).  On stationary
weights the recursion's fixed point is ``S = s_t``, i.e. the batch
statistics — which is why the benchmark can require online π/λ to
match batch EM within ``1e-3`` on stationary data, while under drift
the decay keeps the prior tracking the moving weight distribution (the
same spirit in which regularized/streaming EM variants stabilize
updates on small batches).

:class:`DecayedGMRegularizer` packages the recursion behind the normal
:class:`~repro.core.gm_regularizer.GMRegularizer` interface, so it joins
the training step's stacked E-step like any GM regularizer.  Warm-up
gating is an override of the due-checks' epoch: the first
``warmup_steps`` streaming steps are treated as the
:class:`~repro.core.lazy.LazyUpdateSchedule`'s eager epochs (every step
refreshes), after which the lazy ``Im``/``Ig`` intervals take over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.em import (
    RegularizerEMState,
    em_step_from_stats,
    suffstats_from_responsibilities,
)
from ..core.gaussian_mixture import GaussianMixture
from ..core.gm_regularizer import GMRegularizer
from ..core.hyperparams import GMHyperParams
from ..core.lazy import LazyUpdateSchedule

__all__ = ["OnlineEMState", "online_em_step", "DecayedGMRegularizer"]


@dataclass(frozen=True)
class OnlineEMState:
    """One step of the decayed-statistics recursion, as a value.

    ``resp_sum``/``weighted_sq`` are the running ``S0``/``S1`` aligned
    with ``mixture``'s components (``None`` before the first update).
    ``updates`` counts completed :func:`online_em_step` applications.
    """

    mixture: GaussianMixture
    resp_sum: Optional[np.ndarray] = None
    weighted_sq: Optional[np.ndarray] = None
    updates: int = 0


def _blend(
    running: Optional[np.ndarray], fresh: np.ndarray, rho: float
) -> np.ndarray:
    """``rho``-decayed blend; the first observation seeds the summary."""
    if running is None:
        return fresh
    return rho * running + (1.0 - rho) * fresh


def online_em_step(
    state: OnlineEMState,
    w: np.ndarray,
    alpha: np.ndarray,
    a: float,
    b: float,
    rho: float = 0.95,
    prune: bool = True,
    merge: bool = True,
    merge_rel_tol: float = 0.02,
    responsibilities: Optional[np.ndarray] = None,
) -> OnlineEMState:
    """One online E+M step on the GM parameters for the current ``w``.

    Blends this step's statistics into the decayed running summary and
    hands it to :func:`repro.core.em.em_step_from_stats`, the M-step
    batch EM uses too.  Pruned components drop their statistics rows and
    merged components sum them, so the summary stays aligned with the
    mixture as K collapses.

    ``responsibilities`` is the Equation (9) matrix already computed for
    this exact ``(mixture, w)`` pair by the E-step kernel; without it
    they come from :meth:`GaussianMixture.responsibilities`.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    mixture = state.mixture
    resp = (
        responsibilities
        if responsibilities is not None
        else mixture.responsibilities(w)
    )
    if resp.shape != (w.size, mixture.n_components):
        raise ValueError(
            f"responsibilities have shape {resp.shape}, expected "
            f"({w.size}, {mixture.n_components})"
        )
    s0, s1 = suffstats_from_responsibilities(resp, w)
    updated, resp_sum, weighted_sq = em_step_from_stats(
        mixture,
        _blend(state.resp_sum, s0, rho),
        _blend(state.weighted_sq, s1, rho),
        alpha=alpha,
        a=a,
        b=b,
        prune=prune,
        merge=merge,
        merge_rel_tol=merge_rel_tol,
    )
    return OnlineEMState(
        mixture=updated,
        resp_sum=resp_sum,
        weighted_sq=weighted_sq,
        updates=state.updates + 1,
    )


class DecayedGMRegularizer(GMRegularizer):
    """:class:`GMRegularizer` whose M-step runs on decayed statistics.

    Drop-in for the batch regularizer inside any training loop, but
    built for streams:

    - The M-step applies :func:`online_em_step` — the running
      ``S0``/``S1`` summary carries memory of past weight snapshots with
      exponential decay ``rho``, so one noisy mini-batch cannot yank the
      prior around, yet the prior still tracks drift.
    - Warm-up gating reuses the lazy schedule: the due-checks map
      streaming steps below ``warmup_steps`` to the schedule's
      eager-epoch regime (refresh every step); afterwards the lazy
      ``Im``/``Ig`` intervals apply, exactly as in Algorithm 2's
      post-warm-up phase.
    - :meth:`em_state`/:meth:`load_em_state` additionally round-trip the
      running statistics, so a :class:`~repro.optim.trainer.TrainerState`
      snapshot resumes the stream where it left off.
    """

    def __init__(
        self,
        n_dimensions: int,
        weight_init_std: float = 0.1,
        hyperparams: Optional[GMHyperParams] = None,
        init_method: str = "linear",
        schedule: Optional[LazyUpdateSchedule] = None,
        prune_components: bool = True,
        merge_components: bool = True,
        rho: float = 0.95,
        warmup_steps: int = 0,
    ) -> None:
        super().__init__(
            n_dimensions,
            weight_init_std=weight_init_std,
            hyperparams=hyperparams,
            init_method=init_method,
            schedule=schedule,
            prune_components=prune_components,
            merge_components=merge_components,
        )
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
        if warmup_steps > 0 and self.schedule.eager_epochs < 1:
            raise ValueError(
                "warmup_steps > 0 needs a schedule with eager_epochs >= 1 "
                "(warm-up is expressed as the schedule's eager regime)"
            )
        self.rho = float(rho)
        self.warmup_steps = int(warmup_steps)
        self._resp_sum: Optional[np.ndarray] = None
        self._weighted_sq: Optional[np.ndarray] = None
        self._em_updates = 0

    # ------------------------------------------------------------------
    # Warm-up gating through the lazy schedule
    # ------------------------------------------------------------------
    def _schedule_epoch(self, iteration: int) -> int:
        """Map a streaming step onto the schedule's epoch axis.

        Steps inside the warm-up window behave like epoch 0 (eager:
        refresh every iteration); later steps sit at ``eager_epochs``,
        the first lazy epoch, so only the ``Im``/``Ig`` intervals fire.
        """
        if iteration < self.warmup_steps:
            return 0
        return self.schedule.eager_epochs

    # ------------------------------------------------------------------
    # The decayed M-step
    # ------------------------------------------------------------------
    def _mstep(
        self, flat: np.ndarray, responsibilities: np.ndarray
    ) -> GaussianMixture:
        """``uptGMParam()`` on the decayed summary instead of raw sums."""
        state = online_em_step(
            OnlineEMState(
                mixture=self.mixture,
                resp_sum=self._resp_sum,
                weighted_sq=self._weighted_sq,
                updates=self._em_updates,
            ),
            flat,
            alpha=self._alpha[: self.mixture.n_components],
            a=self._a,
            b=self._b,
            rho=self.rho,
            prune=self.prune_components,
            merge=self.merge_components,
            responsibilities=responsibilities,
        )
        self._resp_sum = state.resp_sum
        self._weighted_sq = state.weighted_sq
        self._em_updates = state.updates
        return state.mixture

    # ------------------------------------------------------------------
    # Snapshot/restore carrying the running statistics
    # ------------------------------------------------------------------
    def em_state(self) -> RegularizerEMState:
        """Snapshot including the decayed ``S0``/``S1`` summary."""
        return RegularizerEMState(
            pi=self.mixture.pi.copy(),
            lam=self.mixture.lam.copy(),
            estep_count=self._n_estep,
            mstep_count=self._n_mstep,
            resp_sum=None if self._resp_sum is None else self._resp_sum.copy(),
            weighted_sq=(
                None if self._weighted_sq is None else self._weighted_sq.copy()
            ),
            em_updates=self._em_updates,
        )

    def load_em_state(self, state: RegularizerEMState) -> None:
        """Restore mixture *and* running statistics from a snapshot."""
        super().load_em_state(state)
        self._resp_sum = (
            None
            if state.resp_sum is None
            else np.asarray(state.resp_sum, dtype=np.float64).reshape(-1)
        )
        self._weighted_sq = (
            None
            if state.weighted_sq is None
            else np.asarray(state.weighted_sq, dtype=np.float64).reshape(-1)
        )
        self._em_updates = int(state.em_updates)

    def __repr__(self) -> str:
        return (
            f"DecayedGMRegularizer(M={self.n_dimensions}, "
            f"K={self.mixture.n_components}, rho={self.rho}, "
            f"warmup_steps={self.warmup_steps})"
        )
