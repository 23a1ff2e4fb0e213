"""The adaptive GM regularization tool — the paper's core contribution.

:class:`GMRegularizer` plugs into any SGD training loop through the same
interface as the fixed-form baselines (:mod:`repro.core.regularizers`),
but instead of a fixed penalty it maintains a zero-mean Gaussian Mixture
prior over the parameters and *adapts it during training*:

- ``prepare(w, iteration)`` refreshes the cached ``g_reg`` (the E-step,
  Equation (9) + the second term of Equation (10)) when the
  :class:`~repro.core.lazy.LazyUpdateSchedule` says it is due.
- ``gradient(w)`` returns ``g_reg``, reusing the cache between E-steps.
- ``update(w, iteration)`` runs the M-step (Equations (13)/(17)) when
  due — Algorithm 2's exact ordering: E-step, gradient, M-step, SGD.

The three key functions named in Section IV of the paper are exposed
verbatim (PEP 8-cased): :meth:`cal_responsibility`,
:meth:`calc_reg_grad` and :meth:`upt_gm_param`.

**One density evaluation per iteration.**  Equations (9) and (10)
share the per-component log-densities, and the M-step consumes the very
responsibilities the E-step just produced.  The training step
(:class:`~repro.optim.trainer.Stepper`) runs the one kernel of
:mod:`repro.core.fusion` over every due GM regularizer at once, installs
each result with :meth:`GMRegularizer.adopt_estep` and hands its
responsibilities to :meth:`GMRegularizer.update` in the same iteration.
An M-step that finds no responsibilities (standalone use, or a lazy
schedule with ``Im != Ig``) runs the kernel itself.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from .em import (
    RegularizerEMState,
    em_step_from_stats,
    gm_loss_terms,
    suffstats_from_responsibilities,
)
from .fusion import EStepResult, Workspace, stacked_estep
from .gaussian_mixture import GaussianMixture
from .hyperparams import GMHyperParams
from .initialization import base_precision_from_weight_init, initialize_mixture
from .lazy import LazyUpdateSchedule
from .regularizers import Regularizer

__all__ = ["GMRegularizer"]


class GMRegularizer(Regularizer):
    """Adaptive Gaussian-Mixture regularizer (Sections III and IV).

    Parameters
    ----------
    n_dimensions:
        ``M`` — number of parameter dimensions this instance regularizes
        (for deep models, one instance per layer; Section V-B1).
    weight_init_std:
        Standard deviation used to initialize the regularized weights;
        determines the base GM precision (Section V-E).
    hyperparams:
        The :class:`~repro.core.hyperparams.GMHyperParams` policy; the
        default follows the paper (K=4, ``b = gamma*M``, ``alpha = M^0.5``).
    init_method:
        GM precision initialization: ``"identical"``, ``"linear"``
        (paper's best, the default) or ``"proportional"``.
    schedule:
        Lazy-update schedule (Algorithm 2).  The default of
        ``Im = Ig = 1`` reproduces the eager Algorithm 1.
    prune_components:
        Whether the M-step prunes components whose mixing coefficient is
        driven to zero (paper behaviour; disable for ablation).
    merge_components:
        Whether components whose precisions converge to the same value
        are merged — the mechanism by which K=4 collapses to the 1-2
        components reported in Tables IV/V (disable for ablation).

    Examples
    --------
    >>> import numpy as np
    >>> reg = GMRegularizer(n_dimensions=100, weight_init_std=0.1)
    >>> w = np.random.default_rng(0).normal(0.0, 0.1, size=100)
    >>> reg.prepare(w, iteration=0)  # E-step: refresh g_reg cache
    >>> g = reg.gradient(w)          # g_reg of Equation (10)
    >>> reg.update(w, iteration=0)   # M-step: refresh pi and lambda
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
    ) -> None:
        if n_dimensions < 1:
            raise ValueError(f"n_dimensions must be >= 1, got {n_dimensions}")
        self.n_dimensions = int(n_dimensions)
        self.hyperparams = hyperparams or GMHyperParams()
        self.schedule = schedule or LazyUpdateSchedule()
        self.prune_components = bool(prune_components)
        self.merge_components = bool(merge_components)
        self.init_method = init_method

        self._a = self.hyperparams.gamma_shape(self.n_dimensions)
        self._b = self.hyperparams.gamma_rate(self.n_dimensions)
        self._alpha = self.hyperparams.dirichlet_alpha(self.n_dimensions)

        base = base_precision_from_weight_init(weight_init_std)
        self.mixture = initialize_mixture(
            self.hyperparams.n_components, base, method=init_method
        )

        self._epoch = 0
        self._cached_reg_grad: Optional[np.ndarray] = None
        self._n_estep = 0
        self._n_mstep = 0
        # One density evaluation per iteration that runs the E-step
        # (and one more per M-step that had to run the kernel itself).
        self._n_density_evals = 0
        self._workspace = Workspace()

    # ------------------------------------------------------------------
    # Key functions of the tool (Section IV naming)
    # ------------------------------------------------------------------
    def cal_responsibility(self, w: np.ndarray) -> np.ndarray:
        """``calResponsibility()``: responsibilities ``r_k(w_m)`` (Eq. (9))."""
        return self.mixture.responsibilities(np.asarray(w).reshape(-1))

    def calc_reg_grad(self, w: np.ndarray) -> np.ndarray:
        """``calcRegGrad()``: fresh ``g_reg`` (second term of Eq. (10)).

        ``g_reg_m = sum_k r_k(w_m) * lambda_k * w_m`` — a responsibility-
        weighted precision applied to each parameter, which is what gives
        small parameters strong (high-precision component) regularization
        and large parameters weak regularization.  This is one E-step:
        the result becomes the cached gradient :meth:`gradient` returns.
        """
        self.adopt_estep(self._evaluate(w))
        return self.gradient(w)

    def upt_gm_param(
        self, w: np.ndarray, responsibilities: Optional[np.ndarray] = None
    ) -> None:
        """``uptGMParam()``: one M-step on ``pi``/``lambda`` (Eqs. (13),(17)).

        ``responsibilities`` is this iteration's E-step matrix for ``w``
        under the current mixture; without it the M-step runs the kernel
        itself (one more density evaluation).
        """
        if responsibilities is None:
            responsibilities = self._evaluate(w).responsibilities
            self._n_density_evals += 1
        flat = np.asarray(w, dtype=np.float64).reshape(-1)
        self.mixture = self._mstep(flat, responsibilities)
        self._n_mstep += 1

    def _evaluate(self, w: np.ndarray) -> EStepResult:
        """The kernel on a stack of one (not counted; callers count)."""
        if np.size(w) != self.n_dimensions:
            raise ValueError(
                f"expected {self.n_dimensions} parameter dimensions, "
                f"got {np.size(w)}"
            )
        (result,) = stacked_estep([self.mixture], [w], self._workspace)
        return result

    def _mstep(
        self, flat: np.ndarray, responsibilities: np.ndarray
    ) -> GaussianMixture:
        """Equations (13)/(17) on this iteration's statistics alone.

        Batch EM is the no-memory case; the online regularizer overrides
        this to blend the statistics with its decayed running summary.
        """
        resp_sum, weighted_sq = suffstats_from_responsibilities(
            responsibilities, flat
        )
        mixture, _, _ = em_step_from_stats(
            self.mixture,
            resp_sum,
            weighted_sq,
            alpha=self._alpha[: self.mixture.n_components],
            a=self._a,
            b=self._b,
            prune=self.prune_components,
            merge=self.merge_components,
        )
        return mixture

    # ------------------------------------------------------------------
    # Regularizer interface used by the trainers
    # ------------------------------------------------------------------
    def penalty(self, w: np.ndarray) -> float:
        """Negative log prior of ``w`` under the current mixture.

        Monitoring value only — training uses :meth:`gradient`, matching
        the paper where the regularizer contributes through ``g_reg``.
        """
        flat = np.asarray(w, dtype=np.float64).reshape(-1)
        return -float(self.mixture.log_pdf(flat).sum())

    def prepare(self, w: np.ndarray, iteration: int) -> None:
        """E-step of Algorithm 2 (lines 4-7), honouring the lazy schedule.

        Refreshes the cached ``g_reg`` from the current parameters when
        the schedule says this iteration performs the E-step; otherwise
        the stale cache is kept and reused by :meth:`gradient`.
        """
        if self.estep_due(iteration):
            self.calc_reg_grad(w)

    def estep_due(self, iteration: int) -> bool:
        """Whether :meth:`prepare` would refresh ``g_reg`` this iteration.

        True when there is no cached gradient yet or the lazy schedule
        marks this iteration for an E-step.  The training step uses this
        to decide which regularizers join the stacked kernel call.
        """
        return self._cached_reg_grad is None or (
            self.schedule.should_update_reg_gradient(
                iteration, self._schedule_epoch(iteration)
            )
        )

    def mstep_due(self, iteration: int) -> bool:
        """Whether :meth:`update` runs the M-step this iteration."""
        return self.schedule.should_update_gm(
            iteration, self._schedule_epoch(iteration)
        )

    def _schedule_epoch(self, iteration: int) -> int:
        """The epoch the lazy schedule sees at ``iteration``."""
        del iteration
        return self._epoch

    def adopt_estep(self, result: EStepResult) -> None:
        """Install one E-step result as the cached ``g_reg``.

        The training step evaluates one kernel for many regularizers and
        hands each its slice here; :meth:`calc_reg_grad` installs its own
        single-layer result the same way.  Counts one E-step and one
        density evaluation.
        """
        if result.gradient.shape != (self.n_dimensions,):
            raise ValueError(
                f"gradient has shape {result.gradient.shape}, expected "
                f"({self.n_dimensions},)"
            )
        self._cached_reg_grad = result.gradient
        self._n_estep += 1
        self._n_density_evals += 1

    def gradient(self, w: np.ndarray) -> np.ndarray:
        """``g_reg`` — the cached value from the last E-step.

        On the very first call (no cache yet) a fresh gradient is
        computed, so the regularizer also works outside a training loop.
        """
        if self._cached_reg_grad is None:
            self.prepare(w, iteration=0)
        if self._cached_reg_grad is None:
            raise RuntimeError(
                "prepare() did not populate the regularizer gradient cache"
            )
        return self._cached_reg_grad.reshape(np.asarray(w).shape)

    def update(
        self,
        w: np.ndarray,
        iteration: int,
        responsibilities: Optional[np.ndarray] = None,
    ) -> None:
        """M-step of Algorithm 2 (lines 9-11), honouring the lazy schedule.

        ``responsibilities`` is this iteration's E-step matrix, handed
        over by the training step so the M-step reuses it instead of
        re-evaluating the densities.
        """
        if self.mstep_due(iteration):
            self.upt_gm_param(w, responsibilities)

    def epoch_end(self, epoch: int) -> None:
        """Advance the epoch counter used by the lazy schedule."""
        self._epoch = epoch + 1

    def telemetry_state(self) -> Dict[str, Any]:
        """Current mixture state for telemetry (Fig. 3 observables).

        ``n_components`` is the *effective* component count after the
        M-step's pruning/merging — the quantity that collapses from
        ``K = 4`` toward the 1-2 components of Tables IV/V.
        """
        return {
            "pi": [float(p) for p in self.mixture.pi],
            "lam": [float(lam_k) for lam_k in self.mixture.lam],
            "n_components": int(self.mixture.n_components),
            "estep_count": self._n_estep,
            "mstep_count": self._n_mstep,
            "density_evals": self._n_density_evals,
        }

    # ------------------------------------------------------------------
    # Typed EM state snapshot/restore (TrainerState's per-parameter unit)
    # ------------------------------------------------------------------
    def em_state(self) -> RegularizerEMState:
        """Snapshot ``pi``/``lambda`` and the refresh counters.

        This is the sanctioned way to capture a regularizer's EM state —
        trainers and checkpoint code build
        :class:`~repro.optim.trainer.TrainerState` from these snapshots
        instead of reaching into private fields.  Subclasses carrying
        extra state (the online trainer's decayed sufficient statistics)
        extend the returned record.
        """
        return RegularizerEMState(
            pi=self.mixture.pi.copy(),
            lam=self.mixture.lam.copy(),
            estep_count=self._n_estep,
            mstep_count=self._n_mstep,
        )

    def load_em_state(self, state: RegularizerEMState) -> None:
        """Restore a snapshot taken by :meth:`em_state`.

        The cached ``g_reg`` is invalidated so the next
        :meth:`prepare` recomputes it under the restored mixture.
        """
        self.mixture = GaussianMixture(
            pi=np.asarray(state.pi, dtype=np.float64),
            lam=np.asarray(state.lam, dtype=np.float64),
        )
        self._n_estep = int(state.estep_count)
        self._n_mstep = int(state.mstep_count)
        self._cached_reg_grad = None

    # ------------------------------------------------------------------
    # Introspection helpers used by the experiments and tests
    # ------------------------------------------------------------------
    @property
    def pi(self) -> np.ndarray:
        """Current mixing coefficients of the learned GM."""
        return self.mixture.pi

    @property
    def lam(self) -> np.ndarray:
        """Current precisions of the learned GM."""
        return self.mixture.lam

    @property
    def estep_count(self) -> int:
        """Number of E-step (responsibility + ``g_reg``) evaluations so far."""
        return self._n_estep

    @property
    def mstep_count(self) -> int:
        """Number of M-step (GM parameter) updates so far."""
        return self._n_mstep

    @property
    def density_evals(self) -> int:
        """Number of per-component density evaluations over ``w`` so far.

        An iteration of the training step running both an E-step and an
        M-step evaluates the densities once; an M-step on an iteration
        without an E-step (a lazy schedule with ``Im != Ig``) adds one.
        """
        return self._n_density_evals

    def regularization_loss(self, w: np.ndarray) -> float:
        """Full ``-log p(w, pi, lambda | alpha, a, b)`` for monitoring."""
        alpha = self._alpha[: self.mixture.n_components]
        return gm_loss_terms(
            self.mixture, np.asarray(w).reshape(-1), alpha, self._a, self._b
        )

    def __repr__(self) -> str:
        return (
            f"GMRegularizer(M={self.n_dimensions}, K={self.mixture.n_components}, "
            f"init={self.init_method!r}, schedule={self.schedule})"
        )
