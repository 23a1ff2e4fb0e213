"""Lightweight EM updates for the GM parameters (Equations (13) and (17)).

Given responsibilities ``r_k(w_m)`` computed in the E-step (Equation (9)),
the M-step has closed-form minimizers of the loss ``G`` with respect to
the mixture parameters:

Precisions (Equation (13)), smoothed by the Gamma(a, b) prior::

    lambda_k = (2(a - 1) + sum_m r_k(w_m)) / (2b + sum_m r_k(w_m) w_m^2)

Mixing coefficients (Equation (17)), smoothed by the Dirichlet(alpha)
prior via a Lagrange multiplier enforcing the simplex constraint::

    pi_k = (sum_m r_k(w_m) + (alpha_k - 1)) / (M + sum_j (alpha_j - 1))

When ``alpha_k < 1`` the numerator can go negative for components with
tiny responsibility mass; the paper relies on this to *prune* components
(K=4 collapsing to the 1-2 components reported in Tables IV/V).  We
implement pruning by clamping negative coefficients to zero and
renormalizing, and expose a switch so the behaviour can be ablated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .gaussian_mixture import GaussianMixture

__all__ = [
    "RegularizerEMState",
    "precisions_from_stats",
    "mixing_from_stats",
    "update_precisions",
    "update_mixing_coefficients",
    "suffstats_from_responsibilities",
    "merge_plan",
    "merge_similar_components",
    "em_step",
    "em_step_from_stats",
    "gm_loss_terms",
]

# Precisions are clipped to this range after each M-step.  The lower bound
# keeps the Gaussians proper; the upper bound prevents a pruned-in-all-but-
# name component from driving the density evaluation into overflow.
_LAMBDA_MIN = 1e-8
_LAMBDA_MAX = 1e12

# Components whose updated mixing coefficient falls below this threshold
# are pruned (coefficient set to 0) when pruning is enabled.
_PI_PRUNE_THRESHOLD = 1e-10


@dataclass(frozen=True)
class RegularizerEMState:
    """Typed snapshot of one regularizer's EM state.

    This is the per-parameter unit of
    :class:`~repro.optim.trainer.TrainerState`: enough to resume either
    the batch trainer (``pi``/``lam`` and the refresh counters) or the
    online trainer (which additionally carries the exponentially decayed
    sufficient statistics ``resp_sum``/``weighted_sq`` of
    :mod:`repro.online.em`).  All fields are plain arrays/ints so the
    snapshot round-trips through JSON and ``.npz`` checkpoints.
    """

    pi: np.ndarray
    lam: np.ndarray
    estep_count: int = 0
    mstep_count: int = 0
    resp_sum: Optional[np.ndarray] = None
    weighted_sq: Optional[np.ndarray] = None
    em_updates: int = 0

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-JSON form (arrays become lists, ``None`` stays)."""
        return {
            "pi": [float(v) for v in np.asarray(self.pi).reshape(-1)],
            "lam": [float(v) for v in np.asarray(self.lam).reshape(-1)],
            "estep_count": int(self.estep_count),
            "mstep_count": int(self.mstep_count),
            "resp_sum": (
                None if self.resp_sum is None
                else [float(v) for v in np.asarray(self.resp_sum).reshape(-1)]
            ),
            "weighted_sq": (
                None if self.weighted_sq is None
                else [
                    float(v)
                    for v in np.asarray(self.weighted_sq).reshape(-1)
                ]
            ),
            "em_updates": int(self.em_updates),
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "RegularizerEMState":
        """Inverse of :meth:`to_jsonable`."""
        def _opt(key: str) -> Optional[np.ndarray]:
            value = payload.get(key)
            return None if value is None else np.asarray(value, dtype=np.float64)

        return cls(
            pi=np.asarray(payload["pi"], dtype=np.float64),
            lam=np.asarray(payload["lam"], dtype=np.float64),
            estep_count=int(payload.get("estep_count", 0)),
            mstep_count=int(payload.get("mstep_count", 0)),
            resp_sum=_opt("resp_sum"),
            weighted_sq=_opt("weighted_sq"),
            em_updates=int(payload.get("em_updates", 0)),
        )


def precisions_from_stats(
    resp_sum: np.ndarray,
    weighted_sq: np.ndarray,
    a: float,
    b: float,
) -> np.ndarray:
    """Equation (13) evaluated on sufficient statistics.

    The M-step for the precisions only needs two per-component sums:
    ``resp_sum_k = sum_m r_k(w_m)`` and
    ``weighted_sq_k = sum_m r_k(w_m) w_m^2``.  Factoring the update this
    way lets the batch E-step and the online trainer's exponentially
    decayed running statistics share one M-step implementation.

    Returns
    -------
    numpy.ndarray
        Updated precisions, shape ``(K,)``, clipped to a safe range.
    """
    numerator = 2.0 * (a - 1.0) + np.asarray(resp_sum, dtype=np.float64)
    denominator = 2.0 * b + np.asarray(weighted_sq, dtype=np.float64)
    lam = numerator / np.maximum(denominator, 1e-300)
    return np.clip(lam, _LAMBDA_MIN, _LAMBDA_MAX)


def mixing_from_stats(
    resp_sum: np.ndarray,
    alpha: np.ndarray,
    prune: bool = True,
) -> np.ndarray:
    """Equation (17) evaluated on the responsibility-mass statistic.

    Same sufficient-statistic factoring as :func:`precisions_from_stats`;
    see :func:`update_mixing_coefficients` for the pruning semantics.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    resp_sum = np.asarray(resp_sum, dtype=np.float64).reshape(-1)
    numerator = resp_sum + (alpha - 1.0)
    if prune:
        numerator = np.where(numerator < _PI_PRUNE_THRESHOLD, 0.0, numerator)
    else:
        numerator = np.maximum(numerator, _PI_PRUNE_THRESHOLD)
    total = numerator.sum()
    if total <= 0.0:
        # Degenerate case: every component pruned.  Fall back to the raw
        # responsibility masses, which always form a valid distribution.
        numerator = np.maximum(resp_sum, _PI_PRUNE_THRESHOLD)
        total = numerator.sum()
    # Denominator M + sum(alpha - 1) equals `total` after clamping.
    return numerator / total


def update_precisions(
    responsibilities: np.ndarray,
    w: np.ndarray,
    a: float,
    b: float,
) -> np.ndarray:
    """M-step for the component precisions (Equation (13)).

    Parameters
    ----------
    responsibilities:
        Matrix ``(M, K)`` from :meth:`GaussianMixture.responsibilities`.
    w:
        Flattened model parameter vector, shape ``(M,)``.
    a, b:
        Gamma-prior shape and rate; ``2(a-1)`` and ``2b`` act as pseudo
        counts and pseudo sums of squares.

    Returns
    -------
    numpy.ndarray
        Updated precisions, shape ``(K,)``, clipped to a safe range.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    resp_sum = responsibilities.sum(axis=0)
    weighted_sq = responsibilities.T @ (w * w)
    return precisions_from_stats(resp_sum, weighted_sq, a=a, b=b)


def update_mixing_coefficients(
    responsibilities: np.ndarray,
    alpha: np.ndarray,
    prune: bool = True,
) -> np.ndarray:
    """M-step for the mixing coefficients (Equation (17)).

    Parameters
    ----------
    responsibilities:
        Matrix ``(M, K)``.
    alpha:
        Dirichlet concentration parameters, shape ``(K,)``.
    prune:
        When True (paper behaviour), coefficients driven negative by the
        ``alpha_k - 1`` term are set to zero — the component is pruned —
        and the rest renormalized.  When False the coefficients are
        floored at a small epsilon instead (ablation mode).

    Returns
    -------
    numpy.ndarray
        Updated mixing coefficients on the simplex, shape ``(K,)``.
    """
    return mixing_from_stats(
        responsibilities.sum(axis=0), alpha=alpha, prune=prune
    )


def suffstats_from_responsibilities(
    responsibilities: np.ndarray,
    w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The two M-step sufficient statistics from a responsibility matrix.

    Returns ``(resp_sum, weighted_sq)`` — ``sum_m r_k(w_m)`` and
    ``sum_m r_k(w_m) w_m^2`` — always accumulated in float64, so the
    float32 E-step of a float32 model still produces float64-quality GM
    updates.
    """
    resp = np.asarray(responsibilities, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    return resp.sum(axis=0), resp.T @ (w * w)


def merge_plan(
    pi: np.ndarray,
    lam: np.ndarray,
    rel_tol: float = 0.02,
) -> List[List[int]]:
    """Index groups of components whose precisions have converged together.

    The greedy adjacent-merge walk of :func:`merge_similar_components`,
    expressed as a *plan*: each returned group lists the indices (into
    the input arrays) of components that collapse into one, ordered by
    ascending precision.  The running merged precision is the
    pi-weighted mean, so the grouping is identical to what
    :func:`merge_similar_components` applies.  :func:`em_step_from_stats`
    uses the plan to merge the sufficient statistics alongside the
    mixture parameters.
    """
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    order = np.argsort(lam)
    groups: List[List[int]] = [[int(order[0])]]
    current_pi = float(pi[order[0]])
    current_lam = float(lam[order[0]])
    for idx in order[1:]:
        lam_k = float(lam[idx])
        if abs(lam_k - current_lam) <= rel_tol * max(
            abs(lam_k), abs(current_lam)
        ):
            total = current_pi + float(pi[idx])
            current_lam = (
                current_pi * current_lam + float(pi[idx]) * lam_k
            ) / max(total, 1e-300)
            current_pi = total
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
            current_pi = float(pi[idx])
            current_lam = lam_k
    return groups


def merge_similar_components(
    pi: np.ndarray,
    lam: np.ndarray,
    rel_tol: float = 0.02,
) -> tuple:
    """Merge components whose precisions have converged to the same value.

    EM started from distinct precisions frequently drives several
    components onto the *same* fixed point; the paper describes these as
    "gradually merged to one" (Section V-B1), which is how K=4 collapses
    to the 1-2 components of Tables IV/V.  Two components are merged when
    their precisions agree within ``rel_tol`` relative tolerance; merged
    mixing coefficients are summed and the precision is their
    pi-weighted mean.

    Returns the (possibly shorter) ``(pi, lam)`` pair, sorted by
    ascending precision.
    """
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    return _merge_groups(merge_plan(pi, lam, rel_tol=rel_tol), pi, lam)


def _merge_groups(
    groups: List[List[int]],
    pi: np.ndarray,
    lam: np.ndarray,
    *stats: np.ndarray,
) -> tuple:
    """Collapse each :func:`merge_plan` group into one component.

    The merged ``pi`` is the members' sum and the merged ``lambda`` their
    pi-weighted mean.  Each sufficient-statistics row in ``stats`` is
    summed over the group: a sum of sums is the merged component's
    statistic.  Returns ``(pi, lam, *stats)``.
    """
    if len(groups) == pi.size:  # nothing merges: at most a reorder
        order = [g[0] for g in groups]
        if order == list(range(len(order))):
            return (pi, lam, *stats)
        return (pi[order], lam[order], *(row[order] for row in stats))
    merged_lam = [
        float((pi[g] * lam[g]).sum()) / max(float(pi[g].sum()), 1e-300)
        for g in groups
    ]
    summed = [
        np.asarray([float(row[g].sum()) for g in groups])
        for row in (pi,) + stats
    ]
    return (summed[0], np.asarray(merged_lam), *summed[1:])


def em_step(
    mixture: GaussianMixture,
    w: np.ndarray,
    alpha: np.ndarray,
    a: float,
    b: float,
    prune: bool = True,
    merge: bool = True,
    merge_rel_tol: float = 0.02,
) -> GaussianMixture:
    """One full E+M step on the GM parameters for fixed ``w``.

    The reference built from the readable pieces: Equation (9) from
    :meth:`GaussianMixture.responsibilities`, then
    :func:`em_step_from_stats`.  Components pruned to zero mixing
    coefficient are removed from the returned mixture, and components
    whose precisions have converged to the same value are merged
    (matching the paper's observation that K=4 collapses to 1-2
    effective components).
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    resp_sum, weighted_sq = suffstats_from_responsibilities(
        mixture.responsibilities(w), w
    )
    updated, _, _ = em_step_from_stats(
        mixture,
        resp_sum,
        weighted_sq,
        alpha=alpha,
        a=a,
        b=b,
        prune=prune,
        merge=merge,
        merge_rel_tol=merge_rel_tol,
    )
    return updated


def em_step_from_stats(
    mixture: GaussianMixture,
    resp_sum: np.ndarray,
    weighted_sq: np.ndarray,
    alpha: np.ndarray,
    a: float,
    b: float,
    prune: bool = True,
    merge: bool = True,
    merge_rel_tol: float = 0.02,
) -> Tuple[GaussianMixture, np.ndarray, np.ndarray]:
    """The M-step: Equations (13)/(17) on the two sufficient statistics.

    The only code that updates ``pi``/``lambda``.  Batch EM feeds it one
    iteration's statistics; online EM (:mod:`repro.online.em`) feeds it
    the decayed running summary.  After the update, components whose
    mixing coefficient is pruned to zero are removed and components
    whose precisions converged are merged (sorted by ascending
    precision).

    Returns ``(mixture, resp_sum, weighted_sq)``: the statistics are
    carried through the same prune and merge, so row ``k`` stays aligned
    with component ``k`` (merged components sum their rows).
    ``mixture`` is only consulted for its component count.
    """
    resp_sum = np.asarray(resp_sum, dtype=np.float64).reshape(-1)
    weighted_sq = np.asarray(weighted_sq, dtype=np.float64).reshape(-1)
    if resp_sum.shape[0] != mixture.n_components:
        raise ValueError(
            f"statistics carry {resp_sum.shape[0]} components, mixture "
            f"has {mixture.n_components}"
        )
    lam = precisions_from_stats(resp_sum, weighted_sq, a=a, b=b)
    pi = mixing_from_stats(resp_sum, alpha=alpha, prune=prune)
    keep = pi > 0.0
    if not np.all(keep) and keep.sum() >= 1:
        pi = pi[keep] / pi[keep].sum()
        lam = lam[keep]
        resp_sum = resp_sum[keep]
        weighted_sq = weighted_sq[keep]
    if merge and pi.size > 1:
        groups = merge_plan(pi, lam, rel_tol=merge_rel_tol)
        pi, lam, resp_sum, weighted_sq = _merge_groups(
            groups, pi, lam, resp_sum, weighted_sq
        )
    return GaussianMixture(pi=pi, lam=lam), resp_sum, weighted_sq


def gm_loss_terms(
    mixture: GaussianMixture,
    w: np.ndarray,
    alpha: np.ndarray,
    a: float,
    b: float,
) -> float:
    """Negative log of the joint prior (the regularization part of Eq. (8)).

    Returns ``-log p(w, pi, lambda | alpha, a, b)`` up to additive
    constants that do not depend on ``(w, pi, lambda)``.  Useful for
    monitoring EM progress and in tests asserting that the M-step does
    not increase the objective.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.size != mixture.n_components:
        # Components may have been pruned since the hyper-parameters were
        # laid out; the Dirichlet concentration is shared, so truncate.
        alpha = alpha[: mixture.n_components]
    log_lik = float(mixture.log_pdf(w).sum())
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.maximum(mixture.pi, 1e-300))
    log_dirichlet = float(((alpha - 1.0) * log_pi).sum())
    log_gamma_prior = float(
        ((a - 1.0) * np.log(mixture.lam) - b * mixture.lam).sum()
    )
    return -(log_lik + log_dirichlet + log_gamma_prior)
