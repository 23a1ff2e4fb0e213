"""The E-step kernel — the training hot path.

Profiling with the per-phase timers (``phase/estep`` … ``phase/sgd``)
shows the GM regularizer's EM machinery dominating eager training, and
that the dominant cost is evaluating the per-component Gaussian
densities ``N(w_m | 0, lambda_k)`` over every parameter dimension.
Equations (9) and (10) share those densities, and the M-step
(Equations (13)/(17)) consumes the very responsibilities the E-step
produced, so one evaluation per iteration serves all three.

:func:`stacked_estep` is the one kernel that evaluates them:

- It concatenates the flattened weights of every due layer into one
  vector and runs a single pass over the ``(K_max, M_total)`` block,
  instead of one numpy call chain per layer.  A single layer is a stack
  of one.
- It normalizes with one ``exp`` and a division
  (``r = exp(a - amax) / sum exp(a - amax)``), fuses the constant
  terms, and works out of preallocated :class:`Workspace` buffers.
- It computes in the regularized weights' dtype: float32 when the model
  was cast with ``Network.to_dtype``, float64 otherwise.  ``g_reg`` is
  always float64, and the M-step accumulates its statistics in float64
  (:func:`~repro.core.em.suffstats_from_responsibilities`).

:meth:`~repro.core.gaussian_mixture.GaussianMixture.responsibilities`
is the readable Equation (9) reference the kernel is tested against
(``tests/property/test_gm_properties.py``: 1e-13 in float64, 1e-5 in
float32).  ``benchmarks/bench_hotpath_fusion.py`` builds its legacy
baseline from that reference and gates the kernel at >= 2x faster
training on the Alex-CIFAR config at matching (<= 1e-6) losses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .gaussian_mixture import GaussianMixture

__all__ = [
    "Workspace",
    "EStepResult",
    "NonFiniteParameter",
    "stacked_estep",
]

# 0.5 * log(2 * pi), the constant part of the Gaussian log density.
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)


class Workspace:
    """A keyed cache of reusable numpy buffers.

    The hot path allocates several ``(M, K)`` float64 temporaries per
    E-step — ~2.5 MB each for an 80k-parameter layer — every iteration.
    A workspace hands back the same buffer for the same ``(key, shape,
    dtype)`` request, so steady-state training performs zero large
    allocations.  Buffers are private to their owner (one workspace per
    regularizer / per layer); contents are only valid until the next
    request for the same key.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Hashable, np.ndarray] = {}

    def get(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype: "np.dtype[Any]",
    ) -> np.ndarray:
        """A buffer of exactly ``shape``/``dtype`` for ``key``.

        Contents are arbitrary (callers must overwrite); the buffer is
        reallocated if the requested shape or dtype changed.
        """
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def zeros(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype: "np.dtype[Any]",
    ) -> np.ndarray:
        """Like :meth:`get` but zero-filled on every call."""
        buf = self.get(key, shape, dtype)
        buf.fill(0)
        return buf

    def nbytes(self) -> int:
        """Total bytes currently held (telemetry/debugging)."""
        return int(sum(buf.nbytes for buf in self._buffers.values()))

    def clear(self) -> None:
        """Drop every cached buffer."""
        self._buffers.clear()


@dataclass
class EStepResult:
    """One E-step evaluation for a single mixture.

    Attributes
    ----------
    responsibilities:
        Equation (9) matrix ``(M, K)`` in the kernel's compute dtype.
        A view into a workspace buffer — valid until the owner's next
        E-step.
    gradient:
        Flat ``g_reg`` of Equation (10)'s second term,
        ``sum_k r_k(w_m) lambda_k w_m``, always float64.
    """

    responsibilities: np.ndarray
    gradient: np.ndarray


class NonFiniteParameter(ValueError):
    """A regularized weight vector holds NaN or infinite values.

    :func:`stacked_estep` raises it before evaluating any density, so a
    poisoned weight never reaches an M-step.  ``index`` is the vector's
    position in the stack; the training step re-raises the error with
    the parameter's ``name`` and the ``iteration``.
    """

    def __init__(
        self,
        index: int,
        name: Optional[str] = None,
        iteration: Optional[int] = None,
    ) -> None:
        self.index = index
        self.name = name
        self.iteration = iteration
        where = (
            f"stacked weight vector {index}" if name is None
            else f"parameter {name!r}"
        )
        when = "" if iteration is None else f" at iteration {iteration}"
        super().__init__(f"{where} holds non-finite values{when}")


def stacked_estep(
    mixtures: Sequence[GaussianMixture],
    ws: Sequence[np.ndarray],
    workspace: Optional[Workspace] = None,
) -> List[EStepResult]:
    """Responsibilities and ``g_reg`` for many ``(mixture, w)`` pairs.

    Deep models carry one GM per layer (Section V-B1).  This pass
    concatenates every layer's flattened weights into one vector, pads
    the per-layer component axes to a common ``K_max`` (padded
    components get ``-inf`` log-weight, hence exactly zero
    responsibility), and evaluates the densities
    once over the ``(K_max, M_total)`` block.  Per-layer results are
    returned as slices of the stacked buffers in input order.

    All intermediates live in a transposed ``(K, M)`` layout:
    responsibilities normalize *across components*, and with K ~ 4 a
    row-wise reduction over an ``(M, K)`` array degenerates into M tiny
    strided reduce loops, an order of magnitude slower on an
    80k-parameter stack.

    The densities are computed in float32 when every ``w`` is float32,
    otherwise in float64.  Raises :class:`NonFiniteParameter` if any
    weight is NaN or infinite.
    """
    if len(mixtures) != len(ws):
        raise ValueError(
            f"got {len(mixtures)} mixtures but {len(ws)} parameter vectors"
        )
    if not mixtures:
        return []
    buffers = workspace if workspace is not None else Workspace()
    flats = [np.asarray(w).reshape(-1) for w in ws]
    dtype = _F32 if all(flat.dtype == _F32 for flat in flats) else _F64
    k_max = max(m.n_components for m in mixtures)
    bounds = list(itertools.accumulate((flat.size for flat in flats), initial=0))
    m_total = bounds[-1]
    layers = list(zip(mixtures, bounds, bounds[1:]))

    x = buffers.get("x", (m_total,), _F64)
    np.concatenate(flats, out=x)
    if not np.isfinite(x).all():
        bad = next(
            i for i, flat in enumerate(flats) if not np.isfinite(flat).all()
        )
        raise NonFiniteParameter(bad)
    xc = x.astype(dtype, copy=False)
    x2 = buffers.get("x2", (m_total,), dtype)
    np.multiply(xc, xc, out=x2)

    # Per-layer segment fill: each layer contributes a contiguous column
    # block, so broadcasting its (K,) constants over the block is far
    # cheaper than an 80k-row gather.  Padded components keep -inf.
    buf = buffers.get("weighted", (k_max, m_total), dtype)
    if len(mixtures) > 1:
        buf.fill(-np.inf)
    for m, lo, hi in layers:
        # Per-component constants in scalar arithmetic: K is a handful,
        # so numpy dispatch would cost more than the math.
        lam = m.lam.tolist()
        lam_min = min(lam)
        # log pi_k + 0.5 log lambda_k - 0.5 log 2pi, fused into one constant.
        log_weight = [
            log_pi + 0.5 * math.log(lam_k) - _HALF_LOG_TWO_PI
            for log_pi, lam_k in zip(m._log_pi.tolist(), lam)
        ]
        # The quadratic term relative to the layer's smallest precision:
        # Eq. (9) is shift-invariant per row, and the shift keeps every
        # competitive log weight within ~log(lambda ratio) of zero, so
        # log pi survives rounding even when lambda * w^2 is huge.
        half_excess = [-0.5 * (lam_k - lam_min) for lam_k in lam]
        block = buf[: m.n_components, lo:hi]
        np.multiply(
            np.array(half_excess, dtype)[:, None], x2[None, lo:hi], out=block
        )
        block += np.array(log_weight, dtype)[:, None]

    # One normalization over the whole stack (the -inf padding never
    # wins the column max and exps to exact zero), then each layer's
    # effective precision sum_k r_k lambda_k.
    _normalize_components(buf, buffers)
    precision = buffers.get("precision", (m_total,), dtype)
    for m, lo, hi in layers:
        np.matmul(
            m.lam.astype(dtype, copy=False),
            buf[: m.n_components, lo:hi],
            out=precision[lo:hi],
        )
    # The product allocates a fresh float64 array, so per-layer gradient
    # slices stay valid across iterations (the lazy schedule caches
    # them), unlike the workspace-backed responsibility views.
    gradient_full = precision * x

    return [
        EStepResult(
            responsibilities=buf[: m.n_components, lo:hi].T,
            gradient=gradient_full[lo:hi],
        )
        for m, lo, hi in layers
    ]


def _normalize_components(buf: np.ndarray, buffers: Workspace) -> None:
    """In-place softmax of ``buf`` over the component axis (axis 0).

    ``r = exp(a - amax) / sum_k exp(a - amax)`` — one ``exp`` and one
    division instead of the textbook second ``exp`` of
    ``a - logsumexp(a)``; agreement with the reference is at the
    few-ulp level (asserted by the property tests).
    """
    m_dim = buf.shape[1]
    dtype = buf.dtype
    amax = buffers.get("amax", (m_dim,), dtype)
    buf.max(axis=0, out=amax)
    buf -= amax[None, :]
    np.exp(buf, out=buf)
    norm = buffers.get("norm", (m_dim,), dtype)
    buf.sum(axis=0, out=norm)
    buf /= norm[None, :]
