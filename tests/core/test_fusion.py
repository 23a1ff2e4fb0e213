"""Unit tests for the E-step kernel and its place in the training step.

Covers the invariants of the one-kernel hot path:

- the kernel agrees with the Eq. 9 reference
  (:meth:`GaussianMixture.responsibilities`) at documented tolerances
  (float64: few-ulp; float32: single-precision scale), single-layer and
  stacked, for responsibilities, gradient and M-step statistics (the
  hypothesis sweep over extreme ranges lives in
  ``tests/property/test_gm_properties.py``);
- handing the E-step's responsibilities to the M-step gives the same
  bits as re-evaluating them, with half the density evaluations;
- ``density_evals == estep_count`` on a synchronized schedule, plus one
  per M-step-only iteration, and the trainer publishes it as a gauge;
- the training step stacks every due GM regularizer into one kernel
  call, and the workspace buffer cache behaves.
"""

import numpy as np
import pytest

import repro.optim.trainer as trainer_module
from repro.core import (
    EStepResult,
    GMRegularizer,
    L2Regularizer,
    LazyUpdateSchedule,
    NonFiniteParameter,
    Workspace,
    em_step,
    stacked_estep,
    suffstats_from_responsibilities,
)
from repro.core.gaussian_mixture import GaussianMixture
from repro.linear import LogisticRegression
from repro.online import DecayedGMRegularizer
from repro.optim import SGD, Parameter, Trainer
from repro.optim.trainer import Stepper
from repro.telemetry.metrics import MetricsRegistry


def make_mixture(k, scale, seed):
    r = np.random.default_rng(seed)
    pi = r.random(k)
    pi /= pi.sum()
    lam = np.sort(r.random(k) * 100.0 / scale)
    return GaussianMixture(pi=pi, lam=lam)


@pytest.fixture
def layers(rng):
    """Three (mixture, weights) pairs with mixed component counts."""
    mixtures = [make_mixture(4, 1, 1), make_mixture(3, 2, 2), make_mixture(4, 5, 3)]
    ws = [rng.normal(0, 0.1, size=n) for n in (500, 1200, 800)]
    return mixtures, ws


def reference(mixture, w):
    resp = mixture.responsibilities(w)
    return resp, (resp @ mixture.lam) * w


class FixedLossModel:
    """A model whose data loss and gradients are zero: only EM runs."""

    def __init__(self, params):
        self.params = params

    def parameters(self):
        return self.params

    def loss_and_gradients(self, x, y):
        return 0.0, [np.zeros_like(p.value) for p in self.params]


def make_stepper(params):
    """A training step whose SGD update is zero (no data loss, and the
    tests pass ``reg_scale=0``), so the weights stay put."""
    model = FixedLossModel(params)
    optimizer = SGD([p.value for p in params], lr=1.0)
    return Stepper(model, optimizer, MetricsRegistry())


# ----------------------------------------------------------------------
# Agreement with the Eq. 9 reference
# ----------------------------------------------------------------------
def test_fast_kernel_float64_agreement(layers):
    mixtures, ws = layers
    stacked = stacked_estep(mixtures, ws)
    for result, m, w in zip(stacked, mixtures, ws):
        (single,) = stacked_estep([m], [w])
        ref_resp, ref_grad = reference(m, w)
        for r in (result, single):
            np.testing.assert_allclose(
                r.responsibilities, ref_resp, rtol=0, atol=1e-13
            )
            np.testing.assert_allclose(r.gradient, ref_grad, rtol=1e-12)


def test_fast_kernel_float32_agreement(layers):
    mixtures, ws = layers
    results = stacked_estep(mixtures, [w.astype(np.float32) for w in ws])
    for result, m, w in zip(results, mixtures, ws):
        ref_resp, ref_grad = reference(m, w)
        assert result.responsibilities.dtype == np.float32
        assert result.gradient.dtype == np.float64
        np.testing.assert_allclose(
            result.responsibilities.astype(np.float64), ref_resp,
            rtol=0, atol=1e-5,
        )
        np.testing.assert_allclose(result.gradient, ref_grad, rtol=1e-4)


def test_float32_mstep_stats_agree_with_float64(layers):
    """Eq. 13/17 sufficient statistics from float32 responsibilities
    (accumulated in float64) track the float64 path."""
    mixtures, ws = layers
    r64 = stacked_estep(mixtures, ws)
    r32 = stacked_estep(mixtures, [w.astype(np.float32) for w in ws])
    for a, b, w in zip(r64, r32, ws):
        s0_64, s1_64 = suffstats_from_responsibilities(a.responsibilities, w)
        s0_32, s1_32 = suffstats_from_responsibilities(b.responsibilities, w)
        assert s0_32.dtype == np.float64 and s1_32.dtype == np.float64
        np.testing.assert_allclose(s0_32, s0_64, rtol=1e-4)
        np.testing.assert_allclose(s1_32, s1_64, rtol=1e-3)


def test_regularizer_trajectory_tracks_oracle(rng):
    """Ten E/M/SGD iterations on the kernel stay within a few ulps of the
    trajectory built from GaussianMixture.responsibilities + em_step."""
    w_kernel = rng.normal(0, 0.1, 400)
    w_oracle = w_kernel.copy()
    reg = GMRegularizer(n_dimensions=400, weight_init_std=0.1)
    mixture = reg.mixture
    for it in range(10):
        reg.prepare(w_kernel, it)
        g_kernel = reg.gradient(w_kernel)
        reg.update(w_kernel, it)
        resp = mixture.responsibilities(w_oracle)
        g_oracle = (resp @ mixture.lam) * w_oracle
        mixture = em_step(
            mixture, w_oracle, alpha=reg._alpha[: mixture.n_components],
            a=reg._a, b=reg._b,
        )
        np.testing.assert_allclose(g_kernel, g_oracle, rtol=1e-12)
        np.testing.assert_allclose(reg.pi, mixture.pi, rtol=1e-12)
        np.testing.assert_allclose(reg.lam, mixture.lam, rtol=1e-12)
        w_kernel -= 0.05 * g_kernel
        w_oracle -= 0.05 * g_oracle


# ----------------------------------------------------------------------
# The E-step result handed to the M-step
# ----------------------------------------------------------------------
def test_fused_regularizer_trajectory_bit_identical(rng):
    """Handing the E-step's responsibilities to the M-step gives the same
    bits as letting the M-step re-evaluate them."""
    w_fused = rng.normal(0, 0.1, 400)
    w_legacy = w_fused.copy()
    fused = GMRegularizer(n_dimensions=400, weight_init_std=0.1)
    legacy = GMRegularizer(n_dimensions=400, weight_init_std=0.1)
    for it in range(10):
        (result,) = stacked_estep([fused.mixture], [w_fused])
        fused.adopt_estep(result)
        legacy.prepare(w_legacy, it)
        gf, gl = fused.gradient(w_fused), legacy.gradient(w_legacy)
        assert np.array_equal(gf, gl)
        fused.update(w_fused, it, result.responsibilities)
        legacy.update(w_legacy, it)
        assert np.array_equal(fused.pi, legacy.pi)
        assert np.array_equal(fused.lam, legacy.lam)
        # simulate the SGD step so each E-step sees fresh parameters
        w_fused -= 0.05 * gf
        w_legacy -= 0.05 * gl


# ----------------------------------------------------------------------
# Counter semantics: one density evaluation per synchronized iteration
# ----------------------------------------------------------------------
def test_density_evals_half_of_legacy(rng):
    """The training step evaluates the densities once per iteration; the
    standalone prepare/update hooks (no hand-over) evaluate them twice."""
    w = rng.normal(0, 0.1, 300)
    fused = GMRegularizer(n_dimensions=300, weight_init_std=0.1)
    legacy = GMRegularizer(n_dimensions=300, weight_init_std=0.1)
    stepper = make_stepper([Parameter("w", w.copy(), fused)])
    w_legacy = w.copy()
    for it in range(10):
        stepper.step(None, None, it, reg_scale=0.0)
        legacy.prepare(w_legacy, it)
        legacy.update(w_legacy, it)
    assert fused.estep_count == legacy.estep_count == 10
    assert fused.mstep_count == legacy.mstep_count == 10
    assert fused.density_evals == fused.estep_count == 10
    assert legacy.density_evals == 20


def test_density_evals_with_desynchronized_schedule(rng):
    """With Im != Ig an M-step due without an E-step runs the kernel
    itself: one extra density evaluation per M-step-only iteration."""
    schedule = LazyUpdateSchedule(
        model_interval=4, gm_interval=2, eager_epochs=0
    )
    reg = GMRegularizer(
        n_dimensions=300, weight_init_std=0.1, schedule=schedule
    )
    stepper = make_stepper([Parameter("w", rng.normal(0, 0.1, 300), reg)])
    for it in range(8):
        stepper.step(None, None, it, reg_scale=0.0)
    # E-steps at 0, 4; M-steps at 0, 2, 4, 6 -- of which 2 and 6 had no
    # E-step to reuse.
    assert reg.estep_count == 2
    assert reg.mstep_count == 4
    assert reg.density_evals == reg.estep_count + 2


def test_mstep_only_iteration_names_non_finite_parameter(rng):
    """The M-step's own kernel call reports a poisoned weight like the
    stacked E-step does."""
    schedule = LazyUpdateSchedule(
        model_interval=4, gm_interval=2, eager_epochs=0
    )
    reg = GMRegularizer(n_dimensions=50, schedule=schedule)
    param = Parameter("layer/weight", rng.normal(0, 0.1, 50), reg)
    stepper = make_stepper([param])
    stepper.step(None, None, 0, reg_scale=0.0)
    mixture = reg.mixture
    param.value[7] = np.nan
    stepper.step(None, None, 1, reg_scale=0.0)  # neither step is due
    with pytest.raises(NonFiniteParameter, match="'layer/weight'.*iteration 2"):
        stepper.step(None, None, 2, reg_scale=0.0)
    assert reg.mixture is mixture


def test_trainer_publishes_density_evals_gauge(rng):
    x = rng.normal(size=(80, 10))
    y = (x[:, 0] > 0).astype(np.int64)
    reg = GMRegularizer(n_dimensions=10)
    model = LogisticRegression(10, regularizer=reg, rng=rng)
    trainer = Trainer(model, lr=0.3, batch_size=16)
    trainer.fit(x, y, epochs=3, rng=rng)
    gauges = trainer.metrics.snapshot()["gauges"]
    assert gauges["em/density_evals"] == reg.density_evals
    # One evaluation per E-step refresh.
    assert reg.density_evals == reg.estep_count


# ----------------------------------------------------------------------
# The stacked E-step of the training step
# ----------------------------------------------------------------------
def test_stacked_prepare_serves_fusable_group(rng, monkeypatch):
    """Every due GM regularizer (the decayed one included) joins one
    kernel call; other regularizers run their own prepare hook."""
    regs = [
        GMRegularizer(n_dimensions=200, weight_init_std=0.1),
        DecayedGMRegularizer(300, weight_init_std=0.1),
    ]
    l2 = L2Regularizer(0.1)
    params = [
        Parameter("a", rng.normal(0, 0.1, 200), regs[0]),
        Parameter("b", rng.normal(0, 0.1, 300), regs[1]),
        Parameter("c", rng.normal(0, 0.1, 100), l2),
        Parameter("plain", rng.normal(0, 0.1, 50), None),
    ]
    calls = []

    def counting(mixtures, ws, workspace=None):
        calls.append(len(mixtures))
        return stacked_estep(mixtures, ws, workspace)

    monkeypatch.setattr(trainer_module, "stacked_estep", counting)
    make_stepper(params).step(None, None, 0, reg_scale=0.0)
    assert calls == [2]
    for reg, param in zip(regs, params):
        assert reg.estep_count == reg.mstep_count == 1
        assert reg.density_evals == 1
        (_, expected) = reference(
            GMRegularizer(param.value.size, weight_init_std=0.1).mixture,
            param.value,
        )
        np.testing.assert_allclose(
            reg._cached_reg_grad, expected, rtol=1e-12
        )


def test_stacked_prepare_matches_per_layer_prepare(rng):
    values = [rng.normal(0, 0.1, n) for n in (200, 300)]
    stacked_regs = [
        GMRegularizer(n_dimensions=v.size, weight_init_std=0.1)
        for v in values
    ]
    solo_regs = [
        GMRegularizer(n_dimensions=v.size, weight_init_std=0.1)
        for v in values
    ]
    params = [
        Parameter(str(i), v.copy(), r)
        for i, (v, r) in enumerate(zip(values, stacked_regs))
    ]
    make_stepper(params).step(None, None, 0, reg_scale=0.0)
    for solo, stacked, v in zip(solo_regs, stacked_regs, values):
        solo.prepare(v, 0)
        assert np.array_equal(solo.gradient(v), stacked.gradient(v))
        solo.update(v, 0)
        assert np.array_equal(solo.pi, stacked.pi)
        assert np.array_equal(solo.lam, stacked.lam)


# ----------------------------------------------------------------------
# Workspace
# ----------------------------------------------------------------------
def test_workspace_reuses_and_reallocates():
    ws = Workspace()
    a = ws.get("k", (4, 5), np.dtype(np.float64))
    assert ws.get("k", (4, 5), np.dtype(np.float64)) is a
    b = ws.get("k", (4, 6), np.dtype(np.float64))
    assert b is not a and b.shape == (4, 6)
    c = ws.get("k", (4, 6), np.dtype(np.float32))
    assert c is not b and c.dtype == np.float32
    assert ws.nbytes() > 0
    ws.clear()
    assert ws.nbytes() == 0


def test_workspace_zeros_clears_contents():
    ws = Workspace()
    buf = ws.zeros("z", (3,), np.dtype(np.float64))
    buf[:] = 7.0
    assert np.array_equal(ws.zeros("z", (3,), np.dtype(np.float64)),
                          np.zeros(3))


def test_estep_result_exposes_fields(layers):
    mixtures, ws = layers
    (result,) = stacked_estep(mixtures[:1], ws[:1])
    assert isinstance(result, EStepResult)
    assert result.responsibilities.shape == (500, 4)
    assert result.gradient.shape == (500,)
