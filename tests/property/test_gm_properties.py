"""Property-based tests (hypothesis) for the GM core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    GaussianMixture,
    Workspace,
    stacked_estep,
    update_mixing_coefficients,
    update_precisions,
)
from repro.core.em import merge_similar_components

# Strategy: a valid mixture (K in 1..5, positive finite precisions).
@st.composite
def mixtures(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    raw_pi = draw(
        st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
    )
    pi = np.asarray(raw_pi)
    pi = pi / pi.sum()
    lam = np.asarray(
        draw(st.lists(st.floats(1e-4, 1e6), min_size=k, max_size=k))
    )
    return GaussianMixture(pi=pi, lam=lam)


weights_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 60),
    elements=st.floats(-5.0, 5.0, allow_nan=False),
)


@given(mixtures(), weights_arrays)
@settings(max_examples=60, deadline=None)
def test_responsibilities_form_distribution(gm, w):
    resp = gm.responsibilities(w)
    assert resp.shape == (w.size, gm.n_components)
    assert np.all(resp >= -1e-12)
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)


@given(mixtures(), weights_arrays)
@settings(max_examples=60, deadline=None)
def test_log_pdf_finite(gm, w):
    log_density = gm.log_pdf(w)
    assert np.all(np.isfinite(log_density))


@given(mixtures())
@settings(max_examples=60, deadline=None)
def test_crossovers_nonnegative_and_bounded_count(gm):
    points = gm.crossover_points()
    assert np.all(points >= 0.0)
    assert points.size <= gm.n_components - 1 if gm.n_components > 1 \
        else points.size == 0


@given(
    mixtures(),
    weights_arrays,
    st.floats(1.0, 10.0),
    st.floats(1e-6, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_precision_update_always_valid(gm, w, a, b):
    resp = gm.responsibilities(w)
    lam = update_precisions(resp, w, a=a, b=b)
    assert lam.shape == (gm.n_components,)
    assert np.all(lam > 0)
    assert np.all(np.isfinite(lam))


@given(mixtures(), weights_arrays, st.floats(0.1, 100.0))
@settings(max_examples=60, deadline=None)
def test_mixing_update_stays_on_simplex(gm, w, alpha_value):
    resp = gm.responsibilities(w)
    alpha = np.full(gm.n_components, alpha_value)
    pi = update_mixing_coefficients(resp, alpha)
    assert np.all(pi >= 0.0)
    assert np.isclose(pi.sum(), 1.0, atol=1e-9)


@given(mixtures())
@settings(max_examples=60, deadline=None)
def test_merge_preserves_total_mass_and_order(gm):
    pi, lam = merge_similar_components(gm.pi, gm.lam)
    assert np.isclose(pi.sum(), 1.0, atol=1e-9)
    assert np.all(np.diff(lam) >= 0.0)
    assert pi.size == lam.size <= gm.n_components


@given(mixtures(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_samples_have_finite_values(gm, seed):
    samples = gm.sample(100, np.random.default_rng(seed))
    assert samples.shape == (100,)
    assert np.all(np.isfinite(samples))


# Strategy: a stack of 1-4 layers for the E-step kernel, each with its
# own mixture (K in 1..4, lambda in [1e-8, 1e12]) and weight vector
# (M in 1..500, |w| log-uniform within [1e-8, 1e3], random signs).
@st.composite
def kernel_stacks(draw):
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 4))
        pi = np.asarray(
            draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
        )
        log_lam = draw(
            st.lists(st.floats(-8.0, 12.0), min_size=k, max_size=k)
        )
        mixture = GaussianMixture(pi=pi / pi.sum(), lam=10.0 ** np.asarray(log_lam))
        m = draw(st.integers(1, 500))
        lo = draw(st.floats(-8.0, 3.0))
        hi = draw(st.floats(lo, 3.0))
        r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = r.choice([-1.0, 1.0], size=m) * 10.0 ** r.uniform(lo, hi, size=m)
        layers.append((mixture, w))
    return layers


@pytest.mark.parametrize(
    "dtype, atol, grad_rtol",
    [(np.float64, 1e-13, 1e-12), (np.float32, 1e-5, 1e-5)],
)
@given(stack=kernel_stacks())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_oracle(dtype, atol, grad_rtol, stack):
    """The one E-step kernel agrees with the Eq. 9 reference."""
    mixtures = [m for m, _ in stack]
    ws = [w.astype(dtype) for _, w in stack]
    workspace = Workspace()
    results = stacked_estep(mixtures, ws, workspace)
    sizes = [w.size for w in ws]
    k_max = max(m.n_components for m in mixtures)
    # The kernel's stacked (K_max, M_total) block, padding included.
    block = workspace.get("weighted", (k_max, sum(sizes)), np.dtype(dtype))
    lo = 0
    for result, m, w in zip(results, mixtures, ws):
        hi = lo + w.size
        resp = result.responsibilities
        assert resp.shape == (w.size, m.n_components)
        assert resp.dtype == dtype
        assert result.gradient.dtype == np.float64
        oracle = m.responsibilities(w.astype(np.float64))
        np.testing.assert_allclose(resp, oracle, rtol=0, atol=atol)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=0, atol=atol)
        assert np.all(block[m.n_components:, lo:hi] == 0.0)
        np.testing.assert_allclose(
            result.gradient,
            (resp.astype(np.float64) @ m.lam) * w.astype(np.float64),
            rtol=grad_rtol,
            atol=0,
        )
        lo = hi
