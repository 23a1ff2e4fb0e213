"""Tests for GM regularizer checkpointing."""

import numpy as np
import pytest

from repro.core import (
    GMHyperParams,
    GMRegularizer,
    LazyUpdateSchedule,
    gm_regularizer_from_dict,
    gm_regularizer_to_dict,
    load_gm_regularizer,
    save_gm_regularizer,
)


@pytest.fixture
def trained_reg(rng):
    reg = GMRegularizer(
        n_dimensions=200,
        weight_init_std=0.1,
        hyperparams=GMHyperParams(gamma=0.01, alpha_exponent=0.7),
        init_method="proportional",
        schedule=LazyUpdateSchedule(model_interval=5, gm_interval=10,
                                    eager_epochs=1),
    )
    w = np.concatenate([rng.normal(0, 0.02, 180), rng.normal(0, 0.5, 20)])
    for it in range(50):
        reg.prepare(w, it)
        reg.update(w, it)
    reg.epoch_end(0)
    return reg, w


def test_roundtrip_preserves_mixture(trained_reg):
    reg, _w = trained_reg
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    assert np.array_equal(restored.pi, reg.pi)
    assert np.array_equal(restored.lam, reg.lam)
    assert restored.n_dimensions == reg.n_dimensions
    assert restored.init_method == reg.init_method


def test_roundtrip_preserves_schedule_and_counters(trained_reg):
    reg, _w = trained_reg
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    assert restored.schedule == reg.schedule
    assert restored.estep_count == reg.estep_count
    assert restored.mstep_count == reg.mstep_count
    assert restored._epoch == reg._epoch


def test_roundtrip_preserves_hyperparams(trained_reg):
    reg, _w = trained_reg
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    assert restored.hyperparams == reg.hyperparams


def test_resumed_regularizer_continues_identically(trained_reg):
    reg, w = trained_reg
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    for it in range(50, 70):
        reg.prepare(w, it)
        reg.update(w, it)
        restored.prepare(w, it)
        restored.update(w, it)
    assert np.allclose(reg.pi, restored.pi)
    assert np.allclose(reg.lam, restored.lam)
    assert np.array_equal(reg.gradient(w), restored.gradient(w))


def test_cached_gradient_survives_roundtrip(trained_reg):
    reg, w = trained_reg
    cached_before = reg.gradient(w).copy()
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    assert np.array_equal(restored.gradient(w), cached_before)


def test_file_roundtrip(tmp_path, trained_reg):
    reg, _w = trained_reg
    path = str(tmp_path / "gm.json")
    save_gm_regularizer(reg, path)
    restored = load_gm_regularizer(path)
    assert np.array_equal(restored.pi, reg.pi)


def test_unknown_format_version_rejected(trained_reg):
    reg, _w = trained_reg
    state = gm_regularizer_to_dict(reg)
    state["format_version"] = 999
    with pytest.raises(ValueError):
        gm_regularizer_from_dict(state)


#: A checkpoint as written before the E-step kernel choice was removed:
#: it still names the kernel configuration.
OLD_FORMAT_CHECKPOINT = {
    "format_version": 1,
    "n_dimensions": 6,
    "init_method": "linear",
    "prune_components": True,
    "merge_components": True,
    "hyperparams": {
        "n_components": 4, "gamma": 0.005, "a_scale": 0.01,
        "alpha_exponent": 0.5,
    },
    "schedule": {"model_interval": 1, "gm_interval": 1, "eager_epochs": 2},
    "mixture": {
        "pi": [0.23236012132985573, 0.248347495138548,
               0.2570251383616621, 0.2622672451699342],
        "lam": [15.292479584440757, 16.889391542521096,
                17.71474457728292, 18.20050696835945],
    },
    "epoch": 0,
    "estep_count": 3,
    "mstep_count": 3,
    "density_evals": 3,
    "fused": True,
    "kernel": "exact",
    "compute_dtype": "float64",
    "accumulate_dtype": "float64",
    "cached_reg_grad": [-3.422569449999717, -2.0566832073998436,
                        -0.6860792820734837, 0.6860792820734831,
                        2.056683207399843, 3.422569449999717],
}


def test_old_checkpoint_with_kernel_keys_still_loads():
    reg = gm_regularizer_from_dict(OLD_FORMAT_CHECKPOINT)
    old = OLD_FORMAT_CHECKPOINT
    np.testing.assert_array_equal(reg.pi, old["mixture"]["pi"])
    np.testing.assert_array_equal(reg.lam, old["mixture"]["lam"])
    assert (reg.estep_count, reg.mstep_count, reg.density_evals) == (3, 3, 3)
    w = np.linspace(-0.2, 0.2, 6)
    np.testing.assert_array_equal(reg.gradient(w), old["cached_reg_grad"])
    rewritten = gm_regularizer_to_dict(reg)
    for key in ("fused", "kernel", "compute_dtype", "accumulate_dtype"):
        assert key not in rewritten
    assert rewritten == {
        k: v for k, v in old.items()
        if k not in ("fused", "kernel", "compute_dtype", "accumulate_dtype")
    }
