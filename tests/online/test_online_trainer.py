"""OnlineTrainer: streaming partial_fit and the shared TrainerState path."""

import numpy as np
import pytest

from repro.core import NonFiniteParameter
from repro.linear.logistic import LogisticRegression
from repro.online import DecayedGMRegularizer, DriftStream, OnlineTrainer
from repro.optim.trainer import Trainer
from repro.telemetry.metrics import MetricsRegistry


def make_model(n_features=10, seed=0, **reg_kwargs):
    return LogisticRegression(
        n_features,
        regularizer=DecayedGMRegularizer(n_features, **reg_kwargs),
        rng=np.random.default_rng(seed),
    )


class TestPartialFit:
    def test_learns_a_stationary_stream(self):
        stream = DriftStream(n_features=10, batch_size=32, seed=11)
        model = make_model(rho=0.9, warmup_steps=5)
        trainer = OnlineTrainer(model, lr=0.5, n_reference=1024)
        for x, y in stream.batches(60):
            trainer.partial_fit(x, y)
        x_eval, y_eval = stream.holdout(500)
        accuracy = float(np.mean(model.predict(x_eval) == y_eval))
        assert accuracy > 0.9

    def test_step_result_bookkeeping(self):
        stream = DriftStream(n_features=10, batch_size=16, seed=3)
        trainer = OnlineTrainer(make_model(), lr=0.2)
        x, y = stream.next_batch()
        first = trainer.partial_fit(x, y)
        assert first.step == 0
        assert first.samples_seen == 16
        assert first.loss_ewma == pytest.approx(first.loss)
        second = trainer.partial_fit(*stream.next_batch())
        assert second.step == 1
        assert second.samples_seen == 32
        assert trainer.step_count == 2
        assert trainer.samples_seen == 32
        assert np.isfinite(second.loss_ewma)

    def test_loss_ewma_smooths(self):
        stream = DriftStream(n_features=10, batch_size=16, seed=3)
        trainer = OnlineTrainer(make_model(), lr=0.2)
        first = trainer.partial_fit(*stream.next_batch())
        second = trainer.partial_fit(*stream.next_batch())
        expected = 0.9 * first.loss_ewma + 0.1 * second.loss
        assert second.loss_ewma == pytest.approx(expected)

    def test_sample_count_mismatch_rejected(self):
        trainer = OnlineTrainer(make_model())
        with pytest.raises(ValueError, match="sample count"):
            trainer.partial_fit(np.zeros((4, 10)), np.zeros(3))

    def test_single_row_is_reshaped(self):
        trainer = OnlineTrainer(make_model())
        result = trainer.partial_fit(np.zeros(10), np.zeros(1))
        assert result.samples_seen == 1

    def test_metrics_populated(self):
        metrics = MetricsRegistry()
        trainer = OnlineTrainer(make_model(), metrics=metrics)
        stream = DriftStream(n_features=10, batch_size=8, seed=5)
        for x, y in stream.batches(3):
            trainer.partial_fit(x, y)
        assert metrics.counter("online/steps_total").value == 3
        assert metrics.counter("online/samples_total").value == 24
        assert metrics.gauge("online/loss_ewma").value is not None
        assert metrics.timer("phase/estep").count == 3
        assert metrics.timer("phase/sgd").count == 3

    def test_n_reference_validation(self):
        with pytest.raises(ValueError, match="n_reference"):
            OnlineTrainer(make_model(), n_reference=0)


class TestTrainerStateHandoff:
    """Batch Trainer and OnlineTrainer share one typed snapshot."""

    def test_batch_to_online_handoff(self):
        stream = DriftStream(n_features=10, batch_size=32, seed=21)
        x0, y0 = stream.holdout(512, batch_index=0)

        batch_model = make_model(seed=4, rho=0.9, warmup_steps=2)
        batch_trainer = Trainer(batch_model, lr=0.5, batch_size=64)
        batch_trainer.fit(x0, y0, epochs=3, rng=np.random.default_rng(1))
        snapshot = batch_trainer.state()

        online_model = make_model(seed=99, rho=0.9, warmup_steps=2)
        online = OnlineTrainer(online_model, lr=0.3)
        online.load_state(snapshot)

        assert online.step_count == snapshot.iteration
        restored = online_model.regularizer
        np.testing.assert_allclose(
            restored.mixture.pi, batch_model.regularizer.mixture.pi
        )
        np.testing.assert_allclose(
            restored.mixture.lam, batch_model.regularizer.mixture.lam
        )

    def test_online_state_roundtrip(self):
        stream = DriftStream(n_features=10, batch_size=32, seed=21)
        model = make_model(seed=4, rho=0.8)
        trainer = OnlineTrainer(model, lr=0.3)
        for x, y in stream.batches(10):
            trainer.partial_fit(x, y)
        snapshot = trainer.state()
        assert snapshot.iteration == 10
        reg_state = snapshot.em["weights"]
        assert reg_state.resp_sum is not None

        resumed_model = make_model(seed=123, rho=0.8)
        resumed = OnlineTrainer(resumed_model, lr=0.3)
        resumed.load_state(snapshot)
        np.testing.assert_allclose(
            resumed_model.regularizer._resp_sum,
            model.regularizer._resp_sum,
        )
        assert resumed.step_count == 10


class TestNonFiniteWeights:
    def test_partial_fit_raises_typed_error_naming_parameter_and_step(self):
        stream = DriftStream(n_features=10, batch_size=16, seed=3)
        model = make_model(rho=0.9, warmup_steps=5)
        trainer = OnlineTrainer(model, lr=0.2)
        trainer.partial_fit(*stream.next_batch())
        reg = model.parameters()[0].regularizer
        pi, lam, msteps = reg.pi.copy(), reg.lam.copy(), reg.mstep_count
        model.parameters()[0].value[0] = np.inf
        with pytest.raises(
            NonFiniteParameter, match="'weights'.*iteration 1"
        ) as info:
            trainer.partial_fit(*stream.next_batch())
        assert info.value.iteration == 1
        assert reg.mstep_count == msteps
        np.testing.assert_array_equal(reg.pi, pi)
        np.testing.assert_array_equal(reg.lam, lam)
