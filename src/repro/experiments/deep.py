"""Deep-learning experiments: Tables IV, V, VI, VIII and Figure 4.

The paper trains Alex-CIFAR-10 and ResNet-20 on CIFAR-10 with three
regularization modes (none / expert-tuned L2 / adaptive GM) and studies
the learned per-layer mixtures, the GM initialization strategies and
the Dirichlet exponent.  Offline, the same code paths run on the
synthetic CIFAR substitute at a configurable (laptop) scale; see
DESIGN.md for the substitution argument.

``DeepRunConfig`` defaults to the laptop scale used by the benchmark
harness; passing ``image_size=32, n_train=50000, width_scale=1.0,
n_blocks_per_stage=3, base_width=16`` recovers the paper-scale models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import GMHyperParams, GMRegularizer, L2Regularizer, LazyUpdateSchedule
from ..core.regularizers import Regularizer
from ..datasets import ImageDataset, make_cifar_like
from ..nn import Network, alex_cifar10, make_augmenter, resnet_cifar
from ..optim import Trainer, TrainingHistory

__all__ = [
    "DeepRunConfig",
    "DeepResult",
    "alex_bench_config",
    "resnet_bench_config",
    "DEFAULT_GAMMA",
    "build_model",
    "load_image_data",
    "train_deep",
    "run_table6",
    "layer_mixture_table",
    "run_init_alpha_sweep",
    "average_by_init",
]

# Expert-tuned per-layer L2 from Tables IV/V, expressed as *per-sample*
# decay so it transfers across training-set sizes: the paper's priors
# are lambda=200 (conv) / 50000 (dense) for Alex and 50 for every ResNet
# layer with N=50000 CIFAR images.  At bench scale (different N, lr and
# epoch budget) the same priors do not transfer, so these decays were
# re-tuned by grid search -- which is exactly what "expert-tuned" means
# in the paper.  The strength handed to the trainer is decay * N (the
# trainer divides by N again).
ALEX_EXPERT_L2_DECAY = {"conv": 0.008, "dense": 0.08}
RESNET_L2_DECAY = 0.004

# Calibrated default GM gamma per model at bench scale.  The Gamma-prior
# rate b = gamma * M caps the learned precisions; with N two orders of
# magnitude below the paper's, the effective decay lambda/N needs a much
# larger gamma for the BN-heavy ResNet to stay in a useful range.
DEFAULT_GAMMA = {"alex": 0.02, "resnet": 2.0}


def alex_bench_config(**overrides) -> "DeepRunConfig":
    """The calibrated laptop-scale Alex-CIFAR-10 configuration.

    At this scale the unregularized model overfits (train ~0.91, test
    ~0.74) and the Table VI ordering none < L2 < GM reproduces.
    """
    defaults = dict(model="alex")
    defaults.update(overrides)
    return DeepRunConfig(**defaults)


def resnet_bench_config(**overrides) -> "DeepRunConfig":
    """The calibrated laptop-scale ResNet configuration.

    Deviates from the paper in disabling augmentation and using small
    batches: at 300-sample scale the augmented ResNet does not overfit
    at all, so there would be nothing for any regularizer to do.  See
    EXPERIMENTS.md for the honest comparison.
    """
    defaults = dict(
        model="resnet", augment=False, epochs=40, batch_size=10, noise=1.2
    )
    defaults.update(overrides)
    return DeepRunConfig(**defaults)


@dataclass(frozen=True)
class DeepRunConfig:
    """One deep experiment's data + model + training configuration."""

    model: str = "alex"  # "alex" | "resnet"
    image_size: int = 16
    n_train: int = 300
    n_test: int = 500
    noise: float = 1.0
    epochs: int = 25
    lr: Optional[float] = None  # None = paper default per model
    momentum: float = 0.9
    batch_size: int = 50
    width_scale: float = 0.5  # alex filter-count multiplier
    n_blocks_per_stage: int = 1  # resnet depth parameter n
    base_width: int = 8  # resnet first-stage width
    augment: Optional[bool] = None  # None = paper default (resnet only)
    data_seed: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in ("alex", "resnet"):
            raise ValueError(f"model must be 'alex' or 'resnet', got {self.model!r}")

    @property
    def effective_lr(self) -> float:
        """Paper defaults: 0.001-scale for Alex, 0.1-scale for ResNet.

        At laptop scale with far fewer samples the paper's exact rates
        underfit within the epoch budget, so the defaults are the paper
        ratios scaled to converge at bench scale.
        """
        if self.lr is not None:
            return self.lr
        return 0.01 if self.model == "alex" else 0.05

    @property
    def effective_augment(self) -> bool:
        """Paper: augmentation for ResNet, none for Alex-CIFAR-10."""
        if self.augment is not None:
            return self.augment
        return self.model == "resnet"


@dataclass
class DeepResult:
    """Outcome of one deep training run."""

    config: DeepRunConfig
    method: str
    test_accuracy: float
    train_accuracy: float
    history: TrainingHistory
    layer_mixtures: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )  # weight name -> (pi, lam)
    metrics: Dict[str, Dict] = field(default_factory=dict)
    # ^ MetricsRegistry.snapshot() of the run: per-phase timers
    #   (phase/estep, phase/grad, phase/mstep, phase/sgd), counters and
    #   the em/*_refreshes gauges — what Figs. 5-7 read.

    def phase_seconds(self) -> Dict[str, float]:
        """``{phase: total_seconds}`` from the run's metrics snapshot."""
        return {
            name[len("phase/"):]: timer["total_seconds"]
            for name, timer in self.metrics.get("timers", {}).items()
            if name.startswith("phase/")
        }


def load_image_data(config: DeepRunConfig) -> ImageDataset:
    """The synthetic CIFAR split for this configuration."""
    return make_cifar_like(
        n_train=config.n_train,
        n_test=config.n_test,
        image_size=config.image_size,
        noise=config.noise,
        seed=config.data_seed,
    )


def build_model(config: DeepRunConfig) -> Network:
    """Instantiate the configured architecture."""
    if config.model == "alex":
        return alex_cifar10(
            image_size=config.image_size,
            width_scale=config.width_scale,
            seed=config.seed,
        )
    return resnet_cifar(
        n_blocks_per_stage=config.n_blocks_per_stage,
        base_width=config.base_width,
        seed=config.seed,
    )


def _expert_l2_factory(config: DeepRunConfig):
    """Per-layer expert-tuned L2, mirroring Tables IV/V."""
    def factory(name: str, _m: int, _std: float) -> Regularizer:
        if config.model == "alex":
            decay = (
                ALEX_EXPERT_L2_DECAY["dense"]
                if name.startswith("dense")
                else ALEX_EXPERT_L2_DECAY["conv"]
            )
        else:
            decay = RESNET_L2_DECAY
        return L2Regularizer(decay * config.n_train)
    return factory


def _gm_factory(
    config: DeepRunConfig,
    gamma: float,
    alpha_exponent: float,
    init_method: str,
    schedule: Optional[LazyUpdateSchedule],
    gm_regularizer: Callable[..., Regularizer] = GMRegularizer,
):
    """One GM regularizer per layer, calibrated to its init std."""
    def factory(name: str, m: int, weight_init_std: float) -> Regularizer:
        del name
        hp = GMHyperParams(gamma=gamma, alpha_exponent=alpha_exponent)
        return gm_regularizer(
            n_dimensions=m,
            weight_init_std=weight_init_std,
            hyperparams=hp,
            init_method=init_method,
            schedule=schedule,
        )
    return factory


def train_deep(
    config: DeepRunConfig,
    method: str = "gm",
    gamma: Optional[float] = None,
    alpha_exponent: float = 0.5,
    init_method: str = "linear",
    schedule: Optional[LazyUpdateSchedule] = None,
    data: Optional[ImageDataset] = None,
    callbacks=None,
    gm_regularizer: Callable[..., Regularizer] = GMRegularizer,
    model_dtype=None,
) -> DeepResult:
    """Train one model under one regularization mode.

    Parameters
    ----------
    method:
        ``"none"``, ``"l2"`` (expert-tuned, per Tables IV/V) or ``"gm"``.
    gamma, alpha_exponent, init_method, schedule:
        GM settings (Section V-B1 policy; ignored by other methods).
    data:
        Pre-generated dataset to share across methods (else generated
        from the config).
    callbacks:
        Optional :class:`~repro.telemetry.events.Callback` observers
        forwarded to :meth:`Trainer.fit`.
    gm_regularizer:
        Per-layer constructor taking :class:`~repro.core.GMRegularizer`'s
        keyword arguments (``method="gm"`` only).  The hot-path
        benchmark passes its reference baseline here.
    model_dtype:
        Optional dtype the network is cast to after construction
        (``np.float32``: the E-step kernel then computes in float32);
        parameters are initialized in float64 first so both precisions
        start from identical values.
    """
    if method not in ("none", "l2", "gm"):
        raise ValueError(f"method must be none/l2/gm, got {method!r}")
    if gamma is None:
        gamma = DEFAULT_GAMMA[config.model]
    data = data or load_image_data(config)
    model = build_model(config)
    if model_dtype is not None:
        model.to_dtype(np.dtype(model_dtype))
    if method == "l2":
        model.attach_regularizers(_expert_l2_factory(config))
    elif method == "gm":
        model.attach_regularizers(
            _gm_factory(
                config, gamma, alpha_exponent, init_method, schedule,
                gm_regularizer,
            )
        )
    trainer = Trainer(
        model,
        lr=config.effective_lr,
        momentum=config.momentum,
        batch_size=config.batch_size,
    )
    augment = make_augmenter(pad=max(1, config.image_size // 8)) \
        if config.effective_augment else None
    history = trainer.fit(
        data.x_train,
        data.y_train,
        epochs=config.epochs,
        rng=np.random.default_rng(config.seed + 1),
        augment=augment,
        callbacks=callbacks,
    )
    test_acc = float(np.mean(model.predict(data.x_test) == data.y_test))
    train_acc = float(np.mean(model.predict(data.x_train) == data.y_train))
    mixtures: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name, reg in model.weight_regularizers().items():
        if isinstance(reg, GMRegularizer):
            mixtures[name] = (reg.pi.copy(), reg.lam.copy())
    return DeepResult(
        config=config,
        method=method,
        test_accuracy=test_acc,
        train_accuracy=train_acc,
        history=history,
        layer_mixtures=mixtures,
        metrics=trainer.metrics.snapshot(),
    )


def run_table6(
    config: DeepRunConfig,
    methods: Sequence[str] = ("none", "l2", "gm"),
    **gm_kwargs,
) -> Dict[str, DeepResult]:
    """Table VI: accuracy under no / L2 / GM regularization."""
    data = load_image_data(config)
    return {
        method: train_deep(config, method=method, data=data, **gm_kwargs)
        for method in methods
    }


def layer_mixture_table(result: DeepResult) -> List[Tuple[str, List[float], List[float]]]:
    """Rows of Table IV/V: ``(layer, pi, lambda)`` sorted by layer name.

    Components are reported small-pi-first like the paper (the
    large-variance "informative" component first).
    """
    rows = []
    for name in sorted(result.layer_mixtures):
        pi, lam = result.layer_mixtures[name]
        order = np.argsort(lam)  # ascending precision = descending variance
        rows.append((name, list(pi[order]), list(lam[order])))
    return rows


def run_init_alpha_sweep(
    config: DeepRunConfig,
    init_methods: Sequence[str] = ("linear", "identical", "proportional"),
    alpha_exponents: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    gamma: Optional[float] = None,
) -> Dict[Tuple[str, float], DeepResult]:
    """Figure 4's grid: accuracy per (init method, alpha exponent)."""
    data = load_image_data(config)
    results: Dict[Tuple[str, float], DeepResult] = {}
    for init in init_methods:
        for exponent in alpha_exponents:
            results[(init, exponent)] = train_deep(
                config,
                method="gm",
                gamma=gamma,
                alpha_exponent=exponent,
                init_method=init,
                data=data,
            )
    return results


def average_by_init(
    sweep: Dict[Tuple[str, float], DeepResult]
) -> Dict[str, float]:
    """Table VIII: mean accuracy per init method over the alpha sweep."""
    by_init: Dict[str, List[float]] = {}
    for (init, _exponent), result in sweep.items():
        by_init.setdefault(init, []).append(result.test_accuracy)
    return {init: float(np.mean(vals)) for init, vals in by_init.items()}
