"""Hot-path fusion: the E-step kernel vs the reference EM arithmetic.

Trains the Alex-CIFAR timing configuration (the Figures 5-7 setup, run
*eagerly* so the EM machinery fires every iteration) under three
configurations of the same experiment:

- ``legacy``   — the reference baseline built here from the readable
  pieces: per-layer ``GaussianMixture.responsibilities`` for ``g_reg``
  (Equations (9)+(10)) and ``em_step`` for the M-step, which evaluates
  the per-component Gaussian densities a second time: two density
  evaluations per iteration;
- ``fast``     — the library default: one stacked kernel call per
  iteration over every layer, its responsibilities handed to the
  M-step (one density evaluation per iteration);
- ``fast_f32`` — the same with the model cast to float32, so the kernel
  computes in float32 (the M-step still accumulates in float64).

It writes ``BENCH_hotpath.json`` with per-phase attribution (the
``phase/estep`` … ``phase/sgd`` timer totals per mode) and enforces:

- ``fast`` trains >= 2x faster than ``legacy`` (training-loop
  wall-clock, same data, same seed);
- ``fast``'s final loss is within 1e-6 of the legacy run; the float32
  mode is held to single-precision scale (1e-3);
- the win is attributable to the E-/M-step phases: the fast run's
  density-evaluation count is half the legacy run's, and the E+M phase
  savings account for the bulk of the wall-clock saved.

Run standalone (CI) or under pytest-benchmark like the other benches::

    PYTHONPATH=src python benchmarks/bench_hotpath_fusion.py --quick
    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath_fusion.py
"""

import argparse
import sys

import numpy as np

from repro.core import GMRegularizer, Regularizer, em_step
from repro.experiments.deep import load_image_data, train_deep
from repro.experiments.timing import timing_bench_config
from repro.telemetry import bench_filename, bench_payload, write_bench_json

MIN_SPEEDUP = 2.0
MAX_LOSS_DIFF = 1e-6
# float32 accumulates rounding over the whole SGD trajectory, so its
# final loss is compared at single-precision scale, not the float64
# gate.
MAX_LOSS_DIFF_F32 = 1e-3
# Fraction of the wall-clock saving that must come from the phases the
# fusion actually touches (E-step + M-step + grad), per the phase timers.
MIN_EM_ATTRIBUTION = 0.5


class ReferenceGMRegularizer(Regularizer):
    """The GM regularizer's eager EM written with the reference arithmetic.

    Not a :class:`GMRegularizer`, so the training step runs its own
    ``prepare``/``update`` hooks instead of the stacked kernel.  Every
    iteration (the bench's schedule is eager) the E-step computes
    ``g_reg`` from ``GaussianMixture.responsibilities`` and the M-step
    is ``em_step``, which evaluates the densities again.
    """

    def __init__(self, **gm_kwargs):
        self.gm = GMRegularizer(**gm_kwargs)  # initial mixture, hyper-params
        self.estep_count = self.mstep_count = self.density_evals = 0
        self._grad = None

    def penalty(self, w):
        return self.gm.penalty(w)

    def prepare(self, w, iteration):
        flat = np.asarray(w, dtype=np.float64).reshape(-1)
        mixture = self.gm.mixture
        self._grad = (mixture.responsibilities(flat) @ mixture.lam) * flat
        self.estep_count += 1
        self.density_evals += 1

    def gradient(self, w):
        return self._grad.reshape(np.shape(w))

    def update(self, w, iteration):
        gm = self.gm
        gm.mixture = em_step(
            gm.mixture, w, alpha=gm._alpha[: gm.mixture.n_components],
            a=gm._a, b=gm._b,
        )
        self.mstep_count += 1
        self.density_evals += 1


MODES = {
    "legacy": dict(gm_regularizer=ReferenceGMRegularizer),
    "fast": dict(),
    "fast_f32": dict(model_dtype=np.float32),
}

PHASES = ("estep", "grad", "mstep", "sgd")


def run_benchmark(quick: bool = False):
    config = timing_bench_config(epochs=3 if quick else 12)
    data = load_image_data(config)

    modes = {}
    for mode, kwargs in MODES.items():
        result = train_deep(config, data=data, **kwargs)
        times = result.history.cumulative_times()
        gauges = result.metrics.get("gauges", {})
        modes[mode] = {
            "wall_seconds": float(times[-1]),
            "phases": {
                p: result.phase_seconds().get(p, 0.0) for p in PHASES
            },
            "losses": [float(v) for v in result.history.losses()],
            "final_loss": float(result.history.losses()[-1]),
            "test_accuracy": result.test_accuracy,
            "density_evals": int(gauges.get("em/density_evals") or 0),
            "estep_refreshes": int(gauges.get("em/estep_refreshes") or 0),
        }

    legacy = modes["legacy"]
    for mode, m in modes.items():
        m["speedup"] = legacy["wall_seconds"] / m["wall_seconds"]
        m["loss_abs_diff"] = abs(m["final_loss"] - legacy["final_loss"])

    payload = bench_payload(
        "hotpath",
        metrics={},
        extra={
            "quick": quick,
            "config": {
                "model": config.model,
                "image_size": config.image_size,
                "n_train": config.n_train,
                "epochs": config.epochs,
                "batch_size": config.batch_size,
            },
            "min_speedup": MIN_SPEEDUP,
            "max_loss_diff": MAX_LOSS_DIFF,
            "max_loss_diff_f32": MAX_LOSS_DIFF_F32,
            "min_em_attribution": MIN_EM_ATTRIBUTION,
            "modes": modes,
        },
    )
    path = write_bench_json(bench_filename("hotpath"), payload)
    return payload, path


def check_claims(payload):
    modes = payload["extra"]["modes"]
    legacy, fast = modes["legacy"], modes["fast"]

    assert fast["speedup"] >= MIN_SPEEDUP, (
        f"the fast path is only {fast['speedup']:.2f}x faster than the "
        f"legacy path (gate: >= {MIN_SPEEDUP}x; legacy "
        f"{legacy['wall_seconds']:.2f}s, fast {fast['wall_seconds']:.2f}s)"
    )
    for mode, tol in (
        ("fast", MAX_LOSS_DIFF),
        ("fast_f32", MAX_LOSS_DIFF_F32),
    ):
        diff = modes[mode]["loss_abs_diff"]
        assert diff <= tol, (
            f"{mode} final loss differs from legacy by {diff:.2e} (> {tol:.0e})"
        )

    # Attribution: the fast path evaluates the densities once per
    # refresh instead of twice, and the saving shows up in the phases
    # the fusion touches.
    assert legacy["density_evals"] == 2 * fast["density_evals"], (
        f"expected legacy to evaluate densities twice per refresh "
        f"(legacy {legacy['density_evals']}, fast {fast['density_evals']})"
    )
    em_saved = sum(
        legacy["phases"][p] - fast["phases"][p]
        for p in ("estep", "grad", "mstep")
    )
    wall_saved = legacy["wall_seconds"] - fast["wall_seconds"]
    attribution = em_saved / wall_saved
    assert attribution >= MIN_EM_ATTRIBUTION, (
        f"only {attribution:.0%} of the saving is in the E-step/grad/"
        f"M-step phases (gate: >= {MIN_EM_ATTRIBUTION:.0%})"
    )


def format_report(payload, path):
    extra = payload["extra"]
    modes = extra["modes"]
    lines = ["=== hot-path fusion: training wall-clock by mode ==="]
    header = (
        f"{'mode':10s} {'wall':>7s} {'speedup':>8s} "
        + " ".join(f"{p:>7s}" for p in PHASES)
        + f" {'|dloss|':>9s} {'#dens':>6s}"
    )
    lines.append(header)
    for mode, m in modes.items():
        lines.append(
            f"{mode:10s} {m['wall_seconds']:6.2f}s {m['speedup']:7.2f}x "
            + " ".join(f"{m['phases'][p]:6.2f}s" for p in PHASES)
            + f" {m['loss_abs_diff']:9.1e} {m['density_evals']:6d}"
        )
    lines.append(
        f"gates: speedup >= {extra['min_speedup']}x, "
        f"|final loss - legacy| <= {extra['max_loss_diff']:.0e} "
        f"(f32: {extra['max_loss_diff_f32']:.0e}), "
        f"E/M attribution >= {extra['min_em_attribution']:.0%}"
    )
    lines.append(f"wrote {path}")
    return "\n".join(lines)


def test_hotpath_fusion(benchmark, report):
    from conftest import run_once

    payload, path = run_once(benchmark, lambda: run_benchmark(quick=False))
    report(format_report(payload, path))
    check_claims(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer epochs for CI smoke runs")
    args = parser.parse_args(argv)
    payload, path = run_benchmark(quick=args.quick)
    print(format_report(payload, path))
    check_claims(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
