"""
Toy line: ensemble weights react to the noise
=============================================

Fit the same two-loss ensemble to the synthetic line y = 2x under two
noise regimes.  With Gaussian noise the gentle convex loss (l1l2) carries
the larger ensemble weight; once outliers contaminate the labels, the
redescending welsch loss -- the only member able to ignore them -- gains
share, and the slope estimate barely moves.
"""

from relf import (FoldStack, LeastSquaresMethod, NoiseConfig, fit, parse_ensemble,
                  synth_line)
from relf.data import NOISE_GAUSSIAN, NOISE_OUTLIER

ensemble = parse_ensemble("welsch:1.5,l1l2")
ols = LeastSquaresMethod(ridge_alpha=0.0)

for label, noise in [
    ("gaussian noise", NoiseConfig(mode=NOISE_GAUSSIAN, gaussian_std=1.0, seed=0)),
    ("10/81 outliers", NoiseConfig(mode=NOISE_OUTLIER,
                                   outlier_fraction=10.0 / 81.0,
                                   outlier_magnitude=5.0, seed=0)),
]:
    ds = synth_line(noise)
    model = fit(ds, ensemble)
    print(f"{label}:")
    print(f"  slope estimate   {model.w[0]:8.4f}   (true slope 2.0)")
    print(f"  ols slope        {ols.fold_weights(FoldStack.of(ds))[0, 0]:8.4f}")
    for name, lam in zip(model.ensemble.labels(), model.loss_weights):
        print(f"  lambda[{name:<10}] {lam:8.4f}")
    print(f"  iterations {model.trace.iterations}, "
          f"converged={model.trace.converged}")
    print()
