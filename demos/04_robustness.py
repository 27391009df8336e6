"""
Robustness under label contamination
====================================

The contamination protocol: k-fold cross-validation where the *training*
folds get outliers injected (test labels stay clean), with identical fold
splits for the clean and contaminated runs.  The increase ratio
MAE_contaminated / MAE_clean then isolates what the outliers cost each
method.  Least squares pays heavily; the ensemble barely notices.
"""

from relf import (
    CvConfig,
    LeastSquaresMethod,
    NoiseConfig,
    RelfMethod,
    cross_validate,
    cv_folds,
    increase_ratio,
    parse_ensemble,
    synth_line,
    train_labels,
)
from relf.data import NOISE_GAUSSIAN, NOISE_OUTLIER

ds = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, gaussian_std=1.0, seed=0))
# the ten folds, stacked once and shared by every method and level
folds = cv_folds(ds, CvConfig(folds=10, seed=0), scale_features=False, intercept=False)
methods = [
    RelfMethod(ensemble=parse_ensemble("welsch,l1l2,huber"), label="relf"),
    LeastSquaresMethod(label="ols"),
]

print(f"{'method':<6} {'clean mae':>10} {'dirty mae':>10} {'increase':>9}")
for level in (0.1, 0.3):
    contamination = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=level,
                                outlier_magnitude=5.0, seed=0)
    for method in methods:
        # both levels' folds fitted in one call
        clean, dirty = cross_validate(
            folds, method, [folds.train.y, train_labels(folds, contamination)])
        ratio = increase_ratio(dirty.mean_mae, clean.mean_mae)
        print(f"{method.label:<6} {clean.mean_mae:10.4f} "
              f"{dirty.mean_mae:10.4f} {ratio:9.4f}   "
              f"({level:.0%} training outliers)")
    print()
