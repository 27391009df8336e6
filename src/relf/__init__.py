"""relf: robust ensemble-loss fitting for linear regression.

Fits ``y ~ X w`` by minimizing a sum of M-estimator losses drawn from a
small catalog (welsch, l1l2, huber, fair, logcosh) via alternating
half-quadratic minimization, returning both the regression weights and a
simplex of per-loss ensemble weights that reports which losses matched the
noise.  See :mod:`relf.solver` for the algorithm and :mod:`relf.evaluation`
for the benchmark protocol.
"""

from .exceptions import (
    DataError,
    DataIOError,
    DimensionMismatchError,
    EnsembleError,
    FactorizationError,
    NonFiniteObjectiveError,
    ParseError,
    RelfError,
)
from .losses import (
    CONVEX_KINDS,
    DEFAULT_ENSEMBLE_TEXT,
    KINDS,
    EnsembleSpec,
    LossSpec,
    delta,
    parse_ensemble,
    phi,
)
from .linalg import solve_spd_with_jitter
from .data import (
    Dataset,
    FoldStack,
    NoiseConfig,
    Preprocessing,
    ScalerState,
    add_intercept,
    apply_scaler,
    fit_scaler,
    inject_outliers,
    load_csv,
    load_libsvm,
    save_libsvm,
    synth_line,
)
from .solver import (
    RelfModel,
    SolverConfig,
    SolverTrace,
    decrease_ratio,
    fit,
    fit_folds,
    load_model,
    objective,
    predict,
    residuals,
    save_model,
    update_p,
    update_w,
)
from .evaluation import (
    CvConfig,
    CvFolds,
    CvResult,
    EvalReport,
    LeastSquaresMethod,
    RelfMethod,
    cross_validate,
    cv_folds,
    error_metrics,
    increase_ratio,
    kfold_split,
    ols_fit,
    parse_method,
    run_benchmark,
    train_labels,
)

__version__ = "0.1.0"
