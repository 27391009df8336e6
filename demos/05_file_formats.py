"""
File formats and model persistence
==================================

Round trip the supported on-disk formats: a headered CSV, the 1-based
sparse libsvm format, and the JSON model file (which carries the fitted
weights together with the preprocessing needed to apply them to raw
inputs).  Everything happens in a temporary directory, removed at the
end.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from relf import (
    NoiseConfig,
    Preprocessing,
    error_metrics,
    fit,
    load_csv,
    load_libsvm,
    load_model,
    parse_ensemble,
    predict,
    save_libsvm,
    save_model,
    synth_line,
)
from relf.data import NOISE_GAUSSIAN

with tempfile.TemporaryDirectory(prefix="relf-demo-") as tmp:
    work = Path(tmp)
    ds = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, gaussian_std=0.5, seed=8))

    # --- csv ---
    csv_path = work / "line.csv"
    with open(csv_path, "w") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(ds.X[:, 0], ds.y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")
    from_csv = load_csv(csv_path, "y")
    print(f"csv:    {from_csv.n} rows, features {from_csv.feature_names}")

    # --- libsvm ---
    svm_path = work / "line.svm"
    save_libsvm(from_csv, svm_path)
    from_svm = load_libsvm(svm_path)
    print(f"libsvm: {from_svm.n} rows, max |csv - libsvm| = "
          f"{np.max(np.abs(from_csv.X - from_svm.X)):.1e}")

    # --- model json ---
    preprocessing = Preprocessing.fit(from_csv, scale=False, intercept=True)
    model = replace(fit(preprocessing.apply(from_csv), parse_ensemble("welsch:1.5,l1l2")),
                    preprocessing=preprocessing)
    model_path = work / "model.json"
    save_model(model, model_path)
    back = load_model(model_path)
    print(f"model:  w = {np.round(back.w, 4)}, "
          f"lambda = {np.round(back.loss_weights, 4)}")
    mae, _ = error_metrics(from_csv.y - predict(back, from_csv))  # the stored intercept, applied
    print(f"        reload mae {mae:.4f} "
          f"(same as before save: "
          f"{np.array_equal(back.w, model.w)})")
    print(f"files under {work}")
