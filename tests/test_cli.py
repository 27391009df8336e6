import copy
import csv
import io
import json
import random
import warnings

import numpy as np
import pytest

from relf import NoiseConfig, load_csv, load_model, predict, synth_line
from relf.cli import EXIT_SOLVER, main
from relf.data import NOISE_GAUSSIAN


def _write_toy_csv(path, noise=None):
    ds = synth_line(noise)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for xi, yi in zip(ds.X[:, 0], ds.y):
            writer.writerow([repr(float(xi)), repr(float(yi))])
    return path


def _lambdas(out):
    vals = {}
    for line in out.splitlines():
        if line.startswith("lambda["):
            name, _, value = line.partition("]: ")
            vals[name[len("lambda["):]] = float(value)
    return vals


def _weights(out):
    vals = {}
    for line in out.splitlines():
        if line.startswith("w["):
            name, _, value = line.partition("]: ")
            vals[name[len("w["):]] = float(value)
    return vals


class TestFitCommand:
    def test_fit_csv(self, tmp_path, capsys):
        data = _write_toy_csv(tmp_path / "toy.csv",
                              NoiseConfig(mode=NOISE_GAUSSIAN, seed=3))
        model_path = tmp_path / "model.json"
        code = main(["fit", "--data", str(data), "--label-column", "y",
                     "--ensemble", "welsch:0.7071,l1l2",
                     "--output", str(model_path)])
        out = capsys.readouterr().out
        assert code == 0
        lams = _lambdas(out)
        assert set(lams) == {"welsch:0.7071", "l1l2"}
        assert abs(sum(lams.values()) - 1.0) <= 1e-9
        assert "loaded:" in out and "(n=81, d=1)" in out
        payload = json.loads(model_path.read_text())
        assert payload["schema"] == "relf.model/1"
        assert payload["preprocessing"]["intercept"] is True

    def test_scale_column_spanning_the_float_range(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("x,y\n-1.7e308,1\n1.7e308,2\n0,3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", str(data), "--label-column", "y", "--scale"])
        assert code == 0, capsys.readouterr().err

    def test_fit_libsvm(self, tmp_path, capsys):
        libsvm = tmp_path / "toy.svm"
        libsvm.write_text("4.0 1:1.0\n8.0 1:2.0\n12.0 1:3.0\n")
        code = main(["fit", "--data", str(libsvm), "--format", "libsvm",
                     "--ensemble", "l1l2", "--no-intercept"])
        out = capsys.readouterr().out
        assert code == 0
        assert abs(_weights(out)["0"] - 4.0) <= 1e-3

    def test_missing_file(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--label-column", "y"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    def test_empty_ensemble(self, tmp_path, capsys):
        data = _write_toy_csv(tmp_path / "toy.csv")
        code = main(["fit", "--data", str(data), "--label-column", "y",
                     "--ensemble", ""])
        err = capsys.readouterr().err
        assert code == 1
        assert "ensemble" in err

    @pytest.mark.parametrize("scale", ["1e-170", "1e-158"])
    def test_welsch_scale_whose_weight_overflows(self, tmp_path, capsys, scale):
        # 2/s^2 divided by 0 at 1e-170 and overflowed at 1e-158: a traceback,
        # or a RuntimeWarning before a solver error
        data = _write_toy_csv(tmp_path / "toy.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", str(data), "--label-column", "y",
                         "--ensemble", f"welsch:{scale},l1l2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: loss 'welsch' needs a scale above 1.05")
        assert err.endswith(f", got {float(scale)!r}\n") and err.count("\n") == 1

    def test_welsch_scale_just_above_the_floor(self, tmp_path, capsys):
        # a residual of 0 gets weight 2/s^2 = inf: the w-step's 0 * inf is
        # NaN, a solver error, and numpy may not warn about it
        data = tmp_path / "flat.csv"
        data.write_text("x,y\n1,0\n2,0\n3,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", str(data), "--label-column", "y",
                         "--ensemble", "welsch:1.06e-154,l1l2", "--no-intercept"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "solver error: objective became non-finite at iteration 1\n"

    def test_header_wider_than_rows(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("x,y,z\n1,2\n3,4\n")
        code = main(["fit", "--data", str(data), "--label-column", "y"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: header line has 3 cells, data rows have 2\n"

    def test_overflowing_gram_is_solver_error(self, tmp_path, capsys):
        # the squares of features near 1e300 overflow the w-step's Gram
        data = tmp_path / "huge.csv"
        data.write_text("x,y\n" + "".join(f"{i}e300,{i}\n" for i in range(5)))
        code = main(["fit", "--data", str(data), "--label-column", "y"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "solver error: objective became non-finite at iteration 1\n"

    @pytest.mark.parametrize("flags, message", [
        (["--init", "gaussian", "--init-seed", "-1"], "init_seed must be >= 0, got -1"),
        (["--alpha", "-1"], "alpha must be >= 0, got -1.0"),
    ])
    def test_bad_solver_flag(self, tmp_path, capsys, flags, message):
        # the config is checked where it is built, before anything runs
        data = _write_toy_csv(tmp_path / "toy.csv")
        code = main(["fit", "--data", str(data), "--label-column", "y", *flags])
        out, err = capsys.readouterr()
        assert code == 1
        assert (out, err) == ("", f"error: {message}\n")

    def test_unknown_flag(self, capsys):
        code = main(["fit", "--data", "x.csv", "--label-column", "y",
                     "--frobnicate"])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage" in err


class TestToyCommand:
    def test_gaussian_recovers_slope(self, capsys):
        code = main(["toy", "--noise", "gaussian", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert abs(_weights(out)["x"] - 2.0) <= 0.05
        assert "config:" in out.splitlines()[0]

    def test_rerun_byte_identical(self, capsys):
        argv = ["toy", "--noise", "gaussian", "--seed", "1"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_outliers_raise_welsch_share(self, capsys):
        main(["toy", "--noise", "gaussian", "--seed", "0"])
        gaussian = _lambdas(capsys.readouterr().out)
        main(["toy", "--noise", "outlier", "--seed", "0"])
        outlier = _lambdas(capsys.readouterr().out)
        assert outlier["welsch:1.5"] > gaussian["welsch:1.5"]

    def test_redescended_scale_is_solver_error(self, capsys):
        code = main(["toy", "--noise", "gaussian", "--seed", "0",
                     "--ensemble", "welsch:1e-06"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("solver error:")

    def test_negative_seed_is_an_input_error(self, capsys):
        code = main(["toy", "--seed", "-1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert (out, err) == ("", "error: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("argv, message", [
        (["--noise", "outlier", "--gaussian-std", "-1"], "gaussian_std must be >= 0, got -1.0"),
        (["--noise", "gaussian", "--outlier-fraction", "1.5"],
         "outlier_fraction must lie in [0, 1], got 1.5"),
    ], ids=["outlier-gaussian-std", "gaussian-outlier-fraction"])
    def test_flag_of_the_other_noise_mode_is_checked(self, capsys, argv, message):
        # every flag builds the noise config, not only the chosen mode's
        code = main(["toy", *argv])
        assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))

    def test_max_iters_far_past_convergence(self, capsys):
        # the trace grows one row per iteration, so a cap that is never
        # reached allocates nothing
        assert main(["toy"]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(["toy", "--max-iters", "100000000000"]) == 0
        huge = capsys.readouterr().out.splitlines()
        assert plain[0].startswith("config:") and huge[0].startswith("config:")
        assert '"max_iters": 100000000000' in huge[0]
        assert huge[1:] == plain[1:]

    def test_failed_factorization_is_one_solver_error_line(self, monkeypatch, capsys):
        from relf import linalg

        def indefinite(M):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(linalg.np.linalg, "cholesky", indefinite)
        code = main(["toy", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_SOLVER
        assert captured.err == ("solver error: Cholesky failed at jitter alpha=1e-08: "
                                "system 0 of 1 is not positive definite\n")


class TestPredictCommand:
    def _fit_model(self, tmp_path, capsys):
        data = _write_toy_csv(tmp_path / "toy.csv",
                              NoiseConfig(mode=NOISE_GAUSSIAN, seed=5))
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--label-column", "y",
                     "--output", str(model_path)]) == 0
        capsys.readouterr()
        return data, model_path

    def test_round_trip_with_labels(self, tmp_path, capsys):
        data, model_path = self._fit_model(tmp_path, capsys)
        pred_path = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model_path), "--data", str(data),
                     "--label-column", "y", "--output", str(pred_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mae:" in out and "rmse:" in out
        mae_line = [l for l in out.splitlines() if l.startswith("mae:")][0]
        assert float(mae_line.split()[1]) < 1.5
        rows = pred_path.read_text().splitlines()
        assert rows[0] == "prediction,label"
        assert len(rows) == 82

    @staticmethod
    def _predict_far(tmp_path, capsys, far_text, *flags):
        """``relf predict`` of ``far_text`` by a model scaled on [0, 1e-300]:
        its exit status and stderr."""
        train = tmp_path / "narrow.csv"
        train.write_text("x,y\n0,1\n5e-301,2\n1e-300,3\n")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(train), "--label-column", "y", "--scale",
                     "--output", str(model_path)]) == 0
        far = tmp_path / "far.csv"
        far.write_text(far_text)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["predict", "--model", str(model_path), "--data", str(far), *flags])
        return code, capsys.readouterr().err

    def test_value_scaled_past_the_float_range(self, tmp_path, capsys):
        assert self._predict_far(tmp_path, capsys, "x\n1e10\n") == (1, (
            "error: scaling 10000000000.0 by the training range [0.0, 1e-300] "
            "overflows the float range\n"))

    def test_labelled_value_scaled_past_the_float_range(self, tmp_path, capsys):
        # the design is written over the loaded table, yet the error names
        # the value as it was read
        assert self._predict_far(tmp_path, capsys, "y,x\n1,0\n2,1e10\n3,0\n",
                                 "--label-column", "y") == (1, (
            "error: scaling 10000000000.0 by the training range [0.0, 1e-300] "
            "overflows the float range\n"))

    def test_metrics_of_huge_finite_errors_are_finite(self, tmp_path, capsys):
        train = tmp_path / "line.csv"
        train.write_text("x,y\n0,0\n1,1\n2,2\n")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(train), "--label-column", "y",
                     "--output", str(model_path)]) == 0
        far = tmp_path / "far.csv"
        far.write_text("x,y\n0,1e308\n1,-1e308\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["predict", "--model", str(model_path), "--data", str(far),
                         "--label-column", "y"])
        out = capsys.readouterr().out
        assert code == 0
        metrics = dict(line.split(": ") for line in out.splitlines()
                       if line.startswith(("mae:", "rmse:")))
        assert 0.99e308 < float(metrics["mae"]) <= float(metrics["rmse"]) <= 1e308

    @pytest.mark.parametrize("flags", [[], ["--scale"], ["--no-intercept"]])
    def test_libsvm_omitted_trailing_columns_are_zeros(self, tmp_path, capsys, flags):
        # the test file's largest index is 2, the model's width 3: each
        # prediction is that of the rows written with explicit "3:0" entries
        train = tmp_path / "train.svm"
        train.write_text("1 1:1 2:3 3:1\n2 1:2 2:1 3:2\n3 1:3 2:2 3:3\n4 1:4 2:5\n")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(train), "--format", "libsvm", *flags,
                     "--output", str(model_path)]) == 0
        outputs = []
        for name, text in (("short.svm", "1.5 1:1 2:2\n2.5 1:2\n"),
                           ("explicit.svm", "1.5 1:1 2:2 3:0\n2.5 1:2 3:0\n")):
            (tmp_path / name).write_text(text)
            capsys.readouterr()
            pred_path = tmp_path / f"{name}.csv"
            code = main(["predict", "--model", str(model_path), "--data", str(tmp_path / name),
                         "--format", "libsvm", "--output", str(pred_path)])
            out = capsys.readouterr().out
            assert code == 0, out
            outputs.append(([line for line in out.splitlines() if line.startswith(("mae", "rmse"))],
                            pred_path.read_bytes()))
        assert outputs[0] == outputs[1]
        # a file wider than the model still fails
        (tmp_path / "wide.svm").write_text("1 1:1 4:2\n")
        code = main(["predict", "--model", str(model_path), "--data", str(tmp_path / "wide.svm"),
                     "--format", "libsvm"])
        assert code == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_label_free_csv(self, tmp_path, capsys):
        _, model_path = self._fit_model(tmp_path, capsys)
        feats = tmp_path / "xonly.csv"
        feats.write_text("x\n0.0\n1.0\n")
        code = main(["predict", "--model", str(model_path), "--data", str(feats)])
        out = capsys.readouterr().out
        assert code == 0
        preds = [float(l.split()[1]) for l in out.splitlines()
                 if l.startswith("prediction:")]
        assert len(preds) == 2
        assert abs((preds[1] - preds[0]) - 2.0) <= 0.05  # fitted slope

    def test_width_mismatch(self, tmp_path, capsys):
        _, model_path = self._fit_model(tmp_path, capsys)
        wide = tmp_path / "wide.csv"
        wide.write_text("a,b,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        code = main(["predict", "--model", str(model_path), "--data", str(wide),
                     "--label-column", "y"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_predictions_file_bytes(self, tmp_path, capsys, with_labels):
        data, model_path = self._fit_model(tmp_path, capsys)
        ds = load_csv(data, "y")
        argv = ["predict", "--model", str(model_path), "--output", str(tmp_path / "p.csv")]
        if with_labels:
            argv += ["--data", str(data), "--label-column", "y"]
        else:
            feats = tmp_path / "x.csv"
            feats.write_text("x\n" + "".join(f"{v!r}\n" for v in ds.X[:, 0].tolist()))
            argv += ["--data", str(feats)]
        assert main(argv) == 0
        capsys.readouterr()
        model = load_model(model_path)
        yhat = predict(model, np.hstack([ds.X, np.ones((ds.n, 1))]))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["prediction"] + (["label"] if with_labels else []))
        for i, value in enumerate(yhat):
            writer.writerow([repr(float(value))]
                            + ([repr(float(ds.y[i]))] if with_labels else []))
        assert (tmp_path / "p.csv").read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("mutate, message", [
        (lambda m: m.pop("ensemble"), "lacks 'ensemble'"),
        (lambda m: m.pop("config"), "lacks 'config'"),
        (lambda m: m["config"].pop("alpha"), "lacks 'alpha'"),
        (lambda m: m["config"].update(max_iters="30"), "'max_iters' must be an integer"),
        (lambda m: m["config"].update(max_iter=1), "model config has unknown key 'max_iter'"),
        (lambda m: m.update(w="0.5"), "'w' must be a list"),
        (lambda m: m.update(w=[1.0, None]), "'w' must be a list of finite numbers"),
        (lambda m: m.update(loss_weights=[1.0]), "1 loss weights for 3 losses"),
        (lambda m: m["ensemble"].append({"kind": "l2"}), "loss lacks 'scale'"),
        (lambda m: m["ensemble"][0].update(kind="l2"), "unknown loss kind"),
        (lambda m: m.update(w=m["w"] + [0.0]), "3 weights, but its preprocessing yields 2"),
        (lambda m: m["trace"].pop("risks"), "trace lacks 'risks'"),
        (lambda m: m["preprocessing"]["scaler"].pop("feature_max"), "scaler lacks 'feature_max'"),
        (lambda m: m.update(preprocessing=["x"]), "'preprocessing' must be an object"),
        # an unknown key at any level
        (lambda m: m.update(zz=1), "model has unknown key 'zz'"),
        (lambda m: m["ensemble"][0].update(zz=1), "model loss has unknown key 'zz'"),
        (lambda m: m["trace"].update(zz=1), "model trace has unknown key 'zz'"),
        (lambda m: m["preprocessing"].update(zz=1), "model preprocessing has unknown key 'zz'"),
        (lambda m: m["preprocessing"]["scaler"].update(zz=1),
         "model preprocessing scaler has unknown key 'zz'"),
        # what fit guarantees: simplex loss weights and a trace of
        # ``iterations`` rows, at least 1 and at most ``max_iters``
        (lambda m: m.update(loss_weights=[-5.0, 3.0, 3.0]),
         "loss weights must be non-negative and sum to 1 within 1e-09"),
        (lambda m: m.update(loss_weights=[0.5, 0.5, 0.5]), "must be non-negative and sum to 1"),
        (lambda m: m["trace"].update(iterations=99), "for 99 iterations of at most 30"),
        (lambda m: m["trace"]["risks"].append(1.0), "model trace has"),
        (lambda m: m["trace"].update(risks=[], max_steps=[], iterations=0),
         "0 risks and 0 steps for 0 iterations"),
        (lambda m: m["config"].update(max_iters=1), "iterations of at most 1"),
        # a config value is checked where the config is built
        (lambda m: m["config"].update(init_seed=-1), "init_seed must be >= 0, got -1"),
    ])
    def test_malformed_model(self, tmp_path, capsys, mutate, message):
        data = _write_toy_csv(tmp_path / "toy.csv")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--label-column", "y", "--scale",
                     "--output", str(model_path)]) == 0
        capsys.readouterr()
        payload = json.loads(model_path.read_text())
        mutate(payload)
        model_path.write_text(json.dumps(payload))
        code = main(["predict", "--model", str(model_path), "--data", str(data),
                     "--label-column", "y"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err

    def test_missing_model(self, tmp_path, capsys):
        code = main(["predict", "--model", str(tmp_path / "nope.json"),
                     "--data", str(tmp_path / "nope.csv")])
        assert code == 1


_CSV_ENTRY = {"name": "a", "format": "csv", "path": "a.csv", "label_column": "y"}
_LINE_ENTRY = {"name": "line", "format": "synthetic", "noise_mode": "gaussian", "seed": 0}


class TestBenchCommand:
    def _manifest(self, tmp_path, datasets):
        manifest = {
            "cv": {"folds": 5, "seed": 0},
            "contamination_levels": [0.0, 0.3],
            "scale_features": False,
            "intercept": False,
            "datasets": datasets,
            "methods": ["relf:welsch,l1l2", "ols"],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_bench_ok(self, tmp_path, capsys):
        path = self._manifest(tmp_path, [
            {"name": "toy", "format": "synthetic", "noise_mode": "gaussian",
             "seed": 0}])
        out_dir = tmp_path / "out"
        code = main(["bench", "--manifest", str(path),
                     "--output-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.csv").exists()
        assert "increase_ratio=" in out
        first = (out_dir / "report.csv").read_bytes()
        assert main(["bench", "--manifest", str(path),
                     "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "report.csv").read_bytes() == first

    def test_bench_partial(self, tmp_path, capsys):
        path = self._manifest(tmp_path, [
            {"name": "toy", "format": "synthetic", "noise_mode": "gaussian",
             "seed": 0},
            {"name": "missing", "format": "csv", "path": "gone.csv",
             "label_column": "y"},
        ])
        code = main(["bench", "--manifest", str(path),
                     "--output-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAILED" in out

    @pytest.mark.parametrize("scale, x, y", [
        pytest.param(True, 1.0, 1e307, id="labels-overflow-xty"),
        pytest.param(False, 1e160, 1.0, id="features-overflow-xtx"),
    ])
    def test_bench_least_squares_gram_overflow(self, tmp_path, capsys, scale, x, y):
        # the ols cell fails with the solver's error, as the relf cell does,
        # and no numpy warning gets out
        (tmp_path / "a.csv").write_text("x,y\n" + "".join(
            f"{x * (i % 7 - 3)!r},{y * (i % 5 - 2.5)!r}\n" for i in range(40)))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"datasets": [_CSV_ENTRY], "methods": ["ols", "ridge:1e-2"],
                                    "contamination_levels": [0.0], "scale_features": scale}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bench", "--manifest", str(path), "--output-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 3 and err == ""
        failed = [line for line in out.splitlines() if "FAILED" in line]
        assert len(failed) == 2
        assert all(line.endswith("(NonFiniteObjectiveError: least-squares normal equations "
                                 "overflow the float range)") for line in failed)

    @pytest.mark.parametrize("manifest, message", [
        ({"cv": 5}, "manifest 'cv' must be an object"),
        ({"cv": {"folds": "5"}}, "manifest cv 'folds' must be an integer"),
        ({"contamination_levels": ["x"]}, "contamination level 'x' is not a number"),
        ({"datasets": [5]}, "every dataset entry needs a 'name' string"),
        ({"methods": [5]}, "manifest methods must be strings"),
        ({"outlier_magnitude": "big"}, "'outlier_magnitude' must be a number"),
        ({"solver": {"max_iter": 1}}, "manifest solver has unknown key 'max_iter'"),
        ({"solver": {"alpha": "x"}}, "manifest solver 'alpha' must be a finite number"),
        ({"solver": {"max_iters": 2.5}}, "manifest solver 'max_iters' must be an integer"),
        ({"solver": {"init_std": True}}, "manifest solver 'init_std' must be a finite number"),
        # cells are looked up by (dataset, method, level): a repeat would
        # divide one dataset's MAE by another's clean baseline
        ({"datasets": [{"name": "a", "format": "synthetic"}] * 2, "methods": ["ols"],
          "contamination_levels": [0.0, 0.3, 0.3]}, "manifest lists dataset 'a' twice"),
        ({"contamination_levels": [0.0, 0.3, 0.3]}, "manifest lists contamination level 0.3 twice"),
        ({"contamination_levels": [0, 0.3, 0.0]}, "manifest lists contamination level 0.0 twice"),
        ({"methods": ["ols", " OLS"]}, "manifest lists method 'ols' twice"),
        # JSON types as the model file reads them: a boolean is no number and
        # a string no boolean
        ({"outlier_magnitude": True}, "manifest 'outlier_magnitude' must be a number"),
        ({"outlier_seed": True}, "manifest 'outlier_seed' must be an integer"),
        ({"cv": {"folds": True}}, "manifest cv 'folds' must be an integer"),
        ({"intercept": "no"}, "manifest 'intercept' must be a boolean"),
        ({"scale_features": "false"}, "manifest 'scale_features' must be a boolean"),
        ({"cv": {"shuffle": "no"}}, "manifest cv 'shuffle' must be a boolean"),
        ({"contamination_levels": [True]}, "contamination level True is not a number in [0, 1]"),
        # every level is read as declared: an unknown key, a wrong type, or
        # a missing key that the entry's format needs stops the run
        ({"scale_feature": False}, "error: manifest has unknown key 'scale_feature'\n"),
        ({"cv": {"fold": 3}}, "error: manifest cv has unknown key 'fold'\n"),
        ({"datasets": [{**_CSV_ENTRY, "has_header": "no"}]},
         "error: manifest dataset 'a' 'has_header' must be a boolean\n"),
        ({"datasets": [{**_CSV_ENTRY, "path": 5}]},
         "error: manifest dataset 'a' 'path' must be a string\n"),
        ({"datasets": [{"name": "a", "format": "csv", "path": "a.csv"}]},
         "error: manifest dataset 'a' lacks 'label_column'\n"),
        ({"datasets": [{"name": "b", "format": "libsvm"}]},
         "error: manifest dataset 'b' lacks 'path'\n"),
        ({"datasets": [{**_LINE_ENTRY, "seed": True}]},
         "error: manifest dataset 'line' 'seed' must be an integer\n"),
        ({"datasets": [{**_LINE_ENTRY, "gaussian_std": "1"}]},
         "error: manifest dataset 'line' 'gaussian_std' must be a number\n"),
        ({"datasets": [{**_LINE_ENTRY, "outlier_fraction": True}]},
         "error: manifest dataset 'line' 'outlier_fraction' must be a number\n"),
        ({"datasets": [{**_LINE_ENTRY, "gaussian_std": 10**400}]},
         "error: manifest dataset 'line' 'gaussian_std' must be a number\n"),
        ({"datasets": [{**_LINE_ENTRY, "noise": "outlier"}]},
         "error: manifest dataset 'line' has unknown key 'noise'\n"),
        ({"datasets": [{"name": "line"}]}, "error: manifest dataset 'line' lacks 'format'\n"),
        ({"datasets": [{"name": "x", "format": "xls"}]},
         "error: unknown dataset format 'xls' for 'x'\n"),
        # a value the type admits but NoiseConfig does not
        ({"outlier_magnitude": 1e400, "datasets": [_LINE_ENTRY], "methods": ["ols"]},
         "error: outlier_magnitude must be > 0, got inf\n"),
        # a negative seed, wherever a manifest sets one
        ({"outlier_seed": -1, "datasets": [_LINE_ENTRY], "methods": ["relf"]},
         "error: manifest 'outlier_seed' must be >= 0, got -1\n"),
        ({"cv": {"seed": -1}, "datasets": [_LINE_ENTRY], "methods": ["relf"]},
         "error: manifest cv seed must be >= 0, got -1\n"),
        ({"datasets": [{**_LINE_ENTRY, "seed": -1}], "methods": ["relf"]},
         "error: manifest dataset 'line' 'seed' must be >= 0, got -1\n"),
        ({"solver": {"init": "gaussian", "init_seed": -1}, "datasets": [_LINE_ENTRY],
          "methods": ["relf"]}, "error: init_seed must be >= 0, got -1\n"),
        ({"cv": {"folds": 1}}, "error: manifest cv folds must be >= 2, got 1\n"),
        # a key of another format than the entry's own
        ({"datasets": [{**_CSV_ENTRY, "noise_mode": "outlier", "outlier_fraction": 0.5}]},
         "error: manifest dataset 'a' of format 'csv' takes no key 'noise_mode'\n"),
        ({"datasets": [{**_CSV_ENTRY, "seed": 3}]},
         "error: manifest dataset 'a' of format 'csv' takes no key 'seed'\n"),
        ({"datasets": [{"name": "b", "format": "libsvm", "path": "b.svm", "has_header": False}]},
         "error: manifest dataset 'b' of format 'libsvm' takes no key 'has_header'\n"),
        ({"datasets": [{"name": "b", "format": "libsvm", "path": "b.svm", "gaussian_std": 2}]},
         "error: manifest dataset 'b' of format 'libsvm' takes no key 'gaussian_std'\n"),
        ({"datasets": [{**_LINE_ENTRY, "path": "a.csv"}]},
         "error: manifest dataset 'line' of format 'synthetic' takes no key 'path'\n"),
        ({"datasets": [{**_LINE_ENTRY, "label_column": "y"}]},
         "error: manifest dataset 'line' of format 'synthetic' takes no key 'label_column'\n"),
        # a method the grammar reads but LeastSquaresMethod refuses
        ({"datasets": [_LINE_ENTRY], "methods": ["ols", "ridge:-1"]},
         "error: ridge_alpha must be >= 0, got -1.0\n"),
        ({"datasets": [_LINE_ENTRY], "methods": ["ridge:inf"]},
         "error: ridge_alpha must be >= 0, got inf\n"),
    ])
    def test_bench_malformed_manifest(self, tmp_path, capsys, manifest, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = main(["bench", "--manifest", str(path),
                     "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err

    def test_bench_missing_manifest(self, tmp_path, capsys):
        code = main(["bench", "--manifest", str(tmp_path / "nope.json")])
        assert code == 1

    def test_bench_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code = main(["bench", "--manifest", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "JSON" in err


# a small manifest of every dataset format, each level's keys all set
_FUZZ_MANIFEST = {
    "cv": {"folds": 2, "seed": 1, "shuffle": True},
    "solver": {"max_iters": 4, "alpha": 1e-8},
    "contamination_levels": [0.0, 0.3],
    "outlier_magnitude": 5.0, "outlier_seed": 2,
    "scale_features": True, "intercept": True,
    "datasets": [
        {"name": "line", "format": "synthetic", "noise_mode": "outlier", "gaussian_std": 1.0,
         "outlier_fraction": 0.2, "outlier_magnitude": 3.0, "seed": 0},
        {"name": "a", "format": "csv", "path": "a.csv", "label_column": "y", "has_header": True},
        {"name": "b", "format": "libsvm", "path": "b.svm"},
    ],
    "methods": ["ols", "relf:welsch,l1l2"],
}
_FUZZ_VALUES = (None, True, False, 1e308, -1e308, 10**400, "x", [0], {"k": 0})


def _fuzz_slots(value, path=()):
    """``(path, is_object)`` of every value in the JSON ``value`` below the root."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield path + (key,), isinstance(child, dict)
        if isinstance(child, (dict, list)):
            yield from _fuzz_slots(child, path + (key,))


def _manifest_mutations(seed=0, pairs=150):
    """Every single mutation of :data:`_FUZZ_MANIFEST`, each value replaced
    by each of :data:`_FUZZ_VALUES` or deleted, and an unknown key added to
    every object; then ``pairs`` of them applied two at a time, drawn with
    ``seed``."""
    slots = list(_fuzz_slots(_FUZZ_MANIFEST))
    edits = [(path, value) for path, _ in slots for value in (*_FUZZ_VALUES, "<delete>")]
    edits += [(path + ("zz",), 1) for path in [()] + [p for p, is_obj in slots if is_obj]]
    rng = random.Random(seed)
    return [[edit] for edit in edits] + [rng.sample(edits, 2) for _ in range(pairs)]


def _mutate(manifest, edits):
    manifest = copy.deepcopy(manifest)
    for path, value in edits:
        parent = manifest
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value == "<delete>":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # the first edit took this path away
    return manifest


def test_manifest_fuzz(tmp_path, capsys):
    # no mutated manifest ends in a traceback, a warning or a failed cell
    # that names a Python error rather than the manifest's: exit 1 and one
    # error line for a schema error, else a report
    (tmp_path / "a.csv").write_text("x,z,y\n" + "".join(
        f"{i},{i % 3},{2 * i + (i % 4)}\n" for i in range(12)))
    (tmp_path / "b.svm").write_text("".join(f"{i} 1:{i % 5} 2:{i * 0.5}\n" for i in range(10)))
    path = tmp_path / "manifest.json"
    outcomes = set()
    for edits in _manifest_mutations():
        path.write_text(json.dumps(_mutate(_FUZZ_MANIFEST, edits)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bench", "--manifest", str(path), "--output-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code in (0, 1, 3), (edits, code, err)
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, (edits, err)
        else:
            assert err == "", (edits, err)
        failed = [line for line in out.splitlines() if "FAILED" in line]
        for name in ("TypeError", "KeyError", "AttributeError", "Warning"):
            assert not any(name in line for line in failed), (edits, failed)
        outcomes.add(code)
    assert outcomes == {0, 1, 3}


def test_model_fuzz(tmp_path, capsys):
    # no mutated model file ends in a traceback or a warning: exit 1 and one
    # error line for a file that save_model could not have written, else
    # predictions
    data = _write_toy_csv(tmp_path / "toy.csv")
    path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--label-column", "y", "--scale",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    model = json.loads(path.read_text())
    slots = list(_fuzz_slots(model))
    edits = [(p, value) for p, _ in slots for value in (*_FUZZ_VALUES, [], "<delete>")]
    edits += [(p + ("zz",), 1) for p in [()] + [p for p, is_obj in slots if is_obj]]
    outcomes = set()
    for payload in [None, [model], "x", *(_mutate(model, [edit]) for edit in edits)]:
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["predict", "--model", str(path), "--data", str(data),
                         "--label-column", "y"])
        err = capsys.readouterr().err
        assert code in (0, 1), (payload, code, err)
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, (payload, err)
        else:
            assert err == "", (payload, err)
        outcomes.add(code)
    assert outcomes == {0, 1}


# the values each flag of fit, predict and toy takes in turn: edge
# magnitudes, non-numbers and the empty string
_FLAG_VALUES = ("-1", "0", "1e308", str(10**30), "nan", "inf", "-inf", "x", "")


def _flag_mutations(base):
    """``base`` with one ``--flag VALUE`` pair's value replaced, for every
    such pair and every value of :data:`_FLAG_VALUES`."""
    for i, arg in enumerate(base):
        if arg.startswith("--") and i + 1 < len(base) and not base[i + 1].startswith("--"):
            for value in _FLAG_VALUES:
                # "--flag=VALUE", so that argparse reads "-1" as a value
                yield base[:i] + [f"{arg}={value}"] + base[i + 2:]


def test_flag_fuzz(tmp_path, capsys, monkeypatch):
    # no flag value ends in a traceback or a warning, only in an exit status;
    # one flag changes at a time, so a huge --max-iters keeps the default
    # rel_tol and stops once its fit converges
    monkeypatch.chdir(tmp_path)  # "--output=x" writes the file x
    data = str(_write_toy_csv(tmp_path / "toy.csv", NoiseConfig(mode="outlier", seed=1)))
    assert main(["fit", "--data", data, "--label-column", "y", "--output", "model.json"]) == 0
    solver = ["--alpha", "1e-8", "--max-iters", "30", "--rel-tol", "1e-8",
              "--init-seed", "0", "--init-std", "1.0"]
    bases = [
        ["fit", "--data", data, "--label-column", "y", "--scale", "--init", "gaussian",
         "--output", "out.json", *solver],
        ["predict", "--model", "model.json", "--data", data, "--label-column", "1"],
        ["toy", "--seed", "0", "--gaussian-std", "1.0", *solver],
        ["toy", "--noise", "outlier", "--seed", "0", "--outlier-fraction", "0.1",
         "--outlier-magnitude", "5.0", "--ensemble", "welsch,huber:0.5", *solver],
    ]
    outcomes = set()
    for base in bases:
        for argv in [base, *_flag_mutations(base)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            err = capsys.readouterr().err
            assert code in ((0,) if argv is base else (0, 1, 2, 3)), (argv, code, err)
            assert "Traceback" not in err and "Warning" not in err, (argv, err)
            outcomes.add(code)
    assert outcomes == {0, 1}


class TestUndecodableInput:
    """A byte that is not UTF-8 text ends in one ``error:`` line, exit 1."""

    @pytest.mark.parametrize("argv, content", [
        pytest.param(["fit", "--label-column", "y", "--data"], b"x,y\n1,2\n3,\xff\n", id="csv"),
        pytest.param(["fit", "--label-column", "y", "--data"], b"x,\xff\n1,2\n", id="csv-header"),
        pytest.param(["fit", "--format", "libsvm", "--data"], b"1 1:2\n2 1:\xff\n", id="libsvm"),
        pytest.param(["predict", "--data", "unread.csv", "--model"], b'{"schema": "\xff"}\n',
                     id="model"),
        pytest.param(["bench", "--manifest"], b'{"datasets": ["\xff"]}\n', id="manifest"),
    ])
    def test_byte_0xff(self, tmp_path, capsys, argv, content):
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        code = main(argv + [str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot read") and "0xff" in err
        assert err.count("\n") == 1


class TestTopLevel:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "exit codes" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert main(["toy", "--help"]) == 0

    def test_no_command(self, capsys):
        assert main([]) == 1
