import csv
import io
import json

import numpy as np
import pytest

from relf import NoiseConfig, load_csv, load_model, predict, synth_line
from relf.cli import main
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

    def test_header_wider_than_rows(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("x,y,z\n1,2\n3,4\n")
        code = main(["fit", "--data", str(data), "--label-column", "y"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: header line has 3 cells, data rows have 2\n"

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
        model, _ = load_model(model_path)
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
        (lambda m: m.update(w="0.5"), "'w' must be a list"),
        (lambda m: m.update(w=[1.0, None]), "'w' must be a list of finite numbers"),
        (lambda m: m.update(loss_weights=[1.0]), "1 loss weights for 3 losses"),
        (lambda m: m["ensemble"].append({"kind": "l2"}), "loss lacks 'scale'"),
        (lambda m: m["ensemble"][0].update(kind="l2"), "unknown loss kind"),
        (lambda m: m.update(w=m["w"] + [0.0]), "3 weights, but its preprocessing yields 2"),
        (lambda m: m["trace"].pop("risks"), "trace lacks 'risks'"),
        (lambda m: m["preprocessing"]["scaler"].pop("feature_max"), "scaler lacks 'feature_max'"),
        (lambda m: m.update(preprocessing=["x"]), "'preprocessing' must be an object"),
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

    @pytest.mark.parametrize("manifest, message", [
        ({"cv": 5}, "manifest 'cv' must be an object"),
        ({"cv": {"folds": "5"}}, "manifest cv 'folds' must be an integer"),
        ({"contamination_levels": ["x"]}, "contamination level 'x' is not a number"),
        ({"datasets": [5]}, "every dataset entry needs a 'name' string"),
        ({"methods": [5]}, "manifest methods must be strings"),
        ({"outlier_magnitude": "big"}, "'outlier_magnitude' must be a number"),
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
