"""``tools/compare_outputs.py``: its cell comparison, and a run with this
checkout on both sides, malformed inputs included."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompare:
    def test_identical(self, tool):
        assert tool.compare("report.csv", "a,1.0\n", "a,1.0\n") is None

    def test_numeric_cells_counted_with_the_largest_relative_difference(self, tool):
        verdict = tool.compare("report.csv", "a,1.0,2.0,3.0\nb,4.0\n",
                               "a,1.0,2.0000000002,3.0\nb,4.000000000004\n")
        assert verdict == "2 of 4 numeric cells differ, max rel diff 1e-10"

    def test_text_cells_and_layout(self, tool):
        assert tool.compare("x.stdout", "ok 1.0\n", "failed 1.0\n") == "1 other cells differ"
        assert tool.compare("x.stdout", "1.0 2.0\n", "1.0\n") == "layout differs (2 vs 1 cells)"

    def test_signed_zero_and_nan(self, tool):
        assert tool.compare("x.stdout", "0.0 nan\n", "-0.0 nan\n") == (
            "1 of 2 numeric cells differ, max rel diff 0")
        assert tool.compare("x.stdout", "1.0\n", "inf\n") == (
            "1 of 1 numeric cells differ, max rel diff inf")

    def test_float_hex_cells(self, tool):
        assert tool.compare("fit-tall.bits", "w 0x1.0p+0\n", "w 0x1.0000000000001p+0\n") == (
            "1 of 1 numeric cells differ, max rel diff 2.22e-16")

    def test_report_json_seconds_do_not_count(self, tool):
        old = {"cells": [{"mae": 1.0, "seconds": 0.5}], "ok": True}
        new = {"cells": [{"mae": 1.0, "seconds": 0.7}], "ok": True}
        assert tool.compare("bench/report.json", json.dumps(old), json.dumps(new)) is None
        new["cells"][0]["mae"] = 1.5
        assert tool.compare("bench/report.json", json.dumps(old), json.dumps(new)) == (
            "1 of 1 numeric cells differ, max rel diff 0.333")
        # elsewhere a seconds field is an output like any other
        assert tool.compare("model.json", json.dumps(old), json.dumps(new)) is not None


def test_this_checkout_against_itself(tmp_path, tool):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tall-rows", "3000",
         "--csv-rows", "300", "--keep", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    verdicts = dict(line.split(maxsplit=1) for line in lines[:-1])
    assert set(verdicts.values()) == {"identical"}
    assert {"toy.stdout", "fit.stdout", "predict.stdout", "bench.stdout", "model.json",
            "predictions.csv", "fit-mid.stdout", "predict-mid.stdout", "model-mid.json",
            "predictions-mid.csv", "bench/report.csv", "bench/report.json",
            "fit-tall.bits"} <= verdicts.keys()
    # a label-free predict, and an unscaled intercept model's fit and predict
    assert {"predict-unlabelled.stdout", "predictions-unlabelled.csv", "fit-unscaled.stdout",
            "model-unscaled.json", "predict-unscaled.stdout",
            "predictions-unscaled.csv"} <= verdicts.keys()
    # a libsvm fit and predict on a file of every token form
    assert {"fit-libsvm.stdout", "model-libsvm.json", "predict-libsvm.stdout",
            "predictions-libsvm.csv"} <= verdicts.keys()
    # the help of the two commands that read data files
    assert {"fit-help.stdout", "predict-help.stdout"} <= verdicts.keys()
    # the grid again with each preprocessing flag off
    assert {f"bench-{name}{output}" for name in ("unscaled", "no-intercept")
            for output in (".stdout", "/report.csv", "/report.json")} <= verdicts.keys()
    assert sum(name.startswith("demos/") for name in verdicts) == len(
        list((ROOT / "demos").glob("*.py")))
    assert lines[-1] == f"{len(verdicts)} of {len(verdicts)} outputs identical"
    # the runs did what they were asked: every command succeeded on either
    # side but the malformed inputs', which end with their own exit status:
    # 1 and one "error:" line, or 3 and a failed benchmark cell
    expected = {f"errors/{name}": code for name, code, _ in tool.ERROR_CASES}
    assert expected.keys() <= verdicts.keys()
    assert {"errors/csv-narrower-than-model", "errors/fit-unlabelled-csv",
            "errors/libsvm-bad-token", "errors/libsvm-index-1e15", "errors/libsvm-index-1e20",
            "errors/csv-entry-negative-seed", "errors/manifest-nested-json",
            "errors/model-nested-json"} <= expected.keys()
    for side in ("old", "new"):
        captured = tmp_path / "run" / side / "captured"
        for path in captured.rglob("*"):
            if path.is_file():
                code = expected.get(path.relative_to(captured).as_posix(), 0)
                stdout, marker, stderr = path.read_text().partition(f"[exit {code}]\n")
                assert marker, path
                if code == 1:
                    assert stderr.startswith("error: ") and stderr.count("\n") == 1, path
                if code == 3:
                    assert "FAILED (" in stdout and not stderr, path


def test_manifest_error_cases_exit_1(tool):
    # a manifest schema error stops the run: exit 1, not a failed cell
    codes = {name: code for name, code, _ in tool.ERROR_CASES}
    for name in ("unknown-cv-key", "mistyped-entry", "csv-without-label-column",
                 "negative-ridge"):
        assert codes[name] == 1, name
