"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Runs each workload once at a small size, confirms its check accepts the
answer, then corrupts the answer in several ways and confirms the check
rejects every one.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import OUT, _import_program

_, workloads = _import_program()


def corrupt_fit_tall(answer, how):
    answer = {k: v.copy() for k, v in answer.items()}
    if how == "w far from w_true":
        answer["w"][0] += 0.1
    elif how == "w off by 1e-3, inside w_tol":
        answer["w"][0] += 1e-3
    elif how == "final risk misreported":
        answer["risks"][-1] *= 1.0 - 1e-8
    elif how == "lambda off the simplex":
        answer["lam"] *= 1.01
    elif how == "risk trace increases":
        answer["risks"][-1] = answer["risks"][-2] * (1.0 + 1e-8)
    return answer


def corrupt_csv(answer, how):
    if how == "shuffled predictions":
        with open(answer["preds"]) as fh:
            header, *rows = fh.read().splitlines()
        rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        with open(answer["preds"], "w") as fh:
            fh.write("\n".join([header] + rows) + "\n")
    elif how == "perturbed w in the model JSON":
        with open(answer["model"]) as fh:
            payload = json.load(fh)
        payload["w"][0] += 1e-3
        with open(answer["model"], "w") as fh:
            json.dump(payload, fh)
    elif how == "wrong printed mae":
        answer = dict(answer, stdout=answer["stdout"].replace("mae: ", "mae: 1", 1))
    return answer


def corrupt_cv(answer, how):
    report_path = answer["report_dir"] / "report.json"
    report = json.loads(report_path.read_text())
    if how == "altered clean ols cell":
        for cell in report["cells"]:
            if cell["method"] == "ols" and cell["contamination"] == 0.0:
                cell["mae"] *= 1.0 + 1e-6
                break
    elif how == "relf increase ratio above ols":
        for row in report["increase_ratios"]:
            if row["method"] == "ols":
                row["increase_ratio"] = 0.5
    elif how == "report.csv changed between ops":
        csv_path = answer["report_dir"] / "report.csv"
        csv_path.write_bytes(csv_path.read_bytes().replace(b",ok,", b",ok ,", 1))
    elif how == "a failed cell":
        report["cells"][0]["error"] = "FactorizationError: injected"
        report["ok"] = False
    report_path.write_text(json.dumps(report))
    return answer


CASES = (
    (workloads.FitTall, {"n": 20_000, "n_holdout": 2_000}, corrupt_fit_tall,
     ("w far from w_true", "w off by 1e-3, inside w_tol", "final risk misreported",
      "lambda off the simplex", "risk trace increases")),
    (workloads.CsvFitPredict, {"n": 2_000, "d": 6}, corrupt_csv,
     ("shuffled predictions", "perturbed w in the model JSON", "wrong printed mae")),
    (workloads.CvGrid, {"shapes": workloads.CV_SHAPES[:3]}, corrupt_cv,
     ("altered clean ols cell", "relf increase ratio above ols",
      "report.csv changed between ops", "a failed cell")),
)


def main() -> int:
    failures = 0
    for cls, size, corrupt, corruptions in CASES:
        workload = cls(seed=0, **size)
        out_dir = OUT / "selftest" / workload.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        inputs = workload.generate(out_dir)
        ref = workload.reference(inputs)
        ratio = workload.check(ref, workload.op(inputs))
        print(f"{workload.name}: correct answer accepted (mae ratio {ratio:.4f})")
        for how in corruptions:
            answer = corrupt(workload.op(inputs), how)
            try:
                workload.check(ref, answer)
            except workloads.CheckError as exc:
                print(f"{workload.name}: {how}: rejected ({exc})")
            else:
                print(f"{workload.name}: {how}: NOT rejected")
                failures += 1
    print("selftest: " + ("ok" if failures == 0 else f"{failures} check(s) missed"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
