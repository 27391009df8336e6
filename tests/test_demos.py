"""The demos that write files clean up after themselves."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_file_writing_demos_leave_no_temp_files(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for demo in ("05_file_formats.py", "06_benchmark.py"):
        proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert str(tmp_path) in proc.stdout  # its files were under TMPDIR
    assert list(tmp_path.iterdir()) == []
