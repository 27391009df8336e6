import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _packages_loaded_by(statement: str) -> set[str]:
    """Top-level names of the modules a fresh interpreter loads for ``statement``."""
    code = ("import sys; before = set(sys.modules); " + statement + "; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_loads_no_third_party_package_beyond_numpy_and_scipy():
    # whatever numpy and scipy.linalg load themselves (compiled-module
    # runtimes, optional helpers) is theirs; relf may add only the standard
    # library to it
    theirs = _packages_loaded_by("import numpy, scipy.linalg.lapack")
    extra = (_packages_loaded_by("import relf") - theirs - set(sys.stdlib_module_names)
             - {"relf", "numpy", "scipy"})
    assert extra == set()
