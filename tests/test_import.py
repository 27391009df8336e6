import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports relf from ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def _packages_loaded_by(statement: str) -> set[str]:
    """Top-level names of the modules a fresh interpreter loads for ``statement``."""
    done = _run("import sys; before = set(sys.modules); " + statement + "; "
                "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_loads_no_third_party_package_beyond_numpy():
    # whatever numpy loads itself (compiled-module runtimes, optional
    # helpers) is its own; relf may add only the standard library to it
    theirs = _packages_loaded_by("import numpy")
    extra = (_packages_loaded_by("import relf") - theirs - set(sys.stdlib_module_names)
             - {"relf", "numpy"})
    assert extra == set()


def test_import_loads_no_scipy():
    done = _run("import sys, relf; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_toy_runs_with_scipy_blocked():
    toy = "from relf.cli import main; sys.exit(main(['toy']))"
    plain = _run("import sys; " + toy)
    # None in sys.modules makes every `import scipy...` raise ImportError
    blocked = _run("import sys; sys.modules['scipy'] = None; " + toy)
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == plain.stdout and blocked.stdout.startswith("config:")
