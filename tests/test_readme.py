"""The README's Python examples run as written.

Every ```python block of README.md is executed in order, in one namespace
(a later block uses the names an earlier one defines), inside a temporary
directory and with warnings as errors, so an API change cannot leave an
example stale.
"""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text):
    """``(first_line, source)`` of each ```python block of ``text``; the
    line is 1-based, of the block's first source line."""
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)]


def test_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks(README.read_text())
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__readme__"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for line, source in blocks:
            # padded so a traceback names the block's own README lines
            exec(compile("\n" * (line - 1) + source, str(README), "exec"), namespace)
