"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_what_it_documents():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    exponent, frozen, free, last = printed.getvalue().splitlines()
    assert -1e-15 < float(exponent) <= 0.0
    assert float(frozen) == pytest.approx(1.0, abs=1e-6)
    assert float(free) == pytest.approx(0.68923, abs=1e-5)
    eigenvalue, residual = last.split()
    assert complex(eigenvalue) == pytest.approx(-1j * 2.0**0.25, abs=1e-12)
    assert float(residual) == 0.0
