"""The repository's pytest settings report a failing property usefully.

``filterwarnings = ["error"]`` must not turn hypothesis's own failure
report into an ``INTERNALERROR``: a failing ``@given`` test has to print
its falsifying example.  The check runs pytest in a subprocess under
the repository's ini file on a throwaway failing property.
"""

import os
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5
'''


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTEST_", "HYPOTHESIS_"))}
    result = subprocess.run(
        [sys.executable, "-m", "pytest",
         "-c", os.path.join(REPO, "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "x=5" in output
