"""The repository's pytest settings, run on a tiny suite of their own."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # reporting a failing example imports modules that warn on import;
    # under filterwarnings = error that once aborted the whole session
    (tmp_path / "test_tiny.py").write_text(textwrap.dedent(
        """
        from hypothesis import given, settings, strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_after():
            pass
        """
    ))
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_tiny.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
    assert result.returncode == 1
