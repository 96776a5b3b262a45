import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st


    @settings(database=None, derandomize=True)
    @given(st.integers())
    def test_falsified(n):
        assert n < 10


    def test_after():
        pass
    """
)


def test_a_falsified_hypothesis_test_reports_its_example(tmp_path):
    # on a falsification the hypothesis plugin imports libcst, which warns
    # from mypy_extensions; under the suite's filterwarnings = error that
    # warning must not turn the report into INTERNALERROR: pytest exits 1,
    # prints the example and runs the test after it
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-c",
            str(PYPROJECT),
            "test_planted.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_falsified(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
