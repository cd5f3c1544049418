"""The suite's warning filters let every failure be reported.

``filterwarnings = ["error"]`` turns a warning raised inside a plugin hook
into an INTERNALERROR that ends the run.  When a hypothesis property test
fails, hypothesis's report hook touches ``mypy_extensions.TypedDict``, whose
DeprecationWarning would then hide every failure after it; the one filter
that ignores that message must keep the run going."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 0


def test_plain():
    assert False
"""


def test_a_failing_property_test_does_not_end_the_run(pytester):
    pytester.path.joinpath("pyproject.toml").write_text(
        ROOT.joinpath("pyproject.toml").read_text(encoding="utf-8"), encoding="utf-8"
    )
    probe = pytester.makepyfile(test_probe=PROBE)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", str(probe))
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=2)
