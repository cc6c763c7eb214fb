import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qmono import identities  # noqa: E402


@pytest.fixture
def cold_memos():
    """Empty the kept three-way sides and appendix verdicts before and after
    the test, as in a fresh process, so no test sees another's values.  The
    memo is held from before the test, so a test that rebinds
    ``identities._symmetrized`` still leaves it empty."""
    cached = identities._symmetrized
    cached.cache_clear()
    identities._verdicts.clear()
    yield
    cached.cache_clear()
    identities._verdicts.clear()
