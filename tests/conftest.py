import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qmono import identities, specialize  # noqa: E402

# The per-process memos a mutant's value could stay in: the kept three-way
# sides, the closed forms and their values at (a, b).  Held from import, so
# a test that rebinds one of them still leaves the memo itself empty.
MEMOS = (identities._symmetrized, specialize._closed_form, specialize._value_at)


@pytest.fixture
def cold_memos():
    """Empty the kept sides, closed forms, values at (a, b) and appendix
    verdicts before and after the test, as in a fresh process, so no test
    sees another's values."""
    for memo in MEMOS:
        memo.cache_clear()
    identities._verdicts.clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()
    identities._verdicts.clear()
