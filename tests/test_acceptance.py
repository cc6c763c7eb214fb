"""Acceptance suite: every exit criterion at its stated range, all exact.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion; ``qmono selftest`` prints the same lines.
"""

import pytest

from qmono import acceptance

# Instances each criterion checks, by criterion number.
INSTANCES = {1: 66, 2: 44, 3: 97, 4: 21, 5: 264, 6: 40, 7: 230, 8: 12, 9: 247, 10: 61}
# Instances each weight-capped sweep checks at its cap, by family.
SWEEP_INSTANCES = {"prop5": 995, "prop6": 16456}


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda fn: fn.__name__
)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, (
        f"criterion {result.number} ({result.name}) failed on "
        f"{len(result.failures)} of {result.instances} instances: "
        f"{result.failures[:10]}"
    )
    assert result.instances == INSTANCES[result.number]


@pytest.mark.parametrize("name", SWEEP_INSTANCES)
def test_a_capped_sweep_lists_its_pinned_instances(name):
    family = acceptance.VERIFY_FAMILIES[name]
    assert len(family.instances(family.cap)) == SWEEP_INSTANCES[name]
