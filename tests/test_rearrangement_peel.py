"""The rearrangement peel against the literal sums over distinct
rearrangements, for every partition of weight at most 8."""

import itertools
from fractions import Fraction

import pytest

from qmono.acceptance import VERIFY_FAMILIES, rearrangement_sum
from qmono.algebra import FactoredFraction, Polynomial, frac_eq, geometric_sum
from qmono.errors import ResourceLimitError
from qmono.identities import constant_identity
from qmono.partitions import (
    Partition,
    check_peel_cost,
    derangements,
    partitions_of,
    peel,
    rearrangement_steps,
    subset_sum_counts,
)
from qmono.positivity import UNIVERSE_QT, _homogeneous_quotient, positivity_polynomial
from qmono.specialize import monomial_spec

WEIGHTS = range(9)
# A state cap that no partition of these weights reaches.
STATES = 2 ** 8


def literal_positivity_polynomial(mu: Partition) -> Polynomial:
    """H(q, t): over each rearrangement, the product of the homogeneous
    quotients times the subset factors of P left over after one per prefix
    sum."""
    pool = subset_sum_counts(mu)
    total = Polynomial.zero(UNIVERSE_QT)
    for d in derangements(mu):
        remaining = dict(pool)
        for s in itertools.accumulate(d):
            remaining[s] -= 1
        term = Polynomial.one(UNIVERSE_QT)
        for i, c in enumerate(d, start=1):
            term = term * _homogeneous_quotient(mu.length - i, c)
        for s, m in remaining.items():
            term = term * geometric_sum(UNIVERSE_QT, "q", s) ** m
        total = total + term
    return total


def literal_prop5(mu: Partition) -> FactoredFraction:
    uni = ("q",)
    one = Polynomial.one(uni)
    terms = []
    for d in derangements(mu):
        num = one
        den = []
        for i, (c, s) in enumerate(zip(d, itertools.accumulate(d)), start=1):
            num = num * (one - Polynomial.variable(uni, "q", (mu.length - i + 1) * c))
            den.append(one - Polynomial.variable(uni, "q", s))
        terms.append(FactoredFraction(num, den))
    return FactoredFraction.sum(terms, universe=uni)


def literal_littlewood(mu: Partition) -> Fraction:
    total = Fraction(0)
    for d in derangements(mu):
        term = Fraction(1)
        for s in itertools.accumulate(d):
            term /= s
        total += term
    return total


@pytest.mark.parametrize("w", WEIGHTS)
def test_closed_forms_equal_the_rearrangement_sums(w):
    # Structurally and in text: the same numerator over the same
    # denominator, so every printed value is unchanged.
    for mu in partitions_of(w):
        for form in ("theorem1", "theorem3"):
            got = monomial_spec(mu, form).value
            expected = rearrangement_sum(mu, form)
            assert got == expected, (mu, form)
            assert got.text() == expected.text(), (mu, form)


@pytest.mark.parametrize("w", WEIGHTS)
def test_positivity_polynomial_equals_the_rearrangement_sum(w):
    for mu in partitions_of(w):
        assert positivity_polynomial(mu) == literal_positivity_polynomial(mu), mu


@pytest.mark.parametrize("w", WEIGHTS)
def test_constants_equal_the_rearrangement_sums(w):
    # prop5 is decided at the codec's point, as a Fraction that is the
    # count exactly when the identity holds; the literal sum's verdict is
    # reached by frac_eq on the fraction in q.
    for mu in partitions_of(w):
        count = mu.rearrangement_count()
        literal = frac_eq(literal_prop5(mu), FactoredFraction.constant(("q",), count))
        assert (constant_identity(mu, "prop5", {}) == count) == literal, mu
        assert literal, mu
        littlewood = constant_identity(mu, "littlewood", {})
        assert littlewood == literal_littlewood(mu), mu


@pytest.mark.parametrize("w", WEIGHTS)
def test_peel_counts_rearrangements_and_prefix_sums(w):
    # With every factor 1 the peel counts the distinct rearrangements.  D
    # holds each prefix sum that occurs in them once: its keys are the
    # distinct subset part sums, and its degree is the one the cost check
    # counts before any work, so the check admits mu at that degree and
    # refuses it one below.
    for mu in partitions_of(w):
        num, sums = peel(mu, rearrangement_steps, lambda i, total, c: 1, lambda s: 1, {})
        assert num == mu.rearrangement_count(), mu
        assert set(sums.values()) <= {1}, mu
        prefix_sums = {s for d in derangements(mu) for s in itertools.accumulate(d)}
        assert sums.keys() == subset_sum_counts(mu).keys() == prefix_sums, mu
        degree = sum(s * m for s, m in sums.items())
        check_peel_cost(mu, STATES, degree, "test")
        with pytest.raises(ResourceLimitError, match=f"degree {degree} "):
            check_peel_cost(mu, STATES, degree - 1, "test")


@pytest.mark.parametrize("order", ["listed", "reversed"])
@pytest.mark.parametrize(
    "identity, kind, weight", [("prop5", "prop5", 12), ("prop6", "littlewood", 16)]
)
def test_a_shared_peel_memo_gives_the_fresh_values(identity, kind, weight, order):
    # Instances with one share key peel into one memo; each value must be
    # the one a fresh memo gives, whichever instance built a state first.
    family = VERIFY_FAMILIES[identity]
    tasks = family.instances(weight)
    memos = {}
    for mu in tasks if order == "listed" else tasks[::-1]:
        shared = constant_identity(mu, kind, memos.setdefault(family.share(mu), {}))
        assert shared == constant_identity(mu, kind, {}), mu
