import itertools

import pytest

from qmono import positivity
from qmono.algebra import FactoredFraction, Polynomial, frac_eq, geometric_sum, product
from qmono.errors import NotApplicableError, ResourceLimitError
from qmono.partitions import Partition, partitions_of, partitions_up_to, subset_sum_counts
from qmono.positivity import (
    inverted_polynomial,
    positivity_polynomial,
    positivity_report,
    two_row_closed_form,
)
from qmono.specialize import UNIVERSE_Q, UNIVERSE_QT, monomial_spec


def qt(terms):
    return Polynomial(UNIVERSE_QT, terms)


def auxiliary_product(mu):
    """P(q) as the report builds it, from the counts its cap check returns."""
    return positivity._subset_product(positivity._check_cap(mu), ())


def split(mu):
    """(N, L) as the report splits H, from the counts its cap check returns."""
    return positivity._numerator_and_leftover(mu, positivity._check_cap(mu))


def sequential_product(mu, leftover=False):
    """P by its definition: one factor [s]_q per nonempty position subset,
    s its part sum, the subsets listed literally and multiplied in left to
    right.  With ``leftover``, the first subset of each part sum is skipped,
    which gives L, the subset factors of P left over after one per part sum."""
    out = Polynomial.one(UNIVERSE_Q)
    skipped = set()
    for k in range(1, mu.length + 1):
        for combo in itertools.combinations(mu.parts, k):
            s = sum(combo)
            if leftover and s not in skipped:
                skipped.add(s)
                continue
            out = out * geometric_sum(UNIVERSE_Q, "q", s)
    return out


def reference_identity(mu, H, Hbar):
    """The factorization identity by cross-multiplication with H and Hbar
    themselves, the reference for the decision on N: False when Hbar is not a
    polynomial or is zero."""
    if Hbar is None or Hbar.is_zero:
        return False
    t = Polynomial.variable(UNIVERSE_QT, "t")
    lhs = monomial_spec(mu).value.substitute({"a": 1, "b": t}, universe=UNIVERSE_QT)
    num = Polynomial.constant(UNIVERSE_QT, mu.rearrangement_count())
    den = []
    for i in range(1, mu.length + 1):
        num = num * (Polynomial.variable(UNIVERSE_QT, "q", i - 1) - t)
        den.append(Polynomial.one(UNIVERSE_QT) - Polynomial.variable(UNIVERSE_QT, "q", i))
    den.append(Hbar.substitute({}, universe=UNIVERSE_QT))
    return frac_eq(lhs, FactoredFraction(num * H, den))


# The slowest inputs the positivity caps admit (README "Caps").
CAP_EDGE = [(18, 2, 2, 1, 1, 1, 1), (6, 5, 3, 2, 2, 2, 1), (6, 5, 4, 3, 2, 1)]


class TestAuxiliaryProduct:
    def test_two_one(self):
        # Subsets {1}, {2}, {1,2} have part sums 2, 1, 3.
        assert subset_sum_counts(Partition((2, 1))) == {1: 1, 2: 1, 3: 1}
        expected = geometric_sum(UNIVERSE_Q, "q", 2) * geometric_sum(
            UNIVERSE_Q, "q", 3
        )
        assert auxiliary_product(Partition((2, 1))) == expected

    def test_single_row(self):
        assert auxiliary_product(Partition((3,))) == geometric_sum(
            UNIVERSE_Q, "q", 3
        )

    def test_column_two(self):
        assert auxiliary_product(Partition((1, 1))) == geometric_sum(
            UNIVERSE_Q, "q", 2
        )

    @pytest.mark.parametrize("weight", range(1, 9))
    def test_powers_of_equal_part_sums_match_the_sequential_product(self, weight):
        for mu in partitions_of(weight):
            assert auxiliary_product(mu) == sequential_product(mu), mu

    @pytest.mark.parametrize("weight", range(1, 9))
    def test_balanced_leftover_matches_the_sequential_product(self, weight):
        for mu in partitions_of(weight):
            _, leftover = split(mu)
            assert leftover == sequential_product(mu, leftover=True), mu

    def test_balanced_product_matches_the_left_to_right_product(self):
        for length in range(9):
            brackets = [geometric_sum(UNIVERSE_Q, "q", i) for i in range(1, length + 1)]
            expected = Polynomial.one(UNIVERSE_Q)
            for factor in brackets:
                expected = expected * factor
            assert product(brackets, UNIVERSE_Q) == expected, length

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            positivity_report(Partition((1,) * 9))

    def test_rearrangement_cap(self, monkeypatch):
        # (6,5,4,3,2,1) is at the state cap (64) and under the degree caps
        # and admitted, and is peeled once; over any of the three caps is
        # refused before the peel starts.
        calls = []
        peel = positivity.peel_polynomial
        monkeypatch.setattr(
            positivity, "peel_polynomial", lambda mu, *a: calls.append(mu) or peel(mu, *a)
        )
        positivity_polynomial(Partition((6, 5, 4, 3, 2, 1)))
        assert calls == [Partition((6, 5, 4, 3, 2, 1))]
        for parts, message in (
            ((7, 6, 5, 4, 3, 2, 1), "128 sub-multisets"),
            ((13, 11, 7, 5, 3), "degree 546"),
            ((23, 1, 1, 1, 1, 1, 1, 1), "degree 3585 of P"),
            ((6,) * 8, "degree 5889 of P"),
        ):
            with pytest.raises(ResourceLimitError, match=message):
                positivity_polynomial(Partition(parts))
            with pytest.raises(ResourceLimitError, match=message):
                positivity_report(Partition(parts))
        assert len(calls) == 1


class TestPositivityPolynomial:
    def test_single_row_is_geometric_in_t(self):
        for n in (1, 2, 4):
            expected = qt({(0, j): 1 for j in range(n)})
            assert positivity_polynomial(Partition((n,))) == expected

    def test_column_two_collapses_to_one(self):
        assert positivity_polynomial(Partition((1, 1))) == Polynomial.one(
            UNIVERSE_QT
        )

    def test_two_one_value(self):
        expected = qt({(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1})
        assert positivity_polynomial(Partition((2, 1))) == expected

    def test_inverted_polynomial_shift(self):
        H = positivity_polynomial(Partition((2, 1)))
        Hbar = inverted_polynomial(H, 1)
        # q * (1 + 2q + 2/q + 1) = 2 + 2q + 2q^2.
        assert Hbar == Polynomial(UNIVERSE_Q, {(0,): 2, (1,): 2, (2,): 2})

    def test_inverted_polynomial_detects_negative_exponents(self):
        H = qt({(0, 2): 1})
        assert inverted_polynomial(H, 1) is None


class TestReports:
    @pytest.mark.parametrize("parts", [(2, 1), (4,), (2, 2), (3, 2, 1), (2, 1, 1)])
    def test_report_passes(self, parts):
        report = positivity_report(Partition(parts))
        assert report.all_coefficients_nonnegative_integers
        assert report.Hbar is not None
        assert report.identity_holds
        assert report.auxiliary_identity_holds
        assert report.passed()

    def test_the_caps_are_checked_once(self, monkeypatch):
        # P and L are built from the subset sum counts of the one cap check.
        calls = []
        check = positivity._check_cap
        monkeypatch.setattr(positivity, "_check_cap", lambda mu: calls.append(mu) or check(mu))
        assert positivity_report(Partition((3, 2, 1))).passed()
        assert calls == [Partition((3, 2, 1))]

    def test_single_part_reduces_to_generator_product(self):
        # For one row the factorization collapses onto the complete-generator
        # product, so the identity check doubles as that anchor.
        report = positivity_report(Partition((5,)))
        assert report.passed()

    @pytest.mark.parametrize("w", range(1, 7))
    def test_sweep_small(self, w):
        for mu in partitions_up_to(w):
            if mu.length > 4:
                continue
            report = positivity_report(mu)
            assert report.passed(), mu
            assert report.auxiliary_identity_holds, mu


class TestIdentityOnTheNumerator:
    """The factorization identity is decided on N, not on H = N * L."""

    @pytest.mark.parametrize(
        "parts",
        [tuple(mu.parts) for mu in partitions_up_to(8)] + CAP_EDGE,
        ids=lambda parts: ",".join(map(str, parts)),
    )
    def test_verdict_is_the_cross_multiplication_with_H(self, parts):
        mu = Partition(parts)
        report = positivity_report(mu)
        N, _ = split(mu)
        Nbar = inverted_polynomial(N, mu.weight - mu.length)
        assert (Nbar is None) == (report.Hbar is None)
        # Hbar is built as Nbar * L; inverting H itself is the reference.
        assert report.Hbar == inverted_polynomial(report.H, mu.weight - mu.length)
        assert report.identity_holds == reference_identity(mu, report.H, report.Hbar)
        assert report.passed()

    def test_empty_partition_lifts_its_numerator(self):
        N, leftover = split(Partition(()))
        assert N == Polynomial.one(UNIVERSE_QT)
        assert leftover == Polynomial.one(UNIVERSE_Q)
        assert positivity_report(Partition(())).passed()

    @pytest.mark.parametrize("parts", [(2, 1), (3, 2, 1), (2, 2, 1)])
    def test_a_wrong_numerator_fails_the_identity(self, parts, monkeypatch):
        real = positivity._numerator_and_leftover

        def wrong(mu, pool):
            N, leftover = real(mu, pool)
            return N + Polynomial.variable(UNIVERSE_QT, "t"), leftover

        monkeypatch.setattr(positivity, "_numerator_and_leftover", wrong)
        report = positivity_report(Partition(parts))
        # Nbar is still a polynomial, so the identity itself is decided.
        assert report.Hbar is not None
        assert not report.identity_holds
        assert not report.passed()

    @pytest.mark.parametrize("parts", [(2, 1), (3, 2, 1), (2, 2, 1)])
    def test_a_wrong_leftover_fails_only_the_auxiliary_identity(self, parts, monkeypatch):
        # L cancels from the factorization identity; only the auxiliary
        # identity, against P built on its own, tests it.
        real = positivity._numerator_and_leftover

        def wrong(mu, pool):
            N, leftover = real(mu, pool)
            return N, leftover * geometric_sum(UNIVERSE_Q, "q", 2)

        monkeypatch.setattr(positivity, "_numerator_and_leftover", wrong)
        report = positivity_report(Partition(parts))
        assert report.all_coefficients_nonnegative_integers
        assert report.Hbar is not None
        assert report.identity_holds
        assert not report.auxiliary_identity_holds
        assert not report.passed()


class TestTwoRowClosedForm:
    def test_two_one(self):
        expected = qt({(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1})
        assert two_row_closed_form(2, 1) == expected

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (5, 2)])
    def test_matches_construction(self, n, k):
        assert two_row_closed_form(n, k) == positivity_polynomial(
            Partition((n, k))
        )

    def test_equal_parts_rejected(self):
        with pytest.raises(NotApplicableError):
            two_row_closed_form(2, 2)
        with pytest.raises(NotApplicableError):
            two_row_closed_form(1, 2)
