import itertools
from fractions import Fraction

import pytest

from qmono import specialize
from qmono.algebra import FactoredFraction, Polynomial, frac_eq
from qmono.errors import ResourceLimitError, UsageError
from qmono.partitions import (
    PERMUTATION_CAP,
    Partition,
    partitions_of,
    partitions_up_to,
    permutations_with_cycles,
)
from qmono.specialize import (
    MEMO_BOUND,
    UNIVERSE_ABQ,
    UNIVERSE_QT,
    monomial_spec,
    oracle_direct,
    oracle_powersum,
    spec_value_at,
)

ONE = Polynomial.one(UNIVERSE_ABQ)
A = Polynomial.variable(UNIVERSE_ABQ, "a")
B = Polynomial.variable(UNIVERSE_ABQ, "b")
Q = Polynomial.variable(UNIVERSE_ABQ, "q")


def literal_oracle_powersum(mu: Partition) -> FactoredFraction:
    """The power-sum expansion with one fraction per permutation: the
    literal reference for ``oracle_powersum``, which builds one fraction per
    multiset of cycle sums."""
    length = mu.length
    parts = mu.parts
    terms = []
    for cycles in permutations_with_cycles(length):
        sign = -1 if (length - len(cycles)) % 2 else 1
        num = Polynomial.constant(UNIVERSE_ABQ, sign)
        den = []
        for cyc in cycles:
            s = sum(parts[j - 1] for j in cyc)
            num = num * Polynomial(UNIVERSE_ABQ, {(s, 0, 0): 1, (0, s, 0): -1})
            den.append(ONE - Q ** s)
        terms.append(FactoredFraction(num, den))
    total = FactoredFraction.sum(terms, universe=UNIVERSE_ABQ)
    return total * Fraction(1, mu.repetition_factor())


def literal_oracle_direct(mu: Partition, N: int) -> FactoredFraction:
    """m_mu(1, q, ..., q^(N-1)) from the list of the distinct arrangements
    of mu's parts padded with zeros to N letters: the literal reference for
    ``oracle_direct``, which counts them letter by letter."""
    padded = mu.parts + (0,) * (N - mu.length)
    total = Polynomial.zero(UNIVERSE_ABQ)
    for exps in set(itertools.permutations(padded)):
        total = total + Q ** sum(i * e for i, e in enumerate(exps))
    return FactoredFraction(total)


class TestPrefixForm:
    def test_single_row_is_the_power_action(self):
        for n in (1, 3, 5):
            got = monomial_spec(Partition((n,))).value
            expected = FactoredFraction(A ** n - B ** n, [ONE - Q ** n])
            assert frac_eq(got, expected)

    def test_column_two(self):
        got = monomial_spec(Partition((1, 1))).value
        expected = FactoredFraction(
            (A - B) * (A * Q - B), [ONE - Q, ONE - Q ** 2]
        )
        assert frac_eq(got, expected)

    def test_two_one_by_hand(self):
        # Two rearrangements: (2,1) and (1,2).
        got = monomial_spec(Partition((2, 1))).value
        expected = FactoredFraction.sum(
            [
                FactoredFraction(
                    (A ** 2 - B ** 2) * (A * Q ** 2 - B),
                    [ONE - Q ** 2, ONE - Q ** 3],
                ),
                FactoredFraction(
                    (A - B) * (A ** 2 * Q - B ** 2),
                    [ONE - Q, ONE - Q ** 3],
                ),
            ],
            universe=UNIVERSE_ABQ,
        )
        assert frac_eq(got, expected)
        assert frac_eq(got, oracle_powersum(Partition((2, 1))).value)

    def test_empty_partition(self):
        assert frac_eq(
            monomial_spec(Partition(())).value, FactoredFraction.one(UNIVERSE_ABQ)
        )

    def test_formula_tags(self):
        assert monomial_spec(Partition((2,))).formula == "theorem1"
        assert monomial_spec(Partition((2,)), "theorem3").formula == "theorem3"
        assert oracle_powersum(Partition((2,))).formula == "oracle-powersum"

    def test_unknown_form(self):
        with pytest.raises(UsageError):
            monomial_spec(Partition((1,)), "theorem2")

    def test_length_cap(self, monkeypatch, cold_memos):
        # No length cap of its own: (1^34) has 35 peel states and denominator
        # degree 595 and is admitted; (1^35) has degree 630, over the degree
        # cap, and a far longer column is over the state cap, which is
        # counted first.  Both are refused before the peel starts; the
        # admitted one is peeled once.
        calls = []
        peel = specialize.peel_polynomial
        monkeypatch.setattr(
            specialize, "peel_polynomial", lambda mu, *a: calls.append(mu) or peel(mu, *a)
        )
        monomial_spec(Partition((1,) * 34))
        assert calls == [Partition((1,) * 34)]
        with pytest.raises(ResourceLimitError, match="degree 630"):
            monomial_spec(Partition((1,) * 35))
        with pytest.raises(ResourceLimitError, match="100001 sub-multisets"):
            monomial_spec(Partition((1,) * 10 ** 5))
        assert len(calls) == 1

    def test_rearrangement_cap(self, monkeypatch, cold_memos):
        # (8,7,6,5,4,3,2) is at both peel caps (128 states, denominator
        # degree 595) and admitted, and is peeled once; one more state or
        # degree is refused before the peel starts.
        calls = []
        peel = specialize.peel_polynomial
        monkeypatch.setattr(
            specialize, "peel_polynomial", lambda mu, *a: calls.append(mu) or peel(mu, *a)
        )
        monomial_spec(Partition((8, 7, 6, 5, 4, 3, 2)))
        assert calls == [Partition((8, 7, 6, 5, 4, 3, 2))]
        for parts, message in (
            ((7, 6, 5, 4, 3, 2, 1, 1), "192 sub-multisets"),
            ((10, 10, 10, 9, 1, 1, 1, 1), "degree 602"),
            ((97, 89, 83, 79, 73), "degree 6315"),
        ):
            for form in ("theorem1", "theorem3"):
                with pytest.raises(ResourceLimitError, match=message):
                    monomial_spec(Partition(parts), form)
        assert len(calls) == 1


class TestTriangularForm:
    def test_single_row(self):
        got = monomial_spec(Partition((4,)), "theorem3").value
        assert frac_eq(got, FactoredFraction(A ** 4 - B ** 4, [ONE - Q ** 4]))

    def test_column_two(self):
        got = monomial_spec(Partition((1, 1)), "theorem3").value
        expected = FactoredFraction(
            (A * Q - B) * (A - B), [ONE - Q, ONE - Q ** 2]
        )
        assert frac_eq(got, expected)
        assert frac_eq(got, monomial_spec(Partition((1, 1))).value)

    @pytest.mark.parametrize("parts", [(2, 1), (3, 2), (2, 2, 1), (3, 1, 1)])
    def test_forms_agree(self, parts):
        mu = Partition(parts)
        assert frac_eq(
            monomial_spec(mu, "theorem1").value,
            monomial_spec(mu, "theorem3").value,
        )


def elementary_product(n: int) -> FactoredFraction:
    """e_n[(a - b)/(1 - q)] as the classical product over i = 1..n of
    (a q^(i-1) - b)/(1 - q^i)."""
    num = ONE
    for i in range(1, n + 1):
        num = num * (A * Q ** (i - 1) - B)
    return FactoredFraction(num, [ONE - Q ** i for i in range(1, n + 1)])


def complete_product(n: int) -> FactoredFraction:
    """h_n[(a - b)/(1 - q)] as the classical product over i = 1..n of
    (a - b q^(i-1))/(1 - q^i)."""
    num = ONE
    for i in range(1, n + 1):
        num = num * (A - B * Q ** (i - 1))
    return FactoredFraction(num, [ONE - Q ** i for i in range(1, n + 1)])


class TestGenerators:
    def test_elementary_on_three_letters(self):
        # e_2(1, q, q^2) = q + q^2 + q^3.
        got = monomial_spec(Partition((1, 1))).value.substitute({"a": 1, "b": Q ** 3})
        assert frac_eq(got, FactoredFraction(Q + Q ** 2 + Q ** 3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_complete_is_letter_swapped_elementary(self, n):
        # h_n = sum of m_mu over mu |- n, and swapping a and b negates the
        # alphabet, so h_n[X] = (-1)^n e_n[-X].
        got = FactoredFraction.sum(
            [monomial_spec(mu).value for mu in partitions_of(n)], universe=UNIVERSE_ABQ
        )
        swapped = monomial_spec(Partition((1,) * n)).value.substitute({"a": B, "b": A})
        assert frac_eq(got, swapped * (-1) ** n)
        assert frac_eq(got, complete_product(n))

    def test_power(self):
        # The power sum p_3 is the monomial function of the one-row partition.
        got = monomial_spec(Partition((3,))).value
        assert frac_eq(got, FactoredFraction(A ** 3 - B ** 3, [ONE - Q ** 3]))

    def test_column_partition_matches_elementary(self):
        for n in (2, 3, 4):
            assert frac_eq(elementary_product(n), monomial_spec(Partition((1,) * n)).value)


class TestOracles:
    def test_powersum_two_one_is_p2p1_minus_p3(self):
        expected = FactoredFraction.sum(
            [
                FactoredFraction(
                    (A ** 2 - B ** 2) * (A - B), [ONE - Q ** 2, ONE - Q]
                ),
                -FactoredFraction(A ** 3 - B ** 3, [ONE - Q ** 3]),
            ],
            universe=UNIVERSE_ABQ,
        )
        assert frac_eq(oracle_powersum(Partition((2, 1))).value, expected)

    def test_direct_single_part(self):
        got = oracle_direct(Partition((1,)), 3).value
        assert frac_eq(got, FactoredFraction(ONE + Q + Q ** 2))

    def test_direct_two_one(self):
        # x1^2 x2 + x1 x2^2 at (1, q) is q + q^2.
        got = oracle_direct(Partition((2, 1)), 2).value
        assert frac_eq(got, FactoredFraction(Q + Q ** 2))

    def test_direct_needs_enough_letters(self):
        with pytest.raises(UsageError):
            oracle_direct(Partition((2, 1)), 1)

    def test_permutation_cap(self, monkeypatch, cold_memos):
        # The oracle obeys the closed forms' caps, on the peel's states and
        # its denominator degree, and the permutation cap, all before its
        # block peel starts; six distinct parts, 720 rearrangements, pass
        # them all.
        calls = []
        peel = specialize.peel_polynomial
        monkeypatch.setattr(
            specialize, "peel_polynomial", lambda mu, *a: calls.append(mu.length) or peel(mu, *a)
        )
        oracle_powersum(Partition((13, 11, 7, 5, 3)))
        oracle_powersum(Partition((6, 5, 4, 3, 2, 1)))
        assert calls == [5, 6]
        for parts, message in (
            ((1,) * 9, "length 9"),
            ((7, 6, 5, 4, 3, 2, 1, 1), "192 sub-multisets"),
            ((97, 89, 83, 79, 73), "degree 6315"),
        ):
            with pytest.raises(ResourceLimitError, match=message):
                oracle_powersum(Partition(parts))
        assert calls == [5, 6]

    @pytest.mark.parametrize("w", range(9))
    def test_powersum_matches_the_literal_expansion(self, w):
        # Every partition of weight w, compared as printed: up to weight 8
        # every one passes every cap the oracle obeys.
        for mu in partitions_of(w):
            assert oracle_powersum(mu).value.text() == literal_oracle_powersum(mu).text(), mu

    @pytest.mark.parametrize("parts", [(4, 3, 2, 2, 1, 1), (6, 5, 4, 3, 2, 1), (3, 2, 2, 1, 1, 1, 1, 1)])
    def test_powersum_beyond_weight_8_matches_theorem_1(self, parts):
        # Inputs with 180, 720 and 168 distinct rearrangements, checked
        # against the closed form, which shares no code with the oracle.
        mu = Partition(parts)
        assert frac_eq(oracle_powersum(mu).value, monomial_spec(mu).value)

    @pytest.mark.parametrize(
        "parts, states", [((1,) * 6, 7), ((3, 2, 1), 5), ((3, 3, 1), 5), ((2, 2), 3), ((), 1)]
    )
    def test_powersum_peels_one_state_per_sub_multiset(
        self, monkeypatch, cold_memos, parts, states
    ):
        # 1^6: seven states in each of the peel's two passes, not one term
        # per each of 720 permutations or 203 set partitions.  The block
        # peel visits mu and the sub-multisets of mu less one largest part,
        # 1 + m_1 * prod over the other parts of (m_i + 1): (3,2,1) has 5,
        # below the rearrangement peel's 8.
        memos = []
        peel = specialize.peel_polynomial

        def recording(mu, walker, step, den, universe, rows, memo):
            memos.append(memo)
            return peel(mu, walker, step, den, universe, rows, memo)

        monkeypatch.setattr(specialize, "peel_polynomial", recording)
        oracle_powersum(Partition(parts))
        [memo] = memos
        counts = [sum(isinstance(key, tuple) for key in passed) for passed in memo.values()]
        assert counts == [states, states]

    @pytest.mark.parametrize("w", range(7))
    def test_direct_matches_the_listed_arrangements(self, w):
        # The DP over letters against the distinct arrangements of the
        # padded alphabet, listed, for every alphabet size up to the cap.
        for mu in partitions_of(w):
            for N in range(max(mu.length, 1), PERMUTATION_CAP + 1):
                assert oracle_direct(mu, N).value == literal_oracle_direct(mu, N), (mu, N)

    def test_direct_alphabet_cap(self):
        # The largest alphabet allowed: m_1 on {1, q, ..., q^7}.
        got = oracle_direct(Partition((1,)), PERMUTATION_CAP).value
        assert got == FactoredFraction(sum((Q ** i for i in range(1, PERMUTATION_CAP)), ONE))
        with pytest.raises(ResourceLimitError):
            oracle_direct(Partition((1,)), PERMUTATION_CAP + 1)


class TestLongPartitions:
    """Partitions longer than the permutation cap, which no oracle reaches:
    the two closed forms against each other, and columns against the Gauss
    polynomials, which need no rearrangement sum."""

    @pytest.mark.parametrize("w", range(9, 13))
    def test_forms_agree(self, w):
        long = [mu for mu in partitions_of(w) if mu.length >= 9]
        assert long
        for mu in long:
            prefix = monomial_spec(mu, "theorem1").value
            assert frac_eq(prefix, monomial_spec(mu, "theorem3").value), mu

    @pytest.mark.parametrize("k", range(9, 13))
    def test_columns_are_gauss_polynomials(self, k):
        # e_k at a = 1, b = q^N is q^(k(k-1)/2) [N choose k]_q, as in
        # criterion 4, here past its k <= 6.
        for N in (k, k + 2):
            got = monomial_spec(Partition((1,) * k)).value.substitute({"a": 1, "b": Q ** N})
            num = Q ** (k * (k - 1) // 2)
            den = []
            for i in range(1, k + 1):
                num = num * (ONE - Q ** (N - i + 1))
                den.append(ONE - Q ** i)
            assert frac_eq(got, FactoredFraction(num, den)), (k, N)


class TestProperties:
    @pytest.mark.parametrize("w", range(1, 6))
    def test_oracle_agreement(self, w):
        for mu in partitions_up_to(w):
            assert frac_eq(
                monomial_spec(mu).value, oracle_powersum(mu).value
            ), mu

    @pytest.mark.parametrize("w", range(1, 6))
    def test_evaluation_agreement(self, w):
        for mu in partitions_up_to(w):
            for N in range(mu.length, PERMUTATION_CAP + 1):
                got = monomial_spec(mu).value.substitute({"a": 1, "b": Q ** N})
                assert frac_eq(got, oracle_direct(mu, N).value), (mu, N)

    def test_homogeneity(self):
        # With denominators cleared (they involve q only), every numerator
        # term has joint (a, b)-degree equal to the weight.
        for mu in partitions_up_to(6):
            for form in ("theorem1", "theorem3"):
                numerator = monomial_spec(mu, form).value.numerator
                degrees = {a + b for (a, b, _), _ in numerator.items()}
                assert degrees == {mu.weight}, (mu, form)

    def test_prefix_recurrence_small(self):
        # (1 - q^w) Z = sum over distinct parts i of (a^i q^(w-i) - b^i) Z'.
        for mu in partitions_up_to(5):
            w = mu.weight
            lhs = monomial_spec(mu).value * (ONE - Q ** w)
            rhs = FactoredFraction.sum(
                [
                    monomial_spec(mu.remove_part(i)).value
                    * (A ** i * Q ** (w - i) - B ** i)
                    for i in set(mu.parts)
                ],
                universe=UNIVERSE_ABQ,
            )
            assert frac_eq(lhs, rhs), mu

    def test_shifted_recurrence_small(self):
        # (1 - q^w) W(a) = sum over parts of (a^i - b^i) W'(qa).
        qa = Polynomial.monomial(UNIVERSE_ABQ, {"q": 1, "a": 1})
        for mu in partitions_up_to(5):
            w = mu.weight
            lhs = monomial_spec(mu, "theorem3").value * (ONE - Q ** w)
            rhs = FactoredFraction.sum(
                [
                    monomial_spec(mu.remove_part(i), "theorem3").value.substitute(
                        {"a": qa}
                    )
                    * (A ** i - B ** i)
                    for i in set(mu.parts)
                ],
                universe=UNIVERSE_ABQ,
            )
            assert frac_eq(lhs, rhs), mu


# The (a, b) at which the package asks for values: positivity and the
# complete basis at (1, t), the elementary basis at (t, 1), the deformed
# bases at (1, 0) and (0, 1), and the alphabet shift check at (q, t).
QT_Q = Polynomial.variable(UNIVERSE_QT, "q")
QT_T = Polynomial.variable(UNIVERSE_QT, "t")
VALUE_POINTS = [(1, QT_T), (QT_T, 1), (1, 0), (0, 1), (QT_Q, QT_T)]


@pytest.mark.usefixtures("cold_memos")
class TestMemos:
    @pytest.mark.parametrize("w", range(7))
    def test_a_kept_value_is_the_value_built_afresh(self, w):
        closed, at = specialize._closed_form, specialize._value_at
        for mu in partitions_of(w):
            for form in ("theorem1", "theorem3"):
                fresh = closed.__wrapped__(mu, form)
                first = monomial_spec(mu, form)
                assert first == fresh, (mu, form)
                assert monomial_spec(mu, form) is first
            for a, b in VALUE_POINTS:
                fresh = at.__wrapped__(mu, a, b)
                first = spec_value_at(mu, a, b)
                assert first == fresh, (mu, a, b)
                assert spec_value_at(mu, a, b) is first

    def test_a_refused_input_is_refused_again_and_not_kept(self):
        over = Partition((1,) * 35)
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="degree 630"):
                monomial_spec(over)
            with pytest.raises(ResourceLimitError, match="degree 630"):
                spec_value_at(over, 1, QT_T)
            with pytest.raises(UsageError, match="unknown form"):
                monomial_spec(Partition((2, 1)), "theorem2")
        assert specialize._closed_form.cache_info().currsize == 0
        assert specialize._value_at.cache_info().currsize == 0

    def test_the_memos_hold_at_most_their_bound(self):
        # One-part partitions are the cheapest distinct inputs: two peel
        # states each, and (n) has denominator degree n.
        for n in range(1, MEMO_BOUND + 20):
            spec_value_at(Partition((n,)), 1, QT_T)
        for memo in (specialize._closed_form, specialize._value_at):
            info = memo.cache_info()
            assert info.misses == MEMO_BOUND + 19
            assert info.currsize == MEMO_BOUND
