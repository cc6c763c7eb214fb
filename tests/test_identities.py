import itertools
import math
import random
from fractions import Fraction

import pytest

from qmono import identities
from qmono.acceptance import _display_example_n2
from qmono.algebra import FactoredFraction, Polynomial, frac_eq, product
from qmono.errors import ResourceLimitError, UsageError
from qmono.identities import (
    _CONSTANT_KINDS,
    SIDE_CYCLE,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDES,
    SYMMETRIZED_CAP,
    _check_size,
    _cycle_weight,
    _denominator,
    _numerator,
    _peeled,
    appendix_step,
    constant_identity,
    specialization_chain_check,
    symmetrized_constant,
    symmetrized_side,
    x_only_universe,
    xy_universe,
)
from qmono.partitions import Partition, partitions_up_to, permutations_with_cycles, z_of
from qmono.specialize import UNIVERSE_ABQ, monomial_spec


def symmetrized_enumerated(n: int, form: str) -> FactoredFraction:
    """Any of the four sums, one permutation at a time, with prop7 as
    thm6-right at y = 1: the definitional reference for the peel behind
    symmetrized_side and symmetrized_constant."""
    if form not in SIDES + _CONSTANT_KINDS:
        raise UsageError(f"unknown symmetrized sum {form!r}")
    _check_size(n, SYMMETRIZED_CAP)
    uni = xy_universe(n) if form in SIDES else x_only_universe(n)
    X = tuple(Polynomial.variable(uni, f"x{k}") for k in range(1, n + 1))
    if form in SIDES:
        Y = tuple(Polynomial.variable(uni, f"y{k}") for k in range(1, n + 1))
    else:
        Y = (Polynomial.one(uni),) * n
    form = SIDE_RIGHT if form == "prop7" else form
    one = FactoredFraction.one(uni)
    if form == SIDE_CYCLE:
        terms = [
            math.prod((_cycle_weight(X, Y, cycle) for cycle in cycles), start=one)
            for cycles in permutations_with_cycles(n)
        ]
    else:
        terms = []
        for sigma in itertools.permutations(range(1, n + 1)):
            factors = []
            for i, k in enumerate(sigma, start=1):
                x_prefix = product([X[k - 1] for k in sigma[:i]], uni)
                factors.append(
                    FactoredFraction(
                        _numerator(form, X, Y, k, i, x_prefix),
                        [_denominator(form, X, sigma[:i], x_prefix)],
                    )
                )
            terms.append(math.prod(factors, start=one))
    return FactoredFraction.sum(terms, universe=uni)


def chain_point(mu: Partition) -> tuple:
    """The images x_i = q^(mu_i), y_i = (b q)^(mu_i) of the chain."""
    X = tuple(Polynomial.variable(UNIVERSE_ABQ, "q", part) for part in mu.parts)
    Y = tuple(Polynomial.monomial(UNIVERSE_ABQ, {"b": part, "q": part}) for part in mu.parts)
    return X, Y


def relabeling_invariant(s: FactoredFraction, sigma: tuple) -> bool:
    """Invariance of a symmetrized sum under the simultaneous relabeling
    (x_i, y_i) -> (x_sigma(i), y_sigma(i))."""
    uni = s.universe
    bindings = {}
    for i, k in enumerate(sigma, start=1):
        bindings[f"x{i}"] = Polynomial.variable(uni, f"x{k}")
        bindings[f"y{i}"] = Polynomial.variable(uni, f"y{k}")
    return frac_eq(s, s.substitute(bindings))


def _vars(n):
    uni = xy_universe(n)
    x = {i: Polynomial.variable(uni, f"x{i}") for i in range(1, n + 1)}
    y = {i: Polynomial.variable(uni, f"y{i}") for i in range(1, n + 1)}
    return uni, Polynomial.one(uni), x, y


class TestSymmetrizedSides:
    def test_size_one(self):
        uni, one, x, y = _vars(1)
        expected = FactoredFraction(y[1] - x[1], [one - x[1]])
        for side in SIDES:
            assert frac_eq(symmetrized_side(1, side), expected)

    def test_size_two_written_out(self):
        displayed = _display_example_n2()
        for side, written_out in displayed.items():
            assert frac_eq(symmetrized_side(2, side), written_out)
        left = displayed[SIDE_LEFT]
        assert frac_eq(left, displayed[SIDE_RIGHT])
        assert frac_eq(left, displayed[SIDE_CYCLE])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_peeled_assembly_matches_enumeration(self, n, cold_memos):
        for side in SIDES:
            assert frac_eq(symmetrized_side(n, side), symmetrized_enumerated(n, side))

    @pytest.mark.parametrize("side", SIDES)
    def test_each_side_is_built_once(self, side):
        assert symmetrized_side(4, side) is symmetrized_side(4, side)

    @pytest.mark.parametrize("n", [2, 3])
    def test_three_way(self, n):
        left = symmetrized_side(n, SIDE_LEFT)
        assert frac_eq(left, symmetrized_side(n, SIDE_RIGHT))
        assert frac_eq(left, symmetrized_side(n, SIDE_CYCLE))

    @pytest.mark.parametrize("n", [2, 3])
    def test_relabeling_invariance(self, n):
        rng = random.Random(n)
        sigma = list(range(1, n + 1))
        i, j = rng.sample(range(n), 2)
        sigma[i], sigma[j] = sigma[j], sigma[i]
        for side in SIDES:
            assert relabeling_invariant(symmetrized_side(n, side), tuple(sigma))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_factor_cancels(self, n):
        # The three-way sides keep one factor 1 - x_S per nonempty label
        # subset S: the peel's exact division never applies to them.
        uni = xy_universe(n)
        one = Polynomial.one(uni)
        expected = FactoredFraction(
            one,
            [
                one - Polynomial.monomial(uni, {f"x{k}": 1 for k in subset})
                for size in range(1, n + 1)
                for subset in itertools.combinations(range(1, n + 1), size)
            ],
        ).denominator
        assert len(expected) == 2 ** n - 1
        for side in SIDES:
            assert symmetrized_side(n, side).denominator == expected

    @pytest.mark.parametrize("n", range(1, SYMMETRIZED_CAP + 1))
    def test_no_factor_divides_the_numerator(self, n):
        # Why the peel never tries to divide a three-way side: at every size
        # the cap admits, no denominator factor divides the numerator.
        for side in SIDES:
            s = symmetrized_side(n, side)
            assert len(s.denominator) == 2 ** n - 1
            for factor, _ in s.denominator:
                assert s.numerator.exact_quotient(factor) is None, (side, factor.text())

    def test_cap_and_usage(self):
        with pytest.raises(ResourceLimitError):
            symmetrized_side(6, SIDE_LEFT)
        with pytest.raises(ResourceLimitError):
            symmetrized_side(5, SIDE_LEFT)
        with pytest.raises(ResourceLimitError):
            appendix_step(5, 13, "L")
        with pytest.raises(ResourceLimitError):
            symmetrized_constant(8, "prop7")
        with pytest.raises(ResourceLimitError):
            symmetrized_enumerated(5, "prop7")
        with pytest.raises(UsageError):
            symmetrized_enumerated(2, "prop9")
        with pytest.raises(UsageError):
            symmetrized_side(2, "thm8-left")
        with pytest.raises(UsageError):
            symmetrized_side(0, SIDE_LEFT)


class TestConstantIdentities:
    def test_prop5_two_one_by_hand(self):
        # (1+q^2)(1-q) + (1+q)(1-q^2) = 2 (1-q^3) over (1-q^3).
        uni = ("q",)
        one = Polynomial.one(uni)
        q = Polynomial.variable(uni, "q")
        lhs = (one + q ** 2) * (one - q) + (one + q) * (one - q ** 2)
        assert lhs == (one - q ** 3) * 2
        got = constant_identity(Partition((2, 1)), "prop5", {})
        assert frac_eq(got, FactoredFraction.constant(uni, 2))

    def test_littlewood_examples(self):
        got = constant_identity(Partition((2, 1)), "littlewood", {})
        # 1/(2*3) + 1/(1*3) = 1/2 = 1/z.
        assert got == Fraction(1, 2)
        assert isinstance(got, Fraction)
        assert Fraction(1, z_of(Partition((2, 1)))) == Fraction(1, 2)
        got = constant_identity(Partition((1, 1)), "littlewood", {})
        assert got == Fraction(1, 2)

    @pytest.mark.parametrize("w", range(1, 7))
    def test_littlewood_sweep(self, w):
        for mu in partitions_up_to(w):
            got = constant_identity(mu, "littlewood", {})
            assert got == Fraction(1, z_of(mu)), mu

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            constant_identity(Partition((2,)), "prop9", {})


class TestSymmetrizedConstants:
    def test_prop7_small(self):
        for n in (1, 2, 3):
            got = symmetrized_constant(n, "prop7")
            expected = FactoredFraction.constant(
                x_only_universe(n), math.factorial(n)
            )
            assert frac_eq(got, expected)

    def test_prop8_two_by_hand(self):
        # Common denominator x1 x2 (x1 + x2).
        uni = x_only_universe(2)
        x1 = Polynomial.variable(uni, "x1")
        x2 = Polynomial.variable(uni, "x2")
        got = symmetrized_constant(2, "prop8")
        assert frac_eq(got, FactoredFraction(Polynomial.one(uni), [x1, x2]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_peeled_matches_enumeration(self, n, cold_memos):
        for kind in ("prop7", "prop8"):
            assert frac_eq(
                symmetrized_constant(n, kind),
                symmetrized_enumerated(n, kind),
            )

    def test_prop8_value(self):
        for n in (3, 4):
            uni = x_only_universe(n)
            expected = FactoredFraction(
                Polynomial.one(uni),
                [Polynomial.variable(uni, f"x{i}") for i in range(1, n + 1)],
            )
            assert frac_eq(symmetrized_constant(n, "prop8"), expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_every_entering_factor_cancels(self, n):
        # The peel divides each level's new factor out, so the values come
        # out structurally reduced: the bare constant n! and 1/(x1...xn).
        uni = x_only_universe(n)
        assert symmetrized_constant(n, "prop7") == FactoredFraction.constant(
            uni, math.factorial(n)
        )
        assert symmetrized_constant(n, "prop8") == FactoredFraction(
            Polynomial.one(uni),
            [Polynomial.variable(uni, f"x{i}") for i in range(1, n + 1)],
        )


class TestAppendixRecurrences:
    def test_size_two_left_relation_14_by_hand(self):
        # f_2(x1, x2; y1, 1) = (y1 - x1)/(1 - x1) + (y1 - x1 x2)/(1 - x1 x2).
        uni, one, x, y = _vars(2)
        f2 = symmetrized_side(2, SIDE_LEFT).substitute({"y2": 1})
        expected = FactoredFraction.sum(
            [
                FactoredFraction(y[1] - x[1], [one - x[1]]),
                FactoredFraction(y[1] - x[1] * x[2], [one - x[1] * x[2]]),
            ],
            universe=uni,
        )
        assert frac_eq(f2, expected)
        assert appendix_step(2, 14, "L")

    def test_size_two_cycle_relation_13(self):
        assert appendix_step(2, 13, "R")

    @pytest.mark.parametrize("relation", [13, 14])
    @pytest.mark.parametrize("side", ["L", "R"])
    def test_size_three(self, relation, side):
        assert appendix_step(3, relation, side)

    def test_bad_arguments(self):
        with pytest.raises(UsageError):
            appendix_step(1, 13, "L")
        with pytest.raises(UsageError):
            appendix_step(2, 15, "L")
        with pytest.raises(UsageError):
            appendix_step(2, 13, "C")


class TestSpecializationChain:
    @pytest.mark.parametrize(
        "parts",
        [
            (2, 1),
            (3, 1),
            (1, 1, 1, 1),
            (2, 1, 1, 1),
            (2, 2, 1, 1),
            (3, 2, 2, 1),
            (2, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 1),
            (3, 2, 1, 1, 1, 1),
        ],
    )
    def test_chain(self, parts):
        assert specialization_chain_check(Partition(parts))

    @pytest.mark.parametrize("side", SIDES)
    def test_a_wrong_side_fails(self, side, monkeypatch):
        peeled = identities._peeled

        def doubled(form, X, Y):
            value = peeled(form, X, Y)
            return value * 2 if form == side else value

        monkeypatch.setattr(identities, "_peeled", doubled)
        assert not specialization_chain_check(Partition((2, 1, 1)))

    @pytest.mark.parametrize("n", range(1, SYMMETRIZED_CAP + 1))
    def test_point_peel_matches_the_substituted_side(self, n):
        # The old route, substituting the point into the full-y side, is
        # the oracle for the peel at the point.
        for mu in partitions_up_to(6):
            if mu.length != n:
                continue
            X, Y = chain_point(mu)
            bindings = {f"x{k}": X[k - 1] for k in range(1, n + 1)}
            bindings.update({f"y{k}": Y[k - 1] for k in range(1, n + 1)})
            for side in SIDES:
                substituted = symmetrized_side(n, side).substitute(bindings, UNIVERSE_ABQ)
                assert frac_eq(_peeled(side, X, Y), substituted), (mu, side)

    def test_the_chain_keeps_no_value(self):
        symmetrized_side(2, SIDE_LEFT)
        before = identities._symmetrized.cache_info().currsize
        for mu in partitions_up_to(6):
            assert specialization_chain_check(mu)
        assert identities._symmetrized.cache_info().currsize == before

    @pytest.mark.parametrize("form", ["theorem1", "theorem3"])
    def test_closed_forms_are_homogeneous_in_a_and_b(self, form):
        # The chain checks at a = 1 only.  That loses nothing because each
        # closed form is a^|mu| times its value at (1, b/a): its numerator
        # is homogeneous of degree |mu| in (a, b) and its denominator
        # factors hold only q.
        for mu in partitions_up_to(8):
            value = monomial_spec(mu, form).value
            assert {i + j for (i, j, _), _ in value.numerator.items()} == {mu.weight}
            for factor, _ in value.denominator:
                assert all(i == j == 0 for (i, j, _), _ in factor.items())
