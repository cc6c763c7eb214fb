from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import acceptance, macdonald
from qmono.algebra import FactoredFraction, Polynomial, frac_eq
from qmono.errors import ResourceLimitError, UsageError
from qmono.macdonald import (
    BASES,
    BASIS_COMPLETE,
    BASIS_DEFORMED_COMPLETE,
    BASIS_DEFORMED_ELEMENTARY,
    BASIS_ELEMENTARY,
    BASIS_MONOMIAL,
    BASIS_POWER,
    SymmetricPolynomial,
    UNIVERSE_QT,
    _deformed_power_table,
    _generator,
    _letter_product,
    _letter_series,
    _linear_combination,
    _omega_factor,
    _sum,
    coefficient_sum_identities,
    deformed_basis_check,
    eigencheck,
    eigenvalue_at_zero_matches,
    expansion_agreement,
    heine_coefficient,
    inverse_expansions_check,
    omega_duality_check,
    omega_row_is_elementary,
    operator_coefficient,
    row_expansion_table,
    row_polynomial,
    x_universe,
)
from qmono.partitions import Partition, partitions_of, z_of

ONE = Polynomial.one(UNIVERSE_QT)
Q = Polynomial.variable(UNIVERSE_QT, "q")
T = Polynomial.variable(UNIVERSE_QT, "t")


class TestExpansionTables:
    def test_degree_one_all_classical_bases(self):
        expected = FactoredFraction(ONE - T, [ONE - Q])
        for basis in (BASIS_POWER, BASIS_MONOMIAL, BASIS_COMPLETE, BASIS_ELEMENTARY):
            table = row_expansion_table(1, basis)
            assert len(table.entries) == 1
            assert frac_eq(dict(table.entries)[Partition((1,))], expected)

    def test_degree_one_deformed(self):
        expected = FactoredFraction(ONE, [ONE - Q])
        for basis in (BASIS_DEFORMED_COMPLETE, BASIS_DEFORMED_ELEMENTARY):
            table = row_expansion_table(1, basis)
            assert frac_eq(dict(table.entries)[Partition((1,))], expected)

    def test_degree_two_monomial(self):
        table = dict(row_expansion_table(2, BASIS_MONOMIAL).entries)
        assert frac_eq(
            table[Partition((2,))],
            FactoredFraction(
                (ONE - T) * (ONE - T * Q), [ONE - Q, ONE - Q ** 2]
            ),
        )
        assert frac_eq(
            table[Partition((1, 1))],
            FactoredFraction((ONE - T) ** 2, [(ONE - Q, 2)]),
        )

    def test_degree_two_complete(self):
        table = dict(row_expansion_table(2, BASIS_COMPLETE).entries)
        assert frac_eq(
            table[Partition((2,))],
            FactoredFraction(ONE - T ** 2, [ONE - Q ** 2]),
        )
        assert frac_eq(
            table[Partition((1, 1))],
            FactoredFraction(
                (ONE - T) * (Q - T), [ONE - Q, ONE - Q ** 2]
            ),
        )

    def test_unknown_basis(self):
        with pytest.raises(UsageError):
            row_expansion_table(2, "schur")

    @pytest.mark.parametrize("n", [0, 1, 8])
    def test_a_monomial_table_builds_each_heine_coefficient_once(self, n, monkeypatch):
        calls = []
        heine = macdonald.heine_coefficient
        monkeypatch.setattr(macdonald, "heine_coefficient", lambda k: calls.append(k) or heine(k))
        table = row_expansion_table(n, BASIS_MONOMIAL)
        assert sorted(calls) == list(range(n + 1))
        for mu, coeff in table.entries:
            expected = FactoredFraction.one(UNIVERSE_QT)
            for part in mu.parts:
                expected = expected * heine(part)
            assert coeff == expected, mu


class TestRowPolynomial:
    def test_degree_zero_is_one(self):
        sp = row_polynomial(0, 3)
        assert set(sp.coeffs) == {()}
        assert frac_eq(sp.coeffs[()], FactoredFraction.one(UNIVERSE_QT))

    def test_degree_one_two_letters(self):
        sp = row_polynomial(1, 2)
        assert set(sp.coeffs) == {(1,)}
        assert frac_eq(sp.coeffs[(1,)], FactoredFraction(ONE - T, [ONE - Q]))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_methods_agree(self, n):
        heine = [heine_coefficient(k) for k in range(n + 1)]
        b = _letter_product(heine, 2).homogeneous_part(n)
        assert row_polynomial(n, 2).eq(b)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_six_way_agreement_small(self, n):
        assert expansion_agreement(n, 3)


class TestDeformedBases:
    def test_elementary_two_on_one_letter(self):
        sp = _generator(BASIS_DEFORMED_ELEMENTARY, 2, 1)
        assert set(sp.coeffs) == {(2,)}
        assert frac_eq(sp.coeffs[(2,)], FactoredFraction(T ** 2 - T))

    @pytest.mark.parametrize("basis", [BASIS_DEFORMED_ELEMENTARY, BASIS_DEFORMED_COMPLETE])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_three_ways_agree(self, basis, n, N):
        assert deformed_basis_check(basis, n, N)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complete_monomial_coefficients(self, n):
        sp = _generator(BASIS_DEFORMED_COMPLETE, n, 3)
        for mu in partitions_of(n):
            if mu.length > 3:
                continue
            assert frac_eq(
                sp.coeffs[tuple(mu.parts)],
                FactoredFraction((ONE - T) ** mu.length),
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_elementary_power_coefficients(self, n):
        table = _deformed_power_table(BASIS_DEFORMED_ELEMENTARY, n, "t")
        for mu in partitions_of(n):
            sign = -1 if (n - mu.length) % 2 else 1
            poly = Polynomial.constant(UNIVERSE_QT, Fraction(sign, z_of(mu)))
            for part in mu.parts:
                poly = poly * (ONE - T ** part)
            assert frac_eq(table[mu], FactoredFraction(poly))

    @pytest.mark.parametrize("name", ["G", "E", "H", BASIS_COMPLETE])
    def test_only_the_deformed_basis_names_are_taken(self, name):
        with pytest.raises(UsageError):
            deformed_basis_check(name, 2, 2)


class TestOperator:
    def test_coefficient_n1_is_one(self):
        uni = ("t", "x1")
        assert frac_eq(
            operator_coefficient(1, 1, uni),
            FactoredFraction.one(uni),
        )

    def test_coefficient_sum_two_by_hand(self):
        # (t x1 - x2)/(x1 - x2) + (t x2 - x1)/(x2 - x1) = 1 + t.
        uni = ("t", "x1", "x2")
        one = Polynomial.one(uni)
        t = Polynomial.variable(uni, "t")
        total = operator_coefficient(1, 2, uni) + operator_coefficient(2, 2, uni)
        assert frac_eq(total, FactoredFraction(one + t))

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_coefficient_identities(self, N):
        assert coefficient_sum_identities(N)

    def test_eigen_anchor_at_degree_zero(self):
        assert eigenvalue_at_zero_matches(2)
        assert eigenvalue_at_zero_matches(3)

    @pytest.mark.parametrize("n,N", [(0, 2), (1, 2), (2, 2), (1, 3), (3, 3)])
    def test_eigen_equation(self, n, N):
        assert eigencheck(n, N)

    def test_operator_cap(self):
        with pytest.raises(ResourceLimitError):
            eigencheck(1, 4)
        with pytest.raises(ResourceLimitError):
            coefficient_sum_identities(5)


class TestOmega:
    def test_row_becomes_elementary(self):
        ((mu, coeff),) = row_expansion_table(1, BASIS_POWER).entries
        assert mu == Partition((1,))
        assert frac_eq(coeff * _omega_factor(mu), FactoredFraction.one(UNIVERSE_QT))
        for n in (1, 2, 3):
            assert omega_row_is_elementary(n)

    def test_involution_with_swapped_roles(self):
        # The (q, t) factor times the (t, q) factor is 1 on every partition.
        for mu in partitions_of(3):
            forward = _omega_factor(mu)
            swapped = FactoredFraction.constant(
                UNIVERSE_QT, -1 if (mu.weight - mu.length) % 2 else 1
            )
            for part in mu.parts:
                swapped = swapped * FactoredFraction(
                    ONE - T ** part, [ONE - Q ** part]
                )
            assert frac_eq(
                forward * swapped, FactoredFraction.one(UNIVERSE_QT)
            )

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_duality(self, w):
        for mu in partitions_of(w):
            assert omega_duality_check(mu), mu

    def test_duality_needs_a_part(self):
        with pytest.raises(UsageError):
            omega_duality_check(Partition(()))


class TestInverseExpansions:
    def test_degree_one(self):
        assert inverse_expansions_check(1, 2)

    def test_collapse_at_t_equals_q(self):
        # Monomial coefficients of g_2 all become 1 at t = q.
        table = row_expansion_table(2, BASIS_MONOMIAL)
        for mu, coeff in table.entries:
            assert frac_eq(
                coeff.substitute({"t": Q}), FactoredFraction.one(UNIVERSE_QT)
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_higher_degrees(self, n):
        assert inverse_expansions_check(n, 3)


class TestSymmetricPolynomial:
    def test_multiplication_collects_orbits(self):
        e1 = _generator(BASIS_ELEMENTARY, 1, 2)
        sq = e1.mul(e1)
        # (x1 + x2)^2 = m_2 + 2 m_11.
        assert frac_eq(sq.coeffs[(2,)], FactoredFraction.one(UNIVERSE_QT))
        assert frac_eq(
            sq.coeffs[(1, 1)], FactoredFraction.constant(UNIVERSE_QT, 2)
        )

    def test_table_conversions_match_monomial_route(self):
        for basis in BASES:
            sp = _linear_combination(basis, row_expansion_table(2, basis).entries, 2)
            assert sp.eq(row_polynomial(2, 2)), basis

    def test_vanishing_above_alphabet(self):
        assert _generator(BASIS_ELEMENTARY, 3, 2).coeffs == {}
        assert SymmetricPolynomial.monomial(Partition((1, 1, 1)), 2).coeffs == {}

    def test_homogeneous_part(self):
        total = _sum(
            [
                _generator(BASIS_COMPLETE, 2, 2),
                _generator(BASIS_ELEMENTARY, 1, 2),
            ],
            2,
        )
        assert set(total.homogeneous_part(1).coeffs) == {(1,)}
        assert set(total.homogeneous_part(2).coeffs) == {(2,), (1, 1)}


def _reference_element(basis, mu, N, param):
    """The basis element built part by part from the unit: every generator
    rebuilt for each partition that holds it, in the closed orbit form."""
    if basis == BASIS_MONOMIAL:
        return SymmetricPolynomial.monomial(mu, N)
    deform = ONE - Polynomial.variable(UNIVERSE_QT, param)
    out = SymmetricPolynomial(N, {(): FactoredFraction.one(UNIVERSE_QT)})
    for n in mu.parts:
        coeffs = {}
        for lam in partitions_of(n, N):
            l = lam.length
            if basis == BASIS_POWER:
                c = ONE if l == 1 else Polynomial.zero(UNIVERSE_QT)
            elif basis == BASIS_COMPLETE:
                c = ONE
            elif basis == BASIS_ELEMENTARY:
                c = ONE if l == n else Polynomial.zero(UNIVERSE_QT)
            elif basis == BASIS_DEFORMED_COMPLETE:
                c = deform ** l
            else:
                c = Polynomial.variable(UNIVERSE_QT, param, n - l, (-1) ** (n - l)) * deform ** l
            coeffs[tuple(lam.parts)] = FactoredFraction(c)
        out = out.mul(SymmetricPolynomial(N, coeffs))
    return out


class TestGenerators:
    @pytest.mark.parametrize("param", ["t", "q"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("basis", BASES)
    def test_the_folded_sum_is_the_per_element_sum(self, basis, n, N, param):
        entries = row_expansion_table(n, basis).entries
        reference = _sum(
            [_reference_element(basis, mu, N, param).scale(c) for mu, c in entries if not c.is_zero],
            N,
        )
        assert _linear_combination(basis, entries, N, param).coeffs == reference.coeffs

    @pytest.mark.parametrize("basis", [b for b in BASES if b != BASIS_MONOMIAL])
    def test_one_sum_builds_each_generator_once(self, basis, monkeypatch):
        calls = []
        build = macdonald._generator
        monkeypatch.setattr(macdonald, "_generator", lambda *args: calls.append(args) or build(*args))
        _linear_combination(basis, row_expansion_table(5, basis).entries, 3, "q")
        assert sorted(calls) == [(basis, p, 3, "q") for p in range(1, 6)]

    def test_criterion_10_folds_from_the_generators(self, monkeypatch):
        # Building every element part by part from the unit takes 360
        # products (170 with the unit as an operand), 358 generator builds
        # and 89 deformed power tables.
        products, constants, builds, tables = [], [], [], []
        mul = SymmetricPolynomial.mul
        build = macdonald._generator
        table = macdonald._deformed_power_table

        def counted_mul(self, other, max_degree=None):
            products.append(1)
            constants.extend(p for p in (self, other) if set(p.coeffs) == {()})
            return mul(self, other, max_degree)

        monkeypatch.setattr(SymmetricPolynomial, "mul", counted_mul)
        monkeypatch.setattr(macdonald, "_generator", lambda *args: builds.append(args) or build(*args))
        monkeypatch.setattr(macdonald, "_deformed_power_table", lambda *args: tables.append(args) or table(*args))
        report = acceptance.criterion_10_macdonald()
        assert (report.passed, report.instances) == (True, 61)
        assert (len(products), constants) == (190, [])
        assert len(builds) == 138
        assert len(tables) == 57


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(_rationals, min_size=1, max_size=4), st.integers(min_value=1, max_value=3))
def test_letter_product_matches_polynomial_product(constants, N):
    # The product over the letters of sum_k c_k x_i^k, built with
    # Polynomial.__mul__ and cut at the same x-degree, is the orbit-form
    # letter product.
    uni = x_universe(N)
    degree = len(constants) - 1
    product = Polynomial.one(uni)
    for i in range(1, N + 1):
        letter = Polynomial.zero(uni)
        for k, c in enumerate(constants):
            letter = letter + Polynomial.variable(uni, f"x{i}", k, c)
        product = product * letter
    cut = Polynomial(
        uni, {e: c for e, c in product.items() if sum(e[2:]) <= degree}
    )
    coeffs = [FactoredFraction.constant(UNIVERSE_QT, c) for c in constants]
    assert frac_eq(_letter_product(coeffs, N).to_fraction(uni), FactoredFraction(cut))


def test_heine_coefficients():
    # The quotient of shifted geometric products expands with coefficient
    # k equal to prod_{j<=k} (1 - t q^(j-1))/(1 - q^j).  Any finite
    # sub-product truncates those denominators, so the claimed
    # coefficients are pinned here and then verified independently via
    # the first-order q-difference equation (1 - x) F(x) = (1 - tx) F(qx).
    uni = ("q", "t")
    one = Polynomial.one(uni)
    q, t = Polynomial.variable(uni, "q"), Polynomial.variable(uni, "t")
    assert frac_eq(heine_coefficient(0), FactoredFraction(one))
    assert frac_eq(
        heine_coefficient(1), FactoredFraction(one - t, [one - q])
    )
    assert frac_eq(
        heine_coefficient(2),
        FactoredFraction(
            (one - t) * (one - t * q), [one - q, one - q ** 2]
        ),
    )
    order = 5
    for k in range(1, order + 1):
        # c_k - c_{k-1} must equal q^k c_k - t q^(k-1) c_{k-1}.
        lhs = heine_coefficient(k) - heine_coefficient(k - 1)
        rhs = heine_coefficient(k) * q ** k - heine_coefficient(k - 1) * (
            t * q ** (k - 1)
        )
        assert frac_eq(lhs, rhs)


# One letter y: each ratio numerator / (1 - c y) the module expands.
QTY = ("q", "t", "y")
_Y = Polynomial.variable(QTY, "y")
_T = Polynomial.variable(QTY, "t")
_ONE_Y = Polynomial.one(QTY)
LETTER_RATIOS = {
    "(1 + y)/(1 + t y)": (_ONE_Y + _Y, -_T),
    "(1 - t y)/(1 - y)": (_ONE_Y - _T * _Y, 1),
    "(1 - y)/(1 - t y)": (_ONE_Y - _Y, _T),
    "1 - y": (_ONE_Y - _Y, 0),
}


@pytest.mark.parametrize("ratio", list(LETTER_RATIOS))
def test_letter_series_times_its_denominator_is_the_numerator(ratio):
    numerator, c = LETTER_RATIOS[ratio]
    degree = 5
    coeffs = _letter_series(numerator, c, degree)
    assert len(coeffs) == degree + 1
    series = Polynomial.zero(QTY)
    for k, f in enumerate(coeffs):
        assert f.universe == UNIVERSE_QT and f.denominator == ()
        series = series + f.numerator.substitute({}, universe=QTY) * _Y ** k
    product = series * (_ONE_Y - c * _Y)
    cut = Polynomial(QTY, {e: v for e, v in product.items() if e[2] <= degree})
    assert cut == numerator


def test_letter_series_pinned_values():
    # (1 - t y)/(1 - y) = 1 + (1 - t) y + (1 - t) y^2 + ...
    t = Polynomial.variable(UNIVERSE_QT, "t")
    coeffs = _letter_series(_ONE_Y - _T * _Y, 1, 2)
    assert frac_eq(coeffs[0], FactoredFraction(ONE))
    assert frac_eq(coeffs[1], FactoredFraction(ONE - t))
    assert frac_eq(coeffs[2], FactoredFraction(ONE - t))
