from fractions import Fraction
from math import isqrt
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmono import algebra
from qmono.algebra import (
    FactoredFraction,
    Polynomial,
    _mul_terms,
    _row_product,
    _slot_size,
    _unpack,
    _width_for,
    frac_eq,
    geometric_sum,
)
from qmono.errors import InternalConsistencyError, InvalidValueError, PoleError, UsageError

ABQ = ("a", "b", "q")
QT = ("q", "t")
Q = ("q",)


def var(universe, name, power=1):
    return Polynomial.variable(universe, name, power)


@pytest.fixture
def abq():
    one = Polynomial.one(ABQ)
    return one, var(ABQ, "a"), var(ABQ, "b"), var(ABQ, "q")


class TestPolynomial:
    def test_difference_of_squares(self, abq):
        one, a, b, q = abq
        assert (one - q) * (one + q) == one - q ** 2

    def test_identity_element(self, abq):
        one, a, b, q = abq
        assert (a - b) * one == a - b

    def test_expand_by_hand(self):
        one = Polynomial.one(QT)
        q, t = var(QT, "q"), var(QT, "t")
        expected = one - t - q * t + q * t ** 2
        assert (one - t) * (one - q * t) == expected

    def test_universe_mismatch(self, abq):
        one, a, b, q = abq
        with pytest.raises(UsageError):
            a * Polynomial.one(QT)

    def test_constant_value(self, abq):
        one, a, b, q = abq
        assert Polynomial.zero(ABQ).constant_value() == 0
        assert (one * Fraction(3, 2)).constant_value() == Fraction(3, 2)
        for non_constant in (q, one + q):
            with pytest.raises(InvalidValueError):
                non_constant.constant_value()

    def test_no_zero_terms_stored(self, abq):
        one, a, b, q = abq
        assert (a - a).terms == {}
        assert ((one + q) - q) == one

    def test_exponents_must_be_ints(self):
        for make in (
            lambda: Polynomial.variable(("a", "b"), "a", 2.0),
            lambda: Polynomial(("a", "b"), {(1.5, 0): 1}),
            lambda: Polynomial(("a", "b"), {(Fraction(2), 0): 1}),
            lambda: Polynomial.monomial(("a", "b"), {"b": 1.0}),
        ):
            with pytest.raises(UsageError):
                make()

    def test_items_gives_dense_exponent_tuples_in_canonical_order(self):
        p = Polynomial(QT, {(0, 2): 3, (1, 0): -1, (0, 0): 5, (2, 0): 1})
        assert p.items() == [((0, 0), 5), ((1, 0), -1), ((2, 0), 1), ((0, 2), 3)]
        assert p.text() == "5 - q + q^2 + 3 * t^2"

    def test_canonical_text(self):
        one = Polynomial.one(QT)
        q, t = var(QT, "q"), var(QT, "t")
        assert (one - q).text() == "1 - q"
        assert ((one - t) * (one - q * t)).text() == "1 - t - q * t + q * t^2"
        assert Polynomial.zero(QT).text() == "0"
        assert Polynomial.constant(QT, Fraction(-2, 3)).text() == "-2/3"

    def test_power(self, abq):
        one, a, b, q = abq
        assert q ** 0 == one
        assert q ** 3 == var(ABQ, "q", 3)
        assert (one + q) ** 2 == one + 2 * q + q ** 2
        p, product = a - b * q + 2, one
        for m in range(7):
            assert p ** m == product
            product = product * p


class TestExactQuotient:
    def test_by_hand(self, abq):
        one, a, b, q = abq
        assert (a ** 2 - b ** 2).exact_quotient(a - b) == a + b
        assert (one - q ** 3).exact_quotient(one - q) == one + q + q ** 2
        assert Polynomial.zero(ABQ).exact_quotient(a - b) == Polynomial.zero(ABQ)

    def test_rational_leading_coefficient(self, abq):
        one, a, b, q = abq
        d = 3 * a - b
        p = (a * Fraction(1, 2) + q) * d
        assert p.exact_quotient(d) == a * Fraction(1, 2) + q
        assert (p * 2).exact_quotient(d * Fraction(2, 3)) == (a * Fraction(1, 2) + q) * 3

    def test_not_divisible(self, abq):
        one, a, b, q = abq
        assert (a ** 2 + b ** 2).exact_quotient(a - b) is None
        assert (a * b + one).exact_quotient(a) is None
        assert one.exact_quotient(one - q) is None

    def test_zero_divisor(self, abq):
        one, a, b, q = abq
        with pytest.raises(InvalidValueError):
            a.exact_quotient(Polynomial.zero(ABQ))


class TestFactoredFraction:
    def test_factored_forms_equal(self, abq):
        one, a, b, q = abq
        f = FactoredFraction(a ** 2 - b ** 2, [one - q ** 2])
        g = FactoredFraction((a - b) * (a + b), [one - q, one + q])
        assert frac_eq(f, g)

    def test_distinct_numerators(self, abq):
        one, a, b, q = abq
        f = FactoredFraction(a - b, [one - q])
        g = FactoredFraction(a + b, [one - q])
        assert not frac_eq(f, g)

    def test_geometric_sum(self, abq):
        one, a, b, q = abq
        f = FactoredFraction(one - q ** 3, [one - q])
        assert frac_eq(f, FactoredFraction(one + q + q ** 2))

    def test_zero_denominator_factor(self, abq):
        one, a, b, q = abq
        with pytest.raises(InvalidValueError):
            FactoredFraction(a, [Polynomial.zero(ABQ)])

    def test_sign_normalization(self, abq):
        one, a, b, q = abq
        f = FactoredFraction(a, [q - one])
        g = FactoredFraction(-a, [one - q])
        assert f == g
        assert f.denominator[0][0] == one - q

    def test_mixed_arithmetic_in_both_orders(self, abq):
        # A Polynomial operand defers to FactoredFraction's reflected
        # operators instead of reading the fraction as a polynomial.
        one, a, b, q = abq
        f = FactoredFraction(q, [one + q])
        assert frac_eq(q * f, f * q)
        assert frac_eq(q * f, FactoredFraction(q ** 2, [one + q]))
        assert frac_eq(q + f, f + q)
        assert frac_eq(q + f, FactoredFraction(2 * q + q ** 2, [one + q]))
        assert frac_eq(q - f, -(f - q))
        assert frac_eq(q - f, FactoredFraction(q ** 2, [one + q]))
        with pytest.raises(TypeError):
            q * "q"
        with pytest.raises(TypeError):
            q + "q"

    @pytest.mark.parametrize("kind", [Polynomial, FactoredFraction])
    def test_subtracting_an_unsupported_operand_is_a_type_error(self, abq, kind):
        # The operand's type is checked before it is negated, so the error
        # names the subtraction, in both orders.
        value = abq[3] if kind is Polynomial else FactoredFraction(abq[3])
        with pytest.raises(TypeError, match="for -: "):
            value - "x"
        with pytest.raises(TypeError, match="for -: "):
            "x" - value

    def test_a_flipped_factor_keeps_int_coefficients(self, abq, dense_only):
        # Flipping 1 - q's sign scales the numerator by -1, which stays an
        # int, so a dense product of the numerator still goes by rows.
        one, a, b, q = abq
        assert all(type(c) is int for _, c in FactoredFraction(one + q, [q - one]).numerator.items())
        num = FactoredFraction(geometric_sum(Q, "q", 20), [var(Q, "q") - 1]).numerator
        assert all(type(c) is int for _, c in num.items())
        assert num * num == geometric_sum(Q, "q", 20) ** 2

    def test_operands_are_coerced_alike(self, abq):
        # +, -, * and eq read an int, a Fraction or a Polynomial as a
        # fraction; any other operand is a TypeError for the operators and a
        # usage error for eq.
        one, a, b, q = abq
        f = FactoredFraction.one(Q)
        assert f.eq(1) and f.eq(Fraction(1)) and f.eq(Polynomial.one(Q))
        assert not f.eq(3) and not f.eq(Fraction(1, 2)) and not f.eq(var(Q, "q"))
        g = FactoredFraction(q, [one - q])
        for other in (2, Fraction(-1, 3), a - q):
            poly = other if isinstance(other, Polynomial) else Polynomial.constant(ABQ, other)
            value = FactoredFraction(poly)
            assert frac_eq(g + other, FactoredFraction.sum([g, value]))
            assert frac_eq(g - other, FactoredFraction.sum([g, -value]))
            assert frac_eq(other - g, FactoredFraction.sum([value, -g]))
            assert (g - other).eq(g + (-value))
        for bad in ("q", 1.0, None):
            with pytest.raises(UsageError, match=type(bad).__name__):
                f.eq(bad)
            with pytest.raises(TypeError):
                f + bad
            with pytest.raises(TypeError):
                f - bad
            with pytest.raises(TypeError):
                f * bad

    def test_constant_factors_fold(self, abq):
        one, a, b, q = abq
        f = FactoredFraction(a, [Polynomial.constant(ABQ, 2)])
        assert not f.denominator
        assert f.numerator == a * Fraction(1, 2)


class TestSubstitute:
    def test_complete_generator_on_geometric_alphabet(self, abq):
        # (a - b q)(a - b)/((1 - q)(1 - q^2)) at a=1, b=q^2 collapses to the
        # two-variable monomial sum 1 + q + q^2.
        one, a, b, q = abq
        h2 = FactoredFraction((a - b * q) * (a - b), [one - q, one - q ** 2])
        got = h2.substitute({"a": 1, "b": q ** 2})
        assert frac_eq(got, FactoredFraction(one + q + q ** 2))

    def test_equal_letters_vanish(self, abq):
        one, a, b, q = abq
        for n in (1, 2, 5):
            f = FactoredFraction(a ** n - b ** n, [one - q ** n])
            assert f.substitute({"b": a}).is_zero

    def test_cancellation_by_cross_multiplication(self):
        one = Polynomial.one(QT)
        q, t = var(QT, "q"), var(QT, "t")
        f = FactoredFraction(one - t, [one - q])
        got = f.substitute({"t": q})
        assert frac_eq(got, FactoredFraction.one(QT))

    def test_pole_error(self, abq):
        one, a, b, q = abq
        f = FactoredFraction(a, [one - q])
        with pytest.raises(PoleError):
            f.substitute({"q": 1})

    def test_fraction_binding_is_a_usage_error(self, abq):
        # Bindings are Polynomial, int or Fraction values, as for a
        # Polynomial: a fraction is never inverted on the way.
        one, a, b, q = abq
        f = FactoredFraction(a - b, [one - q])
        with pytest.raises(UsageError):
            f.substitute({"b": FactoredFraction(one, [q])})
        with pytest.raises(UsageError):
            f.substitute({"b": FactoredFraction(b)})

    def test_retarget(self, abq):
        one, a, b, q = abq
        f = FactoredFraction(one - q, [one - q ** 2])
        g = f.substitute({}, universe=QT)
        assert g.universe == QT
        assert frac_eq(
            g, FactoredFraction(Polynomial.one(QT) - var(QT, "q"),
                                [Polynomial.one(QT) - var(QT, "q", 2)])
        )


# -- property tests ----------------------------------------------------------

_coeffs = st.integers(min_value=-3, max_value=3)


@st.composite
def small_polys(draw, universe=("a", "q"), max_degree=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_degree))
            for _ in universe
        )
        terms[exps] = draw(_coeffs)
    return Polynomial(universe, terms)


@st.composite
def nonzero_polys(draw, universe=("a", "q")):
    p = draw(small_polys(universe))
    if p.is_zero:
        p = p + Polynomial.one(universe)
    return p


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def _stored_right(p):
    """No coefficient is an integral Fraction, and a polynomial known to
    be int-valued is."""
    coeffs = [c for _, c in p.items()]
    assert all(type(c) is int or c.denominator > 1 for c in coeffs)
    assert p._ints in (None, all(type(c) is int for c in coeffs))


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), nonzero_polys(),
       st.sampled_from([2, -1, Fraction(1, 2), Fraction(-2, 3)]))
def test_results_store_no_integral_fraction(p, q, d, c):
    # Halves add, multiply and scale to integers.
    p, q = p * Fraction(1, 2), q * c
    image = Polynomial.monomial(p.universe, {"a": 1}, c)
    for r in (p + q, p - q, -q, p * q, q * p, p * c, p ** 3,
              p.substitute({"a": c}), p.substitute({"q": image}),
              (p * d).exact_quotient(d), (q * d).exact_quotient(d * c)):
        _stored_right(r)


@settings(max_examples=60, deadline=None)
@given(small_polys(), nonzero_polys())
def test_exact_quotient_inverts_multiplication(p, d):
    assert (p * d).exact_quotient(d) == p


@settings(max_examples=60, deadline=None)
@given(small_polys(), nonzero_polys(), st.integers(min_value=1, max_value=5))
def test_exact_quotient_refuses_a_remainder(p, d, c):
    # A nonzero constant remainder is never a multiple of a non-constant d.
    if d.is_constant():
        d = d + Polynomial.variable(d.universe, "q")
    assert (p * d + c).exact_quotient(d) is None


@settings(max_examples=40, deadline=None)
@given(nonzero_polys(), nonzero_polys(), nonzero_polys(), nonzero_polys())
def test_frac_eq_is_an_equivalence(num, den, s, t):
    # Three fractions sharing one value: f, f*(s/s), f*(t/t).
    f = FactoredFraction(num, [den])
    g = FactoredFraction(num * s, [den, s])
    h = FactoredFraction(num * t, [den, t])
    assert frac_eq(f, f)
    assert frac_eq(f, g) and frac_eq(g, f)
    assert frac_eq(g, h) and frac_eq(f, h)


def _loop_eq(f, g):
    """Cross-multiplication as the kernel once wrote it, the reference for
    the lift over the lcm: cancel the common factor powers, then multiply
    each numerator by the other's remaining factor powers one at a time."""
    mine, theirs = dict(f.denominator), dict(g.denominator)
    for h in set(mine) & set(theirs):
        m = min(mine[h], theirs[h])
        mine[h] -= m
        theirs[h] -= m
    lhs, rhs = f.numerator, g.numerator
    for h, m in theirs.items():
        if m:
            lhs = lhs * h ** m
    for h, m in mine.items():
        if m:
            rhs = rhs * h ** m
    return lhs == rhs


@st.composite
def fraction_pairs(draw):
    """Two fractions over one pool of factors, each factor at its own
    multiplicity on each side; the second is an independent draw, the first
    times h^k / h^k for pool factors h, or that scaled by a constant.
    Numerators may be zero or constant."""
    pool = [p for p in draw(st.lists(nonzero_polys(), max_size=4)) if not p.is_constant()]
    multiplicity = st.integers(min_value=0, max_value=3)
    numerators = st.one_of(small_polys(), _coeffs.map(lambda c: Polynomial.constant(("a", "q"), c)))

    def fraction():
        den = [(h, m) for h in pool if (m := draw(multiplicity))]
        return FactoredFraction(draw(numerators), den)

    f = fraction()
    kind = draw(st.sampled_from(["independent", "equal", "scaled"]))
    if kind == "independent":
        return f, fraction(), None
    extra = [(h, m) for h in pool if (m := draw(multiplicity))]
    num = f.numerator
    for h, m in extra:
        num = num * h ** m
    g = FactoredFraction(num, list(f.denominator) + extra)
    if kind == "equal":
        return f, g, True
    return f, g * draw(st.sampled_from([2, -1, Fraction(1, 3)])), f.is_zero


@settings(max_examples=150, deadline=None)
@given(fraction_pairs())
def test_eq_is_the_loop_cross_multiplication(pair):
    f, g, equal = pair
    assert f.eq(g) == _loop_eq(f, g)
    assert g.eq(f) == _loop_eq(g, f)
    assert f.eq(f) and g.eq(g)
    if equal is not None:
        assert f.eq(g) == equal


def _substitute_reference(p, bindings, target):
    """Sum of c * prod v_i^e_i, built with the ring operations."""
    total = Polynomial.zero(target)
    for exps, c in p.items():
        term = Polynomial.constant(target, c)
        for name, e in zip(p.universe, exps):
            image = bindings[name] if name in bindings else var(target, name)
            term = term * image ** e
        total = total + term
    return total


SOURCE = ("a", "q")
WIDE = ("a", "q", "t")
# Substitution onto a new universe, and onto the source universe itself,
# where each term starts from its own key.
TARGETS = st.sampled_from((WIDE, SOURCE))


@st.composite
def polynomial_bindings(draw):
    # Images of zero terms and of one, and int and Fraction constants; a
    # variable left out is unbound.
    target = draw(TARGETS)
    image = st.one_of(
        small_polys(target, max_degree=2, max_terms=1),
        _coeffs,
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )
    names = draw(st.lists(st.sampled_from(SOURCE), unique=True))
    return target, {name: draw(image) for name in names}


@settings(max_examples=100, deadline=None)
@given(small_polys(), polynomial_bindings())
@example(
    Polynomial(SOURCE, {(3, 1): 1}), (WIDE, {"a": Polynomial(WIDE, {(0, 0, 1): 2})})
)
@example(
    Polynomial(SOURCE, {(3, 1): 1, (1, 2): -1}), (SOURCE, {"a": Polynomial(SOURCE, {(0, 1): 2})})
)
@example(Polynomial(SOURCE, {(3, 1): 4, (0, 2): 1}), (SOURCE, {"a": Fraction(1, 2)}))
def test_substitute_matches_ring_operations(p, case):
    target, bindings = case
    assert p.substitute(bindings, universe=target) == _substitute_reference(
        p, bindings, target
    )


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_substitute_round_trips_through_a_wider_universe(p):
    wide = p.substitute({}, universe=("t",) + WIDE)
    assert wide.universe == ("t",) + WIDE
    assert wide.substitute({}, universe=p.universe) == p


@pytest.mark.parametrize("terms", [2, 3])
@pytest.mark.parametrize("kind", [Polynomial, FactoredFraction])
def test_a_binding_of_several_terms_is_refused(abq, terms, kind):
    # Substitution is a monomial map: a longer image is a usage error that
    # names the variable, raised before any term is visited, also for a
    # zero value and for a fraction, whose numerator's substitution checks.
    one, a, b, q = abq
    image = sum((var(ABQ, "q", k) for k in range(terms)), Polynomial.zero(ABQ))
    values = [a - b * q, Polynomial.zero(ABQ)]
    if kind is FactoredFraction:
        values = [FactoredFraction(v, [one - q]) for v in values]
    for value in values:
        for bindings in ({"b": image}, {"a": 1, "b": image}):
            with pytest.raises(UsageError, match="'b'"):
                value.substitute(bindings)


def test_substitute_drops_only_absent_variables(abq):
    one, a, b, q = abq
    assert (a * q + 2).substitute({}, universe=("q", "a")) == Polynomial(
        ("q", "a"), {(1, 1): 1, (0, 0): 2}
    )
    with pytest.raises(UsageError):
        (a * b).substitute({}, universe=("q", "a"))
    # A fraction follows the same rule in its numerator and its factors.
    got = FactoredFraction(a * q, [one - q]).substitute({}, universe=("q", "a"))
    expected = FactoredFraction(
        Polynomial(("q", "a"), {(1, 1): 1}), [Polynomial(("q", "a"), {(0, 0): 1, (1, 0): -1})]
    )
    assert got == expected
    with pytest.raises(UsageError):
        FactoredFraction(a * b, [one - q]).substitute({}, universe=("q", "a"))
    with pytest.raises(UsageError):
        FactoredFraction(a, [one - b]).substitute({}, universe=("q", "a"))


# -- packed keys at the field boundary ---------------------------------------
#
# The kernel packs each monomial into one int with 16-bit fields and widens
# to 32, 64, ... bits once a degree reaches 2^15.  These tests compare it
# with a dense-tuple reference on exponents drawn around those widths.


def _dense_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _dense_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = _dense_add(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2})
    return out


def _dense_pow(a, e, width):
    # The e-th power of an image of at most one term.
    if not a:
        return {} if e else {(0,) * width: 1}
    ((exps, c),) = a.items()
    return {tuple(x * e for x in exps): c ** e}


def _dense_substitute(p, images, width):
    out = {}
    for exps, c in p.items():
        term = {(0,) * width: c}
        for image, e in zip(images, exps):
            term = _dense_mul(term, _dense_pow(image, e, width))
        out = _dense_add(out, term)
    return out


_boundary_exponents = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2 ** 15 - 3, max_value=2 ** 15 + 2),
    st.integers(min_value=2 ** 16 - 3, max_value=2 ** 16 + 2),
    st.integers(min_value=2 ** 31 - 2, max_value=2 ** 31 + 1),
)


@st.composite
def boundary_polys(draw, universe=("a", "q"), max_terms=3, coeffs=_coeffs):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        terms[tuple(draw(_boundary_exponents) for _ in universe)] = draw(coeffs)
    return Polynomial(universe, terms)


def _same(p, dense):
    # Equal to the polynomial built from dense tuples, with the same hash:
    # a result that widened and shrank back keys like a fresh one.
    fresh = Polynomial(p.universe, dense)
    return p == fresh and hash(p) == hash(fresh) and dict(p.items()) == dense


@settings(max_examples=150, deadline=None)
@given(boundary_polys(), boundary_polys())
def test_packed_sum_and_product_match_dense_tuples(p, q):
    a, b = dict(p.items()), dict(q.items())
    assert _same(p + q, _dense_add(a, b))
    assert _same(p - q, _dense_add(a, {e: -c for e, c in b.items()}))
    assert _same(p * q, _dense_mul(a, b))
    assert _same((p + q) - q, a)


@settings(max_examples=150, deadline=None)
@given(boundary_polys(), boundary_polys())
def test_packed_quotient_matches_dense_tuples(p, d):
    if d.is_zero:
        d = d + 1
    product = Polynomial(p.universe, _dense_mul(dict(p.items()), dict(d.items())))
    assert _same(product.exact_quotient(d), dict(p.items()))
    if not d.is_constant():
        assert (product + 1).exact_quotient(d) is None


def _dense_sort_key(p):
    return tuple(
        (sum(e), tuple(-x for x in e), Fraction(c).numerator, Fraction(c).denominator)
        for e, c in p.items()
    )


@settings(max_examples=150, deadline=None)
@given(boundary_polys(), boundary_polys())
@example(
    Polynomial(("a", "q"), {(0, 1): 1, (40000, 0): 1}), Polynomial(("a", "q"), {(1, 0): 1})
)
def test_packed_sort_key_orders_like_dense_tuples(p, q):
    # Denominator factors are sorted by sort_key, also across widths.
    assert (p.sort_key() < q.sort_key()) == (_dense_sort_key(p) < _dense_sort_key(q))


@st.composite
def boundary_substitutions(draw):
    # Images of at most one term at any exponent, with coefficient +-1 lest
    # c^(2^31) be computed.  An image of high degree makes the result wider
    # than the source.
    target = draw(TARGETS)
    p = draw(boundary_polys())
    image = boundary_polys(target, max_terms=1, coeffs=st.sampled_from((1, -1)))
    return p, target, {name: draw(image) for name in draw(st.sets(st.sampled_from(SOURCE)))}


@settings(max_examples=200, deadline=None)
@given(boundary_substitutions())
@example((Polynomial(SOURCE, {(2 ** 15 - 1, 1): 1}), SOURCE, {"a": var(SOURCE, "a", 2)}))
@example((Polynomial(SOURCE, {(2 ** 16, 3): -1, (1, 0): 1}), SOURCE, {"q": var(SOURCE, "a")}))
def test_packed_substitution_matches_dense_tuples(case):
    p, target, bindings = case
    images = [
        dict(bindings[name].items()) if name in bindings else {
            tuple(int(v == name) for v in target): 1
        }
        for name in p.universe
    ]
    assert _same(
        p.substitute(bindings, universe=target), _dense_substitute(p, images, len(target))
    )


def test_cancellation_shrinks_the_width_back():
    x = var(("x",), "x", 40000)
    one = Polynomial.one(("x",))
    assert (x + 1) - x == one
    assert hash((x + 1) - x) == hash(one)
    assert ((x + 1) * (x - 1)).exact_quotient(x + 1) == x - 1
    assert ((x + 1) * (x - 1)).exact_quotient(x + 1).text() == "-1 + x^40000"
    assert (x * x).substitute({"x": var(("x",), "x", 2)}).text() == "x^160000"


@pytest.mark.parametrize("n", range(11))
def test_geometric_sum_matches_the_addition_loop(n):
    for name in ABQ:
        expected = Polynomial.zero(ABQ)
        for k in range(n):
            expected = expected + var(ABQ, name, k)
        got = geometric_sum(ABQ, name, n)
        assert got == expected
        assert got.text() == expected.text()


# -- the dense path: rows of Kronecker ints ------------------------------------
#
# Products in a universe holding q, with int coefficients, that are dense go
# by rows: each factor is split by its monomial in the other variables, and
# each row is one int at a power of two.  The oracle is the term pair loop,
# through this module's own import of _mul_terms; a test that replaces the
# kernel's binding with one that refuses proves that the product under test
# took the dense path.

XQY = ("x", "q", "y")


def _schoolbook(a, b):
    degree = a._total_degree() + b._total_degree()
    w = _width_for(degree)
    return Polynomial._raw(a.universe, _mul_terms(a._at(w), b._at(w), {}), w, degree)


def _schoolbook_power(a, m):
    out = Polynomial.one(a.universe)
    for _ in range(m):
        out = _schoolbook(out, a)
    return out


def _q(coeffs, low=0):
    return Polynomial(Q, {(low + i,): c for i, c in enumerate(coeffs)})


def _lift(p, universe, rest=()):
    """The one-variable p over ``universe``, times the monomial ``rest``
    (a dict of exponents) in its other variables; built without a product."""
    rest = dict(rest)
    at = universe.index("q")
    terms = {}
    for (e,), c in p.items():
        exps = [rest.get(v, 0) for v in universe]
        exps[at] += e
        terms[tuple(exps)] = c
    return Polynomial(universe, terms)


def _other(universe):
    return next(v for v in universe if v != "q")


def _refuse(*args):
    raise AssertionError("a dense product went through _mul_terms")


@pytest.fixture
def dense_only(monkeypatch):
    monkeypatch.setattr(algebra, "_mul_terms", _refuse)


@pytest.fixture
def schoolbook_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[0]) * len(args[1]))
        return _mul_terms(*args)

    monkeypatch.setattr(algebra, "_mul_terms", counted)
    return calls


def _same_as(got, expected):
    return got == expected and hash(got) == hash(expected) and got.text() == expected.text()


@pytest.mark.parametrize("seed", range(6))
def test_dense_product_matches_the_term_pair_loop(dense_only, seed):
    # Signed coefficients from a narrow range cancel in many slots; lowest
    # exponents above 0 leave empty slots below.
    rng = Random(seed)
    for _ in range(20):
        spread = rng.choice((2, 100, 2 ** 40))
        a, b = (
            _q([rng.randint(-spread, spread) or 1 for _ in range(rng.randint(16, 40))],
               rng.randint(0, 3))
            for _ in range(2)
        )
        assert _same_as(a * b, _schoolbook(a, b))
        assert _same_as(a ** 3, _schoolbook_power(a, 3))


def test_dense_product_cancels_to_zero_slots(dense_only):
    plus = _schoolbook_power(_q([1, 1]), 16)
    minus = _schoolbook_power(_q([1, -1]), 16)
    got = plus * minus  # (1 - q^2)^16: every odd slot cancels
    assert got == _schoolbook_power(_q([1, 0, -1]), 16)
    assert [e for (e,), _ in got.items()] == list(range(0, 33, 2))


def _random_rows(rng, universe, rows, spread):
    """A polynomial of ``rows`` dense rows in q, each of 16 to 30 signed
    terms from a lowest exponent of 0 to 3, at distinct monomials of the
    other variables."""
    others = [v for v in universe if v != "q"]
    out = Polynomial.zero(universe)
    for rest in rng.sample([(i, j) for i in range(3) for j in range(3)], rows):
        row = _q([rng.randint(-spread, spread) or 1 for _ in range(rng.randint(16, 30))],
                 rng.randint(0, 3))
        out = out + _lift(row, universe, dict(zip(others, rest)))
    return out


@pytest.mark.parametrize("universe", [QT, ABQ, XQY])
@pytest.mark.parametrize("seed", range(4))
def test_row_product_matches_the_term_pair_loop(dense_only, universe, seed):
    rng = Random(seed)
    for _ in range(8):
        spread = rng.choice((2, 100, 2 ** 40))
        a, b = (_random_rows(rng, universe, rng.randint(1, 3), spread) for _ in range(2))
        assert _same_as(a * b, _schoolbook(a, b))


@pytest.mark.parametrize("universe", [QT, ABQ, XQY])
def test_row_product_cancels_whole_rows(dense_only, universe):
    # (X + v Y)(X - v Y) = X^2 - v^2 Y^2: the row of v^1 cancels to zero.
    rng = Random(7)
    v = _other(universe)
    x, y = (_q([rng.randint(-9, 9) or 1 for _ in range(24)], 2) for _ in range(2))
    a = _lift(x, universe) + _lift(y, universe, {v: 1})
    b = _lift(x, universe) - _lift(y, universe, {v: 1})
    got = a * b
    assert _same_as(got, _schoolbook(a, b))
    expected = _lift(_schoolbook(x, x), universe) - _lift(_schoolbook(y, y), universe, {v: 2})
    assert _same_as(got, expected)


def _near(norm, sign):
    # Sixteen terms of l1 norm ``norm`` with a dominant first coefficient,
    # so that a product coefficient comes near the product of the norms.
    return _q([sign * (norm - 15)] + [sign, -sign] * 7 + [sign])


@pytest.mark.parametrize(
    "bits, below, above", [(7, 1, 2), (15, 2, 4), (31, 4, 8), (63, 8, 9), (100, 13, 13)]
)
def test_slot_size_on_both_sides_of_each_width(bits, below, above):
    assert _slot_size(2 ** bits - 1) == below
    assert _slot_size(2 ** bits) == above


def test_no_dense_product_has_one_byte_slots():
    # Unit coefficients make the bound |a|_1 |b|_1 the number of term pairs,
    # and one contiguous row each is the cheapest case of the rule.  It
    # refuses every such product below 13 x 13 = 169 pairs, so every
    # product whose bound is below 2^7.
    for la in range(1, 17):
        for lb in range(1, 17):
            if la * lb < 169:
                a, b = _q([(-1) ** i for i in range(la)]), _q([1] * lb)
                assert _row_product(a.terms, b.terms, 1, 0, a._width) is None, (la, lb)


@pytest.mark.parametrize("bits", [7, 15, 31, 63, 100])
def test_dense_product_at_each_slot_width(request, bits):
    # Norms multiplying to just below and just above 2^bits.  Powers of a
    # short row and of one term, whose bound |c|^m they reach exactly, go
    # term pair by term pair and are checked by value.  A dense product has
    # at least the rule's floor of term pairs, more than norms below 2^7
    # allow, so products start at 2^15 and must take the rows.  The lifted
    # products are one row at a monomial other than 1, and the two-row ones
    # split each norm in two.
    root = isqrt(2 ** bits - 1)
    norms = (root, root + 1)
    for norm in norms:
        for sign in (1, -1):
            short = _q([sign * (norm - 3), sign, -sign, sign])
            assert _same_as(short ** 2, _schoolbook_power(short, 2))
        for c in (norm - 3, 3 - norm):
            assert _same_as(_q([c], 3) ** 2, Polynomial(Q, {(6,): c * c}))
    for c in (2, -2):
        assert _same_as(Polynomial.constant(Q, c) ** bits, Polynomial.constant(Q, c ** bits))
    if bits < 15:
        return
    request.getfixturevalue("dense_only")
    for norm in norms:
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a, b = _near(norm, sa), _near(norm, sb)
            assert _same_as(a * b, _schoolbook(a, b))
            assert _same_as(a ** 2, _schoolbook(a, a))
            for universe in (QT, ABQ, XQY):
                t = _other(universe)
                la, lb = _lift(a, universe, {t: 2}), _lift(b, universe)
                assert _same_as(la * lb, _schoolbook(la, lb))
                half = norm // 2
                ra = _lift(_near(half, sa), universe) + _lift(_near(norm - half, sa), universe, {t: 1})
                rb = _lift(_near(half, sb), universe, {t: 3}) + _lift(_near(norm - half, sb), universe)
                assert _same_as(ra * rb, _schoolbook(ra, rb))


def test_a_fraction_coefficient_falls_back_to_the_term_pair_loop(schoolbook_calls):
    a = _q([Fraction(1, 2)] + [1] * 19)
    b = _q([3, -1] * 10)
    assert _same_as(a * b, _schoolbook(a, b))
    assert _same_as(a ** 2, _schoolbook(a, a))
    # a * b, then a ** 2 by squaring: a * a alone.
    assert schoolbook_calls == [400, 400]
    ra, rb = _lift(a, QT) + _lift(b, QT, {"t": 1}), _lift(b, QT)
    schoolbook_calls.clear()
    assert _same_as(ra * rb, _schoolbook(ra, rb))
    assert schoolbook_calls == [800]


def test_an_integral_fraction_is_stored_as_an_int(request):
    # Sums, products, substitutions and quotients of rational coefficients
    # that come out integral keep them as ints, so that a later dense
    # product of the result takes the rows.
    half = Fraction(1, 2)
    q = var(Q, "q")
    small = (
        Polynomial.constant(Q, half) + Polynomial.constant(Q, half),
        (q * half + 1) * Polynomial.constant(Q, 2),
        (q * half + 1).substitute({"q": 2}),
    )
    assert [p.text() for p in small] == ["1", "2 + q", "2"]
    # The remainder's q^2 term, 1/2 + 1/2, becomes the quotient's q term.
    quotient = _q([0, -1, half, half]).exact_quotient(q - 1)
    assert quotient == _q([0, 1, half])
    assert type(dict(quotient.items())[(1,)]) is int
    halves = _q([half] * 20, 1)
    dense = (
        halves + halves,
        halves * Polynomial.constant(Q, 2),
        halves.substitute({"q": var(Q, "q") * 2}),
    )
    for p in small + dense:
        _stored_right(p)
    request.getfixturevalue("dense_only")
    for p in dense:
        assert _same_as(p * p, _schoolbook(p, p))


def test_sparse_and_multivariate_products_stay_on_the_term_pair_loop(schoolbook_calls):
    sparse = Polynomial(Q, {(100 * i,): 1 for i in range(40)})
    _q([1] * 40) * sparse  # 1,600 pairs over 3,940 slots
    _q([1] * 12) * _q([1] * 12)  # 144 pairs under 16 + 3 * 47
    # One term per row: 400 row pairs.
    geometric_sum(QT, "t", 20) * geometric_sum(QT, "t", 20)
    # No q at all.
    geometric_sum(("x", "y"), "x", 20) * geometric_sum(("x", "y"), "x", 20)
    assert schoolbook_calls == [1600, 144, 400, 400]


def test_the_dense_rule_at_its_edge(schoolbook_calls):
    # One row of 13 terms squared: 169 pairs against 16 + 3 * (13 + 13 + 25).
    g = _q([1] * 13)
    assert _same_as(g * g, _schoolbook(g, g))
    assert schoolbook_calls == []


def test_a_far_q_power_keeps_a_product_on_the_term_pair_loop(schoolbook_calls):
    # 41 x 80 pairs, but one row spans 10^9 + 1 slots: the count refuses
    # the row path before any int is built, so this finishes at once.
    far = geometric_sum(QT, "q", 40) + var(QT, "q", 10 ** 9)
    g = geometric_sum(QT, "q", 40) + _lift(_q([1] * 40), QT, {"t": 1})
    got = far * g
    assert schoolbook_calls == [41 * 80]
    assert _same_as(got, _schoolbook(far, g))
    # A power of a sparse row goes by repeated products: p * p alone.
    sparse = 1 - var(Q, "q", 10 ** 9)
    schoolbook_calls.clear()
    assert _same_as(sparse ** 2, _schoolbook(sparse, sparse))
    assert schoolbook_calls == [4]


def test_a_two_term_factor_keeps_a_product_on_the_term_pair_loop(schoolbook_calls):
    # 20 dense rows of 30 terms: 1,200 term pairs with either short factor.
    rng = Random(3)
    big = Polynomial.zero(QT)
    for j in range(20):
        big = big + _lift(_q([rng.randint(-99, 99) or 1 for _ in range(30)]), QT, {"t": j})
    for short in (1 - var(QT, "q", 5), var(QT, "q", 2) - var(QT, "t")):
        schoolbook_calls.clear()
        assert _same_as(big * short, _schoolbook(big, short))
        assert schoolbook_calls == [2 * len(big.items())]


def test_an_overflowing_slot_raises_inside_the_error_taxonomy(monkeypatch):
    # With one-byte slots forced, the top coefficient 100 * 100 of the
    # product outgrows the value's last slot.
    monkeypatch.setattr(algebra, "_slot_size", lambda bound: 1)
    a = _q([100] * 20)
    for product in (lambda: a * a, lambda: a ** 2, lambda: _lift(a, QT) * _lift(a, QT)):
        with pytest.raises(InternalConsistencyError, match="outgrew"):
            product()


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 16, 17])
def test_small_powers(m):
    # Odd exponents take the squaring loop's result * base steps.
    p = _q([3, -1, 4, 1, -5, 9, 2, -6], 2)
    assert _same_as(p ** m, _schoolbook_power(p, m))


def test_a_degree_past_16_bit_fields_against_the_closed_form(dense_only):
    # [20000]_q has degree 19,999; its square has degree 39,998 and 32-bit
    # fields, and coefficient min(k + 1, 39,999 - k) at q^k.
    g = geometric_sum(Q, "q", 20000)
    for square in (g ** 2, g * g):
        items = square.items()
        assert len(items) == 39999
        assert all(c == min(k + 1, 39999 - k) for (k,), c in items)
    assert (g ** 2)._width == 32


# -- the merge tree of FactoredFraction.sum -----------------------------------


def _flat_sum(items, universe=None):
    """FactoredFraction.sum by one flat loop: items sharing a denominator
    are added numerator-first, then each bucket's numerator is multiplied by
    every factor power it lacks against the common denominator, one factor
    at a time."""
    items = list(items)
    if not items:
        return FactoredFraction.zero(universe)
    buckets = {}
    for it in items:
        if not it.is_zero:
            cur = buckets.get(it.denominator)
            buckets[it.denominator] = it.numerator if cur is None else cur + it.numerator
    common = {}
    for den in buckets:
        for f, m in den:
            common[f] = max(common.get(f, 0), m)
    total = Polynomial.zero(items[0].universe)
    for den, num in buckets.items():
        have = dict(den)
        for f, m in common.items():
            if m > have.get(f, 0):
                num = num * f ** (m - have.get(f, 0))
        total = total + num
    return FactoredFraction(total, common.items())


def _random_poly(rng, universe, terms, coeffs, top):
    return Polynomial(
        universe,
        {tuple(rng.randint(0, top) for _ in universe): rng.choice(coeffs) for _ in range(terms)},
    )


def _random_items(rng, universe):
    """1 to 12 fractions over a pool of about 6 factors, with multiplicities
    1 to 3, int and Fraction coefficients, some sharing a denominator."""
    pool = []
    while len(pool) < 6:
        f = _random_poly(rng, universe, rng.randint(2, 3), (1, -1, 2, -3), 1)
        if not f.is_constant():
            pool.append(f)
    coeffs = (1, -1, 2, -5, Fraction(1, 2), Fraction(-3, 4))
    items = []
    for _ in range(rng.randint(1, 12)):
        if items and rng.random() < 0.3:
            den = rng.choice(items).denominator
        else:
            den = [(f, rng.randint(1, 3)) for f in rng.sample(pool, rng.randint(0, 4))]
        items.append(FactoredFraction(_random_poly(rng, universe, rng.randint(1, 4), coeffs, 2), den))
    return items


def _same_fraction(got, expected):
    return got == expected and got.text() == expected.text() and hash(got) == hash(expected)


@pytest.mark.parametrize("universe", [QT, ("x1", "x2", "y1")])
@pytest.mark.parametrize("seed", range(40))
def test_tree_sum_matches_the_flat_loop(universe, seed):
    items = _random_items(Random(seed), universe)
    got = FactoredFraction.sum(items)
    assert _same_fraction(got, _flat_sum(items))
    assert frac_eq(got, sum(items[1:], start=items[0]))


def test_a_sum_that_cancels_is_zero():
    one, q, t = Polynomial.one(QT), var(QT, "q"), var(QT, "t")
    items = [
        FactoredFraction(q, [one - q]),
        FactoredFraction(t, [(one + t, 2), one - q]),
        -FactoredFraction(q, [one - q]),
        FactoredFraction(-t, [one - q, (one + t, 2)]),
    ]
    got = FactoredFraction.sum(items)
    assert _same_fraction(got, _flat_sum(items))
    assert got == FactoredFraction.zero(QT) and got.denominator == ()


def test_a_cancelled_bucket_keeps_its_factor_in_the_denominator():
    # Only the cancelled bucket carries 1 + t; the common denominator still
    # holds it, so the sum is q (1 + t) / ((1 - q)(1 + t)).
    one, q, t = Polynomial.one(QT), var(QT, "q"), var(QT, "t")
    items = [
        FactoredFraction(q, [one - q]),
        FactoredFraction(t, [one - q, one + t]),
        FactoredFraction(-t, [one - q, one + t]),
    ]
    got = FactoredFraction.sum(items)
    assert _same_fraction(got, _flat_sum(items))
    assert got == FactoredFraction(q * (one + t), [one - q, one + t])


@pytest.mark.parametrize("n", range(1, 5))
def test_symmetrized_sides_match_the_peel_with_the_flat_loop(monkeypatch, n):
    from qmono import identities

    tree = {side: identities.symmetrized_side(n, side) for side in identities.SIDES}
    monkeypatch.setattr(FactoredFraction, "sum", staticmethod(_flat_sum))
    for side in identities.SIDES:
        assert _same_fraction(tree[side], identities._symmetrized.__wrapped__(side, n))


# -- small-operand fast paths ---------------------------------------------------
#
# Monomials pack their one key directly, sort keys are cached, text reads
# exponents by field shifts, and fractions built from normalized factors
# skip re-normalization.  Each is compared with the general route.


def _text_reference(p):
    """Polynomial.text by unpacking each key into its exponent tuple."""
    if not p.terms:
        return "0"
    n, w = len(p.universe), p._width
    pieces = []
    for k in p._canonical():
        c = p.terms[k]
        e = _unpack(k, n, w)
        neg = c < 0
        mag = -c if neg else c
        body = []
        if mag != 1 or not k:
            body.append(str(mag))
        for name, x in zip(p.universe, e):
            if x == 1:
                body.append(name)
            elif x > 1:
                body.append(f"{name}^{x}")
        s = " * ".join(body)
        if not pieces:
            pieces.append(f"-{s}" if neg else s)
        else:
            pieces.append(f" - {s}" if neg else f" + {s}")
    return "".join(pieces)


def _sort_key_reference(p):
    """Polynomial.sort_key computed afresh as a tuple of per-term tuples,
    with a Fraction per term."""
    n, w = len(p.universe), p._width
    out = []
    for k in p._canonical():
        c = Fraction(p.terms[k])
        degree = k >> (n * w)
        if w > 16:
            k = algebra._pack(_unpack(k, n, w), _width_for(degree))
        out.append((degree, -k, c.numerator, c.denominator))
    return tuple(out)


def _flat(key):
    return tuple(x for term in key for x in term)


_FAST_COEFFS = (1, -1, 2, -7, 10 ** 20, Fraction(1, 2), Fraction(-3, 4))


def _fast_poly(rng, n, terms):
    """Up to ``terms`` terms in n variables, some of them at exponents that
    need 32- or 64-bit fields."""
    universe = tuple(f"x{i}" for i in range(1, n)) + ("q",)
    out = {}
    for _ in range(terms):
        wide = rng.random() < 0.2
        exps = tuple(
            rng.choice((2 ** 15 + 1, 2 ** 31 + 2)) if wide and rng.random() < 0.5
            else rng.randint(0, 3)
            for _ in range(n)
        )
        out[exps] = rng.choice(_FAST_COEFFS)
    return Polynomial(universe, out)


@pytest.mark.parametrize("degree, width", [(3, 16), (2 ** 15, 32), (2 ** 31, 64), (2 ** 63, 128)])
@pytest.mark.parametrize("coeff", [1, -3, Fraction(3, 4), Fraction(4, 2), 0, Fraction(0)])
def test_monomial_matches_the_general_constructor(degree, width, coeff):
    for universe in (Q, QT, ABQ):
        for at, name in enumerate(universe):
            single = [0] * len(universe)
            single[at] = degree
            mixed = list(single)
            mixed[0] += 1
            for got, exps in (
                (Polynomial.variable(universe, name, degree, coeff), single),
                (Polynomial.monomial(universe, {name: degree}, coeff), single),
                (Polynomial.monomial(universe, dict(zip(universe, mixed)), coeff), mixed),
            ):
                expected = Polynomial(universe, {tuple(exps): coeff})
                assert got.terms == expected.terms
                assert [type(c) for c in got.terms.values()] == [
                    type(c) for c in expected.terms.values()
                ]
                assert got._width == expected._width == (width if coeff else 16)
                assert got._degree == expected._degree
                assert hash(got) == hash(expected)
                assert got.text() == expected.text()


@pytest.mark.parametrize("seed", range(12))
def test_text_matches_the_unpacking_reference(seed):
    rng = Random(seed)
    for n in range(1, 9):
        p = _fast_poly(rng, n, rng.randint(0, 8))
        for r in (p, -p, p * p, p * Fraction(-2, 3)):
            assert r.text() == _text_reference(r)


def _shifted_text(p):
    """Polynomial.text as it was before the monomial table: each exponent
    read from its field by a shift, term by term."""
    if not p.terms:
        return "0"
    n, w = len(p.universe), p._width
    mask = (1 << w) - 1
    fields = [(name, w * (n - 1 - i)) for i, name in enumerate(p.universe)]
    pieces = []
    for k in p._canonical():
        c = p.terms[k]
        neg = c < 0
        mag = -c if neg else c
        body = []
        if mag != 1 or not k:
            body.append(str(mag))
        for name, shift in fields:
            x = (k >> shift) & mask
            if x == 1:
                body.append(name)
            elif x > 1:
                body.append(f"{name}^{x}")
        s = " * ".join(body)
        if not pieces:
            pieces.append(f"-{s}" if neg else s)
        else:
            pieces.append(f" - {s}" if neg else f" + {s}")
    return "".join(pieces)


_TEXT_COEFFS = (1, -1, 3, -4, 10 ** 20, -(10 ** 20), Fraction(1, 2), Fraction(-7, 3))
# 40,000 and 70,000 need 32-bit fields, 2^31 64-bit ones.
_TEXT_EXPONENTS = (40_000, 70_000, 2 ** 31)


def test_the_table_text_is_the_shifted_text():
    rng = Random(5)
    widths = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        universe = ("a", "b", "q", "t", "x")[:n]
        terms = {}
        for _ in range(rng.randint(0, 10)):
            exps = tuple(
                rng.choice(_TEXT_EXPONENTS) if rng.random() < 0.1 else rng.randint(0, 3)
                for _ in universe
            )
            terms[exps] = rng.choice(_TEXT_COEFFS)
        if rng.random() < 0.5:
            terms[(0,) * n] = rng.choice(_TEXT_COEFFS)
        p = Polynomial(universe, terms)
        widths.add(p._width)
        for r in (p, -p, p * Fraction(3, 2)):
            assert r.text() == _shifted_text(r)
    assert widths == {16, 32, 64}


def test_the_table_text_of_a_cap_edge_numerator_and_the_table_bound(cold_memos):
    # 18,696 terms, more distinct monomials than a table holds, so the
    # table of (a, b, q) at width 16 empties itself while formatting.
    from qmono.partitions import Partition
    from qmono.specialize import monomial_spec

    numerator = monomial_spec(Partition((13, 6, 5, 4, 3, 2, 1))).value.numerator
    assert len(numerator.terms) > algebra._TEXT_TABLE_BOUND
    assert numerator.text() == _shifted_text(numerator)
    assert 0 < len(algebra._monomial_texts(ABQ, 16)) <= algebra._TEXT_TABLE_BOUND


@pytest.mark.parametrize("seed", range(12))
def test_a_cached_sort_key_equals_a_fresh_one(seed):
    # Every route to a polynomial starts with no key, even from an operand
    # whose key is already cached.
    rng = Random(seed)
    for n in range(1, 9):
        p, r = _fast_poly(rng, n, rng.randint(1, 6)), _fast_poly(rng, n, rng.randint(1, 3))
        assert p.sort_key() == _flat(_sort_key_reference(p))
        assert p.sort_key() is p.sort_key()
        derived = [-p, p * 3, p * Fraction(1, 2), p + r, p - p, p * r, p ** 2,
                   p.substitute({}), Polynomial(p.universe, dict(p.items()))]
        for d in derived:
            assert d.sort_key() == _flat(_sort_key_reference(d))
        # The flat key orders as the per-term tuples do, a prefix first.
        for d in derived + [p + r * var(p.universe, "q", 9)]:
            for e in (p, r, d):
                assert (d.sort_key() < e.sort_key()) == (
                    _sort_key_reference(d) < _sort_key_reference(e)
                )


@pytest.mark.parametrize("seed", range(8))
def test_fraction_factors_keep_the_canonical_order(seed):
    rng = Random(seed)
    for n in (1, 2, 4):
        factors = []
        while len(factors) < 5:
            f = _fast_poly(rng, n, rng.randint(1, 4))
            if not f.is_constant() and f not in factors and -f not in factors:
                factors.append(f)
        for f in factors[:2]:
            f.sort_key()  # cached before the fraction is built
        den = [(f, rng.randint(1, 3)) for f in factors]
        frac = FactoredFraction(Polynomial.one(factors[0].universe), rng.sample(den, len(den)))
        expected = sorted(frac.denominator, key=lambda fm: _sort_key_reference(fm[0]))
        assert list(frac.denominator) == expected


def test_normalized_fractions_equal_the_public_constructor():
    # Products, sums, negations, scalar multiples and powers are built from
    # normalized factors without re-normalizing; rebuilt through the
    # constructor they are unchanged.
    rng = Random(11)
    for universe in (QT, ("x1", "x2", "y1")):
        for _ in range(40):
            items = _random_items(rng, universe)
            a, b = rng.choice(items), rng.choice(items)
            k, c = rng.randint(0, 3), rng.choice((0, -1, 2, Fraction(-3, 4)))
            for got, expected in (
                (a * b, FactoredFraction(a.numerator * b.numerator, a.denominator + b.denominator)),
                (a * FactoredFraction.zero(universe), FactoredFraction.zero(universe)),
                (-a, FactoredFraction(-a.numerator, a.denominator)),
                (a * c, FactoredFraction(a.numerator * c, a.denominator)),
                (a ** k, FactoredFraction(a.numerator ** k, [(f, m * k) for f, m in a.denominator if k])),
                (FactoredFraction.sum(items), None),
            ):
                rebuilt = FactoredFraction(got.numerator, got.denominator)
                assert _same_fraction(got, rebuilt)
                if expected is not None:
                    assert _same_fraction(got, expected)
