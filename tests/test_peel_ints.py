"""The rearrangement peel on Kronecker ints against the same peel on
polynomials, whose two-term factors multiply term pair by term pair, and
the slot edges of the peel's codec."""

import pytest

from qmono import partitions
from qmono.acceptance import VERIFY_FAMILIES
from qmono.algebra import FactoredFraction, PeelInts, Polynomial, geometric_sum
from qmono.errors import InternalConsistencyError
from qmono.identities import constant_identity
from qmono.partitions import (
    Partition,
    partitions_up_to,
    peel,
    peel_polynomial,
    rearrangement_steps,
)
from qmono.positivity import _check_cap, _homogeneous_quotient, _numerator_and_leftover
from qmono.specialize import UNIVERSE_ABQ, UNIVERSE_Q, UNIVERSE_QT, monomial_spec

# The slowest inputs the closed-form and positivity caps admit.
CLOSED_FORM_EDGES = [
    ((13, 6, 5, 4, 3, 2, 1), "theorem1"),
    ((12, 8, 5, 4, 2, 1, 1, 1), "theorem1"),
    ((17, 5, 3, 2, 2, 2, 1, 1, 1), "theorem3"),
]
POSITIVITY_EDGES = [(18, 2, 2, 1, 1, 1, 1), (6, 5, 3, 2, 2, 2, 1), (6, 5, 4, 3, 2, 1)]


def one_minus_q(universe, s):
    return Polynomial.one(universe) - Polynomial.variable(universe, "q", s)


def reference_spec(mu: Partition, form: str) -> FactoredFraction:
    """``monomial_spec``'s value with the peel's values as polynomials."""
    length = mu.length

    def factor(i, total, c):
        e = total - c if form == "theorem1" else (length - i) * c
        return Polynomial(UNIVERSE_ABQ, {(c, 0, e): 1, (0, c, 0): -1})

    num, sums = peel(mu, rearrangement_steps, factor, lambda s: one_minus_q(UNIVERSE_ABQ, s), {})
    dens = [(one_minus_q(UNIVERSE_ABQ, s), m) for s, m in sums.items()]
    return FactoredFraction(Polynomial.one(UNIVERSE_ABQ) * num, dens)


def reference_prop5(mu: Partition, memo: dict) -> FactoredFraction:
    """``constant_identity(mu, "prop5", ...)`` with the peel's values as
    polynomials."""
    length = mu.length
    num, sums = peel(
        mu,
        rearrangement_steps,
        lambda i, total, c: one_minus_q(UNIVERSE_Q, (length - i + 1) * c),
        lambda s: one_minus_q(UNIVERSE_Q, s),
        memo,
    )
    dens = [(one_minus_q(UNIVERSE_Q, s), m) for s, m in sums.items()]
    return FactoredFraction(Polynomial.one(UNIVERSE_Q) * num, dens)


def reference_numerator(mu: Partition) -> Polynomial:
    """Positivity's N with the peel's values as polynomials."""
    length = mu.length
    num, _ = peel(
        mu,
        rearrangement_steps,
        lambda i, total, c: _homogeneous_quotient(length - i, c),
        lambda s: geometric_sum(UNIVERSE_QT, "q", s),
        {},
    )
    return Polynomial.one(UNIVERSE_QT) * num


@pytest.fixture
def read_back(monkeypatch, cold_memos):
    """(l1 bound, ys, rows, polynomial) of every value a peel reads back,
    every closed form built afresh under the recording."""
    seen = []

    class Recording(PeelInts):
        __slots__ = ("bound",)

        def __init__(self, ys, bound):
            super().__init__(ys, bound)
            self.bound = bound

        def polynomial(self, value, universe, rows):
            p = super().polynomial(value, universe, rows)
            seen.append((self.bound, self.ys, rows, p))
            return p

    # The one place that builds the codec: a caller that built its own
    # would escape the recording, and the assert below would see nothing.
    monkeypatch.setattr(partitions, "PeelInts", Recording)
    yield seen
    # The l1 bound is strict: every coefficient fits its slot.  The slots
    # are laid out by the rows the value is read back from.
    assert seen
    for bound, ys, rows, p in seen:
        assert sum(map(abs, p.coefficients())) <= bound
        assert ys == len(rows)


@pytest.mark.parametrize("form", ["theorem1", "theorem3"])
def test_closed_forms_equal_the_polynomial_peel(form, read_back):
    for mu in partitions_up_to(8):
        assert monomial_spec(mu, form).value == reference_spec(mu, form), mu


@pytest.mark.parametrize("parts, form", CLOSED_FORM_EDGES)
def test_closed_forms_at_the_cap_edge_equal_the_polynomial_peel(parts, form, read_back):
    # Both forms have the same numerator over the same denominator, so one
    # reference serves both.
    mu = Partition(parts)
    expected = reference_spec(mu, form)
    for any_form in ("theorem1", "theorem3"):
        assert monomial_spec(mu, any_form).value == expected, any_form


@pytest.mark.parametrize("order", ["listed", "reversed"])
def test_prop5_with_a_shared_memo_equals_the_polynomial_peel(order, read_back):
    family = VERIFY_FAMILIES["prop5"]
    tasks = family.instances(12)
    memos = {}
    for mu in tasks if order == "listed" else tasks[::-1]:
        shared = constant_identity(mu, "prop5", memos.setdefault(family.share(mu), {}))
        assert shared == reference_prop5(mu, {}), mu


@pytest.mark.parametrize("parts", [mu.parts for mu in partitions_up_to(8)] + POSITIVITY_EDGES)
def test_positivity_numerator_equals_the_polynomial_peel(parts, read_back):
    mu = Partition(parts)
    num, _ = _numerator_and_leftover(mu, _check_cap(mu))
    assert num == reference_numerator(mu)


def test_a_share_group_keeps_its_states_at_one_slot_size():
    # A share group's memo holds the l1 bound's states and one dict of
    # states per slot size: a group that outgrows its width starts fresh
    # states, and every state reads back, at its own size, as the state of
    # the polynomial peel.
    family = VERIFY_FAMILIES["prop5"]
    memos, references = {}, {}
    for mu in family.instances(12):
        constant_identity(mu, "prop5", memos.setdefault(family.share(mu), {}))
        reference_prop5(mu, references.setdefault(family.share(mu), {}))
    assert any(len(memo) > 2 for memo in memos.values())  # some group grew
    one = Polynomial.one(UNIVERSE_Q)
    for length, memo in memos.items():
        assert set(memo) - {"l1"} <= {1, 2, 4, 8}
        for size, states in memo.items():
            if size == "l1":
                continue
            ints = PeelInts(1, 2 ** (8 * size - 1) - 1)
            assert ints.size == size
            for parts, state in states.items():
                if isinstance(parts, tuple):
                    expected = one * references[length][parts][0]
                    assert ints.polynomial(state[0], UNIVERSE_Q, [(0,)]) == expected, parts


def in_qt(terms: dict) -> Polynomial:
    """The value {(j, k): c t^j q^k} as a polynomial in (q, t)."""
    return Polynomial(UNIVERSE_QT, {(k, j): c for (j, k), c in terms.items()})


@pytest.mark.parametrize("size", [1, 2, 4, 8, 9, 13])
def test_the_largest_coefficient_of_a_slot_reads_back(size):
    # A bound of 2^(8 size - 1) - 1 is the largest a slot of ``size`` bytes
    # holds with its sign; one more takes a wider slot.
    edge = 2 ** (8 * size - 1) - 1
    rows = [(0, 0), (0, 1)]
    ints = PeelInts(len(rows), edge)
    assert ints.size == size
    assert PeelInts(len(rows), edge + 1).size > size
    for c in (edge, -edge):
        terms = {(0, 0): c, (0, 2): -c, (1, 1): c, (1, 2): -c}
        value = 1 * ints.multiplier(terms)
        assert ints.polynomial(value, UNIVERSE_QT, rows) == in_qt(terms)


def test_a_multiplier_by_shifts_is_the_product():
    # Repeated and mixed coefficients, and a zero value.
    rows = [(0, j) for j in range(4)]
    ints = PeelInts(len(rows), 10 ** 6)
    f = {(0, 0): 3, (0, 4): 3, (1, 2): -1, (2, 0): 1, (0, 9): -2}
    g = {(0, 1): 5, (1, 0): -7}
    value = 1 * ints.multiplier(g) * ints.multiplier(f)
    assert ints.polynomial(value, UNIVERSE_QT, rows) == in_qt(f) * in_qt(g)
    assert 0 * ints.multiplier(f) == 0


@pytest.mark.parametrize("span", [0, -20])
def test_a_span_below_one_raises(span):
    # A span below one row holds no term, and would leave the read-back
    # without a number of powers of q to split the value's slots into.
    with pytest.raises(InternalConsistencyError, match="span"):
        PeelInts(span, 100)
    # A peel read back from no rows at all has a span of zero.
    mu = Partition((3, 2, 1))
    with pytest.raises(InternalConsistencyError, match="span"):
        peel_polynomial(
            mu, rearrangement_steps, lambda i, total, c: {(0, c): 1}, lambda s: {(0, 0): 1},
            UNIVERSE_QT, [], {},
        )


def test_a_q_degree_far_past_the_rows_reads_back(read_back):
    # Nothing bounds the degree in q: a factor 1 - t q^c and a den of
    # 1 - q^(600 + s) put N's q-degree in the thousands, over at most six
    # rows in t, and every slot the value holds is read back.
    for parts in [(3, 2, 1), (4, 4, 1, 1), (5, 3, 3, 2, 1)]:
        mu = Partition(parts)
        num, sums = peel_polynomial(
            mu, rearrangement_steps, lambda i, total, c: {(0, 0): 1, (1, c): -1},
            lambda s: {(0, 0): 1, (0, 600 + s): -1},
            UNIVERSE_QT, [(0, j) for j in range(mu.length + 1)], {},
        )
        one = Polynomial.one(UNIVERSE_QT)
        t = Polynomial.variable(UNIVERSE_QT, "t")
        expected, expected_sums = peel(
            mu,
            rearrangement_steps,
            lambda i, total, c: one - t * Polynomial.variable(UNIVERSE_QT, "q", c),
            lambda s: one_minus_q(UNIVERSE_QT, 600 + s),
            {},
        )
        assert (num, sums) == (one * expected, expected_sums), parts
        assert max(exps[0] for exps, _ in num.items()) > 1800
