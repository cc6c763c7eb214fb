"""Closed forms for monomial symmetric functions evaluated on the two-letter
geometric alphabet (a - b)/(1 - q), and two independent brute-force oracles.

Both closed forms sum over the distinct rearrangements c of the partition's
parts, one product of fractions per rearrangement, with the numerator
a^c_i * q^e - b^c_i over the denominator 1 - q^(prefix sum through i) at
position i.  Only the exponent e depends on the form:

* form "theorem1" takes e = the prefix sum before i,
* form "theorem3" takes e = (length - i) * c_i.

The two forms are equal as rational functions; verifying that equality
across partitions is one of the package's main jobs.  Both are summed by the
rearrangement peel over the sub-multisets of the parts, over one 1 - q^s per
distinct subset part sum s; the peel's states and that denominator's degree
are capped, and checked before any work.

The power-sum oracle (``oracle_powersum``) expands the monomial function
over symmetric-group cycle decompositions: it enumerates every permutation
but builds one fraction per multiset of cycle sums.  The direct oracle
(``oracle_direct``) evaluates on the explicit finite alphabet
{1, q, ..., q^(N-1)}.  Both are independent of the closed forms.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .algebra import FactoredFraction, Polynomial, product
from .errors import UsageError
from .partitions import (
    Partition, check_peel_cost, check_permutation_cap, peel_polynomial, permutations_with_cycles
)

UNIVERSE_ABQ = ("a", "b", "q")
UNIVERSE_QT = ("q", "t")
UNIVERSE_Q = ("q",)

FORM_THEOREM1 = "theorem1"
FORM_THEOREM3 = "theorem3"
FORM_ORACLE_POWERSUM = "oracle-powersum"
FORM_ORACLE_DIRECT = "oracle-direct"

# The peel's cost follows its states and its denominator degree, so the closed
# forms cap both; the power-sum oracle obeys both caps and enumerates length!
# permutations, so it also caps the length (README "Caps" has the cap-edge
# runs).
PEEL_STATE_CAP = 128
PEEL_DEGREE_CAP = 600


@dataclass(frozen=True)
class SpecResult:
    """A specialized value over {a, b, q} tagged with the formula used."""

    partition: Partition
    value: FactoredFraction
    formula: str


@functools.cache
def one_minus_q_power(universe: tuple, s: int) -> Polynomial:
    """1 - q^s over ``universe``, built once per process for each (universe,
    s); the caps keep s at most 600, so the cache stays small."""
    return Polynomial.one(universe) - Polynomial.variable(universe, "q", s)


def one_minus_q_terms(s: int) -> dict:
    """1 - q^s as a ``peel_polynomial`` term map, {(j, k): c} for c y^j q^k."""
    return {(0, 0): 1, (0, s): -1}


def monomial_spec(mu: Partition, form: str = FORM_THEOREM1) -> SpecResult:
    """The monomial symmetric function of shape mu on (a - b)/(1 - q), as a
    single fraction over the common denominator, summed by the rearrangement
    peel.  Partitions over the peel caps are refused before any work.

    The peel runs in b and q: each factor a^c q^e - b^c is homogeneous of
    degree c in (a, b), so the numerator is homogeneous of degree |mu| and
    a's exponent is |mu| - deg_b."""
    if form not in (FORM_THEOREM1, FORM_THEOREM3):
        raise UsageError(f"unknown form {form!r}")
    check_peel_cost(mu, PEEL_STATE_CAP, PEEL_DEGREE_CAP, "closed-form")
    length, weight = mu.length, mu.weight

    def factor(i, total, c):
        e = total - c if form == FORM_THEOREM1 else (length - i) * c
        return {(0, e): 1, (c, 0): -1}

    num, sums = peel_polynomial(
        mu, factor, one_minus_q_terms, UNIVERSE_ABQ,
        [(weight - j, j, 0) for j in range(weight + 1)], {},
    )
    value = FactoredFraction(num, [one_minus_q_power(UNIVERSE_ABQ, s) for s in sorted(sums)])
    return SpecResult(mu, value, form)


def spec_value_at(mu: Partition, a_value, b_value) -> FactoredFraction:
    """The monomial specialization with the letters a, b bound to the given
    values (0, 1, or polynomials in q, t), over the (q, t) universe."""
    return monomial_spec(mu).value.substitute(
        {"a": a_value, "b": b_value}, universe=UNIVERSE_QT
    )


def oracle_powersum(mu: Partition) -> SpecResult:
    """Independent oracle: expand the monomial function over the cycle
    decompositions of the symmetric group on its positions.

    (1 / prod m_i!) * sum over permutations of (-1)^(length - #cycles)
    * product over cycles of (a^s - b^s)/(1 - q^s), where s is the sum of
    the parts whose positions the cycle contains.  The summand depends only
    on the multiset of cycle sums, which also fixes the number of cycles, so
    the permutations are counted per multiset and each multiset adds one
    fraction, with numerator +-count * prod(a^s - b^s).  Capped like the
    closed forms and to the permutation cap, all before any permutation is
    listed."""
    check_peel_cost(mu, PEEL_STATE_CAP, PEEL_DEGREE_CAP, "closed-form")
    check_permutation_cap(mu.length, "partition length")
    length = mu.length
    parts = mu.parts
    counts = Counter(
        tuple(sorted(sum(parts[j - 1] for j in cyc) for cyc in cycles))
        for cycles in permutations_with_cycles(length)
    )
    terms = []
    for sums, count in counts.items():
        factors = [Polynomial(UNIVERSE_ABQ, {(s, 0, 0): 1, (0, s, 0): -1}) for s in sums]
        num = product(factors, UNIVERSE_ABQ) * ((-1) ** (length - len(sums)) * count)
        terms.append(FactoredFraction(num, [one_minus_q_power(UNIVERSE_ABQ, s) for s in sums]))
    total = FactoredFraction.sum(terms, universe=UNIVERSE_ABQ)
    total = total * Fraction(1, mu.repetition_factor())
    return SpecResult(mu, total, FORM_ORACLE_POWERSUM)


def oracle_direct(mu: Partition, N: int) -> SpecResult:
    """Independent oracle: evaluate the monomial function on the explicit
    alphabet {1, q, ..., q^(N-1)} as a polynomial in q (empty denominator),
    built once from the count of distinct arrangements per power of q.  It
    enumerates all N! orderings, so N is capped like the other symmetric-group
    sums."""
    if N < mu.length:
        raise UsageError("alphabet size must be at least the partition length")
    check_permutation_cap(N, "alphabet size")
    padded = tuple(mu.parts) + (0,) * (N - mu.length)
    # Small N only; set-dedup of full permutations is plenty here.
    arrangements = set(itertools.permutations(padded))
    powers = Counter(sum(i * e for i, e in enumerate(exps)) for exps in arrangements)
    total = Polynomial(UNIVERSE_ABQ, {(0, 0, p): c for p, c in powers.items()})
    return SpecResult(mu, FactoredFraction(total), FORM_ORACLE_DIRECT)
