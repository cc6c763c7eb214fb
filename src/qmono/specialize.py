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
peel over the sub-multisets of the parts under its rearrangement rule, over
one 1 - q^s per distinct subset part sum s; the peel's states and that
denominator's degree are capped, and checked before any work.

The power-sum oracle (``oracle_powersum``) expands the monomial function
over the set partitions of its positions, each block weighted by the Moebius
function of the partition lattice, and sums it by the same peel under its
block rule.  The direct oracle (``oracle_direct``) evaluates on the explicit
finite alphabet {1, q, ..., q^(N-1)}, letter by letter.  Both are
independent of the closed forms.

Each closed form, keyed by (mu, form), and each of its values at (a, b),
keyed by (mu, a, b), is built once per process and kept in a bounded memo;
the oracles are not kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import FactoredFraction, Polynomial
from .errors import UsageError
from .partitions import (
    Partition, block_steps, check_peel_cost, check_permutation_cap, peel_polynomial,
    rearrangement_steps,
)

UNIVERSE_ABQ = ("a", "b", "q")
UNIVERSE_QT = ("q", "t")
UNIVERSE_Q = ("q",)

FORM_THEOREM1 = "theorem1"
FORM_THEOREM3 = "theorem3"
FORM_ORACLE_POWERSUM = "oracle-powersum"
FORM_ORACLE_DIRECT = "oracle-direct"

# The peel's cost follows its states and its denominator degree, so the closed
# forms cap both.  The power-sum oracle's peel obeys both and keeps the
# permutation cap on its length: its denominator holds 1 - q^s once per
# disjoint block of sum s, far above the closed forms' degree, and (1^34)
# took 5-7 s without the cap (README "Caps" has the cap-edge runs).
PEEL_STATE_CAP = 128
PEEL_DEGREE_CAP = 600
# The closed forms and their values at (a, b) are kept per process, each in
# a memo of this many entries: values are immutable, so pool workers forked
# later may share what the parent holds.  A queries pass of the benchmark
# (seed 1) asks for 126 distinct (mu, form) and 72 distinct (mu, a, b),
# which take 0.7 and 0.2 MB by tracemalloc, and selftest for 134 and 95;
# positivity asks for no (mu, 1, t), as it evaluates the closed form at
# a = 1, b = t itself.  At 128 selftest rebuilds 54 closed forms, at 64
# queries 40 closed forms and 43 values.  A value at the cap edge takes
# about 7 MB.
MEMO_BOUND = 256


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
    """1 - q^s as a peel's term map, {(j, k): c} for c y^j q^k: empty at
    s = 0, where 1 - q^0 = 0."""
    return {(0, 0): 1, (0, s): -1} if s else {}


def _ab_rows(weight: int) -> list:
    """The read-back rows a^(weight - j) b^j of a numerator of that degree."""
    return [(weight - j, j, 0) for j in range(weight + 1)]


def monomial_spec(mu: Partition, form: str = FORM_THEOREM1) -> SpecResult:
    """The monomial symmetric function of shape mu on (a - b)/(1 - q), as a
    single fraction over the common denominator, summed by the rearrangement
    peel.  Partitions over the peel caps are refused before any work.

    The peel runs in b and q: each factor a^c q^e - b^c is homogeneous of
    degree c in (a, b), so the numerator is homogeneous of degree |mu| and
    a's exponent is |mu| - deg_b.  Each (mu, form) is built once per
    process and kept (see ``MEMO_BOUND``)."""
    return _closed_form(mu, form)


@functools.lru_cache(maxsize=MEMO_BOUND)
def _closed_form(mu: Partition, form: str) -> SpecResult:
    # The checks run here, inside the memo: it keeps no exception, so an
    # input refused once is refused again.
    if form not in (FORM_THEOREM1, FORM_THEOREM3):
        raise UsageError(f"unknown form {form!r}")
    check_peel_cost(mu, PEEL_STATE_CAP, PEEL_DEGREE_CAP, "closed-form")
    length = mu.length

    def factor(i, total, c):
        e = total - c if form == FORM_THEOREM1 else (length - i) * c
        return {(0, e): 1, (c, 0): -1}

    num, sums = peel_polynomial(
        mu, rearrangement_steps, factor, one_minus_q_terms, UNIVERSE_ABQ, _ab_rows(mu.weight), {}
    )
    dens = [(one_minus_q_power(UNIVERSE_ABQ, s), m) for s, m in sums.items()]
    return SpecResult(mu, FactoredFraction(num, dens), form)


def spec_value_at(mu: Partition, a_value, b_value) -> FactoredFraction:
    """The monomial specialization with the letters a, b bound to the given
    values (0, 1, or polynomials in q, t), over the (q, t) universe.  Each
    (mu, a, b) is built once per process and kept (see ``MEMO_BOUND``)."""
    return _value_at(mu, a_value, b_value)


@functools.lru_cache(maxsize=MEMO_BOUND)
def _value_at(mu: Partition, a_value, b_value) -> FactoredFraction:
    return monomial_spec(mu).value.substitute(
        {"a": a_value, "b": b_value}, universe=UNIVERSE_QT
    )


def oracle_powersum(mu: Partition) -> SpecResult:
    """Independent oracle: expand the monomial function over the set
    partitions of its positions (Doubilet, Stud. Appl. Math. 51, 1972).

    (1 / prod m_i!) * sum over set partitions of the product over blocks B
    of (-1)^(|B| - 1) (|B| - 1)! (a^s - b^s)/(1 - q^s), s the sum of the
    parts at B's positions: the sum over permutations of their signed
    cycle products, a block holding (|B| - 1)! cycles.  The peel's block
    rule sums it over the sub-multisets of the parts.  The sign and
    (|B| - 1)! sit in the block's term map: the peel's own multipliers are
    positive ints, so its l1 pass bounds N.  The denominator is the lcm of the blocks'
    1 - q^s.  Capped like the closed forms and to the permutation cap, all
    before any work."""
    check_peel_cost(mu, PEEL_STATE_CAP, PEEL_DEGREE_CAP, "closed-form")
    check_permutation_cap(mu.length, "partition length")

    def block(k, s):
        c = (-1) ** (k - 1) * math.factorial(k - 1)
        return {(0, 0): c, (s, 0): -c}

    num, sums = peel_polynomial(
        mu, block_steps, block, one_minus_q_terms, UNIVERSE_ABQ, _ab_rows(mu.weight), {}
    )
    repeats = mu.repetition_factor()
    if repeats > 1:
        num = num * Fraction(1, repeats)
    dens = [(one_minus_q_power(UNIVERSE_ABQ, s), m) for s, m in sums.items()]
    return SpecResult(mu, FactoredFraction(num, dens), FORM_ORACLE_POWERSUM)


def oracle_direct(mu: Partition, N: int) -> SpecResult:
    """Independent oracle: evaluate the monomial function on the explicit
    alphabet {1, q, ..., q^(N-1)} as a polynomial in q (empty denominator).

    Letter i holds one of the distinct parts c left, adding i * c to the
    power of q, or 0 while letters outnumber parts: a DP over the letters
    counts the distinct arrangements per power, one layer of {parts left:
    {power: count}} per letter.  N keeps the permutation cap."""
    if N < mu.length:
        raise UsageError("alphabet size must be at least the partition length")
    check_permutation_cap(N, "alphabet size")
    layer = {mu.parts: {0: 1}}
    for i in range(N):
        after = {}
        for parts, counts in layer.items():
            moves = [
                (parts[:at] + parts[at + 1:], i * c)
                for at, c in enumerate(parts)
                if not at or c != parts[at - 1]
            ]
            if N - i > len(parts):
                moves.append((parts, 0))  # letter i holds 0
            for rest, shift in moves:
                out = after.setdefault(rest, {})
                for p, n in counts.items():
                    out[p + shift] = out.get(p + shift, 0) + n
        layer = after
    counts = layer[()]
    total = Polynomial(UNIVERSE_ABQ, {(0, 0, p): c for p, c in counts.items()})
    return SpecResult(mu, FactoredFraction(total), FORM_ORACLE_DIRECT)
