"""The positivity polynomial attached to a partition.

For a partition with parts mu_1..mu_l, the auxiliary product P(q) runs over
all nonempty position subsets, one factor (1 - q^(subset part sum))/(1 - q)
per subset.  The bivariate polynomial H(q, t) sums, over the distinct
rearrangements c of the parts, the product of the homogeneous quotients
(q^((l-i)c_i) - t^(c_i)) / (q^(l-i) - t) times the subset factors of P left
over after cancelling one factor per prefix sum.  Every quotient is emitted
directly as its polynomial expansion, so H is a polynomial with nonnegative
integer coefficients by construction; the interesting content is that the
substitution t -> 1/q (after the q^(weight - length) shift) is again a
polynomial and that H ties back to the monomial specialization through an
exact factorization identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import FactoredFraction, Polynomial, frac_eq, geometric_sum
from .errors import (
    InternalConsistencyError,
    NotApplicableError,
    ResourceLimitError,
)
from .partitions import Partition, derangements

POSITIVITY_LENGTH_CAP = 8
# Most distinct rearrangements H sums over: (4,3,2,1,1), with 60, takes about
# four seconds; five distinct parts (120) take half a minute.
POSITIVITY_REARRANGEMENT_CAP = 60

UNIVERSE_Q = ("q",)
UNIVERSE_QT = ("q", "t")


@dataclass(frozen=True)
class PositivityReport:
    partition: Partition
    P: Polynomial
    H: Polynomial
    Hbar: Polynomial | None
    all_coefficients_nonnegative_integers: bool
    identity_holds: bool

    def passed(self) -> bool:
        return (
            self.Hbar is not None
            and self.all_coefficients_nonnegative_integers
            and self.identity_holds
        )


def _check_cap(mu: Partition):
    if mu.length > POSITIVITY_LENGTH_CAP:
        raise ResourceLimitError(
            f"partition length {mu.length} exceeds positivity cap {POSITIVITY_LENGTH_CAP}"
        )
    count = mu.rearrangement_count()
    if count > POSITIVITY_REARRANGEMENT_CAP:
        raise ResourceLimitError(
            f"{count} rearrangements of {mu} exceed positivity cap {POSITIVITY_REARRANGEMENT_CAP}"
        )


def subset_part_sums(mu: Partition) -> list:
    """Part sums of all nonempty position subsets, with multiplicity."""
    sums = []
    for k in range(1, mu.length + 1):
        for combo in itertools.combinations(range(mu.length), k):
            sums.append(sum(mu.parts[i] for i in combo))
    return sums


def auxiliary_product(mu: Partition) -> Polynomial:
    """P(q): product over nonempty position subsets of
    1 + q + ... + q^(part sum - 1)."""
    _check_cap(mu)
    out = Polynomial.one(UNIVERSE_Q)
    for s in subset_part_sums(mu):
        out = out * geometric_sum(UNIVERSE_Q, "q", s)
    return out


def _homogeneous_quotient(x_power: int, c: int) -> Polynomial:
    """(x^c - t^c)/(x - t) with x = q^x_power, expanded directly as
    sum_j q^(x_power j) t^(c - 1 - j)."""
    terms = {}
    for j in range(c):
        e = (x_power * j, c - 1 - j)
        terms[e] = terms.get(e, 0) + 1
    return Polynomial(UNIVERSE_QT, terms)


def positivity_polynomial(mu: Partition) -> Polynomial:
    """H(q, t), assembled with each prefix-sum factor cancelled against one
    subset factor of P with the same part sum (only the multiset of part
    sums matters, so any valid matching gives the same polynomial)."""
    _check_cap(mu)
    length = mu.length
    pool = {}
    for s in subset_part_sums(mu):
        pool[s] = pool.get(s, 0) + 1
    total = Polynomial.zero(UNIVERSE_QT)
    for d in derangements(mu):
        remaining = dict(pool)
        for s in d.prefix_sums:
            if remaining.get(s, 0) <= 0:
                raise InternalConsistencyError(
                    f"no subset factor with part sum {s} left to cancel"
                )
            remaining[s] -= 1
        term = Polynomial.one(UNIVERSE_QT)
        for i, c in enumerate(d.entries, start=1):
            term = term * _homogeneous_quotient(length - i, c)
        for s, m in remaining.items():
            for _ in range(m):
                term = term * geometric_sum(UNIVERSE_QT, "q", s)
        total = total + term
    return total


def inverted_polynomial(H: Polynomial, shift: int) -> Polynomial | None:
    """q^shift * H(q, 1/q) as a polynomial in q, or None when a negative
    exponent survives the shift."""
    terms = {}
    for (eq, et), c in H.items():
        e = eq - et + shift
        if e < 0:
            return None
        terms[(e,)] = terms.get((e,), 0) + c
    return Polynomial(UNIVERSE_Q, terms)


def has_nonnegative_integer_coefficients(p: Polynomial) -> bool:
    return all(
        Fraction(c).denominator == 1 and c > 0 for _, c in p.items()
    )


def positivity_report(mu: Partition) -> PositivityReport:
    """Full check: coefficient positivity, polynomiality of the q -> 1/q
    companion, and the factorization identity against the monomial
    specialization at a = 1, b = t."""
    from .specialize import monomial_spec

    P = auxiliary_product(mu)
    H = positivity_polynomial(mu)
    length = mu.length
    weight = mu.weight
    Hbar = inverted_polynomial(H, weight - length)
    nonneg = has_nonnegative_integer_coefficients(H)
    identity = False
    if Hbar is not None and not Hbar.is_zero:
        t = Polynomial.variable(UNIVERSE_QT, "t")
        lhs = monomial_spec(mu).value.substitute({"a": 1, "b": t}, universe=UNIVERSE_QT)
        num = Polynomial.constant(UNIVERSE_QT, mu.rearrangement_count())
        den = []
        for i in range(1, length + 1):
            num = num * (Polynomial.variable(UNIVERSE_QT, "q", i - 1) - t)
            den.append(
                Polynomial.one(UNIVERSE_QT) - Polynomial.variable(UNIVERSE_QT, "q", i)
            )
        num = num * H
        den.append(Hbar.substitute({}, universe=UNIVERSE_QT))
        identity = frac_eq(lhs, FactoredFraction(num, den))
    return PositivityReport(mu, P, H, Hbar, nonneg, identity)


def auxiliary_identity_check(report: PositivityReport) -> bool:
    """(length!/prod m_i!) * P(q) equals
    prod_{i<=l} (1 + ... + q^(i-1)) times the shifted q -> 1/q companion,
    both read from a positivity report."""
    mu = report.partition
    if report.Hbar is None:
        return False
    lhs = report.P * mu.rearrangement_count()
    rhs = report.Hbar
    for i in range(1, mu.length + 1):
        rhs = rhs * geometric_sum(UNIVERSE_Q, "q", i)
    return lhs == rhs


def two_row_closed_form(n: int, k: int) -> Polynomial:
    """Closed form of H for a two-part partition with distinct parts n > k:
    hom(n) * [k]_t * [k]_q + hom(k) * [n]_t * [n]_q, with hom(c) the
    homogeneous quotient (q^c - t^c)/(q - t)."""
    if n == k:
        raise NotApplicableError("the closed form needs two distinct parts")
    if not (n > k >= 1):
        raise NotApplicableError("parts must satisfy n > k >= 1")
    def geom(m):
        return geometric_sum(UNIVERSE_QT, "t", m) * geometric_sum(UNIVERSE_QT, "q", m)

    return _homogeneous_quotient(1, n) * geom(k) + _homogeneous_quotient(1, k) * geom(n)
