"""The positivity polynomial attached to a partition.

For a partition with parts mu_1..mu_l, the auxiliary product P(q) runs over
all nonempty position subsets, one factor (1 - q^(subset part sum))/(1 - q)
per subset.  The bivariate polynomial H(q, t) sums, over the distinct
rearrangements c of the parts, the product of the homogeneous quotients
(q^((l-i)c_i) - t^(c_i)) / (q^(l-i) - t) times the subset factors of P left
over after cancelling one factor per prefix sum.  The peel's rearrangement
rule sums it over the sub-multisets of the parts, and the leftover factors
multiply in once.  Every quotient is emitted directly as its polynomial
expansion, so H is a polynomial with nonnegative integer coefficients; the
interesting content is that the substitution t -> 1/q (after the
q^(weight - length) shift) is again a polynomial and that H ties back to the
monomial specialization through an exact factorization identity.

The factorization identity is decided on N, not on H = N * L.  L is in Z[q]
with L(0) = 1, so it is not zero and Hbar = Nbar * L exactly, Nbar the
q -> 1/q companion of N.  N and L have positive coefficients, so no term of
their product cancels and Hbar is a polynomial exactly when Nbar is; Hbar is
built as Nbar * L, never by inverting H.  Hence H / Hbar = N / Nbar as
rational functions, and the verdict is the one the cross-multiplication
with H and Hbar reaches.  L cancels from that identity either way; only
the auxiliary identity, against the separately built P, tests it.

Both identities are decided at one Kronecker point, cross-multiplied and
with nothing read back (``algebra.equal_at_point``).  The factorization
identity compares N_spec * prod_{i<=l} (1 - q^i) * Nbar with
count * prod_{i<l} (q^i - t) * N * prod_{s in D} (1 - q^s)^m, N_spec / D
the cached closed form over (a, b, q) taken at a = 1, b = t as it is
evaluated, so no fraction is built, lifted or substituted; the auxiliary
identity compares count * P with prod_i [i]_q * Hbar in q alone.  Each
side is one int at q = X = 2^(8K), t = X^Q.  The point decides exactly:
Q is above both sides' degree in q, so the strides keep distinct
monomials in distinct slots, and the slot holds the two sides' l1 bounds
summed below half a slot, so evaluation at X is injective on the
difference of the two sides, which is zero exactly when its value is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Polynomial, equal_at_point, geometric_sum, product
from .errors import (
    InternalConsistencyError,
    NotApplicableError,
    ResourceLimitError,
)
from .partitions import Partition, check_peel_cost, peel_polynomial, rearrangement_steps
from .specialize import UNIVERSE_Q, UNIVERSE_QT, monomial_spec, one_minus_q_power

# The caps of the peel behind H, and of the degree of P, which bounds the
# cost of P, of H = N * L and of the identity check (README "Caps").  P's
# degree is at least 1,793 for length 9 or more, so it also caps the length.
POSITIVITY_STATE_CAP = 64
POSITIVITY_DEGREE_CAP = 240
POSITIVITY_P_DEGREE_CAP = 1600


@dataclass(frozen=True)
class PositivityReport:
    """The four facts of a partition's positivity check, and the
    polynomials they are read from."""

    partition: Partition
    P: Polynomial
    H: Polynomial
    Hbar: Polynomial | None
    all_coefficients_nonnegative_integers: bool
    identity_holds: bool
    auxiliary_identity_holds: bool

    def passed(self) -> bool:
        return (
            self.Hbar is not None
            and self.all_coefficients_nonnegative_integers
            and self.identity_holds
            and self.auxiliary_identity_holds
        )


def _check_cap(mu: Partition) -> dict:
    """Refuse mu over any of the three caps before any work, else return its
    ``subset_sum_counts``, which the caps read and P and L are built from."""
    counts = check_peel_cost(mu, POSITIVITY_STATE_CAP, POSITIVITY_DEGREE_CAP, "positivity")
    degree = sum((s - 1) * m for s, m in counts.items())
    if degree > POSITIVITY_P_DEGREE_CAP:
        raise ResourceLimitError(
            f"degree {degree} of P for {mu} exceeds positivity cap {POSITIVITY_P_DEGREE_CAP}"
        )
    return counts


def _subset_product(counts: dict, used) -> Polynomial:
    """The product over the subset part sums s of
    (1 + q + ... + q^(s - 1))^(count of s, less one if s is in ``used``).
    With nothing used it is P(q), the product over the nonempty position
    subsets of 1 + q + ... + q^(part sum - 1)."""
    return product(
        [geometric_sum(UNIVERSE_Q, "q", s) ** (m - (s in used)) for s, m in counts.items()],
        UNIVERSE_Q,
    )


def _homogeneous_quotient(x_power: int, c: int) -> Polynomial:
    """(x^c - t^c)/(x - t) with x = q^x_power, expanded directly as
    sum_j q^(x_power j) t^(c - 1 - j), whose terms have distinct powers of t."""
    return Polynomial(UNIVERSE_QT, {(x_power * j, c - 1 - j): 1 for j in range(c)})


def _numerator_and_leftover(mu: Partition, pool: dict) -> tuple:
    """(N, L) with H = N * L: the rearrangement peel sums the quotients over
    the [s_i]_q = 1 + ... + q^(s_i - 1) as N / prod_{s in D} [s]_q, N in
    (q, t), and L in q is the product of the subset factors of P left over
    after one per s in D.  ``pool`` is ``_check_cap(mu)``, so mu is refused
    before any work.

    The peel runs in t and q, N of t-degree at most |mu| - l."""
    length, weight = mu.length, mu.weight
    num, sums = peel_polynomial(
        mu, rearrangement_steps,
        lambda i, total, c: {(c - 1 - j, (length - i) * j): 1 for j in range(c)},
        lambda s: {(0, k): 1 for k in range(s)}, UNIVERSE_QT,
        [(0, j) for j in range(weight - length + 1)], {},
    )
    if not sums.keys() <= pool.keys():
        raise InternalConsistencyError(f"peel sums {sorted(sums)} are not all subset sums")
    return num, _subset_product(pool, sums)


def positivity_polynomial(mu: Partition) -> Polynomial:
    """H(q, t) = N * L, the peel's numerator N times the leftover subset
    product L (see ``_numerator_and_leftover``)."""
    num, leftover = _numerator_and_leftover(mu, _check_cap(mu))
    return num * leftover.substitute({}, universe=UNIVERSE_QT)


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


def positivity_report(mu: Partition) -> PositivityReport:
    """Full check: coefficient positivity, polynomiality of the q -> 1/q
    companion Hbar, the factorization identity against the monomial
    specialization at a = 1, b = t, and the auxiliary identity
    (length!/prod m_i!) * P(q) = prod_{i<=l} (1 + ... + q^(i-1)) * Hbar.

    The caps are checked once, and P and L are built from the one
    ``subset_sum_counts`` that check returns.  H = N * L is built for the
    output and read once, by the coefficient check, through its coefficients
    alone; Hbar is built as Nbar * L.  The factorization identity is decided
    as spec = count * prod_i (q^(i-1) - t) * N / (prod_i (1 - q^i) * Nbar),
    the verdict of the cross-multiplication with H and Hbar; the auxiliary
    identity, against P built on its own, tests L.  Both are decided at one
    Kronecker point (see the module docstring)."""
    counts = _check_cap(mu)
    P = _subset_product(counts, ())
    N, L = _numerator_and_leftover(mu, counts)
    H = N * L.substitute({}, universe=UNIVERSE_QT)
    length, count = mu.length, mu.rearrangement_count()
    Nbar = inverted_polynomial(N, mu.weight - length)
    Hbar = None if Nbar is None else Nbar * L
    nonneg = all(type(c) is int and c > 0 for c in H.coefficients())
    identity = auxiliary = False
    if Nbar is not None and not Nbar.is_zero:
        spec = monomial_spec(mu).value
        t = Polynomial.variable(UNIVERSE_QT, "t")
        one_minus = [one_minus_q_power(UNIVERSE_Q, i) for i in range(1, length + 1)]
        q_minus_t = [Polynomial.variable(UNIVERSE_QT, "q", i) - t for i in range(length)]
        identity = equal_at_point(
            [spec.numerator, Nbar, *one_minus],
            [Polynomial.constant(UNIVERSE_QT, count), N, *spec.denominator, *q_minus_t],
            {"a": 0, "b": 1, "t": 1},
        )
    if Hbar is not None:
        brackets = [geometric_sum(UNIVERSE_Q, "q", i) for i in range(1, length + 1)]
        scaled_P = [Polynomial.constant(UNIVERSE_Q, count), P]
        auxiliary = equal_at_point(scaled_P, [*brackets, Hbar], {})
    return PositivityReport(mu, P, H, Hbar, nonneg, identity, auxiliary)


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
