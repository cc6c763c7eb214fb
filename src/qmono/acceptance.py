"""The package's exit criteria as callable checks, and the identity
families of ``qmono verify``.

Every check is exact (zero tolerance): each instance either verifies as an
identity of polynomials/fractions or is reported as a failure.  Each criterion
returns a timed ``Report``, the type every CLI command also fills, and the
CLI ``selftest`` command and the acceptance test module print its ``line()``;
``verify`` and criteria 6-8 both run the families in ``VERIFY_FAMILIES``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .algebra import FactoredFraction, Polynomial, frac_eq, product
from .errors import ComparatorError
from .identities import (
    CONSTANT_CAP,
    SIDE_CYCLE,
    SIDE_LEFT,
    SIDE_RIGHT,
    SYMMETRIZED_CAP,
    appendix_step,
    constant_identity,
    specialization_chain_check,
    symmetrized_constant,
    symmetrized_side,
    x_only_universe,
    xy_universe,
)
from .macdonald import (
    BASIS_DEFORMED_COMPLETE,
    BASIS_DEFORMED_ELEMENTARY,
    alphabet_shift_check,
    coefficient_sum_identities,
    deformed_basis_check,
    eigencheck,
    eigenvalue_at_zero_matches,
    expansion_agreement,
    generating_shift_check,
    inverse_expansions_check,
    omega_duality_check,
    omega_row_is_elementary,
)
from .partitions import Partition, derangements, partitions_up_to, z_of
from .positivity import (
    positivity_polynomial,
    positivity_report,
    two_row_closed_form,
)
from .specialize import (
    UNIVERSE_ABQ,
    UNIVERSE_QT,
    monomial_spec,
    oracle_direct,
    oracle_powersum,
)


class Report:
    """The outcome of one run: a selftest criterion (``number`` set) or a
    CLI command.  It counts the instances checked, keeps the labels of the
    failed ones, and times the run from its construction to ``stop()``."""

    def __init__(self, name: str, number: int | None = None):
        self.name = name
        self.number = number
        self.instances = 0
        self.failures = []
        self.elapsed = 0.0
        self._t0 = time.perf_counter()

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, label: str):
        self.instances += 1
        if not ok:
            self.failures.append(label)

    def stop(self) -> Report:
        self.elapsed = time.perf_counter() - self._t0
        return self

    def summary(self) -> str:
        return f"{self.instances} instances, {len(self.failures)} failures, {self.elapsed:.1f}s"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.summary()})"

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "instances": self.instances,
            "failures": list(self.failures),
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def comparator_control():
    """Raise ComparatorError unless ``frac_eq`` rejects (y1 - x1)/(1 - x1)
    against twice itself; ``selftest`` and ``verify`` run it first, as a
    comparator that accepted every pair would pass all their instances."""
    x1, y1 = (Polynomial.variable(xy_universe(1), v) for v in ("x1", "y1"))
    f = FactoredFraction(y1 - x1, [1 - x1])
    if frac_eq(f, 2 * f):
        raise ComparatorError("frac_eq accepts (y1 - x1)/(1 - x1) against twice itself")


def criterion_1_two_forms() -> Report:
    """Both closed forms of the monomial specialization agree."""
    r = Report("two closed forms agree", 1)
    for mu in partitions_up_to(8):
        z = monomial_spec(mu, "theorem1").value
        w = monomial_spec(mu, "theorem3").value
        r.check(frac_eq(z, w), f"mu={mu}")
    return r.stop()


def criterion_2_powersum_oracle() -> Report:
    """The closed form equals the cycle-expansion oracle."""
    r = Report("power-sum oracle equivalence", 2)
    for mu in partitions_up_to(7):
        z = monomial_spec(mu).value
        o = oracle_powersum(mu).value
        r.check(frac_eq(z, o), f"mu={mu}")
    return r.stop()


def criterion_3_evaluation_oracle() -> Report:
    """Substituting a = 1, b = q^N matches direct evaluation on
    {1, q, ..., q^(N-1)}."""
    r = Report("finite-alphabet evaluation oracle", 3)
    q = Polynomial.variable(UNIVERSE_ABQ, "q")
    for mu in partitions_up_to(6):
        z = monomial_spec(mu).value
        for N in range(mu.length, 6):
            got = z.substitute({"a": 1, "b": q ** N})
            expected = oracle_direct(mu, N).value
            r.check(frac_eq(got, expected), f"mu={mu} N={N}")
    return r.stop()


def criterion_4_gauss_polynomials() -> Report:
    """The closed form of m_(1^k) = e_k at a = 1, b = q^N is q^(k(k-1)/2)
    times the q-binomial product."""
    r = Report("Gauss polynomial specialization", 4)
    one = Polynomial.one(UNIVERSE_ABQ)
    q = Polynomial.variable(UNIVERSE_ABQ, "q")
    for N in range(1, 7):
        for k in range(1, N + 1):
            got = monomial_spec(Partition((1,) * k)).value.substitute({"a": 1, "b": q ** N})
            num = product([one - q ** (N - i + 1) for i in range(1, k + 1)], UNIVERSE_ABQ)
            den = [one - q ** i for i in range(1, k + 1)]
            expected = FactoredFraction(num * q ** (k * (k - 1) // 2), den)
            r.check(frac_eq(got, expected), f"k={k} N={N}")
    return r.stop()


def rearrangement_sum(mu: Partition, form: str) -> FactoredFraction:
    """m_mu[(a - b)/(1 - q)] as Theorems 1 and 3 state it, one product per
    distinct rearrangement.  ``monomial_spec`` sums the same terms by the
    peeling recurrence, so criterion 5 takes its left sides from here."""
    one = Polynomial.one(UNIVERSE_ABQ)
    terms = []
    for entries in derangements(mu):
        sums = tuple(itertools.accumulate(entries, initial=0))
        if form == "theorem1":
            exponents = sums[:-1]
        else:
            exponents = [(mu.length - i) * c for i, c in enumerate(entries, start=1)]
        num = product(
            [Polynomial(UNIVERSE_ABQ, {(c, 0, e): 1, (0, c, 0): -1}) for c, e in zip(entries, exponents)],
            UNIVERSE_ABQ,
        )
        den = [one - Polynomial.variable(UNIVERSE_ABQ, "q", s) for s in sums[1:]]
        terms.append(FactoredFraction(num, den))
    return FactoredFraction.sum(terms, universe=UNIVERSE_ABQ)


def criterion_5_recurrences() -> Report:
    """Weight-peeling recurrences for both closed forms, generic and at the
    one-letter specializations: the literal rearrangement sum of mu against
    the peeled values of mu less one part, so no recurrence holds by
    construction."""
    r = Report("peeling recurrences", 5)
    one = Polynomial.one(UNIVERSE_ABQ)
    one_qt = Polynomial.one(UNIVERSE_QT)
    q_qt = Polynomial.variable(UNIVERSE_QT, "q")
    t = Polynomial.variable(UNIVERSE_QT, "t")
    qa = Polynomial.monomial(UNIVERSE_ABQ, {"q": 1, "a": 1})

    def check(name, mu, lhs, rhs):
        total = FactoredFraction.sum(rhs, universe=lhs.universe)
        r.check(frac_eq(lhs, total), f"{name} recurrence mu={mu}")

    for mu in partitions_up_to(8):
        w = mu.weight
        peel = one - Polynomial.variable(UNIVERSE_ABQ, "q", w)
        parts = set(mu.parts)
        rest1 = {i: monomial_spec(mu.remove_part(i), "theorem1").value for i in parts}
        rest3 = {i: monomial_spec(mu.remove_part(i), "theorem3").value for i in parts}
        z = rearrangement_sum(mu, "theorem1")
        check("prefix", mu, z * peel, [
            rest1[i] * Polynomial(UNIVERSE_ABQ, {(i, 0, w - i): 1, (0, i, 0): -1}) for i in parts
        ])
        check("shifted", mu, rearrangement_sum(mu, "theorem3") * peel, [
            rest3[i].substitute({"a": qa}) * Polynomial(UNIVERSE_ABQ, {(i, 0, 0): 1, (0, i, 0): -1})
            for i in parts
        ])
        peel_qt = one_qt - Polynomial.variable(UNIVERSE_QT, "q", w)
        m_spec = z.substitute({"a": 1, "b": t}, universe=UNIVERSE_QT) * peel_qt
        check("one-letter", mu, m_spec, [
            rest1[i].substitute({"a": 1, "b": t}, universe=UNIVERSE_QT)
            * Polynomial(UNIVERSE_QT, {(w - i, 0): 1, (0, i): -1})
            for i in parts
        ])
        check("shifted-alphabet", mu, m_spec, [
            rest1[i].substitute({"a": q_qt, "b": t}, universe=UNIVERSE_QT)
            * (one_qt - Polynomial.variable(UNIVERSE_QT, "t", i))
            for i in parts
        ])
    return r.stop()


# -- the verify families -------------------------------------------------------
#
# An instance is an int, a plain tuple of ints and strings, or a
# ``Partition`` as the enumerator built it; each is hashable and pickles,
# so a worker process can take it.  A check is a module-level function of
# one instance and the memo of its share group that builds its own
# expected value and returns whether the identity holds.


def _check_group(check, tasks: list) -> list:
    """(task, verdict) for each task of one share group, every check given
    the same fresh memo: it lives for this group of this sweep only."""
    memo = {}
    return [(task, check(task, memo)) for task in tasks]


@dataclass(frozen=True)
class Family:
    """One ``verify --identity`` family.

    ``size_flag`` names the flag that sizes a run (``n`` or ``max_weight``),
    and ``cap`` is the largest value of it that ``verify`` admits; a larger
    one is refused before any instance is built.  ``instances(size)`` lists
    the instances up to that size; prop5 and prop6 list the ``Partition``
    objects of ``partitions_up_to`` under a length bound, and their checks
    take those objects as they are.  ``share``, when set, maps an instance
    to the key of the values its check memoizes: the instances with one key
    form a group that is checked by one worker against one memo, so each
    value is built once per sweep.  A process-wide value (appendix: one side
    of the three-way identity) is kept by its own memo; the rearrangement
    peel of prop5 and prop6 keeps its states in the group's memo."""

    size_flag: str
    cap: int
    instances: Callable[[int], list]
    label: Callable[[object], str]
    check: Callable[[object, dict], bool]
    share: Callable[[object], object] | None = None

    def verdicts(self, tasks: list, mapper=map) -> dict:
        """{task: verdict} for ``tasks``, checked group by group through
        ``mapper`` (``verify`` passes its worker pool); without ``share``,
        each task is a group of its own."""
        groups = {}
        for task in tasks:
            groups.setdefault(task if self.share is None else self.share(task), []).append(task)
        checked = mapper(partial(_check_group, self.check), list(groups.values()))
        return dict(pair for group in checked for pair in group)


def _sizes(n: int) -> list:
    return list(range(1, n + 1))


def _appendix_instances(n: int) -> list:
    return [
        (k, relation, side)
        for k in range(2, n + 1)
        for relation in (13, 14)
        for side in ("L", "R")
    ]


def _n_label(n) -> str:
    return f"n={n}"


def _appendix_label(task) -> str:
    n, relation, side = task
    return f"n={n} relation={relation} side={side}"


def _appendix_side(task) -> str:
    return task[2]


def _mu_label(mu) -> str:
    return f"mu={list(mu)}"


def _thm6(n, memo) -> bool:
    return frac_eq(symmetrized_side(n, SIDE_LEFT), symmetrized_side(n, SIDE_RIGHT))


def _thm7(n, memo) -> bool:
    return frac_eq(symmetrized_side(n, SIDE_LEFT), symmetrized_side(n, SIDE_CYCLE))


def _prop5(mu, memo) -> bool:
    return constant_identity(mu, "prop5", memo) == mu.rearrangement_count()


def _prop6(mu, memo) -> bool:
    return constant_identity(mu, "littlewood", memo) == Fraction(1, z_of(mu))


def _one_group(mu) -> None:
    """The share key of prop6: its peel's factor reads nothing, so the
    whole sweep is one group."""
    return None


def _prop7(n, memo) -> bool:
    expected = FactoredFraction.constant(x_only_universe(n), math.factorial(n))
    return frac_eq(symmetrized_constant(n, "prop7"), expected)


def _prop8(n, memo) -> bool:
    uni = x_only_universe(n)
    expected = FactoredFraction(
        Polynomial.one(uni),
        [Polynomial.variable(uni, f"x{i}") for i in range(1, n + 1)],
    )
    return frac_eq(symmetrized_constant(n, "prop8"), expected)


def _appendix(task, memo) -> bool:
    return appendix_step(*task)


# Weight caps: each admitted the largest sweep that finished in under 2 s
# in every fresh process timed, each share group peeling once.  Re-timed,
# caps unchanged: prop5 (at most 6 parts) up to weight 18 takes 0.21-0.25 s
# and 20 MB (19: 0.24-0.29 s); prop6 (at most 7 parts) up to weight 32
# takes 0.71-0.76 s and 50 MB (33: 0.96-0.97 s).
VERIFY_FAMILIES = {
    "thm6": Family("n", SYMMETRIZED_CAP, _sizes, _n_label, _thm6),
    "thm7": Family("n", SYMMETRIZED_CAP, _sizes, _n_label, _thm7),
    "prop5": Family(
        "max_weight", 18, partial(partitions_up_to, max_length=6), _mu_label, _prop5, len
    ),
    "prop6": Family(
        "max_weight", 32, partial(partitions_up_to, max_length=7), _mu_label, _prop6, _one_group
    ),
    "prop7": Family("n", CONSTANT_CAP, _sizes, _n_label, _prop7),
    "prop8": Family("n", CONSTANT_CAP, _sizes, _n_label, _prop8),
    "appendix": Family(
        "n", SYMMETRIZED_CAP, _appendix_instances, _appendix_label, _appendix, _appendix_side
    ),
}


def _check_families(r: Report, runs) -> None:
    """Check every instance of each (family name, size), grouped as
    ``verify`` groups them."""
    for name, size in runs:
        family = VERIFY_FAMILIES[name]
        tasks = family.instances(size)
        verdicts = family.verdicts(tasks)
        for task in tasks:
            r.check(verdicts[task], f"{name} {family.label(task)}")


def _display_example_n2() -> dict:
    """The three displayed size-2 sums, written out term by term."""
    uni = xy_universe(2)
    one = Polynomial.one(uni)
    x1 = Polynomial.variable(uni, "x1")
    x2 = Polynomial.variable(uni, "x2")
    y1 = Polynomial.variable(uni, "y1")
    y2 = Polynomial.variable(uni, "y2")
    x1x2 = x1 * x2
    left = FactoredFraction.sum(
        [
            FactoredFraction((y1 - x1) * (y2 - x1x2), [one - x1, one - x1x2]),
            FactoredFraction((y2 - x2) * (y1 - x1x2), [one - x2, one - x1x2]),
        ],
        universe=uni,
    )
    right = FactoredFraction.sum(
        [
            FactoredFraction((y1 - x1 ** 2) * (y2 - x2), [one - x1, one - x1x2]),
            FactoredFraction((y2 - x2 ** 2) * (y1 - x1), [one - x2, one - x1x2]),
        ],
        universe=uni,
    )
    cycle = FactoredFraction.sum(
        [
            FactoredFraction((y1 - x1) * (y2 - x2), [one - x1, one - x2]),
            FactoredFraction(y1 * y2 - x1x2, [one - x1x2]),
        ],
        universe=uni,
    )
    return {SIDE_LEFT: left, SIDE_RIGHT: right, SIDE_CYCLE: cycle}


def criterion_6_symmetrized() -> Report:
    """Three-way agreement of the symmetrized sums, pinning the size-2 case
    to its written-out form, and the specialization of all three sides to
    the closed forms for every mu of weight <= 6, at every length."""
    r = Report("three-way symmetrized identity", 6)
    _check_families(r, (("thm6", 4), ("thm7", 4)))
    for side, displayed in _display_example_n2().items():
        r.check(frac_eq(symmetrized_side(2, side), displayed), f"n=2 display {side}")
    for mu in partitions_up_to(6):
        r.check(specialization_chain_check(mu), f"specialization chain mu={mu}")
    return r.stop()


def criterion_7_constants() -> Report:
    """Constant-valued symmetrizations."""
    r = Report("constant-valued identities", 7)
    _check_families(r, (("prop5", 9), ("prop6", 10), ("prop7", 5), ("prop8", 5)))
    return r.stop()


def criterion_8_appendix() -> Report:
    """Substitution recurrences for both sides and both relations."""
    r = Report("substitution recurrences", 8)
    _check_families(r, (("appendix", 4),))
    return r.stop()


def criterion_9_positivity() -> Report:
    """Positivity polynomial: coefficients, the q -> 1/q companion, the
    factorization identity, the two-row closed form."""
    r = Report("positivity polynomial", 9)
    for mu in partitions_up_to(8, 5):
        report = positivity_report(mu)
        r.check(
            report.all_coefficients_nonnegative_integers,
            f"coefficients mu={mu}",
        )
        r.check(report.Hbar is not None, f"inverted polynomial mu={mu}")
        r.check(report.identity_holds, f"factorization mu={mu}")
        r.check(report.auxiliary_identity_holds, f"auxiliary identity mu={mu}")
    h21 = positivity_polynomial(Partition((2, 1)))
    expected = Polynomial(UNIVERSE_QT, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1})
    r.check(h21 == expected, "closed value for (2,1)")
    for n in range(2, 6):
        for k in range(1, n):
            r.check(
                two_row_closed_form(n, k) == positivity_polynomial(Partition((n, k))),
                f"two-row closed form n={n} k={k}",
            )
    return r.stop()


def criterion_10_macdonald() -> Report:
    """Row Macdonald polynomial suite: expansions, eigen-equation,
    coefficient identities, series identities, omega, inverse expansions,
    omega duality of the deformed products, the deformed generators."""
    r = Report("row Macdonald polynomial suite", 10)
    N = 3
    for n in range(6):
        r.check(expansion_agreement(n, N), f"six-way expansion n={n}")
    for NN in (2, 3):
        r.check(eigenvalue_at_zero_matches(NN), f"degree-0 eigenvalue N={NN}")
        for n in range(5):
            r.check(eigencheck(n, NN), f"eigen-equation n={n} N={NN}")
    for NN in range(1, 5):
        r.check(coefficient_sum_identities(NN), f"coefficient sums N={NN}")
    r.check(generating_shift_check(N, 5), "degree-marker shift series")
    r.check(alphabet_shift_check(N, 5), "alphabet shift series")
    for n in range(1, 6):
        r.check(omega_row_is_elementary(n), f"omega image n={n}")
    for n in range(1, 5):
        r.check(inverse_expansions_check(n, N), f"inverse expansions n={n}")
    for mu in partitions_up_to(5):
        r.check(omega_duality_check(mu), f"omega duality mu={mu}")
    for basis in (BASIS_DEFORMED_ELEMENTARY, BASIS_DEFORMED_COMPLETE):
        for n in range(1, 6):
            r.check(deformed_basis_check(basis, n, N), f"{basis} n={n}")
    return r.stop()


ALL_CRITERIA = (
    criterion_1_two_forms,
    criterion_2_powersum_oracle,
    criterion_3_evaluation_oracle,
    criterion_4_gauss_polynomials,
    criterion_5_recurrences,
    criterion_6_symmetrized,
    criterion_7_constants,
    criterion_8_appendix,
    criterion_9_positivity,
    criterion_10_macdonald,
)
