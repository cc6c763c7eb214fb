"""Symmetrized rational-function identities over paired alphabets
x_1..x_n, y_1..y_n.

Three symmetrized sums are built, all provably equal: two run over
permutations with prefix-product denominators (differing in their numerator
pattern) and one runs over cycle decompositions with cycle-product
denominators.  Their specializations yield a family of constant-valued
symmetrizations (the prop5/prop7 constants, the prop8 reciprocal prefix
sums, and the Littlewood rational identity for 1/z).

Each of the four sums over the symmetric group (thm6-left, thm6-right,
thm7-right, prop8) has its summand defined once, over the images of
x_1..x_n and y_1..y_n: the variables for the full-y sides, a point for the
specialization chain, y = 1 for prop7, which is thm6-right there.  The
summand is summed two ways.  The production route peels the last position
(or, for the cycle form, the cycle through the smallest label) and memoizes
on the remaining label subset: an exact regrouping of the permutation sum
that costs 2^n fraction merges instead of n! cofactor assemblies.  Each memo
level S brings in one new denominator factor, 1 - x_S (sum x_S for prop8).
In prop8, and in thm6-right where every y of S is 1, the value has no pole
there and the peel divides it out exactly whenever it divides, which
reduces prop7 to n! and prop8 to 1/(x_1...x_n).  No gcd is ever taken.
``symmetrized_side`` and ``symmetrized_constant`` return the peeled sum as
a ``FactoredFraction``, built once per process for each (form, n); the
tests hold the literal permutation-by-permutation sums.

``appendix_step`` checks the recurrences (13) and (14) once per process for
each distinct (n, relation, f_n, f_(n-1)), the sides compared by ``==``.
Up to the cap the prefix side and the cycle side are the same fraction term
for term, so a serial sweep decides half of its instances and the cycle
side takes the prefix side's verdicts.  That is sound because a verdict is
reused only for equal inputs: a cycle side that differed would be checked
on its own value.  The recurrences are linear and homogeneous in f, so a
side scaled by a constant satisfies them too; an n = 2 step therefore also
checks the f_1 it fetched against (y1 - x1)/(1 - x1), the value of every
side at n = 1, which anchors the chain.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .algebra import FactoredFraction, Polynomial, frac_eq, product
from .errors import ResourceLimitError, UsageError
from .partitions import Partition, peel, peel_polynomial, rearrangement_steps
from .specialize import UNIVERSE_ABQ, UNIVERSE_Q, monomial_spec, one_minus_q_power, one_minus_q_terms

# Largest n of the three-way sides (thm6, thm7, appendix): one side at n = 5
# has 3,383,040 numerator terms and takes minutes and more than a gigabyte.
SYMMETRIZED_CAP = 4
# Largest n of the constant symmetrizations prop7 and prop8: with the peel's
# cancellation, prop7 at n = 7 takes under a second and about 20 MB.
CONSTANT_CAP = 7

SIDE_LEFT = "thm6-left"
SIDE_RIGHT = "thm6-right"
SIDE_CYCLE = "thm7-right"
SIDES = (SIDE_LEFT, SIDE_RIGHT, SIDE_CYCLE)
_CONSTANT_KINDS = ("prop7", "prop8")


def x_only_universe(n: int) -> tuple:
    return tuple(f"x{i}" for i in range(1, n + 1))


def xy_universe(n: int) -> tuple:
    return x_only_universe(n) + tuple(f"y{i}" for i in range(1, n + 1))


def _check_size(n: int, cap: int):
    if n < 1:
        raise UsageError("n must be at least 1")
    if n > cap:
        raise ResourceLimitError(f"symmetrized sum size {n} exceeds cap {cap}")


# -- the four summands and the two ways to sum them --------------------------


def _numerator(form: str, X: tuple, Y: tuple, k: int, i: int, x_prefix: Polynomial) -> Polynomial:
    """The numerator of a prefix form (thm6-left, thm6-right, prop8) at
    position i, which holds label k; ``x_prefix`` is the product of the
    images of the labels at positions 1..i.  A permutation's summand is the
    product over its n positions of numerator / denominator."""
    if form == SIDE_LEFT:
        return Y[k - 1] - x_prefix
    if form == "prop8":
        return Polynomial.one(x_prefix.universe)
    return Y[k - 1] - X[k - 1] ** (len(X) - i + 1)


def _denominator(form: str, X: tuple, prefix: tuple, x_prefix: Polynomial) -> Polynomial:
    """The denominator of a prefix form at position len(prefix)."""
    if form == "prop8":
        return sum((X[j - 1] for j in prefix), Polynomial.zero(x_prefix.universe))
    return 1 - x_prefix


def _cycle_weight(X: tuple, Y: tuple, cycle: tuple) -> FactoredFraction:
    """The factor of one cycle in the cycle form (thm7-right).  A
    permutation's summand is the product over its cycles."""
    uni = X[0].universe
    x_cycle = product([X[k - 1] for k in cycle], uni)
    return FactoredFraction(product([Y[k - 1] for k in cycle], uni) - x_cycle, [1 - x_cycle])


def _peels(form: str, X: tuple, Y: tuple, subset: tuple, x_subset: Polynomial):
    """The (rest, factor) pairs with value(subset) = sum of value(rest) *
    factor.  A prefix form peels its last position, which may hold any label
    of the subset; the cycle form peels the cycle through the smallest label,
    whose (size - 1)! cyclic orders share one weight."""
    if form == SIDE_CYCLE:
        anchor, others = subset[0], subset[1:]
        for size in range(len(others) + 1):
            for extra in itertools.combinations(others, size):
                rest = tuple(k for k in others if k not in extra)
                yield rest, _cycle_weight(X, Y, (anchor,) + extra) * math.factorial(size)
    else:
        den = [_denominator(form, X, subset, x_subset)]
        for k in subset:
            factor = FactoredFraction(_numerator(form, X, Y, k, len(subset), x_subset), den)
            yield tuple(j for j in subset if j != k), factor


def _peeled(form: str, X: tuple, Y: tuple) -> FactoredFraction:
    """The sum over all n! permutations, x_k and y_k taken at the images
    X[k - 1] and Y[k - 1] (polynomials over one universe), memoized on the
    label subset still to place: value(()) = 1, value(S) = sum of
    value(rest) * factor.

    The factor d entering at S is divided out of the numerator whenever it
    divides, at every level of prop8 and at a level of thm6-right whose y
    images are all the constant 1: prop7's n! and prop8's 1/(x_1...x_n)
    have no pole at d.  Elsewhere, as on the full-y sides (where no factor
    divides, as the tests check up to SYMMETRIZED_CAP) and at the chain
    point, none is tried; that only leaves d in place."""
    uni = X[0].universe
    one = Polynomial.one(uni)
    memo = {(): FactoredFraction.one(uni)}

    def value(subset: tuple) -> FactoredFraction:
        if subset not in memo:
            x_subset = product([X[k - 1] for k in subset], uni)
            total = FactoredFraction.sum(
                [value(rest) * factor for rest, factor in _peels(form, X, Y, subset, x_subset)],
                universe=uni,
            )
            if form == "prop8" or (form == SIDE_RIGHT and all(Y[k - 1] == one for k in subset)):
                d = _denominator(form, X, subset, x_subset)
                quotient = total.numerator.exact_quotient(d)
                if quotient is not None:
                    # d enters only here, so it is a simple factor of the sum.
                    total = FactoredFraction(quotient, [fm for fm in total.denominator if fm[0] != d])
            memo[subset] = total
        return memo[subset]

    return value(tuple(range(1, len(X) + 1)))


@functools.cache
def _symmetrized(form: str, n: int) -> FactoredFraction:
    """The sum at the variables themselves (prop7 is thm6-right at y = 1),
    kept for the life of the process: values are immutable, and the caps
    admit at most 3 * SYMMETRIZED_CAP + 2 * CONSTANT_CAP = 26 of them,
    about 5 MB in all; values at other images are not kept.  The memo sits
    below ``symmetrized_side`` and ``symmetrized_constant``, which still
    check their arguments on every call."""
    uni = xy_universe(n) if form in SIDES else x_only_universe(n)
    images = tuple(Polynomial.variable(uni, v) for v in uni)
    Y = images[n:] if form in SIDES else (Polynomial.one(uni),) * n
    return _peeled(SIDE_RIGHT if form == "prop7" else form, images[:n], Y)


def symmetrized_side(n: int, side: str) -> FactoredFraction:
    """One side of the three-way identity over all n! permutations, as a
    single fraction over the common subset-product denominator."""
    if side not in SIDES:
        raise UsageError(f"unknown side {side!r}")
    _check_size(n, SYMMETRIZED_CAP)
    return _symmetrized(side, n)


def constant_identity(mu: Partition, kind: str, memo: dict) -> FactoredFraction | Fraction:
    """Rearrangement sums with constant value, summed by the rearrangement
    peel over the sub-multisets of the parts.

    * "prop5": sum over rearrangements c of prod_i
      (1 - q^((l - i + 1) c_i)) / (1 - q^(prefix sum i)); equals
      length! / prod(multiplicity!).
    * "littlewood": sum over rearrangements of prod_i 1/(prefix sum i),
      an exact rational equal to 1/z; the peel runs on ints and the value
      is returned as the ``Fraction`` it is, not as a fraction in q.

    ``memo`` is the peel's (see ``peel_polynomial``): the prop5 factor reads
    the length l, so calls of one kind may share a memo when they have the
    same length (prop5) or always (littlewood)."""
    if kind == "prop5":
        length = mu.length
        num, sums = peel_polynomial(
            mu, rearrangement_steps,
            lambda i, total, c: one_minus_q_terms((length - i + 1) * c), one_minus_q_terms,
            UNIVERSE_Q, [(0,)], memo,
        )
        dens = [(one_minus_q_power(UNIVERSE_Q, s), m) for s, m in sums.items()]
        return FactoredFraction(num, dens)
    if kind == "littlewood":
        num, sums = peel(mu, rearrangement_steps, lambda i, total, c: 1, int, memo)
        return Fraction(num, math.prod(s ** m for s, m in sums.items()))
    raise UsageError(f"unknown constant identity {kind!r}")


def symmetrized_constant(n: int, kind: str) -> FactoredFraction:
    """Symmetrizations over x_1..x_n with closed constant or monomial value,
    assembled by the same last-position peeling as the two-alphabet sums.

    * "prop7": numerators 1 - x_(sigma(i))^(n - i + 1) over prefix-product
      denominators, thm6-right at y = 1; equals n!.
    * "prop8": reciprocal prefix sums; equals prod_i 1/x_i."""
    if kind not in _CONSTANT_KINDS:
        raise UsageError(f"unknown symmetrized constant {kind!r}")
    _check_size(n, CONSTANT_CAP)
    return _symmetrized(kind, n)


_APPENDIX_SIDES = {"L": SIDE_LEFT, "R": SIDE_CYCLE}
# The verdicts appendix_step has reached in this process: (n, relation, side)
# -> (f_n, f_(n-1), verdict).  The sides are values _symmetrized already
# keeps, so the caps admit at most 2 * 2 * (SYMMETRIZED_CAP - 1) = 12
# entries and no fraction of their own.
_verdicts: dict = {}


def appendix_step(n: int, relation: int, side: str) -> bool:
    """Substitution recurrences satisfied by both sides of the three-way
    identity, stepping from size n to size n - 1.

    Relation 13 sets y_n = x_n; relation 14 sets y_n = 1.  ``side`` picks
    which sum plays f_n ("L" for the prefix-product form, "R" for the cycle
    form).

    Each distinct check is decided once per process: a verdict reached at
    the same (n, relation) for sides ``==`` to this f_n and f_(n-1) is
    returned.  Equal fractions have equal substitutions, so that verdict is
    the one this side's own check would reach; a side that differs in any
    term is checked on its own value.  The sides are compared, never
    hashed: hashing a side builds a frozenset of its terms.  At n = 2 the
    verdict also needs f_1 to be (y1 - x1)/(1 - x1)."""
    if side not in _APPENDIX_SIDES:
        raise UsageError(f"unknown side {side!r}")
    if relation not in (13, 14):
        raise UsageError(f"unknown relation {relation!r}")
    if n < 2:
        raise UsageError("the recurrences need n at least 2")
    tag = _APPENDIX_SIDES[side]
    f_n = symmetrized_side(n, tag)
    f_prev = symmetrized_side(n - 1, tag)
    for (m, r, _), (seen_n, seen_prev, verdict) in _verdicts.items():
        if (m, r) == (n, relation) and seen_prev == f_prev and seen_n == f_n:
            return verdict
    verdict = _recurrence_holds(n, relation, f_n, f_prev) and (n > 2 or _base_holds(f_prev))
    _verdicts[n, relation, side] = (f_n, f_prev, verdict)
    return verdict


def _recurrence_holds(
    n: int, relation: int, f_n: FactoredFraction, f_prev: FactoredFraction
) -> bool:
    """Relation 13 or 14 between f_n and f_(n-1), by cross-multiplication."""
    uni = xy_universe(n)
    lhs = f_n.substitute({f"y{n}": Polynomial.variable(uni, f"x{n}") if relation == 13 else 1})
    # Relation 14 keeps f_(n-1) itself as one more term on the right.
    rhs_terms = [] if relation == 13 else [f_prev.substitute({}, universe=uni)]
    for i in range(1, n):
        bindings = {f"x{i}": Polynomial.monomial(uni, {f"x{i}": 1, f"x{n}": 1})}
        if relation == 13:
            bindings[f"y{i}"] = Polynomial.monomial(uni, {f"y{i}": 1, f"x{n}": 1})
        rhs_terms.append(f_prev.substitute(bindings, universe=uni))
    return frac_eq(lhs, FactoredFraction.sum(rhs_terms, universe=uni))


def _base_holds(f_1: FactoredFraction) -> bool:
    """f_1 = (y1 - x1)/(1 - x1), the value of all three sides at n = 1."""
    uni = xy_universe(1)
    x1, y1 = (Polynomial.variable(uni, v) for v in uni)
    return frac_eq(f_1, FactoredFraction(y1 - x1, [1 - x1]))


def specialization_chain_check(mu: Partition) -> bool:
    """The symmetrized sums at n = l, the length of mu, peeled at
    x_i = q^(mu_i), y_i = (b q)^(mu_i) and scaled by
    (-1)^l / (q^|mu| prod m_i!), equal both closed forms of the monomial
    specialization at a = 1 (thm6-left and thm7-right give Theorem 1,
    thm6-right Theorem 3).

    This is the paper's substitution y_i = (b q / a)^(mu_i), scale
    (-1)^l a^|mu| / (q^|mu| prod m_i!), taken at a = 1, and it loses
    nothing: every numerator term of the closed forms has degree |mu| in
    (a, b) and their denominators hold only q, so each is a^|mu| times its
    value at (1, b/a).  No full-y side is built, so mu may have any
    length."""
    X = tuple(Polynomial.variable(UNIVERSE_ABQ, "q", part) for part in mu.parts)
    Y = tuple(Polynomial.monomial(UNIVERSE_ABQ, {"b": part, "q": part}) for part in mu.parts)
    scale = FactoredFraction(
        Polynomial.constant(UNIVERSE_ABQ, Fraction((-1) ** mu.length, mu.repetition_factor())),
        [Polynomial.variable(UNIVERSE_ABQ, "q", mu.weight)],
    )
    closed = {
        form: monomial_spec(mu, form).value.substitute({"a": 1}) for form in ("theorem1", "theorem3")
    }
    for side, form in ((SIDE_LEFT, "theorem1"), (SIDE_RIGHT, "theorem3"), (SIDE_CYCLE, "theorem1")):
        if not frac_eq(_peeled(side, X, Y) * scale, closed[form]):
            return False
    return True
