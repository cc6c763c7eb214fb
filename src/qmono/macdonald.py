"""The one-row Macdonald polynomial g_n(X; q, t) and everything around it:
its six basis expansions, the deformed bases obtained by evaluating
generators on (1 - t) X, the omega involution, the first Macdonald
difference operator with its eigen-equation, and the partial-fraction
coefficient identities that drive the operator computation.

Symmetric polynomials on a finite alphabet are stored one coefficient per
monomial orbit (partition-shaped exponent vector), which keeps symmetry
structural and the n <= 5, N = 3 sizes trivial.  ``_generator`` builds the
closed orbit form of every generator; a basis element other than a monomial
folds one generator per part, each built once per sum, and every product
over the letters of a one-letter series comes from ``_letter_product``.  The
one-letter ratios are expanded by ``_letter_series`` as a polynomial times a
geometric sum.

A monomial table builds its Heine coefficients once, ``_per_part`` builds
every scale * prod_p (1 - u^p)/(1 - v^p) over the parts p of a partition,
and ``_fraction_product`` every other product of fractions, as one fraction.
A deformed basis has one name everywhere: ``deformed-h`` or ``deformed-e``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    FactoredFraction,
    Polynomial,
    frac_eq,
    geometric_sum,
    product,
)
from .errors import ResourceLimitError, UsageError
from .partitions import Partition, partitions_of, z_of
from .specialize import UNIVERSE_QT, one_minus_q_power, spec_value_at

OPERATOR_N_CAP = 3
# Largest degree n of eigencheck: n = 8 on N = 3 letters takes 0.20-0.25 s
# and 32 MB, and the cost grows quickly with n.
EIGENCHECK_DEGREE_CAP = 8
# Largest degree of the power and monomial expansions: monomial at n = 20
# (627 partitions) takes 0.81-0.91 s and 45 MB; n = 25 took over 30 s.
EXPANSION_DEGREE_CAP = 20
# Largest degree of the four bases that specialize once per partition: the
# slowest, elementary, takes 0.25-0.26 s and 23 MB at n = 13, 0.40 s at 14.
SPEC_EXPANSION_CAP = 13
COEFFICIENT_IDENTITY_N_CAP = 4

BASIS_POWER = "power"
BASIS_MONOMIAL = "monomial"
BASIS_COMPLETE = "complete"
BASIS_ELEMENTARY = "elementary"
BASIS_DEFORMED_COMPLETE = "deformed-h"
BASIS_DEFORMED_ELEMENTARY = "deformed-e"
BASES = (
    BASIS_POWER,
    BASIS_MONOMIAL,
    BASIS_COMPLETE,
    BASIS_ELEMENTARY,
    BASIS_DEFORMED_COMPLETE,
    BASIS_DEFORMED_ELEMENTARY,
)


def x_universe(N: int) -> tuple:
    return ("q", "t") + tuple(f"x{i}" for i in range(1, N + 1))


def _qt_var(name: str, power: int = 1, coeff=1) -> Polynomial:
    return Polynomial.variable(UNIVERSE_QT, name, power, coeff)


# ---------------------------------------------------------------------------
# Symmetric polynomials stored per monomial orbit


class SymmetricPolynomial:
    """Symmetric polynomial on x_1..x_N with exact fraction coefficients in
    (q, t), stored per monomial orbit."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs=None):
        self.N = N
        clean = {}
        for key, f in (coeffs or {}).items():
            key = tuple(key)
            if any(k < 1 for k in key) or list(key) != sorted(key, reverse=True):
                raise UsageError(f"orbit key must be a positive descending tuple: {key}")
            if len(key) > N:
                raise UsageError(f"orbit key {key} longer than alphabet size {N}")
            if not f.is_zero:
                clean[key] = f
        self.coeffs = clean

    @classmethod
    def zero(cls, N: int) -> "SymmetricPolynomial":
        return cls(N, {})

    @classmethod
    def monomial(cls, mu: Partition, N: int) -> "SymmetricPolynomial":
        if mu.length > N:
            return cls.zero(N)
        return cls(N, {tuple(mu.parts): FactoredFraction.one(UNIVERSE_QT)})

    # -- arithmetic --------------------------------------------------------

    def scale(self, c) -> "SymmetricPolynomial":
        return SymmetricPolynomial(
            self.N, {key: f * c for key, f in self.coeffs.items()}
        )

    def _expand_full(self) -> dict:
        full = {}
        for key, f in self.coeffs.items():
            for exps in _orbit(key, self.N):
                full[exps] = f
        return full

    def mul(self, other: "SymmetricPolynomial", max_degree: int | None = None) -> "SymmetricPolynomial":
        if self.N != other.N:
            raise UsageError("alphabet sizes differ")
        buckets = {}
        for mu, f in self.coeffs.items():
            for nu, g in other.coeffs.items():
                if max_degree is not None and sum(mu) + sum(nu) > max_degree:
                    continue
                # Each weakly decreasing sum of a vector of the orbit of mu
                # and one of the orbit of nu adds f * g to that orbit.
                fg = f * g
                betas = _orbit(nu, self.N)
                for alpha in _orbit(mu, self.N):
                    for beta in betas:
                        lam = tuple(map(operator.add, alpha, beta))
                        if lam == tuple(sorted(lam, reverse=True)):
                            buckets.setdefault(_strip(lam), []).append(fg)
        coeffs = {}
        for key, items in buckets.items():
            s = FactoredFraction.sum(items, universe=UNIVERSE_QT)
            if not s.is_zero:
                coeffs[key] = s
        return SymmetricPolynomial(self.N, coeffs)

    def homogeneous_part(self, n: int) -> "SymmetricPolynomial":
        return SymmetricPolynomial(
            self.N, {k: f for k, f in self.coeffs.items() if sum(k) == n}
        )

    def eq(self, other: "SymmetricPolynomial") -> bool:
        if self.N != other.N:
            raise UsageError("alphabet sizes differ")
        zero = FactoredFraction.zero(UNIVERSE_QT)
        for key in set(self.coeffs) | set(other.coeffs):
            if not frac_eq(self.coeffs.get(key, zero), other.coeffs.get(key, zero)):
                return False
        return True

    def to_fraction(self, universe) -> FactoredFraction:
        """The full polynomial as one fraction over a universe containing
        q, t and the alphabet."""
        terms = [
            f.substitute({}, universe=universe)
            * Polynomial.monomial(
                universe, {f"x{i}": e for i, e in enumerate(exps, start=1) if e}
            )
            for exps, f in self._expand_full().items()
        ]
        return FactoredFraction.sum(terms, universe=universe)


def _strip(key: tuple) -> tuple:
    return tuple(k for k in key if k)


def _orbit(key: tuple, N: int) -> set:
    """The exponent vectors on N letters of the monomial orbit ``key``."""
    return set(itertools.permutations(tuple(key) + (0,) * (N - len(key))))


# ---------------------------------------------------------------------------
# Expansion tables


@dataclass(frozen=True)
class ExpansionTable:
    """Coefficients of g_n on a named basis, one entry per partition of n.
    Elementary-type entries carry the global (-1)^n sign, so the table
    always reads g_n = sum of entry * basis element."""

    n: int
    basis: str
    entries: tuple


def heine_coefficient(k: int) -> FactoredFraction:
    """Coefficient of x^k in the one-letter generating product
    (t x; q)_inf / (x; q)_inf: product over j = 1..k of
    (1 - t q^(j-1))/(1 - q^j)."""
    one = Polynomial.one(UNIVERSE_QT)
    num = [one - Polynomial.monomial(UNIVERSE_QT, {"t": 1, "q": j - 1}) for j in range(1, k + 1)]
    den = [one_minus_q_power(UNIVERSE_QT, j) for j in range(1, k + 1)]
    return FactoredFraction(product(num, UNIVERSE_QT), den)


def _fraction_product(fractions: list) -> FactoredFraction:
    """The product of a list of fractions over (q, t) as one fraction: the
    numerators multiplied by ``product``, over all their denominator factors."""
    return FactoredFraction(
        product([f.numerator for f in fractions], UNIVERSE_QT),
        [factor for f in fractions for factor in f.denominator],
    )


def _per_part(mu: Partition, scale, u: str, v: str | None) -> FactoredFraction:
    """scale * prod over the parts p of mu of (1 - u^p)/(1 - v^p), with no
    denominator when v is None."""
    one = Polynomial.one(UNIVERSE_QT)
    return FactoredFraction(
        product([one - _qt_var(u, p) for p in mu.parts], UNIVERSE_QT) * scale,
        [] if v is None else [one - _qt_var(v, p) for p in mu.parts],
    )


# The four bases whose coefficient of g_n is the monomial specialization at
# (a, b); the elementary-type ones also carry the sign (-1)^n.
_SPECIALIZED = {
    BASIS_COMPLETE: (1, _qt_var("t"), False),
    BASIS_ELEMENTARY: (_qt_var("t"), 1, True),
    BASIS_DEFORMED_COMPLETE: (1, 0, False),
    BASIS_DEFORMED_ELEMENTARY: (0, 1, True),
}


def row_expansion_table(n: int, basis: str) -> ExpansionTable:
    """Coefficients of g_n on the requested basis."""
    if basis not in BASES:
        raise UsageError(f"unknown basis {basis!r}")
    if n < 0:
        raise UsageError("degree must be non-negative")
    cap = SPEC_EXPANSION_CAP if basis in _SPECIALIZED else EXPANSION_DEGREE_CAP
    if n > cap:
        raise ResourceLimitError(f"degree {n} exceeds the {basis} expansion cap {cap}")
    heine = [heine_coefficient(k) for k in range(n + 1)] if basis == BASIS_MONOMIAL else []
    entries = []
    for mu in partitions_of(n):
        if basis == BASIS_POWER:
            coeff = _per_part(mu, Fraction(1, z_of(mu)), "t", "q")
        elif basis == BASIS_MONOMIAL:
            coeff = _fraction_product([heine[part] for part in mu.parts])
        else:
            a, b, signed = _SPECIALIZED[basis]
            coeff = spec_value_at(mu, a, b)
            if signed and n % 2:
                coeff = -coeff
        entries.append((mu, coeff))
    return ExpansionTable(n, basis, tuple(entries))


# ---------------------------------------------------------------------------
# Basis elements and generating products on a finite alphabet


def _generator(basis: str, n: int, N: int, param: str = "t") -> SymmetricPolynomial:
    """The generator of degree n of a basis other than the monomial one on
    x_1..x_N, in its closed orbit form: on the orbit of each partition lam
    of n with length l it carries
    power 1 if l = 1; complete 1; elementary 1 if l = n;
    deformed complete (h_n on (1 - param) X) (1 - param)^l;
    deformed elementary (e_n on (1 - param) X) (-param)^(n - l) (1 - param)^l;
    and 0 otherwise."""
    one = Polynomial.one(UNIVERSE_QT)
    zero = Polynomial.zero(UNIVERSE_QT)
    deform = one - _qt_var(param)
    coeffs = {}
    for lam in partitions_of(n, N):
        l = lam.length
        if basis == BASIS_POWER:
            c = one if l == 1 else zero
        elif basis == BASIS_COMPLETE:
            c = one
        elif basis == BASIS_ELEMENTARY:
            c = one if l == n else zero
        elif basis == BASIS_DEFORMED_COMPLETE:
            c = deform ** l
        else:
            c = _qt_var(param, n - l, (-1) ** (n - l)) * deform ** l
        coeffs[tuple(lam.parts)] = FactoredFraction(c)
    return SymmetricPolynomial(N, coeffs)


def _sum(polys: list, N: int) -> SymmetricPolynomial:
    """The sum of a list of symmetric polynomials on N variables, each
    orbit's coefficients added by one ``FactoredFraction.sum``."""
    orbits = {}
    for poly in polys:
        if poly.N != N:
            raise UsageError("alphabet sizes differ")
        for key, f in poly.coeffs.items():
            orbits.setdefault(key, []).append(f)
    return SymmetricPolynomial(N, {key: FactoredFraction.sum(fs) for key, fs in orbits.items()})


def _linear_combination(basis: str, entries, N: int, param: str = "t") -> SymmetricPolynomial:
    """Sum of coefficient * basis element over (mu, coefficient) pairs.  A
    monomial element is its orbit, and so is the unit, the element of the
    empty partition; every other element folds the generators of its parts
    with ``SymmetricPolynomial.mul``, each distinct part's built once."""
    entries = [(mu, c) for mu, c in entries if not c.is_zero]
    parts = set() if basis == BASIS_MONOMIAL else {p for mu, _ in entries for p in mu.parts}
    generators = {p: _generator(basis, p, N, param) for p in parts}

    def element(mu):
        if basis == BASIS_MONOMIAL or not mu.parts:
            return SymmetricPolynomial.monomial(mu, N)
        return functools.reduce(SymmetricPolynomial.mul, [generators[p] for p in mu.parts])

    return _sum([element(mu).scale(c) for mu, c in entries], N)


# One letter y of the alphabet, for one-letter series.
_UNIVERSE_QTY = ("q", "t", "y")
_ONE_Y = Polynomial.one(_UNIVERSE_QTY)
_Y = Polynomial.variable(_UNIVERSE_QTY, "y")
_T = Polynomial.variable(_UNIVERSE_QTY, "t")


def _letter_series(numerator: Polynomial, c, degree: int) -> list:
    """Coefficients of y^0..y^degree in numerator / (1 - c y), fractions
    over (q, t); the numerator is a polynomial in (q, t, y) and ``c`` a
    y-free one (or an int; a missing denominator is c = 0).

    Every denominator the callers expand has y-free part 1, so its inverse
    is the geometric sum of (c y)^k, here cut at k = degree."""
    geometric = geometric_sum(_UNIVERSE_QTY, "y", degree + 1).substitute({"y": c * _Y})
    parts = [{} for _ in range(degree + 1)]
    for (i, j, k), coeff in (numerator * geometric).items():
        if k <= degree:
            parts[k][i, j] = coeff
    return [FactoredFraction(Polynomial(UNIVERSE_QT, p)) for p in parts]


def _letter_product(coeffs, N: int) -> SymmetricPolynomial:
    """The product over x_1..x_N of sum_k coeffs[k] x_i^k, cut at total
    degree len(coeffs) - 1.  The monomial with exponents lam (padded with
    zeros) takes coeffs[lam_i] from letter i, so the orbit of lam carries
    coeffs[0]^(N - length) times the product of coeffs[part]."""
    out = {}
    for n in range(len(coeffs)):
        for lam in partitions_of(n, N):
            factors = [coeffs[0]] * (N - lam.length) + [coeffs[part] for part in lam.parts]
            out[tuple(lam.parts)] = _fraction_product(factors)
    return SymmetricPolynomial(N, out)


# ---------------------------------------------------------------------------
# g_n as a polynomial on a finite alphabet


def row_polynomial(n: int, N: int) -> SymmetricPolynomial:
    """g_n on N variables, read off its monomial-basis table."""
    if N < 1 or n < 0:
        raise UsageError("need N >= 1 and n >= 0")
    table = row_expansion_table(n, BASIS_MONOMIAL)
    return SymmetricPolynomial(
        N, {tuple(mu.parts): f for mu, f in table.entries if mu.length <= N}
    )


def expansion_agreement(n: int, N: int) -> bool:
    """All six basis tables give the degree-n part of the generating
    product over the letters of sum_k heine_coefficient(k) x_i^k."""
    if N < 1 or n < 0:
        raise UsageError("need N >= 1 and n >= 0")
    heine = [heine_coefficient(k) for k in range(n + 1)]
    target = _letter_product(heine, N).homogeneous_part(n)
    for basis in BASES:
        sp = _linear_combination(basis, row_expansion_table(n, basis).entries, N)
        if not sp.eq(target):
            return False
    return True


# ---------------------------------------------------------------------------
# Deformed generators three ways


def deformed_basis_check(basis: str, n: int, N: int) -> bool:
    """Whether the generator of degree n of a deformed basis (deformed-e or
    deformed-h) on N variables comes out the same three ways:

    1. degree-n part of the generating product over the letters
       (deformed-e: prod (1 + x_i)/(1 + t x_i);
       deformed-h: prod (1 - t x_i)/(1 - x_i)),
    2. substitution q -> 0 into the monomial table of g_n
       (deformed-e also flips t -> 1/t and scales by (-t)^n),
    3. the closed monomial-orbit expansion.
    """
    if basis not in (BASIS_DEFORMED_ELEMENTARY, BASIS_DEFORMED_COMPLETE):
        raise UsageError(f"unknown deformed basis {basis!r}")
    if n < 1 or N < 1:
        raise UsageError("need n >= 1 and N >= 1")
    elementary = basis == BASIS_DEFORMED_ELEMENTARY
    if elementary:
        series = _letter_series(_ONE_Y + _Y, -_T, n)
    else:
        series = _letter_series(_ONE_Y - _T * _Y, 1, n)
    from_series = _letter_product(series, N).homogeneous_part(n)

    coeffs = {}
    for key, f in row_polynomial(n, N).coeffs.items():
        # At q = 0 every denominator 1 - q^j of the table is 1, which leaves
        # a polynomial in t of degree at most n.
        f = f.substitute({"q": 0})
        if elementary:
            # (-t)^n f(1/t), by reversing the exponents of t.
            f = FactoredFraction(Polynomial(
                UNIVERSE_QT, {(0, n - j): (-1) ** n * c for (_, j), c in f.numerator.items()}
            ))
        coeffs[key] = f
    from_substitution = SymmetricPolynomial(N, coeffs)

    closed = _generator(basis, n, N)
    return from_series.eq(closed) and from_substitution.eq(closed)


# ---------------------------------------------------------------------------
# The difference operator and its eigen-equation


def operator_coefficient(i: int, N: int, universe) -> FactoredFraction:
    """A_i = product over j != i of (t x_i - x_j)/(x_i - x_j)."""
    t_xi = Polynomial.monomial(universe, {"t": 1, f"x{i}": 1})
    xi = Polynomial.variable(universe, f"x{i}")
    others = [Polynomial.variable(universe, f"x{j}") for j in range(1, N + 1) if j != i]
    return FactoredFraction(
        product([t_xi - xj for xj in others], universe), [xi - xj for xj in others]
    )


def eigencheck(n: int, N: int) -> bool:
    """Apply the difference operator sum_i A_i T_i (T_i scales x_i by q) to
    g_n and compare with the eigenvalue q^n t^(N-1) + 1 + t + ... + t^(N-2)
    times g_n."""
    if N < 1:
        raise UsageError("N must be at least 1")
    if N > OPERATOR_N_CAP:
        raise ResourceLimitError(f"operator alphabet size {N} exceeds cap {OPERATOR_N_CAP}")
    if n < 0:
        raise UsageError("degree must be non-negative")
    if n > EIGENCHECK_DEGREE_CAP:
        raise ResourceLimitError(f"degree {n} exceeds eigencheck cap {EIGENCHECK_DEGREE_CAP}")
    uni = x_universe(N)
    g = row_polynomial(n, N).to_fraction(uni)
    terms = []
    for i in range(1, N + 1):
        shifted = g.substitute(
            {f"x{i}": Polynomial.monomial(uni, {"q": 1, f"x{i}": 1})}
        )
        terms.append(operator_coefficient(i, N, uni) * shifted)
    lhs = FactoredFraction.sum(terms, universe=uni)
    return frac_eq(lhs, g * _eigenvalue(uni, n, N))


def _eigenvalue(uni, n: int, N: int) -> Polynomial:
    """q^n t^(N-1) + 1 + t + ... + t^(N-2)."""
    return Polynomial.monomial(uni, {"q": n, "t": N - 1}) + geometric_sum(uni, "t", N - 1)


def eigenvalue_at_zero_matches(N: int) -> bool:
    """Analytic anchor: the n = 0 eigenvalue equals (1 - t^N)/(1 - t)."""
    uni = x_universe(N)
    one = Polynomial.one(uni)
    return frac_eq(
        FactoredFraction(_eigenvalue(uni, 0, N)),
        FactoredFraction(one - Polynomial.variable(uni, "t", N), [one - Polynomial.variable(uni, "t")]),
    )


def coefficient_sum_identities(N: int) -> bool:
    """Two exact identities for the operator coefficients over t, x_1..x_N:
    their plain sum is 1 + t + ... + t^(N-1), and their sum weighted by
    x_i/(1 - t x_i) is t^(N-1)/(1 - t) * (1 - prod (1 - x_j)/(1 - t x_j))."""
    if N < 1:
        raise UsageError("N must be at least 1")
    if N > COEFFICIENT_IDENTITY_N_CAP:
        raise ResourceLimitError(
            f"coefficient identity size {N} exceeds cap {COEFFICIENT_IDENTITY_N_CAP}"
        )
    uni = ("t",) + tuple(f"x{i}" for i in range(1, N + 1))
    one = Polynomial.one(uni)
    coeffs = [operator_coefficient(i, N, uni) for i in range(1, N + 1)]
    plain = FactoredFraction.sum(coeffs, universe=uni)
    if not frac_eq(plain, FactoredFraction(geometric_sum(uni, "t", N))):
        return False
    t_x = [one - Polynomial.monomial(uni, {"t": 1, f"x{j}": 1}) for j in range(1, N + 1)]
    x = [one - Polynomial.variable(uni, f"x{j}") for j in range(1, N + 1)]
    weighted_terms = []
    for i, A in enumerate(coeffs, start=1):
        weight = FactoredFraction(Polynomial.variable(uni, f"x{i}"), [t_x[i - 1]])
        weighted_terms.append(weight * A)
    weighted = FactoredFraction.sum(weighted_terms, universe=uni)
    num = Polynomial.variable(uni, "t", N - 1) * (product(t_x, uni) - product(x, uni))
    return frac_eq(weighted, FactoredFraction(num, [one - Polynomial.variable(uni, "t")] + t_x))


# ---------------------------------------------------------------------------
# The omega involution on power-basis tables


def _omega_factor(mu: Partition) -> FactoredFraction:
    """Action on the coefficient of a power-sum product:
    (-1)^(weight - length) * prod (1 - q^part)/(1 - t^part)."""
    return _per_part(mu, -1 if (mu.weight - mu.length) % 2 else 1, "q", "t")


def omega_row_is_elementary(n: int) -> bool:
    """omega(g_n) has the power-basis coefficients of e_n, omega being the
    degree-homogeneous involution f -> (-1)^deg f[(q - 1)/(1 - t) X], which
    scales each power-basis coefficient by ``_omega_factor``.  At q = 0 they
    are the deformed complete generator's with parameter t, which pins the
    scale of ``_deformed_power_table`` (``omega_duality_check`` cannot see it)."""
    deformed = _deformed_power_table(BASIS_DEFORMED_COMPLETE, n, "t")
    for mu, coeff in row_expansion_table(n, BASIS_POWER).entries:
        sign = -1 if (n - mu.length) % 2 else 1
        expected = FactoredFraction.constant(UNIVERSE_QT, Fraction(sign, z_of(mu)))
        if not frac_eq(coeff * _omega_factor(mu), expected):
            return False
        if not frac_eq(coeff.substitute({"q": 0}), deformed[mu]):
            return False
    return True


def _deformed_power_table(basis: str, n: int, param: str) -> dict:
    """Power-basis coefficients of the generator of degree n of a deformed
    basis: 1/z * prod (1 - param^part), times (-1)^(n - length) for
    deformed-e."""
    signed = basis == BASIS_DEFORMED_ELEMENTARY
    out = {}
    for lam in partitions_of(n):
        sign = -1 if signed and (n - lam.length) % 2 else 1
        out[lam] = _per_part(lam, Fraction(sign, z_of(lam)), param, None)
    return out


def _power_table_product(t1: dict, t2: dict) -> dict:
    """The product of two power tables, each entry added up in one sum."""
    products = {}
    for lam1, f1 in t1.items():
        for lam2, f2 in t2.items():
            key = Partition(sorted(lam1.parts + lam2.parts, reverse=True))
            products.setdefault(key, []).append(f1 * f2)
    return {key: FactoredFraction.sum(fs) for key, fs in products.items()}


def omega_duality_check(mu: Partition) -> bool:
    """omega sends the deformed elementary product with parameter t to the
    deformed complete product with parameter q, coefficient by coefficient
    on the power basis.  Each product folds the power tables of the parts
    of mu with ``_power_table_product``, each distinct part's built once."""
    if not mu.parts:
        raise UsageError("need a partition of positive weight")

    def product_table(basis, param):
        tables = {p: _deformed_power_table(basis, p, param) for p in set(mu.parts)}
        return functools.reduce(_power_table_product, [tables[p] for p in mu.parts])

    e_table = product_table(BASIS_DEFORMED_ELEMENTARY, "t")
    h_table = product_table(BASIS_DEFORMED_COMPLETE, "q")
    zero = FactoredFraction.zero(UNIVERSE_QT)
    for lam in partitions_of(mu.weight):
        lhs = e_table.get(lam, zero) * _omega_factor(lam)
        if not frac_eq(lhs, h_table.get(lam, zero)):
            return False
    return True


# ---------------------------------------------------------------------------
# Inverse expansions and the two series identities


def inverse_expansions_check(n: int, N: int) -> bool:
    """The classical generators recovered from the deformed bases with
    parameter q, plus the t = q collapse of g_n."""
    if n < 1 or N < 1:
        raise UsageError("need n >= 1 and N >= 1")
    h = _generator(BASIS_COMPLETE, n, N)
    e = _generator(BASIS_ELEMENTARY, n, N)
    q = _qt_var("q")

    collapsed = SymmetricPolynomial(
        N, {key: f.substitute({"t": q}) for key, f in row_polynomial(n, N).coeffs.items()}
    )
    if not collapsed.eq(h):
        return False

    # h_n has g_n's deformed coefficients on the same deformed basis, e_n
    # on the other one.
    tables = {
        basis: row_expansion_table(n, basis).entries
        for basis in (BASIS_DEFORMED_COMPLETE, BASIS_DEFORMED_ELEMENTARY)
    }
    checks = [
        (h, BASIS_DEFORMED_COMPLETE, BASIS_DEFORMED_COMPLETE),
        (h, BASIS_DEFORMED_ELEMENTARY, BASIS_DEFORMED_ELEMENTARY),
        (e, BASIS_DEFORMED_ELEMENTARY, BASIS_DEFORMED_COMPLETE),
        (e, BASIS_DEFORMED_COMPLETE, BASIS_DEFORMED_ELEMENTARY),
    ]
    for target, basis, table in checks:
        if not _linear_combination(basis, tables[table], N, "q").eq(target):
            return False
    return True


def generating_shift_check(N: int, degree: int) -> bool:
    """Scaling the degree marker by q multiplies the generating function by
    prod (1 - x_i)/(1 - t x_i); checked to total x-degree <= degree."""
    rows = [row_polynomial(n, N) for n in range(degree + 1)]
    shifted = _sum([g.scale(_qt_var("q", n)) for n, g in enumerate(rows)], N)
    ratio = _letter_product(_letter_series(_ONE_Y - _Y, _T, degree), N)
    return shifted.eq(ratio.mul(_sum(rows, N), max_degree=degree))


def alphabet_shift_check(N: int, degree: int) -> bool:
    """Replacing the numerator letter 1 by q in the alphabet multiplies the
    generating function by prod (1 - x_i); checked to total x-degree <=
    degree."""
    q = _qt_var("q")
    t = _qt_var("t")
    lhs = _linear_combination(
        BASIS_COMPLETE,
        [(mu, spec_value_at(mu, q, t)) for n in range(degree + 1) for mu in partitions_of(n)],
        N,
    )
    alternating = _letter_product(_letter_series(_ONE_Y - _Y, 0, degree), N)
    total = _sum([row_polynomial(n, N) for n in range(degree + 1)], N)
    return lhs.eq(alternating.mul(total, max_degree=degree))
