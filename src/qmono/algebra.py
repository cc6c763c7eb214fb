"""Exact arithmetic kernel: sparse multivariate polynomials over the
rationals and factored fractions.

A variable universe is declared once per computation as an ordered tuple of
names, e.g. ``("a", "b", "q")``.  A monomial is stored as one packed int key
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): its total degree in the top field,
then one field of ``w`` bits per variable in declared order, the first
variable highest.  So the product of two monomials is the sum of their keys,
and int order is a monomial order (graded lexicographic).  The single
canonical term order used for printing, JSON and factor ordering is:
ascending total degree, ties broken by descending exponent tuple in the
declared variable order, which is ascending ``key ^ (2^(n w) - 1)``.

The field width ``w`` of a polynomial is a function of its content alone:
the narrowest of 16, 32, 64, ... bits that holds its total degree below
``2^(w - 1)``, the top bit of each field being a guard bit for division.
Almost every polynomial is 16 bits wide.  An operation whose result could
outgrow its operands' width packs them wider first, and one whose result
shrank (a cancellation) repacks it narrower, so equal polynomials have equal
keys and hash equally.  Exponent tuples exist only at the boundary: the
constructor takes dense tuples, and :meth:`Polynomial.items` and the text
give them back.

A product whose universe holds ``q``, with int coefficients on both sides,
goes by rows of Kronecker ints when it is dense (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009).  Each
factor is split into rows by its monomial in the other variables: the rest
key of a term is its packed key with the field of ``q`` and its share of the
degree taken out.  Each row, from its lowest power of ``q`` to its highest,
is evaluated at ``X = 2^(8 K)`` as one int, every pair of rows is multiplied
in C, the products are summed per output rest key, and each output row is
read back once from its ``K``-byte slots.  ``K`` holds the strict bound
``|a|_1 |b|_1``, sign bit included, rounded up to 1, 2, 4 or 8 where it
fits, so no slot carries into the next.  A product in one variable is the
one-row case.

The rule is computed from counts before any int is built: a product is
dense when it has at least 16 term pairs per row pair plus 3 per slot, the
slots being the ``q``-span + 1 of every row of both factors and of the
product.  A row has at least as many slots as terms, so a factor of at most
six terms (``1 - q^s``) never qualifies, nor do rows of one term each, nor a
row that reaches a far power of ``q``.  The constants come from timing both
paths on every candidate product of ``positivity`` to weight 8 and at its
three cap-edge inputs (Python 3.11, 2 vCPU): from 4 to 32 per row pair and 1
to 4 per slot the total moved by about 2%, and was lowest at 3 per slot.
Every other product goes term pair by term pair through :func:`_mul_terms`.

A peel over sub-multisets runs on Kronecker ints too, through
:class:`PeelInts`, which ``partitions.peel_polynomial`` alone builds and
sizes: c y^j q^k is c X^(k R + j), R a strict bound on the degree in the
other variable y, each factor of few terms multiplies by shifts, and the
value is read back once, by the rows' slot reader, from as many slots as it
holds.  With q outermost the degree in q needs no bound.

Most operations of a command are on small operands, which take short paths.
A monomial packs its one key directly, the text reads each monomial's
string from a table kept per universe and width, keyed by the packed key
with its degree field masked off and emptied when it reaches its bound, and
:meth:`Polynomial.sort_key` is computed once per polynomial and kept, as is
whether every coefficient is an int, which the rows need; an integral
Fraction is always stored as an int.  A fraction whose factors all come
from normalized fractions (a product, negation, power or scalar multiple,
the common denominator of a sum) is built without checking and
sign-normalizing them again.  The kept sort key and hash rely on a term
map never changing after its constructor returns; no code writes into one
(``tests/test_runtime.py`` checks this).  A fraction's text is joined from
the strings of its JSON form (:func:`fraction_text`), so a command that
prints both formats each polynomial once.

Fractions are never reduced by multivariate gcd.  They stay in factored form
(numerator polynomial over a multiset of denominator factors).  A sum is
added up a balanced tree over its distinct denominators (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 10): each node is a numerator over
the lcm of its leaves, so a factor that several terms lack multiplies their
partial sum once.  Equality lifts both numerators over the lcm of the two
denominators and compares them: one lift (:func:`_lifted`) serves sums and
equality, and one balanced list product (:func:`product`) serves the lift
and every caller that multiplies a list of polynomials.  The one reduction
the kernel offers is exact division by a known factor
(:meth:`Polynomial.exact_quotient`), which callers use to cancel a
denominator factor they know.  Substitution is a monomial map, as each
change of alphabet in the paper is (``a -> 1``, ``b -> q^N``,
``x_i -> q^(mu_i)``): a variable is bound to a constant or one term, so each
term of a polynomial or of a fraction's factors is one key shift and one
coefficient scale, and no value is ever inverted.
All values are immutable after construction and every operation is a pure
function, so values can be shared freely between threads.
"""

from __future__ import annotations

import functools
import heapq
import sys
from fractions import Fraction
from itertools import repeat
from struct import calcsize
from typing import Iterable, Mapping, Sequence, Union

from .errors import InternalConsistencyError, InvalidValueError, PoleError, UsageError

Coeff = Union[int, Fraction]
Universe = tuple

# The narrowest field width, in bits, of a packed monomial key.
_NARROW = 16
# The dense path's rule (see the module docstring): at least _ROW_COST term
# pairs per row pair plus _SLOT_COST per slot.
_ROW_COST = 16
_SLOT_COST = 3
# The slot sizes memoryview.cast reads as unsigned ints in this byte order.
_SLOT_FORMATS = {calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def _norm_coeff(c):
    # Integral Fractions collapse to int so hot loops stay on int arithmetic.
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise UsageError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _check_exponent(e):
    if not isinstance(e, int):
        raise UsageError(f"exponent must be an int, got {type(e).__name__}")
    if e < 0:
        raise UsageError(f"negative exponent {e}")


def _width_for(degree: int) -> int:
    """The field width of a polynomial of this total degree."""
    w = _NARROW
    while degree >> (w - 1):
        w *= 2
    return w


def _pack(exps, w: int) -> int:
    k = sum(exps)
    for e in exps:
        k = (k << w) | e
    return k


def _unpack(k: int, n: int, w: int) -> tuple:
    mask = (1 << w) - 1
    return tuple((k >> (w * i)) & mask for i in range(n - 1, -1, -1))


def _repacked(terms: dict, n: int, w: int, to: int) -> dict:
    if w == to:
        return terms
    return {_pack(_unpack(k, n, w), to): c for k, c in terms.items()}


def _mul_terms(a: dict, b: dict, out: dict) -> dict:
    """Add the product of two term maps of one width into ``out`` and
    return it; the caller has made the width hold the product."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    b = b.items()
    for e1, c1 in a.items():
        for e2, c2 in b:
            e = e1 + e2
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _slot_size(bound: int) -> int:
    """Bytes per slot that hold a sign bit and any coefficient of absolute
    value at most ``bound``: 1, 2, 4 or 8 where one of them does.

    A dense product never gets 1: the rule admits none with fewer than 169
    term pairs (13 x 13 in one row), and its bound ``|a|_1 |b|_1`` is at
    least its number of term pairs, so at least 2^7.  A small peel does."""
    size = bound.bit_length() // 8 + 1
    return size if size > 8 else 1 << (size - 1).bit_length()


def _rows(terms: dict, shift: int, w: int, step: int) -> dict:
    """The term map split by the field of q, at bit ``shift`` and ``w``
    bits wide: rest key -> {exponent of q: coefficient}, where q^e adds
    ``e * step`` to a key."""
    mask = (1 << w) - 1
    rows = {}
    for k, c in terms.items():
        e = (k >> shift) & mask
        r = k - e * step
        row = rows.get(r)
        if row is None:
            rows[r] = {e: c}
        else:
            row[e] = c
    return rows


def _bias(slots: int, size: int) -> tuple:
    """Half a ``size``-byte slot, and the int with it in each of ``slots``
    slots."""
    half = 1 << (8 * size - 1)
    return half, int.from_bytes(half.to_bytes(size, "little") * slots, "little")


def _evaluate(row: dict, lo: int, hi: int, size: int) -> int:
    """The int sum of c * X^(e - lo) over the terms c q^e of a row, at
    X = 2^(8 size), lo <= e <= hi.  Each coefficient is written biased by
    half a slot, so that every slot is non-negative."""
    half, bias = _bias(hi - lo + 1, size)
    coeffs = [half] * (hi - lo + 1)
    for e, c in row.items():
        coeffs[e - lo] += c
    raw = b"".join(map(int.to_bytes, coeffs, repeat(size), repeat("little")))
    return int.from_bytes(raw, "little") - bias


def _read(value: int, slots: int, size: int, keys: Iterable[int]) -> dict:
    """The term map whose coefficient at the i-th of ``keys`` is the i-th
    signed ``size``-byte slot of ``value``.  The bias of :func:`_evaluate`
    makes each slot non-negative without a carry, so the slots read as
    unsigned ints."""
    half, bias = _bias(slots, size)
    try:
        raw = (value + bias).to_bytes(slots * size, "little")
    except OverflowError:
        raise InternalConsistencyError(
            f"a Kronecker int outgrew its {slots} slots of {size} bytes"
        ) from None
    fmt = _SLOT_FORMATS.get(size)
    if fmt:
        digits = memoryview(raw).cast(fmt).tolist()
    else:
        digits = [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]
    return {k: d - half for k, d in zip(keys, digits) if d != half}


def _row_product(a: dict, b: dict, n: int, at: int, w: int):
    """The product of two term maps at width w by rows of Kronecker ints,
    q being variable ``at`` of ``n``, both with int coefficients; or None
    unless the product is dense (see the module docstring)."""
    la, lb = len(a), len(b)
    pairs = la * lb
    # A row has at least as many slots as terms, and the product's rows at
    # least as many as either factor's: the rule's floor, before any split.
    if pairs < _ROW_COST + _SLOT_COST * (la + lb + max(la, lb)):
        return None
    shift = w * (n - 1 - at)
    step = (1 << (n * w)) + (1 << shift)  # q^e adds e * step to a key
    rows_a, rows_b = _rows(a, shift, w, step), _rows(b, shift, w, step)
    spans_a = [(r, min(row), max(row)) for r, row in rows_a.items()]
    spans_b = [(r, min(row), max(row)) for r, row in rows_b.items()]
    cost = _ROW_COST * len(spans_a) * len(spans_b) + _SLOT_COST * sum(
        hi - lo + 1 for _, lo, hi in spans_a + spans_b
    )
    if cost > pairs:
        return None
    out = {}
    for r1, lo1, hi1 in spans_a:
        for r2, lo2, hi2 in spans_b:
            span = out.get(r1 + r2)
            if span is None:
                out[r1 + r2] = [lo1 + lo2, hi1 + hi2]
            else:
                span[0] = min(span[0], lo1 + lo2)
                span[1] = max(span[1], hi1 + hi2)
    cost += _SLOT_COST * sum(hi - lo + 1 for lo, hi in out.values())
    if cost > pairs:
        return None
    size = _slot_size(sum(map(abs, a.values())) * sum(map(abs, b.values())))
    bits = 8 * size
    ints_b = [(r, lo, _evaluate(rows_b[r], lo, hi, size)) for r, lo, hi in spans_b]
    sums = {}
    for r1, lo1, hi1 in spans_a:
        x1 = _evaluate(rows_a[r1], lo1, hi1, size)
        for r2, lo2, x2 in ints_b:
            r = r1 + r2
            sums[r] = sums.get(r, 0) + (x1 * x2 << bits * (lo1 + lo2 - out[r][0]))
    terms = {}
    for r, value in sums.items():
        lo, hi = out[r]
        keys = range(r + lo * step, r + (hi + 1) * step, step)
        terms.update(_read(value, hi - lo + 1, size, keys))
    return terms


class _Shifts(tuple):
    """A multiplier of Kronecker ints with few terms, as (coefficient, bit
    shifts) pairs: ``value * f`` adds up shifted copies of value, never
    multiplying by the long, nearly empty int that f evaluates to."""

    __slots__ = ()

    def __rmul__(self, value: int) -> int:
        total = 0
        for c, shifts in self:
            part = value << shifts[0]
            for s in shifts[1:]:
                part += value << s
            if c != 1:
                part = -part if c == -1 else c * part
            total = part if total == 0 else total + part
        return total


# The monomial strings of the text, kept per (universe, width) and keyed by
# the packed key without its degree field.  A table is emptied when it
# reaches the bound, so it holds at most that many strings.  The 627 entries
# of ``expand --n 20 --basis monomial`` print 292,814 terms over 2,628
# distinct monomials, which one table holds: their text took 0.16 s against
# 0.31 s by shifting every field (Python 3.11, 2 vCPU, min of 5).  A process
# formats in few universes, so 64 tables hold them all.  Threads may race on
# a table: a lost insert or an emptied table costs only a rebuilt string.
_TEXT_TABLE_BOUND = 4096


@functools.lru_cache(maxsize=64)
def _monomial_texts(universe: tuple, w: int) -> dict:
    """The table of monomial strings of one universe at width w."""
    return {}


def _monomial_text(universe: tuple, w: int, k: int) -> str:
    """The string of the monomial of packed key k, such as "a^2 * q", and
    "" for the constant."""
    mask, n = (1 << w) - 1, len(universe)
    body = []
    for i, name in enumerate(universe):
        x = (k >> (w * (n - 1 - i))) & mask
        if x == 1:
            body.append(name)
        elif x > 1:
            body.append(f"{name}^{x}")
    return " * ".join(body)


@functools.lru_cache(maxsize=256)
def _packed_rows(rows: tuple, w: int) -> tuple:
    """The keys of a peel's read-back rows at width w.  A caller reads back
    at the same few rows call after call (the closed forms and the power-sum
    oracle at one row per degree in b), so the keys are packed once."""
    return tuple(_pack(row, w) for row in rows)


class PeelInts:
    """A peel's values in q and at most one more variable y as Kronecker
    ints (see the module docstring), ``ys`` a strict bound on the degree
    in y, the R of the flattened index: the span of slots that one power
    of q takes."""

    __slots__ = ("ys", "size")

    def __init__(self, ys: int, bound: int):
        if ys < 1:
            raise InternalConsistencyError(f"a Kronecker span of {ys} rows holds no term")
        self.ys, self.size = ys, _slot_size(bound)

    def multiplier(self, terms: Mapping[tuple, int]) -> _Shifts:
        """The value {(j, k): c y^j q^k} as a multiplier by shifts."""
        groups = {}
        for (j, k), c in terms.items():
            groups.setdefault(c, []).append((k * self.ys + j) * 8 * self.size)
        return _Shifts(groups.items())

    def polynomial(self, value: int, universe, rows: list) -> "Polynomial":
        """The polynomial over ``universe`` whose term at q^k times the
        monomial of exponent tuple ``rows[j]`` is slot k ys + j of value,
        for every slot the value holds."""
        n, at = len(universe), universe.index("q")
        slots = abs(value).bit_length() // (8 * self.size) + 1
        blocks = (slots - 1) // self.ys + 1
        w = _width_for(max(map(sum, rows)) + blocks - 1)
        step = (1 << (n * w)) + (1 << (w * (n - 1 - at)))  # q^k adds k * step
        packed = _packed_rows(tuple(rows), w)
        keys = (r + k for k in range(0, blocks * step, step) for r in packed)
        terms = _read(value, slots, self.size, keys)
        return Polynomial._narrowest(universe, terms, w, True)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps packed monomial keys (see the module docstring) to nonzero
    coefficients; no zero coefficient is ever stored.  Two polynomials are
    equal iff they share the universe and the term map.  Only this module
    reads ``terms``; :meth:`items` gives the terms with dense exponent
    tuples, and :meth:`coefficients` the coefficients alone, unordered.
    """

    __slots__ = ("universe", "terms", "_width", "_degree", "_hash", "_sort_key", "_ints")

    def __init__(self, universe: Sequence[str], terms: Mapping[tuple, Coeff]):
        universe = tuple(universe)
        n = len(universe)
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise UsageError(
                    f"exponent vector {exps} does not match universe {universe}"
                )
            for e in exps:
                if not isinstance(e, int) or e < 0:
                    _check_exponent(e)
            c = _norm_coeff(c)
            if c != 0:
                clean[exps] = c
        w = _width_for(max(map(sum, clean), default=0))
        self.universe = universe
        self.terms = {_pack(exps, w): c for exps, c in clean.items()}
        self._width = w
        self._degree = None
        self._hash = None
        self._sort_key = None
        self._ints = None

    @classmethod
    def _raw(cls, universe, terms, w=_NARROW, degree=None, ints=None):
        # Internal fast path; callers guarantee clean terms packed at the
        # width their content calls for, and ints when they know it.
        p = cls.__new__(cls)
        p.universe = universe
        p.terms = terms
        p._width = w
        p._degree = degree
        p._hash = None
        p._sort_key = None
        p._ints = ints
        return p

    @classmethod
    def _narrowest(cls, universe, terms, w, ints=None):
        # Terms packed at width w, which holds them but may be wider than
        # their content calls for.
        n = len(universe)
        to = _width_for(max(terms) >> (n * w)) if terms and w > _NARROW else _NARROW
        return cls._raw(universe, _repacked(terms, n, w, to), to, None, ints)

    @classmethod
    def zero(cls, universe) -> "Polynomial":
        return cls._raw(tuple(universe), {})

    @classmethod
    def constant(cls, universe, c: Coeff) -> "Polynomial":
        universe = tuple(universe)
        c = _norm_coeff(c)
        if c == 0:
            return cls._raw(universe, {})
        return cls._raw(universe, {0: c}, _NARROW, 0, type(c) is int)

    @classmethod
    def one(cls, universe) -> "Polynomial":
        return cls.constant(universe, 1)

    @classmethod
    def variable(cls, universe, name: str, power: int = 1, coeff: Coeff = 1) -> "Polynomial":
        return cls.monomial(universe, {name: power}, coeff)

    @classmethod
    def monomial(cls, universe, powers: Mapping[str, int], coeff: Coeff = 1) -> "Polynomial":
        universe = tuple(universe)
        exps = [0] * len(universe)
        for name, e in powers.items():
            if name not in universe:
                raise UsageError(f"variable {name!r} not in universe {universe}")
            _check_exponent(e)
            exps[universe.index(name)] += e
        c = _norm_coeff(coeff)
        if c == 0:
            return cls._raw(universe, {})
        w = _width_for(sum(exps))
        return cls._raw(universe, {_pack(exps, w): c}, w, None, type(c) is int)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise InvalidValueError(f"{self.text()} is not a constant")
        return self.terms.get(0, 0)

    def items(self):
        """The (dense exponent tuple, coefficient) pairs in canonical order."""
        n, w = len(self.universe), self._width
        return [(_unpack(k, n, w), self.terms[k]) for k in self._canonical()]

    def coefficients(self):
        """The nonzero coefficients, in no particular order."""
        return self.terms.values()

    def _canonical(self) -> list:
        """The keys in canonical term order."""
        return sorted(self.terms, key=((1 << (len(self.universe) * self._width)) - 1).__xor__)

    def _int_valued(self) -> bool:
        """Whether every coefficient is an int, as the rows need: passed on
        by an operation on int-valued operands, else found once and kept."""
        if self._ints is None:
            self._ints = set(map(type, self.terms.values())) <= {int}
        return self._ints

    def _total_degree(self) -> int:
        d = self._degree
        if d is None:
            d = self._degree = max(self.terms) >> (len(self.universe) * self._width)
        return d

    def _at(self, w: int) -> dict:
        """The term map packed at width ``w``, at least this polynomial's."""
        if w == self._width:
            return self.terms
        return _repacked(self.terms, len(self.universe), self._width, w)

    def _check(self, other: "Polynomial"):
        if self.universe != other.universe:
            raise UsageError(
                f"variable universes differ: {self.universe} vs {other.universe}"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.universe, other)
        self._check(other)
        a, b = self, other
        if len(a.terms) < len(b.terms):
            a, b = b, a
        w = max(a._width, b._width)
        terms = dict(a._at(w))
        # Only two Fractions can add up to an integer.
        ints = b._int_valued()
        for e, c in b._at(w).items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s if ints else _norm_coeff(s)
            else:
                del terms[e]
        return Polynomial._narrowest(self.universe, terms, w, a._ints if ints else None)

    __radd__ = __add__

    def __neg__(self):
        terms = {e: -c for e, c in self.terms.items()}
        return Polynomial._raw(self.universe, terms, self._width, self._degree, self._ints)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                return Polynomial._raw(self.universe, {})
            other = _norm_coeff(other)
            return Polynomial._raw(
                self.universe,
                {e: _norm_coeff(c * other) for e, c in self.terms.items()},
                self._width,
                self._degree,
                (self._ints and type(other) is int) or None,
            )
        self._check(other)
        if not self.terms or not other.terms:
            return Polynomial._raw(self.universe, {})
        # Over the rationals the degree of a product is the sum of degrees.
        degree = self._total_degree() + other._total_degree()
        w = _width_for(degree)
        a, b = self._at(w), other._at(w)
        ints = self._int_valued() and other._int_valued()
        terms = None
        if ints and "q" in self.universe:
            terms = _row_product(a, b, len(self.universe), self.universe.index("q"), w)
        if terms is None:
            terms = _mul_terms(a, b, {})
            if not ints:  # Fractions may multiply to an integer
                terms = {e: _norm_coeff(c) for e, c in terms.items()}
        return Polynomial._raw(self.universe, terms, w, degree, ints or None)

    __rmul__ = __mul__

    def exact_quotient(self, d: "Polynomial"):
        """The polynomial q with q * d == self, or None when d does not
        divide self.

        Leading-term division in the graded order of the packed keys, with
        the remainder's terms kept in a heap as in Monagan and Pearce: each
        step cancels the remainder's leading term, and the division fails as
        soon as the leading term of d does not divide it.  Divisibility of
        two keys is one subtraction: with the guard bit of every field set
        in the dividend, a field of the difference keeps its guard bit
        exactly when it did not go negative."""
        self._check(d)
        if d.is_zero:
            raise InvalidValueError("division by the zero polynomial")
        if not self.terms:
            return Polynomial._raw(self.universe, {})
        if d._total_degree() > self._total_degree():
            return None
        n, w = len(self.universe), self._width
        dterms = d._at(w)
        lead = max(dterms)
        lc = dterms[lead]
        tail = [(e, c) for e, c in dterms.items() if e != lead]
        # The top bit of each variable field.
        guard = ((1 << (n * w)) - 1) // ((1 << w) - 1) << (w - 1)
        rem = dict(self.terms)
        heap = [-e for e in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            e = -heapq.heappop(heap)
            c = rem.pop(e, None)
            if c is None:
                continue  # cancelled after it was queued
            qe = (e | guard) - lead
            if qe & guard != guard:
                return None
            qe ^= guard
            qc = c if lc == 1 else -c if lc == -1 else Fraction(c) / lc
            quot[qe] = qc if type(qc) is int else _norm_coeff(qc)
            # Every term of qe * tail is below e, so the heap only ever
            # receives terms below the one just cancelled.
            for te, tc in tail:
                m = qe + te
                s = rem.get(m, 0) - qc * tc
                if s == 0:
                    del rem[m]
                else:
                    if m not in rem:
                        heapq.heappush(heap, -m)
                    rem[m] = s
        return Polynomial._narrowest(self.universe, quot, w)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UsageError("polynomial powers must be non-negative integers")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.one(self.universe) if result is None else result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.universe, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.universe, frozenset(self.terms.items())))
        return self._hash

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, object], universe=None) -> "Polynomial":
        """Substitute monomials for variables, optionally onto a new
        universe: a binding is an int, a Fraction or a polynomial of at most
        one term over the target universe.  An unbound variable maps to
        itself; it is an error only if it occurs in a term and is absent
        from the target universe.  With no bindings this re-expresses the
        polynomial over ``universe``."""
        target = tuple(universe) if universe is not None else self.universe
        images = {}
        for name, v in bindings.items():
            if name not in self.universe:
                raise UsageError(f"binding for unknown variable {name!r}")
            if isinstance(v, (int, Fraction)):
                v = Polynomial.constant(target, v)
            if not isinstance(v, Polynomial):
                raise UsageError("bindings must be Polynomial, int or Fraction")
            if v.universe != target:
                raise UsageError("binding value not over the target universe")
            if len(v.terms) > 1:
                raise UsageError(f"binding for {name!r} has {len(v.terms)} terms, not one")
            images[name] = v
        if not self.terms:
            return Polynomial._raw(target, {})
        n, sw = len(self.universe), self._width
        # Every term of the result has at most this degree; an unbound
        # variable is an image of degree 1.
        degrees = [v._total_degree() for v in images.values() if v.terms]
        w = _width_for(self._total_degree() * max(degrees + [int(len(images) < n)]))
        # A term starts from its own key when the layout stays: an unbound
        # variable keeps its bits, and a bound one trades e times its own key
        # for its image.  Otherwise a term starts from 0 and every variable
        # it holds is visited.
        stay = target == self.universe and w == sw
        mask = (1 << sw) - 1
        visits = []
        for i, name in enumerate(self.universe):
            slot = sw * (n - 1 - i)
            own = (1 << (n * sw)) | (1 << slot) if stay else 0
            if name in images:
                img = images[name]._at(w)
            elif stay:
                continue
            elif name in target:
                img = Polynomial.variable(target, name)._at(w)
            elif any((k >> slot) & mask for k in self.terms):
                raise UsageError(f"variable {name!r} occurs but is absent from {target}")
            else:
                continue
            # A zero image kills the term.
            ((key, vc),) = img.items() if img else ((own, 0),)
            visits.append((slot, key - own, vc))
        ints = self._int_valued() and all(type(vc) is int for _, _, vc in visits)
        out = {}
        get = out.get
        for k, c in self.terms.items():
            key = k if stay else 0
            for slot, shift, vc in visits:
                e = (k >> slot) & mask
                if not e:
                    continue
                if not vc:
                    break
                key += e * shift
                if vc != 1:
                    c = c * vc ** e
            else:
                s = get(key, 0) + c
                if s:
                    out[key] = s if ints else _norm_coeff(s)
                else:
                    del out[key]
        return Polynomial._narrowest(target, out, w, ints or None)

    # -- canonical text ----------------------------------------------------

    def sort_key(self):
        """A key ordering polynomials term by term in canonical order: each
        term gives four entries, its degree, its key negated and its
        coefficient's numerator and denominator, in one flat tuple, which
        orders as the tuple of per-term tuples would.  A term is keyed at
        the width of its own degree, so that terms of equal degree compare
        alike in polynomials of different widths.  Computed once and kept,
        as a polynomial never changes; one flat tuple holds less memory than
        a tuple per term."""
        key = self._sort_key
        if key is None:
            n, w = len(self.universe), self._width
            shift = n * w
            out = []
            for k in self._canonical():
                c = self.terms[k]
                degree = k >> shift
                if w > _NARROW:
                    k = _pack(_unpack(k, n, w), _width_for(degree))
                out += (degree, -k, c.numerator, c.denominator)
            key = self._sort_key = tuple(out)
        return key

    def text(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        universe, w = self.universe, self._width
        table = _monomial_texts(universe, w)
        low = (1 << (len(universe) * w)) - 1
        pieces = []
        for k in self._canonical():
            c = terms[k]
            k &= low
            monomial = table.get(k)
            if monomial is None:
                if len(table) >= _TEXT_TABLE_BOUND:
                    table.clear()
                monomial = table[k] = _monomial_text(universe, w, k)
            if c < 0:
                pieces.append(" - ")
                c = -c
            else:
                pieces.append(" + ")
            if not k:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(monomial)
            else:
                pieces.append(f"{c} * {monomial}")
        pieces[0] = "-" if pieces[0] == " - " else ""
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.text()!r})"


def product(factors: list, universe) -> Polynomial:
    """The product of a list of polynomials over ``universe``, up a balanced
    tree in list order, so that no long partial product meets a short factor."""
    if not factors:
        return Polynomial.one(universe)
    if len(factors) == 1:
        return factors[0]
    half = len(factors) // 2
    return product(factors[:half], universe) * product(factors[half:], universe)


def _lifted(num: Polynomial, have: list, to: list, factors: list) -> Polynomial:
    """num over the powers ``have`` of ``factors`` brought over the powers
    ``to``, each at least its own: the factor powers it lacks are multiplied
    together first, then once into num."""
    lift = [f ** (t - h) for f, t, h in zip(factors, to, have) if t > h]
    return num * product(lift, num.universe) if lift and num.terms else num


def _merged(nodes: list, factors: list) -> tuple:
    """The sum of (numerator, powers of ``factors``) nodes over the lcm of
    their denominators, added up a balanced tree in list order: a factor
    that several nodes lack multiplies their partial sum once."""
    if len(nodes) == 1:
        return nodes[0]
    half = len(nodes) // 2
    (n1, h1), (n2, h2) = _merged(nodes[:half], factors), _merged(nodes[half:], factors)
    to = list(map(max, h1, h2))
    return _lifted(n1, h1, to, factors) + _lifted(n2, h2, to, factors), to


def _sign_normalized(f: Polynomial):
    """Return (g, flipped) with g = +/-f such that the first term of g in
    canonical order has a positive coefficient."""
    terms = f.terms
    shift = len(f.universe) * f._width
    # The first term: the largest key of the lowest degree.
    below = ((min(terms) >> shift) + 1) << shift
    first = max(k for k in terms if k < below)
    if terms[first] < 0:
        return -f, True
    return f, False


def _sorted_factors(numerator: Polynomial, den: Mapping) -> tuple:
    """The denominator of a fraction: the (factor, multiplicity) pairs of
    ``den`` in canonical factor order, or none over a zero numerator."""
    if not numerator.terms:
        return ()
    return tuple(sorted(den.items(), key=lambda fm: fm[0].sort_key()))


class FactoredFraction:
    """A polynomial numerator over a multiset of polynomial denominator
    factors; the value is numerator / product(factor^multiplicity).

    Denominator factors are sign-normalized (first canonical term positive),
    constant factors are folded into the numerator, and factors are stored
    sorted, so structurally equal values compare equal with ``==``.  Value
    equality (cross-multiplication) is :meth:`eq` / :func:`frac_eq`.
    """

    __slots__ = ("numerator", "denominator", "_hash")

    def __init__(self, numerator: Polynomial, denominator=()):
        if not isinstance(numerator, Polynomial):
            raise UsageError("numerator must be a Polynomial")
        den = {}
        scale = Fraction(1)
        flip = 1
        for item in denominator:
            if isinstance(item, Polynomial):
                f, m = item, 1
            else:
                f, m = item
            if not isinstance(f, Polynomial) or not isinstance(m, int) or m <= 0:
                raise UsageError("denominator factors must be (Polynomial, positive int)")
            if f.universe != numerator.universe:
                raise UsageError(
                    f"variable universes differ: {numerator.universe} vs {f.universe}"
                )
            if f.is_zero:
                raise InvalidValueError("zero denominator factor")
            if f.is_constant():
                scale /= Fraction(f.constant_value()) ** m
                continue
            f, flipped = _sign_normalized(f)
            if flipped and m % 2:
                flip = -flip
            den[f] = den.get(f, 0) + m
        if scale != 1 or flip < 0:
            numerator = numerator * (scale * flip)
        self.numerator = numerator
        self.denominator = _sorted_factors(numerator, den)
        self._hash = None

    @classmethod
    def _normalized(cls, numerator: Polynomial, den: Mapping) -> "FactoredFraction":
        # Internal fast path; every factor of ``den`` (factor -> multiplicity)
        # comes from the denominator of a fraction, so it is already checked
        # and sign-normalized, and no multiplicity is zero.
        frac = cls.__new__(cls)
        frac.numerator = numerator
        frac.denominator = _sorted_factors(numerator, den)
        frac._hash = None
        return frac

    @property
    def universe(self):
        return self.numerator.universe

    @classmethod
    def constant(cls, universe, c: Coeff) -> "FactoredFraction":
        return cls(Polynomial.constant(universe, c))

    @classmethod
    def one(cls, universe) -> "FactoredFraction":
        return cls(Polynomial.one(universe))

    @classmethod
    def zero(cls, universe) -> "FactoredFraction":
        return cls(Polynomial.zero(universe))

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredFraction._normalized(self.numerator * other, dict(self.denominator))
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if self.universe != other.universe:
            raise UsageError("variable universes differ")
        den = dict(self.denominator)
        for f, m in other.denominator:
            den[f] = den.get(f, 0) + m
        return FactoredFraction._normalized(self.numerator * other.numerator, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UsageError("fraction powers must be non-negative integers")
        den = {f: m * n for f, m in self.denominator if n}
        return FactoredFraction._normalized(self.numerator ** n, den)

    def __neg__(self):
        return FactoredFraction._normalized(-self.numerator, dict(self.denominator))

    def _coerced(self, other):
        """An int, Fraction, Polynomial or fraction as a fraction, else None."""
        if isinstance(other, FactoredFraction):
            return other
        if isinstance(other, (int, Fraction)):
            return FactoredFraction.constant(self.universe, other)
        return FactoredFraction(other) if isinstance(other, Polynomial) else None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return FactoredFraction.sum([self, other])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return FactoredFraction.sum([self, -other])

    def __rsub__(self, other):
        return (-self).__add__(other)

    @staticmethod
    def sum(items: Iterable["FactoredFraction"], universe=None) -> "FactoredFraction":
        """Sum brought over the least common denominator multiset.

        Terms sharing a denominator multiset are added numerator-first; the
        distinct multisets are then added up a balanced tree in their order
        of first appearance (:func:`_merged`).  The common denominator keeps
        the factors of a multiset whose numerators cancelled to zero."""
        items = list(items)
        if not items:
            if universe is None:
                raise UsageError("empty sum needs an explicit universe")
            return FactoredFraction.zero(universe)
        uni = items[0].universe
        buckets = {}
        for it in items:
            if not isinstance(it, FactoredFraction):
                raise UsageError("sum expects FactoredFraction items")
            if it.universe != uni:
                raise UsageError("variable universes differ")
            if it.is_zero:
                continue
            cur = buckets.get(it.denominator)
            buckets[it.denominator] = (
                it.numerator if cur is None else cur + it.numerator
            )
        if not buckets:
            return FactoredFraction.zero(uni)
        common = {}
        for den in buckets:
            for f, m in den:
                if common.get(f, 0) < m:
                    common[f] = m
        factors = list(common)
        at = {f: i for i, f in enumerate(factors)}
        nodes = []
        for den, num in buckets.items():
            if num.terms:
                have = [0] * len(factors)
                for f, m in den:
                    have[at[f]] = m
                nodes.append((num, have))
        total = Polynomial.zero(uni)
        if nodes:
            num, have = _merged(nodes, factors)
            total = _lifted(num, have, list(common.values()), factors)
        return FactoredFraction._normalized(total, common)

    # -- value equality ----------------------------------------------------

    def eq(self, other) -> bool:
        """Cross-multiplication equality with a fraction, Polynomial, int or
        Fraction: both numerators are lifted over the lcm of the two
        denominators, so common factors cancel before multiplying out."""
        other, given = self._coerced(other), other
        if other is None:
            raise UsageError(f"cannot compare a fraction with {type(given).__name__}")
        if self.universe != other.universe:
            raise UsageError("variable universes differ")
        # The lcm's factors in this denominator's order, then the other's new
        # ones: a fixed order, so the lifts multiply alike in every process.
        mine, theirs = dict(self.denominator), dict(other.denominator)
        factors = list(mine) + [f for f in theirs if f not in mine]
        have, got = ([d.get(f, 0) for f in factors] for d in (mine, theirs))
        to = list(map(max, have, got))
        lhs = _lifted(self.numerator, have, to, factors)
        return lhs == _lifted(other.numerator, got, to, factors)

    def __eq__(self, other):
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        return (
            self.numerator == other.numerator and self.denominator == other.denominator
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.numerator, self.denominator))
        return self._hash

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, object], universe=None) -> "FactoredFraction":
        """Exact substitution of monomials, the contract of
        :meth:`Polynomial.substitute` (whose checks the numerator's runs
        first), into the numerator and each denominator factor; a factor
        that becomes identically zero raises :class:`PoleError` instead of
        being simplified away."""
        target = tuple(universe) if universe is not None else self.universe
        num = self.numerator.substitute(bindings, target)
        den = []
        for f, m in self.denominator:
            nf = f.substitute(bindings, target)
            if nf.is_zero:
                raise PoleError(f"denominator factor {f.text()} vanished")
            den.append((nf, m))
        return FactoredFraction(num, den)

    # -- canonical text ----------------------------------------------------

    def text(self) -> str:
        return fraction_text(self.to_json())

    def to_json(self) -> dict:
        """The strings of the numerator and of each denominator factor with
        its multiplicity; :func:`fraction_text` joins them into the text."""
        return {
            "numerator": self.numerator.text(),
            "denominator_factors": [[f.text(), m] for f, m in self.denominator],
        }

    def __repr__(self):
        return f"FactoredFraction({self.text()!r})"


def fraction_text(doc: dict) -> str:
    """The text of a fraction from the strings of its ``to_json`` document,
    so that a caller printing both formats each polynomial once."""
    num, factors = doc["numerator"], doc["denominator_factors"]
    if not factors:
        return num
    parts = [f"({f})^{m}" if m > 1 else f"({f})" for f, m in factors]
    den = " * ".join(parts)
    if len(parts) > 1:
        den = f"({den})"
    return f"({num}) / {den}"


def frac_eq(f: FactoredFraction, g: FactoredFraction) -> bool:
    """True iff the two fractions have equal values (cross-multiplication)."""
    return f.eq(g)


def geometric_sum(universe, name: str, n: int) -> Polynomial:
    """1 + v + ... + v^(n-1) over the given universe."""
    if n < 0:
        raise UsageError("length must be non-negative")
    universe = tuple(universe)
    if name not in universe:
        raise UsageError(f"variable {name!r} not in universe {universe}")
    at = universe.index(name)
    zeros = (0,) * len(universe)
    return Polynomial(universe, {zeros[:at] + (k,) + zeros[at + 1:]: 1 for k in range(n)})
