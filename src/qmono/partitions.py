"""Partition combinatorics: enumeration, optionally bounded in length,
multiplicities, the centralizer size z, the distinct rearrangements of the
parts, the subset part sums counted without listing the subsets, one peel
over sub-multisets with two step rules, over the rearrangements and over
the set partitions of the positions, summing without listing (on ints, or
on Kronecker ints read back as a polynomial or, for prop5, decided at the
codec's point), and the cycle decompositions of the full symmetric group.
The step rules also serve ``identities``, which peels its symmetrized
sums over multisets of image classes.  Only the
symmetric-group enumerations grow with length!, and they share one cap,
PERMUTATION_CAP; they are the literal references of criterion 5 and of the
tests, and every other sum over them goes through a peel.  A length bound
on partitions prunes the enumeration itself, so it builds only the
partitions it returns.

Enumeration orders are deterministic: reverse-lexicographic for partitions,
lexicographic for rearrangements and permutations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .algebra import PeelInts
from .errors import ResourceLimitError, UsageError

PERMUTATION_CAP = 8


@dataclass(frozen=True, slots=True)
class Partition:
    """Weakly decreasing sequence of positive integers (possibly empty).
    Slotted: a sweep holds thousands of them as its instances."""

    parts: tuple

    def __init__(self, parts=()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if isinstance(p, bool) or not isinstance(p, int) or p < 1:
                raise UsageError(f"partition parts must be positive ints, got {p!r}")
            if i and parts[i - 1] < p:
                raise UsageError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict:
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def remove_part(self, i: int) -> "Partition":
        if i not in self.parts:
            raise UsageError(f"{i} is not a part of {self.parts}")
        rest = list(self.parts)
        rest.remove(i)
        return Partition(rest)

    def repetition_factor(self) -> int:
        """Product of the factorials of the part multiplicities."""
        return math.prod(map(math.factorial, self.multiplicities().values()))

    def rearrangement_count(self) -> int:
        """The number of distinct rearrangements of the parts,
        length! / prod(multiplicity!), without enumerating them."""
        return math.factorial(self.length) // self.repetition_factor()

    def to_json(self) -> list:
        return list(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _partitions_rec(n: int, max_part: int, room: int, prefix: list, out: list):
    if n == 0:
        out.append(Partition(prefix))
        return
    if n > max_part * room:
        return
    for p in range(min(n, max_part), 0, -1):
        prefix.append(p)
        _partitions_rec(n - p, p, room - 1, prefix, out)
        prefix.pop()


def partitions_of(n: int, max_length: int | None = None) -> list:
    """All partitions of n with at most ``max_length`` parts (any number when
    None), in reverse-lexicographic order; n = 0 gives the empty partition.
    The bound prunes the recursion: a branch stops once the parts it has
    left room for cannot make up the rest of n, so no partition is built
    only to be dropped."""
    if n < 0:
        raise UsageError("weight must be non-negative")
    out: list = []
    _partitions_rec(n, n, n if max_length is None else max_length, [], out)
    return out


def partitions_up_to(w: int, max_length: int | None = None) -> list:
    """All partitions of each weight 1..w with at most ``max_length`` parts,
    ascending weight, reverse-lex within a weight; the bound goes to
    :func:`partitions_of`, which prunes on it."""
    if w < 0:
        raise UsageError("weight must be non-negative")
    out: list = []
    for n in range(1, w + 1):
        out.extend(partitions_of(n, max_length))
    return out


def check_permutation_cap(n: int, what: str):
    """Refuse a sum over the n! orderings of n items before any is listed."""
    if n > PERMUTATION_CAP:
        raise ResourceLimitError(f"{what} {n} exceeds permutation cap {PERMUTATION_CAP}")


def derangements(mu: Partition) -> list:
    """The distinct rearrangements of mu's parts as tuples, lexicographic
    order.  The sums over rearrangements go through :func:`peel` under
    :func:`rearrangement_steps`; this list is their literal reference."""
    check_permutation_cap(mu.length, "partition length")
    return sorted(set(itertools.permutations(mu.parts)))


def subset_sum_counts(mu: Partition) -> dict:
    """{s: the number of nonempty position subsets of mu with part sum s},
    ascending in s, by a DP over the parts: O(length * states), not 2^length."""
    counts = {0: 1}
    for p in mu.parts:
        for s, m in list(counts.items()):
            counts[s + p] = counts.get(s + p, 0) + m
    del counts[0]
    return dict(sorted(counts.items()))


def check_peel_cost(mu: Partition, max_states: int, max_degree: int, what: str) -> dict:
    """Refuse mu before any work when its peel has more than ``max_states``
    states, prod(m_i + 1), or a common denominator of degree over
    ``max_degree``, the sum of the distinct subset part sums.  The states,
    counted first, bound the cost of the sums, so length needs no cap.
    Returns the ``subset_sum_counts`` of mu that the degree is read from."""
    states = math.prod(m + 1 for m in mu.multiplicities().values())
    if states > max_states:
        raise ResourceLimitError(f"{states} sub-multisets of {mu} exceed {what} cap {max_states}")
    counts = subset_sum_counts(mu)
    degree = sum(counts)
    if degree > max_degree:
        raise ResourceLimitError(
            f"denominator degree {degree} of {mu} exceeds {what} cap {max_degree}"
        )
    return counts


def rearrangement_steps(parts: tuple) -> list:
    """The rearrangement rule of :func:`peel`, for the sum over the distinct
    rearrangements c of prod_i factor(i, s_i, c_i) / den(s_i), s_i the
    prefix sum through i: a rearrangement of M ends in a distinct part c,
    after one of M - c, in one way, entering sum M, and the factor reads
    (|M|, sum M, c).  Every nonempty proper sub-multiset of M lies in some
    M - c and sum M in none, so D holds each distinct subset part sum once."""
    length, total = len(parts), sum(parts)
    return [
        (parts[:i] + parts[i + 1:], 1, total, (length, total, c))
        for i, c in enumerate(parts)
        if not i or parts[i - 1] != c
    ]


def _sub_multisets(parts: tuple) -> list:
    """(rest, size, total, ways) for each sub-multiset E of the weakly
    decreasing ``parts``: the parts left once E is taken, E's length and
    sum, and the number of sets of positions whose parts make up E,
    prod over distinct v of binom(m_v, e_v)."""
    out = [((), 0, 0, 1)]
    for v in dict.fromkeys(parts):
        m = parts.count(v)
        out = [
            (rest + (v,) * (m - e), size + e, total + v * e, ways * math.comb(m, e))
            for rest, size, total, ways in out
            for e in range(m + 1)
        ]
    return out


def block_steps(parts: tuple) -> list:
    """The block rule of :func:`peel`, for the sum over the set partitions
    of the positions of prod over blocks B of block(|B|, s_B) / den(s_B),
    s_B the sum of B's parts: the block holding one largest part c of M
    takes a sub-multiset E of the rest along, in ways(E) sets of positions,
    entering sum c + sum E, and the block reads (|E| + 1, c + sum E).  The
    states are mu and the sub-multisets of mu less one largest part."""
    c = parts[0]
    return [
        (rest, ways, c + total, (size + 1, c + total))
        for rest, size, total, ways in _sub_multisets(parts[1:])
    ]


def peel(mu: Partition, steps, step, den, memo: dict):
    """The sum over the paths from mu's parts down to none, a step weighing
    ways * step(*args) / den(s), as (N, D): sum = N / prod_s den(s)^D[s],
    D = {s: multiplicity} the lcm of the paths' denominators.  The rule
    ``steps`` (:func:`rearrangement_steps` or :func:`block_steps`) lists
    (rest, ways, s, args) per step out of a sub-multiset M of the parts.

    N(M) sums ways * N(rest) * step(*args) over the steps, each lifted by
    the den(t) that D(M) holds more often than D(rest) + {s}, smallest t
    first: at most prod(m_i + 1) states, not a term per path.  A state keeps
    D as the pairs (s, k), k = 1..D[s], so the lcm is a union and the lift
    a difference.  N of no parts is the int 1, and values are ints or
    anything an int adds and multiplies with (Littlewood's plain ints, the
    l1 norms and Kronecker ints of :func:`_peel_ints`); the ways are
    positive, so a peel on l1 norms bounds N.

    ``memo`` keeps the states under the parts of M and the den values under
    s; calls whose rule, step and den read the same values may share one."""
    memo.setdefault((), (1, frozenset()))

    def den_of(s: int):
        if s not in memo:
            memo[s] = den(s)
        return memo[s]

    def state(parts: tuple):
        if parts not in memo:
            terms, lcm = [], set()
            for rest, ways, s, args in steps(parts):
                num, have = state(rest)
                k = 1
                while (s, k) in have:
                    k += 1
                have = have | {(s, k)}
                lcm |= have
                terms.append((num * ways * step(*args), have))
            num = 0
            for term, have in terms:
                for t, _ in sorted(lcm - have):
                    term = term * den_of(t)
                num = num + term
            memo[parts] = (num, lcm)
        return memo[parts]

    num, pairs = state(mu.parts)
    sums = {}
    for s, _ in pairs:
        sums[s] = sums.get(s, 0) + 1
    return num, sums


def _l1(terms: dict) -> int:
    return sum(map(abs, terms.values()))


def _peel_ints(mu: Partition, steps, step, den, ys: int, memo: dict, value: int = 0):
    """(codec, N(X), D) of :func:`peel` under the rule ``steps``, ``step``
    and ``den(s)`` returning term maps {(j, k): c}, one entry per term
    c y^j q^k, y of degree below ``ys`` in every state.  It peels the maps'
    l1 norms on ints, for a strict l1 bound of N and for D; then the maps
    on Kronecker ints (``algebra.PeelInts``), each multiplying by shifts,
    the slots holding that bound and, given a ``value``, also
    value prod_s |den(s)|_1^D[s]: every coefficient of N and of value * D.
    ``memo`` keeps the bound's
    states under "l1" and one dict of states per slot size, so calls that
    outgrow a width start fresh; calls that share it share ``ys``."""

    def walk(lift, states: dict):
        return peel(mu, steps, lambda *args: lift(step(*args)), lambda s: lift(den(s)), states)

    bound, sums = walk(_l1, memo.setdefault("l1", {}))
    if value:  # a read-back needs no floor: skip its den(s) calls
        bound = max(bound, value * math.prod(_l1(den(s)) ** m for s, m in sums.items()))
    ints = PeelInts(ys, bound)
    num, sums = walk(ints.multiplier, memo.setdefault(ints.size, {}))
    return ints, num, sums


def peel_polynomial(mu: Partition, steps, step, den, universe, rows: list, memo: dict):
    """(N, D) of :func:`_peel_ints`, N read back over ``universe``: its term
    at q^k times the monomial ``rows[j]`` is slot k len(rows) + j."""
    ints, num, sums = _peel_ints(mu, steps, step, den, len(rows), memo)
    return ints.polynomial(num, universe, rows), sums


def peel_at_point(mu: Partition, steps, step, den, value: int, memo: dict):
    """(N(X), D(X)) of :func:`_peel_ints` at the codec's point X, the maps
    in q alone, and nothing read back.  N / D = ``value`` exactly when
    N(X) = value D(X): evaluation at X is injective on polynomials whose
    coefficients the slots hold, as they hold N's and value * D's.  That
    floor under the l1 bound fails a wrong peel, one that lifts a state by
    a factor too few, whose bound falls below it; a right one meets it."""
    ints, num, sums = _peel_ints(mu, steps, step, den, 1, memo, value)
    # 1 * multiplier is the int that den(s) evaluates to at X.
    return num, math.prod((1 * ints.multiplier(den(s))) ** m for s, m in sums.items())


def z_of(mu: Partition) -> int:
    """The centralizer size of a permutation of cycle type mu:
    product over i of i^m_i * m_i!."""
    return math.prod(i ** m * math.factorial(m) for i, m in mu.multiplicities().items())


def _cycles_of(mapping: tuple) -> tuple:
    """The disjoint cycles of the bijection on {1..n} that sends k to
    ``mapping[k - 1]``, each rotated to start at its smallest element and
    sorted by that element."""
    n = len(mapping)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        k = mapping[start - 1]
        while k != start:
            cyc.append(k)
            seen[k] = True
            k = mapping[k - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def permutations_with_cycles(n: int) -> list:
    """The cycles of each of the n! permutations of {1..n}, one tuple of
    cycles per permutation, the permutations in lexicographic order: the
    literal reference for the power-sum oracle's :func:`block_steps`."""
    if n < 0:
        raise UsageError("n must be non-negative")
    check_permutation_cap(n, "permutation degree")
    return [_cycles_of(mapping) for mapping in itertools.permutations(range(1, n + 1))]
