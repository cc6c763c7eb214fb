"""The peel under the block rule, on ints, against the literal sums over the set partitions
of a partition's positions, for every partition of weight at most 8."""

import math
from fractions import Fraction

import pytest

from qmono.partitions import Partition, block_steps, partitions_of, peel

WEIGHTS = range(9)


def set_partitions(positions: tuple):
    """Every set partition of ``positions``, as a list of blocks, each
    block a tuple of positions: the first position joins each block of a
    set partition of the rest, or a block of its own."""
    if not positions:
        yield []
        return
    first, rest = positions[0], positions[1:]
    for blocks in set_partitions(rest):
        yield [(first,)] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [(first,) + blocks[i]] + blocks[i + 1:]


def block_sums(mu: Partition, blocks) -> list:
    return [sum(mu.parts[i] for i in block) for block in blocks]


def bell(n: int) -> int:
    """The Bell number B_n by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def moebius(k: int) -> int:
    """The block weight of the partition lattice's Moebius function."""
    return (-1) ** (k - 1) * math.factorial(k - 1)


def test_the_reference_lists_bell_many_set_partitions():
    assert [sum(1 for _ in set_partitions(tuple(range(n)))) for n in range(7)] == [
        bell(n) for n in range(7)
    ] == [1, 1, 2, 5, 15, 52, 203]


@pytest.mark.parametrize("w", WEIGHTS)
def test_weight_one_counts_the_set_partitions(w):
    # The ways count position subsets, so every mu peels to the Bell number
    # of its length, repeated parts or not.
    for mu in partitions_of(w):
        num, _ = peel(mu, block_steps, lambda k, s: 1, lambda s: 1, {})
        assert num == bell(mu.length), mu


@pytest.mark.parametrize("w", WEIGHTS)
def test_moebius_weights_sum_to_zero_from_length_two(w):
    # sum over the partition lattice of mu(0, pi) is 1 at length 0 and 1, and
    # 0 from length 2 on.
    for mu in partitions_of(w):
        num, _ = peel(mu, block_steps, lambda k, s: moebius(k), lambda s: 1, {})
        assert num == (1 if mu.length < 2 else 0), mu


@pytest.mark.parametrize("w", WEIGHTS)
def test_the_peel_is_the_literal_set_partition_sum(w):
    # A block weight that reads both its size and its sum, over den(s) = s:
    # N / prod s^D[s] is the literal sum, and D is the lcm of the literal
    # terms' denominators, the most blocks of one sum any set partition has.
    for mu in partitions_of(w):
        num, den = peel(mu, block_steps, lambda k, s: 3 * k - s, lambda s: s, {})
        expected, lcm = Fraction(0), {}
        for blocks in set_partitions(tuple(range(mu.length))):
            sums = block_sums(mu, blocks)
            expected += math.prod(Fraction(3 * len(b) - s, s) for b, s in zip(blocks, sums))
            for s in set(sums):
                lcm[s] = max(lcm.get(s, 0), sums.count(s))
        assert den == lcm, mu
        assert Fraction(num, math.prod(s ** m for s, m in den.items())) == expected, mu


@pytest.mark.parametrize("w", WEIGHTS)
def test_the_states_are_mu_and_the_sub_multisets_below_one_largest_part(w):
    # One state per sub-multiset of mu less one copy of its largest part,
    # and mu itself: 1 + m_1 * prod over the other parts of (m_i + 1), at
    # most the rearrangement rule's prod(m_i + 1).
    for mu in partitions_of(w):
        memo = {}
        peel(mu, block_steps, lambda k, s: 1, lambda s: 1, memo)
        states = sum(isinstance(key, tuple) for key in memo)
        counts = list(mu.multiplicities().values())
        bound = math.prod(m + 1 for m in counts)
        assert states == (1 + counts[0] * bound // (counts[0] + 1) if counts else 1), mu
        assert states <= bound, mu
