import itertools
import math
from collections import Counter

import pytest

from qmono.errors import ResourceLimitError, UsageError
from qmono.partitions import (
    Partition,
    derangements,
    partitions_of,
    partitions_up_to,
    permutations_with_cycles,
    subset_sum_counts,
    z_of,
)
from test_acceptance import SWEEP_INSTANCES


def subset_part_sums(mu: Partition) -> list:
    """The literal reference for ``subset_sum_counts``: the part sum of each
    of the 2^length - 1 nonempty position subsets, with multiplicity."""
    return [
        sum(combo) for k in range(1, mu.length + 1) for combo in itertools.combinations(mu.parts, k)
    ]


class TestPartition:
    def test_validation(self):
        with pytest.raises(UsageError):
            Partition((1, 2))
        with pytest.raises(UsageError):
            Partition((2, 0))
        assert Partition(()).length == 0

    @pytest.mark.parametrize("parts", [(2.7, 1), ("3",), (True,)])
    def test_parts_must_be_ints(self, parts):
        # No silent truncation or parsing: (2.7, 1) is not (2, 1), and a
        # bool, an int subclass, is not the part 1.
        with pytest.raises(UsageError, match="positive ints"):
            Partition(parts)

    def test_accessors(self):
        mu = Partition((3, 1, 1))
        assert mu.weight == 5
        assert mu.length == 3
        assert mu.multiplicities() == {3: 1, 1: 2}
        assert mu.repetition_factor() == 2
        assert mu.remove_part(3) == Partition((1, 1))
        assert mu.to_json() == [3, 1, 1]

    def test_remove_missing_part(self):
        with pytest.raises(UsageError):
            Partition((2, 1)).remove_part(3)


class TestEnumeration:
    def test_up_to_two(self):
        assert [p.parts for p in partitions_up_to(2)] == [(1,), (2,), (1, 1)]

    def test_weight_four_by_hand(self):
        assert [p.parts for p in partitions_of(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        ]

    def test_zero_weight(self):
        assert partitions_up_to(0) == []
        assert partitions_of(0) == [Partition(())]
        assert partitions_of(0, 0) == [Partition(())]

    def test_counts(self):
        # Partition numbers p(1)..p(8): 1 1 2 3 5 7 11 15 22 summed = 66.
        assert len(partitions_up_to(8)) == 66

    @pytest.mark.parametrize("n", range(17))
    def test_length_bound_equals_the_filtered_list(self, n):
        everything = partitions_of(n)
        for L in range(n + 2):
            assert partitions_of(n, L) == [mu for mu in everything if mu.length <= L], L

    def test_up_to_passes_the_bound(self):
        assert [p.parts for p in partitions_up_to(4, 2)] == [
            (1,), (2,), (1, 1), (3,), (2, 1), (4,), (3, 1), (2, 2)
        ]

    def test_length_bound_builds_only_what_it_returns(self, monkeypatch):
        # prop6's sweep at its cap keeps the partitions of length <= 7;
        # listing every partition of each weight and filtering built 43,819.
        built = []
        init = Partition.__init__

        def counting_init(self, parts=()):
            built.append(1)
            init(self, parts)

        monkeypatch.setattr(Partition, "__init__", counting_init)
        kept = partitions_up_to(32, 7)
        assert len(kept) == len(built) == SWEEP_INSTANCES["prop6"]


class TestSubsetSumCounts:
    @pytest.mark.parametrize("w", range(13))
    def test_equals_the_literal_enumeration(self, w):
        for mu in partitions_of(w):
            counts = subset_sum_counts(mu)
            assert counts == Counter(subset_part_sums(mu)), mu
            assert list(counts) == sorted(counts), mu

    @pytest.mark.parametrize("w", range(1, 13))
    def test_degree_of_P_is_the_closed_form(self, w):
        # deg P = sum over nonempty subsets of (part sum - 1)
        #       = 2^(l-1) * weight - 2^l + 1.
        for mu in partitions_of(w):
            l = mu.length
            degree = sum((s - 1) * m for s, m in subset_sum_counts(mu).items())
            assert degree == 2 ** (l - 1) * w - 2 ** l + 1, mu

    def test_a_long_column_is_a_row_of_binomials(self):
        # 2^40 subsets, counted in 40 steps of at most 41 sums.
        counts = subset_sum_counts(Partition((1,) * 40))
        assert counts == {s: math.comb(40, s) for s in range(1, 41)}


class TestDerangements:
    def test_two_one(self):
        assert derangements(Partition((2, 1))) == [(1, 2), (2, 1)]

    def test_identical_parts(self):
        assert derangements(Partition((1, 1))) == [(1, 1)]

    def test_count_two_one_one(self):
        assert len(derangements(Partition((2, 1, 1)))) == 3

    def test_empty_partition(self):
        assert derangements(Partition(())) == [()]

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            derangements(Partition((1,) * 9))

    @pytest.mark.parametrize("w", range(1, 9))
    def test_count_formula_and_sorting(self, w):
        for mu in partitions_of(w):
            ds = derangements(mu)
            assert len(ds) * mu.repetition_factor() == math.factorial(mu.length)
            assert mu.rearrangement_count() == len(ds)
            assert ds == sorted(set(ds))
            for d in ds:
                assert tuple(sorted(d, reverse=True)) == mu.parts


class TestZ:
    def test_examples(self):
        assert z_of(Partition((1, 1, 1))) == 6
        assert z_of(Partition((2, 1))) == 2
        assert z_of(Partition((3, 3))) == 18
        assert z_of(Partition(())) == 1


def _cycle_type(cycles) -> tuple:
    return tuple(sorted((len(c) for c in cycles), reverse=True))


class TestPermutations:
    def test_n_two(self):
        perms = permutations_with_cycles(2)
        assert perms == [((1,), (2,)), ((1, 2),)]

    def test_n_one(self):
        assert permutations_with_cycles(1) == [((1,),)]

    def test_n_three_cycle_types(self):
        perms = permutations_with_cycles(3)
        assert len(perms) == 6
        types = Counter(_cycle_type(p) for p in perms)
        assert types == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}

    def test_cycles_partition_the_domain(self):
        # Each cycle tuple rebuilds its permutation, and the permutations
        # come in lexicographic order.
        mappings = []
        for cycles in permutations_with_cycles(4):
            seen = sorted(k for cyc in cycles for k in cyc)
            assert seen == [1, 2, 3, 4]
            assert [cyc[0] for cyc in cycles] == sorted(min(cyc) for cyc in cycles)
            mapping = [0] * 4
            for cyc in cycles:
                for i, k in enumerate(cyc):
                    mapping[k - 1] = cyc[(i + 1) % len(cyc)]
            mappings.append(tuple(mapping))
        assert mappings == list(itertools.permutations(range(1, 5)))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            permutations_with_cycles(9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cycle_type_counts_match_z(self, n):
        counts = Counter(
            _cycle_type(p) for p in permutations_with_cycles(n)
        )
        total = 0
        for lam in partitions_of(n):
            expected = math.factorial(n) // z_of(lam)
            assert counts[lam.parts] == expected
            total += expected
        assert total == math.factorial(n)
