import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pentagonal_partition_numbers
from stanleypf.partitions import (
    _even_hooks,
    _partition_entries,
    _suffix_walk,
    classify,
    conjugate,
    corner_parity_check,
    hook_length,
    inner_corners,
    odd_parts_count,
    partitions_of,
)

random_partitions = st.lists(st.integers(min_value=1, max_value=12), max_size=12).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestEnumeration:
    def test_zero(self):
        assert list(partitions_of(0)) == [()]

    def test_four_in_order(self):
        assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_count_ten(self):
        assert sum(1 for _ in partitions_of(10)) == 42

    def test_counts_match_pentagonal_recurrence(self):
        p = pentagonal_partition_numbers(40)
        for n in (0, 1, 7, 13, 25, 40):
            assert sum(1 for _ in partitions_of(n)) == p[n]

    def test_decreasing_lex_order(self):
        for n in (5, 8, 11):
            seen = list(partitions_of(n))
            assert all(a > b for a, b in zip(seen, seen[1:]))
            assert len(set(seen)) == len(seen)

    def test_all_valid_and_sum_to_n(self):
        for lam in partitions_of(9):
            assert sum(lam) == 9
            assert all(a >= b for a, b in zip(lam, lam[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            next(partitions_of(-1))


class TestSuffixWalk:
    def test_small_walk(self):
        assert list(_suffix_walk(3)) == [
            (0, (), (), 0, 0, 0, 0),
            (1, (1,), (1,), 1, 1, 0, 0),
            (2, (2,), (1, 1), 0, 2, 1, 1),
            (2, (1, 1), (2,), 2, 0, 1, 1),
            (3, (3,), (1, 1, 1), 1, 3, 1, 1),
            (3, (2, 1), (2, 1), 1, 1, 0, 2),
            (3, (1, 1, 1), (3,), 3, 1, 1, 0),
        ]

    def test_each_partition_once_with_its_statistics(self):
        by_weight = {}
        for n, lam, conj, odd, odd_conj, even_hooks, a in _suffix_walk(20):
            assert sum(lam) == n
            assert conj == conjugate(lam)
            assert odd == odd_parts_count(lam)
            assert odd_conj == odd_parts_count(conjugate(lam))
            # the carried hook count against the cell-by-cell one
            assert even_hooks == _even_hooks(lam, conjugate(lam))
            assert a == sum(1 for j, col in enumerate(conj, 1) if (col - j) % 2)
            by_weight.setdefault(n, []).append(lam)
        assert sorted(by_weight) == list(range(21))
        for n, seen in by_weight.items():
            assert sorted(seen, reverse=True) == list(partitions_of(n))

    def test_report_order(self):
        # n ascending, then decreasing lex order within n, at every bound:
        # which tails the walk keeps depends on n_max
        for n_max in range(21):
            walked = [(n, lam) for n, lam, *_ in _suffix_walk(n_max)]
            assert walked == [(n, lam) for n in range(n_max + 1) for lam in partitions_of(n)], n_max

    def test_tails_come_first(self):
        seen = set()
        for _n, lam, *_ in _suffix_walk(12):
            assert lam[1:] in seen or not lam
            seen.add(lam)

    def test_bounds(self):
        assert list(_suffix_walk(0)) == [(0, (), (), 0, 0, 0, 0)]
        with pytest.raises(ValueError):
            next(_suffix_walk(-1))


class TestPartitionEntries:
    def test_statistics_match_suffix_walk(self):
        # two derivations of He and O': the listing's, from each suffix's
        # hook row and parts, and the walk's, from the column parities a and
        # the tail's O'; the listing writes the parts out, ", "-separated
        walked = {}
        for n, lam, _conj, odd, odd_conj, even_hooks, _a in _suffix_walk(20):
            kind = "t" if (odd - odd_conj) % 4 == 0 else "u"
            walked.setdefault(n, []).append((", ".join(map(str, lam)), odd, odd_conj, even_hooks, kind))
        for n in range(21):
            listed = [entry[:5] for entry in _partition_entries(n, "all", None)]
            assert listed == walked[n], n


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()
        assert conjugate((2, 1)) == (2, 1)

    def test_involution_exhaustive(self):
        for n in range(26):
            for lam in partitions_of(n):
                assert conjugate(conjugate(lam)) == lam

    @given(random_partitions)
    @settings(max_examples=150)
    def test_involution_random(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(random_partitions)
    @settings(max_examples=150)
    def test_length_is_largest_part(self, lam):
        assert len(conjugate(lam)) == (lam[0] if lam else 0)


class TestOddParts:
    def test_examples(self):
        assert odd_parts_count((3, 1)) == 2
        assert odd_parts_count((2, 2)) == 0
        assert odd_parts_count((1, 1, 1, 1)) == 4

    @given(random_partitions)
    @settings(max_examples=150)
    def test_parity_matches_n(self, lam):
        n = sum(lam)
        assert odd_parts_count(lam) % 2 == n % 2
        assert odd_parts_count(conjugate(lam)) % 2 == n % 2

    def test_parity_matches_n_exhaustive(self):
        for n in range(26):
            for lam in partitions_of(n):
                assert odd_parts_count(lam) % 2 == n % 2
                assert odd_parts_count(conjugate(lam)) % 2 == n % 2


def _hook_grid(lam):
    """Every hook length, one list per row: hook (i, j) = (lam_i - i + 1) +
    (lam'_j - j), with the column terms made once."""
    col_terms = [col - j for j, col in enumerate(conjugate(lam), 1)]
    return [[row - i + 1 + term for term in col_terms[:row]] for i, row in enumerate(lam, 1)]


def _even_cells(lam):
    """Cells with an even hook, each hook measured on its own."""
    return sum(
        1
        for i, row in enumerate(lam, 1)
        for j in range(1, row + 1)
        if hook_length(lam, i, j) % 2 == 0
    )


class TestHooks:
    def test_hook_length_examples(self):
        assert hook_length((2, 1), 1, 1) == 3
        assert hook_length((2, 2), 1, 2) == 2
        assert hook_length((1,), 1, 1) == 1

    def test_hook_outside_diagram(self):
        with pytest.raises(ValueError, match="outside"):
            hook_length((2, 1), 2, 2)
        with pytest.raises(ValueError, match="outside"):
            hook_length((2, 1), 3, 1)

    def test_even_hook_count_examples(self):
        assert classify((2, 1)).even_hooks == 0  # hooks 3, 1, 1
        assert classify((2, 2)).even_hooks == 2  # hooks 3, 2, 2, 1
        assert classify(()).even_hooks == 0

    @given(random_partitions)
    @settings(max_examples=100)
    def test_even_hooks_counts_cells(self, lam):
        assert classify(lam).even_hooks == _even_cells(lam)

    def test_even_hooks_counts_cells_exhaustive(self):
        for n in range(17):
            for lam in partitions_of(n):
                assert classify(lam).even_hooks == _even_cells(lam), lam

    def test_hook_grid_examples(self):
        assert _hook_grid((3, 2)) == [[4, 3, 1], [2, 1]]
        assert _hook_grid((1, 1)) == [[2], [1]]
        assert _hook_grid(()) == []

    def test_hook_grid_matches_each_cell(self):
        for n in range(13):
            for lam in partitions_of(n):
                assert _hook_grid(lam) == [
                    [hook_length(lam, i, j) for j in range(1, row + 1)]
                    for i, row in enumerate(lam, 1)
                ]


class TestClassify:
    def test_examples(self):
        s = classify((2, 1))
        assert (s.odd_parts, s.odd_parts_conjugate, s.is_t_type) == (1, 1, True)
        s = classify((3,))
        assert (s.odd_parts, s.odd_parts_conjugate, s.is_t_type) == (1, 3, False)
        s = classify((1, 1, 1, 1))
        assert (s.odd_parts, s.odd_parts_conjugate, s.is_t_type) == (4, 0, True)

    def test_u_partitions_pair_under_conjugation(self):
        for n in range(15):
            for lam in partitions_of(n):
                if not classify(lam).is_t_type:
                    mate = conjugate(lam)
                    assert mate != lam
                    assert not classify(mate).is_t_type

    def test_hook_parity_equivalence_small(self):
        for n in range(13):
            for lam in partitions_of(n):
                s = classify(lam)
                assert s.is_t_type == (s.even_hooks % 2 == 0)


class TestCorners:
    def test_examples(self):
        assert inner_corners((2, 1)) == [(1, 2), (2, 1)]
        assert inner_corners((3, 3)) == [(2, 3)]
        assert inner_corners((1,)) == [(1, 1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            inner_corners(())

    def test_corner_parity_examples(self):
        assert corner_parity_check((2, 1), (2, 1)) is True
        assert corner_parity_check((1,), (1, 1)) is True
        assert corner_parity_check((2, 2), (2, 2)) is True

    def test_non_corner_rejected(self):
        with pytest.raises(ValueError, match="inner corner"):
            corner_parity_check((2, 2), (1, 2))

    def test_corner_parity_exhaustive(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                for v in inner_corners(lam):
                    assert corner_parity_check(lam, v)
