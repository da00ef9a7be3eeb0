import hashlib
from operator import add

import pytest

from conftest import BRUTE_F, BRUTE_T, BRUTE_U, pentagonal_partition_numbers
from stanleypf import stanley
from stanleypf.series_core import TruncatedSeries, extract_progression


class TestPSeries:
    def test_prefix(self):
        assert stanley.p_series(6).coeffs == (1, 1, 2, 3, 5, 7, 11)

    def test_empty_partition(self):
        assert stanley.p_series(0).coeffs == (1,)

    def test_coefficient_ten(self):
        assert stanley.p_series(10).coeffs[10] == 42

    def test_matches_pentagonal_recurrence(self):
        assert list(stanley.p_series(40).coeffs) == pentagonal_partition_numbers(40)


class TestBruteForce:
    def test_t_spot_values(self):
        t = stanley.table_from_enumeration(20).t
        assert (t[0], t[2], t[4]) == (1, 0, 5)

    def test_u_spot_values(self):
        assert stanley.table_from_enumeration(20).u[2:5] == (2, 2, 0)

    def test_frozen_prefix(self):
        table = stanley.table_from_enumeration(20)
        assert (table.t, table.u) == (BRUTE_T, BRUTE_U)

    def test_negative_rejected(self):
        # checked before any partition stream starts, as table_from_dp does
        with pytest.raises(ValueError, match="nonnegative"):
            stanley.table_from_enumeration(-1)


class TestFSeries:
    def test_prefix(self):
        assert stanley.f_series(4).coeffs == (1, 1, -2, -1, 5)

    def test_constant_term(self):
        assert stanley.f_series(0).coeffs == (1,)

    def test_equals_t_minus_u(self):
        got = stanley.f_series(20).coeffs
        assert got == tuple(t - u for t, u in zip(BRUTE_T, BRUTE_U))


class TestTSeries:
    def test_half_sum_prefix(self):
        assert stanley.t_series_half_sum(4).coeffs == (1, 1, 0, 1, 5)

    def test_half_sum_coefficient_two(self):
        # (p(2) + f(2)) / 2 = (2 + (-2)) / 2
        assert stanley.t_series_half_sum(2).coeffs[2] == 0

    def test_andrews_prefix(self):
        assert stanley.t_series_andrews(4).coeffs == (1, 1, 0, 1, 5)

    def test_andrews_congruence_witness(self):
        assert stanley.t_series_andrews(9).coeffs[9] % 5 == 0

    def test_both_formulas_agree(self):
        assert stanley.t_series_half_sum(80) == stanley.t_series_andrews(80)

    def test_halving_guard_rejects_odd_coefficients(self):
        with pytest.raises(stanley.IdentityError, match="odd"):
            stanley._halve_exactly(TruncatedSeries((2, 3)))


class TestUSeries:
    def test_prefix(self):
        assert stanley.u_series(4).coeffs == (0, 0, 2, 2, 0)

    def test_constant_term_vanishes(self):
        assert stanley.u_series(2).coeffs[0] == 0

    def test_all_even(self):
        assert all(c % 2 == 0 for c in stanley.u_series(80).coeffs)

    def test_order_below_prefactor_rejected(self):
        with pytest.raises(ValueError):
            stanley.u_series(1)

    def test_extraction_of_residue_two(self):
        got = extract_progression(stanley.u_series(22), 2, 4)
        assert got.coeffs == (2, 10, 36, 110, 300, 752)


class TestVSeries:
    def test_prefix(self):
        assert stanley.v_series(6).coeffs == (1, 5, 18, 55, 150, 376, 885)


class TestProgressions:
    def test_residue_two_constant_term(self):
        assert stanley.u_progression_series(2, 6).coeffs[0] == 2

    def test_residue_zero_prefix(self):
        # u(0), u(4), u(8), u(12) = 0, 0, 2, 12
        assert stanley.u_progression_series(0, 3).coeffs == (0, 0, 2, 12)

    def test_each_matches_extraction(self):
        full = stanley.u_series(4 * 10 + 3)
        for i in range(4):
            closed = stanley.u_progression_series(i, 10)
            assert closed == extract_progression(full, i, 4)

    def test_bad_residue(self):
        with pytest.raises(ValueError):
            stanley.u_progression_series(4, 10)


# sha256 of repr(coeffs) at order 2000, recorded from the dense binomial
# kernel, before eta factors took the sparse pentagonal path
ORDER_2000_DIGESTS = {
    "p_series": "b085b55a65538a3bb5d713d8872d58b2e9a0542f178611898b2fcbc292e72e72",
    "t_series_andrews": "7afc2a1a38ed896396d695c52d414995565ced119176d429f6fd969a9280e8fe",
    "u_series": "16b6f671bd3d5b95687983e8d833e2396e9eca64f4f794208e815ad2b5aa0e01",
    "f_series": "736c7e06a3894de5d1616db5c047023e381aec8072178433e8c00271e67117b7",
    "v_series": "be996488e3814ebed3f508c63e90e66e74cfe2f5c95d1bbca5fcf2611dd15f5b",
}


@pytest.mark.parametrize("name", sorted(ORDER_2000_DIGESTS))
def test_coefficients_at_order_2000_are_pinned(name):
    coeffs = getattr(stanley, name)(2000).coeffs
    assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == ORDER_2000_DIGESTS[name]


class TestStanleyTable:
    def test_columns_by_name(self):
        assert getattr(stanley.table_from_dp(4), "t") == (1, 1, 0, 1, 5)


def _reference_odd_count_shift(k: int, m: int, c: int) -> int:
    """Change in O(lambda) - O(lambda') from appending m parts equal to k to
    a partition with c parts so far (only c mod 2 matters).

    O(lambda) gains m (k & 1). O(lambda') = lam_1 - lam_2 + lam_3 - ...
    gains nothing when m is even; when m is odd it gains +k if the first new
    part sits at an odd position (c even) and -k otherwise.
    """
    shift = m * (k & 1)
    if m & 1:
        shift += k if c & 1 else -k
    return shift


def reference_table_from_dp(max_n: int) -> stanley.StanleyTable:
    """The partition DP over part sizes and their multiplicities, as it stood
    before parts were added one at a time; kept verbatim as a reference."""
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    size = max_n + 1
    # counts[2 * c + h][w]: partitions of weight w into the parts taken so
    # far, with c parts mod 2 and O(lambda) - O(lambda') = 2h mod 4
    counts = [[0] * size for _ in range(4)]
    counts[0][0] = 1
    for k in range(max_n, 0, -1):
        extended = [[0] * size for _ in range(4)]
        for m in range(max_n // k + 1):
            offset = m * k
            for c in (0, 1):
                flip = (_reference_odd_count_shift(k, m, c) >> 1) & 1
                for h in (0, 1):
                    dst = extended[2 * (c ^ (m & 1)) + (h ^ flip)]
                    dst[offset:] = map(add, dst[offset:], counts[2 * c + h][: size - offset])
        counts = extended
    p = [sum(col) for col in zip(*counts)]
    t = [even + odd for even, odd in zip(counts[0], counts[2])]
    return stanley._table_from_counts(max_n, p, t)


class TestPartitionDP:
    def test_equals_brute_force_to_sixty(self, enum_table_60):
        dp = stanley.table_from_dp(60)
        for stat in ("p", "t", "u", "f"):
            assert getattr(dp, stat) == getattr(enum_table_60, stat), stat

    def test_p_matches_pentagonal_recurrence(self):
        assert list(stanley.table_from_dp(80).p) == pentagonal_partition_numbers(80)

    def test_empty_partition_only(self):
        dp = stanley.table_from_dp(0)
        assert (dp.max_n, dp.p, dp.t, dp.u, dp.f) == (0, (1,), (1,), (0,), (1,))

    def test_single_part(self):
        # (1) has O = O' = 1, so it is t-type
        dp = stanley.table_from_dp(1)
        assert (dp.p, dp.t, dp.u, dp.f) == ((1, 1), (1, 1), (0, 0), (1, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            stanley.table_from_dp(-1)

    def test_equals_multiplicity_dp_to_three_hundred(self):
        # every max_n, so each last block cut short by the table's end is
        # read; the reference's columns do not depend on its max_n
        ref = reference_table_from_dp(300)
        assert reference_table_from_dp(7) == stanley.StanleyTable(7, *(col[:8] for col in ref[1:]))
        for n in range(301):
            assert stanley.table_from_dp(n) == stanley.StanleyTable(n, *(col[: n + 1] for col in ref[1:])), n

    def test_odd_count_shift_is_even(self):
        # the DP keeps (O - O') / 2 mod 2 only, which needs every shift even:
        # for odd k, O gains 1 and O' gains +/-k
        odd = [(k, c) for k in range(1, 61) for c in (0, 1) if stanley._odd_count_shift(k, c) % 2]
        assert odd == []

    def test_independent_of_series_and_stream(self):
        # the oracle must not share code with either route it checks
        code = stanley.table_from_dp.__code__.co_names + stanley._odd_count_shift.__code__.co_names
        assert not {"_parts_stream", "_suffix_walk", "_enumeration_counts", "eta_quotient", "expand_product",
                    "series_mul", "series_reciprocal", "p_series", "_div_binomial", "_horner", "_mul_sparse",
                    "_div_sparse"} & set(code)
