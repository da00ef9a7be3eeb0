import pytest

from stanleypf import stanley
from stanleypf.series_core import TruncatedSeries
from stanleypf.verify import (
    VerificationReport,
    assert_series_equal,
    check_congruences,
    check_conjugation_pairing,
    check_corner_lemma,
    check_hook_counting,
    check_hook_parity,
    check_jtp,
    check_proof_steps,
    run_suite,
    suite_combinatorial,
    suite_series,
)


def series(*coeffs):
    return TruncatedSeries(tuple(coeffs))


class TestReport:
    def test_equal_series_pass(self):
        r = assert_series_equal("x", series(1, 2, 3), series(1, 2, 3))
        assert r.passed and r.first_failure_index is None

    def test_mismatch_records_witnesses(self):
        r = assert_series_equal("x", series(1, 2, 3), series(1, 2, 4))
        assert not r.passed
        assert (r.first_failure_index, r.lhs_value, r.rhs_value) == (2, 3, 4)

    def test_compares_to_shorter_order(self):
        r = assert_series_equal("x", series(1, 2), series(1, 2, 999))
        assert r.passed and r.order_or_bound == 1

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            VerificationReport("x", 5, True, first_failure_index=2)
        with pytest.raises(ValueError):
            VerificationReport("x", 5, False)

    def test_line_rendering(self):
        ok = assert_series_equal("demo", series(1), series(1))
        assert ok.to_line() == "PASS demo: verified to 0"
        bad = assert_series_equal("demo", series(7), series(9))
        assert "first mismatch at index 0" in bad.to_line()
        assert "lhs=7" in bad.to_line() and "rhs=9" in bad.to_line()

    def test_determinism(self):
        a = assert_series_equal("same", series(3, 1), series(3, 2))
        b = assert_series_equal("same", series(3, 1), series(3, 2))
        assert a == b


class TestJacobiTripleProduct:
    @pytest.mark.parametrize("sign", (1, -1))
    def test_classical_even_squares(self, sign):
        assert check_jtp(0, sign, 100).passed

    def test_order_zero(self):
        assert check_jtp(0, 1, 0).passed

    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_shifted_specializations(self, k):
        assert check_jtp(k, 1, 80).passed
        assert check_jtp(k, -1, 80).passed

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            check_jtp(-1, 1, 10)
        with pytest.raises(ValueError):
            check_jtp(1, 0, 10)


class TestProofSteps:
    def test_all_pass_at_moderate_order(self):
        reports = check_proof_steps(60)
        failures = [r.to_line() for r in reports if not r.passed]
        assert failures == []

    def test_report_count_stable(self):
        assert len(check_proof_steps(8)) == len(check_proof_steps(40)) == 29

    def test_order_below_eight_rejected(self):
        with pytest.raises(ValueError):
            check_proof_steps(7)

    def test_names_are_unique(self):
        names = [r.check_name for r in check_proof_steps(8)]
        assert len(set(names)) == len(names)


class TestCombinatorialChecks:
    def test_hook_parity(self):
        assert check_hook_parity(12).passed

    def test_hook_parity_trivial_bound(self):
        assert check_hook_parity(0).passed

    def test_corner_lemma(self):
        assert check_corner_lemma(10).passed

    def test_corner_lemma_base_case(self):
        assert check_corner_lemma(1).passed

    def test_hook_counting(self):
        reports = check_hook_counting(12)
        assert [r.check_name for r in reports] == [
            "comb/even-hook-partitions-equal-t",
            "comb/odd-hook-partitions-count-even",
            "comb/signed-hook-count-equals-f",
        ]
        assert all(r.passed for r in reports)

    def test_conjugation_pairing(self):
        assert check_conjugation_pairing(12).passed


class TestCongruences:
    def test_all_pass(self):
        reports = check_congruences(60)
        assert all(r.passed for r in reports)
        assert {r.check_name for r in reports} == {
            "cong/t-at-5n-plus-4-divisible-by-5",
            "cong/t-parity-equals-p-parity",
            "cong/f-equals-p-mod-4",
            "cong/u-always-even",
        }

    def test_tiny_order_rejected(self):
        with pytest.raises(ValueError):
            check_congruences(1)


class TestSuites:
    def test_series_suite_small_bounds(self):
        reports = suite_series(order=40, oracle_bound=12, progression_bound=5, jtp_max_k=2)
        assert all(r.passed for r in reports)
        names = [r.check_name for r in reports]
        assert "series/u-product-vs-enumeration" in names
        assert "series/t-half-sum-vs-eta-quotient" in names
        assert "series/u-progression-3-vs-extraction" in names

    def test_series_suite_dp_oracle_to_three_hundred(self):
        reports = suite_series(order=300, oracle_bound=300)
        assert [r.to_line() for r in reports if not r.passed] == []
        bounds = {r.check_name: r.order_or_bound for r in reports}
        assert bounds["series/t-eta-quotient-vs-enumeration"] == 300
        assert bounds["series/p-series-vs-partition-count"] == 40

    def test_combinatorial_suite(self):
        reports = suite_combinatorial(enum_bound=10, corner_bound=8)
        assert all(r.passed for r in reports)
        assert len(reports) == 6

    def test_congruence_suite(self):
        assert all(r.passed for r in check_congruences(40))

    def test_run_suite_sorted_and_deterministic(self):
        a = run_suite("congruences", order=30)
        b = run_suite("congruences", order=30)
        assert a == b
        assert [r.check_name for r in a] == sorted(r.check_name for r in a)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything")


def _series_reports(**bounds):
    reports = suite_series(order=40, progression_bound=5, jtp_max_k=0, **bounds)
    return {r.check_name: r for r in reports}


class TestFaultInjection:
    """A planted defect on either side of an oracle check must trip it."""

    def test_flipped_alternating_sign_in_dp(self, monkeypatch):
        real_shift = stanley._odd_count_shift

        def flipped(k, m, c):
            # an odd run starting at an even position adds +k, not -k, to O(lambda')
            shift = real_shift(k, m, c)
            return shift + 2 * k if m & 1 and c & 1 else shift

        monkeypatch.setattr(stanley, "_odd_count_shift", flipped)
        reports = _series_reports(oracle_bound=12)
        r = reports["series/t-eta-quotient-vs-enumeration"]
        # (2, 1) is the first partition misread: O' = 2 + 1 instead of 2 - 1,
        # so the DP gives t(3) = 0 against Andrews' 1
        assert not r.passed
        assert (r.first_failure_index, r.lhs_value, r.rhs_value, r.order_or_bound) == (3, 1, 0, 12)
        assert reports["series/p-series-vs-partition-count"].passed
        assert reports["series/t-half-sum-vs-eta-quotient"].passed

    def test_perturbed_andrews_exponent(self, monkeypatch):
        terms = dict(stanley._T_ETA_TERMS)
        terms[16] -= 1  # (q^16)^5 becomes (q^16)^4
        monkeypatch.setattr(stanley, "_T_ETA_TERMS", tuple(terms.items()))
        reports = _series_reports(oracle_bound=20)
        r = reports["series/t-eta-quotient-vs-enumeration"]
        # dividing by (q^16; q^16) first adds t(0) = 1 at q^16: 185 + 1
        assert not r.passed
        assert (r.first_failure_index, r.lhs_value, r.rhs_value, r.order_or_bound) == (16, 186, 185, 20)
        assert reports["series/t-half-sum-vs-enumeration"].passed
        assert not reports["series/t-half-sum-vs-eta-quotient"].passed
