import inspect
from collections import Counter

import pytest

from stanleypf import partitions, series_core, stanley, verify
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

    @pytest.mark.parametrize("suite", ["proof-steps", "all"])
    def test_order_past_the_dilation_cap_fails_before_any_suite(self, suite, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran past the proof steps' order cap")

        for name in ("suite_series", "suite_combinatorial", "check_congruences", "_prod"):
            monkeypatch.setattr(verify, name, no_suite)
        cap = series_core.MAX_DILATION_ORDER
        with pytest.raises(ValueError, match=rf"^proof steps need order <= {cap}, got {cap + 1}$"):
            run_suite(suite, order=cap + 1)

    def test_order_at_the_dilation_cap_accepted(self, monkeypatch):
        # the largest valid order gets past the check without expanding anything
        class Expanded(Exception):
            pass

        def sentinel(*args, **kwargs):
            raise Expanded

        monkeypatch.setattr(verify, "_prod", sentinel)
        with pytest.raises(Expanded):
            check_proof_steps(series_core.MAX_DILATION_ORDER)

    def test_doubling_check_catches_a_short_one_sided_sum(self, monkeypatch):
        # plant a defect in _triangular's source: the one-sided sum starts
        # at n = 1. The bilateral sum is enumerated on its own, so the
        # doubling step must see the missing n = 0 term.
        source = inspect.getsource(verify._triangular)
        assert source.count("else 0") == 1
        namespace = dict(vars(verify))
        exec(source.replace("else 0", "else 1"), namespace)
        monkeypatch.setattr(verify, "_triangular", namespace["_triangular"])
        report = next(
            r for r in check_proof_steps(40) if r.check_name == "proof/triangular-bilateral-doubling"
        )
        assert (report.first_failure_index, report.lhs_value, report.rhs_value) == (0, 2, 0)

    def test_names_are_unique(self):
        names = [r.check_name for r in check_proof_steps(8)]
        assert len(set(names)) == len(names)

    def test_each_expansion_built_once(self, monkeypatch):
        # a product or theta sum that several steps read is expanded once
        built = []
        real_prod, real_theta = verify._prod, verify._theta

        def prod(order, *factors):
            built.append(("prod", order, factors))
            return real_prod(order, *factors)

        def theta(order, a, b, c, alternating=False):
            built.append(("theta", order, (a, b, c, alternating)))
            return real_theta(order, a, b, c, alternating)

        monkeypatch.setattr(verify, "_prod", prod)
        monkeypatch.setattr(verify, "_theta", theta)
        check_proof_steps(100)
        assert [key for key, seen in Counter(built).items() if seen > 1] == []


def _proof_step_products(order):
    """The (order, factors) of every _prod call in check_proof_steps, in call order."""
    calls = []
    real = verify._prod

    def recording(n, *factors):
        calls.append((n, factors))
        return real(n, *factors)

    verify._prod = recording
    try:
        check_proof_steps(order)
    finally:
        verify._prod = real
    return calls


class TestProofStepMutations:
    """Every factor of every product in the proof steps must matter: one more
    power of any one factor must fail some step."""

    ORDER = 100

    def test_every_factor_reaches_its_truncation(self):
        # a factor whose first term lies past its call's order is truncated
        # away, and no mutation of it could be seen
        for order, factors in _proof_step_products(self.ORDER):
            for sign, offset, step, exponent in factors:
                assert (offset or step) <= order, (order, factors)

    def test_one_more_power_of_any_factor_is_caught(self, monkeypatch):
        calls = _proof_step_products(self.ORDER)
        real = verify._prod
        missed = []
        for target, (_, factors) in enumerate(calls):
            for k, (sign, offset, step, exponent) in enumerate(factors):
                mutated = list(factors)
                mutated[k] = (sign, offset, step, exponent + (1 if exponent > 0 else -1))
                seen = iter(range(len(calls)))

                def mutant(n, *fs, mutated=tuple(mutated), seen=seen, target=target):
                    return real(n, *(mutated if next(seen) == target else fs))

                monkeypatch.setattr(verify, "_prod", mutant)
                try:
                    reports = check_proof_steps(self.ORDER)
                except ValueError:
                    continue
                if all(r.passed for r in reports):
                    missed.append((target, factors, k))
        assert sum(len(factors) for _, factors in calls) == 74
        assert missed == []


def _one_more_power(exponent):
    return exponent + (1 if exponent > 0 else -1)


def _closed_form_mutations():
    """(table name, mutated table) for one more power of each factor of
    the t, u and V eta quotients and the f product, and for 1 added to
    each of pre, a and b of each u progression."""
    for name in ("_T_ETA_TERMS", "_U_ETA_TERMS", "_V_ETA_TERMS"):
        terms = getattr(stanley, name)
        for k, (scale, exponent) in enumerate(terms):
            yield name, terms[:k] + ((scale, _one_more_power(exponent)),) + terms[k + 1:]
    factors = stanley._F_SPEC.factors
    for k, (sign, offset, step, exponent) in enumerate(factors):
        mutated = factors[:k] + ((sign, offset, step, _one_more_power(exponent)),) + factors[k + 1:]
        yield "_F_SPEC", series_core.ProductSpec(mutated)
    progressions = stanley._U_PROGRESSION
    for i, entry in progressions.items():
        for k in range(3):
            yield "_U_PROGRESSION", {**progressions, i: entry[:k] + (entry[k] + 1,) + entry[k + 1:]}


class TestClosedFormMutations:
    """Every factor of every closed form must matter: one more power of any
    one factor must fail some series check."""

    def test_one_more_power_of_any_factor_is_caught(self, monkeypatch):
        mutations = list(_closed_form_mutations())
        missed = []
        for name, mutated in mutations:
            with monkeypatch.context() as m:
                m.setattr(stanley, name, mutated)
                if all(r.passed for r in suite_series(200, 50)):
                    missed.append((name, mutated))
        assert len(mutations) == 18 + 12
        assert missed == []


class TestTripleProductMutations:
    """Every factor of every triple product must matter: one more power of
    any one of the three factors must fail that specialization."""

    ORDER = 200

    def test_one_more_power_of_any_factor_is_caught(self, monkeypatch):
        real = verify._prod
        mutants, missed = 0, []
        for k in range(verify.DEFAULT_JTP_MAX_K + 1):
            for sign in (1, -1):
                for target in range(3):

                    def mutant(n, *fs, target=target):
                        sign_, offset, step, exponent = fs[target]
                        mutated = (sign_, offset, step, _one_more_power(exponent))
                        return real(n, *fs[:target], mutated, *fs[target + 1:])

                    monkeypatch.setattr(verify, "_prod", mutant)
                    mutants += 1
                    if check_jtp(k, sign, self.ORDER).passed:
                        missed.append((k, sign, target))
        assert mutants == 66
        assert missed == []


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

    # (series, n, offset planted at n, the failing reports as (name, index, lhs, rhs))
    PLANTED = [
        # t(9) = 20 becomes 21: 9 = 5 * 1 + 4, and p(9) = 30 is even
        ("t_series_andrews", 9, 1, [("cong/t-at-5n-plus-4-divisible-by-5", 1, 1, 0),
                                    ("cong/t-parity-equals-p-parity", 9, 1, 0)]),
        # u(3) = 2 becomes 3
        ("u_series", 3, 1, [("cong/u-always-even", 3, 1, 0)]),
        # f(2) = -2 becomes 0, while p(2) = 2; the parity of f is never checked
        ("f_series", 2, 2, [("cong/f-equals-p-mod-4", 2, 0, 2)]),
    ]

    @pytest.mark.parametrize("name, n, offset, failures", PLANTED, ids=[p[0] for p in PLANTED])
    def test_planted_offset_fails_the_congruences_that_read_it(self, monkeypatch, name, n, offset, failures):
        real = getattr(stanley, name)

        def planted(order):
            coeffs = list(real(order).coeffs)
            coeffs[n] += offset
            return TruncatedSeries(tuple(coeffs))

        monkeypatch.setattr(stanley, name, planted)
        failed = {check: witnesses for check, *witnesses in failures}
        names = ["cong/t-at-5n-plus-4-divisible-by-5", "cong/t-parity-equals-p-parity",
                 "cong/f-equals-p-mod-4", "cong/u-always-even"]
        assert check_congruences(60) == [_report(check, 60, *failed.get(check, ())) for check in names]


class TestSuites:
    def test_series_suite_small_bounds(self):
        reports = suite_series(order=40, oracle_bound=12)
        assert all(r.passed for r in reports)
        names = [r.check_name for r in reports]
        assert "series/u-product-vs-enumeration" in names
        assert "series/t-half-sum-vs-eta-quotient" in names
        assert "series/u-progression-3-vs-extraction" in names

    def test_series_suite_expands_each_closed_form_once(self, monkeypatch):
        calls = Counter()
        for name in ("t_series_andrews", "t_series_half_sum", "u_series"):
            real = getattr(stanley, name)

            def counted(order, name=name, real=real):
                calls[name] += 1
                return real(order)

            monkeypatch.setattr(stanley, name, counted)
        assert all(r.passed for r in suite_series(order=200, oracle_bound=50))
        assert calls == {"t_series_andrews": 1, "t_series_half_sum": 1, "u_series": 1}

    def test_suite_all_product_expansions(self, monkeypatch):
        calls = []
        real = series_core.expand_product

        def counted(spec, order):
            calls.append(order)
            return real(spec, order)

        for module in (series_core, stanley, verify):
            monkeypatch.setattr(module, "expand_product", counted)
        assert all(r.passed for r in run_suite("all", 200, 25, 50))
        assert len(calls) <= 70

    def test_series_suite_dp_oracle_to_three_hundred(self):
        reports = suite_series(order=300, oracle_bound=300)
        assert [r.to_line() for r in reports if not r.passed] == []
        bounds = {r.check_name: r.order_or_bound for r in reports}
        assert bounds["series/t-eta-quotient-vs-enumeration"] == 300
        assert bounds["series/p-series-vs-partition-count"] == 40

    def test_combinatorial_suite(self):
        reports = suite_combinatorial(enum_bound=10)
        assert all(r.passed for r in reports)
        assert len(reports) == 6

    def test_combinatorial_suite_enumerates_each_partition_once(self, monkeypatch):
        visits = Counter()
        walk = partitions._prefix_walk

        def counted(n_max):
            for node in walk(n_max):
                visits[node[1]] += 1
                yield node

        monkeypatch.setattr(partitions, "_prefix_walk", counted)
        assert all(r.passed for r in suite_combinatorial(25))
        assert len(visits) == 9296  # p(0) + ... + p(25)
        assert set(visits.values()) == {1}

    @pytest.mark.parametrize("enum_bound", (0, 8, 25))
    def test_combinatorial_suite_is_what_run_suite_reports(self, enum_bound):
        # the corner lemma runs to min(enum_bound, DEFAULT_CORNER_BOUND) both ways
        reports = sorted(suite_combinatorial(enum_bound), key=lambda r: r.check_name)
        assert reports == run_suite("combinatorial", enum_bound=enum_bound)

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
    reports = suite_series(order=40, **bounds)
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


class TestHalfSumFaultInjection:
    """An odd p(n) + f(n) fails the checks that read the half-sum t, and
    only them, at their first mismatch."""

    @pytest.fixture
    def perturb_f(self, monkeypatch):
        real = stanley.f_series

        def plant(shifts):
            def perturbed(order):
                coeffs = list(real(order).coeffs)
                for k, delta in shifts.items():
                    if k <= order:
                        coeffs[k] += delta
                return TruncatedSeries(tuple(coeffs))

            monkeypatch.setattr(stanley, "f_series", perturbed)

        return plant

    def test_even_error_before_the_odd_coefficient(self, perturb_f):
        # f(3) + 2 keeps p(3) + f(3) even but halves to t(3) + 1 = 2; the
        # odd sum at q^5 lies past the first mismatch
        perturb_f({3: 2, 5: 1})
        assert _failures(suite_series(order=40, oracle_bound=12)) == {
            "series/f-product-vs-enumeration": (12, 3, 1, -1),
            "series/t-half-sum-vs-enumeration": (12, 3, 2, 1),
            "series/t-half-sum-vs-eta-quotient": (40, 3, 2, 1),
        }

    def test_odd_coefficient_past_the_oracle_bound(self, perturb_f):
        # q^30 lies beyond the DP oracle's n <= 12 but within order 40
        perturb_f({30: 1})
        assert _failures(suite_series(order=40, oracle_bound=12)) == {
            "series/t-half-sum-vs-eta-quotient": (40, 30, None, stanley.t_series_andrews(30)[30]),
        }


def _failures(reports):
    """Check name -> (bound, index, lhs, rhs) for every failing report."""
    return {
        r.check_name: (r.order_or_bound, r.first_failure_index, r.lhs_value, r.rhs_value)
        for r in reports
        if not r.passed
    }


def _with_exponent(terms, scale, exponent):
    return tuple((a, exponent if a == scale else e) for a, e in terms)


class TestUClosedFormFaultInjection:
    """A planted defect in the u closed forms must trip the u checks, and
    only them."""

    def test_perturbed_u_eta_exponent(self, monkeypatch):
        # (q^16; q^16)^-1 becomes (q^16; q^16)^-2
        monkeypatch.setattr(stanley, "_U_ETA_TERMS", _with_exponent(stanley._U_ETA_TERMS, 16, -2))
        assert _failures(suite_series(order=200, oracle_bound=50)) == {
            "series/u-product-vs-enumeration": (50, 18, 302, 300),
            "series/u-progression-0-vs-extraction": (40, 6, 410, 412),
            "series/u-progression-1-vs-extraction": (40, 5, 310, 312),
            "series/u-progression-2-vs-extraction": (40, 4, 300, 302),
            "series/u-progression-3-vs-extraction": (40, 4, 300, 302),
        }

    def test_perturbed_v_eta_exponent(self, monkeypatch):
        # V(q) feeds every progression series but not u_series itself
        monkeypatch.setattr(stanley, "_V_ETA_TERMS", _with_exponent(stanley._V_ETA_TERMS, 4, -2))
        assert _failures(suite_series(order=200, oracle_bound=50)) == {
            "series/u-progression-0-vs-extraction": (40, 6, 412, 410),
            "series/u-progression-1-vs-extraction": (40, 5, 312, 310),
            "series/u-progression-2-vs-extraction": (40, 4, 302, 300),
            "series/u-progression-3-vs-extraction": (40, 4, 302, 300),
        }

    def test_swapped_progression_offsets(self, monkeypatch):
        # progression 1 given (-q^5; q^16)(-q^11; q^16), progression 3's pair
        monkeypatch.setitem(stanley._U_PROGRESSION, 1, (1, 5, 11))
        assert _failures(suite_series(order=200, oracle_bound=50)) == {
            "series/u-progression-1-vs-extraction": (40, 4, 110, 112),
        }


def _report(name, bound, index=None, lhs=None, rhs=None):
    return VerificationReport(name, bound, index is None, index, lhs, rhs)


def _combinatorial_alone(n_max):
    """Each combinatorial check called on its own, to one bound."""
    return [
        check_hook_parity(n_max),
        check_corner_lemma(n_max),
        *check_hook_counting(n_max),
        check_conjugation_pairing(n_max),
    ]


class TestCombinatorialFaultInjection:
    """A planted defect in a shared per-partition statistic must trip each
    check that reads it, at the same index and with the same witnesses
    whether the check runs alone or inside the suite."""

    @pytest.fixture
    def miscounted_hooks(self, monkeypatch):
        real = partitions._even_hooks

        def planted(lam, conj):
            # one extra even hook in the diagram of (3, 2), a t-type partition
            # of 5 with hooks 4, 3, 1 / 2, 1
            return real(lam, conj) + (tuple(lam) == (3, 2))

        monkeypatch.setattr(partitions, "_even_hooks", planted)

    @pytest.fixture
    def misconjugated(self, monkeypatch):
        walk = partitions._prefix_walk

        def planted(n_max):
            # the walk hands (1, 1, 1) the conjugate (2, 1), the
            # self-conjugate partition of 3
            for n, lam, conj, odd, odd_conj in walk(n_max):
                yield n, lam, (2, 1) if lam == (1, 1, 1) else conj, odd, odd_conj

        monkeypatch.setattr(partitions, "_prefix_walk", planted)

    @staticmethod
    def _hook_fault_reports(enum_bound, corner_bound):
        # (3, 2) is partition 14 counting from n = 0 and 13 counting from
        # n = 1. With 3 even hooks against O - O' = 0 mod 4 it breaks the
        # parity theorem. Removing its corner (1, 3) changes H_e from 3 to
        # 2, an odd step, while lambda_1 = 3 and lambda'_3 = 1 agree in
        # parity. At n = 5 it moves one partition from the even count
        # (t(5) = 5) to the odd count.
        return [
            _report("comb/hook-parity-equivalence", enum_bound, 14, 0, 3),
            _report("comb/corner-parity-lemma", corner_bound, 13, 1, 3),
            _report("comb/even-hook-partitions-equal-t", enum_bound, 5, 4, 5),
            _report("comb/odd-hook-partitions-count-even", enum_bound, 5, 1, 0),
            _report("comb/signed-hook-count-equals-f", enum_bound, 5, 1, 3),
            _report("comb/u-partitions-pair-under-conjugation", enum_bound),
        ]

    def test_miscounted_even_hook_in_suite(self, miscounted_hooks):
        assert suite_combinatorial(25) == self._hook_fault_reports(25, 20)

    @pytest.mark.parametrize("n_max", (5, 12))
    def test_miscounted_even_hook_checks_alone(self, miscounted_hooks, n_max):
        assert _combinatorial_alone(n_max) == self._hook_fault_reports(n_max, n_max)

    def test_miscounted_even_hook_below_its_weight(self, miscounted_hooks):
        assert all(r.passed for r in _combinatorial_alone(4))

    def test_miscounted_even_hook_in_partition_helpers(self, miscounted_hooks):
        # the per-partition helpers read the same statistic, so they fail too
        assert partitions.corner_parity_check((3, 2), (1, 3)) is False
        stats = partitions.classify((3, 2))
        # t-type with an odd number of even hooks breaks hook parity
        assert (stats.is_t_type, stats.even_hooks) == (True, 3)

    def test_misconjugated_partition(self, misconjugated):
        # (3) is u-type and its conjugate (1, 1, 1) is found, but (1, 1, 1)
        # is paired with a t-type partner; index 6 counts from n = 0
        expected = _report("comb/u-partitions-pair-under-conjugation", 25, 6, 3, None)
        assert suite_combinatorial(25)[-1] == expected
        assert check_conjugation_pairing(25) == expected
        assert check_conjugation_pairing(2).passed


def _reference_sweep(enum_bound, corner_bound):
    """The six combinatorial reports, each check run on its own in
    decreasing lex order within each n, from the per-partition helpers."""
    parity = corner = pairing = None
    even, odd = [], []
    index = 0  # counting from the empty partition
    for n in range(max(enum_bound, corner_bound) + 1):
        counts = [0, 0]
        for lam in partitions.partitions_of(n):
            stats = partitions.classify(lam)
            if n <= enum_bound:
                type_mod_4 = (stats.odd_parts - stats.odd_parts_conjugate) % 4
                if parity is None and stats.is_t_type != (stats.even_hooks % 2 == 0):
                    parity = (index, type_mod_4, stats.even_hooks)
                counts[stats.even_hooks % 2] += 1
                # the partner's type, from O(lambda') and O(lambda'')
                conj = partitions.conjugate(lam)
                partner_type = stats.odd_parts_conjugate - verify.odd_parts_count(partitions.conjugate(conj))
                if pairing is None and type_mod_4 and (conj == lam or partner_type % 4 == 0):
                    pairing = (index, n, None)
            if corner is None and 1 <= n <= corner_bound:
                for v in partitions.inner_corners(lam):
                    if not partitions.corner_parity_check(lam, v):
                        corner = (index - 1, *v)
                        break
            index += 1
        if n <= enum_bound:
            even.append(counts[0])
            odd.append(counts[1])
    t = stanley.table_from_dp(enum_bound).t
    f = stanley.f_series(enum_bound).coeffs

    def first(name, lhs, rhs):
        bad = [k for k in range(enum_bound + 1) if lhs[k] != rhs[k]]
        return _report(name, enum_bound, *((bad[0], lhs[bad[0]], rhs[bad[0]]) if bad else ()))

    return [
        _report("comb/hook-parity-equivalence", enum_bound, *(parity or ())),
        _report("comb/corner-parity-lemma", corner_bound, *(corner or ())),
        first("comb/even-hook-partitions-equal-t", even, t),
        first("comb/odd-hook-partitions-count-even", [c % 2 for c in odd], [0] * (enum_bound + 1)),
        first("comb/signed-hook-count-equals-f", [e - o for e, o in zip(even, odd)], f),
        _report("comb/u-partitions-pair-under-conjugation", enum_bound, *(pairing or ())),
    ]


class TestCombinatorialWalk:
    """The sweep walks the partition prefix tree in increasing lex order and
    reports each failure at its index in decreasing lex order, as a check
    run partition by partition would."""

    @pytest.mark.parametrize("bounds", [(0, 0), (1, 1), (25, 20), (0, 20), (20, 3), (3, 14), (12, 12)])
    def test_reports_match_the_reference(self, bounds):
        assert verify._combinatorial_sweep(*bounds) == _reference_sweep(*bounds)

    @pytest.mark.parametrize("planted", [
        {(3, 2)},
        {(2, 2, 1), (4, 1), (6, 3, 1)},
        {(5, 4, 2, 1), (3, 3, 3, 3), (9, 1, 1, 1, 1)},
        {(1,), (7, 7)},
        {(12,), (1,) * 12, (4, 4, 2, 2)},
    ])
    def test_reports_match_the_reference_under_planted_faults(self, monkeypatch, planted):
        real = partitions._even_hooks
        monkeypatch.setattr(
            partitions, "_even_hooks", lambda lam, conj: real(lam, conj) + (tuple(lam) in planted)
        )
        for bounds in ((14, 12), (0, 12), (14, 4)):
            assert verify._combinatorial_sweep(*bounds) == _reference_sweep(*bounds)

    @pytest.mark.parametrize("planted", [{(3,)}, {(6, 3), (2, 2, 2), (4, 1, 1)}, {(6, 1, 1), (2, 1, 1, 1, 1)}])
    def test_pairing_matches_the_reference_under_planted_faults(self, monkeypatch, planted):
        # the partner of each planted u-type partition reads as t-type
        real = verify.odd_parts_count
        monkeypatch.setattr(verify, "odd_parts_count", lambda lam: real(lam) + 2 * (tuple(lam) in planted))
        assert verify._combinatorial_sweep(12, 8) == _reference_sweep(12, 8)

    @staticmethod
    def _replant(monkeypatch, times):
        # the walk yields (4, 3), a t-type partition of 7 with evenly many
        # even hooks, `times` times; its subtree is walked as usual
        walk = partitions._prefix_walk

        def planted(n_max):
            for node in walk(n_max):
                for _ in range(times if node[1] == (4, 3) else 1):
                    yield node

        monkeypatch.setattr(partitions, "_prefix_walk", planted)

    def test_partition_yielded_twice(self, monkeypatch):
        self._replant(monkeypatch, 2)
        # t(7) = 5 and f(7) = -5
        assert suite_combinatorial(25) == [
            _report("comb/hook-parity-equivalence", 25),
            _report("comb/corner-parity-lemma", 20),
            _report("comb/even-hook-partitions-equal-t", 25, 7, 6, 5),
            _report("comb/odd-hook-partitions-count-even", 25),
            _report("comb/signed-hook-count-equals-f", 25, 7, -4, -5),
            _report("comb/u-partitions-pair-under-conjugation", 25),
        ]

    def test_missing_partition_fails_the_corner_lemma(self, monkeypatch):
        self._replant(monkeypatch, 0)
        # (5, 3) is the first partition whose lambda-minus is (4, 3), at its
        # corner (1, 5); with (4, 3) gone it is partition 47 from n = 1
        assert suite_combinatorial(25) == [
            _report("comb/hook-parity-equivalence", 25),
            _report("comb/corner-parity-lemma", 20, 47, 1, 5),
            _report("comb/even-hook-partitions-equal-t", 25, 7, 4, 5),
            _report("comb/odd-hook-partitions-count-even", 25),
            _report("comb/signed-hook-count-equals-f", 25, 7, -6, -5),
            _report("comb/u-partitions-pair-under-conjugation", 25),
        ]
        assert check_corner_lemma(7).passed
        assert check_corner_lemma(8) == _report("comb/corner-parity-lemma", 8, 47, 1, 5)
