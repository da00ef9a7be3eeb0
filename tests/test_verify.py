import errno
import functools
import inspect
import marshal
import os
import signal
import threading
import time
from collections import Counter

import pytest

from stanleypf import cli, partitions, series_core, stanley, verify
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


def _bind(monkeypatch, name, wrapper):
    """Bind wrapper over the constructor name wherever the proof steps reach
    it: in verify for the primitive leaves, and in stanley and series_core
    for the exported closed forms, as perfbench/tracer.py binds its spans."""
    for module in (verify, stanley, series_core):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, wrapper)


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

        for name in ("suite_series", "suite_combinatorial", "check_congruences", "_expand",
                     "expand_product", "expand_theta"):
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

        _bind(monkeypatch, "expand_product", sentinel)
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
        # a product, theta sum or triangular sum that several steps read is
        # expanded once per order
        built = []

        def counted(name):
            real = getattr(verify, name)

            def expand(*args):
                built.append((name, *args))
                return real(*args)

            _bind(monkeypatch, name, expand)

        for name in ("expand_product", "expand_theta", "_triangular"):
            counted(name)
        check_proof_steps(100)
        assert [key for key, seen in Counter(built).items() if seen > 1] == []
        assert Counter(name for name, *_ in built) == {"expand_product": 29, "expand_theta": 9, "_triangular": 2}


_U_PRODUCT = series_core.ProductSpec(
    ((-1, 2, 2, 2), (-1, 8, 8, 2), (-1, 32, 32, 2), (-1, 1, 1, -1), (-1, 4, 4, -5), (-1, 16, 16, -1))
)
_V_PRODUCT = series_core.ProductSpec(((-1, 2, 2, 2), (-1, 8, 8, 2), (-1, 1, 1, -5), (-1, 4, 4, -1)))

# (leaf, index planted with +1, every failing report of the proof steps and
# the triple products at order 100 as tuples)
PLANTED_LEAVES = [
    (_U_PRODUCT, 10, [
        ("proof/u-doubled-is-p-minus-f", 100, False, 12, 28, 24),
        ("proof/u-as-odd-square-theta-quotient", 100, False, 12, 14, 12),
        ("proof/u-with-doubled-sixteen-block", 100, False, 12, 14, 12),
        ("proof/u-with-thirtytwo-block", 100, False, 12, 14, 12),
        ("proof/u-as-v-at-q4", 100, False, 12, 14, 12),
        ("proof/u-as-bilateral-triangular-times-v", 100, False, 12, 14, 12),
        ("proof/u-as-triangular-times-v", 100, False, 12, 14, 12),
        ("proof/u-as-residue-split-sum", 100, False, 12, 14, 12),
    ]),
    # V(q) is read at two orders, and both carry the defect
    (_V_PRODUCT, 3, [
        ("proof/u-as-v-at-q4", 100, False, 14, 110, 112),
        ("proof/u-as-bilateral-triangular-times-v", 100, False, 14, 110, 112),
        ("proof/u-as-triangular-times-v", 100, False, 14, 110, 112),
        ("proof/u-as-residue-split-sum", 100, False, 14, 110, 112),
        ("proof/u-extract-two-mod-four", 96, False, 14, 110, 112),
        ("proof/u-progression-two-closed-form", 24, False, 3, 110, 112),
    ]),
    (series_core.ThetaSpec(32, -4, 0), 28, [
        ("proof/theta-residue-split-mod-four", 100, False, 28, 1, 2),
        ("proof/u-as-residue-split-sum", 100, False, 30, 3958, 3960),
        ("proof/u-extract-two-mod-four", 96, False, 30, 3958, 3960),
        ("proof/theta-32jj-triple-product", 100, False, 28, 2, 1),
    ]),
    (series_core.ProductSpec(((1, 0, 16, 1),)), 16, [
        ("proof/neg-one-pochhammer-doubling", 100, False, 16, 3, 2),
    ]),
    (series_core.ThetaSpec(2, 0, 0, True), 8, [
        ("proof/theta-even-squares-alternating", 100, False, 8, 3, 2),
        ("proof/theta-difference-doubles-odd-squares", 100, False, 8, -1, 0),
        ("series/jtp-k00-minus", 100, False, 8, 3, 2),
    ]),
]


@pytest.mark.parametrize(
    "leaf, index, failures", PLANTED_LEAVES, ids=["u", "v", "theta-32jj", "neg-one-16", "theta-alternating"]
)
def test_planted_leaf_gives_the_pinned_failing_reports(monkeypatch, leaf, index, failures):
    # one coefficient of one primitive expansion is off by one; the failing
    # reports, witnesses and bounds included, are pinned. A clean run_suite
    # call first leaves nothing that the planted run_suite call reads.
    assert all(r.passed for r in run_suite("all", 100, 12, 40))

    def planted(real):
        def expand(spec, order):
            series = real(spec, order)
            if spec == leaf and order >= index:
                coeffs = list(series.coeffs)
                coeffs[index] += 1
                series = TruncatedSeries(coeffs)
            return series

        return expand

    _bind(monkeypatch, "expand_product", planted(verify.expand_product))
    _bind(monkeypatch, "expand_theta", planted(verify.expand_theta))
    reports = check_proof_steps(100) + [
        check_jtp(k, sign, 100) for k in range(verify.DEFAULT_JTP_MAX_K + 1) for sign in (1, -1)
    ]
    assert [tuple(r) for r in reports if not r.passed] == failures
    names = {failure[0] for failure in failures}
    assert [tuple(r) for r in run_suite("all", 100, 12, 40) if r.check_name in names] == sorted(failures)


def _recorded_calls(name, run):
    """The (order, spec) of every call run() makes to the constructor
    ``name`` of series_core, in call order."""
    calls = []
    real = getattr(series_core, name)

    def recording(spec, n):
        calls.append((n, spec))
        return real(spec, n)

    with pytest.MonkeyPatch.context() as m:
        _bind(m, name, recording)
        run()
    return calls


def _proof_step_leaves(name, order):
    """The (order, spec) of every call check_proof_steps makes to the
    constructor ``name``, in call order; each is one distinct leaf."""
    return _recorded_calls(name, lambda: check_proof_steps(order))


class TestProofStepMutations:
    """Every factor of every product in the proof steps must matter: one more
    power of any one factor must fail some step."""

    ORDER = 100

    def test_every_factor_reaches_its_truncation(self):
        # a factor whose first term lies past its call's order is truncated
        # away, and no mutation of it could be seen
        for order, spec in _proof_step_leaves("expand_product", self.ORDER):
            for sign, offset, step, exponent in spec.factors:
                assert (offset or step) <= order, (order, spec)

    def test_one_more_power_of_any_factor_is_caught(self, monkeypatch):
        # each product leaf is mutated at each order it is read at: V(q) is
        # read at two orders, and each must matter on its own
        calls = _proof_step_leaves("expand_product", self.ORDER)
        real = verify.expand_product
        missed = []
        for target in calls:
            factors = target[1].factors
            for k, (sign, offset, step, exponent) in enumerate(factors):
                mutated = series_core.ProductSpec(
                    factors[:k] + ((sign, offset, step, _one_more_power(exponent)),) + factors[k + 1:]
                )

                def mutant(spec, n, mutated=mutated, target=target):
                    return real(mutated if (n, spec) == target else spec, n)

                _bind(monkeypatch, "expand_product", mutant)
                try:
                    reports = check_proof_steps(self.ORDER)
                except ValueError:
                    continue
                if all(r.passed for r in reports):
                    missed.append((target, k))
        assert sum(len(spec.factors) for _, spec in calls) == 74
        assert missed == []


class TestProofStepThetaMutations:
    """Every theta leaf of the proof steps must matter: shifting its constant
    term by one, or flipping its alternating sign, must fail some step."""

    ORDER = 100

    def test_shifted_or_sign_flipped_theta_is_caught(self, monkeypatch):
        leaves = [spec for _, spec in _proof_step_leaves("expand_theta", self.ORDER)]
        real = verify.expand_theta
        mutants, missed = 0, []
        for target in leaves:
            for mutated in (target._replace(c=target.c + 1), target._replace(alternating=not target.alternating)):

                def mutant(spec, n, mutated=mutated, target=target):
                    return real(mutated if spec == target else spec, n)

                _bind(monkeypatch, "expand_theta", mutant)
                mutants += 1
                if all(r.passed for r in check_proof_steps(self.ORDER)):
                    missed.append(mutated)
        assert (len(leaves), mutants) == (9, 18)
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
    one factor must fail some series check, and some proof step where the
    proof steps read that closed form."""

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

    def test_the_proof_steps_catch_each_closed_form_they_read(self, monkeypatch):
        # the proof steps read u, f, V and the u(4n + 2) series from stanley
        caught, missed = Counter(), Counter()
        for name, mutated in _closed_form_mutations():
            target = name
            if name == "_U_PROGRESSION":  # named by the progression it changes
                (i,) = [i for i, entry in mutated.items() if entry != stanley._U_PROGRESSION[i]]
                target = f"{name}[{i}]"
            with monkeypatch.context() as m:
                m.setattr(stanley, name, mutated)
                reports = check_proof_steps(100)
            (missed if all(r.passed for r in reports) else caught)[target] += 1
        assert caught == {"_U_ETA_TERMS": 6, "_V_ETA_TERMS": 4, "_F_SPEC": 3, "_U_PROGRESSION[2]": 3}
        # Andrews' t quotient and the other progressions are no step of the chain
        assert missed == {"_T_ETA_TERMS": 5, "_U_PROGRESSION[0]": 3, "_U_PROGRESSION[1]": 3, "_U_PROGRESSION[3]": 3}


class TestTripleProductMutations:
    """Every factor of every triple product must matter: one more power of
    any one of the three factors must fail that specialization."""

    ORDER = 200

    def test_one_more_power_of_any_factor_is_caught(self, monkeypatch):
        real = verify.expand_product
        mutants, missed = 0, []
        for k in range(verify.DEFAULT_JTP_MAX_K + 1):
            for sign in (1, -1):
                for target in range(3):

                    def mutant(spec, n, target=target):
                        fs = spec.factors
                        sign_, offset, step, exponent = fs[target]
                        mutated = (sign_, offset, step, _one_more_power(exponent))
                        return real(series_core.ProductSpec(fs[:target] + (mutated,) + fs[target + 1:]), n)

                    monkeypatch.setattr(verify, "expand_product", mutant)
                    mutants += 1
                    if check_jtp(k, sign, self.ORDER).passed:
                        missed.append((k, sign, target))
        assert mutants == 66
        assert missed == []


def _product_leaf(factors):
    """A product normalised to its sorted factors, with equal factors merged
    and zero exponents dropped."""
    merged = Counter()
    for sign, offset, step, exponent in factors:
        merged[sign, offset, step] += exponent
    return ("prod", tuple(sorted((*factor, e) for factor, e in merged.items() if e)))


def _exported_leaves(name, *args):
    """The product leaves that stanley.<name> expands, recorded at order 8."""
    calls = _recorded_calls("expand_product", lambda: getattr(stanley, name)(*args, 8))
    return {_product_leaf(spec.factors) for _, spec in calls}


def _leaves(term):
    """The product, theta and triangular leaves of a table term. An exported
    leaf stands for the products its function expands; monomials and
    integer scales are no leaves."""
    kind = term[0]
    if kind == "export":
        return _exported_leaves(*term[1:])
    if kind == "prod":
        return {_product_leaf(term[1])}
    if kind in ("theta", "tri"):
        return {term}
    if kind == "mono":
        return set()
    assert kind in ("mul", "add", "sub", "scale", "dilate", "extract", "at"), term
    return set().union(*(_leaves(child) for child in term[1:] if isinstance(child, tuple)))


def _shared_leaves(rows):
    """The rows whose two sides share a leaf, with the leaves they share."""
    return [(name, _leaves(lhs) & _leaves(rhs)) for name, lhs, rhs in rows if _leaves(lhs) & _leaves(rhs)]


def _normalised(term):
    """A term with each product's factors merged and sorted."""
    if term[0] == "prod":
        return _product_leaf(term[1])
    return tuple(_normalised(child) if isinstance(child, tuple) else child for child in term)


def _restated_identities(rows):
    """The names of the rows that state one identity, grouped in row order;
    a row's two normalised sides are taken unordered."""
    groups = {}
    for name, lhs, rhs in rows:
        groups.setdefault(frozenset((_normalised(lhs), _normalised(rhs))), []).append(name)
    return [names for names in groups.values() if len(names) > 1]


class TestIndependence:
    """No row compares a leaf with itself: the two sides of every proof step
    and triple product share no product, theta or triangular leaf. A row
    that did would pass whatever that leaf's expansion gives, and the
    evaluator's memo hands both sides the very same series."""

    ROWS = verify.PROOF_STEPS + tuple(
        verify._jtp_row(k, sign) for k in range(verify.DEFAULT_JTP_MAX_K + 1) for sign in (1, -1)
    )

    def test_no_row_shares_a_leaf(self):
        assert len(self.ROWS) == 29 + 22
        assert _shared_leaves(self.ROWS) == []

    def test_planted_tautologies_are_flagged(self):
        u = next(lhs for name, lhs, _ in verify.PROOF_STEPS if name == "proof/u-as-odd-square-theta-quotient")
        planted = [
            ("u-against-itself-times-one", u, ("mul", ("mono", 1, 0), u)),
            # u's exported closed form against its eta quotient written out
            ("u-against-its-product", u, ("mul", ("mono", 2, 2), (
                "prod", tuple((-1, a, a, e) for a, e in reversed(stanley._U_ETA_TERMS))
            ))),
            # the one-sided triangular sum against twice itself
            ("triangular-doubled", ("tri", False), ("scale", 2, ("tri", False))),
            # the same product written with its factors split and reordered
            ("product-refactored", ("prod", ((-1, 1, 1, 1), (1, 1, 1, 1))),
             ("prod", ((1, 1, 1, 1), (-1, 1, 1, 2), (-1, 1, 1, -1), (-1, 4, 4, 0)))),
        ]
        assert [name for name, _ in _shared_leaves(planted)] == [name for name, _, _ in planted]

    # each pair states one identity; dropping one row of a pair moves pinned
    # report bytes, so both stay until the benchmark's digests are re-recorded
    RESTATED = [
        ["proof/theta-even-squares-plus", "series/jtp-k00-plus"],
        ["proof/theta-even-squares-alternating", "series/jtp-k00-minus"],
    ]

    def test_only_the_known_identities_are_stated_twice(self):
        assert _restated_identities(self.ROWS) == self.RESTATED

    def test_a_planted_restatement_is_flagged(self):
        # a proof step with its sides swapped and a product's factors split
        # and reordered
        planted = (
            "planted", ("prod", ((-1, 8, 8, -1), (-1, 4, 4, 2), (-1, 4, 4, -1))), ("prod", ((-1, 4, 8, 1),))
        )
        assert _restated_identities(self.ROWS + (planted,)) == [
            *self.RESTATED, ["proof/four-mod-eight-eta-ratio", "planted"]
        ]


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
            calls.append((spec, order))
            return real(spec, order)

        for module in (series_core, stanley, verify):
            monkeypatch.setattr(module, "expand_product", counted)
        # on one CPU every suite runs, and is counted, in this process; the
        # run's memo leaves no product expanded twice at one order
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert all(r.passed for r in run_suite("all", 200, 25, 50))
        assert len(calls) == len(set(calls)) == 60
        in_one_process = len(calls)
        # the combinatorial suite makes one expansion, f to the enum bound ...
        calls.clear()
        assert all(r.passed for r in suite_combinatorial(25))
        assert calls == [(stanley._F_SPEC, 25)]
        # ... which a forked child makes in place of this process
        calls.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert all(r.passed for r in run_suite("all", 200, 25, 50))
        assert len(calls) == in_one_process - 1

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
        walk = partitions._suffix_walk

        def counted(n_max):
            for node in walk(n_max):
                visits[node[1]] += 1
                yield node

        monkeypatch.setattr(partitions, "_suffix_walk", counted)
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

        def flipped(k, c):
            # a part at an even position adds +k, not -k, to O(lambda')
            shift = real_shift(k, c)
            return shift + 2 * k if c & 1 else shift

        monkeypatch.setattr(stanley, "_odd_count_shift", flipped)
        reports = _series_reports(oracle_bound=12)
        r = reports["series/t-eta-quotient-vs-enumeration"]
        # (1, 1) is the first partition misread: O' = 1 + 1 instead of 1 - 1
        # (mod 4, which is all the DP keeps), so the DP gives t(2) = 1
        # against Andrews' 0
        assert not r.passed
        assert (r.first_failure_index, r.lhs_value, r.rhs_value, r.order_or_bound) == (2, 0, 1, 12)
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

    def test_odd_coefficient_past_the_order(self, perturb_f):
        # with oracle_bound above order the closed forms run to 60: q^50 lies
        # within the DP oracle's n <= 60 but past the eta-quotient row's 40
        perturb_f({50: 1})
        assert _failures(suite_series(order=40, oracle_bound=60)) == {
            "series/f-product-vs-enumeration": (60, 50, -56521, -56522),
            "series/t-half-sum-vs-enumeration": (60, 50, None, 73852),
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


def _replant_walk(monkeypatch, replant):
    """Rebind partitions._suffix_walk so each node it yields goes through
    replant(node), which returns the nodes to yield in its place. The walk
    builds each child from its tail's own node, so a fault stays with the
    partitions replant changes."""
    walk = partitions._suffix_walk

    def planted(n_max):
        for node in walk(n_max):
            yield from replant(node)

    monkeypatch.setattr(partitions, "_suffix_walk", planted)


def _plant_even_hooks(monkeypatch, planted):
    """One extra even hook in each partition of planted: in the walk's
    carried count, which the sweep reads, and in the cell-by-cell count,
    which the per-partition helpers read."""
    real = partitions._even_hooks
    monkeypatch.setattr(partitions, "_even_hooks", lambda lam, conj: real(lam, conj) + (tuple(lam) in planted))
    _replant_walk(monkeypatch, lambda node: [
        (*node[:5], node[5] + 1, node[6]) if node[1] in planted else node
    ])


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
        # one extra even hook in the diagram of (3, 2), a t-type partition
        # of 5 with hooks 4, 3, 1 / 2, 1
        _plant_even_hooks(monkeypatch, {(3, 2)})

    @pytest.fixture
    def misconjugated(self, monkeypatch):
        # the walk hands (1, 1, 1) the conjugate (2, 1), the self-conjugate
        # partition of 3
        _replant_walk(monkeypatch, lambda node: [
            (*node[:2], (2, 1), *node[3:]) if node[1] == (1, 1, 1) else node
        ])

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


def _reference_sweep(enum_bound, corner_bound, misread_partners=frozenset()):
    """The six combinatorial reports, each check run on its own in
    decreasing lex order within each n, from the per-partition helpers.
    The partner of each partition in misread_partners has its type read
    with O(lambda'') off by 2."""
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
                partner_type = stats.odd_parts_conjugate - partitions.odd_parts_count(partitions.conjugate(conj))
                partner_type += 2 * (lam in misread_partners)
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
    """The sweep walks the partitions in the order the reports index them,
    n ascending and then decreasing lex order within n, and reports each
    check's first failure at its running index, as a check run partition by
    partition would."""

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
        _plant_even_hooks(monkeypatch, planted)
        for bounds in ((14, 12), (0, 12), (14, 4)):
            assert verify._combinatorial_sweep(*bounds) == _reference_sweep(*bounds)

    @pytest.mark.parametrize("planted", [{(3,)}, {(6, 3), (2, 2, 2), (4, 1, 1)}, {(6, 1, 1), (2, 1, 1, 1, 1)}])
    def test_pairing_matches_the_reference_under_planted_faults(self, monkeypatch, planted):
        # the partner of each planted u-type partition reads as t-type: the
        # walk moves O and O' by 2 together, which keeps lambda's own type
        # and moves its partner's, O(lambda') - O(lambda'')
        _replant_walk(monkeypatch, lambda node: [
            (*node[:3], node[3] + 2, node[4] + 2, *node[5:]) if node[1] in planted else node
        ])
        assert verify._combinatorial_sweep(12, 8) == _reference_sweep(12, 8, planted)

    def test_self_conjugate_partition_read_as_u_type(self, monkeypatch):
        # (2, 1) is its own conjugate. With O' moved by 2 it reads as u-type,
        # and so does its partner, by O(lambda') - O(lambda''), so only the
        # distinctness of the pair catches it; index 5 counts from n = 0
        _replant_walk(monkeypatch, lambda node: [
            (*node[:4], node[4] + 2, *node[5:]) if node[1] == (2, 1) else node
        ])
        assert suite_combinatorial(25)[-1] == _report("comb/u-partitions-pair-under-conjugation", 25, 5, 3, None)

    def test_one_walk_under_a_planted_fault(self, monkeypatch):
        # a failing check reads its index off the one walk, never a second
        _plant_even_hooks(monkeypatch, {(3, 2)})
        bounds = []
        walk = partitions._suffix_walk

        def counted(n_max):
            bounds.append(n_max)
            return walk(n_max)

        monkeypatch.setattr(partitions, "_suffix_walk", counted)
        assert not all(r.passed for r in suite_combinatorial(25))
        assert bounds == [25]

    @staticmethod
    def _replant(monkeypatch, times):
        # the walk yields (4, 3), a t-type partition of 7 with evenly many
        # even hooks, `times` times; its subtree is walked as usual
        _replant_walk(monkeypatch, lambda node: [node] * (times if node[1] == (4, 3) else 1))

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


def _mutant(module, name, old, new):
    """module.name compiled, over a copy of the module's globals, with the
    one occurrence of old in its source replaced by new."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module).copy(), namespace)
    return namespace[name]


def _mutant_walk(old, new):
    """partitions._suffix_walk compiled with the one occurrence of old in
    its source replaced by new."""
    return _mutant(partitions, "_suffix_walk", old, new)


class TestSuffixWalkMutations:
    """Each update rule of the walk is load-bearing: a wrong rule makes the
    sweep differ from the cell-by-cell reference and fail a check."""

    def test_unmutated_source_matches_the_reference(self, monkeypatch):
        # the recompiled walk itself, with a replacement that changes nothing
        monkeypatch.setattr(partitions, "_suffix_walk", _mutant_walk("x - odd_conj", "x - odd_conj"))
        assert verify._combinatorial_sweep(12, 8) == _reference_sweep(12, 8)

    @pytest.mark.parametrize("old, new", [
        # x's parity flipped in the row term
        ("row_if_odd if x & 1 else row_if_even", "row_if_even if x & 1 else row_if_odd"),
        # a off by one
        ("x - a - x // 2", "x - a - x // 2 + 1"),
        # ceil((x - m) / 2) new even hooks past column m
        ("+ (x - m) // 2", "+ (x - m + 1) // 2"),
        # O' = x + O(mu')
        ("x - odd_conj", "x + odd_conj"),
        # a tail kept one step short: no tail with |mu| + mu_1 = n_max
        ("if n + x <= n_max:", "if n + x < n_max:"),
    ])
    def test_mutant_is_caught(self, monkeypatch, old, new):
        monkeypatch.setattr(partitions, "_suffix_walk", _mutant_walk(old, new))
        reports = verify._combinatorial_sweep(12, 8)
        assert reports != _reference_sweep(12, 8)
        assert not all(r.passed for r in reports)

    def test_groups_read_in_the_wrong_order_move_a_planted_failure(self, monkeypatch):
        # reading the groups of one weight smallest first part first keeps
        # every count and moves only failure indices, so it runs with one
        # extra even hook in (3, 2), which then comes after (3, 1, 1)
        monkeypatch.setattr(partitions, "_suffix_walk", _mutant_walk(
            "range(min(x, n - x), -1, -1)", "range(min(x, n - x) + 1)"
        ))
        assert verify._combinatorial_sweep(12, 8) == _reference_sweep(12, 8)
        _plant_even_hooks(monkeypatch, {(3, 2)})
        assert verify._combinatorial_sweep(12, 8) != _reference_sweep(12, 8)


class TestHelperMutations:
    """The helpers beneath the table's leaves and the DP are load-bearing
    too: a wrong triangular sum, pentagonal expansion, Euler or Cauchy sum,
    grid refinement or odd-part shift fails some report of a whole run. The
    two survivors are listed in ROADMAP item 7."""

    @pytest.mark.parametrize("module, name, old, new", [
        # the n = 1 term at q^2, not q^1
        (verify, "_triangular", "coeffs[n * (n + 1) // 2] += 1", "coeffs[n * (n + 1) // 2 + (n == 1)] += 1"),
        # T_{n-1} in place of T_n: the one-sided sum gains a second constant
        (verify, "_triangular", "if n * (n + 1) // 2 <= order:\n            coeffs[n * (n + 1) // 2]",
         "if n * (n - 1) // 2 <= order:\n            coeffs[n * (n - 1) // 2]"),
        # the terms of even k subtracted, as those of odd k are
        (series_core, "_pentagonal_terms", "sign = -1 if k & 1 else 1", "sign = -1"),
        # the k(3k+1)/2 term dropped
        (series_core, "_pentagonal_terms", ", step * k * (3 * k + 1) // 2)", ",)"),
        # Horner's rule one term short whenever the last term starts at the order
        (series_core, "_horner", "while shift <= reach:", "while shift < reach:"),
        # term n shifted by offset + step n, not offset + step (n - 1)
        (series_core, "_horner", "shift = offset\n", "shift = offset + step\n"),
        # Cauchy's (z; Q)_n divisors with z's sign flipped
        (series_core, "_horner", "offset + step * (n - 1), sign)", "offset + step * (n - 1), -sign)"),
        # the grid refined without spreading the coarse coefficients out
        (series_core, "expand_product", "finer[:: grid // fine] = c", "finer[: len(c)] = c"),
        # O(lambda) left unchanged by a part equal to k
        (stanley, "_odd_count_shift", "(k & 1) + (k if", "(k if"),
        # the alternating sum for O(lambda') started with the wrong sign
        (stanley, "_odd_count_shift", "k if c & 1 else -k", "-k if c & 1 else k"),
    ])
    def test_mutant_is_caught(self, monkeypatch, module, name, old, new):
        _bind(monkeypatch, name, _mutant(module, name, old, new))
        assert not all(r.passed for r in verify.run_suite("all", 100, 12, 40))

    def test_the_bilateral_range_one_short_changes_nothing_read(self):
        # n = -order - 1 adds q^{order (order + 1) / 2}, past the order from
        # order 2 on, and the table reads _triangular at order >= 8 only
        short = _mutant(verify, "_triangular", "range(-order - 1 if", "range(-order if")
        assert all(short(order, True) == verify._triangular(order, True) for order in range(2, 300))
        assert short(1, True) != verify._triangular(1, True)

    def test_an_untruncated_horner_term_changes_nothing(self, monkeypatch):
        # R_n kept at the full length, not only to where it still reaches
        # the result: each step adds it in as a slice map over c, which
        # stops at c's end, so the extra coefficients only cost time
        specs = {spec for _, spec in _proof_step_leaves("expand_product", 100)}
        real = {(spec, n): series_core.expand_product(spec, n) for spec in specs for n in (0, 1, 2, 7, 40, 100)}
        monkeypatch.setattr(series_core, "_horner", _mutant(series_core, "_horner", "r = c[: reach + 1]", "r = c[:]"))
        assert all(series_core.expand_product(spec, n) == series for (spec, n), series in real.items())


def _in_process(order, enum_bound, oracle_bound):
    """What run_suite("all") reports, from each suite called in this process."""
    reports = (
        check_proof_steps(order)
        + suite_series(order=order, oracle_bound=oracle_bound)
        + suite_combinatorial(enum_bound)
        + check_congruences(order)
    )
    return sorted(reports, key=lambda r: r.check_name)


def _assert_no_child():
    # every child this process made has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_child_only(monkeypatch, module, name, replacement):
    """Rebind module.name to replacement in a forked child, leaving this
    process's calls to the real function."""
    parent = os.getpid()
    real = getattr(module, name)

    def dispatch(*args):
        return (replacement if os.getpid() != parent else real)(*args)

    monkeypatch.setattr(module, name, dispatch)


@pytest.fixture
def two_cpus(monkeypatch):
    # whatever the host has, so run_suite("all") may fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(two_cpus, monkeypatch):
    """The pids of the children this process forks. A test that waits on a
    child for 60 s raises TimeoutError, so a child that never exits fails
    the test instead of hanging the session."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    def expire(signum, frame):
        raise TimeoutError("run_suite waited 60 s on its child")

    monkeypatch.setattr(os, "fork", counted)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        pytest.fail("run_suite forked")

    monkeypatch.setattr(os, "fork", fork)


class TestForkedCombinatorial:
    """On two usable CPUs run_suite("all") runs the combinatorial suite in a
    forked child. Its reports, and any exception the suite raises, are what
    the suites give in this process, and no child outlives the call."""

    @pytest.mark.parametrize("bounds", [(16, 8, 12), (200, 25, 50), (16, 0, 12)])
    def test_reports_equal_the_suites_run_in_process(self, forks, bounds):
        assert run_suite("all", *bounds) == _in_process(*bounds)
        assert len(forks) == 1
        _assert_no_child()

    def test_a_planted_even_hook_fault_comes_back_unchanged(self, forks, monkeypatch):
        _plant_even_hooks(monkeypatch, {(3, 2)})
        reports = run_suite("all", 16, 25, 12)
        assert len(forks) == 1
        assert reports == _in_process(16, 25, 12)
        failing = [r for r in reports if not r.passed]
        expected = TestCombinatorialFaultInjection._hook_fault_reports(25, 20)
        assert failing == sorted((r for r in expected if not r.passed), key=lambda r: r.check_name)

    def test_a_partition_walked_twice_comes_back_unchanged(self, forks, monkeypatch):
        TestCombinatorialWalk._replant(monkeypatch, 2)
        reports = run_suite("all", 16, 25, 12)
        assert len(forks) == 1
        assert reports == _in_process(16, 25, 12)
        assert [r for r in reports if not r.passed] == [
            _report("comb/even-hook-partitions-equal-t", 25, 7, 6, 5),
            _report("comb/signed-hook-count-equals-f", 25, 7, -4, -5),
        ]

    def test_a_sweep_exception_reaches_the_caller(self, forks, monkeypatch):
        def planted(enum_bound, corner_bound):
            raise ArithmeticError(f"planted fault at bounds {enum_bound}, {corner_bound}")

        monkeypatch.setattr(verify, "_combinatorial_sweep", planted)
        with pytest.raises(ArithmeticError) as alone:
            suite_combinatorial(8)
        with pytest.raises(ArithmeticError) as forked:
            run_suite("all", 16, 8, 12)
        assert len(forks) == 1
        assert (type(forked.value), str(forked.value)) == (type(alone.value), str(alone.value))
        _assert_no_child()

    @pytest.mark.parametrize("fault", ["raises", "short data", "unreadable data", "not reports"])
    def test_a_failed_child_falls_back_in_process(self, forks, monkeypatch, fault):
        if fault == "raises":
            def failing(enum_bound):
                raise RuntimeError("the child fails")

            _in_child_only(monkeypatch, verify, "suite_combinatorial", failing)
        else:
            real = marshal.dumps
            garble = {
                "short data": lambda obj: real(obj)[:-1],
                "unreadable data": lambda obj: b"\xff" + real(obj),
                "not reports": lambda obj: real(len(obj)),
            }[fault]
            _in_child_only(monkeypatch, marshal, "dumps", garble)
        assert run_suite("all", 16, 8, 12) == _in_process(16, 8, 12)
        assert len(forks) == 1
        _assert_no_child()

    @pytest.mark.parametrize("planted", [ArithmeticError, KeyboardInterrupt])
    def test_no_child_outlives_a_raising_parent(self, forks, monkeypatch, planted):
        def stalled(enum_bound):
            time.sleep(60)

        def raising(order):
            raise planted("planted in the congruences")

        _in_child_only(monkeypatch, verify, "suite_combinatorial", stalled)
        monkeypatch.setattr(verify, "check_congruences", raising)
        start = time.monotonic()
        with pytest.raises(planted, match="^planted in the congruences$"):
            run_suite("all", 16, 8, 12)
        # the running child was killed, not waited for
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        _assert_no_child()

    def test_the_child_ends_in_os_exit_zero(self, forks, monkeypatch):
        # a child that returned into its caller's frames would run on
        # through this test session instead of calling os._exit
        read_end, write_end = os.pipe()
        real_exit = os._exit

        def recorded(status):
            os.write(write_end, bytes([status]))
            real_exit(status)

        monkeypatch.setattr(os, "_exit", recorded)
        try:
            assert run_suite("all", 16, 8, 12) == _in_process(16, 8, 12)
        finally:
            os.close(write_end)
            with open(read_end, "rb") as fh:
                statuses = fh.read()
        assert len(forks) == 1
        assert statuses == b"\x00"

    def test_the_child_leaves_inherited_buffers_unflushed(self, forks, tmp_path):
        path = tmp_path / "out"
        with open(path, "w") as fh:
            fh.write("written once")
            run_suite("all", 16, 8, 12)
        assert len(forks) == 1
        assert path.read_text() == "written once"

    def test_a_failed_fork_runs_the_suite_in_process(self, two_cpus, monkeypatch):
        tries = []

        def no_pids():
            tries.append(1)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_pids)
        assert run_suite("all", 16, 8, 12) == _in_process(16, 8, 12)
        assert tries == [1]

    def test_one_usable_cpu_runs_in_process(self, no_fork, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_suite("all", 16, 8, 12) == _in_process(16, 8, 12)

    def test_one_cpu_without_affinity_runs_in_process(self, no_fork, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run_suite("all", 16, 8, 12) == _in_process(16, 8, 12)

    def test_no_fork_runs_in_process(self, two_cpus, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert run_suite("all", 16, 8, 12) == _in_process(16, 8, 12)

    def test_a_second_thread_runs_in_process(self, no_fork, two_cpus):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert run_suite("all", 16, 8, 12) == _in_process(16, 8, 12)
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    @pytest.mark.parametrize("order", [7, series_core.MAX_DILATION_ORDER + 1])
    def test_an_order_the_proof_steps_reject_forks_nothing(self, no_fork, two_cpus, order):
        with pytest.raises(ValueError, match=rf"^proof steps need order [<>]= \d+, got {order}$"):
            run_suite("all", order=order)

    def test_order_past_the_cap_on_the_command_line_forks_nothing(self, no_fork, two_cpus, capsys):
        assert cli.main(["verify", "--suite", "all", "--order", "10001"]) == 2
        assert capsys.readouterr().err == "error: --order is capped at 10000, got 10001\n"

    @pytest.mark.parametrize("suite", ["series", "combinatorial", "proof-steps", "congruences"])
    def test_single_suites_run_in_process(self, no_fork, two_cpus, suite):
        assert run_suite(suite, 16, 8, 12)


def _open_descriptors():
    return sorted(os.listdir("/proc/self/fd"), key=int)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list descriptors")
class TestOpenDescriptors:
    """run_suite("all") on two usable CPUs closes every descriptor it opens,
    both ends of the child's pipe included, however the child ends."""

    @pytest.mark.parametrize("case", ["success", "child raises", "parent raises", "fork fails"])
    def test_the_open_descriptors_are_unchanged(self, forks, monkeypatch, case):
        def failing(enum_bound):
            raise RuntimeError("the child fails")

        def stalled(enum_bound):
            time.sleep(60)

        def raising(order):
            raise ArithmeticError("planted in the congruences")

        def no_pids():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        if case == "child raises":
            _in_child_only(monkeypatch, verify, "suite_combinatorial", failing)
        elif case == "parent raises":
            _in_child_only(monkeypatch, verify, "suite_combinatorial", stalled)
            monkeypatch.setattr(verify, "check_congruences", raising)
        elif case == "fork fails":
            monkeypatch.setattr(os, "fork", no_pids)
        before = _open_descriptors()
        if case == "parent raises":
            with pytest.raises(ArithmeticError, match="^planted in the congruences$"):
                run_suite("all", 16, 8, 12)
        else:
            assert all(r.passed for r in run_suite("all", 16, 8, 12))
        assert _open_descriptors() == before
        assert len(forks) == (case != "fork fails")
        _assert_no_child()


_EXPORTS =("p_series", "f_series", "t_series_andrews", "u_series", "v_series", "u_progression_series")


@pytest.fixture
def evaluations(monkeypatch):
    """The (export, *args) of every evaluation of stanley's exported series,
    in this process: each export is memoised afresh around a function that
    counts the calls the memo lets through."""
    counted = Counter()

    def counting(fn):
        @functools.wraps(fn)
        def evaluate(*args):
            counted[(fn.__name__, *args)] += 1
            return fn(*args)

        return evaluate

    for name in _EXPORTS:
        monkeypatch.setattr(stanley, name, stanley._memoised(counting(getattr(stanley, name).__wrapped__)))
    return counted


class TestRunMemo:
    """Within one run_suite call each exported series is expanded once per
    (function, arguments, order); the memo is made for that call and dropped
    when it returns or raises, so no later call reads it. The planted-leaf
    test binds its leaf after a clean run_suite call and must still see it."""

    def test_the_parent_evaluates_each_export_once(self, forks, evaluations):
        assert all(r.passed for r in run_suite("all", 200, 25, 50))
        assert len(forks) == 1
        # without the memo, f, u and p at 200 are read three times each, t
        # at 200 twice and V at 40 four times
        assert evaluations == dict.fromkeys([
            ("p_series", 200), ("f_series", 200), ("u_series", 200), ("t_series_andrews", 200),
            ("v_series", 50), ("u_progression_series", 2, 49), ("v_series", 49),
            ("p_series", 40), ("f_series", 50), ("v_series", 40),
            *(("u_progression_series", i, 40) for i in range(4)),
        ], 1)
        assert stanley._run_memo is None

    def test_each_call_computes_fresh(self, evaluations):
        run_suite("congruences", 40)
        run_suite("congruences", 40)
        assert evaluations == dict.fromkeys(
            [("p_series", 40), ("f_series", 40), ("u_series", 40), ("t_series_andrews", 40)], 2
        )
        # and outside run_suite nothing is kept
        stanley.f_series(40)
        assert evaluations[("f_series", 40)] == 3

    def test_a_call_after_a_suite_raised_computes_fresh(self, evaluations, monkeypatch):
        def raising(order, oracle_bound):
            stanley.p_series(order)
            raise ArithmeticError("planted in the series suite")

        with monkeypatch.context() as m:
            m.setattr(verify, "suite_series", raising)
            with pytest.raises(ArithmeticError, match="^planted in the series suite$"):
                run_suite("series", 40)
        assert stanley._run_memo is None
        assert all(r.passed for r in run_suite("congruences", 40))
        assert evaluations[("p_series", 40)] == 2
