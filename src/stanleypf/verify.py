"""Machine verification of the series identities and hook-statistic theorems.

Each check expands both sides of one identity from primitive constructors
(products, theta sums, reciprocals) or counts partitions combinatorially, and
reports the first mismatching index with both witness values. The two sides
of a check never share a derived intermediate, so a compensating bug in one
pipeline cannot hide.

The combinatorial side of the ``series/*-vs-enumeration`` checks is the
partition DP, ``stanley.table_from_dp``, to ``oracle_bound``. The
combinatorial suite ties that DP to exhaustive enumeration: its even-hook
counts over every partition of n <= ``enum_bound`` must equal the DP's t(n).
The suite makes one shared depth-first walk of the partition prefix tree
(``partitions._prefix_walk``), which carries each partition's conjugate and
both odd-part counts down from its parent. The even-hook count is still
made cell by cell from the partition and its conjugate, once per
partition, and all four combinatorial checks read these values; the
odd-part side and the hook side share only the partition and its
conjugate.

``run_suite("all")`` runs the combinatorial suite in a child made with
``os.fork`` while the parent runs the proof steps, the series suite and the
congruences; the combinatorial suite shares no value with them, so a
second CPU can do the sweep. Only the child's finished reports cross back,
as plain tuples through a pipe with ``marshal``. Where ``os.fork`` is
missing, only one CPU is usable or another thread runs, every suite runs in
the one process.

Passing at a finite order is evidence, not proof: reports state the order
or bound they were verified to.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections import namedtuple
from collections.abc import Sequence

from . import partitions, stanley
from .partitions import inner_corners, odd_parts_count
from .series_core import (
    MAX_DILATION_ORDER,
    ProductSpec,
    ThetaSpec,
    TruncatedSeries,
    expand_product,
    expand_theta,
    extract_progression,
    series_dilate,
    series_monomial,
    series_mul,
    series_reciprocal,
    series_truncate,
)

DEFAULT_ORDER = 200
DEFAULT_ENUM_BOUND = 25
DEFAULT_ORACLE_BOUND = 60
DEFAULT_CORNER_BOUND = 20
DEFAULT_PROGRESSION_BOUND = 40
DEFAULT_JTP_MAX_K = 10

SUITE_NAMES = ("all", "series", "combinatorial", "proof-steps", "congruences")


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "check_name order_or_bound passed first_failure_index lhs_value rhs_value",
        defaults=(None, None, None),
    )
):
    """Outcome of one identity or enumeration check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> VerificationReport:
        self = super().__new__(cls, *args, **kwargs)
        if self.passed != (self.first_failure_index is None):
            raise ValueError("passed must hold exactly when there is no failure index")
        return self

    def to_dict(self) -> dict:
        return self._asdict()

    def to_line(self) -> str:
        if self.passed:
            return f"PASS {self.check_name}: verified to {self.order_or_bound}"
        return (
            f"FAIL {self.check_name}: first mismatch at index {self.first_failure_index}"
            f" (lhs={self.lhs_value}, rhs={self.rhs_value}, bound={self.order_or_bound})"
        )


def assert_series_equal(name: str, a: TruncatedSeries, b: TruncatedSeries) -> VerificationReport:
    """Compare two series coefficientwise up to the shorter order.

    Disagreement is data, not an exception: the report carries the smallest
    failing index and both witness coefficients.
    """
    return _values_equal(name, min(a.order, b.order), a.coeffs, b.coeffs)


def _values_equal(name: str, bound: int, lhs: Sequence[int | None], rhs: Sequence[int]) -> VerificationReport:
    for k, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return VerificationReport(name, bound, False, k, a, b)
    return VerificationReport(name, bound, True)


def _prod(order: int, *factors: tuple[int, int, int, int]) -> TruncatedSeries:
    return expand_product(ProductSpec(factors), order)


def _theta(order: int, a: int, b: int, c: int, alternating: bool = False) -> TruncatedSeries:
    return expand_theta(ThetaSpec(a, b, c, alternating), order)


def _triangular(order: int, bilateral: bool) -> TruncatedSeries:
    # sum q^{n(n+1)/2}, over n >= 0 or over every integer n, enumerated directly
    coeffs = [0] * (order + 1)
    for n in range(-order - 1 if bilateral else 0, order + 1):
        if n * (n + 1) // 2 <= order:
            coeffs[n * (n + 1) // 2] += 1
    return TruncatedSeries(tuple(coeffs))


def check_jtp(k: int, sign: int, order: int) -> VerificationReport:
    """Jacobi triple product specialization z = sign * q^k, base q -> q^(2k+2).

    Verifies sum_n sign^n q^((2k+2) n^2 + k n) against the triple product
    (-sign q^(3k+2); q^(4k+4)) (-sign q^(k+2); q^(4k+4)) (q^(4k+4); q^(4k+4)).
    The base keeps every exponent and product offset nonnegative for any
    k >= 0, and k = 0 reduces to the classical even-square sums.
    """
    if k < 0:
        raise ValueError(f"specialization exponent must be nonnegative, got {k}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    m = 2 * k + 2
    lhs = _theta(order, m, k, 0, alternating=(sign == -1))
    rhs = _prod(order, (sign, 3 * k + 2, 2 * m, 1), (sign, k + 2, 2 * m, 1), (-1, 2 * m, 2 * m, 1))
    tag = "plus" if sign == 1 else "minus"
    return assert_series_equal(f"series/jtp-k{k:02d}-{tag}", lhs, rhs)


def _check_proof_order(order: int) -> None:
    if order < 8:
        raise ValueError(f"proof steps need order >= 8, got {order}")
    if order > MAX_DILATION_ORDER:
        raise ValueError(f"proof steps need order <= {MAX_DILATION_ORDER}, got {order}")


def check_proof_steps(order: int) -> list[VerificationReport]:
    """Verify every displayed rewriting used to derive the u(n) closed forms.

    Both sides of each step are constructed from primitive expansions, never
    from the higher-level series under test. A product or theta sum that
    several steps read is expanded once and named; no step reads the same
    named value on both of its sides. Requires order >= 8 so every step has
    nontrivial content, and order <= MAX_DILATION_ORDER so the dilation of
    V(q) to V(q^4) stays within series_dilate's cap. Both are checked
    before anything is expanded.
    """
    _check_proof_order(order)
    n = order
    q2 = series_monomial(1, 2, n)

    # shared closed form: 2 q^2 (q^2)^2 (q^8)^2 (q^32)^2 / ( (q) (q^4)^5 (q^16) )
    u_closed = series_mul(
        series_monomial(2, 2, n),
        _prod(n, (-1, 2, 2, 2), (-1, 8, 8, 2), (-1, 32, 32, 2),
              (-1, 1, 1, -1), (-1, 4, 4, -5), (-1, 16, 16, -1)),
    )
    p_gf = series_reciprocal(_prod(n, (-1, 1, 1, 1)))
    f_gf = _prod(n, (1, 1, 2, 1), (-1, 4, 4, -1), (1, 2, 4, -2))
    # p's odd/even split: (-q; q^2) / ( (q^4; q^4) (q^2; q^4)^2 )
    p_split = _prod(n, (1, 1, 2, 1), (-1, 4, 4, -1), (-1, 2, 4, -2))
    # the common denominator of the two half quotients
    common_denominator = _prod(n, (1, 1, 2, 1), (-1, 4, 4, -2), (-1, 2, 4, -2), (1, 2, 4, -2))
    # triple products of sum q^{2n^2} and its alternating twin
    theta_plus_product = _prod(n, (-1, 4, 4, 1), (1, 2, 4, 2))
    theta_alt_product = _prod(n, (-1, 4, 4, 1), (-1, 2, 4, 2))
    neg_sixteen = _prod(n, (1, 16, 16, 1))  # (-q^16; q^16)
    even_eta_over_eta = _prod(n, (-1, 2, 2, 2), (-1, 1, 1, -1))  # (q^2)^2 / (q)

    # V(q) at an order whose 4-fold dilation covers n
    v_q = _prod((n + 3) // 4, (-1, 2, 2, 2), (-1, 8, 8, 2), (-1, 1, 1, -5), (-1, 4, 4, -1))
    v_q4 = series_dilate(v_q, 4)

    theta_plus = _theta(n, 2, 0, 0)
    theta_alt = _theta(n, 2, 0, 0, alternating=True)
    theta_odd_sq = _theta(n, 8, 8, 2)          # sum q^{2 (2n+1)^2}
    theta_8nn = _theta(n, 8, 8, 0)
    theta_tri = _theta(n, 2, -1, 0)            # sum q^{2n^2 - n}
    theta_32jj = _theta(n, 32, -4, 0)
    # sum q^{2n^2 - n} with n split over its residues mod 4
    theta_residues = theta_32jj + _theta(n, 32, 12, 1) + _theta(n, 32, 28, 6) + _theta(n, 32, 44, 15)
    tri_one_sided = _triangular(n, bilateral=False)
    tri_bilateral = _triangular(n, bilateral=True)
    odd_square_quotient = series_mul(common_denominator, theta_odd_sq)

    reports = [
        # 1/(q;q) rewritten over the mod-4 classes of exponents
        assert_series_equal("proof/p-gf-odd-even-quotient", p_gf, p_split),
        # twice the closed form equals p - f
        assert_series_equal("proof/u-doubled-is-p-minus-f", 2 * u_closed, p_gf - f_gf),
        # the two half quotients combine over a common denominator
        assert_series_equal(
            "proof/u-difference-single-quotient",
            p_split - f_gf,
            series_mul(common_denominator, theta_plus_product - theta_alt_product),
        ),
        # sum q^{2n^2} and its alternating twin as triple products
        assert_series_equal("proof/theta-even-squares-plus", theta_plus, theta_plus_product),
        assert_series_equal("proof/theta-even-squares-alternating", theta_alt, theta_alt_product),
        # their difference doubles the odd-square subsum
        assert_series_equal(
            "proof/theta-difference-doubles-odd-squares",
            theta_plus - theta_alt,
            2 * theta_odd_sq,
        ),
        # u written as a single theta quotient
        assert_series_equal("proof/u-as-odd-square-theta-quotient", u_closed, odd_square_quotient),
        # pulling q^2 out of the odd-square theta
        assert_series_equal(
            "proof/u-theta-shift-rewrite",
            odd_square_quotient,
            series_mul(
                q2,
                series_mul(_prod(n, (1, 1, 2, 1), (-1, 4, 4, -2), (-1, 4, 8, -2)), theta_8nn),
            ),
        ),
        # sum q^{8n^2+8n} as a triple product with the (-1; q^16) factor
        assert_series_equal(
            "proof/theta-8nn-triple-product",
            theta_8nn,
            _prod(n, (1, 16, 16, 1), (1, 0, 16, 1), (-1, 16, 16, 1)),
        ),
        # (-1; q^16) = 2 (-q^16; q^16)
        assert_series_equal(
            "proof/neg-one-pochhammer-doubling", _prod(n, (1, 0, 16, 1)), 2 * neg_sixteen
        ),
        # resolving the theta gives the doubled sixteen block ...
        assert_series_equal(
            "proof/u-with-doubled-sixteen-block",
            u_closed,
            series_mul(
                series_monomial(2, 2, n),
                _prod(n, (1, 16, 16, 2), (1, 1, 2, 1), (-1, 16, 16, 1),
                      (-1, 4, 4, -2), (-1, 4, 8, -2)),
            ),
        ),
        # ... which pairs into a (q^32; q^32) factor
        assert_series_equal(
            "proof/u-with-thirtytwo-block",
            u_closed,
            series_mul(
                series_monomial(2, 2, n),
                _prod(n, (-1, 32, 32, 1), (1, 1, 2, 1), (1, 16, 16, 1),
                      (-1, 4, 4, -2), (-1, 4, 8, -2)),
            ),
        ),
        # the three product rewritings used in the final assembly
        assert_series_equal(
            "proof/odd-pochhammer-eta-ratio",
            _prod(n, (1, 1, 2, 1)),
            _prod(n, (-1, 2, 2, 2), (-1, 1, 1, -1), (-1, 4, 4, -1)),
        ),
        assert_series_equal(
            "proof/four-mod-eight-eta-ratio",
            _prod(n, (-1, 4, 8, 1)),
            _prod(n, (-1, 4, 4, 1), (-1, 8, 8, -1)),
        ),
        assert_series_equal(
            "proof/neg-sixteen-pochhammer-eta-ratio",
            neg_sixteen,
            _prod(n, (-1, 32, 32, 1), (-1, 16, 16, -1)),
        ),
        # u factored through V(q^4)
        assert_series_equal(
            "proof/u-as-v-at-q4",
            u_closed,
            series_mul(series_monomial(2, 2, n), series_mul(even_eta_over_eta, v_q4)),
        ),
        # (q^2)^2/(q) = (q^2)/(q; q^2)
        assert_series_equal(
            "proof/even-pochhammer-split",
            even_eta_over_eta,
            _prod(n, (-1, 2, 2, 1), (-1, 1, 2, -1)),
        ),
        # Euler: 1/(q; q^2) = (-q; q)
        assert_series_equal(
            "proof/euler-odd-distinct", _prod(n, (-1, 1, 2, -1)), _prod(n, (1, 1, 1, 1))
        ),
        # (q^2; q^2) = (q; q)(-q; q)
        assert_series_equal(
            "proof/even-eta-splits-odd-even",
            _prod(n, (-1, 2, 2, 1)),
            _prod(n, (-1, 1, 1, 1), (1, 1, 1, 1)),
        ),
        # (q)(-1; q)(-q; q) is the bilateral triangular-number sum
        assert_series_equal(
            "proof/triangular-triple-product",
            _prod(n, (-1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)),
            tri_bilateral,
        ),
        assert_series_equal(
            "proof/triangular-bilateral-doubling", tri_bilateral, 2 * tri_one_sided
        ),
        # one-sided triangular numbers re-indexed as a bilateral theta
        assert_series_equal("proof/triangular-reindex-bilateral", tri_one_sided, theta_tri),
        assert_series_equal(
            "proof/u-as-bilateral-triangular-times-v",
            u_closed,
            series_mul(q2, series_mul(tri_bilateral, v_q4)),
        ),
        assert_series_equal(
            "proof/u-as-triangular-times-v",
            u_closed,
            series_mul(series_monomial(2, 2, n), series_mul(tri_one_sided, v_q4)),
        ),
        # splitting the theta index over residues mod 4
        assert_series_equal("proof/theta-residue-split-mod-four", theta_tri, theta_residues),
        assert_series_equal(
            "proof/u-as-residue-split-sum",
            u_closed,
            series_mul(series_monomial(2, 2, n), series_mul(theta_residues, v_q4)),
        ),
        # extracting the q^{4j+2} terms isolates one residue theta
        assert_series_equal(
            "proof/u-extract-two-mod-four",
            series_mul(q2, series_dilate(extract_progression(u_closed, 2, 4), 4)),
            series_mul(series_monomial(2, 2, n), series_mul(theta_32jj, v_q4)),
        ),
        # sum q^{32 j^2 - 4 j} as a triple product
        assert_series_equal(
            "proof/theta-32jj-triple-product",
            theta_32jj,
            _prod(n, (-1, 64, 64, 1), (1, 28, 64, 1), (1, 36, 64, 1)),
        ),
        # the simplified u(4n+2) progression in the q variable
        assert_series_equal(
            "proof/u-progression-two-closed-form",
            extract_progression(u_closed, 2, 4),
            2
            * series_mul(
                _prod((n - 2) // 4, (-1, 16, 16, 1), (1, 7, 16, 1), (1, 9, 16, 1)),
                _prod((n - 2) // 4, (-1, 2, 2, 2), (-1, 8, 8, 2), (-1, 1, 1, -5), (-1, 4, 4, -1)),
            ),
        ),
    ]
    return reports


def _report(name: str, bound: int, failure: tuple | None) -> VerificationReport:
    if failure is None:
        return VerificationReport(name, bound, True)
    return VerificationReport(name, bound, False, *failure)


def _earlier(first: tuple | None, n: int, k: int, witnesses: tuple) -> tuple:
    # Failures are ranked as the reports index them: by n, then in
    # decreasing lex order, which puts the walk's later partitions of n first.
    if first is None or (n, -k) < first[0]:
        return (n, -k), witnesses
    return first


def _combinatorial_sweep(enum_bound: int, corner_bound: int) -> list[VerificationReport]:
    """One walk over every partition of n <= max(enum_bound, corner_bound).

    ``partitions._prefix_walk`` yields each partition once, with its
    conjugate and both odd-part counts carried down the prefix tree; the
    even-hook count is made cell by cell from the partition and its
    conjugate (``partitions._even_hooks``). They feed hook parity, the hook
    counts and conjugation pairing for n <= enum_bound, and the corner
    lemma for 1 <= n <= corner_bound. The walk meets each n's partitions
    in increasing lex order; a failure is indexed in decreasing lex order
    within each n, from the walk's own count of each n. Each check keeps
    the index and witnesses of its own first failure, so every report is
    what that check would give in a sweep of its own.

    Returns six reports in suite order: hook parity, the corner lemma, the
    three hook-counting identities, conjugation pairing.
    """
    top = max(enum_bound, corner_bound)
    seen = [0] * (top + 1)  # per n: partitions the walk has yielded so far
    even_counts = [0] * (enum_bound + 1)  # per n <= enum_bound: partitions with evenly many even hooks
    odd_counts = [0] * (enum_bound + 1)  # ... and with oddly many
    # each check's first failure so far, as ((n, -k), witnesses), where k
    # counts the partitions of n the walk yielded before this one
    parity_failure = corner_failure = pairing_failure = None
    # H_e by partition, for the corner lemma's lambda-minus, over the
    # subtrees of the current first part and the one before it
    hooks: dict[tuple[int, ...], int] = {}
    previous_hooks: dict[tuple[int, ...], int] = {}
    first_part = 0
    for n, lam, conj, odd_parts, odd_parts_conj in partitions._prefix_walk(top):
        k = seen[n]
        seen[n] = k + 1
        even_hooks = partitions._even_hooks(lam, conj)
        if n <= enum_bound:
            type_mod_4 = (odd_parts - odd_parts_conj) % 4
            if (type_mod_4 == 0) != (even_hooks % 2 == 0):
                parity_failure = _earlier(parity_failure, n, k, (type_mod_4, even_hooks))
            if even_hooks % 2 == 0:
                even_counts[n] += 1
            else:
                odd_counts[n] += 1
            # a u-type lambda needs a distinct u-type conjugate; the
            # partner's type is read from its own conjugate, lambda''
            if type_mod_4 and (
                conj == lam or (odd_parts_conj - odd_parts_count(partitions.conjugate(conj))) % 4 == 0
            ):
                pairing_failure = _earlier(pairing_failure, n, k, (n, None))
        if 1 <= n <= corner_bound:
            if lam[0] != first_part:
                first_part = lam[0]
                previous_hooks, hooks = hooks, {}
            for i, j in inner_corners(lam):
                # a corner in column 1 is the whole last row; removing a
                # corner from row 1 leaves the previous first part
                removed = lam[: i - 1] + (j - 1,) + lam[i:] if j > 1 else lam[:-1]
                removed_hooks = (previous_hooks if i == 1 else hooks).get(removed)
                # a lambda-minus the walk never yielded fails the corner
                if removed_hooks is None or (
                    ((even_hooks - removed_hooks) % 2 == 0) != ((j - conj[j - 1]) % 2 == 0)
                ):
                    corner_failure = _earlier(corner_failure, n, k, (i, j))
                    break
        if n < corner_bound:
            hooks[lam] = even_hooks
    # global indices count from the empty partition, in decreasing lex
    # order within each n, from the walk's own counts
    offsets = [0]
    for count in seen:
        offsets.append(offsets[-1] + count)

    def indexed(first: tuple | None, shift: int = 0) -> tuple | None:
        if first is None:
            return None
        (n, minus_k), witnesses = first
        return (offsets[n + 1] - 1 + minus_k - shift, *witnesses)

    return [
        _report("comb/hook-parity-equivalence", enum_bound, indexed(parity_failure)),
        _report("comb/corner-parity-lemma", corner_bound, indexed(corner_failure, 1)),  # counted from n = 1
        _values_equal(
            "comb/even-hook-partitions-equal-t",
            enum_bound,
            even_counts,
            list(stanley.table_from_dp(enum_bound).t),
        ),
        _values_equal(
            "comb/odd-hook-partitions-count-even",
            enum_bound,
            [c % 2 for c in odd_counts],
            [0] * (enum_bound + 1),
        ),
        _values_equal(
            "comb/signed-hook-count-equals-f",
            enum_bound,
            [e - o for e, o in zip(even_counts, odd_counts)],
            list(stanley.f_series(enum_bound).coeffs),
        ),
        _report("comb/u-partitions-pair-under-conjugation", enum_bound, indexed(pairing_failure)),
    ]


def check_hook_parity(n_max: int) -> VerificationReport:
    """t-type classification coincides with having an even number of even hooks.

    Compares (O(lambda) - O(lambda')) % 4 == 0 with H_e(lambda) % 2 == 0 for
    every partition of n <= n_max. A failure records the partition's index
    in global enumeration order, from n = 0, with (O - O') % 4 and H_e as
    witnesses. The check is one part of the shared combinatorial sweep.
    """
    return _combinatorial_sweep(n_max, 0)[0]


def check_corner_lemma(n_max: int) -> VerificationReport:
    """The corner-removal parity claim holds at every inner corner, n <= n_max.

    At each inner corner v = (i, j) of each partition of 1 <= n <= n_max it
    compares H_e(lambda) = H_e(lambda-) mod 2 with lambda_i = lambda'_j mod
    2 (see ``partitions.corner_parity_check``).

    Why it holds: removing the corner v shortens by one the arm of each of
    the lambda_i - 1 cells to its left and the leg of each of the
    lambda'_j - 1 cells above it, so each of those hooks drops by one and
    flips parity. No other cell's hook changes, and v's own hook is 1, which
    is odd. Each flip moves H_e up or down by one, so
    H_e(lambda) - H_e(lambda-) = (lambda_i - 1) + (lambda'_j - 1)
    = lambda_i + lambda'_j mod 2.

    Both even-hook counts are made cell by cell; H_e(lambda-) is the count
    the sweep made when its walk met lambda-, which comes before lambda and
    has the same first part or one less, so the sweep holds the counts of
    two first parts at a time. A failure records the partition's index from
    n = 1 and the corner (i, j); a lambda- that the walk never yielded fails
    at its first lambda. The check is one part of the shared combinatorial
    sweep.
    """
    return _combinatorial_sweep(0, n_max)[1]


def check_hook_counting(n_max: int) -> list[VerificationReport]:
    """The three counting identities tying even-hook statistics to t, u, f.

    For each n <= n_max: partitions with evenly many even hooks number t(n),
    those with oddly many are even in number, and the signed count equals the
    coefficient of the f product series. t(n) comes from the partition DP,
    so this also checks the DP against exhaustive enumeration. The counts
    come from the shared combinatorial sweep.
    """
    return _combinatorial_sweep(n_max, 0)[2:5]


def check_conjugation_pairing(n_max: int) -> VerificationReport:
    """u-type partitions pair off under conjugation with no fixed points.

    Types are read off odd-part counts alone, without the hook grid:
    lambda is t-type when O(lambda) - O(lambda') = 0 mod 4, and its partner
    lambda' when O(lambda') - O(lambda'') = 0 mod 4. A failure records the
    u-type partition's index from n = 0, and n. The check is one part of
    the shared combinatorial sweep.
    """
    return _combinatorial_sweep(n_max, 0)[5]


def check_congruences(order: int) -> list[VerificationReport]:
    """The divisibility and parity congruences, checked on series coefficients."""
    if order < 2:
        raise ValueError(f"congruence checks need order >= 2, got {order}")
    p = stanley.p_series(order).coeffs
    t = stanley.t_series_andrews(order).coeffs
    f = stanley.f_series(order).coeffs
    u = stanley.u_series(order).coeffs
    bound_5 = (order - 4) // 5
    return [
        _values_equal(
            "cong/t-at-5n-plus-4-divisible-by-5",
            order,
            [t[5 * k + 4] % 5 for k in range(bound_5 + 1)],
            [0] * (bound_5 + 1),
        ),
        _values_equal(
            "cong/t-parity-equals-p-parity",
            order,
            [x % 2 for x in t],
            [x % 2 for x in p],
        ),
        _values_equal(
            "cong/f-equals-p-mod-4",
            order,
            [x % 4 for x in f],
            [x % 4 for x in p],
        ),
        _values_equal("cong/u-always-even", order, [x % 2 for x in u], [0] * (order + 1)),
    ]


def suite_series(
    order: int = DEFAULT_ORDER, oracle_bound: int = DEFAULT_ORACLE_BOUND
) -> list[VerificationReport]:
    """Series-level checks: the partition-DP oracle to oracle_bound,
    closed-form agreement, progression extraction, and the triple-product
    family.

    The closed forms for t and u are expanded once, to the larger of order
    and oracle_bound, and every check compares them by prefix, to the
    shorter order of its two sides. If p(n) + f(n) is odd, the half-sum t
    has no coefficient at n. Each check that reads it then fails at n with
    no lhs value, unless an earlier coefficient already differs, and every
    other check still reports."""
    dp_table = stanley.table_from_dp(oracle_bound)
    top = max(order, oracle_bound, 2)
    t_andrews = stanley.t_series_andrews(top)
    try:
        t_half_sum = stanley.t_series_half_sum(top).coeffs
    except stanley.IdentityError as exc:
        t_half_sum = exc.halved + (None,)
    u = stanley.u_series(top)
    reports = [
        assert_series_equal(
            "series/p-series-vs-partition-count",
            TruncatedSeries(dp_table.p[: min(40, oracle_bound) + 1]),
            stanley.p_series(min(40, oracle_bound)),
        ),
        assert_series_equal("series/u-product-vs-enumeration", u, TruncatedSeries(dp_table.u)),
        assert_series_equal(
            "series/t-eta-quotient-vs-enumeration", t_andrews, TruncatedSeries(dp_table.t)
        ),
        _values_equal("series/t-half-sum-vs-enumeration", oracle_bound, t_half_sum, dp_table.t),
        assert_series_equal(
            "series/f-product-vs-enumeration",
            stanley.f_series(oracle_bound),
            TruncatedSeries(dp_table.f),
        ),
        _values_equal(
            "series/t-half-sum-vs-eta-quotient",
            order,
            t_half_sum,
            series_truncate(t_andrews, order).coeffs,
        ),
    ]
    # the i=0 progression carries a q^2 prefactor, so it needs order >= 2
    n_prog = min(DEFAULT_PROGRESSION_BOUND, (order - 3) // 4)
    if n_prog >= 2:
        for i in range(4):
            reports.append(
                assert_series_equal(
                    f"series/u-progression-{i}-vs-extraction",
                    stanley.u_progression_series(i, n_prog),
                    extract_progression(u, i, 4),
                )
            )
    for k in range(DEFAULT_JTP_MAX_K + 1):
        for sign in (1, -1):
            reports.append(check_jtp(k, sign, order))
    return reports


def suite_combinatorial(enum_bound: int = DEFAULT_ENUM_BOUND) -> list[VerificationReport]:
    """Exhaustive hook-statistic checks over all partitions up to the bound.

    One shared sweep enumerates each partition once and gives the reports of
    ``check_hook_parity``, ``check_corner_lemma``, the three of
    ``check_hook_counting`` and ``check_conjugation_pairing``, in that
    order, as each would alone. The corner lemma runs to min(enum_bound, 20),
    20 being DEFAULT_CORNER_BOUND; the other five checks run to enum_bound.
    """
    return _combinatorial_sweep(enum_bound, min(enum_bound, DEFAULT_CORNER_BOUND))


_SIGKILL = 9  # POSIX, where os.fork exists; the signal module is not loaded for it


def _may_fork() -> bool:
    """Whether a forked child would run beside this process: ``os.fork``
    exists, at least two CPUs are usable, and no other thread runs (a
    child forked from a threaded process can deadlock, and Python 3.12+
    warns)."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threading = sys.modules.get("threading")
    return cpus >= 2 and (threading is None or threading.active_count() == 1)


def _fork_combinatorial(enum_bound: int) -> tuple[int, int] | tuple[None, None]:
    """Start ``suite_combinatorial(enum_bound)`` in a forked child.

    Returns the child's pid and the read end of the pipe its reports come
    down, or (None, None) where the suite is to run in this process.
    """
    if not _may_fork():
        return None, None
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None, None
    if pid == 0:
        # The child never returns into its caller's frames and never flushes
        # the stdio buffers it inherited: os._exit ends it here, with status
        # 0 only once every report is written.
        status = 1
        try:
            os.close(read_fd)
            data = memoryview(marshal.dumps([tuple(r) for r in suite_combinatorial(enum_bound)]))
            while data:
                data = data[os.write(write_fd, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _drain(pid: int, read_fd: int) -> tuple[bytes, int]:
    """Everything the child wrote, read to end of file, and its wait status."""
    chunks = []
    while chunk := os.read(read_fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks), os.waitpid(pid, 0)[1]


def _child_reports(data: bytes, status: int) -> list[VerificationReport] | None:
    """The child's reports, or None unless it exited 0 and they decode."""
    if status != 0:
        return None
    try:
        return [VerificationReport(*fields) for fields in marshal.loads(data)]
    except (EOFError, ValueError, TypeError):
        return None


def run_suite(
    name: str,
    order: int = DEFAULT_ORDER,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    oracle_bound: int = DEFAULT_ORACLE_BOUND,
) -> list[VerificationReport]:
    """Run a named suite and return its reports sorted by check name.

    For ``all``, once the proof steps' order check has passed, the
    combinatorial suite runs in a child made with ``os.fork`` while this
    process runs the proof steps, the series suite and the congruences.
    Only the child's finished reports come back, as plain tuples through a
    pipe with ``marshal``. Where ``os.fork`` is missing, fewer than two CPUs
    are usable or another thread runs, every suite runs in this process.
    So does the combinatorial suite if the fork fails, the child exits
    non-zero or its data is short or unreadable: the sweep is
    deterministic, so the reports, or the exception the suite raises, are
    the ones a run in this process gives. The child is reaped before the
    call returns or raises, and killed first if it is still running.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    reports: list[VerificationReport] = []
    pid = read_fd = None
    if name == "all":
        # an order the proof steps reject starts no child
        _check_proof_order(order)
        pid, read_fd = _fork_combinatorial(enum_bound)
    try:
        # the proof steps go first, so an order they reject fails before any suite runs
        if name in ("all", "proof-steps"):
            reports.extend(check_proof_steps(order))
        if name in ("all", "series"):
            reports.extend(suite_series(order=order, oracle_bound=oracle_bound))
        if name in ("all", "combinatorial") and read_fd is None:  # no child runs it
            reports.extend(suite_combinatorial(enum_bound))
        if name in ("all", "congruences"):
            reports.extend(check_congruences(order))
        if pid is not None:
            data, status = _drain(pid, read_fd)
            pid = None
            reports.extend(_child_reports(data, status) or suite_combinatorial(enum_bound))
    finally:
        if read_fd is not None:
            os.close(read_fd)
        if pid is not None:
            # this process raised or was interrupted before it reaped the child
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
    return sorted(reports, key=lambda r: r.check_name)
