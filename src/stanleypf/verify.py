"""Machine verification of the series identities and hook-statistic theorems.

Each check expands both sides of one identity from primitive constructors
(products, theta sums) and ``stanley``'s exported series, or counts
partitions combinatorially, and reports the first mismatching index with
both witness values. The two sides of a check never share a derived
intermediate, so a compensating bug in one pipeline cannot hide.

The proof steps and the triple-product family are data: rows of (check
name, lhs term, rhs term), in ``PROOF_STEPS`` and made by ``_jtp_row`` from
(k, sign). A term is a small tuple tree, with its grammar given above
``PROOF_STEPS``; its closed forms under proof are read from ``stanley``,
and every other leaf is a primitive. One evaluator, ``_expand``, reads it
through a memo that lives for one list of rows, so a leaf or node that
several rows read is built once per order. A test checks the rule above on
the table, resolving each exported leaf to the products it expands.

The combinatorial side of the ``series/*-vs-enumeration`` checks is the
partition DP, ``stanley.table_from_dp``, to ``oracle_bound``. The
combinatorial suite ties that DP to exhaustive enumeration: its even-hook
counts over every partition of n <= ``enum_bound`` must equal the DP's t(n).
The suite makes one shared walk over the partitions
(``partitions._suffix_walk``), in the order the reports index them. It
builds each partition by putting one part on top of its tail and carries
the conjugate, both odd-part counts and the even-hook count over from that
tail in O(1) steps per count. All four combinatorial checks read these
values; the odd-part side and the hook side share only the partition and
its conjugate.

``run_suite("all")`` runs the combinatorial suite in a child made with
``os.fork`` while the parent runs the proof steps, the series suite and the
congruences; the combinatorial suite shares no value with them, so a
second CPU can do the sweep. Only the child's finished reports cross back,
as plain tuples with ``marshal``, through one pipe that the child writes
and the parent reads as a file. Where ``os.fork`` is missing, only one CPU
is usable or another thread runs, no child is made; where none runs or one
fails, the parent runs the combinatorial suite itself, from the one call
that runs it. All suites of one ``run_suite`` call read ``stanley``'s
exported series through one memo, made before the fork and dropped when
the call ends, so each is expanded once per run; the memo only shares a
value between checks, and a call outside ``run_suite`` computes fresh.

Passing at a finite order is evidence, not proof: reports state the order
or bound they were verified to.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections import namedtuple
from collections.abc import Sequence
from io import BufferedReader

from . import partitions, stanley
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


def _triangular(order: int, bilateral: bool) -> TruncatedSeries:
    # sum q^{n(n+1)/2}, over n >= 0 or over every integer n, enumerated directly
    coeffs = [0] * (order + 1)
    for n in range(-order - 1 if bilateral else 0, order + 1):
        if n * (n + 1) // 2 <= order:
            coeffs[n * (n + 1) // 2] += 1
    return TruncatedSeries(tuple(coeffs))


# A row is (check name, lhs term, rhs term); both sides are expanded to the
# order n the row is checked at and compared by assert_series_equal. A term
# is a tuple tree read by _expand. Its leaves are
#   ("export", name, *args)      getattr(stanley, name)(*args, n)
#   ("prod", factors)            expand_product(ProductSpec(factors), n)
#   ("theta", a, b, c, alt)      expand_theta(ThetaSpec(a, b, c, alt), n)
#   ("tri", bilateral)           _triangular(n, bilateral)
#   ("mono", coef, exp)          coef * q^exp
# and its nodes are
#   ("mul", x, y)  ("add", x, y, ...)  ("sub", x, y)  ("scale", k, x)
#   ("dilate", m, x)             x(q^m), order m times x's
#   ("extract", r, m, x)         the coefficients of x at r, r + m, r + 2m, ...
#   ("at", r, m, x)              x read at order (n - r) // m
# whose children are read at n unless the node says otherwise. The closed
# forms under proof are "export" leaves; every other leaf is a primitive.

_U = ("export", "u_series")
_P = ("export", "p_series")
_F = ("export", "f_series")
_V = ("export", "v_series")
# p's odd/even split: (-q; q^2) / ( (q^4; q^4) (q^2; q^4)^2 )
_P_SPLIT = ("prod", ((1, 1, 2, 1), (-1, 4, 4, -1), (-1, 2, 4, -2)))
# the common denominator of the two half quotients
_COMMON_DENOMINATOR = ("prod", ((1, 1, 2, 1), (-1, 4, 4, -2), (-1, 2, 4, -2), (1, 2, 4, -2)))
# triple products of sum q^{2n^2} and its alternating twin
_THETA_PLUS_PRODUCT = ("prod", ((-1, 4, 4, 1), (1, 2, 4, 2)))
_THETA_ALT_PRODUCT = ("prod", ((-1, 4, 4, 1), (-1, 2, 4, 2)))
_NEG_SIXTEEN = ("prod", ((1, 16, 16, 1),))  # (-q^16; q^16)
_EVEN_ETA_OVER_ETA = ("prod", ((-1, 2, 2, 2), (-1, 1, 1, -1)))  # (q^2)^2 / (q)
_V_Q4 = ("dilate", 4, ("at", -3, 4, _V))  # V(q) read at ceil(n / 4), so V(q^4) covers n
_THETA_PLUS = ("theta", 2, 0, 0, False)
_THETA_ALT = ("theta", 2, 0, 0, True)
_THETA_ODD_SQUARES = ("theta", 8, 8, 2, False)  # sum q^{2 (2n+1)^2}
_THETA_8NN = ("theta", 8, 8, 0, False)
_THETA_TRI = ("theta", 2, -1, 0, False)  # sum q^{2n^2 - n}
_THETA_32JJ = ("theta", 32, -4, 0, False)
# sum q^{2n^2 - n} with n split over its residues mod 4
_THETA_RESIDUES = (
    "add", _THETA_32JJ, ("theta", 32, 12, 1, False), ("theta", 32, 28, 6, False), ("theta", 32, 44, 15, False)
)
_TRI = ("tri", False)
_TRI_BILATERAL = ("tri", True)
_ODD_SQUARE_QUOTIENT = ("mul", _COMMON_DENOMINATOR, _THETA_ODD_SQUARES)
_Q2 = ("mono", 1, 2)
_TWO_Q2 = ("mono", 2, 2)

#: Every displayed rewriting used to derive the u(n) closed forms, in report order.
PROOF_STEPS = (
    # 1/(q;q) rewritten over the mod-4 classes of exponents
    ("proof/p-gf-odd-even-quotient", _P, _P_SPLIT),
    # twice the closed form equals p - f
    ("proof/u-doubled-is-p-minus-f", ("scale", 2, _U), ("sub", _P, _F)),
    # the two half quotients combine over a common denominator
    ("proof/u-difference-single-quotient", ("sub", _P_SPLIT, _F),
     ("mul", _COMMON_DENOMINATOR, ("sub", _THETA_PLUS_PRODUCT, _THETA_ALT_PRODUCT))),
    # sum q^{2n^2} and its alternating twin as triple products
    ("proof/theta-even-squares-plus", _THETA_PLUS, _THETA_PLUS_PRODUCT),
    ("proof/theta-even-squares-alternating", _THETA_ALT, _THETA_ALT_PRODUCT),
    # their difference doubles the odd-square subsum
    ("proof/theta-difference-doubles-odd-squares", ("sub", _THETA_PLUS, _THETA_ALT),
     ("scale", 2, _THETA_ODD_SQUARES)),
    # u written as a single theta quotient
    ("proof/u-as-odd-square-theta-quotient", _U, _ODD_SQUARE_QUOTIENT),
    # pulling q^2 out of the odd-square theta
    ("proof/u-theta-shift-rewrite", _ODD_SQUARE_QUOTIENT,
     ("mul", _Q2, ("mul", ("prod", ((1, 1, 2, 1), (-1, 4, 4, -2), (-1, 4, 8, -2))), _THETA_8NN))),
    # sum q^{8n^2+8n} as a triple product with the (-1; q^16) factor
    ("proof/theta-8nn-triple-product", _THETA_8NN, ("prod", ((1, 16, 16, 1), (1, 0, 16, 1), (-1, 16, 16, 1)))),
    # (-1; q^16) = 2 (-q^16; q^16)
    ("proof/neg-one-pochhammer-doubling", ("prod", ((1, 0, 16, 1),)), ("scale", 2, _NEG_SIXTEEN)),
    # resolving the theta gives the doubled sixteen block ...
    ("proof/u-with-doubled-sixteen-block", _U, ("mul", _TWO_Q2, (
        "prod", ((1, 16, 16, 2), (1, 1, 2, 1), (-1, 16, 16, 1), (-1, 4, 4, -2), (-1, 4, 8, -2))
    ))),
    # ... which pairs into a (q^32; q^32) factor
    ("proof/u-with-thirtytwo-block", _U, ("mul", _TWO_Q2, (
        "prod", ((-1, 32, 32, 1), (1, 1, 2, 1), (1, 16, 16, 1), (-1, 4, 4, -2), (-1, 4, 8, -2))
    ))),
    # the three product rewritings used in the final assembly
    ("proof/odd-pochhammer-eta-ratio", ("prod", ((1, 1, 2, 1),)),
     ("prod", ((-1, 2, 2, 2), (-1, 1, 1, -1), (-1, 4, 4, -1)))),
    ("proof/four-mod-eight-eta-ratio", ("prod", ((-1, 4, 8, 1),)), ("prod", ((-1, 4, 4, 1), (-1, 8, 8, -1)))),
    ("proof/neg-sixteen-pochhammer-eta-ratio", _NEG_SIXTEEN, ("prod", ((-1, 32, 32, 1), (-1, 16, 16, -1)))),
    # u factored through V(q^4)
    ("proof/u-as-v-at-q4", _U, ("mul", _TWO_Q2, ("mul", _EVEN_ETA_OVER_ETA, _V_Q4))),
    # (q^2)^2/(q) = (q^2)/(q; q^2)
    ("proof/even-pochhammer-split", _EVEN_ETA_OVER_ETA, ("prod", ((-1, 2, 2, 1), (-1, 1, 2, -1)))),
    # Euler: 1/(q; q^2) = (-q; q)
    ("proof/euler-odd-distinct", ("prod", ((-1, 1, 2, -1),)), ("prod", ((1, 1, 1, 1),))),
    # (q^2; q^2) = (q; q)(-q; q)
    ("proof/even-eta-splits-odd-even", ("prod", ((-1, 2, 2, 1),)), ("prod", ((-1, 1, 1, 1), (1, 1, 1, 1)))),
    # (q)(-1; q)(-q; q) is the bilateral triangular-number sum
    ("proof/triangular-triple-product", ("prod", ((-1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1))), _TRI_BILATERAL),
    ("proof/triangular-bilateral-doubling", _TRI_BILATERAL, ("scale", 2, _TRI)),
    # one-sided triangular numbers re-indexed as a bilateral theta
    ("proof/triangular-reindex-bilateral", _TRI, _THETA_TRI),
    ("proof/u-as-bilateral-triangular-times-v", _U, ("mul", _Q2, ("mul", _TRI_BILATERAL, _V_Q4))),
    ("proof/u-as-triangular-times-v", _U, ("mul", _TWO_Q2, ("mul", _TRI, _V_Q4))),
    # splitting the theta index over residues mod 4
    ("proof/theta-residue-split-mod-four", _THETA_TRI, _THETA_RESIDUES),
    ("proof/u-as-residue-split-sum", _U, ("mul", _TWO_Q2, ("mul", _THETA_RESIDUES, _V_Q4))),
    # extracting the q^{4j+2} terms isolates one residue theta
    ("proof/u-extract-two-mod-four", ("mul", _Q2, ("dilate", 4, ("extract", 2, 4, _U))),
     ("mul", _TWO_Q2, ("mul", _THETA_32JJ, _V_Q4))),
    # sum q^{32 j^2 - 4 j} as a triple product
    ("proof/theta-32jj-triple-product", _THETA_32JJ,
     ("prod", ((-1, 64, 64, 1), (1, 28, 64, 1), (1, 36, 64, 1)))),
    # the simplified u(4n+2) progression in the q variable
    ("proof/u-progression-two-closed-form", ("extract", 2, 4, _U),
     ("at", 2, 4, ("export", "u_progression_series", 2))),
)


def _jtp_row(k: int, sign: int) -> tuple:
    """The row of ``check_jtp(k, sign, order)``."""
    m = 2 * k + 2
    return (
        f"series/jtp-k{k:02d}-{'plus' if sign == 1 else 'minus'}",
        ("theta", m, k, 0, sign == -1),
        ("prod", ((sign, 3 * k + 2, 2 * m, 1), (sign, k + 2, 2 * m, 1), (-1, 2 * m, 2 * m, 1))),
    )


def _expand(term: tuple, n: int, memo: dict) -> TruncatedSeries:
    """The series a term denotes, to order n, kept in memo by order if memo
    has a slot for the term. Constructors are module globals looked up at
    each call, here and for an exported leaf in ``stanley`` and
    ``series_core``: a wrapper bound in all three sees every expansion."""
    built = memo.get(term)
    if built is not None and n in built:
        return built[n]
    kind = term[0]
    if kind == "export":
        series = getattr(stanley, term[1])(*term[2:], n)
    elif kind == "prod":
        series = expand_product(ProductSpec(term[1]), n)
    elif kind == "theta":
        series = expand_theta(ThetaSpec(*term[1:]), n)
    elif kind == "tri":
        series = _triangular(n, term[1])
    elif kind == "mono":
        series = series_monomial(term[1], term[2], n)
    elif kind == "mul":
        series = series_mul(_expand(term[1], n, memo), _expand(term[2], n, memo))
    elif kind == "add":
        series = _expand(term[1], n, memo)
        for child in term[2:]:
            series = series + _expand(child, n, memo)
    elif kind == "sub":
        series = _expand(term[1], n, memo) - _expand(term[2], n, memo)
    elif kind == "scale":
        series = term[1] * _expand(term[2], n, memo)
    elif kind == "dilate":
        series = series_dilate(_expand(term[2], n, memo), term[1])
    elif kind == "extract":
        series = extract_progression(_expand(term[3], n, memo), term[1], term[2])
    else:  # "at"
        series = _expand(term[3], (n - term[1]) // term[2], memo)
    if built is not None:
        built[n] = series
    return series


def _check_rows(rows: Sequence[tuple], order: int) -> list[VerificationReport]:
    """One report per row, in row order, through one memo.

    The memo has a slot only for each term read in more than one place, as
    a hand-written proof names only its shared intermediates; a term read
    once is dropped once read. A slot for every term saves no time and keeps
    every series to the end: at ``verify --suite proof-steps --order
    10000`` it raised peak RSS from 22 to 39 MB and left the run's 3.3-4.5 s
    as it was (3 runs each).
    """
    seen: set = set()
    memo: dict = {}
    terms = [side for _, lhs, rhs in rows for side in (lhs, rhs)]
    while terms:
        term = terms.pop()
        if term in seen:
            memo[term] = {}
        else:
            seen.add(term)
            if term[0] != "prod":  # a product's factors are no terms
                terms.extend(child for child in term[1:] if isinstance(child, tuple))
    return [
        assert_series_equal(name, _expand(lhs, order, memo), _expand(rhs, order, memo))
        for name, lhs, rhs in rows
    ]


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
    return _check_rows([_jtp_row(k, sign)], order)[0]


def _check_proof_order(order: int) -> None:
    if order < 8:
        raise ValueError(f"proof steps need order >= 8, got {order}")
    if order > MAX_DILATION_ORDER:
        raise ValueError(f"proof steps need order <= {MAX_DILATION_ORDER}, got {order}")


def check_proof_steps(order: int) -> list[VerificationReport]:
    """Verify every displayed rewriting used to derive the u(n) closed forms.

    Each step is one row of PROOF_STEPS. Its closed forms under proof are
    read from ``stanley``, so the chain checks what ``export`` prints, and
    every other leaf is a primitive. The rows are read through one memo, so
    a leaf or node that several steps read is built once per order. That is
    safe because no row has a product, theta or triangular leaf on both
    sides, exported leaves resolved; a test checks that. Order must be >= 8
    so every step has nontrivial content, and <= MAX_DILATION_ORDER so V(q^4)
    stays within series_dilate's cap; both are checked before any expansion.
    """
    _check_proof_order(order)
    return _check_rows(PROOF_STEPS, order)


def _report(name: str, bound: int, failure: tuple | None) -> VerificationReport:
    if failure is None:
        return VerificationReport(name, bound, True)
    return VerificationReport(name, bound, False, *failure)


def _combinatorial_sweep(enum_bound: int, corner_bound: int) -> list[VerificationReport]:
    """One walk over every partition of n <= max(enum_bound, corner_bound).

    ``partitions._suffix_walk`` yields each partition once, in the order the
    reports index them, built from its tail lam[1:], with its conjugate,
    both odd-part counts and its even-hook count carried over from that
    tail: the hook side from the hook formula alone, the odd side from the
    parts alone. They feed hook parity, the hook counts and conjugation
    pairing for n <= enum_bound, and the corner lemma for
    1 <= n <= corner_bound. The first failure a check meets is its report,
    at the walk's running index, so every report is what that check would
    give in a sweep of its own. lambda- comes at n - 1, before lambda, so
    the sweep keeps one table, lambda -> H_e for n < corner_bound, and
    checks each corner as the walk meets lambda.

    Returns six reports in suite order: hook parity, the corner lemma, the
    three hook-counting identities, conjugation pairing.
    """
    even_counts = [0] * (enum_bound + 1)  # per n <= enum_bound: partitions with evenly many even hooks
    odd_counts = [0] * (enum_bound + 1)  # ... and with oddly many
    # each check's first failure, as (index, *witnesses)
    parity_failure = corner_failure = pairing_failure = None
    kept: dict[tuple[int, ...], int] = {}  # lam -> H_e for n < corner_bound
    walk = partitions._suffix_walk(max(enum_bound, corner_bound))
    for index, (n, lam, conj, odd_parts, odd_parts_conj, even_hooks, _) in enumerate(walk):
        if n <= enum_bound:
            type_mod_4 = (odd_parts - odd_parts_conj) % 4
            if parity_failure is None and (type_mod_4 == 0) != (even_hooks % 2 == 0):
                parity_failure = index, type_mod_4, even_hooks
            if even_hooks % 2 == 0:
                even_counts[n] += 1
            else:
                odd_counts[n] += 1
            # a u-type lambda needs a distinct u-type conjugate; the
            # partner's type needs O(lambda''), the number of odd columns
            # of lambda', which is lambda'_1 - lambda'_2 + lambda'_3 - ...
            if pairing_failure is None and type_mod_4 and (
                conj == lam or (odd_parts_conj - sum(conj[::2]) + sum(conj[1::2])) % 4 == 0
            ):
                pairing_failure = index, n, None
        if n < corner_bound:
            kept[lam] = even_hooks
        if corner_failure is None and 1 <= n <= corner_bound:
            last = len(lam)
            for i, j in enumerate(lam, 1):
                if i != last and lam[i] == j:
                    continue  # (i, j) is a corner only where lam_i > lam_(i+1)
                # a corner in column 1 is the whole last row
                removed = kept.get(lam[: i - 1] + (j - 1,) + lam[i:] if j > 1 else lam[:-1])
                # the lemma fails where H_e(lambda) - H_e(lambda-) and
                # lambda_i - lambda'_j differ in parity, and at a
                # lambda-minus the walk never yielded
                if removed is None or (even_hooks - removed + j - conj[j - 1]) & 1:
                    corner_failure = index - 1, i, j  # counted from n = 1
                    break
    return [
        _report("comb/hook-parity-equivalence", enum_bound, parity_failure),
        _report("comb/corner-parity-lemma", corner_bound, corner_failure),
        _values_equal(
            "comb/even-hook-partitions-equal-t",
            enum_bound,
            even_counts,
            stanley.table_from_dp(enum_bound).t,
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
            stanley.f_series(enum_bound).coeffs,
        ),
        _report("comb/u-partitions-pair-under-conjugation", enum_bound, pairing_failure),
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

    Both even-hook counts are the ones the suffix walk carried over from
    each partition's tail, never made from each other. The walk yields
    lambda- at n - 1, before lambda, so the sweep keeps H_e for every
    partition of n < n_max and checks each partition's corners as the walk
    meets it. A failure records the partition's index from n = 1 and the
    corner (i, j); a lambda- that the walk never yielded fails at its first
    lambda. The check is one part of the shared combinatorial sweep.
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

    The closed forms for t and u are expanded once, to max(order,
    oracle_bound, 2). Every check compares coefficient tuples by prefix:
    the DP rows to oracle_bound (p to at most 40), the two t's to order,
    and each progression to the shorter order of its two sides. If p(n) +
    f(n) is odd, the half-sum t has no coefficient at n. Each check that
    reads it then fails at n with no lhs value, unless an earlier
    coefficient already differs, and every other check still reports."""
    dp_table = stanley.table_from_dp(oracle_bound)
    top = max(order, oracle_bound, 2)
    t_andrews = stanley.t_series_andrews(top).coeffs
    try:
        t_half_sum = stanley.t_series_half_sum(top).coeffs
    except stanley.IdentityError as exc:
        t_half_sum = exc.halved + (None,)
    u = stanley.u_series(top)
    p_bound = min(40, oracle_bound)
    reports = [
        _values_equal(
            "series/p-series-vs-partition-count", p_bound, dp_table.p, stanley.p_series(p_bound).coeffs
        ),
        _values_equal("series/u-product-vs-enumeration", oracle_bound, u.coeffs, dp_table.u),
        _values_equal("series/t-eta-quotient-vs-enumeration", oracle_bound, t_andrews, dp_table.t),
        _values_equal("series/t-half-sum-vs-enumeration", oracle_bound, t_half_sum, dp_table.t),
        _values_equal(
            "series/f-product-vs-enumeration", oracle_bound, stanley.f_series(oracle_bound).coeffs, dp_table.f
        ),
        _values_equal("series/t-half-sum-vs-eta-quotient", order, t_half_sum, t_andrews[: order + 1]),
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
    return reports + [check_jtp(k, sign, order) for k in range(DEFAULT_JTP_MAX_K + 1) for sign in (1, -1)]


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


def _fork_combinatorial(enum_bound: int) -> tuple[int, BufferedReader] | None:
    """Start ``suite_combinatorial(enum_bound)`` in a forked child.

    Returns the child's pid and the read end of the pipe its reports come
    down, as a file, or None where the suite is to run in this process.
    """
    if not _may_fork():
        return None
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # The child never returns into its caller's frames and never flushes
        # the stdio buffers it inherited: os._exit ends it here, with status
        # 0 only once every report is written.
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps([tuple(r) for r in suite_combinatorial(enum_bound)]))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _child_reports(pid: int, pipe: BufferedReader) -> list[VerificationReport] | None:
    """Read the pipe to end of file and reap the child: its reports, or
    None unless it exited 0 and they decode."""
    with pipe:
        data = pipe.read()
    if os.waitpid(pid, 0)[1] != 0:
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
    Only the child's finished reports come back, as plain tuples with
    ``marshal``, through one pipe that each side opens as a file. No child
    is made where ``os.fork`` is missing, fewer than two CPUs are usable or
    another thread runs. Where none runs, or it fails (the fork fails, the
    child exits non-zero, or its data is short or unreadable), the one call
    to the combinatorial suite runs it in this process: the sweep is
    deterministic, so the reports, or the exception the suite raises, are
    the ones a run in this process gives. The child is reaped before the
    call returns or raises, and killed first if it is still running.

    ``stanley``'s exported series are memoised for the length of the call,
    keyed by (function, arguments, order): the memo is made before the fork
    and dropped when the call returns or raises.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    reports: list[VerificationReport] = []
    child = None
    stanley._run_memo = {}
    try:
        if name == "all":
            # an order the proof steps reject starts no child
            _check_proof_order(order)
            child = _fork_combinatorial(enum_bound)
        # the proof steps go first, so an order they reject fails before any suite runs
        if name in ("all", "proof-steps"):
            reports.extend(check_proof_steps(order))
        if name in ("all", "series"):
            reports.extend(suite_series(order=order, oracle_bound=oracle_bound))
        if name in ("all", "congruences"):
            reports.extend(check_congruences(order))
        if name in ("all", "combinatorial"):
            child_reports = child and _child_reports(*child)
            child = None  # reaped, if one ran
            reports.extend(child_reports or suite_combinatorial(enum_bound))
    finally:
        stanley._run_memo = None
        if child is not None:
            # this process raised or was interrupted before it reaped the child
            pid, pipe = child
            pipe.close()
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
    return sorted(reports, key=lambda r: r.check_name)
