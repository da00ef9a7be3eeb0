"""Stanley's partition function t(n), its complement u(n), and f(n).

t(n) counts partitions of n whose odd-part count agrees with that of the
conjugate mod 4; u(n) = p(n) - t(n) counts the rest; f(n) = t(n) - u(n)
is the signed count. Each function is computed by two independent routes:

* combinatorially, from the odd-part counts alone, in one of two ways:
  a dynamic programme over part sizes that counts p(n) and t(n) for all
  n <= N in O(N^2) additions (``table_from_dp``, the oracle of
  ``verify``), or brute force, streaming every partition of n
  (``table_from_enumeration``, the tier-1 reference and ``table --oracle``);
* generating functions, as exact product expansions:

    sum f(n) q^n  =  (-q; q^2) / ( (q^4; q^4) (-q^2; q^4)^2 )
    t(n)          =  (p(n) + f(n)) / 2
    sum t(n) q^n  =  (q^2)^2 (q^16)^5 / ( (q) (q^4)^5 (q^32)^2 )   [Andrews]
    sum u(n) q^n  =  2 q^2 (q^2)^2 (q^8)^2 (q^32)^2 / ( (q) (q^4)^5 (q^16) )

where (q^a) abbreviates (q^a; q^a). The arithmetic-progression series
sum u(4n+i) q^n are built from the closed forms sharing the quotient
V(q) = (q^2)^2 (q^8)^2 / ( (q)^5 (q^4) ).

Keeping both routes alive is the point: every identity is cross-checked
enumeration-versus-series rather than assumed. Neither combinatorial
counter touches a series, and the two share no code with each other.
Each counter returns a ``StanleyTable``; each generating function returns
a ``TruncatedSeries``, and ``verify`` compares the two.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, wraps
from operator import add

from .partitions import _parts_stream
from .series_core import (
    ProductSpec,
    TruncatedSeries,
    eta_quotient,
    expand_product,
    series_add,
    series_monomial,
    series_mul,
)

# (-q; q^2) / ( (q^4; q^4) (-q^2; q^4)^2 ), the generating function of f
_F_SPEC = ProductSpec(((1, 1, 2, 1), (-1, 4, 4, -1), (1, 2, 4, -2)))

# eta exponents for Andrews' closed form of sum t(n) q^n
_T_ETA_TERMS = ((2, 2), (16, 5), (1, -1), (4, -5), (32, -2))

# eta exponents for sum u(n) q^n, without the 2 q^2 prefactor
_U_ETA_TERMS = ((2, 2), (8, 2), (32, 2), (1, -1), (4, -5), (16, -1))

# eta exponents for V(q)
_V_ETA_TERMS = ((2, 2), (8, 2), (1, -5), (4, -1))

# progression i -> (power of q in the prefactor, the two (-q^a; q^16) offsets)
_U_PROGRESSION = {
    0: (2, 1, 15),
    1: (1, 3, 13),
    2: (0, 7, 9),
    3: (0, 5, 11),
}


# The series memo of one ``verify.run_suite`` call, which sets a dict here
# and drops it when the call ends: within a run, each exported series is
# expanded once per (function, arguments, order). None outside a run, so a
# call outside one computes fresh.
_run_memo: dict | None = None


def _memoised(fn):
    """fn, reading and filling the run memo while one is set."""
    name = fn.__name__

    @wraps(fn)
    def memoised(*args):
        memo = _run_memo
        if memo is None:
            return fn(*args)
        key = (name, *args)
        series = memo.get(key)
        if series is None:
            series = memo[key] = fn(*args)
        return series

    return memoised


class IdentityError(ValueError):
    """An odd coefficient stopped the exact halving behind t = (p + f) / 2.

    This is a defect in one of the routes, not bad input, so the command
    line reports it as a verification failure rather than a usage error.
    ``halved`` holds the exact halves of the coefficients below the odd
    one, so its length is the exponent of the odd coefficient.
    """

    def __init__(self, message: str, halved: tuple[int, ...]) -> None:
        super().__init__(message)
        self.halved = halved


@_memoised
def p_series(order: int) -> TruncatedSeries:
    """Partition numbers p(n) as the expansion of 1/(q; q).

    Dividing by the pentagonal series of (q; q) is Euler's recurrence
    p(n) = sum over k >= 1 of (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)).
    """
    return eta_quotient(((1, -1),), order)


@_memoised
def f_series(order: int) -> TruncatedSeries:
    """The signed-count generating function of f(n)."""
    return expand_product(_F_SPEC, order)


def _halve_exactly(s: TruncatedSeries) -> TruncatedSeries:
    halved = []
    for k, c in enumerate(s.coeffs):
        q, rem = divmod(c, 2)
        if rem:
            raise IdentityError(f"coefficient {c} of q^{k} is odd and cannot be halved exactly", tuple(halved))
        halved.append(q)
    return TruncatedSeries(tuple(halved))


def t_series_half_sum(order: int) -> TruncatedSeries:
    """t(n) as (p(n) + f(n)) / 2, with exact halving.

    An odd coefficient sum would mean either an implementation bug or a
    falsified identity, so it raises IdentityError instead of rounding.
    """
    return _halve_exactly(series_add(p_series(order), f_series(order)))


@_memoised
def t_series_andrews(order: int) -> TruncatedSeries:
    """t(n) from Andrews' closed-form eta-quotient."""
    return eta_quotient(_T_ETA_TERMS, order)


@_memoised
def u_series(order: int) -> TruncatedSeries:
    """u(n) from the closed-form eta-quotient with prefactor 2 q^2."""
    if order < 2:
        raise ValueError(f"the u(n) series starts at q^2; order {order} is too small")
    return series_mul(series_monomial(2, 2, order), eta_quotient(_U_ETA_TERMS, order))


@_memoised
def v_series(order: int) -> TruncatedSeries:
    """The quotient V(q) shared by all four progression series."""
    return eta_quotient(_V_ETA_TERMS, order)


@_memoised
def u_progression_series(i: int, order: int) -> TruncatedSeries:
    """The closed-form series sum_n u(4n + i) q^n for i in 0..3."""
    if i not in _U_PROGRESSION:
        raise ValueError(f"progression residue must be 0..3, got {i}")
    pre, a, b = _U_PROGRESSION[i]
    if order < pre:
        raise ValueError(f"order {order} cannot hold the q^{pre} prefactor")
    prod = expand_product(ProductSpec(((-1, 16, 16, 1), (1, a, 16, 1), (1, b, 16, 1))), order)
    return series_mul(series_monomial(2, pre, order), series_mul(prod, v_series(order)))


@lru_cache(maxsize=None)
def _enumeration_counts(n: int) -> tuple[int, int]:
    # one pass per partition: acc = O(lambda) - O(lambda'), using
    # O(lambda') = lam_1 - lam_2 + lam_3 - ...
    p = t = 0
    for parts in _parts_stream(n):
        acc = 0
        odd_pos = False
        for x in parts:
            if odd_pos:
                acc += (x & 1) + x
                odd_pos = False
            else:
                acc += (x & 1) - x
                odd_pos = True
        if acc % 4 == 0:
            t += 1
        p += 1
    return p, t


class StanleyTable(namedtuple("StanleyTable", "max_n p t u f")):
    """Columns p, t, u, f for 0..max_n from one combinatorial counter.

    ``_table_from_counts`` is the only constructor. It derives u = p - t
    and f = t - u from the counted p and t, so the defining relations hold
    by construction.
    """

    __slots__ = ()


def _table_from_counts(max_n: int, p: list[int], t: list[int]) -> StanleyTable:
    u = [pn - tn for pn, tn in zip(p, t)]
    f = [tn - un for tn, un in zip(t, u)]
    return StanleyTable(max_n, tuple(p), tuple(t), tuple(u), tuple(f))


def table_from_enumeration(max_n: int) -> StanleyTable:
    """Build the table by streaming all partitions of every n <= max_n."""
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    p, t = [], []
    for n in range(max_n + 1):
        pn, tn = _enumeration_counts(n)
        p.append(pn)
        t.append(tn)
    return _table_from_counts(max_n, p, t)


def _odd_count_shift(k: int, c: int) -> int:
    """Change in O(lambda) - O(lambda') from appending one part equal to k
    to a partition with c parts so far (only c mod 2 matters).

    O(lambda) gains k & 1. O(lambda') = lam_1 - lam_2 + lam_3 - ... gains
    +k if the new part sits at an odd position (c even) and -k otherwise.
    """
    return (k & 1) + (k if c & 1 else -k)


def table_from_dp(max_n: int) -> StanleyTable:
    """Count p(n) and t(n) for every n <= max_n in one dynamic programme.

    Part sizes k = max_n, ..., 1 are taken in descending order, and parts
    of size k are added one at a time, so parts are appended in the order
    lam_1 >= lam_2 >= ... ``_odd_count_shift`` is always even (pinned by
    ``TestPartitionDP::test_odd_count_shift_is_even`` in
    ``tests/test_stanley.py``), so O(lambda) - O(lambda') is even at every
    step. The state is therefore (weight, number of parts mod 2, (O(lambda)
    - O(lambda')) / 2 mod 2), four lists, and a partition is t-type when the
    last is 0. That costs O(max_n^2) big-integer additions; no partition is
    visited and no series is expanded, so the counts are independent of both
    the brute-force stream and the generating functions.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    size = max_n + 1
    # counts[2 * c + h][w]: partitions of weight w into the parts taken so
    # far, with c parts mod 2 and O(lambda) - O(lambda') = 2h mod 4
    counts = [[0] * size for _ in range(4)]
    counts[0][0] = 1
    for k in range(max_n, 0, -1):
        # one more part k takes state (c, h) to (c ^ 1, h ^ flip)
        moves = []
        for c in (0, 1):
            flip = (_odd_count_shift(k, c) >> 1) & 1
            for h in (0, 1):
                moves.append((counts[2 * c + h], counts[2 * (c ^ 1) + (h ^ flip)]))
        # weights in blocks of k, ascending: each block reads only the block
        # below it, which is already final for this k
        for i in range(k, size, k):
            for src, dst in moves:
                dst[i : i + k] = map(add, dst[i : i + k], src[i - k : i])
    p = [sum(col) for col in zip(*counts)]
    t = [even + odd for even, odd in zip(counts[0], counts[2])]
    return _table_from_counts(max_n, p, t)
