"""Exact truncated formal power series in one variable q.

Coefficients are arbitrary-precision Python integers and every operation
is exact: no floats, no rounding, no silent overflow. A series carries no
information beyond its truncation order, so binary operations coerce the
result to the shorter order instead of inventing coefficients.

Constructors are provided for the three shapes of series that dominate
partition-theoretic work: q-Pochhammer products (``expand_product``),
eta-quotients (``eta_quotient``, one ``expand_product`` call), and
bilateral theta sums over a quadratic exponent (``expand_theta``).

``expand_product`` has two paths, chosen by each factor's shape. An eta
factor (q^a; q^a)^e is applied as its sparse pentagonal series |e| times,
O(n sqrt(n/a)) to order n. Every other factor (q^offset; q^step)^e is
applied one binomial at a time, O(n^2/step) for each unit of |e|.

The dense passes, each binomial and each row of a Cauchy product
(``series_mul``), run as whole-slice ``operator`` maps, so their
per-coefficient loops run in C. They add zero coefficients too, where a
Python loop would skip them; what is left of their cost is big-integer
arithmetic.

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import isqrt
from operator import add, mul, sub
from typing import Iterable

#: Dilations may not push a series beyond this order; raising instead of
#: capping keeps identity checks honest.
MAX_DILATION_ORDER = 10_000


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series sum_k coeffs[k] q^k, exact up to q^order."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("a truncated series needs at least its constant term")
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be integers, got {type(c).__name__}")

    @property
    def order(self) -> int:
        """Highest retained exponent."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient of q^{k} not retained (order {self.order})")
        return self.coeffs[k]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_add(self, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_add(self, -other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(tuple(other * c for c in self.coeffs))
        return series_mul(self, other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


@dataclass(frozen=True)
class ProductSpec:
    """Product of factors prod_{i>=0} (1 + sign*q^(offset + step*i))^exponent.

    Each factor is a tuple (sign, offset, step, exponent). With sign=-1 this
    is the q-Pochhammer symbol (q^offset; q^step)^exponent, with sign=+1 the
    symbol (-q^offset; q^step)^exponent. A factor with sign=+1, offset=0
    starts with the constant (1 + 1) = 2, so (-1; q^m) = 2(-q^m; q^m); with
    sign=-1, offset=0 the product vanishes and the spec is invalid.
    """

    factors: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))

    def validate(self) -> None:
        for f in self.factors:
            if len(f) != 4:
                raise ValueError(f"factor {f!r} is not (sign, offset, step, exponent)")
            sign, offset, step, exponent = f
            if sign not in (1, -1):
                raise ValueError(f"factor sign must be +1 or -1, got {sign}")
            if offset < 0:
                raise ValueError(f"factor offset must be nonnegative, got {offset}")
            if step < 1:
                raise ValueError(f"factor step must be positive, got {step}")
            if offset == 0:
                if sign == -1:
                    raise ValueError("factor (1 - q^0) vanishes; spec is invalid")
                if exponent < 0:
                    raise ValueError(
                        "negative exponent on a factor with constant term 2 "
                        "has no integer-coefficient reciprocal"
                    )


@dataclass(frozen=True)
class ThetaSpec:
    """Bilateral sum over all integers n of (+/-1)^n q^(a n^2 + b n + c).

    a > 0 guarantees only finitely many n contribute below any truncation
    order. With alternating=True the term carries sign (-1)^n.
    """

    a: int
    b: int
    c: int
    alternating: bool = False


def series_monomial(coef: int, exp: int, order: int) -> TruncatedSeries:
    """The series coef * q^exp, truncated at the given order."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if not 0 <= exp <= order:
        raise ValueError(f"monomial q^{exp} is not representable at order {order}")
    coeffs = [0] * (order + 1)
    coeffs[exp] = coef
    return TruncatedSeries(tuple(coeffs))


def series_one(order: int) -> TruncatedSeries:
    """The unit series 1."""
    return series_monomial(1, 0, order)


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum, coerced to the shorter order."""
    n = min(a.order, b.order)
    return TruncatedSeries(tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1)))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the shorter order.

    Each nonzero coefficient x of a at q^i adds x times b into the result
    from q^i on, as one slice map: O(n^2) coefficient products to order n,
    with the per-coefficient loop run in C.
    """
    n = min(a.order, b.order)
    ca, cb = a.coeffs, b.coeffs
    out = [0] * (n + 1)
    for i in range(n + 1):
        x = ca[i]
        if x:
            out[i:] = map(add, out[i:], map(mul, cb[: n + 1 - i], repeat(x)))
    return TruncatedSeries(tuple(out))


def series_truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    """Drop coefficients above the given order (which must not exceed a.order)."""
    if not 0 <= order <= a.order:
        raise ValueError(f"cannot truncate order-{a.order} series to order {order}")
    return TruncatedSeries(a.coeffs[: order + 1])


def series_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse r with a * r = 1 up to a.order.

    Requires constant term +1 or -1, the only units with integer-coefficient
    reciprocals. Solved by the direct convolution recurrence, which is exact.
    """
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise ValueError(f"series with constant term {a0} is not invertible over the integers")
    n = a.order
    ca = a.coeffs
    r = [0] * (n + 1)
    r[0] = a0
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, k + 1):
            if ca[j]:
                acc += ca[j] * r[k - j]
        r[k] = -a0 * acc
    return TruncatedSeries(tuple(r))


def _mul_binomial(c: list[int], k: int, sign: int) -> None:
    # c *= (1 + sign*q^k), in place; both slices are read before the
    # assignment, so every c[i-k] is the old value
    c[k:] = map(add if sign > 0 else sub, c[k:], c[: len(c) - k])


def _div_binomial(c: list[int], k: int, sign: int) -> None:
    # c /= (1 + sign*q^k), in place, one block of length k at a time: each
    # block reads the block below it, which is already the quotient; the
    # last block may be short
    op = sub if sign > 0 else add
    for i in range(k, len(c), k):
        c[i : i + k] = map(op, c[i : i + k], c[i - k : i])


def _pentagonal_terms(step: int, order: int) -> list[tuple[int, int]]:
    """(q^step; q^step) - 1 as ascending (exponent, sign) pairs up to order.

    Euler's pentagonal number theorem: (q; q) = sum over all integers k of
    (-1)^k q^(k(3k-1)/2), so k and -k share the sign (-1)^k and give the
    exponents k(3k-1)/2 and k(3k+1)/2.
    """
    terms = []
    k = 1
    while step * k * (3 * k - 1) // 2 <= order:
        sign = -1 if k & 1 else 1
        for e in (step * k * (3 * k - 1) // 2, step * k * (3 * k + 1) // 2):
            if e <= order:
                terms.append((e, sign))
        k += 1
    return terms


def _mul_sparse(c: list[int], terms: list[tuple[int, int]]) -> None:
    # c *= (1 + sum sign*q^k), in place; every term reads the unmultiplied c
    old = c[:]
    n = len(c)
    for k, sign in terms:
        c[k:] = map(add if sign > 0 else sub, c[k:], old[: n - k])


def _div_sparse(c: list[int], terms: list[tuple[int, int]]) -> None:
    # c /= (1 + sum sign*q^k), in place; ascending so every c[i-k] is already the quotient
    for i in range(1, len(c)):
        acc = c[i]
        for k, sign in terms:
            if k > i:
                break
            if sign > 0:
                acc -= c[i - k]
            else:
                acc += c[i - k]
        c[i] = acc


def expand_product(spec: ProductSpec, order: int) -> TruncatedSeries:
    """Expand a q-Pochhammer product exactly to the given order.

    An eta factor, sign -1 with offset == step, is (q^a; q^a)^e with a =
    step. It is applied as the sparse series of (q^a; q^a), which has
    O(sqrt(order/a)) terms by Euler's pentagonal number theorem, |e| times:
    O(order sqrt(order/a)) per unit of |e|. Every other factor is applied
    one binomial (1 + sign*q^k) at a time, O(order) each, so O(order^2/step)
    per unit of |e|. A binomial multiplies in as one slice map over the
    list and divides out as about order/k slice maps of length k, each
    reading the block below it. Binomials and terms whose exponent exceeds
    the order contribute nothing and are skipped. Negative factor exponents
    divide instead of multiplying, which stays in integer arithmetic
    because every admissible factor has constant term 1. The offset-0
    factor (-1; q^step) contributes the constant 2.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    spec.validate()
    c = [0] * (order + 1)
    c[0] = 1
    for sign, offset, step, exponent in spec.factors:
        if exponent == 0:
            continue
        if sign == -1 and offset == step:
            terms = _pentagonal_terms(step, order)
            apply_sparse = _mul_sparse if exponent > 0 else _div_sparse
            for _ in range(abs(exponent)):
                apply_sparse(c, terms)
            continue
        start = offset
        if offset == 0:
            # (1 + q^0)^e = 2^e; the rest of the factor starts at q^step
            scale = 2 ** exponent
            for i in range(order + 1):
                c[i] *= scale
            start = step
        apply = _mul_binomial if exponent > 0 else _div_binomial
        for k in range(start, order + 1, step):
            for _ in range(abs(exponent)):
                apply(c, k, sign)
    return TruncatedSeries(tuple(c))


def expand_theta(spec: ThetaSpec, order: int) -> TruncatedSeries:
    """Expand a bilateral theta sum exactly to the given order.

    Iterates n over the closed interval of integer roots of
    a n^2 + b n + c <= order, widened by one on each side, so no
    contributing term can be missed.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if spec.a <= 0:
        raise ValueError(f"theta quadratic coefficient must be positive, got {spec.a}")
    coeffs = [0] * (order + 1)
    disc = spec.b * spec.b - 4 * spec.a * (spec.c - order)
    if disc >= 0:
        r = isqrt(disc) + 1
        lo = (-spec.b - r) // (2 * spec.a) - 1
        hi = (-spec.b + r) // (2 * spec.a) + 1
        for n in range(lo, hi + 1):
            e = (spec.a * n + spec.b) * n + spec.c
            if e < 0:
                raise ValueError(f"theta exponent {e} at n={n} is negative; Laurent series are unsupported")
            if e <= order:
                coeffs[e] += -1 if (spec.alternating and n & 1) else 1
    return TruncatedSeries(tuple(coeffs))


def series_dilate(a: TruncatedSeries, m: int) -> TruncatedSeries:
    """Substitute q -> q^m; the result has order a.order * m.

    A dilation that would exceed MAX_DILATION_ORDER raises rather than silently
    capping, since a capped result would corrupt identity checks.
    """
    if m < 1:
        raise ValueError(f"dilation factor must be positive, got {m}")
    if a.order * m > MAX_DILATION_ORDER:
        raise ValueError(f"dilation to order {a.order * m} exceeds the configured maximum {MAX_DILATION_ORDER}")
    out = [0] * (a.order * m + 1)
    for k, c in enumerate(a.coeffs):
        out[k * m] = c
    return TruncatedSeries(tuple(out))


def extract_progression(a: TruncatedSeries, r: int, m: int) -> TruncatedSeries:
    """Keep the coefficients along the arithmetic progression r, r+m, r+2m, ...

    Coefficient n of the result is a.coeffs[m*n + r]; the result order is
    floor((a.order - r) / m).
    """
    if m < 1:
        raise ValueError(f"progression modulus must be positive, got {m}")
    if not 0 <= r < m:
        raise ValueError(f"residue {r} must satisfy 0 <= r < {m}")
    if a.order < r:
        raise ValueError(f"series of order {a.order} has no coefficient at q^{r}")
    return TruncatedSeries(tuple(a.coeffs[r :: m]))


def eta_quotient(terms: Iterable[tuple[int, int]], order: int) -> TruncatedSeries:
    """Expand prod (q^scale; q^scale)^exponent for (scale, exponent) terms.

    Each term is the expand_product factor (-1, scale, scale, exponent), an
    eta factor, so the quotient is built in place on one coefficient list
    from sparse pentagonal series.
    """
    return expand_product(ProductSpec(tuple((-1, a, a, e) for a, e in terms)), order)
