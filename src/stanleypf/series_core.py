"""Exact truncated formal power series in one variable q.

Coefficients are arbitrary-precision Python integers and every operation
is exact: no floats, no rounding, no silent overflow. A series carries no
information beyond its truncation order, so binary operations coerce the
result to the shorter order instead of inventing coefficients.

Constructors are provided for the three shapes of series that dominate
partition-theoretic work: q-Pochhammer products (``expand_product``),
eta-quotients (``eta_quotient``, one ``expand_product`` call), and
bilateral theta sums over a quadratic exponent (``expand_theta``).

``expand_product`` applies each factor by one of three identities, chosen
by the factor's shape. An eta factor (q^a; q^a)^e is Euler's pentagonal
series, sparse, applied |e| times: O(n sqrt(n/a)) to order n. Any other
factor (+/-q^offset; q^step)^e is a q-hypergeometric sum, applied by
Horner's rule: Euler's sum (-x; Q) = sum_n x^n Q^(n(n-1)/2) / (Q; Q)_n when
e > 0, and the Durfee-square form of Cauchy's identity 1/(z; Q) = sum_n
z^n Q^(n^2-n) / ((Q; Q)_n (z; Q)_n) when e < 0, with Q = q^step. That is
about sqrt(2n/step) or 2 sqrt(n/step) binomial divisions per unit of |e|,
O(n) each. A sublattice rule runs every factor at the coarsest grid it
allows: a product of factors on the multiples of g is kept as a series in
q^g, so each of its factors runs at order n/g.

No identity check in ``verify`` becomes tautological under these: no row
compares a product with a q-hypergeometric sum, so no row's two sides
reduce to the sum the kernel uses. Where both sides are products, they
run through different sums. ``proof/euler-odd-distinct`` compares
1/(q; q^2), Cauchy's sum in base q^2, with (-q; q), Euler's sum in base
q; ``proof/neg-one-pochhammer-doubling`` compares Euler's sum at x = 1
with twice the one at x = q^16.

The dense passes run their per-coefficient loops in C. A binomial
division by (1 +/- q^k) of a list of length n takes at most sqrt(n) of
them: one whole-slice ``operator`` map per block of length k when k^2 >= n,
and otherwise one ``itertools.accumulate`` running sum over each of the k
strides c[j::k]. Each row of a Cauchy product (``series_mul``) is one
whole-slice map. They add zero coefficients too, where a Python loop would
skip them; what is left of their cost is big-integer arithmetic.

All values are immutable after construction. A series keeps its
coefficients in ``__slots__`` and refuses assignment with AttributeError;
the specs are named tuples. Every function here is pure.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import accumulate, repeat
from math import gcd, isqrt
from operator import add, mul, sub

#: Dilations may not push a series beyond this order; raising instead of
#: capping keeps identity checks honest.
MAX_DILATION_ORDER = 10_000


class TruncatedSeries:
    """Formal power series sum_k coeffs[k] q^k, exact up to q^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) == 0:
            raise ValueError("a truncated series needs at least its constant term")
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be integers, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @property
    def order(self) -> int:
        """Highest retained exponent."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient of q^{k} not retained (order {self.order})")
        return self.coeffs[k]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return series_add(self, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return series_add(self, -other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(tuple(other * c for c in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return series_mul(self, other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


class ProductSpec(namedtuple("ProductSpec", "factors")):
    """Product of factors prod_{i>=0} (1 + sign*q^(offset + step*i))^exponent.

    Each factor is a tuple (sign, offset, step, exponent). With sign=-1 this
    is the q-Pochhammer symbol (q^offset; q^step)^exponent, with sign=+1 the
    symbol (-q^offset; q^step)^exponent. A factor with sign=+1, offset=0
    starts with the constant (1 + 1) = 2, so (-1; q^m) = 2(-q^m; q^m); with
    sign=-1, offset=0 the product vanishes and the spec is invalid.
    """

    __slots__ = ()

    def __new__(cls, factors: Iterable[Iterable[int]]) -> ProductSpec:
        return super().__new__(cls, tuple(tuple(f) for f in factors))

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


class ThetaSpec(namedtuple("ThetaSpec", "a b c alternating", defaults=(False,))):
    """Bilateral sum over all integers n of (+/-1)^n q^(a n^2 + b n + c).

    a > 0 guarantees only finitely many n contribute below any truncation
    order. With alternating=True the term carries sign (-1)^n.
    """

    __slots__ = ()


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

    The product commutes, so the loop runs over whichever operand has more
    zero coefficients up to that order; the result is the same either way.
    Each nonzero coefficient x of that operand at q^i adds x times the other
    into the result from q^i on, as one slice map: O(n^2) coefficient
    products to order n, with the per-coefficient loop run in C.
    """
    n = min(a.order, b.order)
    ca, cb = a.coeffs[: n + 1], b.coeffs[: n + 1]
    if cb.count(0) > ca.count(0):
        ca, cb = cb, ca
    out = [0] * (n + 1)
    for i in range(n + 1):
        x = ca[i]
        if x:
            out[i:] = map(add, out[i:], map(mul, cb[: n + 1 - i], repeat(x)))
    return TruncatedSeries(tuple(out))


def series_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse r with a * r = 1 up to a.order.

    Requires constant term +1 or -1, the only units with integer-coefficient
    reciprocals. Solved by the direct convolution recurrence, which is exact;
    its inner loop runs over the nonzero coefficients of a only.
    """
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise ValueError(f"series with constant term {a0} is not invertible over the integers")
    n = a.order
    terms = [(j, x) for j, x in enumerate(a.coeffs) if j and x]
    r = [0] * (n + 1)
    r[0] = a0
    for k in range(1, n + 1):
        acc = 0
        for j, x in terms:
            if j > k:
                break
            acc += x * r[k - j]
        r[k] = -a0 * acc
    return TruncatedSeries(tuple(r))


def _div_binomial(c: list[int], k: int, sign: int) -> None:
    # c /= (1 + sign*q^k), in place, in at most sqrt(len(c)) passes.
    # Where k^2 >= len(c), one block of length k at a time: each block reads
    # the block below it, which is already the quotient; the last block may
    # be short. Otherwise one running sum over each of the k strides
    # c[j::k]: the quotient d has d[i] = c[i] - sign*d[i - k], so for
    # 1 - q^k a stride of d is the running sum of c's, and for 1 + q^k it
    # is that of c's stride with alternating signs, signed again.
    n = len(c)
    if k * k >= n:
        op = sub if sign > 0 else add
        for i in range(k, n, k):
            c[i : i + k] = map(op, c[i : i + k], c[i - k : i])
    elif sign < 0:
        for j in range(k):
            c[j::k] = accumulate(c[j::k])
    else:
        signs = (1, -1) * (n // (2 * k) + 1)
        for j in range(k):
            c[j::k] = map(mul, accumulate(map(mul, c[j::k], signs)), signs)


def _horner(c: list[int], sign: int, offset: int, step: int, cauchy: bool) -> None:
    """Multiply c in place by F = prod_k (1 + sign*q^(offset + step*k)) by
    Euler's sum, or with cauchy=True divide it by F by Cauchy's; Q = q^step.

    Euler:  F = (-x; Q) = sum_n x^n Q^(n(n-1)/2) / (Q; Q)_n,           x = sign*q^offset
    Cauchy: 1/F = 1/(z; Q) = sum_n z^n Q^(n^2-n) / ((Q; Q)_n (z; Q)_n),  z = -sign*q^offset

    Term n is term n - 1 times +/-q^shift_n / d_n, with the sign of x or
    z, shift_n = offset + step(n-1) (Euler) or offset + 2 step(n-1)
    (Cauchy), and d_n = 1 - Q^n, times 1 - z Q^(n-1) for Cauchy. Horner's
    rule runs from the last term M down: R_M = c, R_(n-1) = c +/- q^shift_n
    R_n / d_n, and R_0 is the result. R_n reaches R_0 only from q^(shift_1
    + ... + shift_n) on, so it is kept only to the order less that sum,
    and M is the last n for which that sum is within the order.
    """
    shifts = []
    reach = len(c) - 1
    shift = offset
    while shift <= reach:
        shifts.append(shift)
        reach -= shift
        shift += 2 * step if cauchy else step
    op = add if (sign > 0) != cauchy else sub
    r = c[: reach + 1]
    for n in range(len(shifts), 0, -1):
        _div_binomial(r, step * n, -1)
        if cauchy:
            _div_binomial(r, offset + step * (n - 1), sign)
        shift = shifts[n - 1]
        reach += shift
        below = c[: reach + 1]
        below[shift:] = map(op, below[shift:], r)
        r = below
    c[:] = r


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

    Each factor, prod_k (1 + sign*q^(offset + step*k)) to the power e, is
    applied |e| times to one running coefficient list, by one of three
    identities:

    * an eta factor, sign -1 with offset == step, by Euler's pentagonal
      number theorem: (q^a; q^a) has O(sqrt(order/a)) terms, multiplied in
      or divided out as one sparse series, O(order sqrt(order/a));
    * any other factor with e > 0 by Euler's sum (-x; Q) = sum_n x^n
      Q^(n(n-1)/2) / (Q; Q)_n, x = sign*q^offset, Q = q^step: about
      sqrt(2 order/step) binomial divisions (``_horner``); the
      offset-0 factor (-1; Q) is the sum at x = 1 and contributes its 2;
    * any other factor with e < 0 by the Durfee-square form of Cauchy's
      identity, 1/(z; Q) = sum_n z^n Q^(n^2-n) / ((Q; Q)_n (z; Q)_n), z =
      -sign*q^offset: about 2 sqrt(order/step) divisions.

    Every division is by a binomial with constant term 1, so all of it
    stays in integer arithmetic. A factor whose exponent is 0 or whose
    first term lies above the order is the unit and is skipped.

    Sublattice rule: a factor lives on the multiples of g = gcd(offset,
    step). Factors run largest g first, on a list that holds only the
    coefficients at multiples of the running grid, so (q^4; q^4)^-5 runs
    at order order/4. The grid is refined to gcd(grid, g) only when a
    factor needs it, by spreading the list out, and the list is dilated to
    the full order once at the end. Exact arithmetic makes the result
    independent of the order the factors run in.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    spec.validate()
    factors = sorted(
        (f for f in spec.factors if f[3] and f[1] <= order), key=lambda f: gcd(f[1], f[2]), reverse=True
    )
    grid = gcd(factors[0][1], factors[0][2]) if factors else 1
    c = [0] * (order // grid + 1)
    c[0] = 1
    for sign, offset, step, exponent in factors:
        fine = gcd(grid, offset, step)
        if fine != grid:
            finer = [0] * (order // fine + 1)
            finer[:: grid // fine] = c
            c, grid = finer, fine
        offset //= grid
        step //= grid
        if sign == -1 and offset == step:
            terms = _pentagonal_terms(step, len(c) - 1)
            apply_sparse = _mul_sparse if exponent > 0 else _div_sparse
            for _ in range(abs(exponent)):
                apply_sparse(c, terms)
        else:
            for _ in range(abs(exponent)):
                _horner(c, sign, offset, step, exponent < 0)
    out = [0] * (order + 1)
    out[::grid] = c
    return TruncatedSeries(out)


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
