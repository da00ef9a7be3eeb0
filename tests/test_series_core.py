import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stanleypf.series_core import (
    MAX_DILATION_ORDER,
    ProductSpec,
    ThetaSpec,
    TruncatedSeries,
    _div_binomial,
    eta_quotient,
    expand_product,
    expand_theta,
    extract_progression,
    series_add,
    series_dilate,
    series_monomial,
    series_mul,
    series_one,
    series_reciprocal,
)

QQ = ProductSpec(((-1, 1, 1, 1),))  # (q; q)


def series(*coeffs):
    return TruncatedSeries(tuple(coeffs))


coefficients = st.integers(min_value=-10**6, max_value=10**6)
small_series = st.lists(coefficients, min_size=1, max_size=65).map(
    lambda cs: TruncatedSeries(tuple(cs))
)
unit_series = st.tuples(
    st.sampled_from((1, -1)), st.lists(coefficients, min_size=0, max_size=48)
).map(lambda t: TruncatedSeries((t[0],) + tuple(t[1])))


class TestConstructors:
    def test_monomial(self):
        assert series_monomial(2, 2, 4).coeffs == (0, 0, 2, 0, 0)
        assert series_monomial(1, 0, 2).coeffs == (1, 0, 0)
        assert series_monomial(-1, 3, 3).coeffs == (0, 0, 0, -1)

    def test_monomial_beyond_order(self):
        with pytest.raises(ValueError, match="not representable"):
            series_monomial(1, 5, 4)

    def test_rejects_empty_and_non_integer(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())
        with pytest.raises(TypeError):
            TruncatedSeries((1.5, 2))

    def test_order_and_indexing(self):
        s = series(5, 6, 7)
        assert s.order == 2
        assert s[1] == 6
        with pytest.raises(IndexError):
            s[3]


class TestArithmetic:
    def test_add(self):
        assert series_add(series(1, 1), series(0, -1)).coeffs == (1, 0)

    def test_add_coerces_to_shorter_order(self):
        assert series_add(series(1, 2, 3), series(1, 1)).coeffs == (2, 3)

    def test_mul(self):
        assert series_mul(series(1, 1, 0), series(1, -1, 0)).coeffs == (1, 0, -1)

    def test_mul_unit(self):
        s = series(3, -2, 5, 0, 1)
        assert series_mul(s, series_monomial(1, 0, 4)) == s

    def test_product_times_reciprocal_is_unit(self):
        a = expand_product(QQ, 4)
        assert series_mul(series_reciprocal(a), a).coeffs == (1, 0, 0, 0, 0)

    def test_scalar_multiplication(self):
        assert (2 * series(1, -3)).coeffs == (2, -6)


class TestReciprocal:
    def test_of_one(self):
        assert series_reciprocal(series(1, 0, 0)).coeffs == (1, 0, 0)

    def test_partition_numbers(self):
        # 1/(q; q) counts partitions
        got = series_reciprocal(expand_product(QQ, 6))
        assert got.coeffs == (1, 1, 2, 3, 5, 7, 11)

    def test_convolution_recurrence(self):
        assert series_reciprocal(series(1, 2, 0, 0)).coeffs == (1, -2, 4, -8)

    def test_negative_unit_constant(self):
        s = series(-1, 1, 1)
        assert series_mul(s, series_reciprocal(s)).coeffs == (1, 0, 0)

    def test_non_unit_constant_rejected(self):
        with pytest.raises(ValueError, match="not invertible"):
            series_reciprocal(series(2, 1))


class TestExpandProduct:
    def test_euler_pentagonal_prefix(self):
        assert expand_product(QQ, 5).coeffs == (1, -1, -1, 0, 0, 1)

    def test_offset_zero_doubles(self):
        # (-1; q^16) = 2 (-q^16; q^16)
        got = expand_product(ProductSpec(((1, 0, 16, 1),)), 16)
        assert got.coeffs == (2,) + (0,) * 15 + (2,)

    def test_odd_pochhammer(self):
        got = expand_product(ProductSpec(((1, 1, 2, 1),)), 4)
        assert got.coeffs == (1, 1, 0, 1, 1)

    def test_negative_exponent_inverts(self):
        spec = ProductSpec(((-1, 1, 1, 1), (-1, 1, 1, -1)))
        assert expand_product(spec, 8).coeffs == (1,) + (0,) * 8

    def test_vanishing_factor_rejected(self):
        with pytest.raises(ValueError, match="vanishes"):
            expand_product(ProductSpec(((-1, 0, 1, 1),)), 4)

    def test_negative_exponent_on_doubling_factor_rejected(self):
        with pytest.raises(ValueError, match="reciprocal"):
            expand_product(ProductSpec(((1, 0, 4, -1),)), 4)

    def test_bad_sign_and_step(self):
        with pytest.raises(ValueError):
            expand_product(ProductSpec(((2, 1, 1, 1),)), 4)
        with pytest.raises(ValueError):
            expand_product(ProductSpec(((-1, 1, 0, 1),)), 4)

    def test_factor_beyond_order_is_skipped(self):
        assert expand_product(ProductSpec(((-1, 9, 1, 1),)), 5).coeffs == (1,) + (0,) * 5


class TestExpandTheta:
    def test_even_squares(self):
        got = expand_theta(ThetaSpec(2, 0, 0), 8)
        assert got.coeffs == (1, 0, 2, 0, 0, 0, 0, 0, 2)

    def test_even_squares_alternating(self):
        got = expand_theta(ThetaSpec(2, 0, 0, alternating=True), 8)
        assert got.coeffs == (1, 0, -2, 0, 0, 0, 0, 0, 2)

    def test_two_terms_at_constant(self):
        # 8n^2 + 8n vanishes at both n = 0 and n = -1
        assert expand_theta(ThetaSpec(8, 8, 0), 0).coeffs == (2,)

    def test_empty_sum(self):
        assert expand_theta(ThetaSpec(1, 0, 50), 8).coeffs == (0,) * 9

    def test_requires_positive_quadratic_coefficient(self):
        with pytest.raises(ValueError):
            expand_theta(ThetaSpec(0, 1, 0), 4)

    def test_laurent_exponent_rejected(self):
        with pytest.raises(ValueError, match="Laurent"):
            expand_theta(ThetaSpec(1, -3, 0), 4)


class TestDilateExtract:
    def test_dilate_identity(self):
        assert series_dilate(series(1, 2, 3), 1).coeffs == (1, 2, 3)

    def test_dilate(self):
        assert series_dilate(series(1, 2), 4).coeffs == (1, 0, 0, 0, 2)

    def test_dilate_overflow_is_an_error(self):
        with pytest.raises(ValueError, match="exceeds"):
            series_dilate(TruncatedSeries((0,) * (MAX_DILATION_ORDER // 2 + 2)), 2)

    def test_extract_identity(self):
        assert extract_progression(series(5, 6, 7, 8, 9), 0, 1).coeffs == (5, 6, 7, 8, 9)

    def test_extract_residue(self):
        s = series(10, 11, 12, 13, 14, 15, 16)
        assert extract_progression(s, 2, 4).coeffs == (12, 16)

    def test_extract_bad_residue(self):
        with pytest.raises(ValueError):
            extract_progression(series(1, 2, 3), 4, 4)
        with pytest.raises(ValueError):
            extract_progression(series(1, 2), 2, 4)


class TestEtaQuotient:
    def test_partition_generating_function(self):
        assert eta_quotient([(1, -1)], 4).coeffs == (1, 1, 2, 3, 5)

    def test_plain_eta(self):
        assert eta_quotient([(1, 1)], 2).coeffs == (1, -1, -1)

    def test_t_closed_form_shape(self):
        # matches exhaustive classification counts for n <= 6
        got = eta_quotient([(2, 2), (16, 5), (1, -1), (4, -5), (32, -2)], 6)
        assert got.coeffs == (1, 1, 0, 1, 5, 5, 1)

    def test_partition_counts_by_enumeration(self):
        from stanleypf.partitions import partitions_of

        got = eta_quotient([(1, -1)], 40)
        counts = tuple(sum(1 for _ in partitions_of(n)) for n in range(41))
        assert got.coeffs == counts


def _eta_by_composition(terms, order):
    # reference construction: expand each (q^a; q^a)^|e| on its own,
    # invert it when e < 0, and fold it in with a Cauchy product
    result = series_one(order)
    for scale, exponent in terms:
        base = expand_product(ProductSpec(((-1, scale, scale, abs(exponent)),)), order)
        if exponent < 0:
            base = series_reciprocal(base)
        result = series_mul(result, base)
    return result


eta_terms = st.lists(
    st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=-3, max_value=3)),
    max_size=4,
)


class TestEtaQuotientFold:
    """eta_quotient's in-place product equals the reciprocal-and-multiply chain."""

    @pytest.mark.parametrize("name", ("_T_ETA_TERMS", "_U_ETA_TERMS", "_V_ETA_TERMS"))
    def test_paper_quotients(self, name):
        from stanleypf import stanley

        terms = getattr(stanley, name)
        assert eta_quotient(terms, 300) == _eta_by_composition(terms, 300)

    @given(eta_terms, st.integers(min_value=0, max_value=60))
    @settings(max_examples=100)
    def test_drawn_quotients(self, terms, order):
        assert eta_quotient(terms, order) == _eta_by_composition(terms, order)


def _dense_product(factors, order):
    # the product kernel without its identities or its grid: every factor,
    # eta factors included, applied one binomial (1 + sign*q^k) at a time
    # at the full order
    c = [0] * (order + 1)
    c[0] = 1
    for sign, offset, step, exponent in factors:
        if exponent == 0:
            continue
        if offset == 0:
            c = [x * 2**exponent for x in c]
        for k in range(offset or step, order + 1, step):
            for _ in range(abs(exponent)):
                if exponent > 0:
                    for i in range(order, k - 1, -1):
                        c[i] += sign * c[i - k]
                else:
                    for i in range(k, order + 1):
                        c[i] -= sign * c[i - k]
    return tuple(c)


eta_factors = st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=-6, max_value=6)).map(
    lambda t: (-1, t[0], t[0], t[1])
)
other_factors = st.one_of(
    st.tuples(
        st.sampled_from((1, -1)),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=-2, max_value=2),
    ),
    st.tuples(st.just(1), st.just(0), st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2)),
)


class TestSparseEtaPath:
    """expand_product's sparse pentagonal eta factors equal the dense
    binomial passes they replace."""

    @given(
        st.lists(st.one_of(eta_factors, other_factors), max_size=4),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawn_products(self, factors, order):
        assert expand_product(ProductSpec(tuple(factors)), order).coeffs == _dense_product(factors, order)

    @pytest.mark.parametrize("scale", (1, 3, 40))
    @pytest.mark.parametrize("exponent", (-6, -1, 1, 6))
    def test_order_below_scale(self, scale, exponent):
        # no term of (q^a; q^a) lies below q^a, so the factor is the unit
        order = scale - 1
        got = expand_product(ProductSpec(((-1, scale, scale, exponent),)), order)
        assert got.coeffs == (1,) + (0,) * order == _dense_product(((-1, scale, scale, exponent),), order)

    @pytest.mark.parametrize("scale", (1, 2, 7))
    @pytest.mark.parametrize("k", (1, -1, 2, -2, 5, -5))
    @pytest.mark.parametrize("exponent", (-2, 1, 3))
    def test_order_on_a_generalized_pentagonal_number(self, scale, k, exponent):
        # the last retained term is exactly one of (q^a; q^a)'s own
        order = scale * k * (3 * k - 1) // 2
        factors = ((-1, scale, scale, exponent), (1, 1, 2, 1))
        assert expand_product(ProductSpec(factors), order).coeffs == _dense_product(factors, order)

    @pytest.mark.parametrize("scale", (1, 4))
    def test_zero_exponent_is_the_unit(self, scale):
        spec = ProductSpec(((-1, scale, scale, 0), (1, 2, 4, 0)))
        assert expand_product(spec, 30).coeffs == (1,) + (0,) * 30


def _div_per_element(c, k, sign):
    # c / (1 + sign*q^k), one coefficient at a time
    c = list(c)
    for i in range(k, len(c)):
        c[i] -= sign * c[i - k]
    return c


class TestBinomialPasses:
    """_div_binomial, the one binomial pass left in the kernel, equals the
    per-element loop of _dense_product at the edges of its blocks and of its
    strides, and on either side of the cut-off k^2 = len between the two."""

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("times", (1, 3))
    @pytest.mark.parametrize("k", (1, 2, 3))
    @pytest.mark.parametrize("blocks", (1, 2, 5))
    @pytest.mark.parametrize("below", (0, 1))
    def test_one_binomial(self, sign, times, k, blocks, below):
        # 1/(q; q), whose every coefficient is nonzero, divided by (1 +
        # sign*q^k)^times. Order blocks*k ends the division on a block of
        # length 1; order blocks*k - 1 ends it on a full block, and with one
        # block k lies above the order and nothing is divided.
        order = blocks * k - below
        c = list(expand_product(ProductSpec(((-1, 1, 1, -1),)), order).coeffs)
        for _ in range(times):
            _div_binomial(c, k, sign)
        # a factor whose step lies above the order is the one binomial
        assert tuple(c) == _dense_product(((-1, 1, 1, -1), (sign, k, order + 1, -times)), order)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("k", (2, 3, 4, 7))
    @pytest.mark.parametrize("past", (-1, 0, 1))
    def test_either_side_of_the_cut_off(self, sign, k, past):
        # len = k^2 - 1 runs k strides; k^2 and k^2 + 1 run blocks
        c = list(expand_product(ProductSpec(((-1, 1, 1, -1),)), k * k + past - 1).coeffs)
        expected = _div_per_element(c, k, sign)
        _div_binomial(c, k, sign)
        assert c == expected

    @given(
        st.lists(coefficients, min_size=1, max_size=120),
        st.integers(min_value=1, max_value=15),
        st.sampled_from((1, -1)),
    )
    @settings(max_examples=300)
    def test_random_lists(self, c, k, sign):
        expected = _div_per_element(c, k, sign)
        _div_binomial(c, k, sign)
        assert c == expected


class TestHornerSums:
    """expand_product's Euler and Cauchy sums and its sublattice rule equal
    the dense binomial passes of _dense_product, at the edges of Horner's
    rule and of the grid."""

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("exponent", (-2, -1, 1, 2))
    @pytest.mark.parametrize("offset, step", ((1, 2), (2, 1), (2, 3), (3, 2), (5, 1)))
    @pytest.mark.parametrize("terms", (1, 2, 4))
    @pytest.mark.parametrize("below", (0, 1))
    def test_order_on_the_last_term(self, sign, exponent, offset, step, terms, below):
        # term M of Euler's sum (e > 0) starts at q^(a M + b M(M-1)/2) and
        # term M of Cauchy's (e < 0) at q^(a M + b M(M-1)): at that order
        # the term is the last one read, one below it the one before is.
        # 1/(q; q) runs first on the same grid, so no coefficient is zero.
        last = offset * terms + step * terms * (terms - 1) // (2 if exponent > 0 else 1)
        order = last - below
        factors = ((-1, 1, 1, -1), (sign, offset, step, exponent))
        assert expand_product(ProductSpec(factors), order).coeffs == _dense_product(factors, order)

    @pytest.mark.parametrize("factors", (
        # steps 6 and 4: grid 6, refined to 2
        ((-1, 6, 6, -2), (1, 2, 4, 1)),
        ((1, 6, 12, 1), (-1, 4, 4, -1), (1, 2, 4, -2)),
        # steps 3 and 4: grid 4, refined to 1
        ((1, 3, 3, 1), (-1, 4, 4, -1)),
        ((-1, 3, 6, -1), (1, 4, 8, 2)),
        # offset-0 factors on a lattice: grid 6 refined to 2, grid 5 kept
        ((1, 0, 6, 2), (-1, 4, 4, -1), (1, 2, 4, 1)),
        ((1, 0, 5, 1), (1, 5, 10, -1), (-1, 5, 5, 1)),
    ))
    @pytest.mark.parametrize("order", (0, 1, 5, 24, 61))
    def test_lattices(self, factors, order):
        assert expand_product(ProductSpec(factors), order).coeffs == _dense_product(factors, order)

    @pytest.mark.parametrize("factors", (
        ((-1, 8, 8, -3),),
        ((1, 0, 12, 2), (-1, 8, 8, 1)),
        ((1, 9, 18, -2), (1, 0, 9, 1)),
    ))
    @pytest.mark.parametrize("order", (0, 1, 5))
    def test_grid_above_the_order(self, factors, order):
        # one coefficient on the grid: the constant term, 1 or a power of 2
        assert expand_product(ProductSpec(factors), order).coeffs == _dense_product(factors, order)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("exponent", (-3, 3))
    @pytest.mark.parametrize("offset, step", ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)))
    @pytest.mark.parametrize("order", (0, 1, 2, 12, 13, 40))
    def test_whole_factor(self, sign, exponent, offset, step, order):
        # at sign -1, (1, 1) and (2, 2) are eta factors and take the sparse
        # path; every other factor takes Euler's or Cauchy's sum, (2, 2) on
        # the grid of even exponents until (-q; q^3)^2 refines it
        factors = ((1, 1, 3, 2), (sign, offset, step, exponent))
        assert expand_product(ProductSpec(factors), order).coeffs == _dense_product(factors, order)

    @pytest.mark.parametrize("step", (1, 2, 5))
    @pytest.mark.parametrize("doubling", (1, 2))
    @pytest.mark.parametrize("sign", (1, -1))
    def test_constant_two_factor(self, step, doubling, sign):
        # (-1; q^m)^e is Euler's sum at x = 1, whose terms n = 0 and 1 both
        # start at q^0 and give the constant 2^e
        factors = ((1, 0, step, doubling), (sign, 2, 3, -3))
        assert expand_product(ProductSpec(factors), 30).coeffs == _dense_product(factors, 30)


def _cauchy_product(a, b):
    # naive double loop over every pair of coefficients, zeros included
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


# runs of zeros between runs of coefficients that reach past 2**64
wide_runs = st.lists(
    st.one_of(
        st.lists(st.just(0), min_size=1, max_size=12),
        st.lists(st.integers(min_value=-(2**100), max_value=2**100), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=10,
).map(lambda runs: TruncatedSeries(tuple(c for run in runs for c in run)))


class TestCauchyProduct:
    """series_mul equals a naive double loop. The ring laws alone would
    pass a wrong kernel that is still symmetric."""

    @given(wide_runs, wide_runs)
    @example(series(7), series(-3, 1, 2))  # order 0
    @example(series(0, 5), series(2**70))
    @settings(max_examples=200)
    def test_drawn_pairs(self, a, b):
        assert series_mul(a, b).coeffs == _cauchy_product(a.coeffs, b.coeffs)


class TestRingLaws:
    @given(small_series, small_series)
    @settings(max_examples=100)
    def test_add_commutes(self, a, b):
        assert series_add(a, b) == series_add(b, a)

    @given(small_series, small_series)
    @settings(max_examples=100)
    def test_mul_commutes(self, a, b):
        assert series_mul(a, b) == series_mul(b, a)

    @given(small_series, small_series, small_series)
    @settings(max_examples=100)
    def test_add_associates(self, a, b, c):
        assert series_add(series_add(a, b), c) == series_add(a, series_add(b, c))

    @given(small_series, small_series, small_series)
    @settings(max_examples=100)
    def test_mul_associates(self, a, b, c):
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))

    @given(small_series, small_series, small_series)
    @settings(max_examples=100)
    def test_mul_distributes(self, a, b, c):
        lhs = series_mul(a, series_add(b, c))
        rhs = series_add(series_mul(a, b), series_mul(a, c))
        assert lhs == rhs

    @given(unit_series)
    @settings(max_examples=100)
    def test_reciprocal_roundtrip(self, a):
        assert series_mul(a, series_reciprocal(a)) == series_one(a.order)

    @given(small_series, small_series, st.integers(min_value=0, max_value=64))
    @settings(max_examples=100)
    def test_truncation_consistency(self, a, b, n):
        m = min(a.order, b.order)
        k = min(n, m)
        wide = series_mul(a, b)
        narrow = series_mul(TruncatedSeries(a.coeffs[: k + 1]), TruncatedSeries(b.coeffs[: k + 1]))
        assert wide.coeffs[: k + 1] == narrow.coeffs


@pytest.mark.parametrize("k", range(0, 4))
@pytest.mark.parametrize("sign", (1, -1))
def test_theta_matches_triple_product(k, sign):
    """Bilateral quadratic sums agree with their triple-product form."""
    m = 2 * k + 2
    lhs = expand_theta(ThetaSpec(m, k, 0, alternating=(sign == -1)), 60)
    rhs = expand_product(
        ProductSpec(((sign, 3 * k + 2, 2 * m, 1), (sign, k + 2, 2 * m, 1), (-1, 2 * m, 2 * m, 1))),
        60,
    )
    assert lhs == rhs
