"""The contracts that callers rely on from the package's record types.

The records are immutable values: a series cannot be reassigned, equal
series hash equal, and the constructors coerce and validate their input.
"""

import pytest

from stanleypf.series_core import ProductSpec, ThetaSpec, TruncatedSeries
from stanleypf.verify import VerificationReport


class TestTruncatedSeries:
    def test_coefficients_cannot_be_reassigned(self):
        s = TruncatedSeries((1, 2, 3))
        with pytest.raises(AttributeError):
            s.coeffs = (4, 5, 6)
        assert s.coeffs == (1, 2, 3)

    def test_equal_series_hash_equal(self):
        a, b = TruncatedSeries((1, -2, 3)), TruncatedSeries([1, -2, 3])
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, TruncatedSeries((1, -2, 4))}) == 2

    def test_not_equal_to_its_coefficient_tuple(self):
        s = TruncatedSeries((1, 2, 3))
        assert s != (1, 2, 3)
        assert (1, 2, 3) != s

    def test_list_input_comes_out_as_a_tuple(self):
        assert TruncatedSeries([1, 0, -1]).coeffs == (1, 0, -1)
        assert type(TruncatedSeries(x for x in (1, 2)).coeffs) is tuple

    @pytest.mark.parametrize(
        "op",
        [
            lambda s: s * 2.0,
            lambda s: 2.0 * s,
            lambda s: s + 1,
            lambda s: 1 + s,
            lambda s: s - 1,
            lambda s: 1 - s,
            lambda s: s * (1, 2),
        ],
        ids=["s*2.0", "2.0*s", "s+1", "1+s", "s-1", "1-s", "s*tuple"],
    )
    def test_arithmetic_with_a_non_series_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(TruncatedSeries((1, 2, 3)))

    def test_repr(self):
        assert repr(TruncatedSeries((1, -1, 0))) == "TruncatedSeries([1, -1, 0], order=2)"
        assert repr(TruncatedSeries(range(10))) == (
            "TruncatedSeries([0, 1, 2, 3, 4, 5, 6, 7, ...], order=9)"
        )


class TestSpecs:
    def test_product_factors_become_tuples(self):
        assert ProductSpec([[-1, 1, 1, 1]]).factors == ((-1, 1, 1, 1),)
        assert ProductSpec(factors=[[1, 1, 2, -1]]).factors == ((1, 1, 2, -1),)

    def test_theta_alternating_defaults_to_false(self):
        assert ThetaSpec(2, 0, 0).alternating is False
        assert ThetaSpec(1, 1, 0, True).alternating is True


class TestVerificationReport:
    def test_to_dict_keys_in_order(self):
        d = VerificationReport("demo", 7, False, 3, 10, 11).to_dict()
        assert list(d) == [
            "check_name",
            "order_or_bound",
            "passed",
            "first_failure_index",
            "lhs_value",
            "rhs_value",
        ]
        assert list(d.values()) == ["demo", 7, False, 3, 10, 11]
        assert list(VerificationReport("ok", 4, True).to_dict().values()) == [
            "ok", 4, True, None, None, None,
        ]

    def test_passed_must_match_the_failure_index(self):
        with pytest.raises(ValueError, match="passed must hold exactly"):
            VerificationReport("x", 5, True, 0)
        with pytest.raises(ValueError, match="passed must hold exactly"):
            VerificationReport("x", 5, False, lhs_value=1, rhs_value=2)
