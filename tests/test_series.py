from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from heapdyck import multisets, series
from heapdyck.series import (
    BivarTable,
    DivByNonUnitError,
    Series,
    SqrtBadConstantError,
    from_ints,
    polynomial,
)

from oracles import (
    binomial_sqrt,
    catalan,
    convolve,
    motzkin,
    reference_div,
    reference_divide_table,
    reference_mul,
    reference_sqrt,
    square_animals,
)


def small_series(order=8):
    return st.lists(
        st.integers(-9, 9), min_size=order + 1, max_size=order + 1
    ).map(from_ints)


def rational_series(max_order=8):
    fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 9]))
    return st.lists(fractions, min_size=1, max_size=max_order + 1).map(
        lambda cs: Series(tuple(cs))
    )


def with_constant(s, c):
    return Series((Fraction(c),) + s.coeffs[1:])


# constant terms of divisors; most are not units of the integers
DIVISOR_CONSTANTS = [Fraction(-2, 3), Fraction(-2), Fraction(3, 4), Fraction(5), Fraction(1), Fraction(-1)]


def sparse_table(max_power=3):
    """{(i, j): c} with small integer coefficients, as the table kernel takes."""
    power = st.integers(0, max_power)
    return st.dictionaries(st.tuples(power, power), st.integers(-3, 3), max_size=6)


def all_fractions(coeffs):
    return all(type(c) is Fraction for c in coeffs)


class TestArithmetic:
    def test_add_sub(self):
        a = from_ints([1, 2, 3])
        b = from_ints([0, 1, 1])
        assert (a + b).coeffs == (1, 3, 4)
        assert (a - b).coeffs == (1, 1, 2)

    def test_mul_truncates_to_min_order(self):
        a = from_ints([1, 1])
        b = from_ints([1, 0, 0, 0])
        assert (a * b).order == 1

    def test_one_is_multiplicative_identity(self):
        one = polynomial([1], 5)
        a = from_ints([3, -1, 4, 1, -5, 9])
        assert a * one == a

    @given(small_series(), small_series())
    def test_sub_inverts_add(self, a, b):
        assert (a + b) - b == a

    @given(small_series(), small_series(), small_series())
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_div_requires_unit(self):
        with pytest.raises(DivByNonUnitError):
            from_ints([1, 1]) / from_ints([0, 1])

    def test_div_inverts_mul(self):
        a = from_ints([2, 5, 1, 7])
        b = from_ints([1, 3, 2, 4])
        assert (a * b) / b == a

    def test_getitem_beyond_order(self):
        with pytest.raises(IndexError):
            from_ints([1, 2])[2]

    def test_shift_down_requires_vanishing(self):
        assert from_ints([0, 0, 3, 4]).shift_down(2).coeffs == (3, 4)
        with pytest.raises(ValueError):
            from_ints([0, 1]).shift_down(2)

    def test_polynomial_degree_guard(self):
        with pytest.raises(ValueError):
            polynomial([1, 1, 1], 1)


class TestKernelsMatchReference:
    """The integer kernels against plain Fraction loops, on rational series."""

    @given(rational_series(), rational_series())
    def test_mul(self, a, b):
        got = (a * b).coeffs
        assert got == reference_mul(a.coeffs, b.coeffs)
        assert all_fractions(got)

    @given(rational_series(), rational_series(), st.sampled_from(DIVISOR_CONSTANTS))
    def test_div(self, a, b, b0):
        b = with_constant(b, b0)
        got = (a / b).coeffs
        assert got == reference_div(a.coeffs, b.coeffs)
        assert all_fractions(got)

    @given(rational_series(12))
    def test_sqrt(self, a):
        radicand = with_constant(a, 1)
        got = radicand.sqrt().coeffs
        assert got == reference_sqrt(radicand.coeffs)
        assert all_fractions(got)

    @pytest.mark.parametrize("radicand", [[1, 1], [1, -2, -3], [1, 3, 0, -5]])
    def test_sqrt_of_integer_radicand_is_dyadic(self, radicand):
        s = polynomial(radicand, 40)
        got = s.sqrt().coeffs
        assert got == reference_sqrt(s.coeffs)
        assert all(c.denominator & (c.denominator - 1) == 0 for c in got)

    @given(sparse_table(), sparse_table(), st.integers(0, 6), st.integers(0, 6))
    def test_divide_table(self, numerator, denominator, z_order, u_order):
        denominator[0, 0] = 1
        got = series._divide_table(numerator, denominator, z_order, u_order).rows
        assert got == reference_divide_table(numerator, denominator, z_order, u_order)
        assert all(all_fractions(row) for row in got)

    @pytest.mark.parametrize("name", series.BIVARIATE_NAMES)
    def test_bivariate_tables(self, name):
        numerator, denominator = series._TABLES[name]
        got = series.bivariate(name, 40, 30).rows
        assert got == reference_divide_table(numerator, denominator, 40, 30)

    @pytest.mark.parametrize("d00", [0, 2, -1])
    def test_divide_table_requires_constant_one(self, d00):
        with pytest.raises(DivByNonUnitError):
            series._divide_table({(0, 0): 1}, {(0, 0): d00, (1, 0): 1}, 2, 2)


class TestSqrt:
    def test_sqrt_one_minus_4z(self):
        got = polynomial([1, -4], 4).sqrt()
        assert got.coeffs == (1, -2, -2, -4, -10)

    def test_sqrt_matches_binomial_series(self):
        order = 12
        got = polynomial([1, -4], order).sqrt()
        assert list(got.coeffs) == binomial_sqrt(-4, order)

    def test_trinomial_sqrt_matches_product_of_binomials(self):
        order = 12
        got = polynomial([1, -2, -3], order).sqrt()
        expect = convolve(binomial_sqrt(1, order), binomial_sqrt(-3, order))
        assert list(got.coeffs) == expect

    def test_sqrt_requires_constant_one(self):
        with pytest.raises(SqrtBadConstantError):
            from_ints([4, 1]).sqrt()

    @given(small_series())
    def test_square_of_sqrt_is_radicand(self, a):
        shifted = Series((Fraction(1),) + a.coeffs[1:])
        root = shifted.sqrt()
        assert root * root == shifted


class TestClosedForms:
    def test_ts_is_catalan(self):
        ts = series.closed_form("Ts", 10)
        assert all(ts[n] == catalan(n) for n in range(1, 11))

    def test_t_is_central_binomial(self):
        t = series.closed_form("T", 10)
        assert [int(t[n]) for n in range(1, 6)] == [1, 3, 10, 35, 126]
        assert all(t[n] == comb(2 * n - 1, n) for n in range(1, 11))

    def test_qs_is_motzkin(self):
        qs = series.closed_form("Qs", 10)
        assert [int(qs[n]) for n in range(1, 7)] == [1, 1, 2, 4, 9, 21]
        assert all(qs[n] == motzkin(n - 1) for n in range(1, 11))

    def test_q_matches_convolution_recurrence(self):
        q = series.closed_form("Q", 12)
        assert [int(q[n]) for n in range(1, 7)] == [1, 2, 5, 13, 35, 96]
        assert all(q[n] == square_animals(n) for n in range(1, 13))

    def test_mdiag_equals_q(self):
        assert series.closed_form("Mdiag", 15) == series.closed_form("Q", 15)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            series.closed_form("Z", 5)

    @pytest.mark.parametrize("name", series.CLOSED_FORMS)
    def test_order_zero(self, name):
        assert series.closed_form(name, 0) == Series((0,))

    def test_integer_coefficients(self):
        for name in series.CLOSED_FORMS:
            s = series.closed_form(name, 20)
            assert all(c.denominator == 1 for c in s.coeffs)


class TestBivariate:
    def test_f_pinned_entries(self):
        table = series.bivariate("f", 9, 6)
        assert table.coefficient(2, 3) == 4
        assert table.coefficient(4, 5) == 26
        assert all(table.coefficient(n, 1) == 1 for n in range(1, 10))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_f_counts_star_multisets(self, n, k):
        table = series.bivariate("f", 6, 6)
        assert table.coefficient(n, k) == multisets.count_family("star", n, k)

    def test_diagonals_agree_with_q(self):
        q = series.closed_form("Q", 12)
        for name in ("f", "h"):
            diag = series.bivariate(name, 12, 12).diagonal()
            assert diag.coeffs[1:] == q.coeffs[1:]

    def test_diagonal_of_ones(self):
        ones = BivarTable(tuple((Fraction(1),) * 5 for _ in range(5)))
        assert ones.diagonal().coeffs == (1, 1, 1, 1, 1)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            series.bivariate("g", 3, 3)


class TestIdentities:
    def test_all_pass_to_order_30(self):
        checks = series.check_identities(30)
        assert len(checks) >= 6
        assert all(c.ok for c in checks)

    def test_low_order_sanity(self):
        assert all(c.ok for c in series.check_identities(2))

    @pytest.mark.parametrize("order", [0, 1])
    def test_lowest_orders(self, order):
        checks = series.check_identities(order)
        assert len(checks) == len(series.check_identities(2))
        assert all(c.ok for c in checks)


NEGATIVE_ORDER_CALLS = {
    **{name: (lambda name=name: series.closed_form(name, -1)) for name in series.CLOSED_FORMS},
    "f-z": lambda: series.bivariate("f", -1, 3),
    "f-u": lambda: series.bivariate("f", 3, -1),
    "h-z": lambda: series.bivariate("h", -2, 3),
    "h-u": lambda: series.bivariate("h", 3, -2),
    "identities": lambda: series.check_identities(-1),
    "polynomial": lambda: polynomial([1], -1),
}


@pytest.mark.parametrize("call", NEGATIVE_ORDER_CALLS.values(), ids=list(NEGATIVE_ORDER_CALLS))
def test_negative_order_is_rejected(call):
    with pytest.raises(ValueError, match=r"order -\d+ is negative"):
        call()


class TestFormatting:
    def test_integer_lines(self):
        assert from_ints([1, 2]).format_terms() == "0\t1\n1\t2"

    def test_fraction_lines(self):
        s = Series((Fraction(1), Fraction(1, 2)))
        assert s.format_terms() == "0\t1\n1\t1/2"

    def test_start_skips_low_terms(self):
        assert from_ints([9, 1, 2]).format_terms(start=1) == "1\t1\n2\t2"
