import gc
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from heapdyck import counting, multisets, series
from heapdyck.series import (
    DivByNonUnitError,
    NotIntegralError,
    Series,
    SqrtBadConstantError,
    polynomial,
)

from oracles import (
    binomial_sqrt,
    catalan,
    convolve,
    directed_animals,
    from_ints,
    listed_count,
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


def any_series(max_order=8):
    return st.lists(st.integers(-9, 9), min_size=1, max_size=max_order + 1).map(from_ints)


def sparse_series(max_terms=6):
    """Nonzero terms after gaps of 0 to 10 zeros, such as 1 + 5z^7."""
    nonzero = st.integers(-9, 9).filter(bool)
    runs = st.lists(st.tuples(st.integers(0, 10), nonzero), max_size=max_terms)
    return st.tuples(nonzero, runs).map(
        lambda cr: Series((cr[0],) + sum(((0,) * gap + (c,) for gap, c in cr[1]), ()))
    )


def with_constant(s, c):
    return Series((c,) + s.coeffs[1:])


def all_ints(coeffs):
    return all(type(c) is int for c in coeffs)


class TestArithmetic:
    def test_add_sub(self):
        a = from_ints([1, 2, 3])
        b = from_ints([0, 1, 1])
        assert (a + b).coeffs == (1, 3, 4)
        assert (a - b).coeffs == (1, 1, 2)
        # a sum or difference carries the lower order of its operands, from either side
        c = from_ints([5, 7])
        assert (a + c).coeffs == (c + a).coeffs == (6, 9)
        assert (a - c).coeffs == (-4, -5)
        assert (c - a).coeffs == (4, 5)

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

    @given(small_series(), small_series(), st.sampled_from([-2, 3, 5]))
    def test_div_by_a_non_unit_inverts_mul(self, q, b, b0):
        b = with_constant(b, b0)
        got = (q * b) / b
        assert got == q
        assert all_ints(got.coeffs)

    def test_quotient_past_the_integers_is_refused(self):
        with pytest.raises(NotIntegralError):
            polynomial([1], 3) / polynomial([2], 3)

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
    def test_coefficients_are_ints(self, c):
        with pytest.raises(TypeError):
            Series((1, c))

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
    """The integer kernels against plain Fraction loops.  A quotient's divisor is a unit
    of the integers, and a root's radicand is g * g."""

    @given(any_series(), any_series())
    def test_mul(self, a, b):
        got = (a * b).coeffs
        assert got == reference_mul(a.coeffs, b.coeffs)
        assert all_ints(got)

    @given(any_series())
    @example(from_ints([-3]))
    @example(from_ints([2, -5]))
    @example(from_ints([1, 4, -7]))
    def test_square_of_one_object(self, a):
        # a * a of one object takes the square's path, each pair of terms once
        got = (a * a).coeffs
        assert got == reference_mul(a.coeffs, a.coeffs)
        assert all_ints(got)

    @given(any_series(), any_series(), st.sampled_from([1, -1]))
    def test_div(self, a, b, b0):
        b = with_constant(b, b0)
        got = (a / b).coeffs
        assert got == reference_div(a.coeffs, b.coeffs)
        assert all_ints(got)

    @given(any_series(12))
    def test_sqrt(self, g):
        g = with_constant(g, 1)
        radicand = g * g
        got = radicand.sqrt().coeffs
        assert got == reference_sqrt(radicand.coeffs) == g.coeffs
        assert all_ints(got)

    @pytest.mark.parametrize("radicand", [[1, 1], [1, -2, -3], [1, 3, 0, -5]])
    def test_sqrt_of_integer_radicand_is_dyadic(self, radicand):
        # the root's coefficients are dyadic; the kernel gives it only when all are integers
        s = polynomial(radicand, 40)
        want = reference_sqrt(s.coeffs)
        assert all(c.denominator & (c.denominator - 1) == 0 for c in want)
        if all(c.denominator == 1 for c in want):
            assert s.sqrt().coeffs == want
        else:
            with pytest.raises(NotIntegralError):
                s.sqrt()

    @pytest.mark.parametrize("name", series.BIVARIATE_NAMES)
    @pytest.mark.parametrize("z_order, u_order", [(0, 0), (0, 9), (9, 0)])
    def test_bivariate_edge_orders(self, name, z_order, u_order):
        numerator, denominator = series._TABLES[name]
        got = series.bivariate(name, z_order, u_order).rows
        assert got == reference_divide_table(numerator, denominator, z_order, u_order)

    @pytest.mark.parametrize(
        "name, z_order, u_order",
        [pytest.param(name, 40, 30, id=name) for name in series.BIVARIATE_NAMES]
        # the series workload's size
        + [pytest.param(name, 150, 150, id=f"{name}-150") for name in series.BIVARIATE_NAMES],
    )
    def test_bivariate_tables(self, name, z_order, u_order):
        numerator, denominator = series._TABLES[name]
        got = series.bivariate(name, z_order, u_order).rows
        assert got == reference_divide_table(numerator, denominator, z_order, u_order)
        assert all(type(c) is int for row in got for c in row)


class TestSparseKernels:
    """The kernels walk only their operand's nonzero terms; gaps must not skip any."""

    @given(any_series(40), sparse_series())
    def test_div_by_sparse_divisor(self, q, b):
        a = q * b
        assert (a / b).coeffs == reference_div(a.coeffs, b.coeffs)

    @given(sparse_series())
    @example(polynomial([1, 0, 0, 0, 0, 0, 0, 5], 30))
    def test_sqrt_of_sparse_radicand(self, g):
        g = with_constant(g, 1)
        radicand = g * g
        assert radicand.sqrt().coeffs == reference_sqrt(radicand.coeffs) == g.coeffs


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

    def test_sqrt_past_the_integers_is_refused(self):
        # sqrt(1 + z) = 1 + z/2 - ..
        with pytest.raises(NotIntegralError):
            polynomial([1, 1], 5).sqrt()

    @given(small_series())
    def test_square_of_sqrt_is_radicand(self, g):
        radicand = with_constant(g, 1) * with_constant(g, 1)
        root = radicand.sqrt()
        assert root * root == radicand


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

    @pytest.mark.parametrize("name", ["Ts", "T", "Qs", "Q"])
    def test_matches_the_constructor_recurrences_to_order_500(self, name):
        assert list(series.closed_form(name, 500).coeffs) == counting.totals(name, 500)

    def test_last_coefficients_at_order_2000(self):
        n = 2000
        assert series.closed_form("T", n)[n] == comb(2 * n - 1, n)
        assert series.closed_form("Q", n)[n] == directed_animals(n)

    def test_mdiag_equals_q(self):
        assert series.closed_form("Mdiag", 15) == series.closed_form("Q", 15)

    def test_mdiag_equals_q_at_order_300(self):
        assert series.closed_form("Mdiag", 300) == series.closed_form("Q", 300)

    def test_mdiag_keeps_only_the_rows_f_reaches_back_to(self):
        # traced peak at order 200: about 0.04 MB a row at a time, 4.4 MB for the whole table
        gc.collect()
        tracemalloc.start()
        try:
            series.closed_form("Mdiag", 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            series.closed_form("Z", 5)

    @pytest.mark.parametrize("name", series.CLOSED_FORMS)
    def test_order_zero(self, name):
        assert series.closed_form(name, 0) == Series((0,))

    def test_integer_coefficients(self):
        for name in series.CLOSED_FORMS:
            assert all_ints(series.closed_form(name, 300).coeffs)


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
        assert table.coefficient(n, k) == listed_count(multisets, "star", n, k)

    def test_diagonals_agree_with_q(self):
        q = series.closed_form("Q", 12)
        for name in ("f", "h"):
            table = series.bivariate(name, 12, 12)
            assert tuple(table.coefficient(i, i) for i in range(1, 13)) == q.coeffs[1:]

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            series.bivariate("g", 3, 3)

    @pytest.mark.parametrize("name", series.BIVARIATE_NAMES)
    @pytest.mark.parametrize("z_order, u_order", [(0, 0), (0, 9), (9, 0), (40, 30), (30, 40)])
    def test_tables_times_their_denominators_are_their_numerators(self, name, z_order, u_order):
        assert series.cross_check(name, series.bivariate(name, z_order, u_order)) is None

    def test_cross_check_names_the_first_wrong_entry(self):
        rows = [list(row) for row in series.bivariate("f", 4, 4).rows]
        rows[2][3] += 1
        rows[3][1] += 1
        # the denominator's constant term is 1, so the product is first off at (2, 3)
        assert series.cross_check("f", series.BivarTable(tuple(map(tuple, rows)))) == (2, 3, 1, 0)

    @pytest.mark.parametrize(
        "name, term, delta",
        [pytest.param(name, (i, j), delta, id=f"{name}-z{i}u{j}{delta:+d}")
         for name in series.BIVARIATE_NAMES for i in range(3) for j in range(4)
         for delta in (1, -1)],
    )
    def test_a_changed_denominator_term_fails_the_cross_check(self, monkeypatch, name, term, delta):
        # every term +-1 over z^0..z^2, u^0..u^3, which holds both denominators.  The rows
        # do not read _TABLES, so only the product with the denominator sees the change, at
        # verify series' --max-n 6 and at its default cap, 30
        numerator, denominator = series._TABLES[name]
        changed = {**denominator, term: denominator.get(term, 0) + delta}
        monkeypatch.setitem(series._TABLES, name, (numerator, changed))
        for order in (6, 30):
            assert series.cross_check(name, series.bivariate(name, order, order)) is not None
        assert all(c.ok for c in series.check_identities(6))

    @pytest.mark.parametrize("n, k", [(-1, 2), (2, -1), (-6, 0), (6, 2), (2, 5)])
    def test_coefficient_beyond_the_orders(self, n, k):
        # a negative index must not wrap around to the last rows or columns
        table = series.bivariate("f", 5, 4)
        with pytest.raises(IndexError):
            table.coefficient(n, k)
        assert table.coefficient(5, 4) == table.rows[5][4]


# check_identities' checks, in order
IDENTITY_NAMES = (
    "Ts = z(1+Ts)^2",
    "Qs = z(1+Qs+Qs^2)",
    "T = Ts(1+T)",
    "Q = Qs(1+Q)",
    "sqrt(1, -4) squares back",
    "sqrt(1, -2, -3) squares back",
    "diagonal(f) = Q",
    "diagonal(h) = Q",
    "diagonal(f) satisfies (1-3x)(1+2Y)^2 = 1+x",
    "diagonal(h) satisfies (1-3x)(1+2Y)^2 = 1+x",
)


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

    @pytest.mark.parametrize("order", range(6))
    def test_names_and_details_at_low_orders(self, order):
        assert series.check_identities(order) == [
            (name, True, f"orders 0..{order} compared") for name in IDENTITY_NAMES
        ]

    @pytest.mark.parametrize(
        "k, failing",
        [
            # within the order: every check that takes a root, the squares back among them
            (3, {
                "Ts = z(1+Ts)^2", "Qs = z(1+Qs+Qs^2)", "T = Ts(1+T)", "Q = Qs(1+Q)",
                "sqrt(1, -4) squares back", "sqrt(1, -2, -3) squares back",
                "diagonal(f) = Q", "diagonal(h) = Q",
            }),
            # one past it, which only Ts and Qs read, through their shift down
            (9, {"Ts = z(1+Ts)^2", "Qs = z(1+Qs+Qs^2)", "T = Ts(1+T)", "Q = Qs(1+Q)"}),
        ],
    )
    def test_a_root_off_at_one_coefficient_fails_the_checks_that_read_it(
        self, monkeypatch, k, failing
    ):
        # off by two, not one: an odd error leaves the closed forms' halving inexact, and
        # check_identities raises NotIntegralError before it records any check
        sqrt = Series.sqrt

        def off(self):
            coeffs = list(sqrt(self).coeffs)
            if len(coeffs) > k:
                coeffs[k] += 2
            return Series(coeffs)

        monkeypatch.setattr(Series, "sqrt", off)
        checks = series.check_identities(8)
        assert [c.name for c in checks] == list(IDENTITY_NAMES)
        assert {c.name for c in checks if not c.ok} == failing

    def test_diagonals_read_the_row_stream(self, monkeypatch):
        # no whole table is built: the diagonals come off the row generators, a row at a time
        def no_table(*args):
            pytest.fail("a whole table was built")

        monkeypatch.setattr(series, "bivariate", no_table)
        monkeypatch.setattr(series, "BivarTable", no_table)
        assert all(c.ok for c in series.check_identities(40))
        q = series.closed_form("Q", 40)
        assert series._diagonal("f", 40) == q
        assert series._diagonal("h", 40) == q


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

    def test_start_skips_low_terms(self):
        assert from_ints([9, 1, 2]).format_terms(start=1) == "1\t1\n2\t2"
