"""The constructor recurrences against built heaps, closed forms and P-recurrences."""

import time
from math import comb

import pytest

from heapdyck import bijections, counting, heaps, series

ORDER = 300


@pytest.fixture(autouse=True)
def fresh_caches():
    bijections.clear_caches()
    yield
    bijections.clear_caches()


def by_size(values, n):
    """[#{v <= b} for b = 0..n] from a list of statistic values."""
    return [sum(v <= b for v in values) for b in range(n + 1)]


@pytest.mark.parametrize("klass", counting.CLASSES)
def test_width_tables_match_built_heaps(klass):
    n_max = 8
    right = counting.by_right_width(klass, n_max)
    left = counting.by_left_width(klass, n_max) if klass in ("T", "Q") else None
    assert len(right) == n_max + 1
    for n in range(1, n_max + 1):
        stats = [heaps.heap_stats(h) for h in bijections.grammar_enumerate(n, klass)]
        assert [row[n] for row in right] == by_size([s.rw for s in stats], n_max), n
        if left is not None:
            assert [row[n] for row in left] == by_size([s.lw for s in stats], n_max), n


@pytest.mark.parametrize("klass", counting.CLASSES)
def test_totals_match_closed_forms(klass):
    # at order 1000 the coefficients run to hundreds of digits
    for order in (ORDER, 1000):
        ser = series.closed_form(klass, order)
        assert counting.totals(klass, order) == [ser[n] for n in range(order + 1)]


def test_totals_follow_p_recurrences():
    """Holonomic recurrences of the four algebraic series, a route with no convolution."""
    ts, t, qs, q = (counting.totals(k, ORDER) for k in ("Ts", "T", "Qs", "Q"))
    assert ts[1] == t[1] == qs[1] == qs[2] == q[1] == 1
    for n in range(1, ORDER):
        # Catalan: (n + 2) C_{n+1} = (4n + 2) C_n, with Ts_n = C_n
        assert (n + 2) * ts[n + 1] == (4 * n + 2) * ts[n], n
        # C(2n + 1, n + 1) over C(2n - 1, n)
        assert (n + 1) * t[n + 1] == 2 * (2 * n + 1) * t[n], n
        # (1 - 2z - 3z^2) f' = 2f for f = 1 + 2Q = sqrt((1 + z) / (1 - 3z))
        assert (n + 1) * q[n + 1] == 2 * (n + 1) * q[n] + 3 * (n - 1) * q[n - 1], n
    for n in range(2, ORDER):
        # Motzkin: (n + 2) M_n = (2n + 1) M_{n-1} + 3(n - 1) M_{n-2}, with Qs_n = M_{n-1}
        assert (n + 2) * qs[n + 1] == (2 * n + 1) * qs[n] + 3 * (n - 1) * qs[n - 1], n


def test_grammar_count_reaches_hundreds():
    start = time.perf_counter()
    got = bijections.grammar_count(300, "T")
    assert time.perf_counter() - start < 1.0
    assert got == comb(599, 300)
    assert not bijections._GRAMMAR_MEMO  # counted without building a heap


def test_widths_bound_every_heap():
    n_max = 12
    for klass in counting.CLASSES:
        total = counting.totals(klass, n_max)
        right = counting.by_right_width(klass, n_max)
        assert right[0] == [0] * (n_max + 1)
        assert right[n_max] == total
    for klass in ("T", "Q"):
        total = counting.totals(klass, n_max)
        left = counting.by_left_width(klass, n_max)
        assert left[0] == counting.totals(klass + "s", n_max)
        assert left[n_max - 1] == total


@pytest.mark.parametrize(
    "call",
    [
        lambda: counting.totals("X", 3),
        lambda: counting.totals("T", -1),
        lambda: counting.by_right_width("Q", -2),
        lambda: counting.by_left_width("Ts", 3),
    ],
    ids=["unknown-class", "negative-totals", "negative-right", "strict-left"],
)
def test_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_size_zero_is_empty():
    assert counting.totals("T", 0) == [0]
    assert counting.by_right_width("Qs", 0) == [[0]]
    assert counting.by_left_width("Q", 0) == [[0]]
