"""Exact truncated power series over the integers.

A Series holds int coefficients for z^0 .. z^order; coefficients beyond
the order are unknown, never assumed zero, and every arithmetic result
carries the minimum order of its operands.  Every series here counts
objects, so every coefficient is an int, and the arithmetic is that of
Z[[z]]: a quotient or a square root whose next coefficient does not
divide exactly raises NotIntegralError.  Square roots are taken only of
series with constant term 1, and the closed forms below divide by their
leading monomials through explicit valuation shifts.

The product is quadratic, O(N^2) products, and a square x * x of one
object takes half of them; quotient and square root visit only their
operand's nonzero terms, O(N t) products for t of them.

The four univariate closed forms count the heap classes by area:

    Ts: (1 - 2z - sqrt(1 - 4z)) / 2z          Catalan numbers
    T:  (1 - 4z - sqrt(1 - 4z)) / (8z - 2)    binomial(2n-1, n)
    Qs: (1 - z - sqrt(1 - 2z - 3z^2)) / 2z    Motzkin numbers, shifted
    Q:  (1 - 3z - sqrt(1 - 2z - 3z^2)) / (6z - 2)

The bivariate tables f (multisets without consecutive values, by size n
and bound k) and h (multisets repeating every value below the bound) are
rational functions, written once in _TABLES.  With the denominator
D0(u) + sum_(i>=1) z^i D_i(u) and the numerator's row n N_n(u), row n of
a table is read off D0 F_n = N_n - sum_i D_i F_(n-i), where a prefix sum
divides by 1 - u:

    f: D0 = (1 - u)^2, D1 = -(1 - u)(1 - u + u^2); F_0 = 0,
       F_1 = u/(1 - u)^2 = (0, 1, 2, ..), then F_n = prefix(F_(n-1)) - u F_(n-1)
    h: D0 = 1 - u, D1 = -(1 - u), D2 = -u; H_0 = u/(1 - u) = (0, 1, 1, ..),
       then H_n = H_(n-1) + prefix(u H_(n-2)), with H_(-1) = 0

Each row is one prefix sum and one pass over the row before, so an N x N
table takes O(N^2) additions, and the rows come one at a time, keeping
at most two.  cross_check multiplies a table back by its denominator, a
sparse product that shares nothing with these recurrences, and finds
where it differs from the numerator.

Mdiag is the diagonal of f, read off its row stream; it equals Q, and
so does h's diagonal, which the identity checks read the same way.  They
also check a third route with no square root: Q is the one series with
Y(0) = 0 and (1 - 3x)(1 + 2Y)^2 = 1 + x (Gouyou-Beauchamps and Viennot,
1988), and both diagonals satisfy it.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat
from operator import add, index, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import HeapdyckError
from .value import Value

CLOSED_FORMS = ("Ts", "T", "Qs", "Q", "Mdiag")

class DivByNonUnitError(HeapdyckError, ZeroDivisionError):
    pass


class SqrtBadConstantError(HeapdyckError, ValueError):
    pass


class NotIntegralError(HeapdyckError, ArithmeticError):
    pass


def _exact(acc: int, d: int, k: int) -> int:
    """Coefficient k of a quotient or a root, acc / d, which must be an integer."""
    c, r = divmod(acc, d)
    if r:
        raise NotIntegralError(f"coefficient {k} is not an integer (remainder {r} mod {d})")
    return c


class Series(Value):
    """Coefficients of z^0 .. z^order; not a tuple, so + - * / act on series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        coeffs = tuple(map(index, coeffs))  # a non-integer, such as 0.5, raises TypeError
        if not coeffs:
            raise ValueError("series needs at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond computed order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

    def __add__(self, other: "Series") -> "Series":
        return Series(map(add, self.coeffs, other.coeffs))  # map stops at the lower order

    def __sub__(self, other: "Series") -> "Series":
        return Series(map(sub, self.coeffs, other.coeffs))

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        a = self.coeffs
        b = other.coeffs[n::-1]  # b[n - k:] runs b_k, b_(k-1), .., b_0, to pair with a_0, a_1, ..
        if other is not self:
            return Series(tuple(sum(map(mul, a, b[n - k :])) for k in range(n + 1)))
        # a square: each pair i < k - i once, doubled, then a_(k/2)^2 when k is even
        out = [2 * sum(map(mul, a, b[n - k : n - k + (k + 1) // 2])) for k in range(n + 1)]
        for k in range(0, n + 1, 2):
            out[k] += a[k // 2] * a[k // 2]
        return Series(out)

    def __truediv__(self, other: "Series") -> "Series":
        b = other.coeffs
        if b[0] == 0:
            raise DivByNonUnitError("divisor has zero constant term")
        n = min(self.order, other.order)
        # out_k = (a_k - sum_j b_j out_(k-j)) / b_0 over the divisor's nonzero b_j, out_(k-j)
        # at out[-j]; the zeros before out_0 stand for out_(k-j) at j > k
        js = [j for j in range(1, n + 1) if b[j]]
        back, bs = [-j for j in js], [b[j] for j in js]
        out = [0] * n
        for k, a in enumerate(self.coeffs[: n + 1]):
            out.append(_exact(a - sum(map(mul, bs, map(out.__getitem__, back))), b[0], k))
        return Series(out[n:])

    def sqrt(self) -> "Series":
        a = self.coeffs
        if a[0] != 1:
            raise SqrtBadConstantError("square root needs constant term 1")
        # Miller's recurrence for a power of a series (Knuth, TAOCP vol. 2, 4.7):
        # out_k = sum_(0<j<=k) (3j - 2k) a_j out_(k-j) / 2k, out as in the quotient
        js = [j for j in range(1, len(a)) if a[j]]
        back, aj, jaj = [-j for j in js], [a[j] for j in js], [j * a[j] for j in js]
        out = [0] * self.order + [1]
        for k in range(1, self.order + 1):
            g = list(map(out.__getitem__, back))
            acc = 3 * sum(map(mul, jaj, g)) - 2 * k * sum(map(mul, aj, g))
            out.append(_exact(acc, 2 * k, k))
        return Series(out[self.order :])

    def shift_down(self, k: int) -> "Series":
        """Divide by z^k, requiring the low coefficients to vanish."""
        if any(self.coeffs[:k]):
            raise ValueError(f"series has valuation below {k}")
        return Series(self.coeffs[k:])

    def format_terms(self, start: int = 0) -> str:
        return "\n".join(f"{n}\t{c}" for n, c in enumerate(self.coeffs[start:], start))


def _check_order(*orders: int) -> None:
    for order in orders:
        if order < 0:
            raise ValueError(f"order {order} is negative")


def polynomial(coeffs: Sequence[int], order: int) -> Series:
    _check_order(order)
    if any(coeffs[order + 1 :]):
        raise ValueError("polynomial degree beyond requested order")
    return Series(tuple(coeffs[: order + 1]) + (0,) * (order + 1 - len(coeffs)))


# the radicand of each closed form below, whose root it takes to one past its own order
_RADICANDS = {"Ts": (1, -4), "T": (1, -4), "Qs": (1, -2, -3), "Q": (1, -2, -3)}


def _root(radicand: tuple[int, ...], order: int) -> Series:
    """sqrt(radicand) to order + 1, as the closed forms of that order take it, and to at
    least the radicand's degree, below which `polynomial` cannot hold it."""
    return polynomial(radicand, max(order + 1, len(radicand) - 1)).sqrt()


def _from_root(name: str, order: int, root: Series) -> Series:
    """The square-root closed form `name` to the given order, from `_root` of its radicand."""
    n = order + 1
    if name == "Ts":
        return (polynomial([1, -2], n) - root).shift_down(1) / polynomial([2], order)
    if name == "T":
        return ((polynomial([1, -4], n) - root) / polynomial([-2, 8], n)).truncate(order)
    if name == "Qs":
        return (polynomial([1, -1], n) - root).shift_down(1) / polynomial([2], order)
    return ((polynomial([1, -3], n) - root) / polynomial([-2, 6], n)).truncate(order)


def closed_form(name: str, order: int) -> Series:
    """One of the five named area series, computed to the given order."""
    if name not in CLOSED_FORMS:
        raise ValueError(f"unknown series {name!r}")
    _check_order(order)
    if name == "Mdiag":
        return _diagonal("f", order)
    return _from_root(name, order, _root(_RADICANDS[name], order))


class BivarTable(Value):
    """Coefficients c[n][k] of z^n u^k, exact ints, up to fixed z and u orders."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)

    def coefficient(self, n: int, k: int) -> int:
        """Entry (n, k); past the orders the row tuples raise IndexError, and so does this
        check below 0, where they would wrap around to the last rows and columns."""
        if n < 0 or k < 0:
            raise IndexError(f"coefficient ({n}, {k}) has a negative index")
        return self.rows[n][k]


# name -> (numerator, denominator) of the rational function, each {(z, u) power: coefficient}
_TABLES = {
    # u z / ((1 - u)(1 - u - z + u z - u^2 z))
    "f": (
        {(1, 1): 1},
        {(0, 0): 1, (0, 1): -2, (0, 2): 1, (1, 0): -1, (1, 1): 2, (1, 2): -2, (1, 3): 1},
    ),
    # u / (1 - z - u (1 - z + z^2))
    "h": (
        {(0, 1): 1},
        {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1, (2, 1): -1},
    ),
}


def _rows_f(u_order: int) -> Iterator[list[int]]:
    """The rows of f to u^u_order, without end: F_0 = 0, F_1 = (0, 1, 2, ..) and then
    F_n = prefix(F_(n-1)) - u F_(n-1), as the module docstring derives them."""
    yield [0] * (u_order + 1)
    row = list(range(u_order + 1))
    while True:
        yield row
        row = list(map(sub, accumulate(row), chain((0,), row)))


def _rows_h(u_order: int) -> Iterator[list[int]]:
    """The rows of h to u^u_order, without end: H_0 = (0, 1, 1, ..) and then
    H_n = H_(n-1) + prefix(u H_(n-2)), with H_(-1) = 0."""
    before, row = [0] * (u_order + 1), [0] + [1] * u_order
    while True:
        yield row
        # prefix(u H_(n-2)): the sums of H_(n-2) cut to the row, from a first term 0
        before, row = row, list(map(add, row, accumulate(before[:-1], initial=0)))


_ROWS = {"f": _rows_f, "h": _rows_h}  # a row is made only when the next one is asked for
BIVARIATE_NAMES = tuple(_TABLES)


def _diagonal(name: str, order: int) -> Series:
    """Entry n of row n of the named table, read off its rows one at a time."""
    return Series(tuple(row[n] for n, row in enumerate(islice(_ROWS[name](order), order + 1))))


def bivariate(name: str, z_order: int, u_order: int) -> BivarTable:
    """Expand one of the rational multiset counters, named in BIVARIATE_NAMES, as a table."""
    _check_order(z_order, u_order)
    if name not in _ROWS:
        raise ValueError(f"unknown bivariate {name!r}")
    return BivarTable(tuple(map(tuple, islice(_ROWS[name](u_order), z_order + 1))))


def cross_check(name: str, table: BivarTable) -> tuple[int, int, int, int] | None:
    """The first entry (n, k, product, numerator), row by row, at which the table times the
    denominator of the named rational function differs from its numerator, or None.  Row n
    of the product is sum c u^j T_(n-i) over the denominator's terms c z^i u^j, cut to the
    table's u order."""
    numerator, denominator = _TABLES[name]
    rows = table.rows
    for n, row in enumerate(rows):
        product = [0] * len(row)
        for (i, j), c in denominator.items():
            if i <= n:
                product[j:] = map(add, product[j:], map(mul, repeat(c), rows[n - i]))
        for k, p in enumerate(product):
            want = numerator.get((n, k), 0)
            if p != want:
                return n, k, p, want
    return None


class IdentityCheck(NamedTuple):
    name: str
    ok: bool
    detail: str


def check_identities(order: int) -> list[IdentityCheck]:
    """Verify the constructor equations and diagonal identities to an order."""
    _check_order(order)
    n = order

    def poly(coeffs: Sequence[int]) -> Series:
        return polynomial(coeffs, max(n, len(coeffs) - 1)).truncate(n)

    one = poly([1])
    # each root once: the closed forms are built from it, and it squares back to its radicand
    roots = {r: _root(r, n) for r in dict.fromkeys(_RADICANDS.values())}
    ts, t, qs, q = (_from_root(name, n, roots[radicand]) for name, radicand in _RADICANDS.items())
    checks = []

    def record(name: str, lhs: Series, rhs: Series) -> None:
        same = lhs.coeffs[: n + 1] == rhs.coeffs[: n + 1]
        checks.append(
            IdentityCheck(name, same, f"orders 0..{min(lhs.order, rhs.order)} compared")
        )

    def times_z(x: Series) -> Series:  # z x to order n, a shift rather than a product
        return Series((0, *x.coeffs[:n]))

    # each square below is one object times itself, which the product squares in half the work
    one_ts = one + ts
    record("Ts = z(1+Ts)^2", ts, times_z(one_ts * one_ts))
    record("Qs = z(1+Qs+Qs^2)", qs, times_z(one + qs + qs * qs))
    record("T = Ts(1+T)", t, ts * (one + t))
    record("Q = Qs(1+Q)", q, qs * (one + q))
    for radicand, root in roots.items():
        root = root.truncate(n)
        record(f"sqrt{radicand} squares back", root * root, poly(radicand))
    diagonals = {name: _diagonal(name, n) for name in BIVARIATE_NAMES}
    for name, y in diagonals.items():
        record(f"diagonal({name}) = Q", y, q)
    # a third route to Q, with no square root: the one series with Y(0) = 0 and
    # (1 - 3x)(1 + 2Y)^2 = 1 + x.  1 - 3x is a unit, so compare (1 + 2Y)^2 with its quotient
    radicand = poly([1, 1]) / poly([1, -3])
    for name, y in diagonals.items():
        root = one + y + y
        record(f"diagonal({name}) satisfies (1-3x)(1+2Y)^2 = 1+x", root * root, radicand)
    return checks
