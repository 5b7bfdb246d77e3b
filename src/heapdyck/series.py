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
The table divisors have constant term 1, so a table is divided a row at
a time, and its entries are ints too.  At setup the divisor's z^0 part
is split into its factors 1 - u and the rest, and each cross row is
divided by the factors 1 - u it shares with that part; a quotient left
with fewer than all of them lowers by one more, q = (1 - u) p + q(1),
when that leaves fewer terms.  A row then costs a few whole-row passes,
not a loop per entry: one per term of those quotients, one prefix sum
per factor 1 - u of the z^0 part, skipped while the row is all zeros,
and a sequential pass only for what that part has beyond those factors,
which is nothing for f and h.  A term with coefficient -1 that meets a
row still all zeros writes a plain copy into it rather than adding.  A
row of f or of h costs one copy, one pass and one prefix sum; an N x N
table takes O(N^2) additions per pass.

The four univariate closed forms count the heap classes by area:

    Ts: (1 - 2z - sqrt(1 - 4z)) / 2z          Catalan numbers
    T:  (1 - 4z - sqrt(1 - 4z)) / (8z - 2)    binomial(2n-1, n)
    Qs: (1 - z - sqrt(1 - 2z - 3z^2)) / 2z    Motzkin numbers, shifted
    Q:  (1 - 3z - sqrt(1 - 2z - 3z^2)) / (6z - 2)

The bivariate tables f (multisets without consecutive values, by size n
and bound k) and h (multisets repeating every value below the bound) are
expanded by bottom-up division with sparse polynomial denominators.
Mdiag is the diagonal of f, read off its row stream; it equals Q, and
so does h's diagonal, which the identity checks read the same way.  They
also check a third route with no square root: Q is the one series with
Y(0) = 0 and (1 - 3x)(1 + 2Y)^2 = 1 + x (Gouyou-Beauchamps and Viennot,
1988), and both diagonals satisfy it.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, index, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import HeapdyckError
from .value import Value

CLOSED_FORMS = ("Ts", "T", "Qs", "Q", "Mdiag")

Terms = dict[tuple[int, int], int]  # a bivariate polynomial, {(z, u) power: coefficient}
Group = list[tuple[int, int, int]]  # a Horner group of _table_rows: terms c z^i u^j as (i, j, c)


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


def _one_minus_u_factors(p: list[int], most: int) -> tuple[int, list[int]]:
    """(k, p / (1 - u)^k) for the most factors 1 - u, at most `most`, that divide p != 0."""
    k = 0
    while k < most and sum(p) == 0:  # p(1) = 0: 1 - u divides p; p / (1 - u) is its prefix sums
        p = list(accumulate(p))[:-1]
        k += 1
    return k, p


def _horner_groups(denominator: Terms) -> tuple[list[tuple[int, int]], list[Group]]:
    """Setup of `_table_rows`: R's terms (j, c) past u^0, and groups 0..m.

    D0 is split into (1 - u)^m R(u) with R(0) = 1, and each cross row D_i into
    (1 - u)^k_i Q_i(u), k_i <= m; Q_i's terms join group m - k_i.  When k_i < m, so that
    Q_i(1) != 0, Q_i = (1 - u) P_i + Q_i(1) lowers by one factor: the term Q_i(1) stays in
    group m - k_i and P_i's terms join the group below, if that makes fewer terms.  For
    f, R = 1, m = 2 and Q_1 = -(1 - u + u^2) = (1 - u) u - 1: -1 in group 1 and u in
    group 0.  For h, R = 1, m = 1, Q_1 = -1 in group 0 and Q_2 = -u in group 1, which
    would lower to two terms, -1 and 1.
    """
    d00 = denominator.get((0, 0), 0)
    if d00 != 1:
        raise DivByNonUnitError(f"bivariate divisor has constant term {d00}, not 1")

    def coefficients(i: int) -> list[int]:  # D_i's, from u^0 to its last term
        last = max(j for h, j in denominator if h == i)
        return [denominator.get((i, j), 0) for j in range(last + 1)]

    d0 = coefficients(0)
    m, d0 = _one_minus_u_factors(d0, len(d0))
    r = [(j, c) for j, c in enumerate(d0) if j and c]
    groups: list[Group] = [[] for _ in range(m + 1)]
    for i in sorted({i for (i, _), c in denominator.items() if i and c}):
        k, q = _one_minus_u_factors(coefficients(i), m)
        e = m - k
        terms = [(i, j, c) for j, c in enumerate(q) if c]
        if e:
            q1 = sum(q)
            _, p = _one_minus_u_factors([q[0] - q1, *q[1:]], 1)
            lowered = [(i, j, c) for j, c in enumerate(p) if c]
            if 1 + len(lowered) < len(terms):
                groups[e - 1] += lowered
                terms = [(i, 0, q1)]
        groups[e] += terms
    return r, groups


def _table_rows(
    numerator: Terms, denominator: Terms, z_order: int, u_order: int
) -> Iterator[list[int]]:
    """The int rows of numerator / denominator, one at a time; the denominator's constant
    term is 1.  Only the rows the denominator reaches back to are kept.

    Write the denominator as D0(u) + sum_(i>=1) z^i D_i(u) and the numerator's row n as
    N_n(u).  Row n is then (N_n - sum_i D_i F_(n-i)) / D0, truncated at u^u_order.  With
    D0 = (1 - u)^m R(u) and the cross terms c z^i u^j in groups e = 0..m, as
    `_horner_groups` sets them up, row n is

        (sum_e S_e / (1 - u)^e) / R,   S_e = [e = m] N_n - sum_(group e) c u^j F_(n-i).

    A row is one Horner pass from e = m down to 0: each term c z^i u^j of group e is one
    pass over the row, acc[j:] -= c F_(n-i), and each step down is a prefix sum, which
    divides by 1 - u and is skipped while the row is still all zeros.  A term with c = -1
    that meets an all-zero row writes acc[j:] = F_(n-i), cut to the row, instead: a slice
    copy.  Dividing by R runs over R's nonzero terms.  A row of f past the numerator's
    is then F_n = prefix(F_(n-1)) - u F_(n-1): one copy, one pass and one prefix sum.  A
    row of h is prefix(u F_(n-2)) + F_(n-1), also one copy, one pass and one prefix sum.
    """
    r, groups = _horner_groups(denominator)
    m = len(groups) - 1
    back = max((i for (i, _), c in denominator.items() if c), default=0)
    rows: list[list[int] | None] = []
    for n in range(z_order + 1):
        acc = [0] * (u_order + 1)
        zero = True  # acc is still all zeros, and a prefix sum leaves it so
        for (i, j), c in numerator.items():
            if i == n and j <= u_order:
                acc[j] = c
                zero = False
        for e in range(m, -1, -1):
            for i, j, c in groups[e]:
                if i <= n:
                    prev = rows[n - i]  # prev[k] meets acc[j + k]; map stops at acc's end
                    if zero and c == -1:  # acc[j:] holds zeros: copy F_(n-i) there, cut to the row
                        acc[j:] = prev[: max(len(acc) - j, 0)]
                    elif c == 1:
                        acc[j:] = map(sub, acc[j:], prev)
                    elif c == -1:
                        acc[j:] = map(add, acc[j:], prev)
                    else:
                        acc[j:] = map(sub, acc[j:], map(mul, repeat(c), prev))
                    zero = False
            if e and not zero:
                acc = list(accumulate(acc))
        if r:
            for k in range(1, u_order + 1):
                acc[k] -= sum(c * acc[k - j] for j, c in r if j <= k)
        rows.append(acc)
        if n >= back:
            rows[n - back] = None  # no later row reads it
        yield acc


def _divide_table(numerator: Terms, denominator: Terms, z_order: int, u_order: int) -> BivarTable:
    """Table of numerator / denominator, its int rows kept as they come."""
    return BivarTable(tuple(map(tuple, _table_rows(numerator, denominator, z_order, u_order))))


# name -> (numerator, denominator) of the rational function, as Terms
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
BIVARIATE_NAMES = tuple(_TABLES)


def _diagonal(name: str, order: int) -> Series:
    """Entry n of row n of the named table, read off its rows one at a time."""
    rows = _table_rows(*_TABLES[name], order, order)
    return Series(tuple(row[n] for n, row in enumerate(rows)))


def bivariate(name: str, z_order: int, u_order: int) -> BivarTable:
    """Expand one of the rational multiset counters, named in BIVARIATE_NAMES, as a table."""
    _check_order(z_order, u_order)
    if name not in _TABLES:
        raise ValueError(f"unknown bivariate {name!r}")
    numerator, denominator = _TABLES[name]
    return _divide_table(numerator, denominator, z_order, u_order)


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
