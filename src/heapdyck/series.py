"""Exact truncated power series over the rationals.

A Series holds Fraction coefficients for z^0 .. z^order; coefficients
beyond the order are unknown, never assumed zero, and every arithmetic
result carries the minimum order of its operands.  Square roots are taken
only of series with constant term 1, and the closed forms below divide
by their leading monomials through explicit valuation shifts, so the
whole module stays exact.

The quadratic kernels (product, quotient, square root, table division)
run on Python ints and build one normalised Fraction per output
coefficient.  Each operand becomes integer numerators over the lcm of its
denominators, and every convolution sum is taken in ints.  The quotient
and the square root keep the coefficients found so far as integer
numerators over one running denominator, which grows only when a new
coefficient's denominator does not divide it; a series with integer
coefficients, such as every closed form below, keeps denominator 1.  The
table divisors have constant term 1, so tables are computed in ints
throughout.

The four univariate closed forms count the heap classes by area:

    Ts: (1 - 2z - sqrt(1 - 4z)) / 2z          Catalan numbers
    T:  (1 - 4z - sqrt(1 - 4z)) / (8z - 2)    binomial(2n-1, n)
    Qs: (1 - z - sqrt(1 - 2z - 3z^2)) / 2z    Motzkin numbers, shifted
    Q:  (1 - 3z - sqrt(1 - 2z - 3z^2)) / (6z - 2)

Mdiag is the diagonal of the bivariate table f below; it coincides with Q.
The bivariate tables f (multisets without consecutive values, by size n
and bound k) and h (multisets repeating every value below the bound) are
expanded by bottom-up division with sparse polynomial denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import HeapdyckError

CLOSED_FORMS = ("Ts", "T", "Qs", "Q", "Mdiag")
BIVARIATE_NAMES = ("f", "h")

_ONE = Fraction(1)


class DivByNonUnitError(HeapdyckError, ZeroDivisionError):
    pass


class SqrtBadConstantError(HeapdyckError, ValueError):
    pass


def _over_lcm(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the coefficients over their least common denominator."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _extend(num: list[int], den: int, c: Fraction) -> int:
    """Append c to the numerators num over den, and return the denominator.

    The denominator grows only when c's does not divide it, and then to
    their lcm, so a series with integer coefficients keeps denominator 1.
    """
    q = c.denominator
    if den % q:
        scale = q // gcd(den, q)
        num[:] = [x * scale for x in num]
        den *= scale
    num.append(c.numerator * (den // q))
    return den


@dataclass(frozen=True)
class Series:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )
        if not self.coeffs:
            raise ValueError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond computed order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs[: n + 1])))

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs[: n + 1])))

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        a, da = _over_lcm(self.coeffs[: n + 1])
        b, db = _over_lcm(other.coeffs[: n + 1])
        b.reverse()  # b[n - k:] runs b_k, b_(k-1), .., b_0, to pair with a_0, a_1, ..
        d = da * db
        return Series(
            tuple(Fraction(sum(map(mul, a, b[n - k :])), d) for k in range(n + 1))
        )

    def __truediv__(self, other: "Series") -> "Series":
        if other.coeffs[0] == 0:
            raise DivByNonUnitError("divisor has zero constant term")
        n = min(self.order, other.order)
        a, da = _over_lcm(self.coeffs[: n + 1])
        b, db = _over_lcm(other.coeffs[: n + 1])
        # out_k = (a_k - sum_j b_j out_(k-j)) / b_0, with out_i = num[i] / den
        tail = b[1:]
        num: list[int] = []
        den = 1
        out = []
        for k in range(n + 1):
            acc = sum(map(mul, tail, reversed(num)))
            c = Fraction(a[k] * db * den - da * acc, da * den * b[0])
            den = _extend(num, den, c)
            out.append(c)
        return Series(tuple(out))

    def sqrt(self) -> "Series":
        if self.coeffs[0] != 1:
            raise SqrtBadConstantError("square root needs constant term 1")
        a, da = _over_lcm(self.coeffs)
        # out_k = (a_k - sum_(0<j<k) out_j out_(k-j)) / 2, with out_i = num[i] / den;
        # the sum pairs each j with k - j, so it runs over half the terms
        num = [1]
        den = 1
        out = [_ONE]
        for k in range(1, self.order + 1):
            half = sum(map(mul, num[1 : (k + 1) // 2], reversed(num)))
            acc = 2 * half + (num[k // 2] ** 2 if k % 2 == 0 else 0)
            c = Fraction(a[k] * den * den - da * acc, 2 * da * den * den)
            den = _extend(num, den, c)
            out.append(c)
        return Series(tuple(out))

    def shift_down(self, k: int) -> "Series":
        """Divide by z^k, requiring the low coefficients to vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"series has valuation below {k}")
        return Series(self.coeffs[k:])

    def scale(self, factor: Fraction | int) -> "Series":
        f = Fraction(factor)
        return Series(tuple(c * f for c in self.coeffs))

    def format_terms(self, start: int = 0) -> str:
        lines = []
        for n, c in enumerate(self.coeffs):
            if n < start:
                continue
            if c.denominator == 1:
                lines.append(f"{n}\t{c.numerator}")
            else:
                lines.append(f"{n}\t{c.numerator}/{c.denominator}")
        return "\n".join(lines)


def from_ints(values: Iterable[int]) -> Series:
    return Series(tuple(Fraction(v) for v in values))


def _check_order(*orders: int) -> None:
    for order in orders:
        if order < 0:
            raise ValueError(f"order {order} is negative")


def polynomial(coeffs: Sequence[int | Fraction], order: int) -> Series:
    _check_order(order)
    out = [Fraction(0)] * (order + 1)
    for i, c in enumerate(coeffs):
        if i > order:
            if c != 0:
                raise ValueError("polynomial degree beyond requested order")
            continue
        out[i] = Fraction(c)
    return Series(tuple(out))


def closed_form(name: str, order: int) -> Series:
    """One of the five named area series, computed to the given order."""
    if name not in CLOSED_FORMS:
        raise ValueError(f"unknown series {name!r}")
    _check_order(order)
    if name == "Mdiag":
        return bivariate("f", order, order).diagonal()
    n = order + 1
    if name in ("Ts", "T"):
        root = polynomial([1, -4], n).sqrt()
        if name == "Ts":
            return (polynomial([1, -2], n) - root).shift_down(1).scale(Fraction(1, 2))
        return ((polynomial([1, -4], n) - root) / polynomial([-2, 8], n)).truncate(order)
    root = polynomial([1, -2, -3], max(n, 2)).sqrt()  # the radicand needs order 2
    if name == "Qs":
        return (polynomial([1, -1], n) - root).shift_down(1).scale(Fraction(1, 2))
    return ((polynomial([1, -3], n) - root) / polynomial([-2, 6], n)).truncate(order)


@dataclass(frozen=True)
class BivarTable:
    """Coefficients c[n][k] of z^n u^k, exact, up to fixed z and u orders."""

    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def z_order(self) -> int:
        return len(self.rows) - 1

    @property
    def u_order(self) -> int:
        return len(self.rows[0]) - 1

    def coefficient(self, n: int, k: int) -> Fraction:
        return self.rows[n][k]

    def diagonal(self) -> Series:
        n = min(self.z_order, self.u_order)
        return Series(tuple(self.rows[i][i] for i in range(n + 1)))


def _divide_table(
    numerator: dict[tuple[int, int], int],
    denominator: dict[tuple[int, int], int],
    z_order: int,
    u_order: int,
) -> BivarTable:
    """Integer table of numerator / denominator; the denominator's constant term is 1."""
    d00 = denominator.get((0, 0), 0)
    if d00 != 1:
        raise DivByNonUnitError(f"bivariate divisor has constant term {d00}, not 1")
    terms = [(i, j, c) for (i, j), c in denominator.items() if (i, j) != (0, 0)]
    rows: list[list[int]] = []
    for n in range(z_order + 1):
        row: list[int] = []
        for k in range(u_order + 1):
            acc = numerator.get((n, k), 0)
            for i, j, c in terms:
                if i <= n and j <= k:
                    acc -= c * (rows[n - i] if i else row)[k - j]
            row.append(acc)
        rows.append(row)
    return BivarTable(tuple(tuple(map(Fraction, row)) for row in rows))


# name -> (numerator, denominator) of the rational function, as {(z, u) power: coefficient}
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


def bivariate(name: str, z_order: int, u_order: int) -> BivarTable:
    """Expand one of the two rational multiset counters as a table."""
    _check_order(z_order, u_order)
    if name not in _TABLES:
        raise ValueError(f"unknown bivariate {name!r}")
    numerator, denominator = _TABLES[name]
    return _divide_table(numerator, denominator, z_order, u_order)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    detail: str


def check_identities(order: int) -> list[IdentityCheck]:
    """Verify the constructor equations and diagonal identities to an order."""
    _check_order(order)
    n = order

    def poly(coeffs: list[int]) -> Series:
        return polynomial(coeffs, max(n, len(coeffs) - 1)).truncate(n)

    z = poly([0, 1])
    one = poly([1])
    ts = closed_form("Ts", n)
    t = closed_form("T", n)
    qs = closed_form("Qs", n)
    q = closed_form("Q", n)
    checks = []

    def record(name: str, lhs: Series, rhs: Series) -> None:
        same = lhs.coeffs[: n + 1] == rhs.coeffs[: n + 1]
        checks.append(
            IdentityCheck(name, same, f"orders 0..{min(lhs.order, rhs.order)} compared")
        )

    record("Ts = z(1+Ts)^2", ts, z * (one + ts) * (one + ts))
    record("Qs = z(1+Qs+Qs^2)", qs, z * (one + qs + qs * qs))
    record("T = Ts(1+T)", t, ts * (one + t))
    record("Q = Qs(1+Q)", q, qs * (one + q))
    for coeffs in ([1, -4], [1, -2, -3]):
        radicand = poly(coeffs)
        root = radicand.sqrt()
        record(f"sqrt{tuple(coeffs)} squares back", root * root, radicand)
    record("diagonal(f) = Q", bivariate("f", n, n).diagonal(), q)
    record("diagonal(h) = Q", bivariate("h", n, n).diagonal(), q)
    return checks
