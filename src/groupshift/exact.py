"""Exact arithmetic over Q(sqrt(2)).

Event weights of the form 2**(-k/2) with odd k are irrational, so margin
computations cannot stay inside the rationals.  All of them live in the
quadratic field Q(sqrt(2)); this module provides the small amount of exact
arithmetic needed there.  Sign determination compares squares in plain
integers (see :meth:`Quad.sign`), so no floating point is ever consulted for
a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class Quad:
    """A number a + b*sqrt(2) with exact rational coefficients."""

    a: Fraction
    b: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "Quad":
        if isinstance(value, Quad):
            return value
        return cls(Fraction(value))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def height(self) -> int:
        """Bit length of max(|p|, |r|, q), where (p + r sqrt(2)) / q is
        the number in lowest terms.

        Heights bound the size of exact results before they are built.  No
        integer of a Quad has more bits than its height, and with H = 2**h,
        h(x * y) <= h(x) + h(y) + 2 and h(x - y) <= h(x) + h(y) + 1: the
        new denominator divides q1 q2 < H1 H2, and each new numerator, such
        as p1 p2 + 2 r1 r2 or p1 q2 - p2 q1, is below 3 H1 H2 in absolute
        value (2 H1 H2 for a difference).
        """
        q = lcm(self.a.denominator, self.b.denominator)
        p = self.a.numerator * (q // self.a.denominator)
        r = self.b.numerator * (q // self.b.denominator)
        return max(abs(p), abs(r), q).bit_length()

    def __add__(self, other: "Quad") -> "Quad":
        other = Quad.of(other)
        return Quad(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Quad") -> "Quad":
        other = Quad.of(other)
        return Quad(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "Quad") -> "Quad":
        other = Quad.of(other)
        return Quad(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __pow__(self, n: int) -> "Quad":
        if n < 0:
            raise ValueError("negative powers not supported")
        result = Quad(Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(2): -1, 0 or 1.

        With a = p/q and b = r/s in lowest terms (q, s > 0), the signs of p
        and r settle every case but mixed signs.  There |a| and sqrt(2)|b|
        are compared through their squares, a**2 - 2 b**2, which has the
        sign of the integer (p s)**2 - 2 (r q)**2: no Fraction is built and
        no gcd runs, which matters for the ~6,000-bit margins of
        :func:`groupshift.lll.verify_condition`.
        """
        p, r = self.a.numerator, self.b.numerator
        if p == 0 and r == 0:
            return 0
        if p >= 0 and r >= 0:
            return 1
        if p <= 0 and r <= 0:
            return -1
        diff = (p * self.b.denominator) ** 2 - 2 * (r * self.a.denominator) ** 2
        if p > 0:  # r < 0
            return 1 if diff > 0 else (-1 if diff < 0 else 0)
        return -1 if diff > 0 else (1 if diff < 0 else 0)

    def __lt__(self, other) -> bool:
        return (self - Quad.of(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - Quad.of(other)).sign() <= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 2 ** 0.5


def half_power_of_two(k: int) -> Quad:
    """Exact 2**(-k/2) for a non-negative integer k."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    if k % 2 == 0:
        return Quad(Fraction(1, 2 ** (k // 2)))
    # 2**(-k/2) = sqrt(2) / 2**((k+1)/2)
    return Quad(Fraction(0), Fraction(1, 2 ** ((k + 1) // 2)))


def sqrt2_power(k: int) -> Quad:
    """Exact 2**(k/2) for a non-negative integer k."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    if k % 2 == 0:
        return Quad(Fraction(2 ** (k // 2)))
    return Quad(Fraction(0), Fraction(2 ** ((k - 1) // 2)))
