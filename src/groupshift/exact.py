"""Exact arithmetic over Q(sqrt(2)).

Event weights of the form 2**(-k/2) with odd k are irrational, so margin
computations cannot stay inside the rationals.  All of them live in the
quadratic field Q(sqrt(2)); this module provides the small amount of exact
arithmetic needed there.  A :class:`Quad` is three integers over one
common denominator, kept in lowest terms by :func:`lowest_terms`.  The
builders' numbers are dyadic, and for a power-of-two denominator that
reduction is a shift, so a product of ~3,000-bit margins runs no gcd.
Sign determination compares squares in plain integers (see
:meth:`Quad.sign`), so no floating point is ever consulted for a verdict.
:func:`parse_fraction` reads a number from text with a bound on its height.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .groups import FrozenRecord, ResourceLimitError


def lowest_terms(p: int, r: int, q: int) -> tuple[int, int, int]:
    """(p, r, q) divided by gcd(p, r, q), for q > 0.

    A power-of-two q has only the prime 2, so the common factor is the
    lowest set bit of p | r | q and is shifted out; other denominators
    take ``math.gcd``.  ``lowest_terms(n, 0, d)`` puts n/d in lowest terms.
    """
    if q & (q - 1):
        g = gcd(q, p, r)
        return p // g, r // g, q // g
    bits = p | r | q
    shift = (bits & -bits).bit_length() - 1
    return p >> shift, r >> shift, q >> shift


class Quad(FrozenRecord):
    """A number (p + r*sqrt(2)) / q with integers p, r and q.

    The form is canonical: q > 0 and gcd(p, r, q) = 1.  So equality and
    hash, which compare the fields, compare values.  ``Quad(a, b)`` is
    a + b*sqrt(2) for rationals a and b, which :attr:`a` and :attr:`b`
    give back as Fractions.

    Not a tuple: tuple's ``__gt__`` and ``__ge__`` would compare
    lexicographically where the reflected ``__lt__`` and ``__le__``
    below compare values.
    """

    __slots__ = _fields = ("p", "r", "q")

    def __init__(self, a: Fraction, b: Fraction = Fraction(0)):
        a, b = Fraction(a), Fraction(b)
        # With a and b in lowest terms, no prime divides p, r and q.
        q = lcm(a.denominator, b.denominator)
        self._set(a.numerator * (q // a.denominator),
                  b.numerator * (q // b.denominator), q)

    @classmethod
    def of(cls, value) -> "Quad":
        if isinstance(value, Quad):
            return value
        return cls(value)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.r, self.q)

    @property
    def is_rational(self) -> bool:
        return self.r == 0

    def height(self) -> int:
        """Bit length of max(|p|, |r|, q).

        Heights bound the size of exact results before they are built.  No
        integer of a Quad has more bits than its height, and with H = 2**h,
        h(x * y) <= h(x) + h(y) + 2 and h(x - y) <= h(x) + h(y) + 1: the
        new denominator divides q1 q2 < H1 H2, and each new numerator, such
        as p1 p2 + 2 r1 r2 or p1 q2 - p2 q1, is below 3 H1 H2 in absolute
        value (2 H1 H2 for a difference).
        """
        return max(abs(self.p), abs(self.r), self.q).bit_length()

    def __add__(self, other: "Quad") -> "Quad":
        other = Quad.of(other)
        q1, q2 = self.q, other.q
        return _quad(*lowest_terms(self.p * q2 + other.p * q1,
                                   self.r * q2 + other.r * q1, q1 * q2))

    def __sub__(self, other: "Quad") -> "Quad":
        other = Quad.of(other)
        q1, q2 = self.q, other.q
        return _quad(*lowest_terms(self.p * q2 - other.p * q1,
                                   self.r * q2 - other.r * q1, q1 * q2))

    def __mul__(self, other: "Quad") -> "Quad":
        other = Quad.of(other)
        p1, r1, p2, r2 = self.p, self.r, other.p, other.r
        pp, rr = p1 * p2, r1 * r2
        # p1 r2 + r1 p2 from one more product, not two.
        cross = (p1 + r1) * (p2 + r2) - pp - rr
        return _quad(*lowest_terms(pp + 2 * rr, cross, self.q * other.q))

    def __pow__(self, n: int) -> "Quad":
        if n < 0:
            raise ValueError("negative powers not supported")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def sign(self) -> int:
        """Exact sign of (p + r*sqrt(2)) / q: -1, 0 or 1.

        q > 0 cancels, so the signs of p and r settle every case but mixed
        signs.  There |p| and sqrt(2)|r| compare as X = |p| and sqrt(2) Y,
        Y = |r|, and no gcd runs, which matters for the ~6,000-bit margins
        of :func:`groupshift.lll.verify_condition`.  Bit lengths settle
        most of them: if X has at least two bits more than Y,
        X >= 2^(bl(Y)+1) > 2 Y, and if it has fewer bits, X < Y.  Only in
        between are the squares X**2 and 2 Y**2 compared.
        """
        p, r = self.p, self.r
        if p == 0 and r == 0:
            return 0
        if p >= 0 and r >= 0:
            return 1
        if p <= 0 and r <= 0:
            return -1
        x, y = abs(p), abs(r)
        gap = x.bit_length() - y.bit_length()
        if gap >= 2:
            rational = 1  # sign of X - sqrt(2) Y
        elif gap < 0:
            rational = -1
        else:
            diff = x * x - 2 * y * y
            rational = (diff > 0) - (diff < 0)
        return rational if p > 0 else -rational

    def __lt__(self, other) -> bool:
        return (self - Quad.of(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - Quad.of(other)).sign() <= 0

    def __float__(self) -> float:
        # Each true division is correctly rounded, as Fraction's is.
        return self.p / self.q + self.r / self.q * 2 ** 0.5


def _quad(p: int, r: int, q: int) -> Quad:
    """The Quad (p + r sqrt(2)) / q, with (p, r, q) in lowest terms."""
    x = object.__new__(Quad)
    x._set(p, r, q)
    return x


_ONE = _quad(1, 0, 1)


def half_power_of_two(k: int) -> Quad:
    """Exact 2**(-k/2) for a non-negative integer k."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    if k % 2 == 0:
        return _quad(1, 0, 2 ** (k // 2))
    # 2**(-k/2) = sqrt(2) / 2**((k+1)/2)
    return _quad(0, 1, 2 ** ((k + 1) // 2))


def sqrt2_power(k: int) -> Quad:
    """Exact 2**(k/2) for a non-negative integer k."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    if k % 2 == 0:
        return _quad(2 ** (k // 2), 0, 1)
    return _quad(0, 2 ** ((k - 1) // 2), 1)


#: A decimal exponent at the end of a number string, as Fraction reads it.
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def parse_fraction(value, height_limit: int) -> Fraction:
    """``Fraction(value)``; ResourceLimitError if its height (see
    :meth:`Quad.height`) exceeds ``height_limit``.

    ``Fraction("1e-100000000")`` would build 10**100000000 before any check
    could run, so a decimal exponent x is read first.  With s != 0 the value
    without it, s * 10**x has a height above 3|x| - h(s): its reduced
    denominator (x < 0) or numerator (x > 0) exceeds 10**|x| / 2**h(s).  A
    number that clears this bound has |x| below (height_limit + h(s)) / 3,
    and ``int``'s digit limit bounds h(s).
    """
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    bound = 0  # below the height of the value
    if exponent is not None:
        try:
            significand = Fraction(value[:exponent.start()] + "e0")
        except ValueError:  # so is value: let Fraction name it
            return Fraction(value)
        x = int(exponent[1])
        if not significand:  # Fraction would still build 10**|x|
            return significand
        bound = 3 * abs(x) - Quad(significand).height()
    if bound < height_limit:
        number = Fraction(value)
        if Quad(number).height() <= height_limit:
            return number
    raise ResourceLimitError(f"number {value!r:.40} has a height above "
                             f"{height_limit} bits")
