"""Exact scalars: rationals and Gaussian rationals (a + bi with rational a, b).

All arithmetic in the library runs over this field, so every identity is
checked as an exact equality. There is no floating-point mode.

Function vectors keep their values as integer columns (numerators and
denominators) instead; ``parse_pairs`` reads the wire form straight into
them and ``sum_by_denominator`` adds a column of rationals denominator by
denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import floordiv

from .errors import ParseError

# [0-9], not \d, which also matches non-ASCII digits such as "٣"; used with
# fullmatch, since $ also matches before a final newline
_RAT_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
# a column of "num/den" wire rationals, each followed by a comma
_COLUMN_RE = re.compile(r"(?:[+-]?[0-9]+/[0-9]+,)*")
# values parsed at once by parse_pairs
_SLICE = 1024


class GaussianRational:
    """An exact complex number with rational real and imaginary parts.

    Immutable. Supports field arithmetic, conjugation, and the squared
    modulus; no square roots are ever materialized.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2 = re^2 + im^2; equals (z * z.conjugate()).re."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("0 + 0i has no multiplicative inverse")
        return GaussianRational(self.re / n, -self.im / n)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_pair(self) -> list:
        """Wire form: a pair of reduced "num/den" strings (integers drop "/1")."""
        return [str(self.re), str(self.im)]

    @classmethod
    def from_pair(cls, pair) -> "GaussianRational":
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(
                f"scalar must be a [re, im] pair of strings, got {pair!r}", value=pair
            )
        return cls(parse_rational(pair[0]), parse_rational(pair[1]))


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value, 0)
    return NotImplemented


def parse_rational(text) -> Fraction:
    """Parse "num/den" or the integer shorthand "3" (a JSON int is taken as is).

    Decimals, bools, non-ASCII digits and surrounding whitespace are refused,
    and so is an int with more digits than ``str`` writes back.
    """
    if type(text) is int:
        try:
            str(text)
        except ValueError:  # the message cannot show what str() refuses to write
            raise ParseError("rational int has too many digits") from None
        return Fraction(text)
    if type(text) is not str or not _RAT_RE.fullmatch(text):
        raise ParseError(
            f"rational must look like '3' or '-3/4', got {text!r}", value=text
        )
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"rational {text!r} has too many digits", value=text) from None
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}", value=text)
    return Fraction(num, den)


def parse_pairs(pairs):
    """The reduced columns (re_num, re_den, im_num, im_den) of a list of
    [re, im] wire pairs, read in a few C-level passes over each slice of
    ``_SLICE`` values, so that a parse holds one slice's transients.

    Returns None when some pair is off the wire format; ``from_pair`` then
    names the first bad value.
    """
    parts = []
    for start in range(0, len(pairs), _SLICE):
        part = _parse_slice(pairs[start : start + _SLICE])
        if part is None:
            return None
        parts.append(part)
    return tuple(tuple(chain.from_iterable(p[k] for p in parts)) for k in range(4))


def _parse_slice(pairs):
    if not ({list}.issuperset(map(type, pairs)) and {2}.issuperset(map(len, pairs))):
        return None
    flat = list(chain.from_iterable(pairs))
    if not {str, int}.issuperset(map(type, flat)):  # bools are refused here
        return None
    try:
        flat = [x if type(x) is str and "/" in x else f"{x}/1" for x in flat]
    except ValueError:  # an int with more digits than str() writes
        return None
    flat.append("")
    text = ",".join(flat)
    # each match ends in a comma, so as many commas as values means no value held one
    if text.count(",") != len(flat) - 1 or not _COLUMN_RE.fullmatch(text):
        return None
    parts = text.replace("/", ",").split(",")
    try:
        nums = list(map(int, parts[0:-1:2]))
        dens = list(map(int, parts[1::2]))
    except ValueError:  # more digits than int() converts
        return None
    if 0 in dens:
        return None
    nums, dens = reduced(nums, dens)
    return nums[0::2], dens[0::2], nums[1::2], dens[1::2]


def reduced(nums, dens):
    """nums[i]/dens[i] in lowest terms, as two tuples; dens must be positive."""
    nums, dens = list(nums), list(dens)
    common = list(map(gcd, nums, dens))
    return tuple(map(floordiv, nums, common)), tuple(map(floordiv, dens, common))


def sum_by_denominator(nums, dens) -> tuple:
    """The exact sum of nums[i]/dens[i] (positive dens) as (num, den) in
    lowest terms.

    One dict pass adds the numerators of each distinct denominator. The
    partial sums then meet as in a binary counter: two sums of 2^j
    denominators each are added over the lcm of theirs, so the lcm of all
    of them only appears in the last few additions. Nothing is scaled to
    the lcm of the whole column: with thousands of distinct prime
    denominators it has tens of thousands of bits, and adding the partial
    sums onto it one by one would cost a pass over it each.
    """
    by_den = {}
    get = by_den.get
    for num, den in zip(nums, dens):
        by_den[den] = get(den, 0) + num
    stack = []  # (count, den, num): sums of count denominators, counts decreasing
    for den, num in by_den.items():
        count = 1
        while stack and stack[-1][0] == count:
            _, d, n = stack.pop()
            g = gcd(d, den)
            den, num = d // g * den, n * (den // g) + num * (d // g)
            count *= 2
        stack.append((count, den, num))
    total, common = 0, 1
    for _, den, num in reversed(stack):
        g = gcd(common, den)
        total, common = total * (den // g) + num * (common // g), common // g * den
    g = gcd(total, common)
    return total // g, common // g
