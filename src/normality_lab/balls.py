"""Fixed-point ball arithmetic for certified orbit computation.

A `Ball` holds an integer midpoint and radius at a common binary scale
2**-prec, so every operation is big-integer arithmetic with explicit outward
rounding.  This is the workhorse behind the beta-transformation and power
orbits, where precision requirements grow linearly with orbit length.  A
value is read off as one correctly rounded int / int division, with no
Fraction and so no gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BallStraddlesCut, InvalidInput


@dataclass(frozen=True)
class Ball:
    """Certified enclosure [ (mid - rad) / 2**prec, (mid + rad) / 2**prec ]."""

    mid: int
    rad: int
    prec: int

    @classmethod
    def from_fraction(cls, x: Fraction, prec: int) -> "Ball":
        x = Fraction(x)
        scaled = x.numerator * (1 << prec)
        mid, rem = divmod(scaled, x.denominator)
        if rem == 0:
            return cls(mid, 0, prec)
        # round to nearest, one ulp of slack
        if 2 * rem >= x.denominator:
            mid += 1
        return cls(mid, 1, prec)

    @classmethod
    def from_interval(cls, lo: Fraction, hi: Fraction, prec: int) -> "Ball":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise InvalidInput("interval endpoints out of order")
        c = cls.from_fraction((lo + hi) / 2, prec)
        half = Fraction(hi - lo, 2)
        extra = -((-half.numerator * (1 << prec)) // half.denominator)  # ceil
        return cls(c.mid, c.rad + extra, prec)

    def value(self) -> Fraction:
        return Fraction(self.mid, 1 << self.prec)

    def radius(self) -> Fraction:
        return Fraction(self.rad, 1 << self.prec)

    def to_float(self) -> float:
        # int / int is correctly rounded: float(Fraction(...)) without a gcd
        return self.mid / (1 << self.prec)

    def mul(self, other: "Ball") -> "Ball":
        if self.prec != other.prec:
            raise InvalidInput("balls must share a precision")
        p = self.prec
        prod = self.mid * other.mid
        mid, rem = prod >> p, prod & ((1 << p) - 1)  # divmod by 2^p
        extra = 0
        if rem:
            extra = 1
            if 2 * rem >= (1 << p):
                mid += 1
        rad_exact = (abs(self.mid) * other.rad + abs(other.mid) * self.rad
                     + self.rad * other.rad)
        rad = -((-rad_exact) >> p) + extra  # ceil-shift plus rounding ulp
        return Ball(mid, rad, p)

    def sub_int(self, k: int) -> "Ball":
        return Ball(self.mid - (k << self.prec), self.rad, self.prec)

    def floor_split(self):
        """Certified (floor, fractional ball); raises when the enclosure
        straddles an integer cut."""
        lo = self.mid - self.rad
        hi = self.mid + self.rad
        k = lo >> self.prec
        if hi > ((k + 1) << self.prec) - 1:
            raise BallStraddlesCut(
                f"enclosure of width 2^{self.rad.bit_length() - self.prec} "
                f"straddles an integer")
        return k, self.sub_int(k)
