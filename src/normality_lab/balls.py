"""Fixed-point ball arithmetic for certified orbit computation.

A `Ball` holds an integer midpoint and radius at a common binary scale
2**-prec, so every operation is big-integer arithmetic with explicit outward
rounding.  This is the workhorse behind the beta-transformation and power
orbits, where precision requirements grow linearly with orbit length.  A
value is read off as one correctly rounded int / int division, with no
Fraction and so no gcd.

The arithmetic itself lives in two integer kernels on bare (mid, rad)
pairs: :func:`mul_ints`, the one rounded multiply, and :func:`floor_int`,
the certified floor.  `Ball.mul` and `Ball.floor_split` wrap them, and the
orbit loop steps bare integers through them with no `Ball` per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BallStraddlesCut, InvalidInput


def mul_ints(am: int, ar: int, bm: int, br: int, prec: int) -> tuple:
    """(mid, rad) of the product of two balls (am, ar) and (bm, br) at the
    scale 2**-prec: the midpoint product rounded to nearest (ties up), the
    radius the exact cross terms rounded up plus one ulp when the midpoint
    was rounded."""
    prod = am * bm
    mid = prod >> prec
    rem = prod - (mid << prec)  # prod mod 2^prec
    rad = -(-(abs(am) * br + abs(bm) * ar + ar * br) >> prec)  # ceil-shift
    if rem:
        rad += 1
        if rem >> (prec - 1):  # 2 rem >= 2^prec
            mid += 1
    return mid, rad


def floor_int(mid: int, rad: int, prec: int) -> int:
    """Certified floor of the ball (mid, rad) at scale 2**-prec; raises
    BallStraddlesCut when the enclosure straddles an integer cut."""
    k = (mid - rad) >> prec
    if mid + rad > ((k + 1) << prec) - 1:
        raise BallStraddlesCut(
            f"enclosure of width 2^{rad.bit_length() - prec} "
            f"straddles an integer")
    return k


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
        """The product ball, by :func:`mul_ints`."""
        if self.prec != other.prec:
            raise InvalidInput("balls must share a precision")
        return Ball(*mul_ints(self.mid, self.rad, other.mid, other.rad,
                              self.prec), self.prec)

    def sub_int(self, k: int) -> "Ball":
        return Ball(self.mid - (k << self.prec), self.rad, self.prec)

    def floor_split(self):
        """Certified (floor, fractional ball); raises when the enclosure
        straddles an integer cut (:func:`floor_int`)."""
        k = floor_int(self.mid, self.rad, self.prec)
        return k, self.sub_int(k)
