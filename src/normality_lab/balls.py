"""Fixed-point ball arithmetic for certified orbit computation.

A ball is a bare pair of integers (mid, rad) at a common binary scale
2**-prec: the enclosure [(mid - rad) / 2**prec, (mid + rad) / 2**prec].
Every operation is big-integer arithmetic with explicit outward rounding.
This is the workhorse behind the beta-transformation and power orbits,
where precision requirements grow linearly with orbit length.

Three integer kernels hold all of it: :func:`interval_ints` builds the
ball of a rational interval, :func:`mul_ints` is the one rounded multiply
and :func:`floor_int` the certified floor.  None of them builds a Fraction,
so none runs a gcd; a value is read off as one correctly rounded
int / int division, mid / 2**prec.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BallStraddlesCut, InvalidInput


def interval_ints(lo, hi, prec: int) -> tuple:
    """(mid, rad) of the ball of the rational interval [lo, hi] at the scale
    2**-prec: the midpoint (lo + hi) / 2 rounded to nearest (ties up), the
    radius the half-width rounded up plus one ulp when the midpoint was
    rounded.  With lo = a / c and hi = b / d both ends are read over the
    common denominator c d."""
    a, c = lo.numerator, lo.denominator
    b, d = hi.numerator, hi.denominator
    den, lo_num, hi_num = c * d, a * d, b * c
    if lo_num > hi_num:
        raise InvalidInput("interval endpoints out of order")
    mid, rem = divmod((lo_num + hi_num) << prec, 2 * den)
    rad = -((-(hi_num - lo_num) << prec) // (2 * den))  # ceil
    if rem:
        rad += 1
        if rem >= den:  # rem / (2 den) >= 1/2
            mid += 1
    return mid, rad


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


# No code of the package builds a `Ball`.  The benchmark's tracer patches
# `Ball.mul` on the class, so the class and its multiply stay until the
# library owns its trace layer (ROADMAP, "One trace layer").
@dataclass(frozen=True)
class Ball:
    """Certified enclosure [ (mid - rad) / 2**prec, (mid + rad) / 2**prec ]."""

    mid: int
    rad: int
    prec: int

    def mul(self, other: "Ball") -> "Ball":
        """The product ball, by :func:`mul_ints`."""
        if self.prec != other.prec:
            raise InvalidInput("balls must share a precision")
        return Ball(*mul_ints(self.mid, self.rad, other.mid, other.rad,
                              self.prec), self.prec)
