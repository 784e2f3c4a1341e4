"""Arithmetic classifiers for normality obstructions.

Three decision procedures, all exact:

* log-commensurability of a rational contraction ratio with an integer base,
  decided over a coprime base built with gcds alone (no factoring);
* Pisot certification of a monic integer polynomial: Sturm isolation of
  its real roots, and root counts in disks |z| < r (Routh-Hurwitz by
  Cauchy indices, on the same Sturm chains) for its complex conjugates;
* the obstruction-form check of a system against a base b (slope
  commensurability plus the translation form k / b^j), applied to the
  hull-normalized system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import InvalidInput, NotAlgebraicInteger, ReduciblePolynomial
from .ifs import AffineMap, SelfSimilarSystem, normalize


def _strip(x: int, g: int) -> tuple:
    """(k, x / g^k) for the largest k with g^k dividing x (x >= 1, g >= 2),
    in O(log k) divisions: g^2 is stripped first, recursively, and what is
    left holds at most one more factor g."""
    if x % g:
        return 0, x
    k, x = _strip(x, g * g)
    if x % g == 0:
        return 2 * k + 1, x // g
    return 2 * k, x


def _coprime_base(values) -> list:
    """Pairwise coprime integers > 1 whose powers give every value, by gcds
    alone: a value x sharing g > 1 with an element y is replaced, with y, by
    g and the cofactors of x and y free of g.  The product of all numbers
    held drops by g or more each time, so at most log2 of it steps run."""
    base, todo = [], list(values)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, y in enumerate(base):
            g = gcd(x, y)
            if g > 1:
                del base[i]
                todo += [g, _strip(x, g)[1], _strip(y, g)[1]]
                break
        else:
            base.append(x)
    return base


@dataclass(frozen=True)
class CommensurabilityResult:
    """Outcome of the log|s| / log b rationality test, with its value if
    rational."""

    commensurable: bool
    ratio: Optional[Fraction]


def log_commensurable(s, b: int) -> CommensurabilityResult:
    """Decide whether log|s| / log b is rational, for rational s, integer b >= 2.

    Over a pairwise coprime base of |s|'s numerator, its denominator and b,
    |s| = prod q^e_q and b = prod q^f_q with unique exponents, so the ratio
    is rational exactly when the vectors e and f are parallel, and is then
    their common ratio.  No integer is factored: every input is decided.
    """
    s = Fraction(s)
    if not isinstance(b, int) or b < 2:
        raise InvalidInput("base b must be an integer >= 2")
    if s == 0 or abs(s) == 1:
        raise InvalidInput("s must satisfy s != 0 and |s| != 1")
    num, den = abs(s.numerator), s.denominator
    vectors = [(_strip(num, q)[0] - _strip(den, q)[0], _strip(b, q)[0])
               for q in _coprime_base([num, den, b])]
    e0, f0 = next(v for v in vectors if v[1] != 0)
    if any(e * f0 != e0 * f for e, f in vectors):
        return CommensurabilityResult(False, None)
    return CommensurabilityResult(True, Fraction(e0, f0))


# ----------------------------------------------------------- real root tools

def poly_eval(coeffs: Sequence, x: Fraction) -> Fraction:
    """Horner evaluation; `coeffs` are listed from the leading term down."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_deriv(coeffs: Sequence) -> list:
    d = len(coeffs) - 1
    return [c * (d - i) for i, c in enumerate(coeffs[:-1])]


def _trim(poly) -> list:
    """The coefficients without leading zeros ([] for the zero polynomial)."""
    poly = list(poly)
    while poly and poly[0] == 0:
        poly.pop(0)
    return poly


def _poly_rem(num, den):
    """Remainder of polynomial division over Q (descending coefficients)."""
    num = list(num)
    dn = len(den)
    while len(num) >= dn:
        q = num[0] / den[0]
        for i in range(1, dn):
            num[i] -= q * den[i]
        num = _trim(num[1:])
    return num


def _sturm_chain(a: Sequence, b: Sequence) -> list:
    """The signed remainder sequence a, b, -rem(a, b), ... up to its last
    nonzero entry, a gcd of a and b.  Its sign variations at x less those
    at y > x are the Cauchy index of b / a on (x, y] (Sturm: b = a' counts
    the distinct roots of a)."""
    chain = [[Fraction(c) for c in _trim(a)], [Fraction(c) for c in _trim(b)]]
    while chain[-1]:
        chain.append([-c for c in _poly_rem(chain[-2], chain[-1])])
    return chain[:-1]


def _changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_changes(chain, x: Fraction) -> int:
    return _changes(poly_eval(poly, x) for poly in chain)


def _line_index(a: Sequence, b: Sequence) -> tuple:
    """(Cauchy index of b / a over the whole line, a gcd of a and b): the
    chain's sign variations at -inf less those at +inf, read off the
    leading terms."""
    chain = _sturm_chain(a, b)
    at_minus_inf = _changes(c[0] if len(c) % 2 else -c[0] for c in chain)
    return at_minus_inf - _changes(c[0] for c in chain), chain[-1]


def count_real_roots(coeffs: Sequence, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi], by Sturm's theorem."""
    chain = _sturm_chain(coeffs, poly_deriv(coeffs))
    return _sign_changes(chain, Fraction(lo)) - _sign_changes(chain, Fraction(hi))


def cauchy_bound(coeffs: Sequence) -> Fraction:
    if len(coeffs) <= 1:
        return Fraction(1)
    lead = coeffs[0]
    return 1 + max(Fraction(abs(c)) / abs(lead) for c in coeffs[1:])


def isolate_real_roots(coeffs: Sequence) -> list:
    """Disjoint rational intervals (lo, hi], one simple real root in each."""
    chain = _sturm_chain(coeffs, poly_deriv(coeffs))
    bound = cauchy_bound(coeffs)
    out = []

    def split(lo, hi, nlo, nhi):
        k = nlo - nhi
        if k == 0:
            return
        if k == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        # nudge off a root so interval endpoints stay regular
        while poly_eval(coeffs, mid) == 0:
            mid += (hi - lo) / 1000003
        nm = _sign_changes(chain, mid)
        split(lo, mid, nlo, nm)
        split(mid, hi, nm, nhi)

    split(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))
    return sorted(out)


def refine_real_root(coeffs: Sequence, lo: Fraction, hi: Fraction,
                     eps: Fraction) -> tuple:
    """Shrink an isolating interval to width <= eps: the cell of exact
    bisection, reached by sign-checked Newton steps when the bracket holds
    one root.

    The interval is kept as integers [a / D, b / D] with D = d0 2^k at level
    k, and p is signed by integer Horner on D^deg L p(a / D), L the lcm of
    the coefficient denominators, so no Fraction is normalised in the loop.
    Bisection ends in the level-K cell that holds the root, K the least level
    of width <= eps.  When Sturm's count finds one root in (lo, hi], a
    Newton step from the cell's midpoint picks the cell at about twice the
    level instead; it is kept only when p has opposite nonzero signs at its
    two ends, after at most one move to the neighbouring cell, and otherwise
    one bisection step is taken.  Either way the result is bisection's.
    Returns (lo, hi), or (r, r) when an endpoint or a midpoint r is a root.
    """
    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    coeffs = [Fraction(c) for c in coeffs]
    lcm_den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (lcm_den // c.denominator) for c in coeffs]
    d0 = lcm(lo.denominator, hi.denominator)
    # at x = a / (d0 2^k) the t-th coefficient, leading first, carries
    # (d0 2^k)^t
    scaled = [c * d0 ** t for t, c in enumerate(ints)]

    def sign(a: int, k: int) -> int:
        acc = 0
        for t, c in enumerate(scaled):
            acc = acc * a + (c << (k * t))
        return (acc > 0) - (acc < 0)

    a = lo.numerator * (d0 // lo.denominator)
    b = hi.numerator * (d0 // hi.denominator)
    slo, shi = sign(a, 0), sign(b, 0)
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise InvalidInput("interval endpoints must bracket a sign change")
    w = b - a
    over, unit = w * eps.denominator, eps.numerator * d0
    newton = unit > 0 and over > unit and count_real_roots(coeffs, lo, hi) == 1
    if newton:
        last = (-(-over // unit) - 1).bit_length()  # K: over <= unit 2^K
    k = 0
    while over > unit << k:
        mid = 2 * a + w  # the cell's midpoint, at level k + 1
        f = df = 0
        for t, c in enumerate(scaled):
            df = df * mid + f
            f = f * mid + (c << ((k + 1) * t))
        if f == 0:
            root = Fraction(mid, d0 << (k + 1))
            return root, root
        if newton and df:
            up = min(last, 2 * k + 1)
            # the level-`up` cell under the Newton point mid - f / df,
            # clamped to the current cell
            i = ((((mid * df - f) << (up - k - 1)) - (a << (up - k)) * df)
                 // (df * w))
            x = (a << (up - k)) + min(max(i, 0), (1 << (up - k)) - 1) * w
            s0 = sign(x, up)
            s1 = s0 and sign(x + w, up)
            if s0 == -slo and s1:  # overshoot: the root lies left
                x, s0, s1 = x - w, sign(x - w, up), s0
            elif s1 == slo:  # the root lies right
                x, s0, s1 = x + w, s1, sign(x + 2 * w, up)
            if s0 == 0 or s1 == 0:
                root = Fraction(x if s0 == 0 else x + w, d0 << up)
                return root, root
            if s0 == slo and s1 != slo:
                a, k = x, up
                continue
        # one bisection step; f signs the midpoint
        a = mid if (f > 0) == (slo > 0) else 2 * a
        k += 1
    return Fraction(a, d0 << k), Fraction(a + w, d0 << k)


@dataclass(frozen=True)
class AlgebraicReal:
    """A real algebraic number pinned down by a polynomial and an enclosure.

    The polynomial need not be minimal, but [lo, hi] must hold exactly one
    real root, and it must be simple (a sign change); the first is checked
    here by Sturm's theorem, the second when the root is refined.
    """

    coeffs: tuple
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if len(self.coeffs) < 2 or self.coeffs[0] == 0:
            raise InvalidInput(
                "need a polynomial of degree >= 1, leading coefficient first")
        roots = (count_real_roots(self.coeffs, self.lo, self.hi)
                 + (poly_eval(self.coeffs, Fraction(self.lo)) == 0))
        if roots != 1:
            raise InvalidInput(
                f"[{self.lo}, {self.hi}] must hold exactly one real root of "
                f"{self.coeffs}; it holds {max(roots, 0)}")

    def refine(self, eps) -> tuple:
        return refine_real_root(self.coeffs, self.lo, self.hi, eps)


# ------------------------------------------------------- Pisot certification

@dataclass(frozen=True)
class PisotReport:
    polynomial: tuple
    dominant_root: Optional[tuple]   # rational enclosure (lo, hi), root > 1
    conjugate_moduli: tuple          # rational enclosures (lo, hi) per conjugate
    is_pisot: bool
    reciprocal: bool = False


def _abs_interval(iv) -> tuple:
    lo, hi = iv
    if hi < 0:
        return (-hi, -lo)
    if lo > 0:
        return (lo, hi)
    return (Fraction(0), max(-lo, hi))


def _straddles_one(iv) -> bool:
    return iv[0] <= 1 <= iv[1]


def count_roots_in_disk(coeffs: Sequence, r) -> Optional[int]:
    """Number of roots of p, with multiplicity, of modulus < r (rational
    r > 0); None when some root has modulus exactly r.

    z = r (1 + w) / (1 - w) maps Re w < 0 onto |z| < r, so this counts the
    roots in the left half-plane of h(w) = (1 - w)^d p(r (1 + w) / (1 - w)),
    scaled to integers by den(r)^d.  A root z = -r lowers deg h: None.
    Otherwise, with h(iy) = P(y) + i Q(y), each root left of the axis adds
    pi to arg h(iy) as y runs over the line and each root right of it takes
    pi away, so the count is (d + s) / 2 with s = -Ind(Q / P) when
    deg P > deg Q and Ind(P / Q) otherwise (Routh-Hurwitz by Cauchy indices:
    Gantmacher, The Theory of Matrices II, ch. XV).  A common root of P and
    Q that is real is a root of h on the axis, a root of p on |z| = r:
    None.  The other common roots come from roots of h mirrored in the axis
    (of p mirrored in the circle, as for a reciprocal p at r = 1), one on
    each side, which leaves the count exact.
    """
    coeffs, r = _trim(coeffs), Fraction(r)
    a, b = r.numerator, r.denominator
    # homogeneous Horner: h = sum_k c_k (a (1 + w))^(d-k) (b (1 - w))^k,
    # c_0 the leading coefficient; f (u w + v) is u f + v (f shifted)
    h, y_pow = [coeffs[0]], [1]
    for c in coeffs[1:]:
        y_pow = [b * (t - s) for s, t in zip(y_pow + [0], [0] + y_pow)]
        h = [a * (s + t) + c * v
             for s, t, v in zip(h + [0], [0] + h, y_pow)]
    h = _trim(h)
    if len(h) < len(coeffs):
        return None
    d = len(h) - 1
    # (iy)^j = i^j y^j: even powers go to P, odd ones to Q, sign (-1)^(j//2)
    pq = ([0] * (d + 1), [0] * (d + 1))
    for j, c in enumerate(reversed(h)):
        pq[j % 2][d - j] = c if j % 4 < 2 else -c
    # the part of degree d first: s = -Ind(Q / P) for even d, Ind(P / Q) else
    index, gcd_pq = _line_index(pq[d % 2], pq[1 - d % 2])
    if _line_index(gcd_pq, poly_deriv(gcd_pq))[0]:
        return None
    return (d + (index if d % 2 else -index)) // 2


def is_pisot(coeffs: Sequence) -> PisotReport:
    """Decide whether a monic irreducible integer polynomial defines a Pisot
    number: a real root > 1 all of whose algebraic conjugates have modulus
    strictly below 1.

    Real roots are isolated by exact Sturm bisection and refined by integer
    bisection (:func:`refine_real_root`) until each |root| is decisively
    above or below 1.  The non-real roots of modulus < r number
    :func:`count_roots_in_disk` less the real roots in (-r, r), and r is
    bisected on that count from (0, Cauchy bound) until each enclosure of
    their moduli excludes 1.  A conjugate on the unit circle, which the
    count at r = 1 detects exactly, stops the bisection at width 2^-64
    instead.  The verdict: a dominant real root > 1, and every conjugate
    enclosure below 1.  Everything is exact, so every input is decided.
    """
    coeffs = [int(c) for c in coeffs]
    if len(coeffs) < 2:
        raise InvalidInput("polynomial must have degree >= 1")
    if coeffs[0] != 1:
        raise NotAlgebraicInteger("polynomial must be monic")
    import sympy  # imported on first use: it dominates the package import
    poly = sympy.Poly(coeffs, sympy.Symbol("x"))
    if not poly.is_irreducible:
        raise ReduciblePolynomial(f"{poly.as_expr()} factors over Q")
    coeffs = tuple(coeffs)
    degree = len(coeffs) - 1

    if degree == 1:
        root = Fraction(-coeffs[1])
        dominant = (root, root) if root > 1 else None
        return PisotReport(coeffs, dominant, (), root > 1)

    # Real roots, refined until each |root| is decisively above or below 1
    # (irreducibility rules out roots exactly at +-1, so this terminates).
    eps = width = Fraction(1, 1 << 64)
    refined = [refine_real_root(coeffs, lo, hi, eps)
               for lo, hi in isolate_real_roots(coeffs)]
    while any(_straddles_one(_abs_interval(iv)) for iv in refined):
        eps /= 1 << 32
        refined = [refine_real_root(coeffs, lo, hi, eps) for lo, hi in refined]
    above_one = [iv for iv in refined if iv[0] > 1]
    dominant = max(above_one, key=lambda iv: iv[0]) if above_one else None

    def complex_inside(r):
        inside = count_roots_in_disk(coeffs, r)
        return None if inside is None else (
            inside - count_real_roots(coeffs, -r, r))

    # no root lies on a circle through an endpoint, so the roots counted
    # between two endpoints lie strictly between them
    on_circle = count_roots_in_disk(coeffs, 1) is None
    moduli = []

    def split(lo, hi, n_lo, n_hi):
        if n_lo == n_hi:
            return
        if not _straddles_one((lo, hi)) or (on_circle and hi - lo <= width):
            moduli.extend([(lo, hi)] * (n_hi - n_lo))
            return
        mid = (lo + hi) / 2
        while (n_mid := complex_inside(mid)) is None:
            mid += (hi - lo) / 1000003
        split(lo, mid, n_lo, n_mid)
        split(mid, hi, n_mid, n_hi)

    split(Fraction(0), cauchy_bound(coeffs), 0, degree - len(refined))
    conj = moduli + [_abs_interval(iv) for iv in refined if iv is not dominant]
    verdict = dominant is not None and all(hi < 1 for _, hi in conj)
    # x^d p(1/x) == p(0) p(x): the roots pair z <-> 1/z
    p0 = coeffs[-1]
    reciprocal = abs(p0) == 1 and coeffs[::-1] == tuple(p0 * c for c in coeffs)
    return PisotReport(coeffs, dominant, tuple(conj), verdict, reciprocal)


# --------------------------------------------------------- obstruction check

class ObstructionVerdict(Enum):
    MATCHES_OBSTRUCTION_FORM = "MatchesObstructionForm"
    FAILS_ITEM1 = "FailsItem1"
    FAILS_ITEM2 = "FailsItem2"


@dataclass(frozen=True)
class MapObstruction:
    index: int                        # 1-based map index
    slope: Fraction
    offset: Fraction                  # offset of the conjugated map
    commensurability: CommensurabilityResult
    translation_form: bool            # offset == k / b^j, integer k, j >= 0
    translation_exponent: Optional[int]


@dataclass(frozen=True)
class ObstructionReport:
    base: int
    conjugator: AffineMap
    per_map: tuple
    verdict: ObstructionVerdict


def _translation_form(t: Fraction, b: int):
    """Check t = k / b^j with integers k and j >= 0 (equivalently: every prime
    of the reduced denominator divides b); returns (ok, minimal j)."""
    # over a coprime base, the denominator prod q^e_q divides
    # b^j = prod q^(j f_q) exactly when every e_q <= j f_q
    j = 0
    for q in _coprime_base([t.denominator, b]):
        e, f = _strip(t.denominator, q)[0], _strip(b, q)[0]
        if f == 0:  # q divides the denominator only
            return False, None
        j = max(j, -(-e // f))
    return True, j


def classify_obstruction(system: SelfSimilarSystem, b: int) -> ObstructionReport:
    """Check the algebraic obstruction form for base b on the conjugated system.

    Item 1: every slope log-commensurable with b.  Item 2: every conjugated
    translation of the form k / b^j.  Applied to the hull-normalized system.
    All parameters here are rational; irrational translation structure is
    outside this classifier.
    """
    if not isinstance(b, int) or b < 2:
        raise InvalidInput("base b must be an integer >= 2")
    conj, g = normalize(system)
    per_map = []
    for i, m in enumerate(conj.maps, start=1):
        comm = log_commensurable(m.slope, b)
        tform, j = _translation_form(m.offset, b)
        per_map.append(MapObstruction(i, m.slope, m.offset, comm, tform, j))
    if not all(mo.commensurability.commensurable for mo in per_map):
        verdict = ObstructionVerdict.FAILS_ITEM1
    elif any(not mo.translation_form for mo in per_map):
        verdict = ObstructionVerdict.FAILS_ITEM2
    else:
        verdict = ObstructionVerdict.MATCHES_OBSTRUCTION_FORM
    return ObstructionReport(b, g, tuple(per_map), verdict)


def incommensurable_slope_witness(system: SelfSimilarSystem, b: int):
    """Search for a map whose slope is log-incommensurable with b; such a
    witness certifies pointwise b-normality of the self-similar measure.

    Returns (found, witness 1-based map index or None).  Slopes are invariant
    under affine conjugation, so this matches the negation of item 1 of
    :func:`classify_obstruction` map by map.
    """
    for i, m in enumerate(system.maps, start=1):
        if not log_commensurable(m.slope, b).commensurable:
            return True, i
    return False, None
