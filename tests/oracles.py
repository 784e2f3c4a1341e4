"""Independent oracles the tests check library paths against.

Every function here recomputes a quantity by a different route than the
library: brute-force enumeration and a per-point window loop for
correlations, Monte Carlo sampling and closed forms for the Fourier
transform, straight interval iteration for hulls, prime factorizations for
log-commensurability, bisection on integer polynomials for real roots,
mpmath's numeric root finder for root moduli and real-root counts, modular
powering for exact x^n mod 1, uncancelled integer pairs for exact beta
orbits and balls held as pairs of Fractions, with every rounding decided on
them, for the ball orbit loop.
Keeping them separate from the package is the point.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


# ----------------------------------------------------------- correlations

def _box_scalar(y: float, w: float) -> float:
    return 1.0 if abs(y) <= w else 0.0


def _triangle_scalar(y: float, w: float) -> float:
    a = abs(y)
    return 1.0 - a / w if a < w else 0.0


def _piecewise_scalar(breakpoints):
    pts = [(float(x), float(v)) for x, v in breakpoints]

    def g(y: float, _w) -> float:
        for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
            if x0 <= y <= x1:
                return v0 + (v1 - v0) * (y - x0) / (x1 - x0)
        return 0.0
    return g


def naive_k_level_correlation(values, k, kind, halfwidth=None,
                              breakpoints=()) -> float:
    """R_k by full enumeration over ordered tuples and integer shifts.

    `kind` is box or triangle with `halfwidth`, or piecewise-linear with
    `breakpoints` ((x, value) pairs, zero outside).  Requires the support
    half-width below N/2 like the library path; values in [0, 1).
    """
    g = {"box": _box_scalar, "triangle": _triangle_scalar}.get(kind) \
        or _piecewise_scalar(breakpoints)
    w = None if halfwidth is None else float(halfwidth)
    xs = [float(v) for v in values]
    n = len(xs)
    total = 0.0
    shifts = list(itertools.product((-1, 0, 1), repeat=k - 1))
    for u in itertools.permutations(range(n), k):
        deltas = [xs[u[j]] - xs[u[j + 1]] for j in range(k - 1)]
        for l in shifts:
            prod = 1.0
            for d, li in zip(deltas, l):
                prod *= g(n * (d + li), w)
                if prod == 0.0:
                    break
            total += prod
    return total / n


def _profile_array(kind, halfwidth, breakpoints, y):
    if kind == "box":
        return (np.abs(y) <= float(halfwidth)).astype(np.float64)
    if kind == "triangle":
        return np.maximum(0.0, 1.0 - np.abs(y) / float(halfwidth))
    xs = np.array([float(x) for x, _ in breakpoints])
    vs = np.array([float(v) for _, v in breakpoints])
    return np.interp(y, xs, vs, left=0.0, right=0.0)


def windowed_k_level_correlation(values, k, kind, halfwidth=None,
                                 breakpoints=()) -> float:
    """R_k by one Python iteration per point over its circular window.

    The bit-for-bit reference for the library's vectorised enumeration:
    the same window radius and profile formulas, every partial summed by
    `.sum()` and added to the total in point (for k = 4, neighbour-pair)
    order.  Arguments as for `naive_k_level_correlation`; the half-width
    must be below N/2.
    """
    xs = np.mod(np.asarray(values, dtype=np.float64), 1.0)
    n = len(xs)
    if kind == "piecewise-linear":
        halfwidth = max(abs(Fraction(breakpoints[0][0])),
                        abs(Fraction(breakpoints[-1][0])))
    assert 2 <= k <= 4 and Fraction(halfwidth) < Fraction(n, 2)

    def g(y):
        return _profile_array(kind, halfwidth, breakpoints, y)

    def wrap(delta):
        return delta - np.round(delta)

    radius = float(halfwidth) / n * (1.0 + 1e-9) + 1e-15
    s = np.sort(xs)
    ext = np.concatenate([s - 1.0, s, s + 1.0])

    def around(x):
        lo = np.searchsorted(ext, x - radius, side="left")
        hi = np.searchsorted(ext, x + radius, side="right")
        return np.arange(lo, hi) % n

    total = 0.0
    if k == 2:
        for i in range(n):
            idx = around(s[i])
            idx = idx[idx != i]
            if len(idx):
                total += g(n * wrap(s[idx] - s[i])).sum()
    elif k == 3:
        for i in range(n):
            idx = around(s[i])
            idx = idx[idx != i]
            if not len(idx):
                continue
            g_in = g(n * wrap(s[idx] - s[i]))
            g_out = g(n * wrap(s[i] - s[idx]))
            total += g_in.sum() * g_out.sum() - (g_in * g_out).sum()
    else:
        for i in range(n):
            idx_i = around(s[i])
            idx_i = idx_i[idx_i != i]
            if not len(idx_i):
                continue
            g_mid = g(n * wrap(s[i] - s[idx_i]))
            for pos, j in enumerate(idx_i):
                if g_mid[pos] == 0.0:
                    continue
                left = idx_i[idx_i != j]
                g1 = g(n * wrap(s[left] - s[i]))
                idx_j = around(s[j])
                right = idx_j[(idx_j != i) & (idx_j != j)]
                g2 = g(n * wrap(s[j] - s[right]))
                cross = 0.0
                common, ia, ib = np.intersect1d(left, right,
                                                return_indices=True)
                if len(common):
                    cross = float((g1[ia] * g2[ib]).sum())
                total += g_mid[pos] * (g1.sum() * g2.sum() - cross)
    return total / n


# ------------------------------------------------------------- Fourier

def monte_carlo_fourier(system, q, n_samples, seed, target=1e-9):
    """Empirical transform from n_samples points of the measure.

    Points are sampled by evaluating random words at the hull midpoint in
    float arithmetic; the word depth keeps the truncation error below
    `target`, which is negligible against the Monte Carlo scale n^-1/2.
    """
    rho = float(system.contraction)
    width = float(system.hull_width)
    depth = max(1, math.ceil(math.log(target / max(width, 1e-30))
                             / math.log(rho)) + 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cum = np.cumsum([float(w) for w in system.weights])
    cum[-1] = 1.0
    words = np.searchsorted(cum, rng.random((n_samples, depth)), side="right")
    slopes = np.array([float(m.slope) for m in system.maps])
    offsets = np.array([float(m.offset) for m in system.maps])
    x = np.full(n_samples, float(system.hull[0] + system.hull[1]) / 2.0)
    for j in range(depth - 1, -1, -1):
        w = words[:, j]
        x = slopes[w] * x + offsets[w]
    return complex(np.exp(2j * np.pi * float(q) * x).mean())


def lebesgue_transform(q) -> complex:
    """Closed form for the uniform measure on [0, 1]."""
    qf = float(q)
    if qf == 0:
        return 1.0 + 0.0j
    return (np.exp(2j * np.pi * qf) - 1.0) / (2j * np.pi * qf)


def homogeneous_product_fourier(system, q, levels=120) -> complex:
    """Truncated product evaluation for systems with one common slope."""
    slopes = {m.slope for m in system.maps}
    assert len(slopes) == 1
    s = float(slopes.pop())
    probs = [float(w) for w in system.weights]
    offsets = [float(m.offset) for m in system.maps]
    u = float(q)
    val = 1.0 + 0.0j
    for _ in range(levels):
        val *= sum(p * np.exp(2j * np.pi * u * t)
                   for p, t in zip(probs, offsets))
        u *= s
    center = float(system.hull[0] + system.hull[1]) / 2.0
    return val * np.exp(2j * np.pi * u * center)


def cantor_product_fourier(q, dps=60) -> complex:
    """F_q of the Cantor measure as the product of (1 + e(2 q / 3^j)) / 2
    over j >= 1, e(x) = e^{2 pi i x}, at `dps` digits: each phase is
    reduced mod 1 exactly, and the product stops once 2 |q| / 3^j is below
    10^-(dps - 10), the tail then changing it by less than 10^-(dps - 12)."""
    import mpmath

    q, val, j = Fraction(q), mpmath.mpc(1), 1
    with mpmath.workdps(dps):
        while abs(2 * q) / 3 ** j >= Fraction(1, 10 ** (dps - 10)):
            x = 2 * q / 3 ** j
            x -= math.floor(x)
            val *= (1 + mpmath.expjpi(2 * mpmath.mpf(x.numerator)
                                      / x.denominator)) / 2
            j += 1
        return complex(val)


def _special_phase(x: Fraction):
    """e^{2 pi i x} at the exact angles 0, 1/2, 1/4 and 3/4 of x mod 1."""
    r = x - math.floor(x)
    return {Fraction(0): complex(1.0, 0.0), Fraction(1, 2): complex(-1.0, 0.0),
            Fraction(1, 4): complex(0.0, 1.0),
            Fraction(3, 4): complex(0.0, -1.0)}.get(r), r


def reference_phase(x) -> complex:
    """e^{2 pi i x} for rational x: exact at quarter angles, else cos/sin of
    2 pi times the correctly rounded fractional part."""
    special, r = _special_phase(Fraction(x))
    if special is not None:
        return special
    arg = 2.0 * math.pi * float(r)
    return complex(math.cos(arg), math.sin(arg))


def reference_fourier_tree(system, q, tol, budget, cache=None):
    """The memoised transform tree over Fraction-keyed frequencies.

    Returns (value, error bound, nodes expanded, budget hit).  Same
    expansion order and leaf rule as the library's tree, written with
    Fraction arithmetic throughout, so it pins values, bounds, node counts
    and budget behaviour of any faster representation.
    """
    q = Fraction(q)
    lo, hi = system.hull
    center = (lo + hi) / 2
    half_width = float(hi - lo) / 2.0
    slopes = [m.slope for m in system.maps]
    offsets = [m.offset for m in system.maps]
    probs = [float(w) for w in system.weights]
    memo = cache if cache is not None else {}
    hit, nodes = False, 0
    stack = [q]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        try:
            bound = 2.0 * math.pi * abs(float(u)) * half_width
        except OverflowError:  # |u| beyond the float range: never a leaf
            bound = math.inf
        if bound <= tol or nodes >= budget:
            if bound > tol:
                hit, bound = True, min(bound, 2.0)
            memo[u] = (reference_phase(u * center), bound)
            nodes += 1
            stack.pop()
            continue
        children = [u * s for s in slopes]
        missing = [v for v in children if v not in memo]
        if missing:
            stack.extend(missing)
            continue
        val, err = complex(0.0, 0.0), 0.0
        for p, t, v in zip(probs, offsets, children):
            cv, ce = memo[v]
            val += p * reference_phase(u * t) * cv
            err += p * ce
        memo[u] = (val, err)
        nodes += 1
        stack.pop()
    val, err = memo[q]
    return val, err, nodes, hit


def scalar_chain_mode(system, n, p, slope, offset, q, tol):
    """Cylinder mode e^{2 pi i q p^n offset} * F_{q r} of a homogeneous
    system by the one-chain-at-a-time float product in Python complex
    arithmetic, r = p^n * slope; returns (value, error bound).

    The rounding reference for a batched chain: every product and sum is
    the Python complex operation, in the order of the recursion.
    """
    slopes = {m.slope for m in system.maps}
    assert len(slopes) == 1
    s = float(slopes.pop())
    lo, hi = float(system.hull[0]), float(system.hull[1])
    half = (hi - lo) / 2.0
    center = (lo + hi) / 2.0
    offsets = [float(m.offset) for m in system.maps]
    probs = [float(w) for w in system.weights]
    two_pi = 2.0 * math.pi
    u = q * float(p ** n * Fraction(slope))
    val = complex(1.0, 0.0)
    while two_pi * abs(u) * half > tol:
        val *= sum(w * complex(math.cos(two_pi * u * t),
                               math.sin(two_pi * u * t))
                   for w, t in zip(probs, offsets))
        u *= s
    val *= complex(math.cos(two_pi * u * center),
                   math.sin(two_pi * u * center))
    phase = reference_phase(q * p ** n * Fraction(offset))
    return phase * val, two_pi * abs(u) * half + 1e-8


# ----------------------------------------------------------------- hulls

def iterated_hull(maps, rounds=400):
    """Interval iteration I -> hull(union f_i(I)) from the fixed points."""
    fps = [m.fixed_point() for m in maps]
    lo, hi = min(fps), max(fps)
    for _ in range(rounds):
        images = [m.image(lo, hi) for m in maps]
        lo = min(a for a, _ in images)
        hi = max(b for _, b in images)
    return lo, hi


# ------------------------------------------------------------ real roots

# the bisection state reached per (coeffs, lo, hi), see fraction_bisection
_BISECTIONS = {}


def fraction_bisection(coeffs, lo, hi, eps) -> tuple:
    """Shrink [lo, hi] around a sign change of the polynomial (coefficients
    from the leading term down) to width <= eps by bisection.  Returns
    (lo, hi), or (r, r) when an endpoint or a midpoint r is a root; raises
    ValueError when the endpoints do not bracket a sign change.

    After k halvings the bracket is [lo + w j / 2^k, lo + w (j + 1) / 2^k],
    w = hi - lo, and bisection runs on integers: the bracket carries the
    integer polynomial P(u) = 2^(dk) D p(lo + w (j + u) / 2^k), D > 0, of
    degree d.  A halving maps it to S(u) = 2^d P(u / 2) for the lower half
    and to S(u + 1), a Taylor shift, for the upper one, and S(1) has the
    sign of p at the midpoint.  The state reached (P, k, j and a root met
    on a midpoint) is kept per (coeffs, lo, hi), so a narrower eps bisects
    on from it."""
    def p(x):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * x + c
        return acc

    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    flo, fhi = p(lo), p(hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("interval endpoints must bracket a sign change")
    w = hi - lo
    # bisection stops at the first level with w / 2^level <= eps
    a, b = w.numerator * eps.denominator, eps.numerator * w.denominator
    level = 0
    while a > b << level:
        level += 1
    key = (tuple(coeffs), lo, hi)
    if key not in _BISECTIONS:
        poly = []  # p(lo + w u), leading first
        for c in coeffs:
            poly = [w * x + lo * y for x, y in zip(poly + [0], [0] + poly)]
            poly[-1] += c
        scale = math.lcm(*(x.denominator for x in poly))
        _BISECTIONS[key] = ([int(x * scale) for x in poly], 0, 0, None)
    poly, k, j, root = _BISECTIONS[key]
    while k < level and root is None:
        poly = [c << i for i, c in enumerate(poly)]  # S, leading first
        value = sum(poly)
        if value == 0:
            root = (k, lo + w * Fraction(2 * j + 1, 1 << (k + 1)))
        elif (value > 0) == (flo > 0):  # the upper half: S(u + 1)
            for i in range(len(poly) - 1):
                for m in range(1, len(poly) - i):
                    poly[m] += poly[m - 1]
            j, k = 2 * j + 1, k + 1
        else:
            j, k = 2 * j, k + 1
    _BISECTIONS[key] = (poly, k, j, root)
    if root is not None and level > root[0]:
        return root[1], root[1]
    j >>= k - level
    return (lo + w * Fraction(j, 1 << level),
            lo + w * Fraction(j + 1, 1 << level))


def _numeric_roots(coeffs, dps) -> list:
    """(root, multiplicity) pairs of an integer polynomial (coefficients
    from the leading term down): sympy's square-free factorization, then
    mpmath's Durand-Kerner iteration (`polyroots`) at `dps` digits on each
    factor, whose roots are distinct.  Call inside ``mpmath.workdps(dps)``."""
    import mpmath
    import sympy

    _, factors = sympy.sqf_list(sympy.Poly(coeffs, sympy.Symbol("x")))
    return [(z, mult) for factor, mult in factors
            for z in mpmath.polyroots([int(c) for c in factor.all_coeffs()],
                                      maxsteps=200, extraprec=4 * dps)]


def _exact(x) -> Fraction:
    """The exact Fraction of an mpmath real (`man_exp` drops the sign)."""
    import mpmath

    x = mpmath.mpf(x)
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def root_moduli(coeffs, dps=50) -> list:
    """Moduli of the complex roots of an integer polynomial, with
    multiplicity (see `_numeric_roots`).  Returns (modulus, imaginary part)
    pairs, each the exact Fraction of its `dps`-digit value."""
    import mpmath

    with mpmath.workdps(dps):
        return [(_exact(abs(z)), _exact(mpmath.im(z)))
                for z, mult in _numeric_roots(coeffs, dps)
                for _ in range(mult)]


def distinct_real_roots(coeffs, dps=50, tol=Fraction(1, 10 ** 20)) -> list:
    """The distinct real roots of an integer polynomial, as exact Fractions
    of their `dps`-digit values: the roots (see `_numeric_roots`) whose
    imaginary part is at most `tol` in modulus, each taken once."""
    import mpmath

    with mpmath.workdps(dps):
        return sorted(_exact(mpmath.re(z))
                      for z, _ in _numeric_roots(coeffs, dps)
                      if abs(_exact(mpmath.im(z))) <= tol)


# ---------------------------------------------------------- exact orbits

def _float_below_one(m: int, den: int) -> float:
    """floor(2^64 m / den) / 2^64 for 0 <= m < den, as a float; one that
    rounds up to 1.0 is read as the float below 1, as orbit values lie in
    [0, 1)."""
    return min(((m << 64) // den) / float(1 << 64), math.nextafter(1.0, 0.0))


def modpow_power_orbit(x, n_points: int) -> list:
    """Floats of x^n mod 1 for n = 1..N, rational x: the fractional part of
    x^n is pow(num, n, den^n) / den^n, read by `_float_below_one`."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    out = []
    for n in range(1, n_points + 1):
        den_pow = den ** n
        m = pow(num, n, den_pow)
        out.append(_float_below_one(m, den_pow))
    return out


def pair_beta_orbit(x, beta, n_points: int) -> list:
    """Floats of T^n(x) for n = 1..N of the beta map with rational beta and
    x: the pair (u, v) starts at x = u / v, each step multiplies u by num(beta)
    and v by den(beta) and reduces u mod v, and the value is read by
    `_float_below_one`."""
    x, beta = Fraction(x), Fraction(beta)
    p, q = beta.numerator, beta.denominator
    u, v = x.numerator, x.denominator
    out = []
    for _ in range(n_points):
        u, v = p * u, q * v
        u -= (u // v) * v
        out.append(_float_below_one(u, v))
    return out


def _rational_log2(x) -> float:
    """log2(float(x)), from the integers' logs where float(x) overflows."""
    x = Fraction(x)
    try:
        return math.log2(float(x))
    except OverflowError:
        return math.log2(x.numerator) - math.log2(x.denominator)


def _rational_ball(lo, hi, scale: int) -> tuple:
    """(center, radius) of [lo, hi] on the grid 1 / scale, as Fractions: the
    center (lo + hi) / 2 rounded to nearest (ties up), the radius the
    half-width rounded up, plus one grid step when the center moved."""
    center = (lo + hi) / 2 * scale
    mid = math.floor(center + Fraction(1, 2))
    rad = math.ceil((hi - lo) / 2 * scale) + (mid != center)
    return Fraction(mid, scale), Fraction(rad, scale)


def rational_ball_orbit(factor, start, n_points: int, reduce: bool,
                        min_prec, factor_hi) -> tuple:
    """(values, metadata) of the ball loop y_n = factor * y_{n-1} with every
    ball a pair of Fractions on the grid 2^-prec.

    An algebraic factor (an object with `coeffs`, `lo` and `hi`) is enclosed
    by `fraction_bisection` to width 2^-(prec+2); a point (`lo`, `hi`), a
    (lo, hi) pair or a rational is its own enclosure.  The product's center
    is rounded to nearest on the grid and its radius, the exact cross terms,
    rounded up, plus one grid step when the center moved.  The floor of
    center - radius is the value's integer part, and the ball straddles a
    cut when center + radius reaches the next integer.  The working
    precision ceil(N log2 factor_hi) + 64 + bitlen(N + 1) (at least
    `min_prec`, at most 2^16 bits and 2^26 values x bits), the input-radius
    check, the 2^-50 value-radius test and the restart policy (at most four
    doublings within the same caps; a straddle on the last attempt truncates
    the values) are restated here."""
    from normality_lab.errors import ConfigParseError, PrecisionExhausted

    max_bits, max_work, max_restarts = 1 << 16, 1 << 26, 4

    def within_caps(prec):
        return prec <= max_bits and n_points * prec <= max_work

    def enclosure(x, prec):
        if hasattr(x, "coeffs"):
            return fraction_bisection(x.coeffs, x.lo, x.hi,
                                      Fraction(1, 1 << (prec + 2)))
        if hasattr(x, "lo"):
            return x.lo, x.hi
        if isinstance(x, (tuple, list)):
            return Fraction(x[0]), Fraction(x[1])
        return Fraction(x), Fraction(x)

    log2_factor = _rational_log2(factor_hi)
    prec = math.ceil(n_points * log2_factor) + 64 + (n_points + 1).bit_length()
    prec = max(prec, min_prec or 0)
    if not within_caps(prec):
        raise ConfigParseError("ball iteration over the caps")
    radius = getattr(start, "radius", 0)
    if radius > 0 and (math.log2(radius.numerator)
                       - math.log2(radius.denominator)
                       > -(n_points * log2_factor + 54)):
        raise PrecisionExhausted("input radius too coarse")

    for attempt in range(max_restarts + 1):
        last = attempt == max_restarts or not within_caps(2 * prec)
        scale = 1 << prec
        step_c, step_r = _rational_ball(*enclosure(factor, prec), scale)
        c, r = _rational_ball(*enclosure(start, prec), scale)
        values = []
        straddle_at = None
        retry = False
        for n in range(1, n_points + 1):
            prod = step_c * c
            cross = abs(step_c) * r + abs(c) * step_r + step_r * r
            c = Fraction(math.floor(prod * scale + Fraction(1, 2)), scale)
            r = Fraction(math.ceil(cross * scale) + (c != prod), scale)
            k = math.floor(c - r)
            if c + r >= k + 1:
                if last:
                    straddle_at = n
                else:
                    retry = True
                break
            if float(r) + 2.0 ** -52 > 2.0 ** -50:
                retry = True
                break
            values.append(float(c - k))
            if reduce:
                c -= k
        if not retry:
            break
        if last:
            raise PrecisionExhausted("ball iteration failed to stabilize")
        prec *= 2
    meta = {"precision_bits": prec, "restarts": attempt, "start_index": 1}
    if straddle_at is not None:
        meta["straddled_at"] = straddle_at
    return np.asarray(values, dtype=np.float64), meta


# ---------------------------------------------------------------- digits

def hull_image_cell_digits(system, word, base, count):
    """The `count` base-b digits of the cell holding f_w(hull), or None when
    the image straddles a cell boundary.

    Folds f_w = f_{w_1} o ... o f_{w_m} map by map as an uncancelled integer
    triple f_w(x) = (A x + B) / C, C > 0, then floors b^count times each end
    of the image.
    """
    maps = [(m.slope.numerator * m.offset.denominator,
             m.offset.numerator * m.slope.denominator,
             m.slope.denominator * m.offset.denominator)
            for m in system.maps]
    A, B, C = 1, 0, 1
    for s in word:
        a, b, c = maps[s - 1]
        A, B, C = A * a, A * b + B * c, C * c
    scale = base ** count
    cells = {scale * (A * h.numerator + B * h.denominator)
             // (C * h.denominator) for h in system.hull}
    if len(cells) != 1:
        return None
    k = cells.pop() % scale
    out = []
    for _ in range(count):
        k, d = divmod(k, base)
        out.append(d)
    return out[::-1]


# ------------------------------------------------------------ discrepancy

def naive_star_discrepancy(values, grid=4096) -> float:
    """Sup over a dense grid of anchored intervals (lower bound witness)."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    ts = np.linspace(0.0, 1.0, grid + 1)[1:]
    counts = np.searchsorted(xs, ts, side="left")
    return float(np.max(np.abs(counts / n - ts)))


# ------------------------------------------------------ log-commensurability

def factored_log_ratio(s, b: int):
    """log|s| / log b as a Fraction when it is rational, else None, read off
    the prime factorizations of |s| and b."""
    from sympy import factorint
    s = abs(Fraction(s))
    exps = dict(factorint(s.numerator))
    # numerator and denominator are coprime: no prime appears in both
    exps.update({p: -k for p, k in factorint(s.denominator).items()})
    base = factorint(b)
    if set(exps) != set(base):
        return None
    ratios = {Fraction(exps[p], base[p]) for p in base}
    return ratios.pop() if len(ratios) == 1 else None
