"""Uniform-distribution and fine-scale statistics of mod-1 sequences.

Star discrepancy, digit-block frequencies, k-level correlations against
compactly supported product test functions, nearest-neighbour level spacings
with the wraparound gap, and a Weyl-sum report.  The correlation enumerator
is windowed: with test-function support below half the sequence length, at
most one integer shift per coordinate contributes, so only circularly close
tuples need visiting; they are enumerated as flat numpy arrays in bounded
chunks and summed in a fixed order, so the value does not depend on the
chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigParseError, InvalidInput
from .fourier import fourier_empirical
from .sampling import DigitStream, SequenceSample


def _values(sample) -> np.ndarray:
    if isinstance(sample, SequenceSample):
        return sample.values
    arr = np.asarray(sample, dtype=np.float64)
    return np.mod(arr, 1.0)


# ------------------------------------------------------------- discrepancy

def discrepancy(sample) -> float:
    """Star discrepancy D*_N, exactly, via the sorted-sample formula.

    D*_N = max over i of max(i/N - x_(i), x_(i) - (i-1)/N); the sup over all
    anchored intervals is attained at one of these 2N candidates.
    """
    xs = np.sort(_values(sample))
    n = len(xs)
    if n == 0:
        raise InvalidInput("sample must be nonempty")
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.maximum(i / n - xs, xs - (i - 1) / n).max())


# ---------------------------------------------------------- digit frequencies

@dataclass(frozen=True)
class DigitFrequencyTable:
    counts: dict          # block tuple -> occurrence count
    total: int

    def frequency(self, block) -> float:
        block = tuple(int(b) for b in block) if not isinstance(block, int) \
            else (block,)
        return self.counts.get(block, 0) / self.total


def digit_frequencies(stream: DigitStream, block_length: int) -> DigitFrequencyTable:
    """Sliding-window block counts over the certified digit prefix.

    Each block is encoded as one int64 code; only the codes that occur are
    counted, and each is read back from its first window.
    """
    if block_length < 1:
        raise InvalidInput("block length must be >= 1")
    m = stream.certified_length
    if block_length > m:
        raise InvalidInput(
            f"block length {block_length} exceeds certified prefix {m}")
    base = stream.base
    if base ** block_length > 1 << 63:
        raise InvalidInput(f"block codes base**{block_length} with base "
                           f"{base} do not fit an int64")
    windows = np.lib.stride_tricks.sliding_window_view(
        np.asarray(stream.digits[:m], dtype=np.int64), block_length)
    code = windows[:, 0]
    for j in range(1, block_length):
        code = code * base + windows[:, j]
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    table = dict(zip(map(tuple, windows[first].tolist()), counts.tolist()))
    return DigitFrequencyTable(table, len(code))


# -------------------------------------------------------------- test functions

@dataclass(frozen=True)
class TestFunction:
    """Compactly supported product test function on R^(k-1).

    One-dimensional profile g applied to each coordinate; `kind` is one of
    box, triangle, piecewise-linear.  Box and triangle have exact rational
    integrals, and piecewise-linear profiles integrate exactly by the
    trapezoid rule on their rational breakpoints.
    """

    kind: str
    halfwidth: Fraction
    breakpoints: tuple = ()

    @classmethod
    def box(cls, halfwidth) -> "TestFunction":
        w = Fraction(halfwidth)
        if w <= 0:
            raise InvalidInput("halfwidth must be positive")
        return cls("box", w)

    @classmethod
    def triangle(cls, halfwidth) -> "TestFunction":
        w = Fraction(halfwidth)
        if w <= 0:
            raise InvalidInput("halfwidth must be positive")
        return cls("triangle", w)

    @classmethod
    def piecewise_linear(cls, breakpoints) -> "TestFunction":
        pts = tuple((Fraction(x), Fraction(v)) for x, v in breakpoints)
        if len(pts) < 2 or any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise InvalidInput("breakpoints must be strictly increasing")
        w = max(abs(pts[0][0]), abs(pts[-1][0]))
        return cls("piecewise-linear", w, pts)

    def profile(self, y: np.ndarray) -> np.ndarray:
        """Evaluate the 1-D profile g on an array of scaled differences."""
        w = float(self.halfwidth)
        if self.kind == "box":
            return (np.abs(y) <= w).astype(np.float64)
        if self.kind == "triangle":
            return np.maximum(0.0, 1.0 - np.abs(y) / w)
        xs = np.array([float(x) for x, _ in self.breakpoints])
        vs = np.array([float(v) for _, v in self.breakpoints])
        return np.interp(y, xs, vs, left=0.0, right=0.0)

    def profile_integral(self) -> Fraction:
        if self.kind == "box":
            return 2 * self.halfwidth
        if self.kind == "triangle":
            return self.halfwidth
        total = Fraction(0)
        for (x0, v0), (x1, v1) in zip(self.breakpoints, self.breakpoints[1:]):
            total += (x1 - x0) * (v0 + v1) / 2
        return total

    def integral(self, dim: int) -> Fraction:
        return self.profile_integral() ** dim

    def describe(self) -> str:
        if self.kind == "piecewise-linear":
            return f"piecewise-linear({len(self.breakpoints)} pts)"
        return f"{self.kind}(halfwidth={self.halfwidth})"


# ----------------------------------------------------------- k-level R_k

@dataclass(frozen=True)
class CorrelationResult:
    k: int
    value: float
    integral: Fraction
    deviation: float


# Upper bound on the window entries one enumeration chunk holds, so the
# temporaries stay a few MB at any half-width.
_CHUNK_ENTRIES = 1 << 16

# Cap on the window entries a run visits, priced from the window sizes
# before any tuple is enumerated: at the cap, about 1 s for k = 2, 2.5 s for
# k = 3 and 9 s for k = 4 (2-core x86-64, Python 3.11)
MAX_WINDOW_ENTRIES = 1 << 25


def _wrap(delta: np.ndarray) -> np.ndarray:
    return delta - np.round(delta)


def _chunks(sizes: np.ndarray):
    """Consecutive [a, b) ranges of items whose sizes add up to at most
    _CHUNK_ENTRIES, or a single item that is larger on its own."""
    ends = np.cumsum(sizes)
    a, done = 0, 0
    while a < len(sizes):
        b = max(a + 1, int(np.searchsorted(ends, done + _CHUNK_ENTRIES,
                                           side="right")))
        yield a, b
        done, a = ends[b - 1], b


def _row_sums(values: np.ndarray, row: np.ndarray, rows: int) -> np.ndarray:
    """`.sum()` of each row's values, bit for bit; empty rows give 0.0.

    `row` is nondecreasing.  Rows of one length c are summed together as a
    (rows x c) matrix along axis 1, which numpy reduces in the same pairwise
    order as a 1-D `.sum()` (np.add.reduceat rounds differently on rows of
    3 or more terms).
    """
    counts = np.bincount(row, minlength=rows)
    starts = np.cumsum(counts) - counts
    out = np.zeros(rows)
    for c in np.unique(counts[counts > 0]):
        sel = np.flatnonzero(counts == c)
        out[sel] = values[starts[sel, None] + np.arange(c)].sum(axis=1)
    return out


def _add_in_order(total, terms: np.ndarray):
    """total + terms[0] + terms[1] + ..., rounded after each addition."""
    return np.cumsum(np.concatenate(([total], terms)))[-1]


def k_level_correlation(sample, k: int, f: TestFunction) -> CorrelationResult:
    """The k-level correlation R_k(f, x, N) of the sample.

    Sums f(N * (difference vector + integer shifts)) over ordered k-tuples of
    distinct indices.  Requires the support half-width below N/2, which pins
    the integer shift per coordinate to the circular wrap and licenses the
    windowed enumeration (exactly the tuples whose consecutive circular gaps
    are within support/N).

    Vectorised: one searchsorted in the tripled sorted points gives every
    window; the (i, j) neighbour pairs, self excluded, are enumerated as
    flat arrays in point and window order, a bounded chunk at a time (for
    k = 4, the pairs with g_mid != 0, each with i's window without j, j's
    without i, and their common neighbours in ascending order).  Each
    partial is the 1-D `.sum()` of its row, taken for all rows of one length
    as a matrix row sum in the same pairwise order, and the partials are
    added to the total one at a time, so the value is bit for bit that of a
    Python loop over the points.
    """
    xs = _values(sample)
    n = len(xs)
    if not 2 <= k <= 4:
        raise InvalidInput("k must be between 2 and 4")
    # exactly first: float() of a half-width past the float range overflows
    if not (f.halfwidth < Fraction(n, 2) and float(f.halfwidth) < n / 2):
        raise InvalidInput(
            f"support half-width {f.halfwidth} must be < N/2 = {n / 2}")
    radius = float(f.halfwidth) / n * (1.0 + 1e-9) + 1e-15
    s = np.sort(xs)
    ext = np.concatenate([s - 1.0, s, s + 1.0])
    lo = np.searchsorted(ext, s - radius, side="left")
    hi = np.searchsorted(ext, s + radius, side="right")

    sizes = hi - lo
    # each window once for k < 4; for k = 4 those of i and j for each pair
    # (i, j), about 2 sum(size^2) by symmetry (in floats: int64 could wrap)
    entries = (int(sizes.sum()) if k < 4
               else 2.0 * np.square(sizes, dtype=np.float64).sum())
    if entries > MAX_WINDOW_ENTRIES:
        raise ConfigParseError(f"R_{k} of {n} points visits about {entries:.3g}"
                               f" window entries, over {MAX_WINDOW_ENTRIES}")
    index = np.tile(np.arange(n), 3)   # position in ext -> point

    def g(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Profile at N times the wrapped difference s[a] - s[b]."""
        return f.profile(n * _wrap(s[a] - s[b]))

    def neighbours(centre: np.ndarray, skip: Optional[np.ndarray] = None):
        """(row, point) of every window entry of each centre, flattened in
        window order, leaving out the centre itself and its `skip`."""
        size = sizes[centre]
        row = np.repeat(np.arange(len(centre)), size)
        offset = np.cumsum(size) - size - lo[centre]
        m = index[np.arange(len(row)) - np.repeat(offset, size)]
        keep = m != centre[row]
        if skip is not None:
            keep &= m != skip[row]
        return row[keep], m[keep]

    def partials():
        """The summands of R_k * N in loop order, chunk by chunk."""
        for a, b in _chunks(sizes):
            i = np.arange(a, b)
            row, m = neighbours(i)
            if k == 2:
                yield _row_sums(g(m, i[row]), row, b - a)
                continue
            g_out = g(i[row], m)
            if k == 3:
                g_in = g(m, i[row])
                yield (_row_sums(g_in, row, b - a)
                       * _row_sums(g_out, row, b - a)
                       - _row_sums(g_in * g_out, row, b - a))
                continue
            live = g_out != 0.0
            pi, pj, g_mid = i[row[live]], m[live], g_out[live]
            for c, d in _chunks(sizes[pi] + sizes[pj]):
                ii, jj = pi[c:d], pj[c:d]
                row_l, left = neighbours(ii, jj)
                row_r, right = neighbours(jj, ii)
                row_c, common = np.divmod(
                    np.intersect1d(row_l * n + left, row_r * n + right), n)
                g1 = _row_sums(g(left, ii[row_l]), row_l, d - c)
                g2 = _row_sums(g(jj[row_r], right), row_r, d - c)
                g12 = _row_sums(g(common, ii[row_c]) * g(jj[row_c], common),
                                row_c, d - c)
                yield g_mid[c:d] * (g1 * g2 - g12)

    total = 0.0
    for terms in partials():
        total = _add_in_order(total, terms)
    value = total / n
    integral = f.integral(k - 1)
    return CorrelationResult(k, value, integral, abs(value - float(integral)))


# ------------------------------------------------------------ level spacings

@dataclass(frozen=True)
class SpacingReport:
    scaled_gaps: np.ndarray       # sorted, scaled by N
    s_grid: np.ndarray
    g_empirical: np.ndarray       # empirical CDF on the grid
    sup_distance: float           # exact KS distance to 1 - exp(-s)


def level_spacings(sample, s_grid: Optional[Sequence[float]] = None) -> SpacingReport:
    """Nearest-neighbour gaps scaled by N, with the wraparound gap.

    Orders the sample, prepends theta_0 = theta_N - 1, scales the N gaps by
    N, evaluates the empirical CDF G on the grid and reports the exact
    sup-distance to the unit-rate exponential law 1 - e^{-s} (attained at a
    jump of G, so computable from the sorted gaps alone).
    """
    xs = np.sort(_values(sample))
    n = len(xs)
    if n < 2:
        raise InvalidInput("need at least two points")
    gaps = np.empty(n)
    gaps[0] = xs[0] - (xs[-1] - 1.0)
    gaps[1:] = np.diff(xs)
    scaled = np.sort(n * gaps)
    if s_grid is None:
        s_grid = np.linspace(0.0, 5.0, 51)
    s_grid = np.asarray(s_grid, dtype=np.float64)
    g_emp = np.searchsorted(scaled, s_grid, side="right") / n
    target = 1.0 - np.exp(-scaled)
    below = np.arange(n) / n          # G just before each jump
    above = np.arange(1, n + 1) / n   # G at each jump
    sup = float(np.maximum(np.abs(above - target),
                           np.abs(below - target)).max())
    return SpacingReport(scaled, s_grid, g_emp, sup)


# ---------------------------------------------------------------- Weyl sums

@dataclass(frozen=True)
class WeylReport:
    q_values: np.ndarray
    moduli: np.ndarray
    error_bounds: np.ndarray
    flagged: tuple

    def modulus(self, q: int) -> float:
        return float(self.moduli[list(self.q_values).index(q)])


def weyl_report(sample, q_max: int, threshold: float = 0.05) -> WeylReport:
    """Empirical |F_q| for q = 1..q_max with flags above the threshold."""
    if q_max < 1:
        raise InvalidInput("q_max must be >= 1")
    qs = np.arange(1, q_max + 1)
    moduli = np.empty(q_max)
    errs = np.empty(q_max)
    for i, q in enumerate(qs):
        fv = fourier_empirical(sample, int(q))
        moduli[i] = fv.modulus
        errs[i] = fv.error_bound
    flagged = tuple(int(q) for q, m in zip(qs, moduli) if m > threshold)
    return WeylReport(qs, moduli, errs, flagged)
