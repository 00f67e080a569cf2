"""Shared numeric kernels: detrending, Butterworth design, zero-phase
filtering, Welch spectral estimation, band integration, Pearson correlation.

Everything here is pure and reentrant. Filters are represented as cascades
of second-order sections (SOS) so higher orders stay numerically stable.

The sequential work of detrending and filtering goes through one kernel,
:func:`_linear_recurrence`, which solves ``y[i] = u[i] - a1 y[i-1] -
a2 y[i-2]`` down the rows of an (n, c) array as a blocked scan (Blelloch
1990, "Prefix sums and their applications"). Blocks of about sqrt(n) rows
are solved from zero state together, then the two-value state is carried
from block to block, so Python runs about 2 sqrt(n) steps instead of n.

* An SOS section is an FIR numerator, computed with array operations,
  followed by the kernel.
* The smoothness-priors detrend (Tarvainen et al. 2002, IEEE TBME 49(2))
  solves ``(I + lam^2 D2'D2) x = b`` by Cholesky, taking each matrix entry
  from the band formula. The matrix is Toeplitz inside, so the factor's rows
  converge to constants; each triangular sweep runs the rows before
  convergence and the last two rows one at a time, and the constant
  interior through the kernel.

Work that depends only on the configuration is done once per process and
kept in bounded ``functools.lru_cache`` caches. What a cache holds is
exactly what a fresh computation gives, so its state never changes an
output:

* ``_sweep_tables``: the detrend factor's sweep tables per ``(n, lam^2)``;
  8 entries.
* ``_block_responses``: the kernel's block responses per ``(a1, a2, block
  length)``; 64 entries.
"""
from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    COUNT,
    FRACTION,
    RATE,
    ConstantInput,
    EmptyBand,
    InvalidCutoff,
    InvalidOrder,
    LengthMismatch,
    SignalTooShort,
    check_value,
    finite_number,
)


class FilterKind(enum.Enum):
    LOW_PASS = "low_pass"
    BAND_PASS = "band_pass"


@dataclass(frozen=True)
class FilterDesign:
    """A digital Butterworth filter as a cascade of second-order sections.

    ``sos`` has shape (n_sections, 6): rows are ``b0 b1 b2 1 a1 a2`` with the
    denominator normalized to a leading 1. The stored ``a1, a2`` of every
    section, and every pole the design computed, are checked exactly to lie
    strictly inside the unit circle.
    """

    order: int
    kind: FilterKind
    cutoffs_hz: tuple[float, ...]
    sample_rate_hz: float
    sos: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectral density (units: signal^2 / Hz)."""

    freqs_hz: np.ndarray
    power: np.ndarray
    resolution_hz: float


# --- smoothness-priors detrending ---------------------------------------------

# the largest detrend lambda: near 7e7 the Cholesky pivots of ``I + lam^2
# D2'D2`` lose every digit, for any n from 3 to 19,200
MAX_DETREND_LAMBDA = 1e6
DETREND_LAMBDA = (lambda v: finite_number(v) and 0 < v <= MAX_DETREND_LAMBDA,
                  f"a positive number <= {MAX_DETREND_LAMBDA:g}")


def detrend(signal, lam: float = 500.0) -> np.ndarray:
    """Remove the smooth trend from ``signal`` via regularized least squares.

    The trend is the minimizer of ``|z - x|^2 + lam^2 |D2 x|^2`` where D2 is
    the second-difference operator; larger ``lam`` removes only slower
    components. The residual has exactly zero mean (constants are in the
    null space of D2), and any straight line is removed entirely.

    The Cholesky factor of ``A = I + lam^2 D2'D2`` takes its entries from
    the band formula. One refinement pass follows; its residual forms
    ``A v`` as ``v + lam^2 D2'(D2 v)``, so no terms of size lam^2 v cancel.
    """
    x = np.asarray(signal, dtype=float).ravel()
    n = x.size
    if n < 3:
        raise SignalTooShort(f"detrend needs >= 3 samples, got {n}")
    lam = check_value("lam", lam, DETREND_LAMBDA)
    lam2 = lam * lam
    tables = _sweep_tables(n, lam2)
    trend = _detrend_solve(tables, x)
    # one refinement pass: the system is stiff for large lam
    resid = x - trend - lam2 * np.convolve(np.diff(trend, 2), [1.0, -2.0, 1.0])
    trend = trend + _detrend_solve(tables, resid)
    return x - trend


def _detrend_row(j, n, lam2):
    """Entries (j, j), (j, j+1), (j, j+2) of ``I + lam2 D2'D2``.

    D2 has rows 0..n-3, and row r puts ``1, -2, 1`` on columns r..r+2.
    ``first``, ``mid`` and ``last`` say whether column j is the first,
    middle or last column of some row (rows j, j-1 and j-2).
    """
    first, mid, last = j < n - 2, 1 <= j <= n - 2, j >= 2
    return (1.0 + lam2 * (first + 4 * mid + last), lam2 * (-2 * (first + mid)),
            lam2 * first)


def _detrend_cholesky(n, lam2):
    """Cholesky factor of the n x n detrend matrix ``I + lam2 D2'D2``.

    Row j of the factor L is ``(L[j, j], L[j+1, j], L[j+2, j])``, computed in
    Python floats from the entries :func:`_detrend_row` gives. The matrix
    is constant along its diagonals from row 2 to row n-3, so the rows
    converge to a fixed point. At the first row k that agrees with the one
    before it within a few ulps, rows k..n-3 are all taken equal to row k and
    only the last two rows are computed. Returns ``(rows, k)``: ``rows``
    holds rows 0..k followed by rows n-2 and n-1. When the rows never
    converge, ``k == n - 3`` and ``rows`` is the whole factor.
    """
    rows = []
    prev2 = prev1 = (1.0, 0.0, 0.0)
    k = None
    j = 0
    while j < n:
        a0, a1, a2 = _detrend_row(j, n, lam2)
        l0 = math.sqrt(a0 - prev1[1] * prev1[1] - prev2[2] * prev2[2])
        row = (l0, (a1 - prev1[2] * prev1[1]) / l0, a2 / l0)
        rows.append(row)
        if k is None and 2 <= j < n - 5 and all(
                abs(v - p) <= 4.0 * math.ulp(v) for v, p in zip(row, prev1)):
            k = j
            j = n - 3  # rows k+1..n-3 repeat row k
            prev1 = row
        prev2, prev1 = prev1, row
        j += 1
    return rows, n - 3 if k is None else k


@functools.lru_cache(maxsize=8)
def _sweep_tables(n, lam2):
    """``(forward, backward)`` for the factor of :func:`_detrend_cholesky`:
    the ``(head, mid, tail)`` coefficients of :func:`_triangular_sweep` for
    ``L y = b`` and for ``L' x = y`` on reversed input: the rows that differ
    from row k, row k for the converged interior, and the last rows.
    """
    rows, k = _detrend_cholesky(n, lam2)

    def row(j):
        if j < 0:
            return (1.0, 0.0, 0.0)
        if j <= k:
            return rows[j]
        return rows[k] if j <= n - 3 else rows[j - n + k + 3]

    def forward(j):  # L y = b, equation j
        return (row(j)[0], row(j - 1)[1], row(j - 2)[2])

    head = tuple(forward(j) for j in range(min(k + 2, n - 2)))
    return ((head, rows[k], (forward(n - 2), forward(n - 1))),
            ((row(n - 1), row(n - 2)), rows[k], tuple(reversed(rows[:k]))))


def _detrend_solve(tables, b):
    """Solve ``L L' x = b`` with the factor's tables from
    :func:`_sweep_tables`.

    Each sweep runs in three parts: the rows that differ from row k
    exactly, the converged interior through :func:`_linear_recurrence`, and
    the last rows exactly. The backward sweep is the forward sweep on
    reversed input.
    """
    forward, backward = tables
    y = _triangular_sweep(b, *forward)
    return _triangular_sweep(y[::-1], *backward)[::-1]


def _triangular_sweep(u, head, mid, tail):
    """Solve ``y[i] = (u[i] - c1 y[i-1] - c2 y[i-2]) / c0`` from zero state.

    ``head`` and ``tail`` list the ``(c0, c1, c2)`` of the first and last
    equations; the equations between share the coefficients ``mid``.
    """
    h, t = len(head), len(tail)
    y1 = y2 = 0.0
    first = []
    for (c0, c1, c2), v in zip(head, u[:h].tolist()):
        y1, y2 = (v - c1 * y1 - c2 * y2) / c0, y1
        first.append(y1)
    c0, c1, c2 = mid
    middle = _linear_recurrence(u[h:u.size - t, None] / c0, c1 / c0, c2 / c0,
                                (y1,), (y2,))[:, 0]
    y2, y1 = ([y2, y1] + middle[-2:].tolist())[-2:]
    last = []
    for (c0, c1, c2), v in zip(tail, u[u.size - t:].tolist()):
        y1, y2 = (v - c1 * y1 - c2 * y2) / c0, y1
        last.append(y1)
    return np.concatenate([first, middle, last])


# --- second-order linear recurrence ----------------------------------------------

def _linear_recurrence(u: np.ndarray, a1: float, a2: float, y1, y2
                       ) -> np.ndarray:
    """Solve ``y[i] = u[i] - a1 y[i-1] - a2 y[i-2]`` down axis 0 of ``u``.

    ``u`` has shape (n, c); ``y1`` and ``y2`` are sequences of the c values
    of y[-1] and y[-2]. The rows are cut into blocks of L = max(2,
    ceil(sqrt(n))) rows. Every block is solved from zero state at once, L
    vector steps over all blocks and columns. The true state is then carried
    from block to block, one scalar step per block and column, using the
    block responses g1 and g2 to a unit y[-1] and a unit y[-2]. Last, each
    block adds g1 and g2 times its entering state. Python steps drop from n
    to about 2 sqrt(n).
    """
    n, c = u.shape
    if n == 0:
        return np.zeros((0, c))
    size = max(2, math.isqrt(n - 1) + 1)
    blocks = -(-n // size)
    full, rest = divmod(n, size)
    # z[i, b] is row b * size + i; padding only feeds rows past n
    z = np.empty((size, blocks, c))
    by_block = z.transpose(1, 0, 2)
    by_block[:full] = u[:full * size].reshape(full, size, c)
    if rest:
        by_block[full, :rest] = u[full * size:]
        by_block[full, rest:] = 0.0
    # in-block steps: each ufunc writes to its third (output) argument; as
    # 0-d arrays, the coefficients pass through a ufunc call faster
    rows = list(z)
    t = np.empty((blocks, c))
    m1, m2 = np.array(a1), np.array(a2)
    multiply, subtract = np.multiply, np.subtract
    multiply(m1, rows[0], t)
    subtract(rows[1], t, rows[1])
    for prev2, prev1, row in zip(rows, rows[1:], rows[2:]):
        multiply(m1, prev1, t)
        subtract(row, t, row)
        multiply(m2, prev2, t)
        subtract(row, t, row)
    g1, g2, (h11, h12, h21, h22) = _block_responses(a1, a2, size)
    # state entering each block, per column
    s1, s2 = [], []
    for e1, e2, v1, v2 in zip(z[-1].T.tolist(), z[-2].T.tolist(), y1, y2):
        col1, col2 = [], []
        for f1, f2 in zip(e1, e2):
            col1.append(v1)
            col2.append(v2)
            v1, v2 = f1 + h11 * v1 + h12 * v2, f2 + h21 * v1 + h22 * v2
        s1.append(col1)
        s2.append(col2)
    correction = np.empty_like(z)
    np.multiply.outer(g1, np.ascontiguousarray(np.array(s1).T), out=correction)
    z += correction
    np.multiply.outer(g2, np.ascontiguousarray(np.array(s2).T), out=correction)
    z += correction
    del correction  # freed before the row-order copy below
    return by_block.reshape(blocks * size, c)[:n]


@functools.lru_cache(maxsize=64)
def _block_responses(a1, a2, size):
    """``(g1, g2, (g1[-1], g2[-1], g1[-2], g2[-2]))`` for
    :func:`_linear_recurrence`: the responses over ``size`` rows to a unit
    y[-1] and a unit y[-2] from zero input, as read-only arrays, and the
    block-to-block state transition as floats."""
    g1, g2 = [], []
    p1, p2, q1, q2 = 1.0, 0.0, 0.0, 1.0
    for _ in range(size):
        p1, p2 = -a1 * p1 - a2 * p2, p1
        q1, q2 = -a1 * q1 - a2 * q2, q1
        g1.append(p1)
        g2.append(q1)
    transition = (g1[-1], g2[-1], g1[-2], g2[-2])
    g1, g2 = np.array(g1), np.array(g2)
    g1.flags.writeable = g2.flags.writeable = False
    return g1, g2, transition


# --- Butterworth design --------------------------------------------------------

def design_butterworth(order: int, kind: FilterKind, cutoffs_hz,
                       sample_rate_hz: float) -> FilterDesign:
    """Design a digital Butterworth filter via the bilinear transform.

    Cutoffs are pre-warped so the digital magnitude response passes through
    the half-power point (-3.01 dB) exactly at the requested frequencies.
    ``order`` is the analog prototype order; a band-pass design therefore has
    ``2 * order`` poles.
    """
    order = check_value("order", order, COUNT, InvalidOrder)
    fs = float(check_value("sample_rate_hz", sample_rate_hz, RATE,
                           InvalidCutoff))
    cutoffs = tuple(float(c) for c in np.atleast_1d(cutoffs_hz))
    nyq = fs / 2.0
    for c in cutoffs:
        if not (0.0 < c < nyq):
            raise InvalidCutoff(f"cutoff {c} Hz outside (0, {nyq}) Hz")
        if not math.isfinite(math.pi * c):
            raise InvalidCutoff(f"cutoff {c} Hz too large to pre-warp: "
                                "pi times it overflows")
    warped = [2.0 * fs * math.tan(math.pi * c / fs) for c in cutoffs]
    proto = [cmath.exp(1j * math.pi * (2 * k + order + 1) / (2 * order))
             for k in range(order)]

    if kind is FilterKind.LOW_PASS:
        if len(cutoffs) != 1:
            raise InvalidCutoff("low-pass takes exactly one cutoff")
        analog = [warped[0] * p for p in proto]
        ref_omega = 0.0  # normalize at DC
    elif kind is FilterKind.BAND_PASS:
        if len(cutoffs) != 2 or not cutoffs[0] < cutoffs[1]:
            raise InvalidCutoff("band-pass takes (low, high) with low < high")
        w1, w2 = warped
        bw, w0 = w2 - w1, math.sqrt(w1 * w2)
        analog = []
        for p in proto:
            half = p * bw / 2.0
            disc = cmath.sqrt(half * half - w0 * w0)
            analog.extend([half + disc, half - disc])
        ref_omega = 2.0 * math.atan(w0 / (2.0 * fs))  # center, rad/sample
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown filter kind {kind!r}")

    digital = [(2.0 * fs + p) / (2.0 * fs - p) for p in analog]
    sos = np.array([_normalize_section(sec, ref_omega)
                    for sec in _sections_from_poles(digital, kind)])
    for *_, a1, a2 in sos.tolist():
        _check_stable(a1, a2)
    # a section of two real poles rounds their sum and product, which can
    # move a pole the design rounded onto the unit circle back inside it; so
    # each pole is checked too, as a real pole of its modulus on its side
    for p in digital:
        _check_stable(-math.copysign(abs(p), p.real), 0.0)
    sos.flags.writeable = False
    return FilterDesign(order=order, kind=kind, cutoffs_hz=cutoffs,
                        sample_rate_hz=fs, sos=sos)


def _check_stable(a1: float, a2: float) -> None:
    """InvalidCutoff unless both roots of ``z^2 + a1 z + a2`` lie strictly
    inside the unit circle: the stability triangle (Jury 1964) ``1 + a1 + a2
    > 0``, ``1 - a1 + a2 > 0`` and ``a2 < 1``. ``math.fsum`` rounds each sum
    once, so its sign, and the verdict, are exact."""
    if abs(a1) <= 2.0 and abs(a2) <= 1.0:  # else outside, or NaN
        if not math.fsum((1.0, a1, a2)) > 0.0:
            raise InvalidCutoff("cutoff too low for the sample rate: the "
                                "design rounds a pole onto z = 1")
        if not math.fsum((1.0, -a1, a2)) > 0.0:
            raise InvalidCutoff("cutoff too close to Nyquist for the sample "
                                "rate: the design rounds a pole onto z = -1")
        if a2 < 1.0:
            return
    raise InvalidCutoff("band too narrow, or a cutoff too close to 0 Hz or "
                        "Nyquist, for the sample rate: the design rounds a "
                        "pole onto the unit circle")


def _sections_from_poles(poles, kind: FilterKind):
    """Group conjugate pole pairs into (num, den) section tuples.

    Low-pass sections put both zeros at z = -1; band-pass sections put one
    at z = +1 and one at z = -1. A leftover real pole (odd low-pass order)
    becomes a first-order section. Complex poles sorted by real part are
    taken from both ends in turn (first, last, second, ...): in real-part
    order, a wide band-pass cascade lifts its intermediate signal, and its
    rounding, far above the output.
    """
    tol = 1e-9
    by_real = sorted((p for p in poles if p.imag > tol),
                     key=lambda p: (p.real, p.imag))
    complex_poles = [p for pair in zip(by_real, reversed(by_real))
                     for p in pair][:len(by_real)]
    real_poles = sorted(p.real for p in poles if abs(p.imag) <= tol)

    sections = []

    def add(den, first_order=False):
        num = ([1.0, 0.0, -1.0] if kind is FilterKind.BAND_PASS else
               [1.0, 1.0, 0.0] if first_order else [1.0, 2.0, 1.0])
        sections.append((num, den))

    for p in complex_poles:
        add([1.0, -2.0 * p.real, abs(p) ** 2])
    for r1, r2 in zip(real_poles[::2], real_poles[1::2]):
        add([1.0, -(r1 + r2), r1 * r2])
    if len(real_poles) % 2:
        add([1.0, -real_poles[-1], 0.0], first_order=True)
    return sections


def _normalize_section(section, ref_omega: float):
    """Scale the numerator so section gain is exactly 1 at ``ref_omega``;
    InvalidCutoff when the cutoffs are so low for the sample rate that the
    band centre rounds onto 0."""
    num, den = section
    z1 = cmath.exp(-1j * ref_omega)
    z2 = z1 * z1
    h_num = num[0] + num[1] * z1 + num[2] * z2
    h_den = den[0] + den[1] * z1 + den[2] * z2
    if h_num == 0:
        raise InvalidCutoff("cutoff too low for the sample rate: the "
                            "design rounds the band centre onto 0 Hz")
    scale = abs(h_den) / abs(h_num)
    return [num[0] * scale, num[1] * scale, num[2] * scale,
            den[0], den[1], den[2]]


# --- zero-phase filtering -------------------------------------------------------

def filtfilt(design: FilterDesign, signal) -> np.ndarray:
    """Forward-backward filtering: squared magnitude response, zero phase.

    ``signal`` is one channel of shape (n,) or c channels of shape (n, c),
    each filtered down axis 0; the result has the same shape. Edges are
    extended with an odd reflection of length ``3 * (2*order + 1)`` before
    filtering and trimmed afterwards; each pass starts from the steady state
    of its first sample so constants pass through exactly.
    """
    x = np.asarray(signal, dtype=float)
    single = x.ndim != 2
    if single:
        x = x.reshape(-1, 1)
    n = x.shape[0]
    padlen = 3 * (2 * design.order + 1)
    if n <= padlen:
        raise SignalTooShort(
            f"filtfilt needs more than {padlen} samples, got {n}")
    left = 2.0 * x[0] - x[padlen:0:-1]
    right = 2.0 * x[-1] - x[-2:-padlen - 2:-1]
    ext = np.concatenate([left, x, right])
    y = _sosfilt_steady(design.sos, ext)
    y = _sosfilt_steady(design.sos, y[::-1])[::-1]
    y = y[padlen:padlen + n]
    return y[:, 0] if single else y


def _sosfilt_steady(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cascade of second-order sections down axis 0 of ``x`` (n, c).

    Each section is its FIR numerator followed by the all-pole recurrence.
    Both start from the steady state of the first sample: past inputs equal
    ``x[0]`` and past outputs equal ``gain * x[0]``.
    """
    for b0, b1, b2, _, a1, a2 in sos.tolist():
        u0 = x[0]
        gain = (b0 + b1 + b2) / (1.0 + a1 + a2)
        # b0 x[i] + b1 x[i-1] + b2 x[i-2], summed in that order
        v = b0 * x
        v[1:] += b1 * x[:-1]
        v[0] += b1 * u0
        v[2:] += b2 * x[:-2]
        v[:2] += b2 * u0
        y0 = (gain * u0).tolist()
        x = _linear_recurrence(v, a1, a2, y0, y0)
    return x


# --- Welch power spectral density ------------------------------------------------

def welch_psd(signal, sample_rate_hz: float, segment_len: int | None = None,
              overlap_fraction: float = 0.5) -> Spectrum:
    """Averaged Hann-windowed periodogram, one-sided, density scaled.

    Each segment has its mean removed, so the estimate is invariant to
    constant offsets, and the rectangle-rule integral of the density
    approximates the signal variance.
    """
    fs = float(check_value("sample_rate_hz", sample_rate_hz, RATE))
    overlap_fraction = check_value("overlap_fraction", overlap_fraction,
                                   FRACTION)
    x = np.asarray(signal, dtype=float).ravel()
    seg = min(256, x.size) if segment_len is None \
        else check_value("segment_len", segment_len, COUNT)
    if seg < 8:
        raise SignalTooShort(f"segment length must be >= 8, got {seg}")
    if x.size < seg:
        raise SignalTooShort(
            f"signal shorter than one segment ({x.size} < {seg})")

    step = max(1, int(round(seg * (1.0 - overlap_fraction))))
    starts = np.arange(0, x.size - seg + 1, step)
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(seg) / seg)
    scale = fs * float(np.sum(window * window))

    frames = np.stack([x[s:s + seg] for s in starts])
    frames = frames - frames.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(frames * window, axis=1)
    p = (spec.real ** 2 + spec.imag ** 2) / scale
    power = p.mean(axis=0)
    if seg % 2 == 0:
        power[1:-1] *= 2.0  # all bins except DC and Nyquist
    else:
        power[1:] *= 2.0
    freqs = np.arange(power.size) * fs / seg
    return Spectrum(freqs_hz=freqs, power=power, resolution_hz=fs / seg)


def band_power(spec: Spectrum, lo_hz: float, hi_hz: float) -> float:
    """Trapezoidal integral of the PSD over [lo_hz, hi_hz].

    Band edges falling between bins contribute via linear interpolation, so
    adjacent bands tile exactly. A band with no spectral support returns 0.
    """
    if not hi_hz > lo_hz:
        raise EmptyBand(f"need lo < hi, got [{lo_hz}, {hi_hz}]")
    freqs, power = spec.freqs_hz, spec.power
    lo = max(float(lo_hz), float(freqs[0]))
    hi = min(float(hi_hz), float(freqs[-1]))
    if hi <= lo:
        return 0.0
    inner = (freqs > lo) & (freqs < hi)
    xs = np.concatenate([[lo], freqs[inner], [hi]])
    ys = np.concatenate([[np.interp(lo, freqs, power)],
                         power[inner],
                         [np.interp(hi, freqs, power)]])
    # np.trapezoid's own operation order; that function needs NumPy >= 2.0
    return float((np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum())


# --- correlation -----------------------------------------------------------------

def pearson_corr(a, b) -> float:
    """Sample Pearson correlation coefficient in [-1, 1].

    Raises :class:`ConstantInput` when either input has zero variance, since
    the coefficient is undefined there; callers decide how to encode that.
    Raises ValueError naming ``a`` or ``b`` when it holds NaN or +-inf.
    """
    xa = np.asarray(a, dtype=float).ravel()
    xb = np.asarray(b, dtype=float).ravel()
    for name, values in (("a", xa), ("b", xb)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must hold finite numbers only")
    if xa.size != xb.size:
        raise LengthMismatch(f"lengths differ: {xa.size} vs {xb.size}")
    if xa.size < 2:
        raise SignalTooShort("correlation needs at least 2 samples")
    da = xa - xa.mean()
    db = xb - xb.mean()
    denom = math.sqrt(float(np.dot(da, da)) * float(np.dot(db, db)))
    if denom == 0.0:
        raise ConstantInput("zero-variance input; correlation undefined")
    r = float(np.dot(da, db)) / denom
    return max(-1.0, min(1.0, r))
