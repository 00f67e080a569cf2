"""Pulse-peak detection, NN-interval construction, and HRV features.

The pipeline is: band-passed pulse wave -> systolic peak indices ->
artifact-rejected NN intervals -> 23 time-domain and 9 frequency-domain
features. Each feature function returns its columns of the feature table
as a dict keyed by column name, in ``HRV_TIME_NAMES`` or ``HRV_FREQ_NAMES``
order. Definitions that admit more than one convention (percentile
method, histogram binning, window assignment) are pinned here so an
independent implementation can reproduce every value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import NoPeaksFound, SignalTooShort, SpanTooShort, TooFewIntervals
from .session_io import SignalChannel

# interval band considered physiologically plausible (ms)
NN_MIN_MS = 250.0
NN_MAX_MS = 2500.0
# relative deviation from the running median that flags an artifact
NN_MAX_DEVIATION = 0.30
# histogram bin width used by HTI and TINN (1/128 s, the classic choice)
HIST_BIN_MS = 7.8125

VLF_BAND = (0.0033, 0.04)
LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.40)


@dataclass(frozen=True)
class PeakDetectionParams:
    """Adaptive-threshold detector settings.

    A sample is a peak candidate if it is a strict local maximum above
    ``threshold_scale`` times the rolling RMS computed over
    ``rms_window_s`` seconds; candidates closer than ``refractory_s`` keep
    only the taller one.
    """

    threshold_scale: float = 0.6
    rms_window_s: float = 2.0
    refractory_s: float = 0.3


@dataclass(frozen=True)
class NNSeries:
    """Normal-to-normal intervals (ms) plus the beat times they connect."""

    intervals_ms: np.ndarray
    peak_times_s: np.ndarray

    def __post_init__(self):
        iv = np.asarray(self.intervals_ms, dtype=float)
        pt = np.asarray(self.peak_times_s, dtype=float)
        object.__setattr__(self, "intervals_ms", iv)
        object.__setattr__(self, "peak_times_s", pt)
        if pt.size != iv.size + 1:
            raise ValueError("need len(peak_times) == len(intervals) + 1")
        if np.any(iv <= 0):
            raise ValueError("intervals must be positive")
        recon = np.diff(pt) * 1000.0
        if np.max(np.abs(recon - iv)) > 1e-6:
            raise ValueError("peak times inconsistent with intervals")

    @property
    def span_seconds(self) -> float:
        return float(self.peak_times_s[-1] - self.peak_times_s[0])


def detect_pulse_peaks(bvp: SignalChannel,
                       params: PeakDetectionParams | None = None) -> np.ndarray:
    """Locate systolic peaks in a detrended, band-passed pulse wave.

    Returns ascending sample indices, one per cardiac cycle. Raises
    :class:`NoPeaksFound` on flat or too-short input.
    """
    params = params or PeakDetectionParams()
    x = np.asarray(bvp.samples, dtype=float).ravel()
    fs = bvp.sample_rate
    if x.size < 3:
        raise NoPeaksFound("signal too short for peak detection")

    # a window or refractory span longer than the signal acts as the signal
    n = x.size
    half = max(1, int(round(min(params.rms_window_s * fs / 2.0, n))))
    csum = np.empty(n + 1)
    csum[0] = 0.0
    np.cumsum(np.square(x, out=csum[1:]), out=csum[1:])
    # the moving RMS over [i - half, i + half], clipped to the signal: the
    # full windows from two slices of csum, the clipped edge ones apart
    threshold = np.empty(n)
    w = 2 * half + 1
    full = threshold[half:max(half, n - half)]
    np.subtract(csum[w:], csum[:max(n + 1 - w, 0)], out=full)
    full /= w
    edge = np.r_[0:half, max(half, n - half):n]
    lo, hi = np.maximum(edge - half, 0), np.minimum(edge + half + 1, n)
    threshold[edge] = (csum[hi] - csum[lo]) / (hi - lo)
    del csum
    np.sqrt(threshold, out=threshold)
    threshold *= params.threshold_scale

    mid = x[1:-1]
    is_peak = mid > x[:-2]
    is_peak &= mid >= x[2:]
    is_peak &= mid > threshold[1:-1]
    candidates = np.flatnonzero(is_peak) + 1
    if candidates.size == 0:
        raise NoPeaksFound("no local maxima above the adaptive threshold")

    refractory = max(1, int(round(min(params.refractory_s * fs, n))))
    kept: list[int] = []
    for i in candidates:
        if kept and i - kept[-1] < refractory:
            if x[i] > x[kept[-1]]:
                kept[-1] = int(i)
        else:
            kept.append(int(i))
    return np.asarray(kept, dtype=int)


def peaks_to_nn(peaks, sample_rate_hz: float) -> NNSeries:
    """Turn peak indices into artifact-rejected NN intervals.

    Rejection rules, applied while walking the raw intervals in order:

    * an interval shorter than 250 ms, or more than 30% below the running
      median of the previous five accepted intervals, is merged into the
      following interval (the spurious peak is dropped);
    * an interval longer than 2500 ms, or more than 30% above that running
      median, is discarded and the gap closed (later beats shift earlier),
      never interpolated.

    The returned peak times are rebuilt from the accepted intervals, so the
    series is always internally consistent.
    """
    peaks = np.asarray(peaks, dtype=float).ravel()
    if peaks.size < 3:
        raise TooFewIntervals(f"need >= 3 peaks, got {peaks.size}")
    times = peaks / float(sample_rate_hz)
    raw = np.diff(times) * 1000.0

    accepted: list[float] = []
    pending = 0.0
    for d in raw.tolist():
        c = pending + d
        if c < NN_MIN_MS:
            pending = c
            continue
        if c > NN_MAX_MS:
            pending = 0.0
            continue
        if accepted:
            # the median of the last five, with np.median's bits
            recent = sorted(accepted[-5:])
            mid = len(recent) // 2
            med = recent[mid] if len(recent) % 2 \
                else (recent[mid - 1] + recent[mid]) / 2.0
            if c < (1.0 - NN_MAX_DEVIATION) * med:
                pending = c
                continue
            if c > (1.0 + NN_MAX_DEVIATION) * med:
                pending = 0.0
                continue
        accepted.append(c)
        pending = 0.0

    if len(accepted) < 2:
        raise TooFewIntervals(
            f"only {len(accepted)} intervals survive artifact rejection")
    intervals = np.asarray(accepted)
    peak_times = times[0] + np.concatenate([[0.0], np.cumsum(intervals)]) / 1000.0
    return NNSeries(intervals_ms=intervals, peak_times_s=peak_times)


# --- time-domain features ---------------------------------------------------------


HRV_TIME_NAMES = (
    "HRV_MeanNN", "HRV_SDNN", "HRV_SDANN1", "HRV_SDANN2", "HRV_SDNNI1",
    "HRV_SDNNI2", "HRV_RMSSD", "HRV_SDRMSSD", "HRV_SDSD", "HRV_CVNN",
    "HRV_MCVNN", "HRV_CVSD", "HRV_IQRNN", "HRV_MinNN", "HRV_MaxNN",
    "HRV_MedianNN", "HRV_MADNN", "HRV_HTI", "HRV_TINN", "HRV_pNN50",
    "HRV_pNN20", "HRV_Prc20NN", "HRV_Prc80NN",
)


def _percentile(x: np.ndarray, q: float) -> float:
    """q-th percentile with linear interpolation between closest ranks."""
    return float(np.percentile(x, q))


def _windowed(nn: NNSeries, minutes: float):
    """Intervals grouped into complete, non-overlapping windows.

    An interval belongs to the window containing its start beat; windows are
    measured from the first beat and only spans fully covered by the
    recording count.
    """
    width = minutes * 60.0
    t0 = nn.peak_times_s[0]
    span = nn.span_seconds
    n_windows = int(math.floor(span / width))
    groups = []
    starts = nn.peak_times_s[:-1]
    for w in range(n_windows):
        mask = (starts >= t0 + w * width) & (starts < t0 + (w + 1) * width)
        groups.append(nn.intervals_ms[mask])
    return groups


def _sdann(groups) -> float:
    means = [float(np.mean(g)) for g in groups if g.size >= 1]
    if len(means) < 2:
        return float("nan")
    return float(np.std(means, ddof=1))


def _sdnni(groups) -> float:
    sds = [float(np.std(g, ddof=1)) for g in groups if g.size >= 2]
    if len(sds) < 2:
        return float("nan")
    return float(np.mean(sds))


def _hist_counts(nn_ms: np.ndarray):
    """Counts per fixed-width bin, bins aligned at 0 ms."""
    idx = np.floor(nn_ms / HIST_BIN_MS).astype(int)
    lo, hi = int(idx.min()), int(idx.max())
    counts = np.bincount(idx - lo, minlength=hi - lo + 1)
    return counts, lo


def _hti(nn_ms: np.ndarray) -> float:
    counts, _ = _hist_counts(nn_ms)
    return float(nn_ms.size / counts.max())


def _tinn(nn_ms: np.ndarray) -> float:
    """Base width of the least-squares triangle fit to the NN histogram.

    The triangle apex sits at the center of the fullest bin (first one on
    ties); base endpoints range over bin centers from one bin below the
    occupied range up to the apex, and from the apex up to one bin above.
    Width is the endpoint distance minimizing the squared error against the
    histogram (exact ties fall to the narrower triangle); a single-bin
    histogram yields 0. Errors are accumulated with exact summation so the
    argmin does not depend on accumulation order.
    """
    counts_arr, lo = _hist_counts(nn_ms)
    counts = [0] + [int(c) for c in counts_arr] + [0]
    n_bins = len(counts)
    m = counts.index(max(counts))
    peak = counts[m]
    if n_bins == 3:  # single occupied bin
        return 0.0

    best_err, best_width = math.inf, 0.0
    for ni in range(0, m + 1):
        for ri in range(m, n_bins):
            terms = []
            for b in range(n_bins):
                if b == m:
                    tri = float(peak)
                elif ni < b < m:
                    tri = peak * (b - ni) / (m - ni)
                elif m < b < ri:
                    tri = peak * (ri - b) / (ri - m)
                else:
                    tri = 0.0
                terms.append((counts[b] - tri) ** 2)
            err = math.fsum(terms)
            width = (ri - ni) * HIST_BIN_MS
            if err < best_err or (err == best_err and width < best_width):
                best_err, best_width = err, width
    return best_width


def hrv_time_features(nn: NNSeries) -> dict[str, float]:
    """The 23 time-domain features of an NN series.

    Standard deviations use N-1; percentiles interpolate linearly; MADNN
    carries the 1.4826 normal-consistency factor. Window statistics
    (SDANN/SDNNI over 1- and 2-minute windows) are NaN when fewer than two
    complete windows exist; those values are imputed downstream.
    """
    x = np.asarray(nn.intervals_ms, dtype=float)
    if x.size < 2:
        raise TooFewIntervals(f"need >= 2 intervals, got {x.size}")
    diffs = np.diff(x)

    mean_nn = float(np.mean(x))
    sdnn = float(np.std(x, ddof=1))
    rmssd = float(np.sqrt(np.mean(diffs ** 2)))
    sdsd = float(np.std(diffs, ddof=1)) if diffs.size >= 2 else float("nan")
    median_nn = _percentile(x, 50)
    madnn = 1.4826 * float(np.median(np.abs(x - np.median(x))))

    windows1, windows2 = _windowed(nn, 1.0), _windowed(nn, 2.0)

    return {
        "HRV_MeanNN": mean_nn,
        "HRV_SDNN": sdnn,
        "HRV_SDANN1": _sdann(windows1),
        "HRV_SDANN2": _sdann(windows2),
        "HRV_SDNNI1": _sdnni(windows1),
        "HRV_SDNNI2": _sdnni(windows2),
        "HRV_RMSSD": rmssd,
        "HRV_SDRMSSD": sdnn / rmssd if rmssd > 0 else 0.0,
        "HRV_SDSD": sdsd,
        "HRV_CVNN": sdnn / mean_nn,
        "HRV_MCVNN": madnn / median_nn,
        "HRV_CVSD": rmssd / mean_nn,
        "HRV_IQRNN": _percentile(x, 75) - _percentile(x, 25),
        "HRV_MinNN": float(np.min(x)),
        "HRV_MaxNN": float(np.max(x)),
        "HRV_MedianNN": median_nn,
        "HRV_MADNN": madnn,
        "HRV_HTI": _hti(x),
        "HRV_TINN": _tinn(x),
        "HRV_pNN50": 100.0 * float(np.mean(np.abs(diffs) > 50.0)),
        "HRV_pNN20": 100.0 * float(np.mean(np.abs(diffs) > 20.0)),
        "HRV_Prc20NN": _percentile(x, 20),
        "HRV_Prc80NN": _percentile(x, 80),
    }


# --- frequency-domain features ------------------------------------------------------


HRV_FREQ_NAMES = (
    "HRV_TP", "HRV_VLF", "HRV_LF", "HRV_HF", "HRV_VHF", "HRV_LF_HF_ratio",
    "HRV_LFn", "HRV_HFn", "HRV_LnHF",
)


def _clamped_cubic_spline(tk: np.ndarray, yk: np.ndarray, tq: np.ndarray):
    """Clamped piecewise-cubic interpolation with zero end slopes.

    Solves the tridiagonal system for the second derivatives M_i subject to
    y'(t_0) = y'(t_end) = 0, then evaluates the standard cubic pieces.
    """
    m = tk.size
    h = np.diff(tk)
    slope = np.diff(yk) / h
    # symmetric tridiagonal system: off-diagonals h / 6 on both sides
    off = h / 6.0
    diag = np.concatenate([h[:1], h[:-1] + h[1:], h[-1:]]) / 3.0
    rhs = np.concatenate([slope[:1] - 0.0, np.diff(slope), 0.0 - slope[-1:]])

    # Thomas algorithm
    cp = np.empty(m - 1)
    dp = np.empty(m)
    cp[0] = off[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, m):
        denom = diag[i] - off[i - 1] * cp[i - 1]
        if i < m - 1:
            cp[i] = off[i] / denom
        dp[i] = (rhs[i] - off[i - 1] * dp[i - 1]) / denom
    sec = np.empty(m)
    sec[m - 1] = dp[m - 1]
    for i in range(m - 2, -1, -1):
        sec[i] = dp[i] - cp[i] * sec[i + 1]

    seg = np.clip(np.searchsorted(tk, tq, side="right") - 1, 0, m - 2)
    hs = h[seg]
    a = (tk[seg + 1] - tq) / hs
    b = (tq - tk[seg]) / hs
    return (a * yk[seg] + b * yk[seg + 1]
            + ((a ** 3 - a) * sec[seg] + (b ** 3 - b) * sec[seg + 1])
            * hs ** 2 / 6.0)


def interpolate_nn(nn: NNSeries, rate_hz: float = 4.0):
    """Resample NN values onto a uniform grid over the beat times.

    Each interval is anchored at its end beat; the grid runs from the first
    to the last anchor at ``rate_hz``.
    """
    tk = nn.peak_times_s[1:]
    yk = nn.intervals_ms
    if tk.size < 2:
        raise TooFewIntervals("interpolation needs >= 2 intervals")
    n_grid = int(math.floor((tk[-1] - tk[0]) * rate_hz)) + 1
    tq = tk[0] + np.arange(n_grid) / rate_hz
    return tq, _clamped_cubic_spline(tk, yk, tq)


def hrv_freq_features(nn: NNSeries, interp_rate_hz: float = 4.0,
                      welch_overlap: float = 0.5) -> dict[str, float]:
    """Band powers of the interpolated, mean-removed NN series (ms^2).

    Bands: VLF 0.0033-0.04 Hz, LF 0.04-0.15 Hz, HF 0.15-0.4 Hz, VHF from
    0.4 Hz to Nyquist; TP spans 0.0033 Hz to Nyquist. HF is floored at
    1e-12 before the log. Welch segments are min(256, n) samples long.
    """
    if nn.span_seconds < 30.0:
        raise SpanTooShort(
            f"NN span {nn.span_seconds:.1f} s < 30 s; spectrum unreliable")
    _, values = interpolate_nn(nn, interp_rate_hz)
    values = values - values.mean()
    try:
        spec = dsp.welch_psd(values, interp_rate_hz,
                             overlap_fraction=welch_overlap)
    except SignalTooShort as exc:
        raise SpanTooShort(str(exc)) from exc
    nyquist = interp_rate_hz / 2.0

    vlf = dsp.band_power(spec, *VLF_BAND)
    lf = dsp.band_power(spec, *LF_BAND)
    hf = dsp.band_power(spec, *HF_BAND)
    vhf = dsp.band_power(spec, HF_BAND[1], nyquist)
    tp = dsp.band_power(spec, VLF_BAND[0], nyquist)

    return {
        "HRV_TP": tp,
        "HRV_VLF": vlf,
        "HRV_LF": lf,
        "HRV_HF": hf,
        "HRV_VHF": vhf,
        "HRV_LF_HF_ratio": lf / hf if hf > 0 else 0.0,
        "HRV_LFn": lf / tp if tp > 0 else 0.0,
        "HRV_HFn": hf / tp if tp > 0 else 0.0,
        "HRV_LnHF": math.log(max(hf, 1e-12)),
    }
