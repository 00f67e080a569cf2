import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wearbench import dsp, hrv, synth
from wearbench.errors import NoPeaksFound, SpanTooShort, TooFewIntervals
from wearbench.hrv import NNSeries
from wearbench.session_io import ChannelKind, SignalChannel


def nn_from_intervals(intervals_ms, t0=0.0):
    iv = np.asarray(intervals_ms, dtype=float)
    times = t0 + np.concatenate([[0.0], np.cumsum(iv)]) / 1000.0
    return NNSeries(intervals_ms=iv, peak_times_s=times)


# --- pure-python oracle for the 23 time-domain features ------------------------
# Independent path: plain lists, math module, explicit formulas.

def _o_mean(xs):
    return sum(xs) / len(xs)


def _o_std(xs):
    m = _o_mean(xs)
    return math.sqrt(sum((v - m) ** 2 for v in xs) / (len(xs) - 1))


def _o_percentile(xs, q):
    s = sorted(xs)
    rank = q / 100.0 * (len(s) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return s[lo]
    frac = rank - lo
    return s[lo] * (1 - frac) + s[hi] * frac


def _o_median(xs):
    return _o_percentile(xs, 50.0)


def _o_windows(intervals, times, minutes):
    width = minutes * 60.0
    t0 = times[0]
    span = times[-1] - times[0]
    n_win = math.floor(span / width)
    groups = []
    for w in range(n_win):
        group = [iv for iv, ts in zip(intervals, times[:-1])
                 if t0 + w * width <= ts < t0 + (w + 1) * width]
        groups.append(group)
    return groups


def _o_sdann(groups):
    means = [_o_mean(g) for g in groups if len(g) >= 1]
    return _o_std(means) if len(means) >= 2 else float("nan")


def _o_sdnni(groups):
    sds = [_o_std(g) for g in groups if len(g) >= 2]
    return _o_mean(sds) if len(sds) >= 2 else float("nan")


def _o_hist(xs):
    width = 7.8125
    idx = [math.floor(v / width) for v in xs]
    lo, hi = min(idx), max(idx)
    counts = [0] * (hi - lo + 1)
    for i in idx:
        counts[i - lo] += 1
    return counts


def _o_tinn(xs):
    counts = [0] + _o_hist(xs) + [0]
    n_bins = len(counts)
    m = counts.index(max(counts))
    peak = counts[m]
    if n_bins == 3:
        return 0.0
    best_err, best_w = math.inf, 0.0
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
            w = (ri - ni) * 7.8125
            if err < best_err or (err == best_err and w < best_w):
                best_err, best_w = err, w
    return best_w


def oracle_time_features(nn: NNSeries) -> dict:
    xs = [float(v) for v in nn.intervals_ms]
    times = [float(t) for t in nn.peak_times_s]
    diffs = [b - a for a, b in zip(xs, xs[1:])]
    mean = _o_mean(xs)
    sdnn = _o_std(xs)
    rmssd = math.sqrt(_o_mean([d * d for d in diffs]))
    median = _o_median(xs)
    madnn = 1.4826 * _o_median([abs(v - _o_median(xs)) for v in xs])
    counts = _o_hist(xs)
    return {
        "MeanNN": mean,
        "SDNN": sdnn,
        "SDANN1": _o_sdann(_o_windows(xs, times, 1.0)),
        "SDANN2": _o_sdann(_o_windows(xs, times, 2.0)),
        "SDNNI1": _o_sdnni(_o_windows(xs, times, 1.0)),
        "SDNNI2": _o_sdnni(_o_windows(xs, times, 2.0)),
        "RMSSD": rmssd,
        "SDRMSSD": sdnn / rmssd if rmssd > 0 else 0.0,
        "SDSD": _o_std(diffs) if len(diffs) >= 2 else float("nan"),
        "CVNN": sdnn / mean,
        "MCVNN": madnn / median,
        "CVSD": rmssd / mean,
        "IQRNN": _o_percentile(xs, 75) - _o_percentile(xs, 25),
        "MinNN": min(xs),
        "MaxNN": max(xs),
        "MedianNN": median,
        "MADNN": madnn,
        "HTI": len(xs) / max(counts),
        "TINN": _o_tinn(xs),
        "pNN50": 100.0 * sum(1 for d in diffs if abs(d) > 50.0) / len(diffs),
        "pNN20": 100.0 * sum(1 for d in diffs if abs(d) > 20.0) / len(diffs),
        "Prc20NN": _o_percentile(xs, 20),
        "Prc80NN": _o_percentile(xs, 80),
    }


def assert_matches_oracle(nn: NNSeries, rel=1e-9):
    got = hrv.hrv_time_features(nn)
    want = {f"HRV_{name}": v for name, v in oracle_time_features(nn).items()}
    assert set(got) == set(want)
    for name in want:
        g, w = got[name], want[name]
        if math.isnan(w):
            assert math.isnan(g), name
        else:
            assert g == pytest.approx(w, rel=rel, abs=1e-12), name


def random_nn_series(rng: np.random.Generator):
    kind = rng.integers(0, 20)
    if kind < 14:  # short, moderately spread
        center = rng.uniform(750.0, 1250.0)
        n = int(rng.integers(5, 51))
        iv = rng.uniform(center - 100.0, center + 100.0, n)
    elif kind < 15:  # short, widely spread
        n = int(rng.integers(5, 51))
        iv = rng.uniform(700.0, 1200.0, n)
    else:  # long enough for 1- and 2-minute windows
        n = int(rng.integers(150, 401))
        iv = rng.uniform(950.0, 1050.0, n)
    return nn_from_intervals(iv)


# --- peak detection ---------------------------------------------------------------


@pytest.fixture(scope="module")
def bvp_bandpass():
    return dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS, (0.7, 3.5),
                                  64.0)


def filtered_bvp(spec: synth.SynthSpec, bandpass) -> SignalChannel:
    session = synth.generate_session(spec)
    bvp = session.channel(ChannelKind.BVP)
    detrended = dsp.detrend(bvp.samples, 500.0)
    return dataclasses.replace(bvp, samples=dsp.filtfilt(bandpass, detrended))


class TestPeakDetection:
    def test_60bpm_60s(self, bvp_bandpass):
        spec = synth.SynthSpec(seed=7, duration_s=60.0, heart_rate_bpm=60.0,
                               hrv_mod_depth_ms=0.0)
        peaks = hrv.detect_pulse_peaks(filtered_bvp(spec, bvp_bandpass))
        assert abs(len(peaks) - 60) <= 2
        gaps_ms = np.diff(peaks) / 64.0 * 1000.0
        assert np.all(np.abs(gaps_ms - 1000.0) <= 50.0)

    def test_120bpm_30s(self, bvp_bandpass):
        spec = synth.SynthSpec(seed=9, duration_s=30.0, heart_rate_bpm=120.0,
                               hrv_mod_depth_ms=0.0)
        peaks = hrv.detect_pulse_peaks(filtered_bvp(spec, bvp_bandpass))
        assert abs(len(peaks) - 60) <= 2

    def test_constant_signal(self):
        flat = SignalChannel(ChannelKind.BVP, 0, 64.0, np.full(640, 1.0))
        with pytest.raises(NoPeaksFound):
            hrv.detect_pulse_peaks(flat)

    @settings(max_examples=200, deadline=None)
    # pulse trains whose peaks near the end flip with one sample more or
    # less in their clipped windows
    @example(seed=0, n=256, fs=4.0, window_s=3.0, scale=2.0, shape="pulses",
             period=5)
    @example(seed=0, n=11, fs=4.0, window_s=3.0, scale=1.375, shape="pulses",
             period=2)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 400),
           fs=st.sampled_from([4.0, 32.0, 64.0]),
           window_s=st.sampled_from([0.1, 0.75, 3.0, 20.0]),
           # the smallest positive scale: a threshold that is 0 or nearly
           scale=st.sampled_from([math.ulp(0.0), 0.5, 1.0])
           | st.floats(1.0, 2.5),
           shape=st.sampled_from(["noise", "rounded", "pulses"]),
           period=st.integers(2, 5))
    def test_equals_index_array_formula_bit_for_bit(self, seed, n, fs,
                                                   window_s, scale, shape,
                                                   period):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * np.exp(2.0 * rng.normal(size=n))
        if shape == "rounded":  # plateaus meet the >= and > comparisons
            x = np.round(x)
        elif shape == "pulses":
            # unit pulses: a pulse is a peak when its window holds fewer
            # than 1 / scale**2 pulses per sample, so one sample more or
            # less in a window changes the answer
            x = (np.arange(n) % period == 0).astype(float)
        bvp = SignalChannel(ChannelKind.BVP, 0, fs, x)
        try:
            got = hrv.detect_pulse_peaks(bvp, threshold_scale=scale,
                                         rms_window_s=window_s,
                                         refractory_s=0.01)
        except NoPeaksFound:
            got = None
        want = oracle_peak_candidates(x, fs, scale, window_s)
        if want.size == 0:
            assert got is None
        else:
            # a one-sample refractory period keeps every candidate
            assert np.array_equal(got, want)

    def test_spans_past_the_float_range_act_as_the_whole_signal(self):
        # 10 s of signal: a 20 s window and a 10 s refractory span it all
        x = np.random.default_rng(3).normal(size=640)
        bvp = SignalChannel(ChannelKind.BVP, 0, 64.0, x)
        whole = hrv.detect_pulse_peaks(bvp, rms_window_s=20.0,
                                       refractory_s=10.0)
        assert len(whole) == 1
        for span in (1e300, 1.7e308):
            assert np.array_equal(hrv.detect_pulse_peaks(
                bvp, rms_window_s=span, refractory_s=span), whole)

    def test_memory_stays_within_four_signal_copies(self):
        n = 100_000
        x = np.random.default_rng(5).normal(size=n)
        bvp = SignalChannel(ChannelKind.BVP, 0, 64.0, x)
        tracemalloc.start()
        try:
            hrv.detect_pulse_peaks(bvp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n


def oracle_peak_candidates(x, fs, threshold_scale, rms_window_s):
    """Local maxima above the moving-RMS threshold, from index arrays of
    every window's clipped bounds, as ``detect_pulse_peaks`` computed
    them before taking the full windows from two slices."""
    half = max(1, int(round(rms_window_s * fs / 2.0)))
    csum = np.concatenate([[0.0], np.cumsum(x * x)])
    idx = np.arange(x.size)
    lo = np.clip(idx - half, 0, x.size)
    hi = np.clip(idx + half + 1, 0, x.size)
    rms = np.sqrt((csum[hi] - csum[lo]) / (hi - lo))
    threshold = threshold_scale * rms
    interior = np.arange(1, x.size - 1)
    is_max = (x[interior] > x[interior - 1]) & (x[interior] >= x[interior + 1])
    above = x[interior] > threshold[interior]
    return interior[is_max & above]


def oracle_peaks_to_nn(peaks, sample_rate_hz):
    """The rejection walk over NumPy scalars, with ``np.median`` of the
    last five accepted intervals."""
    peaks = np.asarray(peaks, dtype=float).ravel()
    if peaks.size < 3:
        raise TooFewIntervals(f"need >= 3 peaks, got {peaks.size}")
    times = peaks / float(sample_rate_hz)
    raw = np.diff(times) * 1000.0
    accepted, pending = [], 0.0
    for d in raw:
        c = pending + d
        if c < hrv.NN_MIN_MS:
            pending = c
            continue
        if c > hrv.NN_MAX_MS:
            pending = 0.0
            continue
        if accepted:
            med = float(np.median(accepted[-5:]))
            if c < (1.0 - hrv.NN_MAX_DEVIATION) * med:
                pending = c
                continue
            if c > (1.0 + hrv.NN_MAX_DEVIATION) * med:
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


# interval kinds in ms: normal, short (< 250), long (> 2500), and 30-90%
# below or above a normal beat, so the running-median rule fires
_INTERVAL_MS = st.one_of(
    st.floats(600.0, 1100.0), st.floats(1.0, 249.0),
    st.floats(2501.0, 4000.0), st.floats(250.0, 560.0),
    st.floats(1350.0, 2500.0))


@st.composite
def peak_trains(draw):
    """Peak positions (samples) from mixed intervals, at a drawn rate; the
    first accepted beats give median windows of one to five intervals."""
    fs = draw(st.sampled_from([4.0, 32.0, 64.0, 100.0]))
    gaps = draw(st.lists(_INTERVAL_MS, min_size=0, max_size=40))
    peaks = np.cumsum([draw(st.floats(0.0, 500.0))] + gaps) * fs / 1000.0
    return (np.round(peaks) if draw(st.booleans()) else peaks), fs


def _nn_outcome(walk, peaks, fs):
    try:
        nn = walk(peaks, fs)
    except TooFewIntervals as exc:
        return str(exc)
    return nn.intervals_ms.tobytes(), nn.peak_times_s.tobytes()


class TestPeaksToNN:
    @given(train=peak_trains())
    @settings(max_examples=300, deadline=None)
    def test_equals_np_median_oracle_bit_for_bit(self, train):
        peaks, fs = train
        assert _nn_outcome(hrv.peaks_to_nn, peaks, fs) == \
            _nn_outcome(oracle_peaks_to_nn, peaks, fs)

    @pytest.mark.parametrize("fs", [math.nan, 0.0, -250.0, True, "250"],
                             ids=repr)
    def test_sample_rate_must_be_positive(self, fs):
        # NaN gave 127 NaN intervals: NaN fails every rejection comparison
        with pytest.raises(ValueError, match=re.escape(
                f"sample_rate_hz must be a positive number, got {fs!r}")):
            hrv.peaks_to_nn(np.arange(0, 6400, 50), fs)

    @pytest.mark.parametrize("last_ms", [1500.0, 750.0])
    def test_even_window_median_is_the_mean_of_the_middle_pair(self,
                                                               last_ms):
        # the median of 1000 and 1250 ms is 1125: 1500 ms is more than 30%
        # above it (not above 1250) and 750 ms more than 30% below it (not
        # below 1000), so both are rejected
        peaks = np.cumsum([0.0, 1000.0, 1250.0, last_ms])
        nn = hrv.peaks_to_nn(peaks, 1000.0)
        assert np.allclose(nn.intervals_ms, [1000.0, 1250.0])
        assert nn.intervals_ms.tobytes() == \
            oracle_peaks_to_nn(peaks, 1000.0).intervals_ms.tobytes()

    def test_uniform_spacing(self):
        nn = hrv.peaks_to_nn([0, 64, 128, 192], 64.0)
        assert np.allclose(nn.intervals_ms, [1000.0, 1000.0, 1000.0])
        assert np.allclose(np.diff(nn.peak_times_s) * 1000.0, nn.intervals_ms)

    def test_short_artifact_merged(self):
        # 93.75 ms interval is rejected and bridged into the next one
        nn = hrv.peaks_to_nn([0, 64, 70, 128], 64.0)
        assert np.allclose(nn.intervals_ms, [1000.0, 1000.0])

    def test_long_gap_dropped(self):
        # a 3-second dropout is removed, not interpolated
        peaks = [0, 64, 128, 320, 384, 448]
        nn = hrv.peaks_to_nn(peaks, 64.0)
        assert np.allclose(nn.intervals_ms, [1000.0] * 4)

    def test_deviation_rule(self):
        # 1500 ms deviates > 30% from the running median of 1000 ms
        peaks = np.cumsum([0, 64, 64, 64, 96, 64]) * 1
        nn = hrv.peaks_to_nn(peaks, 64.0)
        assert 1500.0 not in nn.intervals_ms

    def test_too_few_peaks(self):
        with pytest.raises(TooFewIntervals):
            hrv.peaks_to_nn([0, 64], 64.0)

    def test_all_survivors_in_band(self):
        rng = np.random.default_rng(3)
        gaps = rng.uniform(10, 200, 80).astype(int)
        peaks = np.cumsum(gaps)
        try:
            nn = hrv.peaks_to_nn(peaks, 64.0)
        except TooFewIntervals:
            return
        assert np.all(nn.intervals_ms >= 250.0)
        assert np.all(nn.intervals_ms <= 2500.0)


# --- time-domain features ------------------------------------------------------------


class TestTimeFeatures:
    def test_constant_series(self):
        f = hrv.hrv_time_features(nn_from_intervals([800.0] * 10))
        assert f["HRV_MeanNN"] == 800.0
        assert f["HRV_SDNN"] == 0.0
        assert f["HRV_RMSSD"] == 0.0
        assert f["HRV_pNN50"] == 0.0
        assert f["HRV_CVNN"] == 0.0
        assert f["HRV_SDRMSSD"] == 0.0
        assert f["HRV_TINN"] == 0.0

    def test_alternating_series(self):
        f = hrv.hrv_time_features(
            nn_from_intervals([800.0, 860, 800, 860, 800, 860]))
        assert f["HRV_RMSSD"] == pytest.approx(60.0)
        assert f["HRV_pNN50"] == 100.0
        assert f["HRV_pNN20"] == 100.0
        assert f["HRV_MedianNN"] == pytest.approx(830.0)

    def test_three_interval_percentiles(self):
        f = hrv.hrv_time_features(nn_from_intervals([700.0, 800.0, 900.0]))
        assert f["HRV_MinNN"] == 700.0
        assert f["HRV_MaxNN"] == 900.0
        assert f["HRV_IQRNN"] == pytest.approx(100.0)
        assert f["HRV_Prc20NN"] == pytest.approx(740.0)

    def test_percentile_ordering_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            nn = random_nn_series(rng)
            f = hrv.hrv_time_features(nn)
            assert f["HRV_MinNN"] <= f["HRV_Prc20NN"] <= f["HRV_MedianNN"] \
                <= f["HRV_Prc80NN"] <= f["HRV_MaxNN"]
            assert f["HRV_SDNN"] >= 0 and f["HRV_RMSSD"] >= 0
            assert 0 <= f["HRV_pNN50"] <= f["HRV_pNN20"] <= 100

    def test_brute_force_oracle_200_series(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            assert_matches_oracle(random_nn_series(rng))

    def test_tinn_equals_oracle_bit_for_bit(self):
        # every triangle's error is an exact sum, so the chosen width, ties
        # included, must equal the oracle's, wide histograms too
        rng = np.random.default_rng(28)
        draws = [random_nn_series(rng).intervals_ms for _ in range(100)]
        for _ in range(6):  # spans of 100 to 160 bins, uniform or peaked
            span = rng.uniform(100, 160) * 7.8125
            n = int(rng.integers(5, 400))
            draws.append(rng.uniform(500.0, 500.0 + span, n))
            draws.append(np.clip(rng.normal(900.0, span / 6, n), 500.0,
                                 500.0 + span))
        for xs in draws:
            assert hrv._tinn(xs) == _o_tinn(xs.tolist())
        assert max(len(_o_hist(xs.tolist())) for xs in draws) >= 100

    def test_window_features_need_two_windows(self):
        f = hrv.hrv_time_features(nn_from_intervals([900.0] * 40))  # 36 s
        assert math.isnan(f["HRV_SDANN1"]) and math.isnan(f["HRV_SDNNI1"])
        g = hrv.hrv_time_features(nn_from_intervals([1000.0] * 150))  # 150 s
        assert not math.isnan(g["HRV_SDANN1"])
        assert not math.isnan(g["HRV_SDNNI1"])
        assert math.isnan(g["HRV_SDANN2"])  # needs 240 s

    def test_too_few_intervals(self):
        with pytest.raises(TooFewIntervals):
            hrv.hrv_time_features(nn_from_intervals([800.0]))

    @given(shift=st.floats(-1e4, 1e4))
    @settings(max_examples=30, deadline=None)
    def test_time_shift_invariance(self, shift):
        rng = np.random.default_rng(77)
        iv = rng.uniform(800, 1200, 30)
        a = hrv.hrv_time_features(nn_from_intervals(iv))
        b = hrv.hrv_time_features(nn_from_intervals(iv, t0=shift))
        for name, va in a.items():
            vb = b[name]
            if math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == pytest.approx(vb, rel=1e-9), name

    @given(c=st.floats(0.8, 1.25))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(78)
        iv = rng.uniform(500, 1500, 40)
        a = hrv.hrv_time_features(nn_from_intervals(iv))
        b = hrv.hrv_time_features(nn_from_intervals(iv * c))
        scaled = ("MeanNN", "SDNN", "RMSSD", "SDSD", "IQRNN", "MinNN",
                  "MaxNN", "MedianNN", "MADNN", "Prc20NN", "Prc80NN")
        unchanged = ("CVNN", "CVSD", "MCVNN", "SDRMSSD")
        for name in scaled:
            assert b[f"HRV_{name}"] == pytest.approx(
                c * a[f"HRV_{name}"], rel=1e-9), name
        for name in unchanged:
            assert b[f"HRV_{name}"] == pytest.approx(
                a[f"HRV_{name}"], rel=1e-9), name


# --- frequency-domain features ----------------------------------------------------------


def modulated_nn(freq_hz: float, depth_ms: float = 50.0,
                 duration_s: float = 300.0) -> NNSeries:
    times = [0.0]
    while times[-1] < duration_s:
        period = 1.0 + (depth_ms / 1000.0) * math.sin(
            2 * math.pi * freq_hz * times[-1])
        times.append(times[-1] + period)
    times = np.asarray(times)
    return NNSeries(intervals_ms=np.diff(times) * 1000.0, peak_times_s=times)


class TestFreqFeatures:
    def test_lf_modulation_dominates(self):
        f = hrv.hrv_freq_features(modulated_nn(0.10))
        assert f["HRV_LF"] > 5.0 * f["HRV_HF"]
        assert f["HRV_LF_HF_ratio"] > 5.0

    def test_hf_modulation_dominates(self):
        f = hrv.hrv_freq_features(modulated_nn(0.25))
        assert f["HRV_HF"] > 5.0 * f["HRV_LF"]

    def test_constant_nn(self):
        f = hrv.hrv_freq_features(nn_from_intervals([1000.0] * 200))
        assert f["HRV_TP"] < 1.0
        assert f["HRV_LnHF"] == pytest.approx(math.log(1e-12))

    def test_band_partition(self):
        f = hrv.hrv_freq_features(modulated_nn(0.10))
        assert f["HRV_TP"] >= f["HRV_VLF"] + f["HRV_LF"] + f["HRV_HF"] \
            + f["HRV_VHF"] - 1e-9
        assert f["HRV_LFn"] + f["HRV_HFn"] <= 1.0 + 1e-9
        for v in (f["HRV_TP"], f["HRV_VLF"], f["HRV_LF"], f["HRV_HF"],
                  f["HRV_VHF"]):
            assert v >= 0.0

    def test_span_too_short(self):
        with pytest.raises(SpanTooShort):
            hrv.hrv_freq_features(nn_from_intervals([1000.0] * 20))

    def test_rejects_interp_rate_outside_its_range(self):
        # Nyquist must clear the HF band's top; the series holds span x rate
        # samples, so the rate is capped at the BVP rate
        nn = modulated_nn(0.10)
        for rate in (np.nextafter(0.8, math.inf), hrv.MAX_NN_INTERP_RATE_HZ):
            assert math.isfinite(hrv.hrv_freq_features(nn, rate)["HRV_TP"])
        for rate in (0.5, 0.8, np.nextafter(hrv.MAX_NN_INTERP_RATE_HZ,
                                            math.inf), 1e5, 1e300, math.nan):
            with pytest.raises(ValueError, match="above 0.8 and at most 64"):
                hrv.hrv_freq_features(nn, rate)

    def test_interpolation_matches_scipy_clamped(self):
        from scipy.interpolate import CubicSpline
        rng = np.random.default_rng(6)
        nn = nn_from_intervals(rng.uniform(800, 1200, 60))
        grid, values = hrv.interpolate_nn(nn, 4.0)
        ref = CubicSpline(nn.peak_times_s[1:], nn.intervals_ms,
                          bc_type="clamped")(grid)
        assert np.max(np.abs(values - ref)) < 1e-9

    @pytest.mark.parametrize("rate", [
        math.nan, 0.0, -4.0, "4", 0.8, 64.5, 1e300, sys.float_info.max],
        ids=repr)
    def test_interpolation_rate_must_lie_in_interp_rate(self, rate):
        # NaN raised "cannot convert float NaN to integer", 1e300 NumPy's
        # "Maximum allowed size exceeded" and the largest float
        # OverflowError
        nn = nn_from_intervals([1000.0] * 20)
        with pytest.raises(ValueError, match=re.escape(
                "rate_hz must be a number above 0.8 and at most 64, "
                f"got {rate!r}")):
            hrv.interpolate_nn(nn, rate)

    @given(m=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_spline_equals_row_by_row_oracle_bit_for_bit(self, m, seed):
        rng = np.random.default_rng(seed)
        tk = np.cumsum(rng.uniform(0.3, 2.0, m))
        yk = rng.uniform(300.0, 1500.0, m)
        tq = np.linspace(tk[0], tk[-1], 50)
        assert hrv._clamped_cubic_spline(tk, yk, tq).tobytes() == \
            oracle_clamped_spline(tk, yk, tq).tobytes()


def oracle_clamped_spline(tk, yk, tq):
    """The clamped spline with its tridiagonal system filled row by row
    and separate sub- and super-diagonals."""
    m = tk.size
    h = np.diff(tk)
    diag, sub, sup, rhs = np.empty(m), np.empty(m - 1), np.empty(m - 1), \
        np.empty(m)
    slope = np.diff(yk) / h
    diag[0], sup[0], rhs[0] = h[0] / 3.0, h[0] / 6.0, slope[0] - 0.0
    for i in range(1, m - 1):
        sub[i - 1] = h[i - 1] / 6.0
        diag[i] = (h[i - 1] + h[i]) / 3.0
        sup[i] = h[i] / 6.0
        rhs[i] = slope[i] - slope[i - 1]
    sub[m - 2] = h[m - 2] / 6.0
    diag[m - 1] = h[m - 2] / 3.0
    rhs[m - 1] = 0.0 - slope[m - 2]
    cp, dp = np.empty(m - 1), np.empty(m)
    cp[0], dp[0] = sup[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, m):
        denom = diag[i] - sub[i - 1] * cp[i - 1]
        if i < m - 1:
            cp[i] = sup[i] / denom
        dp[i] = (rhs[i] - sub[i - 1] * dp[i - 1]) / denom
    sec = np.empty(m)
    sec[m - 1] = dp[m - 1]
    for i in range(m - 2, -1, -1):
        sec[i] = dp[i] - cp[i] * sec[i + 1]
    seg = np.clip(np.searchsorted(tk, tq, side="right") - 1, 0, m - 2)
    hs = h[seg]
    a = (tk[seg + 1] - tq) / hs
    b = (tq - tk[seg]) / hs
    return (a * yk[seg] + b * yk[seg + 1]
            + ((a * a * a - a) * sec[seg] + (b * b * b - b) * sec[seg + 1])
            * hs ** 2 / 6.0)


class TestPeakArgumentRanges:
    """detect_pulse_peaks checks each argument against the range the
    config gives it and names the argument."""

    SPEC = synth.SynthSpec(seed=7, duration_s=120.0)

    @pytest.fixture(scope="class")
    def bvp(self):
        return synth.generate_session(self.SPEC).channel(ChannelKind.BVP)

    @pytest.mark.parametrize("name", ["rms_window_s", "refractory_s",
                                      "threshold_scale"])
    def test_nan_argument_raises_naming_it(self, bvp, name):
        # the two spans raised "cannot convert float NaN to integer"; a NaN
        # scale raised NoPeaksFound, which the pipeline turns into NaNs
        with pytest.raises(ValueError, match=f"^{name} must be a positive"):
            hrv.detect_pulse_peaks(bvp, **{name: math.nan})

    def test_negative_threshold_scale_raises(self, bvp):
        # it found 249 peaks on these 144 beats
        assert len(hrv.detect_pulse_peaks(bvp)) \
            == len(synth._beat_times(self.SPEC)) == 144
        with pytest.raises(ValueError, match="^threshold_scale must be"):
            hrv.detect_pulse_peaks(bvp, threshold_scale=-1.0)
