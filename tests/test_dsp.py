import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wearbench import dsp
from wearbench.errors import (
    ConstantInput,
    EmptyBand,
    InvalidCutoff,
    InvalidOrder,
    SignalTooShort,
)

MINUS_3DB = 10 ** (-3.01 / 20)


def frequency_response(design, freqs_hz):
    """Complex response of the cascade evaluated on the unit circle."""
    f = np.asarray(freqs_hz, dtype=float)
    z1 = np.exp(-2j * math.pi * f / design.sample_rate_hz)
    z2 = z1 * z1
    h = np.ones_like(z1, dtype=complex)
    for b0, b1, b2, _, a1, a2 in design.sos:
        h *= (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
    return h


def section_poles(sos):
    """Every pole of the sections, by ``np.roots``: an oracle that shares no
    code with the design's own check."""
    return np.concatenate([np.roots([1.0, a1, a2]) for *_, a1, a2 in sos])


# --- scalar oracles: the per-sample loops the blocked kernel replaced ------------


def scalar_recurrence(u, a1, a2, y1, y2):
    """y[i] = u[i] - a1 y[i-1] - a2 y[i-2], one sample at a time per column."""
    out = np.empty_like(u)
    for col in range(u.shape[1]):
        p1, p2 = y1[col], y2[col]
        for i in range(u.shape[0]):
            p1, p2 = u[i, col] - a1 * p1 - a2 * p2, p1
            out[i, col] = p1
    return out


def df2t_sosfilt_steady(sos, x):
    """Direct-form-II-transposed cascade from the first sample's steady state."""
    data = list(x)
    for b0, b1, b2, _, a1, a2 in sos:
        u0 = data[0]
        y0 = (b0 + b1 + b2) / (1.0 + a1 + a2) * u0
        s1 = (b1 + b2) * u0 - (a1 + a2) * y0
        s2 = b2 * u0 - a2 * y0
        out = []
        for xn in data:
            yn = b0 * xn + s1
            s1 = b1 * xn - a1 * yn + s2
            s2 = b2 * xn - a2 * yn
            out.append(yn)
        data = out
    return np.asarray(data)


def solve_pentadiag_spd(d0, d1, d2, b):
    """Row-by-row Cholesky factorisation and both sweeps."""
    n = b.size
    l0 = np.empty(n)
    l1 = np.zeros(max(n - 1, 0))
    l2 = np.zeros(max(n - 2, 0))
    for j in range(n):
        v = d0[j]
        if j >= 1:
            v -= l1[j - 1] * l1[j - 1]
        if j >= 2:
            v -= l2[j - 2] * l2[j - 2]
        l0[j] = math.sqrt(v)
        if j + 1 < n:
            w = d1[j]
            if j >= 1:
                w -= l2[j - 1] * l1[j - 1]
            l1[j] = w / l0[j]
        if j + 2 < n:
            l2[j] = d2[j] / l0[j]
    y = np.empty(n)
    for j in range(n):
        s = b[j]
        if j >= 1:
            s -= l1[j - 1] * y[j - 1]
        if j >= 2:
            s -= l2[j - 2] * y[j - 2]
        y[j] = s / l0[j]
    out = np.empty(n)
    for j in range(n - 1, -1, -1):
        s = y[j]
        if j + 1 < n:
            s -= l1[j] * out[j + 1]
        if j + 2 < n:
            s -= l2[j] * out[j + 2]
        out[j] = s / l0[j]
    return out


def detrend_matrix(n, lam):
    """The dense n x n matrix I + lam^2 D2'D2."""
    d2_op = np.zeros((n - 2, n))
    for k in range(n - 2):
        d2_op[k, k:k + 3] = (1.0, -2.0, 1.0)
    return np.eye(n) + lam ** 2 * d2_op.T @ d2_op


def detrend_bands(n, lam):
    """The three bands of I + lam^2 D2'D2."""
    dense = detrend_matrix(n, lam)
    return (np.diag(dense).copy(), np.diag(dense, 1).copy(),
            np.diag(dense, 2).copy())


def oracle_detrend(x, lam):
    """Exact factor and full-length sweeps, with one refinement pass whose
    residual is the dense matrix product."""
    dense = detrend_matrix(x.size, lam)
    d0, d1, d2 = (np.diag(dense, i) for i in range(3))
    trend = solve_pentadiag_spd(d0, d1, d2, x)
    resid = x - dense @ trend
    trend = trend + solve_pentadiag_spd(d0, d1, d2, resid)
    return x - trend


def per_call_sweep_tables(n, lam2):
    """The ``(head, mid, tail)`` lists of both sweeps, built from the
    factor of length n as each detrend call once built them."""
    rows, k = dsp._detrend_cholesky(n, lam2)

    def row(j):
        if j < 0:
            return (1.0, 0.0, 0.0)
        if j <= k:
            return rows[j]
        return rows[k] if j <= n - 3 else rows[j - n + k + 3]

    def forward(j):
        return (row(j)[0], row(j - 1)[1], row(j - 2)[2])

    return [[[forward(j) for j in range(min(k + 2, n - 2))], rows[k],
             [forward(n - 2), forward(n - 1)]],
            [[row(n - 1), row(n - 2)], rows[k],
             [row(j) for j in range(k - 1, -1, -1)]]]


def refined_dense_detrend(x, lam, passes):
    """Dense solve, refined ``passes`` times with a long-double residual."""
    dense = detrend_matrix(x.size, lam)
    wide = dense.astype(np.longdouble)
    trend = np.linalg.solve(dense, x)
    for _ in range(passes):
        resid = x.astype(np.longdouble) - wide @ trend
        trend = trend + np.linalg.solve(dense, resid.astype(float))
    return x - trend


@st.composite
def stable_coefficients(draw):
    """(a1, a2) of 1 + a1 z^-1 + a2 z^-2 with both poles of radius <= 0.999."""
    r = draw(st.floats(0.0, 0.999))
    if draw(st.booleans()):  # complex pair r exp(+-i theta)
        theta = draw(st.floats(0.0, math.pi))
        return -2.0 * r * math.cos(theta), r * r
    p1 = draw(st.sampled_from([r, -r]))
    p2 = draw(st.floats(-0.999, 0.999))
    return -(p1 + p2), p1 * p2


# block lengths are ceil(sqrt(n)), so these sit on and beside block edges
EDGE_LENGTHS = [1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26, 99, 100, 101,
                399, 400, 401, 1023, 1024, 1025]


class TestLinearRecurrence:
    @staticmethod
    def check(u, a1, a2, y1, y2):
        got = dsp._linear_recurrence(u, a1, a2, y1, y2)
        want = scalar_recurrence(u, a1, a2, y1, y2)
        assert got.shape == want.shape
        scale = (np.max(np.abs(want), initial=0.0) + np.max(np.abs(u))
                 + np.max(np.abs(np.concatenate([y1, y2]))))
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * scale

    @given(coef=stable_coefficients(),
           n=st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 1500)),
           cols=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_recurrence(self, coef, n, cols, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(n, cols))
        self.check(u, *coef, rng.uniform(-10, 10, cols),
                   rng.uniform(-10, 10, cols))

    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_block_edges(self, n):
        rng = np.random.default_rng(n)
        self.check(rng.normal(size=(n, 2)), -1.6, 0.81, [0.5, -2.0],
                   [1.0, 3.0])

    def test_empty_input(self):
        assert dsp._linear_recurrence(np.zeros((0, 2)), 0.5, 0.1,
                                      [1.0, 1.0], [1.0, 1.0]).shape == (0, 2)

    def test_first_order_section(self):
        rng = np.random.default_rng(1)
        self.check(rng.normal(size=(500, 1)), -0.95, 0.0, [2.0], [0.0])

    def test_columns_are_independent(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(777, 3))
        y1, y2 = [1.0, -2.0, 0.5], [0.0, 4.0, -1.0]
        together = dsp._linear_recurrence(u, -1.2, 0.5, y1, y2)
        for col in range(3):
            alone = dsp._linear_recurrence(u[:, col:col + 1], -1.2, 0.5,
                                           y1[col:col + 1], y2[col:col + 1])
            assert np.array_equal(together[:, col:col + 1], alone)


# --- detrend -----------------------------------------------------------------


class TestDetrend:
    def test_constant_becomes_zero(self):
        out = dsp.detrend(np.full(4, 5.0), 500.0)
        assert np.max(np.abs(out)) < 1e-6

    def test_zero_stays_zero(self):
        out = dsp.detrend(np.zeros(100), 500.0)
        assert np.max(np.abs(out)) == 0.0

    def test_ramp_plus_sinusoid_recovers_sinusoid(self):
        # the ramp is in the regularizer's null space, so only the
        # sinusoid's tiny leakage into the trend remains as error
        fs = 8.0
        t = np.arange(0, 60, 1 / fs)
        sinusoid = np.sin(2 * math.pi * 1.0 * t)
        ramp = 0.5 * t
        out = dsp.detrend(ramp + sinusoid, 500.0)
        err = out - sinusoid
        rel = np.sqrt(np.mean(err ** 2)) / np.sqrt(np.mean(sinusoid ** 2))
        assert rel < 0.05

    def test_output_mean_is_negligible(self):
        rng = np.random.default_rng(7)
        x = rng.normal(3.0, 2.0, 500) + np.linspace(0, 10, 500)
        out = dsp.detrend(x, 500.0)
        assert abs(float(out.mean())) < 1e-6 * np.sqrt(np.mean(x ** 2))

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            dsp.detrend([1.0, 2.0], 500.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_lambda_that_is_not_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match=r"^lam must be a positive"):
            dsp.detrend(np.arange(10.0), lam)

    def test_rejects_lambda_above_the_bound(self):
        # the factor breaks down near 7e7; the bound leaves a wide margin
        x = np.arange(10.0)
        assert np.all(np.isfinite(dsp.detrend(x, dsp.MAX_DETREND_LAMBDA)))
        for lam in (np.nextafter(dsp.MAX_DETREND_LAMBDA, math.inf), 1e8,
                    1e100):
            with pytest.raises(ValueError, match="<= 1e\\+06"):
                dsp.detrend(x, lam)

    @pytest.mark.parametrize("lam", [1.0, 50.0, 500.0])
    @pytest.mark.parametrize("n", [*range(3, 13), 40])
    def test_band_formula_matches_dense_bands(self, n, lam):
        want = np.zeros((n, 3))  # entries past the matrix edge are zero
        want[:, 0], want[:-1, 1], want[:-2, 2] = detrend_bands(n, lam)
        got = np.array([dsp._detrend_row(j, n, lam * lam) for j in range(n)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,lam", [
        (3, 500.0), (4, 50.0), (7, 500.0), (10, 1.0), (60, 50.0), (300, 1.0),
        (600, 500.0), (3000, 500.0),
    ])
    def test_matches_exact_factor_oracle(self, n, lam):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.normal(size=n)) + rng.normal(size=n)
        got = dsp.detrend(x, lam)
        want = oracle_detrend(x, lam)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(x))

    def test_factor_rows_converge_for_long_signals(self):
        n, lam = 3000, 500.0
        rows, k = dsp._detrend_cholesky(n, lam * lam)
        assert 2 <= k < n - 5
        assert len(rows) == k + 3
        d0, d1, d2 = detrend_bands(n, lam)
        # the converged row is the fixed point of the interior recurrence
        l0, l1, l2 = rows[k]
        assert l0 * l0 + l1 * l1 + l2 * l2 == pytest.approx(d0[n // 2],
                                                            rel=1e-14)
        assert l0 * l1 + l1 * l2 == pytest.approx(d1[n // 2], rel=1e-14)
        assert l0 * l2 == pytest.approx(d2[n // 2], rel=1e-14)

    def test_short_signal_keeps_exact_factor(self):
        rows, k = dsp._detrend_cholesky(40, 500.0 * 500.0)
        assert k == 40 - 3
        assert len(rows) == 40

    @pytest.mark.parametrize("n,lam", [
        (19_200, 500.0), (5_529_600, 500.0), (460, 500.0), (1000, 1.0),
        (40, 500.0), (459, 500.0), (3, 50.0), (19_200, 1e6),
    ])
    def test_cached_tables_equal_the_lists_built_per_call(self, n, lam):
        got = dsp._sweep_tables(n, lam * lam)
        assert [[list(head), mid, list(tail)] for head, mid, tail in got] \
            == per_call_sweep_tables(n, lam * lam)

    def test_matches_dense_solve_on_converged_path(self):
        # n is far past the row where the factor converges for lam = 500
        rng = np.random.default_rng(17)
        n, lam = 2000, 500.0
        x = np.cumsum(rng.normal(size=n)) + rng.normal(size=n)
        d0, d1, d2 = detrend_bands(n, lam)
        dense = (np.diag(d0) + np.diag(d1, 1) + np.diag(d1, -1)
                 + np.diag(d2, 2) + np.diag(d2, -2))
        trend = np.linalg.solve(dense, x)
        # one refinement with the residual in extended precision
        resid = x.astype(np.longdouble) - dense.astype(np.longdouble) @ trend
        trend = trend + np.linalg.solve(dense, resid.astype(float))
        expected = x - trend
        got = dsp.detrend(x, lam)
        assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [5, 40, 460, 1500])
    def test_near_exact_solution_at_large_lambda(self, n):
        # the residual takes D2 v before scaling by lam^2, so the refinement
        # pass does not lose digits to terms of size lam^2 v that cancel
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.normal(size=n)) + rng.normal(size=n)
        want = refined_dense_detrend(x, 500.0, passes=4)
        got = dsp.detrend(x, 500.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(x))

    def test_memory_stays_within_ten_signal_copies(self):
        n = 100_000
        x = np.cumsum(np.random.default_rng(5).normal(size=n))
        tracemalloc.start()
        try:
            dsp.detrend(x, 500.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 8 * n

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        lam = 50.0
        n = x.size
        d2 = np.zeros((n - 2, n))
        for k in range(n - 2):
            d2[k, k:k + 3] = (1.0, -2.0, 1.0)
        trend = np.linalg.solve(np.eye(n) + lam ** 2 * d2.T @ d2, x)
        expected = x - trend
        got = dsp.detrend(x, lam)
        assert np.max(np.abs(got - expected)) < 1e-9


# --- Butterworth design ----------------------------------------------------------


class TestButterworthDesign:
    def test_lowpass_half_power_at_cutoff(self):
        design = dsp.design_butterworth(5, dsp.FilterKind.LOW_PASS, (10.0,),
                                        32.0)
        h = abs(frequency_response(design, [10.0])[0])
        assert h == pytest.approx(0.7079, rel=0.01)
        assert h == pytest.approx(MINUS_3DB, abs=0.01)

    def test_lowpass_monotone_stopband(self):
        design = dsp.design_butterworth(5, dsp.FilterKind.LOW_PASS, (10.0,),
                                        32.0)
        freqs = np.linspace(10.0, 15.9, 60)
        mags = np.abs(frequency_response(design, freqs))
        assert mags[0] > mags[-1]
        assert np.all(np.diff(mags) < 1e-12)
        assert abs(frequency_response(design, [14.0])[0]) < mags[0]

    def test_bandpass_response(self):
        design = dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS,
                                        (0.7, 3.5), 64.0)
        mags = np.abs(frequency_response(design, [0.05, 1.5]))
        assert mags[0] < 0.05
        assert mags[1] > 0.9

    def test_bandpass_half_power_at_both_edges(self):
        design = dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS,
                                        (0.7, 3.5), 64.0)
        mags = np.abs(frequency_response(design, [0.7, 3.5]))
        assert mags == pytest.approx([MINUS_3DB, MINUS_3DB], abs=0.012)

    @pytest.mark.parametrize("order,kind,cutoffs,fs", [
        (1, dsp.FilterKind.LOW_PASS, (1.0,), 8.0),
        (2, dsp.FilterKind.LOW_PASS, (0.05,), 4.0),
        (3, dsp.FilterKind.LOW_PASS, (8.0,), 64.0),
        (4, dsp.FilterKind.LOW_PASS, (1.0,), 4.0),
        (5, dsp.FilterKind.LOW_PASS, (10.0,), 32.0),
        (2, dsp.FilterKind.BAND_PASS, (0.7, 3.5), 64.0),
        (2, dsp.FilterKind.BAND_PASS, (0.04, 0.4), 4.0),
        (3, dsp.FilterKind.BAND_PASS, (5.0, 12.0), 64.0),
    ])
    def test_stability_and_cutoff_accuracy(self, order, kind, cutoffs, fs):
        design = dsp.design_butterworth(order, kind, cutoffs, fs)
        assert np.all(np.abs(section_poles(design.sos)) < 1.0)
        mags = np.abs(frequency_response(design, list(cutoffs)))
        db = 20 * np.log10(mags)
        assert np.all(np.abs(db - (-3.01)) < 0.1)

    def test_matches_scipy(self):
        from scipy import signal as sps
        design = dsp.design_butterworth(5, dsp.FilterKind.LOW_PASS, (10.0,),
                                        32.0)
        freqs = np.linspace(0.1, 15.9, 200)
        mine = np.abs(frequency_response(design, freqs))
        b, a = sps.butter(5, 10.0, fs=32.0)
        _, h = sps.freqz(b, a, worN=freqs, fs=32.0)
        assert np.max(np.abs(mine - np.abs(h))) < 1e-8

    @given(order=st.integers(1, 6), rel_cut=st.floats(0.02, 0.98))
    @settings(max_examples=60, deadline=None)
    def test_random_lowpass_stable_and_on_spec(self, order, rel_cut):
        fs = 32.0
        cutoff = rel_cut * fs / 2.0
        design = dsp.design_butterworth(order, dsp.FilterKind.LOW_PASS,
                                        (cutoff,), fs)
        assert np.all(np.abs(section_poles(design.sos)) < 1.0)
        mag = abs(frequency_response(design, [cutoff])[0])
        assert 20 * math.log10(mag) == pytest.approx(-3.01, abs=0.1)

    @given(order=st.integers(1, 4), lo=st.floats(0.03, 0.4),
           width=st.floats(0.05, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_random_bandpass_stable_and_on_spec(self, order, lo, width):
        fs = 32.0
        f1 = lo * fs / 2.0
        f2 = min(0.98, lo + width) * fs / 2.0
        if f2 <= f1:
            return
        design = dsp.design_butterworth(order, dsp.FilterKind.BAND_PASS,
                                        (f1, f2), fs)
        assert np.all(np.abs(section_poles(design.sos)) < 1.0)
        mags = np.abs(frequency_response(design, [f1, f2]))
        assert np.all(np.abs(20 * np.log10(mags) - (-3.01)) < 0.1)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidOrder):
            dsp.design_butterworth(0, dsp.FilterKind.LOW_PASS, (1.0,), 8.0)
        with pytest.raises(InvalidCutoff):
            dsp.design_butterworth(2, dsp.FilterKind.LOW_PASS, (4.0,), 8.0)
        with pytest.raises(InvalidCutoff):
            dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS, (3.0, 1.0),
                                   8.0)

    @pytest.mark.parametrize("kind,cutoffs", [
        (dsp.FilterKind.BAND_PASS, (1e-9, 2e-9)),
        (dsp.FilterKind.BAND_PASS, (1e-300, 2e-300)),
        (dsp.FilterKind.BAND_PASS, (5e-324, 1.0)),
        (dsp.FilterKind.LOW_PASS, (1e-300,)),
    ])
    def test_cutoff_too_low_for_the_sample_rate(self, kind, cutoffs):
        # a pole rounded onto z = 1 leaves the steady state no denominator,
        # a band centre rounded to 0 leaves no gain to normalise
        with pytest.raises(InvalidCutoff, match="too low for the sample"):
            dsp.design_butterworth(2, kind, cutoffs, 64.0)

    @pytest.mark.parametrize("order,kind,cutoffs", [
        (1, dsp.FilterKind.LOW_PASS, (8.988465674311578e+307,)),
        (2, dsp.FilterKind.BAND_PASS, (1e307, 8e307)),
    ])
    def test_cutoff_too_large_to_warp(self, order, kind, cutoffs):
        # below Nyquist, but pi times the cutoff overflows before the tan
        with pytest.raises(InvalidCutoff, match="too large to pre-warp"):
            dsp.design_butterworth(order, kind, cutoffs, sys.float_info.max)

    def test_denominators_normalized(self):
        design = dsp.design_butterworth(4, dsp.FilterKind.LOW_PASS, (1.0,),
                                        8.0)
        assert np.all(design.sos[:, 3] == 1.0)


def ulp_neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def exactly_stable(a1, a2):
    """The stability triangle ``|a2| < 1``, ``|a1| < 1 + a2`` in exact
    rational arithmetic."""
    if not (math.isfinite(a1) and math.isfinite(a2)):
        return False
    a1, a2 = Fraction(a1), Fraction(a2)
    return abs(a2) < 1 and abs(a1) < 1 + a2


def unchecked_sos(order, kind, cutoffs, fs):
    """The sections a design stores, built with the stability check off."""
    check = dsp._check_stable
    dsp._check_stable = lambda a1, a2: None
    try:
        return dsp.design_butterworth(order, kind, cutoffs, fs).sos
    finally:
        dsp._check_stable = check


def refused(order, kind, cutoffs, fs):
    try:
        dsp.design_butterworth(order, kind, cutoffs, fs)
    except InvalidCutoff:
        return True
    return False


class TestStabilityCheck:
    # 1 + a2 rounds for these a2, so a float |a1| < 1 + a2 errs beside it
    A2 = [0.0, 2.0 ** -60, -2.0 ** -60, 1e-17, 0.3, -0.7, 0.9999,
          np.nextafter(-1.0, 0.0), 1.0 - 2.0 ** -53]

    def cases(self):
        for a2 in ulp_neighbours(1.0) + ulp_neighbours(-1.0):
            for a1 in (0.0, 0.5, -0.5, 1.9, -1.9):
                yield a1, a2
        for a2 in self.A2:
            for edge in ulp_neighbours(1.0 + a2):
                yield edge, a2
                yield -edge, a2
        for a1 in ulp_neighbours(1.0):  # first-order sections
            yield a1, 0.0
            yield -a1, 0.0
        for bad in (math.nan, math.inf, -math.inf):
            yield bad, 0.5
            yield 0.5, bad

    def test_matches_exact_rational_arithmetic(self):
        verdicts, float_misjudged = [], 0
        for a1, a2 in self.cases():
            a1, a2 = float(a1), float(a2)
            stable = exactly_stable(a1, a2)
            verdicts.append(stable)
            float_misjudged += stable != (abs(a2) < 1 and abs(a1) < 1 + a2)
            if stable:
                assert dsp._check_stable(a1, a2) is None, (a1, a2)
            else:
                with pytest.raises(InvalidCutoff):
                    dsp._check_stable(a1, a2)
        assert 0 < sum(verdicts) < len(verdicts)
        # the cases reach where 1 + a2 rounds, so a float test would fail
        assert float_misjudged > 0

    def test_sections_rounded_past_nyquist_are_refused(self):
        # the upper edge is 2.3e-10 Hz below Nyquist: the last four stored
        # sections have 1 - a1 + a2 = 0 (three) or < 0 (one), a real pole on
        # or beyond -1, while np.roots puts every pole inside the circle
        args = (8, dsp.FilterKind.BAND_PASS,
                (15.999999999887727, 31.999999999775454), 64.0)
        sos = unchecked_sos(*args)
        assert np.all(np.abs(section_poles(sos)) < 1.0)
        at_minus_1 = [math.fsum((1.0, -a1, a2)) for *_, a1, a2 in sos[4:]]
        assert max(at_minus_1) == 0.0 and min(at_minus_1) < 0.0
        with pytest.raises(InvalidCutoff, match="too close to Nyquist"):
            dsp.design_butterworth(*args)

    def test_real_poles_rounded_onto_z_1_are_refused(self):
        # the lower edge is so low that one real pole rounds to 1; summing
        # it with the other real pole rounds the section back inside, where
        # its gain normalisation takes a 1e133 numerator
        args = (1, dsp.FilterKind.BAND_PASS, (1.6e-299, 8.0), 32.0)
        (b0, *_, a1, a2), = unchecked_sos(*args)
        assert exactly_stable(a1, a2) and b0 > 1e100
        with pytest.raises(InvalidCutoff, match="too low for the sample"):
            dsp.design_butterworth(*args)


# relative edges (of Nyquist) from almost 0 to almost 1
SWEEP_EDGES = (1e-300, 1e-30, 1e-16, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5,
               0.9, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 1e-15)


def sweep_designs(rates=(4.0, 32.0, 64.0), orders=range(1, 9)):
    for fs in rates:
        nyq = fs / 2.0
        for order in orders:
            for lo in SWEEP_EDGES:
                yield order, dsp.FilterKind.LOW_PASS, (lo * nyq,), fs
                for hi in SWEEP_EDGES:
                    if lo < hi:
                        yield (order, dsp.FilterKind.BAND_PASS,
                               (lo * nyq, hi * nyq), fs)


class TestDesignSweep:
    def test_a_pole_np_roots_puts_on_or_outside_the_circle_is_refused(self):
        checked = 0
        for args in sweep_designs():
            try:
                sos = unchecked_sos(*args)
            except InvalidCutoff:  # refused while normalising
                continue
            if np.max(np.abs(section_poles(sos))) >= 1.0:
                checked += 1
                assert refused(*args), args
        assert checked > 1000

    def test_edges_inside_the_usable_band_are_accepted(self):
        usable = [e for e in SWEEP_EDGES if 1e-3 <= e <= 0.999]
        rng = np.random.default_rng(27)
        for fs in (4.0, 32.0, 64.0):
            nyq = fs / 2.0
            drawn = np.exp(rng.uniform(np.log(1e-3), np.log(0.999),
                                       size=(40, 2)))
            pairs = [(lo, hi) for lo in usable for hi in usable if lo < hi]
            pairs += [tuple(sorted(p)) for p in drawn.tolist()]
            for order in range(1, 9):
                for lo, hi in pairs:
                    dsp.design_butterworth(
                        order, dsp.FilterKind.BAND_PASS, (lo * nyq, hi * nyq),
                        fs)
                for edge in usable + drawn[:, 0].tolist():
                    dsp.design_butterworth(
                        order, dsp.FilterKind.LOW_PASS, (edge * nyq,), fs)


# --- filtfilt ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bandpass_64():
    return dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS, (0.7, 3.5),
                                  64.0)


class TestFiltFilt:
    def test_passband_amplitude_and_lag(self, bandpass_64):
        fs = 64.0
        t = np.arange(0, 30, 1 / fs)
        x = np.sin(2 * math.pi * 1.5 * t)
        y = dsp.filtfilt(bandpass_64, x)
        assert float(y.std() / x.std()) == pytest.approx(1.0, abs=0.02)
        xc = np.correlate(y - y.mean(), x - x.mean(), "full")
        assert int(np.argmax(xc)) - (len(x) - 1) == 0

    def test_dc_rejected(self, bandpass_64):
        x = np.ones(1000)
        y = dsp.filtfilt(bandpass_64, x)
        assert np.sqrt(np.mean(y ** 2)) < 0.01

    def test_zero_in_zero_out(self, bandpass_64):
        assert np.all(dsp.filtfilt(bandpass_64, np.zeros(500)) == 0.0)

    def test_linearity(self, bandpass_64):
        rng = np.random.default_rng(11)
        x = rng.normal(size=600)
        y = rng.normal(size=600)
        a, b = 2.5, -1.25
        lhs = dsp.filtfilt(bandpass_64, a * x + b * y)
        rhs = a * dsp.filtfilt(bandpass_64, x) + b * dsp.filtfilt(bandpass_64, y)
        scale = np.max(np.abs(lhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_constant_passes_lowpass_exactly(self):
        design = dsp.design_butterworth(2, dsp.FilterKind.LOW_PASS, (0.05,),
                                        4.0)
        y = dsp.filtfilt(design, np.full(200, 3.25))
        assert np.max(np.abs(y - 3.25)) < 1e-9

    def test_too_short(self, bandpass_64):
        with pytest.raises(SignalTooShort):
            dsp.filtfilt(bandpass_64, np.zeros(15))

    def test_columns_match_single_channel_calls(self):
        design = dsp.design_butterworth(5, dsp.FilterKind.LOW_PASS, (10.0,),
                                        32.0)
        x = np.random.default_rng(6).normal(size=(1000, 3))
        y = dsp.filtfilt(design, x)
        assert y.shape == x.shape
        for col in range(3):
            assert np.array_equal(y[:, col], dsp.filtfilt(design, x[:, col]))

    @pytest.mark.parametrize("order,kind,cutoffs,fs", [
        (5, dsp.FilterKind.LOW_PASS, (10.0,), 32.0),
        (4, dsp.FilterKind.LOW_PASS, (1.0,), 4.0),
        (2, dsp.FilterKind.LOW_PASS, (0.05,), 4.0),
        (2, dsp.FilterKind.BAND_PASS, (0.7, 3.5), 64.0),
        (3, dsp.FilterKind.BAND_PASS, (0.04, 0.4), 4.0),
    ])
    def test_sections_match_df2t_oracle(self, order, kind, cutoffs, fs):
        design = dsp.design_butterworth(order, kind, cutoffs, fs)
        x = np.random.default_rng(order).normal(size=(1500, 2)) + 3.0
        got = dsp._sosfilt_steady(design.sos, x)
        for col in range(2):
            want = df2t_sosfilt_steady(design.sos, x[:, col])
            assert np.max(np.abs(got[:, col] - want)) <= \
                1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("order,cutoff,fs,cols,trim", [
        (5, 10.0, 32.0, 3, 100),  # ACC low-pass, three axes in one call
        (4, 1.0, 4.0, 1, 100),  # EDA cleaning
        (2, 0.05, 4.0, 1, 1000),  # EDA tonic: slow poles, long edge transient
    ])
    def test_lowpass_matches_scipy_interior(self, order, cutoff, fs, cols,
                                            trim):
        # scipy pads by 3 * (2 * n_sections + 1), which differs for odd
        # orders, so only the interior is compared
        from scipy import signal as sps
        design = dsp.design_butterworth(order, dsp.FilterKind.LOW_PASS,
                                        (cutoff,), fs)
        x = np.random.default_rng(order).normal(size=(4096, cols))
        mine = dsp.filtfilt(design, x)
        sos = sps.butter(order, cutoff, fs=fs, output="sos")
        for col in range(cols):
            ref = sps.sosfiltfilt(sos, x[:, col])
            assert np.max(np.abs(mine[trim:-trim, col] - ref[trim:-trim])) \
                < 1e-10

    def test_matches_scipy_interior(self, bandpass_64):
        from scipy import signal as sps
        rng = np.random.default_rng(5)
        x = rng.normal(size=2048)
        mine = dsp.filtfilt(bandpass_64, x)
        sos = sps.butter(2, [0.7, 3.5], btype="band", fs=64.0, output="sos")
        ref = sps.sosfiltfilt(sos, x)
        assert np.max(np.abs(mine - ref)) < 1e-10


    @pytest.mark.parametrize("cols", [1, 3])
    def test_memory_stays_within_seven_signal_copies(self, bandpass_64, cols):
        n = 100_000
        rng = np.random.default_rng(cols)
        x = rng.normal(size=(n, cols) if cols > 1 else n)
        tracemalloc.start()
        try:
            dsp.filtfilt(bandpass_64, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7 * 8 * n * cols


# --- per-process caches ------------------------------------------------------------


def clear_caches():
    dsp._sweep_tables.cache_clear()
    dsp._block_responses.cache_clear()


class TestCaches:
    """What the caches hold never changes an output."""

    LENGTHS = [3, 5, 40, 460, 1000, 19_200]
    LAMBDAS = [1.0, 50.0, 500.0, 1e4, 1e6]

    def test_cold_and_warm_detrend_are_byte_identical(self):
        # at lam = 1e6 the factor of n = 19,200 never converges
        assert dsp._detrend_cholesky(19_200, 1e12)[1] == 19_200 - 3
        signals = {n: np.cumsum(np.random.default_rng(n).normal(size=n))
                   for n in self.LENGTHS}
        cases = [(n, lam) for n in self.LENGTHS for lam in self.LAMBDAS]
        cold = {}
        for n, lam in cases:
            clear_caches()
            cold[n, lam] = dsp.detrend(signals[n], lam).tobytes()
        # in reverse, each call meets the entries the calls before it left
        for n, lam in reversed(cases):
            assert dsp.detrend(signals[n], lam).tobytes() == cold[n, lam]

    def test_cold_and_warm_filtfilt_are_byte_identical(self):
        specs = [(2, dsp.FilterKind.BAND_PASS, (0.7, 3.5), 64.0),
                 (5, dsp.FilterKind.LOW_PASS, (10.0,), 32.0),
                 (4, dsp.FilterKind.LOW_PASS, [1.0], 4.0)]
        cases = [(spec, n, cols) for n in self.LENGTHS[2:] for spec in specs
                 for cols in (1, 3)]
        rng = np.random.default_rng(0)
        signals = {(n, cols): rng.normal(size=(n, cols) if cols > 1 else n)
                   for n in self.LENGTHS[2:] for cols in (1, 3)}
        cold = {}
        for i, (spec, n, cols) in enumerate(cases):
            clear_caches()
            design = dsp.design_butterworth(*spec)
            cold[i] = dsp.filtfilt(design, signals[n, cols]).tobytes()
        for i, (spec, n, cols) in reversed(list(enumerate(cases))):
            design = dsp.design_butterworth(*spec)
            assert dsp.filtfilt(design, signals[n, cols]).tobytes() == cold[i]

    def test_list_and_tuple_cutoffs_share_one_design(self):
        from_list = dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS,
                                           [0.7, 3.5], 64)
        from_tuple = dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS,
                                            (0.7, 3.5), 64.0)
        assert from_list.sos.tobytes() == from_tuple.sos.tobytes()
        assert from_list.cutoffs_hz == (0.7, 3.5)
        assert from_list.sample_rate_hz == 64.0

    def test_cached_sos_is_read_only(self):
        design = dsp.design_butterworth(5, dsp.FilterKind.LOW_PASS, (10.0,),
                                        32.0)
        with pytest.raises(ValueError, match="read-only"):
            design.sos[0, 0] = 0.0

    @pytest.mark.parametrize("kind,cutoffs,fs", [
        (dsp.FilterKind.LOW_PASS, (4.0,), 8.0),
        (dsp.FilterKind.BAND_PASS, (3.0, 1.0), 8.0),
        (dsp.FilterKind.BAND_PASS, (1e-300, 2e-300), 64.0),
        (dsp.FilterKind.LOW_PASS, (1.0,), math.nan),
    ])
    def test_invalid_cutoff_raises_on_every_call(self, kind, cutoffs, fs):
        for _ in range(2):
            with pytest.raises(InvalidCutoff):
                dsp.design_butterworth(2, kind, cutoffs, fs)


# --- Welch PSD ----------------------------------------------------------------------


class TestWelch:
    def test_sinusoid_peak_bin(self):
        fs = 4.0
        t = np.arange(0, 1000, 1 / fs)
        x = np.sin(2 * math.pi * 0.10 * t)
        spec = dsp.welch_psd(x, fs, segment_len=256)
        # independent check: plain rectangular periodogram of one segment
        seg = x[:256] - x[:256].mean()
        raw = np.abs(np.fft.rfft(seg))
        expect = np.argmax(raw) * fs / 256
        peak = spec.freqs_hz[np.argmax(spec.power)]
        assert abs(peak - 0.10) <= spec.resolution_hz
        assert abs(peak - expect) <= spec.resolution_hz

    def test_parseval(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4096)
        spec = dsp.welch_psd(x, 2.0, segment_len=64)
        total = float(np.sum(spec.power) * spec.resolution_hz)
        assert total == pytest.approx(float(x.var()), rel=0.10)

    def test_white_noise_flat(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4096)
        spec = dsp.welch_psd(x, 2.0, segment_len=64)
        lo = dsp.band_power(spec, 0.0, 0.5)
        hi = dsp.band_power(spec, 0.5, 1.0)
        assert lo / hi == pytest.approx(1.0, abs=0.25)

    def test_zero_signal(self):
        spec = dsp.welch_psd(np.zeros(512), 4.0)
        assert np.all(spec.power == 0.0)

    def test_offset_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1024)
        a = dsp.welch_psd(x, 4.0, segment_len=128)
        b = dsp.welch_psd(x + 123.4, 4.0, segment_len=128)
        assert np.allclose(a.power, b.power, atol=1e-9)

    def test_freqs_start_at_zero(self):
        spec = dsp.welch_psd(np.ones(64), 4.0, segment_len=32)
        assert spec.freqs_hz[0] == 0.0
        assert np.all(np.diff(spec.freqs_hz) > 0)
        assert np.all(spec.power >= 0.0)

    @pytest.mark.parametrize("fs", [0.0, -4.0, math.nan, math.inf,
                                    -math.inf])
    def test_sample_rate_must_be_positive_and_finite(self, fs):
        with pytest.raises(ValueError, match="^sample_rate_hz must be"):
            dsp.welch_psd(np.ones(64), fs)

    @pytest.mark.parametrize("seg", [8.9, 300.7, math.nan, True, "64"],
                             ids=repr)
    def test_segment_len_must_be_an_integer(self, seg):
        # 8.9 ran with 8 and 300.7 with 300; NaN raised "cannot convert
        # float NaN to integer"
        with pytest.raises(ValueError, match=re.escape(
                f"segment_len must be an integer >= 1, got {seg!r}")):
            dsp.welch_psd(np.ones(400), 4.0, segment_len=seg)

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            dsp.welch_psd(np.zeros(6), 4.0)
        # hrv_freq_features turns this class into SpanTooShort
        with pytest.raises(SignalTooShort, match="must be >= 8, got 7"):
            dsp.welch_psd(np.ones(400), 4.0, segment_len=7)
        with pytest.raises(SignalTooShort):
            dsp.welch_psd(np.zeros(100), 4.0, segment_len=128)

    def test_matches_scipy(self):
        from scipy import signal as sps
        rng = np.random.default_rng(4)
        x = rng.standard_normal(2000)
        spec = dsp.welch_psd(x, 8.0, segment_len=256)
        f, p = sps.welch(x, fs=8.0, nperseg=256, detrend="constant")
        assert np.allclose(spec.freqs_hz, f)
        assert np.allclose(spec.power, p, rtol=1e-10, atol=1e-12)


# --- band power ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def spectrum():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(2048)
    return dsp.welch_psd(x, 4.0, segment_len=256)


class TestBandPower:

    def test_full_range_equals_total(self, spectrum):
        total = dsp.band_power(spectrum, float(spectrum.freqs_hz[0]),
                               float(spectrum.freqs_hz[-1]))
        expect = float(np.trapezoid(spectrum.power, spectrum.freqs_hz))
        assert total == pytest.approx(expect, rel=1e-12)

    def test_inline_sum_equals_numpy_trapezoid(self, spectrum):
        if not hasattr(np, "trapezoid"):
            pytest.skip("np.trapezoid needs NumPy >= 2.0")
        for lo, hi in [(0.0, 2.0), (0.04, 0.15), (0.013, 1.37)]:
            freqs, power = spectrum.freqs_hz, spectrum.power
            inner = (freqs > lo) & (freqs < hi)
            xs = np.concatenate([[lo], freqs[inner], [hi]])
            ys = np.concatenate([[np.interp(lo, freqs, power)], power[inner],
                                 [np.interp(hi, freqs, power)]])
            assert dsp.band_power(spectrum, lo, hi) == \
                float(np.trapezoid(ys, xs))

    def test_partition_additivity(self, spectrum):
        lf = dsp.band_power(spectrum, 0.04, 0.15)
        hf = dsp.band_power(spectrum, 0.15, 0.4)
        assert lf + hf == pytest.approx(dsp.band_power(spectrum, 0.04, 0.4),
                                        abs=1e-9)

    def test_concentrated_spectrum(self):
        fs = 4.0
        t = np.arange(0, 2000, 1 / fs)
        x = np.sin(2 * math.pi * 0.10 * t)
        spec = dsp.welch_psd(x, fs, segment_len=512)
        lf = dsp.band_power(spec, 0.04, 0.15)
        tp = dsp.band_power(spec, 0.0, 2.0)
        assert lf >= 0.95 * tp

    def test_no_support_returns_zero(self, spectrum):
        assert dsp.band_power(spectrum, 5.0, 6.0) == 0.0

    def test_invalid_band(self, spectrum):
        with pytest.raises(EmptyBand):
            dsp.band_power(spectrum, 0.4, 0.15)

    @given(lo=st.floats(0.0, 1.0), width=st.floats(0.01, 0.5),
           widen=st.floats(0.0, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_monotone_widening(self, lo, width, widen):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(1024)
        spec = dsp.welch_psd(x, 4.0, segment_len=128)
        inner = dsp.band_power(spec, lo, lo + width)
        outer = dsp.band_power(spec, max(0.0, lo - widen),
                               lo + width + widen)
        assert outer >= inner - 1e-12


# --- Pearson correlation ------------------------------------------------------------------


class TestPearson:
    def test_identity(self):
        a = [1.0, 2.0, 5.0, 3.0]
        assert dsp.pearson_corr(a, a) == pytest.approx(1.0)

    def test_negation(self):
        a = np.array([1.0, 2.0, 5.0, 3.0])
        assert dsp.pearson_corr(a, -a) == pytest.approx(-1.0)

    def test_known_value(self):
        r = dsp.pearson_corr([1, 2, 3, 4], [1, 2, 3, 5])
        assert r == pytest.approx(0.9827, abs=1e-3)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = rng.normal(size=20)
            b = rng.normal(size=20)
            da, db = a - a.mean(), b - b.mean()
            expect = float(np.sum(da * db)
                           / math.sqrt(np.sum(da ** 2) * np.sum(db ** 2)))
            assert dsp.pearson_corr(a, b) == pytest.approx(expect, abs=1e-12)

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            dsp.pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_non_finite_input_raises_naming_it(self, name, bad):
        # [1, nan, 3] against [1, 2, 3] gave 1.0: min(1.0, nan) is 1.0
        args = {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}
        args[name] = [1.0, bad, 3.0]
        with pytest.raises(ValueError, match=f"^{name} must hold finite"):
            dsp.pearson_corr(**args)

    def test_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            r = dsp.pearson_corr(rng.normal(size=5), rng.normal(size=5))
            assert -1.0 <= r <= 1.0


def test_butterworth_order_is_an_integer():
    # True was kept as the order, and np.int64(2) was rejected
    with pytest.raises(InvalidOrder, match="^order must be"):
        dsp.design_butterworth(True, dsp.FilterKind.LOW_PASS, (1.0,), 8.0)
    design = dsp.design_butterworth(np.int64(2), dsp.FilterKind.LOW_PASS,
                                    (1.0,), 8.0)
    assert type(design.order) is int and design.order == 2
