import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wearbench import actigraphy, dsp
from wearbench.errors import LengthMismatch, SignalTooShort
from wearbench.session_io import ChannelKind, SignalChannel


def acc_channel(x, y, z, fs=32.0):
    samples = np.stack([np.asarray(x, float), np.asarray(y, float),
                        np.asarray(z, float)], axis=1)
    return SignalChannel(ChannelKind.ACC, 1700000000, fs, samples)


class TestMagnitude:
    def test_pythagorean_triples(self):
        m = actigraphy.acc_magnitude([3.0], [4.0], [0.0])
        assert m[0] == pytest.approx(5.0)
        assert actigraphy.acc_magnitude([0.0], [0.0], [0.0])[0] == 0.0
        assert actigraphy.acc_magnitude([1.0], [2.0], [2.0])[0] == \
            pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            actigraphy.acc_magnitude([1.0, 2.0], [1.0], [1.0])


class TestAccFeatures:
    def test_constant_magnitude(self):
        n = 320
        ch = acc_channel(np.ones(n), np.zeros(n), np.zeros(n))
        with pytest.warns(RuntimeWarning):
            f = actigraphy.acc_features(ch, inactivity_threshold=0.5)
        assert f["ACC_Mean"] == pytest.approx(1.0)
        assert f["ACC_STD"] == pytest.approx(0.0)
        assert f["ACC_Energy"] == pytest.approx(1.0)
        assert f["ACC_Inactivity_time"] == 0.0

    def test_all_below_threshold(self):
        n = 320
        ch = acc_channel(np.full(n, 0.1), np.zeros(n), np.zeros(n))
        with pytest.warns(RuntimeWarning):
            f = actigraphy.acc_features(ch, inactivity_threshold=0.5)
        assert f["ACC_Inactivity_time"] == pytest.approx(10.0)

    def test_dominant_frequency_fft_oracle(self):
        fs, n = 32.0, 1024
        t = np.arange(n) / fs
        x = 1.0 + 0.5 * np.sin(2 * np.pi * 2.0 * t)
        ch = acc_channel(x, np.zeros(n), np.zeros(n))
        with pytest.warns(RuntimeWarning):
            f = actigraphy.acc_features(ch, inactivity_threshold=0.01)
        # oracle: direct FFT argmax of the mean-removed magnitude
        mag = np.sqrt(x * x)
        raw = np.abs(np.fft.rfft(mag - mag.mean()))
        expect = (1 + int(np.argmax(raw[1:]))) * fs / n
        assert f["ACC_Dominant_frequency"] == pytest.approx(expect)
        assert abs(f["ACC_Dominant_frequency"] - 2.0) <= fs / n

    def test_symmetry_pairs(self):
        rng = np.random.default_rng(0)
        n = 512
        t = np.arange(n) / 32.0
        x = np.sin(2 * np.pi * 1.3 * t) + 0.01 * rng.normal(size=n)
        y = x.copy()
        z = rng.normal(size=n)
        f = actigraphy.acc_features(acc_channel(x, y, z), 0.1)
        assert f["Symmetry_x_y"] == pytest.approx(1.0, abs=1e-6)
        assert f["Symmetry_y_z"] < 0.3
        assert f["Symmetry_x_z"] < 0.3

    def test_constant_axis_symmetry_zero(self):
        n = 256
        t = np.arange(n) / 32.0
        x = np.sin(2 * np.pi * 2.0 * t) + 1.5
        with pytest.warns(RuntimeWarning):
            f = actigraphy.acc_features(
                acc_channel(x, np.zeros(n), np.zeros(n)), 0.1)
        assert f["Symmetry_x_y"] == 0.0
        assert f["Symmetry_y_z"] == 0.0
        assert f["Symmetry_x_z"] == 0.0

    def test_energy_and_inactivity_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(64, 400))
            x = rng.normal(0, 1, n)
            y = rng.normal(0, 1, n)
            z = rng.normal(0, 1, n)
            thr = float(rng.uniform(0.5, 2.0))
            f = actigraphy.acc_features(acc_channel(x, y, z), thr)
            energy = sum((x[i] ** 2 + y[i] ** 2 + z[i] ** 2)
                         for i in range(n)) / n
            below = sum(
                1 for i in range(n)
                if (x[i] ** 2 + y[i] ** 2 + z[i] ** 2) ** 0.5 < thr)
            assert f["ACC_Energy"] == pytest.approx(energy, rel=1e-9)
            assert f["ACC_Inactivity_time"] == pytest.approx(
                below / 32.0, rel=1e-9, abs=1e-12)

    def test_axis_permutation(self):
        rng = np.random.default_rng(3)
        n = 256
        x, y, z = rng.normal(size=(3, n))
        f = actigraphy.acc_features(acc_channel(x, y, z), 0.5)
        g = actigraphy.acc_features(acc_channel(y, z, x), 0.5)
        for name in ("ACC_Mean", "ACC_Max", "ACC_Min", "ACC_STD",
                     "ACC_Energy", "ACC_Dominant_frequency",
                     "ACC_Inactivity_time"):
            assert f[name] == pytest.approx(g[name], rel=1e-12)
        assert g["Symmetry_x_y"] == pytest.approx(f["Symmetry_y_z"],
                                                  rel=1e-12)
        assert g["Symmetry_y_z"] == pytest.approx(f["Symmetry_x_z"],
                                                  rel=1e-12)
        assert g["Symmetry_x_z"] == pytest.approx(f["Symmetry_x_y"],
                                                  rel=1e-12)

    @given(c=st.floats(0.5, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_property(self, c):
        rng = np.random.default_rng(11)
        n = 256
        x, y, z = rng.normal(size=(3, n))
        thr = 0.8
        f = actigraphy.acc_features(acc_channel(x, y, z), thr)
        g = actigraphy.acc_features(acc_channel(c * x, c * y, c * z), c * thr)
        assert g["ACC_Mean"] == pytest.approx(c * f["ACC_Mean"], rel=1e-9)
        assert g["ACC_STD"] == pytest.approx(c * f["ACC_STD"], rel=1e-9)
        assert g["ACC_Energy"] == pytest.approx(c * c * f["ACC_Energy"],
                                                rel=1e-9)
        assert g["ACC_Dominant_frequency"] == f["ACC_Dominant_frequency"]
        assert g["ACC_Inactivity_time"] == f["ACC_Inactivity_time"]
        assert g["Symmetry_x_y"] == pytest.approx(f["Symmetry_x_y"], rel=1e-9)

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            actigraphy.acc_features(
                acc_channel(np.ones(32), np.ones(32), np.ones(32)), 0.1)

    def test_works_after_lowpass(self):
        # the canonical preprocessing chain leaves features well defined
        fs, n = 32.0, 2048
        t = np.arange(n) / fs
        x = 1.0 + 0.4 * np.sin(2 * np.pi * 2.0 * t)
        design = dsp.design_butterworth(5, dsp.FilterKind.LOW_PASS, (10.0,),
                                        fs)
        ch = acc_channel(x, 0.3 * x, np.zeros(n))
        filtered = np.stack(
            [dsp.filtfilt(design, ch.samples[:, i]) for i in range(3)],
            axis=1)
        with pytest.warns(RuntimeWarning):
            f = actigraphy.acc_features(
                dataclasses.replace(ch, samples=filtered), 0.1)
        assert f["ACC_Dominant_frequency"] == pytest.approx(2.0, abs=fs / n)


def test_nan_inactivity_threshold_raises(default_session):
    # it reported 0.0 s of inactivity
    acc = default_session.channel(ChannelKind.ACC)
    with pytest.raises(ValueError, match="^inactivity_threshold must be"):
        actigraphy.acc_features(acc, inactivity_threshold=float("nan"))
