import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wearbench import thermo
from wearbench.errors import SignalTooShort
from wearbench.session_io import ChannelKind, SignalChannel


def temp_channel(samples, fs=4.0):
    return SignalChannel(ChannelKind.TEMP, 1700000000, fs,
                         np.asarray(samples, dtype=float))


class TestTempFeatures:
    def test_constant(self):
        f = thermo.temp_features(temp_channel(np.full(240, 36.5)))
        assert f["TEMP_mean"] == 36.5
        assert f["TEMP_std"] == 0.0
        assert f["TEMP_range"] == 0.0
        assert f["TEMP_trend"] == 0.0
        assert f["TEMP_energy"] == 0.0

    def test_linear_ramp_slope(self):
        # 30 -> 31 degrees over 60 s at 4 Hz; closed-form OLS slope on an
        # exact line equals the line's slope (241 samples span 0..60 s)
        n = 241
        t = np.arange(n) / 4.0
        slope = 1.0 / 60.0
        f = thermo.temp_features(temp_channel(30.0 + slope * t))
        assert f["TEMP_trend"] == pytest.approx(slope, abs=1e-9)
        assert f["TEMP_range"] == pytest.approx(1.0, rel=1e-9)

    def test_two_samples_hand_case(self):
        f = thermo.temp_features(temp_channel([36.0, 37.0]))
        assert f["TEMP_mean"] == 36.5
        assert f["TEMP_range"] == 1.0
        assert f["TEMP_energy"] == pytest.approx(0.5)

    def test_energy_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            x = rng.normal(36.0, 0.5, n)
            f = thermo.temp_features(temp_channel(x))
            assert f["TEMP_energy"] == pytest.approx(
                (n - 1) * f["TEMP_std"] ** 2, rel=1e-9, abs=1e-12)

    @given(c=st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_offset_equivariance(self, c):
        rng = np.random.default_rng(9)
        x = rng.normal(36.0, 0.3, 120)
        a = thermo.temp_features(temp_channel(x))
        b = thermo.temp_features(temp_channel(x + c))
        assert b["TEMP_mean"] == pytest.approx(a["TEMP_mean"] + c, rel=1e-9)
        assert b["TEMP_max"] == pytest.approx(a["TEMP_max"] + c, rel=1e-9)
        assert b["TEMP_min"] == pytest.approx(a["TEMP_min"] + c, rel=1e-9)
        for name in ("TEMP_std", "TEMP_range", "TEMP_trend", "TEMP_energy"):
            assert b[name] == pytest.approx(a[name], rel=1e-6, abs=1e-9)

    def test_time_reversal_negates_trend(self):
        rng = np.random.default_rng(10)
        x = rng.normal(36.0, 0.3, 150) + np.linspace(0, 0.5, 150)
        a = thermo.temp_features(temp_channel(x))
        b = thermo.temp_features(temp_channel(x[::-1]))
        assert b["TEMP_trend"] == pytest.approx(-a["TEMP_trend"], rel=1e-9)
        for name in ("TEMP_mean", "TEMP_max", "TEMP_min", "TEMP_std",
                     "TEMP_range", "TEMP_energy"):
            assert b[name] == pytest.approx(a[name], rel=1e-9)

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            thermo.temp_features(temp_channel([36.5]))

    def test_mean_between_min_max(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.normal(36, 1, 50)
            f = thermo.temp_features(temp_channel(x))
            assert f["TEMP_min"] <= f["TEMP_mean"] <= f["TEMP_max"]
            assert f["TEMP_range"] >= 0 and f["TEMP_std"] >= 0
