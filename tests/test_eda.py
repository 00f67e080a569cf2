import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wearbench import dsp, eda, synth
from wearbench.errors import SignalTooShort
from wearbench.session_io import ChannelKind, SignalChannel


def eda_channel(samples):
    return SignalChannel(ChannelKind.EDA, 1700000000, 4.0,
                         np.asarray(samples, dtype=float))


def session_eda(spec: synth.SynthSpec):
    return synth.generate_session(spec).channel(ChannelKind.EDA)


class TestDecompose:
    def test_constant_signal(self):
        decomp = eda.decompose_eda(eda_channel(np.full(400, 2.0)))
        assert np.max(np.abs(decomp.tonic - 2.0)) < 1e-6
        assert np.max(np.abs(decomp.phasic)) < 1e-6

    def test_slow_ramp_stays_tonic(self):
        t = np.arange(0, 120, 0.25)
        raw = 1.0 + t / 120.0
        decomp = eda.decompose_eda(eda_channel(raw))
        phasic_rms = np.sqrt(np.mean(decomp.phasic ** 2))
        assert phasic_rms < 0.02 * np.sqrt(np.mean(raw ** 2))

    def test_injected_bump_lands_in_phasic(self):
        channel = session_eda(synth.SynthSpec(
            seed=5, duration_s=120.0, scr_events=((50.0, 0.5),)))
        decomp = eda.decompose_eda(channel)
        events = eda.detect_scr(decomp)
        assert len(events) == 1
        assert events[0].amplitude == pytest.approx(0.5, rel=0.10)

    def test_exact_reconstruction(self):
        channel = session_eda(synth.SynthSpec(
            seed=6, duration_s=120.0, scr_events=((30.0, 0.3), (80.0, 0.6))))
        decomp = eda.decompose_eda(channel)
        assert decomp.tonic.size == decomp.phasic.size == channel.n_samples
        # tonic + phasic is the raw signal through the documented cleaning
        # filter: a zero-phase 4th-order low-pass at clean_cutoff_hz
        clean = dsp.design_butterworth(4, dsp.FilterKind.LOW_PASS, (1.0,), 4.0)
        cleaned = dsp.filtfilt(clean, channel.samples)
        recon = decomp.tonic + decomp.phasic
        assert np.max(np.abs(recon - cleaned)) < 1e-9

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            eda.decompose_eda(eda_channel(np.full(40, 2.0)))  # 10 s

    def test_offset_equivariance(self):
        channel = session_eda(synth.SynthSpec(
            seed=8, duration_s=120.0, scr_events=((60.0, 0.4),)))
        base = eda.decompose_eda(channel)
        shifted = eda.decompose_eda(eda_channel(channel.samples + 3.0))
        f0 = eda.eda_features(base, eda.detect_scr(base))
        f1 = eda.eda_features(shifted, eda.detect_scr(shifted))
        for stat in ("Mean", "Min", "Max"):
            assert f1[f"EDA_Tonic_{stat}"] == pytest.approx(
                f0[f"EDA_Tonic_{stat}"] + 3.0, abs=1e-6)
        assert f1["EDA_Tonic_STD"] == pytest.approx(f0["EDA_Tonic_STD"],
                                                    abs=1e-6)
        for name in ("EDA_Phasic_Mean", "EDA_Phasic_STD", "EDA_Phasic_Min",
                     "EDA_Phasic_Max", "SCR_Amplitude", "SCR_Onsets"):
            assert f1[name] == pytest.approx(f0[name], abs=1e-6)


def loop_detect_scr(decomp, min_amplitude=0.01):
    """Per-sample reference for ``eda.detect_scr``: walk back from each
    local maximum while the phasic signal keeps decreasing."""
    p = decomp.phasic
    events = []
    for i in range(1, p.size - 1):
        if not (p[i] > p[i - 1] and p[i] >= p[i + 1]):
            continue
        if p[i] < min_amplitude:
            continue
        j = i
        while j > 0 and p[j - 1] < p[j]:
            j -= 1
        amplitude = float(p[i] - p[j])
        if amplitude >= min_amplitude and j < i:
            events.append(eda.ScrEvent(onset_index=j, peak_index=i,
                                       amplitude=amplitude))
    events.sort(key=lambda e: (e.onset_index, e.peak_index))
    return events


# few distinct levels, so runs, plateaus and exact ties are common
TIE_LEVELS = [-0.3, -0.01, 0.0, 0.005, 0.01, 0.02, 0.05, 0.3, 0.31,
              float("nan")]


class TestDetectScr:
    @given(levels=st.lists(st.sampled_from(TIE_LEVELS)
                           | st.floats(-1.0, 1.0), max_size=60),
           min_amplitude=st.sampled_from([0.0, 0.01, 0.05, 0.3]))
    @settings(max_examples=300, deadline=None)
    def test_equals_per_sample_loop(self, levels, min_amplitude):
        phasic = np.asarray(levels, dtype=float)
        decomp = eda.EdaDecomposition(tonic=np.zeros_like(phasic),
                                      phasic=phasic)
        assert eda.detect_scr(decomp, min_amplitude) == \
            loop_detect_scr(decomp, min_amplitude)

    @pytest.mark.parametrize("min_amplitude", [0.0, 0.01, 0.05, 0.3])
    def test_equals_per_sample_loop_on_a_session(self, min_amplitude):
        channel = session_eda(synth.SynthSpec(
            seed=11, duration_s=180.0,
            scr_events=((40.0, 0.3), (100.0, 0.5), (160.0, 0.7))))
        decomp = eda.decompose_eda(channel)
        events = eda.detect_scr(decomp, min_amplitude)
        assert events == loop_detect_scr(decomp, min_amplitude)
        assert all(type(e.onset_index) is int and type(e.peak_index) is int
                   and type(e.amplitude) is float for e in events)

    def test_flat_phasic_no_events(self):
        decomp = eda.decompose_eda(eda_channel(np.full(400, 2.0)))
        assert eda.detect_scr(decomp) == []

    def test_single_bump_onset_location(self):
        spec = synth.SynthSpec(seed=5, duration_s=120.0,
                               scr_events=((50.0, 0.5),))
        events = eda.detect_scr(eda.decompose_eda(session_eda(spec)))
        assert len(events) == 1
        onset_s = events[0].onset_index / 4.0
        assert abs(onset_s - spec.scr_events[0][0]) <= 1.0

    def test_two_bumps_in_onset_order(self):
        channel = session_eda(synth.SynthSpec(
            seed=9, duration_s=120.0, scr_events=((40.0, 0.4), (50.0, 0.5))))
        events = eda.detect_scr(eda.decompose_eda(channel))
        assert len(events) == 2
        assert events[0].onset_index < events[1].onset_index

    def test_event_invariants(self):
        channel = session_eda(synth.SynthSpec(
            seed=10, duration_s=180.0,
            scr_events=((30.0, 0.2), (90.0, 0.5), (150.0, 0.8))))
        events = eda.detect_scr(eda.decompose_eda(channel))
        for e in events:
            assert e.onset_index < e.peak_index
            assert e.amplitude > 0

    @given(lo=st.floats(0.01, 0.2), hi=st.floats(0.2, 0.6))
    @settings(max_examples=20, deadline=None)
    def test_threshold_monotone(self, lo, hi):
        channel = session_eda(synth.SynthSpec(
            seed=11, duration_s=180.0,
            scr_events=((40.0, 0.3), (100.0, 0.5), (160.0, 0.7))))
        decomp = eda.decompose_eda(channel)
        n_lo = len(eda.detect_scr(decomp, min_amplitude=lo))
        n_hi = len(eda.detect_scr(decomp, min_amplitude=hi))
        assert n_hi <= n_lo


class TestEdaFeatures:
    def test_constant_signal_features(self):
        decomp = eda.decompose_eda(eda_channel(np.full(400, 2.0)))
        f = eda.eda_features(decomp, eda.detect_scr(decomp))
        assert f["EDA_Tonic_Mean"] == pytest.approx(2.0, abs=1e-6)
        assert f["EDA_Tonic_STD"] == pytest.approx(0.0, abs=1e-6)
        assert abs(f["EDA_Phasic_Mean"]) < 1e-6
        assert f["SCR_Amplitude"] == 0.0
        assert f["SCR_Onsets"] == 0.0

    def test_single_event_amplitude(self):
        channel = session_eda(synth.SynthSpec(
            seed=5, duration_s=120.0, scr_events=((50.0, 0.5),)))
        decomp = eda.decompose_eda(channel)
        f = eda.eda_features(decomp, eda.detect_scr(decomp))
        assert f["SCR_Amplitude"] == pytest.approx(0.5, rel=0.10)
        assert f["SCR_Onsets"] == 1.0

    def test_three_event_mean_amplitude(self):
        channel = session_eda(synth.SynthSpec(
            seed=8, duration_s=240.0,
            scr_events=((50.0, 0.2), (110.0, 0.4), (170.0, 0.6))))
        decomp = eda.decompose_eda(channel)
        f = eda.eda_features(decomp, eda.detect_scr(decomp))
        assert f["SCR_Onsets"] == 3.0
        assert f["SCR_Amplitude"] == pytest.approx(0.4, rel=0.10)

    def test_feature_names(self):
        decomp = eda.decompose_eda(eda_channel(np.full(400, 2.0)))
        f = eda.eda_features(decomp, [])
        assert tuple(f) == eda.EDA_FEATURE_NAMES


@pytest.mark.parametrize("value", [float("nan"), -1.0])
def test_scr_min_amplitude_out_of_range_raises(default_session, value):
    # a NaN found no event and -1 found every rise
    decomp = eda.decompose_eda(default_session.channel(ChannelKind.EDA))
    with pytest.raises(ValueError, match="^min_amplitude must be"):
        eda.detect_scr(decomp, min_amplitude=value)
