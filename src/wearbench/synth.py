"""Synthetic labeled sessions; each spec is the ground truth of its session.

Waveforms are deliberately minimal: just physiological enough that every
downstream feature has an analytically known target. Generation is a pure
function of (spec, seed); writing a cohort twice with the same seed yields
byte-identical files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (COUNT, FINITE, NON_NEGATIVE, RATE, SEED, InvalidSpec,
                     check_fields, check_value, finite_number)
from .session_io import (
    LABEL,
    ChannelKind,
    Label,
    Session,
    SignalChannel,
    write_manifest,
    write_session,
)

BVP_RATE = 64.0
EDA_RATE = 4.0
ACC_RATE = 32.0
TEMP_RATE = 4.0

# bi-exponential SCR shape constants
SCR_RISE_S = 1.0
SCR_DECAY_S = 4.0

# noise and baseline levels shared by every session
BVP_NOISE = 0.01
EDA_BASELINE_US = 2.0
EDA_NOISE_US = 0.001


@dataclass(frozen=True)
class SynthSpec:
    """Everything needed to generate one session deterministically."""

    seed: int
    duration_s: float = 300.0
    heart_rate_bpm: float = 72.0
    hrv_mod_freq_hz: float = 0.1
    hrv_mod_depth_ms: float = 30.0
    scr_events: tuple[tuple[float, float], ...] = ()  # (onset_s, amplitude_uS)
    acc_dominant_freq_hz: float = 2.0
    acc_amplitude: float = 0.8
    acc_inactive_fraction: float = 0.08
    temp_baseline_c: float = 36.0
    temp_trend_c_per_s: float = 0.0
    label: Label = Label.UNIPOLAR

    def validate(self) -> "SynthSpec":
        """This spec, each NumPy scalar as the Python number it holds and
        ``scr_events`` as a tuple of pairs (so the spec hashes);
        InvalidSpec names the first field out of its range."""
        # a NaN would loop _beat_times forever; every range fails it
        spec = SynthSpec(**check_fields(vars(self), SYNTH_SPEC_RANGES,
                                        InvalidSpec))
        for onset, _ in spec.scr_events:  # a NaN onset fails its range
            if not 0.0 <= onset < spec.duration_s:
                raise InvalidSpec(f"scr_events: onset {onset!r} outside the session")
        # beat period modulation must never cross zero
        if spec.hrv_mod_depth_ms / 1000.0 >= 60.0 / spec.heart_rate_bpm:
            raise InvalidSpec("HRV modulation depth exceeds the beat period")
        return replace(spec, scr_events=tuple(map(tuple, spec.scr_events)))


# SynthSpec field -> range; validate adds the checks that read two fields
SYNTH_SPEC_RANGES = {
    "seed": SEED, "duration_s": RATE, "heart_rate_bpm": RATE,
    "hrv_mod_freq_hz": FINITE, "hrv_mod_depth_ms": NON_NEGATIVE,
    "scr_events": (
        lambda v: isinstance(v, (list, tuple)) and all(
            isinstance(e, (list, tuple)) and len(e) == 2
            and all(map(finite_number, e)) and e[1] >= 0 for e in v),
        "(onset_s, amplitude_uS) pairs, amplitudes finite >= 0"),
    "acc_dominant_freq_hz": FINITE, "acc_amplitude": NON_NEGATIVE,
    "acc_inactive_fraction": (lambda v: finite_number(v) and 0 <= v <= 1,
                              "a number in [0, 1]"),
    "temp_baseline_c": FINITE, "temp_trend_c_per_s": FINITE, "label": LABEL}


def _beat_times(spec: SynthSpec) -> np.ndarray:
    base = 60.0 / spec.heart_rate_bpm
    depth = spec.hrv_mod_depth_ms / 1000.0
    times = [0.4]
    while True:
        t = times[-1]
        period = base + depth * math.sin(2.0 * math.pi * spec.hrv_mod_freq_hz * t)
        nxt = t + period
        if nxt >= spec.duration_s - 0.2:
            break
        times.append(nxt)
    return np.asarray(times)


def _bvp_channel(spec: SynthSpec, beats: np.ndarray,
                 rng: np.random.Generator, start_time: int) -> SignalChannel:
    n = int(round(spec.duration_s * BVP_RATE))
    width = 0.45 * 60.0 / spec.heart_rate_bpm  # systolic bump width, seconds
    half = width / 2.0
    # each beat's bump covers the samples within half a width of it
    lo = np.maximum(np.ceil((beats - half) * BVP_RATE).astype(np.int64), 0)
    hi = np.minimum(np.floor((beats + half) * BVP_RATE).astype(np.int64) + 1, n)
    counts = np.maximum(hi - lo, 0)
    beat = np.repeat(np.arange(beats.size), counts)
    index = np.arange(beat.size) - (np.cumsum(counts) - counts - lo)[beat]
    tau = index / BVP_RATE - beats[beat]
    signal = np.zeros(n)
    # add.at sums the bumps that overlap one sample in beat order
    np.add.at(signal, index, np.cos(math.pi * tau / width) ** 2)
    signal += rng.normal(0.0, BVP_NOISE, n)
    return SignalChannel(ChannelKind.BVP, start_time, BVP_RATE, signal)


def _scr_bump(t: np.ndarray, onset: float, amplitude: float) -> np.ndarray:
    tau = t - onset
    shape = np.where(
        tau > 0,
        np.exp(-np.clip(tau, 0, None) / SCR_DECAY_S)
        - np.exp(-np.clip(tau, 0, None) / SCR_RISE_S),
        0.0,
    )
    # normalize so the bump peaks exactly at `amplitude`
    t_peak = (SCR_RISE_S * SCR_DECAY_S / (SCR_DECAY_S - SCR_RISE_S)
              * math.log(SCR_DECAY_S / SCR_RISE_S))
    peak = math.exp(-t_peak / SCR_DECAY_S) - math.exp(-t_peak / SCR_RISE_S)
    return amplitude * shape / peak


def _eda_channel(spec: SynthSpec, rng: np.random.Generator,
                 start_time: int) -> SignalChannel:
    n = int(round(spec.duration_s * EDA_RATE))
    t = np.arange(n) / EDA_RATE
    signal = EDA_BASELINE_US + 0.1 * np.sin(2.0 * math.pi * 0.004 * t)
    for onset, amplitude in spec.scr_events:
        signal += _scr_bump(t, onset, amplitude)
    signal += rng.normal(0.0, EDA_NOISE_US, n)
    return SignalChannel(ChannelKind.EDA, start_time, EDA_RATE, signal)


def _acc_channel(spec: SynthSpec, rng: np.random.Generator,
                 start_time: int) -> SignalChannel:
    n = int(round(spec.duration_s * ACC_RATE))
    t = np.arange(n) / ACC_RATE
    active_end = spec.duration_s * (1.0 - spec.acc_inactive_fraction)
    active = t < active_end
    amp = spec.acc_amplitude
    phase = 2.0 * math.pi * spec.acc_dominant_freq_hz * t
    # motion rides on an offset so the magnitude never dips toward zero,
    # with the oscillation kept large relative to the offset so the
    # motion line, not the activity/rest level step, tops the spectrum
    x = np.where(active, amp * (0.65 + 0.35 * np.sin(phase)), 0.0)
    y = np.where(active, 0.25 * amp * (0.65 + 0.35 * np.sin(phase + 0.8)), 0.0)
    noise = rng.normal(0.0, 0.01, (n, 3))
    samples = np.stack([x, y, np.zeros(n)], axis=1) + noise
    return SignalChannel(ChannelKind.ACC, start_time, ACC_RATE, samples)


def _temp_channel(spec: SynthSpec, start_time: int) -> SignalChannel:
    n = int(round(spec.duration_s * TEMP_RATE))
    t = np.arange(n) / TEMP_RATE
    signal = spec.temp_baseline_c + spec.temp_trend_c_per_s * t
    return SignalChannel(ChannelKind.TEMP, start_time, TEMP_RATE, signal)


def generate_session(spec: SynthSpec,
                     subject_id: str = "synthetic",
                     start_time: int = 1700000000) -> Session:
    """Build one session; identical (spec, subject_id) always yields
    identical samples."""
    spec = spec.validate()
    rng = np.random.default_rng(spec.seed)
    beats = _beat_times(spec)
    channels = {
        ChannelKind.BVP: _bvp_channel(spec, beats, rng, start_time),
        ChannelKind.EDA: _eda_channel(spec, rng, start_time),
        ChannelKind.ACC: _acc_channel(spec, rng, start_time),
        ChannelKind.TEMP: _temp_channel(spec, start_time),
    }
    return Session(subject_id=subject_id, channels=channels, label=spec.label)


@dataclass(frozen=True)
class CohortSpec:
    """A cohort's size and session length, and the additive shifts applied
    to the bipolar class's parameter means.

    All-zero offsets make the two classes statistically identical, so any
    classifier should score near chance; large offsets make them trivially
    separable.
    """

    n_unipolar: int = 13
    n_bipolar: int = 18
    duration_s: float = 300.0
    offset_acc_dominant_freq_hz: float = 0.0
    offset_temp_trend_c_per_s: float = 0.0
    offset_heart_rate_bpm: float = 0.0
    offset_scr_amplitude_us: float = 0.0
    offset_acc_inactive_fraction: float = 0.0


# CohortSpec field -> range, checked by generate_cohort. The durations run
# from 30 s to 7 days: a subject's SCR onsets lie from 15 % to 85 % of the
# session give or take 4 s, which a session holds only from about 26.7 s on,
# and generation time and memory grow with the duration.
COHORT_RANGES = {
    "n_unipolar": COUNT, "n_bipolar": COUNT,
    "duration_s": (lambda v: finite_number(v) and 30 <= v <= 7 * 86_400,
                   "a number in [30, 604800]"),
    **dict.fromkeys(("offset_acc_dominant_freq_hz", "offset_temp_trend_c_per_s",
                     "offset_heart_rate_bpm", "offset_scr_amplitude_us",
                     "offset_acc_inactive_fraction"), FINITE)}


def _subject_spec(rng: np.random.Generator, cohort: CohortSpec,
                  label: Label) -> SynthSpec:
    off = cohort if label is Label.BIPOLAR else CohortSpec()
    duration = cohort.duration_s
    n_scr = int(rng.integers(2, 5))
    base_onsets = np.linspace(0.15 * duration, 0.85 * duration, n_scr)
    onsets = base_onsets + rng.uniform(-4.0, 4.0, n_scr)
    amplitudes = rng.uniform(0.2, 0.7, n_scr) + off.offset_scr_amplitude_us
    return SynthSpec(
        seed=int(rng.integers(0, 2 ** 62)),
        duration_s=duration,
        heart_rate_bpm=float(rng.uniform(66.0, 78.0))
        + off.offset_heart_rate_bpm,
        hrv_mod_depth_ms=float(rng.uniform(20.0, 40.0)),
        scr_events=tuple(
            (float(t), float(a)) for t, a in zip(onsets, amplitudes)),
        acc_dominant_freq_hz=float(rng.uniform(0.8, 1.2))
        + off.offset_acc_dominant_freq_hz,
        acc_amplitude=float(rng.uniform(0.6, 0.9)),
        # short rests keep the rest/motion level step from out-shouting
        # the motion line in the magnitude spectrum
        acc_inactive_fraction=min(0.9, max(0.0, float(
            rng.uniform(0.05, 0.10)) + off.offset_acc_inactive_fraction)),
        temp_baseline_c=float(rng.uniform(35.6, 36.4)),
        temp_trend_c_per_s=float(rng.uniform(-0.001, 0.001))
        + off.offset_temp_trend_c_per_s,
        label=label,
    )


def generate_cohort(root, cohort: CohortSpec, seed: int) -> Path:
    """Write one session directory per subject plus the label manifest.

    Returns the manifest path. Subjects are named S001.. in manifest order
    (unipolar block first).
    """
    cohort = CohortSpec(**check_fields(vars(cohort), COHORT_RANGES,
                                       InvalidSpec))
    seed = check_value("seed", seed, SEED, InvalidSpec)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    labels = [Label.UNIPOLAR] * cohort.n_unipolar + \
             [Label.BIPOLAR] * cohort.n_bipolar
    entries = []
    for i, label in enumerate(labels, start=1):
        subject_id = f"S{i:03d}"
        spec = _subject_spec(rng, cohort, label)
        session = generate_session(spec, subject_id=subject_id,
                                   start_time=1700000000 + i)
        write_session(session, root / subject_id)
        entries.append((subject_id, label))
    manifest = root / "manifest.csv"
    write_manifest(entries, manifest)
    return manifest
