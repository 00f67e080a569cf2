"""Electrodermal activity: tonic/phasic split, SCR detection, features.

The split is filter-based: a gentle low-pass cleans sensor noise, a much
slower low-pass isolates the baseline (tonic) level, and the remainder is
the phasic component. By construction tonic + phasic reproduces the cleaned
signal exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import NON_NEGATIVE, SignalTooShort, check_value
from .session_io import SignalChannel

EDA_FEATURE_NAMES = (
    "EDA_Tonic_Mean", "EDA_Tonic_STD", "EDA_Tonic_Min", "EDA_Tonic_Max",
    "EDA_Phasic_Mean", "EDA_Phasic_STD", "EDA_Phasic_Min", "EDA_Phasic_Max",
    "SCR_Amplitude", "SCR_Onsets",
)


@dataclass(frozen=True)
class EdaDecomposition:
    tonic: np.ndarray
    phasic: np.ndarray


@dataclass(frozen=True)
class ScrEvent:
    """One skin-conductance response: rise from onset to peak."""

    onset_index: int
    peak_index: int
    amplitude: float

    def __post_init__(self):
        if not self.onset_index < self.peak_index:
            raise ValueError("onset must precede peak")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")


def decompose_eda(eda: SignalChannel, tonic_cutoff_hz: float = 0.05,
                  clean_cutoff_hz: float = 1.0) -> EdaDecomposition:
    """Split an EDA channel into tonic baseline and phasic remainder.

    Cleaning is a zero-phase 4th-order low-pass at ``clean_cutoff_hz``;
    the tonic component is a zero-phase 2nd-order low-pass of the cleaned
    signal at ``tonic_cutoff_hz``; phasic = cleaned - tonic.
    """
    x = np.asarray(eda.samples, dtype=float).ravel()
    fs = eda.sample_rate
    if x.size / fs < 20.0:
        raise SignalTooShort(
            f"EDA must cover >= 20 s, got {x.size / fs:.1f} s")
    clean_design = dsp.design_butterworth(4, dsp.FilterKind.LOW_PASS,
                                          (clean_cutoff_hz,), fs)
    tonic_design = dsp.design_butterworth(2, dsp.FilterKind.LOW_PASS,
                                          (tonic_cutoff_hz,), fs)
    cleaned = dsp.filtfilt(clean_design, x)
    tonic = dsp.filtfilt(tonic_design, cleaned)
    return EdaDecomposition(tonic=tonic, phasic=cleaned - tonic)


def detect_scr(decomp: EdaDecomposition,
               min_amplitude: float = 0.01) -> list[ScrEvent]:
    """Find phasic rises: local maxima traced back to their onsets.

    A candidate peak is a local maximum that clears the zero line by at
    least ``min_amplitude`` (responses are positive excursions; recovery
    rebounds hovering near zero are not events). Its onset is where the
    rise began: the preceding trough, found by walking back while the
    phasic signal keeps decreasing. Events whose rise is below
    ``min_amplitude`` are discarded. Returns events sorted by onset
    (an empty list is valid).
    """
    min_amplitude = check_value("min_amplitude", min_amplitude, NON_NEGATIVE)
    p = decomp.phasic
    rise = p[1:] > p[:-1]  # rise[k - 1]: p[k] rose from p[k - 1]
    # onsets[k - 1]: where the run of rises that ends at p[k] began
    onsets = np.maximum.accumulate(np.where(rise, 0, np.arange(1, p.size)))
    peaks = np.flatnonzero(rise[:-1] & (p[1:-1] >= p[2:])
                           & (p[1:-1] >= min_amplitude)) + 1
    starts = onsets[peaks - 1]
    amplitudes = p[peaks] - p[starts]
    keep = amplitudes >= min_amplitude
    # onsets never decrease as peaks increase, so peak order is onset order
    return [ScrEvent(onset_index=int(j), peak_index=int(i),
                     amplitude=float(a)) for j, i, a
            in zip(starts[keep], peaks[keep], amplitudes[keep])]


def eda_features(decomp: EdaDecomposition, events) -> dict[str, float]:
    """Ten scalars: {mean, std, min, max} per component + SCR summaries.

    SCR_Amplitude is the mean event amplitude (0 when no events fire) and
    SCR_Onsets is the event count.
    """
    tonic, phasic = decomp.tonic, decomp.phasic
    amplitudes = [e.amplitude for e in events]
    return {
        "EDA_Tonic_Mean": float(np.mean(tonic)),
        "EDA_Tonic_STD": float(np.std(tonic, ddof=1)),
        "EDA_Tonic_Min": float(np.min(tonic)),
        "EDA_Tonic_Max": float(np.max(tonic)),
        "EDA_Phasic_Mean": float(np.mean(phasic)),
        "EDA_Phasic_STD": float(np.std(phasic, ddof=1)),
        "EDA_Phasic_Min": float(np.min(phasic)),
        "EDA_Phasic_Max": float(np.max(phasic)),
        "SCR_Amplitude": float(np.mean(amplitudes)) if amplitudes else 0.0,
        "SCR_Onsets": float(len(amplitudes)),
    }
