"""Physical-activity features from 3-axis accelerometry."""
from __future__ import annotations

import warnings

import numpy as np

from . import dsp
from .errors import (NON_NEGATIVE, ConstantInput, LengthMismatch,
                     SignalTooShort, check_value)
from .session_io import SignalChannel

ACC_FEATURE_NAMES = (
    "ACC_Mean", "ACC_Max", "ACC_Min", "ACC_STD", "ACC_Energy",
    "ACC_Dominant_frequency", "ACC_Inactivity_time",
    "Symmetry_x_y", "Symmetry_y_z", "Symmetry_x_z",
)


def acc_magnitude(x, y, z) -> np.ndarray:
    """Elementwise vector norm of the three axis signals."""
    ax = np.asarray(x, dtype=float).ravel()
    ay = np.asarray(y, dtype=float).ravel()
    az = np.asarray(z, dtype=float).ravel()
    if not ax.size == ay.size == az.size:
        raise LengthMismatch(
            f"axis lengths differ: {ax.size}, {ay.size}, {az.size}")
    if ax.size < 1:
        raise LengthMismatch("axes must be non-empty")
    return np.sqrt(ax * ax + ay * ay + az * az)


def _abs_corr(a, b) -> float:
    try:
        return abs(dsp.pearson_corr(a, b))
    except ConstantInput:
        warnings.warn("constant accelerometer axis; symmetry set to 0",
                      RuntimeWarning, stacklevel=3)
        return 0.0


def acc_features(acc: SignalChannel,
                 inactivity_threshold: float = 0.12) -> dict[str, float]:
    """Movement intensity, dynamics, and symmetry features.

    Expects an already low-pass-filtered channel. The dominant frequency is
    the tallest positive-frequency FFT bin of the mean-removed magnitude
    (removing the mean keeps the ever-present DC component from winning);
    inactivity time counts magnitude samples under the threshold, in
    seconds. Symmetries are absolute Pearson correlations per axis pair;
    a constant axis contributes 0. Returns the ``ACC_FEATURE_NAMES`` columns.
    """
    inactivity_threshold = check_value("inactivity_threshold",
                                       inactivity_threshold, NON_NEGATIVE)
    samples = np.asarray(acc.samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValueError("expected a 3-column ACC channel")
    fs = acc.sample_rate
    n = samples.shape[0]
    if n / fs < 2.0:
        raise SignalTooShort(f"ACC must cover >= 2 s, got {n / fs:.2f} s")
    x, y, z = samples[:, 0], samples[:, 1], samples[:, 2]
    magnitude = acc_magnitude(x, y, z)

    spectrum = np.abs(np.fft.rfft(magnitude - magnitude.mean()))
    dominant_bin = 1 + int(np.argmax(spectrum[1:]))
    dominant_hz = dominant_bin * fs / n

    below = int(np.count_nonzero(magnitude < inactivity_threshold))

    return {
        "ACC_Mean": float(np.mean(magnitude)),
        "ACC_Max": float(np.max(magnitude)),
        "ACC_Min": float(np.min(magnitude)),
        "ACC_STD": float(np.std(magnitude, ddof=1)),
        "ACC_Energy": float(np.sum(magnitude ** 2) / n),
        "ACC_Dominant_frequency": float(dominant_hz),
        "ACC_Inactivity_time": below / fs,
        "Symmetry_x_y": _abs_corr(x, y),
        "Symmetry_y_z": _abs_corr(y, z),
        "Symmetry_x_z": _abs_corr(x, z),
    }
