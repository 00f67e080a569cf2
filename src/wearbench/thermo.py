"""Skin-temperature features."""
from __future__ import annotations

import numpy as np

from .errors import SignalTooShort
from .session_io import SignalChannel

TEMP_FEATURE_NAMES = (
    "TEMP_mean", "TEMP_max", "TEMP_min", "TEMP_std", "TEMP_range",
    "TEMP_trend", "TEMP_energy",
)


def temp_features(temp: SignalChannel) -> dict[str, float]:
    """Summary statistics, linear trend, and deviation energy.

    The trend is the ordinary-least-squares slope against time in seconds
    (degrees C per second); energy sums the squared deviations from the
    mean, so energy == (N - 1) * std^2. Returns the ``TEMP_FEATURE_NAMES``
    columns.
    """
    x = np.asarray(temp.samples, dtype=float).ravel()
    if x.size < 2:
        raise SignalTooShort(f"need >= 2 samples, got {x.size}")
    t = np.arange(x.size) / temp.sample_rate
    tc = t - t.mean()
    xc = x - x.mean()
    slope = float(np.sum(tc * xc) / np.sum(tc * tc))
    std = float(np.std(x, ddof=1))
    return {
        "TEMP_mean": float(np.mean(x)),
        "TEMP_max": float(np.max(x)),
        "TEMP_min": float(np.min(x)),
        "TEMP_std": std,
        "TEMP_range": float(np.max(x) - np.min(x)),
        "TEMP_trend": slope,
        "TEMP_energy": float(np.sum(xc ** 2)),
    }
