"""Skin-temperature features."""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import SignalTooShort
from .session_io import SignalChannel

@dataclass(frozen=True)
class TempFeatures:
    TEMP_mean: float
    TEMP_max: float
    TEMP_min: float
    TEMP_std: float
    TEMP_range: float
    TEMP_trend: float
    TEMP_energy: float

    def as_features(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


TEMP_FEATURE_NAMES = tuple(f.name for f in fields(TempFeatures))


def temp_features(temp: SignalChannel) -> TempFeatures:
    """Summary statistics, linear trend, and deviation energy.

    The trend is the ordinary-least-squares slope against time in seconds
    (degrees C per second); energy sums the squared deviations from the
    mean, so energy == (N - 1) * std^2.
    """
    x = np.asarray(temp.samples, dtype=float).ravel()
    if x.size < 2:
        raise SignalTooShort(f"need >= 2 samples, got {x.size}")
    t = np.arange(x.size) / temp.sample_rate
    tc = t - t.mean()
    xc = x - x.mean()
    slope = float(np.dot(tc, xc) / np.dot(tc, tc))
    std = float(np.std(x, ddof=1))
    return TempFeatures(
        TEMP_mean=float(np.mean(x)),
        TEMP_max=float(np.max(x)),
        TEMP_min=float(np.min(x)),
        TEMP_std=std,
        TEMP_range=float(np.max(x) - np.min(x)),
        TEMP_trend=slope,
        TEMP_energy=float(np.sum(xc ** 2)),
    )
