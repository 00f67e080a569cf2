"""Run configuration: dataclasses, JSON serialization, overrides.

Precedence is command-line flags > environment variables (``WEARBENCH_*``)
> config file > defaults. ``--print-config`` dumps the effective merged
configuration so a run can be reproduced from one artifact.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .dsp import MAX_DETREND_LAMBDA
from .errors import ConfigError
from .mlbench import FEATURE_GROUPS
from .models import MODEL_KINDS_BY_NAME
from .session_io import ValidationPolicy, read_text

ENV_PREFIX = "WEARBENCH_"

DEFAULT_MODELS = tuple(MODEL_KINDS_BY_NAME)
ALL_SELECTORS = tuple(FEATURE_GROUPS)


def finite_number(v) -> bool:
    """A JSON number that fits a finite float: NaN, +-inf, numbers too
    large for a float, and bools all fail."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _one_of(*choices):
    return (lambda v: v in choices,
            " or ".join(json.dumps(c) for c in choices))


def _each_of(choices):
    return (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
            and all(x in choices for x in v) and len(set(v)) == len(v),
            f"a non-empty list of distinct values from {', '.join(choices)}")


# a range is (check, what the value must be); it is a field's only check,
# so it also checks the type, and it fails NaN and +-inf
_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_SEED = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
_DEPTH = (lambda v: v is None or _COUNT[0](v), "null or an integer >= 1")
_RATE = (lambda v: finite_number(v) and v > 0, "a positive number")
_LAMBDA = (lambda v: finite_number(v) and 0 < v <= MAX_DETREND_LAMBDA,
           f"a positive number <= {MAX_DETREND_LAMBDA:g}")
_NON_NEGATIVE = (lambda v: finite_number(v) and v >= 0, "a finite number >= 0")
_FINITE = (finite_number, "a finite number")
_FRACTION = (lambda v: finite_number(v) and 0 <= v < 1, "a number in [0, 1)")
_BAND = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
         and all(map(finite_number, v)) and 0 < v[0] < v[1],
         "[low, high] with 0 < low < high")
_PATH = (lambda v: v is None or isinstance(v, str), "null or a string")

# hyperparameters each model's grid may set -> range
GRID_KEYS = {
    "knn": {"k": _COUNT},
    "dt": {"max_depth": _DEPTH, "min_samples_leaf": _COUNT},
    "rf": {"n_estimators": _COUNT, "max_depth": _DEPTH,
           "min_samples_leaf": _COUNT},
    "gb": {"n_estimators": _COUNT, "learning_rate": _RATE,
           "max_depth": _COUNT},
    "svm": {"kernel": _one_of("linear", "rbf"), "c": _RATE, "gamma": _RATE},
    "mlp": {"hidden": _COUNT, "learning_rate": _RATE, "epochs": _COUNT},
}


_GRID = (lambda v: isinstance(v, list) and len(v) > 0
         and all(isinstance(point, dict) for point in v),
         "a non-empty list of objects")


def _check_fields(values: dict, ranges: dict, context: str) -> None:
    """Raise a ConfigError naming ``context`` for a key of ``values`` that
    ``ranges`` lacks, or a value outside its key's range."""
    unknown = set(values) - set(ranges)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    for key, value in values.items():
        check, what = ranges[key]
        if not check(value):
            raise ConfigError(f"{context}.{key} must be {what}, "
                              f"got {value!r}")


def _check_grids(grids: dict) -> bool:
    """Model name -> non-empty list of points, each within ``GRID_KEYS``;
    raises a ConfigError that names the offending grid."""
    if not isinstance(grids, dict):
        return False
    _check_fields(grids, dict.fromkeys(DEFAULT_MODELS, _GRID), "bench.grids")
    for name, grid in grids.items():
        for point in grid:
            _check_fields(point, GRID_KEYS[name], f"bench.grids.{name}")
    return True


# top-level field -> range
TOP_LEVEL_RANGES = {"data_root": _PATH, "manifest": _PATH, "out_dir": _PATH,
                    "seed": _SEED}

# section -> field -> range
RANGES = {
    "dsp": {"detrend_lambda": _LAMBDA, "bvp_band_hz": _BAND,
            "bvp_filter_order": _COUNT, "welch_overlap": _FRACTION,
            "nn_interp_rate_hz": _RATE},
    "features": {"peak_threshold_scale": _RATE, "peak_rms_window_s": _RATE,
                 "peak_refractory_s": _RATE, "eda_clean_hz": _RATE,
                 "eda_tonic_hz": _RATE, "scr_min_amplitude": _NON_NEGATIVE,
                 "acc_lowpass_hz": _RATE, "acc_lowpass_order": _COUNT,
                 "acc_inactivity_threshold": _NON_NEGATIVE},
    "validation": {"min_duration_seconds": _RATE,
                   "max_duration_skew_seconds": _NON_NEGATIVE},
    "synth": {"n_unipolar": _COUNT, "n_bipolar": _COUNT, "duration_s": _RATE,
              "offset_acc_dominant_freq_hz": _FINITE,
              "offset_temp_trend_c_per_s": _FINITE,
              "offset_heart_rate_bpm": _FINITE,
              "offset_scr_amplitude_us": _FINITE,
              "offset_acc_inactive_fraction": _FINITE},
    "bench": {"models": _each_of(DEFAULT_MODELS),
              "selectors": _each_of(ALL_SELECTORS),
              "positive_class": _one_of("unipolar", "bipolar"),
              "grids": (_check_grids, "an object of model grids")},
}


@dataclass(frozen=True)
class DspConfig:
    detrend_lambda: float = 500.0
    bvp_band_hz: tuple[float, float] = (0.7, 3.5)
    bvp_filter_order: int = 2
    welch_overlap: float = 0.5
    nn_interp_rate_hz: float = 4.0


@dataclass(frozen=True)
class FeatureConfig:
    peak_threshold_scale: float = 0.6
    peak_rms_window_s: float = 2.0
    peak_refractory_s: float = 0.3
    eda_clean_hz: float = 1.0
    eda_tonic_hz: float = 0.05
    scr_min_amplitude: float = 0.01
    acc_lowpass_hz: float = 10.0
    acc_lowpass_order: int = 5
    acc_inactivity_threshold: float = 0.12


@dataclass(frozen=True)
class SynthConfig:
    n_unipolar: int = 13
    n_bipolar: int = 18
    duration_s: float = 300.0
    offset_acc_dominant_freq_hz: float = 0.0
    offset_temp_trend_c_per_s: float = 0.0
    offset_heart_rate_bpm: float = 0.0
    offset_scr_amplitude_us: float = 0.0
    offset_acc_inactive_fraction: float = 0.0


@dataclass(frozen=True)
class BenchConfig:
    models: tuple[str, ...] = DEFAULT_MODELS
    selectors: tuple[str, ...] = ("all",)
    positive_class: str = "bipolar"
    grids: dict = field(default_factory=dict)  # model name -> list of dicts


@dataclass(frozen=True)
class RunConfig:
    data_root: str | None = None
    manifest: str | None = None
    out_dir: str | None = None
    seed: int = 7
    dsp: DspConfig = field(default_factory=DspConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    validation: ValidationPolicy = field(default_factory=ValidationPolicy)
    synth: SynthConfig = field(default_factory=SynthConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)

    def to_json_dict(self) -> dict:
        """Nested dicts; ``json.dumps`` writes the tuples as arrays."""
        return dataclasses.asdict(self)


def _update_dataclass(instance, overrides: dict, context: str,
                      ranges: dict):
    """``instance`` with ``overrides`` applied, each checked against its
    field's range in ``ranges``."""
    _check_fields(overrides, ranges, context)
    return dataclasses.replace(instance, **{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in overrides.items()})


def config_from_dict(data: dict, base: RunConfig | None = None) -> RunConfig:
    """``base`` (the defaults if None) with ``data`` applied. Every config
    source -- file, environment and flags -- comes through here."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    base = base or RunConfig()
    sections = {}
    for key, value in data.items():
        if key in RANGES:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be an object")
            sections[key] = _update_dataclass(getattr(base, key), value, key,
                                              RANGES[key])
    plain = {k: v for k, v in data.items() if k not in RANGES}
    return dataclasses.replace(
        _update_dataclass(base, plain, "config", TOP_LEVEL_RANGES),
        **sections)


def load_config_file(path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(read_text(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") \
            from None
    return config_from_dict(data)


def apply_env_overrides(cfg: RunConfig, environ=None) -> RunConfig:
    env = os.environ if environ is None else environ
    overrides = {key: env[ENV_PREFIX + key.upper()]
                 for key in ("data_root", "manifest", "out_dir")
                 if env.get(ENV_PREFIX + key.upper())}
    seed = env.get(ENV_PREFIX + "SEED")
    if seed:
        try:
            overrides["seed"] = int(seed)
        except ValueError:
            raise ConfigError(f"{ENV_PREFIX}SEED must be an integer") from None
    return config_from_dict(overrides, base=cfg)
