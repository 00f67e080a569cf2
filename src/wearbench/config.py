"""Run configuration: dataclasses, JSON serialization, overrides.

Precedence is command-line flags > environment variables (``WEARBENCH_*``)
> config file > defaults. ``--print-config`` dumps the effective merged
configuration so a run can be reproduced from one artifact.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

ENV_PREFIX = "WEARBENCH_"

DEFAULT_MODELS = ("knn", "dt", "rf", "gb", "svm", "mlp")
ALL_SELECTORS = ("hrv_time", "hrv_freq", "eda", "acc", "temp", "all")

_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_DEPTH = (lambda v: v is None or _COUNT[0](v), "null or an integer >= 1")
_RATE = (lambda v: type(v) in (int, float) and 0 < v < math.inf,
         "a positive number")
# hyperparameters each model's grid may set -> (check, what it must be)
GRID_KEYS = {
    "knn": {"k": _COUNT},
    "dt": {"max_depth": _DEPTH, "min_samples_leaf": _COUNT},
    "rf": {"n_estimators": _COUNT, "max_depth": _DEPTH,
           "min_samples_leaf": _COUNT},
    "gb": {"n_estimators": _COUNT, "learning_rate": _RATE,
           "max_depth": _COUNT},
    "svm": {"kernel": (lambda v: v in ("linear", "rbf"),
                       '"linear" or "rbf"'),
            "c": _RATE, "gamma": _RATE},
    "mlp": {"hidden": _COUNT, "learning_rate": _RATE, "epochs": _COUNT},
}


@dataclass(frozen=True)
class DspConfig:
    detrend_lambda: float = 500.0
    bvp_band_hz: tuple[float, float] = (0.7, 3.5)
    bvp_filter_order: int = 2
    welch_overlap: float = 0.5
    nn_interp_rate_hz: float = 4.0

    def validate(self) -> None:
        if self.detrend_lambda <= 0:
            raise ConfigError("detrend_lambda must be positive")
        lo, hi = self.bvp_band_hz
        if not 0 < lo < hi:
            raise ConfigError("bvp_band_hz must satisfy 0 < low < high")
        if self.bvp_filter_order < 1:
            raise ConfigError("bvp_filter_order must be >= 1")
        if not 0 <= self.welch_overlap < 1:
            raise ConfigError("welch_overlap must be in [0, 1)")
        if self.nn_interp_rate_hz <= 0:
            raise ConfigError("nn_interp_rate_hz must be positive")


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

    def validate(self) -> None:
        positives = {
            "peak_threshold_scale": self.peak_threshold_scale,
            "peak_rms_window_s": self.peak_rms_window_s,
            "peak_refractory_s": self.peak_refractory_s,
            "eda_clean_hz": self.eda_clean_hz,
            "eda_tonic_hz": self.eda_tonic_hz,
            "acc_lowpass_hz": self.acc_lowpass_hz,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.scr_min_amplitude < 0:
            raise ConfigError("scr_min_amplitude must be >= 0")
        if self.acc_lowpass_order < 1:
            raise ConfigError("acc_lowpass_order must be >= 1")
        if self.acc_inactivity_threshold < 0:
            raise ConfigError("acc_inactivity_threshold must be >= 0")


@dataclass(frozen=True)
class ValidationConfig:
    min_duration_seconds: float = 60.0
    max_duration_skew_seconds: float = 5.0

    def validate(self) -> None:
        if self.min_duration_seconds <= 0:
            raise ConfigError("min_duration_seconds must be positive")
        if self.max_duration_skew_seconds < 0:
            raise ConfigError("max_duration_skew_seconds must be >= 0")


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

    def validate(self) -> None:
        if self.n_unipolar < 1 or self.n_bipolar < 1:
            raise ConfigError("need at least one subject per class")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")


@dataclass(frozen=True)
class BenchConfig:
    models: tuple[str, ...] = DEFAULT_MODELS
    selectors: tuple[str, ...] = ("all",)
    positive_class: str = "bipolar"
    grids: dict = field(default_factory=dict)  # model name -> list of dicts

    def validate(self) -> None:
        for m in self.models:
            if m not in DEFAULT_MODELS:
                raise ConfigError(f"unknown model {m!r}")
        for s in self.selectors:
            if s not in ALL_SELECTORS:
                raise ConfigError(f"unknown feature selector {s!r}")
        if self.positive_class not in ("unipolar", "bipolar"):
            raise ConfigError("positive_class must be unipolar or bipolar")
        for name, grid in self.grids.items():
            if name not in DEFAULT_MODELS:
                raise ConfigError(f"grid for unknown model {name!r}")
            if not isinstance(grid, list) or not grid:
                raise ConfigError(f"grid for {name!r} must be a non-empty list")
            for point in grid:
                if not isinstance(point, dict):
                    raise ConfigError(
                        f"grid entries for {name!r} must be objects")
                for key, value in point.items():
                    if key not in GRID_KEYS[name]:
                        raise ConfigError(
                            f"grid for {name!r} sets unknown hyperparameter "
                            f"{key!r}; allowed: {sorted(GRID_KEYS[name])}")
                    check, what = GRID_KEYS[name][key]
                    if not check(value):
                        raise ConfigError(
                            f"grid for {name!r}: {key} must be {what}, "
                            f"got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    data_root: str | None = None
    manifest: str | None = None
    out_dir: str | None = None
    seed: int = 7
    dsp: DspConfig = field(default_factory=DspConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)

    def validate(self) -> None:
        self.dsp.validate()
        self.features.validate()
        self.validation.validate()
        self.synth.validate()
        self.bench.validate()

    def to_json_dict(self) -> dict:
        def encode(obj):
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                return {f.name: encode(getattr(obj, f.name))
                        for f in dataclasses.fields(obj)}
            if isinstance(obj, tuple):
                return [encode(v) for v in obj]
            if isinstance(obj, dict):
                return {k: encode(v) for k, v in obj.items()}
            return obj
        return encode(self)


def _matches(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. A list fits a tuple;
    an int is also a float, and a bool is not a number."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_matches(value, a) for a in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and (
            all(_matches(v, args[0]) for v in value) if args[-1] is Ellipsis
            else len(value) == len(args) and all(map(_matches, value, args)))
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, hint)


def _update_dataclass(instance, overrides: dict, context: str):
    """``instance`` with ``overrides`` applied, each checked against the
    annotation of its field."""
    hints = typing.get_type_hints(type(instance))
    unknown = set(overrides) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    for key, value in overrides.items():
        hint = hints[key]
        if not _matches(value, hint):
            name = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{context}.{key} must be {name}, "
                              f"got {value!r}")
    return dataclasses.replace(instance, **{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in overrides.items()})


def config_from_dict(data: dict, base: RunConfig | None = None) -> RunConfig:
    base = base or RunConfig()
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {"dsp": DspConfig, "features": FeatureConfig,
                "validation": ValidationConfig, "synth": SynthConfig,
                "bench": BenchConfig}
    top = {}
    for key, value in data.items():
        if key in sections:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be an object")
            top[key] = _update_dataclass(getattr(base, key), value, key)
        elif key not in ("data_root", "manifest", "out_dir", "seed"):
            raise ConfigError(f"unknown config key {key!r}")
    plain = {k: v for k, v in data.items() if k not in sections}
    return dataclasses.replace(_update_dataclass(base, plain, "config"),
                               **top)


def load_config_file(path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") \
            from None
    return config_from_dict(data)


def apply_env_overrides(cfg: RunConfig, environ=None) -> RunConfig:
    env = os.environ if environ is None else environ
    updates = {}
    for key in ("data_root", "manifest", "out_dir"):
        value = env.get(ENV_PREFIX + key.upper())
        if value:
            updates[key] = value
    seed = env.get(ENV_PREFIX + "SEED")
    if seed:
        try:
            updates["seed"] = int(seed)
        except ValueError:
            raise ConfigError(f"{ENV_PREFIX}SEED must be an integer") from None
    return dataclasses.replace(cfg, **updates) if updates else cfg
