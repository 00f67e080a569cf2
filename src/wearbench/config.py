"""Run configuration: dataclasses, JSON serialization, overrides.

Precedence is command-line flags > environment variables (``WEARBENCH_*``)
> config file > defaults. ``--print-config`` dumps the effective merged
configuration so a run can be reproduced from one artifact.
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .dsp import DETREND_LAMBDA
from .errors import (COUNT, FRACTION, NON_NEGATIVE, RATE, SEED, ConfigError,
                     check_fields, finite_number, one_of)
from .hrv import INTERP_RATE
from .mlbench import FEATURE_GROUPS
from .models import HYPERPARAMETERS, ModelKind
from .session_io import VALIDATION_RANGES, ValidationPolicy, read_text
from .synth import COHORT_RANGES, CohortSpec

ENV_PREFIX = "WEARBENCH_"

DEFAULT_MODELS = tuple(kind.value for kind in ModelKind)
ALL_SELECTORS = tuple(FEATURE_GROUPS)


def _each_of(choices):
    return (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
            and all(x in choices for x in v) and len(set(v)) == len(v),
            f"a non-empty list of distinct values from {', '.join(choices)}")


# the ranges only the config reads; every other range in ``RANGES`` is the
# one its reader checks. A cutoff need only be positive here: the filter
# design checks it against the sample rate, which the config never sees.
_BAND = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
         and all(map(finite_number, v)) and 0 < v[0] < v[1],
         "[low, high] with 0 < low < high")
_PATH = (lambda v: v is None or isinstance(v, str), "null or a string")
_GRID = (lambda v: isinstance(v, list) and len(v) > 0
         and all(isinstance(point, dict) for point in v),
         "a non-empty list of objects")


def _check_grids(grids: dict) -> bool:
    """Model name -> non-empty list of points, each within its kind's
    ``HYPERPARAMETERS``; raises a ConfigError that names the grid."""
    if not isinstance(grids, dict):
        return False
    check_fields(grids, dict.fromkeys(DEFAULT_MODELS, _GRID), ConfigError,
                 "bench.grids")
    for name, grid in grids.items():
        for point in grid:
            check_fields(point, HYPERPARAMETERS[ModelKind(name)], ConfigError,
                         f"bench.grids.{name}")
    return True


# top-level field -> range
TOP_LEVEL_RANGES = {"data_root": _PATH, "manifest": _PATH, "out_dir": _PATH,
                    "seed": SEED}

# section -> field -> range
RANGES = {
    "dsp": {"detrend_lambda": DETREND_LAMBDA, "bvp_band_hz": _BAND,
            "bvp_filter_order": COUNT, "welch_overlap": FRACTION,
            "nn_interp_rate_hz": INTERP_RATE},
    "features": {"peak_threshold_scale": RATE, "peak_rms_window_s": RATE,
                 "peak_refractory_s": RATE, "eda_clean_hz": RATE,
                 "eda_tonic_hz": RATE, "scr_min_amplitude": NON_NEGATIVE,
                 "acc_lowpass_hz": RATE, "acc_lowpass_order": COUNT,
                 "acc_inactivity_threshold": NON_NEGATIVE},
    "validation": VALIDATION_RANGES,
    "synth": COHORT_RANGES,
    "bench": {"models": _each_of(DEFAULT_MODELS),
              "selectors": _each_of(ALL_SELECTORS),
              "positive_class": one_of("unipolar", "bipolar"),
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
    synth: CohortSpec = field(default_factory=CohortSpec)
    bench: BenchConfig = field(default_factory=BenchConfig)

    def to_json_dict(self) -> dict:
        """Nested dicts; ``json.dumps`` writes the tuples as arrays."""
        return dataclasses.asdict(self)


def _update_dataclass(instance, overrides: dict, context: str,
                      ranges: dict):
    """``instance`` with ``overrides`` applied, each checked against its
    field's range in ``ranges``."""
    return dataclasses.replace(instance, **{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in check_fields(overrides, ranges, ConfigError,
                                 context).items()})


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
