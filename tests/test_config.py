import dataclasses
import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from wearbench import actigraphy, dsp, eda, hrv, models
from wearbench.config import (
    RANGES,
    TOP_LEVEL_RANGES,
    DspConfig,
    FeatureConfig,
    RunConfig,
    apply_env_overrides,
    config_from_dict,
)
from wearbench.errors import ConfigError

DEFAULTS = RunConfig()
SECTION_FIELDS = [(section, f.name) for section in RANGES
                  for f in dataclasses.fields(getattr(DEFAULTS, section))]
FLOAT_FIELDS = [(section, name) for section, name in SECTION_FIELDS
                if type(getattr(getattr(DEFAULTS, section), name)) is float]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


def _leaves(value):
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _leaves(v)
    else:
        yield value


def test_every_section_field_has_exactly_one_range():
    for section, ranges in RANGES.items():
        names = {f.name for f in dataclasses.fields(getattr(DEFAULTS,
                                                            section))}
        assert set(ranges) == names, section
    top_level = {f.name for f in dataclasses.fields(DEFAULTS)} - set(RANGES)
    assert set(TOP_LEVEL_RANGES) == top_level


# config field -> the library parameter it feeds, whose default it repeats
SHARED_DEFAULTS = [
    (DspConfig, "detrend_lambda", dsp.detrend, "lam"),
    (DspConfig, "welch_overlap", hrv.hrv_freq_features, "welch_overlap"),
    (DspConfig, "nn_interp_rate_hz", hrv.hrv_freq_features, "interp_rate_hz"),
    (DspConfig, "nn_interp_rate_hz", hrv.interpolate_nn, "rate_hz"),
    (FeatureConfig, "peak_threshold_scale", hrv.detect_pulse_peaks,
     "threshold_scale"),
    (FeatureConfig, "peak_rms_window_s", hrv.detect_pulse_peaks,
     "rms_window_s"),
    (FeatureConfig, "peak_refractory_s", hrv.detect_pulse_peaks,
     "refractory_s"),
    (FeatureConfig, "eda_clean_hz", eda.decompose_eda, "clean_cutoff_hz"),
    (FeatureConfig, "eda_tonic_hz", eda.decompose_eda, "tonic_cutoff_hz"),
    (FeatureConfig, "scr_min_amplitude", eda.detect_scr, "min_amplitude"),
    (FeatureConfig, "acc_inactivity_threshold", actigraphy.acc_features,
     "inactivity_threshold"),
]


@pytest.mark.parametrize("section,field,function,parameter", SHARED_DEFAULTS,
                         ids=[f"{f}-{p}" for _, f, _, p in SHARED_DEFAULTS])
def test_config_default_equals_the_library_default(section, field, function,
                                                   parameter):
    # both read from the signatures, so a drift on either side fails
    ours = inspect.signature(section).parameters[field].default
    theirs = inspect.signature(function).parameters[parameter].default
    assert (type(ours), ours) == (type(theirs), theirs)


def test_defaults_pass_their_own_checks():
    assert config_from_dict(DEFAULTS.to_json_dict()) == DEFAULTS


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section,name", FLOAT_FIELDS)
def test_non_finite_float_field_rejected(section, name, value):
    with pytest.raises(ConfigError, match=rf"^{section}\.{name} must be"):
        config_from_dict({section: {name: value}})


@pytest.mark.parametrize("band", [[math.nan, 3.5], [0.7, math.inf],
                                  [3.5, 0.7], [0.0, 1.0], [1.0]])
def test_bad_band_rejected(band):
    with pytest.raises(ConfigError, match=r"^dsp\.bvp_band_hz must be"):
        config_from_dict({"dsp": {"bvp_band_hz": band}})


def test_env_values_pass_the_same_checks():
    with pytest.raises(ConfigError):
        apply_env_overrides(DEFAULTS, {"WEARBENCH_SEED": "nan"})
    cfg = apply_env_overrides(DEFAULTS, {"WEARBENCH_SEED": "12"})
    assert cfg == dataclasses.replace(DEFAULTS, seed=12)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(SECTION_FIELDS), JSON_VALUES,
                       max_size=4))
def test_any_json_value_gives_a_config_or_config_error(values):
    data = {}
    for (section, name), value in values.items():
        data.setdefault(section, {})[name] = value
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for (section, name) in values:
        for leaf in _leaves(getattr(getattr(cfg, section), name)):
            assert not isinstance(leaf, float) or math.isfinite(leaf), \
                (section, name, leaf)


HYPERPARAMETER_KEYS = [(kind, key) for kind, keys in models.HYPERPARAMETERS.items()
                       for key in keys]
# the JSON values above, and the edges of every range
GRID_VALUES = JSON_VALUES | st.sampled_from(
    [0, 1, 2, -3, 0.5, 1.0, 2.5, 1e300, 10 ** 400, "linear", "rbf", "1.0",
     None, True, False, math.nan, math.inf, -math.inf])


def _constructor_raises(kind, key, value) -> bool:
    try:
        models._CLASSIFIERS[kind](**{key: value})
    except ValueError:
        return True
    return False


def _config_raises(kind, key, value) -> bool:
    try:
        config_from_dict({"bench": {"grids": {kind.value: [{key: value}]}}})
    except ConfigError:
        return True
    return False


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(HYPERPARAMETER_KEYS),
       GRID_VALUES.filter(lambda v: not isinstance(v, list)))
def test_constructor_raises_exactly_when_the_config_does(kind_key, value):
    kind, key = kind_key
    assert _constructor_raises(kind, key, value) \
        == _config_raises(kind, key, value)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(models.PATH_AXES, key=lambda k: k.value)),
       st.lists(GRID_VALUES, max_size=4))
def test_path_raises_exactly_when_empty_or_an_element_fails(kind, values):
    # the config takes one value per grid point; a path is the constructor's
    key = models.PATH_AXES[kind]
    expect = not values or any(_config_raises(kind, key, v) for v in values)
    assert _constructor_raises(kind, key, values) == expect
    assert _config_raises(kind, key, values)
