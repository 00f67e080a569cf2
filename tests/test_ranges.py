"""Each parameter range has one owner: the function that reads the value
checks it through ``errors.check_fields``, and ``config.RANGES`` points at
that same range object.

For every owner, over NaN, +-inf, 0, -1, ``True``, ``"1"``, NumPy scalars
and the range's edges: the owner raises its error naming the argument
exactly when the range rejects the value, and a NumPy scalar gives the
output bits of the Python number it holds."""
import dataclasses
import functools
import hashlib
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from wearbench import (actigraphy, config, dsp, eda, errors, hrv, mlbench,
                       models, synth)
from wearbench.errors import (COUNT, FRACTION, NON_NEGATIVE, RATE, SEED,
                              InvalidCutoff, InvalidOrder, InvalidSpec,
                              check_fields)
from wearbench.models import ModelKind, ModelSpec
from wearbench.session_io import (LABEL, START_TIME, VALIDATION_RANGES,
                                  ChannelKind, Label, SignalChannel,
                                  ValidationPolicy, validate_session)

MAX = sys.float_info.max
TINY = math.ulp(0.0)
# every owner is called with these, and with its range's edges
COMMON = [math.nan, math.inf, -math.inf, 0, -1, True, "1", np.float64(0.5),
          np.int64(2), np.float32(0.25)]
X = np.random.default_rng(0).normal(size=200)
PEAKS = np.arange(0, 6400, 50)
# a one-fold stack for the models: x (1, 12, 2), y (1, 12)
MX = np.random.default_rng(1).normal(size=(1, 12, 2))
MY = np.array([[0, 1] * 6])
# a path axis takes one value or a non-empty sequence of values in range
PATH_EDGES = (1, 3, np.array([1, 3]), [np.int64(1), 3], [], [0, 3], (2, 1),
              [0.5, 2], [1, True], np.array([[1, 3]]), np.array(3))
FOLD_SEEDED = {
    "rf": lambda seed: models.RandomForestClassifier(3, seed=seed),
    "mlp": lambda seed: models.MlpClassifier(2, epochs=2, seed=seed)}


@functools.lru_cache(maxsize=None)
def _session():
    return synth.generate_session(synth.SynthSpec(seed=7, duration_s=120.0))


@functools.lru_cache(maxsize=None)
def _decomposition():
    return eda.decompose_eda(_session().channel(ChannelKind.EDA))


def _nn():
    beats = np.cumsum(800.0 + 30.0 * np.sin(np.arange(200) / 5.0)) / 1000.0
    return hrv.NNSeries(np.diff(beats) * 1000.0, beats)


def _cohort_checksum(cohort, seed=1):
    """The bytes of a cohort written to a new directory, as one digest."""
    with tempfile.TemporaryDirectory() as root:
        synth.generate_cohort(root, cohort, seed)
        digest = hashlib.sha256()
        for path in sorted(Path(root).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()


def _small_cohort(**fields):
    return synth.CohortSpec(**{"n_unipolar": 1, "n_bipolar": 1,
                               "duration_s": 30.0, **fields})


def _spec(**fields):
    return dataclasses.replace(synth.SynthSpec(seed=1, duration_s=60.0),
                               **fields)


@functools.lru_cache(maxsize=None)
def _toy_matrix():
    rng = np.random.default_rng(0)
    rows = [mlbench.SubjectFeatures(
        f"S{i:03d}", Label.UNIPOLAR if i < 4 else Label.BIPOLAR,
        {name: float(rng.normal() + (i >= 4)) for name in
         mlbench.FEATURE_GROUPS["temp"]}) for i in range(9)]
    return mlbench.assemble_matrix(rows, "temp")


_CONFUSION = {"tp": 3, "tn": 4, "fp": 1, "fn": 2}
COHORT_EDGES = {"n_unipolar": (1,), "n_bipolar": (1,),
                "duration_s": (30, np.nextafter(30.0, 0.0), 31.5)}
LOW_PASS = dsp.FilterKind.LOW_PASS


@dataclasses.dataclass(frozen=True)
class Owner:
    id: str
    name: str  # the argument or field the message names
    range_: tuple
    call: object  # value -> output
    edges: tuple = ()
    error: type = ValueError
    config_fields: tuple = ()  # (section or None for the top level, field)


OWNERS = [
    Owner("detrend-lam", "lam", dsp.DETREND_LAMBDA,
          lambda v: dsp.detrend(X, v),
          (dsp.MAX_DETREND_LAMBDA, np.nextafter(dsp.MAX_DETREND_LAMBDA, 2e6),
           TINY, -TINY), config_fields=(("dsp", "detrend_lambda"),)),
    Owner("butterworth-order", "order", COUNT,
          lambda v: dsp.design_butterworth(v, LOW_PASS, (1.0,), 8.0),
          (1, 2.0, np.int8(3)), InvalidOrder,
          (("dsp", "bvp_filter_order"), ("features", "acc_lowpass_order"))),
    Owner("butterworth-rate", "sample_rate_hz", RATE,
          lambda v: dsp.design_butterworth(2, LOW_PASS, (0.1,), v),
          (TINY, -TINY, MAX, 8.0), InvalidCutoff),
    Owner("welch-rate", "sample_rate_hz", RATE,
          lambda v: dsp.welch_psd(X, v), (TINY, -TINY, MAX)),
    Owner("welch-segment-len", "segment_len", COUNT,
          lambda v: dsp.welch_psd(X, 4.0, segment_len=v),
          (1, 7, 8, 8.9, 200, 201, 300.7, np.int16(64))),
    Owner("welch-overlap", "overlap_fraction", FRACTION,
          lambda v: dsp.welch_psd(X, 4.0, overlap_fraction=v),
          (0.0, -TINY, np.nextafter(1.0, 0.0), 1, 1.0),
          config_fields=(("dsp", "welch_overlap"),)),
    Owner("hrv-freq-interp-rate", "interp_rate_hz", hrv.INTERP_RATE,
          lambda v: hrv.hrv_freq_features(_nn(), interp_rate_hz=v),
          (0.8, np.nextafter(0.8, 1.0), 64, np.nextafter(64.0, 65.0), 4.0),
          config_fields=(("dsp", "nn_interp_rate_hz"),)),
    Owner("peaks-to-nn-rate", "sample_rate_hz", RATE,
          lambda v: hrv.peaks_to_nn(PEAKS, v), (TINY, -TINY, MAX, 64.0)),
    # it checked RATE: 1e300 asked NumPy for 10^302 grid points, and MAX
    # raised OverflowError
    Owner("interpolate-nn-rate", "rate_hz", hrv.INTERP_RATE,
          lambda v: hrv.interpolate_nn(_nn(), v),
          (TINY, -TINY, 0.8, np.nextafter(0.8, 1.0), 64,
           np.nextafter(64.0, 65.0), 4.0, 1e300, MAX)),
    *(Owner(f"peaks-{name}", name, RATE,
            lambda v, name=name: hrv.detect_pulse_peaks(
                _session().channel(ChannelKind.BVP), **{name: v}),
            (TINY, -TINY, MAX), config_fields=(("features", field),))
      for name, field in (("threshold_scale", "peak_threshold_scale"),
                          ("rms_window_s", "peak_rms_window_s"),
                          ("refractory_s", "peak_refractory_s"))),
    Owner("scr-min-amplitude", "min_amplitude", NON_NEGATIVE,
          lambda v: eda.detect_scr(_decomposition(), min_amplitude=v),
          (0.0, TINY, -TINY, MAX),
          config_fields=(("features", "scr_min_amplitude"),)),
    Owner("acc-inactivity", "inactivity_threshold", NON_NEGATIVE,
          lambda v: actigraphy.acc_features(
              _session().channel(ChannelKind.ACC), inactivity_threshold=v),
          (0.0, -TINY, MAX),
          config_fields=(("features", "acc_inactivity_threshold"),)),
    Owner("channel-rate", "sample_rate", RATE,
          lambda v: SignalChannel(ChannelKind.TEMP, 0, v, np.ones(10)),
          (TINY, -TINY, MAX)),
    Owner("channel-start-time", "start_time", START_TIME,
          lambda v: SignalChannel(ChannelKind.TEMP, v, 4.0, np.ones(10)),
          (1.5, "x", 2.0, -5, 2 ** 70)),
    *(Owner(f"validation-{field}", field, VALIDATION_RANGES[field],
            lambda v, field=field: validate_session(
                _session(), ValidationPolicy(**{field: v})),
            (TINY, -TINY, MAX, 200.0), config_fields=(("validation", field),))
      for field in VALIDATION_RANGES),
    # small cohorts only: a large count or duration is tested through the
    # check alone, in test_cohort_duration_edges
    *(Owner(f"cohort-{field}", field, synth.COHORT_RANGES[field],
            lambda v, field=field: _cohort_checksum(
                _small_cohort(**{field: v})),
            COHORT_EDGES.get(field, (0.5, -1.5)), InvalidSpec,
            (("synth", field),))
      for field in synth.COHORT_RANGES),
    Owner("cohort-seed", "seed", SEED,
          lambda v: _cohort_checksum(_small_cohort(), v), (0, 2 ** 64 - 1),
          InvalidSpec, ((None, "seed"),)),
    *(Owner(f"synth-spec-{field}", field, synth.SYNTH_SPEC_RANGES[field],
            lambda v, field=field: _spec(**{field: v}).validate(),
            (TINY, -TINY, MAX, 1.0, np.nextafter(1.0, 2.0)), InvalidSpec)
      for field in synth.SYNTH_SPEC_RANGES
      if field not in ("scr_events", "label")),
    Owner("synth-spec-label", "label", LABEL,
          lambda v: _spec(label=v).validate(), (Label.BIPOLAR, "bipolar"),
          InvalidSpec),
    Owner("loocv-seed", "seed", SEED,
          lambda v: json.dumps(mlbench.loocv_grid_search(
              _toy_matrix(), ModelKind.KNN, [{"k": 1}], seed=v)),
          (0, 2 ** 62)),
    Owner("loocv-positive-class", "positive_class", LABEL,
          lambda v: json.dumps(mlbench.loocv_grid_search(
              _toy_matrix(), ModelKind.KNN, [{"k": 1}], positive_class=v)),
          (Label.UNIPOLAR, Label.BIPOLAR, 1, "bipolar")),
    *(Owner(f"metrics-{key}", key, SEED,
            lambda v, key=key: mlbench.compute_metrics({**_CONFUSION, key: v}),
            (0, 2.0, np.uint8(3))) for key in _CONFUSION),
    *(Owner(f"{name}-fold-seed", "seed", SEED,
            lambda v, make=make: make([v]).fit(MX, MY).predict(MX),
            (0, 2.5, 2 ** 64 - 1)) for name, make in FOLD_SEEDED.items()),
    *(Owner(f"path-{kind.value}-{axis}", axis, models.ARGUMENTS[kind][axis],
            lambda v, kind=kind, axis=axis: models.train(
                ModelSpec(kind, {axis: v}), MX, MY).predict(MX), PATH_EDGES)
      for kind, axis in models.PATH_AXES.items()),
]
CASES = [(owner, value) for owner in OWNERS for value in COMMON + list(
    owner.edges)]


def _python(value):
    """``value`` as ``check_fields`` reads it: NumPy scalars, and arrays of
    at least one dimension, as Python values, inside lists and tuples too."""
    if isinstance(value, np.generic) or (isinstance(value, np.ndarray)
                                         and value.ndim):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return type(value)(map(_python, value))
    return value


def _holds_numpy(value):
    """A NumPy scalar, or an array of at least one dimension, alone or in a
    list."""
    if isinstance(value, list):
        return any(map(_holds_numpy, value))
    return isinstance(value, np.generic) or (isinstance(value, np.ndarray)
                                             and value.ndim > 0)


def _bits(x):
    """``x`` as a value that compares equal only for the same bits."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, (list, tuple)):
        return tuple(map(_bits, x))
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, _bits(vars(x)))
    return (type(x).__name__, repr(x))


def _outcome(owner, value):
    """("rejected", message) when the owner rejects ``value`` by its range,
    else ("ok", output bits) or ("raised", domain error type and text)."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return "ok", _bits(owner.call(value))
    except owner.error as exc:
        if str(exc).startswith(f"{owner.name} must be "):
            return "rejected", str(exc)
        return "raised", (type(exc).__name__, str(exc))
    except errors.WearbenchError as exc:
        return "raised", (type(exc).__name__, str(exc))


@pytest.mark.parametrize("owner,value", CASES,
                         ids=[f"{o.id}-{v!r}" for o, v in CASES])
def test_owner_rejects_exactly_what_its_range_rejects(owner, value):
    kind, detail = _outcome(owner, value)
    check, what = owner.range_
    if check(_python(value)):
        assert kind != "rejected", detail
    else:
        assert (kind, detail) == (
            "rejected", f"{owner.name} must be {what}, got {_python(value)!r}")


@pytest.mark.parametrize("owner,value", [
    (o, v) for o, v in CASES if _holds_numpy(v)],
    ids=[f"{o.id}-{v!r}" for o, v in CASES if _holds_numpy(v)])
def test_numpy_scalar_gives_the_bits_of_its_python_number(owner, value):
    assert _outcome(owner, value) == _outcome(owner, _python(value))


CONFIG_OWNED = {field: owner.range_ for owner in OWNERS
                for field in owner.config_fields}


@pytest.mark.parametrize("section,field", sorted(
    CONFIG_OWNED, key=lambda k: (k[0] or "", k[1])), ids=str)
def test_config_points_at_the_range_its_owner_checks(section, field):
    ranges = config.TOP_LEVEL_RANGES if section is None \
        else config.RANGES[section]
    assert ranges[field] is CONFIG_OWNED[section, field]


def test_config_declares_only_the_ranges_no_library_function_reads():
    fields = {(None, f) for f in config.TOP_LEVEL_RANGES} | {
        (s, f) for s, ranges in config.RANGES.items() for f in ranges}
    assert fields - set(CONFIG_OWNED) == {
        (None, "data_root"), (None, "manifest"), (None, "out_dir"),
        ("dsp", "bvp_band_hz"), ("features", "eda_clean_hz"),
        ("features", "eda_tonic_hz"), ("features", "acc_lowpass_hz"),
        *(("bench", f) for f in config.RANGES["bench"])}


def test_cohort_duration_edges(tmp_path):
    # generate_cohort checks these before it writes anything; a cohort this
    # long is not generated here
    for duration, ok in ((30.0, True), (604800, True),
                         (np.nextafter(604800.0, 1e6), False),
                         (np.float64(604800.0), True), (1e300, False)):
        values = {"duration_s": duration}
        if ok:
            assert check_fields(values, synth.COHORT_RANGES, InvalidSpec) \
                == {"duration_s": _python(duration)}
        else:
            with pytest.raises(InvalidSpec, match="^duration_s must be"):
                check_fields(values, synth.COHORT_RANGES, InvalidSpec)
            with pytest.raises(InvalidSpec, match="^duration_s must be"):
                synth.generate_cohort(tmp_path / "cohort", _small_cohort(
                    duration_s=duration), 1)
    assert not (tmp_path / "cohort").exists()


def test_large_counts_pass_the_check_alone():
    for count in (10 ** 6, np.int64(10 ** 6)):
        assert check_fields({"n_unipolar": count}, synth.COHORT_RANGES,
                            InvalidSpec) == {"n_unipolar": 10 ** 6}


@pytest.mark.parametrize("events,ok", [
    (((10.0, 0.5),), True), (((10.0, np.float64(0.5)),), True),
    (((10.0, 0.0),), True), (((10.0, -0.5),), False),
    (((10.0, math.nan),), False), (((10.0, math.inf),), False),
    ([[10, 1]], True), ((), True), (((np.int64(10), 0.5),), True),
    # these raised TypeError or ValueError, and a bool passed as 1
    (((10.0, "1"),), False), ((10.0,), False), ((("a", 1.0),), False),
    (((10.0, 1.0, 2.0),), False), (((10.0, True),), False),
    (((True, 1.0),), False), (((math.nan, 0.5),), False),
    ((10.0, 0.5), False), ("ab", False), (None, False)], ids=repr)
def test_scr_event_amplitudes(events, ok):
    spec = _spec(scr_events=events)
    if ok:
        # validate returns the pairs as a tuple of tuples, whatever form
        # they were given in
        assert spec.validate().scr_events == tuple(map(tuple, events))
    else:
        with pytest.raises(InvalidSpec, match="^scr_events must be"):
            spec.validate()


def test_unknown_key_message_names_the_context_only_when_given():
    # without a context it read "unknown None keys: ['a']"
    with pytest.raises(ValueError, match=r"^unknown keys: \['a'\]$"):
        check_fields({"a": 1}, {})
    with pytest.raises(ValueError, match=r"^unknown dsp keys: \['a'\]$"):
        check_fields({"a": 1}, {}, context="dsp")
