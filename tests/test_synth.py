import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wearbench import cli, dsp, hrv, synth
from wearbench.errors import InvalidSpec
from wearbench.session_io import (
    ChannelKind,
    Label,
    load_manifest,
    validate_session,
    ValidationStatus,
)


def tree_checksum(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _old_bvp_signal(spec, beats):
    """The per-beat loop the vectorised pulse train replaced, before noise."""
    import math
    n = int(round(spec.duration_s * synth.BVP_RATE))
    t = np.arange(n) / synth.BVP_RATE
    signal = np.zeros(n)
    width = 0.45 * 60.0 / spec.heart_rate_bpm
    half = width / 2.0
    for tb in beats:
        lo = max(0, int(math.ceil((tb - half) * synth.BVP_RATE)))
        hi = min(n, int(math.floor((tb + half) * synth.BVP_RATE)) + 1)
        tau = t[lo:hi] - tb
        signal[lo:hi] += np.cos(math.pi * tau / width) ** 2
    return signal


def _cohort_specs(seed, duration_s):
    cohort = synth.CohortSpec(duration_s=duration_s)
    rng = np.random.default_rng(seed)
    return [synth._subject_spec(rng, cohort, label)
            for label in [Label.UNIPOLAR] * 3 + [Label.BIPOLAR] * 3]


class TestBvpPulseTrain:
    @pytest.mark.parametrize("spec", _cohort_specs(11, 300.0)
                             + _cohort_specs(12, 61.0)
                             + [synth.SynthSpec(seed=3, duration_s=60.0,
                                                heart_rate_bpm=60.0,
                                                hrv_mod_depth_ms=0.0)])
    def test_matches_per_beat_loop(self, spec):
        beats = synth._beat_times(spec)
        noise = np.random.default_rng(spec.seed).normal(
            0.0, synth.BVP_NOISE, int(round(spec.duration_s * synth.BVP_RATE)))
        bvp = synth._bvp_channel(spec, beats, np.random.default_rng(spec.seed),
                                 0)
        assert np.array_equal(bvp.samples, _old_bvp_signal(spec, beats) + noise)

    def test_overlapping_bumps_add_in_beat_order(self):
        # depth above 0.55 periods pulls neighbouring beats closer than the
        # 0.45-period bump width; above 0.775 periods some samples take
        # three bumps, where the order of the sums shows in the last bit
        spec = synth.SynthSpec(seed=8, duration_s=120.0, heart_rate_bpm=75.0,
                               hrv_mod_freq_hz=0.05, hrv_mod_depth_ms=700.0)
        beats = synth._beat_times(spec)
        width = 0.45 * 60.0 / spec.heart_rate_bpm
        assert (beats[2:] - beats[:-2] < width).any()
        bvp = synth._bvp_channel(spec, beats, np.random.default_rng(1), 0)
        noise = np.random.default_rng(1).normal(0.0, synth.BVP_NOISE,
                                                bvp.n_samples)
        assert np.array_equal(bvp.samples, _old_bvp_signal(spec, beats) + noise)


class TestGenerateSession:
    def test_deterministic(self):
        spec = synth.SynthSpec(seed=7, duration_s=70.0)
        a = synth.generate_session(spec)
        b = synth.generate_session(spec)
        for kind in ChannelKind:
            assert np.array_equal(a.channels[kind].samples,
                                  b.channels[kind].samples)

    def test_rates_and_shapes(self):
        session = synth.generate_session(
            synth.SynthSpec(seed=1, duration_s=70.0))
        assert session.channel(ChannelKind.BVP).sample_rate == 64.0
        assert session.channel(ChannelKind.EDA).sample_rate == 4.0
        assert session.channel(ChannelKind.ACC).sample_rate == 32.0
        assert session.channel(ChannelKind.TEMP).sample_rate == 4.0
        assert session.channel(ChannelKind.ACC).samples.shape == (2240, 3)

    def test_downstream_peak_count(self):
        spec = synth.SynthSpec(seed=3, duration_s=60.0, heart_rate_bpm=60.0,
                               hrv_mod_depth_ms=0.0)
        bvp = synth.generate_session(spec).channel(ChannelKind.BVP)
        band = dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS,
                                      (0.7, 3.5), 64.0)
        filtered = dataclasses.replace(
            bvp, samples=dsp.filtfilt(band, dsp.detrend(bvp.samples, 500.0)))
        peaks = hrv.detect_pulse_peaks(filtered)
        assert abs(len(peaks) - 60) <= 2
        assert abs(len(peaks) - len(synth._beat_times(spec))) <= 2

    def test_inactivity_recovery(self):
        # half the session is rest; with a threshold sitting between rest
        # noise and motion amplitude the counted time matches the spec'd
        # fraction
        import dataclasses as dc
        from wearbench import actigraphy
        spec = synth.SynthSpec(seed=4, duration_s=20.0,
                               acc_inactive_fraction=0.5)
        acc = synth.generate_session(spec).channel(ChannelKind.ACC)
        design = dsp.design_butterworth(5, dsp.FilterKind.LOW_PASS, (10.0,),
                                        acc.sample_rate)
        filtered = np.stack(
            [dsp.filtfilt(design, acc.samples[:, i]) for i in range(3)],
            axis=1)
        feats = actigraphy.acc_features(
            dc.replace(acc, samples=filtered), inactivity_threshold=0.12)
        assert abs(feats["ACC_Inactivity_time"] - 10.0) <= 0.5

    def test_temp_is_exact_line_by_default(self):
        spec = synth.SynthSpec(seed=2, duration_s=70.0, temp_baseline_c=35.8,
                               temp_trend_c_per_s=0.002)
        temp = synth.generate_session(spec).channel(ChannelKind.TEMP)
        t = np.arange(temp.n_samples) / 4.0
        assert np.allclose(temp.samples, 35.8 + 0.002 * t, atol=1e-12)

    def test_validates_under_default_policy(self):
        for seed in range(5):
            session = synth.generate_session(
                synth.SynthSpec(seed=seed, duration_s=65.0))
            report = validate_session(session)
            assert report.status is ValidationStatus.OK, report.reasons

    @pytest.mark.parametrize("events", [
        [[10, 1.5]], ((10, 1.5),), [(10.0, 1.5)], np.array([[10.0, 1.5]]),
    ], ids=["lists", "tuples", "mixed", "array"])
    def test_scr_events_validate_to_a_tuple_of_pairs(self, events):
        spec = synth.SynthSpec(seed=1, duration_s=60.0, scr_events=events)
        expect = synth.SynthSpec(seed=1, duration_s=60.0,
                                 scr_events=((10.0, 1.5),))
        valid = spec.validate()
        assert type(valid.scr_events) is tuple
        assert all(type(pair) is tuple for pair in valid.scr_events)
        assert valid == expect.validate()
        assert hash(valid) == hash(expect.validate())
        got, want = synth.generate_session(spec), synth.generate_session(expect)
        for kind in ChannelKind:
            assert got.channels[kind].samples.tobytes() \
                == want.channels[kind].samples.tobytes()

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            synth.generate_session(synth.SynthSpec(seed=1, duration_s=0.0))
        with pytest.raises(InvalidSpec):
            synth.generate_session(
                synth.SynthSpec(seed=1, acc_inactive_fraction=1.5))
        with pytest.raises(InvalidSpec):
            synth.generate_session(
                synth.SynthSpec(seed=1, scr_events=((500.0, 0.5),),
                                duration_s=100.0))

    @pytest.mark.parametrize("field,value", [
        *((f.name, v) for f in dataclasses.fields(synth.SynthSpec)
          if type(f.default) is float
          for v in (math.nan, math.inf, -math.inf)),
        ("scr_events", ((math.nan, 0.5),)), ("scr_events", ((10.0, math.nan),)),
        ("scr_events", ((math.inf, 0.5),)), ("scr_events", ((10.0, math.inf),)),
    ], ids=repr)
    def test_non_finite_parameter_raises_naming_it(self, field, value):
        # validate() only: generate_session on a NaN duration or HRV
        # frequency would append beats forever
        spec = dataclasses.replace(synth.SynthSpec(seed=1, duration_s=60.0),
                                   **{field: value})
        with pytest.raises(InvalidSpec, match=field):
            spec.validate()


class TestGenerateCohort:
    def test_writes_manifest_with_31_rows(self, tmp_path):
        cohort = synth.CohortSpec(n_unipolar=13, n_bipolar=18, duration_s=61.0)
        manifest = synth.generate_cohort(tmp_path / "data", cohort, 5)
        entries = load_manifest(manifest)
        assert len(entries) == 31
        labels = [label for _, label in entries]
        assert labels.count(Label.UNIPOLAR) == 13
        assert labels.count(Label.BIPOLAR) == 18

    def test_identical_tree_for_identical_seed(self, tmp_path):
        cohort = synth.CohortSpec(n_unipolar=2, n_bipolar=2, duration_s=61.0)
        synth.generate_cohort(tmp_path / "a", cohort, 9)
        synth.generate_cohort(tmp_path / "b", cohort, 9)
        assert tree_checksum(tmp_path / "a") == tree_checksum(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        cohort = synth.CohortSpec(n_unipolar=2, n_bipolar=2, duration_s=61.0)
        synth.generate_cohort(tmp_path / "a", cohort, 1)
        synth.generate_cohort(tmp_path / "b", cohort, 2)
        assert tree_checksum(tmp_path / "a") != tree_checksum(tmp_path / "b")

    def test_session_layout_on_disk(self, tmp_path):
        cohort = synth.CohortSpec(n_unipolar=1, n_bipolar=1, duration_s=61.0)
        synth.generate_cohort(tmp_path / "data", cohort, 3)
        for sid in ("S001", "S002"):
            for name in ("BVP.csv", "EDA.csv", "ACC.csv", "TEMP.csv"):
                assert (tmp_path / "data" / sid / name).is_file()

    def test_minimum_class_size(self, tmp_path):
        with pytest.raises(InvalidSpec):
            synth.generate_cohort(tmp_path / "x", synth.CohortSpec(
                n_unipolar=0, n_bipolar=2), 0)

    def test_large_freq_offset_separates_for_knn(self, tmp_path):
        # constructed separability: ~1 Hz vs ~3 Hz dominant ACC frequency
        from wearbench import mlbench, pipeline
        from wearbench.models import ModelKind
        cohort = synth.CohortSpec(duration_s=120.0,
                                  offset_acc_dominant_freq_hz=2.0)
        manifest = synth.generate_cohort(tmp_path / "data", cohort, 51)
        features_path, _, _ = pipeline.run_extract(
            tmp_path / "data", manifest, tmp_path / "out")
        matrix = mlbench.assemble_matrix(
            pipeline.read_features_csv(features_path), "acc")
        report = mlbench.loocv_grid_search(
            matrix, ModelKind.KNN, mlbench.default_grids()[ModelKind.KNN],
            seed=51, selector="acc")
        assert report["metrics"]["accuracy"] >= 90.0

    def test_zero_offset_classes_indistinguishable(self, tmp_path):
        # same draw distributions for both classes: kNN stays near chance
        from wearbench import mlbench, pipeline
        from wearbench.models import ModelKind
        cohort = synth.CohortSpec(duration_s=70.0)
        manifest = synth.generate_cohort(tmp_path / "data", cohort, 104)
        features_path, _, _ = pipeline.run_extract(
            tmp_path / "data", manifest, tmp_path / "out")
        matrix = mlbench.assemble_matrix(
            pipeline.read_features_csv(features_path), "acc")
        report = mlbench.loocv_grid_search(matrix, ModelKind.KNN, [{"k": 5}],
                                           seed=104, selector="acc")
        assert 20.0 <= report["metrics"]["accuracy"] <= 80.0


# offset -> (value, the SynthSpec field it moves, the file that carries it)
OFFSETS = {
    "offset_acc_dominant_freq_hz": (2.0, "acc_dominant_freq_hz", "ACC.csv"),
    "offset_temp_trend_c_per_s": (0.002, "temp_trend_c_per_s", "TEMP.csv"),
    "offset_heart_rate_bpm": (10.0, "heart_rate_bpm", "BVP.csv"),
    "offset_scr_amplitude_us": (0.3, "scr_events", "EDA.csv"),
    "offset_acc_inactive_fraction": (0.2, "acc_inactive_fraction", "ACC.csv"),
}


def _synth_through_cli(root: Path, synth_section: dict) -> Path:
    """A seed-3, 2 + 2 subject x 61 s cohort from ``cli synth``, with the
    config file's ``synth`` section set to ``synth_section``."""
    config = root / "config.json"
    config.write_text(json.dumps({"synth": synth_section}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(config), "--out", str(root / "data"),
                         "--seed", "3", "synth", "--n-unipolar", "2",
                         "--n-bipolar", "2", "--duration", "61"])
    assert code == 0
    return root / "data"


@pytest.fixture(scope="module")
def zero_offset_cohort(tmp_path_factory):
    return _synth_through_cli(tmp_path_factory.mktemp("zero-offsets"), {})


class TestCohortOffsets:
    @pytest.mark.parametrize("name", OFFSETS)
    def test_config_offset_moves_only_the_bipolar_class(
            self, name, tmp_path, zero_offset_cohort):
        value, _, channel = OFFSETS[name]
        data = _synth_through_cli(tmp_path, {name: value})
        for sid in ("S001", "S002"):  # unipolar
            assert tree_checksum(data / sid) == \
                tree_checksum(zero_offset_cohort / sid)
        for sid in ("S003", "S004"):  # bipolar
            assert (data / sid / channel).read_bytes() != \
                (zero_offset_cohort / sid / channel).read_bytes()

    @pytest.mark.parametrize("name", OFFSETS)
    def test_bipolar_field_moves_by_exactly_the_offset(self, name):
        value, field, _ = OFFSETS[name]
        for label in Label:
            base, moved = (
                synth._subject_spec(np.random.default_rng(8), cohort, label)
                for cohort in (synth.CohortSpec(),
                               synth.CohortSpec(**{name: value})))
            if label is Label.UNIPOLAR:
                assert moved == base
                continue
            if field == "scr_events":
                want = tuple((t, a + value) for t, a in base.scr_events)
            else:
                want = getattr(base, field) + value
            assert getattr(moved, field) == want
            # every other draw comes from the same stream
            assert dataclasses.replace(
                moved, **{field: getattr(base, field)}) == base

    @pytest.mark.parametrize("value,want", [(5.0, 0.9), (-5.0, 0.0)])
    def test_inactive_fraction_is_clamped(self, value, want):
        spec = synth._subject_spec(
            np.random.default_rng(8),
            synth.CohortSpec(offset_acc_inactive_fraction=value),
            Label.BIPOLAR)
        assert spec.acc_inactive_fraction == want


class TestSeedAndCountRanges:
    def test_fractional_count_raises_before_writing(self, tmp_path):
        # was TypeError: can't multiply sequence by non-int of type 'float'
        cohort = synth.CohortSpec(n_unipolar=2.5, n_bipolar=2, duration_s=30.0)
        with pytest.raises(InvalidSpec, match="^n_unipolar must be"):
            synth.generate_cohort(tmp_path, cohort, 1)
        assert not any(tmp_path.iterdir())

    def test_negative_cohort_seed_raises(self, tmp_path):
        # was NumPy's "expected non-negative integer"
        cohort = synth.CohortSpec(n_unipolar=1, n_bipolar=1, duration_s=30.0)
        with pytest.raises(InvalidSpec, match="^seed must be an integer >= 0"):
            synth.generate_cohort(tmp_path, cohort, -1)

    def test_negative_session_seed_raises(self):
        with pytest.raises(InvalidSpec, match="^seed must be an integer >= 0"):
            synth.SynthSpec(seed=-1).validate()
