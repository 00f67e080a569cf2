import math

import numpy as np
import pytest

from wearbench import actigraphy, eda, hrv, pipeline, synth, thermo
from wearbench.errors import WearbenchError
from wearbench.hrv import HRV_FREQ_NAMES, HRV_TIME_NAMES
from wearbench.mlbench import SubjectFeatures
from wearbench.pipeline import FEATURE_COLUMNS
from wearbench.session_io import ChannelKind, Label


def _alternating_nn() -> hrv.NNSeries:
    """A 90 s NN series alternating between 1000 and 1020 ms."""
    iv = 1000.0 + 20.0 * (np.arange(89) % 2)
    return hrv.NNSeries(iv, np.concatenate([[0.0], np.cumsum(iv)]) / 1000.0)


def _eda_row(session):
    decomp = eda.decompose_eda(session.channel(ChannelKind.EDA))
    return eda.eda_features(decomp, eda.detect_scr(decomp))


# family -> (its row of a session, its column names)
FAMILIES = {
    "hrv_time": (lambda s: hrv.hrv_time_features(_alternating_nn()),
                 HRV_TIME_NAMES),
    "hrv_freq": (lambda s: hrv.hrv_freq_features(_alternating_nn()),
                 HRV_FREQ_NAMES),
    "eda": (_eda_row, eda.EDA_FEATURE_NAMES),
    "acc": (lambda s: actigraphy.acc_features(s.channel(ChannelKind.ACC)),
            actigraphy.ACC_FEATURE_NAMES),
    "temp": (lambda s: thermo.temp_features(s.channel(ChannelKind.TEMP)),
             thermo.TEMP_FEATURE_NAMES),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_row_is_keyed_by_its_names_in_order(family, default_session):
    row_of, names = FAMILIES[family]
    row = row_of(default_session)
    assert tuple(row) == names
    assert all(type(v) is float for v in row.values())


class TestExtractSessionFeatures:
    def test_full_session_yields_59_finite_features(self, default_session):
        feats = pipeline.extract_session_features(default_session)
        assert tuple(feats) == FEATURE_COLUMNS
        assert len(feats) == 59
        assert all(math.isfinite(v) for v in feats.values())

    def test_ground_truth_agreement(self, default_session, default_spec):
        feats = pipeline.extract_session_features(default_session)
        assert feats["TEMP_trend"] == pytest.approx(
            default_spec.temp_trend_c_per_s, abs=1e-9)
        assert feats["ACC_Dominant_frequency"] == pytest.approx(
            default_spec.acc_dominant_freq_hz, abs=32.0 / 9600)
        assert feats["SCR_Onsets"] == len(default_spec.scr_events)
        expected_nn_ms = 60000.0 / default_spec.heart_rate_bpm
        assert feats["HRV_MeanNN"] == pytest.approx(expected_nn_ms, rel=0.02)

    def test_flat_bvp_absents_hrv_family_only(self, make_session):
        session = make_session(bvp=np.zeros(64 * 90))
        with pytest.warns(RuntimeWarning):
            feats = pipeline.extract_session_features(session)
        for name in HRV_TIME_NAMES + HRV_FREQ_NAMES:
            assert math.isnan(feats[name]), name
        assert math.isfinite(feats["TEMP_mean"])
        assert math.isfinite(feats["EDA_Tonic_Mean"])
        assert math.isfinite(feats["ACC_Mean"])

    def test_extraction_never_raises_on_odd_sessions(self, make_session):
        # degenerate but loadable channels must absent-code, not crash
        rng = np.random.default_rng(99)
        cases = [
            dict(bvp=rng.normal(0, 1e-9, 64 * 90)),          # near-flat pulse
            dict(eda=np.full(4 * 90, 0.0)),                   # zero skin level
            dict(acc=np.zeros((32 * 90, 3))),                 # motionless
            dict(temp=np.linspace(20, 45, 4 * 90)),           # wild drift
            dict(bvp=np.sin(np.arange(64 * 90) * 50.0)),      # aliased mess
        ]
        import warnings as _warnings
        for kwargs in cases:
            session = make_session(**kwargs)
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                feats = pipeline.extract_session_features(session)
            assert tuple(feats) == FEATURE_COLUMNS


CSV_HEADER = "subject_id," + ",".join(FEATURE_COLUMNS) + ",label"


def csv_row(subject_id, label="unipolar", **cells):
    """A features.csv row with every cell 1.5 except those in ``cells``."""
    return ",".join([subject_id]
                    + [cells.get(name, "1.5") for name in FEATURE_COLUMNS]
                    + [label])


class TestFeatureCsv:
    def test_round_trip_preserves_values_and_nan(self, tmp_path):
        rows = [
            SubjectFeatures("S001", Label.UNIPOLAR,
                            {name: float(i) for i, name in
                             enumerate(FEATURE_COLUMNS)}),
            SubjectFeatures("S002", Label.BIPOLAR,
                            {name: float("nan") for name in FEATURE_COLUMNS}),
        ]
        path = tmp_path / "features.csv"
        pipeline.write_features_csv(rows, path)
        back = pipeline.read_features_csv(path)
        assert [r.subject_id for r in back] == ["S001", "S002"]
        assert back[0].label is Label.UNIPOLAR
        assert back[1].label is Label.BIPOLAR
        for i, name in enumerate(FEATURE_COLUMNS):
            assert back[0].features[name] == float(i)
            assert math.isnan(back[1].features[name])

    def test_nan_written_as_empty_cell(self, tmp_path):
        rows = [SubjectFeatures("S001", Label.UNIPOLAR,
                                {name: float("nan")
                                 for name in FEATURE_COLUMNS})]
        path = tmp_path / "features.csv"
        pipeline.write_features_csv(rows, path)
        data_line = path.read_text().splitlines()[1]
        assert data_line == "S001," + "," * 58 + ",unipolar"

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        header = "subject_id," + ",".join(FEATURE_COLUMNS) + ",label"
        path.write_text(header + "\nS001,1.0,unipolar\n")
        from wearbench.errors import WearbenchError
        with pytest.raises(WearbenchError):
            pipeline.read_features_csv(path)

    @pytest.mark.parametrize("lines,message", [
        ([], r"features\.csv: expected subject_id \.\.\. label columns"),
        ([csv_row("S001")],
         r"features\.csv: expected subject_id \.\.\. label columns"),
        ([CSV_HEADER, csv_row("S001"), csv_row("S002", TEMP_mean="abc")],
         r"features\.csv:3: TEMP_mean: expected a finite number or an empty "
         r"cell, got 'abc'"),
        ([CSV_HEADER, csv_row("S001", HRV_SDNNI1="inf")],
         r"features\.csv:2: HRV_SDNNI1: .* got 'inf'"),
        ([CSV_HEADER, csv_row("S001", HRV_MeanNN="nan")],
         r"features\.csv:2: HRV_MeanNN: .* got 'nan'"),
        ([CSV_HEADER, csv_row("S001", EDA_Tonic_Mean="1e999")],
         r"features\.csv:2: EDA_Tonic_Mean: .* got '1e999'"),
        ([CSV_HEADER, csv_row("S001"), "", csv_row("S002"),
          csv_row("S001", label="bipolar")],
         r"features\.csv:5: subject_id 'S001' repeats line 2"),
        ([CSV_HEADER, csv_row("S001", label="mixed")],
         r"features\.csv:2: unknown label 'mixed'"),
        (["subject_id,TEMP_mean,TEMP_mean,label", "S001,1,2,unipolar"],
         r"features\.csv:1: column 'TEMP_mean' appears twice"),
        ([CSV_HEADER, csv_row("S001"), csv_row("./S001")],
         r"features\.csv:3: subject_id '\./S001' is not a plain name"),
        ([CSV_HEADER, csv_row("S001", label="bipolar\udcff")],
         r"features\.csv: not UTF-8 text"),
    ], ids=["empty file", "no header", "non-numeric cell", "inf cell",
            "nan cell", "overflowing cell", "repeated subject id",
            "unknown label", "repeated column", "path alias id",
            "not UTF-8"])
    def test_bad_table_rejected(self, tmp_path, lines, message):
        path = tmp_path / "features.csv"
        path.write_bytes("".join(line + "\n" for line in lines).encode(
            "utf-8", "surrogateescape"))
        with pytest.raises(WearbenchError, match=message):
            pipeline.read_features_csv(path)


class TestRunExtract:
    def test_counts_and_orders_follow_manifest(self, tmp_path):
        cohort = synth.CohortSpec(n_unipolar=2, n_bipolar=2, duration_s=70.0)
        manifest = synth.generate_cohort(tmp_path / "data", cohort, 6)
        features_path, validation_path, n_ok = pipeline.run_extract(
            tmp_path / "data", manifest, tmp_path / "out")
        assert n_ok == 4
        rows = pipeline.read_features_csv(features_path)
        assert [r.subject_id for r in rows] == ["S001", "S002", "S003",
                                                "S004"]
        assert [r.label for r in rows] == [Label.UNIPOLAR, Label.UNIPOLAR,
                                           Label.BIPOLAR, Label.BIPOLAR]

    def test_unreadable_session_reported(self, tmp_path):
        cohort = synth.CohortSpec(n_unipolar=2, n_bipolar=2, duration_s=70.0)
        manifest = synth.generate_cohort(tmp_path / "data", cohort, 6)
        (tmp_path / "data" / "S003" / "EDA.csv").unlink()
        features_path, validation_path, n_ok = pipeline.run_extract(
            tmp_path / "data", manifest, tmp_path / "out")
        assert n_ok == 3
        import json
        reports = json.loads(validation_path.read_text())["subjects"]
        by_id = {r["subject_id"]: r for r in reports}
        assert by_id["S003"]["status"] == "excluded"
        assert any("unreadable" in r for r in by_id["S003"]["reasons"])


def test_nan_peak_window_raises_naming_the_argument(default_session):
    # was "cannot convert float NaN to integer"
    from wearbench.config import FeatureConfig
    with pytest.raises(ValueError, match="^rms_window_s must be"):
        pipeline.extract_session_features(
            default_session,
            feat_cfg=FeatureConfig(peak_rms_window_s=math.nan))
