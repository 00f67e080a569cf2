import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfbench import gate
from wearbench import cli, hrv, pipeline, synth
from wearbench.actigraphy import ACC_FEATURE_NAMES
from wearbench.mlbench import SubjectFeatures
from wearbench.session_io import Label


def run(*argv) -> int:
    return cli.main(list(argv))


def set_cell(lines, row, name, value):
    cells = [line.split(",") for line in lines]
    cells[row][cells[0].index(name)] = value
    return [",".join(c) for c in cells]


def drop_columns(lines, names):
    cells = [line.split(",") for line in lines]
    keep = [j for j, name in enumerate(cells[0]) if name not in names]
    return [",".join(c[j] for j in keep) for c in cells]


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    """A 3+3 synthetic cohort with extraction output, shared read-only."""
    root = tmp_path_factory.mktemp("cohort")
    code = run("--out", str(root / "data"), "--seed", "5", "synth",
               "--n-unipolar", "3", "--n-bipolar", "3", "--duration", "70")
    assert code == 0
    code = run("--data-root", str(root / "data"),
               "--manifest", str(root / "data" / "manifest.csv"),
               "--out", str(root / "out"), "extract")
    assert code == 0
    return root


class TestSynthCommand:
    def test_default_writes_manifest(self, tmp_path, capsys):
        code = run("--out", str(tmp_path / "d"), "--seed", "1", "synth",
                   "--n-unipolar", "2", "--n-bipolar", "2",
                   "--duration", "61")
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.csv")
        assert Path(printed).is_file()

    def test_deterministic_tree(self, tmp_path):
        for sub in ("a", "b"):
            assert run("--out", str(tmp_path / sub), "--seed", "9", "synth",
                       "--n-unipolar", "2", "--n-bipolar", "2",
                       "--duration", "61") == 0

        def checksum(root):
            digest = hashlib.sha256()
            for path in sorted(Path(root).rglob("*")):
                if path.is_file():
                    digest.update(path.relative_to(root).as_posix().encode())
                    digest.update(path.read_bytes())
            return digest.hexdigest()

        assert checksum(tmp_path / "a") == checksum(tmp_path / "b")

    def test_unwritable_out_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = run("--out", str(blocker / "sub"), "synth",
                   "--n-unipolar", "1", "--n-bipolar", "1",
                   "--duration", "61")
        assert code == 3

    def test_invalid_cohort_is_config_error(self, tmp_path):
        code = run("--out", str(tmp_path / "d"), "synth",
                   "--n-unipolar", "0", "--n-bipolar", "2")
        assert code == 2

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_flag_exits_2(self, duration, tmp_path,
                                              capsys):
        out = tmp_path / "d"
        code = run("--out", str(out), "synth", "--n-unipolar", "1",
                   "--n-bipolar", "1", "--duration", duration)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "synth.duration_s" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["12", "29.9", "1e12", "604801"])
    def test_duration_outside_cohort_range_exits_2(self, duration, tmp_path,
                                                   capsys):
        # 12 s could place an SCR onset outside the session, and 1e12 s
        # would loop over about 1.2e12 beats
        out = tmp_path / "d"
        code = run("--out", str(out), "synth", "--n-unipolar", "1",
                   "--n-bipolar", "1", "--duration", duration)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "configuration error: synth.duration_s must be a number in "
            f"[30, 604800], got {float(duration)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    def test_negative_seed_exits_2(self, source, tmp_path, capsys,
                                   monkeypatch):
        out = tmp_path / "d"
        argv = ["--out", str(out)]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("WEARBENCH_SEED", "-1")
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(cfg_path)]
        code = run(*argv, "synth", "--n-unipolar", "1", "--n-bipolar", "1",
                   "--duration", "61")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "config.seed" in captured.err
        assert not out.exists()


# one out-of-range grid value per model and key, with the stderr line the
# CLI printed for it before the ranges moved into models.HYPERPARAMETERS
GRID_VALUE_ERRORS = [
    ("knn", "k", 0, "knn.k must be an integer >= 1, got 0"),
    ("dt", "max_depth", 0,
     "dt.max_depth must be null or an integer >= 1, got 0"),
    ("dt", "min_samples_leaf", 0,
     "dt.min_samples_leaf must be an integer >= 1, got 0"),
    ("rf", "n_estimators", 0, "rf.n_estimators must be an integer >= 1, got 0"),
    ("rf", "max_depth", -1,
     "rf.max_depth must be null or an integer >= 1, got -1"),
    ("rf", "min_samples_leaf", 0,
     "rf.min_samples_leaf must be an integer >= 1, got 0"),
    ("gb", "n_estimators", -3,
     "gb.n_estimators must be an integer >= 1, got -3"),
    ("gb", "learning_rate", math.nan,
     "gb.learning_rate must be a positive number, got nan"),
    ("gb", "max_depth", None, "gb.max_depth must be an integer >= 1, got None"),
    ("svm", "kernel", "poly",
     "svm.kernel must be \"linear\" or \"rbf\", got 'poly'"),
    ("svm", "c", "1.0", "svm.c must be a positive number, got '1.0'"),
    ("svm", "gamma", 0.0, "svm.gamma must be a positive number, got 0.0"),
    ("mlp", "hidden", 0, "mlp.hidden must be an integer >= 1, got 0"),
    ("mlp", "learning_rate", -1.0,
     "mlp.learning_rate must be a positive number, got -1.0"),
    ("mlp", "epochs", 2.5, "mlp.epochs must be an integer >= 1, got 2.5"),
]


@pytest.mark.parametrize("model,key,value,line", GRID_VALUE_ERRORS,
                         ids=[f"{m}-{k}" for m, k, *_ in GRID_VALUE_ERRORS])
def test_out_of_range_grid_value_exits_2_with_one_line(model, key, value,
                                                       line, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bench": {"grids": {model: [{key: value}]}}}))
    code = run("--config", str(cfg_path), "--print-config")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"configuration error: bench.grids.{line}\n"


# one out-of-range value per section field and top-level field, with the
# stderr line the CLI printed for it before each range moved next to the
# function that reads the value
FIELD_VALUE_ERRORS = [
    (None, "data_root", 1,
     "config.data_root must be null or a string, got 1"),
    (None, "manifest", 1,
     "config.manifest must be null or a string, got 1"),
    (None, "out_dir", [],
     "config.out_dir must be null or a string, got []"),
    (None, "seed", -1,
     "config.seed must be an integer >= 0, got -1"),
    ("dsp", "detrend_lambda", 0,
     "dsp.detrend_lambda must be a positive number <= 1e+06, got 0"),
    ("dsp", "bvp_band_hz", [2.0, 1.0],
     "dsp.bvp_band_hz must be [low, high] with 0 < low < high, got [2.0, "
     "1.0]"),
    ("dsp", "bvp_filter_order", 0,
     "dsp.bvp_filter_order must be an integer >= 1, got 0"),
    ("dsp", "welch_overlap", 1.0,
     "dsp.welch_overlap must be a number in [0, 1), got 1.0"),
    ("dsp", "nn_interp_rate_hz", 0.8,
     "dsp.nn_interp_rate_hz must be a number above 0.8 and at most 64, got "
     "0.8"),
    ("features", "peak_threshold_scale", math.nan,
     "features.peak_threshold_scale must be a positive number, got nan"),
    ("features", "peak_rms_window_s", 0,
     "features.peak_rms_window_s must be a positive number, got 0"),
    ("features", "peak_refractory_s", -1.0,
     "features.peak_refractory_s must be a positive number, got -1.0"),
    ("features", "eda_clean_hz", "1",
     "features.eda_clean_hz must be a positive number, got '1'"),
    ("features", "eda_tonic_hz", True,
     "features.eda_tonic_hz must be a positive number, got True"),
    ("features", "scr_min_amplitude", -0.5,
     "features.scr_min_amplitude must be a finite number >= 0, got -0.5"),
    ("features", "acc_lowpass_hz", math.inf,
     "features.acc_lowpass_hz must be a positive number, got inf"),
    ("features", "acc_lowpass_order", 2.5,
     "features.acc_lowpass_order must be an integer >= 1, got 2.5"),
    ("features", "acc_inactivity_threshold", math.nan,
     "features.acc_inactivity_threshold must be a finite number >= 0, got "
     "nan"),
    ("validation", "min_duration_seconds", "60",
     "validation.min_duration_seconds must be a positive number, got '60'"),
    ("validation", "max_duration_skew_seconds", -1,
     "validation.max_duration_skew_seconds must be a finite number >= 0, got "
     "-1"),
    ("synth", "n_unipolar", 0,
     "synth.n_unipolar must be an integer >= 1, got 0"),
    ("synth", "n_bipolar", 2.5,
     "synth.n_bipolar must be an integer >= 1, got 2.5"),
    ("synth", "duration_s", 29,
     "synth.duration_s must be a number in [30, 604800], got 29"),
    ("synth", "offset_acc_dominant_freq_hz", math.nan,
     "synth.offset_acc_dominant_freq_hz must be a finite number, got nan"),
    ("synth", "offset_temp_trend_c_per_s", math.inf,
     "synth.offset_temp_trend_c_per_s must be a finite number, got inf"),
    ("synth", "offset_heart_rate_bpm", "0",
     "synth.offset_heart_rate_bpm must be a finite number, got '0'"),
    ("synth", "offset_scr_amplitude_us", True,
     "synth.offset_scr_amplitude_us must be a finite number, got True"),
    ("synth", "offset_acc_inactive_fraction", -math.inf,
     "synth.offset_acc_inactive_fraction must be a finite number, got -inf"),
    ("bench", "models", [],
     "bench.models must be a non-empty list of distinct values from knn, dt, "
     "rf, gb, svm, mlp, got []"),
    ("bench", "selectors", ["x"],
     "bench.selectors must be a non-empty list of distinct values from "
     "hrv_time, hrv_freq, eda, acc, temp, all, got ['x']"),
    ("bench", "positive_class", "both",
     'bench.positive_class must be "unipolar" or "bipolar", got \'both\''),
    ("bench", "grids", [],
     "bench.grids must be an object of model grids, got []"),
]


@pytest.mark.parametrize("section,key,value,line", FIELD_VALUE_ERRORS,
                         ids=[f"{s}-{k}" for s, k, *_ in FIELD_VALUE_ERRORS])
def test_out_of_range_field_exits_2_with_one_line(section, key, value, line,
                                                  tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    data = {key: value} if section is None else {section: {key: value}}
    cfg_path.write_text(json.dumps(data))
    code = run("--config", str(cfg_path), "--print-config")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"configuration error: {line}\n"


class TestExtractCommand:
    def test_outputs_exist_with_59_columns(self, small_cohort):
        features = small_cohort / "out" / "features.csv"
        header = features.read_text().splitlines()[0].split(",")
        assert header[0] == "subject_id"
        assert header[-1] == "label"
        assert len(header) == 61
        validation = json.loads(
            (small_cohort / "out" / "validation.json").read_text())
        assert len(validation["subjects"]) == 6

    def test_rerun_is_byte_identical(self, small_cohort, tmp_path):
        before = (small_cohort / "out" / "features.csv").read_bytes()
        code = run("--data-root", str(small_cohort / "data"),
                   "--manifest", str(small_cohort / "data" / "manifest.csv"),
                   "--out", str(tmp_path / "out2"), "extract")
        assert code == 0
        after = (tmp_path / "out2" / "features.csv").read_bytes()
        assert before == after

    def test_corrupt_session_excluded_but_listed(self, tmp_path):
        data = tmp_path / "data"
        cohort = synth.CohortSpec(n_unipolar=2, n_bipolar=2, duration_s=70.0)
        synth.generate_cohort(data, cohort, 3)
        # corrupt one subject: constant BVP
        bvp = data / "S002" / "BVP.csv"
        lines = bvp.read_text().splitlines()
        body = ["0.000000"] * (len(lines) - 2)
        bvp.write_text("\n".join(lines[:2] + body) + "\n")
        code = run("--data-root", str(data),
                   "--manifest", str(data / "manifest.csv"),
                   "--out", str(tmp_path / "out"), "extract")
        assert code == 0
        rows = pipeline.read_features_csv(tmp_path / "out" / "features.csv")
        assert [r.subject_id for r in rows] == ["S001", "S003", "S004"]
        validation = json.loads(
            (tmp_path / "out" / "validation.json").read_text())
        excluded = {s["subject_id"]: s for s in validation["subjects"]
                    if s["status"] == "excluded"}
        assert "S002" in excluded
        assert any("constant BVP" in r for r in excluded["S002"]["reasons"])

    def test_16hz_acc_header_empties_only_that_acc_family(self, small_cohort,
                                                          tmp_path):
        data = tmp_path / "data"
        shutil.copytree(small_cohort / "data", data)
        # every other row at half the rate: same duration, Nyquist 8 Hz,
        # below the 10 Hz ACC low-pass cutoff
        acc = data / "S002" / "ACC.csv"
        lines = acc.read_text().splitlines()
        acc.write_text("\n".join([lines[0], "16.000000,16.000000,16.000000"]
                                 + lines[2::2]) + "\n")
        with pytest.warns(RuntimeWarning,
                          match="S002: ACC features unavailable"):
            code = run("--data-root", str(data),
                       "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "out"), "extract")
        assert code == 0
        before = (small_cohort / "out" / "features.csv").read_text()
        after = (tmp_path / "out" / "features.csv").read_text()
        before, after = before.splitlines(), after.splitlines()
        assert len(after) == len(before) == 7
        header = after[0].split(",")
        acc_columns = {header.index(name) for name in ACC_FEATURE_NAMES}
        assert len(acc_columns) == 10
        for old, new in zip(before, after):
            if not new.startswith("S002,"):
                assert new == old
                continue
            old, new = old.split(","), new.split(",")
            for i, (o, n) in enumerate(zip(old, new)):
                assert n == ("" if i in acc_columns else o), header[i]

    def test_all_excluded_gives_exit_4(self, tmp_path):
        data = tmp_path / "data"
        synth.generate_cohort(data, synth.CohortSpec(
            n_unipolar=1, n_bipolar=1, duration_s=30.0), 4)
        code = run("--data-root", str(data),
                   "--manifest", str(data / "manifest.csv"),
                   "--out", str(tmp_path / "out"), "extract")
        assert code == 4

    def test_missing_settings_is_config_error(self):
        assert run("extract") == 2

    @pytest.mark.parametrize("command", ["validate", "extract"])
    def test_all_excluded_prints_one_stderr_line(self, tmp_path, capsys,
                                                 command):
        data = tmp_path / "data"
        synth.generate_cohort(data, synth.CohortSpec(
            n_unipolar=1, n_bipolar=1, duration_s=30.0), 4)
        capsys.readouterr()
        code = run("--data-root", str(data),
                   "--manifest", str(data / "manifest.csv"),
                   "--out", str(tmp_path / "out"), command)
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "no session passes validation"]

    @pytest.mark.parametrize("extra,message", [
        (b"S001,unipolar\xff\n", r"manifest\.csv: not UTF-8 text"),
        (b"\nS009,mixed\n", r"manifest\.csv:9: unknown label 'mixed'$"),
        (b"./S002,unipolar\n",
         r"manifest\.csv:8: subject_id '\./S002' is not a plain name"),
        (b"S004/,bipolar\n",
         r"manifest\.csv:8: subject_id 'S004/' is not a plain name"),
    ], ids=["not UTF-8", "unknown label", "dot-slash alias",
            "trailing-slash alias"])
    @pytest.mark.parametrize("command", ["validate", "extract"])
    def test_bad_manifest_exits_2(self, small_cohort, tmp_path, capsys,
                                  command, extra, message):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(
            (small_cohort / "data" / "manifest.csv").read_bytes() + extra)
        code = run("--data-root", str(small_cohort / "data"),
                   "--manifest", str(manifest),
                   "--out", str(tmp_path / "out"), command)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and re.search(message, err[0]), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,code", [
        ({"dsp": {"detrend_lambda": 1e8}}, 2),
        ({"dsp": {"detrend_lambda": 1e100}}, 2),
        ({"dsp": {"detrend_lambda": 1e6}}, 0),
        ({"dsp": {"bvp_band_hz": [1e-9, 2e-9]}}, 0),
        ({"dsp": {"bvp_band_hz": [1e-300, 2e-300]}}, 0),
        ({"features": {"peak_rms_window_s": 1e300}}, 0),
        ({"features": {"peak_refractory_s": 1.7e308}}, 0),
        ({"dsp": {"nn_interp_rate_hz": 1e300}}, 2),
        ({"dsp": {"nn_interp_rate_hz": 1e5}}, 2),
        ({"dsp": {"nn_interp_rate_hz": 0.5}}, 2),
        ({"dsp": {"nn_interp_rate_hz": 0.8}}, 2),
        ({"dsp": {"nn_interp_rate_hz": 64.0}}, 0),
    ], ids=["lambda 1e8", "lambda 1e100", "lambda 1e6", "band 1e-9 Hz",
            "band 1e-300 Hz", "rms window 1e300 s", "refractory 1.7e308 s",
            "interp rate 1e300 Hz", "interp rate 1e5 Hz",
            "interp rate 0.5 Hz", "interp rate 0.8 Hz", "interp rate 64 Hz"])
    def test_extreme_config_value_exits_cleanly(self, small_cohort, tmp_path,
                                                capsys, config, code):
        # a range's extremes give exit 2 with one line, or a table whose
        # HRV family may fall back to NaN with its warning
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        data = small_cohort / "data"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "S00.: HRV features unavailable",
                                    RuntimeWarning)
            assert run("--config", str(cfg_path), "--data-root", str(data),
                       "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "out"), "extract") == code
        err = capsys.readouterr().err.splitlines()
        if code == 2:
            (section, values), = config.items()
            field = f"{section}.{next(iter(values))}"
            assert len(err) == 1 and field in err[0], err
        else:
            rows = pipeline.read_features_csv(
                tmp_path / "out" / "features.csv")
            assert len(rows) == 6

    @pytest.mark.parametrize("channel", ["BVP", "EDA", "ACC", "TEMP"])
    def test_huge_finite_samples_exclude_their_subject(
            self, small_cohort, tmp_path, channel):
        # finite, so they parse, but their features would overflow
        data = tmp_path / "data"
        shutil.copytree(small_cohort / "data", data)
        path = data / "S002" / f"{channel}.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [
            ",".join(repr(float(v) * 1e160) for v in line.split(","))
            for line in lines[2:]]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("--data-root", str(data),
                       "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "out"), "extract")
        assert code == 0
        rows = pipeline.read_features_csv(tmp_path / "out" / "features.csv")
        assert [r.subject_id for r in rows] == ["S001", "S003", "S004",
                                                "S005", "S006"]
        validation = json.loads(
            (tmp_path / "out" / "validation.json").read_text())
        reasons = {s["subject_id"]: s["reasons"]
                   for s in validation["subjects"]}
        assert [r.split(":")[0] for r in reasons["S002"]] == [channel]
        assert "exceeds 1e+50" in reasons["S002"][0]

    def test_non_utf8_channel_excludes_only_that_subject(
            self, small_cohort, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(small_cohort / "data", data)
        with open(data / "S001" / "TEMP.csv", "ab") as handle:
            handle.write(b"\xff\n")
        code = run("--data-root", str(data),
                   "--manifest", str(data / "manifest.csv"),
                   "--out", str(tmp_path / "out"), "validate")
        assert code == 0
        assert "5/6 sessions pass validation" in capsys.readouterr().out
        text = (tmp_path / "out" / "validation.json").read_text()
        assert str(tmp_path) not in text
        subjects = json.loads(text)["subjects"]
        assert len(subjects[0]["reasons"]) == 1
        assert subjects[0]["reasons"][0].startswith(
            "unreadable session: S001: TEMP.csv: not UTF-8 text")
        assert all(s["status"] == "ok" for s in subjects[1:])

    def test_band_rounding_a_pole_past_nyquist_empties_only_hrv(
            self, tmp_path):
        # the upper edge sits 2.3e-10 Hz below the 32 Hz BVP Nyquist; its
        # design rounds four sections onto or past z = -1
        data = tmp_path / "data"
        assert run("--out", str(data), "--seed", "3", "synth",
                   "--n-unipolar", "2", "--n-bipolar", "2",
                   "--duration", "60") == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dsp": {
            "bvp_filter_order": 8,
            "bvp_band_hz": [15.999999999887727, 31.999999999775454]}}))
        args = ("--data-root", str(data),
                "--manifest", str(data / "manifest.csv"))
        assert run(*args, "--out", str(tmp_path / "default"), "extract") == 0
        with pytest.warns(RuntimeWarning) as caught:
            assert run("--config", str(cfg), *args,
                       "--out", str(tmp_path / "out"), "extract") == 0
        refusals = [str(w.message) for w in caught
                    if "HRV features unavailable" in str(w.message)]
        assert len(refusals) == 4
        assert all("too close to Nyquist" in m for m in refusals)
        before = (tmp_path / "default" / "features.csv").read_text()
        after = (tmp_path / "out" / "features.csv").read_text()
        before, after = before.splitlines(), after.splitlines()
        header = after[0].split(",")
        assert len(after) == len(before) == 5 and after[0] == before[0]
        hrv_columns = {header.index(name)
                       for name in hrv.HRV_TIME_NAMES + hrv.HRV_FREQ_NAMES}
        assert len(hrv_columns) == 32
        for old, new in zip(before[1:], after[1:]):
            for i, (o, n) in enumerate(zip(old.split(","), new.split(","))):
                assert n == ("" if i in hrv_columns else o), header[i]


class TestValidateCommand:
    def test_validate_writes_report(self, small_cohort, tmp_path, capsys):
        code = run("--data-root", str(small_cohort / "data"),
                   "--manifest", str(small_cohort / "data" / "manifest.csv"),
                   "--out", str(tmp_path / "v"), "validate")
        assert code == 0
        text = capsys.readouterr().out
        assert "6/6 sessions pass validation" in text


class TestBenchCommand:
    def test_bench_writes_reports_and_table(self, small_cohort):
        code = run("--out", str(small_cohort / "out"), "--seed", "5",
                   "bench", "--features", "temp,acc", "--models", "knn,dt")
        assert code == 0
        for selector in ("temp", "acc"):
            table = small_cohort / "out" / f"bench_{selector}.md"
            assert table.is_file()
            lines = table.read_text().splitlines()
            assert lines[0] == \
                "| Method | Accuracy | Precision | Recall | F1 Score |"
            assert len(lines) == 4  # header, rule, two model rows
            for model in ("knn", "dt"):
                report = json.loads(
                    (small_cohort / "out"
                     / f"bench_{selector}_{model}.json").read_text())
                assert sum(report["confusion"].values()) == 6
                assert report["selector"] == selector

    def test_singleton_grid_matches_library_call(self, small_cohort,
                                                 tmp_path):
        config = {"bench": {"grids": {"knn": [{"k": 1}]}}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = run("--config", str(cfg_path), "--out",
                   str(small_cohort / "out"), "--seed", "5", "bench",
                   "--features", "temp", "--models", "knn")
        assert code == 0
        report = json.loads((small_cohort / "out"
                             / "bench_temp_knn.json").read_text())
        assert report["grid_search"]["n_points"] == 1

        from wearbench import mlbench
        from wearbench.models import ModelKind
        rows = pipeline.read_features_csv(small_cohort / "out"
                                          / "features.csv")
        matrix = mlbench.assemble_matrix(rows, "temp")
        direct = mlbench.loocv_grid_search(matrix, ModelKind.KNN,
                                           [{"k": 1}], seed=5,
                                           selector="temp")
        assert report["metrics"]["accuracy"] == pytest.approx(
            direct["metrics"]["accuracy"])
        assert report["per_fold"] == direct["per_fold"]

    def test_all_six_selectors_yield_six_tables(self, small_cohort,
                                                tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "features.csv").write_bytes(
            (small_cohort / "out" / "features.csv").read_bytes())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"bench": {"grids": {"knn": [{"k": 3}]}}}))
        code = run("--config", str(cfg_path), "--out", str(out),
                   "--seed", "5", "bench",
                   "--features", "hrv_time,hrv_freq,eda,acc,temp,all",
                   "--models", "knn")
        assert code == 0
        tables = sorted(p.name for p in out.glob("bench_*.md"))
        assert tables == ["bench_acc.md", "bench_all.md", "bench_eda.md",
                          "bench_hrv_freq.md", "bench_hrv_time.md",
                          "bench_temp.md"]

    def test_each_fold_standardised_once_per_selector(self, small_cohort,
                                                      tmp_path, monkeypatch):
        from wearbench import mlbench
        calls = []
        original = mlbench.fit_standardizer
        monkeypatch.setattr(mlbench, "fit_standardizer",
                            lambda rows: calls.append(1) or original(rows))
        out = tmp_path / "out"
        out.mkdir()
        (out / "features.csv").write_bytes(
            (small_cohort / "out" / "features.csv").read_bytes())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bench": {"grids": {
            "rf": [{"n_estimators": 3}], "gb": [{"n_estimators": 3}],
            "mlp": [{"hidden": 4, "epochs": 20}]}}}))
        code = run("--config", str(cfg_path), "--out", str(out),
                   "--seed", "5", "bench", "--features", "temp,acc")
        assert code == 0
        assert len(list(out.glob("bench_*_*.json"))) == 12
        assert len(calls) == 2 * 6  # two selectors, six subjects

    def test_missing_features_csv_is_io_error(self, tmp_path):
        code = run("--out", str(tmp_path / "nope"), "bench",
                   "--features", "temp", "--models", "knn")
        assert code == 3

    def test_unknown_selector_is_config_error(self, small_cohort):
        code = run("--out", str(small_cohort / "out"), "bench",
                   "--features", "bogus", "--models", "knn")
        assert code == 2

    @pytest.mark.parametrize("selector,edit", [
        ("all", lambda lines: lines + lines[1:]),
        ("temp", lambda lines: set_cell(lines, 1, "TEMP_mean", "abc")),
        ("hrv_time", lambda lines: set_cell(lines, 1, "HRV_SDNNI1", "inf")),
        ("temp", lambda lines: []),
        ("acc", lambda lines: drop_columns(lines, ACC_FEATURE_NAMES)),
    ], ids=["doubled rows", "non-numeric cell", "inf cell", "empty file",
            "no acc columns"])
    def test_bad_features_table_exits_2(self, small_cohort, tmp_path, capsys,
                                        selector, edit):
        out = tmp_path / "out"
        out.mkdir()
        lines = (small_cohort / "out" / "features.csv").read_text()
        (out / "features.csv").write_text(
            "".join(line + "\n" for line in edit(lines.splitlines())))
        code = run("--out", str(out), "--seed", "5", "bench",
                   "--features", selector, "--models", "knn")
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and str(out / "features.csv") in err[0]
        assert [p.name for p in out.iterdir()] == ["features.csv"]


def scale_cells(lines, scale):
    """``lines`` of a features table with ``scale(subject, name, value)``
    applied to each feature cell."""
    names = lines[0].split(",")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        out.append(",".join(
            repr(scale(cells[0], name, float(cell)))
            if name in pipeline.FEATURE_COLUMNS and cell else cell
            for name, cell in zip(names, cells)))
    return out


class TestOverflowingTables:
    """Finite tables whose column statistics overflow a float still give a
    report: no traceback and no NumPy warning."""

    @pytest.mark.parametrize("scale", [
        lambda subject, name, v: math.copysign(1e308, v),
        lambda subject, name, v: v * 1e160 if name == "HRV_SDNN" else v,
        lambda subject, name, v:
            1e308 if (subject, name) == ("S003", "HRV_SDNN") else v,
    ], ids=["every cell 1e308", "one column times 1e160", "one cell 1e308"])
    def test_bench_reports_finite_metrics(self, fuzz_base, tmp_path, capsys,
                                          scale):
        out = tmp_path / "out"
        out.mkdir()
        (out / "features.csv").write_text("".join(
            line + "\n" for line in scale_cells(fuzz_base["table"], scale)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bench": {"grids": {
            "rf": [{"n_estimators": 5}], "gb": [{"n_estimators": 5}],
            "mlp": [{"hidden": 4, "epochs": 50}]}}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("--config", str(cfg_path), "--out", str(out),
                       "--seed", "5", "bench", "--features", "all")
        assert code == 0, capsys.readouterr().err
        for model in ("knn", "dt", "rf", "gb", "svm", "mlp"):
            metrics = json.loads(
                (out / f"bench_all_{model}.json").read_text())["metrics"]
            assert all(math.isfinite(metrics[key]) for key in
                       ("accuracy", "precision", "recall", "f1")), model


class TestReportCommand:
    def test_rerenders_tables_from_saved_json(self, small_cohort, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "features.csv").write_bytes(
            (small_cohort / "out" / "features.csv").read_bytes())
        assert run("--out", str(out), "--seed", "5", "bench",
                   "--features", "temp", "--models", "knn,dt") == 0
        table = out / "bench_temp.md"
        original = table.read_text()
        table.unlink()
        code = run("--out", str(out), "report",
                   "--features", "temp", "--models", "knn,dt")
        assert code == 0
        assert table.read_text() == original

    def test_report_without_flags_uses_config(self, small_cohort, tmp_path):
        cfg = {"bench": {"selectors": ["temp"], "models": ["knn", "dt"]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        table = small_cohort / "out" / "bench_temp.md"
        code = run("--config", str(cfg_path), "--out",
                   str(small_cohort / "out"), "report")
        assert code == 0
        rendered = table.read_text()
        table.unlink()
        assert run("--config", str(cfg_path), "--out",
                   str(small_cohort / "out"), "report") == 0
        assert table.read_text() == rendered
        assert rendered.splitlines()[0] == \
            "| Method | Accuracy | Precision | Recall | F1 Score |"

    def test_empty_out_dir_gives_exit_4(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert run("--out", str(tmp_path / "empty"), "report") == 4

    @pytest.mark.parametrize("content", [
        b"{", b"{}", b"[]", b"\xff\xfe{}",
        b'{"model": "kNN", "metrics": {}}',
        json.dumps({"model": {"display_name": "kNN"},
                    "metrics": {"accuracy": "high", "precision": 1.0,
                                "recall": 1.0, "f1": 1.0}}).encode(),
        *(b'{"model": {"display_name": "kNN"}, "metrics": {"accuracy": '
          + value + b', "precision": 1.0, "recall": 1.0, "f1": 1.0}}'
          for value in (b"NaN", b"Infinity", b"1e999")),
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["truncated", "empty object", "array", "not UTF-8",
            "model not an object", "text metric", "NaN metric",
            "infinite metric", "overflowing metric", "nested too deep"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "bench_temp_knn.json"
        path.write_bytes(content)
        code = run("--out", str(tmp_path), "report",
                   "--features", "temp", "--models", "knn")
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and str(path) in err[0]
        assert not (tmp_path / "bench_temp.md").exists()


class TestConfig:
    def test_print_config_round_trips(self, tmp_path, capsys):
        assert run("--print-config") == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["seed"] == 7
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dumped))
        assert run("--config", str(cfg_path), "--print-config") == 0
        assert json.loads(capsys.readouterr().out) == dumped

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "out_dir": "from_file"}))
        assert run("--config", str(cfg_path), "--seed", "99",
                   "--print-config") == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["seed"] == 99
        assert dumped["out_dir"] == "from_file"

    def test_env_overrides_file_but_not_flags(self, tmp_path, capsys,
                                              monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1}))
        monkeypatch.setenv("WEARBENCH_SEED", "55")
        assert run("--config", str(cfg_path), "--print-config") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 55
        assert run("--config", str(cfg_path), "--seed", "7",
                   "--print-config") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    @pytest.mark.parametrize("doc", ["cli docstring", "README.md"])
    def test_each_documented_env_variable_changes_the_config(
            self, doc, capsys, monkeypatch):
        text = cli.__doc__ if doc == "cli docstring" else (
            Path(__file__).resolve().parents[1] / "README.md").read_text()
        names = sorted(set(re.findall(r"WEARBENCH_[A-Z_]*[A-Z]", text)))
        assert len(names) == 4, names
        assert run("--print-config") == 0
        defaults = capsys.readouterr().out
        for name in names:
            monkeypatch.setenv(name, "3")
            assert run("--print-config") == 0, name
            assert capsys.readouterr().out != defaults, name
            monkeypatch.delenv(name)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert run("--config", str(cfg_path), "--print-config") == 2

    def test_invalid_json_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert run("--config", str(cfg_path), "--print-config") == 2

    def test_out_of_range_parameter_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dsp": {"welch_overlap": 1.5}}))
        assert run("--config", str(cfg_path), "--print-config") == 2

    def test_unknown_grid_hyperparameter_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"bench": {"grids": {"knn": [{"kk": 1}]}}}))
        assert run("--config", str(cfg_path), "--print-config") == 2

    @pytest.mark.parametrize("config", [
        {"dsp": {"detrend_lambda": "x"}},
        {"seed": "abc"},
        {"bench": {"grids": {"knn": [{"k": 0}]}}},
        {"bench": {"grids": {"dt": [{"max_depth": "3"}]}}},
        {"dsp": {"welch_segment_len": 256}},
        {"dsp": {"detrend_lambda": float("nan")}},
        {"dsp": {"detrend_lambda": float("inf")}},
        {"features": {"acc_lowpass_hz": float("nan")}},
        {"features": {"acc_lowpass_hz": float("inf")}},
        {"validation": {"min_duration_seconds": float("nan")}},
        {"validation": {"min_duration_seconds": float("inf")}},
        {"synth": {"duration_s": float("nan")}},
        {"synth": {"duration_s": float("inf")}},
    ])
    def test_wrong_typed_value_exits_2_before_any_work(
            self, config, small_cohort, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        features = out / "features.csv"
        features.write_bytes(
            (small_cohort / "out" / "features.csv").read_bytes())
        capsys.readouterr()
        code = run("--config", str(cfg_path), "--out", str(out), "bench",
                   "--features", "temp", "--models", "knn,dt")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert sorted(out.iterdir()) == [features]

    # models and selectors have no environment variable; flags and the
    # config file are their only sources
    @pytest.mark.parametrize("config,flags", [
        ({}, ["--features", "temp", "--models", "knn,knn"]),
        ({}, ["--features", "temp", "--models", ","]),
        ({}, ["--features", "temp", "--models", ""]),
        ({}, ["--features", "temp,acc,temp", "--models", "knn"]),
        ({}, ["--features", "", "--models", "knn"]),
        ({"bench": {"selectors": ["temp"], "models": []}}, []),
        ({"bench": {"selectors": [], "models": ["knn"]}}, []),
        ({"bench": {"selectors": ["temp"], "models": ["knn", "dt", "knn"]}},
         []),
        ({"bench": {"selectors": ["temp", "temp"], "models": ["knn"]}}, []),
    ], ids=["flag repeated model", "flag no model", "flag empty models",
            "flag repeated selector", "flag empty selectors",
            "file empty models", "file empty selectors",
            "file repeated model", "file repeated selector"])
    def test_empty_or_repeated_models_and_selectors_exit_2(
            self, config, flags, small_cohort, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        features = out / "features.csv"
        features.write_bytes(
            (small_cohort / "out" / "features.csv").read_bytes())
        capsys.readouterr()
        code = run("--config", str(cfg_path), "--out", str(out), "bench",
                   *flags)
        captured = capsys.readouterr()
        assert code == 2
        err = captured.err.splitlines()
        assert len(err) == 1 and re.search(
            r"bench\.(models|selectors) must be a non-empty list of "
            r"distinct values", err[0]), err
        assert sorted(out.iterdir()) == [features]

    def test_no_command_prints_help(self, capsys):
        assert run() == 2

    @pytest.mark.parametrize("make,code,message", [
        (lambda path: path.write_bytes(b'{"seed": 1}\xff'), 2,
         r"^error: .*cfg\.json: not UTF-8 text"),
        (lambda path: path.mkdir(), 3, r"^I/O error: .*cfg\.json"),
        (lambda path: path.write_text("[" * 100_000 + "]" * 100_000), 2,
         r"^configuration error: .*cfg\.json is not valid JSON"),
    ], ids=["not UTF-8", "directory", "nested too deep"])
    def test_unreadable_config_file(self, tmp_path, capsys, make, code,
                                    message):
        make(tmp_path / "cfg.json")
        assert run("--config", str(tmp_path / "cfg.json"),
                   "--print-config") == code
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and re.search(message, err[0]), err


FUZZ_CELLS = ["", "abc", "inf", "-inf", "nan", "1e999", "-0.0", "1e308",
              "0", " ", "1,2", "unipolar", "bipolar", "S001", "subject_id",
              "label", "TEMP_mean"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3), max_leaves=6)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A 3+3 subject features.csv and the kNN report bench makes of it."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    rows = [SubjectFeatures(f"S{i + 1:03d}",
                            Label.UNIPOLAR if i < 3 else Label.BIPOLAR,
                            {name: float(v) for name, v in zip(
                                pipeline.FEATURE_COLUMNS,
                                rng.normal(size=len(pipeline.FEATURE_COLUMNS)))})
            for i in range(6)]
    pipeline.write_features_csv(rows, root / "features.csv")
    assert run("--out", str(root), "bench", "--features", "temp",
               "--models", "knn") == 0
    return {"table": (root / "features.csv").read_text().splitlines(),
            "report": (root / "bench_temp_knn.json").read_text()}


def run_quietly(directory: Path, files: dict, *argv):
    """Write ``files`` into a fresh directory under ``directory``, run the
    CLI there, and return the exit code and the stderr lines."""
    with tempfile.TemporaryDirectory(dir=directory) as out:
        for name, text in files.items():
            Path(out, name).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["--out", out, "--seed", "5", *argv])
    return code, err.getvalue().splitlines()


class TestMutatedInputs:
    """Mutated tables and reports end in a typed exit with one stderr
    line, never a traceback."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_features_table(self, fuzz_base, tmp_path_factory, data):
        rows = [line.split(",") for line in fuzz_base["table"]]
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(
                ["cell", "truncate", "duplicate", "drop column", "drop row"]))
            i = data.draw(st.integers(0, len(rows) - 1))
            width = max(len(r) for r in rows)
            if op == "cell" and rows[i]:
                j = data.draw(st.integers(0, len(rows[i]) - 1))
                rows[i][j] = data.draw(st.sampled_from(FUZZ_CELLS))
            elif op == "truncate":
                line = ",".join(rows[i])
                rows[i] = line[:data.draw(st.integers(0, len(line)))].split(",")
            elif op == "duplicate":
                rows.insert(data.draw(st.integers(0, len(rows))), list(rows[i]))
            elif op == "drop column" and width > 0:
                j = data.draw(st.integers(0, width - 1))
                rows = [r[:j] + r[j + 1:] for r in rows]
            elif op == "drop row" and len(rows) > 1:
                del rows[i]
        code, err = run_quietly(
            tmp_path_factory.getbasetemp(),
            {"features.csv": "".join(",".join(r) + "\n" for r in rows)},
            "bench", "--features", "temp", "--models", "knn")
        assert code in (0, 2, 3, 4)
        assert code == 0 or len(err) == 1, err

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_report(self, fuzz_base, tmp_path_factory, data):
        text = fuzz_base["report"]
        op = data.draw(st.sampled_from(["truncate", "replace", "delete"]))
        if op == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        else:
            report = json.loads(text)
            path = data.draw(st.sampled_from(
                [("model",), ("model", "display_name"), ("metrics",)]
                + [("metrics", k) for k in ("accuracy", "precision",
                                            "recall", "f1")]))
            parent = report
            for key in path[:-1]:
                parent = parent[key]
            if op == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(json_values)
            text = json.dumps(report)
        code, err = run_quietly(tmp_path_factory.getbasetemp(),
                                {"bench_temp_knn.json": text},
                                "report", "--features", "temp",
                                "--models", "knn")
        assert code in (0, 2, 3, 4)
        assert code == 0 or len(err) == 1, err


# one or two points a model, so a six-model bench stays fast
SMALL_GRIDS = {
    "knn": [{"k": 1}, {"k": 3}], "dt": [{"max_depth": 2}],
    "rf": [{"n_estimators": 3}], "gb": [{"n_estimators": 3}],
    "svm": [{"kernel": "linear", "c": 1.0},
            {"kernel": "rbf", "c": 1.0, "gamma": 0.1}],
    "mlp": [{"hidden": 4, "epochs": 20}],
}


def mutate_numbers(data, table):
    """``table``'s lines with one to three drawn numeric mutations: huge or
    tiny magnitudes in a cell or a column, a constant or all-NaN column, a
    repeated row, or only two subjects per class."""
    header, *body = [line.split(",") for line in table]
    columns = st.integers(1, len(header) - 2)
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["huge", "tiny", "constant", "all NaN",
                                        "repeat row", "two per class"]))
        j = data.draw(columns)
        if op in ("huge", "tiny"):
            exponent = data.draw(st.integers(100, 307) if op == "huge"
                                 else st.integers(-323, -100))
            rows = body if data.draw(st.booleans()) \
                else [data.draw(st.sampled_from(body))]
            for row in rows:
                if row[j]:
                    row[j] = repr(float(row[j]) * 10.0 ** exponent)
        elif op == "constant":
            value = data.draw(st.sampled_from([0.0, -1.0, 1e300, 5e-324]))
            for row in body:
                row[j] = repr(value)
        elif op == "all NaN":
            for row in body:
                row[j] = ""
        elif op == "repeat row":
            # the same features under a new id, with either label
            copy = list(data.draw(st.sampled_from(body)))
            copy[0] = f"R{len(body):03d}"
            copy[-1] = data.draw(st.sampled_from(["unipolar", "bipolar"]))
            body.append(copy)
        else:  # the first two subjects of each class
            body = [row for i, row in enumerate(body)
                    if [r[-1] for r in body[:i]].count(row[-1]) < 2]
    return "".join(",".join(row) + "\n" for row in [header, *body])


class TestMutatedNumericTables:
    """A parseable table of finite, huge, tiny, constant or missing values
    gives a report that equals the library's, or a typed exit with one
    stderr line; never a traceback or a NumPy warning."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bench_reports_or_exits_cleanly(self, fuzz_base,
                                            tmp_path_factory, data):
        from wearbench import mlbench
        from wearbench.models import ModelKind
        text = mutate_numbers(data, fuzz_base["table"])
        with tempfile.TemporaryDirectory(
                dir=tmp_path_factory.getbasetemp()) as out:
            Path(out, "features.csv").write_text(text)
            Path(out, "cfg.json").write_text(
                json.dumps({"bench": {"grids": SMALL_GRIDS}}))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main(["--config", str(Path(out, "cfg.json")),
                                 "--out", out, "--seed", "5", "bench",
                                 "--features", "all"])
                lines = err.getvalue().splitlines()
                assert code in (0, 2, 4), lines
                if code != 0:
                    assert len(lines) == 1, lines
                    return
                matrix = mlbench.assemble_matrix(
                    pipeline.read_features_csv(Path(out, "features.csv")),
                    "all")
                for name, grid in SMALL_GRIDS.items():
                    report = json.loads(
                        Path(out, f"bench_all_{name}.json").read_text())
                    assert all(math.isfinite(report["metrics"][key]) for key
                               in ("accuracy", "precision", "recall", "f1"))
                    assert report == mlbench.loocv_grid_search(
                        matrix, ModelKind(name), grid, seed=5,
                        selector="all")


@pytest.fixture(scope="module")
def session_base(tmp_path_factory):
    """A 2+2 subject x 70 s cohort that the session fuzz test copies."""
    root = tmp_path_factory.mktemp("sessions")
    synth.generate_cohort(root, synth.CohortSpec(
        n_unipolar=2, n_bipolar=2, duration_s=70.0), 9)
    return root


CHANNEL_FILES = ["BVP.csv", "EDA.csv", "ACC.csv", "TEMP.csv"]


class TestMutatedSessions:
    """Mutated session directories and manifests end in a typed exit with
    one stderr line from ``validate`` and ``extract``, never a traceback."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mutated_session_directories(self, session_base,
                                         tmp_path_factory, data):
        subjects = ["S001", "S002", "S003", "S004"]
        pick = st.sampled_from([(sid, name) for sid in subjects
                                for name in CHANNEL_FILES])
        with tempfile.TemporaryDirectory(
                dir=tmp_path_factory.getbasetemp()) as tmp:
            root = Path(tmp, "data")
            shutil.copytree(session_base, root)
            for _ in range(data.draw(st.integers(1, 3))):
                op = data.draw(st.sampled_from(
                    ["delete", "empty", "not UTF-8", "swap", "alias"]))
                a = root.joinpath(*data.draw(pick))
                b = root.joinpath(*data.draw(pick))
                if op == "delete":
                    a.unlink(missing_ok=True)
                elif op == "empty" and a.exists():
                    a.write_bytes(b"")
                elif op == "not UTF-8" and a.exists():
                    with open(a, "ab") as handle:
                        handle.write(data.draw(st.sampled_from(
                            [b"\xff", b"\xc3\n", b"1.0\x80\n"])))
                elif op == "swap" and a.exists() and b.exists():
                    a_bytes = a.read_bytes()
                    a.write_bytes(b.read_bytes())
                    b.write_bytes(a_bytes)
                elif op == "alias":
                    sid = data.draw(st.sampled_from(subjects))
                    alias = data.draw(st.sampled_from(
                        [f"./{sid}", f"{sid}/", f"{sid}/."]))
                    with open(root / "manifest.csv", "a") as handle:
                        handle.write(f"{alias},bipolar\n")
            for command in ("validate", "extract"):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = cli.main([
                        "--data-root", str(root),
                        "--manifest", str(root / "manifest.csv"),
                        "--out", str(Path(tmp, command)), command])
                lines = err.getvalue().splitlines()
                assert code in (0, 2, 3, 4), command
                assert code == 0 or len(lines) == 1, (command, lines)


class TestEndToEndDeterminism:
    def test_synth_extract_bench_byte_identical(self, tmp_path):
        def one_run(base: Path) -> dict[str, bytes]:
            assert run("--out", str(base / "data"), "--seed", "17", "synth",
                       "--n-unipolar", "2", "--n-bipolar", "3",
                       "--duration", "70") == 0
            assert run("--data-root", str(base / "data"),
                       "--manifest", str(base / "data" / "manifest.csv"),
                       "--out", str(base / "out"), "extract") == 0
            assert run("--out", str(base / "out"), "--seed", "17", "bench",
                       "--features", "temp", "--models", "knn,gb") == 0
            return {p.name: p.read_bytes()
                    for p in sorted((base / "out").iterdir())}

    # two fully independent runs must agree byte for byte
        a = one_run(tmp_path / "r1")
        b = one_run(tmp_path / "r2")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], name

    @pytest.mark.parametrize("seed", range(11, 16))
    def test_synth_cohort_matches_benchmark_reference(self, seed, tmp_path):
        # the cohort files of the benchmark's extract-300s inputs, pinned
        # byte for byte, so a change to synth or the CSV writer shows here
        reference = json.loads((Path(__file__).resolve().parents[1]
                                / "perfbench" / "reference"
                                / "reference.json").read_text())
        assert run("--out", str(tmp_path / "cohort"), "--seed", str(seed),
                   "synth", "--duration", "300") == 0
        assert gate.sha256_tree(tmp_path / "cohort") == \
            reference[f"extract-300s/seed{seed}/cohort_sha256"]
