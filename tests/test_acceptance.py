"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget. Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""
import contextlib
import dataclasses
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from test_dsp import frequency_response
from test_hrv import assert_matches_oracle, random_nn_series
from test_models import (
    best_gini_split,
    exhaustive_best_split_1d,
    mlp_loss_and_grad,
)

from wearbench import cli, dsp, eda, hrv, models, pipeline, synth
from wearbench.mlbench import Confusion, compute_metrics
from wearbench.session_io import ChannelKind


class _Criterion:
    """Times a criterion body and prints exactly one PASS/FAIL line."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s \
            else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} "
              f"({elapsed:.1f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget_s}s")
        return False


def test_criterion_1_metric_fixtures():
    with _Criterion(1, "metric arithmetic reproduces reference rows", 1.0):
        fixtures = [
            (Confusion(tp=17, tn=13, fp=0, fn=1),
             (96.77, 100.0, 94.44, 97.14)),
            (Confusion(tp=18, tn=1, fp=12, fn=0), (61.29, 60.0, 100.0, 75.0)),
        ]
        for confusion, expected in fixtures:
            m = compute_metrics(confusion)
            got = (m.accuracy, m.precision, m.recall, m.f1)
            for g, e in zip(got, expected):
                assert abs(g - e) < 0.01, (confusion, got, expected)


def test_criterion_2_dsp_analytic_suite():
    with _Criterion(2, "Butterworth -3.01 dB, zero-phase lag, Parseval", 10.0):
        designs = [
            dsp.design_butterworth(5, dsp.FilterKind.LOW_PASS, (10.0,), 32.0),
            dsp.design_butterworth(4, dsp.FilterKind.LOW_PASS, (1.0,), 4.0),
            dsp.design_butterworth(2, dsp.FilterKind.LOW_PASS, (0.05,), 4.0),
            dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS, (0.7, 3.5),
                                   64.0),
            dsp.design_butterworth(3, dsp.FilterKind.BAND_PASS, (0.04, 0.4),
                                   4.0),
        ]
        for design in designs:
            mags = np.abs(frequency_response(design, list(design.cutoffs_hz)))
            db = 20.0 * np.log10(mags)
            assert np.all(np.abs(db - (-3.01)) < 0.1), design

        band = designs[3]
        fs = 64.0
        for freq in (1.0, 1.5, 2.5):
            t = np.arange(0, 30, 1 / fs)
            x = np.sin(2 * math.pi * freq * t)
            y = dsp.filtfilt(band, x)
            xc = np.correlate(y - y.mean(), x - x.mean(), "full")
            assert int(np.argmax(xc)) - (len(x) - 1) == 0

        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal(4096)
            spec = dsp.welch_psd(x, 4.0, segment_len=128)
            total = float(np.sum(spec.power) * spec.resolution_hz)
            assert abs(total - float(x.var())) <= 0.10 * float(x.var())


def test_criterion_3_feature_oracles():
    with _Criterion(3, "feature implementations match direct oracles", 30.0):
        # 23 time-domain HRV features vs the independent formula oracle
        rng = np.random.default_rng(2024)
        for _ in range(200):
            assert_matches_oracle(random_nn_series(rng), rel=1e-9)

        # ACC energy and inactivity vs naive loops
        from wearbench.actigraphy import acc_features
        from wearbench.session_io import SignalChannel
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(64, 300))
            xyz = rng.normal(0, 1, (n, 3))
            thr = float(rng.uniform(0.5, 2.0))
            ch = SignalChannel(ChannelKind.ACC, 0, 32.0, xyz)
            f = acc_features(ch, thr)
            energy = sum(float(xyz[i, 0] ** 2 + xyz[i, 1] ** 2
                               + xyz[i, 2] ** 2) for i in range(n)) / n
            below = sum(1 for i in range(n)
                        if math.sqrt(xyz[i, 0] ** 2 + xyz[i, 1] ** 2
                                     + xyz[i, 2] ** 2) < thr)
            assert abs(f["ACC_Energy"] - energy) <= 1e-9 * energy
            assert f["ACC_Inactivity_time"] == below / 32.0

        # TEMP energy identity
        from wearbench.thermo import temp_features
        for _ in range(50):
            n = int(rng.integers(2, 200))
            ch = SignalChannel(ChannelKind.TEMP, 0, 4.0,
                               rng.normal(36.0, 0.4, n))
            f = temp_features(ch)
            expect = (n - 1) * f["TEMP_std"] ** 2
            assert abs(f["TEMP_energy"] - expect) <= 1e-9 * max(expect, 1e-12)

        # EDA reconstruction is exact
        spec = synth.SynthSpec(seed=60, duration_s=120.0,
                               scr_events=((40.0, 0.3), (90.0, 0.6)))
        session, _ = synth.generate_session(spec)
        decomp = eda.decompose_eda(session.channel(ChannelKind.EDA))
        recon = decomp.tonic + decomp.phasic
        assert float(np.max(np.abs(recon - decomp.cleaned))) < 1e-9


def test_criterion_4_ground_truth_recovery():
    with _Criterion(4, "synthetic ground truth recovered end-to-end", 60.0):
        band = dsp.design_butterworth(2, dsp.FilterKind.BAND_PASS,
                                      (0.7, 3.5), 64.0)

        def peaks_of(spec):
            session, truth = synth.generate_session(spec)
            bvp = session.channel(ChannelKind.BVP)
            filtered = dataclasses.replace(
                bvp,
                samples=dsp.filtfilt(band, dsp.detrend(bvp.samples, 500.0)))
            return hrv.detect_pulse_peaks(filtered), truth

        # pulse-peak counts within +/- 2 of rate * duration
        for bpm, dur, seed in ((60.0, 60.0, 7), (120.0, 30.0, 9),
                               (72.0, 90.0, 13)):
            peaks, _ = peaks_of(synth.SynthSpec(
                seed=seed, duration_s=dur, heart_rate_bpm=bpm,
                hrv_mod_depth_ms=0.0))
            assert abs(len(peaks) - bpm * dur / 60.0) <= 2

        # LF/HF dominance flips with the modulation frequency
        def freq_features(mod_hz, seed):
            peaks, _ = peaks_of(synth.SynthSpec(
                seed=seed, duration_s=300.0, heart_rate_bpm=60.0,
                hrv_mod_freq_hz=mod_hz, hrv_mod_depth_ms=50.0))
            return hrv.hrv_freq_features(hrv.peaks_to_nn(peaks, 64.0))

        lf_case = freq_features(0.10, 11)
        hf_case = freq_features(0.25, 12)
        assert lf_case["HRV_LF"] > 5.0 * lf_case["HRV_HF"]
        assert lf_case["HRV_LF_HF_ratio"] > 5.0
        assert hf_case["HRV_HF"] > 5.0 * hf_case["HRV_LF"]

        # SCR amplitude within 10%
        spec = synth.SynthSpec(seed=5, duration_s=120.0,
                               scr_events=((50.0, 0.5),))
        session, truth = synth.generate_session(spec)
        decomp = eda.decompose_eda(session.channel(ChannelKind.EDA))
        events = eda.detect_scr(decomp)
        assert len(events) == 1
        assert abs(events[0].amplitude - 0.5) <= 0.10 * 0.5

        # ACC dominant frequency within one FFT bin
        spec = synth.SynthSpec(seed=21, duration_s=64.0,
                               acc_dominant_freq_hz=2.0,
                               acc_inactive_fraction=0.0)
        session, truth = synth.generate_session(spec)
        feats = pipeline.extract_session_features(session)
        n_acc = session.channel(ChannelKind.ACC).n_samples
        assert abs(feats["ACC_Dominant_frequency"]
                   - truth.acc_dominant_freq_hz) <= 32.0 / n_acc

        # TEMP trend within 1e-9 of the seeded slope
        spec = synth.SynthSpec(seed=22, duration_s=90.0,
                               temp_trend_c_per_s=0.0015)
        session, truth = synth.generate_session(spec)
        feats = pipeline.extract_session_features(session)
        assert abs(feats["TEMP_trend"] - truth.temp_trend_c_per_s) < 1e-9


def test_criterion_5_classifier_sanity():
    with _Criterion(5, "classifier internals vs independent oracles", 60.0):
        # MLP analytic gradient vs central differences
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        params = models.init_mlp_params(3, 5, seed=1)
        _, grads = mlp_loss_and_grad(params, x, y)
        h = 1e-6
        for key in params:
            flat = params[key]
            it = np.nditer(flat, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = float(flat[idx])
                flat[idx] = orig + h
                lp, _ = mlp_loss_and_grad(params, x, y)
                flat[idx] = orig - h
                lm, _ = mlp_loss_and_grad(params, x, y)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                g = float(grads[key][idx])
                assert abs(fd - g) / max(1e-8, abs(fd) + abs(g)) < 1e-5

        # KNN vs brute-force all-pairs oracle, exact
        rng = np.random.default_rng(5)
        xt = rng.normal(size=(30, 5))
        yt = (rng.random(30) > 0.5).astype(int)
        knn = models.KnnClassifier(k=3).fit(xt[None], yt[None])
        for _ in range(50):
            q = rng.normal(size=5)
            dist = sorted((float(np.sum((xt[i] - q) ** 2)), i)
                          for i in range(30))
            votes = [yt[i] for _, i in dist[:3]]
            expect = int(sum(votes) > len(votes) - sum(votes))
            assert knn.predict(q[None, None, :])[0, 0] == expect

        # CART root split vs exhaustive enumeration, exact
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 40:
            n = int(rng.integers(4, 21))
            values = np.round(rng.normal(size=n), 3)
            labels = (rng.random(n) > 0.5).astype(int)
            if len(set(labels)) < 2:
                continue
            oracle = exhaustive_best_split_1d(values, labels)
            got = best_gini_split(values, labels)
            if oracle is None:
                assert got is None
            else:
                assert got is not None and got[0] == oracle[0]
            checked += 1


def _run_cli(*argv):
    # keep the criterion PASS/FAIL lines readable under pytest -s
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    assert code == 0, f"CLI failed ({code}): {argv}"


def test_criterion_6_separability_sweep(tmp_path):
    with _Criterion(6, "bench separates constructed cohorts, null is chance",
                    600.0):
        # separable: large ACC-frequency offset (plus a correlated rest-time
        # shift) must push the best model to >= 90% LOOCV accuracy
        sep = tmp_path / "separable"
        _run_cli("--out", str(sep / "data"), "--seed", "11", "synth",
                 "--duration", "120",
                 "--offset-acc-freq", "2.0")
        _run_cli("--data-root", str(sep / "data"),
                 "--manifest", str(sep / "data" / "manifest.csv"),
                 "--out", str(sep / "out"), "extract")
        _run_cli("--out", str(sep / "out"), "--seed", "11", "bench",
                 "--features", "acc", "--models", "knn,dt")
        best = 0.0
        for model in ("knn", "dt"):
            report = json.loads(
                (sep / "out" / f"bench_acc_{model}.json").read_text())
            # default cohort: 31 subjects, one LOOCV prediction each
            assert len(report["per_fold"]) == 31
            assert len({f["subject_id"] for f in report["per_fold"]}) == 31
            assert sum(report["confusion"].values()) == 31
            best = max(best, report["metrics"]["accuracy"])
        assert best >= 90.0, f"best accuracy {best}"

        # null: zero offsets, mean accuracy over 20 seeded cohorts must sit
        # within 50 +/- 15 points (grid fixed to k=5 for an unbiased read)
        cfg_path = tmp_path / "null_cfg.json"
        cfg_path.write_text(json.dumps(
            {"bench": {"grids": {"knn": [{"k": 5}]}}}))
        accs = []
        for seed in range(100, 120):
            base = tmp_path / f"null_{seed}"
            _run_cli("--out", str(base / "data"), "--seed", str(seed),
                     "synth", "--duration", "70")
            _run_cli("--data-root", str(base / "data"),
                     "--manifest", str(base / "data" / "manifest.csv"),
                     "--out", str(base / "out"), "extract")
            _run_cli("--config", str(cfg_path), "--out", str(base / "out"),
                     "--seed", str(seed), "bench",
                     "--features", "acc", "--models", "knn")
            report = json.loads(
                (base / "out" / "bench_acc_knn.json").read_text())
            accs.append(report["metrics"]["accuracy"])
        mean_acc = float(np.mean(accs))
        assert 35.0 <= mean_acc <= 65.0, f"null accuracies {accs}"


def test_criterion_7_determinism(tmp_path):
    with _Criterion(7, "end-to-end runs are byte-identical", 120.0):
        def one_run(base: Path) -> dict[str, bytes]:
            _run_cli("--out", str(base / "data"), "--seed", "17", "synth",
                     "--n-unipolar", "2", "--n-bipolar", "3",
                     "--duration", "70")
            _run_cli("--data-root", str(base / "data"),
                     "--manifest", str(base / "data" / "manifest.csv"),
                     "--out", str(base / "out"), "extract")
            _run_cli("--out", str(base / "out"), "--seed", "17", "bench",
                     "--features", "temp,acc", "--models", "knn,gb,mlp")
            out = {}
            for root in (base / "data", base / "out"):
                for path in sorted(root.rglob("*")):
                    if path.is_file():
                        out[str(path.relative_to(base))] = path.read_bytes()
            return out

        a = one_run(tmp_path / "run1")
        b = one_run(tmp_path / "run2")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between runs"
