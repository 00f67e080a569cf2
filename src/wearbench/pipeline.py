"""Session-to-features glue: preprocessing chains and the feature CSV.

One subject in, 59 named scalars out:

* BVP: smoothness-priors detrend -> band-pass -> pulse peaks -> NN series
  -> 23 time-domain + 9 frequency-domain HRV features,
* EDA: clean -> tonic/phasic split -> SCR events -> 10 features,
* ACC: low-pass of the three axes -> 10 movement features,
* TEMP: 7 summary features.

Each family function returns its columns of the table as a dict keyed by
column name, so a session's row is the union of four dicts.

A feature family that cannot be computed for an otherwise valid session
(for example too few clean beats for a spectrum) is emitted as NaN and
imputed later from each training fold.
"""
from __future__ import annotations

import dataclasses
import json
import math
import warnings
from pathlib import Path

from . import actigraphy, dsp, eda, hrv, thermo
from .config import DspConfig, FeatureConfig
from .errors import (
    InvalidCutoff,
    NoPeaksFound,
    SignalTooShort,
    SpanTooShort,
    TooFewIntervals,
    WearbenchError,
)
from .mlbench import FEATURE_GROUPS, SubjectFeatures
from .session_io import (
    ChannelKind,
    Session,
    ValidationPolicy,
    ValidationReport,
    ValidationStatus,
    atomic_write_text,
    load_manifest,
    load_session,
    read_subject_table,
    validate_session,
)

FEATURE_COLUMNS = FEATURE_GROUPS["all"]

# a session too short for a family, or whose sample rate cannot carry a
# configured filter cutoff, gets that family as NaN, not an aborted run
_FAMILY_FAILURES = (SignalTooShort, InvalidCutoff)


def _family_unavailable(session: Session, family: str, exc: Exception,
                        names) -> dict[str, float]:
    """Warn why ``family`` is missing for ``session``; its features as NaN."""
    warnings.warn(f"{session.subject_id}: {family} unavailable ({exc})",
                  RuntimeWarning, stacklevel=3)
    return {name: float("nan") for name in names}


def extract_hrv_features(session: Session, dsp_cfg: DspConfig,
                         feat_cfg: FeatureConfig) -> dict[str, float]:
    bvp = session.channel(ChannelKind.BVP)
    try:
        detrended = dsp.detrend(bvp.samples, dsp_cfg.detrend_lambda)
        band = dsp.design_butterworth(
            dsp_cfg.bvp_filter_order, dsp.FilterKind.BAND_PASS,
            dsp_cfg.bvp_band_hz, bvp.sample_rate)
        filtered = dataclasses.replace(
            bvp, samples=dsp.filtfilt(band, detrended))
        peaks = hrv.detect_pulse_peaks(
            filtered, threshold_scale=feat_cfg.peak_threshold_scale,
            rms_window_s=feat_cfg.peak_rms_window_s,
            refractory_s=feat_cfg.peak_refractory_s)
        nn = hrv.peaks_to_nn(peaks, bvp.sample_rate)
    except (*_FAMILY_FAILURES, NoPeaksFound, TooFewIntervals) as exc:
        return _family_unavailable(session, "HRV features", exc,
                                   hrv.HRV_TIME_NAMES + hrv.HRV_FREQ_NAMES)
    out = hrv.hrv_time_features(nn)
    try:
        out.update(hrv.hrv_freq_features(
            nn, interp_rate_hz=dsp_cfg.nn_interp_rate_hz,
            welch_overlap=dsp_cfg.welch_overlap))
    except (SpanTooShort, TooFewIntervals) as exc:
        out.update(_family_unavailable(session, "HRV spectrum", exc,
                                       hrv.HRV_FREQ_NAMES))
    return out


def extract_eda_features(session: Session,
                         feat_cfg: FeatureConfig) -> dict[str, float]:
    channel = session.channel(ChannelKind.EDA)
    try:
        decomp = eda.decompose_eda(channel, tonic_cutoff_hz=feat_cfg.eda_tonic_hz,
                                   clean_cutoff_hz=feat_cfg.eda_clean_hz)
    except _FAMILY_FAILURES as exc:
        return _family_unavailable(session, "EDA features", exc,
                                   eda.EDA_FEATURE_NAMES)
    events = eda.detect_scr(decomp, min_amplitude=feat_cfg.scr_min_amplitude)
    return eda.eda_features(decomp, events)


def extract_acc_features(session: Session,
                         feat_cfg: FeatureConfig) -> dict[str, float]:
    channel = session.channel(ChannelKind.ACC)
    try:
        design = dsp.design_butterworth(
            feat_cfg.acc_lowpass_order, dsp.FilterKind.LOW_PASS,
            (feat_cfg.acc_lowpass_hz,), channel.sample_rate)
        smoothed = dataclasses.replace(
            channel, samples=dsp.filtfilt(design, channel.samples))
        return actigraphy.acc_features(
            smoothed, inactivity_threshold=feat_cfg.acc_inactivity_threshold)
    except _FAMILY_FAILURES as exc:
        return _family_unavailable(session, "ACC features", exc,
                                   actigraphy.ACC_FEATURE_NAMES)


def extract_temp_features(session: Session) -> dict[str, float]:
    try:
        return thermo.temp_features(session.channel(ChannelKind.TEMP))
    except _FAMILY_FAILURES as exc:
        return _family_unavailable(session, "TEMP features", exc,
                                   thermo.TEMP_FEATURE_NAMES)


def extract_session_features(session: Session, dsp_cfg: DspConfig | None = None,
                             feat_cfg: FeatureConfig | None = None
                             ) -> dict[str, float]:
    """All 59 features for one session, in canonical column order."""
    dsp_cfg = dsp_cfg or DspConfig()
    feat_cfg = feat_cfg or FeatureConfig()
    values = {}
    values.update(extract_hrv_features(session, dsp_cfg, feat_cfg))
    values.update(extract_eda_features(session, feat_cfg))
    values.update(extract_acc_features(session, feat_cfg))
    values.update(extract_temp_features(session))
    return {name: values[name] for name in FEATURE_COLUMNS}


# --- feature CSV ----------------------------------------------------------------


def _format_value(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def write_features_csv(rows, path) -> None:
    """Header: subject_id, the 59 feature columns, label. NaN -> empty."""
    lines = ["subject_id," + ",".join(FEATURE_COLUMNS) + ",label"]
    for row in rows:
        cells = [row.subject_id]
        cells.extend(_format_value(row.features.get(name, float("nan")))
                     for name in FEATURE_COLUMNS)
        cells.append(row.label.value)
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_cell(cell: str, where: str) -> float:
    """An empty cell is NaN; any other cell must be a finite number."""
    if cell == "":
        return float("nan")
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise WearbenchError(
            f"{where}: expected a finite number or an empty cell, "
            f"got {cell!r}")
    return value


def read_features_csv(path) -> list[SubjectFeatures]:
    """The rows of a table in the :func:`write_features_csv` layout.

    Raises ``WearbenchError``, naming the path and line, for any defect
    :func:`read_subject_table` rejects, or a cell that is neither empty
    nor a finite number.
    """
    header, rows = read_subject_table(path, WearbenchError)
    names = header[1:-1]
    return [SubjectFeatures(
        subject_id=subject_id, label=label,
        features={name: _read_cell(cell, f"{path}:{lineno}: {name}")
                  for name, cell in zip(names, cells)})
        for lineno, subject_id, cells, label in rows]


def write_validation_json(reports, path) -> None:
    payload = {"subjects": [
        {"subject_id": r.subject_id, "status": r.status.value,
         "reasons": list(r.reasons)} for r in reports]}
    atomic_write_text(path,
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- cohort-level extraction ----------------------------------------------------


def validate_cohort(data_root, manifest_path,
                    policy: ValidationPolicy | None = None):
    """Load and screen every manifest subject, one at a time, in order.

    Yields ``(report, session)``; ``session`` is None when the session
    cannot be read, and the report then says why.
    """
    for subject_id, label in load_manifest(manifest_path):
        try:
            session = load_session(Path(data_root) / subject_id, subject_id,
                                   label)
        except WearbenchError as exc:
            yield ValidationReport(
                subject_id, (f"unreadable session: {exc}",)), None
            continue
        yield validate_session(session, policy), session


def run_extract(data_root, manifest_path, out_dir,
                dsp_cfg: DspConfig | None = None,
                feat_cfg: FeatureConfig | None = None,
                policy: ValidationPolicy | None = None
                ) -> tuple[Path, Path, int]:
    """Validate and extract every manifest subject.

    Writes ``features.csv`` (validated subjects only) and
    ``validation.json`` (everyone, with exclusion reasons) under
    ``out_dir``; returns both paths and the number of included subjects.
    """
    out_dir = Path(out_dir)

    reports: list[ValidationReport] = []
    rows: list[SubjectFeatures] = []
    for report, session in validate_cohort(data_root, manifest_path, policy):
        reports.append(report)
        if report.status is ValidationStatus.OK:
            rows.append(SubjectFeatures(
                subject_id=session.subject_id, label=session.label,
                features=extract_session_features(session, dsp_cfg, feat_cfg)))

    features_path = out_dir / "features.csv"
    validation_path = out_dir / "validation.json"
    write_features_csv(rows, features_path)
    write_validation_json(reports, validation_path)
    return features_path, validation_path, len(rows)
