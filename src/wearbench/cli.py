"""Command-line entry point.

Commands::

    wearbench synth     write a synthetic labeled cohort + manifest
    wearbench validate  screen sessions, write validation.json
    wearbench extract   write features.csv + validation.json
    wearbench bench     LOOCV grid-search benchmark per feature group
    wearbench report    re-render Markdown tables from saved reports

Exit codes: 0 ok, 2 invalid configuration, 3 I/O failure, 4 empty result.
Paths and seed can also come from ``WEARBENCH_DATA_ROOT``,
``WEARBENCH_MANIFEST``, ``WEARBENCH_OUT_DIR``, and ``WEARBENCH_SEED``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import mlbench, pipeline, synth
from .config import (
    ALL_SELECTORS,
    DEFAULT_MODELS,
    RunConfig,
    apply_env_overrides,
    config_from_dict,
    load_config_file,
)
from .errors import ConfigError, InvalidSpec, WearbenchError, finite_number
from .models import ModelKind
from .session_io import Label, ValidationStatus, atomic_write_text, read_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EMPTY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wearbench",
        description="Wearable-session feature extraction and LOOCV benchmark")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--data-root", help="root of session directories")
    parser.add_argument("--manifest", help="subject_id,label manifest CSV")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--seed", type=int, help="global random seed")
    parser.add_argument("--print-config", action="store_true",
                        help="dump the effective configuration and exit")
    sub = parser.add_subparsers(dest="command")

    p_synth = sub.add_parser("synth", help="generate a synthetic cohort")
    p_synth.add_argument("--n-unipolar", type=int)
    p_synth.add_argument("--n-bipolar", type=int)
    p_synth.add_argument("--duration", type=float, dest="duration_s")
    p_synth.add_argument("--offset-acc-freq", type=float,
                         dest="offset_acc_dominant_freq_hz")
    p_synth.add_argument("--offset-temp-trend", type=float,
                         dest="offset_temp_trend_c_per_s")

    sub.add_parser("validate", help="screen sessions against the policy")
    sub.add_parser("extract", help="extract the 59-column feature table")

    for name, text in (("bench", "run the LOOCV benchmark"),
                       ("report", "re-render tables from saved reports")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--features", help="comma-separated selectors "
                       f"from {', '.join(ALL_SELECTORS)}")
        p.add_argument("--models", help="comma-separated models "
                       f"from {', '.join(DEFAULT_MODELS)}")
    return parser


_SYNTH_FLAGS = ("n_unipolar", "n_bipolar", "duration_s",
                "offset_acc_dominant_freq_hz", "offset_temp_trend_c_per_s")


def _merge_config(args) -> RunConfig:
    """Flags > environment > config file > defaults; each layer passes the
    same type and range checks in ``config_from_dict``."""
    cfg = load_config_file(args.config) if args.config else RunConfig()
    cfg = apply_env_overrides(cfg)
    given = {k: v for k, v in vars(args).items() if v is not None}
    overrides = {k: given[k] for k in ("data_root", "manifest", "out_dir",
                                       "seed") if k in given}
    overrides["synth"] = {k: given[k] for k in _SYNTH_FLAGS if k in given}
    bench = overrides["bench"] = {}
    if "features" in given:
        bench["selectors"] = [
            s.strip() for s in given["features"].split(",") if s.strip()]
    if "models" in given:
        bench["models"] = [
            m.strip().lower() for m in given["models"].split(",") if m.strip()]
    return config_from_dict(overrides, base=cfg)


def _require(cfg: RunConfig, *keys: str) -> None:
    missing = [k for k in keys if getattr(cfg, k) in (None, "")]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(missing)}")


def cmd_synth(cfg: RunConfig) -> int:
    _require(cfg, "out_dir")
    manifest = synth.generate_cohort(cfg.out_dir, cfg.synth, cfg.seed)
    print(manifest)
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    _require(cfg, "data_root", "manifest", "out_dir")
    reports = [report for report, _ in pipeline.validate_cohort(
        cfg.data_root, cfg.manifest, cfg.validation)]
    path = Path(cfg.out_dir) / "validation.json"
    pipeline.write_validation_json(reports, path)
    n_ok = sum(r.status is ValidationStatus.OK for r in reports)
    print(f"{n_ok}/{len(reports)} sessions pass validation -> {path}")
    if n_ok == 0:
        print("no session passes validation", file=sys.stderr)
    return EXIT_OK if n_ok > 0 else EXIT_EMPTY


def cmd_extract(cfg: RunConfig) -> int:
    _require(cfg, "data_root", "manifest", "out_dir")
    features_path, validation_path, n_ok = pipeline.run_extract(
        cfg.data_root, cfg.manifest, cfg.out_dir,
        dsp_cfg=cfg.dsp, feat_cfg=cfg.features, policy=cfg.validation)
    print(f"{n_ok} subjects -> {features_path}")
    print(f"validation -> {validation_path}")
    if n_ok == 0:
        print("no session passes validation", file=sys.stderr)
    return EXIT_OK if n_ok > 0 else EXIT_EMPTY


def cmd_bench(cfg: RunConfig) -> int:
    _require(cfg, "out_dir")
    out_dir = Path(cfg.out_dir)
    features_path = out_dir / "features.csv"
    rows = pipeline.read_features_csv(features_path)
    if not rows:
        print("features.csv has no subjects", file=sys.stderr)
        return EXIT_EMPTY
    for selector in cfg.bench.selectors:
        missing = [name for name in mlbench.FEATURE_GROUPS[selector]
                   if name not in rows[0].features]
        if missing:
            raise WearbenchError(
                f"{features_path}: selector {selector!r} needs "
                f"{len(missing)} columns the header lacks, "
                f"first {missing[0]!r}")
    grids = mlbench.default_grids()
    for name, grid in cfg.bench.grids.items():
        grids[ModelKind(name)] = [dict(g) for g in grid]

    for selector in cfg.bench.selectors:
        matrix = mlbench.assemble_matrix(rows, selector)
        reports = []
        for model_name in cfg.bench.models:
            kind = ModelKind(model_name)
            report = mlbench.loocv_grid_search(
                matrix, kind, grids[kind], seed=cfg.seed,
                positive_class=Label(cfg.bench.positive_class),
                selector=selector)
            reports.append(report)
            atomic_write_text(
                out_dir / f"bench_{selector}_{model_name}.json",
                json.dumps(report, indent=2, sort_keys=True) + "\n")
        table_path = out_dir / f"bench_{selector}.md"
        atomic_write_text(table_path, mlbench.render_markdown_table(reports))
        print(table_path)
    return EXIT_OK


def _load_report(path: Path) -> dict:
    """A saved ``bench_*.json``, checked for the fields the table shows."""
    try:
        report = json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise WearbenchError(f"{path}: not valid JSON ({exc})") from None
    try:
        ok = isinstance(report["model"]["display_name"], str) and all(
            finite_number(report["metrics"][key])
            for key in ("accuracy", "precision", "recall", "f1"))
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise WearbenchError(
            f"{path}: a bench report needs model.display_name and finite "
            "numeric metrics.accuracy, precision, recall and f1")
    return report


def cmd_report(cfg: RunConfig) -> int:
    _require(cfg, "out_dir")
    out_dir = Path(cfg.out_dir)
    found = False
    for selector in cfg.bench.selectors:
        paths = [out_dir / f"bench_{selector}_{model_name}.json"
                 for model_name in cfg.bench.models]
        reports = [_load_report(path) for path in paths if path.is_file()]
        if reports:
            found = True
            table_path = out_dir / f"bench_{selector}.md"
            atomic_write_text(table_path,
                              mlbench.render_markdown_table(reports))
            print(table_path)
    if not found:
        print("no saved reports found", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "validate": cmd_validate,
    "extract": cmd_extract,
    "bench": cmd_bench,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.print_config:
            print(json.dumps(cfg.to_json_dict(), indent=2, sort_keys=True))
            return EXIT_OK
        if not args.command:
            parser.print_help()
            return EXIT_CONFIG
        return _COMMANDS[args.command](cfg)
    except (ConfigError, InvalidSpec) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WearbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
