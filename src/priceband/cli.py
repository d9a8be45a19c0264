"""Operator CLI: calibrate, train, predict, evaluate, report.

Grammar::

    priceband <calibrate|train|predict|evaluate|report> --config <path>
              [--seed N] [--date YYYY-MM-DD] [--from D --to D] [--out DIR]
              [--resume]

Configuration lives in one JSON file; command-line flags win over config
values. Every command is deterministic given the master seed: rerunning with
identical inputs produces byte-identical artifacts. ``PRICEBAND_LOG`` sets
the log level (DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import date as date_type
from datetime import timedelta
from pathlib import Path

import numpy as np

from . import ctsgan, data_ingest, metrics
from .errors import InputError, PricebandError
from .intervals import DEFAULT_BINS, predict_pipeline, stack_density
from .seeding import derive_seed
from .weather_volatility import (
    FACTORS,
    VolatilityThresholds,
    calibrate_thresholds,
    factor_variances,
    noise_sigma,
    spike_histogram,
)

log = logging.getLogger("priceband")

# Southern-hemisphere seasons; the spike-prone summers span December-February.
_SEASONS = {
    12: "summer", 1: "summer", 2: "summer",
    3: "autumn", 4: "autumn", 5: "autumn",
    6: "winter", 7: "winter", 8: "winter",
    9: "spring", 10: "spring", 11: "spring",
}

# Provenance column of scenarios_D.csv: the noise branch behind each row.
NORMAL_TAG = "normal"
VOLATILE_TAG = "volatile"


@dataclass
class RunConfig:
    """Everything a command needs; see README for the config file schema.

    ``load_config`` fills ``training`` from the file's "training" section
    plus the top-level "seed", and every other field from the key of the
    same name in the "paths", "training", "prediction" or "metrics"
    section. ``checkpoint`` and ``thresholds`` default to files in
    ``out_dir``; ``load_config`` reads them as paths.
    """

    training: ctsgan.TrainingConfig = field(default_factory=ctsgan.TrainingConfig)
    dataset: Path = Path("dataset.csv")
    out_dir: Path = Path(".")
    checkpoint: Path | None = field(default=None, metadata={"kind": Path})
    thresholds: Path | None = field(default=None, metadata={"kind": Path})
    hidden_dim: int = ctsgan.HIDDEN_DIM
    latent_dim: int = ctsgan.LATENT_DIM
    dispersion_gain: float = ctsgan.LATENT_DISPERSION_GAIN
    scenarios: int = 500
    nominal: float = 0.9
    bins: int = DEFAULT_BINS
    variance_override: dict | None = None
    delta_target: float = 0.9
    xi_target: float = 0.25
    runs: int = 10

    def __post_init__(self):
        if self.checkpoint is None:
            self.checkpoint = self.out_dir / "model.json"
        if self.thresholds is None:
            self.thresholds = self.out_dir / "thresholds.json"

    @property
    def seed(self) -> int:
        return self.training.seed


def _from_section(cls, section: dict):
    """A ``cls`` dataclass holding each of its fields that ``section`` names,
    cast to the field's ``"kind"`` metadata, else to the type of its default
    (taken as is where that default is None); other fields keep their
    defaults and other keys are ignored. A field without a plain default (a
    nested config) is never read. A value that does not cast, a float that
    is not finite, or a fraction or boolean given to an int raises
    ``InputError`` naming the key."""
    values = {}
    for f in dataclasses.fields(cls):
        if f.name in section and f.default is not dataclasses.MISSING:
            value = section[f.name]
            kind = f.metadata.get("kind", type(f.default))
            if kind is not type(None):
                try:
                    cast = kind(value)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise InputError(
                        f"config key {f.name!r}: cannot read {value!r} as {kind.__name__}"
                    ) from exc
                if kind is float and not math.isfinite(cast):
                    raise InputError(f"config key {f.name!r}: {value!r} is not a finite number")
                fraction = isinstance(value, float) and value != cast
                if kind is int and (isinstance(value, bool) or fraction):
                    raise InputError(f"config key {f.name!r}: {value!r} is not an integer")
                value = cast
            values[f.name] = value
    return cls(**values)


def load_config(path, seed: int | None = None, out: str | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"required artifact missing: config file {path} ({exc})") from exc
    _check_config_keys(raw)
    training = {k: v for k, v in raw.get("training", {}).items() if k != "seed"}
    if seed is not None or "seed" in raw:
        training["seed"] = seed if seed is not None else raw["seed"]
    sections = {
        **raw.get("paths", {}),
        **training,
        **raw.get("prediction", {}),
        **raw.get("metrics", {}),
    }
    if out is not None:
        sections["out_dir"] = out
    cfg = _from_section(RunConfig, sections)
    cfg.training = _from_section(ctsgan.TrainingConfig, training)
    return cfg


def _check_config_keys(raw) -> None:
    """Raise ``InputError`` naming a key of the config file that no setting
    reads, or a part that is not a JSON object; "seed" in "training" is
    ignored, as documented."""
    if not isinstance(raw, dict):
        raise InputError("config file must hold a JSON object")
    fields = dataclasses.fields
    run_keys = {f.name for f in fields(RunConfig) if f.default is not dataclasses.MISSING}
    known = {"paths": run_keys, "prediction": run_keys, "metrics": run_keys}
    known["training"] = run_keys | {f.name for f in fields(ctsgan.TrainingConfig)}
    for key in sorted(raw.keys() - {"seed", *known}):
        raise InputError(f"config has unknown key {key!r}")
    for section, keys in known.items():
        if not isinstance(raw.get(section, {}), dict):
            raise InputError(f"config section {section!r} must be a JSON object")
        for key in sorted(raw.get(section, {}).keys() - keys):
            raise InputError(f"config section {section!r} has unknown key {key!r}")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _load_dataset(cfg: RunConfig) -> data_ingest.Dataset:
    """Load the configured dataset and print its row and day accounting."""
    dataset = data_ingest.load_dataset(cfg.dataset)
    report = dataset.report
    print(
        f"loaded {report.days_loaded} days from {report.rows_consumed} rows; "
        f"dropped {report.days_dropped} incomplete days"
    )
    return dataset


def cmd_calibrate(cfg: RunConfig) -> None:
    dataset = _load_dataset(cfg)
    samples = {factor: [] for factor in FACTORS}
    for rec in dataset.day_records:
        for factor, value in factor_variances(dataset, rec).items():
            samples[factor].append(value)
    thresholds = calibrate_thresholds({f: np.asarray(v) for f, v in samples.items()})
    _atomic_write(cfg.thresholds, thresholds.to_json())

    report = {
        factor: {
            "samples": len(samples[factor]),
            "low_cut": thresholds.cuts[factor].low_cut,
            "med_cut": thresholds.cuts[factor].med_cut,
            "high_cut": thresholds.cuts[factor].high_cut,
        }
        for factor in FACTORS
    }
    _atomic_write(cfg.out_dir / "calibration_report.json", json.dumps(report, sort_keys=True))
    print(f"calibrated thresholds on {dataset.n_days} days -> {cfg.thresholds}")


def _phase_span(model: ctsgan.CTSGANModel, phase: int) -> tuple[float, float, int]:
    losses = [r["loss"] for r in model.training_log if r["phase"] == phase]
    return (losses[0], losses[-1], len(losses)) if losses else (float("nan"), float("nan"), 0)


def _logged_lines(path: Path, phases: set[int]) -> list[str]:
    """The lines of the training log at ``path`` whose record belongs to one
    of ``phases``; none when there is no such file."""
    if not path.exists():
        return []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        return [line for line in lines if line and json.loads(line)["phase"] in phases]
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise InputError(f"cannot read training log {path} ({type(exc).__name__}: {exc})") from exc


def cmd_train(cfg: RunConfig, resume: bool = False) -> None:
    """Run each phase the checkpoint does not mark done. After each phase,
    rewrite training_log.jsonl (the kept lines of earlier runs, then this
    run's records), then save the checkpoint; a resume keeps only the lines
    of the phases the checkpoint marks done, so each phase is logged once."""
    dataset = _load_dataset(cfg)
    if not dataset.target_days:
        raise InputError("dataset has no day with a complete previous day")

    phases = (
        ("phase1", 1, ctsgan.train_phase1_autoencoder),
        ("phase2", 2, ctsgan.train_phase2_supervised),
        ("phase3", 3, ctsgan.train_phase3_joint),
    )
    log_path = cfg.out_dir / "training_log.jsonl"
    kept = []
    if resume and cfg.checkpoint.exists():
        model = ctsgan.load_model(cfg.checkpoint)
        log.info("resuming from %s with flags %s", cfg.checkpoint, model.training_flags)
        done = {number for flag, number, _ in phases if model.training_flags.get(flag)}
        kept = _logged_lines(log_path, done)
    else:
        model = ctsgan.build_model(
            condition_dim=dataset.conditions.shape[1],
            hidden_dim=cfg.hidden_dim,
            latent_dim=cfg.latent_dim,
            seed=cfg.seed,
            latent_dispersion_gain=cfg.dispersion_gain,
        )

    for flag, number, trainer in phases:
        if model.training_flags.get(flag):
            print(f"phase {number} already trained, skipping")
            continue
        # by keyword: the benchmark's tracer reads "config" by name
        trainer(model, conditions=dataset.conditions, targets=dataset.targets, config=cfg.training)
        first, last, n = _phase_span(model, number)
        print(f"phase {number} complete: loss {first:.6f} -> {last:.6f} over {n} iterations")
        lines = kept + [json.dumps(record) for record in model.training_log]
        _atomic_write(log_path, "\n".join(lines) + "\n")
        ctsgan.save_model(model, cfg.checkpoint)

    if model.adversarial_report:
        print(
            "critic check: real {d_score_real:.4f} generated {d_score_fake:.4f} "
            "accuracy {real_vs_fake_accuracy:.3f}".format(**model.adversarial_report)
        )
    print(f"checkpoint -> {cfg.checkpoint}")


def _load_thresholds(path: Path) -> VolatilityThresholds:
    """The calibrated thresholds at ``path``; a file that is missing, not
    JSON or not a thresholds object raises ``InputError`` naming it."""
    try:
        return VolatilityThresholds.from_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, InputError) as exc:
        raise InputError(
            f"cannot read thresholds {path} ({type(exc).__name__}: {exc})"
        ) from exc


def _override_variances(override) -> dict[str, float]:
    """The config's "variance_override": one finite number per volatility
    factor."""
    if not isinstance(override, dict):
        raise InputError(f"variance_override must map each factor to a number, got {override!r}")
    variances = {}
    for factor in FACTORS:
        if factor not in override:
            raise InputError(f"variance_override has no value for factor {factor!r}")
        try:
            variances[factor] = float(override[factor])
        except (TypeError, ValueError) as exc:
            raise InputError(
                f"variance_override value {override[factor]!r} for factor {factor!r} is not a number"
            ) from exc
        if not math.isfinite(variances[factor]):
            raise InputError(
                f"variance_override value {override[factor]!r} for factor {factor!r} is not finite"
            )
    return variances


def cmd_predict(cfg: RunConfig, day: date_type) -> None:
    dataset = data_ingest.load_dataset(cfg.dataset)
    model = ctsgan.load_model(cfg.checkpoint)
    thresholds = _load_thresholds(cfg.thresholds)
    row = dataset.target_index(day)

    if cfg.variance_override is not None:
        variances = _override_variances(cfg.variance_override)
        log.info("using variance override %s", variances)
    else:
        variances = factor_variances(dataset, dataset.record_for(day))
    sigma = noise_sigma(variances, thresholds)

    bounds, scenarios = predict_pipeline(
        model,
        dataset.conditions[row],
        sigma,
        cfg.scenarios,
        cfg.nominal,
        seed=derive_seed(cfg.seed, f"predict-{day.isoformat()}"),
    )
    print(f"sigma={sigma:.3f} reinforced={'true' if sigma > 1 else 'false'}")
    # every artifact is computed before the first is written, so a failure
    # leaves no interval without its density
    edges, mass = stack_density(scenarios, cfg.bins)
    density = json.dumps({"bin_edges": edges.tolist(), "mass": mass.tolist()}, allow_nan=False)

    tag = day.isoformat()
    _write_interval_csv(cfg.out_dir / f"interval_{tag}.csv", bounds, dataset.norm["price"])
    _atomic_write(cfg.out_dir / f"density_{tag}.json", density)
    _write_scenarios_csv(cfg.out_dir / f"scenarios_{tag}.csv", scenarios, cfg.scenarios)
    print(f"artifacts -> {cfg.out_dir}/interval_{tag}.csv, density_{tag}.json, scenarios_{tag}.csv")


# Numbers go into CSVs as repr() of Python floats (via tolist()): exact and
# plain; numpy 2 scalars repr as "np.float64(x)", which no CSV reader parses.


def _write_interval_csv(path: Path, bounds: np.ndarray, price_norm) -> None:
    """The ``[2, T]`` lower and upper ``bounds``, normalized and in AUD."""
    lower, upper = bounds
    columns = (
        lower.tolist(),
        upper.tolist(),
        data_ingest.denormalize(lower, price_norm).tolist(),
        data_ingest.denormalize(upper, price_norm).tolist(),
    )
    rows = ["timestep,lower,upper,lower_denorm_aud,upper_denorm_aud"]
    for t, values in enumerate(zip(*columns)):
        rows.append(f"{t}," + ",".join(map(repr, values)))
    _atomic_write(path, "\n".join(rows) + "\n")


def _write_scenarios_csv(path: Path, scenarios: np.ndarray, count: int) -> None:
    """One row per path; ``predict_pipeline`` puts the ``count`` baseline
    rows first and any wide-noise rows after them."""
    header = "provenance," + ",".join(f"t{k:02d}" for k in range(scenarios.shape[1]))
    rows = [header]
    for k, path_values in enumerate(scenarios.tolist()):
        tag = NORMAL_TAG if k < count else VOLATILE_TAG
        rows.append(tag + "," + ",".join(map(repr, path_values)))
    _atomic_write(path, "\n".join(rows) + "\n")


def cmd_evaluate(cfg: RunConfig, start: date_type, end: date_type) -> None:
    dataset = data_ingest.load_dataset(cfg.dataset)
    model = ctsgan.load_model(cfg.checkpoint)
    thresholds = _load_thresholds(cfg.thresholds)

    days = [start + timedelta(days=k) for k in range((end - start).days + 1)]
    if not days:
        raise InputError(f"no days between {start} and {end}")
    rows = [dataset.target_index(day) for day in days]
    sigmas = [
        noise_sigma(factor_variances(dataset, dataset.record_for(day)), thresholds)
        for day in days
    ]

    report = metrics.repeated_sampling_harness(
        model,
        dataset.conditions[rows],
        dataset.targets[rows],
        sigmas,
        runs=cfg.runs,
        count=cfg.scenarios,
        nominal=cfg.nominal,
        delta_target=cfg.delta_target,
        xi_target=cfg.xi_target,
        master_seed=derive_seed(cfg.seed, "evaluate"),
    )
    breakdown = _evaluation_breakdown(report, days)
    _atomic_write(cfg.out_dir / "metrics_report.json", report.to_json(**breakdown))
    _print_evaluation_table(report, breakdown)
    print(f"report -> {cfg.out_dir}/metrics_report.json")


def _evaluation_breakdown(report: metrics.RepeatedSamplingReport, days) -> dict:
    """Per-day scores of every run and per-season means over runs and days."""
    seasons = [_SEASONS[day.month] for day in days]
    scores = zip(days, seasons, report.day_coverages.T.tolist(), report.day_widths.T.tolist())
    per_day = [
        {"date": day.isoformat(), "season": season, "ecpas": cov, "eawapi": wid}
        for day, season, cov, wid in scores
    ]
    per_season = {}
    for season in sorted(set(seasons)):
        columns = [d for d, name in enumerate(seasons) if name == season]
        cov = report.day_coverages[:, columns].mean()
        wid = report.day_widths[:, columns].mean()
        per_season[season] = {"days": len(columns), "ecpas": float(cov), "eawapi": float(wid)}
    return {"days": per_day, "seasons": per_season}


def _print_evaluation_table(report: metrics.RepeatedSamplingReport, breakdown: dict) -> None:
    print(f"{'group':<10} {'days':>4} {'ecpas':>8} {'eawapi':>8}")
    if len(breakdown["seasons"]) > 1:
        for season, row in breakdown["seasons"].items():
            print(f"{season:<10} {row['days']:>4} {row['ecpas']:>8.4f} {row['eawapi']:>8.4f}")
    print(
        f"{'overall':<10} {len(breakdown['days']):>4} "
        f"{np.mean(report.coverages):>8.4f} {np.mean(report.widths):>8.4f}"
    )
    print(
        f"phi(delta'={report.delta_target}) = {report.phi_coverage:.3f}   "
        f"phi(xi'={report.xi_target}) = {report.phi_width:.3f}"
    )
    print(
        f"achieved at 90% confidence: ecpas >= {report.achieved_delta_90:.4f}, "
        f"eawapi <= {report.achieved_xi_90:.4f}"
    )


def cmd_report(cfg: RunConfig) -> None:
    dataset = data_ingest.load_dataset(cfg.dataset)

    # dated predict outputs only: report's own interval_overlay.csv shares
    # the prefix and would sort last
    interval_files = sorted(cfg.out_dir.glob("interval_[0-9]*.csv"))
    metrics_file = cfg.out_dir / "metrics_report.json"
    if not interval_files:
        raise InputError("required artifact missing: prediction outputs (run `priceband predict` first)")
    if not metrics_file.exists():
        raise InputError("required artifact missing: metrics_report.json (run `priceband evaluate` first)")
    latest = interval_files[-1]
    day = date_type.fromisoformat(latest.stem.removeprefix("interval_"))
    density_file = cfg.out_dir / f"density_{day.isoformat()}.json"
    if not density_file.exists():
        raise InputError(
            f"required artifact missing: {density_file.name} for {latest.name} "
            "(run `priceband predict` for that date again)"
        )

    # spike histogram over the whole dataset, one row per half-hour slot
    counts = spike_histogram(np.stack([rec.channel("price") for rec in dataset.day_records]))
    hist_rows = ["half_hour_index,count"] + [f"{k},{int(c)}" for k, c in enumerate(counts)]
    _atomic_write(cfg.out_dir / "spike_histogram.csv", "\n".join(hist_rows) + "\n")

    actuals = dataset.targets[dataset.target_index(day)].tolist()
    overlay_rows = ["timestep,actual,lower,upper"]
    with open(latest, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            t = int(row["timestep"])
            overlay_rows.append(f"{t},{actuals[t]!r},{row['lower']},{row['upper']}")
    _atomic_write(cfg.out_dir / "interval_overlay.csv", "\n".join(overlay_rows) + "\n")

    _atomic_write(cfg.out_dir / "density_heatmap.json", density_file.read_text(encoding="utf-8"))

    manifest = {
        "source_date": day.isoformat(),
        "files": [
            "spike_histogram.csv",
            "density_heatmap.json",
            "interval_overlay.csv",
            "report_manifest.json",
        ],
        "metrics_report": metrics_file.name,
    }
    _atomic_write(cfg.out_dir / "report_manifest.json", json.dumps(manifest, sort_keys=True))
    print(f"plot-data bundle -> {cfg.out_dir} ({len(manifest['files'])} files)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priceband",
        description="Scenario-generation prediction intervals for half-hourly electricity prices",
    )
    parser.add_argument("command", choices=["calibrate", "train", "predict", "evaluate", "report"])
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--date", default=None, help="prediction date YYYY-MM-DD")
    parser.add_argument("--from", dest="date_from", default=None, help="evaluation start date")
    parser.add_argument("--to", dest="date_to", default=None, help="evaluation end date")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--resume", action="store_true", help="train: continue from checkpoint")
    return parser


def _parse_date(flag: str, value: str) -> date_type:
    try:
        return date_type.fromisoformat(value)
    except ValueError as exc:
        raise InputError(f"{flag} {value!r} is not a date YYYY-MM-DD ({exc})") from exc


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("PRICEBAND_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "calibrate":
            cmd_calibrate(cfg)
        elif args.command == "train":
            cmd_train(cfg, resume=args.resume)
        elif args.command == "predict":
            if not args.date:
                raise InputError("--date is required for predict")
            cmd_predict(cfg, _parse_date("--date", args.date))
        elif args.command == "evaluate":
            if not (args.date_from and args.date_to):
                raise InputError("--from and --to are required for evaluate")
            cmd_evaluate(cfg, _parse_date("--from", args.date_from), _parse_date("--to", args.date_to))
        else:
            cmd_report(cfg)
    except PricebandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
