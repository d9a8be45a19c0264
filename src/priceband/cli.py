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

# One BLAS thread unless the environment names a count (read when numpy
# loads): evaluate runs its own workers, and backward's GEMM bits depend on
# the thread count, so train writes the same model whatever the CPU count.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np

from . import ctsgan, data_ingest, jsonread, metrics
from .errors import InputError, PricebandError
from .intervals import predict_pipeline, stack_density
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


def _path(node: jsonread.Node) -> Path:
    return Path(node.string())


def _variance_override(node: jsonread.Node) -> dict[str, float] | None:
    """``null``, or a number per volatility factor (other keys are ignored)."""
    return None if node.value is None else {factor: node[factor].number() for factor in FACTORS}


_READS = {int: jsonread.Node.integer, float: jsonread.Node.number}


def _setting(default, section: str, read=None):
    """A ``RunConfig`` field read from the config file's ``section`` with
    ``read``, by default ``_READS``' read of its default's type."""
    return field(default=default, metadata={"section": section, "read": read})


@dataclass
class RunConfig:
    """Everything a command needs; see README for the config file schema.

    ``load_config`` fills ``training`` from the file's "training" section
    plus the top-level "seed", and every other field from the key of the
    same name in the section its metadata names, and in no other.
    ``checkpoint`` and ``thresholds`` default to files in ``out_dir``.
    """

    training: ctsgan.TrainingConfig = field(default_factory=ctsgan.TrainingConfig)
    dataset: Path = _setting(Path("dataset.csv"), "paths", _path)
    out_dir: Path = _setting(Path("."), "paths", _path)
    checkpoint: Path | None = _setting(None, "paths", _path)
    thresholds: Path | None = _setting(None, "paths", _path)
    scenarios: int = _setting(500, "prediction")
    nominal: float = _setting(0.9, "prediction")
    bins: int = _setting(50, "prediction")
    variance_override: dict | None = _setting(None, "prediction", _variance_override)
    delta_target: float = _setting(0.9, "metrics")
    xi_target: float = _setting(0.25, "metrics")
    runs: int = _setting(10, "metrics")

    def __post_init__(self):
        if self.checkpoint is None:
            self.checkpoint = self.out_dir / "model.json"
        if self.thresholds is None:
            self.thresholds = self.out_dir / "thresholds.json"

    @property
    def seed(self) -> int:
        return self.training.seed


def load_config(path, seed: int | None = None, out: str | None = None) -> RunConfig:
    """The config file at ``path``, with the command line's ``seed`` and
    ``out`` in place of its "seed" and "out_dir"; "seed" in "training" is
    ignored, as documented. A key that no setting reads, a key outside its
    setting's section or a value of another type raises ``InputError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = jsonread.Node(json.load(fh), "config", InputError)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"required artifact missing: config file {path} ({exc})") from exc
    sections = {"training": list(dataclasses.fields(ctsgan.TrainingConfig))}
    for f in dataclasses.fields(RunConfig):
        if "section" in f.metadata:
            sections.setdefault(f.metadata["section"], []).append(f)
    config.obj(keys={"seed", *sections})
    values = {}
    for name, fields in sections.items():
        section = config.get(name, {})
        given = section.obj(keys={f.name for f in fields})
        values[name] = {
            f.name: (f.metadata.get("read") or _READS[type(f.default)])(section[f.name])
            for f in fields
            if f.name in given and f.name != "seed"
        }
    training = values.pop("training")
    if seed is not None or "seed" in config.value:
        training["seed"] = seed if seed is not None else config["seed"].integer()
    settings = {key: value for section in values.values() for key, value in section.items()}
    if out is not None:
        settings["out_dir"] = Path(out)
    return RunConfig(training=ctsgan.TrainingConfig(**training), **settings)


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
    samples = factor_variances(dataset)
    thresholds = calibrate_thresholds(samples)
    _atomic_write(cfg.thresholds, thresholds.to_json())

    report = {
        factor: {"samples": len(samples[factor]), **cuts}
        for factor, cuts in thresholds.by_factor().items()
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
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read training log {path} ({exc})") from exc
    kept = []
    for number, line in enumerate(lines, 1):
        name = f"training log {path} line {number}"
        if line and jsonread.parse(line, name, InputError)["phase"].integer() in phases:
            kept.append(line)
    return kept


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
        for key in ("hidden_dim", "latent_dim"):
            if getattr(model, key) != getattr(cfg.training, key):
                raise InputError(
                    f"checkpoint {cfg.checkpoint} has {key} {getattr(model, key)}, "
                    f"config has {getattr(cfg.training, key)}"
                )
        done = {number for flag, number, _ in phases if model.training_flags.get(flag)}
        kept = _logged_lines(log_path, done)
    else:
        model = ctsgan.build_model(dataset.conditions.shape[1], cfg.training)

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
    except (OSError, UnicodeDecodeError, InputError) as exc:
        raise InputError(f"cannot read thresholds {path} ({exc})") from exc


def cmd_predict(cfg: RunConfig, day: date_type) -> None:
    dataset = data_ingest.load_dataset(cfg.dataset)
    model = ctsgan.load_model(cfg.checkpoint)
    thresholds = _load_thresholds(cfg.thresholds)
    row = dataset.target_index(day)

    if cfg.variance_override is not None:
        variances = cfg.variance_override
        log.info("using variance override %s", variances)
    else:
        day_row = dataset.target_rows[row]
        variances = {f: v[day_row] for f, v in factor_variances(dataset).items()}
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
    variances = factor_variances(dataset)
    sigmas = [
        noise_sigma({f: v[k] for f, v in variances.items()}, thresholds)
        for k in dataset.target_rows[rows]
    ]

    summary, day_coverages, day_widths = metrics.repeated_sampling_harness(
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
    report = {**summary, **_evaluation_breakdown(day_coverages, day_widths, days)}
    _atomic_write(cfg.out_dir / "metrics_report.json", json.dumps(report, allow_nan=False))
    _print_evaluation_table(report)
    print(f"report -> {cfg.out_dir}/metrics_report.json")


def _evaluation_breakdown(day_coverages: np.ndarray, day_widths: np.ndarray, days) -> dict:
    """Per-day scores of every run and per-season means over runs and days,
    from the ``[runs, D]`` per-day ECPAS and EAWAPI."""
    seasons = [_SEASONS[day.month] for day in days]
    scores = zip(days, seasons, day_coverages.T.tolist(), day_widths.T.tolist())
    per_day = [
        {"date": day.isoformat(), "season": season, "ecpas": cov, "eawapi": wid}
        for day, season, cov, wid in scores
    ]
    per_season = {}
    for season in sorted(set(seasons)):
        columns = [d for d, name in enumerate(seasons) if name == season]
        cov = day_coverages[:, columns].mean()
        wid = day_widths[:, columns].mean()
        per_season[season] = {"days": len(columns), "ecpas": float(cov), "eawapi": float(wid)}
    return {"days": per_day, "seasons": per_season}


def _print_evaluation_table(report: dict) -> None:
    """The season rows, the means over runs and the confidence summary of
    the ``metrics_report.json`` object ``report``."""
    print(f"{'group':<10} {'days':>4} {'ecpas':>8} {'eawapi':>8}")
    if len(report["seasons"]) > 1:
        for season, row in report["seasons"].items():
            print(f"{season:<10} {row['days']:>4} {row['ecpas']:>8.4f} {row['eawapi']:>8.4f}")
    coverage, width = (np.mean([run[key] for run in report["runs"]]) for key in ("ecpas", "eawapi"))
    print(f"{'overall':<10} {len(report['days']):>4} {coverage:>8.4f} {width:>8.4f}")
    targets = report["targets"]
    print(
        f"phi(delta'={targets['delta_prime']}) = {report['phi_coverage']:.3f}   "
        f"phi(xi'={targets['xi_prime']}) = {report['phi_width']:.3f}"
    )
    print(
        f"achieved at 90% confidence: ecpas >= {report['achieved_delta_90']:.4f}, "
        f"eawapi <= {report['achieved_xi_90']:.4f}"
    )


def cmd_report(cfg: RunConfig) -> None:
    dataset = data_ingest.load_dataset(cfg.dataset)

    # only the names predict writes, interval_YYYY-MM-DD.csv: report's own
    # interval_overlay.csv and any other interval_*.csv are skipped
    intervals = {}
    for path in cfg.out_dir.glob("interval_*.csv"):
        try:
            day = date_type.fromisoformat(path.stem.removeprefix("interval_"))
        except ValueError:
            continue
        if path.name == f"interval_{day.isoformat()}.csv":
            intervals[day] = path
    metrics_file = cfg.out_dir / "metrics_report.json"
    if not intervals:
        raise InputError("required artifact missing: prediction outputs (run `priceband predict` first)")
    if not metrics_file.exists():
        raise InputError("required artifact missing: metrics_report.json (run `priceband evaluate` first)")
    day = max(intervals)
    latest = intervals[day]
    density_file = cfg.out_dir / f"density_{day.isoformat()}.json"
    if not density_file.exists():
        raise InputError(
            f"required artifact missing: {density_file.name} for {latest.name} "
            "(run `priceband predict` for that date again)"
        )

    # every input is read and checked before the first file is written
    bounds = _read_interval_bounds(latest)
    density = _read_density(density_file)
    actuals = dataset.targets[dataset.target_index(day)].tolist()

    # spike histogram over the whole dataset, one row per half-hour slot
    counts = spike_histogram(dataset.channels["price"])
    hist_rows = ["half_hour_index,count"] + [f"{k},{int(c)}" for k, c in enumerate(counts)]
    _atomic_write(cfg.out_dir / "spike_histogram.csv", "\n".join(hist_rows) + "\n")

    overlay_rows = ["timestep,actual,lower,upper"]
    for t, (lower, upper) in enumerate(bounds):
        overlay_rows.append(f"{t},{actuals[t]!r},{lower},{upper}")
    _atomic_write(cfg.out_dir / "interval_overlay.csv", "\n".join(overlay_rows) + "\n")

    _atomic_write(cfg.out_dir / "density_heatmap.json", density)

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


def _read_density(path: Path) -> str:
    """The text of the density file ``predict`` wrote at ``path``. Raises
    ``InputError`` naming the file unless it is UTF-8 JSON holding an object
    with ``bin_edges`` and ``mass``."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path} ({exc})") from exc
    density = jsonread.parse(text, str(path), InputError)
    for key in ("bin_edges", "mass"):
        density.get(key)  # raises when the key is missing
    return text


def _read_interval_bounds(path: Path) -> list[tuple[str, str]]:
    """The ``lower`` and ``upper`` fields, as written, of the interval file
    ``predict`` wrote at ``path``. Raises ``InputError`` naming the file and
    line unless it has ``timestep``, ``lower`` and ``upper`` columns and one
    row per half-hour, timesteps 0 to 47 in order, each with finite
    ``lower <= upper``."""
    steps = data_ingest.HALF_HOURS_PER_DAY
    bounds = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            position = {name: k for k, name in enumerate(next(reader, []))}
            for column in ("timestep", "lower", "upper"):
                if column not in position:
                    raise InputError(f"{path} line 1: header missing column {column!r}")
            columns = [position[name] for name in ("timestep", "lower", "upper")]
            for row in reader:
                if not row:  # a blank line, which csv.DictReader skipped
                    continue
                where = f"{path} line {reader.line_num}"
                if len(bounds) == steps:
                    raise InputError(f"{where}: more than {steps} rows")
                if len(row) <= max(columns):
                    raise InputError(
                        f"{where}: {len(row)} fields, too few for timestep, lower and upper"
                    )
                timestep, lower, upper = (row[k] for k in columns)
                if timestep != str(len(bounds)):
                    raise InputError(f"{where}: timestep {timestep!r}, expected {len(bounds)}")
                try:
                    lo, hi = float(lower), float(upper)
                except ValueError:
                    lo = hi = math.nan
                if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    raise InputError(
                        f"{where}: bounds {lower!r}, {upper!r} are not finite with lower <= upper"
                    )
                bounds.append((lower, upper))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path} ({exc})") from exc
    if len(bounds) != steps:
        raise InputError(f"{path} holds {len(bounds)} rows, expected {steps}")
    return bounds


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
