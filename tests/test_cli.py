import importlib.util
import json
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from priceband import cli, ctsgan, data_ingest, synthetic
from priceband import weather_volatility as wv

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Calibrated + trained tiny pipeline, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    synthetic.generate_market_csv(root / "toy.csv", days=120, seed=11)
    cfg = {
        "paths": {
            "dataset": str(root / "toy.csv"),
            "checkpoint": str(root / "out" / "model.json"),
            "thresholds": str(root / "out" / "thresholds.json"),
            "out_dir": str(root / "out"),
        },
        "training": {
            "iterations_per_phase": 80,
            "learning_rate": 0.05,
            "hidden_dim": 8,
            "latent_dim": 4,
        },
        "prediction": {"scenarios": 50, "nominal": 0.9, "bins": 20},
        "metrics": {"runs": 3, "delta_target": 0.5, "xi_target": 0.5},
        "seed": 3,
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    assert cli.main(["calibrate", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path)]) == 0

    dataset = data_ingest.load_dataset(root / "toy.csv")
    thresholds = wv.VolatilityThresholds.from_json(
        (root / "out" / "thresholds.json").read_text(encoding="utf-8")
    )
    calm_date = None
    for prev, rec in zip(dataset.day_records, dataset.day_records[1:]):
        variances = wv.factor_variances(dataset, rec)
        levels = {
            f: wv.classify_volatility(f, variances[f], thresholds) for f in wv.FACTORS
        }
        if wv.sigma_from_levels(levels) == 1.0:
            calm_date = rec.day
            break
    assert calm_date is not None

    # the worked example pairs the injected variances with the bundled
    # reference thresholds, not the corpus-calibrated ones
    reference = root / "reference_thresholds.json"
    reference.write_text(wv.default_thresholds().to_json(), encoding="utf-8")
    override_cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    override_cfg["paths"]["thresholds"] = str(reference)
    override_cfg["prediction"]["variance_override"] = {
        "temperature": 0.004, "irradiance": 0.07, "wind": 0.02,
    }
    override_path = root / "cfg_override.json"
    override_path.write_text(json.dumps(override_cfg), encoding="utf-8")

    return {
        "root": root,
        "cfg": cfg_path,
        "cfg_override": override_path,
        "out": root / "out",
        "dataset": dataset,
        "calm_date": calm_date,
    }


def test_calibrate_writes_thresholds(workspace):
    payload = json.loads((workspace["out"] / "thresholds.json").read_text(encoding="utf-8"))
    assert set(payload) == {"temperature", "irradiance", "wind"}
    for cuts in payload.values():
        assert set(cuts) == {"low_cut", "med_cut", "high_cut"}
        assert cuts["low_cut"] < cuts["med_cut"] < cuts["high_cut"]
    report = json.loads((workspace["out"] / "calibration_report.json").read_text(encoding="utf-8"))
    assert report["temperature"]["samples"] == 120


def test_calibrate_rerun_byte_identical(workspace):
    path = workspace["out"] / "thresholds.json"
    before = path.read_bytes()
    assert cli.main(["calibrate", "--config", str(workspace["cfg"])]) == 0
    assert path.read_bytes() == before


def test_calibrate_insufficient_days(tmp_path, capsys):
    synthetic.generate_market_csv(tmp_path / "small.csv", days=30, seed=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"paths": {"dataset": str(tmp_path / "small.csv"), "out_dir": str(tmp_path)}}),
        encoding="utf-8",
    )
    assert cli.main(["calibrate", "--config", str(cfg)]) == 1
    assert "samples" in capsys.readouterr().err


def test_train_checkpoint_loads(workspace):
    model = ctsgan.load_model(workspace["out"] / "model.json")
    assert model.is_trained
    log_lines = (workspace["out"] / "training_log.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(log_lines) == 3 * 80
    logged = [json.loads(line) for line in log_lines]
    assert [(r["phase"], r["iteration"]) for r in logged] == [
        (phase, it) for phase in (1, 2, 3) for it in range(80)
    ]
    phase3_keys = {"d_loss", "sup_loss", "adv_loss", "recon_loss", "critic_clip_fraction"}
    for record in logged:
        extra = phase3_keys if record["phase"] == 3 else set()
        assert set(record) == {"phase", "iteration", "loss"} | extra


def test_train_resume_skips_completed_phases(workspace, capsys):
    assert cli.main(["train", "--config", str(workspace["cfg"]), "--resume"]) == 0
    out = capsys.readouterr().out
    for phase in (1, 2, 3):
        assert f"phase {phase} already trained, skipping" in out


def test_train_corrupt_dataset_leaves_no_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,price\ngarbage,10\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"paths": {"dataset": str(bad), "checkpoint": str(tmp_path / "model.json"),
                              "out_dir": str(tmp_path)}}),
        encoding="utf-8",
    )
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert not (tmp_path / "model.json").exists()


def test_predict_calm_day(workspace, capsys):
    date = workspace["calm_date"].isoformat()
    assert cli.main(["predict", "--config", str(workspace["cfg"]), "--date", date]) == 0
    out = capsys.readouterr().out
    assert "sigma=1.000 reinforced=false" in out
    interval_path = workspace["out"] / f"interval_{date}.csv"
    lines = interval_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "timestep,lower,upper,lower_denorm_aud,upper_denorm_aud"
    assert len(lines) == 49


def test_predict_worked_example_override(workspace, capsys):
    date = workspace["calm_date"].isoformat()
    assert cli.main(["predict", "--config", str(workspace["cfg_override"]), "--date", date]) == 0
    assert "sigma=2.667 reinforced=true" in capsys.readouterr().out
    scen_path = workspace["out"] / f"scenarios_{date}.csv"
    lines = scen_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1 + 100  # 50 baseline + 50 reinforced
    tags = {line.split(",", 1)[0] for line in lines[1:]}
    assert tags == {"normal", "volatile"}


def _scenario_tags(path):
    return [line.split(",", 1)[0] for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def test_predict_scenarios_csv_layout(workspace):
    """scenarios_D.csv: the baseline rows, all tagged normal, then on a
    reinforced day as many rows tagged volatile."""
    count = json.loads(workspace["cfg"].read_text(encoding="utf-8"))["prediction"]["scenarios"]
    date = workspace["calm_date"].isoformat()
    path = workspace["out"] / f"scenarios_{date}.csv"
    assert cli.main(["predict", "--config", str(workspace["cfg_override"]), "--date", date]) == 0
    assert _scenario_tags(path) == ["normal"] * count + ["volatile"] * count
    assert cli.main(["predict", "--config", str(workspace["cfg"]), "--date", date]) == 0
    assert _scenario_tags(path) == ["normal"] * count


def test_predict_density_rows_sum_to_one(workspace):
    date = workspace["calm_date"].isoformat()
    assert cli.main(["predict", "--config", str(workspace["cfg"]), "--date", date]) == 0
    payload = json.loads((workspace["out"] / f"density_{date}.json").read_text(encoding="utf-8"))
    mass = np.asarray(payload["mass"])
    assert mass.shape == (48, 20)
    assert np.allclose(mass.sum(axis=1), 1.0, atol=1e-9)


def _config_in(workspace, tmp_path, **prediction):
    """The workspace config writing to ``tmp_path / "out"``, with
    ``prediction`` settings replaced."""
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    raw["paths"]["out_dir"] = str(tmp_path / "out")
    raw["prediction"].update(prediction)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    return str(cfg)


def test_failed_predict_writes_nothing(workspace, tmp_path, capsys):
    """A density that cannot be stacked fails predict before the interval
    or the scenarios are written."""
    cfg = _config_in(workspace, tmp_path, bins=1)
    capsys.readouterr()
    assert cli.main(["predict", "--config", cfg, "--date", workspace["calm_date"].isoformat()]) == 1
    assert capsys.readouterr().err.strip() == "error: need at least 2 bins, got 1"
    assert list((tmp_path / "out").iterdir()) == []


def test_report_pairs_interval_and_density_of_one_date(workspace, tmp_path, capsys):
    """report takes the density of the newest interval's date, and names
    that density when it is missing instead of taking an older one."""
    cfg = _config_in(workspace, tmp_path)
    out = tmp_path / "out"
    first = workspace["calm_date"]
    newest = (first + timedelta(days=1)).isoformat()
    for day in (first.isoformat(), newest):
        assert cli.main(["predict", "--config", cfg, "--date", day]) == 0
    assert cli.main(["evaluate", "--config", cfg, "--from", newest, "--to", newest]) == 0
    assert cli.main(["report", "--config", cfg]) == 0
    density = (out / f"density_{newest}.json").read_bytes()
    assert (out / "density_heatmap.json").read_bytes() == density
    assert json.loads((out / "report_manifest.json").read_text(encoding="utf-8"))["source_date"] == newest

    (out / f"density_{newest}.json").unlink()
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: required artifact missing: density_{newest}.json for interval_{newest}.csv"
    )


def test_evaluate_report_and_determinism(workspace, capsys):
    start = workspace["dataset"].day_records[1].day
    argv = [
        "evaluate", "--config", str(workspace["cfg"]),
        "--from", start.isoformat(), "--to", (start + timedelta(days=4)).isoformat(),
    ]
    assert cli.main(argv) == 0
    report_path = workspace["out"] / "metrics_report.json"
    first = report_path.read_bytes()
    payload = json.loads(first)
    assert len(payload["runs"]) == 3
    deltas = [r["ecpas"] for r in payload["runs"]]
    grid = np.linspace(0, 1, 21)
    phis = [np.mean([d >= g for d in deltas]) for g in grid]
    assert all(a >= b for a, b in zip(phis, phis[1:]))

    capsys.readouterr()
    assert cli.main(argv) == 0
    assert report_path.read_bytes() == first


def test_evaluate_missing_day_named(workspace, capsys):
    last = workspace["dataset"].day_records[-1].day
    beyond = (last + timedelta(days=3)).isoformat()
    argv = [
        "evaluate", "--config", str(workspace["cfg"]),
        "--from", last.isoformat(), "--to", beyond,
    ]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "missing actuals" in err or "no complete day" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["predict", "--date", "2024-13-01"], "--date '2024-13-01' is not a date YYYY-MM-DD"),
        (["predict", "--date", "yesterday"], "--date 'yesterday' is not a date YYYY-MM-DD"),
        (["evaluate", "--from", "2023-02-30", "--to", "2023-03-02"],
         "--from '2023-02-30' is not a date YYYY-MM-DD"),
        (["evaluate", "--from", "2023-02-27", "--to", "2023-3-2"],
         "--to '2023-3-2' is not a date YYYY-MM-DD"),
    ],
    ids=["month-13", "word", "february-30", "unpadded"],
)
def test_bad_date_flag_named(workspace, capsys, flags, message):
    capsys.readouterr()
    assert cli.main([flags[0], "--config", str(workspace["cfg"]), *flags[1:]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message} (")


def test_report_bundle(workspace):
    assert cli.main(["report", "--config", str(workspace["cfg"])]) == 0
    manifest = json.loads((workspace["out"] / "report_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["files"]) == sorted(
        ["spike_histogram.csv", "density_heatmap.json", "interval_overlay.csv", "report_manifest.json"]
    )
    for name in manifest["files"]:
        assert (workspace["out"] / name).exists()
    hist = (workspace["out"] / "spike_histogram.csv").read_text(encoding="utf-8").strip().splitlines()
    assert hist[0] == "half_hour_index,count"
    assert len(hist) == 49
    counts = np.array([int(line.split(",")[1]) for line in hist[1:]])
    assert counts[:24].sum() == 0 and counts[39:].sum() == 0  # afternoon-only spikes
    assert counts.sum() > 0


def _numeric_fields(path, skip_columns):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return [field for line in lines[1:] for field in line.split(",")[skip_columns:]]


def test_artifact_csvs_hold_plain_numbers(workspace):
    """Every number in the predict and report CSVs parses with float(), also
    after a second report over the first one's outputs."""
    date = workspace["calm_date"]
    cfg = str(workspace["cfg"])
    assert cli.main(["predict", "--config", cfg, "--date", date.isoformat()]) == 0
    assert cli.main([
        "evaluate", "--config", cfg, "--from", date.isoformat(), "--to", date.isoformat(),
    ]) == 0
    for _ in range(2):
        assert cli.main(["report", "--config", cfg]) == 0
    out = workspace["out"]
    for name, skip, count in (
        (f"interval_{date.isoformat()}.csv", 0, 48 * 5),
        (f"scenarios_{date.isoformat()}.csv", 1, 50 * 48),
        ("interval_overlay.csv", 0, 48 * 4),
    ):
        fields = _numeric_fields(out / name, skip)
        assert len(fields) == count, name
        values = [float(field) for field in fields]
        assert all(np.isfinite(values)), name


def test_report_missing_artifacts(tmp_path, capsys):
    synthetic.generate_market_csv(tmp_path / "toy.csv", days=3, seed=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"paths": {"dataset": str(tmp_path / "toy.csv"), "out_dir": str(tmp_path / "empty")}}),
        encoding="utf-8",
    )
    assert cli.main(["report", "--config", str(cfg)]) == 1
    assert "missing" in capsys.readouterr().err.lower()


def test_calibrate_and_train_print_load_report(workspace, capsys):
    report = workspace["dataset"].report
    line = (
        f"loaded {report.days_loaded} days from {report.rows_consumed} rows; "
        f"dropped {report.days_dropped} incomplete days"
    )
    assert line == "loaded 120 days from 5760 rows; dropped 0 incomplete days"
    capsys.readouterr()
    assert cli.main(["calibrate", "--config", str(workspace["cfg"])]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line
    assert cli.main(["train", "--config", str(workspace["cfg"]), "--resume"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line


@pytest.mark.parametrize(
    "override, message",
    [
        ({"temperature": 0.004, "wind": 0.02}, "variance_override has no value for factor 'irradiance'"),
        ({"temperature": 0.004, "irradiance": "high", "wind": 0.02},
         "variance_override value 'high' for factor 'irradiance' is not a number"),
        ([0.004, 0.07, 0.02],
         "variance_override must map each factor to a number, got [0.004, 0.07, 0.02]"),
        ({"temperature": float("nan"), "irradiance": float("nan"), "wind": 0.02},
         "variance_override value nan for factor 'temperature' is not finite"),
        ({"temperature": 0.004, "irradiance": 0.07, "wind": float("-inf")},
         "variance_override value -inf for factor 'wind' is not finite"),
    ],
    ids=["missing-factor", "non-numeric", "not-a-map", "nan", "minus-infinity"],
)
def test_predict_bad_variance_override_named(workspace, tmp_path, capsys, override, message):
    raw = json.loads(workspace["cfg_override"].read_text(encoding="utf-8"))
    raw["prediction"]["variance_override"] = override
    raw["paths"]["out_dir"] = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    date = workspace["calm_date"].isoformat()
    capsys.readouterr()
    assert cli.main(["predict", "--config", str(cfg), "--date", date]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("prediction", "scenarios", "many", "cannot read 'many' as int"),
        ("training", "learning_rate", "fast", "cannot read 'fast' as float"),
        ("prediction", "scenarios", float("inf"), "cannot read inf as int"),
        ("metrics", "delta_target", float("nan"), "nan is not a finite number"),
        ("training", "dispersion_gain", float("nan"), "nan is not a finite number"),
        ("training", "learning_rate", float("inf"), "inf is not a finite number"),
        ("paths", "checkpoint", 5, "cannot read 5 as Path"),
        ("paths", "thresholds", 5, "cannot read 5 as Path"),
        ("metrics", "runs", 2.9, "2.9 is not an integer"),
        ("prediction", "bins", True, "True is not an integer"),
    ],
    ids=[
        "prediction-scenarios-many-int", "training-learning_rate-fast-float",
        "prediction-scenarios-inf-int", "metrics-delta_target-nan", "training-dispersion_gain-nan",
        "training-learning_rate-inf", "paths-checkpoint-int", "paths-thresholds-int",
        "metrics-runs-fraction", "prediction-bins-boolean",
    ],
)
def test_config_value_that_does_not_cast_is_named(tmp_path, capsys, section, key, value, message):
    """A value that does not cast to its setting's type, a float setting
    that is NaN or infinite (JSON parsers accept both), or a fraction or
    boolean given to an int setting is refused by name."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    assert cli.main(["calibrate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip() == f"error: config key {key!r}: {message}"


def test_config_unknown_key_is_named(tmp_path, capsys):
    """A misspelt key fails instead of leaving its setting at the default,
    and so does a config that is not made of JSON objects."""
    for raw, message in (
        ({"training": {"iteration_per_phase": 2}}, "config section 'training' has unknown key 'iteration_per_phase'"),
        ({"prediction": {"batch_size": 7}}, "config section 'prediction' has unknown key 'batch_size'"),
        ({"predicton": {"scenarios": 7}}, "config has unknown key 'predicton'"),
        ({"paths": ["dataset.csv"]}, "config section 'paths' must be a JSON object"),
        ([{"seed": 1}], "config file must hold a JSON object"),
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["calibrate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"


def test_config_whole_number_float_reads_as_int(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metrics": {"runs": 2.0}}), encoding="utf-8")
    runs = cli.load_config(cfg).runs
    assert runs == 2 and type(runs) is int


def test_config_training_seed_is_ignored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "training": {"seed": 9}}), encoding="utf-8")
    assert cli.load_config(cfg).seed == 4


_NO_MED_CUT = json.dumps(
    {f: {"low_cut": 0.1, "high_cut": 0.3} for f in ("temperature", "irradiance", "wind")}
)


@pytest.mark.parametrize(
    "command, key, text",
    [
        ("calibrate", "dataset", None),
        ("predict", "thresholds", None),
        ("evaluate", "thresholds", None),
        ("predict", "thresholds", "{not json"),
        ("evaluate", "thresholds", "{not json"),
        ("predict", "thresholds", _NO_MED_CUT),
        ("evaluate", "thresholds", _NO_MED_CUT),
    ],
    ids=[
        "calibrate-missing-dataset",
        "predict-missing-thresholds",
        "evaluate-missing-thresholds",
        "predict-non-json-thresholds",
        "evaluate-non-json-thresholds",
        "predict-thresholds-without-med_cut",
        "evaluate-thresholds-without-med_cut",
    ],
)
def test_unreadable_input_file_named(workspace, tmp_path, capsys, command, key, text):
    """A missing or malformed input file fails with one error line naming it."""
    bad = tmp_path / f"bad_{key}"
    if text is not None:
        bad.write_text(text, encoding="utf-8")
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    raw["paths"][key] = str(bad)
    raw["paths"]["out_dir"] = str(tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    day = workspace["calm_date"].isoformat()
    dates = {"calibrate": [], "predict": ["--date", day], "evaluate": ["--from", day, "--to", day]}
    capsys.readouterr()
    assert cli.main([command, "--config", str(cfg), *dates[command]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {key} {bad} (")
    assert err.count("\n") == 1


def test_evaluate_writes_day_and_season_breakdown(workspace, capsys):
    """metrics_report.json holds each day's scores per run and each season's
    means, and a run's score is the mean of its days' scores."""
    days = ["2021-02-26", "2021-02-27", "2021-02-28", "2021-03-01", "2021-03-02"]
    capsys.readouterr()
    assert cli.main([
        "evaluate", "--config", str(workspace["cfg"]), "--from", days[0], "--to", days[-1],
    ]) == 0
    out = capsys.readouterr().out
    payload = json.loads((workspace["out"] / "metrics_report.json").read_text(encoding="utf-8"))

    assert [row["date"] for row in payload["days"]] == days
    assert [row["season"] for row in payload["days"]] == ["summer"] * 3 + ["autumn"] * 2
    runs = len(payload["runs"])
    for key in ("ecpas", "eawapi"):
        per_day = np.array([row[key] for row in payload["days"]])
        assert per_day.shape == (5, runs)
        run_values = [run[key] for run in payload["runs"]]
        assert run_values == pytest.approx(per_day.mean(axis=0).tolist(), abs=1e-12)
        for season, columns in (("summer", slice(0, 3)), ("autumn", slice(3, 5))):
            assert payload["seasons"][season][key] == pytest.approx(per_day[columns].mean(), abs=1e-12)
    assert {s: row["days"] for s, row in payload["seasons"].items()} == {"autumn": 2, "summer": 3}
    season_lines = [line.split()[:2] for line in out.splitlines() if line.split()[:1] in (["autumn"], ["summer"])]
    assert season_lines == [["autumn", "2"], ["summer", "3"]]


def test_day_after_a_dropped_day_is_named(workspace, tmp_path, capsys):
    """A day whose previous day was dropped as incomplete cannot be
    predicted or scored: both commands name the missing previous day."""
    lines = (workspace["root"] / "toy.csv").read_text(encoding="utf-8").splitlines()
    gap = "2021-02-09T13:30:00"
    (tmp_path / "gap.csv").write_text(
        "\n".join(line for line in lines if not line.startswith(gap)) + "\n", encoding="utf-8"
    )
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    raw["paths"]["dataset"] = str(tmp_path / "gap.csv")
    raw["paths"]["out_dir"] = str(tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    for dates in (["--date", "2021-02-10"], ["--from", "2021-02-10", "--to", "2021-02-11"]):
        command = "predict" if dates[0] == "--date" else "evaluate"
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfg), *dates]) == 1
        assert capsys.readouterr().err.strip() == "error: no complete day 2021-02-09 in dataset"


def test_train_passes_config_where_the_benchmark_tracer_reads_it(workspace, tmp_path, monkeypatch):
    """bench/tracer.py reads a trainer's config as its third positional
    argument or, when fewer are given, by the keyword "config"."""
    seen = []

    def recorder(flag):
        def train(*args, **kwargs):
            seen.append(args[2] if len(args) > 2 else kwargs.get("config"))
            args[0].training_flags[flag] = True
            return args[0]
        return train

    trainers = ("train_phase1_autoencoder", "train_phase2_supervised", "train_phase3_joint")
    for number, name in enumerate(trainers, start=1):
        monkeypatch.setattr(ctsgan, name, recorder(f"phase{number}"))
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    raw["paths"]["checkpoint"] = str(tmp_path / "model.json")
    raw["paths"]["out_dir"] = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    assert len(seen) == 3
    assert all(isinstance(config, ctsgan.TrainingConfig) for config in seen)


def test_benchmark_tracer_reads_every_hook_on_a_cli_chain(workspace, tmp_path):
    """bench/tracer.py wraps a calibrate, train and evaluate chain with no
    hook error and no missing entry point, and each trainer span carries the
    configured iteration count."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    raw["paths"] = {"dataset": raw["paths"]["dataset"], "out_dir": str(tmp_path)}
    raw["training"]["iterations_per_phase"] = 3
    raw["metrics"]["runs"] = 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    day = workspace["calm_date"].isoformat()
    tracer = tracer_module.Tracer(roles={})
    with tracer.window("chain"):
        for command, *dates in (["calibrate"], ["train"], ["evaluate", "--from", day, "--to", day]):
            assert cli.main([command, "--config", str(cfg), *dates]) == 0
    assert tracer.hook_errors == 0
    assert tracer.missing == []
    trainers = [span for span in tracer.spans if span.name.startswith("ctsgan.train_phase")]
    assert [span.attrs.get("iterations") for span in trainers] == [3, 3, 3]


def test_resume_after_a_crash_before_the_checkpoint_logs_each_phase_once(
    workspace, tmp_path, monkeypatch
):
    """train writes a phase's log lines before its checkpoint. When the save
    after phase 2 fails, --resume reruns phase 2, keeps only phase 1's lines
    and ends with the log and checkpoint of an uninterrupted run."""
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    raw["paths"]["checkpoint"] = str(tmp_path / "model.json")
    raw["paths"]["out_dir"] = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    save_model = ctsgan.save_model
    saves = []

    def save_once(model, path):
        saves.append(path)
        if len(saves) == 2:
            raise OSError("disk full")
        save_model(model, path)

    monkeypatch.setattr(ctsgan, "save_model", save_once)
    with pytest.raises(OSError, match="disk full"):
        cli.main(["train", "--config", str(cfg)])
    log_path = tmp_path / "training_log.jsonl"
    phases = [json.loads(line)["phase"] for line in log_path.read_text(encoding="utf-8").splitlines()]
    assert phases == [1] * 80 + [2] * 80

    monkeypatch.setattr(ctsgan, "save_model", save_model)
    assert cli.main(["train", "--config", str(cfg), "--resume"]) == 0
    logged = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
    assert [(r["phase"], r["iteration"]) for r in logged] == [
        (phase, it) for phase in (1, 2, 3) for it in range(80)
    ]
    for name in ("training_log.jsonl", "model.json"):
        assert (tmp_path / name).read_bytes() == (workspace["out"] / name).read_bytes(), name
