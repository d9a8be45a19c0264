import importlib.util
import json
import os
import shutil
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from priceband import cli, ctsgan, data_ingest, synthetic
from priceband import weather_volatility as wv

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, reference_thresholds):
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
    first_day = {}  # reinforced (sigma > 1) or not -> the first such day
    sigmas = wv.noise_sigma(wv.factor_variances(dataset), thresholds)
    for k in range(1, dataset.n_days):
        first_day.setdefault(bool(sigmas[k] > 1.0), dataset.days[k])
    assert set(first_day) == {False, True}

    # the worked example pairs the injected variances with its reference
    # thresholds, not the corpus-calibrated ones
    reference = root / "reference_thresholds.json"
    reference.write_text(reference_thresholds.to_json(), encoding="utf-8")
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
        "calm_date": first_day[False],
        "reinforced_date": first_day[True],
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


@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"hidden_dim": 9, "latent_dim": 5}, "has hidden_dim 8, config has 9"),
        ({"hidden_dim": 8, "latent_dim": 5}, "has latent_dim 4, config has 5"),
    ],
    ids=["hidden-and-latent", "latent-only"],
)
def test_train_resume_refuses_a_checkpoint_of_other_sizes(
    workspace, tmp_path, capsys, sizes, message
):
    """--resume on a checkpoint whose hidden or latent size is not the
    config's fails naming both values and leaves the checkpoint as it was."""
    checkpoint = tmp_path / "model.json"
    checkpoint.write_bytes((workspace["out"] / "model.json").read_bytes())
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    raw["paths"]["checkpoint"] = str(checkpoint)
    raw["paths"]["out_dir"] = str(tmp_path)
    raw["training"].update(sizes)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--resume"]) == 1
    assert capsys.readouterr().err.strip() == f"error: checkpoint {checkpoint} {message}"
    assert checkpoint.read_bytes() == (workspace["out"] / "model.json").read_bytes()


def test_train_resume_refuses_a_checkpoint_whose_critic_report_lacks_a_score(
    workspace, tmp_path, capsys
):
    """--resume on a finished checkpoint whose adversarial report has no
    d_score_real fails with one error line, not a traceback."""
    payload = json.loads((workspace["out"] / "model.json").read_text(encoding="utf-8"))
    del payload["adversarial_report"]["d_score_real"]
    checkpoint = tmp_path / "model.json"
    checkpoint.write_text(json.dumps(payload), encoding="utf-8")
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    raw["paths"]["checkpoint"] = str(checkpoint)
    raw["paths"]["out_dir"] = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--resume"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == "error: model checkpoint adversarial_report.d_score_real: missing"


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


@pytest.mark.parametrize("kind", ["calm", "reinforced"])
def test_predict_reads_no_price_of_the_target_day(workspace, tmp_path, capsys, kind):
    """Every price of the target day replaced by another finite value, one
    of them above PRICE_CLIP_HI, leaves the three predict artifacts
    byte-equal: no price of the day being predicted enters its band."""
    day = workspace[f"{kind}_date"].isoformat()
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    lines = Path(raw["paths"]["dataset"]).read_text(encoding="utf-8").splitlines(keepends=True)
    price = lines[0].split(",").index("price")
    edited = 0
    for i, line in enumerate(lines):
        if line.startswith(day):
            fields = line.split(",")
            old = float(fields[price])
            new = data_ingest.PRICE_CLIP_HI + 250.0 if edited == 0 else old + 123.25
            assert new != old
            fields[price] = repr(new)
            lines[i] = ",".join(fields)
            edited += 1
    assert edited == 48
    (tmp_path / "edited.csv").write_text("".join(lines), encoding="utf-8")

    artifacts = {}
    for name, dataset in (("true", raw["paths"]["dataset"]), ("edited", str(tmp_path / "edited.csv"))):
        raw["paths"].update(dataset=dataset, out_dir=str(tmp_path / name))
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["predict", "--config", str(cfg), "--date", day]) == 0
        assert f"reinforced={'true' if kind == 'reinforced' else 'false'}" in capsys.readouterr().out
        artifacts[name] = {
            f: (tmp_path / name / f).read_bytes()
            for f in (f"interval_{day}.csv", f"density_{day}.json", f"scenarios_{day}.csv")
        }
    assert artifacts["edited"] == artifacts["true"]


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


def test_report_skips_interval_files_not_named_for_a_date(workspace, tmp_path, capsys):
    """A stray interval_*.csv whose name holds no date, even one that sorts
    after the newest dated interval, is not taken for a predict output."""
    cfg = _config_in(workspace, tmp_path)
    out = tmp_path / "out"
    day = workspace["calm_date"].isoformat()
    assert cli.main(["predict", "--config", cfg, "--date", day]) == 0
    assert cli.main(["evaluate", "--config", cfg, "--from", day, "--to", day]) == 0
    (out / f"interval_{day}_old.csv").write_bytes((out / f"interval_{day}.csv").read_bytes())
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg]) == 0
    assert json.loads((out / "report_manifest.json").read_text(encoding="utf-8"))["source_date"] == day


def test_evaluate_report_and_determinism(workspace, capsys):
    start = workspace["dataset"].days[1]
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


def test_evaluate_ignores_the_variance_override(workspace, tmp_path):
    """evaluate takes each day's sigma from the dataset: a config that
    differs only in a variance override that would make the calm day's sigma
    3 writes the same metrics_report.json."""
    override = _config_in(workspace, tmp_path, variance_override={f: 1.0 for f in wv.FACTORS})
    day = workspace["calm_date"].isoformat()
    for cfg, out in ((str(workspace["cfg"]), "plain"), (override, "out")):
        argv = ["evaluate", "--config", cfg, "--from", day, "--to", day, "--out", str(tmp_path / out)]
        assert cli.main(argv) == 0
    plain, overridden = (tmp_path / out / "metrics_report.json" for out in ("plain", "out"))
    assert overridden.read_bytes() == plain.read_bytes()


def test_evaluate_missing_day_named(workspace, capsys):
    last = workspace["dataset"].days[-1]
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


def test_report_bundle(workspace, predicted_out, tmp_path):
    source, _ = predicted_out
    out = tmp_path / "out"
    shutil.copytree(source, out)
    assert cli.main(["report", "--config", _config_in(workspace, tmp_path)]) == 0
    manifest = json.loads((out / "report_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["files"]) == sorted(
        ["spike_histogram.csv", "density_heatmap.json", "interval_overlay.csv", "report_manifest.json"]
    )
    for name in manifest["files"]:
        assert (out / name).exists()
    hist = (out / "spike_histogram.csv").read_text(encoding="utf-8").strip().splitlines()
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


@pytest.fixture(scope="module")
def predicted_out(workspace, tmp_path_factory):
    """An out dir holding one day's predict outputs and an evaluation."""
    root = tmp_path_factory.mktemp("predicted")
    cfg = _config_in(workspace, root)
    day = workspace["calm_date"].isoformat()
    assert cli.main(["predict", "--config", cfg, "--date", day]) == 0
    assert cli.main(["evaluate", "--config", cfg, "--from", day, "--to", day]) == 0
    return root / "out", day


def _edit_row(line_no, edit):
    """An edit of ``interval_D.csv`` giving its line ``line_no`` (the header
    is line 1) as ``edit`` of that line's fields."""
    def apply(lines):
        lines[line_no - 1] = ",".join(edit(lines[line_no - 1].split(",")))
        return lines
    return apply


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_row(4, lambda f: ["x", *f[1:]]), "line 4: timestep 'x', expected 2"),
        (lambda lines: lines + ["48" + lines[-1][2:]], "line 50: more than 48 rows"),
        (_edit_row(1, lambda f: [name.replace("lower", "low") for name in f]),
         "line 1: header missing column 'lower'"),
        (_edit_row(2, lambda f: ["-1", *f[1:]]), "line 2: timestep '-1', expected 0"),
        (_edit_row(7, lambda f: f[:2]), "line 7: 2 fields, too few for timestep, lower and upper"),
        (_edit_row(9, lambda f: [f[0], f[2], f[1], *f[3:]]), "line 9: bounds "),
        (_edit_row(9, lambda f: [f[0], "nan", *f[2:]]), "line 9: bounds 'nan', "),
        (lambda lines: lines[:-1], "holds 47 rows, expected 48"),
    ],
    ids=["word-timestep", "49th-row", "no-lower-column", "negative-timestep", "short-row",
         "lower-above-upper", "non-finite", "47-rows"],
)
def test_report_refuses_a_malformed_interval_file(
    workspace, predicted_out, tmp_path, capsys, edit, message
):
    """A malformed interval file fails report with one error naming the file
    and line, before any file of the bundle is written."""
    source, day = predicted_out
    out = tmp_path / "out"
    shutil.copytree(source, out)
    interval = out / f"interval_{day}.csv"
    lines = interval.read_text(encoding="utf-8").splitlines()
    interval.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    before = sorted(out.iterdir())
    capsys.readouterr()
    assert cli.main(["report", "--config", _config_in(workspace, tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {interval}"), err
    assert message in err[0]
    assert sorted(out.iterdir()) == before


def _density(edges, mass) -> bytes:
    return json.dumps({"bin_edges": edges, "mass": mass}).encode("utf-8")


_MASS = [[0.5, 0.5]] * 48  # two bins on each of the 48 half-hours


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff" + b'{"bin_edges": [], "mass": []}', "error: cannot read {path} ('utf-8' codec can't decode"),
        (b"not json", "error: {path}: not JSON (Expecting value: line 1 column 1 (char 0))"),
        (b'{"bin_edges": [0.0, 1.0]}', "error: {path} mass: missing"),
        (_density(1, _MASS), "error: {path} bin_edges: expected a list, got 1"),
        (_density([0.0, 0.5, 1.0], None), "error: {path} mass: expected a list, got null"),
        (_density([0.0, 0.5, 1.0], _MASS[1:]), "error: {path} mass: expected 48 rows, got 47"),
        (_density([0.0, 0.5, 1.0], _MASS[1:] + [[1.0]]),
         "error: {path} mass[47]: expected a list of 2 numbers, got [1.0]"),
        (_density([0.0, 0.5, 0.5], _MASS), "error: {path} bin_edges[2]: expected an edge above 0.5, got 0.5"),
        (_density([0.0, 1.0], [[1.0]] * 48), "error: {path} bin_edges: expected at least 3 edges, got 2"),
    ],
    ids=[
        "invalid-utf8", "not-json", "no-mass", "edges-not-a-list", "mass-null", "47-mass-rows",
        "row-a-value-short", "edges-not-increasing", "two-edges",
    ],
)
def test_report_refuses_a_malformed_density_file(
    workspace, predicted_out, tmp_path, capsys, content, message
):
    """A density file that is not a UTF-8 JSON object with at least 3
    increasing bin_edges and 48 mass rows of one number per bin fails report
    with one error naming it and the key path, before any file of the bundle
    is written."""
    source, day = predicted_out
    out = tmp_path / "out"
    shutil.copytree(source, out)
    density = out / f"density_{day}.json"
    density.write_bytes(content)
    before = sorted(out.iterdir())
    capsys.readouterr()
    assert cli.main(["report", "--config", _config_in(workspace, tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message.format(path=density)), err
    assert sorted(out.iterdir()) == before


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
        ({"temperature": 0.004, "wind": 0.02}, "variance_override.irradiance: missing"),
        ({"temperature": 0.004, "irradiance": "high", "wind": 0.02},
         'variance_override.irradiance: expected a finite number >= 0, got "high"'),
        ([0.004, 0.07, 0.02], "variance_override: expected an object, got [0.004, 0.07, 0.02]"),
        ({"temperature": float("nan"), "irradiance": float("nan"), "wind": 0.02},
         "variance_override.temperature: expected a finite number >= 0, got NaN"),
        ({"temperature": 0.004, "irradiance": 0.07, "wind": float("-inf")},
         "variance_override.wind: expected a finite number >= 0, got -Infinity"),
        ({"temperature": True, "irradiance": False, "wind": 0.02},
         "variance_override.temperature: expected a finite number >= 0, got true"),
        ({"temperature": 0.004, "irradiance": False, "wind": 0.02},
         "variance_override.irradiance: expected a finite number >= 0, got false"),
    ],
    ids=["missing-factor", "non-numeric", "not-a-map", "nan", "minus-infinity", "booleans",
         "false"],
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
    assert capsys.readouterr().err.strip() == f"error: config prediction.{message}"


@pytest.mark.parametrize("command", ["calibrate", "train", "predict", "evaluate", "report"])
def test_every_command_refuses_a_negative_variance_override(tmp_path, capsys, command):
    """A negative override variance fails when the config is read, naming
    the key and the bound, whichever command reads it."""
    override = {"temperature": -0.001, "irradiance": 0.07, "wind": 0.02}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prediction": {"variance_override": override}}), encoding="utf-8")
    dates = ["--date", "2021-03-02", "--from", "2021-03-02", "--to", "2021-03-02"]
    assert cli.main([command, "--config", str(cfg), *dates]) == 1
    assert capsys.readouterr().err == (
        "error: config prediction.variance_override.temperature: "
        "expected a finite number >= 0, got -0.001\n"
    )


# 400 digits: a JSON integer no float holds
HUGE = 10**400


@pytest.mark.parametrize(
    "file, edit, where",
    [
        ("thresholds", lambda t: t["wind"].update(high_cut=float("inf")),
         "thresholds wind.high_cut: expected a finite number"),
        ("thresholds", lambda t: t["wind"].update(high_cut=HUGE),
         "thresholds wind.high_cut: expected a finite number"),
        ("checkpoint", lambda m: m["latent_shift"].__setitem__(2, HUGE),
         "model checkpoint latent_shift[2]: expected a finite number"),
        ("config", lambda c: c["prediction"]["variance_override"].update(wind=HUGE),
         "config prediction.variance_override.wind: expected a finite number >= 0"),
    ],
    ids=["infinite-cut", "400-digit-cut", "400-digit-latent-shift", "400-digit-variance-override"],
)
def test_predict_refuses_a_number_no_float_holds(workspace, tmp_path, capsys, file, edit, where):
    """``Infinity``, or an integer too large for a float, in the thresholds,
    the checkpoint or the config fails with one error line naming the key,
    not a traceback, and an infinite high cut does not load as a level that
    no day can reach."""
    raw = json.loads(workspace["cfg_override"].read_text(encoding="utf-8"))
    raw["paths"]["out_dir"] = str(tmp_path)
    if file == "config":
        edit(raw)
    else:
        source = Path(raw["paths"][file])
        payload = json.loads(source.read_text(encoding="utf-8"))
        edit(payload)
        raw["paths"][file] = str(tmp_path / source.name)
        (tmp_path / source.name).write_text(json.dumps(payload), encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    date = workspace["calm_date"].isoformat()
    capsys.readouterr()
    assert cli.main(["predict", "--config", str(cfg), "--date", date]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{where}, got " in err[0]


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("prediction", "scenarios", "many", 'expected an integer, got "many"'),
        ("training", "learning_rate", "fast", 'expected a finite number, got "fast"'),
        ("prediction", "scenarios", float("inf"), "expected an integer, got Infinity"),
        ("metrics", "delta_target", float("nan"), "expected a finite number, got NaN"),
        ("training", "dispersion_gain", float("nan"), "expected a finite number, got NaN"),
        ("training", "learning_rate", float("inf"), "expected a finite number, got Infinity"),
        ("paths", "checkpoint", 5, "expected a string, got 5"),
        ("paths", "thresholds", 5, "expected a string, got 5"),
        ("metrics", "runs", 2.9, "expected an integer, got 2.9"),
        ("prediction", "bins", True, "expected an integer, got true"),
        ("training", "learning_rate", True, "expected a finite number, got true"),
        ("metrics", "delta_target", True, "expected a finite number, got true"),
        ("prediction", "nominal", False, "expected a finite number, got false"),
        ("metrics", "runs", 2.0, "expected an integer, got 2.0"),
        ("prediction", "scenarios", "500", 'expected an integer, got "500"'),
    ],
    ids=[
        "prediction-scenarios-many-int", "training-learning_rate-fast-float",
        "prediction-scenarios-inf-int", "metrics-delta_target-nan", "training-dispersion_gain-nan",
        "training-learning_rate-inf", "paths-checkpoint-int", "paths-thresholds-int",
        "metrics-runs-fraction", "prediction-bins-boolean", "training-learning_rate-boolean",
        "metrics-delta_target-boolean", "prediction-nominal-boolean", "metrics-runs-whole-float",
        "prediction-scenarios-numeric-string",
    ],
)
def test_config_value_that_does_not_cast_is_named(tmp_path, capsys, section, key, value, message):
    """A value of another JSON type than its setting's is refused by name,
    not converted: a string or a boolean given to a number, a number setting
    that is NaN or infinite (JSON parsers accept both), or a fraction, a
    whole-number float such as 2.0 or a numeric string given to an integer
    setting."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    assert cli.main(["calibrate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip() == f"error: config {section}.{key}: {message}"


def test_config_unknown_key_is_named(tmp_path, capsys):
    """A misspelt key, or a key outside its setting's own section, fails
    instead of leaving its setting at the default or overriding another
    section, and so does a config that is not made of JSON objects."""
    for raw, message in (
        ({"training": {"iteration_per_phase": 2}}, "config training: unknown key 'iteration_per_phase'"),
        ({"prediction": {"batch_size": 7}}, "config prediction: unknown key 'batch_size'"),
        ({"paths": {"runs": 3}}, "config paths: unknown key 'runs'"),
        ({"metrics": {"dataset": "x.csv"}}, "config metrics: unknown key 'dataset'"),
        ({"training": {"scenarios": 7}}, "config training: unknown key 'scenarios'"),
        ({"prediction": {"hidden_dim": 8}}, "config prediction: unknown key 'hidden_dim'"),
        ({"predicton": {"scenarios": 7}}, "config: unknown key 'predicton'"),
        ({"paths": ["dataset.csv"]}, 'config paths: expected an object, got ["dataset.csv"]'),
        ([{"seed": 1}], 'config: expected an object, got [{"seed": 1}]'),
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["calibrate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize(
    "content, reason",
    [
        (b'{"seed": 1,', "Expecting property name enclosed in double quotes: line 1 column 12 (char 11)"),
        ('\ufeff{"seed": 1}'.encode("utf-8"),
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b'\xff{"seed": 1}', "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["truncated", "utf8-bom", "invalid-utf8"],
)
def test_config_that_is_not_json_is_named(tmp_path, capsys, content, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert cli.main(["calibrate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: config file {cfg}: not JSON ({reason})\n"


def test_missing_config_is_a_missing_artifact(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    assert cli.main(["calibrate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: required artifact missing: config file {cfg} (") and err.count("\n") == 1


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

    # every printed number is the report's value at the printed precision
    lines = out.splitlines()
    assert lines[0].split() == ["group", "days", "ecpas", "eawapi"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:4]}
    for season, row in payload["seasons"].items():
        assert rows[season] == [str(row["days"]), f"{row['ecpas']:.4f}", f"{row['eawapi']:.4f}"]
    means = [np.mean([run[key] for run in payload["runs"]]) for key in ("ecpas", "eawapi")]
    assert rows["overall"] == ["5", *(f"{mean:.4f}" for mean in means)]
    targets = payload["targets"]
    assert lines[4] == (
        f"phi(delta'={targets['delta_prime']}) = {payload['phi_coverage']:.3f}   "
        f"phi(xi'={targets['xi_prime']}) = {payload['phi_width']:.3f}"
    )
    assert lines[5] == (
        f"achieved at 90% confidence: ecpas >= {payload['achieved_delta_90']:.4f}, "
        f"eawapi <= {payload['achieved_xi_90']:.4f}"
    )


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
    """The CLI passes each trainer's config by the keyword "config".
    bench/tracer.py reads index 2 of a trainer's positional arguments, which
    is ``targets`` and not the config, so the keyword is the only form it
    reads correctly until the benchmark's index is fixed."""
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
    workspace, tmp_path, monkeypatch, capsys
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
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
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


# --- writes the filesystem refuses ------------------------------------------------------------

def _config_out(workspace, tmp_path, training=(), **paths):
    """The workspace config writing to ``tmp_path / "out"``, with thresholds
    at their default there, ``paths`` set and ``training`` settings
    replaced."""
    raw = json.loads(workspace["cfg"].read_text(encoding="utf-8"))
    del raw["paths"]["thresholds"]
    raw["paths"].update(out_dir=str(tmp_path / "out"), **paths)
    raw["training"].update(training)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize(
    "command, name",
    [
        ("calibrate", "thresholds.json"),
        ("predict", "interval_{day}.csv"),
        ("predict", "density_{day}.json"),
        ("predict", "scenarios_{day}.csv"),
    ],
    ids=["calibrate", "predict", "predict-density", "predict-scenarios"],
)
def test_refused_artifact_write_is_one_error_line(workspace, tmp_path, capsys, command, name):
    """An artifact whose path is a directory ends the command in one error
    line naming the file, and leaves no tmp file in the out dir. predict
    writes its interval, the file report selects by, last, so a refused
    write leaves no interval."""
    day = workspace["calm_date"].isoformat()
    out = tmp_path / "out"
    blocked = out / name.format(day=day)
    if command == "calibrate":
        cfg, flags = _config_out(workspace, tmp_path), []
    else:
        cfg = _config_out(workspace, tmp_path, thresholds=str(workspace["out"] / "thresholds.json"))
        flags = ["--date", day]
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg, *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(blocked) in err[0], err
    assert not list(out.glob("*.tmp")) and not (out / f"interval_{day}.csv").is_file()
    if command == "calibrate":
        assert [p.name for p in out.iterdir()] == [blocked.name]


def test_train_makes_a_missing_checkpoint_directory(workspace, tmp_path):
    checkpoint = tmp_path / "models" / "run1" / "model.json"
    cfg = _config_out(
        workspace, tmp_path, training={"iterations_per_phase": 2}, checkpoint=str(checkpoint)
    )
    assert cli.main(["train", "--config", cfg]) == 0
    assert ctsgan.load_model(checkpoint).is_trained
    assert [p.name for p in checkpoint.parent.iterdir()] == ["model.json"]


def test_priceband_log_changes_nothing(workspace, tmp_path):
    """The environment variable that once set a log level is not read: a
    calibrate with ``PRICEBAND_LOG=verbose`` exits and prints as one
    without it."""
    cfg = _config_out(workspace, tmp_path)
    plain, verbose = (
        subprocess.run(
            [sys.executable, "-m", "priceband.cli", "calibrate", "--config", cfg],
            env=env, capture_output=True, text=True, timeout=120,
        )
        for env in (_fresh_env(), _fresh_env(PRICEBAND_LOG="verbose"))
    )
    assert (plain.returncode, plain.stderr) == (0, "")
    assert (verbose.returncode, verbose.stdout, verbose.stderr) == (0, plain.stdout, "")


# --- one BLAS thread unless the environment names a count --------------------------------------

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ONE_CPU = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="one CPU: BLAS starts one thread there anyway, so the default is not observable",
)


def _fresh_env(**blas):
    """This process's environment without the BLAS thread variables (importing
    the CLI here set them), plus ``blas`` and the package on the path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**env, **blas}


@ONE_CPU
def test_train_uses_one_blas_thread_by_default(tmp_path):
    """A paper-dims train with the BLAS thread variables unset writes the
    model.json bytes of one with them set to 1; with one BLAS thread per CPU
    the backward GEMMs round differently and the bytes differ."""
    synthetic.generate_market_csv(tmp_path / "toy.csv", days=20, seed=5)
    models = []
    for tag, blas in (("unset", {}), ("one", dict.fromkeys(BLAS_VARIABLES, "1"))):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({
            "paths": {"dataset": str(tmp_path / "toy.csv"), "out_dir": str(tmp_path / tag)},
            "training": {"iterations_per_phase": 2, "hidden_dim": 100, "latent_dim": 100},
            "seed": 3,
        }), encoding="utf-8")
        subprocess.run(
            [sys.executable, "-m", "priceband.cli", "train", "--config", str(cfg)],
            env=_fresh_env(**blas), capture_output=True, check=True, timeout=300,
        )
        models.append((tmp_path / tag / "model.json").read_bytes())
    assert models[0] == models[1]


@ONE_CPU
@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
def test_explicit_blas_thread_count_is_kept():
    """Importing the CLI sets one BLAS thread only where the environment
    names none: OPENBLAS_NUM_THREADS=2 keeps its value and its second
    thread."""
    code = "import os, priceband.cli; print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    for blas, want in (({}, ["1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "2"])):
        result = subprocess.run(
            [sys.executable, "-c", code], env=_fresh_env(**blas),
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert result.stdout.split() == want, blas
