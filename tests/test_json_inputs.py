"""Every field of every JSON input refuses a value of another JSON type.

The inputs are the config file, ``thresholds.json``, ``model.json`` and a
``training_log.jsonl`` line. Each field is fed values that are not of its
own type: a string, a boolean, ``null``, ``NaN``, ``Infinity``, a 400-digit
integer, a list or an object for a scalar; a list of the wrong length or a
scalar for a list of numbers. Each must fail with its file's error class and
a message that starts with the file and the field's key path.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from priceband import cli, ctsgan
from priceband import weather_volatility as wv
from priceband.errors import CheckpointError, InputError

NAN, INF = float("nan"), float("inf")

# Values no field of a kind holds, by label. A 400-digit integer is an
# integer, but no float holds it.
_SCALAR = {
    "string": "0.5", "true": True, "null": None, "nan": NAN, "infinity": INF,
    "minus-infinity": -INF, "400-digit": 10**400, "list": [1], "object": {"x": 1},
}
WRONG = {
    "number": _SCALAR,
    "integer": {
        **{k: v for k, v in _SCALAR.items() if k != "400-digit"},
        "string": "3", "fraction": 2.5, "whole-float": 2.0,
    },
    "boolean": {**{k: v for k, v in _SCALAR.items() if k != "true"}, "string": "true", "one": 1},
    "string": {**{k: v for k, v in _SCALAR.items() if k != "string"}, "number": 5},
    "object": {k: v for k, v in _SCALAR.items() if k != "object"},
}
WRONG["optional-object"] = {k: v for k, v in WRONG["object"].items() if k != "null"}


def _numbers_values(n: int) -> dict:
    """Wrong values for a list of ``n`` numbers: the list itself, and each
    wrong number at index 1 (``"[1]"``)."""
    values = {k: v for k, v in _SCALAR.items() if k != "list"}
    values.update({"scalar": 0.5, "short-list": [0.5] * (n - 1), "long-list": [0.5] * (n + 1)})
    values.update({f"[1]-{k}": v for k, v in _SCALAR.items()})
    return values


def _cases(file: str, fields: dict) -> list:
    """One pytest param per (key path, wrong value) of ``fields``, which maps
    each key path (a tuple) to its kind or, for a list of numbers, its
    length."""
    cases = []
    for path, kind in fields.items():
        values = _numbers_values(kind) if type(kind) is int else WRONG[kind]
        for label, value in values.items():
            where = path + (1,) if label.startswith("[1]-") else path
            label = label.removeprefix("[1]-")
            cases.append(pytest.param(where, value, id=f"{file}-{_dotted(where)}-{label}"))
    return cases


def _dotted(path: tuple) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if type(key) is int else (f".{key}" if text else key)
    return text


def _set(document, path: tuple, value):
    """A copy of ``document`` with ``value`` at ``path``."""
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


# --- config ---------------------------------------------------------------

CONFIG_FIELDS = {
    ("seed",): "integer",
    **{("paths", key): "string" for key in ("dataset", "out_dir", "checkpoint", "thresholds")},
    ("prediction", "variance_override"): "optional-object",
    **{("prediction", "variance_override", f): "number" for f in wv.FACTORS},
    **{("prediction", key): "integer" for key in ("scenarios", "bins")},
    ("prediction", "nominal"): "number",
    ("metrics", "runs"): "integer",
    **{("metrics", key): "number" for key in ("delta_target", "xi_target")},
    **{("training", key): "integer"
       for key in ("batch_size", "iterations_per_phase", "hidden_dim", "latent_dim")},
    **{("training", key): "number"
       for key in ("learning_rate", "clip_limit", "supervised_weight", "holdout_fraction",
                   "dispersion_gain")},
    **{(section,): "object" for section in ("paths", "training", "prediction", "metrics")},
}
VALID_CONFIG = {
    "paths": {}, "training": {}, "metrics": {},
    "prediction": {"variance_override": {"temperature": 0.004, "irradiance": 0.07, "wind": 0.02}},
}


def test_config_table_names_every_setting():
    """``CONFIG_FIELDS`` covers each setting of the config file ("seed"
    inside "training" is ignored, as documented)."""
    settings = {("seed",)} | {
        (f.metadata["section"], f.name) for f in dataclasses.fields(cli.RunConfig) if f.metadata
    } | {("training", f.name) for f in dataclasses.fields(ctsgan.TrainingConfig) if f.name != "seed"}
    assert {path for path in CONFIG_FIELDS if len(path) == 2} | {("seed",)} == settings


@pytest.mark.parametrize("path, value", _cases("config", CONFIG_FIELDS))
def test_config_refuses_a_value_of_another_type(tmp_path, path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_set(VALID_CONFIG, path, value)), encoding="utf-8")
    with pytest.raises(InputError) as caught:
        cli.load_config(cfg)
    assert str(caught.value).startswith(f"config {_dotted(path)}: ")


# --- thresholds -----------------------------------------------------------

THRESHOLD_FIELDS = {
    **{(f, cut): "number" for f in wv.FACTORS for cut in ("low_cut", "med_cut", "high_cut")},
    **{(f,): "object" for f in wv.FACTORS},
}


@pytest.mark.parametrize("path, value", _cases("thresholds", THRESHOLD_FIELDS))
def test_thresholds_refuse_a_value_of_another_type(reference_thresholds, path, value):
    text = json.dumps(_set(reference_thresholds.by_factor(), path, value))
    with pytest.raises(InputError) as caught:
        wv.VolatilityThresholds.from_json(text)
    assert str(caught.value).startswith(f"thresholds {_dotted(path)}: ")


# --- checkpoint -----------------------------------------------------------

LATENT_DIM = 4
ROLES = ("embedder", "recovery", "generator", "discriminator")
MODEL_FIELDS = {
    **{("dims", key): "integer" for key in ("condition_dim", "hidden_dim", "latent_dim")},
    ("dims",): "object",
    ("networks",): "object",
    **{("networks", role): "string" for role in ROLES},
    ("latent_shift",): LATENT_DIM,
    ("latent_scale",): LATENT_DIM,
    ("latent_autocorr",): "number",
    ("training_flags",): "object",
    **{("training_flags", phase): "boolean" for phase in ("phase1", "phase2", "phase3")},
    ("adversarial_report",): "optional-object",
    **{("adversarial_report", key): "number"
       for key in ("d_score_real", "d_score_fake", "real_vs_fake_accuracy")},
    ("adversarial_report", "scored_days"): "integer",
}


@pytest.fixture(scope="module")
def saved_payload(tmp_path_factory):
    """A checkpoint payload with every field set: flags and a critic report."""
    model = ctsgan.build_model(3, ctsgan.TrainingConfig(hidden_dim=2, latent_dim=LATENT_DIM))
    model.training_flags = {"phase1": True, "phase2": True, "phase3": True}
    model.adversarial_report = {
        "d_score_real": 0.25, "d_score_fake": -0.5, "real_vs_fake_accuracy": 0.5, "scored_days": 3,
    }
    path = tmp_path_factory.mktemp("model") / "model.json"
    ctsgan.save_model(model, path)
    return json.loads(path.read_text(encoding="utf-8"))


def test_model_table_names_every_checkpoint_field(saved_payload, tmp_path):
    """The table covers every field but the version, whose check asks for a
    re-train, and the payload it mangles loads as it is."""
    assert {path[0] for path in MODEL_FIELDS} == set(saved_payload) - {"format_version"}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(saved_payload), encoding="utf-8")
    assert ctsgan.load_model(path).is_trained


@pytest.mark.parametrize("path, value", _cases("model", MODEL_FIELDS))
def test_checkpoint_refuses_a_value_of_another_type(saved_payload, tmp_path, path, value):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_set(saved_payload, path, value)), encoding="utf-8")
    with pytest.raises(CheckpointError) as caught:
        ctsgan.load_model(model)
    assert str(caught.value).startswith(f"model checkpoint {_dotted(path)}: ")


@pytest.mark.parametrize("file", ["config", "thresholds", "model", "log"])
def test_json_nested_too_deep_is_refused(tmp_path, file):
    """A document nested deeper than the parser's recursion limit fails with
    its file's error class, not a ``RecursionError`` traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    read, error = {
        "config": (lambda: cli.load_config(path), InputError),
        "thresholds": (lambda: wv.VolatilityThresholds.from_json(path.read_text()), InputError),
        "model": (lambda: ctsgan.load_model(path), CheckpointError),
        "log": (lambda: cli._logged_lines(path, {1}), InputError),
    }[file]
    with pytest.raises(error, match="recursion"):
        read()


# --- training log ---------------------------------------------------------


@pytest.mark.parametrize("path, value", _cases("log", {("phase",): "integer"}))
def test_training_log_refuses_a_phase_of_another_type(tmp_path, path, value):
    """``--resume`` keeps the log lines of the phases the checkpoint marks
    done; a phase that is not an integer (``true`` once passed as phase 1)
    fails naming the line."""
    log = tmp_path / "training_log.jsonl"
    good = json.dumps({"phase": 1, "iteration": 0, "loss": 0.5})
    bad = json.dumps(_set({"phase": 1, "iteration": 1, "loss": 0.5}, path, value))
    log.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(InputError) as caught:
        cli._logged_lines(log, {1})
    assert str(caught.value).startswith(f"training log {log} line 2 phase: ")
