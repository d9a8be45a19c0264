"""The benchmark workloads, each driven in-process through ``priceband.cli.main``.

A workload synthesises its corpus from the workload seed with
``priceband.synthetic``, sets up what its command reads (calibration, a
trained model, a warm-up command), then repeats one CLI command. Every
command's outputs are checked; a failed command or check is a failed
operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import time
import traceback
from dataclasses import dataclass, field, replace
from datetime import timedelta
from pathlib import Path

import numpy as np

from priceband import cli, ctsgan, data_ingest, synthetic
from priceband import weather_volatility as wv
from priceband.errors import PricebandError

CHANNEL_FOR_FACTOR = {"temperature": "temperature", "irradiance": "irradiance", "wind": "wind_speed"}

# Density rows are normalised histogram counts; float64 sums of 50 terms stay
# well inside this.
DENSITY_SUM_TOL = 1e-9

_SIGMA_LINE = re.compile(r"^sigma=(\d+\.\d+) reinforced=(true|false)$", re.M)
_NUMPY_SCALAR_REPR = re.compile(r"^np\.float64\((.*)\)$")


def parse_numbers(fields, what: str, problems: list[str]) -> np.ndarray:
    """Floats of artifact fields. A field written as numpy's scalar repr,
    ``np.float64(x)``, is not a number to a CSV reader: that is recorded as a
    problem, and ``x`` is used so the remaining checks still run."""
    values, reprs = [], 0
    for text in fields:
        match = _NUMPY_SCALAR_REPR.match(text)
        if match:
            reprs += 1
            text = match.group(1)
        values.append(float(text))
    if reprs:
        problems.append(f"{what}: {reprs} fields written as 'np.float64(...)', not as numbers")
    return np.array(values, dtype=np.float64)


@dataclass(frozen=True)
class Params:
    corpus_days: int
    hidden: int
    latent: int
    iterations: int  # training iterations per phase
    scenarios: int = 500
    days: int = 1  # backtest: days per evaluated range
    reinforced: int = 0  # backtest: reinforced days per range
    runs: int = 1  # backtest: repeated-sampling runs


SCALES = {
    "full": {
        "train": Params(corpus_days=366, hidden=100, latent=100, iterations=4),
        "backtest": Params(
            corpus_days=366, hidden=16, latent=8, iterations=30, days=7, reinforced=2, runs=2
        ),
        "predict": Params(corpus_days=1096, hidden=100, latent=100, iterations=1),
    },
    # smoke-test size: every code path, seconds per run
    "tiny": {
        "train": Params(corpus_days=110, hidden=4, latent=3, iterations=2),
        "backtest": Params(
            corpus_days=110, hidden=4, latent=3, iterations=2, scenarios=40, days=3, reinforced=1, runs=2
        ),
        "predict": Params(corpus_days=110, hidden=4, latent=3, iterations=2, scenarios=40),
    },
}


def reference_params(params: Params) -> Params:
    """The reference case: the workload's command on a small fixed corpus,
    at toy dims (at most hidden 16, latent 8) so that it stays cheap."""
    return replace(
        params,
        corpus_days=110,
        hidden=min(params.hidden, 16),
        latent=min(params.latent, 8),
        iterations=1,
        scenarios=100,
        days=min(params.days, 3),
        reinforced=min(params.reinforced, 1),
    )


class SetupError(RuntimeError):
    """A set-up command failed; the benchmark cannot measure this workload."""


@dataclass
class Op:
    """One timed CLI command, what it printed, and the results of its checks."""

    index: int
    label: str
    out_dir: Path
    code: int = 0
    seconds: float = 0.0
    stdout: str = ""
    problems: list[str] = field(default_factory=list)
    keys: dict = field(default_factory=dict)  # key outputs for the reference check
    traced: bool = False


def run_cli(argv) -> tuple[int, float, str]:
    """Run one CLI command; returns (exit code, wall seconds, captured stdout)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([str(a) for a in argv])
    except Exception:  # a crash is a failed operation, reported, not fatal
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start, buf.getvalue()


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Workload:
    name = ""
    reference_ops = 1

    def __init__(self, params: Params, seed: int, root: Path):
        self.p = params
        self.seed = seed
        self.root = root
        self.csv = root / "corpus.csv"
        self.thresholds = root / "thresholds.json"

    # --- set-up ---------------------------------------------------------

    def config(self, filename: str, iterations: int, runs: int = 1, checkpoint: bool = True) -> Path:
        paths = {"dataset": str(self.csv), "thresholds": str(self.thresholds), "out_dir": str(self.root)}
        if checkpoint:
            paths["checkpoint"] = str(self.root / "model.json")
        raw = {
            "paths": paths,
            "training": {
                "iterations_per_phase": iterations,
                "hidden_dim": self.p.hidden,
                "latent_dim": self.p.latent,
            },
            "prediction": {"scenarios": self.p.scenarios},
            "metrics": {"runs": runs},
            "seed": self.seed,
        }
        path = self.root / filename
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def command(self, *argv) -> str:
        code, _, stdout = run_cli(argv)
        if code != 0:
            raise SetupError(f"{self.name} set-up: `{' '.join(map(str, argv))}` exited {code}")
        return stdout

    def prepare(self) -> None:
        """Corpus and calibration, shared by every workload."""
        self.root.mkdir(parents=True, exist_ok=True)
        synthetic.generate_market_csv(self.csv, days=self.p.corpus_days, seed=self.seed)
        self.command("calibrate", "--config", self.config("calibrate.json", iterations=0))

    def day_sigmas(self) -> dict:
        """Noise std the predict path should pick for each predictable day."""
        dataset = data_ingest.load_dataset(self.csv)
        thresholds = wv.VolatilityThresholds.from_json(self.thresholds.read_text(encoding="utf-8"))
        sigmas = {}
        for prev, rec in zip(dataset.day_records, dataset.day_records[1:]):
            if (rec.day - prev.day).days != 1:
                continue
            levels = {
                f: wv.classify_volatility(
                    f,
                    wv.window_variance(
                        dataset.normalized_channel(rec, CHANNEL_FOR_FACTOR[f]), wv.FACTOR_WINDOWS[f]
                    ),
                    thresholds,
                )
                for f in wv.FACTORS
            }
            sigmas[rec.day] = wv.sigma_from_levels(levels)
        return sigmas

    def setup(self, warm_up: bool = True) -> None:
        raise NotImplementedError

    # --- timed command and checks ----------------------------------------

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> None:
        """Fill ``op.problems`` and ``op.keys`` from the command's outputs."""
        if op.code != 0:
            op.problems.append(f"exit code {op.code}")
            return
        try:
            self.check_outputs(op)
        except (OSError, ValueError, KeyError, IndexError, TypeError, PricebandError) as exc:
            op.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")

    def check_outputs(self, op: Op) -> None:
        raise NotImplementedError

    def timed(self, index: int, label: str, *argv) -> Op:
        out = self.root / f"op{index}"
        code, seconds, stdout = run_cli([*argv, "--out", out])
        return Op(index=index, label=label, out_dir=out, code=code, seconds=seconds, stdout=stdout)

    # --- reporting --------------------------------------------------------

    day_runs_per_op = 0

    def describe(self, ops: list[Op]) -> dict:
        """Inputs of the timed commands, for the report."""
        return {}


class TrainWorkload(Workload):
    """``train`` at paper dims on a one-year corpus, fixed budget per phase."""

    name = "train"

    def setup(self, warm_up: bool = True) -> None:
        self.prepare()
        self.train_cfg = self.config("train.json", self.p.iterations, checkpoint=False)
        if warm_up:
            warm = self.config("warm.json", iterations=1, checkpoint=False)
            self.command("train", "--config", warm, "--out", self.root / "warm")

    def op(self, index: int) -> Op:
        return self.timed(index, f"{self.p.iterations} iterations/phase", "train", "--config", self.train_cfg)

    def check_outputs(self, op: Op) -> None:
        model = ctsgan.load_model(op.out_dir / "model.json")
        if not model.is_trained:
            op.problems.append(f"phase flags not all set: {model.training_flags}")
        lines = (op.out_dir / "training_log.jsonl").read_text(encoding="utf-8").splitlines()
        logged = [json.loads(line) for line in lines]
        if len(logged) != 3 * self.p.iterations:
            op.problems.append(f"{len(logged)} logged iterations, expected {3 * self.p.iterations}")
        losses = [r["loss"] for r in logged] + [
            r[k] for r in model.training_log for k in ("loss", "d_loss") if k in r
        ]
        if not _finite(losses):
            op.problems.append("non-finite logged loss")
        op.keys = {
            "final_loss": [[r["loss"] for r in logged if r["phase"] == ph][-1] for ph in (1, 2, 3)]
        }

    def describe(self, ops: list[Op]) -> dict:
        return {"iterations_per_phase": self.p.iterations, "dims": [self.p.hidden, self.p.latent]}


class BacktestWorkload(Workload):
    """One ``evaluate`` command per op at toy dims: a range of days x runs x
    scenarios, each range holding the same number of reinforced days."""

    name = "backtest"

    @property
    def day_runs_per_op(self) -> int:
        return self.p.days * self.p.runs

    def setup(self, warm_up: bool = True) -> None:
        self.prepare()
        self.cfg = self.config("backtest.json", self.p.iterations, runs=self.p.runs)
        self.command("train", "--config", self.cfg)
        sigmas = self.day_sigmas()
        days = sorted(sigmas)
        counts = {}
        for start in range(len(days) - self.p.days + 1):
            window = days[start : start + self.p.days]
            if (window[-1] - window[0]).days == self.p.days - 1:
                counts[window[0]] = sum(sigmas[d] > 1.0 for d in window)
        best = min(abs(c - self.p.reinforced) for c in counts.values())
        starts = [d for d, c in sorted(counts.items()) if abs(c - self.p.reinforced) == best]
        np.random.default_rng(self.seed).shuffle(starts)
        self.starts = starts
        self.reinforced_share = counts[starts[0]] / self.p.days
        if warm_up:
            warm = self.config("warm.json", self.p.iterations, runs=1)
            day = days[0].isoformat()
            self.command("evaluate", "--config", warm, "--from", day, "--to", day, "--out", self.root / "warm")

    def op(self, index: int) -> Op:
        start = self.starts[index % len(self.starts)]
        end = start + timedelta(days=self.p.days - 1)
        label = f"{start.isoformat()}..{end.isoformat()}"
        return self.timed(
            index, label, "evaluate", "--config", self.cfg, "--from", start.isoformat(), "--to", end.isoformat()
        )

    def check_outputs(self, op: Op) -> None:
        report = json.loads((op.out_dir / "metrics_report.json").read_text(encoding="utf-8"))
        runs = report["runs"]
        if len(runs) != self.p.runs:
            op.problems.append(f"{len(runs)} runs in report, expected {self.p.runs}")
        fields = [r[k] for r in runs for k in ("ecpas", "eawapi")] + [
            report[k] for k in ("phi_coverage", "phi_width", "achieved_delta_90", "achieved_xi_90")
        ]
        if not _finite(fields):
            op.problems.append("non-finite report field")
        op.keys = {"ecpas": [r["ecpas"] for r in runs], "eawapi": [r["eawapi"] for r in runs]}

    def describe(self, ops: list[Op]) -> dict:
        return {
            "days": self.p.days,
            "runs": self.p.runs,
            "scenarios": self.p.scenarios,
            "reinforced_share": self.reinforced_share,
            "dims": [self.p.hidden, self.p.latent],
        }


class PredictWorkload(Workload):
    """Separate ``predict --date D`` commands at paper dims on a three-year
    corpus. Dates cycle calm, reinforced, calm, calm, so the median of a run
    stays among the calm commands even when noise reorders a few."""

    name = "predict"
    reference_ops = 2  # one calm and one reinforced day
    day_runs_per_op = 1

    def setup(self, warm_up: bool = True) -> None:
        self.prepare()
        self.cfg = self.config("predict.json", self.p.iterations)
        self.command("train", "--config", self.cfg)
        self.sigmas = self.day_sigmas()
        rng = np.random.default_rng(self.seed)
        calm = [d for d, s in sorted(self.sigmas.items()) if s == 1.0]
        reinforced = [d for d, s in sorted(self.sigmas.items()) if s > 1.0]
        rng.shuffle(calm)
        rng.shuffle(reinforced)
        warm_day = calm.pop()
        cycles = min(len(calm) // 3, len(reinforced))
        self.dates = [d for k in range(cycles) for d in (calm[3 * k], reinforced[k], *calm[3 * k + 1 : 3 * k + 3])]
        if warm_up:
            self.command("predict", "--config", self.cfg, "--date", warm_day.isoformat(), "--out", self.root / "warm")

    def op(self, index: int) -> Op:
        day = self.dates[index % len(self.dates)].isoformat()
        return self.timed(index, day, "predict", "--config", self.cfg, "--date", day)

    def check_outputs(self, op: Op) -> None:
        expected = self.sigmas[self.dates[op.index % len(self.dates)]]
        printed = _SIGMA_LINE.search(op.stdout)
        if printed is None:
            op.problems.append("no sigma line printed")
        elif abs(float(printed.group(1)) - expected) > 5e-4 or (printed.group(2) == "true") != (expected > 1.0):
            op.problems.append(f"printed {printed.group(0)!r}, expected sigma {expected:.3f}")
        else:
            op.keys["sigma"] = float(printed.group(1))

        with open(op.out_dir / f"interval_{op.label}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        lower = parse_numbers([r["lower"] for r in rows], "interval lower", op.problems)
        upper = parse_numbers([r["upper"] for r in rows], "interval upper", op.problems)
        if lower.size != 48 or not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            op.problems.append("interval is not 48 finite bounds")
        elif (lower > upper).any():
            op.problems.append("interval has L > U")

        density = json.loads((op.out_dir / f"density_{op.label}.json").read_text(encoding="utf-8"))
        mass = np.asarray(density["mass"], dtype=np.float64)
        if mass.shape[0] != 48 or np.abs(mass.sum(axis=1) - 1.0).max() > DENSITY_SUM_TOL:
            op.problems.append("density rows do not sum to 1")

        with open(op.out_dir / f"scenarios_{op.label}.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [row[1:] for row in reader]
        values = parse_numbers([v for row in rows for v in row], "scenarios", op.problems)
        values = values.reshape(len(rows), -1) if rows else values.reshape(0, 48)
        branches = 2 if expected > 1.0 else 1
        if values.shape != (branches * self.p.scenarios, 48):
            op.problems.append(f"scenario matrix {values.shape}, expected {(branches * self.p.scenarios, 48)}")
        elif values.min() < 0.0 or values.max() > 1.0:
            op.problems.append("scenario outside [0, 1]")
        op.keys.update(lower=lower.tolist(), upper=upper.tolist())

    def describe(self, ops: list[Op]) -> dict:
        n = len(ops)
        reinforced = sum(self.sigmas[self.dates[op.index % len(self.dates)]] > 1.0 for op in ops)
        return {
            "scenarios": self.p.scenarios,
            "dims": [self.p.hidden, self.p.latent],
            "calm_share": (n - reinforced) / n,
            "reinforced_share": reinforced / n,
        }


WORKLOADS = {cls.name: cls for cls in (TrainWorkload, BacktestWorkload, PredictWorkload)}


def roles(params: Params) -> dict[tuple[int, int], str]:
    """Network role by (input dim, output dim), as ``build_model`` lays them out."""
    latent, cond = params.latent, data_ingest.CONDITION_DIM
    return {
        (1, latent): "embedder",
        (latent, 1): "recovery",
        (latent + cond, latent): "generator",
        (latent + cond, 1): "discriminator",
    }
