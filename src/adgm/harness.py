"""Synthetic benchmark harness.

Generates planted point-matching problems, sweeps a difficulty variable
(outlier count or matched-subset size), runs one or more solver
configurations per trial, and reports per-trial metrics plus per-setting
means as CSV.  A small standalone plot script referencing the CSV is
written next to the reports.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, replace
from math import cos, inf, isfinite, sin
from numbers import Integral
from pathlib import Path

import numpy as np

from .constraints import assignment_index
from .discretize import brute_force_optimum
from .errors import OracleRefusalError
from .io import _fmt, _read_data_lines
from .models import MODELS, build_model, model_parameters
from .solver import SolverConfig, Variant, energy, solve

logger = logging.getLogger(__name__)

TRIAL_COLUMNS = [
    "instance_id",
    "method",
    "objective",
    "objective_ratio",
    "accuracy",
    "matched",
    "iterations",
    "converged",
    "time_ms",
]

SUMMARY_COLUMNS = [
    "sweep_value",
    "method",
    "mean_objective",
    "mean_objective_ratio",
    "mean_accuracy",
    "mean_matched",
    "mean_iterations",
    "converged_rate",
    "mean_time_ms",
    "global_opt_rate",
]

_SWEEPS = ("outliers", "subset")


@dataclass(frozen=True)
class Transform:
    """Similarity transform applied to the inlier points."""

    rotation: float = 0.0
    scale: float = 1.0
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isfinite(value):
                raise ValueError(f"transform {name} must be finite, got {value}")

    def apply(self, points):
        points = np.asarray(points, dtype=np.float64)
        c, s = cos(self.rotation), sin(self.rotation)
        rotated = points @ np.array([[c, s], [-s, c]])  # row-vector convention
        return self.scale * rotated + np.array([self.tx, self.ty])


def generate_synthetic(n_inliers, n_outliers=0, noise_sigma=0.0, transform=None, seed=None):
    """Planted matching problem: inliers uniform in the unit square; the
    second set is their transform plus Gaussian noise, mixed with
    uniform outliers (drawn in the transformed inliers' bounding box)
    and randomly permuted.  Returns ``(points1, points2, truth)`` with
    truth the hard assignment vector mapping each inlier to its image.
    """
    if n_inliers < 1:
        raise ValueError(f"n_inliers must be >= 1, got {n_inliers}")
    if n_outliers < 0:
        raise ValueError(f"n_outliers must be >= 0, got {n_outliers}")
    _check_noise_sigma(noise_sigma)
    if transform is None:
        transform = Transform()
    rng = np.random.default_rng(seed)
    points1 = rng.random((n_inliers, 2))
    mapped = transform.apply(points1) + rng.normal(0.0, noise_sigma, (n_inliers, 2))
    lo = mapped.min(axis=0)
    hi = mapped.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)  # degenerate box falls back to unit span
    outliers = lo + span * rng.random((n_outliers, 2))
    stacked = np.vstack([mapped, outliers])
    n2 = stacked.shape[0]
    slots = rng.permutation(n2)
    points2 = np.empty_like(stacked)
    points2[slots] = stacked
    truth = np.zeros(n_inliers * n2)
    truth[assignment_index(np.arange(n_inliers), slots[:n_inliers], n_inliers)] = 1.0
    return points1, points2, truth


def _check_noise_sigma(noise_sigma):
    """A ValueError unless ``noise_sigma`` is finite and >= 0."""
    if not 0 <= noise_sigma < inf:
        need = "finite" if noise_sigma >= 0 else ">= 0"
        raise ValueError(f"noise_sigma must be {need}, got {noise_sigma}")


def accuracy(result, truth, n_inliers):
    """Fraction of inliers matched to their true correspondents; an
    unmatched or mismatched inlier counts as wrong."""
    result = np.asarray(result, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if result.shape != truth.shape:
        raise ValueError("result and truth must have the same shape")
    if n_inliers < 1:
        raise ValueError(f"n_inliers must be >= 1, got {n_inliers}")
    return float(np.minimum(result, truth).sum() / n_inliers)


@dataclass(frozen=True)
class TrialReport:
    instance_id: str
    method: str
    objective: float
    objective_ratio: float | None
    accuracy: float
    matched: int
    iterations: int
    converged: bool
    time_ms: float
    global_opt: bool | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark sweep: which model, which difficulty variable, how
    many trials per setting, and which solver configurations to compare.
    A model parameter left at None takes the builder's default."""

    model: str
    values: tuple
    sweep: str = "outliers"
    inliers: int = 10
    total: int = 30
    trials: int = 1
    noise_sigma: float = 0.0
    transform: Transform = Transform()
    methods: tuple = (("adgm1", SolverConfig()),)
    seed: int = 0
    eta: float | None = None
    sigma2: float | None = None
    sigma_l: float | None = None
    sigma_a: float | None = None
    unary_offset: float | None = None
    knn: int | None = None
    triangles: int | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.sweep not in _SWEEPS:
            raise ValueError(f"sweep must be one of {_SWEEPS}, got {self.sweep!r}")
        if not self.values:
            raise ValueError("at least one sweep value is required")
        for name in ("inliers", "total", "trials", "seed"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name, least in (("trials", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        _check_noise_sigma(self.noise_sigma)
        repeated = _repeated(self.values)
        if repeated:
            raise ValueError(f"sweep value {repeated[0]} is listed more than once")
        taken = model_parameters(self.model)
        for key in _MODEL_KEYS:
            if getattr(self, key) is not None and _PARAMETER.get(key, key) not in taken:
                raise ValueError(f"model {self.model} does not take {key!r}")
        if not self.methods:
            raise ValueError("at least one solver method is required")
        # Trials and summary rows are keyed by method name.
        repeated = _repeated([name for name, _ in self.methods])
        if repeated:
            raise ValueError(f"method {repeated[0]!r} is listed more than once")
        for value in self.values:
            if not isinstance(value, Integral):
                raise ValueError(f"sweep value {value!r} is not an integer")
            n_inliers, n_outliers = self.resolve_sizes(value)
            if n_inliers < 1 or n_outliers < 0:
                raise ValueError(
                    f"sweep value {value} gives invalid sizes "
                    f"({n_inliers} inliers, {n_outliers} outliers)"
                )

    def resolve_sizes(self, value):
        """(n_inliers, n_outliers) for one sweep value."""
        if self.sweep == "outliers":
            return self.inliers, int(value)
        return int(value), self.total - int(value)


def _repeated(items):
    """The items of ``items`` equal to an earlier one, in order."""
    return [v for i, v in enumerate(items) if v in items[:i]]


def _build_instance(config, points1, points2, truth, model_seed):
    # Only the fields that are set: the rest take the builder's defaults.
    params = {
        _PARAMETER.get(name, name): getattr(config, name)
        for name in _MODEL_KEYS
        if getattr(config, name) is not None
    }
    return build_model(
        config.model, points1, points2, seed=model_seed, ground_truth=truth, **params
    )


def run_experiment(config, out_dir=None):
    """Run the full sweep and write trials.csv, summary.csv, and plot.py
    into the output directory.  Returns the list of TrialReports."""
    target = out_dir if out_dir is not None else config.out_dir
    if target is None:
        raise ValueError("an output directory is required (config out / out_dir)")
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)

    prefix = "out" if config.sweep == "outliers" else "sub"
    reports = []
    groups = {}  # (sweep value, method) -> its reports, for the summary
    for vi, value in enumerate(config.values):
        n_inliers, n_outliers = config.resolve_sizes(value)
        for trial in range(config.trials):
            instance_id = f"{prefix}{value}_t{trial}"
            seeds = np.random.SeedSequence((config.seed, vi, trial)).generate_state(2)
            points1, points2, truth = generate_synthetic(
                n_inliers, n_outliers, config.noise_sigma, config.transform, int(seeds[0])
            )
            instance = _build_instance(config, points1, points2, truth, int(seeds[1]))
            truth_energy = energy(instance, truth)
            oracle_energy = None
            try:
                _, oracle_energy = brute_force_optimum(instance)
            except OracleRefusalError as exc:
                logger.info("oracle refused for %s: %s", instance_id, exc)
            for method_name, method_config in config.methods:
                start = time.perf_counter()
                result = solve(instance, method_config)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                ratio = None
                if abs(truth_energy) > 1e-15:
                    ratio = result.energy_discrete / truth_energy
                global_opt = None
                if oracle_energy is not None:
                    global_opt = bool(
                        abs(result.energy_discrete - oracle_energy)
                        <= 1e-9 * max(1.0, abs(oracle_energy))
                    )
                report = TrialReport(
                    instance_id=instance_id,
                    method=method_name,
                    objective=result.energy_discrete,
                    objective_ratio=ratio,
                    accuracy=accuracy(result.discrete, truth, n_inliers),
                    matched=int(round(float(result.discrete.sum()))),
                    iterations=result.iterations,
                    converged=result.converged,
                    time_ms=elapsed_ms,
                    global_opt=global_opt,
                )
                reports.append(report)
                groups.setdefault((value, method_name), []).append(report)
    _write_trials_csv(target / "trials.csv", reports)
    _write_summary_csv(target / "summary.csv", groups)
    (target / "plot.py").write_text(_PLOT_SCRIPT)
    return reports


def _write_trials_csv(path, reports):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRIAL_COLUMNS)
        for r in reports:
            writer.writerow(
                [
                    r.instance_id,
                    r.method,
                    _fmt(r.objective),
                    "" if r.objective_ratio is None else _fmt(r.objective_ratio),
                    _fmt(r.accuracy),
                    r.matched,
                    r.iterations,
                    "true" if r.converged else "false",
                    f"{r.time_ms:.3f}",
                ]
            )


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def _write_summary_csv(path, groups):
    """One row of means per ``(sweep value, method) -> reports`` group."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for (value, method_name), group in groups.items():
            ratios = [r.objective_ratio for r in group if r.objective_ratio is not None]
            opts = [r.global_opt for r in group if r.global_opt is not None]
            writer.writerow(
                [
                    value,
                    method_name,
                    _fmt(_mean(r.objective for r in group)),
                    "" if not ratios else _fmt(_mean(ratios)),
                    _fmt(_mean(r.accuracy for r in group)),
                    _fmt(_mean(r.matched for r in group)),
                    _fmt(_mean(r.iterations for r in group)),
                    _fmt(_mean(1.0 if r.converged else 0.0 for r in group)),
                    f"{_mean(r.time_ms for r in group):.3f}",
                    "" if not opts else _fmt(_mean(1.0 if o else 0.0 for o in opts)),
                ]
            )


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot the summary.csv written next to this script."""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
with open(here / "summary.csv", newline="") as handle:
    rows = list(csv.DictReader(handle))

for metric, fname in (("mean_accuracy", "accuracy.png"), ("mean_objective", "objective.png")):
    series = defaultdict(list)
    for row in rows:
        if row[metric]:
            series[row["method"]].append((float(row["sweep_value"]), float(row[metric])))
    plt.figure(figsize=(6, 4))
    for method in sorted(series):
        points = sorted(series[method])
        plt.plot([p[0] for p in points], [p[1] for p in points], marker="o", label=method)
    plt.xlabel("sweep value")
    plt.ylabel(metric.replace("_", " "))
    plt.grid(True, alpha=0.3)
    plt.legend()
    plt.savefig(here / fname, dpi=150, bbox_inches="tight")
    print("wrote", here / fname)
'''


# -- experiment config files ------------------------------------------

def _sweep_values(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _methods(text):
    names = (name.strip().lower() for name in text.split(","))
    return tuple((name, SolverConfig(variant=Variant.parse(name))) for name in names if name)


def _optional_float(text):
    return float(text) if text else None


def _out_dir(text):
    if not text:
        raise ValueError("needs a directory")
    return text


# Config key -> value parser, one table per target.  Keys left out of a
# file take the target's own defaults.  The model keys are the
# ExperimentConfig fields that _build_instance passes to the builder.
_MODEL_KEYS = {
    "eta": float,
    "sigma2": float,
    "sigma_l": float,
    "sigma_a": float,
    "unary_offset": float,
    "knn": int,
    "triangles": int,
}
# Model keys whose builder parameter has another name.
_PARAMETER = {"triangles": "triangle_budget"}
_EXPERIMENT_KEYS = {
    "methods": _methods,
    "model": str.lower,
    "values": _sweep_values,
    "sweep": str.lower,
    "inliers": int,
    "total": int,
    "trials": int,
    "noise_sigma": float,
    "seed": int,
    **_MODEL_KEYS,
    "out": _out_dir,
}
_TRANSFORM_KEYS = {"rotation": float, "scale": float, "tx": float, "ty": float}
_SOLVER_KEYS = {
    "rho0": _optional_float,
    "t1": int,
    "t2": int,
    "beta": float,
    "eps": _optional_float,
    "max_iter": int,
}
_CONFIG_KEYS = _EXPERIMENT_KEYS.keys() | _TRANSFORM_KEYS.keys() | _SOLVER_KEYS.keys()


def read_experiment_config(path):
    """Parse a key = value experiment file into an ExperimentConfig."""
    entries = {}
    for line in _read_data_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if key in entries:
            raise ValueError(f"{path}: config key {key!r} is given twice")
        entries[key] = value.strip()

    if "model" not in entries:
        raise ValueError(f"{path}: missing required key 'model'")
    if "values" not in entries:
        raise ValueError(f"{path}: missing required key 'values'")

    def parsed(table):
        values = {}
        for key, parse in table.items():
            if key in entries:
                try:
                    values[key] = parse(entries[key])
                except ValueError as exc:
                    raise ValueError(f"{path}: config key {key!r}: {exc}") from None
        return values

    transform = Transform(**parsed(_TRANSFORM_KEYS))
    solver = parsed(_SOLVER_KEYS)
    fields = parsed(_EXPERIMENT_KEYS)
    methods = fields.pop("methods", ExperimentConfig.methods)
    if "out" in fields:
        fields["out_dir"] = fields.pop("out")
    return ExperimentConfig(
        transform=transform,
        methods=tuple((name, replace(config, **solver)) for name, config in methods),
        **fields,
    )
