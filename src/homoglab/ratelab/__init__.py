"""Experiment harness: epsilon sweeps, rate fitting, registry and reports.

A run builds one mesh per epsilon (h = eps / cells_per_period), executes
the experiment's pipeline (cell solve -> correctors -> solves -> norms),
fits log(value) against log(eps) and compares the slope (or boundedness /
monotonicity) against the experiment's threshold.  Reports are bit-stable
for a fixed config and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field, asdict

import numpy as np

from ..coeff import CoefficientField, builtin
from .context import EpsilonContext, cell_solution, mesh_resolution
from .experiments import EXPERIMENTS, DEFAULT_EPS, DEGENERATE_FLOOR, SCALAR_ONLY

__all__ = ["ExperimentConfig", "RateReport", "FitResult", "fit_rate", "emit",
           "run", "run_many", "coefficient_from_spec", "EXPERIMENTS",
           "EpsilonContext", "cell_solution", "mesh_resolution", "RegistryError"]


class RegistryError(KeyError):
    pass


class FitError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    coefficient: object = None          # dict spec, CoefficientField, or None (registry default)
    eps_list: tuple = DEFAULT_EPS
    cells_per_period: int = 16
    cell_n: int = 256
    seed: int = 0

    def __post_init__(self):
        self.eps_list = tuple(float(e) for e in self.eps_list)
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if any(e <= 0 for e in self.eps_list):
            raise ValueError("eps values must be positive")
        if self.cells_per_period < 8:
            raise ValueError("cells_per_period must be at least 8 (under-resolution)")
        for eps in self.eps_list:
            mesh_resolution(self.cells_per_period, eps)

    def describe(self):
        coeff = self.coefficient
        if isinstance(coeff, CoefficientField):
            coeff = {"family": coeff.family, "params": coeff.params}
        return {
            "experiment": self.experiment, "coefficient": coeff,
            "eps_list": list(self.eps_list), "cells_per_period": self.cells_per_period,
            "cell_n": self.cell_n, "seed": self.seed,
        }


@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float
    alt_residual: float
    power_residual: float


def fit_rate(eps, values) -> FitResult:
    """Least squares of log(value) on log(eps), plus the alternate fit of
    value against c * eps * log(1/eps + 2).

    eps and values are arrays of equal length, at least 3, with positive
    values.
    """
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(eps) < 3:
        raise FitError(f"need at least 3 rows to fit a rate, got {len(eps)}")
    if np.any(values <= 0):
        raise FitError("nonpositive values cannot be rate-fitted")
    x, y = np.log(eps), np.log(values)
    A = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ np.array([slope, intercept])
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    model = eps * np.log(1.0 / eps + 2.0)
    c = float((values * model).sum() / (model * model).sum())
    alt_res = float(np.linalg.norm(values - c * model) / np.linalg.norm(values))
    power_res = float(np.linalg.norm(values - np.exp(yhat)) / np.linalg.norm(values))
    return FitResult(slope=float(slope), intercept=float(intercept), r2=float(r2),
                     alt_residual=alt_res, power_residual=power_res)


@dataclass
class RateReport:
    experiment: str
    kind: str
    rows: list                      # (epsilon, h, quantity, value)
    fits: dict                      # quantity -> FitResult | None
    passed: bool
    degenerate: bool
    detail: str = ""
    config: dict = dataclass_field(default_factory=dict)

    def values(self, quantity):
        return [v for (_, _, q, v) in self.rows if q == quantity]


def coefficient_from_spec(spec) -> CoefficientField:
    if isinstance(spec, CoefficientField):
        return spec
    if spec is None:
        raise ValueError("no coefficient specified")
    family = spec.get("family", "layered")
    params = dict(spec.get("params", {}))
    return builtin(family, **params)


def _finish_sweep(exp, config, rows_by_q, eps_list, h_list):
    rows = []
    for i, eps in enumerate(eps_list):
        for q, vals in rows_by_q.items():
            rows.append((eps, h_list[i], q, vals[i]))
    all_small = all(abs(v) <= DEGENERATE_FLOOR for vals in rows_by_q.values() for v in vals)
    fits = {}
    if not all_small:
        for q, vals in rows_by_q.items():
            try:
                fits[q] = fit_rate(np.array(eps_list), np.array(vals))
            except FitError:
                fits[q] = None
    if all_small:
        return RateReport(experiment=exp.id, kind="sweep", rows=rows, fits={},
                          passed=True, degenerate=True,
                          detail="degenerate-pass: all values below 1e-9",
                          config=config.describe())
    results = [chk(fits, rows_by_q) for chk in exp.checks]
    passed = all(ok for ok, _ in results)
    detail = "; ".join(msg for _, msg in results)
    return RateReport(experiment=exp.id, kind="sweep", rows=rows, fits=fits,
                      passed=passed, degenerate=False, detail=detail,
                      config=config.describe())


def _experiment(config) -> object:
    try:
        return EXPERIMENTS[config.experiment]
    except KeyError:
        ids = ", ".join(sorted(EXPERIMENTS))
        raise RegistryError(f"unknown experiment {config.experiment!r}; available: {ids}") from None


def run(config: ExperimentConfig) -> RateReport:
    """Run a single experiment end to end: run_many of the one config."""
    return run_many([config])[config.experiment]


def run_many(configs) -> dict:
    """Run several experiments, sharing per-(coefficient, epsilon) contexts.

    Every config runs on its own coefficient, or on the registry default
    when it names none; a SCALAR_ONLY experiment on a coefficient with
    m != 1 raises ValueError before anything is assembled.  Sweep
    experiments with the same coefficient are computed from one context
    per epsilon (epsilon-outer order, one live factorization); refine and
    fixed runners then run one by one.
    """
    configs = list(configs)
    fields = [coefficient_from_spec(c.coefficient or _experiment(c).coefficient) for c in configs]
    for c, field in zip(configs, fields):
        if c.experiment in SCALAR_ONLY and field.m != 1:
            raise ValueError(f"experiment {c.experiment!r} needs a scalar coefficient (m = 1), "
                             f"got m = {field.m}")
    reports = {}
    groups = {}
    for c, field in zip(configs, fields):
        if EXPERIMENTS[c.experiment].kind == "sweep":
            key = (field.key(), c.eps_list, c.cells_per_period, c.cell_n)
            groups.setdefault(key, (field, []))[1].append(c)

    for (fkey, eps_list, cpp, cell_n), (field, members) in groups.items():
        rows = {c.experiment: {} for c in members}
        h_list = []
        for eps in eps_list:
            ctx = EpsilonContext(field, eps, cells_per_period=cpp, cell_n=cell_n)
            needs = set()
            for c in members:
                needs |= set(EXPERIMENTS[c.experiment].needs)
            ctx.prepare(needs)
            for c in members:
                out = EXPERIMENTS[c.experiment].compute(ctx)
                for q, v in out.items():
                    rows[c.experiment].setdefault(q, []).append(float(v))
            h_list.append(ctx.mesh.h)
            ctx.release()
            del ctx
        for c in members:
            reports[c.experiment] = _finish_sweep(EXPERIMENTS[c.experiment], c,
                                                  rows[c.experiment], list(eps_list), h_list)
    for c, field in zip(configs, fields):
        exp = EXPERIMENTS[c.experiment]
        if exp.kind == "sweep":
            continue
        rows, passed, detail = exp.runner(c, field)
        reports[c.experiment] = RateReport(experiment=exp.id, kind=exp.kind, rows=rows, fits={},
                                           passed=passed, degenerate=False, detail=detail,
                                           config=c.describe())
    return reports


def emit(report: RateReport, fmt="csv", path=None):
    """Serialize a report; CSV columns exactly experiment,epsilon,h,quantity,value."""
    if fmt == "csv":
        lines = ["experiment,epsilon,h,quantity,value"]
        for eps, h, q, v in report.rows:
            lines.append(f"{report.experiment},{eps!r},{h!r},{q},{v!r}")
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "experiment": report.experiment,
            "kind": report.kind,
            "passed": report.passed,
            "degenerate": report.degenerate,
            "detail": report.detail,
            "config": report.config,
            "rows": [[eps, h, q, v] for eps, h, q, v in report.rows],
            "fits": {q: (asdict(f) if f is not None else None)
                     for q, f in report.fits.items()},
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise OSError(f"cannot write report to {path}: {err}") from err
    return text
