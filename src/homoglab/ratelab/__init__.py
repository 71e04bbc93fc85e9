"""Experiment harness: epsilon sweeps, rate fitting, registry and reports.

A run builds one mesh per epsilon (h = eps / cells_per_period), executes
the experiment's pipeline (cell solve -> correctors -> solves -> norms),
fits log(value) against log(eps) and compares the slope (or boundedness /
monotonicity) against the experiment's threshold.  Reports are bit-stable
for a fixed config and seed.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field as dataclass_field, asdict

import numpy as np

from ..coeff import CoefficientField, builtin
from .context import _CELL_CACHE, EpsilonContext, cell_solution, mesh_resolution
from .experiments import CRITERIA, EXPERIMENTS, DEFAULT_EPS, DEGENERATE_FLOOR, SCALAR_ONLY, verdict

__all__ = ["ExperimentConfig", "RateReport", "FitResult", "fit_rate", "emit",
           "run", "run_many", "coefficient_from_spec", "EXPERIMENTS", "CRITERIA", "verdict",
           "EpsilonContext", "cell_solution", "mesh_resolution", "RegistryError"]


class RegistryError(KeyError):
    def __str__(self):
        # the message as written, not KeyError's repr of it
        return self.args[0]


class FitError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """One run's inputs, resolved and checked when the config is built.

    coefficient is a spec dict {"family": ..., "params": {...}}, or None
    for the registry default.  An unknown experiment raises RegistryError;
    a bad eps_list, a cells_per_period or cell_n that is not an integer of
    at least 8, a seed that is not a non-negative integer, or a
    SCALAR_ONLY experiment on a field with m != 1, raises ValueError.  The registry entry and the built field are kept as
    entry and field, outside describe(), repr and equality.
    """

    experiment: str
    coefficient: dict = None
    eps_list: tuple = DEFAULT_EPS
    cells_per_period: int = 16
    cell_n: int = 256
    seed: int = 0
    entry: object = dataclass_field(init=False, repr=False, compare=False)
    field: CoefficientField = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            self.entry = EXPERIMENTS[self.experiment]
        except KeyError:
            ids = ", ".join(sorted(EXPERIMENTS))
            raise RegistryError(f"unknown experiment {self.experiment!r}; "
                                f"available: {ids}") from None
        self.eps_list = tuple(float(e) for e in self.eps_list)
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if any(e <= 0 for e in self.eps_list):
            raise ValueError("eps values must be positive")
        # fewer than 8 cells per period under-resolve the oscillation
        for name, low in (("cells_per_period", 8), ("cell_n", 8), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        for eps in self.eps_list:
            mesh_resolution(self.cells_per_period, eps)
        self.field = coefficient_from_spec(self.coefficient or self.entry.coefficient)
        if self.experiment in SCALAR_ONLY and self.field.m != 1:
            raise ValueError(f"experiment {self.experiment!r} needs a scalar coefficient "
                             f"(m = 1), got m = {self.field.m}")

    def describe(self):
        return {
            "experiment": self.experiment, "coefficient": self.coefficient,
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
    """The field of a spec dict {"family": ..., "params": {...}}."""
    if spec is None:
        raise ValueError("no coefficient specified")
    family = spec.get("family", "layered")
    params = dict(spec.get("params", {}))
    return builtin(family, **params)


# a sweep or refine report whose values all sit at or below DEGENERATE_FLOOR
# measures roundoff, not a rate: it passes as degenerate with this detail
_DEGENERATE_DETAIL = "degenerate-pass: all values below 1e-9"


def _all_small(values):
    return all(abs(v) <= DEGENERATE_FLOOR for v in values)


def _finish_sweep(exp, config, rows_by_q, eps_list, h_list):
    rows = []
    for i, eps in enumerate(eps_list):
        for q, vals in rows_by_q.items():
            rows.append((eps, h_list[i], q, vals[i]))
    if _all_small(v for vals in rows_by_q.values() for v in vals):
        return RateReport(experiment=exp.id, kind="sweep", rows=rows, fits={},
                          passed=True, degenerate=True, detail=_DEGENERATE_DETAIL,
                          config=config.describe())
    fits = {}
    for q, vals in rows_by_q.items():
        try:
            fits[q] = fit_rate(np.array(eps_list), np.array(vals))
        except FitError:
            fits[q] = None
    results = [chk(fits, rows_by_q) for chk in exp.checks]
    passed = all(ok for ok, _ in results)
    detail = "; ".join(msg for _, msg in results)
    return RateReport(experiment=exp.id, kind="sweep", rows=rows, fits=fits,
                      passed=passed, degenerate=False, detail=detail,
                      config=config.describe())


def run(config: ExperimentConfig) -> RateReport:
    """Run a single experiment end to end: run_many of the one config."""
    return run_many([config])[config.experiment]


def run_many(configs) -> dict:
    """Run several experiments, sharing per-(coefficient, epsilon) contexts.

    Each config has already resolved its experiment and its coefficient
    (the spec dict, or the registry default for None).  Sweep experiments
    with the same coefficient are computed from one context per epsilon
    (epsilon-outer order, one live factorization); refine and fixed
    runners then run one by one.  The cell solutions cached during the
    run are dropped when it returns or raises.
    """
    configs = list(configs)
    try:
        return _run_groups(configs)
    finally:
        _CELL_CACHE.clear()


def _run_groups(configs):
    reports = {}
    groups = {}
    for c in configs:
        if c.entry.kind == "sweep":
            key = (c.field.key(), c.eps_list, c.cells_per_period, c.cell_n)
            groups.setdefault(key, (c.field, []))[1].append(c)

    for (fkey, eps_list, cpp, cell_n), (field, members) in groups.items():
        rows = {c.experiment: {} for c in members}
        h_list = []
        # fine-resolution corrector/flux tables for the expansions
        cs = cell_solution(field, cell_n)
        # the homogenized operators use the effective tensor of the *discrete*
        # medium (cells_per_period cells per period), so kernel differences
        # measure the discrete homogenization limit without an
        # epsilon-independent tensor-mismatch floor
        hatA = cell_solution(field, cpp).hatA
        for eps in eps_list:
            ctx = EpsilonContext(cs, hatA, eps, cpp)
            needs = set()
            for c in members:
                needs |= set(c.entry.needs)
            ctx.prepare(needs)
            for c in members:
                out = c.entry.compute(ctx)
                for q, v in out.items():
                    rows[c.experiment].setdefault(q, []).append(float(v))
            h_list.append(ctx.mesh.h)
            ctx.release()
            del ctx
        for c in members:
            reports[c.experiment] = _finish_sweep(c.entry, c, rows[c.experiment],
                                                  list(eps_list), h_list)
    for c in configs:
        exp = c.entry
        if exp.kind == "sweep":
            continue
        rows, passed, detail = exp.runner(c)
        degenerate = exp.kind == "refine" and _all_small(v for (_, _, _, v) in rows)
        if degenerate:
            passed, detail = True, _DEGENERATE_DETAIL
        reports[c.experiment] = RateReport(experiment=exp.id, kind=exp.kind, rows=rows, fits={},
                                           passed=passed, degenerate=degenerate, detail=detail,
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
