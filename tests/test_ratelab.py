import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import homoglab
from homoglab import cli, ratelab


EPS4 = np.array([1 / 8, 1 / 16, 1 / 32, 1 / 64])

# every statement the harness exercises, frozen
EXPECTED_IDS = {
    "thmA-green-size", "thmA-green-grad", "thmB-neumann-size", "thmB-neumann-grad",
    "w1p-dirichlet", "w1p-neumann", "weighted-h1", "lp-dirichlet", "linf-dirichlet",
    "lp-neumann", "poisson-remainder", "poisson-approx", "div-approx",
    "second-deriv-kernel", "s-epsilon", "dtn-expansion", "leibniz-1", "leibniz-2",
    "cell-oracle", "prop21-residual", "prop24-conormal", "corrector-bounds",
}


def test_registry_complete():
    assert set(ratelab.EXPERIMENTS) == EXPECTED_IDS
    for exp in ratelab.EXPERIMENTS.values():
        assert exp.description
        if exp.kind == "sweep":
            assert exp.compute is not None and exp.checks
        else:
            assert exp.runner is not None
    # each acceptance criterion 1..15 names registry experiments, none twice
    assert sorted(ratelab.CRITERIA) == list(range(1, 16))
    named = [e for _, exps in ratelab.CRITERIA.values() for e in exps]
    assert set(named) <= EXPECTED_IDS
    assert len(named) == len(set(named))


def _report(experiment, passed=True, degenerate=False, detail="fine"):
    return ratelab.RateReport(experiment=experiment, kind="sweep", rows=[], fits={},
                              passed=passed, degenerate=degenerate, detail=detail)


def test_verdict_passes_only_what_every_report_passed():
    assert ratelab.verdict([_report("a")]) == (True, "a: fine")
    assert ratelab.verdict([_report("a", passed=False)])[0] is False
    # values all below the floor pass their experiment but show no rate
    assert ratelab.verdict([_report("a", degenerate=True)])[0] is False
    assert ratelab.verdict([_report("a", detail="x"), _report("b", detail="y")]) == (True, "a: x; b: y")
    assert ratelab.verdict([_report("a"), _report("b", passed=False)])[0] is False


def test_verdict_refuses_a_sweep_without_a_fit():
    # a quantity whose values cannot be rate-fitted fails the slope check
    # that reads it, and with it the criterion
    check = ratelab.experiments.slope_at_least("q", 0.8)
    passed, detail = check({"q": None}, {"q": [0.0, 1.0, 2.0]})
    rep = _report("a", passed=passed, detail=detail)
    rep.fits = {"q": None}
    assert ratelab.verdict([rep]) == (False, "a: q: no fit")


def test_fit_exact_powers():
    fit = ratelab.fit_rate(EPS4, EPS4.copy())
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    fit = ratelab.fit_rate(EPS4, EPS4 ** 0.5)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_log_model():
    # literal eps*log(1/eps) data: the OLS slope is ~2/3 on this window
    # (computed with this module's own fit as the frozen oracle)
    fit = ratelab.fit_rate(EPS4, EPS4 * np.log(1.0 / EPS4))
    assert 0.6 <= fit.slope <= 0.75
    assert fit.r2 >= 0.99
    # data generated by the alternate model itself: the alternate fit is exact
    fit = ratelab.fit_rate(EPS4, EPS4 * np.log(1.0 / EPS4 + 2.0))
    assert fit.alt_residual <= 1e-12
    assert fit.alt_residual < fit.power_residual


def test_fit_rejects_bad_input():
    with pytest.raises(Exception):
        ratelab.fit_rate(EPS4[:2], EPS4[:2])
    with pytest.raises(Exception):
        ratelab.fit_rate(EPS4, np.array([1.0, 0.0, 1.0, 1.0]))


def test_config_validation():
    with pytest.raises(ValueError):
        ratelab.ExperimentConfig("cell-oracle", eps_list=(1 / 16, 1 / 8))
    with pytest.raises(ValueError):
        ratelab.ExperimentConfig("cell-oracle", cells_per_period=4)
    with pytest.raises(ValueError):
        ratelab.ExperimentConfig("cell-oracle", eps_list=(1 / 8, 1 / 256))
    for kwargs in ({"cells_per_period": 16.0}, {"cell_n": 4}, {"cell_n": 16.5}, {"seed": "x"},
                   {"seed": 1.5}, {"seed": -20}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ratelab.ExperimentConfig("leibniz-1", **kwargs)
    cfg = ratelab.ExperimentConfig("cell-oracle")
    assert cfg.eps_list == tuple(EPS4)


def test_unknown_experiment_lists_registry():
    with pytest.raises(ratelab.RegistryError) as err:
        ratelab.run(ratelab.ExperimentConfig("nope"))
    assert "cell-oracle" in str(err.value)


def _tiny_report():
    return ratelab.RateReport(
        experiment="demo", kind="sweep",
        rows=[(0.125, 0.0078125, "q", 0.25), (0.0625, 0.00390625, "q", 0.125)],
        fits={}, passed=True, degenerate=False, detail="demo")


def test_emit_csv_shapes(tmp_path):
    empty = ratelab.RateReport(experiment="e", kind="sweep", rows=[], fits={},
                               passed=True, degenerate=True)
    text = ratelab.emit(empty, "csv")
    assert text == "experiment,epsilon,h,quantity,value\n"
    rep = _tiny_report()
    rep.rows = rep.rows + [(0.03125, 0.001953125, "q", 0.06), (0.015625, 0.0009765625, "q", 0.03)]
    text = ratelab.emit(rep, "csv", tmp_path / "r.csv")
    assert len(text.strip().split("\n")) == 5
    assert text.splitlines()[0] == "experiment,epsilon,h,quantity,value"


def test_emit_json_mirrors_report(tmp_path):
    rep = _tiny_report()
    text = ratelab.emit(rep, "json", tmp_path / "r.json")
    payload = json.loads(text)
    assert payload["experiment"] == "demo"
    assert payload["rows"] == [[0.125, 0.0078125, "q", 0.25], [0.0625, 0.00390625, "q", 0.125]]
    with pytest.raises(ValueError):
        ratelab.emit(rep, "xml")


def test_emit_io_error():
    rep = _tiny_report()
    with pytest.raises(OSError):
        ratelab.emit(rep, "csv", "/nonexistent-dir-xyz/report.csv")


def test_degenerate_pass_constant_coefficient():
    cfg = ratelab.ExperimentConfig("thmA-green-size",
                                   coefficient={"family": "constant", "params": {}},
                                   eps_list=(1 / 8, 1 / 16, 1 / 32),
                                   cells_per_period=8, cell_n=16)
    rep = ratelab.run(cfg)
    assert rep.passed and rep.degenerate
    assert all(abs(v) <= 1e-9 for v in rep.values("green_diff"))
    # the identities of a refine run hold exactly: its residuals are roundoff
    cfg = ratelab.ExperimentConfig("prop21-residual",
                                   coefficient={"family": "constant", "params": {}},
                                   eps_list=(1 / 8,), cells_per_period=8, cell_n=16)
    rep = ratelab.run(cfg)
    assert rep.passed and rep.degenerate
    assert rep.detail == "degenerate-pass: all values below 1e-9"
    assert all(abs(v) <= 1e-9 for v in rep.values("interior_identity_residual"))


def test_determinism_same_config_same_bytes(tmp_path):
    cfg = dict(coefficient={"family": "layered", "params": {}},
               eps_list=(1 / 8, 1 / 16, 1 / 32), cells_per_period=8, cell_n=32)
    rep1 = ratelab.run(ratelab.ExperimentConfig("lp-dirichlet", **cfg))
    rep2 = ratelab.run(ratelab.ExperimentConfig("lp-dirichlet", **cfg))
    assert ratelab.emit(rep1, "csv") == ratelab.emit(rep2, "csv")
    assert ratelab.emit(rep1, "json") == ratelab.emit(rep2, "json")


def test_run_many_matches_run():
    cfgs = [ratelab.ExperimentConfig(i, eps_list=(1 / 8, 1 / 16, 1 / 32),
                                     cells_per_period=8, cell_n=32)
            for i in ("lp-dirichlet", "weighted-h1")]
    reports = ratelab.run_many(cfgs)
    solo = ratelab.run(cfgs[0])
    assert reports["lp-dirichlet"].rows == solo.rows


def test_slope_stable_under_refinement():
    # doubling cells-per-period moves the fitted slope by at most 0.1
    slopes = []
    for cpp in (8, 16):
        cfg = ratelab.ExperimentConfig("lp-dirichlet", eps_list=(1 / 8, 1 / 16, 1 / 32),
                                       cells_per_period=cpp, cell_n=64)
        rep = ratelab.run(cfg)
        slopes.append(rep.fits["l2_diff"].slope)
    assert abs(slopes[1] - slopes[0]) <= 0.1


def test_cell_oracle_runner():
    # criterion 01 reads the registry cell's verdict off the acceptance run;
    # this checks the runner's report at the smallest cell that meets the
    # oracle's 1e-3 bound (n = 16 misses it, at 3.7e-3)
    rep = ratelab.run(ratelab.ExperimentConfig("cell-oracle", cell_n=32))
    assert rep.passed
    assert rep.kind == "fixed"
    quantities = {q for (_, _, q, _) in rep.rows}
    assert "hatA_11_error" in quantities


def test_fixed_report_records_its_config():
    rep = ratelab.run(ratelab.ExperimentConfig("cell-oracle", cell_n=16, seed=3))
    payload = json.loads(ratelab.emit(rep, "json"))
    assert payload["kind"] == "fixed"
    assert payload["config"]["seed"] == 3 and payload["config"]["cell_n"] == 16


def test_cell_oracle_runs_on_the_config_coefficient():
    # the identity tensor homogenizes to itself, not to the layered closed form
    rep = ratelab.run(ratelab.ExperimentConfig(
        "cell-oracle", cell_n=16, coefficient={"family": "constant", "params": {}}))
    (err,) = rep.values("hatA_11_error")
    assert err == pytest.approx(abs(1.0 - np.sqrt(3.0)), abs=1e-10)
    assert rep.passed is False


def test_cli_rates_reads_the_mesh_block(tmp_path):
    # mesh.cell_n = 16 solves the cell at n = 16, too coarse for the
    # closed-form tolerance, so the run fails and exits 1
    assert cli.main(["rates", "--out", str(tmp_path), "--experiments", "cell-oracle",
                     "--format", "json", "--config", _write_small_config(tmp_path)]) == 1
    payload = json.loads((tmp_path / "cell-oracle.json").read_text())
    assert {h for (_, h, _, _) in payload["rows"]} == {1 / 16}
    assert payload["config"]["cell_n"] == 16


def test_cli_cell_subcommand(tmp_path):
    rc = cli.main(["cell", "--out", str(tmp_path), "--coeff-family", "layered",
                   "--config", _write_config(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "cell.json").read_text())
    assert "hatA" in payload and "chi_mean_max" in payload


def _write_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "coefficient": {"family": "layered", "params": {}},
        "mesh": {"cell_n": 64},
        "experiments": ["cell-oracle"],
    }))
    return str(path)


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"coefficient": {"family": "layered", "params": {}},
                                "solver": {"kind": "cg"}, "meshes": {}}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["cell", "--out", str(tmp_path), "--config", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown keys meshes, solver" in err
    assert not (tmp_path / "cell.json").exists()


def test_cli_config_rejects_unknown_mesh_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mesh": {"cell_n": 16, "cells": 8}}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["cell", "--out", str(tmp_path), "--config", str(path)])
    assert exit_info.value.code == 2
    assert "unknown mesh keys cells" in capsys.readouterr().err


def test_cli_rates_subcommand(tmp_path):
    rc = cli.main(["rates", "--out", str(tmp_path), "--experiments", "cell-oracle",
                   "--format", "json"])
    assert rc == 0
    payload = json.loads((tmp_path / "cell-oracle.json").read_text())
    assert payload["passed"] is True


def test_cli_green_subcommand(tmp_path):
    rc = cli.main(["green", "--out", str(tmp_path), "--n", "32", "--eps", "1/4"])
    assert rc == 0
    lines = (tmp_path / "green.csv").read_text().strip().split("\n")
    assert lines[0] == "x,y,source_x,source_y,component,value"


def test_config_rejects_misaligned_epsilon():
    # 8 / 0.3 is not an integer: the periods would not align with the mesh
    with pytest.raises(ValueError):
        ratelab.ExperimentConfig("lp-dirichlet", eps_list=(0.3, 0.15, 0.075),
                                 cells_per_period=8)
    with pytest.raises(ValueError):
        ratelab.mesh_resolution(16, 0.3)
    with pytest.raises(ValueError):
        ratelab.mesh_resolution(16, 1 / 256)   # n = 4096 exceeds the budget of 1024
    assert ratelab.mesh_resolution(16, 1 / 3) == 48


def test_mesh_budget_is_the_finest_level_that_fits():
    # an aligned level's Dirichlet operator is solved by its cell template,
    # but a misaligned one still goes through the sparse LU, about 6 GB at
    # n = 2048: refuse that level up front
    assert ratelab.mesh_resolution(16, 1 / 64) == 1024
    with pytest.raises(ValueError, match="budget 1024"):
        ratelab.mesh_resolution(16, 1 / 128)


def _context(field, eps=1 / 4):
    # the level run_many builds with cells_per_period 8 and cell_n 16
    return ratelab.EpsilonContext(ratelab.cell_solution(field, 16),
                                  ratelab.cell_solution(field, 8).hatA, eps, 8)


def test_context_quantities_match_library():
    # the sweep context and the library functions give bitwise equal values
    from homoglab import expand, kernels
    from homoglab.coeff import builtin
    from homoglab.ratelab.context import POISSON_SOURCES_S

    ctx = _context(builtin("layered"))
    ctx.prepare(["s_piece1", "s_piece23", "P_eps", "P_0"])
    data = ctx.data
    op_eps, op_0 = ctx._ops["dir_eps"], ctx._ops["dir_0"]

    out = expand.s_epsilon(op_eps, op_0, data["phi"], data["phi_star"], data["s_g"])
    assert np.array_equal(out["field"][:, 0], data["s_piece1"] - data["s_piece23"])

    for s in POISSON_SOURCES_S:
        pos = ctx.boundary_pos(s)
        for op, key in ((op_eps, "P_eps"), (op_0, "P_0")):
            col = kernels.poisson_kernel(op, pos)
            assert np.array_equal(col, data[key][s])
    ctx.release()


def test_cli_expand_s_epsilon(tmp_path):
    rc = cli.main(["expand", "--out", str(tmp_path), "--config", _write_small_config(tmp_path),
                   "--eps", "1/4", "--cells-per-period", "8", "--experiment", "s-epsilon"])
    assert rc == 0
    payload = json.loads((tmp_path / "expand.json").read_text())
    assert "w_h1" in payload
    assert set(payload["s_epsilon_norms"]) == {"1.5"}
    assert np.isfinite(payload["s_epsilon_norms"]["1.5"])


def _write_small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "coefficient": {"family": "layered", "params": {}},
        "mesh": {"cell_n": 16},
    }))
    return str(path)


def _small_cli(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path), "--config", _write_small_config(tmp_path),
                     "--eps", "1/4"])


def test_cli_correctors_subcommand(tmp_path):
    assert _small_cli(tmp_path, "correctors", "--cells-per-period", "8") == 0
    (report,) = json.loads((tmp_path / "correctors.json").read_text())
    assert report["epsilon"] == 0.25
    assert {"phi", "psi"} <= set(report)
    assert {"grad_sup", "dist_sup", "dist_sup_over_eps_log"} <= set(report["psi"])


def test_cli_correctors_warns_when_under_resolved(tmp_path):
    # 2 cells per period: h = 1/8 > eps/8, so the run completes and says so
    # on stderr
    src = os.path.dirname(os.path.dirname(homoglab.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-m", "homoglab.cli", "correctors", "--out", str(tmp_path),
         "--config", _write_small_config(tmp_path), "--eps", "1/4", "--cells-per-period", "2"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "under-resolved oscillation: h=0.125 > eps/8=0.03125" in done.stderr
    assert (tmp_path / "correctors.json").exists()


@pytest.mark.parametrize("kind", ["neumann-fn", "poisson"])
def test_cli_kernel_subcommands(tmp_path, kind):
    assert _small_cli(tmp_path, kind, "--n", "16") == 0
    lines = (tmp_path / f"{kind}.csv").read_text().strip().split("\n")
    assert lines[0] == "x,y,source_x,source_y,component,value"
    assert len(lines) == 1 + 17 * 17
    assert np.loadtxt(tmp_path / f"{kind}.csv", delimiter=",", skiprows=1).shape == (17 * 17, 6)


def test_cli_dtn_subcommand(tmp_path):
    assert _small_cli(tmp_path, "dtn", "--n", "16") == 0
    lines = (tmp_path / "dtn.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# boundary nodes counterclockwise")
    assert lines[1] == ",".join(str(i) for i in range(64))
    assert len(lines) == 2 + 64


@pytest.mark.parametrize("flags, keys", [
    (("--family", "dirichlet", "--check", "residual"), {"w_h1", "residual"}),
    (("--family", "neumann"), {"conormal"}),
])
def test_cli_expand_checks(tmp_path, flags, keys):
    assert _small_cli(tmp_path, "expand", "--cells-per-period", "8", *flags) == 0
    payload = json.loads((tmp_path / "expand.json").read_text())
    assert set(payload) == keys
    if "conormal" in keys:
        assert set(payload["conormal"]) == {"max", "l2_boundary"}


@pytest.mark.parametrize("flags, named", [
    (("--family", "neumann", "--check", "residual"), "--check residual"),
    # the conflict is refused whichever flag comes first
    (("--experiment", "s-epsilon", "--family", "neumann"), "--experiment s-epsilon"),
    (("--family", "neumann", "--experiment", "s-epsilon"), "--experiment s-epsilon"),
    # the Neumann family is chosen by --family alone
    (("--check", "conormal"), "--check"),
])
def test_cli_expand_rejects_ignored_flags(tmp_path, capsys, flags, named):
    with pytest.raises(SystemExit) as exit_info:
        _small_cli(tmp_path, "expand", "--cells-per-period", "8", *flags)
    assert exit_info.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "expand.json").exists()


def test_cell_cache_keys_on_the_evaluator():
    # hand-built fields with equal params but different media must not share
    # a cached cell solution
    from homoglab.coeff import CoefficientField

    def layered(base):
        def ev(pts):
            a = base + np.sin(2 * np.pi * pts[:, 0])
            return a[:, None, None, None, None] * np.eye(2)[None, :, :, None, None]
        return CoefficientField(ev, params={"label": "layered"})

    f2, f5 = layered(2.0), layered(5.0)
    assert f2.key() != f5.key()
    assert f2.key()[-1] is f2._evaluator
    h2 = ratelab.cell_solution(f2, 8).hatA[0, 0, 0, 0]
    h5 = ratelab.cell_solution(f5, 8).hatA[0, 0, 0, 0]
    assert h5 > h2
    # builtin and expression fields stay keyed on their content
    from homoglab.coeff import builtin, from_expression
    assert builtin("layered").key() == builtin("layered").key()
    assert from_expression("2 + y1").key() == from_expression("2 + y1").key()


def test_context_rejects_neumann_function_of_nonsymmetric_field():
    from homoglab.coeff import builtin
    from homoglab.kernels import KernelError

    field = builtin("constant", value=np.array([[1.0, 0.5], [-0.5, 1.0]]))
    ctx = _context(field)
    with pytest.raises(KernelError):
        ctx.prepare(["N_0"])
    ctx.release()


def test_context_homogenized_operator_is_symmetric():
    # L_0 is assembled from the hatA field, symmetric, which spares the adjoint solves
    from homoglab import correctors
    from homoglab.coeff import builtin

    ctx = _context(builtin("layered"))
    op0 = ctx.op("dir_0")
    phi, phi_star = correctors.dirichlet_correctors(op0)
    assert np.array_equal(phi_star, phi)
    assert op0.symmetric and op0.m == 1
    ctx.release()


@pytest.mark.parametrize("argv, flag", [
    (("rates", "--eps", "1/0"), "--eps"),
    (("rates", "--eps", "abc"), "--eps"),
    (("rates", "--eps", "0,1/2"), "--eps"),
    (("correctors", "--pin", "0.5"), "--pin"),
    (("green", "--n", "0"), "--n"),
    (("green", "--n", "1"), "--n"),
    (("cell", "--coeff-family", "layered", "--coeff-params", "{m: 2}"), "--coeff-params"),
    (("cell", "--coeff-family", "layered", "--coeff-params", "[2]"), "--coeff-params"),
    (("rates", "--experiments", "cell-oracle,no-such-id"), "--experiments"),
])
def test_cli_rejects_bad_flag_values(tmp_path, capsys, argv, flag):
    # an unreadable flag value is a usage error (exit 2), not a failed run (exit 1)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_unknown_experiment_lists_registry(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["rates", "--experiments", "no-such-id", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "'no-such-id'" in err
    assert all(i in err for i in ratelab.EXPERIMENTS)


def test_leibniz_runners_apply_lambda_without_the_dense_matrix(monkeypatch):
    from homoglab import kernels

    def no_dense(op):
        raise AssertionError("the dense DtN matrix was assembled")

    monkeypatch.setattr(kernels, "dtn", no_dense)
    for exp in ("leibniz-1", "leibniz-2"):
        rep = ratelab.run(ratelab.ExperimentConfig(exp, cell_n=16))
        assert rep.passed, rep.detail
        assert all(np.isfinite(v) for (_, _, _, v) in rep.rows)


def test_poisson_approx_runs_on_a_system():
    # the oscillating Dirichlet data has one column per component
    rep = ratelab.run(ratelab.ExperimentConfig(
        "poisson-approx", coefficient={"family": "layered", "params": {"m": 2}},
        eps_list=(1 / 2, 1 / 4, 1 / 8), cells_per_period=8, cell_n=16))
    assert len(rep.rows) == 6
    assert all(np.isfinite(v) for (_, _, _, v) in rep.rows)


@pytest.mark.parametrize("exp", ["s-epsilon", "dtn-expansion", "leibniz-1", "leibniz-2"])
def test_scalar_only_experiments_reject_a_system(monkeypatch, exp):
    # rejected by name before any context is built or runner called
    def never(*args, **kwargs):
        raise AssertionError("reached the computation")

    monkeypatch.setattr(ratelab, "EpsilonContext", never)
    monkeypatch.setattr(ratelab.EXPERIMENTS[exp], "runner", never)
    with pytest.raises(ValueError, match=rf"{exp}.*m = 1"):
        cfg = ratelab.ExperimentConfig(exp, coefficient={"family": "layered", "params": {"m": 2}},
                                       eps_list=(1 / 2, 1 / 4, 1 / 8), cells_per_period=8,
                                       cell_n=16)
        ratelab.run_many([cfg])


def test_cli_expand_neumann_family_for_a_system(tmp_path):
    # the Neumann source has one cos(pi x1) column per component
    path = tmp_path / "m2.json"
    path.write_text(json.dumps({"coefficient": {"family": "layered", "params": {"m": 2}},
                                "mesh": {"cell_n": 16}}))
    assert cli.main(["expand", "--out", str(tmp_path), "--config", str(path), "--eps", "1/4",
                     "--cells-per-period", "8", "--family", "neumann"]) == 0
    payload = json.loads((tmp_path / "expand.json").read_text())
    assert set(payload["conormal"]) == {"max", "l2_boundary"}
    assert all(np.isfinite(v) for v in payload["conormal"].values())


def test_config_rejects_an_unknown_experiment_with_a_coefficient():
    with pytest.raises(ratelab.RegistryError, match="available: .*cell-oracle"):
        ratelab.ExperimentConfig("no-such-id", coefficient={"family": "constant", "params": {}})


def test_run_many_drops_the_cell_cache(monkeypatch):
    from homoglab.ratelab import context

    cfg = ratelab.ExperimentConfig("cell-oracle", cell_n=16)
    ratelab.run(cfg)
    assert context._CELL_CACHE == {}
    # also when the run raises after a cell was solved
    oracle = ratelab.EXPERIMENTS["cell-oracle"].runner

    def failing(config):
        oracle(config)
        raise RuntimeError("after the cell solve")

    monkeypatch.setattr(ratelab.EXPERIMENTS["cell-oracle"], "runner", failing)
    with pytest.raises(RuntimeError):
        ratelab.run(cfg)
    assert context._CELL_CACHE == {}


def test_cli_expand_and_the_identity_runners_share_one_implementation(tmp_path):
    # both build the level through EpsilonContext with the cell's own hatA
    cfg = {"eps_list": (1 / 4, 1 / 8, 1 / 16), "cells_per_period": 8, "cell_n": 16}
    reports = ratelab.run_many([ratelab.ExperimentConfig(exp, **cfg)
                                for exp in ("prop21-residual", "prop24-conormal")])
    out = {}
    for family, extra in (("dirichlet", ["--check", "residual"]), ("neumann", [])):
        assert cli.main(["expand", "--family", family, *extra, "--eps", "1/4",
                         "--cells-per-period", "8", "--config", _write_small_config(tmp_path),
                         "--out", str(tmp_path / family)]) == 0
        out[family] = json.loads((tmp_path / family / "expand.json").read_text())
    assert out["dirichlet"]["residual"] == reports["prop21-residual"].rows[0][3]
    assert out["neumann"]["conormal"]["l2_boundary"] == reports["prop24-conormal"].rows[0][3]


def test_cli_rates_honours_the_coefficient_flags(tmp_path):
    # the flags override the config's layered coefficient; the identity
    # homogenizes to itself, so the closed-form check fails and exits 1
    assert cli.main(["rates", "--out", str(tmp_path), "--experiments", "cell-oracle",
                     "--coeff-family", "constant", "--format", "json",
                     "--config", _write_small_config(tmp_path)]) == 1
    payload = json.loads((tmp_path / "cell-oracle.json").read_text())
    assert payload["config"]["coefficient"] == {"family": "constant", "params": {}}
    (err,) = [v for (_, _, q, v) in payload["rows"] if q == "hatA_11_error"]
    assert err == pytest.approx(abs(1.0 - np.sqrt(3.0)), abs=1e-10)


@pytest.mark.parametrize("argv, named", [
    (("rates", "--experiments", "leibniz-1", "--coeff-family", "layered",
      "--coeff-params", '{"m": 2}'), ("'leibniz-1'", "m = 1")),
    (("rates", "--eps", "0.3,0.15,0.075"), ("does not align",)),
    (("rates", "--cells-per-period", "4"), ("at least 8",)),
    (("all", "--coeff-family", "layered", "--coeff-params", '{"m": 2}',
      "--eps", "1/2,1/4,1/8", "--cells-per-period", "8"), ("m = 1",)),
    (("cell", "--coeff-family", "user", "--coeff-params", '{"expr": "-1"}'), ("not positive",)),
    (("cell", "--coeff-params", '{"amp": 0.5}'), ("--coeff-params", "--coeff-family")),
    (("cell", "--coeff-family", "user"), ("parameter expr",)),
    (("cell", "--coeff-family", "layered", "--coeff-params", '{"m": "x"}'), ("parameter m",)),
    (("correctors", "--eps", "0.3"), ("does not align",)),
    (("expand", "--eps", "0.3"), ("does not align",)),
    (("correctors", "--cells-per-period", "0", "--eps", "1/2"), ("--cells-per-period", "positive")),
    (("rates", "--cells-per-period", "0"), ("--cells-per-period", "positive")),
    (("rates", "--cells-per-period", "-16"), ("--cells-per-period", "positive")),
    # a dict stands for a config file holding it: its values get the flags' checks
    (("cell", "--config", {"mesh": {"cell_n": 4}}), ("mesh.cell_n", "at least 8")),
    (("rates", "--config", {"mesh": {"cell_n": 16.5}}), ("mesh.cell_n", "not an integer")),
    (("green", "--config", {"mesh": {"n": 1}}), ("mesh.n", "at least 2")),
    (("rates", "--experiments", "leibniz-1", "--config", {"seed": "x"}), ("seed", "not an integer")),
    (("expand", "--experiment", "s-epsilon", "--coeff-family", "layered",
      "--coeff-params", '{"m": 2}'), ("--experiment s-epsilon", "m = 1")),
])
def test_cli_rejects_inputs_the_run_cannot_take(tmp_path, capsys, argv, named):
    # a config or coefficient the library rejects is a usage error, and
    # nothing is computed or written
    out, config = tmp_path / "out", tmp_path / "config.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    argv = [str(config) if isinstance(arg, dict) else arg for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert all(text in err for text in named)
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("green", "--pin", "0.5,0.5"), "--pin"),
    (("cell", "--eps", "1/4"), "--eps"),
    (("dtn", "--cells-per-period", "8"), "--cells-per-period"),
    (("rates", "--n", "64"), "--n"),
    (("correctors", "--format", "json"), "--format"),
    (("all", "--experiments", "cell-oracle"), "--experiments"),
    (("expand", "--eps", "1/4,1/8"), "--eps"),
    (("green", "--eps-list", "1/4"), "--eps-list"),
    # an abbreviation or a near-miss is not taken for the flag it resembles
    (("rates", "--experiment", "leibniz-1"), "--experiment"),
    (("expand", "--fam", "neumann"), "--fam"),
    (("correctors", "--e", "1/4"), "--e"),
])
def test_cli_subcommand_refuses_flags_it_does_not_read(tmp_path, capsys, argv, flag):
    # a flag that the subcommand would ignore, or a second epsilon where it
    # runs one, is a usage error
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--out", str(out)])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_readme_examples_parse():
    # every homoglab command line shown in the README is one the parser takes
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        blocks = fh.read().split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("homoglab ") and "<subcommand>" not in line]
    assert len(lines) >= 6
    for line in lines:
        cli._parser().parse_args(shlex.split(line)[1:])


def test_every_epsilon_level_is_released(tmp_path, monkeypatch):
    # an unreleased level keeps its factorizations alive, and the per-level
    # trace, which closes a level at release(), never counts it
    ctx_cls = ratelab.EpsilonContext
    init, release = ctx_cls.__init__, ctx_cls.release
    built, released = [], set()

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def tracked_release(self):
        release(self)
        released.add(id(self))

    monkeypatch.setattr(ctx_cls, "__init__", tracked_init)
    monkeypatch.setattr(ctx_cls, "release", tracked_release)
    cfg = {"eps_list": (1 / 4, 1 / 8, 1 / 16), "cells_per_period": 8, "cell_n": 16}
    ratelab.run_many([ratelab.ExperimentConfig(exp, **cfg)
                      for exp in ("prop21-residual", "prop24-conormal")])
    for argv in (("expand", "--family", "dirichlet", "--check", "residual"),
                 ("expand", "--family", "neumann"), ("correctors",)):
        assert _small_cli(tmp_path, *argv, "--cells-per-period", "8") == 0
    # two mesh levels per identity runner, one per expand, one per correctors epsilon
    assert len(built) == 7
    assert {id(ctx) for ctx in built} == released


def test_cli_config_path_that_cannot_be_read(tmp_path, capsys):
    # a missing config is a usage error naming the path, with nothing written
    path, out = tmp_path / "missing.json", tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["cell", "--config", str(path), "--out", str(out)])
    assert exit_info.value.code == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_with_an_unknown_experiment(tmp_path, capsys):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"experiments": ["no-such-id"]}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["rates", "--config", str(path), "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "'no-such-id'" in err
    assert all(i in err for i in ratelab.EXPERIMENTS)
    assert not out.exists()
