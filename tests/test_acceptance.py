"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

The epsilon sweeps share one run_many invocation (session fixture); the
identity and fixed-resolution criteria compute directly.
"""

import numpy as np
import pytest

from homoglab import cell, coeff, correctors, expand, kernels, mesh, ratelab

# an acceptance criterion read off an under-resolved oscillation shows nothing
pytestmark = pytest.mark.filterwarnings("error:under-resolved oscillation")

SWEEP_IDS = [
    "thmA-green-size", "thmA-green-grad", "thmB-neumann-size", "thmB-neumann-grad",
    "w1p-dirichlet", "w1p-neumann", "weighted-h1", "lp-dirichlet", "lp-neumann",
    "poisson-remainder", "poisson-approx", "div-approx", "s-epsilon",
    "dtn-expansion", "corrector-bounds",
]


def _report(criterion, ok, detail):
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _roundoff(value):
    """A reading that is zero up to roundoff, printed as '<1e-12' so that the
    line does not move with the solver's elimination order; a larger one is
    printed to two digits."""
    return "<1e-12" if value < 1e-12 else f"{value:.1e}"


@pytest.fixture(scope="session")
def sweep_reports():
    configs = [ratelab.ExperimentConfig(i) for i in SWEEP_IDS]
    return ratelab.run_many(configs)


@pytest.fixture(scope="session")
def layered_cell256(layered_field):
    return cell.solve(layered_field, 256)


def test_criterion_01_cell_oracle(layered_cell256):
    hatA = layered_cell256.hatA[:, :, 0, 0]
    e11 = abs(hatA[0, 0] - np.sqrt(3.0))
    e22 = abs(hatA[1, 1] - 2.0)
    off = max(abs(hatA[0, 1]), abs(hatA[1, 0]))
    ok = e11 <= 1e-3 and e22 <= 1e-3 and off <= 1e-4
    _report("criterion 01 (cell oracle)", ok,
            f"|a11-sqrt3|={e11:.2e} (<=1e-3), |a22-2|={e22:.2e} (<=1e-3), offdiag={off:.2e} (<=1e-4)")


def test_criterion_02_exact_identities(layered_cell64, layered_cell128):
    chi_mean = np.abs(layered_cell128.chi_means()).max()
    b_mean = np.abs(layered_cell128.b_mean).max()
    antisym = np.abs(layered_cell128.F + layered_cell128.F.transpose(1, 0, 2, 3, 4, 5)).max()
    r64 = cell.flux_divergence_residual(layered_cell64.grid, layered_cell64.F,
                                        layered_cell64.b_gauss)
    r128 = cell.flux_divergence_residual(layered_cell128.grid, layered_cell128.F,
                                         layered_cell128.b_gauss)
    ratio = r128 / r64
    ok = chi_mean <= 1e-10 and b_mean <= 1e-8 and antisym == 0.0 and ratio <= 0.6
    _report("criterion 02 (exact cell identities)", ok,
            f"chi mean={chi_mean:.1e} (<=1e-10), int b={b_mean:.1e} (<=1e-8), "
            f"F antisymmetry={antisym} (exact), divF residual ratio={ratio:.2f} (halves)")


def test_criterion_03_constant_degenerate_run():
    A = np.array([[np.sqrt(3.0), 0.0], [0.0, 2.0]])
    field = coeff.builtin("constant", value=A)
    cs = cell.solve(field, 16)
    chi_max = np.abs(cs.chi).max()
    dm = mesh.DomainMesh(32)
    sc = coeff.rescale(field, 1 / 8)
    op = mesh.assemble(sc, dm, mode="dirichlet")
    opn = mesh.assemble(sc, dm, mode="neumann")
    phi, phi_star = correctors.dirichlet_correctors(op)
    psi = correctors.neumann_correctors(opn, cs.hatA)
    P = mesh.monomial_table(dm, 1)
    phi_dev = np.abs(phi - P).max()
    psi_dev = np.abs(psi - P).max()
    y = np.array([0.75, 0.5])
    G_eps = kernels.green(op, y)
    op0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="dirichlet")
    G_0 = kernels.green(op0, y)
    g_dev = np.abs(G_eps - G_0).max()
    opn0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="neumann")
    N_eps = kernels.neumann_fn(opn, y)
    N_0 = kernels.neumann_fn(opn0, y)
    n_dev = np.abs(N_eps - N_0).max()
    om = kernels.omega(op, cs.hatA, phi_star)
    om_dev = np.abs(om - np.eye(1)).max()
    ok = all(v <= 1e-8 for v in (chi_max, phi_dev, psi_dev, g_dev, n_dev, om_dev))
    _report("criterion 03 (constant-coefficient degenerate run)", ok,
            f"chi={_roundoff(chi_max)}, |Phi-P|={_roundoff(phi_dev)}, "
            f"|Psi-P|={_roundoff(psi_dev)}, |G_eps-G_0|={_roundoff(g_dev)}, "
            f"|N_eps-N_0|={_roundoff(n_dev)}, |omega-1|={_roundoff(om_dev)} (all <=1e-8)")


def _sweep_fit(sweep_reports, exp, quantity):
    rep = sweep_reports[exp]
    fit = rep.fits.get(quantity)
    assert fit is not None, f"{exp}/{quantity} has no fit"
    return rep, fit


def test_criterion_04_green_size_rate(sweep_reports):
    _, fit = _sweep_fit(sweep_reports, "thmA-green-size", "green_diff")
    ok = fit.slope >= 0.8 and fit.r2 >= 0.98
    _report("criterion 04 (Green function size rate)", ok,
            f"slope={fit.slope:.3f} (>=0.8), R2={fit.r2:.4f} (>=0.98)")


def test_criterion_05_green_gradient_rate(sweep_reports):
    _, fit = _sweep_fit(sweep_reports, "thmA-green-grad", "green_grad_defect")
    ok = fit.slope >= 0.7
    _report("criterion 05 (Green gradient comparison rate)", ok,
            f"slope={fit.slope:.3f} (>=0.7)")


def test_criterion_06_neumann_size_rate(sweep_reports):
    _, fit = _sweep_fit(sweep_reports, "thmB-neumann-size", "neumann_diff")
    ok = fit.slope >= 0.8
    _report("criterion 06 (Neumann function size rate)", ok,
            f"slope={fit.slope:.3f} (>=0.8)")


def test_criterion_07_neumann_gradient_rate(sweep_reports):
    _, fit = _sweep_fit(sweep_reports, "thmB-neumann-grad", "neumann_grad_defect")
    ok = fit.slope >= 0.6
    _report("criterion 07 (Neumann gradient comparison rate)", ok,
            f"slope={fit.slope:.3f} (>=0.6)")


def test_criterion_08_w1p_family_separation(sweep_reports):
    _, fit_phi = _sweep_fit(sweep_reports, "w1p-dirichlet", "h1_dirichlet_family")
    _, fit_chi = _sweep_fit(sweep_reports, "w1p-dirichlet", "h1_chi_family")
    ok = fit_phi.slope >= 0.85 and fit_chi.slope <= 0.7
    _report("criterion 08 (W1p corrector-family separation)", ok,
            f"Dirichlet-family slope={fit_phi.slope:.3f} (>=0.85), "
            f"interior-family slope={fit_chi.slope:.3f} (<=0.7, boundary layer)")


def test_criterion_09_weighted_estimate(sweep_reports):
    _, fit = _sweep_fit(sweep_reports, "weighted-h1", "weighted_grad")
    ok = fit.slope >= 0.85
    _report("criterion 09 (distance-weighted gradient rate)", ok,
            f"slope={fit.slope:.3f} (>=0.85)")


def test_criterion_10_lp_rates(sweep_reports):
    _, fit_d = _sweep_fit(sweep_reports, "lp-dirichlet", "l2_diff")
    _, fit_n = _sweep_fit(sweep_reports, "lp-neumann", "l2_diff_neumann")
    ok = fit_d.slope >= 0.9 and fit_n.slope >= 0.8
    _report("criterion 10 (L2 rates, Dirichlet and Neumann)", ok,
            f"Dirichlet slope={fit_d.slope:.3f} (>=0.9), Neumann slope={fit_n.slope:.3f} (>=0.8)")


def test_criterion_11_poisson_kernel(sweep_reports):
    _, fit_r = _sweep_fit(sweep_reports, "poisson-remainder", "poisson_remainder")
    _, fit_a = _sweep_fit(sweep_reports, "poisson-approx", "poisson_approx_l2")
    ok = fit_r.slope >= 0.7 and fit_a.slope >= 0.3
    _report("criterion 11 (Poisson kernel expansion)", ok,
            f"remainder slope={fit_r.slope:.3f} (>=0.7), "
            f"oscillating-data approx slope={fit_a.slope:.3f} (>=0.3)")


def test_criterion_12_identity_checks():
    rep21 = ratelab.run(ratelab.ExperimentConfig("prop21-residual"))
    rep24 = ratelab.run(ratelab.ExperimentConfig("prop24-conormal"))

    # constant-coefficient variants vanish
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    field = coeff.builtin("constant", value=A)
    cs = cell.solve(field, 16)
    dm = mesh.DomainMesh(32)
    sc = coeff.rescale(field, 1 / 8)
    op = mesh.assemble(sc, dm, mode="dirichlet")
    op0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="dirichlet")
    f = np.ones((dm.nnodes, 1))
    u_eps = mesh.solve_dirichlet(op, f, bdata=0.0)
    u0 = mesh.solve_dirichlet(op0, f, bdata=0.0)
    phi, _ = correctors.dirichlet_correctors(op)
    e = expand.build_expansion(dm, u_eps, u0, "dirichlet", phi, 1 / 8)
    r_const = expand.residual_identity_check(e, op, cs)["residual"]
    opn = mesh.assemble(sc, dm, mode="neumann")
    opn0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="neumann")
    en = expand.neumann_expansion(opn, opn0, cs.hatA, np.cos(np.pi * dm.nodes[:, 0])[:, None])
    c_const = expand.conormal_identity_check(en, sc, cs.hatA)["max"]

    ok = rep21.passed and rep24.passed and r_const <= 1e-8 and c_const <= 1e-8
    _report("criterion 12 (expansion identity checks)", ok,
            f"interior: {rep21.detail}; boundary: {rep24.detail}; "
            f"constant-coefficient residuals {_roundoff(r_const)}, {_roundoff(c_const)} (<=1e-8)")


def test_criterion_13_leibniz_rules():
    rep1 = ratelab.run(ratelab.ExperimentConfig("leibniz-1"))
    rep2 = ratelab.run(ratelab.ExperimentConfig("leibniz-2"))
    ok = rep1.passed and rep2.passed
    _report("criterion 13 (Leibniz rules for the DtN map)", ok,
            f"{rep1.detail}; {rep2.detail}")


def test_criterion_14_operator_expansions(sweep_reports, layered_field, layered_cell128):
    rep_s = sweep_reports["s-epsilon"]
    rep_d = sweep_reports["dtn-expansion"]

    # S(1) = 0 at the coarsest sweep resolution
    dm = mesh.DomainMesh(128)
    op = mesh.assemble(coeff.rescale(layered_field, 1 / 8), dm)
    op0 = mesh.assemble(coeff.builtin("constant", value=layered_cell128.hatA), dm)
    phi, phi_star = correctors.dirichlet_correctors(op)
    out = expand.s_epsilon(op, op0, phi, phi_star, np.ones(dm.nnodes))
    s_one = out["norms"][1.5]

    ok = rep_s.passed and rep_d.passed and s_one <= 1e-8
    _report("criterion 14 (singular-integral and DtN expansions)", ok,
            f"S decay: {rep_s.detail}; DtN defect: {rep_d.detail}; S(1)={s_one:.1e} (<=1e-8)")


def test_criterion_15_corrector_bounds(sweep_reports):
    rep = sweep_reports["corrector-bounds"]
    phi_vals = np.array(rep.values("phi_dist_over_eps"))
    psi_vals = np.array(rep.values("psi_dist_over_eps_log"))
    r_phi = phi_vals.max() / phi_vals.min()
    r_psi = psi_vals.max() / psi_vals.min()
    ok = r_phi <= 3.0 and r_psi <= 3.0
    _report("criterion 15 (corrector sup-norm bounds)", ok,
            f"|Phi-P|/eps max/min={r_phi:.2f} (<=3), "
            f"|Psi-P|/(eps log(1/eps+2)) max/min={r_psi:.2f} (<=3)")
