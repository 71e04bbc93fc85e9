"""Acceptance suite: one pass/fail line per criterion of ratelab.CRITERIA
(run with `pytest tests/test_acceptance.py -v -s`).

A criterion's registry experiments decide it through ratelab.verdict, read
off one session run_many; criteria 02 and 03, and a part of 12 and of 14,
are named checks below that compute directly.
"""

import numpy as np
import pytest

from homoglab import cell, coeff, correctors, expand, kernels, mesh, ratelab

# an acceptance criterion read off an under-resolved oscillation shows nothing
pytestmark = pytest.mark.filterwarnings("error:under-resolved oscillation")

# run with the criteria's experiments, though no criterion reads them yet
UNREAD = ("w1p-neumann", "div-approx")


def _roundoff(value):
    """A reading that is zero up to roundoff, printed as '<1e-12' so that the
    line does not move with the solver's elimination order; a larger one is
    printed to two digits."""
    return "<1e-12" if value < 1e-12 else f"{value:.1e}"


@pytest.fixture(scope="session")
def reports():
    ids = [e for _, exps in ratelab.CRITERIA.values() for e in exps] + list(UNREAD)
    return ratelab.run_many([ratelab.ExperimentConfig(i) for i in ids])


def _exact_identities(request):
    c64 = request.getfixturevalue("layered_cell64")
    c128 = request.getfixturevalue("layered_cell128")
    chi_mean = np.abs(c128.chi_means()).max()
    b_mean = np.abs(c128.b_mean).max()
    antisym = np.abs(c128.F + c128.F.transpose(1, 0, 2, 3, 4, 5)).max()
    r64 = cell.flux_divergence_residual(c64.grid, c64.F, c64.b_gauss)
    r128 = cell.flux_divergence_residual(c128.grid, c128.F, c128.b_gauss)
    ratio = r128 / r64
    ok = chi_mean <= 1e-10 and b_mean <= 1e-8 and antisym == 0.0 and ratio <= 0.6
    return ok, (f"chi mean={chi_mean:.1e} (<=1e-10), int b={b_mean:.1e} (<=1e-8), "
                f"F antisymmetry={antisym} (exact), divF residual ratio={ratio:.2f} (halves)")


def _constant_run(request):
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
    return ok, (f"chi={_roundoff(chi_max)}, |Phi-P|={_roundoff(phi_dev)}, "
                f"|Psi-P|={_roundoff(psi_dev)}, |G_eps-G_0|={_roundoff(g_dev)}, "
                f"|N_eps-N_0|={_roundoff(n_dev)}, |omega-1|={_roundoff(om_dev)} (all <=1e-8)")


def _constant_residuals(request):
    """The interior and boundary identity residuals of a constant coefficient
    vanish."""
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
    F = np.cos(np.pi * dm.nodes[:, 0])[:, None]
    un_eps, un0 = mesh.solve_neumann(opn, F), mesh.solve_neumann(opn0, F)
    psi = correctors.neumann_correctors(opn, cs.hatA)
    en = expand.build_expansion(dm, un_eps, un0, "neumann", psi, 1 / 8)
    c_const = expand.conormal_identity_check(en, sc, cs.hatA)["max"]
    return (r_const <= 1e-8 and c_const <= 1e-8,
            f"constant-coefficient residuals {_roundoff(r_const)}, {_roundoff(c_const)} (<=1e-8)")


def _s_of_one(request):
    """S(1) = 0 at the coarsest sweep resolution."""
    hatA = request.getfixturevalue("layered_cell128").hatA
    dm = mesh.DomainMesh(128)
    op = mesh.assemble(coeff.rescale(request.getfixturevalue("layered_field"), 1 / 8), dm)
    op0 = mesh.assemble(coeff.builtin("constant", value=hatA), dm)
    phi, phi_star = correctors.dirichlet_correctors(op)
    s_one = expand.s_epsilon(op, op0, phi, phi_star, np.ones(dm.nnodes))["norms"][1.5]
    return s_one <= 1e-8, f"S(1)={s_one:.1e} (<=1e-8)"


NAMED_CHECKS = {2: _exact_identities, 3: _constant_run, 12: _constant_residuals, 14: _s_of_one}


@pytest.mark.parametrize("number", sorted(ratelab.CRITERIA), ids="criterion_{:02d}".format)
def test_criterion(number, request):
    title, exps = ratelab.CRITERIA[number]
    # the session run starts with the first criterion that names an experiment
    ok, detail = ratelab.verdict([request.getfixturevalue("reports")[e] for e in exps])
    if number in NAMED_CHECKS:
        named_ok, fragment = NAMED_CHECKS[number](request)
        ok = ok and named_ok
        detail = f"{detail}; {fragment}" if detail else fragment
    line = f"[ACCEPTANCE] criterion {number:02d} ({title}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line
