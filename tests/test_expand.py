import numpy as np
import pytest

from homoglab import cell, coeff, correctors, expand, kernels, mesh


@pytest.fixture(scope="module")
def const_problem(identity_field):
    cs = cell.solve(identity_field, 16)
    dm = mesh.DomainMesh(32)
    sc = coeff.rescale(identity_field, 1 / 8)
    op = mesh.assemble(sc, dm, mode="dirichlet")
    op0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="dirichlet")
    f = np.ones((dm.nnodes, 1))
    u_eps = mesh.solve_dirichlet(op, f, bdata=0.0)
    u0 = mesh.solve_dirichlet(op0, f, bdata=0.0)
    phi, phi_star = correctors.dirichlet_correctors(op)
    psi = correctors.neumann_correctors(mesh.assemble(sc, dm, mode="neumann"), cs.hatA)
    return dict(cs=cs, dm=dm, sc=sc, eps=1 / 8, op=op, op0=op0, u_eps=u_eps, u0=u0,
                phi=phi, phi_star=phi_star, psi=psi)


@pytest.fixture(scope="module")
def layered_problem(layered_field, layered_cell128):
    cs = layered_cell128
    eps = 1 / 8
    dm = mesh.DomainMesh(128)
    sc = coeff.rescale(layered_field, eps)
    op = mesh.assemble(sc, dm, mode="dirichlet")
    op0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="dirichlet")
    f = np.ones((dm.nnodes, 1))
    u_eps = mesh.solve_dirichlet(op, f, bdata=0.0)
    u0 = mesh.solve_dirichlet(op0, f, bdata=0.0)
    phi, phi_star = correctors.dirichlet_correctors(op)
    psi = correctors.neumann_correctors(mesh.assemble(sc, dm, mode="neumann"), cs.hatA)
    return dict(cs=cs, dm=dm, sc=sc, eps=eps, op=op, op0=op0,
                u_eps=u_eps, u0=u0, phi=phi, phi_star=phi_star, psi=psi)


def test_constant_w_vanishes_all_families(const_problem):
    p = const_problem
    for family, V in [("chi", correctors.interior_family(p["cs"], p["dm"], p["eps"])),
                      ("dirichlet", p["phi"]), ("neumann", p["psi"])]:
        e = expand.build_expansion(p["dm"], p["u_eps"], p["u0"], family, V, p["eps"])
        assert np.abs(e.w).max() <= 1e-10


def test_gradient_defect_vanishes_for_constant(const_problem):
    p = const_problem
    e = expand.build_expansion(p["dm"], p["u_eps"], p["u0"], "dirichlet", p["phi"], p["eps"])
    gc = expand.gradient_defect(p["dm"], e.u_eps, e.V, e.du0)
    inner = ~p["dm"].boundary_mask
    assert np.abs(gc[inner]).max() <= 1e-9


def test_w_zero_on_boundary_dirichlet_family(layered_problem):
    p = layered_problem
    e = expand.build_expansion(p["dm"], p["u_eps"], p["u0"], "dirichlet", p["phi"], p["eps"])
    assert np.abs(e.w[p["dm"].boundary_nodes]).max() == 0.0


def test_unknown_family_rejected(layered_problem):
    p = layered_problem
    with pytest.raises(expand.ExpansionError):
        expand.build_expansion(p["dm"], p["u_eps"], p["u0"], "bogus", p["phi"], p["eps"])


def test_residual_identity_constant(const_problem):
    p = const_problem
    e = expand.build_expansion(p["dm"], p["u_eps"], p["u0"], "dirichlet", p["phi"], p["eps"])
    r = expand.residual_identity_check(e, p["op"], p["cs"])
    assert r["residual"] <= 1e-8


def test_residual_identity_refinement(layered_field, layered_cell128):
    cs = layered_cell128
    eps = 1 / 8
    vals = []
    for cpp in (16, 32):
        dm = mesh.DomainMesh(int(cpp / eps))
        sc = coeff.rescale(layered_field, eps)
        op = mesh.assemble(sc, dm, mode="dirichlet")
        op0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="dirichlet")
        f = np.ones((dm.nnodes, 1))
        u_eps = mesh.solve_dirichlet(op, f, bdata=0.0)
        u0 = mesh.solve_dirichlet(op0, f, bdata=0.0)
        phi, _ = correctors.dirichlet_correctors(op)
        e = expand.build_expansion(dm, u_eps, u0, "dirichlet", phi, eps)
        vals.append(expand.residual_identity_check(e, op, cs)["residual"])
        op.release()
        op0.release()
    assert vals[1] / vals[0] <= 0.6


def test_residual_identity_chi_family_reduces_to_flux_term(layered_problem):
    # with V = P + eps*chi the pointwise gradient term vanishes identically
    p = layered_problem
    V = correctors.interior_family(p["cs"], p["dm"], p["eps"])
    e = expand.build_expansion(p["dm"], p["u_eps"], p["u0"], "chi", V, p["eps"])
    full = expand.residual_identity_check(e, p["op"], p["cs"])
    grad_term = full["term_loads"]["gradient"]
    low_term = full["term_loads"]["low_order"]
    flux_term = full["term_loads"]["flux"]
    assert np.abs(grad_term).max() <= 1e-10 * max(1.0, np.abs(flux_term).max())
    # the low-order term collapses onto the chi-part of the bounded kernel
    assert np.abs(low_term).max() > 0.0
    # so the residual without the gradient term is the full residual
    inter, _ = p["op"].dof_split()
    partial = (p["op"].matrix @ e.w.ravel() - flux_term - low_term)[inter]
    assert np.linalg.norm(partial) / p["dm"].h == pytest.approx(full["residual"], rel=1e-6)


def test_conormal_identity_constant(const_problem, identity_field):
    p = const_problem
    cs, dm = p["cs"], p["dm"]
    sc = p["sc"]
    opn = mesh.assemble(sc, dm, mode="neumann")
    opn0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="neumann")
    F = np.cos(np.pi * dm.nodes[:, 0])[:, None]
    u_eps = mesh.solve_neumann(opn, F)
    u0 = mesh.solve_neumann(opn0, F)
    e = expand.build_expansion(dm, u_eps, u0, "neumann", p["psi"], p["eps"])
    res = expand.conormal_identity_check(e, sc, cs.hatA)
    assert res["max"] <= 1e-8

    # gauge invariance: adding a constant to u_eps leaves the residual alone
    shifted = u_eps + 11.0
    e2 = expand.build_expansion(dm, shifted, u0, "neumann", p["psi"], p["eps"])
    res2 = expand.conormal_identity_check(e2, sc, cs.hatA)
    assert abs(res2["max"] - res["max"]) <= 1e-10


def test_conormal_identity_needs_neumann_family(layered_problem):
    p = layered_problem
    e = expand.build_expansion(p["dm"], p["u_eps"], p["u0"], "dirichlet", p["phi"], p["eps"])
    with pytest.raises(expand.ExpansionError):
        expand.conormal_identity_check(e, p["sc"], p["cs"].hatA)


def test_conormal_identity_refinement(layered_field, layered_cell128):
    cs = layered_cell128
    eps = 1 / 8
    vals = []
    for cpp in (16, 32):
        dm = mesh.DomainMesh(int(cpp / eps))
        sc = coeff.rescale(layered_field, eps)
        opn = mesh.assemble(sc, dm, mode="neumann")
        opn0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="neumann")
        F = np.cos(np.pi * dm.nodes[:, 0])[:, None]
        u_eps, u0 = mesh.solve_neumann(opn, F), mesh.solve_neumann(opn0, F)
        psi = correctors.neumann_correctors(opn, cs.hatA)
        e = expand.build_expansion(dm, u_eps, u0, "neumann", psi, eps)
        vals.append(expand.conormal_identity_check(e, sc, cs.hatA)["l2_boundary"])
        opn.release()
        opn0.release()
    assert vals[1] / vals[0] <= 0.6


def test_poisson_approx_identity_case(const_problem, identity_field):
    # constant coefficient: omega = 1, so both solves take the same data
    p = const_problem
    dm = p["dm"]
    om = kernels.omega(p["op"], p["cs"].hatA, p["phi_star"])
    fb = dm.nodes[dm.boundary_nodes, :1]
    diff = mesh.solve_dirichlet(p["op"], None, bdata=fb) - expand.poisson_approx_0(p["op0"], om, fb)
    assert mesh.norm(dm, diff, "Lp", 1) <= 1e-10 and mesh.norm(dm, diff, "Lp", 2) <= 1e-10


def test_divergence_data_identity_case(const_problem):
    p = const_problem
    dm = p["dm"]

    def diff(f):
        return (expand.divergence_data_eps(p["op"], f)
                - expand.divergence_data_0(p["op0"], p["phi_star"], f))

    f = np.stack([np.sin(np.pi * dm.nodes[:, 1]), np.zeros(dm.nnodes)], axis=1)[:, :, None]
    assert mesh.norm(dm, diff(f), "Lp", 1) <= 1e-10 and mesh.norm(dm, diff(f), "Lp", 2) <= 1e-10
    assert mesh.norm(dm, diff(np.zeros((dm.nnodes, 2, 1))), "Lp", 2) == 0.0


def test_s_epsilon_identities(const_problem):
    p = const_problem
    dm = p["dm"]
    out = expand.s_epsilon(p["op"], p["op0"], p["phi"], p["phi_star"],
                           np.ones(dm.nnodes))
    assert out["norms"][1.5] <= 1e-8      # S(1) = 0
    out = expand.s_epsilon(p["op"], p["op0"], p["phi"], p["phi_star"],
                           np.sin(2 * np.pi * dm.nodes[:, 0]))
    assert out["norms"][1.5] <= 1e-8      # constant coefficient: S(g) = 0


def test_s_epsilon_g_constant_layered(layered_problem):
    p = layered_problem
    out = expand.s_epsilon(p["op"], p["op0"], p["phi"], p["phi_star"],
                           np.full(p["dm"].nnodes, 3.0))
    assert out["norms"][1.5] <= 1e-8


def test_second_derivatives_of_quadratic():
    dm = mesh.DomainMesh(16)
    vals = dm.nodes[:, 0] ** 2 + 3.0 * dm.nodes[:, 0] * dm.nodes[:, 1]
    D2 = expand.second_derivatives(dm, vals[:, None])
    assert np.abs(D2[:, 0, 0, 0] - 2.0).max() <= 1e-10
    assert np.abs(D2[:, 0, 1, 0] - 3.0).max() <= 1e-10
    assert np.abs(D2[:, 1, 1, 0]).max() <= 1e-10


def test_two_family_comparison(layered_field, layered_cell128):
    # Dirichlet correctors beat the interior corrector near the boundary
    cs = layered_cell128
    eps = 1 / 16
    dm = mesh.DomainMesh(int(16 / eps))
    sc = coeff.rescale(layered_field, eps)
    op = mesh.assemble(sc, dm, mode="dirichlet")
    op0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA), dm, mode="dirichlet")
    f = np.ones((dm.nnodes, 1))
    u_eps = mesh.solve_dirichlet(op, f, bdata=0.0)
    u0 = mesh.solve_dirichlet(op0, f, bdata=0.0)
    phi, _ = correctors.dirichlet_correctors(op)
    e_phi = expand.build_expansion(dm, u_eps, u0, "dirichlet", phi, eps)
    e_chi = expand.build_expansion(dm, u_eps, u0, "chi", correctors.interior_family(cs, dm, eps),
                                   eps)
    assert mesh.norm(dm, e_phi.w, "W1p", 2) < mesh.norm(dm, e_chi.w, "W1p", 2)
    op.release()
    op0.release()
