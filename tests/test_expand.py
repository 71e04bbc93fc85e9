import tracemalloc
from types import SimpleNamespace

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


def _full_mesh_identity_check(exp, op, cs):
    """The interior identity check with every eps-periodic table evaluated at
    every Gauss point of the mesh: the coefficient by
    coefficient_gauss_values, F(x/eps) by interp_torus at 4 nelem points, and
    the contractions as single einsums.  The reference for the period-table
    implementation."""
    dm, m, eps = exp.mesh, exp.m, exp.epsilon
    grid = cs.grid

    def at_gauss(values):
        return np.einsum("gp,ep...->eg...", mesh.PHI, np.asarray(values)[dm.elem_dofs])

    def grad_at_gauss(values):
        return np.einsum("gip,ep...->egi...", mesh.DPHI, np.asarray(values)[dm.elem_dofs]) / dm.h

    A_g = mesh.coefficient_gauss_values(op.coeff, dm)
    D2 = expand.second_derivatives(dm, exp.u0)
    D2_g = at_gauss(D2.reshape(dm.nnodes, -1)).reshape(dm.nelem, 4, 2, 2, m)
    VmP = exp.V - mesh.monomial_table(dm, m)
    Ft = cs.F.transpose(5, 0, 1, 2, 3, 4).reshape(grid.nnodes, -1)
    F_g = mesh.interp_torus(grid, Ft, dm.gauss_points().reshape(-1, 2) / eps)
    F_g = F_g.reshape(dm.nelem, 4, 2, 2, 2, m, m)
    flux = -mesh.divergence_load_from_gauss(dm, eps * np.einsum("eqjikac,eqjkc->eqia", F_g, D2_g))
    VmP_g = at_gauss(VmP.transpose(2, 0, 1, 3).reshape(dm.nnodes, -1)).reshape(dm.nelem, 4, 2, m, m)
    f2 = np.einsum("eqijab,eqkcb,eqjkc->eqia", A_g, VmP_g, D2_g)
    low_order = -mesh.divergence_load_from_gauss(dm, f2)
    chi_vals = correctors.chi_on_domain(cs, dm, eps)
    g3 = np.empty((dm.nelem, 4, 2, m, 2, m))
    for k in range(2):
        for gam in range(m):
            g3[:, :, k, gam] = grad_at_gauss(VmP[k, gam] - eps * chi_vals[k, gam])
    gradient = mesh.volume_load_from_gauss(dm, np.einsum("eqijab,eqkcjb,eqikc->eqa", A_g, g3, D2_g))
    inter, _ = op.dof_split()
    res = (op.matrix @ exp.w.ravel() - flux - low_order - gradient)[inter]
    return {"residual": float(np.linalg.norm(res) / dm.h),
            "term_loads": {"flux": flux, "low_order": low_order, "gradient": gradient}}


def _assert_matches_full_mesh(e, op, cs, rel=1e-12):
    got = expand.residual_identity_check(e, op, cs)
    ref = _full_mesh_identity_check(e, op, cs)
    assert got["residual"] == pytest.approx(ref["residual"], rel=rel)
    for name, load in ref["term_loads"].items():
        assert np.abs(got["term_loads"][name] - load).max() <= rel * np.abs(load).max(), name


def _solved_expansion(field, cs, n, eps):
    dm = mesh.DomainMesh(n)
    m = field.m
    op = mesh.assemble(coeff.rescale(field, eps), dm, mode="dirichlet")
    op0 = mesh.assemble(coeff.builtin("constant", value=cs.hatA, m=m), dm, mode="dirichlet")
    f = np.ones((dm.nnodes, m))
    u_eps = mesh.solve_dirichlet(op, f, bdata=0.0)
    u0 = mesh.solve_dirichlet(op0, f, bdata=0.0)
    phi, _ = correctors.dirichlet_correctors(op)
    op0.release()
    return expand.build_expansion(dm, u_eps, u0, "dirichlet", phi, eps), op


def test_period_tables_match_the_full_mesh_check_layered(layered_field, layered_cell64):
    e, op = _solved_expansion(layered_field, layered_cell64, 64, 1 / 8)
    _assert_matches_full_mesh(e, op, layered_cell64)
    op.release()


def test_period_tables_match_the_full_mesh_check_layered_m2():
    field = coeff.builtin("layered", m=2)
    cs = cell.solve(field, 32)
    e, op = _solved_expansion(field, cs, 32, 1 / 4)
    _assert_matches_full_mesh(e, op, cs)
    op.release()


def _coupled_nonsymmetric_field():
    # a full, coupled, non-symmetric m = 2 tensor: no index of a_ij^ab can be
    # swapped with another without changing the field
    R = np.random.default_rng(7).uniform(-0.1, 0.1, (2, 2, 2, 2))

    def ev(pts):
        y1, y2 = pts[:, 0:1, None, None, None], pts[:, 1:2, None, None, None]
        iso = np.einsum("ij,ab->ijab", np.eye(2), np.eye(2))
        return ((2.0 + np.sin(2 * np.pi * y1)) * iso
                + (1.0 + 0.5 * np.cos(2 * np.pi * (y1 + 2 * y2))) * R)

    return coeff.CoefficientField(ev, m=2, symmetric=False, family="user",
                                  params={"id": "coupled-nonsymmetric"})


@pytest.mark.parametrize("n, eps", [(48, 1 / 4), (40, 3 / 10)])
def test_period_tables_match_the_full_mesh_check_on_arbitrary_data(n, eps):
    # random smooth nodal data and random torus tables F, chi: the check is a
    # quadrature of whatever it is given, so every index of every table is
    # exercised; eps = 3/10 on n = 40 puts 12 cells in a period that does
    # not divide the mesh
    rng = np.random.default_rng(n)
    m, dm, grid = 2, mesh.DomainMesh(n), mesh.TorusGrid(16)
    x, y = dm.nodes[:, 0:1], dm.nodes[:, 1:2]
    smooth = np.sin(3 * x + 2 * y + rng.uniform(0, 1, (1, m))) * np.exp(x * y)
    cs = SimpleNamespace(grid=grid, F=rng.standard_normal((2, 2, 2, m, m, grid.nnodes)),
                         chi=rng.standard_normal((2, m, grid.nnodes, m)))
    V = mesh.monomial_table(dm, m) + 0.1 * rng.standard_normal((2, m, dm.nnodes, m))
    e = expand.build_expansion(dm, smooth + 0.1 * x, smooth, "dirichlet", V, eps)
    op = mesh.assemble(coeff.rescale(_coupled_nonsymmetric_field(), eps), dm, mode="dirichlet")
    _assert_matches_full_mesh(e, op, cs)


def test_residual_identity_check_needs_whole_cells_per_period(identity_field, layered_cell64):
    dm = mesh.DomainMesh(20)
    zeros = np.zeros((dm.nnodes, 1))
    for eps in (1 / 8, 1 / 64):          # n eps = 2.5 and 0.3125
        e = expand.build_expansion(dm, zeros, zeros, "dirichlet", mesh.monomial_table(dm, 1), eps)
        op = mesh.assemble(coeff.rescale(identity_field, eps), dm, mode="dirichlet")
        with pytest.raises(expand.ExpansionError, match="whole number"):
            expand.residual_identity_check(e, op, layered_cell64)


# tracemalloc peak of the check on the n = 256 layered level of
# prop21-residual (eps = 1/8, 32 cells per period, m = 1): 30.0 MiB measured
# with period tables (157 MiB for the full-mesh tables), bound 1.5x that
_IDENTITY_CHECK_PEAK_MIB = 45


def test_residual_identity_check_memory_at_n256(layered_field, layered_cell128):
    eps, dm = 1 / 8, mesh.DomainMesh(256)
    x, y = dm.nodes[:, 0:1], dm.nodes[:, 1:2]
    u0 = np.sin(np.pi * x) * np.sin(np.pi * y)
    V = mesh.monomial_table(dm, 1) + 0.01 * np.sin(x / eps)[None, None]
    e = expand.build_expansion(dm, 1.01 * u0, u0, "dirichlet", V, eps)
    op = mesh.assemble(coeff.rescale(layered_field, eps), dm, mode="dirichlet")
    tracemalloc.start()
    try:
        expand.residual_identity_check(e, op, layered_cell128)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= _IDENTITY_CHECK_PEAK_MIB, f"peak {peak:.1f} MiB"


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
