import numpy as np
import pytest

from homoglab import cell, coeff, correctors, mesh


def _psi(sc, dm, hatA):
    """The Neumann correctors of sc on dm, pinned at the default node."""
    return correctors.neumann_correctors(mesh.assemble(sc, dm, mode="neumann"), hatA)


@pytest.fixture(scope="module")
def const_setup():
    A = np.array([[np.sqrt(3.0), 0.0], [0.0, 2.0]])
    field = coeff.builtin("constant", value=A)
    cs = cell.solve(field, 16)
    dm = mesh.DomainMesh(16)
    sc = coeff.rescale(field, 1 / 4)
    phi, _ = correctors.dirichlet_correctors(mesh.assemble(sc, dm))
    return field, cs, dm, phi, _psi(sc, dm, cs.hatA)


def test_constant_dirichlet_correctors_are_monomials(const_setup):
    _, _, dm, phi, _ = const_setup
    assert np.abs(phi - mesh.monomial_table(dm, 1)).max() < 1e-12


def test_constant_neumann_correctors_are_monomials(const_setup):
    _, _, dm, _, psi = const_setup
    assert np.abs(psi - mesh.monomial_table(dm, 1)).max() < 1e-12


def test_boundary_exactness_and_pin(layered_field, layered_cell64):
    dm = mesh.DomainMesh(32)
    sc = coeff.rescale(layered_field, 1 / 4)
    phi, _ = correctors.dirichlet_correctors(mesh.assemble(sc, dm))
    psi = _psi(sc, dm, layered_cell64.hatA)
    x0 = dm.nearest_node((0.5, 0.5))
    P = mesh.monomial_table(dm, 1)
    bnodes = dm.boundary_nodes
    assert np.abs((phi - P)[:, :, bnodes, :]).max() == 0.0
    for j in range(2):
        for beta in range(1):
            assert psi[j, beta, x0, beta] == P[j, beta, x0, beta]


def test_phi_star_equals_phi_for_symmetric(layered_field, layered_cell64):
    dm = mesh.DomainMesh(16)
    phi, phi_star = correctors.dirichlet_correctors(
        mesh.assemble(coeff.rescale(layered_field, 1 / 2), dm))
    assert np.abs(phi_star - phi).max() <= 1e-10


def test_neumann_rejects_nonsymmetric(layered_cell64):
    A = np.array([[2.0, 0.5], [0.0, 1.0]])
    field = coeff.builtin("constant", value=A)
    dm = mesh.DomainMesh(8)
    op = mesh.assemble(coeff.rescale(field, 1 / 2), dm, mode="neumann")
    with pytest.raises(correctors.CorrectorError):
        correctors.neumann_correctors(op, layered_cell64.hatA)


def test_phi_sup_halves_with_eps(layered_field, layered_cell128):
    sups = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        dm = mesh.DomainMesh(int(16 / eps))
        sc = coeff.rescale(layered_field, eps)
        phi, _ = correctors.dirichlet_correctors(mesh.assemble(sc, dm))
        sups.append(np.abs(phi - mesh.monomial_table(dm, 1)).max())
    for a, b in zip(sups, sups[1:]):
        assert 0.35 <= b / a <= 0.65  # ratio 0.5 +- 0.15


def test_psi_log_bound_stable(layered_field, layered_cell128):
    ratios = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        dm = mesh.DomainMesh(int(16 / eps))
        psi = _psi(coeff.rescale(layered_field, eps), dm, layered_cell128.hatA)
        sup = np.abs(psi - mesh.monomial_table(dm, 1)).max()
        ratios.append(sup / (eps * np.log(1 / eps + 2)))
    assert max(ratios) / min(ratios) <= 3.0


def test_corrector_report_constant_zero(const_setup):
    _, cs, dm, phi, psi = const_setup
    rep = correctors.corrector_report(dm, 1 / 4, phi, psi, cs)
    assert rep["phi"]["dist_sup"] < 1e-12
    assert rep["phi"]["layer_grad_sup"] < 1e-12
    assert rep["psi"]["dist_sup"] < 1e-12
    assert rep["phi"]["grad_sup"] == pytest.approx(1.0, abs=1e-10)


def test_corrector_report_layered_bounds(layered_field, layered_cell128):
    reports = []
    for eps in (1 / 8, 1 / 16):
        dm = mesh.DomainMesh(int(16 / eps))
        sc = coeff.rescale(layered_field, eps)
        phi, _ = correctors.dirichlet_correctors(mesh.assemble(sc, dm))
        psi = _psi(sc, dm, layered_cell128.hatA)
        reports.append(correctors.corrector_report(dm, eps, phi, psi, layered_cell128))
    g0, g1 = (rep["phi"]["grad_sup"] for rep in reports)
    assert abs(g1 - g0) / g0 <= 0.2   # gradient sup stable under eps-halving
    for rep in reports:
        assert rep["phi"]["profile_sup"] <= 10.0
        assert rep["psi"]["profile_sup"] <= 10.0


def test_gradient_recovery_order_on_manufactured_field():
    errs = []
    for n in (32, 64):
        dm = mesh.DomainMesh(n)
        vals = 0.7 * dm.nodes[:, 0] + np.sin(np.pi * dm.nodes[:, 0]) * dm.nodes[:, 1]
        g = mesh.nodal_gradient(dm, vals)
        gx = 0.7 + np.pi * np.cos(np.pi * dm.nodes[:, 0]) * dm.nodes[:, 1]
        gy = np.sin(np.pi * dm.nodes[:, 0])
        errs.append(max(np.abs(g[:, 0, 0] - gx).max(), np.abs(g[:, 1, 0] - gy).max()))
    assert errs[1] / errs[0] <= 0.6   # at least first order


def test_default_pin_is_center(layered_field, layered_cell64):
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(coeff.rescale(layered_field, 1 / 2), dm, mode="neumann")
    psi = correctors.neumann_correctors(op, layered_cell64.hatA)
    x0 = dm.nearest_node((0.5, 0.5))
    assert np.allclose(dm.nodes[x0], (0.5, 0.5))
    # psi is pinned there: psi_j^beta(x0) = x0_j e_beta
    assert psi[0, 0, x0, 0] == dm.nodes[x0, 0] and psi[1, 0, x0, 0] == dm.nodes[x0, 1]


def test_pin_is_exact_at_every_pin_node(layered_field, layered_cell64):
    # psi(x0) = x0_j e_beta holds exactly wherever x0 is, not just where
    # the rounding of the shift happens to fall that way
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(coeff.rescale(layered_field, 1 / 2), dm, mode="neumann")
    for x0 in dm.interior_nodes[::7]:
        psi = correctors.neumann_correctors(op, layered_cell64.hatA, x0=int(x0))
        assert psi[0, 0, x0, 0] == dm.nodes[x0, 0] and psi[1, 0, x0, 0] == dm.nodes[x0, 1]


def test_pin_must_be_interior(layered_field, layered_cell64):
    dm = mesh.DomainMesh(16)
    with pytest.raises(correctors.CorrectorError):
        correctors.neumann_correctors(
            mesh.assemble(coeff.rescale(layered_field, 1 / 2), dm, mode="neumann"),
            layered_cell64.hatA, x0=int(dm.boundary_nodes[0]))
