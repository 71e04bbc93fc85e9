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


@pytest.mark.parametrize("m", [1, 2])
def test_interpolated_cell_tables_match_one_call_per_column(m):
    # chi(x/eps) and (grad chi)(x/eps), read along rows and then columns,
    # agree with the pointwise bilinear formula (one interp_torus call per
    # column) to roundoff: on DomainMesh(24) at eps = 1/3 the 8 cells per
    # period do not divide a cell grid of 20, and do divide one of 16, where
    # x/eps lands on torus nodes and the read is the strided gather itself
    dm, eps = mesh.DomainMesh(24), 1 / 3
    pts = dm.nodes / eps
    for cell_n in (20, 16):
        cs = cell.solve(coeff.builtin("layered", m=m), cell_n)
        chi_loop = np.empty((2, m, dm.nnodes, m))
        grad_loop = np.empty((2, m, dm.nnodes, 2, m))
        for j in range(2):
            for beta in range(m):
                chi_loop[j, beta] = mesh.interp_torus(cs.grid, cs.chi[j, beta], pts)
                grad_loop[j, beta] = mesh.interp_torus(
                    cs.grid, cs.chi_grad[j, beta].reshape(cs.grid.nnodes, -1), pts).reshape(dm.nnodes, 2, m)
        chi = correctors.chi_on_domain(cs, dm, eps)
        grad = correctors._on_domain(cs.grid, cs.chi_grad, dm, eps)
        assert np.abs(chi - chi_loop).max() <= 1e-14
        assert np.abs(grad - grad_loop).max() <= 1e-14
        if cell_n == 16:
            k = np.arange(dm.n + 1) * 2 % cell_n          # x/eps = 2k torus cells
            nodes = (k[:, None] * cell_n + k).ravel()
            assert np.array_equal(chi, cs.chi[:, :, nodes])
            assert np.array_equal(grad, cs.chi_grad[:, :, nodes])


def _broadcast_distances(dm, dist):
    """The mask and node distances from the (nnodes, 4, 2) corner table."""
    pts = dm.nodes
    d = dm.dist_to_boundary(pts)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cd = np.min(np.linalg.norm(pts[:, None, :] - corners[None], axis=2), axis=1)
    return (d >= dist - 1e-12) & (cd >= 4 * dm.h - 1e-12), d


@pytest.mark.parametrize("n", [8, 12, 64, 256])
def test_trusted_mask_and_node_distances_are_the_broadcast_formulas(n):
    dm = mesh.DomainMesh(n)
    a = dm.line_dist()
    for dist in (0.0, 0.1, 0.25):
        mask, d = _broadcast_distances(dm, dist)
        assert np.array_equal(correctors.trusted_interior_mask(dm, dist), mask)
        assert np.array_equal(np.minimum.outer(a, a).ravel(), d)


def _traced_peak(f, *args):
    import tracemalloc
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trusted_mask_needs_about_one_nodal_table_of_memory():
    # the (nnodes, 4, 2) corner table peaked at about 25 float tables of
    # the nodes; the closed form needs 1.3 at n = 512 (one corner-distance
    # table and the booleans)
    dm = mesh.DomainMesh(512)
    _, peak = _traced_peak(correctors.trusted_interior_mask, dm)
    assert peak <= 1.5 * 8 * dm.nnodes


@pytest.mark.parametrize("m", [1, 2])
def test_chi_read_needs_few_outputs_of_memory(m):
    # measured at n = 512: 2.1 (m = 1) and 1.5 (m = 2) outputs
    cs = cell.solve(coeff.builtin("layered", m=m), 64)
    chi, peak = _traced_peak(correctors.chi_on_domain, cs, mesh.DomainMesh(512), 1 / 32)
    assert peak <= 2.5 * chi.nbytes
