import numpy as np
import pytest

from homoglab import cell, coeff, kernels, mesh


@pytest.fixture(scope="module")
def identity_op(identity_field):
    dm = mesh.DomainMesh(64)
    return dm, mesh.assemble(identity_field, dm, mode="dirichlet")


@pytest.fixture(scope="module")
def layered_ops(layered_field):
    dm = mesh.DomainMesh(64)
    return dm, mesh.assemble(coeff.rescale(layered_field, 1 / 8), dm, mode="dirichlet")


def _node(dm, pt):
    return int(np.argmin(np.sum((dm.nodes - pt) ** 2, axis=1)))


def test_green_matches_double_sine_series(identity_field):
    # independent spectral oracle on the unit square at a separated pair
    dm = mesh.DomainMesh(128)
    op = mesh.assemble(identity_field, dm, mode="dirichlet")
    G = kernels.green(op, np.array([0.75, 0.5]))
    op.release()
    x = np.array([0.25, 0.25])
    k = np.arange(1, 201)
    mm, nn = np.meshgrid(k, k, indexing="ij")
    series = (4 * np.sin(mm * np.pi * x[0]) * np.sin(nn * np.pi * x[1])
              * np.sin(mm * np.pi * 0.75) * np.sin(nn * np.pi * 0.5)
              / (np.pi ** 2 * (mm ** 2 + nn ** 2))).sum()
    assert abs(G[_node(dm, x), 0] - series) <= 1e-3


def test_green_constant_coefficient_identical(identity_op, identity_field):
    dm, op = identity_op
    # A constant: scaled and homogenized operators coincide, columns agree
    op_eps = mesh.assemble(coeff.rescale(identity_field, 1 / 8), dm)
    G1 = kernels.green(op_eps, np.array([0.75, 0.5]))
    G2 = kernels.green(op, np.array([0.75, 0.5]))
    assert np.abs(G1 - G2).max() < 1e-12


def test_green_reciprocity_symmetric(layered_ops):
    dm, op = layered_ops
    x, y = np.array([0.25, 0.25]), np.array([0.75, 0.5])
    Gy = kernels.green(op, y)
    Gx = kernels.green(op, x)
    vxy = Gy[_node(dm, x), 0]
    vyx = Gx[_node(dm, y), 0]
    assert abs(vxy - vyx) / abs(vxy) <= 1e-6


def test_green_vanishes_on_boundary(layered_ops):
    dm, op = layered_ops
    G = kernels.green(op, np.array([0.75, 0.5]))
    assert np.abs(G[dm.boundary_nodes]).max() == 0.0


def test_green_rejects_boundary_source(layered_ops):
    dm, op = layered_ops
    with pytest.raises(kernels.KernelError):
        kernels.green(op, np.array([0.0, 0.5]))


def test_kernel_sources_are_node_ids_or_nodes(identity_field):
    # node 30 of the 8 x 8 mesh is the interior point (3/8, 3/8); a float id
    # is not truncated to it, and a negative id or nnodes does not wrap round
    dm = mesh.DomainMesh(8)
    op = mesh.assemble(identity_field, dm)
    assert np.array_equal(kernels.green(op, 30), kernels.green(op, (0.375, 0.375)))
    for bad in (30.7, -11, dm.nnodes, (0.3, 0.3)):
        with pytest.raises(kernels.KernelError):
            kernels.green(op, bad)
    with pytest.raises(kernels.KernelError):
        kernels.neumann_fn(mesh.assemble(identity_field, dm, mode="neumann"), -11)


def test_kernel_table_trust_region(layered_ops):
    dm, op = layered_ops
    y = np.array([0.75, 0.5])
    G = kernels.green(op, y)
    table = kernels.KernelTable("green", dm, [_node(dm, y)], [G])
    assert table.value((0.25, 0.25)) == G[_node(dm, (0.25, 0.25)), 0]
    with pytest.raises(kernels.KernelError):
        table.value(y + np.array([dm.h, 0.0]))


def test_neumann_fn_normalization_and_symmetry(layered_field):
    dm = mesh.DomainMesh(64)
    sc = coeff.rescale(layered_field, 1 / 8)
    op = mesh.assemble(sc, dm, mode="neumann")
    x, y = np.array([0.25, 0.25]), np.array([0.75, 0.5])
    Ny = kernels.neumann_fn(op, y)
    bmean = (Ny[dm.boundary_nodes, 0] * dm.arc_weights).sum()
    assert abs(bmean) <= 1e-8
    Nx = kernels.neumann_fn(op, x)
    vxy, vyx = Ny[_node(dm, x), 0], Nx[_node(dm, y), 0]
    assert abs(vxy - vyx) / abs(vxy) <= 1e-6
    op.release()


def test_neumann_fn_rejects_nonsymmetric():
    field = coeff.builtin("constant", value=np.array([[2.0, 0.5], [0.0, 1.0]]))
    dm = mesh.DomainMesh(8)
    with pytest.raises(kernels.KernelError):
        kernels.neumann_fn(mesh.assemble(field, dm, mode="neumann"), np.array([0.5, 0.5]))


def test_poisson_kernel_row_sum_is_one(layered_ops):
    dm, op = layered_ops
    # hat columns at every boundary node (corner hats composed directly,
    # since the public op rejects corner sources) integrate to 1
    total = np.zeros(dm.nnodes)
    for pos in range(dm.n_boundary):
        if pos in dm.corner_positions:
            bdata = np.zeros((dm.n_boundary, 1))
            bdata[pos, 0] = 1.0 / dm.arc_weights[pos]
            u = mesh.solve_dirichlet(op, None, bdata=bdata)
        else:
            u = kernels.poisson_kernel(op, pos)
        total += u[:, 0] * dm.arc_weights[pos]
    interior = dm.dist_to_boundary(dm.nodes) > 0.05
    assert np.abs(total[interior] - 1.0).max() <= 1e-6


def test_poisson_kernel_positive(layered_ops):
    dm, op = layered_ops
    P = kernels.poisson_kernel(op, dm.n // 2)
    interior = ~dm.boundary_mask
    assert P[interior, 0].min() >= -1e-6


def test_poisson_kernel_rejects_corner(layered_ops):
    dm, op = layered_ops
    with pytest.raises(kernels.KernelError):
        kernels.poisson_kernel(op, 0)


def test_poisson_constant_coefficient_identical(identity_op, identity_field):
    dm, op = identity_op
    P1 = kernels.poisson_kernel(mesh.assemble(coeff.rescale(identity_field, 1 / 8), dm), dm.n // 2)
    P2 = kernels.poisson_kernel(op, dm.n // 2)
    assert np.abs(P1 - P2).max() < 1e-12


def _omega_for(field, eps, n, cellsol):
    from homoglab import correctors
    dm = mesh.DomainMesh(n)
    op = mesh.assemble(coeff.rescale(field, eps), dm, mode="dirichlet")
    phi, phi_star = correctors.dirichlet_correctors(op)
    om = kernels.omega(op, cellsol.hatA, phi_star)
    op.release()
    return dm, om


def test_omega_identity_for_constant(identity_field):
    cs = cell.solve(identity_field, 16)
    dm, om = _omega_for(identity_field, 1 / 4, 16, cs)
    assert om.shape == (dm.n_boundary, 1, 1)
    assert np.abs(om - 1.0).max() <= 1e-10


def test_omega_identity_for_hatA_run(layered_cell64):
    # running the homogenized tensor through the pipeline gives omega = 1
    hat_field = coeff.builtin("constant", value=layered_cell64.hatA[:, :, 0, 0])
    dm, om = _omega_for(hat_field, 1 / 4, 16, layered_cell64)
    assert np.abs(om - 1.0).max() <= 1e-10


def test_omega_bounded_and_mean_reasonable(layered_field, layered_cell128):
    for eps, n in [(1 / 8, 128), (1 / 16, 256)]:
        dm, om = _omega_for(layered_field, eps, n, layered_cell128)
        mask = dm.noncorner_mask
        vals = om[mask, 0, 0]
        assert np.abs(vals).max() <= 10.0
        mean = (vals * dm.arc_weights[mask]).sum() / dm.arc_weights[mask].sum()
        assert 0.5 <= mean <= 2.0


def test_omega_of_a_nonsymmetric_field_reads_the_adjoint_flux():
    # LAYERED_DIAG plus an oscillating skew part: the flux of Phi* read
    # against L_eps instead of its adjoint carries an O(h/eps) error, which
    # flattens the Poisson-data approximation to slope ~0.46 at 16 cells per
    # period; read against the adjoint it decays at first order (~0.82)
    from homoglab.ratelab import coefficient_from_spec, fit_rate
    from homoglab.ratelab.context import EpsilonContext, cell_solution
    from homoglab.ratelab.experiments import LAYERED_DIAG, q_poisson_data_approx
    base = coefficient_from_spec(LAYERED_DIAG)
    skew = np.array([[0.0, 0.8], [-0.8, 0.0]])[:, :, None, None]
    field = coeff.CoefficientField(
        lambda pts: base(pts) + np.cos(2 * np.pi * pts[:, 1])[:, None, None, None, None] * skew,
        params={"skew": 0.8})
    eps_list, values = [1 / 4, 1 / 8, 1 / 16], []
    for eps in eps_list:
        ctx = EpsilonContext(cell_solution(field, 128), cell_solution(field, 16).hatA, eps, 16)
        ctx.prepare(["u_poisson_eps", "v_poisson"])
        values.append(q_poisson_data_approx(ctx)["poisson_approx_l1"])
        ctx.release()
    assert fit_rate(eps_list, values).slope >= 0.7


def test_omega_filled_corners(layered_field, layered_cell64):
    # each corner holds the mean of its two edge neighbours
    dm, om = _omega_for(layered_field, 1 / 8, 64, layered_cell64)
    assert np.isfinite(om).all()
    corners, nb = dm.corner_positions, dm.n_boundary
    assert np.array_equal(om[corners],
                          0.5 * (om[(corners - 1) % nb] + om[(corners + 1) % nb]))


def test_dtn_invariants(identity_field):
    dm = mesh.DomainMesh(32)
    D = kernels.dtn(mesh.assemble(identity_field, dm))
    assert np.abs(D.mat @ np.ones(dm.n_boundary) / dm.arc_weights).max() <= 1e-8   # Lambda(1) = 0
    assert np.abs(D.mat - D.mat.T).max() <= 1e-8
    eigs = np.linalg.eigvalsh(0.5 * (D.mat + D.mat.T))
    assert eigs.min() >= -1e-8
    f = np.sin(2 * np.pi * dm.boundary_s / 4.0)
    assert abs((D.mat @ f).sum()) <= 1e-8   # <Lambda f, 1> = 0


def test_dtn_matrix_matches_solve_route(layered_field):
    dm = mesh.DomainMesh(32)
    sc = coeff.rescale(layered_field, 1 / 4)
    op = mesh.assemble(sc, dm, mode="dirichlet")
    D = kernels.dtn(op)
    fb = np.cos(2 * np.pi * dm.boundary_s / 4.0)
    via_solve = kernels.apply_dtn_via_solve(op, fb[:, None])
    # the dense matrix is the reference for the solve route the experiments use
    assert np.abs(D.mat @ fb / dm.arc_weights - via_solve[:, 0]).max() <= 1e-8
    op.release()
    with pytest.raises(ValueError, match="need 'dirichlet'"):
        kernels.dtn(mesh.assemble(sc, dm, mode="neumann"))


def test_commutator_with_constant_f(identity_field):
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(identity_field, dm)
    g = np.sin(2 * np.pi * dm.boundary_s / 4.0)
    comm = kernels.product_commutator(op, np.full(dm.n_boundary, 2.5), g)
    assert kernels._boundary_l2(dm, comm, np.inf) <= 1e-10


def test_coordinate_commutator_with_f_one(identity_field):
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(identity_field, dm)
    ones = np.ones(dm.n_boundary)
    comm = kernels.coordinate_commutator(op, ones, 1)
    lam_x1 = kernels.apply_dtn_via_solve(op, dm.nodes[dm.boundary_nodes, :1])[:, 0]
    # Lambda(1) = 0, so the commutator equals Lambda(x_1)
    assert np.abs(comm - lam_x1).max() <= 1e-8


def test_commutator_growth_lite(identity_field):
    # reduced version of the acceptance sweep at n = 128, k in {2, 4, 8}
    dm = mesh.DomainMesh(128)
    op = mesh.assemble(identity_field, dm)
    lam, com = {}, {}
    for k in (2, 4, 8):
        fk = np.sin(2 * np.pi * k * dm.boundary_s / 4.0)
        nf = kernels._boundary_l2(dm, fk)
        lam[k] = kernels._boundary_l2(dm, kernels.apply_dtn_via_solve(op, fk[:, None])) / nf
        com[k] = kernels._boundary_l2(dm, kernels.coordinate_commutator(op, fk, 1)) / nf
    assert lam[8] / lam[2] >= 2.0
    assert com[8] / com[2] <= 2.0


def test_dtn_of_laplacian_matches_superlu_schur_complement(identity_field):
    import scipy.sparse.linalg as spla
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(identity_field, dm)
    inter, bd = op.dof_split()
    K = op.matrix.tocsr()
    Kib = K[inter][:, bd].toarray()
    S = K[bd][:, bd].toarray() - K[bd][:, inter] @ spla.splu(K[inter][:, inter].tocsc()).solve(Kib)
    D = kernels.dtn(op)
    assert np.abs(D.mat - S).max() <= 1e-12 * np.abs(S).max()


def test_csv_writers_read_back_exactly(tmp_path):
    dm = mesh.DomainMesh(6)
    op = mesh.assemble(coeff.rescale(coeff.builtin("layered"), 1 / 2), dm)
    u = kernels.green(op, (0.5, 0.5))
    mesh.write_nodal_csv(dm, u, tmp_path / "u.csv")
    got = np.loadtxt(tmp_path / "u.csv", delimiter=",", skiprows=1)
    assert np.array_equal(got, np.column_stack([dm.nodes, np.zeros(dm.nnodes), u[:, 0]]))
    kernels.KernelTable("green", dm, [dm.nearest_node((0.5, 0.5))], [u]).to_csv(tmp_path / "g.csv")
    got = np.loadtxt(tmp_path / "g.csv", delimiter=",", skiprows=1)
    assert np.array_equal(got[:, [0, 1, 5]], np.column_stack([dm.nodes, u[:, 0]]))
    assert np.array_equal(got[:, 2:5], np.tile([0.5, 0.5, 0.0], (dm.nnodes, 1)))
    D = kernels.dtn(op)
    D.to_csv(tmp_path / "dtn.csv")
    assert np.array_equal(np.loadtxt(tmp_path / "dtn.csv", delimiter=",", skiprows=2), D.mat)


def test_kernel_table_csv_writes_every_component(tmp_path):
    dm = mesh.DomainMesh(6)
    op = mesh.assemble(coeff.rescale(coeff.builtin("layered", m=2), 1 / 2), dm)
    sources = [dm.nearest_node((0.5, 0.5)), dm.nearest_node((0.5, 1 / 3))]
    fields = [kernels.green(op, y, beta=beta) for y, beta in zip(sources, (0, 1))]
    table = kernels.KernelTable("green", dm, sources, fields)
    table.to_csv(tmp_path / "g.csv")
    with open(tmp_path / "g.csv") as fh:
        assert fh.readline().strip() == "x,y,source_x,source_y,component,value"
    got = np.loadtxt(tmp_path / "g.csv", delimiter=",", skiprows=1)
    assert got.shape == (2 * 2 * dm.nnodes, 6)
    for idx, fld in enumerate(fields):
        for a in range(2):
            rows = got[(2 * idx + a) * dm.nnodes:(2 * idx + a + 1) * dm.nnodes]
            assert np.array_equal(rows[:, :2], dm.nodes)
            assert np.array_equal(rows[:, 2:4], np.tile(dm.nodes[sources[idx]], (dm.nnodes, 1)))
            assert (rows[:, 4] == a).all()
            assert np.array_equal(rows[:, 5], fld[:, a])
    assert np.abs(fields[1][:, 1]).max() > 0.0       # component 1 carries the data
