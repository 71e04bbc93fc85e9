import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla

from homoglab import cell, coeff, correctors, kernels, mesh


def manufactured(n, identity_field):
    dm = mesh.DomainMesh(n)
    op = mesh.assemble(identity_field, dm, mode="dirichlet")
    f = 2 * np.pi ** 2 * np.sin(np.pi * dm.nodes[:, 0]) * np.sin(np.pi * dm.nodes[:, 1])
    u = mesh.solve_dirichlet(op, f[:, None], bdata=0.0)
    exact = np.sin(np.pi * dm.nodes[:, 0]) * np.sin(np.pi * dm.nodes[:, 1])
    op.release()
    return dm, u, exact


def test_boundary_structure():
    dm = mesh.DomainMesh(16)
    assert dm.n_boundary == 4 * dm.n
    assert dm.arc_weights.sum() == pytest.approx(4.0, abs=1e-13)
    mask = dm.noncorner_mask
    assert np.allclose(np.linalg.norm(dm.normals[mask], axis=1), 1.0)
    assert np.isnan(dm.normals[dm.corner_positions]).all()
    # boundary nodes lie on the boundary exactly
    pts = dm.nodes[dm.boundary_nodes]
    on_edge = (pts[:, 0] == 0) | (pts[:, 0] == 1) | (pts[:, 1] == 0) | (pts[:, 1] == 1)
    assert on_edge.all()


def test_torus_element_connectivity():
    grid = mesh.TorusGrid(4)
    assert grid.nnodes == 16 and grid.nelem == 16
    for e in range(grid.nelem):
        assert len(set(grid.elem_dofs[e])) == 4


def test_torus_row_sums_vanish(identity_field):
    grid = mesh.TorusGrid(2)
    op = mesh.assemble(identity_field, grid)
    rowsums = np.asarray(op.matrix.sum(axis=1)).ravel()
    assert np.abs(rowsums).max() < 1e-14


def test_dirichlet_block_positive_definite():
    A = np.diag([np.sqrt(3.0), 2.0])
    dm = mesh.DomainMesh(8)
    op = mesh.assemble(coeff.builtin("constant", value=A), dm, mode="dirichlet")
    Kii = op.interior_matrix().toarray()
    scipy.linalg.cho_factor(Kii)  # raises LinAlgError if not SPD


def test_assemble_rejects_bare_tensor():
    # a bare array carries no m and no symmetry flag
    with pytest.raises(TypeError, match=r'coeff\.builtin\("constant"'):
        mesh.assemble(np.eye(2), mesh.DomainMesh(8))


def test_assembly_symmetric_for_symmetric_coeff(layered_field):
    dm = mesh.DomainMesh(8)
    op = mesh.assemble(coeff.rescale(layered_field, 0.5), dm, mode="dirichlet")
    asym = (op.matrix - op.matrix.T)
    worst = np.abs(asym.data).max() if asym.nnz else 0.0
    assert worst == 0.0


def test_under_resolution_warning(layered_field):
    dm = mesh.DomainMesh(8)
    with pytest.warns(UserWarning, match="under-resolved oscillation"):
        mesh.assemble(coeff.rescale(layered_field, 1 / 4), dm, mode="dirichlet")  # h = 1/8 > eps/8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh.assemble(coeff.rescale(layered_field, 1.0), dm, mode="dirichlet")
        # a rescaled constant does not oscillate
        mesh.assemble(coeff.rescale(coeff.builtin("constant", value=2.0), 1 / 4), dm)
        # the cell template builds its cell matrix of 8 cells from the
        # Gauss values of a mesh that resolves the field
        mesh.assemble(coeff.rescale(layered_field, 1 / 4), mesh.DomainMesh(32)).factorization()


# ---------------------------------------------------------------------------
# assembly into the grid's 9-point CSR pattern


def _coo_assembly(grid, A):
    """The stiffness matrix of the Gauss values A (nelem, 4, 2, 2, m, m), or
    of one element's (1, 4, 2, 2, m, m) in every element, as scipy's COO ->
    CSR sum of every element matrix in element order: the reference for
    assemble's 9-point sums."""
    m = A.shape[-1]
    Kloc = np.einsum("g,egijab,gip,gjq->epaqb", mesh.GAUSS_WEIGHTS, A, mesh.DPHI, mesh.DPHI,
                     optimize=True).reshape(-1, 4 * m, 4 * m)
    Kloc = np.broadcast_to(Kloc, (grid.nelem, 4 * m, 4 * m))
    ldof = (grid.elem_dofs[:, :, None] * m + np.arange(m, dtype=np.int32)).reshape(grid.nelem, 4 * m)
    rows = np.broadcast_to(ldof[:, :, None], Kloc.shape).ravel()
    cols = np.broadcast_to(ldof[:, None, :], Kloc.shape).ravel()
    ndof = grid.nnodes * m
    return scipy.sparse.coo_matrix((Kloc.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()


def _coupled_m2_field():
    """Two copies of the layered medium coupled by a^{12} = a^{21} = 0.3
    delta_ij: a symmetric m = 2 field that coeff.validate passes, which
    mesh solves as one interleaved system."""
    layered2 = coeff.builtin("layered", m=2)
    coupling = 0.3 * np.eye(2)[:, :, None, None] * (1 - np.eye(2))
    field = coeff.CoefficientField(lambda pts: layered2(pts) + coupling, m=2)
    coeff.validate(field)
    return field


def _assembly_fields():
    from homoglab.ratelab import coefficient_from_spec
    from homoglab.ratelab.experiments import LAYERED_DIAG
    return {
        "layered-diag": coefficient_from_spec(LAYERED_DIAG),
        "skewed": _skewed_field(),
        "constant": coeff.builtin("constant", value=np.array([[2.0, 0.3], [-0.1, 1.0]])),
        "layered-m2": coeff.builtin("layered", m=2),
        "coupled-m2": _coupled_m2_field(),
    }


def _same_pattern(got, ref):
    return np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)


ASSEMBLY_GRIDS = [("square", 2), ("square", 7), ("square", 16), ("torus", 2), ("torus", 3),
                  ("torus", 16)]


@pytest.mark.parametrize("grid, n", ASSEMBLY_GRIDS)
@pytest.mark.parametrize("name", ["layered-diag", "skewed", "constant"])
def test_assembly_of_a_full_table_is_the_coo_sum_bit_for_bit(grid, n, name):
    # m = 1: every entry sums its element contributions in ascending element
    # index, as scipy's COO -> CSR sum does, so the matrices agree bit for bit
    # with the COO sum of the block's element matrices (on the torus this
    # keeps the cell's roundoff-level statistics).  A field of period 1 has
    # the whole mesh as its block, a constant one element.
    field, g = _assembly_fields()[name], GRIDS[grid](n)
    A = mesh.coefficient_gauss_values(field, g)
    op = mesh.assemble(field, g)
    assert op.cells == (1 if name == "constant" else n)
    ref = _coo_assembly(g, A[:1] if op.cells == 1 else A)
    assert _same_pattern(op.matrix, ref)
    assert np.array_equal(op.matrix.data, ref.data)


@pytest.mark.parametrize("grid, n", ASSEMBLY_GRIDS)
@pytest.mark.parametrize("name", ["layered-m2", "coupled-m2"])
def test_assembly_of_a_system_matches_the_coo_sum(grid, n, name):
    # m = 2: scipy sorts a row's duplicates in an order of its own, so the
    # sums agree to roundoff
    field, g = _assembly_fields()[name], GRIDS[grid](n)
    A = mesh.coefficient_gauss_values(field, g)
    got, ref = mesh.assemble(field, g).matrix, _coo_assembly(g, A)
    assert _same_pattern(got, ref)
    assert np.abs(got.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
@pytest.mark.parametrize("grid, n, eps", [("square", 16, 1 / 4), ("square", 32, 1 / 2),
                                          ("square", 12, 1 / 3), ("torus", 16, 1 / 8),
                                          ("torus", 8, 1 / 2)])
@pytest.mark.parametrize("name", ["layered-diag", "skewed", "constant", "layered-m2",
                                  "coupled-m2"])
def test_assembly_from_one_period_matches_full_evaluation(grid, n, eps, name):
    # one period's table (one element's for a constant) tiled over the mesh
    # agrees with the sum over every element's own Gauss values to roundoff
    field, g = coeff.rescale(_assembly_fields()[name], eps), GRIDS[grid](n)
    A = mesh.coefficient_gauss_values(field, g)
    op, ref = mesh.assemble(field, g), _coo_assembly(g, A)
    assert op.cells == (1 if name == "constant" else round(n * eps))
    assert _same_pattern(op.matrix, ref)
    assert np.abs(op.matrix.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()
    # the mean of 4 n^2 Gauss values rounds by up to ~1e-14 of its largest entry
    mean = A.mean(axis=(0, 1))
    assert np.abs(op.coeff_mean - mean).max() <= 1e-13 * np.abs(mean).max()


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
@pytest.mark.parametrize("grid, n, field", [
    ("square", 16, coeff.rescale(coeff.builtin("layered", wavevector=(1, 1)), 1 / 3)),  # c = 16/3
    ("square", 16, coeff.rescale(coeff.builtin("layered"), 3 / 16)),   # 3 cells, 16/3 periods
    # 4.5 cells per period: the last 4 x 4 block matches the first all the same
    ("square", 13, coeff.rescale(coeff.builtin("layered"), 4.5 / 13)),
    ("torus", 16, coeff.rescale(coeff.builtin("layered"), 1 / 3)),
    ("square", 16, coeff.rescale(coeff.builtin("layered"), 1.0)),      # one period
    ("square", 16, coeff.builtin("layered")),                          # a field of period 1
])
def test_assembly_of_a_field_that_does_not_repeat_evaluates_every_element(grid, n, field):
    g = GRIDS[grid](n)
    A = mesh.coefficient_gauss_values(field, g)
    op, ref = mesh.assemble(field, g), _coo_assembly(g, A)
    assert op.cells == n
    assert _same_pattern(op.matrix, ref)
    assert np.array_equal(op.matrix.data, ref.data)


def test_known_defect_field_assembles_as_its_reduced_field_on_every_element(known_defect_field):
    # raised by 1/4 on the inner period 1 < y1 < 2 only: read at y mod 1 it
    # is the identity on every element, so its block of 8 cells, tiled, is
    # the sum over every element's own Gauss values
    field, dm = coeff.rescale(known_defect_field, 1 / 4), mesh.DomainMesh(32)
    A = mesh.coefficient_gauss_values(field, dm)
    assert np.array_equal(A, np.broadcast_to(np.eye(2)[:, :, None, None], A.shape))
    op, ref = mesh.assemble(field, dm), _coo_assembly(dm, A)
    assert op.cells == 8
    assert _same_pattern(op.matrix, ref)
    assert np.abs(op.matrix.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()


@pytest.mark.parametrize("eps", [None, 1 / 8])
@pytest.mark.parametrize("name", ["layered-diag", "constant", "coupled-m2"])
def test_torus_operator_from_gauss_values_is_assemble_bit_for_bit(monkeypatch, eps, name):
    # the cell's operator: the block assemble evaluates, read out of the
    # every-element table instead, the same operator and no coefficient call
    field, g = _assembly_fields()[name], mesh.TorusGrid(16)
    if eps is not None:
        field = coeff.rescale(field, eps)
    A = mesh.coefficient_gauss_values(field, g)
    ref = mesh.assemble(field, g)
    calls = []
    monkeypatch.setattr(coeff.CoefficientField, "__call__", lambda self, pts: calls.append(pts))
    op = mesh._torus_operator(field, g, A)
    assert calls == []
    assert (op.mode, op.cells, op.coeff) == (ref.mode, ref.cells, field)
    assert np.array_equal(op.coeff_mean, ref.coeff_mean)
    assert _same_pattern(op.matrix, ref.matrix)
    assert np.array_equal(op.matrix.data, ref.matrix.data)


def test_torus_operator_takes_only_its_own_table():
    # a table of another m (the full m = 2 table of a component field), of
    # another grid, or a square mesh: no operator whose matrix disagrees
    # with its dof count
    layered2 = coeff.builtin("layered", m=2)
    component = coeff.builtin("layered")
    g = mesh.TorusGrid(8)
    A2 = mesh.coefficient_gauss_values(layered2, g)
    for field, grid, A in [(component, g, A2),
                           (layered2, g, A2[..., :1, :1]),
                           (layered2, mesh.TorusGrid(16), A2),
                           (layered2, mesh.DomainMesh(8), A2)]:
        with pytest.raises(ValueError):
            mesh._torus_operator(field, grid, A)


def test_assembly_warns_at_its_caller(layered_field):
    field = coeff.rescale(layered_field, 1 / 4)              # h = 1/8 > eps/8
    dm, g = mesh.DomainMesh(8), mesh.TorusGrid(8)
    A = mesh.coefficient_gauss_values(field, g)
    for build in (lambda: mesh.assemble(field, dm), lambda: mesh._torus_operator(field, g, A)):
        with pytest.warns(UserWarning, match="under-resolved oscillation") as rec:
            build()
        assert rec[0].filename == __file__


@pytest.mark.parametrize("grid", ["square", "torus"])
@pytest.mark.parametrize("n", [16.5, 16.0, 8.0, True, "16", None])
def test_grid_size_must_be_an_integer(grid, n):
    with pytest.raises(ValueError, match=f"n={n!r}"):
        GRIDS[grid](n)


@pytest.mark.parametrize("grid", ["square", "torus"])
def test_grid_size_is_kept_as_an_int(grid):
    g = GRIDS[grid](np.int64(16))
    assert type(g.n) is int and type(g.nnodes) is int and g.n == 16
    assert g.h == 1.0 / 16
    assert g.nodes.shape == (g.nnodes, 2)


def test_cell_grid_size_must_be_an_integer(layered_field):
    with pytest.raises(ValueError, match="n=16.5"):
        cell.solve(layered_field, 16.5)


@pytest.mark.parametrize("m", [1, 2])
def test_assembly_needs_little_more_memory_than_its_matrix(m):
    # an aligned eps-periodic operator at n = 256: no per-element COO arrays
    # (5.3 and 4.2 matrices of memory at m = 1 and 2), only the CSR arrays
    import tracemalloc
    field, dm = coeff.rescale(coeff.builtin("layered", m=m), 1 / 16), mesh.DomainMesh(256)
    tracemalloc.start()
    try:
        op = mesh.assemble(field, dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    K = op.matrix
    assert peak <= 3 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


def test_dirichlet_affine_data_exact(identity_field):
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(identity_field, dm, mode="dirichlet")
    u = mesh.solve_dirichlet(op, None, bdata=dm.nodes[dm.boundary_nodes, :1])
    assert np.abs(u[:, 0] - dm.nodes[:, 0]).max() < 1e-12


def test_dirichlet_rejects_callable_data(identity_field):
    # boundary data is a constant or (n_boundary, m) values, never a callable
    dm = mesh.DomainMesh(8)
    op = mesh.assemble(identity_field, dm, mode="dirichlet")
    with pytest.raises(ValueError, match=r"a constant or boundary values \(32, 1\), got function"):
        mesh.solve_dirichlet(op, None, bdata=lambda pts: pts[:, :1])


def test_source_layouts_named_for_a_system():
    # a scalar-sized source for an m = 2 operator names both accepted shapes
    dm = mesh.DomainMesh(8)
    op = mesh.assemble(coeff.builtin("constant", value=np.eye(2), m=2), dm, mode="dirichlet")
    with pytest.raises(ValueError, match=r"an assembled load \(162,\) or nodal values \(81, 2\), "
                                         r"got shape \(81,\)"):
        mesh.solve_dirichlet(op, np.ones(dm.nnodes), bdata=0.0)


def test_dirichlet_zero_data_zero(layered_field):
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(coeff.rescale(layered_field, 0.5), dm, mode="dirichlet")
    u = mesh.solve_dirichlet(op, None, bdata=0.0)
    assert np.abs(u).max() == 0.0


def test_manufactured_solution_quadratic(identity_field):
    _, u16, e16 = manufactured(16, identity_field)
    _, u32, e32 = manufactured(32, identity_field)
    err16 = np.abs(u16[:, 0] - e16).max()
    err32 = np.abs(u32[:, 0] - e32).max()
    assert err32 / err16 < 0.3


def test_manufactured_convergence_slopes(identity_field):
    errs_l2, errs_h1 = [], []
    ns = [16, 32, 64, 128]
    for n in ns:
        dm, u, exact = manufactured(n, identity_field)
        diff = u[:, 0] - exact
        errs_l2.append(mesh.norm(dm, diff, "Lp", 2))
        errs_h1.append(mesh.norm(dm, diff, "W1p", 2))
    h = 1.0 / np.array(ns)
    slope_l2 = np.polyfit(np.log(h), np.log(errs_l2), 1)[0]
    slope_h1 = np.polyfit(np.log(h), np.log(errs_h1), 1)[0]
    assert slope_l2 >= 1.9
    assert slope_h1 >= 0.95


def test_neumann_zero_data(identity_field):
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(identity_field, dm, mode="neumann")
    u = mesh.solve_neumann(op)
    assert np.abs(u).max() == 0.0


def test_neumann_incompatible_data_rejected(identity_field):
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(identity_field, dm, mode="neumann")
    f = np.ones((dm.nnodes, 1))  # total source 1, no compensating flux
    with pytest.raises(mesh.SolveError):
        mesh.solve_neumann(op, f)


def test_neumann_pin_and_point_load(identity_field):
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(identity_field, dm, mode="neumann")
    node = int(np.argmin(np.sum((dm.nodes - (0.5, 0.5)) ** 2, axis=1)))
    load = mesh.point_load(dm, node)
    gconst = np.full((dm.n_boundary, 1), -0.25)
    u = mesh.solve_neumann(op, load, flux=gconst)
    pin = (u[dm.boundary_nodes, 0] * dm.arc_weights).sum()
    assert abs(pin) < 1e-10


def test_dirichlet_neumann_consistency(layered_field):
    # the Neumann solve with the variational flux of a Dirichlet solution
    # reproduces it up to the pin constant
    dm = mesh.DomainMesh(32)
    sc = coeff.rescale(layered_field, 1 / 4)
    opd = mesh.assemble(sc, dm, mode="dirichlet")
    u_d = mesh.solve_dirichlet(opd, None, bdata=dm.nodes[dm.boundary_nodes, :1])
    functional = opd.matrix @ u_d.ravel()
    flux_vec = np.zeros(opd.ndof)
    bd = (dm.boundary_nodes[:, None] * 1 + np.arange(1)).ravel()
    flux_vec[bd] = functional[bd]
    opn = mesh.assemble(sc, dm, mode="neumann")
    u_n = mesh.solve_neumann(opn, None, flux=flux_vec)
    diff = u_d - u_n
    diff -= diff.mean()
    assert np.abs(diff).max() < 1e-8


def test_conormal_affine(identity_field):
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(identity_field, dm, mode="dirichlet")
    u = dm.nodes[:, 0]
    t = mesh.conormal(u, op)
    n = dm.n
    mask = dm.noncorner_mask
    expected = np.nan_to_num(dm.normals[:, 0])
    assert np.abs(t[mask, 0] - expected[mask]).max() < 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_boundary_results_equal_the_full_product_bit_for_bit(m):
    # conormal multiplies only K's boundary rows and loads only those rows,
    # and a Dirichlet solve with zero boundary data forms no lift K u: each
    # is what the whole product gives, bit for bit
    field = coeff.rescale(coeff.builtin("layered") if m == 1 else _coupled_m2_field(), 1 / 4)
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(field, dm)
    rng = np.random.default_rng(m)
    u, f = rng.standard_normal((2, dm.nnodes, m))
    load = mesh.volume_load(dm, f)
    for source, vector in ((None, np.zeros(op.ndof)), (load, load), (f, load)):
        full = (op.matrix @ u.ravel() - vector).reshape(dm.nnodes, m)[dm.boundary_nodes]
        assert np.array_equal(mesh.conormal(u, op, source), full / dm.arc_weights[:, None])
    inter, _ = op.dof_split()
    lifted = np.zeros(op.ndof)
    expect = np.zeros(op.ndof)
    expect[inter] = op.factorization().solve(load[inter] - (op.matrix @ lifted)[inter])
    assert np.array_equal(mesh.solve_dirichlet(op, load, 0.0).ravel(), expect)


def test_conormal_anisotropic():
    A = np.diag([np.sqrt(3.0), 2.0])
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(coeff.builtin("constant", value=A), dm, mode="dirichlet")
    u = dm.nodes[:, 1]
    t = mesh.conormal(u, op)
    mask = dm.noncorner_mask
    expected = 2.0 * np.nan_to_num(dm.normals[:, 1])
    assert np.abs(t[mask, 0] - expected[mask]).max() < 1e-12


def test_conormal_divergence_theorem(layered_field):
    # total variational flux of a unit point source equals -1
    dm = mesh.DomainMesh(32)
    sc = coeff.rescale(layered_field, 1 / 4)
    op = mesh.assemble(sc, dm, mode="dirichlet")
    node = int(np.argmin(np.sum((dm.nodes - (0.5, 0.5)) ** 2, axis=1)))
    load = mesh.point_load(dm, node)
    G = mesh.solve_dirichlet(op, load, bdata=0.0)
    t = mesh.conormal(G, op, source=load)
    total = (t[:, 0] * dm.arc_weights).sum()
    assert total == pytest.approx(-1.0, abs=1e-6)


def test_divergence_theorem_for_volume_source(layered_field):
    dm = mesh.DomainMesh(32)
    sc = coeff.rescale(layered_field, 1 / 4)
    op = mesh.assemble(sc, dm, mode="dirichlet")
    fvals = np.cos(np.pi * dm.nodes[:, 0])[:, None] + 2.0
    load = mesh.volume_load(dm, fvals)
    u = mesh.solve_dirichlet(op, load, bdata=0.0)
    t = mesh.conormal(u, op, source=load)
    total = (t[:, 0] * dm.arc_weights).sum()
    assert total == pytest.approx(-load.sum(), rel=1e-8)


def test_norm_constant_and_gradient(identity_field):
    dm = mesh.DomainMesh(16)
    ones = np.ones(dm.nnodes)
    assert mesh.norm(dm, ones, "Lp", 2) == pytest.approx(1.0, abs=1e-13)
    x1 = dm.nodes[:, 0]
    grad_sq = mesh.norm(dm, x1, "W1p", 2) ** 2 - mesh.norm(dm, x1, "Lp", 2) ** 2
    assert grad_sq == pytest.approx(1.0, abs=1e-12)


def test_weighted_grad_exact_integral():
    # integral of dist(x, boundary) over the square is 1/6
    dm = mesh.DomainMesh(64)
    x1 = dm.nodes[:, 0]
    assert mesh.norm(dm, x1, "weighted_grad") == pytest.approx(np.sqrt(1.0 / 6.0), abs=1e-3)


def test_norm_rejects_nan():
    dm = mesh.DomainMesh(4)
    f = np.zeros((dm.nnodes, 1))
    f[0, 0] = np.nan
    with pytest.raises(ValueError):
        mesh.norm(dm, f, "Lp", 2)
    # a NaN exponent is no p >= 1 either
    with pytest.raises(ValueError, match="need p >= 1, got nan"):
        mesh.norm(dm, np.ones((dm.nnodes, 1)), "Lp", np.nan)


def _gauss_formula_norm(g, vals, kind, p):
    """The norm written out element by element: bilinear values and
    gradients at the 2 x 2 Gauss points (3 -+ sqrt 3)/6, weight h^2/4 each.
    On the torus the node grid is closed by its first row and column."""
    n, h = g.n, g.h
    U = vals.reshape(g.n if g.is_torus else n + 1, -1, vals.shape[1])
    if g.is_torus:
        U = np.concatenate([U, U[:1]], axis=0)
        U = np.concatenate([U, U[:, :1]], axis=1)
    u00, u10, u01, u11 = U[:-1, :-1], U[:-1, 1:], U[1:, :-1], U[1:, 1:]
    pts = ((3 - np.sqrt(3)) / 6, (3 + np.sqrt(3)) / 6)
    val_p, grad_p, grad_max, weighted = 0.0, 0.0, 0.0, 0.0
    ey, ex = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for eta in pts:
        for xi in pts:
            u = (u00 * (1 - xi) * (1 - eta) + u10 * xi * (1 - eta)
                 + u01 * (1 - xi) * eta + u11 * xi * eta)
            gx = ((u10 - u00) * (1 - eta) + (u11 - u01) * eta) / h
            gy = ((u01 - u00) * (1 - xi) + (u11 - u10) * xi) / h
            grad2 = (gx ** 2 + gy ** 2).sum(axis=2)
            grad_max = max(grad_max, np.sqrt(grad2).max())
            if np.isfinite(p):
                val_p += h * h / 4 * (np.sqrt((u ** 2).sum(axis=2)) ** p).sum()
                grad_p += h * h / 4 * (np.sqrt(grad2) ** p).sum()
            x, y = (ex + xi) * h, (ey + eta) * h
            dist = np.minimum(np.minimum(x, 1 - x), np.minimum(y, 1 - y))
            weighted += h * h / 4 * (grad2 * dist).sum()
    if kind == "weighted_grad":
        return np.sqrt(weighted)
    if np.isinf(p):
        vmax = np.sqrt((vals ** 2).sum(axis=1)).max()
        return vmax if kind == "Lp" else max(vmax, grad_max)
    return (val_p + (grad_p if kind == "W1p" else 0.0)) ** (1 / p)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [1, 1.5, 2, np.inf])
@pytest.mark.parametrize("kind", ["Lp", "W1p", "weighted_grad"])
def test_norm_matches_the_gauss_formula(kind, p, m):
    # even and odd n; the torus too, where the stencils are circulant (the
    # weighted norm needs the square's boundary)
    grids = [mesh.DomainMesh(12), mesh.DomainMesh(7)]
    if kind != "weighted_grad":
        grids += [mesh.TorusGrid(12), mesh.TorusGrid(7)]
    for g in grids:
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        vals = np.column_stack([np.sin(3 * x + 1) * np.cos(2 * y) - 0.3, x * y ** 2 - 0.2][:m])
        got = mesh.norm(g, vals, kind, p)
        assert isinstance(got, float)
        assert got == pytest.approx(_gauss_formula_norm(g, vals, kind, p), rel=1e-13), (g.n, g.is_torus)


def test_weighted_grad_norm_needs_the_square():
    g = mesh.TorusGrid(8)
    with pytest.raises(ValueError, match="square's boundary"):
        mesh.norm(g, np.ones(g.nnodes), "weighted_grad")


@pytest.mark.parametrize("kind, field", [("Lp", "ones"), ("W1p", "x")])
def test_sup_norm_of_a_system_is_the_limit_of_the_finite_p_norms(kind, field):
    # u = (1, 1) and u = (x, x): |u| and the Frobenius |grad u| reach sqrt 2,
    # while no single entry exceeds 1
    dm = mesh.DomainMesh(8)
    col = np.ones(dm.nnodes) if field == "ones" else dm.nodes[:, 0]
    u = np.column_stack([col, col])
    sup = mesh.norm(dm, u, kind, np.inf)
    assert sup == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert mesh.norm(dm, u, kind, 1024) == pytest.approx(sup, rel=1e-2)


def test_sup_norm_of_a_scalar_field_is_its_largest_entry():
    dm = mesh.DomainMesh(12)
    x, y = dm.nodes[:, 0], dm.nodes[:, 1]
    u = np.sin(3 * x + 1) * np.cos(2 * y) - 0.3
    gg = mesh.element_gauss_gradients(dm, u[:, None])
    assert mesh.norm(dm, u, "Lp", np.inf) == np.abs(u).max()
    assert mesh.norm(dm, u, "W1p", np.inf) == max(np.abs(u).max(), np.sqrt((gg ** 2).sum(axis=2)).max())


@pytest.mark.parametrize("m", [1, 2])
def test_norm_needs_few_fields_of_memory(m):
    # no (nelem, 4, ...) Gauss table: at n = 512 the p = 2 stencils peak at
    # 3.0 fields (two stencil passes and a product), the Gauss rule in blocks
    # of element rows at 1.4 fields (m = 1) and 0.6 (m = 2); the tables
    # took 8-40 fields
    import tracemalloc
    dm = mesh.DomainMesh(512)
    vals = np.random.default_rng(m).standard_normal((dm.nnodes, m))
    for kind in ("Lp", "W1p", "weighted_grad"):
        for p in (1, 1.5, 2):
            tracemalloc.start()
            try:
                mesh.norm(dm, vals, kind, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = 3.5 if p == 2 and kind != "weighted_grad" else 1.5
            assert peak <= bound * vals.nbytes, (kind, p, peak / vals.nbytes)


def _full_argmin(dm, pt):
    return int(np.argmin(np.sum((dm.nodes - np.asarray(pt)) ** 2, axis=1)))


@pytest.mark.parametrize("n", [2, 3, 8, 24, 64, 256, 1024])
def test_nearest_node_is_the_argmin_over_all_nodes(n):
    from homoglab.ratelab.context import GREEN_EVAL, GREEN_SOURCE, INTERIOR_EVAL
    dm = mesh.DomainMesh(n)
    rng = np.random.default_rng(n)
    h = dm.h
    registry = [GREEN_SOURCE, GREEN_EVAL, *INTERIOR_EVAL, (0.5, 0.5), (0.5, 1 / 3)]
    random = rng.uniform(0.0, 1.0, (12, 2))
    i, j = rng.integers(0, n, (2, 12))
    halfway = np.concatenate([np.column_stack([(i + 0.5) * h, (j + 0.5) * h]),
                              np.column_stack([(i + 0.5) * h, j * h]),
                              np.column_stack([i * h, (j + 0.5) * h])])
    off = [(-0.3, 0.5), (1.2, 0.5), (0.5, -1e-9), (0.5 + 0.5 * h, 1.0 + h / 2),
           (-1.0, -1.0), (2.0, 3.0), (1e6, 0.5), (0.5, 1e6), (0.3, -1e5), *rng.uniform(-1.0, 2.0, (8, 2))]
    for pt in [*registry, *random, *halfway, *off]:
        assert dm.nearest_node(pt) == _full_argmin(dm, pt), pt


def _load_scale(grid, vals, power):
    """The size of one entry of a load of vals, h^power max|vals|."""
    return grid.h ** power * max(np.abs(vals).max(), 1.0)


GRIDS = {"square": mesh.DomainMesh, "torus": mesh.TorusGrid}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 16])
@pytest.mark.parametrize("grid", ["square", "torus"])
def test_nodal_loads_match_gauss_quadrature(grid, n, m):
    g = GRIDS[grid](n)
    rng = np.random.default_rng(10 * n + m)
    f, F = rng.standard_normal((g.nnodes, m)), rng.standard_normal((g.nnodes, 2, m))
    vol = mesh.volume_load_from_gauss(g, mesh.element_gauss_values(g, f))
    div = mesh.divergence_load_from_gauss(g, mesh.element_gauss_values(g, F))
    assert np.abs(mesh.volume_load(g, f) - vol).max() <= 1e-14 * _load_scale(g, f, 2)
    assert np.abs(mesh.divergence_load(g, F) - div).max() <= 1e-14 * _load_scale(g, F, 1)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("grid", ["square", "torus"])
def test_gauss_gathers_match_the_einsum_form(grid, m):
    g = GRIDS[grid](24)
    f = np.random.default_rng(m).standard_normal((g.nnodes, 2, m))
    at_nodes = f[g.elem_dofs]
    vals = np.einsum("gp,ep...->eg...", mesh.PHI, at_nodes)
    grads = np.einsum("gip,ep...->egi...", mesh.DPHI, at_nodes) / g.h
    for got, ref in ((mesh.element_gauss_values(g, f), vals),
                     (mesh.element_gauss_gradients(g, f), grads),
                     (mesh.element_gauss_values(g, f[:, 0]), vals[:, :, 0]),
                     (mesh.element_gauss_gradients(g, f[:, 0]), grads[:, :, :, 0])):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("m", [1, 2])
def test_divergence_load_against_a_linear_test_function(m):
    # sum divergence_load(f) . x_j e_a = integral f_j^a = sum volume_load(f_j)
    dm = mesh.DomainMesh(16)
    F = np.random.default_rng(m).standard_normal((dm.nnodes, 2, m))
    div = mesh.divergence_load(dm, F).reshape(dm.nnodes, m)
    for j in range(2):
        lhs = (div * dm.nodes[:, j, None]).sum(axis=0)
        rhs = mesh.volume_load(dm, F[:, j]).reshape(dm.nnodes, m).sum(axis=0)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-14 * np.abs(F).max())


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 16])
def test_divergence_load_of_a_constant_vanishes_on_the_torus(n, m):
    grid = mesh.TorusGrid(n)
    F = np.broadcast_to(np.arange(1.0, 2 * m + 1).reshape(2, m), (grid.nnodes, 2, m))
    assert np.abs(mesh.divergence_load(grid, F)).max() <= 1e-15


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 16])
@pytest.mark.parametrize("grid", ["square", "torus"])
def test_volume_load_of_ones_sums_to_one(grid, n, m):
    g = GRIDS[grid](n)
    total = mesh.volume_load(g, np.ones((g.nnodes, m))).reshape(g.nnodes, m).sum(axis=0)
    assert np.allclose(total, 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("grid", ["square", "torus"])
def test_nodal_loads_need_few_nodal_tables_of_memory(grid, m):
    # a load of nodal data needs no per-element arrays: the (nelem, 4, ...)
    # Gauss route peaked at 13-18 tables of the output's size at n = 256
    import tracemalloc
    g = GRIDS[grid](256)
    rng = np.random.default_rng(m)
    for load, data in ((mesh.volume_load, rng.standard_normal((g.nnodes, m))),
                       (mesh.divergence_load, rng.standard_normal((g.nnodes, 2, m)))):
        tracemalloc.start()
        try:
            out = load(g, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * out.nbytes, (load.__name__, peak / out.nbytes)


def test_tangential_derivative_constant():
    dm = mesh.DomainMesh(16)
    fb = np.ones(dm.n_boundary)
    dt = mesh.tangential_derivative(dm, fb)
    assert np.abs(dt).max() == 0.0


def test_tangential_derivative_left_edge():
    # f = x2 on the left edge (normal (-1, 0)): df/dt = n1 d2 f = -1
    dm = mesh.DomainMesh(16)
    fb = dm.nodes[dm.boundary_nodes, 1]
    dt = mesh.tangential_derivative(dm, fb)
    left = np.arange(3 * dm.n + 1, 4 * dm.n)
    assert np.abs(dt[left, 0] + 1.0).max() < 1e-12


def test_tangential_derivative_sine_second_order():
    errs = []
    for n in (16, 32):
        dm = mesh.DomainMesh(n)
        fb = np.sin(2 * np.pi * dm.boundary_s)
        dt = mesh.tangential_derivative(dm, fb)
        exact = 2 * np.pi * np.cos(2 * np.pi * dm.boundary_s)
        mask = dm.noncorner_mask
        errs.append(np.abs(dt[mask, 0] - exact[mask]).max())
    assert errs[1] / errs[0] < 0.3


def test_nodal_gradient_interior_and_boundary():
    dm = mesh.DomainMesh(32)
    vals = dm.nodes[:, 0] + np.sin(np.pi * dm.nodes[:, 0]) * np.sin(np.pi * dm.nodes[:, 1])
    g = mesh.nodal_gradient(dm, vals)
    gx = 1.0 + np.pi * np.cos(np.pi * dm.nodes[:, 0]) * np.sin(np.pi * dm.nodes[:, 1])
    gy = np.pi * np.sin(np.pi * dm.nodes[:, 0]) * np.cos(np.pi * dm.nodes[:, 1])
    err32 = max(np.abs(g[:, 0, 0] - gx).max(), np.abs(g[:, 1, 0] - gy).max())
    dm2 = mesh.DomainMesh(64)
    vals2 = dm2.nodes[:, 0] + np.sin(np.pi * dm2.nodes[:, 0]) * np.sin(np.pi * dm2.nodes[:, 1])
    g2 = mesh.nodal_gradient(dm2, vals2)
    gx2 = 1.0 + np.pi * np.cos(np.pi * dm2.nodes[:, 0]) * np.sin(np.pi * dm2.nodes[:, 1])
    err64 = np.abs(g2[:, 0, 0] - gx2).max()
    assert err64 / err32 < 0.6  # at least first order; recovery is second order inside


def test_nodal_gradient_exact_on_affine():
    dm = mesh.DomainMesh(8)
    vals = 2.0 * dm.nodes[:, 0] - 3.0 * dm.nodes[:, 1] + 1.0
    g = mesh.nodal_gradient(dm, vals)
    assert np.abs(g[:, 0, 0] - 2.0).max() < 1e-12
    assert np.abs(g[:, 1, 0] + 3.0).max() < 1e-12


def test_interp_torus_wraps():
    grid = mesh.TorusGrid(16)
    table = np.sin(2 * np.pi * grid.nodes[:, 0])
    pts = np.array([[0.25, 0.5], [1.25, 0.5], [-0.75, 7.5]])
    vals = mesh.interp_torus(grid, table, pts)
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)
    assert vals[0] == pytest.approx(vals[2], abs=1e-12)


def test_nodal_csv_writer(tmp_path):
    dm = mesh.DomainMesh(4)
    values = np.column_stack([dm.nodes[:, 0] * 2.0, np.sin(dm.nodes[:, 1] + 0.1)])
    path = tmp_path / "field.csv"
    mesh.write_nodal_csv(dm, values, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "node_x,node_y,component,value"
    assert len(lines) == 1 + dm.nnodes * 2
    for k, line in enumerate(lines[1:]):
        a, node = divmod(k, dm.nnodes)
        x, y, comp, value = line.split(",")
        assert (float(x), float(y)) == tuple(dm.nodes[node])
        assert int(comp) == a
        assert float(value) == values[node, a]


@pytest.mark.parametrize("m", [1, 2])
def test_solves_and_kernels_return_nodal_arrays(m):
    dm, grid = mesh.DomainMesh(8), mesh.TorusGrid(8)
    field = coeff.builtin("layered", m=m)
    op = mesh.assemble(field, dm, mode="dirichlet")
    opn = mesh.assemble(field, dm, mode="neumann")
    source = np.tile(np.cos(np.pi * dm.nodes[:, :1]), (1, m))
    results = [
        mesh.solve_dirichlet(op, source, bdata=1.0),
        mesh.solve_neumann(opn, source),
        mesh.solve_periodic(mesh.assemble(field, grid), np.ones((grid.nnodes, m))),
        kernels.green(op, (0.5, 0.5)),
        kernels.neumann_fn(opn, (0.5, 0.5)),
        kernels.poisson_kernel(op, 3),
    ]
    for u, nnodes in zip(results, [dm.nnodes] * 2 + [grid.nnodes] + [dm.nnodes] * 3):
        assert isinstance(u, np.ndarray) and u.dtype == float and u.shape == (nnodes, m)
    with pytest.raises(ValueError, match="values for"):
        mesh.norm(dm, results[0][1:], "Lp", 2)
    with pytest.raises(ValueError, match="values for"):
        mesh.norm(grid, results[0], "Lp", 2)


# ---------------------------------------------------------------------------
# transform solver of constant-coefficient Dirichlet and periodic operators


def _record_factors(monkeypatch):
    """The list that gets the mode of every operator factored from now on:
    an operator solved through its transform never calls _factor."""
    calls = []
    factor = mesh.AssembledOperator._factor

    def recording(self, matrix):
        calls.append(self.mode)
        return factor(self, matrix)

    monkeypatch.setattr(mesh.AssembledOperator, "_factor", recording)
    return calls


@pytest.fixture(scope="module")
def transform_tensors():
    from homoglab import cell
    from homoglab.ratelab import coefficient_from_spec
    from homoglab.ratelab.experiments import LAYERED_DIAG
    diag_hatA = cell.solve(coefficient_from_spec(LAYERED_DIAG), 16).hatA
    assert abs(diag_hatA[0, 1, 0, 0]) > 0.1          # O(1) mixed term: the CG path
    return {
        "laplacian": coeff.builtin("constant", value=np.eye(2)),
        "diag": coeff.builtin("constant", value=np.diag([np.sqrt(3.0), 2.0])),
        "layered-diag-hatA": coeff.builtin("constant", value=diag_hatA),
        "block-diagonal-m2-hatA": coeff.builtin(
            "constant", value=cell.solve(coeff.builtin("layered", m=2), 16).hatA, m=2),
    }


@pytest.mark.parametrize("name", ["laplacian", "diag", "layered-diag-hatA",
                                  "block-diagonal-m2-hatA"])
@pytest.mark.parametrize("n", [2, 3, 16, 33])
def test_sine_transform_matches_superlu(monkeypatch, transform_tensors, name, n):
    # the transform solver against SuperLU of K_ii on the square and of the
    # bordered [[K, C], [C^T, 0]] on the torus, C the volume-mean pin
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    field = transform_tensors[name]
    factored = _record_factors(monkeypatch)
    for grid in (mesh.DomainMesh(n), mesh.TorusGrid(n)):
        op = mesh.assemble(field, grid)
        solver = op.factorization()
        assert factored == []
        if grid.is_torus:
            C = sp.kron(np.full((grid.nnodes, 1), grid.h ** 2), sp.eye(op.m))
            A = sp.bmat([[op.matrix, C], [C.T, None]])
        else:
            A = op.interior_matrix()
        ndof = A.shape[0] - (op.m if grid.is_torus else 0)
        B = np.random.default_rng(n).standard_normal((ndof, 3))
        B[:, 1] = 0.0                                    # a zero column stays zero
        expect = spla.splu(A.tocsc()).solve(np.vstack([B, np.zeros((A.shape[0] - ndof, 3))]))[:ndof]
        scale = np.abs(expect).max()
        X = solver.solve(B)
        assert np.abs(X - expect).max() <= 1e-11 * scale
        assert np.abs(solver.solve(B[:, 0]) - expect[:, 0]).max() <= 1e-11 * scale
        assert not X[:, 1].any()
        if grid.is_torus:
            assert np.abs(X.reshape(grid.nnodes, op.m, 3).sum(axis=0)).max() <= 1e-12 * scale


@pytest.mark.parametrize("m", [1, 2])
def test_nonsymmetric_constant_solves(monkeypatch, m):
    import scipy.sparse.linalg as spla
    if m == 1:
        # K_ii of a constant tensor is symmetric for m = 1: the transform path
        value = np.array([[1.0, 0.5], [-0.5, 1.0]])
    else:
        # coupled components with a skew a_11 block: K_ii is not symmetric
        value = np.zeros((2, 2, 2, 2))
        value[0, 0] = [[2.0, 0.3], [-0.3, 2.0]]
        value[1, 1] = [[1.5, 0.2], [0.2, 1.0]]
        value[0, 1] = [[0.1, 0.0], [0.2, 0.1]]
    field = coeff.builtin("constant", value=value, m=m)
    assert not field.symmetric
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(field, dm)
    factored = _record_factors(monkeypatch)
    op.factorization()
    assert factored == ([] if m == 1 else ["dirichlet"])
    source = np.tile(np.sin(np.pi * dm.nodes[:, :1]) + dm.nodes[:, 1:], (1, m))
    u = mesh.solve_dirichlet(op, source, bdata=0.0)
    inter, _ = op.dof_split()
    expect = spla.splu(op.interior_matrix().tocsc()).solve(mesh.volume_load(dm, source)[inter])
    assert np.abs(u.ravel()[inter] - expect).max() <= 1e-11 * np.abs(expect).max()


def _skewed_field():
    """A non-symmetric periodic field: the diagonal layers plus a skew part."""
    base = coeff.builtin("layered", wavevector=(1, 1))
    skew = np.array([[0.0, 0.8], [-0.8, 0.0]])[:, :, None, None]
    return coeff.CoefficientField(
        lambda pts: base(pts) + np.cos(2 * np.pi * pts[:, 1])[:, None, None, None, None] * skew,
        symmetric=False)


def test_adjoint_operator_is_the_transposed_matrix():
    # op.adjoint() is op for a symmetric coefficient; otherwise its matrix is
    # what assembling A* gives, to roundoff
    dm = mesh.DomainMesh(16)
    layered = mesh.assemble(coeff.rescale(coeff.builtin("layered"), 1 / 4), dm)
    assert layered.adjoint() is layered
    op = mesh.assemble(coeff.rescale(_skewed_field(), 1 / 4), dm)
    star = op.adjoint()
    assert (star.mode, star.coeff.epsilon, star.coeff.symmetric) == ("dirichlet", 0.25, False)
    assembled = mesh.assemble(op.coeff.adjoint(), dm).matrix
    assert abs(star.matrix - assembled).max() <= 1e-14 * abs(assembled).max()


def test_constant_dirichlet_operators_never_factor(monkeypatch, transform_tensors):
    calls = []
    factor = mesh.AssembledOperator._factor

    def counting(self, matrix):
        calls.append(self.mode)
        return factor(self, matrix)

    monkeypatch.setattr(mesh.AssembledOperator, "_factor", counting)
    dm = mesh.DomainMesh(8)
    for field in [*transform_tensors.values(),
                  coeff.rescale(coeff.builtin("constant", value=2.0), 1 / 4)]:
        op = mesh.assemble(field, dm)
        mesh.solve_dirichlet(op, np.ones((dm.nnodes, field.m)), bdata=1.0)
        kernels.dtn(op)
    assert calls == []
    # a variable field of 3 periods per side, which the cell template does
    # not take, is factored
    dm3 = mesh.DomainMesh(12)
    op = mesh.assemble(coeff.rescale(coeff.builtin("layered"), 1 / 3), dm3)
    mesh.solve_dirichlet(op, np.ones((dm3.nnodes, 1)))
    kernels.green(op, (0.5, 0.5))
    assert calls == ["dirichlet"]
    # Neumann operators are solved by transform, never factored
    mesh.solve_neumann(mesh.assemble(transform_tensors["laplacian"], dm, mode="neumann"))
    assert calls == ["dirichlet"]
    # the periodic operator of a constant tensor, and the flux corrector's
    # torus Laplacian, are solved by transform too
    grid = mesh.TorusGrid(8)
    for field in transform_tensors.values():
        mesh.solve_periodic(mesh.assemble(field, grid), np.ones((grid.nnodes, field.m)))
    b_gauss = np.zeros((2, 2, 1, 1, grid.nelem, 4))
    b_gauss[0, 1, 0, 0] = np.sin(2 * np.pi * grid.gauss_points()[..., 0])
    cell.flux_corrector(grid, b_gauss)
    assert calls == ["dirichlet"]


def test_sine_transform_iteration_cap(monkeypatch, transform_tensors):
    dm, grid = mesh.DomainMesh(16), mesh.TorusGrid(16)
    source = np.ones((dm.nnodes, 1))
    wave = np.sin(2 * np.pi * (grid.nodes[:, :1] + 2 * grid.nodes[:, 1:]))
    monkeypatch.setattr(mesh, "_TRANSFORM_MAXITER", 0)
    # no mixed term: the first transform solve meets the target by itself
    mesh.solve_dirichlet(mesh.assemble(transform_tensors["diag"], dm), source)
    mesh.solve_periodic(mesh.assemble(transform_tensors["diag"], grid), wave)
    with pytest.raises(mesh.SolveError, match="conjugate-gradient"):
        mesh.solve_dirichlet(mesh.assemble(transform_tensors["layered-diag-hatA"], dm), source)
    with pytest.raises(mesh.SolveError, match="conjugate-gradient"):
        mesh.solve_periodic(mesh.assemble(transform_tensors["layered-diag-hatA"], grid), wave)
    # Neumann: the Laplacian's transform is exact; a mixed term or a variable
    # coefficient needs conjugate-gradient steps
    neumann = np.cos(np.pi * dm.nodes[:, :1])
    mesh.solve_neumann(mesh.assemble(transform_tensors["laplacian"], dm, mode="neumann"), neumann)
    for name in ("layered-diag-hatA", "layered"):
        op = mesh.assemble(_neumann_fields(transform_tensors)[name], dm, mode="neumann")
        with pytest.raises(mesh.SolveError, match="conjugate-gradient"):
            mesh.solve_neumann(op, neumann)


class _PerturbedLU:
    """A sparse LU whose solutions are off by rel, one part in a million
    unless given."""

    def __init__(self, lu, rel=1e-6):
        self.lu = lu
        self.nnz = lu.nnz
        self.rel = rel

    def solve(self, b):
        return self.lu.solve(b) * (1.0 + self.rel)


@pytest.mark.parametrize("solve", ["dirichlet", "neumann", "dtn"])
def test_perturbed_factorization_fails_residual_check(monkeypatch, layered_field, solve):
    factor = mesh.AssembledOperator._factor
    monkeypatch.setattr(mesh.AssembledOperator, "_factor",
                        lambda self, matrix: _PerturbedLU(factor(self, matrix)))
    # a Neumann operator is solved by transform: one whose symbol has lost
    # its highest mode pair cannot take up the data's part there
    init = mesh.Solver.__init__

    def perturbed_init(self, op, tensor, cells):
        init(self, op, tensor, cells)
        if self._direct is None:
            self._inv[-1, -1] = 0.0

    monkeypatch.setattr(mesh.Solver, "__init__", perturbed_init)
    dm = mesh.DomainMesh(16)
    sc = coeff.rescale(layered_field, 1 / 4)
    # 3 periods per side: the Dirichlet operator is factored, not templated
    dm3, sc3 = mesh.DomainMesh(12), coeff.rescale(layered_field, 1 / 3)
    with pytest.raises(mesh.SolveError, match="sparse LU failed its residual check"
                       if solve != "neumann" else "residual check"):
        if solve == "dirichlet":
            mesh.solve_dirichlet(mesh.assemble(sc3, dm3), np.ones((dm3.nnodes, 1)))
        elif solve == "neumann":
            load = np.random.default_rng(0).standard_normal(dm.nnodes)
            mesh.solve_neumann(mesh.assemble(sc, dm, mode="neumann"), load - load.mean())
        else:
            kernels.dtn(mesh.assemble(sc3, dm3))


@pytest.mark.parametrize("solve", ["dirichlet", "periodic", "dtn"])
def test_lu_off_by_1e10_fails_residual_check(monkeypatch, layered_field, solve):
    # the LU meets the transform's rule, 1e-12 of the data: solutions off
    # by 1e-10 relative miss it
    factor = mesh.AssembledOperator._factor
    monkeypatch.setattr(mesh.AssembledOperator, "_factor",
                        lambda self, matrix: _PerturbedLU(factor(self, matrix), rel=1e-10))
    # 3 periods per side: the Dirichlet operator is factored, not templated
    dm, grid = mesh.DomainMesh(12), mesh.TorusGrid(16)
    sc = coeff.rescale(layered_field, 1 / 3)
    with pytest.raises(mesh.SolveError, match="sparse LU failed its residual check"):
        if solve == "dirichlet":
            mesh.solve_dirichlet(mesh.assemble(sc, dm), np.ones((dm.nnodes, 1)))
        elif solve == "periodic":
            wave = np.sin(2 * np.pi * (grid.nodes[:, :1] + 2 * grid.nodes[:, 1:]))
            mesh.solve_periodic(mesh.assemble(layered_field, grid), wave)
        else:
            kernels.dtn(mesh.assemble(sc, dm))


# ---------------------------------------------------------------------------
# cell template of aligned eps-periodic Dirichlet operators


def _template_fields():
    from homoglab.ratelab import coefficient_from_spec
    from homoglab.ratelab.experiments import LAYERED, LAYERED_DIAG
    return {
        "layered": coefficient_from_spec(LAYERED),
        "layered-diag": coefficient_from_spec(LAYERED_DIAG),
        "checkerboard-100": coeff.builtin("smoothed-checkerboard", contrast=100.0),
        "layered-m2": coeff.builtin("layered", m=2),
        "coupled-m2": _coupled_m2_field(),
        "skewed": _skewed_field(),
    }


def _record_templates(monkeypatch):
    """The list that gets the cells per period and the component count,
    (c, m), of every cell template built from now on."""
    calls = []
    init = mesh._CellTemplate.__init__

    def recording(self, op, c):
        calls.append((c, op.m))
        init(self, op, c)

    monkeypatch.setattr(mesh._CellTemplate, "__init__", recording)
    return calls


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
@pytest.mark.parametrize("name", ["layered", "layered-diag", "checkerboard-100", "layered-m2",
                                  "coupled-m2", "skewed"])
@pytest.mark.parametrize("c, periods", [(2, 16), (8, 4), (32, 8)])
def test_cell_template_matches_superlu(monkeypatch, name, c, periods):
    # periods x periods periods of c cells: the Dirichlet operator, and the
    # adjoint of a non-symmetric one, are solved by their cell templates,
    # never factored; the interleaved template of the coupled m = 2 field,
    # and one m = 1 template for the two equal blocks of layered m = 2
    field = _template_fields()[name]
    dm = mesh.DomainMesh(periods * c)
    op = mesh.assemble(coeff.rescale(field, 1 / periods), dm)
    factored, templated = _record_factors(monkeypatch), _record_templates(monkeypatch)
    ops = [op] if field.symmetric else [op, op.adjoint()]
    for each in ops:
        solver = each.factorization()
        Kii = each.interior_matrix()
        B = np.random.default_rng(c).standard_normal((Kii.shape[0], 3))
        B[:, 1] = 0.0                                    # a zero column stays zero
        expect = spla.splu(Kii.tocsc()).solve(B)
        scale = np.abs(expect).max()
        X = solver.solve(B)
        assert np.abs(X - expect).max() <= 1e-10 * scale
        assert np.abs(solver.solve(B[:, 0]) - expect[:, 0]).max() <= 1e-10 * scale
        assert not X[:, 1].any()
    assert factored == [] and templated == [(c, 2 if name == "coupled-m2" else 1)] * len(ops)


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
def test_cell_template_only_for_aligned_variable_dirichlet_operators(monkeypatch, layered_field):
    templated, factored = _record_templates(monkeypatch), _record_factors(monkeypatch)
    for field, grid, mode in [
        (coeff.rescale(layered_field, 1 / 3), mesh.DomainMesh(12), "dirichlet"),   # 3 periods
        (layered_field, mesh.DomainMesh(16), "dirichlet"),                # a period-1 field
        (coeff.rescale(layered_field, 1.0), mesh.DomainMesh(16), "dirichlet"),     # 1 period
        (coeff.rescale(layered_field, 1 / 2), mesh.DomainMesh(128), "dirichlet"),  # c = 64
        # n < c^2/4: c = 32 on 4 periods, c = 16 on 2
        (coeff.rescale(layered_field, 1 / 4), mesh.DomainMesh(128), "dirichlet"),
        (coeff.rescale(layered_field, 1 / 2), mesh.DomainMesh(32), "dirichlet"),
        (coeff.rescale(layered_field, 1 / 4), mesh.DomainMesh(16), "dirichlet"),   # n < 32
        (coeff.rescale(coeff.builtin("constant", value=2.0), 1 / 4), mesh.DomainMesh(16),
         "dirichlet"),                                                    # a rescaled constant
        (coeff.rescale(layered_field, 1 / 4), mesh.DomainMesh(16), "neumann"),
        (layered_field, mesh.TorusGrid(16), "periodic"),
    ]:
        mesh.assemble(field, grid, mode=mode).factorization()
    assert templated == []
    assert factored == ["dirichlet"] * 7 + ["periodic"]


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
@pytest.mark.parametrize("name", ["layered", "layered-m2", "coupled-m2", "skewed"])
def test_template_set_up_evaluates_no_coefficient(monkeypatch, name):
    # the template reads the element matrices that assembly built, which
    # the operator keeps across release(), in_mode and adjoint: a set-up
    # evaluates the coefficient at no point, the first one or a later one
    field = _template_fields()[name]
    op = mesh.assemble(coeff.rescale(field, 1 / 4), mesh.DomainMesh(32))
    templated, points = _record_templates(monkeypatch), []
    call = coeff.CoefficientField.__call__

    def counting(self, pts):
        points.append(np.asarray(pts).size // 2)
        return call(self, pts)

    monkeypatch.setattr(coeff.CoefficientField, "__call__", counting)
    ops = [op] if field.symmetric else [op, op.adjoint()]
    for each in ops:
        each.factorization()
        each.release()
        each.in_mode("neumann").in_mode("dirichlet").factorization()
    assert sum(points) == 0 and len(templated) == 2 * len(ops)


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
def test_only_an_operator_the_template_admits_keeps_its_element_matrices(layered_field):
    # the period's table on a template operator, in either mode of the
    # square, and on each block of a decoupled one, which keeps its own
    # slice; nothing on an LU operator (c = n), a torus or the interleaved
    # operator of a decoupled system
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(coeff.rescale(layered_field, 1 / 4), dm, mode="neumann")
    assert op.element_matrices.shape == (64, 4, 1, 4, 1)
    assert op.in_mode("dirichlet").element_matrices is op.element_matrices
    for field, grid in [(layered_field, dm), (coeff.rescale(layered_field, 1 / 3),
                                              mesh.DomainMesh(12)),
                        (coeff.rescale(layered_field, 1 / 2), mesh.TorusGrid(32))]:
        assert mesh.assemble(field, grid).element_matrices is None
    system = mesh.assemble(coeff.rescale(coeff.builtin("layered", m=2), 1 / 4), dm)
    [(_, block)] = system.blocks
    assert system.element_matrices is None and block.element_matrices.shape == (64, 4, 1, 4, 1)


@pytest.mark.parametrize("order", ["C", "F"])
def test_subtract_product_updates_x_in_any_layout(order):
    # BLAS updates a C-ordered x in place; an x of another layout, which
    # f2py would copy, takes the plain update instead of losing it
    rng = np.random.default_rng(0)
    W, y = rng.standard_normal((2, 2, 5, 3)), rng.standard_normal((2, 2, 3, 4))
    x = np.asarray(rng.standard_normal((2, 2, 5, 4)), order=order)
    want = x - W @ y
    mesh._subtract_product(x, W, y)
    np.testing.assert_allclose(x, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name, m", [("layered", 1), ("coupled-m2", 2)])
def test_template_inverts_no_matrix_of_more_than_255_m_rows(monkeypatch, name, m):
    # the fixed workload's shape, 32 cells per period on n = 256: the base
    # classes of 16 cells invert (15^2) m rows and the period's cross
    # (2 * 31 - 1) m, the blocks above it at most (2 * 127 - 1) m, and the
    # top's (2 * 255 - 1) m-row cross is factored, never inverted
    inverted, factored = [], []

    def recording(module, what, shapes):
        f = getattr(module, what)

        def call(a, *args, **kwargs):
            shapes.append(a.shape)
            return f(a, *args, **kwargs)

        monkeypatch.setattr(module, what, call)

    recording(np.linalg, "inv", inverted)
    recording(scipy.linalg, "lu_factor", factored)
    templated = _record_templates(monkeypatch)
    op = mesh.assemble(coeff.rescale(_template_fields()[name], 1 / 8), mesh.DomainMesh(256))
    op.factorization()
    assert templated == [(32, m)]
    # one batched call inverts the 2 x 2 base classes
    assert sorted(shape[-1] for shape in inverted) == [r * m for r in (61, 125, 225, 253)]
    assert max(shape[-1] for shape in inverted) <= 255 * m
    assert factored == [(509 * m, 509 * m)]


@pytest.mark.parametrize("solve", ["dirichlet", "dtn"])
def test_template_off_by_1e10_fails_residual_check(monkeypatch, layered_field, solve):
    # the template meets the one rule, 1e-12 of the data: solutions off by
    # 1e-10 relative miss it and raise at once, with no conjugate gradients
    template_solve = mesh._CellTemplate.solve
    monkeypatch.setattr(mesh._CellTemplate, "solve",
                        lambda self, B: template_solve(self, B) * (1.0 + 1e-10))
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(coeff.rescale(layered_field, 1 / 4), dm)
    with pytest.raises(mesh.SolveError, match=r"cell template of 8 cells per period .* failed "
                                              r"its residual check .* after 0 conjugate"):
        if solve == "dirichlet":
            mesh.solve_dirichlet(op, np.ones((dm.nnodes, 1)))
        else:
            kernels.dtn(op)


def _zeroed_template_solve(monkeypatch, field, n, periods, level, block, cls=Ellipsis):
    """solve_dirichlet on the mesh of side n of field at eps = 1/periods,
    whose cell template has one part zeroed after its set-up: the top's
    factor (level "top"), or the block (inv, W or A_RE) of class cls of a
    level below it, every class by default."""
    init = mesh._CellTemplate.__init__
    shapes = []

    def zeroing(self, op, c):
        init(self, op, c)
        if level == "top":
            self._top[0][...] = 0.0
        else:
            part = getattr(self._levels[level], block)
            shapes.append(part.shape[:2])
            part[cls] = 0.0

    monkeypatch.setattr(mesh._CellTemplate, "__init__", zeroing)
    dm = mesh.DomainMesh(n)
    op = mesh.assemble(coeff.rescale(field, 1 / periods), dm)
    with pytest.raises(mesh.SolveError, match="cell template .* failed its residual check"):
        mesh.solve_dirichlet(op, np.ones((dm.nnodes, 1)))
    return shapes


@pytest.mark.parametrize("level, block", [(0, "inv"), (0, "W"), (0, "A_RE"),
                                          (1, "inv"), (1, "W"), (1, "A_RE"), ("top", "factor")])
def test_template_with_a_zeroed_block_fails_residual_check(monkeypatch, layered_field,
                                                           level, block):
    # 4 x 4 periods of 8 cells: the cell, the block of 2 x 2 periods and
    # the top block, which keeps only its factor
    _zeroed_template_solve(monkeypatch, layered_field, 32, 4, level, block)


@pytest.mark.parametrize("level, block, cls", [
    pytest.param(0, "inv", (0, 1), id="base-inv-01"),
    pytest.param(0, "W", (1, 0), id="base-W-10"),
    pytest.param(0, "A_RE", (1, 1), id="base-A_RE-11"),
    pytest.param(1, "inv", (0, 0), id="period-inv"),
    pytest.param(1, "W", (0, 0), id="period-W"),
    pytest.param(1, "A_RE", (0, 0), id="period-A_RE"),
    pytest.param("top", "factor", None, id="top-factor")])
def test_template_of_32_cells_with_a_zeroed_block_fails_residual_check(monkeypatch, layered_field,
                                                                       level, block, cls):
    # 8 x 8 periods of 32 cells: 2 x 2 base classes of 16 cells, of which
    # one has a block zeroed and the other three are kept; the period's one
    # class; and the factored top
    shapes = _zeroed_template_solve(monkeypatch, layered_field, 256, 8, level, block, cls)
    assert shapes == ([] if level == "top" else [(2, 2) if level == 0 else (1, 1)])


def test_cell_template_of_a_field_that_is_not_periodic_fails_residual_check():
    # the matrix of a Gauss table that drifts from period to period, 1 +
    # y1/4 at y = x/eps on every element, which no CoefficientField gives
    # (each is read at y mod 1), on an operator that claims a block of 8
    # cells of the field equal to it on the first period: the solver takes
    # the first period's template, which is wrong in the other periods, and
    # the residual check against the matrix says so rather than return a
    # wrong number
    dm, eps, eye = mesh.DomainMesh(32), 1 / 4, np.eye(2)[:, :, None, None]
    A = (1.0 + 0.25 * dm.gauss_points()[..., 0] / eps)[..., None, None, None, None] * eye
    first = coeff.rescale(coeff.CoefficientField(
        lambda y: (1.0 + 0.25 * y[:, 0])[:, None, None, None, None] * eye[None]), eps)
    op = mesh.AssembledOperator(dm, _coo_assembly(dm, A), "dirichlet", first,
                                A.mean(axis=(0, 1)), 8)
    with pytest.raises(mesh.SolveError, match="cell template .* repeats in every period"):
        mesh.solve_dirichlet(op, np.ones((dm.nnodes, 1)))


# ---------------------------------------------------------------------------
# transform solver of Neumann operators


def _coupled_m2_tensor():
    """A symmetric (a_ij^{ab} = a_ji^{ba}) coupled m = 2 tensor with mixed terms."""
    mat = np.array([[2.0, 0.3, 0.2, 0.1],
                    [0.3, 1.5, 0.1, 0.2],
                    [0.2, 0.1, 1.8, -0.3],
                    [0.1, 0.2, -0.3, 1.2]])         # rows and columns (i, a)
    return mat.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)


def _neumann_fields(transform_tensors):
    return {
        **{name: transform_tensors[name] for name in ("laplacian", "diag", "layered-diag-hatA")},
        "coupled-m2": coeff.builtin("constant", value=_coupled_m2_tensor(), m=2),
        "layered": coeff.rescale(coeff.builtin("layered"), 1 / 4),
        "layered-coupled-m2": coeff.rescale(_coupled_m2_field(), 1 / 4),
        "checkerboard-100": coeff.rescale(
            coeff.builtin("smoothed-checkerboard", contrast=100.0), 1 / 4),
    }


def _grounded_reference(op, B):
    """spsolve of K u = B with the first node's dofs grounded, shifted to zero
    boundary mean per component; B must be balanced."""
    dm, m = op.mesh, op.m
    keep = np.arange(m, op.ndof)
    U = np.zeros_like(B)
    U[keep] = spla.spsolve(op.matrix[keep][:, keep].tocsc(), B[keep])
    nodal = U.reshape(dm.nnodes, m, -1)
    nodal -= np.einsum("p,pac->ac", dm.arc_weights, nodal[dm.boundary_nodes]) / dm.arc_weights.sum()
    return U


@pytest.mark.parametrize("name", ["laplacian", "diag", "layered-diag-hatA", "coupled-m2",
                                  "layered", "layered-coupled-m2", "checkerboard-100"])
@pytest.mark.parametrize("n", [2, 3, 16, 33])
def test_neumann_transform_matches_grounded_spsolve(monkeypatch, transform_tensors, name, n):
    field = _neumann_fields(transform_tensors)[name]
    assert field.symmetric
    dm = mesh.DomainMesh(n)
    op = mesh.assemble(field, dm, mode="neumann")
    factored = _record_factors(monkeypatch)
    solver = op.factorization()
    assert factored == []
    B = np.random.default_rng(n).standard_normal((op.ndof, 3))
    B[:, 1] = 0.0                                        # a zero column stays zero
    nodal = B.reshape(dm.nnodes, op.m, 3)
    nodal -= nodal.mean(axis=0)                          # balanced data
    expect = _grounded_reference(op, B)
    scale = np.abs(expect).max()
    X = solver.solve(B)
    assert np.abs(X - expect).max() <= 1e-10 * scale
    assert np.abs(solver.solve(B[:, 0]) - expect[:, 0]).max() <= 1e-10 * scale
    assert not X[:, 1].any()
    means = np.einsum("p,pac->ac", dm.arc_weights, X.reshape(dm.nnodes, op.m, 3)[dm.boundary_nodes])
    assert np.abs(means).max() <= 1e-12 * scale


def test_neumann_data_just_under_the_compatibility_bound_solves(transform_tensors):
    # solve_neumann admits an imbalance up to 1e-8 of the data scale; the
    # solve takes off the part the boundary pin's multiplier absorbs,
    # C (sum b / sum C), and meets its residual target on the rest
    dm = mesh.DomainMesh(16)
    for name, field in _neumann_fields(transform_tensors).items():
        op = mesh.assemble(field, dm, mode="neumann")
        load = np.tile(np.cos(np.pi * dm.nodes[:, :1]) + dm.nodes[:, 1:] - 0.5, (1, op.m)).ravel()
        load[::op.m] += 0.9e-8 * np.abs(load[::op.m]).sum() * mesh.point_load(dm, 0)
        u = mesh.solve_neumann(op, load)
        C = np.zeros((dm.nnodes, op.m))
        C[dm.boundary_nodes] = dm.arc_weights[:, None]
        lam = load.reshape(dm.nnodes, op.m).sum(axis=0) / 4.0
        assert abs(lam[0]) > 0.0
        r = op.matrix @ u.ravel() + (C * lam).ravel() - load
        assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(load), name
        assert np.abs(dm.arc_weights @ u[dm.boundary_nodes]).max() <= 1e-12 * np.abs(u).max()


def test_nonsymmetric_neumann_operator_is_refused():
    skewed = coeff.builtin("constant", value=np.array([[1.0, 0.5], [-0.5, 1.0]]))
    assert not skewed.symmetric
    op = mesh.assemble(skewed, mesh.DomainMesh(8), mode="neumann")
    with pytest.raises(ValueError, match="symmetric coefficient"):
        mesh.solve_neumann(op)


def test_variable_neumann_operator_needs_its_coefficient_mean(monkeypatch, layered_field):
    # a Neumann operator is solved by transform only: there is no bordered
    # Neumann LU to fall back on when the tensor is missing
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(coeff.rescale(layered_field, 1 / 4), dm, mode="neumann")
    with pytest.raises(TypeError, match="coeff_mean"):
        mesh.AssembledOperator(dm, op.matrix, "neumann", op.coeff)
    factored = _record_factors(monkeypatch)
    bare = mesh.AssembledOperator(dm, op.matrix, "neumann", op.coeff, None, op.cells)
    with pytest.raises(ValueError, match="Neumann operator is solved by transform"):
        bare.factorization()
    assert factored == []


def test_periodic_transform_removes_the_data_mean():
    # the data's mean is removed before the transform, as the bordered
    # system's multiplier removes it: a mean of 1e-7 |b| still solves, and
    # the solution keeps a zero volume mean
    grid = mesh.TorusGrid(16)
    op = mesh.assemble(coeff.builtin("constant", value=np.diag([np.sqrt(3.0), 2.0])), grid)
    load = np.random.default_rng(1).standard_normal(grid.nnodes)
    load -= load.mean()
    load += 1e-7 * np.linalg.norm(load)
    assert load.mean() == pytest.approx(1e-7 * np.linalg.norm(load), rel=1e-6)
    u = mesh.solve_periodic(op, load)
    assert abs(grid.h ** 2 * u.sum()) <= 1e-12 * np.abs(u).max()


@pytest.mark.parametrize("mode", ["periodic", "neumann"])
def test_transform_floor_does_not_count_the_constant(mode, monkeypatch):
    # with the multiplier's part left in the data K x = b has no solution,
    # and conjugate gradients grow the constant of x, which K cannot see;
    # the roundoff floor must not let that constant pass the solve
    grid = mesh.TorusGrid(16) if mode == "periodic" else mesh.DomainMesh(16)
    op = mesh.assemble(coeff.builtin("constant", value=np.diag([np.sqrt(3.0), 2.0])), grid,
                       mode=mode)
    load = np.random.default_rng(1).standard_normal(grid.nnodes)
    load -= load.mean()
    load += 1e-9 * np.linalg.norm(load)
    monkeypatch.setattr(mesh.Solver, "_balanced", lambda self, B: B)
    with pytest.raises(mesh.SolveError, match="residual check"):
        op.factorization().solve(load)


# ---------------------------------------------------------------------------
# what Solver.solve hands its exact part: live, finite columns only


_LAYERED = coeff.builtin("layered")
_MIXED = coeff.builtin("constant", value=np.array([[2.0, 0.5], [0.5, 1.0]]))
_DIAG = coeff.builtin("constant", value=np.diag([np.sqrt(3.0), 2.0]))

# the operator, by name, whose Solver has each exact part in each mode it
# serves: the transform with or without conjugate gradients, the cell
# template, the plain and the bordered sparse LU, and the block-by-block
# solve of a decoupled m = 2 field
EXACT_PARTS = {
    "transform-dirichlet": lambda: mesh.assemble(_DIAG, mesh.DomainMesh(16)),
    "transform-cg-dirichlet": lambda: mesh.assemble(_MIXED, mesh.DomainMesh(16)),
    "transform-periodic": lambda: mesh.assemble(_DIAG, mesh.TorusGrid(16)),
    "transform-cg-periodic": lambda: mesh.assemble(_MIXED, mesh.TorusGrid(16)),
    "transform-neumann": lambda: mesh.assemble(_DIAG, mesh.DomainMesh(16), mode="neumann"),
    "transform-cg-neumann": lambda: mesh.assemble(coeff.rescale(_LAYERED, 1 / 4),
                                                  mesh.DomainMesh(16), mode="neumann"),
    "transform-cg-neumann-coupled-m2": lambda: mesh.assemble(
        coeff.builtin("constant", value=_coupled_m2_tensor(), m=2), mesh.DomainMesh(16),
        mode="neumann"),
    "template-dirichlet": lambda: mesh.assemble(coeff.rescale(_LAYERED, 1 / 4),
                                                mesh.DomainMesh(32)),
    "lu-dirichlet": lambda: mesh.assemble(coeff.rescale(_LAYERED, 1 / 3), mesh.DomainMesh(12)),
    "bordered-lu-periodic": lambda: mesh.assemble(_LAYERED, mesh.TorusGrid(16)),
    "blocks-template-dirichlet": lambda: mesh.assemble(
        coeff.rescale(coeff.builtin("layered", m=2), 1 / 4), mesh.DomainMesh(32)),
}


def _live_columns(op, ncols, seed):
    """ncols random columns of the solver's dofs, nonzero in every one of
    them and balanced per component; for a decoupled operator each column
    loads one component only, as the paper's families do."""
    ndof = op.interior_matrix().shape[0] if op.mode == "dirichlet" else op.ndof
    B = np.random.default_rng(seed).standard_normal((ndof // op.m, op.m, ncols))
    B -= B.mean(axis=0)
    if op.blocks is not None:
        B *= (np.arange(op.m)[:, None] == np.arange(ncols) % op.m)
    return B.reshape(ndof, ncols)


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
@pytest.mark.parametrize("part", EXACT_PARTS)
def test_zero_columns_are_plus_zero_and_never_reach_the_exact_part(exact_part_calls, part):
    # data [live, 0, live', -0.0]: the zero columns come back +0.0 without
    # a solve, and the live ones as the solve of the live columns alone
    op = EXACT_PARTS[part]()
    live = _live_columns(op, 2, seed=len(part))
    B = np.zeros((live.shape[0], 4))
    B[:, [0, 2]] = live
    B[:, 3] = -0.0
    X = op.factorization().solve(B)
    assert exact_part_calls and all(zero == 0 for _, zero in exact_part_calls)
    for k in (1, 3):
        assert not X[:, k].any() and not np.signbit(X[:, k]).any()
    assert np.array_equal(X[:, [0, 2]], op.factorization().solve(live))
    # the rule holds for 1-D data too
    for b in (np.zeros(live.shape[0]), np.full(live.shape[0], -0.0)):
        x = op.factorization().solve(b)
        assert x.shape == b.shape and not x.any() and not np.signbit(x).any()
    assert all(zero == 0 for _, zero in exact_part_calls)


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
@pytest.mark.parametrize("part", EXACT_PARTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_are_refused_before_any_solve(exact_part_calls, part, bad):
    op = EXACT_PARTS[part]()
    solver = op.factorization()
    B = _live_columns(op, 3, seed=1)
    B[5, 1] = bad
    with pytest.raises(mesh.SolveError, match="refused non-finite data in 1 of 3 columns"):
        solver.solve(B)
    # a decoupled operator counts the caller's columns, not its blocks'
    with pytest.raises(mesh.SolveError, match="refused non-finite data in 1 of 1 columns"):
        solver.solve(B[:, 1])
    assert exact_part_calls == []


def test_non_finite_neumann_data_are_refused(monkeypatch, identity_field):
    # the Laplacian's transform is exact: NaN data used to run every
    # conjugate-gradient step and then report a missed residual check
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(identity_field, dm, mode="neumann")
    steps = []
    monkeypatch.setattr(mesh.Solver, "_cg", lambda self, *args: steps.append(args))
    source = np.cos(np.pi * dm.nodes[:, :1])
    source[3] = np.nan
    with pytest.raises(mesh.SolveError, match="incompatible Neumann data"):
        mesh.solve_neumann(op, source)
    with pytest.raises(mesh.SolveError, match="non-finite data"):
        op.factorization().solve(mesh.volume_load(dm, source))
    assert steps == []


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
@pytest.mark.parametrize("part", EXACT_PARTS)
def test_data_of_no_columns_solve_to_no_columns(exact_part_calls, part):
    op = EXACT_PARTS[part]()
    ndof = _live_columns(op, 1, seed=0).shape[0]
    X = op.factorization().solve(np.zeros((ndof, 0)))
    assert X.shape == (ndof, 0) and X.dtype == float
    assert exact_part_calls == []


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
def test_decoupled_neumann_correctors_solve_one_column_at_a_time(monkeypatch):
    # every Psi column loads one component of the decoupled layered m = 2
    # field, so its block's Solver gets one live column per solve
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(coeff.rescale(coeff.builtin("layered", m=2), 1 / 4), dm, mode="neumann")
    assert op.blocks is not None and len(op.blocks) == 1
    hatA = cell.solve(coeff.builtin("layered", m=2), 16).hatA
    widths, cg_widths = [], []
    solve, cg = mesh.Solver._solve, mesh.Solver._cg

    def recording_solve(self, B):
        widths.append(B.shape[1])
        return solve(self, B)

    def recording_cg(self, x, *args):
        cg_widths.append(x.shape[1])
        return cg(self, x, *args)

    monkeypatch.setattr(mesh.Solver, "_solve", recording_solve)
    monkeypatch.setattr(mesh.Solver, "_cg", recording_cg)
    correctors.neumann_correctors(op, hatA)
    assert widths == [1] * 4
    assert cg_widths and set(cg_widths) == {1}
