import numpy as np
import pytest

from homoglab import cell, coeff, mesh


SQRT3 = np.sqrt(3.0)


def test_constant_field_trivial(identity_field):
    cs = cell.solve(identity_field, 16)
    assert np.abs(cs.chi).max() == 0.0
    assert np.allclose(cs.hatA[:, :, 0, 0], np.eye(2), atol=1e-14)
    assert np.abs(cs.b_nodal).max() < 1e-13
    assert np.abs(cs.f).max() < 1e-10
    assert np.abs(cs.F).max() < 1e-10


def test_chi_means_zero(layered_cell64):
    assert np.abs(layered_cell64.chi_means()).max() < 1e-10


def test_layered_chi_closed_form(layered_cell64):
    cs = layered_cell64
    # the cross corrector vanishes; d1 chi1 = sqrt(3)/a - 1 (independent
    # 1d quadrature oracle: integral of 1/(2+sin) over a period is 1/sqrt(3))
    t = (np.arange(4096) + 0.5) / 4096
    quad = np.mean(1.0 / (2.0 + np.sin(2 * np.pi * t)))
    assert quad == pytest.approx(1.0 / SQRT3, abs=1e-12)
    assert np.abs(cs.chi[1]).max() < 1e-12
    a = 2.0 + np.sin(2 * np.pi * cs.grid.nodes[:, 0])
    expected = SQRT3 / a - 1.0
    assert np.abs(cs.chi_grad[0, 0, :, 0, 0] - expected).max() < 5e-3


def test_layered_hatA_closed_form(layered_field):
    cs = cell.solve(layered_field, 256)
    hatA = cs.hatA[:, :, 0, 0]
    assert abs(hatA[0, 0] - SQRT3) <= 1e-3
    assert abs(hatA[1, 1] - 2.0) <= 1e-3
    assert abs(hatA[0, 1]) <= 1e-4 and abs(hatA[1, 0]) <= 1e-4


def test_voigt_reuss_bounds():
    # harmonic mean <= hatA <= arithmetic mean for scalar symmetric fields,
    # both means by dense quadrature
    field = coeff.builtin("trigonometric")
    cs = cell.solve(field, 64)
    t = (np.arange(512) + 0.5) / 512
    yy = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    a = field(yy)[:, 0, 0, 0, 0]
    harm = 1.0 / np.mean(1.0 / a)
    arith = np.mean(a)
    eigs = np.linalg.eigvalsh(cs.hatA_matrix())
    assert eigs.min() >= harm - 1e-3
    assert eigs.max() <= arith + 1e-3


def test_discrepancy_layered(layered_cell64):
    cs = layered_cell64
    # off-diagonal entries vanish identically for the isotropic scalar field
    assert np.abs(cs.b_nodal[0, 1]).max() < 1e-6
    assert np.abs(cs.b_nodal[1, 0]).max() < 1e-6
    # b22(y) = 2 - a(y1) = -sin(2 pi y1), exact at the nodes
    expected = -np.sin(2 * np.pi * cs.grid.nodes[:, 0])
    assert np.abs(cs.b_nodal[1, 1, 0, 0] - expected).max() < 1e-12
    # b11 carries the recovered-gradient error, O(h^2)
    assert np.abs(cs.b_nodal[0, 0]).max() < 8e-3


def test_b_mean_zero_by_quadrature(layered_cell64):
    assert np.abs(layered_cell64.b_mean).max() <= 1e-8


def test_b_weak_divergence_small(layered_field):
    grid = mesh.TorusGrid(32)
    A_gauss = mesh.coefficient_gauss_values(layered_field, grid)
    chi = cell.solve_cell(mesh.assemble(layered_field, grid), A_gauss)
    hatA = cell.homogenize(grid, chi, A_gauss)
    _, b_gauss, _, _ = cell.discrepancy(grid, chi, hatA, A_gauss, layered_field(grid.nodes))
    assert cell.discrepancy_divergence_residual(grid, b_gauss) < 1e-9


def test_flux_corrector_fourier_mode(layered_cell64):
    cs = layered_cell64
    y1 = cs.grid.nodes[:, 0]
    # only b22 = -sin(2 pi y1) is nonzero: f22 = sin(2 pi y1)/(4 pi^2),
    # F122 = d1 f22 = cos(2 pi y1)/(2 pi), F222 = 0
    f_exact = np.sin(2 * np.pi * y1) / (4 * np.pi ** 2)
    assert np.abs(cs.f[1, 1, 0, 0] - f_exact).max() < 1e-6
    F_exact = np.cos(2 * np.pi * y1) / (2 * np.pi)
    assert np.abs(cs.F[0, 1, 1, 0, 0] - F_exact).max() < 1e-3
    assert np.abs(cs.F[1, 1, 1, 0, 0]).max() < 1e-12


def test_flux_corrector_antisymmetry_exact(layered_cell64):
    cs = layered_cell64
    assert np.abs(cs.F + cs.F.transpose(1, 0, 2, 3, 4, 5)).max() == 0.0


def test_flux_corrector_rejects_nonzero_mean():
    grid = mesh.TorusGrid(16)
    b_gauss = np.ones((2, 2, 1, 1, grid.nelem, 4))
    with pytest.raises(cell.CellError):
        cell.flux_corrector(grid, b_gauss)


def test_flux_corrector_rejects_nonfinite_data():
    grid = mesh.TorusGrid(16)
    b_gauss = np.zeros((2, 2, 1, 1, grid.nelem, 4))
    b_gauss[0, 1, 0, 0, 5, 2] = np.nan
    with pytest.raises(cell.CellError):
        cell.flux_corrector(grid, b_gauss)


def test_flux_corrector_pins_the_volume_mean():
    # data with a small admissible mean: f solves against the mean-free
    # load and has zero volume mean
    grid = mesh.TorusGrid(16)
    b_gauss = np.zeros((2, 2, 1, 1, grid.nelem, 4))
    b_gauss[0, 0, 0, 0] = np.sin(2 * np.pi * grid.gauss_points()[..., 0]) + 1e-7
    f, _ = cell.flux_corrector(grid, b_gauss)
    assert abs(f.sum()) <= 1e-12 * np.abs(f).sum()


def test_flux_divergence_residual_halves(layered_cell64, layered_cell128):
    r64 = cell.flux_divergence_residual(layered_cell64.grid, layered_cell64.F,
                                        layered_cell64.b_gauss)
    r128 = cell.flux_divergence_residual(layered_cell128.grid, layered_cell128.F,
                                         layered_cell128.b_gauss)
    assert r128 / r64 <= 0.6


def _nonsymmetric_field():
    def scalar_parts(pts):
        y = pts % 1.0
        a11 = 2.0 + 0.5 * np.sin(2 * np.pi * y[:, 0])
        a22 = 1.5 + 0.5 * np.cos(2 * np.pi * y[:, 1])
        a12 = np.full(len(y), 0.3)
        a21 = np.zeros(len(y))
        return a11, a12, a21, a22

    def ev(pts):
        a11, a12, a21, a22 = scalar_parts(pts)
        out = np.zeros((len(pts), 2, 2, 1, 1))
        out[:, 0, 0, 0, 0] = a11
        out[:, 0, 1, 0, 0] = a12
        out[:, 1, 0, 0, 0] = a21
        out[:, 1, 1, 0, 0] = a22
        return out

    return coeff.CoefficientField(ev, family="user", params={"id": "ns"})


def test_adjoint_consistency_of_homogenization():
    field = _nonsymmetric_field()
    cs = cell.solve(field, 128)
    cs_star = cell.solve(field.adjoint(), 128)
    A = cs.hatA[:, :, 0, 0]
    Astar = cs_star.hatA[:, :, 0, 0]
    assert np.abs(Astar - A.T).max() <= 1e-6


def test_hatA_symmetric_for_symmetric_field(layered_cell64):
    A = layered_cell64.hatA[:, :, 0, 0]
    assert np.abs(A - A.T).max() <= 1e-8


def test_hatA_field_symmetry_flag(layered_cell64):
    # the computed hatA is symmetric only to roundoff; its constant field
    # still assembles to a symmetric operator, and a genuinely non-symmetric
    # constant does not
    dm = mesh.DomainMesh(8)
    assert mesh.assemble(coeff.builtin("constant", value=layered_cell64.hatA), dm).symmetric
    skew = coeff.builtin("constant", value=np.array([[1.0, 0.5], [-0.5, 1.0]]))
    assert not mesh.assemble(skew, dm).symmetric


def test_grid_convergence_richardson(layered_field):
    errs = []
    for n in (32, 64, 128):
        cs = cell.solve(layered_field, n)
        errs.append(abs(cs.hatA[0, 0, 0, 0] - SQRT3))
    h = 1.0 / np.array([32, 64, 128])
    slope = np.polyfit(np.log(h), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_rotated_layered_swaps_diagonal():
    cs_x = cell.solve(coeff.builtin("layered", axis=0), 64)
    cs_y = cell.solve(coeff.builtin("layered", axis=1), 64)
    Ax, Ay = cs_x.hatA[:, :, 0, 0], cs_y.hatA[:, :, 0, 0]
    assert abs(Ax[0, 0] - Ay[1, 1]) <= 1e-6
    assert abs(Ax[1, 1] - Ay[0, 0]) <= 1e-6


def test_diagonal_layered_eigenvalues():
    # layers at 45 degrees: hatA has eigenvalues sqrt(3) (across) and 2 (along)
    cs = cell.solve(coeff.builtin("layered", wavevector=(1, 1)), 128)
    eigs = np.linalg.eigvalsh(cs.hatA_matrix())
    assert eigs[0] == pytest.approx(SQRT3, abs=2e-3)
    assert eigs[1] == pytest.approx(2.0, abs=2e-3)


def test_solve_cell_rejects_tiny_grid(layered_field):
    with pytest.raises(cell.CellError):
        cell.solve(layered_field, 4)


def _spy_solve_cell(monkeypatch):
    """Record the component count m of every solve_cell call."""
    seen = []
    inner = cell.solve_cell

    def spy(op, *args, **kwargs):
        seen.append(op.m)
        return inner(op, *args, **kwargs)

    monkeypatch.setattr(cell, "solve_cell", spy)
    return seen


def _two_block_field(first, second, off=None):
    # diagonal blocks from two scalar fields; off(pts) fills a^{01} = a^{10}
    def ev(pts):
        out = np.zeros((len(pts), 2, 2, 2, 2))
        out[:, :, :, 0, 0] = first(pts)[:, :, :, 0, 0]
        out[:, :, :, 1, 1] = second(pts)[:, :, :, 0, 0]
        if off is not None:
            eye = off(pts)[:, None, None] * np.eye(2)
            out[:, :, :, 0, 1] = out[:, :, :, 1, 0] = eye
        return out

    return coeff.CoefficientField(ev, m=2)


def test_decoupled_system_blocks_equal_scalar_runs(monkeypatch):
    # different media in the two components: each block is the scalar run, bitwise
    first, second = coeff.builtin("layered", axis=1), coeff.builtin("trigonometric")
    seen = _spy_solve_cell(monkeypatch)
    cs = cell.solve(_two_block_field(first, second), 16)
    assert seen == [1, 1]
    scalar = [cell.solve(first, 16), cell.solve(second, 16)]
    for name, (p, q) in cell._COMPONENT_AXES.items():
        arr = getattr(cs, name)
        for a in range(2):
            for b in range(2):
                idx = [slice(None)] * arr.ndim
                idx[p], idx[q] = slice(a, a + 1), slice(b, b + 1)
                block = arr[tuple(idx)]
                if a == b:
                    assert np.array_equal(block, getattr(scalar[a], name)), name
                else:
                    assert not block.any(), name


def _on_nodes(n):
    """The mask of the points that lie on the nodes of the n x n cell grid."""
    def mask(pts):
        t = n * np.asarray(pts)
        return np.all(np.abs(t - np.round(t)) < 1e-9, axis=1)

    return mask


def _spy_factor(monkeypatch):
    """Record the component count m of every sparse LU the cell's operators take."""
    seen = []
    factor = mesh.AssembledOperator._factor

    def spy(op, matrix):
        seen.append(op.m)
        return factor(op, matrix)

    monkeypatch.setattr(mesh.AssembledOperator, "_factor", spy)
    return seen


@pytest.mark.parametrize("family", ["layered", "trigonometric"])
def test_equal_blocks_are_solved_once(monkeypatch, family):
    # a^{00} = a^{11}: one m = 1 pipeline, placed on both diagonal blocks
    n = 16
    solves, factors = _spy_solve_cell(monkeypatch), _spy_factor(monkeypatch)
    cs = cell.solve(coeff.builtin(family, m=2), n)
    assert solves == [1] and factors == [1]
    scalar = cell.solve(coeff.builtin(family), n)
    for name, (p, q) in cell._COMPONENT_AXES.items():
        arr = getattr(cs, name)
        for a in range(2):
            for b in range(2):
                idx = [slice(None)] * arr.ndim
                idx[p], idx[q] = slice(a, a + 1), slice(b, b + 1)
                block = arr[tuple(idx)]
                if a == b:
                    assert np.array_equal(block, getattr(scalar, name)), name
                else:
                    assert not block.any(), name


def test_blocks_equal_in_one_table_only_are_solved_apart(monkeypatch, layered_field):
    # the second block differs from the first only at the Gauss points, or
    # only at the nodes the discrepancy table is evaluated on
    n = 16
    on_nodes = _on_nodes(n)
    for where in (lambda pts: ~on_nodes(pts), on_nodes):
        def second(pts, where=where):
            return layered_field(pts) * (1 + 0.1 * where(pts))[:, None, None, None, None]

        seen = _spy_solve_cell(monkeypatch)
        cs = cell.solve(_two_block_field(layered_field, second), n)
        assert seen == [1, 1]
        assert not np.array_equal(cs.b_nodal[..., 0, 0, :], cs.b_nodal[..., 1, 1, :])


_COUPLED = _two_block_field(coeff.builtin("layered"), coeff.builtin("trigonometric"),
                            lambda pts: 0.2 * np.cos(2 * np.pi * pts[:, 1]))


@pytest.mark.parametrize("field, ref", [
    (coeff.builtin("layered"), coeff.builtin("layered")),
    (coeff.builtin("layered", m=2), coeff.builtin("layered")),
    (_COUPLED, _COUPLED),
], ids=["layered", "layered-m2", "coupled-m2"])
def test_cell_operator_is_the_assembled_torus_operator(monkeypatch, field, ref):
    # the operator built from solve's Gauss table is assemble's bit for bit:
    # the field's own at m = 1 and coupled, its component's when decoupled
    n = 16
    ops = []
    inner = cell.solve_cell

    def spy(op, *args):
        ops.append(op)
        return inner(op, *args)

    monkeypatch.setattr(cell, "solve_cell", spy)
    cell.solve(field, n)
    K = mesh.assemble(ref, mesh.TorusGrid(n)).matrix
    [op] = ops
    assert np.array_equal(op.matrix.indptr, K.indptr)
    assert np.array_equal(op.matrix.indices, K.indices)
    assert np.array_equal(op.matrix.data, K.data)


def test_coupled_system_takes_interleaved_path(monkeypatch, layered_field):
    # coupling present only at the Gauss points, or only at the nodes the
    # discrepancy table is evaluated on, still couples the system
    n = 16
    on_nodes = _on_nodes(n)
    for off in (lambda pts: 0.1 * ~on_nodes(pts), lambda pts: 0.1 * on_nodes(pts)):
        seen = _spy_solve_cell(monkeypatch)
        cs = cell.solve(_two_block_field(layered_field, layered_field, off), n)
        assert seen == [2]
        assert cs.chi.shape == (2, 2, n * n, 2)


@pytest.mark.parametrize("field", [
    coeff.builtin("layered"),
    _two_block_field(coeff.builtin("layered"), coeff.builtin("trigonometric"),
                     lambda pts: 0.2 * np.cos(2 * np.pi * pts[:, 1])),
], ids=["layered", "coupled-m2"])
def test_flux_corrector_solves_the_assembled_torus_laplacian(field):
    # the closed-form f against the assembled Q1 Laplacian of the torus:
    # K f = load - mean(load) column by column, with zero volume mean
    n = 32
    grid = mesh.TorusGrid(n)
    cs = cell.solve(field, n)
    K = mesh.assemble(coeff.builtin("constant", value=np.eye(2)), grid).matrix
    for idx in np.ndindex(cs.f.shape[:4]):
        load = -mesh.volume_load_from_gauss(grid, cs.b_gauss[idx][:, :, None])
        load -= load.mean()
        f = cs.f[idx]
        assert np.linalg.norm(K @ f - load) <= 1e-12 * np.linalg.norm(load)
        assert abs(f.sum()) <= 1e-12 * np.abs(f).sum()


def test_decoupled_cell_evaluates_each_point_once(monkeypatch):
    # no coefficient call runs inside another, and the points counted are
    # the points evaluated: the system at the 4 n^2 Gauss points and the
    # n^2 nodes, which the torus operator reads too, and the flux
    # corrector's constant Laplacian on one element per distinct block
    calls, depth = [], [0]
    call = coeff.CoefficientField.__call__

    def counting(self, pts):
        calls.append((np.asarray(pts).size // 2, depth[0]))
        depth[0] += 1
        try:
            return call(self, pts)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(coeff.CoefficientField, "__call__", counting)
    n, m = 16, 2
    cell.solve(coeff.builtin("layered", m=m), n)
    assert [d for _, d in calls] == [0] * len(calls)
    assert sum(p for p, _ in calls) == 5 * n * n + 4
