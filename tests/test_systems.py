"""Multi-component (m = 2) paths, checked against decoupled-scalar oracles
and exact constant-system identities."""

import numpy as np
import pytest

from homoglab import cell, coeff, correctors, mesh


@pytest.fixture(scope="module")
def two_copy_field(layered_field):
    # two decoupled copies of the layered scalar medium

    def ev(pts):
        base = layered_field(pts)
        out = np.zeros((len(pts), 2, 2, 2, 2))
        out[:, :, :, 0, 0] = base[:, :, :, 0, 0]
        out[:, :, :, 1, 1] = base[:, :, :, 0, 0]
        return out

    return coeff.CoefficientField(ev, m=2, symmetric=True, family="user",
                                  params={"id": "two-copy-layered"})


def test_validate_two_component(two_copy_field):
    rep = coeff.validate(two_copy_field, samples=16)
    assert rep.rayleigh_min >= 1.0 - 1e-9
    assert rep.rayleigh_max <= 3.0 + 1e-9


def test_cell_solution_decouples(two_copy_field, layered_field):
    cs2 = cell.solve(two_copy_field, 32)
    cs1 = cell.solve(layered_field, 32)
    # each component block reproduces the scalar corrector, no cross terms
    assert np.abs(cs2.chi[0, 0, :, 0] - cs1.chi[0, 0, :, 0]).max() < 1e-12
    assert np.abs(cs2.chi[0, 0, :, 1]).max() == 0.0
    assert np.abs(cs2.chi[0, 1, :, 0]).max() == 0.0
    assert cs2.hatA[0, 0, 0, 0] == cs1.hatA[0, 0, 0, 0]
    assert cs2.hatA[1, 1, 1, 1] == cs1.hatA[1, 1, 0, 0]
    assert np.abs(cs2.hatA[:, :, 0, 1]).max() == 0.0
    assert np.abs(cs2.b_nodal[:, :, 0, 1]).max() == 0.0
    assert np.abs(cs2.F + cs2.F.transpose(1, 0, 2, 3, 4, 5)).max() == 0.0


def test_dirichlet_solve_decouples(two_copy_field, layered_field):
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(coeff.rescale(two_copy_field, 1 / 2), dm, mode="dirichlet")
    bdata = np.stack([dm.nodes[dm.boundary_nodes, 0],
                      dm.nodes[dm.boundary_nodes, 1]], axis=1)
    u = mesh.solve_dirichlet(op, None, bdata=bdata)
    op1 = mesh.assemble(coeff.rescale(layered_field, 1 / 2), dm, mode="dirichlet")
    u1 = mesh.solve_dirichlet(op1, None, bdata=dm.nodes[dm.boundary_nodes, 0][:, None])
    u2 = mesh.solve_dirichlet(op1, None, bdata=dm.nodes[dm.boundary_nodes, 1][:, None])
    assert np.abs(u[:, 0] - u1[:, 0]).max() < 1e-12
    assert np.abs(u[:, 1] - u2[:, 0]).max() < 1e-12


def test_neumann_solve_component_pin(two_copy_field):
    dm = mesh.DomainMesh(16)
    op = mesh.assemble(coeff.rescale(two_copy_field, 1 / 2), dm, mode="neumann")
    node = int(np.argmin(np.sum((dm.nodes - (0.5, 0.5)) ** 2, axis=1)))
    load = mesh.point_load(dm, node, beta=1, m=2)
    g = np.zeros((dm.n_boundary, 2))
    g[:, 1] = -0.25
    u = mesh.solve_neumann(op, load, flux=g)
    assert np.abs(u[:, 0]).max() == 0.0   # components never mix
    pin = (u[dm.boundary_nodes, 1] * dm.arc_weights).sum()
    assert abs(pin) < 1e-10


def test_coupled_constant_system_correctors():
    # a genuinely coupled constant system: correctors still equal the
    # monomials exactly (affine data, zero source)
    A = np.zeros((2, 2, 2, 2))
    A[0, 0] = [[2.0, 0.3], [0.3, 1.5]]
    A[1, 1] = [[1.8, 0.2], [0.2, 2.2]]
    A[0, 1] = A[1, 0] = [[0.2, 0.1], [0.1, 0.2]]
    field = coeff.builtin("constant", value=A, m=2)
    assert field.symmetric
    cs = cell.solve(field, 16)
    assert np.abs(cs.chi).max() < 1e-14   # roundoff only: the load cancels
    assert np.abs(cs.hatA - A).max() < 1e-13
    dm = mesh.DomainMesh(8)
    sc = coeff.rescale(field, 1 / 2)
    phi, _ = correctors.dirichlet_correctors(mesh.assemble(sc, dm))
    psi = correctors.neumann_correctors(mesh.assemble(sc, dm, mode="neumann"), cs.hatA)
    P = mesh.monomial_table(dm, 2)
    assert np.abs(phi - P).max() < 1e-11
    assert np.abs(psi - P).max() < 1e-11


# ---------------------------------------------------------------------------
# decoupled operators: solved block by block through m = 1 operators


def _record_solvers(monkeypatch):
    """The list that gets (mode, m, coefficient family, exact part) of every
    Solver built from now on."""
    built = []
    init = mesh.Solver.__init__

    def recording(self, op, tensor, cells):
        part = "transform" if tensor is not None else "template" if cells else "LU"
        built.append((op.mode, op.m, op.coeff.family, part))
        init(self, op, tensor, cells)

    monkeypatch.setattr(mesh.Solver, "__init__", recording)
    return built


def _two_media(first, second):
    """The decoupled m = 2 field with the m = 1 media first and second on
    its diagonal blocks."""
    def ev(pts):
        out = np.zeros((len(pts), 2, 2, 2, 2))
        out[..., 0, 0] = first(pts)[..., 0, 0]
        out[..., 1, 1] = second(pts)[..., 0, 0]
        return out

    return coeff.CoefficientField(ev, m=2, symmetric=first.symmetric and second.symmetric)


def _constant_blocks(media):
    """A constant decoupled m = 2 tensor with mixed terms, whose blocks are
    equal or distinct."""
    value = np.zeros((2, 2, 2, 2))
    value[..., 0, 0] = [[2.0, 0.3], [0.3, 1.0]]
    value[..., 1, 1] = value[..., 0, 0] if media == "equal" else [[1.0, -0.2], [-0.2, 3.0]]
    return coeff.builtin("constant", value=value, m=2)


def _variable_blocks(media, eps):
    field = (coeff.builtin("layered", m=2) if media == "equal" else
             _two_media(coeff.builtin("layered"), coeff.builtin("trigonometric")))
    return field if eps is None else coeff.rescale(field, eps)


# operator kind -> (field of equal or distinct media, grid, mode, exact part)
_BLOCK_CASES = {
    "dir_eps": (lambda media: _variable_blocks(media, 1 / 4), mesh.DomainMesh, "dirichlet",
                "template"),
    "dir_0": (_constant_blocks, mesh.DomainMesh, "dirichlet", "transform"),
    "neu_eps": (lambda media: _variable_blocks(media, 1 / 4), mesh.DomainMesh, "neumann",
                "transform"),
    "neu_0": (_constant_blocks, mesh.DomainMesh, "neumann", "transform"),
    "torus": (lambda media: _variable_blocks(media, None), mesh.TorusGrid, "periodic", "LU"),
}


@pytest.mark.parametrize("media", ["equal", "distinct"])
@pytest.mark.parametrize("kind", list(_BLOCK_CASES))
def test_decoupled_operator_is_solved_block_by_block(monkeypatch, kind, media):
    # each distinct block gets one m = 1 Solver by the m = 1 rules, and each
    # component of the solve is the m = 1 solve of its block's field: bit
    # for bit with the block's components side by side as the columns
    make, grid_of, mode, part = _BLOCK_CASES[kind]
    field, grid = make(media), grid_of(32)
    op = mesh.assemble(field, grid, mode=mode)
    built = _record_solvers(monkeypatch)
    solver = op.factorization()
    groups = [[0, 1]] if media == "equal" else [[0], [1]]
    family = "constant" if field.family == "constant" else "user"
    assert built == [(mode, 1, family, part)] * len(groups)
    assert [list(comps) for comps, _ in op.blocks] == groups
    nn = grid.nnodes if mode != "dirichlet" else (grid.n - 1) ** 2
    B = np.random.default_rng(7).standard_normal((nn * 2, 3))
    X = solver.solve(B)
    Bn, Xn = B.reshape(nn, 2, 3), X.reshape(nn, 2, 3)
    for comps in groups:
        ref = mesh.assemble(coeff.component_field(field, comps[0]), grid, mode=mode).factorization()
        assert np.array_equal(Xn[:, comps].reshape(nn, -1), ref.solve(Bn[:, comps].reshape(nn, -1)))
        for a in comps:
            expect = ref.solve(Bn[:, a])
            assert np.abs(Xn[:, a] - expect).max() <= 1e-10 * np.abs(expect).max()
    # a 1-D right-hand side is one column
    x = solver.solve(B[:, 0])
    assert x.shape == (nn * 2,)
    assert np.abs(x - X[:, 0]).max() <= 1e-10 * np.abs(X[:, 0]).max()


def test_coupled_and_scalar_operators_keep_their_path():
    dm = mesh.DomainMesh(16)
    coupled = np.zeros((2, 2, 2, 2))
    coupled[0, 0] = [[2.0, 0.3], [0.3, 1.5]]
    coupled[1, 1] = [[1.8, 0.2], [0.2, 2.2]]
    for field in (coeff.builtin("constant", value=coupled, m=2), coeff.builtin("layered"),
                  coeff.builtin("constant", value=2.0)):
        op = mesh.assemble(field, dm)
        assert op.blocks is None and isinstance(op.factorization(), mesh.Solver)


def test_blocks_are_carried_to_the_other_mode_and_the_adjoint():
    # decided once at assembly: the Neumann operator of the same matrix and
    # the adjoint take the blocks over, assembling nothing again
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(coeff.rescale(coeff.builtin("layered", m=2), 1 / 4), dm)
    neumann = op.in_mode("neumann")
    assert neumann.mode == "neumann" and neumann.matrix is op.matrix
    [(comps, block)] = op.blocks
    [(neumann_comps, neumann_block)] = neumann.blocks
    assert neumann_comps == comps == (0, 1)
    assert neumann_block.mode == "neumann" and neumann_block.matrix is block.matrix

    layered = coeff.builtin("layered")
    skew = np.array([[0.0, 0.5], [-0.5, 0.0]])[:, :, None, None]
    skewed = coeff.CoefficientField(lambda pts: layered(pts) + skew, symmetric=False)
    op = mesh.assemble(coeff.rescale(_two_media(skewed, skewed), 1 / 4), dm)
    [(comps, block)] = op.blocks
    star = op.adjoint()
    assert star is not op
    [(star_comps, star_block)] = star.blocks
    assert star_comps == comps == (0, 1)
    assert abs(star_block.matrix - block.matrix.T).max() == 0.0


@pytest.mark.filterwarnings("ignore:under-resolved oscillation")
def test_a_block_that_misses_its_residual_check_is_named(monkeypatch):
    # the second block's template is broken: its columns fail their own
    # check, and the error names the block
    init = mesh._CellTemplate.__init__

    def breaking(self, op, c):
        init(self, op, c)
        if op.coeff.params["component"] == 1:
            self._levels[0].inv[...] = 0.0

    monkeypatch.setattr(mesh._CellTemplate, "__init__", breaking)
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(_variable_blocks("distinct", 1 / 4), dm)
    with pytest.raises(mesh.SolveError, match=r"block of components \[1\]: dirichlet solve by "
                                              r"the cell template .* failed its residual check"):
        mesh.solve_dirichlet(op, np.ones((dm.nnodes, 2)))


@pytest.mark.parametrize("m", [1, 2])
def test_cell_of_a_constant_is_solved_by_transform(monkeypatch, m):
    # the component of a constant system is the constant block of its
    # tensor, so its cell takes the transform as the m = 1 constant does
    built = _record_solvers(monkeypatch)
    cs = cell.solve(coeff.builtin("constant", value=np.diag([2.0, 1.0]), m=m), 16)
    assert built == [("periodic", 1, "constant", "transform")] * 2     # cell and flux corrector
    assert np.abs(cs.chi).max() < 1e-14


def test_equal_columns_of_a_shared_block_are_solved_once(monkeypatch):
    # the sweeps' Neumann source is the same in every component: a block
    # that both components share solves it once, so no conjugate-gradient
    # call sees two equal columns, and each component is the block's own
    # solve bit for bit; a column whose components differ is solved per
    # component, beside it
    dm = mesh.DomainMesh(32)
    op = mesh.assemble(coeff.rescale(coeff.builtin("layered", m=2), 1 / 4), dm, mode="neumann")
    [(_, block)] = op.blocks
    widths = []
    cg = mesh.Solver._cg
    monkeypatch.setattr(mesh.Solver, "_cg", lambda self, x, *rest: widths.append(x.shape[1]) or cg(self, x, *rest))
    f = np.tile(np.cos(np.pi * dm.nodes[:, :1]), (1, 2))
    u = mesh.solve_neumann(op, f)
    assert widths == [1]
    expect = mesh.solve_neumann(block, f[:, :1])
    assert np.array_equal(u[:, :1], expect) and np.array_equal(u[:, 1:], expect)

    rng = np.random.default_rng(3)
    B = rng.standard_normal((dm.nnodes, 2, 3))
    B -= B.mean(axis=0)                                      # compatible data
    B[:, 1, 0] = B[:, 0, 0]
    B[:, :, 2] = 0.0
    widths.clear()
    X = op.factorization().solve(B.reshape(-1, 3)).reshape(dm.nnodes, 2, 3)
    assert sorted(widths) == [1, 2]
    ref = block.factorization()
    assert np.array_equal(X[:, 0, 0], ref.solve(B[:, 0, 0])) and np.array_equal(X[:, 1, 0], X[:, 0, 0])
    for a in range(2):
        expect = ref.solve(B[:, a, 1])
        assert np.abs(X[:, a, 1] - expect).max() <= 1e-10 * np.abs(expect).max()
    assert not X[:, :, 2].any()
