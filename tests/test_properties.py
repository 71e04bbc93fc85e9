"""Property tests of the discrete invariants of the Dirichlet, Neumann and
periodic solves and of the cell flux corrector over the trigonometric,
smoothed-checkerboard and user coefficient families.

Each property holds exactly for the discrete system, so the tolerances are
roundoff-sized.  Meshes have n <= 16 and the examples are derandomized and
few, so the suite is deterministic and fast.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from homoglab import cell, coeff, kernels, mesh

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)
MESH_N = st.sampled_from([8, 16])
NONSYMMETRIC = coeff.builtin("constant", value=np.array([[1.0, 0.5], [-0.5, 1.0]]))


def _family_field(draw, max_m):
    family = draw(st.sampled_from(["trigonometric", "smoothed-checkerboard", "user"]))
    m = 1 if family == "user" else draw(st.integers(1, max_m))
    if family == "trigonometric":
        return coeff.builtin(family, m=m, base=draw(st.floats(1.5, 3.0)),
                             amp=draw(st.floats(-1.0, 1.0)))
    if family == "smoothed-checkerboard":
        return coeff.builtin(family, m=m, contrast=draw(st.floats(0.1, 10.0)),
                             width=draw(st.floats(1 / 32, 1 / 4)))
    amp, k = draw(st.floats(-0.9, 0.9)), draw(st.integers(1, 3))
    return coeff.builtin("user", expr=f"2 + {amp!r} * sin({k} * 2 * pi * y1) * cos(2 * pi * y2)")


@st.composite
def symmetric_fields(draw, max_m=2):
    """A family field with period eps in {1, 1/2, 1/4} on the unit square."""
    return coeff.rescale(_family_field(draw, max_m), draw(st.sampled_from([1.0, 0.5, 0.25])))


@st.composite
def cell_fields(draw):
    """A family field on the unit cell, the torus of the cell problem."""
    return _family_field(draw, max_m=2)


@st.composite
def any_fields(draw):
    """A symmetric family field, the same plus a skew part b cos(2 pi y2) J,
    or the nonsymmetric constant tensor.  A constant skew part drops out of
    the interior stiffness block, so the skew part varies."""
    kind = draw(st.sampled_from(["symmetric", "skewed", "constant"]))
    if kind == "constant":
        return NONSYMMETRIC
    base = _family_field(draw, max_m=2)
    if kind == "skewed":
        b = draw(st.floats(0.1, 1.0))
        J = np.einsum("ij,ab->ijab", [[0.0, b], [-b, 0.0]], np.eye(base.m))

        def skewed(pts, f=base):
            return f(pts) + np.cos(2 * np.pi * pts[:, 1])[:, None, None, None, None] * J

        base = coeff.CoefficientField(skewed, m=base.m, params={"skew": b})
    return coeff.rescale(base, draw(st.sampled_from([1.0, 0.5, 0.25])))


def _interior_node(data, n):
    ix, iy = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
    return iy * (n + 1) + ix


@PROPERTY
@given(field=symmetric_fields(), n=MESH_N, data=st.data())
def test_neumann_boundary_mean_pin_and_flux_balance(field, n, data):
    dm = mesh.DomainMesh(n)
    node = _interior_node(data, n)
    beta = data.draw(st.integers(0, field.m - 1))
    op = mesh.assemble(field, dm, mode="neumann")
    u = kernels.neumann_fn(op, node, beta=beta)
    w = dm.arc_weights[:, None]
    scale = np.abs(u).max()
    # the boundary mean of every component is pinned to zero
    assert np.abs((w * u[dm.boundary_nodes]).sum(axis=0)).max() <= 1e-10 * scale
    # the recovered conormal flux is the prescribed -1/|boundary| in component
    # beta, so it balances the unit source: its boundary integral is -e_beta
    e_beta = np.eye(field.m)[beta]
    flux = mesh.conormal(u, op, source=mesh.point_load(dm, node, beta=beta, m=field.m))
    assert np.abs(flux + 0.25 * e_beta).max() <= 1e-9
    assert np.abs((w * flux).sum(axis=0) + e_beta).max() <= 1e-9


@PROPERTY
@given(field=symmetric_fields(), n=MESH_N, seed=st.integers(0, 2 ** 16))
def test_periodic_volume_mean_is_zero(field, n, seed):
    grid = mesh.TorusGrid(n)
    op = mesh.assemble(field, grid)
    source = np.random.default_rng(seed).standard_normal((grid.nnodes, field.m))
    u = mesh.solve_periodic(op, source)
    means = grid.h ** 2 * u.sum(axis=0)
    assert np.abs(means).max() <= 1e-12 * np.abs(u).max()


@PROPERTY
@given(field=any_fields(), n=MESH_N, data=st.data())
def test_green_reciprocity(field, n, data):
    # G(x, y)^{ab} = G*(y, x)^{ba}, with G* the Green function of the adjoint
    dm = mesh.DomainMesh(n)
    x, y = _interior_node(data, n), _interior_node(data, n)
    alpha, beta = data.draw(st.integers(0, field.m - 1)), data.draw(st.integers(0, field.m - 1))
    G = kernels.green(mesh.assemble(field, dm), y, beta=beta)[x, alpha]
    G_star = kernels.green(mesh.assemble(field.adjoint(), dm), x, beta=alpha)[y, beta]
    assert abs(G - G_star) <= 1e-10 * max(1.0, abs(G))


@PROPERTY
@given(field=any_fields(), n=MESH_N)
def test_dtn_kills_constants_and_is_symmetric_for_symmetric_fields(field, n):
    dm = mesh.DomainMesh(n)
    op = mesh.assemble(field, dm)
    D = kernels.dtn(op)
    scale = np.abs(D.mat).max()
    for a in range(field.m):
        # DtN . 1 = 0 for the constant data e_a, with or without symmetry
        assert np.abs(D.mat[:, a::field.m].sum(axis=1)).max() <= 1e-10 * scale
    if op.symmetric:
        assert np.abs(D.mat - D.mat.T).max() <= 1e-10 * scale


@PROPERTY
@given(field=any_fields(), n=MESH_N)
def test_adjoint_is_the_operator_exactly_when_its_table_is_symmetric(field, n):
    # op.adjoint() is op when the symmetry rule passes the values the
    # operator is assembled from, and otherwise the exact transpose
    dm = mesh.DomainMesh(n)
    op = mesh.assemble(field, dm)
    table = field(dm.period_gauss_points(op.cells))
    assert op.symmetric == coeff.symmetric_table(table)
    star = op.adjoint()
    assert (star is op) == op.symmetric
    if not op.symmetric:
        assert abs(star.matrix - op.matrix.T).max() == 0.0


@PROPERTY
@given(field=cell_fields(), n=MESH_N)
def test_flux_corrector_is_exactly_antisymmetric(field, n):
    F = cell.solve(field, n).F
    assert not (F + F.transpose(1, 0, 2, 3, 4, 5)).any()


@PROPERTY
@given(field=any_fields(), n=MESH_N, data=st.data())
def test_zero_data_columns_solve_to_exact_zeros(field, n, data):
    # zeroing some columns of the data leaves the others as they solve
    # alone, bit for bit, and gives +0.0 on the zeroed ones
    symmetric = mesh.assemble(field, mesh.DomainMesh(n)).symmetric
    mode = data.draw(st.sampled_from(["dirichlet", "periodic"]
                                     + (["neumann"] if symmetric else [])))
    grid = mesh.TorusGrid(n) if mode == "periodic" else mesh.DomainMesh(n)
    op = mesh.assemble(field, grid, mode=mode)
    ndof = op.interior_matrix().shape[0] if mode == "dirichlet" else op.ndof
    ncols = data.draw(st.integers(2, 5))
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols)))
    B = np.random.default_rng(data.draw(st.integers(0, 2 ** 16))).standard_normal((ndof, ncols))
    full = op.factorization().solve(B)
    B[:, zero] = data.draw(st.sampled_from([0.0, -0.0]))
    X = op.factorization().solve(B)
    assert not X[:, zero].any() and not np.signbit(X[:, zero]).any()
    if not zero.all():
        assert np.array_equal(X[:, ~zero], op.factorization().solve(B.compress(~zero, axis=1)))
        # a batch of other columns changes a live one by roundoff only
        assert np.abs(X[:, ~zero] - full[:, ~zero]).max() <= 1e-10 * np.abs(full).max()
