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
