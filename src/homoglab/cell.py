"""Periodic cell problem, homogenized tensor, discrepancy tensor and the
antisymmetric flux corrector.

All objects live on a TorusGrid.  Index layout:

    chi[j, beta]        -> (nnodes, m) nodal corrector column (comp alpha)
    hatA[i, j, a, b]    -> homogenized tensor
    b[i, j, a, b]       -> discrepancy tensor (nodal table + Gauss values)
    f[i, j, a, b]       -> mean-zero potentials with Laplace(f) = b
    F[k, i, j, a, b]    -> flux corrector, exactly antisymmetric in (k, i)

Integral quantities (hatA, the mean of b, weak divergences) are evaluated
with the same 2x2 Gauss rule used by the assembly, so the identities they
satisfy hold to solver accuracy; the nodal tables use volume-averaged
gradient recovery and carry the usual O(h^2) pointwise error.

``solve`` evaluates the coefficient once, into one table at the Gauss
points and one at the nodes of the cell grid, and everything else reads
those tables: the periodic operator is built from the Gauss table
(mesh._torus_operator, assemble's operator bit for bit), and the stages
(solve_cell, homogenize, discrepancy) take that operator and the tables
rather than the coefficient.  Every linear solve goes through mesh: the cell problems
through solve_periodic on that operator, the flux corrector's d^2 m^2
columns through one batched solve of the assembled torus Laplacian, whose
solver mesh picks and checks.

A component-decoupled system (a^{ab} = 0 exactly for a != b at every Gauss
point and node of the cell grid) is solved by ``solve`` block by block
through the m = 1 path, so each diagonal block is bitwise equal to the
scalar result for that block's coefficient (coeff.component_field, a
constant for a constant) and every cross-component entry is exactly zero.
The m = 1 path is a function of a block's two tables alone, so a block
whose tables are equal to an earlier block's takes that block's results
and is not solved again.  Which blocks are decoupled and equal is
coeff.diagonal_blocks, the rule that mesh applies to an assembled
operator's block table too.  Coupled systems use one interleaved
m-component solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as fem
from .coeff import builtin, component_field, diagonal_blocks
from .mesh import (TorusGrid, assemble, coefficient_gauss_values, solve_periodic,
                   nodal_gradient, element_gauss_gradients, volume_load_from_gauss,
                   divergence_load_from_gauss, GAUSS_WEIGHTS)

__all__ = ["CellError", "CellSolution", "solve_cell", "homogenize",
           "discrepancy", "flux_corrector", "solve", "discrepancy_divergence_residual",
           "flux_divergence_residual"]


class CellError(RuntimeError):
    pass


@dataclass
class CellSolution:
    """Correctors, homogenized tensor and flux corrector on the torus grid."""

    grid: TorusGrid
    coeff: object
    chi: np.ndarray          # (d, m, nnodes, m)
    hatA: np.ndarray         # (d, d, m, m)
    b_nodal: np.ndarray      # (d, d, m, m, nnodes)
    b_gauss: np.ndarray      # (d, d, m, m, nelem, 4)
    b_mean: np.ndarray       # (d, d, m, m)
    f: np.ndarray            # (d, d, m, m, nnodes)
    F: np.ndarray            # (d, d, d, m, m, nnodes), F[k,i,j] = -F[i,k,j]
    chi_grad: np.ndarray     # (d, m, nnodes, 2, m) recovered nodal gradients

    @property
    def d(self):
        return self.chi.shape[0]

    @property
    def m(self):
        return self.chi.shape[1]

    def hatA_matrix(self):
        """hatA as a (d*m, d*m) matrix for Rayleigh/eigen diagnostics."""
        d, m = self.hatA.shape[0], self.hatA.shape[2]
        return self.hatA.transpose(0, 2, 1, 3).reshape(d * m, d * m)

    def chi_means(self):
        h2 = self.grid.h ** 2
        return h2 * self.chi.sum(axis=2)

    def stats(self):
        return {
            "hatA": self.hatA.tolist(),
            "chi_mean_max": float(np.abs(self.chi_means()).max()),
            "chi_max": float(np.abs(self.chi).max()),
            "b_mean_max": float(np.abs(self.b_mean).max()),
            "b_max": float(np.abs(self.b_nodal).max()),
            "F_max": float(np.abs(self.F).max()),
            "F_antisymmetry": float(np.abs(self.F + self.F.transpose(1, 0, 2, 3, 4, 5)).max()),
        }


def solve_cell(op, A_quad):
    """Solve the d*m periodic cell problems against the periodic operator op.

    Each column chi[j, beta] is the mean-zero periodic weak solution with
    right-hand side -div-form data a_ij^{ab} (the response to linear data
    x_j e_beta); A_quad holds the coefficient at op's Gauss points.
    Returns chi, shaped (d, m, nnodes, m).
    """
    grid, d, m = op.mesh, 2, op.m
    chi = np.zeros((d, m, grid.nnodes, m))
    for j in range(d):
        for beta in range(m):
            fg = A_quad[:, :, :, j, :, beta]           # (nelem, 4, i, alpha)
            chi[j, beta] = solve_periodic(op, -divergence_load_from_gauss(grid, fg))
    return chi


def homogenize(grid, chi, A_quad):
    """hatA_ij^{ab} = integral_Y [a_ij^{ab} + a_ik^{ag} d_k chi_j^{gb}] dy.

    Gradients of chi are taken at the quadrature points inside elements.
    """
    m = chi.shape[1]
    h2w = grid.h ** 2 * GAUSS_WEIGHTS
    hatA = np.einsum("g,egijab->ijab", h2w, A_quad)
    for j in range(2):
        for beta in range(m):
            gchi = element_gauss_gradients(grid, chi[j, beta])   # (nelem, 4, k, gamma)
            hatA[:, j, :, beta] += np.einsum("g,egikac,egkc->ia", h2w, A_quad, gchi)
    return hatA


def discrepancy(grid, chi, hatA, A_quad, A_nodes):
    """b_ij^{ab}(y) = hatA_ij^{ab} - a_ij^{ab}(y) - a_ik^{ag}(y) d_k chi_j^{gb}(y).

    Returns (b_nodal, b_gauss, b_mean, chi_grad).  The nodal table uses
    gradient recovery; the mean is evaluated from the Gauss values, where it
    vanishes by construction, like the weak divergence
    (discrepancy_divergence_residual).
    """
    d, m = chi.shape[0], chi.shape[1]
    b_gauss = np.empty((d, d, m, m, grid.nelem, 4))
    b_nodal = np.empty((d, d, m, m, grid.nnodes))
    chi_grad = np.empty((d, m, grid.nnodes, 2, m))
    for j in range(d):
        for beta in range(m):
            gchi_g = element_gauss_gradients(grid, chi[j, beta])     # (nelem, 4, k, gamma)
            gchi_n = nodal_gradient(grid, chi[j, beta])              # (nnodes, k, gamma)
            chi_grad[j, beta] = gchi_n
            flux_g = np.einsum("egikac,egkc->iaeg", A_quad, gchi_g)
            flux_n = np.einsum("nikac,nkc->ian", A_nodes, gchi_n)
            for i in range(d):
                for alpha in range(m):
                    b_gauss[i, j, alpha, beta] = (hatA[i, j, alpha, beta]
                                                  - A_quad[:, :, i, j, alpha, beta]
                                                  - flux_g[i, alpha])
                    b_nodal[i, j, alpha, beta] = (hatA[i, j, alpha, beta]
                                                  - A_nodes[:, i, j, alpha, beta]
                                                  - flux_n[i, alpha])
    h2w = grid.h ** 2 * GAUSS_WEIGHTS
    b_mean = np.einsum("g,ijabeg->ijab", h2w, b_gauss)
    return b_nodal, b_gauss, b_mean, chi_grad


def flux_corrector(grid, b_gauss):
    """Solve Laplace(f_ij^{ab}) = b_ij^{ab} on the torus, all columns at once,
    and build F_kij^{ab} = d_k f_ij^{ab} - d_i f_kj^{ab}, exactly antisymmetric.

    Rejects data whose quadrature mean exceeds 1e-6 per entry or is not finite.
    """
    shape = b_gauss.shape[:4]
    mean = np.abs(np.einsum("g,ijabeg->ijab", grid.h ** 2 * GAUSS_WEIGHTS, b_gauss)).max()
    if not mean <= 1e-6:
        raise CellError(f"flux corrector needs mean-zero data, got max mean {mean:.3e}")
    cols = b_gauss.reshape(-1, grid.nelem, 4).transpose(1, 2, 0)     # (nelem, 4, ijab)
    laplacian = assemble(builtin("constant", value=1.0), grid)
    f = laplacian.factorization().solve(-volume_load_from_gauss(grid, cols).reshape(grid.nnodes, -1))
    # G[k, i, j, a, b] = d_k f_ij^{ab}
    G = np.moveaxis(nodal_gradient(grid, f).reshape(grid.nnodes, 2, *shape), 0, -1)
    F = G - G.transpose(1, 0, 2, 3, 4, 5)
    return f.T.reshape(*shape, grid.nnodes), F


def discrepancy_divergence_residual(grid, b_gauss):
    """Dual-norm residual of the weak divergence d_i b_ij = 0, tested
    against periodic hats, the largest over the columns (j, beta)."""
    d, m = b_gauss.shape[1], b_gauss.shape[3]
    res = 0.0
    for j in range(d):
        for beta in range(m):
            fg = b_gauss[:, j, :, beta].transpose(2, 3, 0, 1)        # (nelem, 4, i, alpha)
            r = divergence_load_from_gauss(grid, fg)
            res = max(res, float(np.linalg.norm(r) / grid.h))
    return res


def flux_divergence_residual(grid, F, b_gauss):
    """Dual-norm residual of the discrete identity d_k F_kij = b_ij."""
    d = F.shape[0]
    table = F.reshape(d, -1, grid.nnodes).transpose(2, 0, 1)       # (nnodes, k, ijab)
    r = -divergence_load_from_gauss(grid, fem.element_gauss_values(grid, table))
    r -= volume_load_from_gauss(grid, b_gauss.reshape(-1, grid.nelem, 4).transpose(1, 2, 0))
    return float(np.linalg.norm(r.reshape(grid.nnodes, -1), axis=0).max() / grid.h)


# positions of the (alpha, beta) component axes in each CellSolution array
_COMPONENT_AXES = {"chi": (1, 3), "hatA": (2, 3), "b_nodal": (2, 3), "b_gauss": (2, 3),
                   "b_mean": (2, 3), "f": (2, 3), "F": (3, 4), "chi_grad": (1, 4)}


def _pipeline(coeff, grid, A_quad, A_nodes):
    """Correctors, hatA, discrepancy and flux corrector as CellSolution fields.
    They depend on coeff only through its tables A_quad and A_nodes and the
    m, symmetry and period its operator carries."""
    op = fem._torus_operator(coeff, grid, A_quad)
    chi = solve_cell(op, A_quad)
    hatA = homogenize(grid, chi, A_quad)
    b_nodal, b_gauss, b_mean, chi_grad = discrepancy(grid, chi, hatA, A_quad, A_nodes)
    op.release()
    f, F = flux_corrector(grid, b_gauss)
    return dict(chi=chi, hatA=hatA, b_nodal=b_nodal, b_gauss=b_gauss, b_mean=b_mean,
                f=f, F=F, chi_grad=chi_grad)


def _block_diagonal(blocks, m):
    """Place the m = 1 results of each component on the diagonal of m-shaped arrays."""
    out = {}
    for name, (p, q) in _COMPONENT_AXES.items():
        shape = list(blocks[0][name].shape)
        shape[p] = shape[q] = m
        arr = np.zeros(shape)
        for a, block in enumerate(blocks):
            idx = [slice(None)] * arr.ndim
            idx[p] = idx[q] = slice(a, a + 1)
            arr[tuple(idx)] = block[name]
        out[name] = arr
    return out


def solve(coeff, n) -> CellSolution:
    """Full cell pipeline: correctors, hatA, discrepancy, flux corrector.

    The coefficient is evaluated once, at the Gauss points and at the nodes
    of the cell grid, and the whole pipeline reads those two tables.  A
    system with m > 1 whose off-diagonal blocks a^{ab} (a != b) are exactly
    zero in both tables is solved block by block through the m = 1 path:
    each diagonal block of the result is bitwise equal to the scalar result
    for the field a^{aa}, and every cross-component entry is exactly zero.
    A block whose two tables are equal to an earlier block's takes that
    block's results, which its own m = 1 solve would return bit for bit.
    Coupled systems use one interleaved m-component solve.
    """
    if n < 8:
        raise CellError(f"cell grid needs n >= 8, got {n}")
    grid, m = TorusGrid(n), coeff.m
    A_quad = coefficient_gauss_values(coeff, grid)
    A_nodes = np.asarray(coeff(grid.nodes))                # (nnodes, 2, 2, m, m)
    groups = diagonal_blocks(A_quad, A_nodes)
    if groups is None:
        fields = _pipeline(coeff, grid, A_quad, A_nodes)
    else:
        blocks = [None] * m
        for a, components in groups:
            result = _pipeline(component_field(coeff, a), grid,
                               np.ascontiguousarray(A_quad[..., a:a + 1, a:a + 1]),
                               np.ascontiguousarray(A_nodes[..., a:a + 1, a:a + 1]))
            for b in components:
                blocks[b] = result
        fields = _block_diagonal(blocks, m)
    return CellSolution(grid=grid, coeff=coeff, **fields)
