"""Dirichlet correctors Phi, adjoint correctors Phi*, and Neumann
correctors Psi on the unit square.

Each corrector matrix is stored as an array (d, m, nnodes, m) indexed
[j, beta, node, alpha]: column (j, beta) is the solution that agrees with
the linear data x_j e_beta on the boundary (Dirichlet) or matches its
homogenized conormal flux (Neumann, pinned at an interior node x0).

The solvers take the assembled operator of the scaled coefficient (a
Dirichlet one for Phi, a Neumann one for Psi); the caller owns it and
releases its factorization.  Only the adjoint operator of a non-symmetric
coefficient is assembled and released here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (DomainMesh, assemble, solve_dirichlet, solve_neumann,
                   boundary_flux_load, nodal_gradient, interp_torus, monomial_table)

__all__ = ["CorrectorError", "CorrectorSet", "dirichlet_correctors",
           "neumann_correctors", "build", "corrector_report"]


class CorrectorError(RuntimeError):
    pass


@dataclass
class CorrectorSet:
    """Boundary correctors for one (coefficient, epsilon, mesh) triple."""

    mesh: DomainMesh
    epsilon: float
    phi: np.ndarray | None     # (d, m, nnodes, m); None in a Neumann-only set
    phi_star: np.ndarray | None
    psi: np.ndarray | None
    x0: int | None             # pin node index for Psi

    @property
    def d(self):
        return (self.psi if self.phi is None else self.phi).shape[0]

    @property
    def m(self):
        return (self.psi if self.phi is None else self.phi).shape[1]

    def monomials(self):
        """P_j^beta nodal tables with the same layout as the correctors."""
        return monomial_table(self.mesh, self.m)


def _monomial_solves(op):
    """Dirichlet solves whose boundary data is each linear monomial x_j e_beta."""
    mesh = op.mesh
    P = monomial_table(mesh, op.m)
    out = np.zeros_like(P)
    for j in range(mesh.d):
        for beta in range(op.m):
            out[j, beta] = solve_dirichlet(op, None, bdata=P[j, beta][mesh.boundary_nodes])
    return out


def dirichlet_correctors(op):
    """Solve the d*m Dirichlet corrector columns against the Dirichlet
    operator op, and the adjoint family.

    For symmetric coefficients the adjoint family coincides with phi and is
    not re-solved; otherwise the adjoint of op.coeff is assembled here and
    released after its solves.
    """
    phi = _monomial_solves(op)
    if op.coeff.symmetric:
        return phi, phi.copy()
    adjoint_op = assemble(op.coeff.adjoint(), op.mesh)
    try:
        return phi, _monomial_solves(adjoint_op)
    finally:
        adjoint_op.release()


def neumann_correctors(op, hatA, x0=None):
    """Solve the Neumann corrector columns against the Neumann operator op
    and pin them at x0.

    Each column solves the zero-source Neumann problem whose boundary flux
    is the homogenized conormal n_i hatA_ij^{.beta} of the linear data;
    after the mean-pinned solve the column is shifted so that
    psi(x0) = x0_j e_beta exactly; solve_neumann checks that the flux is
    balanced, as for any Neumann data.  Requires a symmetric coefficient.
    """
    if not op.coeff.symmetric:
        raise CorrectorError("Neumann correctors require a symmetric coefficient (A* = A)")
    mesh, d, m = op.mesh, 2, op.m
    if x0 is None:
        x0 = mesh.nearest_node((0.5, 0.5))
    if mesh.boundary_mask[x0]:
        raise CorrectorError("pin node x0 must be interior")
    hatA = np.asarray(hatA, dtype=float).reshape(2, 2, m, m)
    psi = np.zeros((d, m, mesh.nnodes, m))
    for j in range(d):
        for beta in range(m):
            flux_col = hatA[:, j, :, beta]                       # (i, alpha)

            def g(pts, normal, col=flux_col):
                vals = np.einsum("i,ia->a", normal, col)
                return np.broadcast_to(vals, (pts.shape[0], m))

            sol = solve_neumann(op, None, flux=boundary_flux_load(mesh, g, m=m))
            pin_target = np.zeros(m)
            pin_target[beta] = mesh.nodes[x0, j]
            psi[j, beta] = sol + (pin_target - sol[x0])[None, :]
    return psi, x0


def build(op, neumann_op=None, hatA=None, x0=None) -> CorrectorSet:
    """The corrector set of the Dirichlet operator op of a scaled
    coefficient: phi and phi_star, and psi solved against neumann_op when
    one is given (it then needs the homogenized tensor hatA)."""
    phi, phi_star = dirichlet_correctors(op)
    psi = None
    if neumann_op is not None:
        if hatA is None:
            raise CorrectorError("Neumann correctors need the homogenized tensor")
        psi, x0 = neumann_correctors(neumann_op, hatA, x0=x0)
    return CorrectorSet(mesh=op.mesh, epsilon=getattr(op.coeff, "epsilon", 1.0), phi=phi,
                        phi_star=phi_star, psi=psi, x0=x0)


def trusted_interior_mask(mesh, dist=0.1):
    """Interior sample mask: at least dist from the boundary and 4h from
    every corner (outside the corner fans)."""
    pts = mesh.nodes
    d = mesh.dist_to_boundary(pts)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cd = np.min(np.linalg.norm(pts[:, None, :] - corners[None], axis=2), axis=1)
    return (d >= dist - 1e-12) & (cd >= 4 * mesh.h - 1e-12)


def chi_on_domain(cell_solution, mesh, epsilon):
    """eps * chi(x/eps) and (grad chi)(x/eps) sampled at the domain nodes.

    Values come from bilinear interpolation of the torus tables at the
    wrapped point x/eps, avoiding per-node cell re-solves.
    Returns (chi_vals (d, m, nnodes, m), chi_grads (d, m, nnodes, 2, m)).
    """
    d, m = cell_solution.chi.shape[0], cell_solution.chi.shape[1]
    grid = cell_solution.grid
    pts = mesh.nodes / epsilon
    chi_vals = np.empty((d, m, mesh.nnodes, m))
    chi_grads = np.empty((d, m, mesh.nnodes, 2, m))
    for j in range(d):
        for beta in range(m):
            chi_vals[j, beta] = interp_torus(grid, cell_solution.chi[j, beta], pts)
            g = interp_torus(grid, cell_solution.chi_grad[j, beta].reshape(grid.nnodes, -1), pts)
            chi_grads[j, beta] = g.reshape(mesh.nnodes, 2, m)
    return chi_vals, chi_grads


def corrector_report(cset: CorrectorSet, cell_solution, dist=0.1):
    """Sup-norm diagnostics for the corrector families.

    All sups are over interior nodes with dist(x, boundary) >= dist and
    outside the corner margin.  The 'profile' entries measure
    |grad{V - P - eps chi(x/eps)}| against min(1, eps/delta(x)).
    """
    mesh, eps = cset.mesh, cset.epsilon
    mask = trusted_interior_mask(mesh, dist=dist)
    delta = mesh.dist_to_boundary(mesh.nodes)
    chi_vals, chi_grads = chi_on_domain(cell_solution, mesh, eps)
    P = cset.monomials()

    def family_stats(V):
        out = {"grad_sup": 0.0, "dist_sup": 0.0, "layer_grad_sup": 0.0, "profile_sup": 0.0}
        for j in range(cset.d):
            for beta in range(cset.m):
                gV = nodal_gradient(mesh, V[j, beta])
                # grad of eps*chi(x/eps) is (grad chi)(x/eps); differentiate the
                # torus table, not the interpolant, to avoid wrap artifacts
                gdiff = nodal_gradient(mesh, V[j, beta] - P[j, beta]) - chi_grads[j, beta]
                gmag = np.sqrt((gV ** 2).sum(axis=(1, 2)))
                dmag = np.sqrt(((V[j, beta] - P[j, beta]) ** 2).sum(axis=1))
                lmag = np.sqrt((gdiff ** 2).sum(axis=(1, 2)))
                prof = lmag * np.maximum(1.0, delta / eps)
                out["grad_sup"] = max(out["grad_sup"], float(gmag[mask].max()))
                out["dist_sup"] = max(out["dist_sup"], float(dmag[mask].max()))
                out["layer_grad_sup"] = max(out["layer_grad_sup"], float(lmag[mask].max()))
                out["profile_sup"] = max(out["profile_sup"], float(prof[mask].max()))
        return out

    report = {"epsilon": eps, "phi": family_stats(cset.phi)}
    report["phi"]["dist_sup_over_eps"] = report["phi"]["dist_sup"] / eps
    if cset.psi is not None:
        report["psi"] = family_stats(cset.psi)
        logfac = eps * np.log(1.0 / eps + 2.0)
        report["psi"]["dist_sup_over_eps"] = report["psi"]["dist_sup"] / eps
        report["psi"]["dist_sup_over_eps_log"] = report["psi"]["dist_sup"] / logfac
    return report
