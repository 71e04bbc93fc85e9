"""Dirichlet correctors Phi, adjoint correctors Phi*, Neumann correctors
Psi and the interior family P + eps*chi(x/eps) on the unit square.

Every corrector family is a plain array (d, m, nnodes, m) indexed
[j, beta, node, alpha]: column (j, beta) is the solution that agrees with
the linear data x_j e_beta on the boundary (Dirichlet) or matches its
homogenized conormal flux (Neumann, pinned at an interior node x0).  The
linear monomials P of the same layout are mesh.monomial_table(mesh, m).

The solvers take the assembled operator of the scaled coefficient (a
Dirichlet one for Phi, a Neumann one for Psi); the caller owns it and
releases its factorization.  Only the adjoint operator of a non-symmetric
coefficient (op.adjoint(), the transposed matrix) is built here, and
dropped when the solves that need it return.
"""

from __future__ import annotations

import numpy as np

from .mesh import solve_dirichlet, solve_neumann, nodal_gradient, monomial_table

__all__ = ["CorrectorError", "dirichlet_correctors", "neumann_correctors",
           "interior_family", "corrector_report"]


class CorrectorError(RuntimeError):
    pass


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
    not re-solved; otherwise it is solved against op.adjoint(), which is
    dropped, factorization and all, when this returns.
    """
    phi = _monomial_solves(op)
    adjoint = op.adjoint()
    if adjoint is op:
        return phi, phi.copy()
    return phi, _monomial_solves(adjoint)


def neumann_correctors(op, hatA, x0=None):
    """The Neumann correctors Psi (d, m, nnodes, m), solved against the
    Neumann operator op and pinned at the interior node x0 (the node
    nearest the centre by default).

    Each column solves the zero-source Neumann problem whose boundary flux
    is the homogenized conormal n_i hatA_ij^{.beta} of the linear data;
    after the mean-pinned solve the column is shifted by the constant that
    takes psi(x0) to x0_j e_beta, and psi(x0) is then set to x0_j e_beta,
    so the pin holds exactly, whatever the shift rounds to; solve_neumann
    checks that the flux is balanced, as for any Neumann data.  Requires a
    symmetric coefficient.
    """
    if not op.coeff.symmetric:
        raise CorrectorError("Neumann correctors require a symmetric coefficient (A* = A)")
    mesh, d, m = op.mesh, 2, op.m
    if x0 is None:
        x0 = mesh.nearest_node((0.5, 0.5))
    if mesh.boundary_mask[x0]:
        raise CorrectorError("pin node x0 must be interior")
    hatA = np.asarray(hatA, dtype=float).reshape(2, 2, m, m)
    corners = mesh.corner_positions
    psi = np.zeros((d, m, mesh.nnodes, m))
    for j in range(d):
        for beta in range(m):
            flux = mesh.normals @ hatA[:, j, :, beta]            # (n_boundary, alpha)
            # a corner has no normal: its edge neighbours' mean gives each edge half
            flux[corners] = 0.5 * (flux[corners - 1] + flux[corners + 1])
            sol = solve_neumann(op, None, flux=flux)
            pin_target = np.zeros(m)
            pin_target[beta] = mesh.nodes[x0, j]
            psi[j, beta] = sol + (pin_target - sol[x0])[None, :]
            psi[j, beta, x0] = pin_target
    return psi


def trusted_interior_mask(mesh, dist=0.1):
    """Interior sample mask: at least dist from the boundary and 4h from
    every corner (outside the corner fans).

    On the grid both are closed forms in the row's and the column's
    distance a = min(t, 1 - t) to the nearer edge: a node's distance to the
    boundary is the smaller of the two, and to the nearest corner
    sqrt(a_row^2 + a_col^2), the least over the corners because rounding
    keeps sums and square roots monotone; so the mask is what the distances
    of the points give, bit for bit."""
    a = mesh.line_dist()
    far = a >= dist - 1e-12
    corner = np.add.outer(a * a, a * a)
    mask = np.sqrt(corner, out=corner) >= 4 * mesh.h - 1e-12
    mask &= np.logical_and.outer(far, far)
    return mask.ravel()


def _on_domain(grid, table, mesh, epsilon):
    """A torus table (d, m, nnodes, ...) read at x/eps for every node x of
    mesh, (d, m, mesh.nnodes, ...), by bilinear interpolation.

    The domain's nodes form a tensor grid, so the table is interpolated
    along rows and then along columns, with one index and weight per grid
    line.  x/eps within 4 ulps of a torus node reads that node with weight
    exactly 1: where the cells per period divide the torus's n (x/eps on
    torus nodes) the read is the strided gather of the table, the limit of
    the bilinear formula."""
    n, side = grid.n, mesh.n if mesh.is_torus else mesh.n + 1
    t = mesh.nodes[:side, 0] / epsilon / grid.h                # grid lines in torus cells
    near = np.rint(t)
    t = np.where(np.abs(t - near) <= 4 * np.spacing(near), near, t) % n
    i0 = np.floor(t).astype(np.int64) % n
    i1, w1 = (i0 + 1) % n, t - np.floor(t)
    w0 = 1.0 - w1
    T = table.reshape(table.shape[0] * table.shape[1], n, n, -1)
    out = np.empty((T.shape[0], side, side, T.shape[3]))
    for k, Tk in enumerate(T):
        rows = w0[:, None, None] * Tk[i0] + w1[:, None, None] * Tk[i1]
        np.multiply(rows[:, i0], w0[:, None], out=out[k])
        out[k] += rows[:, i1] * w1[:, None]
    return out.reshape(*table.shape[:2], mesh.nnodes, *table.shape[3:])


def chi_on_domain(cell_solution, mesh, epsilon):
    """chi(x/eps) sampled at the domain nodes, (d, m, nnodes, m).

    Values come from bilinear interpolation of the torus table at the
    wrapped point x/eps (_on_domain), avoiding per-node cell re-solves.
    """
    return _on_domain(cell_solution.grid, cell_solution.chi, mesh, epsilon)


def interior_family(cell_solution, mesh, epsilon):
    """The interior corrector family P + eps*chi(x/eps) at the domain nodes,
    (d, m, nnodes, m) like the boundary correctors."""
    chi_vals = chi_on_domain(cell_solution, mesh, epsilon)
    return monomial_table(mesh, chi_vals.shape[1]) + epsilon * chi_vals


def corrector_report(mesh, epsilon, phi, psi, cell_solution):
    """Sup-norm diagnostics for the Dirichlet correctors phi and the Neumann
    correctors psi of one epsilon on mesh.

    All sups are over interior nodes at least 0.1 from the boundary and
    outside the corner margin.  The 'profile' entries measure
    |grad{V - P - eps chi(x/eps)}| against min(1, eps/delta(x)).
    """
    mask = trusted_interior_mask(mesh)
    a = mesh.line_dist()
    delta = np.minimum.outer(a, a).ravel()                  # dist_to_boundary of the nodes
    d, m = phi.shape[0], phi.shape[1]
    P = monomial_table(mesh, m)
    # (grad chi)(x/eps), (d, m, nnodes, 2, m): the torus table of chi_grad
    # interpolated at the wrapped point x/eps
    chi_grads = _on_domain(cell_solution.grid, cell_solution.chi_grad, mesh, epsilon)

    def family_stats(V):
        out = {"grad_sup": 0.0, "dist_sup": 0.0, "layer_grad_sup": 0.0, "profile_sup": 0.0}
        for j in range(d):
            for beta in range(m):
                gV = nodal_gradient(mesh, V[j, beta])
                # grad of eps*chi(x/eps) is (grad chi)(x/eps); differentiate the
                # torus table, not the interpolant, to avoid wrap artifacts
                gdiff = nodal_gradient(mesh, V[j, beta] - P[j, beta]) - chi_grads[j, beta]
                gmag = np.sqrt((gV ** 2).sum(axis=(1, 2)))
                dmag = np.sqrt(((V[j, beta] - P[j, beta]) ** 2).sum(axis=1))
                lmag = np.sqrt((gdiff ** 2).sum(axis=(1, 2)))
                prof = lmag * np.maximum(1.0, delta / epsilon)
                out["grad_sup"] = max(out["grad_sup"], float(gmag[mask].max()))
                out["dist_sup"] = max(out["dist_sup"], float(dmag[mask].max()))
                out["layer_grad_sup"] = max(out["layer_grad_sup"], float(lmag[mask].max()))
                out["profile_sup"] = max(out["profile_sup"], float(prof[mask].max()))
        return out

    report = {"epsilon": epsilon, "phi": family_stats(phi), "psi": family_stats(psi)}
    report["phi"]["dist_sup_over_eps"] = report["phi"]["dist_sup"] / epsilon
    logfac = epsilon * np.log(1.0 / epsilon + 2.0)
    report["psi"]["dist_sup_over_eps"] = report["psi"]["dist_sup"] / epsilon
    report["psi"]["dist_sup_over_eps_log"] = report["psi"]["dist_sup"] / logfac
    return report
