"""Sampled Green functions, Neumann functions, Poisson kernels, the
oscillating boundary weight, the Dirichlet-to-Neumann map and its
Leibniz commutators.

Discrete deltas are unit nodal loads (point-evaluation functionals), so a
kernel column is exact for the discrete bilinear form and reciprocity holds
to solver accuracy for symmetric coefficients.  Kernel values are trusted
only off-diagonal: |x - y| >= max(4h, 0.02), and for interior estimates
dist(x, boundary) >= 0.1.  Corner nodes never carry kernel values.

Every kernel takes the assembled operator it solves with (mesh.assemble)
and reads the mesh, the number of components and whether it is symmetric
(op.symmetric, decided at assembly) from it; the caller owns the
operator and releases its factorization.  A kernel column is the nodal
array (nnodes, m) of its solve, and the boundary weight omega is the
array (n_boundary, m, m) with its corners filled.  A source or evaluation
point is a node id in [0, nnodes) or a point that lies on a mesh node.

The DtN map Lambda is applied, never assembled, wherever a quantity needs
it: apply_dtn_via_solve is one Dirichlet solve plus the variational flux,
and the commutators take the Dirichlet operator and apply Lambda through
it.  dtn assembles the dense weak-form matrix only for the CLI's dtn
output.  The commutators are boundary arrays; their norms are taken by
the callers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import DomainMesh, solve_dirichlet, solve_neumann, point_load, conormal

__all__ = ["KernelError", "KernelTable", "DtNMatrix",
           "green", "neumann_fn", "poisson_kernel", "omega", "dtn",
           "apply_dtn_via_solve", "product_commutator", "coordinate_commutator"]


class KernelError(ValueError):
    pass


def _as_node(mesh, y):
    """The node id y, or the node the point y lies on; KernelError otherwise."""
    if isinstance(y, (int, np.integer)):
        if not 0 <= y < mesh.nnodes:
            raise KernelError(f"node id {y} is outside [0, {mesh.nnodes})")
        return int(y)
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise KernelError(f"source must be a node id or a point (x, y), got {y!r}")
    node = mesh.nearest_node(y)
    if np.linalg.norm(mesh.nodes[node] - y) > 1e-9:
        raise KernelError(f"point {y} is not a mesh node")
    return node


@dataclass
class KernelTable:
    """Sampled kernel columns G(., y) for a list of source points."""

    kind: str                  # 'green' | 'neumann-fn' | 'poisson'
    mesh: DomainMesh
    sources: list              # node ids (green/neumann-fn) or boundary positions (poisson)
    fields: list               # nodal array (nnodes, m) per source

    def trusted_mask(self, idx):
        """Nodes where the column values are trusted: at distance at least
        max(4h, 0.02) from the source.  Only the distance is checked here;
        the values are finite because the solver's residual rule raises
        SolveError on any column that is not."""
        mesh = self.mesh
        if self.kind == "poisson":
            ysrc = mesh.nodes[mesh.boundary_nodes[self.sources[idx]]]
        else:
            ysrc = mesh.nodes[self.sources[idx]]
        r = np.linalg.norm(mesh.nodes - ysrc, axis=1)
        return r >= max(4 * mesh.h, 0.02)

    def value(self, x, idx=0, alpha=0):
        node = _as_node(self.mesh, x)
        if not self.trusted_mask(idx)[node]:
            raise KernelError("evaluation inside the untrusted diagonal region")
        return float(self.fields[idx][node, alpha])

    def to_csv(self, path):
        """Rows x,y,source_x,source_y,component,value: per source, every
        component of its column, component-major like mesh.write_nodal_csv."""
        mesh = self.mesh
        with open(path, "w") as fh:
            fh.write("x,y,source_x,source_y,component,value\n")
            for idx, fld in enumerate(self.fields):
                if self.kind == "poisson":
                    sx, sy = mesh.nodes[mesh.boundary_nodes[self.sources[idx]]]
                else:
                    sx, sy = mesh.nodes[self.sources[idx]]
                for a in range(fld.shape[1]):
                    for node in range(mesh.nnodes):
                        x, y = mesh.nodes[node]
                        fh.write(f"{float(x)!r},{float(y)!r},{float(sx)!r},{float(sy)!r},"
                                 f"{a},{float(fld[node, a])!r}\n")


def green(op, y, beta=0) -> np.ndarray:
    """Green column: Dirichlet solve with a unit nodal load at y."""
    mesh = op.mesh
    node = _as_node(mesh, y)
    if mesh.boundary_mask[node]:
        raise KernelError("Green source must be an interior node")
    return solve_dirichlet(op, point_load(mesh, node, beta=beta, m=op.m), bdata=0.0)


def neumann_fn(op, y, beta=0) -> np.ndarray:
    """Neumann-function column: unit nodal load at y, constant compensating
    boundary flux -1/|boundary|, pinned to zero boundary mean.  op is a
    Neumann operator that must be symmetric (op.symmetric); the homogenized
    operator is, since its hatA is symmetric to roundoff."""
    if not op.symmetric:
        raise KernelError("Neumann functions require a symmetric coefficient (A* = A)")
    mesh, m = op.mesh, op.m
    node = _as_node(mesh, y)
    if mesh.boundary_mask[node]:
        raise KernelError("Neumann source must be an interior node")
    load = point_load(mesh, node, beta=beta, m=m)
    gconst = np.zeros((mesh.n_boundary, m))
    gconst[:, beta] = -0.25            # -1/|boundary| on the unit square
    return solve_neumann(op, load, flux=gconst)


def poisson_kernel(op, pos) -> np.ndarray:
    """Poisson-kernel column: Dirichlet solve whose boundary data is the hat
    at boundary position pos divided by its arc mass.

    This is the stable equivalent of differentiating the Green function in
    its second argument.  pos indexes the boundary nodes (boundary order);
    corner nodes are rejected.
    """
    mesh = op.mesh
    if not isinstance(pos, (int, np.integer)) or not 0 <= pos < mesh.n_boundary:
        raise KernelError(f"Poisson-kernel source must be a boundary position in "
                          f"[0, {mesh.n_boundary}), got {pos!r}")
    if pos in mesh.corner_positions:
        raise KernelError("Poisson kernel is not evaluated at corner nodes")
    bdata = np.zeros((mesh.n_boundary, op.m))
    bdata[pos, :] = 1.0 / mesh.arc_weights[pos]
    return solve_dirichlet(op, None, bdata=bdata)


# ---------------------------------------------------------------------------
# oscillating boundary weight


def omega(op, hatA, phi_star) -> np.ndarray:
    """Boundary weight built from the adjoint Dirichlet correctors:

        omega^{gb}(y) = h^{gs}(y) dPhi*_k^{rs}/dn(y) n_k(y)
                        n_i(y) n_j(y) a_ij^{rb}(y/eps)

    with h(y) the inverse of the m x m matrix n_i n_j hatA_ij^{ab}, and a
    read from op.coeff.  Returns (n_boundary, m, m) in boundary order; each
    corner, which has no normal, holds the mean of its two edge neighbours,
    so the array can be used as boundary data in products.

    op is the Dirichlet operator of L_eps.  The normal derivative is
    extracted from the variational conormal flux of each phi_star column
    against the adjoint operator, with the normal parts of A* (its
    tangential part is known exactly since Phi* has linear boundary
    values); this is consistent with how the discrete kernels are built and
    tracks them markedly better than recovered gradients.  The adjoint
    operator is op.adjoint(), op itself when op.symmetric, and A*
    is the transpose of A's values, so nothing is assembled, evaluated
    again or factored here.
    """
    mesh, m = op.mesh, op.m
    hatA = np.asarray(hatA, dtype=float).reshape(2, 2, m, m)
    pos = np.flatnonzero(mesh.noncorner_mask)                 # p non-corner positions
    pts = mesh.nodes[mesh.boundary_nodes[pos]]
    n = mesh.normals[pos]
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    A_b = op.coeff(pts)                                       # (p, 2, 2, m, m)
    adjoint = op.adjoint()
    A_star = A_b if adjoint is op else A_b.transpose(0, 2, 1, 4, 3)
    nAn = np.einsum("pi,pj,pijrs->prs", n, n, A_b)
    nAn_star = np.einsum("pi,pj,pijrs->prs", n, n, A_star)
    nAt_star = np.einsum("pi,pj,pijrs->prs", n, t, A_star)

    # normal derivative of each column: [k, sigma, p, rho]
    dn = np.empty((2, m, len(pos), m))
    for k in range(2):
        for sig in range(m):
            flux = conormal(phi_star[k, sig], adjoint)[pos]            # (p, rho)
            # Phi*_k = x_k e_sigma on the boundary: tangential part t_k e_sigma
            rhs = flux - nAt_star[:, :, sig] * t[:, k, None]
            dn[k, sig] = np.linalg.solve(nAn_star, rhs[:, :, None])[:, :, 0]

    hinv = np.linalg.inv(np.einsum("pi,pj,ijab->pab", n, n, hatA))
    # T^{rs} = n_k dPhi*_k^{rs}/dn
    T = np.einsum("pk,kspr->prs", n, dn)
    nb = mesh.n_boundary
    values = np.empty((nb, m, m))
    values[pos] = np.einsum("pgs,prs,prb->pgb", hinv, T, nAn)
    corners = mesh.corner_positions
    values[corners] = 0.5 * (values[(corners - 1) % nb] + values[(corners + 1) % nb])
    return values


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann map


@dataclass
class DtNMatrix:
    """Weak-form DtN matrix against boundary hat functions.

    mat[i, j] = <Lambda hat_j, hat_i>, so W^{-1} (mat @ f), with W the
    lumped arc weights, is the nodal action apply_dtn_via_solve computes.
    The weak matrix is symmetric positive semidefinite when A* = A.
    """

    mesh: DomainMesh
    mat: np.ndarray            # (nb*m, nb*m)
    m: int = 1

    def to_csv(self, path):
        nb = self.mesh.n_boundary
        with open(path, "w") as fh:
            header = ",".join(str(i) for i in range(nb * self.m))
            fh.write("# boundary nodes counterclockwise from (0,0); weak-form entries\n")
            fh.write(header + "\n")
            for row in self.mat:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


_DTN_CHUNK = 128          # boundary columns per batched solve in dtn


def dtn(op) -> DtNMatrix:
    """Dense DtN matrix via the Schur complement of the Dirichlet operator op,
    as the CLI's dtn command writes it; experiments apply Lambda through
    apply_dtn_via_solve instead.

    Column j is the variational conormal flux of the Dirichlet solve with
    hat data at boundary node j; assembled in chunks of _DTN_CHUNK columns,
    each one batched solve with op.factorization(): the cell template of an
    aligned eps-periodic coefficient, triangular solves on the sparse LU of
    any other variable one, or for a constant tensor (the Laplacian) sine
    transforms.  The solver checks the residual of every column it solves
    and raises SolveError when one misses.
    """
    if op.mode != "dirichlet":
        raise ValueError(f"operator assembled in mode {op.mode!r}, need 'dirichlet'")
    inter, bd = op.dof_split()
    K = op.matrix
    Kib = K[inter][:, bd].tocsc()
    Kbi = K[bd][:, inter].tocsr()
    S = K[bd][:, bd].toarray()
    lu = op.factorization()
    nbd = len(bd)
    for start in range(0, nbd, _DTN_CHUNK):
        cols = np.arange(start, min(start + _DTN_CHUNK, nbd))
        X = lu.solve(Kib[:, cols].toarray())
        S[:, cols] -= Kbi @ X
    return DtNMatrix(mesh=op.mesh, mat=S, m=op.m)


def apply_dtn_via_solve(op, fb):
    """Lambda f for boundary data fb (n_boundary, m) in boundary order: one
    Dirichlet solve against op plus variational flux recovery, returned
    nodal on the boundary (n_boundary, m).

    Every experiment applies Lambda this way; it agrees with the dense
    matrix of dtn, W^{-1} (mat @ f), up to solver accuracy.
    """
    u = solve_dirichlet(op, None, bdata=fb)
    return conormal(u, op)


# ---------------------------------------------------------------------------
# Leibniz commutators of the DtN map


def _boundary_l2(mesh, vals, p=2.0):
    mask = mesh.noncorner_mask
    w = mesh.arc_weights[mask]
    mag = np.abs(np.asarray(vals).reshape(mesh.n_boundary, -1))[mask]
    mag = np.sqrt((mag ** 2).sum(axis=1))
    if np.isinf(p):
        return float(mag.max())
    return float((w * mag ** p).sum() ** (1.0 / p))


def product_commutator(op, f, g):
    """Lambda(fg) - f Lambda(g), nodal on the boundary, with Lambda the DtN
    map of the scalar Dirichlet operator op."""
    f = np.asarray(f, dtype=float).reshape(-1)
    g = np.asarray(g, dtype=float).reshape(-1)
    return (apply_dtn_via_solve(op, (f * g)[:, None])[:, 0]
            - f * apply_dtn_via_solve(op, g[:, None])[:, 0])


def coordinate_commutator(op, f, i):
    """Lambda(f x_i) - x_i Lambda(f), nodal on the boundary (i is 1-based),
    with Lambda the DtN map of the scalar Dirichlet operator op."""
    f = np.asarray(f, dtype=float).reshape(-1)
    xi = op.mesh.nodes[op.mesh.boundary_nodes, i - 1]
    return (apply_dtn_via_solve(op, (f * xi)[:, None])[:, 0]
            - xi * apply_dtn_via_solve(op, f[:, None])[:, 0])
