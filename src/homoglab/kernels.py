"""Sampled Green functions, Neumann functions, Poisson kernels, the
oscillating boundary weight, the Dirichlet-to-Neumann matrix and its
Leibniz commutators.

Discrete deltas are unit nodal loads (point-evaluation functionals), so a
kernel column is exact for the discrete bilinear form and reciprocity holds
to solver accuracy for symmetric coefficients.  Kernel values are trusted
only off-diagonal: |x - y| >= max(4h, 0.02), and for interior estimates
dist(x, boundary) >= 0.1.  Corner nodes never carry kernel values.

Every kernel takes the assembled operator it solves with (mesh.assemble)
and reads the mesh and the number of components from it and the symmetry
flag from its coefficient, op.coeff.symmetric; the caller owns the
operator and releases its factorization.  A kernel column is the nodal
array (nnodes, m) of its solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import DomainMesh, solve_dirichlet, solve_neumann, point_load, conormal

__all__ = ["KernelError", "KernelTable", "DtNMatrix", "OmegaTable",
           "green", "neumann_fn", "poisson_kernel", "omega", "dtn",
           "apply_dtn_via_solve", "leibniz_commutators",
           "product_commutator", "coordinate_commutator"]


class KernelError(ValueError):
    pass


def _as_node(mesh, y):
    if np.isscalar(y) or isinstance(y, (int, np.integer)):
        return int(y)
    y = np.asarray(y, dtype=float)
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
        """Nodes where the column values are trusted: off-diagonal and finite."""
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
    Neumann operator whose coefficient must be symmetric (op.coeff.symmetric);
    for the homogenized operator that is the flag of the constant hatA field."""
    if not op.coeff.symmetric:
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


@dataclass
class OmegaTable:
    """Boundary weight omega_eps^{gb}(y).

    values: (n_boundary, m, m), NaN at the four corners.  filled() replaces
    corner entries by the mean of the two adjacent edge values, for use as
    boundary data in products.
    """

    mesh: DomainMesh
    values: np.ndarray

    def filled(self):
        out = self.values.copy()
        nb = self.mesh.n_boundary
        for pos in self.mesh.corner_positions:
            out[pos] = 0.5 * (out[(pos - 1) % nb] + out[(pos + 1) % nb])
        return out

    def scalar(self):
        return self.values[:, 0, 0]


def omega(op, hatA, phi_star) -> OmegaTable:
    """Boundary weight built from the adjoint Dirichlet correctors:

        omega^{gb}(y) = h^{gs}(y) dPhi*_k^{rs}/dn(y) n_k(y)
                        n_i(y) n_j(y) a_ij^{rb}(y/eps)

    with h(y) the inverse of the m x m matrix n_i n_j hatA_ij^{ab}, and a
    read from op.coeff.

    op is the Dirichlet operator of L_eps.  The normal derivative is
    extracted from the variational conormal flux of each phi_star column
    against op (its tangential part is known exactly since Phi* has linear
    boundary values); this is consistent with how the discrete kernels are
    built and tracks them markedly better than recovered gradients.
    """
    mesh, m, coeff = op.mesh, op.m, op.coeff
    hatA = np.asarray(hatA, dtype=float).reshape(2, 2, m, m)
    bnodes = mesh.boundary_nodes
    nb = mesh.n_boundary
    A_b = coeff(mesh.nodes[bnodes])                      # (nb, 2, 2, m, m)
    mask = mesh.noncorner_mask
    nrm = mesh.normals

    # normal derivative of each column: [k, sigma, node, rho]
    dn = np.full((2, m, nb, m), np.nan)
    for k in range(2):
        for sig in range(m):
            flux = conormal(phi_star[k, sig], op)                       # (nb, rho)
            for pos in np.flatnonzero(mask):
                n = nrm[pos]
                t = np.array([-n[1], n[0]])
                nAn = np.einsum("i,j,ijrs->rs", n, n, A_b[pos])
                nAt = np.einsum("i,j,ijrs->rs", n, t, A_b[pos])
                # Phi*_k = x_k e_sigma on the boundary: tangential part t_k e_sigma
                rhs = flux[pos] - nAt[:, sig] * t[k]
                dn[k, sig, pos] = np.linalg.solve(nAn, rhs)

    values = np.full((nb, m, m), np.nan)
    for pos in np.flatnonzero(mask):
        n = nrm[pos]
        hinv = np.linalg.inv(np.einsum("i,j,ijab->ab", n, n, hatA))
        # T^{rs} = n_k dPhi*_k^{rs}/dn
        T = np.einsum("k,ksr->rs", n, dn[:, :, pos, :])
        an = np.einsum("i,j,ijrb->rb", n, n, A_b[pos])
        values[pos] = np.einsum("gs,rs,rb->gb", hinv, T, an)
    return OmegaTable(mesh=mesh, values=values)


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann map


@dataclass
class DtNMatrix:
    """Weak-form DtN matrix against boundary hat functions.

    mat[i, j] = <Lambda hat_j, hat_i>; the nodal action on boundary data f
    is apply(f) = W^{-1} (mat @ f) with W the lumped arc weights.  The weak
    matrix is symmetric positive semidefinite when A* = A.
    """

    mesh: DomainMesh
    mat: np.ndarray            # (nb*m, nb*m)
    m: int = 1

    def apply(self, fb):
        fb = np.asarray(fb, dtype=float)
        if fb.ndim == 1:
            fb = fb[:, None]
        out = (self.mat @ fb.ravel()).reshape(self.mesh.n_boundary, self.m)
        return out / self.mesh.arc_weights[:, None]

    def constant_action(self):
        return float(np.abs(self.apply(np.ones(self.mesh.n_boundary))).max())

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
    """Dense DtN matrix via the Schur complement of the Dirichlet operator op.

    Column j is the variational conormal flux of the Dirichlet solve with
    hat data at boundary node j; assembled in chunks of _DTN_CHUNK columns,
    each one batched solve with op.factorization(): triangular solves on
    the sparse LU, or for a constant tensor (the Laplacian) sine
    transforms.  Either solver checks the residual of every column it
    solves and raises SolveError when one misses.
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
    """Lambda f by one Dirichlet solve plus variational flux recovery.

    Agrees with DtNMatrix.apply up to solver accuracy; preferred at fine
    resolution where the dense matrix is too expensive.
    """
    u = solve_dirichlet(op, None, bdata=fb)
    return conormal(u, op)


# ---------------------------------------------------------------------------
# Leibniz commutators for the Laplacian DtN map


def _boundary_l2(mesh, vals, p=2.0):
    mask = mesh.noncorner_mask
    w = mesh.arc_weights[mask]
    mag = np.abs(np.asarray(vals).reshape(mesh.n_boundary, -1))[mask]
    mag = np.sqrt((mag ** 2).sum(axis=1))
    if np.isinf(p):
        return float(mag.max())
    return float((w * mag ** p).sum() ** (1.0 / p))


def product_commutator(dtn_mat: DtNMatrix, f, g):
    """Lambda(fg) - f Lambda(g), nodal on the boundary."""
    f = np.asarray(f, dtype=float).reshape(-1)
    g = np.asarray(g, dtype=float).reshape(-1)
    return dtn_mat.apply(f * g)[:, 0] - f * dtn_mat.apply(g)[:, 0]


def coordinate_commutator(dtn_mat: DtNMatrix, f, i):
    """Lambda(f x_i) - x_i Lambda(f), nodal on the boundary (i is 1-based)."""
    f = np.asarray(f, dtype=float).reshape(-1)
    xi = dtn_mat.mesh.nodes[dtn_mat.mesh.boundary_nodes, i - 1]
    return dtn_mat.apply(f * xi)[:, 0] - xi * dtn_mat.apply(f)[:, 0]


def leibniz_commutators(dtn_mat: DtNMatrix, f, g=None, i=None, ps=(1.5, 2.0, 3.0)):
    """Both Leibniz commutators with their boundary L^p norms.

    Built for the Laplacian DtN map; norms use lumped arc quadrature with
    corner nodes excluded.  Only the p = 2 norms are asserted by the test
    suite; the others are reported.
    """
    mesh = dtn_mat.mesh
    out = {}
    if g is not None:
        field = product_commutator(dtn_mat, f, g)
        out["product"] = field
        out["product_norms"] = {p: _boundary_l2(mesh, field, p) for p in ps}
    if i is not None:
        field = coordinate_commutator(dtn_mat, f, i)
        out["coordinate"] = field
        out["coordinate_norms"] = {p: _boundary_l2(mesh, field, p) for p in ps}
    return out
