"""Discretization substrate: periodic unit-cell grid, unit-square grid,
bilinear finite element assembly, linear solves, norms and variational
conormal fluxes.

Both meshes are uniform tensor grids with continuous bilinear elements and
2x2 Gauss quadrature per element.  Degrees of freedom are laid out as
dof = node * m + component.  Meshes and assembled operators are immutable
after construction; solves are pure functions of (operator, data).

Every operator is assembled from a CoefficientField, rescaled
(coeff.rescale) for an eps-operator; a constant tensor enters as
coeff.builtin("constant", value=..., m=...).  assemble evaluates it on one
block of c x c elements that the mesh repeats (one element of a constant,
one period of an aligned eps-periodic field, else the whole mesh), reads
from that table whether the operator is symmetric (op.symmetric, by
coeff.symmetric_table), sums its element matrices straight into the
grid's 9-point CSR pattern and records c as op.cells.  The
cell's torus operator (_torus_operator) reads that block out of the table
of the coefficient at every Gauss point that the cell already holds.

Each constraint mode (Dirichlet, Neumann, periodic) has one solve through
the Solver of its constrained system, built once per operator and cached
on it (AssembledOperator.factorization).  There is one Solver class: it
takes and returns the operator's own dofs, checks every column it solves
against one residual rule and raises SolveError when one misses, so a
caller of .solve gets checked solutions.  It solves only the columns that
carry data: a column of zeros (-0.0 too) has the zero solution in every
mode and comes back +0.0 unsolved, and data with a NaN or an infinity
raise SolveError before any solve.  Its exact part is one of four
classes, which factorization() picks by one rule: _Transform, for a
constant tensor (DST-I on the square's interior, a real FFT on the
torus, DCT-I on the square's nodes) and for a variable Neumann operator
outside the template rule by its Gauss-point mean, with conjugate
gradients to take up what the transform leaves; _CellTemplate, for an
eps-periodic operator on a mesh of 2^k x 2^k whole periods, by nested
elimination with one dense matrix per level and class of equal blocks,
on levels that the Dirichlet and the Neumann operator of one assembly
share (_TemplateLevels) below a top of each mode; and a sparse LU
(AssembledOperator._factor) of any other system as it stands, _LU of
K_ii on the square and _BorderedLU of K bordered by the torus's
volume-mean pin.  Every Neumann operator must be symmetric (op.symmetric).

A decoupled operator, m > 1 with a^{ab} = 0 exactly for a != b on the
block table that assemble evaluates (coeff.diagonal_blocks), is solved
block by block.  assemble also builds, from that table, the m = 1
operator of each distinct diagonal block (op.blocks), and its
factorization() sends the columns of each block's components, all in one
batched call, through that block's own Solver, picked by the same rule.
op.matrix stays the whole interleaved matrix.

Solve data comes in fixed layouts, for an operator with m components:

    source  None, an assembled load (nnodes*m,) or nodal values (nnodes, m)
    bdata   a constant or boundary values (n_boundary, m) in boundary order
    flux    None, an assembled load (nnodes*m,) or boundary values
            (n_boundary, m) in boundary order

Solve data of any other shape or type (a callable, say) raises
ValueError naming the accepted layouts.  The loads take nodal tables,
volume_load (nnodes, m) and divergence_load (nnodes, 2, m), and raise
ValueError for any other shape.  On the uniform grid they are Kronecker
products of 1-D three-point stencils applied to the node grid [y, x,
component] (sum factorization): volume_load is h^2 (M (x) M) f and
divergence_load is h [(M (x) C) f_1 + (C (x) M) f_2], with the Q1 mass
stencil M = tridiag(1, 4, 1)/6 and derivative stencil C = tridiag(1/2, 0,
-1/2), both with end rows on the square and circulant on the torus.  They
are exact for the bilinear interpolant of the data, as 2 x 2 Gauss is.
norm takes p = 2 by the same stencils, with the stiffness stencil
K1 = tridiag(-1, 2, -1) for the gradient, and every other norm by the
Gauss rule in blocks of element rows; no function after the solves builds
a table of every element's Gauss points.
volume_load_from_gauss and divergence_load_from_gauss stay for data known
only at the Gauss points.  Neumann data must be compatible (total
source plus total flux zero per component); solve_neumann is the one place
that checks it.

Every solve returns its solution as one float array of nodal values
(nnodes, m).  Functions that read a nodal field take its mesh or operator
separately: conormal(u, op), norm(mesh, values) and write_nodal_csv(mesh,
values, path); the last two read an (nnodes,) table as one column.
"""

from __future__ import annotations

import functools
import numbers
import warnings
from collections import namedtuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coeff import CoefficientField, component_field, diagonal_blocks, symmetric_table

__all__ = [
    "TorusGrid", "DomainMesh", "AssembledOperator", "SolveError", "write_nodal_csv",
    "assemble", "coefficient_gauss_values", "volume_load", "divergence_load",
    "point_load", "boundary_flux_load", "solve_dirichlet", "solve_neumann",
    "solve_periodic", "conormal", "norm", "nodal_gradient", "interp_torus",
    "tangential_derivative", "monomial_table",
]

# reference Q1 element on [0,1]^2, local node order (0,0),(1,0),(0,1),(1,1)
_G1 = 0.5 * (1.0 - 1.0 / np.sqrt(3.0))
_G2 = 0.5 * (1.0 + 1.0 / np.sqrt(3.0))
GAUSS_POINTS = np.array([[_G1, _G1], [_G2, _G1], [_G1, _G2], [_G2, _G2]])
GAUSS_WEIGHTS = np.full(4, 0.25)


def _shape(xi, eta):
    return np.array([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta])


def _shape_grad(xi, eta):
    return np.array([[-(1 - eta), (1 - eta), -eta, eta],
                     [-(1 - xi), -xi, (1 - xi), xi]])


PHI = np.stack([_shape(x, y) for x, y in GAUSS_POINTS])          # (4 gauss, 4 nodes)
DPHI = np.stack([_shape_grad(x, y) for x, y in GAUSS_POINTS])    # (4 gauss, 2, 4 nodes)


class SolveError(RuntimeError):
    """A linear solve failed its residual check or had incompatible data."""


class _UniformGrid:
    """What the torus grid and the square mesh share: uniform square elements
    of side h = 1/n whose first local node is the lower-left corner."""

    @staticmethod
    def _cells_per_axis(n):
        """n as an int: an integer (not a bool) of at least 2, else ValueError."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"cells per axis n must be an integer, got n={n!r}")
        if n < 2:
            raise ValueError(f"need at least 2 cells per axis, got n={n}")
        return int(n)

    def gauss_points(self, elems=slice(None)):
        """The four Gauss points of every element, or of the elements elems,
        (nelem, 4, 2)."""
        corners = self.nodes[self.elem_dofs[elems, 0]]
        return corners[:, None, :] + GAUSS_POINTS[None, :, :] * self.h

    def period_cells(self, eps):
        """c, the side in cells of the block that a field of period eps
        repeats on this mesh: n eps when that is a whole number (to 1e-9
        relative) that divides n, else n, the whole mesh (also for eps None,
        a field of period 1).  This is the one rule for it: assemble
        records its block as op.cells, which the cell template reads, and
        expand's identity check reads it too."""
        if eps is not None:
            c = round(self.n * eps)
            if c >= 1 and abs(self.n * eps - c) <= 1e-9 * c and self.n % c == 0:
                return c
        return self.n

    def period_gauss_points(self, c):
        """The Gauss points of the c x c elements of the first period, row
        by row, (c * c, 4, 2): element (ey, ex) of the mesh sees the values
        of a c-periodic field that first-period element (ey mod c, ex mod c)
        sees."""
        e = np.arange(c)
        return self.gauss_points((e[:, None] * self.n + e).ravel())


class TorusGrid(_UniformGrid):
    """Uniform n x n grid on the flat unit torus, bilinear elements."""

    def __init__(self, n):
        self.n = n = self._cells_per_axis(n)
        self.d = 2
        self.h = 1.0 / n
        self.nnodes = n * n
        self.nelem = n * n
        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        self.nodes = np.column_stack([(ix.ravel() % n) * self.h, (iy.ravel() % n) * self.h])
        ex, ey = ix.ravel(), iy.ravel()
        exp, eyp = (ex + 1) % n, (ey + 1) % n
        self.elem_dofs = np.column_stack([ey * n + ex, ey * n + exp,
                                          eyp * n + ex, eyp * n + exp]).astype(np.int32)
        self.is_torus = True


class DomainMesh(_UniformGrid):
    """Uniform n x n grid of the unit square with boundary structure.

    Boundary nodes are stored counterclockwise starting at (0,0); each has
    an arc-length coordinate s = k*h, a lumped arc weight h, and a unit
    outward normal (NaN at the four corners, which carry no normal).
    """

    def __init__(self, n):
        self.n = n = self._cells_per_axis(n)
        self.d = 2
        self.h = 1.0 / n
        N = n + 1
        self.nnodes = N * N
        self.nelem = n * n
        ix, iy = np.meshgrid(np.arange(N), np.arange(N), indexing="xy")
        self.nodes = np.column_stack([ix.ravel() * self.h, iy.ravel() * self.h])
        ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        ex, ey = ex.ravel(), ey.ravel()
        self.elem_dofs = np.column_stack([ey * N + ex, ey * N + ex + 1,
                                          (ey + 1) * N + ex, (ey + 1) * N + ex + 1]).astype(np.int32)
        self.is_torus = False

        ks = np.arange(n)
        bottom = ks                       # (k, 0)
        right = ks * N + n                # (n, k)
        top = n * N + (n - ks)            # (n-k, n)
        left = (n - ks) * N               # (0, n-k)
        self.boundary_nodes = np.concatenate([bottom, right, top, left]).astype(np.int64)
        self.n_boundary = 4 * n
        self.boundary_s = np.arange(4 * n) * self.h
        self.arc_weights = np.full(4 * n, self.h)
        self.corner_positions = np.array([0, n, 2 * n, 3 * n])
        self.normals = np.repeat([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], n, axis=0)
        self.normals[self.corner_positions] = np.nan
        self.noncorner_mask = np.arange(4 * n) % n != 0

        bmask = np.zeros(self.nnodes, dtype=bool)
        bmask[self.boundary_nodes] = True
        self.boundary_mask = bmask
        self.interior_nodes = np.flatnonzero(~bmask)

    def nearest_node(self, pt):
        """Index of the mesh node closest to the point pt, the lowest on a tie,
        as an argmin over all nodes gives.  The squared distance is a sum of
        one term per axis, and rounding keeps that sum monotone in each, so the
        search runs over one row and one column of the grid."""
        x, y = np.asarray(pt, dtype=float)
        axis = np.arange(self.n + 1) * self.h
        dx2, dy2 = (axis - x) ** 2, (axis - y) ** 2
        best = dx2.min() + dy2.min()
        row = int(np.argmax(dx2.min() + dy2 == best))
        return row * (self.n + 1) + int(np.argmax(dx2 + dy2[row] == best))

    def dist_to_boundary(self, pts):
        pts = np.asarray(pts)
        return np.min(np.stack([pts[..., 0], 1.0 - pts[..., 0],
                                pts[..., 1], 1.0 - pts[..., 1]]), axis=0)

    def line_dist(self):
        """min(t, 1 - t) of the n + 1 grid lines t = k h, (n + 1,): a node's
        dist_to_boundary is the smaller of its row's and its column's, so
        np.minimum.outer of this with itself gives every node's, bit for
        bit, with no table of points."""
        return _edge_dist(self.nodes[:self.n + 1, 0])


def _edge_dist(t):
    """Distance of coordinates t in [0, 1] to the nearer end, min(t, 1 - t)."""
    return np.minimum(t, 1.0 - t)


def _nodal(mesh, values):
    """values as a float (nnodes, m) table; an (nnodes,) table is one column."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != mesh.nnodes:
        raise ValueError(f"field has {vals.shape[0]} values for {mesh.nnodes} nodes")
    return vals


def _dofs(nodes, m):
    """The dofs of nodes, node-major: node * m + component."""
    return (np.asarray(nodes)[:, None] * m + np.arange(m)).ravel()


def write_nodal_csv(mesh, values, path):
    """Write a nodal table as rows node_x,node_y,component,value, component-major;
    every number is the shortest repr that reads back to the same float."""
    vals = _nodal(mesh, values)
    with open(path, "w") as fh:
        fh.write("node_x,node_y,component,value\n")
        for a in range(vals.shape[1]):
            for node in range(mesh.nnodes):
                x, y = mesh.nodes[node]
                fh.write(f"{float(x)!r},{float(y)!r},{a},{float(vals[node, a])!r}\n")


def monomial_table(mesh, m):
    """Nodal tables of the linear data P_j^beta = x_j e_beta, shaped
    (d, m, nnodes, m) and indexed [j, beta, node, alpha] like the correctors."""
    P = np.zeros((mesh.d, m, mesh.nnodes, m))
    for j in range(mesh.d):
        for beta in range(m):
            P[j, beta, :, beta] = mesh.nodes[:, j]
    return P


# ---------------------------------------------------------------------------
# assembly


# rows per block of the one-copy principal submatrix
_SUBMATRIX_ROWS = 1 << 14


def _principal_submatrix(K, keep):
    """K[keep][:, keep] of a CSR matrix K for sorted indices keep, with the
    data, indices and indptr of that two-step slice, in one copy: the slice
    copies K's kept rows whole before it drops their columns.  The kept
    rows are read in blocks, and a column remap, -1 off keep, marks each
    entry of a block as kept or dropped, once to count the kept entries of
    each row and once to copy them into arrays of their final size, made
    between the two passes."""
    index = K.indices.dtype
    remap = np.full(K.shape[1], -1, dtype=index)
    remap[keep] = np.arange(keep.size, dtype=index)
    blocks = [keep[a:a + _SUBMATRIX_ROWS] for a in range(0, keep.size, _SUBMATRIX_ROWS)]

    def kept(rows):
        """(first entry, column remap, kept mask) of the entries from the
        first to the last of rows, of those rows only."""
        lo, hi = K.indptr[rows[0]], K.indptr[rows[-1] + 1]
        cols = remap[K.indices[lo:hi]]
        ok = np.repeat(remap[rows[0]:rows[-1] + 1] >= 0, np.diff(K.indptr[rows[0]:rows[-1] + 2]))
        ok &= cols >= 0
        return lo, cols, ok

    indptr = np.zeros(keep.size + 1, dtype=index)
    at = 1
    for rows in blocks:
        lo, _, ok = kept(rows)
        # each row's length less its dropped entries, which are few, each
        # counted in the kept row it falls in (none in a dropped row)
        starts, ends = K.indptr[rows] - lo, K.indptr[rows + 1] - lo
        bad = np.flatnonzero(~ok)
        row = np.searchsorted(starts, bad, side="right") - 1
        indptr[at:at + rows.size] = (ends - starts
                                     - np.bincount(row[bad < ends[row]], minlength=rows.size))
        at += rows.size
    np.cumsum(indptr, out=indptr)
    data, indices = np.empty(indptr[-1], dtype=K.dtype), np.empty(indptr[-1], dtype=index)
    end = 0
    for rows in blocks:
        lo, cols, ok = kept(rows)
        out = slice(end, end + np.count_nonzero(ok))
        data[out], indices[out] = K.data[lo:lo + ok.size][ok], cols[ok]
        end = out.stop
    return sp.csr_matrix((data, indices, indptr), shape=(keep.size, keep.size))


class AssembledOperator:
    """Sparse matrix of the form integral a_ij^{ab} dU^b/dx_j dV^a/dx_i.

    mode 'dirichlet' eliminates boundary dofs at solve time; mode 'neumann'
    pins the boundary mean of each component; mode 'periodic' pins the
    volume mean on the torus.  Each mode has one solve: the Solver of its
    constrained system (factorization(), through a transform, a cell
    template or a sparse LU), which checks the residual of every column it
    solves.  The solver is cached behind the handle; release() frees it (an
    LU is large at fine resolution).  cells is the side c of the block of
    c x c elements that assemble evaluated the coefficient on, which
    element (ey, ex) reads as (ey mod c, ex mod c): 1 for a constant, the
    cells per period of an aligned eps-periodic field, n otherwise.
    coeff_mean is the (2, 2, m, m) mean of the coefficient over the Gauss
    points of that block, the cell mean when the mesh holds whole periods;
    it sets the transform that solves a variable Neumann coefficient
    outside the cell template rule, which has no other solve.  symmetric is
    coeff.symmetric_table of that block table (A* = A); in_mode keeps it,
    and an adjoint() other than self is not.

    blocks is None, or for a decoupled operator (m > 1, every a^{ab},
    a != b, exactly zero in the block table; coeff.diagonal_blocks) one
    (components, operator) pair per distinct diagonal block: the m = 1
    operator of coeff.component_field in the same mode, assembled from the
    same table, and the components whose a^{aa} equal it.  assemble decides
    it; in_mode and adjoint carry it over.  matrix is the whole interleaved
    matrix either way.

    element_matrices is None, or the (c * c, 4, m, 4, m) element matrices
    of that block, which the cell template reads: assemble keeps them on an
    operator whose block the template rule admits (_template_admits) and
    that is not solved block by block, in either mode of the square, and
    in_mode and adjoint carry them over, so no set-up evaluates the
    coefficient again.  The operators that in_mode makes of one assembly
    also share the template's levels below its top (_template_levels):
    release(shared=False) frees an operator's own solver and keeps them
    for the other mode, release() frees them too.
    """

    def __init__(self, mesh, matrix, mode, coeff, coeff_mean, cells, symmetric, blocks=None,
                 element_matrices=None, shared=None):
        self.mesh = mesh
        self.matrix = matrix
        self.mode = mode
        self.coeff = coeff
        self.coeff_mean = coeff_mean
        self.cells = cells
        self.symmetric = symmetric
        self.blocks = blocks
        self.element_matrices = element_matrices
        # what the operators that in_mode makes of one assembly share: the
        # levels of its cell template (_template_levels)
        self._shared = {} if shared is None else shared
        self._solver = None
        self._interior_dofs = None
        self._boundary_dofs = None
        self._Kii = None

    @property
    def m(self):
        return self.coeff.m

    @property
    def ndof(self):
        return self.mesh.nnodes * self.m

    def dof_split(self):
        """(interior dofs sorted, boundary dofs in boundary order)."""
        if self._interior_dofs is None:
            bd = _dofs(self.mesh.boundary_nodes, self.m)
            mask = np.zeros(self.ndof, dtype=bool)
            mask[bd] = True
            self._boundary_dofs = bd
            self._interior_dofs = np.flatnonzero(~mask)
        return self._interior_dofs, self._boundary_dofs

    def interior_matrix(self):
        """K_ii, the CSR block of the interior dofs, cached until release()."""
        if self._Kii is None:
            self._Kii = _principal_submatrix(self.matrix.tocsr(), self.dof_split()[0])
        return self._Kii

    def release(self, shared=True):
        """Free the solver and K_ii, and with shared also what the
        operators of this assembly share (the cell template's levels), of
        the blocks too."""
        self._solver = None
        self._Kii = None
        if shared:
            self._shared.clear()
        for _, block in self.blocks or ():
            block.release(shared)

    def in_mode(self, mode):
        """The operator of the same matrix, coefficient and blocks in another
        constraint mode, so nothing is assembled again; it shares the cell
        template's levels with this one."""
        blocks = None if self.blocks is None else tuple(
            (comps, op.in_mode(mode)) for comps, op in self.blocks)
        return AssembledOperator(self.mesh, self.matrix, mode, self.coeff, self.coeff_mean,
                                 self.cells, self.symmetric, blocks, self.element_matrices,
                                 self._shared)

    def adjoint(self):
        """The operator of the adjoint coefficient A* in the same mode: self
        when op.symmetric, otherwise the transposed matrix, which
        is what assembling A* gives (to roundoff), so nothing is assembled;
        each block is its block's adjoint, and each element matrix its
        transpose."""
        if self.symmetric:
            return self
        blocks = None if self.blocks is None else tuple(
            (comps, op.adjoint()) for comps, op in self.blocks)
        Kloc = self.element_matrices
        return AssembledOperator(self.mesh, self.matrix.T.tocsr(), self.mode, self.coeff.adjoint(),
                                 self.coeff_mean.transpose(1, 0, 3, 2), self.cells, False, blocks,
                                 None if Kloc is None else Kloc.transpose(0, 3, 4, 1, 2))

    def _factor(self, matrix):
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")

    def factorization(self):
        """Cached Solver of the constrained system, whose .solve(b) takes
        and returns the operator's dofs (its interior dofs in mode
        'dirichlet'), 1-D or 2-D, and raises SolveError unless every column
        meets the residual rule.

        This is the one place where the solver's exact part is picked;
        Solver(op, part) only checks what the part solves.  A decoupled
        operator (blocks not None) gets a _BlockSolver, which holds the
        factorization() of each block's m = 1 operator.  A Neumann
        operator must be symmetric (op.symmetric), or ValueError is raised.
        A variable operator whose block _template_admits, Dirichlet or
        Neumann, is solved by its _CellTemplate, on the levels that the
        operators of its assembly share (_template_levels).  Any other
        Neumann operator is solved by the _Transform of its constant
        tensor, at any period, or of coeff_mean, which a variable one must
        have (coeff_mean None raises ValueError).  A constant tensor whose
        constrained block is symmetric takes its _Transform in the
        'dirichlet' and 'periodic' modes too.  Every other operator goes
        through a sparse LU of _factor: the _BorderedLU on the torus, the
        _LU of K_ii on the square.
        """
        if self._solver is None and self.blocks is not None:
            self._solver = _BlockSolver(self)
        if self._solver is not None:
            return self._solver
        if self.mode == "neumann" and not self.symmetric:
            raise ValueError("a Neumann operator needs a symmetric coefficient (A* = A)")
        tensor = _constant_tensor(self.coeff)
        if tensor is None and _template_admits(self.mesh, self.cells):
            part = _CellTemplate(self, self.cells)
        elif self.mode == "neumann":
            tensor = self.coeff_mean if tensor is None else tensor
            if tensor is None:
                raise ValueError("a Neumann operator outside the cell template rule is solved "
                                 "by transform; it needs a tensor (its constant value or "
                                 "coeff_mean)")
            part = _Transform(self, tensor)
        elif tensor is not None and _symmetric_block(tensor):
            part = _Transform(self, tensor)
        else:
            part = _BorderedLU(self) if self.mode == "periodic" else _LU(self)
        self._solver = Solver(self, part)
        return self._solver

    def _template_levels(self, c):
        """The levels below the top of the cell template of c cells per
        period (_TemplateLevels), built by the first operator of this
        assembly that needs them and shared by every operator that in_mode
        makes of it, until a release() that frees them."""
        if "levels" not in self._shared:
            self._shared["levels"] = _TemplateLevels(self, c)
        return self._shared["levels"]


def _pin_weights(mesh):
    """(nodes, weights) of the mean pin: every torus node with weight h^2,
    or the square's boundary nodes with their arc weights."""
    if mesh.is_torus:
        return np.arange(mesh.nnodes), np.full(mesh.nnodes, mesh.h ** 2)
    return mesh.boundary_nodes, mesh.arc_weights


# Solver's residual rule, _RTOL |b| or the roundoff floor _FLOOR max|K| |x|
# (smooth data at n = 1024 reaches only ~3e-11 relative), and its cap on the
# conjugate-gradient steps behind a transform
_RTOL = 1e-12
_FLOOR = 1e-14
_TRANSFORM_MAXITER = 200


def _constant_tensor(coeff):
    """The (2, 2, m, m) tensor of a constant coefficient, at any period, or None."""
    if coeff.family != "constant" or "value" not in coeff.params:
        return None
    return np.asarray(coeff.params["value"], dtype=float)


def _symmetric_block(tensor):
    """Whether the constrained block of a constant tensor (K_ii on the
    square, K on the torus) is symmetric.

    On the interior dofs, and on every torus dof, the a_12 and a_21 terms
    assemble to the same symmetric matrix, so the block is symmetric
    exactly when a_11, a_22 and a_12 + a_21 are symmetric m x m matrices;
    always for m = 1.
    """
    parts = np.stack([tensor[0, 0], tensor[1, 1], tensor[0, 1] + tensor[1, 0]])
    return np.abs(parts - parts.transpose(0, 2, 1)).max() <= 1e-14 * np.abs(tensor).max()


def _ratio(num, den):
    """num / den per column, 0 where den is 0 (a column with zero residual)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


# where the cell template was measured to beat the sparse LU (set-up and a
# 19-column solve, one BLAS thread, m = 1 and 2, c = 2..32, 2 to 128 periods
# per side): at most 32 cells per period, the largest measured; at least 32
# cells per side (n = 16, c = 8: 2-3 ms against 1 ms); and n >= c^2/4
# (c = 16 on 2 periods: 7-26 ms against 3-7 ms; c = 32 on 2 periods: 29-123
# ms against 15-50 ms).  With base blocks of at most 16 cells and a factored
# top, the bound is conservative for c = 32: on n = 128 the template took
# 36 ms against 79 ms (m = 1) and 140 ms against 489 ms (m = 2), and on
# n = 256 97 ms against 472 ms and 334 ms against 3.4 s
_TEMPLATE_MAX_CELLS = 32
_TEMPLATE_MIN_N = 32


def _template_admits(mesh, c):
    """The cell template rule: whether the square mesh holds blocks of c
    cells (op.cells, the block that assemble evaluated the coefficient on)
    that a cell template solves, in either mode: 2 <= c <= 32, n >=
    max(32, c^2/4) cells per side, and 2^k x 2^k blocks, k >= 1."""
    n = mesh.n
    if mesh.is_torus or not 2 <= c <= _TEMPLATE_MAX_CELLS or n < max(_TEMPLATE_MIN_N, c * c / 4):
        return False
    periods = n // c
    return periods >= 2 and periods & (periods - 1) == 0


def _block_nodes(s, cell):
    """(ring, eliminated) local nodes of a block of s x s cells, whose
    (s + 1)^2 nodes are numbered row by row: the cell eliminates its
    interior, a larger block the cross where its four children meet."""
    ix, iy = np.divmod(np.arange((s + 1) ** 2), s + 1)[::-1]
    ring = (ix % s == 0) | (iy % s == 0)
    inside = ~ring if cell else ~ring & ((ix == s // 2) | (iy == s // 2))
    return np.flatnonzero(ring), np.flatnonzero(inside)


# the four children of a block, (dy, dx), in the order of _child_maps
_CHILDREN = ((0, 0), (0, 1), (1, 0), (1, 1))


def _child_maps(s, ring, eliminated, child_ring, m):
    """For each child of a block of side s, the positions of its ring dofs
    in the block's [ring, eliminated] dofs."""
    half = s // 2
    pos = np.empty((s + 1) ** 2, dtype=np.int64)
    pos[np.concatenate([ring, eliminated])] = np.arange(ring.size + eliminated.size)
    cy, cx = np.divmod(child_ring, half + 1)
    return [_dofs(pos[(cy + dy * half) * (s + 1) + cx + dx * half], m) for dy, dx in _CHILDREN]


def _interior_positions(n, s, local, m, q):
    """Rows of K_ii (the interior dofs of the mesh of side n, sorted) of the
    local nodes of every block of side s, by class: (q, q, local.size * m,
    k, k), k = n / (s q), indexed [py, px, dof, ky, kx] for the block
    (ky q + py, kx q + px), at offset ((kx q + px) s, (ky q + py) s)."""
    blocks = np.arange(n // s) * s
    ly, lx = np.divmod(local, s + 1)
    node = (blocks[:, None] + ly[:, None, None] - 1) * (n - 1) + blocks + lx[:, None, None] - 1
    rows = (node[:, None] * m + np.arange(m)[:, None, None]).reshape(-1, n // s // q, q,
                                                                     n // s // q, q)
    return np.ascontiguousarray(rows.transpose(2, 4, 0, 1, 3))


def _class_children(a, q):
    """For each child (dy, dx) of _CHILDREN, the view of a [class y, class
    x, ...] of 2q x 2q classes at child class (2 py + dy, 2 px + dx) of
    every class (py, px) of q x q: [py, px, ...]."""
    a = a.reshape(q, 2, q, 2, *a.shape[2:])
    return [a[:, dy, :, dx] for dy, dx in _CHILDREN]


def _block_children(a):
    """For each child (dy, dx) of _CHILDREN, the view of a [1, 1, dof, by,
    bx, column], one class of 2k x 2k blocks, at child block (2 ky + dy,
    2 kx + dx) of every block (ky, kx) of k x k: [1, 1, dof, ky, kx,
    column]."""
    k = a.shape[3] // 2
    a = a.reshape(*a.shape[:3], k, 2, k, 2, a.shape[-1])
    return [a[:, :, :, :, dy, :, dx] for dy, dx in _CHILDREN]


def _subtract_product(x, W, y):
    """x -= W @ y for each class of x, [class y, class x, dof, column], in
    x's own memory: one gemm per class with beta = 1 on the transposes, so
    no product of x's size is allocated.  BLAS updates x[cls].T in place
    only when it is a Fortran-ordered float64 array (a C-ordered x, as
    matmul returns); any other x takes the plain update, since f2py would
    work on a copy and drop the result."""
    for cls in np.ndindex(W.shape[:2]):
        xt = x[cls].T
        if xt.dtype == np.float64 and xt.flags.f_contiguous:
            scipy.linalg.blas.dgemm(-1.0, y[cls].T, W[cls].T, 1.0, xt, overwrite_c=True)
        else:
            x[cls] -= W[cls] @ y[cls]


# the side, in cells, of the largest block that the cell template
# eliminates densely from the element matrices: a period of more cells is
# split into (c / b)^2 base classes of b cells
_TEMPLATE_BASE_CELLS = 16

# one level of the cell template: the K_ii rows of the dofs each of its
# blocks eliminates, [class y, class x, dof, by, bx], the children's ring
# positions in its [ring, eliminated] dofs (None for the base), its ring's
# dof count, and per class A_EE^-1, A_EE^-1 A_ER and A_RE
_Level = namedtuple("_Level", "elim maps nR inv W A_RE")


def _children(a, q):
    """The four children's views of a level's data a [class y, class x,
    dof, by, bx, ...] for a parent level of q x q classes: by class while
    the child level has more classes, else by block."""
    return _class_children(a, q) if a.shape[0] > q else _block_children(a)


class _TemplateLevels:
    """The levels of a cell template below its top, which no mode changes:
    K_ii of an operator whose coefficient repeats in every period of c
    cells, on a mesh of 2^k x 2^k periods, eliminated block by nested
    block up to the four quadrants of the mesh.  No block below the top
    holds a boundary node in its eliminated set, so the same levels serve
    the Dirichlet and the Neumann operator of one assembly
    (AssembledOperator._template_levels), and only the top differs
    (_CellTemplate).

    Level 0 is the base block of b cells, b = c halved while it is even and
    above 16, and each level above it doubles the side up to the
    quadrants, of side n / 2.  A block's class is its index mod c / s
    along each axis, (c / s)^2 classes at a level of side s <= c and one
    above it.  Every block of a class has the same matrix, so one dense
    template per class and level serves them all (nested dissection whose
    fronts at one level are equal; George, SIAM J. Numer. Anal. 10, 1973).
    The template of a base class is the (b + 1)^2 m stiffness matrix of
    its b x b elements of the period, read from op.element_matrices (2-D
    stiffness does not depend on the element size), and it eliminates the
    (b - 1)^2 interior nodes.  A block of a higher level scatters its four
    children's Schur complements onto its ring plus the cross where they
    meet, and eliminates the cross.  Each level keeps, per class, for its
    eliminated dofs E and ring dofs R, A_EE^-1, A_EE^-1 A_ER and A_RE; the
    quadrants' Schur complement on their ring, schur (one class), is kept
    for the tops.

    condense(B) takes data on the interior dofs (K_ii's rows) up the
    levels, and substitute() takes the quadrants' ring values back down,
    each step one matmul, batched over the classes, over every block of a
    level and every column.  The template holds only for a matrix that
    repeats its first period in every period, as assemble's matrix of
    op.cells = c does; the Solver's residual check is what catches one
    that does not.
    """

    def __init__(self, op, c):
        m, n = op.m, op.mesh.n
        b = c
        while b > _TEMPLATE_BASE_CELLS and b % 2 == 0:
            b //= 2
        self.levels = []
        s, ring, schur = b, None, None
        while s < n:
            q = max(c // s, 1)                            # classes per side
            child_ring = ring
            ring, elim = _block_nodes(s, cell=schur is None)
            nR, maps = ring.size * m, None
            if schur is None:
                M = self._base(op, c, b, np.concatenate([ring, elim]))
            else:
                maps = _child_maps(s, ring, elim, child_ring, m)
                M = np.zeros((q, q) + (nR + elim.size * m,) * 2)
                parts = _class_children(schur, q) if schur.shape[0] > q else [schur] * 4
                for mp, part in zip(maps, parts):
                    M[..., mp[:, None], mp] += part
            inv = np.linalg.inv(M[..., nR:, nR:])
            W = inv @ M[..., nR:, :nR]
            A_RE = M[..., :nR, nR:].copy()
            # M is freed before the product is made (75 MiB at the
            # quadrants of n = 1024)
            schur = M[..., :nR, :nR].copy()
            del M
            schur -= A_RE @ W
            self.levels.append(_Level(_interior_positions(n, s, elim, m, q), maps, nR, inv, W,
                                      A_RE))
            s *= 2
        self.ring, self.schur = ring, schur[0, 0]

    @staticmethod
    def _base(op, c, b, order):
        """The stiffness matrices of the base classes, (c/b, c/b, N, N),
        rows and columns the dofs of the local nodes order of a block of
        b x b cells: class (py, px) holds the period's elements (py b + iy,
        px b + ix), 0 <= iy, ix < b."""
        m, q = op.m, c // b
        Kloc = op.element_matrices
        if Kloc is None:
            # an operator built by hand, not by assemble
            Kloc = _element_matrices(op.coeff(op.mesh.period_gauss_points(c)))
        Kc = Kloc.reshape(q, b, q, b, 4, m, 4, m).swapaxes(1, 2)
        dofs, cell = _dofs(order, m), DomainMesh(b)
        return np.array([[_stencil_matrix(cell, Kc[py, px].reshape(b * b, 4, m, 4, m), b)
                          .toarray()[np.ix_(dofs, dofs)] for px in range(q)] for py in range(q)])

    def condense(self, B):
        """The upward pass over B (K_ii rows, ncols): (each level's
        A_EE^-1 z, in order, and the condensed data on the quadrants'
        rings, [1, 1, dof, 2, 2, column])."""
        ncols = B.shape[1]
        upward, g = [], None
        for elim, maps, nR, inv, W, A_RE in self.levels:
            q, k = elim.shape[0], elim.shape[-1]
            z = B[elim]                        # [class y, class x, dof, by, bx, column]
            if maps is not None:
                # the children's condensed data, on this block's ring and cross
                zRE = np.concatenate([np.zeros((q, q, nR, k, k, ncols)), z], axis=2)
                for mp, child in zip(maps, _children(g, q)):
                    zRE[:, :, mp] += child
                z = zRE[:, :, nR:]
            u = inv @ z.reshape(q, q, z.shape[2], -1)
            upward.append(u)
            g = -(A_RE @ u) if maps is None else zRE[:, :, :nR].reshape(q, q, nR, -1) - A_RE @ u
            g = g.reshape(q, q, nR, k, k, ncols)
        return upward, g

    def substitute(self, upward, xR, X):
        """The back substitution from the quadrants' ring values xR [1, 1,
        dof, 2 * 2 * column]: each level's eliminated dofs into X (K_ii
        rows), updating condense's upward in place (_subtract_product)."""
        ncols = X.shape[1]
        for i in range(len(self.levels) - 1, -1, -1):
            elim, maps, nR, inv, W, A_RE = self.levels[i]
            x = upward.pop()                   # freed once it is in X and the children's rings
            _subtract_product(x, W, xR)
            X[elim] = x.reshape(*elim.shape, ncols)
            if maps is not None:
                # this block's ring and cross, read onto each child's ring
                q, k = elim.shape[0], elim.shape[-1]
                xRE = np.concatenate([xR, x], axis=2).reshape(q, q, -1, k, k, ncols)
                cq, _, _, ck, _ = self.levels[i - 1].elim.shape
                child = np.empty((cq, cq, maps[0].size, ck, ck, ncols))
                for mp, view in zip(maps, _children(child, q)):
                    view[...] = xRE[:, :, mp]
                xR = child.reshape(cq, cq, maps[0].size, -1)


class _ExactPart:
    """What a Solver asks of its exact part: solve(B), the solution for B
    (ndof, ncols) without a residual check, leaving B as it is; name, for
    messages; steps, the cap on the conjugate-gradient steps preconditioned
    by solve that may follow it, 0 for a direct part, whose miss raises at
    once (K_ii of a non-symmetric coefficient is not SPD, so conjugate
    gradients cannot repair it); and balanced, whether solve takes the data
    less the part the pin's multiplier absorbs (Solver._balanced)."""

    steps = 0
    balanced = True


class _CellTemplate(_ExactPart):
    """The exact part of a variable operator that _template_admits, in
    place of a sparse LU: the shared levels of its assembly
    (_TemplateLevels) below a top of its own mode, the whole mesh, which
    joins the four quadrants.

    The top of a Dirichlet operator keeps only the cross where the
    quadrants meet, since its ring is the Dirichlet boundary: the
    quadrants' Schur complements scattered onto the cross, factored by LU
    with partial pivoting.  The top of a Neumann operator solves on all
    (n + 1)^2 nodes and never forms the dense system of the boundary ring
    plus the cross: each quadrant first eliminates its own stretch of the
    boundary (the dofs of its ring that no other quadrant holds) from the
    quadrants' Schur complement S, by the Cholesky factor L of that block
    of S (a Neumann operator is symmetric) and Y = L^-1 S_ER, and what is
    left, the cross with its four boundary ends, is factored by LU bordered
    by each component's constants, which K cannot see.  The bordered
    system takes balanced data (the Solver's) as it stands, and its
    solution has zero sum over the cross per component; the Solver shifts
    it to zero boundary mean.

    solve(B) takes the operator's dofs, K_ii's rows for Dirichlet and all
    nodes for Neumann: the levels condense B's interior rows, the top
    solves with their condensed data on the quadrants' rings, and the
    levels substitute back.
    """

    def __init__(self, op, c):
        n, m = op.mesh.n, op.m
        self.name = (f"the cell template of {c} cells per period (which holds only for a "
                     "coefficient that repeats in every period)")
        self._shared = shared = op._template_levels(c)
        self._levels = shared.levels
        ring, cross = _block_nodes(n, cell=False)
        self._maps, self._nR = _child_maps(n, ring, cross, shared.ring, m), ring.size * m
        self._cross = _interior_positions(n, n, cross, m, 1).ravel()
        nR, S = self._nR, shared.schur
        if op.mode == "dirichlet":
            self._inter = None
            # Fortran order, so the LU overwrites it instead of a copy
            M = np.zeros((cross.size * m,) * 2, order="F")
            for mp in self._maps:
                keep = np.flatnonzero(mp >= nR)
                at = mp[keep] - nR
                M[at[:, None], at] += S[keep[:, None], keep]
            self._top = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)
            return
        # the top block's local nodes are the mesh's own
        self._m, self._inter, self._ring = m, op.dof_split()[0], _dofs(ring, m)
        iy, ix = np.divmod(ring, n + 1)
        ends = np.flatnonzero((ix == n // 2) | (iy == n // 2))
        # the cross with its four boundary ends, by position in [ring, cross]
        self._tpos = np.concatenate([_dofs(ends, m), nR + np.arange(cross.size * m)])
        at = np.full(nR + cross.size * m, -1)
        at[self._tpos] = np.arange(self._tpos.size)
        T = np.zeros((self._tpos.size + m,) * 2, order="F")
        T[:-m, -m:] = self._tpos[:, None] % m == np.arange(m)
        T[-m:, :-m] = T[:-m, -m:].T
        self._quadrants = []
        for mp in self._maps:
            t = at[mp]
            e, r = np.flatnonzero(t < 0), np.flatnonzero(t >= 0)
            L = scipy.linalg.cholesky(S[np.ix_(e, e)], lower=True, check_finite=False)
            Y = scipy.linalg.solve_triangular(L, S[np.ix_(e, r)], lower=True, check_finite=False)
            T[np.ix_(t[r], t[r])] += S[np.ix_(r, r)] - Y.T @ Y
            self._quadrants.append((mp[e], t[r], L, Y))
        self._top = scipy.linalg.lu_factor(T, overwrite_a=True, check_finite=False)

    def solve(self, B):
        nR, ncols = self._nR, B.shape[1]
        inner = B if self._inter is None else B[self._inter]
        upward, g = self._shared.condense(inner)
        # the top's data on its [ring, cross]: its own and the quadrants'
        zRE = np.zeros((nR + self._cross.size, ncols))
        zRE[nR:] = inner[self._cross]
        if self._inter is not None:
            zRE[:nR] = B[self._ring]
        for mp, child in zip(self._maps, _block_children(g)):
            zRE[mp] += child[0, 0, :, 0, 0]
        xRE = self._dirichlet_top(zRE) if self._inter is None else self._neumann_top(zRE)
        X = np.empty_like(inner)
        X[self._cross] = xRE[nR:]
        xR = np.empty(g.shape)
        for mp, view in zip(self._maps, _block_children(xR)):
            view[0, 0, :, 0, 0] = xRE[mp]
        self._shared.substitute(upward, xR.reshape(1, 1, g.shape[2], -1), X)
        if self._inter is None:
            return X
        full = np.empty_like(B)
        full[self._inter], full[self._ring] = X, xRE[:nR]
        return full

    def _dirichlet_top(self, zRE):
        """[ring, cross] values of the Dirichlet top: zero on the ring."""
        xRE = np.zeros_like(zRE)
        xRE[self._nR:] = scipy.linalg.lu_solve(self._top, zRE[self._nR:], check_finite=False)
        return xRE

    def _neumann_top(self, zRE):
        """[ring, cross] values of the Neumann top: the quadrants' stretches
        condensed onto the cross and its ends, the bordered solve there, and
        the stretches back."""
        m, zT = self._m, zRE[self._tpos]
        w = []
        for e, t, L, Y in self._quadrants:
            w.append(scipy.linalg.solve_triangular(L, zRE[e], lower=True, check_finite=False))
            zT[t] -= Y.T @ w[-1]
        xT = scipy.linalg.lu_solve(self._top, np.concatenate([zT, np.zeros((m, zT.shape[1]))]),
                                   check_finite=False)[:-m]
        xRE = np.empty_like(zRE)
        xRE[self._tpos] = xT
        for (e, t, L, Y), we in zip(self._quadrants, w):
            we -= Y @ xT[t]
            xRE[e] = scipy.linalg.solve_triangular(L, we, lower=True, trans="T", check_finite=False)
        return xRE


class _Transform(_ExactPart):
    """The exact part of a constant tensor a on the uniform grid: the
    preconditioner P, the matrix of a without its mixed term, solved
    exactly.  On the grid's dofs, ordered [y, x, component], the Q1 matrix
    of a is a_11 K1(x) M1(y) + a_22 M1(x) K1(y) plus the mixed a_12 + a_21
    term, with K1 = tridiag(-1, 2, -1) and M1 = tridiag(1, 4, 1)/6
    (circulant on the torus; on the n + 1 nodes of a Neumann line their two
    end diagonal entries are halved).  A 1-D basis follows op.mode and
    diagonalizes K1 and M1: the orthonormal DST-I on the square's interior,
    the real DFT on the torus, and the orthonormal DCT-I on data scaled by
    W^{-1/2} for Neumann, where W = diag(1/2, 1, ..., 1, 1/2) and, on the
    cosine of angle theta, K1 v = (2 - 2 cos theta) W v and M1 v = ((4 + 2
    cos theta) / 6) W v.  So solve is a transform, one m x m solve per mode
    pair, and the transform back.  The mode pair (0, 0), the constants that
    K cannot see, passes through an identity block of the symbol; the
    balanced data leave it at roundoff.  a is the operator's constant
    tensor, or, for a variable Neumann coefficient outside the cell
    template rule, its Gauss-point mean (op.coeff_mean).  Whatever P leaves
    out (the mixed term, the variation of the coefficient) is taken up by
    the Solver's conjugate gradients, at most _TRANSFORM_MAXITER steps
    batched over the columns; with nothing left out the first solve
    already meets the rule after one residual product.
    """

    name = "transform"

    def __init__(self, op, tensor):
        n, m = op.mesh.n, op.m
        self._m, self._scale, self.steps = m, None, _TRANSFORM_MAXITER
        # imported here, not with the module: scipy.fft adds ~55 ms and ~3 MiB
        # to the start-up of every process that never builds a transform
        from scipy import fft
        if op.mode == "periodic":
            theta = 2.0 * np.pi * np.arange(n) / n
            self._grid = (n, n, m)
            self._forward = functools.partial(fft.rfftn, axes=(0, 1), overwrite_x=True)
            self._backward = functools.partial(fft.irfftn, s=(n, n), axes=(0, 1), overwrite_x=True)
        else:
            transform = fft.dctn if op.mode == "neumann" else fft.dstn
            self._forward = self._backward = functools.partial(
                transform, type=1, axes=(0, 1), norm="ortho", overwrite_x=True)
            if op.mode == "neumann":
                theta = np.pi * np.arange(n + 1) / n
                self._grid = (n + 1, n + 1, m)
                s = np.ones(n + 1)
                s[[0, -1]] = np.sqrt(2.0)                  # W^{-1/2} on a line
                self._scale = np.multiply.outer(s, s)[:, :, None, None]
            else:
                theta = np.pi * np.arange(1, n) / n
                self._grid = (n - 1, n - 1, m)
        # eigenvalues of K1 and M1 on the mode of angle theta
        lam_k, lam_m = 2.0 - 2.0 * np.cos(theta), (4.0 + 2.0 * np.cos(theta)) / 6.0
        symbol = (np.einsum("y,x,ab->yxab", lam_m, lam_k, tensor[0, 0])
                  + np.einsum("y,x,ab->yxab", lam_k, lam_m, tensor[1, 1]))
        if op.mode != "dirichlet":
            if op.mode == "periodic":
                # the real DFT keeps the modes x <= n/2
                symbol = symbol[:, :n // 2 + 1]
            symbol[0, 0] = np.eye(m)
        self._inv = _symbol_inverse(symbol)

    def solve(self, B):
        """P^{-1} B, computed in a copy of B."""
        g = B.copy().reshape(*self._grid, -1)
        if self._scale is not None:
            g *= self._scale
        g = self._forward(g)
        if self._m == 1:
            g *= self._inv
        else:
            g[...] = self._inv @ g
        g = self._backward(g)
        if self._scale is not None:
            g *= self._scale
        return g.reshape(B.shape)


class _LU(_ExactPart):
    """The exact part of any other Dirichlet operator: the sparse LU that
    op._factor makes of K_ii."""

    name = "sparse LU"

    def __init__(self, op):
        self._lu = op._factor(op.interior_matrix())

    def solve(self, B):
        return self._lu.solve(B)


class _BorderedLU(_ExactPart):
    """The exact part of any other periodic operator: the sparse LU that
    op._factor makes of the bordered system [[K, C], [C^T, 0]], C the
    sparse (ndof, m) volume-mean pin columns, column a weighting component
    a.  It takes the data as given, with the zero constraint rows appended,
    since its multiplier takes off the part C absorbs by itself, and drops
    the multipliers from x."""

    name, balanced = "sparse LU", False

    def __init__(self, op):
        nodes, w = _pin_weights(op.mesh)
        m = self._m = op.m
        C = sp.csr_matrix((np.repeat(w, m), (_dofs(nodes, m), np.tile(np.arange(m), nodes.size))),
                          shape=(op.ndof, m))
        self._lu = op._factor(sp.bmat([[op.matrix, C], [C.T, None]], format="csc"))

    def solve(self, B):
        return self._lu.solve(np.concatenate([B, np.zeros((self._m, B.shape[1]))]))[:B.shape[0]]


class Solver:
    """Solves the constrained system of an operator by its exact part
    (_ExactPart), which factorization() picks, and checks the result:
    K_ii x = b on the square's interior (mode 'dirichlet'), the mean-zero
    x with K x = b - mean(b) on the torus (mode 'periodic'), or the x of
    zero boundary mean with K x = b - C (sum b / sum C) on the square (mode
    'neumann'), C the arc weights of the boundary nodes.

    On the torus and for Neumann, K vanishes on the constants of each
    component.  There is one rule for it: the data loses the part the
    multiplier of the bordered system [[K, C], [C^T, 0]] absorbs,
    b - C (sum b / sum C) per component with C the pin weights (h^2 per
    torus node, the arc weights on the boundary).  This is the torus's
    volume-mean pin; a Neumann solution is shifted to zero arc-weighted
    boundary mean at the end.

    Every column x is checked against one residual rule: |K x - b| is
    within 1e-12 |b|, b the data before the multiplier's part is removed,
    or within the roundoff floor 1e-14 max|K| |x|, with |x| less the mean
    of each component on the torus and for Neumann.  The columns that miss
    it after the part's solve go on by conjugate gradients preconditioned
    by that solve, at most part.steps of them; a column that still misses
    raises SolveError, so no caller checks a solution again.

    solve(b) solves only the columns that carry data.  A column of zeros
    (-0.0 included) has the zero solution in every mode: K_ii x = 0 for
    'dirichlet', and zero balanced data for the pinned solution on the
    torus and for Neumann.  So it comes back as +0.0, and the exact part
    sees only the other columns, as one contiguous batch, whose results
    are scattered back.  Data with a NaN or an infinity raise SolveError,
    naming the columns, before any work: no solve and no conjugate
    gradients.  Data of zero columns, (ndof, 0), give (ndof, 0).
    """

    def __init__(self, op, part):
        self._mode, self._m, self._part, self._pin = op.mode, op.m, part, None
        self._K = op.interior_matrix() if op.mode == "dirichlet" else op.matrix
        # max|K| with no |K| temporary, which would land on the part's set-up
        self._floor = _FLOOR * max(self._K.data.max(), -self._K.data.min())
        if op.mode != "dirichlet":
            nodes, w = _pin_weights(op.mesh)
            self._pin = nodes, w / w.sum()

    def _nodal(self, v):
        """v (ndof, ncols) as its (nnodes, m, ncols) view."""
        return v.reshape(-1, self._m, v.shape[1])

    def _balanced(self, B):
        """A copy of B (ndof, ncols) without the part the multiplier of the
        bordered system absorbs, B - C (sum B / sum C) per component."""
        nodes, w = self._pin
        total = self._nodal(B).sum(axis=0)
        B = B.copy()
        self._nodal(B)[nodes] -= w[:, None, None] * total
        return B

    def _residual(self, x, b, bnorm2):
        """(r = K x - b, columns that miss the residual rule)."""
        r = self._K @ x
        r -= b
        res2 = np.einsum("ij,ij->j", r, r)
        target = _RTOL ** 2 * bnorm2
        floor = self._floor ** 2 * np.einsum("ij,ij->j", x, x)
        by_floor = (res2 > target) & (res2 <= floor)
        if self._pin is not None and by_floor.any():
            # K cannot see the constant of each component, so a column that
            # meets only the floor must meet it with x less its mean: a
            # growing constant cannot pass the solve
            xc = self._nodal(x[:, by_floor])
            xc = xc - xc.mean(axis=0)
            floor[by_floor] = self._floor ** 2 * np.einsum("nac,nac->c", xc, xc)
        return r, ~(res2 <= np.maximum(target, floor))

    def solve(self, b):
        """x for b (ndof,) or (ndof, ncols): +0.0 on the columns of zeros,
        the others solved in one batch by _solve."""
        b = np.asarray(b, dtype=float)
        B = b.reshape(b.shape[0], -1)
        _refuse_non_finite(B, f"{self._mode} solve by {self._part.name}")
        live = B.any(axis=0)
        if live.size and live.all():
            return self._solve(B).reshape(b.shape)
        X = np.zeros_like(B)
        if live.any():
            # compress, not B[:, live], whose copy is column-major
            X[:, live] = self._solve(B.compress(live, axis=1))
        return X.reshape(b.shape)

    def _solve(self, B):
        """x for the (ndof, ncols) data B, every column nonzero: the exact
        part, the conjugate gradients it allows, and the residual rule,
        whose miss raises SolveError."""
        # the target scales with b before the multiplier's part is removed:
        # the load of a constant coefficient's discrepancy is mean-free only
        # to roundoff, and what is left of it past the mean is roundoff too
        bnorm2 = np.einsum("ij,ij->j", B, B)
        balanced = B if self._pin is None else self._balanced(B)
        x = self._part.solve(balanced if self._part.balanced else B)
        r, todo = self._residual(x, balanced, bnorm2)
        if todo.any():
            self._cg(x, r, todo, balanced, bnorm2)
        if self._mode == "neumann":
            # K x changes only by roundoff when a constant is added
            nodes, w = self._pin
            self._nodal(x)[...] -= np.einsum("p,pac->ac", w, self._nodal(x)[nodes])
        return x

    def _cg(self, x, r, todo, b, bnorm2):
        """At most part.steps conjugate-gradient steps from x (r = K x - b,
        unconverged columns todo), preconditioned by the part's solve, each
        updating x in place and recomputing the true residual, or SolveError."""
        steps, p = self._part.steps, None
        for _ in range(steps):
            z = self._part.solve(r)
            rz_new = np.einsum("ij,ij->j", r, z)
            if p is None:
                p = -z
            else:
                p *= _ratio(rz_new, rz)
                p -= z
            rz = rz_new
            del r, z
            pq = np.einsum("ij,ij->j", p, self._K @ p)
            x += _ratio(rz, pq) * p
            r, todo = self._residual(x, b, bnorm2)
            if not todo.any():
                return
        raise SolveError(f"{self._mode} solve by {self._part.name} failed its residual check on "
                         f"{todo.sum()} of {todo.size} columns after {steps} "
                         "conjugate-gradient steps")


def _symbol_inverse(symbol):
    """The inverse of each m x m block of a transform's symbol (..., m,
    m): 1 / symbol for m = 1, which is np.linalg.inv's bit for bit without
    its per-block set-up."""
    return 1.0 / symbol if symbol.shape[-1] == 1 else np.linalg.inv(symbol)


def _refuse_non_finite(B, what):
    """Raise SolveError, counting the columns of B (ndof, ncols) that hold
    a NaN or an infinity, unless there are none."""
    finite = np.isfinite(B).all(axis=0)
    if not finite.all():
        raise SolveError(f"{what} refused non-finite data in {finite.size - finite.sum()} of "
                         f"{finite.size} columns")


class _BlockSolver:
    """The Solver of a decoupled operator: the Solver of each distinct
    diagonal block's m = 1 operator (op.blocks), which checks the columns
    it solves by its own residual rule and solves only those that carry
    data: a column that loads one component leaves a column of zeros in
    every other component's block.  solve(b) takes the same dofs as
    Solver.solve, dof = node * m + component, and refuses non-finite data,
    counted in the caller's columns, before it splits them into blocks."""

    def __init__(self, op):
        self._m, self._mode = op.m, op.mode
        self._blocks = [(list(comps), block.factorization()) for comps, block in op.blocks]

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        _refuse_non_finite(b.reshape(b.shape[0], -1), f"{self._mode} solve block by block")
        B = b.reshape(b.shape[0] // self._m, self._m, -1)        # [node, component, column]
        X = np.empty_like(B)
        for comps, solver in self._blocks:
            data = B[:, comps]
            # a column whose data is the same in every component of the
            # block has the same solution in each: solve it once
            once = (data == data[:, :1]).all(axis=(0, 1))
            x = np.empty_like(data)
            try:
                if once.any():
                    x[:, :, once] = solver.solve(np.ascontiguousarray(data[:, 0, once]))[:, None]
                if not once.all():
                    rest = np.ascontiguousarray(data[:, :, ~once])
                    x[:, :, ~once] = solver.solve(rest.reshape(B.shape[0], -1)).reshape(rest.shape)
            except SolveError as err:
                raise SolveError(f"block of components {comps}: {err}") from err
            X[:, comps] = x
        return X.reshape(b.shape)


def coefficient_gauss_values(coeff, mesh):
    """coeff at the physical Gauss points of every element: (nelem, 4, 2, 2, m, m)."""
    vals = coeff(mesh.gauss_points().reshape(-1, 2))
    return np.asarray(vals).reshape(mesh.nelem, 4, 2, 2, coeff.m, coeff.m)


def _element_table(coeff, mesh, A_quad=None):
    """(c, A): the coefficient at the Gauss points of a block of c x c
    elements, (c * c, 4, 2, 2, m, m), that every element (ey, ex) of the
    mesh reads as its class (ey mod c, ex mod c).  It is read out of
    A_quad, coeff at every Gauss point of the mesh, when that is given,
    and evaluated otherwise.

    c is 1 for a constant field and mesh.period_cells(eps) for a field of
    period eps: every field repeats (coeff.CoefficientField), so one block
    holds all of its values.
    """
    c = 1 if coeff.family == "constant" else mesh.period_cells(coeff.epsilon)
    if A_quad is None:
        return c, coeff(mesh.period_gauss_points(c))
    n, table = mesh.n, A_quad.shape[1:]
    return c, A_quad.reshape(n, n, *table)[:c, :c].reshape(c * c, *table)


def _element_matrices(A):
    """The element stiffness matrices (nelem, 4, m, 4, m), indexed [e, p,
    a, q, b], of the Gauss values A (nelem, 4, 2, 2, m, m): physical
    gradients carry 1/h each, and the element volume h^2 cancels them in
    d = 2."""
    return np.einsum("g,egijab,gip,gjq->epaqb", GAUSS_WEIGHTS, A, DPHI, DPHI, optimize=True)


def _axis_runs(n, torus):
    """The runs of node coordinates i along one axis of the grid whose
    9-point rows are alike: the first node, the nodes inside, the last.
    Each is (start, stop, sides, pos, offsets): the sides s of a node that
    have an element (element i - 1 + s), in ascending element index; pos,
    the position of each neighbour i - 1, i, i + 1 among the distinct
    neighbours in ascending order (the column order of a CSR row); and
    those neighbours less i.  A torus of 2 nodes sees one neighbour twice."""
    side = n if torus else n + 1
    runs = []
    for start, stop in ((0, 1), (1, side - 1), (side - 1, side)):
        if stop <= start:
            continue
        elem, nb = [start - 1, start], [start - 1, start, start + 1]
        if torus:
            elem, nb = [e % n for e in elem], [j % n for j in nb]
        sides = sorted((s for s in (0, 1) if 0 <= elem[s] < n), key=elem.__getitem__)
        cols = sorted({j for j in nb if 0 <= j <= n})
        pos = [cols.index(j) if j in cols else None for j in nb]
        runs.append((start, stop, sides, pos, np.array(cols) - start))
    return runs


def _stencil_matrix(mesh, Kloc, c):
    """The CSR matrix of the uniform grid's 9-point pattern, rows and
    columns (node, component), from the element matrices Kloc (c * c, 4, m,
    4, m) of a block of c x c elements that element (ey, ex) reads as class
    (ey mod c, ex mod c).

    Each entry is the sum of its element contributions in ascending element
    index, as a COO sum of the elements in order gives it.  CSR order is
    grid line by grid line, node by node, each node's m rows of its
    neighbour blocks.  Over a run of lines and a run of nodes (_axis_runs)
    the rows are alike but for the element classes, so a run pair is one
    strided block: the rows of the classes of its first c lines and nodes
    are summed once and tiled over it.
    """
    n, m = mesh.n, Kloc.shape[2]
    side = n if mesh.is_torus else n + 1
    runs = _axis_runs(n, mesh.is_torus)
    Kc = Kloc.reshape(c, c, 4, m, 4, m)
    count = np.concatenate([np.full(stop - start, len(d)) for start, stop, _, _, d in runs])
    line_at = np.concatenate([[0], np.cumsum(m * m * count * count.sum())])
    node_at = np.concatenate([[0], np.cumsum(count)])
    nnz, ndof = int(line_at[-1]), side * side * m
    index = np.int32 if max(nnz, ndof) < 2 ** 31 else np.int64
    data, indices = np.empty(nnz), np.empty(nnz, dtype=index)
    for y0, y1, ysides, ypos, dy in runs:
        lines = slice(line_at[y0], line_at[y1])
        ky = y0 + np.arange(min(c, y1 - y0))
        for x0, x1, xsides, xpos, dx in runs:
            kx = x0 + np.arange(min(c, x1 - x0))
            # node (iy, ix) is local node (1 - sy, 1 - sx) of its element on
            # side (sy, sx), and its row gets local node (qy, qx) of it at
            # neighbour (sy + qy, sx + qx)
            rows = np.zeros((ky.size, kx.size, m, dy.size, dx.size, m))
            for sy in ysides:
                for sx in xsides:
                    Ke = Kc[:, :, 2 * (1 - sy) + 1 - sx][np.ix_((ky - 1 + sy) % c,
                                                                (kx - 1 + sx) % c)]
                    for q, (qy, qx) in enumerate(np.ndindex(2, 2)):
                        rows[:, :, :, ypos[sy + qy], xpos[sx + qx]] += Ke[:, :, :, q]
            rows = rows[:, np.arange(x1 - x0) % c].reshape(ky.size, -1)
            span = slice(m * m * dy.size * node_at[x0], m * m * dy.size * node_at[x1])
            block = data[lines].reshape(y1 - y0, -1)[:, span]
            for j in range(ky.size):
                block[j::c] = rows[j]
            # column (line + dy, node + dx) * m + component, line by line
            first = (((y0 + dy) * side)[:, None] + x0 + np.arange(x1 - x0)[:, None, None] + dx) * m
            first = np.broadcast_to(first[:, None, :, :, None] + np.arange(m),
                                    (x1 - x0, m, dy.size, dx.size, m))
            np.add(first.reshape(1, -1), (np.arange(y1 - y0) * side * m)[:, None],
                   out=indices[lines].reshape(y1 - y0, -1)[:, span], casting="unsafe")
    row_len = np.repeat((count[:, None] * count).ravel() * m, m)
    indptr = np.concatenate([np.zeros(1, dtype=index), np.cumsum(row_len, dtype=index)])
    return sp.csr_matrix((data, indices, indptr), shape=(ndof, ndof))


def assemble(coeff, mesh, mode="dirichlet") -> AssembledOperator:
    """Assemble the stiffness matrix of coeff on the mesh.

    coeff is a CoefficientField, evaluated at the physical Gauss points
    (at x/eps when it is rescaled); a constant tensor is passed as
    coeff.builtin("constant", value=..., m=...).  It is evaluated on one
    block of c x c elements that the mesh repeats (_element_table): one
    element of a constant, one period of a field rescaled to whole cells
    per period, the whole mesh otherwise; the operator records c as
    op.cells.  The element matrices of the block are summed straight into
    the grid's 9-point CSR pattern (_stencil_matrix), and coeff_mean is the
    block's mean, op.symmetric its symmetry (coeff.symmetric_table), and
    op.blocks, for a decoupled table (coeff.diagonal_blocks), the m = 1
    operator of each distinct diagonal block.  An under-resolved
    oscillation (h > eps/8) of a non-constant coefficient is reported by
    warnings.warn, not a failure; a rescaled constant does not oscillate.
    """
    if not isinstance(coeff, CoefficientField):
        raise TypeError(f"assemble takes a coefficient object, got {type(coeff).__name__}; "
                        'wrap a constant tensor as coeff.builtin("constant", value=..., m=...)')
    if mesh.is_torus:
        mode = "periodic"
    elif mode not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown constraint mode {mode!r}")
    return _operator(coeff, mesh, mode)


def _torus_operator(coeff, grid, A_quad):
    """assemble(coeff, grid) on the torus grid, from A_quad, coeff at every
    Gauss point of the grid (coefficient_gauss_values), which the cell
    holds: the block that assemble evaluates is read out of A_quad, so
    nothing is evaluated and the operator is assemble's bit for bit."""
    shape = (grid.nelem, 4, 2, 2, coeff.m, coeff.m)
    if not grid.is_torus:
        raise ValueError("the cell's operator is built on a torus grid")
    if A_quad.shape != shape:
        raise ValueError(f"A_quad must be coeff at every Gauss point of the grid, {shape}, "
                         f"got {A_quad.shape}")
    return _operator(coeff, grid, "periodic", A_quad)


def _operator(coeff, mesh, mode, A_quad=None):
    """What assemble and _torus_operator share: the operator of coeff's
    block table (_element_table), evaluated or read out of A_quad, with its
    symmetry and the blocks of a decoupled one (_blocks)."""
    eps = coeff.epsilon
    if eps is not None and coeff.family != "constant" and mesh.h > eps / 8.0 + 1e-14:
        warnings.warn(f"under-resolved oscillation: h={mesh.h:.4g} > eps/8={eps / 8.0:.4g}",
                      stacklevel=3)

    c, A = _element_table(coeff, mesh, A_quad)
    if not np.all(np.isfinite(A)):
        raise ValueError("coefficient evaluated to non-finite values")
    blocks = _blocks(coeff, mesh, mode, c, A)
    coeff_mean, symmetric = A.mean(axis=(0, 1)), symmetric_table(A)
    Kloc = _element_matrices(A)
    del A
    return _assembled(mesh, Kloc, mode, coeff, coeff_mean, c, symmetric, blocks)


def _assembled(mesh, Kloc, mode, coeff, coeff_mean, c, symmetric, blocks=None):
    """The operator of the element matrices Kloc of a block of c x c
    elements, which keeps them (element_matrices) for its cell template
    when the template rule admits the block and the operator is not solved
    block by block."""
    keep = blocks is None and _template_admits(mesh, c)
    return AssembledOperator(mesh, _stencil_matrix(mesh, Kloc, c), mode, coeff, coeff_mean, c,
                             symmetric, blocks, Kloc if keep else None)


def _blocks(coeff, mesh, mode, c, A):
    """op.blocks of the operator of coeff's block table A: None unless
    coeff.diagonal_blocks finds A decoupled, else the m = 1 operator of each
    distinct diagonal block, built from its slice of A as assemble builds
    it from coeff.component_field's own table (bit for bit), symmetric by
    that slice, with the components it serves."""
    groups = diagonal_blocks(A)
    if groups is None:
        return None
    blocks = []
    for a, comps in groups:
        Aa = np.ascontiguousarray(A[..., a:a + 1, a:a + 1])
        blocks.append((comps, _assembled(mesh, _element_matrices(Aa), mode, component_field(coeff, a),
                                         Aa.mean(axis=(0, 1)), c, symmetric_table(Aa))))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# load functionals (assembled right-hand-side vectors)


def element_gauss_values(mesh, values):
    """Nodal table (nnodes, ...) -> values at the element Gauss points (nelem, 4, ...)."""
    vals = np.asarray(values, dtype=float)
    # one gemm of the shape matrix over the node values gathered as
    # (4 local nodes, nelem ...)
    at_gauss = (PHI @ vals[mesh.elem_dofs.T].reshape(4, -1)).reshape(4, mesh.nelem, *vals.shape[1:])
    return np.ascontiguousarray(np.moveaxis(at_gauss, 0, 1))


def _scatter(mesh, loc):
    """Sum element contributions loc (nelem, 4 local nodes, m) into a dof vector."""
    m = loc.shape[2]
    dofs = (mesh.elem_dofs[:, :, None] * m + np.arange(m)).ravel()
    return np.bincount(dofs, weights=loc.ravel(), minlength=mesh.nnodes * m)


# 1-D Q1 stencils (sub-, main, super-diagonal, first and last diagonal on the
# square) per unit cell width: the mass matrix M, integral phi_a phi_b / h,
# and the derivative matrix C, row b of integral phi_a dphi_b/dx
_MASS = (1 / 6, 4 / 6, 1 / 6, 2 / 6, 2 / 6)
_DERIV = (0.5, 0.0, -0.5, -0.5, 0.5)
# and the stiffness matrix K1, h integral dphi_a/dx dphi_b/dx
_STIFF = (-1.0, 2.0, -1.0, 1.0, 1.0)


def _stencil(mesh, f, axis, stencil):
    """The 1-D stencil applied along axis (0 = y, 1 = x) of a node grid
    f [y, x, component]: tridiagonal on the square, circulant on the torus."""
    lo, mid, hi, first, last = stencil
    f = np.moveaxis(f, axis, 0)
    out = mid * f
    out[1:] += lo * f[:-1]
    out[:-1] += hi * f[1:]
    if mesh.is_torus:
        out[0] += lo * f[-1]
        out[-1] += hi * f[0]
    else:
        out[0] = first * f[0] + hi * f[1]
        out[-1] = lo * f[-2] + last * f[-1]
    return np.moveaxis(out, 0, axis)


def _node_grid(mesh, table):
    """A nodal table (nnodes, m) as a node grid [y, x, component], a view."""
    side = mesh.n if mesh.is_torus else mesh.n + 1
    return table.reshape(side, side, -1)


def volume_load(mesh, values):
    """Assemble v -> integral f . v for nodal values f, (nnodes, m).

    On the uniform grid this is h^2 (M (x) M) f with the 1-D mass stencil M,
    exact for the bilinear interpolant of f, so no element is visited."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != mesh.nnodes:
        raise ValueError(f"volume load takes nodal values ({mesh.nnodes}, m), got shape {vals.shape}")
    out = _stencil(mesh, _stencil(mesh, _node_grid(mesh, vals), 1, _MASS), 0, _MASS)
    out *= mesh.h ** 2
    return out.ravel()


def divergence_load(mesh, values):
    """Assemble v -> integral f_i^a dv^a/dx_i for nodal data f, (nnodes, 2, m).

    On the uniform grid this is h [(M (x) C) f_1 + (C (x) M) f_2], the first
    factor along y, with the 1-D mass and derivative stencils M and C; it is
    exact for the bilinear interpolant of f."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 3 or vals.shape[:2] != (mesh.nnodes, 2):
        raise ValueError(f"divergence load takes nodal data ({mesh.nnodes}, 2, m), got shape {vals.shape}")
    out = _stencil(mesh, _stencil(mesh, _node_grid(mesh, vals[:, 0]), 1, _DERIV), 0, _MASS)
    out += _stencil(mesh, _stencil(mesh, _node_grid(mesh, vals[:, 1]), 0, _DERIV), 1, _MASS)
    out *= mesh.h
    return out.ravel()


def volume_load_from_gauss(mesh, fg):
    """Assemble v -> integral f . v from Gauss-point values fg (nelem, 4, m)."""
    return _scatter(mesh, mesh.h ** 2 * np.einsum("g,ega,gp->epa", GAUSS_WEIGHTS, fg, PHI))


def divergence_load_from_gauss(mesh, fg):
    """Assemble v -> integral f_i^a dv^a/dx_i from Gauss values fg (nelem, 4, 2, m)."""
    return _scatter(mesh, mesh.h * np.einsum("g,egia,gip->epa", GAUSS_WEIGHTS, fg, DPHI))


def element_gauss_gradients(mesh, values):
    """Nodal table (nnodes, ...) -> bilinear gradients at Gauss points (nelem, 4, 2, ...)."""
    at_nodes = np.asarray(values, dtype=float)[mesh.elem_dofs]
    # one matmul per element: for one column it rounds as the einsum over
    # the local nodes did, which the cell's roundoff-level statistics
    # (b_mean_max, hatA_offdiag) keep to every printed digit
    grads = (DPHI.reshape(8, 4) @ at_nodes.reshape(mesh.nelem, 4, -1)).reshape(
        mesh.nelem, 4, 2, *at_nodes.shape[2:])
    grads /= mesh.h
    return grads


def point_load(mesh, node, beta=0, m=1):
    """Unit nodal load (point-evaluation functional) at a node."""
    vec = np.zeros(mesh.nnodes * m)
    vec[node * m + beta] = 1.0
    return vec


def boundary_flux_load(mesh, g, m=1):
    """Assemble v -> integral_{boundary} g . v dsigma by per-edge trapezoid,
    for nodal values g (n_boundary, m) in boundary order: every boundary
    node carries its arc weight h (a corner half from each of its edges)."""
    vec = np.zeros((mesh.nnodes, m))
    g = np.asarray(g, dtype=float).reshape(mesh.n_boundary, m)
    vec[mesh.boundary_nodes] = mesh.arc_weights[:, None] * g
    return vec.ravel()


def _layout(data, what, shapes):
    """data as a float array of one of its accepted shapes (description ->
    shape, () for a constant); anything else raises ValueError naming every
    accepted layout."""
    arr = np.asarray(data)
    numeric = arr.dtype.kind in "iuf"
    if numeric and arr.shape in shapes.values():
        return arr.astype(float, copy=False)
    accepted = " or ".join(f"{name} {shape}" if shape else name for name, shape in shapes.items())
    got = f"shape {arr.shape}" if numeric else type(data).__name__
    raise ValueError(f"{what} must be {accepted}, got {got}")


def _as_load_vector(mesh, source, m):
    """A volume source as an assembled load vector (nnodes*m,)."""
    if source is None:
        return np.zeros(mesh.nnodes * m)
    arr = _layout(source, "source", {"an assembled load": (mesh.nnodes * m,),
                                     "nodal values": (mesh.nnodes, m)})
    return arr if arr.ndim == 1 else volume_load(mesh, arr)


def _flux_vector(mesh, flux, m):
    """A conormal flux as an assembled load vector (nnodes*m,)."""
    if flux is None:
        return np.zeros(mesh.nnodes * m)
    arr = _layout(flux, "flux", {"an assembled load": (mesh.nnodes * m,),
                                 "boundary values": (mesh.n_boundary, m)})
    return arr if arr.ndim == 1 else boundary_flux_load(mesh, arr, m=m)


# ---------------------------------------------------------------------------
# solves


def _boundary_data_vector(mesh, bdata, m):
    """Dirichlet data as an (n_boundary, m) array in boundary order."""
    arr = _layout(bdata, "boundary data", {"a constant": (),
                                           "boundary values": (mesh.n_boundary, m)})
    return arr if arr.ndim else np.full((mesh.n_boundary, m), float(arr))


def solve_dirichlet(op: AssembledOperator, source=None, bdata=0.0) -> np.ndarray:
    """Solve with Dirichlet data; boundary nodes match bdata exactly."""
    if op.mode != "dirichlet":
        raise ValueError(f"operator assembled in mode {op.mode!r}, need 'dirichlet'")
    mesh, m = op.mesh, op.m
    load = _as_load_vector(mesh, source, m)
    bvals = _boundary_data_vector(mesh, bdata, m)
    inter, bd = op.dof_split()
    u = np.zeros(op.ndof)
    u[bd] = bvals.ravel()
    rhs = load[inter]
    # zero data lift nothing: K @ 0 is +0.0, and x - 0.0 is x bit for bit
    if bvals.any():
        rhs = rhs - (op.matrix @ u)[inter]
    u[inter] = op.factorization().solve(rhs)
    return u.reshape(mesh.nnodes, m)


def solve_neumann(op: AssembledOperator, source=None, flux=None) -> np.ndarray:
    """Solve the Neumann problem with the boundary-mean pin.

    The returned solution satisfies integral_{boundary} u dsigma = 0 per
    component.  Data must be compatible: total source + total flux = 0 per
    component, to 1e-8 of the data scale, or SolveError is raised.
    """
    if op.mode != "neumann":
        raise ValueError(f"operator assembled in mode {op.mode!r}, need 'neumann'")
    mesh, m = op.mesh, op.m
    load = _as_load_vector(mesh, source, m)
    fvec = _flux_vector(mesh, flux, m)
    rhs = load + fvec
    for a in range(m):
        total = rhs[a::m].sum()
        scale = np.abs(load[a::m]).sum() + np.abs(fvec[a::m]).sum()
        # written so that a NaN total or scale fails it too
        if not abs(total) <= 1e-8 * max(scale, 1e-30):
            raise SolveError(
                f"incompatible Neumann data: component {a} imbalance {total:.3e} vs scale {scale:.3e}")
    return op.factorization().solve(rhs).reshape(mesh.nnodes, m)


def solve_periodic(op: AssembledOperator, source=None) -> np.ndarray:
    """Solve on the torus with the volume-mean pin per component."""
    if op.mode != "periodic":
        raise ValueError(f"operator assembled in mode {op.mode!r}, need 'periodic'")
    load = _as_load_vector(op.mesh, source, op.m)
    return op.factorization().solve(load).reshape(op.mesh.nnodes, op.m)


def conormal(u, op: AssembledOperator, source=None):
    """Variational conormal flux of the nodal field u (nnodes, m) of op on the
    boundary, in boundary order.

    For every boundary hat function phi, <flux, phi> = a(u, phi) - (source, phi);
    returned as nodal values against the lumped arc weights.  Corner nodes
    receive the mean of the two adjacent edge contributions automatically.
    Only the boundary rows of K and of the load are formed: each row sums
    its entries in the order the whole product does.
    """
    mesh, m = op.mesh, op.m
    _, bd = op.dof_split()
    functional = op.matrix[bd] @ np.ravel(u)
    if source is not None:
        functional -= _as_load_vector(mesh, source, m)[bd]
    return functional.reshape(mesh.n_boundary, m) / mesh.arc_weights[:, None]


# ---------------------------------------------------------------------------
# norms and derivative recovery


# values per block of whole element rows in the Gauss-point sums
_NORM_BLOCK = 1 << 15


def _inner(a, b):
    """The sum of a * b over every entry."""
    return float((a * b).sum())


def _length(a):
    """The Euclidean length over the first axis (the components)."""
    return np.abs(a[0]) if len(a) == 1 else np.sqrt((a * a).sum(axis=0))


def _stencil_norm2(mesh, U, kind):
    """The p = 2 integral of |u|^2, plus |grad u|^2 for 'W1p', of the node
    grid U [y, x, component]: h^2 u.(M (x) M) u and u.(K1 (x) M + M (x) K1) u
    with the 1-D mass and stiffness stencils, exact for the bilinear
    interpolant as 2 x 2 Gauss is."""
    Ux = _stencil(mesh, U, 1, _MASS)
    total = mesh.h ** 2 * _inner(U, _stencil(mesh, Ux, 0, _MASS))
    if kind == "W1p":
        total += _inner(U, _stencil(mesh, Ux, 0, _STIFF))
        del Ux
        total += _inner(U, _stencil(mesh, _stencil(mesh, U, 1, _STIFF), 0, _MASS))
    return total


def _gauss_sums(mesh, U, kind, p):
    """The 2 x 2 Gauss rule over every element of the node grid U [y, x,
    component]: of |u|^p ('Lp'), plus |grad u|^p ('W1p'), or of |grad u|^2
    dist(x, boundary) ('weighted_grad').  Blocks of element rows are taken
    in order; on each, the values on the lines x = (ex + xi) h are
    (1 - xi) u_ex + xi u_ex+1 of neighbouring node columns, those at the
    Gauss points the same combination of neighbouring rows, and the
    gradients the differences over h.  The distance at a Gauss point is the
    smaller of its row's and its column's min(t, 1 - t)."""
    n, h, side = mesh.n, mesh.h, U.shape[0]
    cols = np.arange(n + 1) % side                  # an element column's nodes; the torus wraps
    gauss = (_G1, _G2)
    if kind == "weighted_grad":
        # the coordinates gauss_points() gives: ex h + xi h
        dist = [_edge_dist(np.arange(n) * h + g * h) for g in gauss]
    step = max(1, _NORM_BLOCK // (side * U.shape[2]))
    total = 0.0
    for a in range(0, n, step):
        b = min(a + step, n)
        # node rows a..b as [component, row, column]
        blk = np.ascontiguousarray(np.moveaxis(U[np.ix_(np.arange(a, b + 1) % side, cols)], 2, 0))
        if kind != "Lp":
            dx = (blk[:, :, 1:] - blk[:, :, :-1]) / h
        for i, xi in enumerate(gauss):
            line = (1 - xi) * blk[:, :, :-1] + xi * blk[:, :, 1:]
            if kind != "Lp":
                gy = (line[:, 1:] - line[:, :-1]) / h
                gy2 = (gy * gy).sum(axis=0)
            for j, eta in enumerate(gauss):
                if kind != "Lp":
                    gx = (1 - eta) * dx[:, :-1] + eta * dx[:, 1:]
                    g2 = (gx * gx).sum(axis=0) + gy2
                if kind == "weighted_grad":
                    total += (g2 * np.minimum.outer(dist[j][a:b], dist[i])).sum()
                else:
                    v = (1 - eta) * line[:, :-1] + eta * line[:, 1:]
                    total += (_length(v) ** p).sum()
                    if kind == "W1p":
                        total += (np.sqrt(g2) ** p).sum()
    return h * h / 4 * total


def norm(mesh, values, kind="Lp", p=2.0):
    """Volume norms of nodal values (nnodes, m) or (nnodes,) under the 2 x 2
    Gauss rule of every element; ValueError unless there is one row per
    mesh node, every entry is finite and p >= 1.

    kind: 'Lp' (volume), 'W1p' (volume, value + gradient), 'weighted_grad'
    (gradient squared weighted by dist(x, boundary), the square only; p is
    not read).  Values and gradients enter by their Euclidean and Frobenius
    lengths over the components.  How each is computed, with no table of
    the elements' Gauss points:
    - p = 2 ('Lp', 'W1p'): h^2 u.(M (x) M) u, plus u.(K1 (x) M + M (x) K1) u
      for the gradient, by the 1-D mass stencil M and stiffness stencil
      K1 = tridiag(-1, 2, -1) (end diagonals 1 on the square, circulant on
      the torus).  2 x 2 Gauss integrates both exactly, so the two agree to
      roundoff.
    - other finite p and 'weighted_grad': the Gauss rule itself, summed in
      blocks of element rows in a fixed order (_gauss_sums).
    - p = inf, the limit of the finite-p norms: the largest length of the
      values at the nodes (the exact sup of a bilinear field) and, for
      'W1p', of the gradients at the Gauss points.
    """
    vals = _nodal(mesh, values)
    if not np.all(np.isfinite(vals)):
        raise ValueError("norm of a field with non-finite entries")
    if not p >= 1:
        raise ValueError(f"need p >= 1, got {p}")
    if kind not in ("Lp", "W1p", "weighted_grad"):
        raise ValueError(f"unknown norm kind {kind!r}")

    if kind != "weighted_grad" and np.isinf(p):
        vmax = (np.abs(vals[:, 0]) if vals.shape[1] == 1
                else np.sqrt((vals ** 2).sum(axis=1))).max()
        if kind == "Lp":
            return float(vmax)
        gg = element_gauss_gradients(mesh, vals)
        return float(max(vmax, np.sqrt((gg ** 2).sum(axis=(2, 3))).max()))
    U = _node_grid(mesh, vals)
    if kind == "weighted_grad":
        if mesh.is_torus:
            raise ValueError("the weighted_grad norm needs the square's boundary")
        return float(np.sqrt(_gauss_sums(mesh, U, kind, None)))
    total = _stencil_norm2(mesh, U, kind) if p == 2 else _gauss_sums(mesh, U, kind, p)
    return float(total ** (1.0 / p))


def nodal_gradient(mesh, values):
    """Recover nodal gradients: centered differences inside, second-order
    one-sided at the square's boundary, periodic wrap on the torus.

    values (nnodes, m) -> (nnodes, 2, m).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    m = values.shape[1]
    if mesh.is_torus:
        n = mesh.n
        arr = values.reshape(n, n, m)
        gx = (np.roll(arr, -1, axis=1) - np.roll(arr, 1, axis=1)) / (2 * mesh.h)
        gy = (np.roll(arr, -1, axis=0) - np.roll(arr, 1, axis=0)) / (2 * mesh.h)
    else:
        N = mesh.n + 1
        arr = values.reshape(N, N, m)
        gx = np.gradient(arr, mesh.h, axis=1, edge_order=2)
        gy = np.gradient(arr, mesh.h, axis=0, edge_order=2)
    out = np.stack([gx.reshape(-1, m), gy.reshape(-1, m)], axis=1)
    return out


def interp_torus(grid: TorusGrid, table, pts):
    """Bilinear interpolation of a nodal torus table at wrapped points.

    table: (nnodes,) or (nnodes, K); pts: (npts, 2). Returns (npts,) or (npts, K).
    """
    table = np.asarray(table, dtype=float)
    flat = table.reshape(grid.nnodes, -1)
    pts = np.asarray(pts, dtype=float)
    n = grid.n
    t = (pts / grid.h) % n
    i0 = np.floor(t).astype(np.int64) % n
    frac = t - np.floor(t)
    i1 = (i0 + 1) % n
    fx, fy = frac[:, 0:1], frac[:, 1:2]
    v00 = flat[i0[:, 1] * n + i0[:, 0]]
    v10 = flat[i0[:, 1] * n + i1[:, 0]]
    v01 = flat[i1[:, 1] * n + i0[:, 0]]
    v11 = flat[i1[:, 1] * n + i1[:, 0]]
    out = (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
           + v01 * (1 - fx) * fy + v11 * fx * fy)
    return out.reshape(pts.shape[:-1] + table.shape[1:])


def tangential_derivative(mesh, fb):
    """The counterclockwise arc-length derivative of boundary values, the
    tangential derivative n_1 df/dx_2 - n_2 df/dx_1 on the square.

    fb: (n_boundary, m) in boundary order.  Computed by centered differences
    along each edge; corner nodes get zero (no normal).
    """
    fb = np.asarray(fb, dtype=float)
    if fb.ndim == 1:
        fb = fb[:, None]
    # along the counterclockwise boundary list the neighbours of a node
    # inside an edge are its neighbours on that edge
    out = (np.roll(fb, -1, axis=0) - np.roll(fb, 1, axis=0)) / (2 * mesh.h)
    out[mesh.corner_positions] = 0.0
    return out
