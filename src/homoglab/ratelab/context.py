"""The one builder of an epsilon level: EpsilonContext.

Every computation at one epsilon reads from one EpsilonContext: the sweeps
(all experiments of a group share it), the prop 2.1/2.4 refinement runner
and the `expand` and `correctors` commands.  Quantities are computed in
operator-affine batches (all solves against one operator's solver before
moving to the next operator), and building an operator releases the
solvers of the others, so one level holds one solver at a time.  Cell
solutions are cached per
coefficient and grid while one run_many lasts.  The quantities themselves
come from the library (kernels, expand, correctors) run with the
context's cached operators, so each has one implementation.
"""

from __future__ import annotations

import numpy as np

from .. import cell as cellmod
from .. import correctors as corrmod
from .. import expand as expmod
from .. import kernels as kermod
from ..coeff import CoefficientField, builtin, rescale
from ..mesh import DomainMesh, assemble, solve_dirichlet, solve_neumann, conormal

_CELL_CACHE = {}
# the finest mesh any level may have.  An aligned level's Dirichlet operator
# is solved by its cell template (86 MiB stored at n = 1024, 16 cells per
# period), but a misaligned one still goes through the sparse LU: about 121M
# nnz (1.4 GB) at n = 1024, against an estimated 0.5G nnz (about 6 GB) at 2048
DEFAULT_MAX_N = 1024

# fixed sample geometry (inside every trusted region, reproducible)
GREEN_SOURCE = (0.75, 0.5)
GREEN_EVAL = (0.25, 0.25)
INTERIOR_EVAL = ((0.25, 0.25), (0.5, 0.5), (0.75, 0.75))
POISSON_SOURCES_S = (0.25, 0.5, 0.75, 1.5, 2.5, 3.5)
KERNEL_X_S = (2.25, 2.5, 2.75, 1.5, 3.5)


def mesh_resolution(cells_per_period, eps):
    """Cells per axis of the unit-square mesh with cells_per_period cells in
    each period of length eps.  Raises ValueError unless cells_per_period/eps
    is an integer (otherwise the periods do not align with the mesh) or if
    the mesh exceeds the DEFAULT_MAX_N budget."""
    ratio = cells_per_period / eps
    n = int(round(ratio))
    if abs(ratio - n) > 1e-9 * ratio:
        raise ValueError(f"eps={eps!r} does not align the periods with the mesh: "
                         f"cells_per_period/eps = {ratio!r} is not an integer")
    if n > DEFAULT_MAX_N:
        raise ValueError(f"mesh resolution n={n} exceeds the budget {DEFAULT_MAX_N}")
    return n


def neumann_source(mesh, m):
    """Mean-zero volume load cos(pi x1) in every component, nodal (nnodes, m),
    for the Neumann pair."""
    return np.tile(np.cos(np.pi * mesh.nodes[:, 0])[:, None], (1, m))


def cell_solution(field: CoefficientField, n: int):
    key = (field.key(), n)
    if key not in _CELL_CACHE:
        _CELL_CACHE[key] = cellmod.solve(field, n)
    return _CELL_CACHE[key]


class EpsilonContext:
    """Lazy, batch-ordered computation of the quantities of one epsilon level.

    cell is the cell solution whose coefficient (cell.coeff) the level
    rescales and whose correctors and flux the expansions read; hatA is
    the (2, 2, m, m) tensor of the homogenized operators L_0.  The level
    is the unit square with cells_per_period cells per period eps.
    Operators are built on first use by op(name) and quantities by
    prepare(needs), into data.  dir_eps is solved by its cell template
    where mesh._template_cells admits it, else by a sparse LU.
    """

    def __init__(self, cell: cellmod.CellSolution, hatA, eps, cells_per_period):
        self.eps = float(eps)
        self.n = mesh_resolution(cells_per_period, eps)
        self.mesh = DomainMesh(self.n)
        self.scaled = rescale(cell.coeff, eps)
        self.cell = cell
        self.hatA = hatA
        self.m = cell.coeff.m
        # L_0's constant field: assembly finds it symmetric, as hatA is to roundoff
        self.hatA_field = builtin("constant", value=hatA, m=self.m)
        self._ops = {}
        self.data = {}

    # -- operators ---------------------------------------------------------

    def op(self, name):
        """Operator by name; building one releases the other factorizations.

        assemble builds the same matrix in both modes, so the Dirichlet and
        the Neumann operator of one coefficient share one assembly
        (AssembledOperator.in_mode), the blocks of a decoupled one too.
        """
        if name not in self._ops:
            mode = _MODES[name]
            coeff = self.scaled if name.endswith("_eps") else self.hatA_field
            first = next((op for op in self._ops.values() if op.coeff is coeff), None)
            self._ops[name] = (assemble(coeff, self.mesh, mode=mode) if first is None else
                               first.in_mode(mode))
        for other, op in self._ops.items():
            if other != name:
                op.release()
        return self._ops[name]

    def release(self):
        for op in self._ops.values():
            op.release()
        self._ops.clear()

    def expansion(self, family):
        """expand.build_expansion of the level's Dirichlet pair (u_dir_eps,
        u_dir_0) with the 'chi' or the 'dirichlet' family (phi), or of its
        Neumann pair (u_neu_eps, u_neu_0) with the 'neumann' family (psi);
        the pair and the family must be prepared first."""
        if family == "neumann":
            u_eps, u0, V = (self.data[q] for q in ("u_neu_eps", "u_neu_0", "psi"))
        else:
            u_eps, u0 = self.data["u_dir_eps"], self.data["u_dir_0"]
            V = (self.data["phi"] if family == "dirichlet" else
                 corrmod.interior_family(self.cell, self.mesh, self.eps))
        return expmod.build_expansion(self.mesh, u_eps, u0, family, V, self.eps)

    # -- sample geometry ---------------------------------------------------

    def boundary_pos(self, s):
        return int(round(s / self.mesh.h)) % self.mesh.n_boundary

    def poisson_data(self):
        """Oscillating Dirichlet data f(x, x/eps) = cos(2 pi x1/eps) x2 in every
        component, (n_boundary, m) in boundary order."""
        pts = self.mesh.nodes[self.mesh.boundary_nodes]
        f = np.cos(2 * np.pi * pts[:, 0] / self.eps) * pts[:, 1]
        return np.tile(f[:, None], (1, self.m))

    def div_data(self):
        f = np.zeros((self.mesh.nnodes, 2, self.m))
        f[:, 0, 0] = np.sin(np.pi * self.mesh.nodes[:, 1])
        return f

    def dtn_f(self):
        return np.cos(2 * np.pi * self.mesh.boundary_s / 4.0)

    # -- batched computation ------------------------------------------------

    def prepare(self, needs):
        """Compute the requested quantities, grouped by operator."""
        needs = set(needs)
        todo = set()
        for name in needs:
            todo |= set(_DEPENDENCIES.get(name, ())) | {name}
        for batch, order in _BATCH_ORDER.items():
            items = [q for q in order if q in todo and q not in self.data]
            if items:
                getattr(self, "_batch_" + batch)(items)
        missing = [q for q in needs if q not in self.data]
        if missing:
            raise KeyError(f"context cannot produce {missing}")

    def _batch_dir_eps(self, items):
        op = self.op("dir_eps")
        mesh = self.mesh
        if "phi" in items or "phi_star" in items:
            phi, phi_star = corrmod.dirichlet_correctors(op)
            self.data["phi"] = phi
            self.data["phi_star"] = phi_star
        if "G_eps" in items:
            self.data["G_eps"] = kermod.green(op, mesh.nearest_node(GREEN_SOURCE))
        if "u_dir_eps" in items:
            self.data["u_dir_eps"] = solve_dirichlet(op, np.ones((mesh.nnodes, self.m)), bdata=0.0)
        if "u_poisson_eps" in items:
            self.data["u_poisson_eps"] = solve_dirichlet(op, None, bdata=self.poisson_data())
        if "u_div_eps" in items:
            self.data["u_div_eps"] = expmod.divergence_data_eps(op, self.div_data())
        if "P_eps" in items or "K_eps" in items:
            self.data["P_eps"], self.data["K_eps"] = self._poisson_columns(op)
        if "lambda_eps" in items:
            xb = mesh.nodes[mesh.boundary_nodes]
            self.data["lambda_eps"] = self._dtn_applies(op, {"f": self.dtn_f(),
                                                             "x1": xb[:, 0], "x2": xb[:, 1]})
        if "s_piece1" in items:
            self.data["s_g"] = np.sin(2 * np.pi * mesh.nodes[:, 0])
            self.data["s_piece1"] = expmod.s_epsilon_eps(op, self.data["s_g"])

    def _batch_post_eps(self, items):
        if "omega" in items:
            self.data["omega"] = kermod.omega(self.op("dir_eps"), self.hatA,
                                              self.data["phi_star"])

    def _batch_dir_0(self, items):
        op0 = self.op("dir_0")
        mesh = self.mesh
        if "G_0" in items:
            self.data["G_0"] = kermod.green(op0, mesh.nearest_node(GREEN_SOURCE))
        if "u_dir_0" in items:
            self.data["u_dir_0"] = solve_dirichlet(op0, np.ones((mesh.nnodes, self.m)), bdata=0.0)
        if "v_poisson" in items:
            self.data["v_poisson"] = expmod.poisson_approx_0(op0, self.data["omega"],
                                                             self.poisson_data())
        if "v_div" in items:
            self.data["v_div"] = expmod.divergence_data_0(op0, self.data["phi_star"],
                                                          self.div_data())
        if "P_0" in items or "K_0" in items:
            self.data["P_0"], self.data["K_0"] = self._poisson_columns(op0)
        if "lambda_0" in items:
            w = self.data["omega"][:, 0, 0]
            fb = self.dtn_f()
            xb = mesh.nodes[mesh.boundary_nodes]
            self.data["lambda_0"] = self._dtn_applies(op0, {
                "omega": w, "omega_f": w * fb,
                "omega_x1": w * xb[:, 0], "omega_x2": w * xb[:, 1]})
        if "s_piece23" in items:
            self.data["s_piece23"] = expmod.s_epsilon_0(op0, self.data["phi"],
                                                        self.data["phi_star"], self.data["s_g"])

    def _batch_neu_eps(self, items):
        opn = self.op("neu_eps")
        if "psi" in items:
            self.data["psi"] = corrmod.neumann_correctors(opn, self.hatA)
        if "N_eps" in items:
            self.data["N_eps"] = kermod.neumann_fn(opn, self.mesh.nearest_node(GREEN_SOURCE))
        if "u_neu_eps" in items:
            self.data["u_neu_eps"] = solve_neumann(opn, neumann_source(self.mesh, self.m))

    def _batch_neu_0(self, items):
        opn0 = self.op("neu_0")
        if "N_0" in items:
            self.data["N_0"] = kermod.neumann_fn(opn0, self.mesh.nearest_node(GREEN_SOURCE))
        if "u_neu_0" in items:
            self.data["u_neu_0"] = solve_neumann(opn0, neumann_source(self.mesh, self.m))

    # -- helpers -------------------------------------------------------------

    def _poisson_columns(self, op):
        """Poisson-kernel columns at the standard sources and their conormal
        fluxes sampled at the standard boundary x positions."""
        xpos = [self.boundary_pos(s) for s in KERNEL_X_S]
        cols, fluxes = {}, {}
        for s in POISSON_SOURCES_S:
            cols[s] = kermod.poisson_kernel(op, self.boundary_pos(s))
            t = conormal(cols[s], op)
            fluxes[s] = {sx: t[px, 0] for sx, px in zip(KERNEL_X_S, xpos)}
        return cols, fluxes

    def _dtn_applies(self, op, fields):
        """Lambda of each scalar boundary array in fields, by name."""
        return {name: kermod.apply_dtn_via_solve(op, fb[:, None])[:, 0]
                for name, fb in fields.items()}


_MODES = {"dir_eps": "dirichlet", "dir_0": "dirichlet", "neu_eps": "neumann", "neu_0": "neumann"}

_BATCH_ORDER = {
    "dir_eps": ("phi", "phi_star", "G_eps", "u_dir_eps", "u_poisson_eps",
                "u_div_eps", "P_eps", "K_eps", "lambda_eps", "s_piece1"),
    "post_eps": ("omega",),
    "dir_0": ("G_0", "u_dir_0", "v_poisson", "v_div", "P_0", "K_0",
              "lambda_0", "s_piece23"),
    "neu_eps": ("psi", "N_eps", "u_neu_eps"),
    "neu_0": ("N_0", "u_neu_0"),
}

_DEPENDENCIES = {
    "omega": ("phi_star",),
    "v_poisson": ("phi_star", "omega"),
    "v_div": ("phi_star",),
    "lambda_0": ("phi_star", "omega"),
    "s_piece23": ("phi", "phi_star", "s_piece1"),
    "K_0": ("P_0",),
    "K_eps": ("P_eps",),
}
