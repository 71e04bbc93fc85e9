"""Two-scale expansions and the identities they satisfy.

The central object is

    w(x) = u_eps(x) - u0(x) - {V_j^b(x) - P_j^b(x)} d u0^b/dx_j

where the corrector family V is one of: P + eps*chi(x/eps) ('chi'), the
Dirichlet correctors ('dirichlet') or the Neumann correctors ('neumann').
build_expansion takes V as the (d, m, nnodes, m) array the correctors
module returns (correctors.interior_family for 'chi') and the family name
as a label, which the identity checks read.
The module assembles both sides of the interior residual identity for w,
the conormal identity on the boundary, and the solves of the kernel-driven
approximation experiments: Poisson-weight data, divergence-form data and
the oscillatory singular-integral combination S_eps.  Each experiment has
one L_eps part and one L_0 part (poisson_approx_0 takes the omega array of
kernels.omega); the sweep's registry takes the norms of their differences.

The solving functions take the Dirichlet operators they solve with: op
for L_eps and op0 for L_0, which the caller owns.  u_eps, u0 and the
corrector family come from the caller too: ratelab's EpsilonContext
prepares them for the sweeps, the identity runners and the CLI, and its
expansion() passes them to build_expansion.  Solutions, u_eps, u0 and w
are nodal arrays (nnodes, m) on the mesh that build_expansion takes with
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (DomainMesh, solve_dirichlet, nodal_gradient, interp_torus,
                   element_gauss_values, element_gauss_gradients, volume_load_from_gauss,
                   divergence_load_from_gauss, divergence_load, norm, monomial_table)
from .correctors import chi_on_domain

__all__ = ["ExpansionError", "Expansion", "build_expansion", "residual_identity_check",
           "conormal_identity_check", "poisson_approx_0",
           "divergence_data_eps", "divergence_data_0",
           "s_epsilon", "s_epsilon_eps", "s_epsilon_0", "t_apply",
           "gradient_defect", "second_derivatives"]

FAMILIES = ("chi", "dirichlet", "neumann")


class ExpansionError(ValueError):
    pass


def second_derivatives(mesh, values):
    """Nodal second derivatives by double gradient recovery, symmetrized.

    values (nnodes, m) -> (nnodes, 2, 2, m) indexed [node, i, j, comp].
    """
    g = nodal_gradient(mesh, values)                      # (nnodes, 2, m)
    m = g.shape[2]
    D2 = np.empty((mesh.nnodes, 2, 2, m))
    for j in range(2):
        D2[:, :, j, :] = nodal_gradient(mesh, g[:, j, :])
    return 0.5 * (D2 + D2.transpose(0, 2, 1, 3))


@dataclass
class Expansion:
    """u_eps, u0 and the corrector-family expansion remainder w."""

    mesh: DomainMesh
    epsilon: float
    family: str
    u_eps: np.ndarray          # (nnodes, m)
    u0: np.ndarray             # (nnodes, m)
    V: np.ndarray              # (d, m, nnodes, m) corrector family
    du0: np.ndarray            # (nnodes, 2, m) recovered gradient of u0
    w: np.ndarray              # (nnodes, m)

    @property
    def m(self):
        return self.u_eps.shape[1]


def gradient_defect(mesh, u_eps, V, du0):
    """d_i u_eps^a - d_i V_j^{ab} d_j u0^b at the nodes, (nnodes, 2, m), for
    nodal u_eps (nnodes, m), a corrector family V (d, m, nnodes, m) and the
    recovered gradient du0 of u0."""
    out = nodal_gradient(mesh, u_eps)
    for j in range(V.shape[0]):
        for beta in range(V.shape[1]):
            gV = nodal_gradient(mesh, V[j, beta])    # (nnodes, i, alpha)
            out -= gV * du0[:, j, beta][:, None, None]
    return out


def build_expansion(mesh, u_eps, u0, family, V, epsilon) -> Expansion:
    """Assemble the expansion remainder w of the nodal pair u_eps, u0
    (nnodes, m) on mesh with the corrector family V (d, m, nnodes, m) of
    period epsilon; family, one of FAMILIES, names V."""
    if family not in FAMILIES:
        raise ExpansionError(f"family must be one of {FAMILIES}, got {family!r}")
    du0 = nodal_gradient(mesh, u0)
    P = monomial_table(mesh, V.shape[1])
    w = u_eps - u0
    for j in range(V.shape[0]):
        for beta in range(V.shape[1]):
            w = w - (V[j, beta] - P[j, beta]) * du0[:, j, beta][:, None]
    return Expansion(mesh=mesh, epsilon=epsilon, family=family,
                     u_eps=u_eps, u0=u0, V=V, du0=du0, w=w)


# ---------------------------------------------------------------------------
# interior residual identity


def _period_cells(mesh, eps):
    """c = n eps, the mesh cells per period; ExpansionError unless c is a
    whole number."""
    c = round(mesh.n * eps)
    if c < 1 or abs(mesh.n * eps - c) > 1e-9 * c:
        raise ExpansionError(f"the period eps={eps!r} is not a whole number of cells of the "
                             f"mesh of n={mesh.n}: n*eps = {mesh.n * eps!r}")
    return c


def _by_period(mesh, c, fg):
    """Element values fg (nelem, ...) as whole periods (P, c, P, c, ...),
    P = ceil(n / c), where [py, ly, px, lx] is element (py c + ly, px c +
    lx), zero past the mesh; a view when c divides n."""
    n, P = mesh.n, -(-mesh.n // c)
    fg = fg.reshape(n, n, *fg.shape[1:])
    if P * c != n:
        fg = np.pad(fg, [(0, P * c - n)] * 2 + [(0, 0)] * (fg.ndim - 2))
    return fg.reshape(P, c, P, c, *fg.shape[2:])


def _from_periods(mesh, fb):
    """The element values (nelem, ...) of whole periods fb (P, c, P, c, ...)."""
    P, c = fb.shape[:2]
    fe = fb.reshape(P * c, P * c, *fb.shape[4:])[:mesh.n, :mesh.n]
    return fe.reshape(mesh.nelem, *fe.shape[2:])


def residual_identity_check(exp: Expansion, op, cell_solution):
    """Weak mismatch between L_eps(w) and its divergence-form representation,
    with L_eps the operator op (its coefficient supplies a_eps).

    Assembles a_eps(w, phi) and the three right-hand-side terms (the
    eps-scaled flux-corrector divergence, the low-order corrector
    divergence, and the pointwise gradient term) against interior test
    functions.  Returns their dual-norm mismatch as "residual" and the three
    load vectors as "term_loads" ("flux", "low_order", "gradient").  For the
    chi family the gradient term vanishes identically and the first two
    terms merge into a single bounded-kernel divergence.

    The eps-periodic factors a_eps and F(x/eps) are tabulated once, at the
    Gauss points of the c x c elements of the first period (c = n eps, which
    must be a whole number, else ExpansionError), and every element reads
    the table of its class (ey mod c, ex mod c) by broadcasting; the
    quadrature differs from the full-mesh evaluation at roundoff.
    """
    if exp.family not in ("chi", "dirichlet"):
        raise ExpansionError("residual identity applies to the chi and dirichlet families")
    mesh, m, eps = exp.mesh, exp.m, exp.epsilon
    c = _period_cells(mesh, eps)
    grid = cell_solution.grid

    # the period tables [1, ly, 1, lx, q, ...], which broadcast over element
    # values by period [py, ly, px, lx, q, ...]
    pts = mesh.period_gauss_points(c).reshape(-1, 2)
    A_p = np.asarray(op.coeff(pts)).reshape(1, c, 1, c, 4, 2, 2, m, m)
    Ft = cell_solution.F.transpose(5, 0, 1, 2, 3, 4).reshape(grid.nnodes, -1)
    F_p = interp_torus(grid, Ft, pts / eps).reshape(1, c, 1, c, 4, 2, 2, 2, m, m)

    # each full-mesh table is dropped once read, so that the check holds a
    # few Gauss-point tables at a time
    D2 = second_derivatives(mesh, exp.u0).reshape(mesh.nnodes, -1)
    D2_g = element_gauss_values(mesh, D2).reshape(mesh.nelem, 4, 2, 2, m)   # (e, q, j, k, c)
    D2_b = _by_period(mesh, c, D2_g)
    del D2

    # eps d_i { F_jik^{ac}(x/eps) d2 u0^c / dx_j dx_k }
    f1 = np.zeros(D2_b.shape[:5] + (2, m))
    for j, k, gam in np.ndindex(2, 2, m):
        f1 += F_p[..., j, :, k, :, gam] * D2_b[..., j, k, gam, None, None]
    f1 *= eps
    flux = -divergence_load_from_gauss(mesh, _from_periods(mesh, f1))
    del f1, D2_b

    # d_i { a_ij^{ab}(x/eps) T_j^b }, T_j^b = [V_k - P_k]^{bc} d2 u0^c / dx_j dx_k
    VmP = exp.V - monomial_table(mesh, m)                 # (k, gamma_col, nnodes, beta)
    T = np.zeros((mesh.nelem, 4, 2, m))
    for k, gam in np.ndindex(2, m):
        T += D2_g[:, :, :, k, gam, None] * element_gauss_values(mesh, VmP[k, gam])[:, :, None]
    T = _by_period(mesh, c, T)
    f2 = np.zeros(T.shape[:5] + (2, m))
    for j, b in np.ndindex(2, m):
        f2 += A_p[..., :, j, :, b] * T[..., j, b, None, None]
    low_order = -divergence_load_from_gauss(mesh, _from_periods(mesh, f2))
    del T, f2

    # a_ij^{ab}(x/eps) G_ij^b, G_ij^b = d_j [V_k - P_k - eps chi_k(x/eps)]^{bc} d2 u0^c / dx_i dx_k;
    # eps*chi(x/eps) enters through the same nodal-table representation
    # as V - P, so for the chi family this term vanishes identically
    chi_vals = chi_on_domain(cell_solution, mesh, eps)
    G = np.zeros((mesh.nelem, 4, 2, 2, m))
    for k, gam in np.ndindex(2, m):
        g = element_gauss_gradients(mesh, VmP[k, gam] - eps * chi_vals[k, gam])   # (e, q, j, b)
        for i in range(2):
            G[:, :, i] += D2_g[:, :, i, k, gam, None, None] * g
    del D2_g, g
    G = _by_period(mesh, c, G)
    vals = np.zeros(G.shape[:5] + (m,))
    for i, j, b in np.ndindex(2, 2, m):
        vals += A_p[..., i, j, :, b] * G[..., i, j, b, None]
    gradient = volume_load_from_gauss(mesh, _from_periods(mesh, vals))

    rhs = flux + low_order + gradient
    lhs = op.matrix @ exp.w.ravel()
    inter, _ = op.dof_split()
    res = lhs[inter] - rhs[inter]
    return {
        "residual": float(np.linalg.norm(res) / mesh.h),
        "term_loads": {"flux": flux, "low_order": low_order, "gradient": gradient},
    }


# ---------------------------------------------------------------------------
# boundary conormal identity


def conormal_identity_check(exp: Expansion, coeff, hatA):
    """Pointwise boundary residual of the conormal identity for the Neumann
    family: dw/dnu_eps against the u_eps/u0 flux difference minus the
    second-order corrector term, on non-corner boundary nodes.
    """
    if exp.family != "neumann":
        raise ExpansionError("the conormal identity needs the Neumann family")
    mesh, m = exp.mesh, exp.m
    hatA = np.asarray(hatA, dtype=float).reshape(2, 2, m, m)
    bnodes = mesh.boundary_nodes
    mask = mesh.noncorner_mask
    nrm = mesh.normals[mask]
    A_b = np.asarray(coeff(mesh.nodes[bnodes[mask]])).reshape(-1, 2, 2, m, m)

    def conormal_of(values, tensor_b):
        g = nodal_gradient(mesh, values)[bnodes[mask]]     # (nb', j, beta)
        return np.einsum("ni,nijab,njb->na", nrm, tensor_b, g)

    dw = conormal_of(exp.w, A_b)
    du_eps = conormal_of(exp.u_eps, A_b)
    hat_b = np.broadcast_to(hatA, (mask.sum(), 2, 2, m, m))
    du0 = conormal_of(exp.u0, hat_b)

    D2 = second_derivatives(mesh, exp.u0)[bnodes[mask]]   # (nb', k, j, gamma)
    P = monomial_table(mesh, m)
    corr = np.zeros((mask.sum(), m))
    for k in range(2):
        for gam in range(m):
            VmP_b = (exp.V[k, gam] - P[k, gam])[bnodes[mask]]    # (nb', beta)
            corr += np.einsum("ni,nijab,nb,nj->na", nrm, A_b, VmP_b, D2[:, k, :, gam])

    residual = dw - (du_eps - du0 - corr)
    rmag = np.sqrt((residual ** 2).sum(axis=1))
    w = mesh.arc_weights[mask]
    return {
        "max": float(rmag.max()),
        "l2_boundary": float(np.sqrt((w * rmag ** 2).sum())),
    }


# ---------------------------------------------------------------------------
# approximation experiments


def poisson_approx_0(op0, omega, fb) -> np.ndarray:
    """The L_0 solve of the Poisson-weight experiment: boundary data omega * fb,
    with omega the (n_boundary, m, m) array of kernels.omega and fb
    (n_boundary, m) in boundary order.  Its L_eps counterpart is the
    Dirichlet solve with data fb."""
    vdata = np.einsum("ngb,nb->ng", omega, fb)
    return solve_dirichlet(op0, None, bdata=vdata)


def divergence_data_eps(op, f) -> np.ndarray:
    """The L_eps solve of the divergence-data experiment: L_eps(u) = div f,
    f (nnodes, 2, m)."""
    return solve_dirichlet(op, -divergence_load(op.mesh, f), bdata=0.0)


def divergence_data_0(op0, phi_star, f) -> np.ndarray:
    """The L_0 solve of the divergence-data experiment: L_0(v) = div F_eps,
    F_eps,i^a = f_j^b d_j{Phi*_i^{ba}}."""
    mesh_, m = op0.mesh, op0.m
    grad_star = np.empty((2, m, mesh_.nnodes, 2, m))       # [i, alpha, node, j, beta]
    for i in range(2):
        for alpha in range(m):
            grad_star[i, alpha] = nodal_gradient(mesh_, phi_star[i, alpha])
    F_eps = np.einsum("njb,ianjb->nia", f, grad_star)
    return solve_dirichlet(op0, -divergence_load(mesh_, F_eps), bdata=0.0)


def t_apply(op, data):
    """Gradient of the zero-Dirichlet solve of L(u) = div(data), scalar case:
    nodal data (nnodes, 2) -> nodal gradient (nnodes, 2)."""
    mesh_ = op.mesh
    u = solve_dirichlet(op, -divergence_load(mesh_, data[:, :, None]), bdata=0.0)
    return nodal_gradient(mesh_, u)[:, :, 0]


def s_epsilon_eps(op, g):
    """The L_eps term T_eps,11(g) of s_epsilon, nodal (nnodes,); scalar
    case (m = 1)."""
    if op.m != 1:
        raise ExpansionError("s_epsilon is implemented for the scalar case m = 1")
    data = np.zeros((op.mesh.nnodes, 2))
    data[:, 0] = g
    return t_apply(op, data)[:, 0]


def s_epsilon_0(op0, phi, phi_star, g):
    """The L_0 terms of s_epsilon, nodal (nnodes,):

        dPhi_k/dx_1 T_0,kl(dPhi*_l/dx_1 g) - dPhi_k/dx_1 T_0,kl(dPhi*_l/dx_1) g
    """
    mesh_ = op0.mesh
    dphi = np.stack([nodal_gradient(mesh_, phi[k, 0])[:, 0, 0] for k in range(2)], axis=1)
    dphistar = np.stack([nodal_gradient(mesh_, phi_star[l, 0])[:, 0, 0] for l in range(2)], axis=1)
    grad2 = t_apply(op0, dphistar * g[:, None])    # T_0,.l(dPhi*_l g), (nnodes, k)
    grad3 = t_apply(op0, dphistar)                  # T_0,.l(dPhi*_l)
    piece2 = (dphi * grad2).sum(axis=1)
    piece3 = (dphi * grad3).sum(axis=1) * g
    return piece2 - piece3


def s_epsilon(op, op0, phi, phi_star, g):
    """The oscillatory singular-integral combination

        S(g) = T_eps,11(g) - dPhi_k/dx_1 T_0,kl(dPhi*_l/dx_1 g)
                           + dPhi_k/dx_1 T_0,kl(dPhi*_l/dx_1) g

    where T_eps,11(g) = d_1 of the zero-Dirichlet solve of L_eps(u) = d_1 g,
    with L_eps the Dirichlet operator op and L_0 the Dirichlet operator op0.
    Scalar case (m = 1).  Returns the nodal field (nnodes, 1) and its L^1.5
    norm.
    """
    g = np.asarray(g, dtype=float).reshape(op.mesh.nnodes)
    S = (s_epsilon_eps(op, g) - s_epsilon_0(op0, phi, phi_star, g))[:, None]
    return {"field": S, "norms": {1.5: norm(op.mesh, S, "Lp", 1.5)}}
