"""Experiment registry: one entry per convergence statement under test.

Sweep experiments measure one or more scalar quantities per epsilon and are
checked by log-log slope fits (or boundedness/monotonicity).  Refine
experiments fix epsilon and halve h.  Fixed experiments run once at a fixed
resolution.  Thresholds marked 'acceptance' are pinned by the acceptance
suite; the others are harness choices consistent with the expected rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import correctors as corrmod
from .. import expand as expmod
from .. import kernels as kermod
from .. import mesh as fem
from ..coeff import builtin, rescale
from ..mesh import assemble, solve_dirichlet, nodal_gradient, norm
from .context import (cell_solution, mesh_resolution, neumann_source, GREEN_EVAL,
                      INTERIOR_EVAL, POISSON_SOURCES_S, KERNEL_X_S)

LAYERED = {"family": "layered", "params": {}}
# layers at 45 degrees oscillate tangentially along every edge of the square,
# producing the strong boundary layer that separates the corrector families
LAYERED_DIAG = {"family": "layered", "params": {"wavevector": (1, 1)}}
DEFAULT_EPS = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
DEGENERATE_FLOOR = 1e-9
# experiments whose data and quantities are scalar (one boundary or volume
# column); ExperimentConfig rejects them for a coefficient with m != 1
SCALAR_ONLY = ("s-epsilon", "dtn-expansion", "leibniz-1", "leibniz-2")


@dataclass
class Experiment:
    id: str
    description: str
    kind: str                        # 'sweep' | 'refine' | 'fixed'
    coefficient: dict
    needs: tuple = ()
    compute: object = None           # ctx -> {quantity: value}
    checks: tuple = ()               # sequence of (fits, values_by_q) -> (ok, msg)
    runner: object = None            # (config, field) -> (rows, passed, detail) for refine/fixed


# ---------------------------------------------------------------------------
# check helpers


def slope_at_least(q, smin, r2_min=None):
    def check(fits, values):
        fit = fits.get(q)
        if fit is None:
            return False, f"{q}: no fit"
        ok = fit.slope >= smin and (r2_min is None or fit.r2 >= r2_min)
        msg = f"{q}: slope {fit.slope:.3f} (need >= {smin})"
        if r2_min is not None:
            msg += f", R2 {fit.r2:.4f} (need >= {r2_min})"
        return ok, msg
    return check


def slope_at_most(q, smax):
    def check(fits, values):
        fit = fits.get(q)
        if fit is None:
            return False, f"{q}: no fit"
        return fit.slope <= smax, f"{q}: slope {fit.slope:.3f} (need <= {smax})"
    return check


def ratio_bounded(q, rmax=3.0):
    def check(fits, values):
        v = np.asarray(values[q], dtype=float)
        r = v.max() / v.min() if v.min() > 0 else np.inf
        return r <= rmax, f"{q}: max/min {r:.3f} (need <= {rmax})"
    return check


def monotone_decreasing(q, slack=1.1):
    def check(fits, values):
        v = np.asarray(values[q], dtype=float)
        ok = bool(np.all(v[1:] <= slack * v[:-1]))
        return ok, f"{q}: values {np.array2string(v, precision=3)} monotone within {slack}"
    return check


# ---------------------------------------------------------------------------
# sweep quantity functions


def _grad_defect_sup(ctx, u_eps, u_0, V, exclude_source=None):
    mesh = ctx.mesh
    defect = expmod.gradient_defect(mesh, u_eps, V, nodal_gradient(mesh, u_0))
    mag = np.sqrt((defect ** 2).sum(axis=(1, 2)))
    mask = corrmod.trusted_interior_mask(mesh, dist=0.1)
    if exclude_source is not None:
        r = np.linalg.norm(mesh.nodes - np.asarray(exclude_source), axis=1)
        mask &= r >= 0.25
    return float(mag[mask].max())


def q_green_size(ctx):
    node = ctx.mesh.nearest_node(GREEN_EVAL)
    return {"green_diff": float(abs(ctx.data["G_eps"][node, 0] - ctx.data["G_0"][node, 0]))}


def q_green_grad(ctx):
    from .context import GREEN_SOURCE
    return {"green_grad_defect": _grad_defect_sup(ctx, ctx.data["G_eps"], ctx.data["G_0"],
                                                  ctx.data["phi"], exclude_source=GREEN_SOURCE)}


def q_neumann_size(ctx):
    node = ctx.mesh.nearest_node(GREEN_EVAL)
    return {"neumann_diff": float(abs(ctx.data["N_eps"][node, 0] - ctx.data["N_0"][node, 0]))}


def q_neumann_grad(ctx):
    from .context import GREEN_SOURCE
    return {"neumann_grad_defect": _grad_defect_sup(ctx, ctx.data["N_eps"], ctx.data["N_0"],
                                                    ctx.data["psi"], exclude_source=GREEN_SOURCE)}


def _chi_expansion(ctx, u_eps, u0):
    V = corrmod.interior_family(ctx.cell, ctx.mesh, ctx.eps)
    return expmod.build_expansion(ctx.mesh, u_eps, u0, "chi", V, ctx.eps)


def q_w1p_dirichlet(ctx):
    u_eps, u0 = ctx.data["u_dir_eps"], ctx.data["u_dir_0"]
    e_phi = expmod.build_expansion(ctx.mesh, u_eps, u0, "dirichlet", ctx.data["phi"], ctx.eps)
    e_chi = _chi_expansion(ctx, u_eps, u0)
    return {"h1_dirichlet_family": norm(ctx.mesh, e_phi.w, "W1p", 2),
            "h1_chi_family": norm(ctx.mesh, e_chi.w, "W1p", 2)}


def q_w1p_neumann(ctx):
    u_eps, u0 = ctx.data["u_neu_eps"], ctx.data["u_neu_0"]
    e_psi = expmod.build_expansion(ctx.mesh, u_eps, u0, "neumann", ctx.data["psi"], ctx.eps)
    return {"h1_neumann_family": norm(ctx.mesh, e_psi.w, "W1p", 2)}


def q_weighted_h1(ctx):
    u_eps, u0 = ctx.data["u_dir_eps"], ctx.data["u_dir_0"]
    e_chi = _chi_expansion(ctx, u_eps, u0)
    # the interpolation proxy |w|_2^(1/2) |w|_H1^(1/2) stands in for the
    # fractional H^(1/2) norm; reported alongside, not asserted
    l2 = norm(ctx.mesh, e_chi.w, "Lp", 2)
    h1 = norm(ctx.mesh, e_chi.w, "W1p", 2)
    return {"weighted_grad": norm(ctx.mesh, e_chi.w, "weighted_grad"),
            "h_half_proxy": float(np.sqrt(l2 * h1))}


def q_lp_dirichlet(ctx):
    return {"l2_diff": norm(ctx.mesh, ctx.data["u_dir_eps"] - ctx.data["u_dir_0"], "Lp", 2)}


def q_linf_dirichlet(ctx):
    return {"linf_diff": norm(ctx.mesh, ctx.data["u_dir_eps"] - ctx.data["u_dir_0"], "Lp", np.inf)}


def q_lp_neumann(ctx):
    return {"l2_diff_neumann": norm(ctx.mesh, ctx.data["u_neu_eps"] - ctx.data["u_neu_0"], "Lp", 2)}


def q_poisson_remainder(ctx):
    mesh = ctx.mesh
    om = ctx.data["omega"][:, 0, 0]
    worst = 0.0
    for s in POISSON_SOURCES_S:
        pos = ctx.boundary_pos(s)
        y = mesh.nodes[mesh.boundary_nodes[pos]]
        wy = om[pos]
        for xpt in INTERIOR_EVAL:
            if np.linalg.norm(np.asarray(xpt) - y) < 0.25:
                continue
            node = mesh.nearest_node(xpt)
            val = abs(ctx.data["P_eps"][s][node, 0] - ctx.data["P_0"][s][node, 0] * wy)
            worst = max(worst, float(val))
    return {"poisson_remainder": worst}


def q_poisson_data_approx(ctx):
    diff = ctx.data["u_poisson_eps"] - ctx.data["v_poisson"]
    return {"poisson_approx_l2": norm(ctx.mesh, diff, "Lp", 2),
            "poisson_approx_l1": norm(ctx.mesh, diff, "Lp", 1)}


def q_div_approx(ctx):
    return {"div_approx_l2": norm(ctx.mesh, ctx.data["u_div_eps"] - ctx.data["v_div"], "Lp", 2)}


def q_s_epsilon(ctx):
    S = ctx.data["s_piece1"] - ctx.data["s_piece23"]
    return {"s_epsilon_l15": norm(ctx.mesh, S, "Lp", 1.5)}


def q_dtn_expansion(ctx):
    mesh = ctx.mesh
    f = ctx.dtn_f()
    dt = fem.tangential_derivative(mesh, f[:, None])[:, 0]
    nrm = np.nan_to_num(mesh.normals)
    tg1, tg2 = -nrm[:, 1] * dt, nrm[:, 0] * dt
    w = ctx.data["omega"][:, 0, 0]
    xb = mesh.nodes[mesh.boundary_nodes]
    le, l0 = ctx.data["lambda_eps"], ctx.data["lambda_0"]
    defect = (le["f"] - (tg1 * le["x1"] + tg2 * le["x2"])
              + w * (f * l0["omega"] - l0["omega_f"])
              + w * (tg1 * (l0["omega_x1"] - xb[:, 0] * l0["omega"])
                     + tg2 * (l0["omega_x2"] - xb[:, 1] * l0["omega"])))
    return {"dtn_defect_l15": kermod._boundary_l2(mesh, defect, 1.5)}


def q_second_deriv_kernel(ctx):
    mesh = ctx.mesh
    om = ctx.data["omega"][:, 0, 0]
    worst = 0.0
    for s in POISSON_SOURCES_S:
        posy = ctx.boundary_pos(s)
        y = mesh.nodes[mesh.boundary_nodes[posy]]
        for sx in KERNEL_X_S:
            posx = ctx.boundary_pos(sx)
            x = mesh.nodes[mesh.boundary_nodes[posx]]
            if np.linalg.norm(x - y) < 0.5:
                continue
            val = abs(ctx.data["K_eps"][s][sx]
                      - om[posx] * ctx.data["K_0"][s][sx] * om[posy])
            worst = max(worst, float(val))
    return {"kernel_defect": worst}


def q_corrector_bounds(ctx):
    mesh, eps = ctx.mesh, ctx.eps
    P = fem.monomial_table(mesh, ctx.m)
    mask = corrmod.trusted_interior_mask(mesh, dist=0.0)
    phi_sup = float(np.abs((ctx.data["phi"] - P)[:, :, mask]).max())
    psi_sup = float(np.abs((ctx.data["psi"] - P)[:, :, mask]).max())
    return {"phi_dist_over_eps": phi_sup / eps,
            "psi_dist_over_eps_log": psi_sup / (eps * np.log(1.0 / eps + 2.0))}


# ---------------------------------------------------------------------------
# refine / fixed runners: (config, field) -> (rows, passed, detail), with
# field the config's coefficient (the registry default when it names none);
# run_many wraps them in a RateReport of the experiment's kind with the
# config attached


def run_cell_oracle(config, field):
    """The cell solution of field against the closed form of the default
    layered medium (hatA = diag(sqrt 3, 2)), plus the cell identities."""
    cs = cell_solution(field, config.cell_n)
    hatA = cs.hatA[:, :, 0, 0]
    stats = cs.stats()
    h = 1.0 / config.cell_n
    rows = [
        (0.0, h, "hatA_11_error", float(abs(hatA[0, 0] - np.sqrt(3.0)))),
        (0.0, h, "hatA_22_error", float(abs(hatA[1, 1] - 2.0))),
        (0.0, h, "hatA_offdiag", float(max(abs(hatA[0, 1]), abs(hatA[1, 0])))),
        *[(0.0, h, q, stats[q]) for q in ("chi_mean_max", "b_mean_max", "F_antisymmetry")],
    ]
    vals = {q: v for (_, _, q, v) in rows}
    ok = (vals["hatA_11_error"] <= 1e-3 and vals["hatA_22_error"] <= 1e-3
          and vals["hatA_offdiag"] <= 1e-4 and vals["chi_mean_max"] <= 1e-10
          and vals["b_mean_max"] <= 1e-8 and vals["F_antisymmetry"] == 0.0)
    detail = "; ".join(f"{q}={v:.3e}" for (_, _, q, v) in rows)
    return rows, bool(ok), detail


# refinement experiment -> (identity, reported quantity)
_IDENTITIES = {"prop21-residual": ("interior", "interior_identity_residual"),
               "prop24-conormal": ("boundary", "conormal_identity_residual")}


def run_identity_refinement(config, field):
    """Residual of the interior (prop 2.1) or boundary (prop 2.4) identity
    at fixed epsilon for two mesh refinements; it passes when halving h
    scales the residual by at most 0.6."""
    which, quantity = _IDENTITIES[config.experiment]
    cs = cell_solution(field, config.cell_n)
    hatA_field = builtin("constant", value=cs.hatA, m=field.m)
    eps = config.eps_list[0]
    vals = []
    for cpp in (config.cells_per_period, 2 * config.cells_per_period):
        n = mesh_resolution(cpp, eps)
        dm = fem.DomainMesh(n)
        sc = rescale(field, eps)
        if which == "interior":
            op = assemble(sc, dm, mode="dirichlet")
            op0 = assemble(hatA_field, dm, mode="dirichlet")
            f = np.ones((dm.nnodes, field.m))
            u_eps = solve_dirichlet(op, f, bdata=0.0)
            u0 = solve_dirichlet(op0, f, bdata=0.0)
            phi, _ = corrmod.dirichlet_correctors(op)
            e = expmod.build_expansion(dm, u_eps, u0, "dirichlet", phi, eps)
            vals.append((n, expmod.residual_identity_check(e, op, cs)["residual"]))
            op.release(); op0.release()
        else:
            opn = assemble(sc, dm, mode="neumann")
            opn0 = assemble(hatA_field, dm, mode="neumann")
            e = expmod.neumann_expansion(opn, opn0, cs.hatA, neumann_source(dm, field.m))
            vals.append((n, expmod.conormal_identity_check(e, sc, cs.hatA)["l2_boundary"]))
            opn.release(); opn0.release()
    ratio = vals[1][1] / vals[0][1]
    rows = [(eps, 1.0 / n, quantity, v) for n, v in vals]
    return rows, bool(ratio <= 0.6), f"residual ratio per h-halving {ratio:.3f} (need <= 0.6)"


# mesh of the Leibniz runs: Lambda is applied by one Dirichlet solve on it
_LEIBNIZ_N = 256


def run_leibniz_product(config, field):
    """Product rule: |Lambda(fg) - f Lambda(g)|_2 <= 5 |f|_H1 |g|_inf over a
    seeded random smooth suite (the constant 5 is a fixed harness bound)."""
    dm = fem.DomainMesh(_LEIBNIZ_N)
    op = assemble(field, dm)
    rng = np.random.default_rng(config.seed + 17)
    s = dm.boundary_s
    rows = []
    worst = 0.0
    for case in range(20):
        f = np.full_like(s, rng.standard_normal())
        g = np.full_like(s, rng.standard_normal())
        for k in range(1, 7):
            decay = 1.0 / k ** 2
            f = f + decay * (rng.standard_normal() * np.cos(2 * np.pi * k * s / 4)
                             + rng.standard_normal() * np.sin(2 * np.pi * k * s / 4))
            g = g + decay * (rng.standard_normal() * np.cos(2 * np.pi * k * s / 4)
                             + rng.standard_normal() * np.sin(2 * np.pi * k * s / 4))
        comm = kermod.product_commutator(op, f, g)
        l2 = kermod._boundary_l2(dm, comm)
        fH1 = np.sqrt(kermod._boundary_l2(dm, f) ** 2
                      + kermod._boundary_l2(dm, fem.tangential_derivative(dm, f)) ** 2)
        ratio = l2 / (fH1 * np.abs(g).max())
        worst = max(worst, float(ratio))
        rows.append((0.0, dm.h, f"case_{case}_ratio", float(ratio)))
    op.release()
    detail = f"worst |Lambda(fg)-f Lambda g|_2 / (|f|_H1 |g|_inf) = {worst:.3f} (bound 5)"
    return rows, bool(worst <= 5.0), detail


def run_leibniz_coordinate(config, field):
    """Order-zero coordinate commutator: the Lambda-norm ratio grows >= 4x
    from k=2 to k=16 while the commutator ratio grows <= 2x."""
    dm = fem.DomainMesh(_LEIBNIZ_N)
    op = assemble(field, dm)
    rows = []
    lam, com = {}, {}
    for k in (2, 4, 8, 16):
        fk = np.sin(2 * np.pi * k * dm.boundary_s / 4.0)
        nf = kermod._boundary_l2(dm, fk)
        lam[k] = kermod._boundary_l2(dm, kermod.apply_dtn_via_solve(op, fk[:, None])) / nf
        com[k] = kermod._boundary_l2(dm, kermod.coordinate_commutator(op, fk, 1)) / nf
        rows.append((0.0, dm.h, f"dtn_ratio_k{k}", float(lam[k])))
        rows.append((0.0, dm.h, f"commutator_ratio_k{k}", float(com[k])))
    op.release()
    growth_lam = lam[16] / lam[2]
    growth_com = com[16] / com[2]
    ok = growth_lam >= 4.0 and growth_com <= 2.0
    detail = (f"Lambda ratio growth {growth_lam:.2f} (need >= 4), "
              f"commutator growth {growth_com:.2f} (need <= 2)")
    return rows, bool(ok), detail


# ---------------------------------------------------------------------------
# the registry


def _sweep(id, desc, coefficient, needs, compute, checks):
    return Experiment(id=id, description=desc, kind="sweep", coefficient=coefficient,
                      needs=needs, compute=compute, checks=checks)


EXPERIMENTS = {}

for exp in [
    _sweep("thmA-green-size",
           "pointwise Green-function difference at a fixed interior pair",
           LAYERED, ("G_eps", "G_0"), q_green_size,
           (slope_at_least("green_diff", 0.8, r2_min=0.98),)),
    _sweep("thmA-green-grad",
           "gradient comparison of the Green function with Dirichlet correctors",
           LAYERED, ("G_eps", "G_0", "phi"), q_green_grad,
           (slope_at_least("green_grad_defect", 0.7),)),
    _sweep("thmB-neumann-size",
           "pointwise Neumann-function difference at a fixed interior pair",
           LAYERED, ("N_eps", "N_0"), q_neumann_size,
           (slope_at_least("neumann_diff", 0.8),)),
    _sweep("thmB-neumann-grad",
           "gradient comparison of the Neumann function with Neumann correctors",
           LAYERED, ("N_eps", "N_0", "psi"), q_neumann_grad,
           (slope_at_least("neumann_grad_defect", 0.6),)),
    _sweep("w1p-dirichlet",
           "H1 error with Dirichlet correctors vs the interior-corrector family",
           LAYERED_DIAG, ("u_dir_eps", "u_dir_0", "phi"), q_w1p_dirichlet,
           (slope_at_least("h1_dirichlet_family", 0.85),
            slope_at_most("h1_chi_family", 0.7))),
    _sweep("w1p-neumann",
           "H1 error with Neumann correctors for the Neumann problem",
           LAYERED, ("u_neu_eps", "u_neu_0", "psi"), q_w1p_neumann,
           (slope_at_least("h1_neumann_family", 0.6),)),
    _sweep("weighted-h1",
           "boundary-distance weighted gradient of the interior expansion",
           LAYERED, ("u_dir_eps", "u_dir_0"), q_weighted_h1,
           (slope_at_least("weighted_grad", 0.85),)),
    _sweep("lp-dirichlet",
           "L2 rate for the Dirichlet problem",
           LAYERED, ("u_dir_eps", "u_dir_0"), q_lp_dirichlet,
           (slope_at_least("l2_diff", 0.9),)),
    _sweep("linf-dirichlet",
           "Linf rate for the Dirichlet problem (log-tolerant threshold)",
           LAYERED, ("u_dir_eps", "u_dir_0"), q_linf_dirichlet,
           (slope_at_least("linf_diff", 0.75),)),
    _sweep("lp-neumann",
           "L2 rate for the Neumann problem",
           LAYERED, ("u_neu_eps", "u_neu_0"), q_lp_neumann,
           (slope_at_least("l2_diff_neumann", 0.8),)),
    _sweep("poisson-remainder",
           "Poisson kernel minus weighted homogenized kernel at separated pairs",
           LAYERED, ("P_eps", "P_0", "omega"), q_poisson_remainder,
           (slope_at_least("poisson_remainder", 0.7),)),
    _sweep("poisson-approx",
           "oscillating Dirichlet data vs weighted homogenized data",
           LAYERED, ("u_poisson_eps", "v_poisson", "omega"), q_poisson_data_approx,
           (slope_at_least("poisson_approx_l2", 0.3),)),
    _sweep("div-approx",
           "divergence-form data vs corrector-transformed data",
           LAYERED, ("u_div_eps", "v_div"), q_div_approx,
           (slope_at_least("div_approx_l2", 0.8),)),
    _sweep("second-deriv-kernel",
           "normal-derivative kernel expansion at separated boundary pairs",
           LAYERED, ("K_eps", "K_0", "omega"), q_second_deriv_kernel,
           (slope_at_least("kernel_defect", 0.5),)),
    _sweep("s-epsilon",
           "oscillatory singular-integral combination decays in L^1.5",
           LAYERED, ("s_piece1", "s_piece23"), q_s_epsilon,
           (monotone_decreasing("s_epsilon_l15", 1.1),)),
    _sweep("dtn-expansion",
           "Dirichlet-to-Neumann expansion defect decays in L^1.5 on the boundary",
           LAYERED, ("lambda_eps", "lambda_0", "omega"), q_dtn_expansion,
           (monotone_decreasing("dtn_defect_l15", 1.1),)),
    _sweep("corrector-bounds",
           "normalized sup bounds for the Dirichlet and Neumann correctors",
           LAYERED, ("phi", "psi"), q_corrector_bounds,
           (ratio_bounded("phi_dist_over_eps", 3.0),
            ratio_bounded("psi_dist_over_eps_log", 3.0))),
]:
    EXPERIMENTS[exp.id] = exp

EXPERIMENTS["cell-oracle"] = Experiment(
    id="cell-oracle", kind="fixed", coefficient=LAYERED,
    description="layered homogenized tensor against the closed form, cell identities",
    runner=run_cell_oracle)
EXPERIMENTS["prop21-residual"] = Experiment(
    id="prop21-residual", kind="refine", coefficient=LAYERED,
    description="interior expansion identity residual decays under h-refinement",
    runner=run_identity_refinement)
EXPERIMENTS["prop24-conormal"] = Experiment(
    id="prop24-conormal", kind="refine", coefficient=LAYERED,
    description="boundary conormal identity residual decays under h-refinement",
    runner=run_identity_refinement)
EXPERIMENTS["leibniz-1"] = Experiment(
    id="leibniz-1", kind="fixed", coefficient={"family": "constant", "params": {}},
    description="Dirichlet-to-Neumann product rule bound on random smooth data",
    runner=run_leibniz_product)
EXPERIMENTS["leibniz-2"] = Experiment(
    id="leibniz-2", kind="fixed", coefficient={"family": "constant", "params": {}},
    description="coordinate commutator of the Dirichlet-to-Neumann map is order zero",
    runner=run_leibniz_coordinate)
