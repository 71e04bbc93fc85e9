"""Command-line interface.

    homoglab <subcommand> [--config path.json] [--out dir] [--eps 1/8,1/16,...]
             [--cells-per-period 16] [--format csv|json]

Subcommands: cell, correctors, green, neumann-fn, poisson, dtn, expand,
rates, all.  The config is a JSON object with keys {coefficient, mesh,
experiments[], seed}; any other key is an error.  Its mesh block holds
{n, cells_per_period, cell_n} (defaults in MESH_DEFAULTS) and every
subcommand reads it through _mesh.  Command-line flags override it, and
--coeff-family/--coeff-params override its coefficient in every
subcommand.  Exit code is 0 iff all selected experiments pass, 1 when one
fails, and 2 for a usage error: a flag value or config that cannot be
read, a config value that breaks its flag's rule (MESH_RULES; a seed must
be a non-negative integer), --coeff-params without --coeff-family, a
coefficient the library rejects, a misaligned epsilon (correctors,
expand), or (rates, all) an experiment config that ExperimentConfig
rejects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import cell as cellmod
from . import correctors as corrmod
from . import expand as expmod
from . import kernels as kermod
from . import mesh as fem
from . import ratelab
from .coeff import rescale
from .ratelab.context import GREEN_SOURCE
from .ratelab.experiments import LAYERED, q_s_epsilon

CONFIG_KEYS = ("coefficient", "mesh", "experiments", "seed")
# kernel/DtN mesh resolution, cells per period of the epsilon meshes, cell grid
MESH_DEFAULTS = {"n": 64, "cells_per_period": ratelab.ExperimentConfig.cells_per_period,
                 "cell_n": ratelab.ExperimentConfig.cell_n}
# (least value, what a smaller one is told it needs) of each mesh key, for
# its flag and its config value alike
MESH_RULES = {"n": (2, "at least 2 cells per axis"),
              "cells_per_period": (1, "a positive number of cells per period"),
              "cell_n": (8, "at least 8 cells per axis of the cell grid")}


def _parse_eps(text):
    """--eps: comma-separated positive epsilons, fractions allowed."""
    try:
        eps = tuple(float(Fraction(tok)) for tok in text.split(","))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of numbers such as 1/8,1/16") from None
    if not all(e > 0 for e in eps):
        raise argparse.ArgumentTypeError(f"every epsilon must be positive, got {text!r}")
    return eps


def _parse_pin(text):
    """--pin: a point x0,y0 inside the open unit square."""
    try:
        x, y = (float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a point x0,y0") from None
    if not (0 < x < 1 and 0 < y < 1):
        raise argparse.ArgumentTypeError(f"{text!r} is not inside the unit square")
    return x, y


def _check_int(value, low, need):
    """value if it is an integer of at least low; ValueError saying that it
    needs `need` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    if value < low:
        raise ValueError(f"need {need}, got {value}")
    return value


def _int_at_least(low, need):
    """A flag type: an integer of at least low, else a usage error saying
    that the flag needs `need`."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        try:
            return _check_int(n, low, need)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


def _parse_json_object(text):
    """--coeff-params: a JSON object of coefficient parameters."""
    try:
        params = json.loads(text)
    except json.JSONDecodeError as err:
        raise argparse.ArgumentTypeError(f"{text!r} is not valid JSON: {err}") from None
    if not isinstance(params, dict):
        raise argparse.ArgumentTypeError(f"{text!r} is not a JSON object")
    return params


def _parse_experiments(text):
    """--experiments: comma-separated ids of the registry."""
    ids = text.split(",")
    unknown = [i for i in ids if i not in ratelab.EXPERIMENTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(ratelab.EXPERIMENTS))}")
    return ids


def _first_eps(args):
    """The first --eps value; 1/8 without the flag."""
    return args.eps[0] if args.eps else 1 / 8


def _load_config(path):
    """The JSON config at path ({} for None); ValueError on a path that
    cannot be read, a non-object, keys outside CONFIG_KEYS (MESH_DEFAULTS
    in the mesh block), a mesh value that breaks its MESH_RULES or a seed
    that is not a non-negative integer."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as err:
        raise ValueError(f"cannot read config {path}: {err.strerror}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must be a JSON object")
    unknown = sorted(set(config) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"config {path} has unknown keys {', '.join(unknown)}; "
                         f"allowed: {', '.join(CONFIG_KEYS)}")
    if not isinstance(config.get("mesh", {}), dict):
        raise ValueError(f"config {path}: mesh must be a JSON object")
    unknown = sorted(set(config.get("mesh", {})) - set(MESH_DEFAULTS))
    if unknown:
        raise ValueError(f"config {path} has unknown mesh keys {', '.join(unknown)}; "
                         f"allowed: {', '.join(MESH_DEFAULTS)}")
    checks = [(f"mesh.{key}", value, *MESH_RULES[key])
              for key, value in config.get("mesh", {}).items()]
    if "seed" in config:
        checks.append(("seed", config["seed"], 0, "a non-negative integer"))
    for name, value, low, need in checks:
        try:
            _check_int(value, low, need)
        except ValueError as err:
            raise ValueError(f"config {path}: {name}: {err}") from None
    return config


def _coefficient_spec(config, args):
    """The run's coefficient spec: --coeff-family/--coeff-params over the
    config's coefficient; None when neither names one."""
    if args.coeff_params is not None and not args.coeff_family:
        raise ValueError("--coeff-params needs --coeff-family to name the family it sets")
    if args.coeff_family:
        return {"family": args.coeff_family, "params": args.coeff_params or {}}
    return config.get("coefficient")


def _mesh(config, args):
    """The config's mesh block over MESH_DEFAULTS, with --n and
    --cells-per-period overriding it."""
    mesh = {**MESH_DEFAULTS, **config.get("mesh", {})}
    if args.n is not None:
        mesh["n"] = args.n
    if args.cells_per_period is not None:
        mesh["cells_per_period"] = args.cells_per_period
    return mesh


def _levels(args, config):
    """The epsilons of correctors (--eps, else 1/8, 1/16, 1/32) or expand
    (the first --eps); ValueError for a misaligned epsilon."""
    cpp = _mesh(config, args)["cells_per_period"]
    eps_list = (args.eps or (1 / 8, 1 / 16, 1 / 32)) if args.command == "correctors" else (_first_eps(args),)
    for eps in eps_list:
        ratelab.mesh_resolution(cpp, eps)
    return eps_list


def _outpath(args, name):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _emit_json(args, name, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path = _outpath(args, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_cell(args, config, field):
    cs = ratelab.cell_solution(field, _mesh(config, args)["cell_n"])
    stats = cs.stats()
    stats["F_divergence_residual"] = cellmod.flux_divergence_residual(cs.grid, cs.F, cs.b_gauss)
    _emit_json(args, "cell.json", stats)
    if args.format == "csv":
        fem.write_nodal_csv(cs.grid, cs.chi[0, 0], _outpath(args, "chi_1.csv"))
        fem.write_nodal_csv(cs.grid, cs.b_nodal[0, 0, 0, 0], _outpath(args, "b_11.csv"))
    return 0


def _level(args, config, field, eps):
    """The EpsilonContext of one epsilon level of correctors or expand, with
    the cell's own hatA, as in the identity runners."""
    mesh = _mesh(config, args)
    cs = ratelab.cell_solution(field, mesh["cell_n"])
    return ratelab.EpsilonContext(cs, cs.hatA, eps, mesh["cells_per_period"])


def cmd_correctors(args, config, field, levels):
    out = []
    for eps in levels:
        ctx = _level(args, config, field, eps)
        x0 = ctx.mesh.nearest_node(args.pin) if args.pin else None
        ctx.prepare(["phi"])
        psi = corrmod.neumann_correctors(ctx.op("neu_eps"), ctx.hatA, x0)
        out.append(corrmod.corrector_report(ctx.mesh, eps, ctx.data["phi"], psi, ctx.cell))
    _emit_json(args, "correctors.json", out)
    return 0


def _kernel_command(args, config, field, kind):
    dm = fem.DomainMesh(_mesh(config, args)["n"])
    op = fem.assemble(rescale(field, _first_eps(args)), dm,
                      mode="neumann" if kind == "neumann-fn" else "dirichlet")
    source = dm.nearest_node(GREEN_SOURCE)
    if kind == "green":
        fld = kermod.green(op, source)
        table = kermod.KernelTable("green", dm, [source], [fld])
    elif kind == "neumann-fn":
        fld = kermod.neumann_fn(op, source)
        table = kermod.KernelTable("neumann-fn", dm, [source], [fld])
    else:
        pos = dm.n_boundary // 8
        fld = kermod.poisson_kernel(op, pos)
        table = kermod.KernelTable("poisson", dm, [pos], [fld])
    table.to_csv(_outpath(args, f"{kind}.csv"))
    print(f"wrote {_outpath(args, f'{kind}.csv')}")
    return 0


def cmd_dtn(args, config, field):
    dm = fem.DomainMesh(_mesh(config, args)["n"])
    op = fem.assemble(rescale(field, _first_eps(args)), dm)
    D = kermod.dtn(op)
    D.to_csv(_outpath(args, "dtn.csv"))
    print(f"wrote {_outpath(args, 'dtn.csv')}")
    return 0


def _expand_conflict(args):
    """The error for an expand flag that its branch would ignore, or None."""
    if args.check == "conormal" and args.family == "dirichlet":
        return "--check conormal does not apply to --family dirichlet (it needs the Neumann family)"
    if args.check == "conormal" or args.family == "neumann":
        if args.check == "residual":
            return "--check residual does not apply to --family neumann"
        if args.experiment is not None:
            return (f"--experiment {args.experiment} does not apply to the Neumann family "
                    "(--family neumann or --check conormal)")
    return None


def cmd_expand(args, config, field, levels):
    [eps] = levels
    ctx = _level(args, config, field, eps)
    result = {}
    if args.check == "conormal" or args.family == "neumann":
        ctx.prepare(["u_neu_eps", "u_neu_0", "psi"])
        result["conormal"] = expmod.conormal_identity_check(ctx.expansion("neumann"),
                                                            ctx.scaled, ctx.hatA)
    else:
        needs = ["u_dir_eps", "u_dir_0"]
        if args.family == "dirichlet":
            needs.append("phi")
        if args.experiment == "s-epsilon":
            needs += ["s_piece1", "s_piece23"]
        ctx.prepare(needs)
        e = ctx.expansion(args.family)
        result["w_h1"] = fem.norm(ctx.mesh, e.w, "W1p", 2)
        if args.check == "residual":
            result["residual"] = expmod.residual_identity_check(e, ctx.op("dir_eps"),
                                                                ctx.cell)["residual"]
        if args.experiment == "s-epsilon":
            result["s_epsilon_norms"] = {1.5: q_s_epsilon(ctx)["s_epsilon_l15"]}
    _emit_json(args, "expand.json", result)
    return 0


def _rate_configs(args, config, spec):
    """One ExperimentConfig per selected id: --experiments, else every
    registry id for `all`, else the config's experiments, else cell-oracle.
    Building them checks the ids, the epsilons and the coefficient."""
    if args.experiments:
        ids = args.experiments
    elif args.command == "all":
        ids = sorted(ratelab.EXPERIMENTS)
    else:
        ids = config.get("experiments") or ["cell-oracle"]
    mesh = _mesh(config, args)
    kwargs = {"cells_per_period": mesh["cells_per_period"], "cell_n": mesh["cell_n"]}
    if args.eps:
        kwargs["eps_list"] = args.eps
    return [ratelab.ExperimentConfig(i, coefficient=spec, seed=config.get("seed", 0), **kwargs)
            for i in ids]


def cmd_rates(args, configs):
    reports = ratelab.run_many(configs)
    ok = True
    for c in configs:
        rep = reports[c.experiment]
        ok &= rep.passed
        print(f"{'PASS' if rep.passed else 'FAIL'} {c.experiment}: {rep.detail}")
        path = _outpath(args, f"{c.experiment}.{args.format}")
        ratelab.emit(rep, args.format, path)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="homoglab", description=__doc__)
    parser.add_argument("command", choices=["cell", "correctors", "green", "neumann-fn",
                                            "poisson", "dtn", "expand", "rates", "all"])
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--eps", "--eps-list", dest="eps", type=_parse_eps,
                        help="comma-separated epsilon list, fractions allowed")
    parser.add_argument("--cells-per-period", dest="cells_per_period",
                        type=_int_at_least(*MESH_RULES["cells_per_period"]))
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--experiments", type=_parse_experiments,
                        help="comma-separated experiment ids (rates)")
    parser.add_argument("--coeff-family", dest="coeff_family",
                        help="coefficient family override")
    parser.add_argument("--coeff-params", dest="coeff_params", type=_parse_json_object,
                        help="JSON params for the coefficient family")
    parser.add_argument("--family", choices=["chi", "dirichlet", "neumann"],
                        default="chi", help="corrector family for expand")
    parser.add_argument("--n", type=_int_at_least(*MESH_RULES["n"]),
                        help="mesh resolution for kernel commands")
    parser.add_argument("--pin", type=_parse_pin,
                        help="x0,y0 pin point for Neumann correctors")
    parser.add_argument("--check", choices=["residual", "conormal"], default=None)
    parser.add_argument("--experiment", choices=["s-epsilon"], default=None,
                        help="extra expansion experiment for expand")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        spec = _coefficient_spec(config, args)
        if args.command in ("rates", "all"):
            configs = _rate_configs(args, config, spec)
        else:
            field = ratelab.coefficient_from_spec(spec or LAYERED)
            if args.command in ("correctors", "expand"):
                levels = _levels(args, config)
    except (ValueError, ratelab.RegistryError) as err:
        parser.error(str(err))
    if args.command == "expand" and (conflict := _expand_conflict(args)):
        parser.error(conflict)

    if args.command in ("rates", "all"):
        return cmd_rates(args, configs)
    if args.command == "cell":
        return cmd_cell(args, config, field)
    if args.command == "correctors":
        return cmd_correctors(args, config, field, levels)
    if args.command in ("green", "neumann-fn", "poisson"):
        return _kernel_command(args, config, field, args.command)
    if args.command == "dtn":
        return cmd_dtn(args, config, field)
    if args.command == "expand":
        return cmd_expand(args, config, field, levels)
    return 2


if __name__ == "__main__":
    sys.exit(main())
