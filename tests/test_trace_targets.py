"""Every layer function the benchmark's tracer wraps still exists, and the
operators, factorizations and results it reads still carry what it reads
of them.

perfbench/tracing.py raises LookupError for a missing target only when a
traced benchmark runs; this resolves the same names the way its install()
does, without wrapping anything.  Its factor wrapper names each
factorization with tracing.factor_kind(op) and adds the .nnz of what
AssembledOperator._factor returns; its other wrappers add
assemble(...).matrix.nnz and kernels.dtn(op).mat.shape[1].

The last two tests load the benchmark's workloads (perfbench/workloads.py,
loaded the same way, read only).  One runs the systems workload on its tiny
inputs and checks that no column of zeros reaches the exact part of any
Solver; the other checks that the sweep workload times every sweep
experiment that an acceptance criterion reads.
"""

import importlib
import importlib.util
import numbers
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"homoglab_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load_perfbench("tracing")


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    missing = []
    for modname, attr, _ in tracing.TARGETS:
        mod = importlib.import_module(modname)
        if attr.startswith("EXPERIMENTS[*]."):
            field = attr.split(".", 1)[1]
            registry = getattr(mod, "EXPERIMENTS", {})
            found = any(getattr(e, field, None) is not None for e in registry.values())
        elif "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}:{attr}")
    ctx = importlib.import_module("homoglab.ratelab.context")
    missing += [f"EpsilonContext.{m}" for m in ("__init__", "release")
                if m not in vars(ctx.EpsilonContext)]
    assert missing == []


def test_factor_kind_and_nnz_of_the_operators_src_builds(monkeypatch, layered_field):
    from homoglab import mesh
    from homoglab.ratelab.context import EpsilonContext, cell_solution
    tracing = _load_tracing()
    # 3 periods per side, so that dir_eps is factored, not solved by its
    # cell template
    ctx = EpsilonContext(cell_solution(layered_field, 16), cell_solution(layered_field, 8).hatA,
                         1 / 3, 8)
    # the tracer's level wrapper reads the level's mesh resolution after __init__
    assert isinstance(ctx.n, numbers.Integral) and ctx.n == 24
    factored = []
    factor = mesh.AssembledOperator._factor

    def recording(op, matrix):
        lu = factor(op, matrix)
        factored.append((tracing.factor_kind(op), lu.nnz))
        return lu

    monkeypatch.setattr(mesh.AssembledOperator, "_factor", recording)
    for name in ("dir_eps", "neu_eps", "dir_0", "neu_0"):
        op = ctx.op(name)
        assert tracing.factor_kind(op) == name
        op.factorization()
    # the Neumann operators share the matrix of the Dirichlet ones
    assert ctx.op("neu_eps").matrix is ctx.op("dir_eps").matrix
    assert ctx.op("neu_0").matrix is ctx.op("dir_0").matrix
    ctx.release()
    torus = mesh.assemble(layered_field, mesh.TorusGrid(8))
    assert tracing.factor_kind(torus) == "periodic"
    torus.factorization()
    # dir_0 and the Neumann operators are solved by transform and never factored
    assert [kind for kind, _ in factored] == ["dir_eps", "periodic"]
    assert all(isinstance(nnz, numbers.Integral) and nnz > 0 for _, nnz in factored)


def test_an_aligned_level_factors_only_the_periodic_cell(monkeypatch, layered_field):
    # 4 x 4 periods: dir_eps is solved by its cell template, dir_0 and the
    # Neumann operators by transform, so only the cell is factored
    from homoglab import cell, mesh
    from homoglab.ratelab.context import EpsilonContext
    tracing = _load_tracing()
    factored = []
    factor = mesh.AssembledOperator._factor

    def recording(op, matrix):
        factored.append(tracing.factor_kind(op))
        return factor(op, matrix)

    monkeypatch.setattr(mesh.AssembledOperator, "_factor", recording)
    cell16 = cell.solve(layered_field, 16)
    ctx = EpsilonContext(cell16, cell16.hatA, 1 / 4, 8)
    try:
        ctx.prepare(["G_eps", "u_dir_eps", "G_0", "N_eps", "N_0"])
    finally:
        ctx.release()
    assert factored == ["periodic"]


def test_a_decoupled_cell_of_equal_blocks_factors_one_periodic_operator(monkeypatch):
    # layered m = 2 is two copies of one scalar medium: its cell is the
    # scalar cell, solved once, so mesh.factor_count.periodic counts one
    from homoglab import cell, coeff, mesh
    tracing = _load_tracing()
    factored = []
    factor = mesh.AssembledOperator._factor

    def recording(op, matrix):
        factored.append(tracing.factor_kind(op))
        return factor(op, matrix)

    monkeypatch.setattr(mesh.AssembledOperator, "_factor", recording)
    cell.solve(coeff.builtin("layered", m=2), 16)
    assert factored == ["periodic"]


def test_assemble_and_dtn_results_carry_what_the_tracer_counts(identity_field):
    from homoglab import kernels, mesh
    dm = mesh.DomainMesh(8)
    op = mesh.assemble(identity_field, dm)
    assert isinstance(op.matrix.nnz, numbers.Integral) and op.matrix.nnz > 0
    D = kernels.dtn(op)
    assert D.mat.shape == (dm.n_boundary, dm.n_boundary)
    assert isinstance(D.mat.shape[1], numbers.Integral)
    op.release()


def test_assemble_evaluates_one_period_and_keeps_the_nnz_the_tracer_counts(monkeypatch):
    # the tracer counts coeff.eval_points as the points each coefficient call
    # is given: an aligned eps-periodic field is evaluated on its first period
    # (4 c^2 points), a constant on one element, never at the 4 n^2 Gauss
    # points of the mesh; mesh.assemble_nnz is the 9-point count
    # (3n + 1)^2 m^2 of the square, as the COO sum stored
    from homoglab import coeff, mesh
    tracing = _load_tracing()
    points = []
    call = coeff.CoefficientField.__call__

    def counting(self, pts):
        points.append(tracing._points(pts))
        return call(self, pts)

    monkeypatch.setattr(coeff.CoefficientField, "__call__", counting)
    n = 128
    dm = mesh.DomainMesh(n)
    for m in (1, 2):
        for field, c in ((coeff.rescale(coeff.builtin("layered", m=m), 1 / 8), 16),
                         (coeff.builtin("constant", value=2.0, m=m), 1),
                         (coeff.rescale(coeff.builtin("constant", value=2.0, m=m), 1 / 8), 1)):
            points.clear()
            op = mesh.assemble(field, dm)
            assert sum(points) == 4 * c * c < 4 * n * n
            assert isinstance(op.matrix.nnz, numbers.Integral)
            assert op.matrix.nnz == (3 * n + 1) ** 2 * m * m


def test_the_systems_workload_sends_no_zero_column_to_an_exact_part(exact_part_calls):
    # every family of the m = 2 workload loads one component per column, so
    # a decoupled block used to solve one column of zeros beside each one
    from homoglab import ratelab
    workloads = _load_perfbench("workloads")
    configs = [ratelab.ExperimentConfig(exp, **kwargs)
               for exp, kwargs in workloads.plan("systems", 0, tiny=True)]
    ratelab.run_many(configs)
    assert sum(cols for cols, _ in exact_part_calls) > 0
    assert sum(zero for _, zero in exact_part_calls) == 0


def test_the_sweep_workload_runs_every_sweep_of_the_acceptance_criteria():
    from homoglab import ratelab
    ids = _load_perfbench("workloads").WORKLOADS["sweep"]["ids"]
    sweeps = {e for _, exps in ratelab.CRITERIA.values() for e in exps
              if ratelab.EXPERIMENTS[e].kind == "sweep"}
    assert sweeps <= set(ids)
