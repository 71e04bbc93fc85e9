"""Every layer function the benchmark's tracer wraps still exists, and the
operators, factorizations and results it reads still carry what it reads
of them.

perfbench/tracing.py raises LookupError for a missing target only when a
traced benchmark runs; this resolves the same names the way its install()
does, without wrapping anything.  Its factor wrapper names each
factorization with tracing.factor_kind(op) and adds the .nnz of what
AssembledOperator._factor returns; its other wrappers add
assemble(...).matrix.nnz and kernels.dtn(op).mat.shape[1].
"""

import importlib
import importlib.util
import numbers
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("homoglab_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    ctx = EpsilonContext(cell_solution(layered_field, 16), cell_solution(layered_field, 8).hatA,
                         1 / 4, 8)
    # the tracer's level wrapper reads the level's mesh resolution after __init__
    assert isinstance(ctx.n, numbers.Integral) and ctx.n == 32
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


def test_assemble_and_dtn_results_carry_what_the_tracer_counts(identity_field):
    from homoglab import kernels, mesh
    dm = mesh.DomainMesh(8)
    op = mesh.assemble(identity_field, dm)
    assert isinstance(op.matrix.nnz, numbers.Integral) and op.matrix.nnz > 0
    D = kernels.dtn(op)
    assert D.mat.shape == (dm.n_boundary, dm.n_boundary)
    assert isinstance(D.mat.shape[1], numbers.Integral)
    op.release()
