"""Every layer function the benchmark's tracer wraps still exists.

perfbench/tracing.py raises LookupError for a missing target only when a
traced benchmark runs; this resolves the same names the way its install()
does, without wrapping anything.
"""

import importlib
import importlib.util
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
