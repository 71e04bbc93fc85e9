"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N
        --mode run|setup|calibrate --result PATH
        [--trace 0|1] [--tiny] [--trace-file PATH]

``setup`` imports homoglab, builds the configs and stops; ``run`` then
calls ``ratelab.run_many`` once, emits every report as CSV and JSON, and
writes a result JSON to PATH: the monotonic time at which set-up ended,
the run_many wall and CPU time, the process's peak RSS, a summary of each
report at its printed precision and the SHA-256 of its emitted bytes.
With ``--trace 1`` the layer functions are wrapped first (tracing.py) and
the result also holds the per-layer metrics.  ``calibrate`` does not import
homoglab: it times ``calibrate()``, a fixed probe of the host's speed.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def summarize(report):
    """What the correctness gate compares, at the report's printed precision."""
    return {
        "passed": bool(report.passed),
        "detail": report.detail,
        "slopes": {q: (None if f is None else f"{f.slope:.3f}")
                   for q, f in sorted(report.fits.items())},
        "values": [f"{q}@{eps!r}:{v:.3e}" for (eps, _, q, v) in report.rows],
    }


def calibrate(n=160, nrhs=128):
    """Seconds for a fixed sparse LU factor, two 128-column solves and 20
    dense 300x300 products (numpy and scipy only): the host's current speed
    at the operations homoglab spends its time in."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(t, sp.eye(n)) + sp.kron(sp.eye(n), t)).tocsc()
    rng = np.random.default_rng(0)
    rhs = rng.random((n * n, nrhs))
    dense = rng.random((300, 300))
    t0 = time.perf_counter()
    lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
    for _ in range(2):
        lu.solve(rhs)
    for _ in range(20):
        dense @ dense
    return time.perf_counter() - t0


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "calibrate"), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    if args.mode == "calibrate":
        with open(args.result, "w") as fh:
            json.dump({"calib_s": calibrate()}, fh)
        return 0

    import numpy
    import scipy
    from homoglab import ratelab

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
        tracing.install(tracer)

    plan = workloads.plan(args.workload, args.seed, tiny=args.tiny)
    configs = [ratelab.ExperimentConfig(exp, **kwargs) for exp, kwargs in plan]
    result = {"setup_at": time.monotonic(), "experiments": [exp for exp, _ in plan],
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.mode == "run":
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        if tracer is None:
            reports = ratelab.run_many(configs)
        else:
            reports = tracer.span(tracing.ROOT, ratelab.run_many, (configs,), {})
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = cpu_seconds() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summaries, digests = {}, {}
        for exp in sorted(reports):
            rep = reports[exp]
            text = ratelab.emit(rep, "csv") + ratelab.emit(rep, "json")
            digests[exp] = hashlib.sha256(text.encode()).hexdigest()
            summaries[exp] = summarize(rep)
        result["summaries"] = summaries
        result["sha256"] = digests
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, result["cpu_s"])
            result["fired"] = dict(tracer.fired)
            if args.trace_file:
                tracer.dump(args.trace_file)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
