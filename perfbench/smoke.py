"""Smoke check of the benchmark harness on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with the tiny configs of
workloads.TINY_CONFIG (eps 1/2, 1/4, 1/8; 8 cells per period) and exits
non-zero unless:

- the per-layer metrics declared in BENCHMARK.json are exactly the ones the
  traced run produces;
- every trace target fired at least once over the workloads;
- tracing on and off emit byte-identical CSV/JSON reports;
- the self times add up to the traced run_many time;
- installing a target that does not exist raises LookupError.

Report pass/fail is not checked: tiny meshes fail some rate criteria.
"""

import json
import os
import sys
import time
from collections import Counter

import run
import tracing
import workloads


def check_workload(name, declared, fired, problems):
    base = ["--workload", name, "--seed", "0", "--mode", "run", "--tiny"]
    deadline = time.monotonic() + run.BUDGET_S
    plain, _ = run.run_child(base, deadline, f"smoke-{name}-plain")
    traced, _ = run.run_child([*base, "--trace", "1"], deadline, f"smoke-{name}-traced")
    if plain["sha256"] != traced["sha256"]:
        diff = sorted(e for e in plain["sha256"] if plain["sha256"][e] != traced["sha256"].get(e))
        problems.append(f"{name}: traced reports differ from untraced: {diff}")
    layers = traced["layers"]
    produced = set(layers) | {"trace.overhead_s"}          # the harness adds the overhead
    if produced != declared:
        problems.append(f"{name}: per-layer names differ from BENCHMARK.json: "
                        f"missing {sorted(declared - produced)}, undeclared {sorted(produced - declared)}")
    total = sum(layers[m] for m in tracing.SELF_METRICS if m != "ratelab.emit_s")
    total += layers["trace.unattributed_s"]
    if abs(total - layers["trace.run_s"]) > 1e-6 * max(1.0, layers["trace.run_s"]):
        problems.append(f"{name}: self times sum to {total:.6f} s, run_many took "
                        f"{layers['trace.run_s']:.6f} s")
    fired.update(traced["fired"])
    print(f"{name}: run_s plain {plain['run_s']:.3f} s, traced {traced['run_s']:.3f} s, "
          f"{len(traced['fired'])} targets fired")


def check_missing_target(problems):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    saved = list(tracing.TARGETS)
    tracing.TARGETS.append(("homoglab.mesh", "no_such_function", "mesh.post"))
    try:
        tracing.install(tracing.Tracer("smoke"))
        problems.append("installing a missing target did not raise LookupError")
    except LookupError:
        pass
    finally:
        tracing.TARGETS[:] = saved


def main():
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    problems, fired = [], Counter()
    for name in workloads.WORKLOADS:
        check_workload(name, declared, fired, problems)
    targets = {f"{mod}:{attr}" for mod, attr, _ in tracing.TARGETS}
    targets |= {"EpsilonContext.__init__", "EpsilonContext.release"}
    silent = sorted(t for t in targets if not fired[t])
    if silent:
        problems.append(f"targets that never fired: {silent}")
    check_missing_target(problems)
    for p in problems:
        print("FAIL", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
