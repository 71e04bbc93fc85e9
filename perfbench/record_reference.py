"""Record the correctness reference of every workload at the current source.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload's experiments once in this interpreter (seeded
experiments once per seed class) and writes reference/<workload>.json: per
experiment, the summary child.summarize makes of its report (passed flag,
detail line, slopes and checked values at the printed precision).  Refuses
to record a report that did not pass.  Rerun it only when a change is meant
to alter the acceptance numbers, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

os.environ.update(workloads.THREAD_ENV)       # before numpy loads BLAS

from child import summarize  # noqa: E402


def run(plan):
    from homoglab import ratelab
    reports = ratelab.run_many([ratelab.ExperimentConfig(e, **kw) for e, kw in plan])
    out = {}
    for exp, rep in reports.items():
        if not rep.passed:
            raise SystemExit(f"{exp} did not pass: {rep.detail}")
        out[exp] = summarize(rep)
    return out


def record(name):
    ref = run(workloads.plan(name, 0))
    for exp in workloads.WORKLOADS[name]["seeded"]:
        ref[exp] = {"by_seed_class": {}}
        for k in range(workloads.SEED_CLASSES):
            plan = [(e, kw) for e, kw in workloads.plan(name, k) if e == exp]
            ref[exp]["by_seed_class"][str(k)] = run(plan)[exp]
    path = os.path.join(HERE, "reference", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(sorted(ref.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        record(name)
