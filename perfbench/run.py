"""homoglab benchmark: wall time, peak RSS and set-up time of three workloads.

    python3 perfbench/run.py --workload sweep|fixed|systems|all --seed N
        [--seconds S] [--trace 0|1]

Run from a copy of the repository that holds ``src/homoglab``.  Every
repetition runs in a fresh interpreter (child.py), one process at a time,
with BLAS limited to one thread, so the module-level cell cache and the
process's peak RSS start empty each time.

With ``--trace 0`` the harness starts one discarded warm-up child and
``SETUP_SAMPLES`` children that only import homoglab and build the configs,
then runs the workload until another repetition would end past
``--seconds`` (always at least one).  A calibration child (child.calibrate,
numpy and scipy only) runs before the first repetition and after each one.
It prints each end-to-end metric by name and unit, with its sample count:

- run_s: median over the repetitions of the run_many wall time, each
  multiplied by REFERENCE_CALIB_S / (mean of the calibrations around it),
  i.e. seconds on a host as fast as the reference.  On a shared host the
  raw wall time drifts by 10-30 % within a minute; the rescaling roughly
  halves the run-to-run spread.  The raw samples are in the run record.
- peak_rss_mb: median over the repetitions of the child's ru_maxrss.
- setup_s: median time from launching a child until homoglab is imported
  and the configs are built, rescaled by the median calibration.
- failed_frac (printed, and as attempted/failed in the JSON line).

With ``--trace 1`` it runs one traced repetition and prints the per-layer
table.  The tracing overhead is the traced ``run_s`` minus the median
untraced (raw) ``run_s`` of earlier runs of the same source in this
directory; one untraced repetition is run first when there are none.

Every repetition is checked.  An experiment fails if its child raises, is
killed or times out, if its report says passed=False, if a fitted slope or
checked value differs at printed precision from ``reference/<workload>.json``
(written by record_reference.py), or if its emitted CSV/JSON bytes differ
from an earlier run of the same source and inputs (determinism).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Per-run records, span traces and the hash
and timing history go to perfbench/out/.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
# Times are rescaled to a host on which child.calibrate() takes this long
# (0.45-0.75 s on the 2-vCPU Xeon VM the benchmark was written on).
REFERENCE_CALIB_S = 0.5
BUDGET_S = 170.0                 # one workload's share of the invocation's wall time
END_TO_END = ("run_s", "peak_rss_mb", "setup_s")


class ChildFailed(Exception):
    pass


def child_env():
    return {**os.environ, **workloads.THREAD_ENV, "PYTHONHASHSEED": "0"}


def run_child(args, deadline, tag):
    """Run child.py to completion; returns (result, launch time)."""
    result_path = os.path.join(OUT, f"child-{os.getpid()}-{tag}.json")
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise ChildFailed("no time left in the run budget")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path, *args]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"timeout after {timeout:.0f} s") from None
    if proc.returncode < 0:
        raise ChildFailed(f"killed by signal {-proc.returncode} (SIGKILL usually means OOM)")
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise ChildFailed(f"exit code {proc.returncode}: {tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result, launched


def source_digest():
    """SHA-256 of the package sources: what 'the same commit' means here."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "homoglab", "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def mem_total():
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(versions, source):
    env = child_env()
    return {"nproc": os.cpu_count(), "mem_total": mem_total(),
            "python": platform.python_version(),
            "numpy": versions.get("numpy", "?"), "scipy": versions.get("scipy", "?"),
            "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
            "git_commit": git_commit(), "source_sha256": source}


class History:
    """Report hashes and untraced run times per source, kept across runs."""

    def __init__(self, path, source):
        self.path, self.source = path, source
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}
        self.mine = self.data.setdefault(source, {"sha256": {}, "run_s": {}})

    def changed_reports(self, keyed_digests):
        """Keys whose report bytes differ from an earlier run's."""
        seen = self.mine["sha256"]
        return sorted(k for k, d in keyed_digests.items() if seen.setdefault(k, d) != d)

    def add_run_s(self, workload, value):
        self.mine["run_s"].setdefault(workload, []).append(value)

    def run_s(self, workload):
        return self.mine["run_s"].get(workload, [])

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh)
        os.replace(tmp, self.path)


def load_reference(name):
    with open(os.path.join(HERE, "reference", f"{name}.json")) as fh:
        return json.load(fh)


def check(result, reference, history, name, seed):
    """{experiment: reason} for every failed experiment of one repetition."""
    failures = {}
    for exp in result["experiments"]:
        got = result["summaries"].get(exp)
        want = reference.get(exp)
        if want is not None and "by_seed_class" in want:
            want = want["by_seed_class"].get(str(workloads.seed_class(seed)))
        if got is None:
            failures[exp] = "no report"
        elif not got["passed"]:
            failures[exp] = f"report not passed: {got['detail']}"
        elif want is None:
            failures[exp] = "no reference recorded"
        elif got != want:
            keys = ", ".join(k for k in got if got[k] != want.get(k))
            failures[exp] = f"differs from the reference in {keys}"
    # an experiment's bytes depend on the seed only if it is seeded
    seeded = workloads.WORKLOADS[name]["seeded"]
    keyed = {(f"{name}/{exp}/{workloads.seed_class(seed)}" if exp in seeded
              else f"{name}/{exp}"): exp for exp in result["sha256"]}
    changed = history.changed_reports({k: result["sha256"][e] for k, e in keyed.items()})
    for key in changed:
        failures.setdefault(keyed[key], "report bytes differ from an earlier run (nondeterminism)")
    return failures


class WorkloadRun:
    """The repetitions of one workload in one invocation, and their verdicts."""

    def __init__(self, name, seed, deadline, history):
        self.name, self.seed = name, seed
        self.deadline, self.history = deadline, history
        self.reference = load_reference(name)
        self.ids = workloads.WORKLOADS[name]["ids"]
        self.attempted = 0
        self.failures = []               # (repetition tag, experiment, reason)
        self.runs, self.setups, self.versions = [], [], {}
        self.failed_after = 0.0          # seconds spent on a repetition that failed
        self.fired = None                # wrapper call counts of the traced repetition
        self.calib = []                  # calibration seconds, around the repetitions

    def child(self, tag, mode, *extra):
        return run_child(["--workload", self.name, "--seed", str(self.seed),
                          "--mode", mode, *extra], self.deadline, tag)

    def fail_all(self, tag, reason):
        self.failures += [(tag, exp, reason) for exp in self.ids]

    def calibrate(self):
        res, _ = self.child(f"calib{len(self.calib)}", "calibrate")
        self.calib.append(res["calib_s"])

    def measure_setup(self):
        try:
            self.child("warmup", "setup")
            for i in range(SETUP_SAMPLES):
                res, launched = self.child(f"setup{i}", "setup")
                self.setups.append(res["setup_at"] - launched)
        except ChildFailed as err:
            self.attempted += len(self.ids)
            self.fail_all("setup", str(err))
            return False
        return True

    def repetition(self, tag, *extra):
        """One checked run of the workload; None if the child failed."""
        self.attempted += len(self.ids)
        t0 = time.monotonic()
        try:
            res, launched = self.child(tag, "run", *extra)
        except ChildFailed as err:
            self.fail_all(tag, str(err))
            self.failed_after = time.monotonic() - t0
            return None
        self.versions = res["versions"]
        for exp, reason in check(res, self.reference, self.history,
                                 self.name, self.seed).items():
            self.failures.append((tag, exp, reason))
        if not extra:
            self.runs.append(res)
            self.setups.append(res["setup_at"] - launched)
            self.history.add_run_s(self.name, res["run_s"])
        return res

    @property
    def failed(self):
        return len({(tag, exp) for tag, exp, _ in self.failures})


def measure(wr, seconds):
    """End-to-end metrics of an untraced run: medians over the repetitions,
    times rescaled to the reference host speed.  A calibration child runs
    before the first repetition and after each one; a repetition is scaled
    by the mean of the two around it, set-up by their median."""
    try:
        if wr.measure_setup():
            wr.calibrate()
            start, last = time.monotonic(), 0.0
            while not wr.runs or time.monotonic() - start + last <= seconds:
                t0 = time.monotonic()
                if wr.repetition(f"run{len(wr.runs)}") is None:
                    break
                wr.calibrate()
                last = time.monotonic() - t0
    except ChildFailed as err:           # no calibration, no rescaled time
        wr.attempted += len(wr.ids)
        wr.fail_all("calibration", str(err))
    if not wr.runs or len(wr.calib) <= len(wr.runs):
        return {"run_s": wr.failed_after,    # failed: what was spent, for the record
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                "setup_s": statistics.median(wr.setups) if wr.setups else 0.0}
    scale = [2 * REFERENCE_CALIB_S / (a + b) for a, b in zip(wr.calib, wr.calib[1:])]
    return {"run_s": statistics.median(r["run_s"] * f for r, f in zip(wr.runs, scale)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in wr.runs),
            "setup_s": statistics.median(wr.setups) * REFERENCE_CALIB_S / statistics.median(wr.calib)}


def measure_layers(wr):
    """Per-layer metrics of one traced repetition."""
    if not wr.history.run_s(wr.name):
        wr.repetition("untraced")
    trace_file = os.path.join(OUT, f"trace-{wr.name}-seed{wr.seed}.jsonl")
    res = wr.repetition("traced", "--trace", "1", "--trace-file", trace_file)
    metrics = dict.fromkeys(tracing.PER_LAYER, 0.0)
    if res is not None:
        metrics.update(res["layers"])
        untraced = wr.history.run_s(wr.name)
        if untraced:
            metrics["trace.overhead_s"] = res["run_s"] - statistics.median(untraced)
        wr.fired = res["fired"]
    return metrics


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_record(rec):
    print(f"== workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}")
    print("   " + ", ".join(f"{k}={v}" for k, v in rec["environment"].items()))
    m = rec["metrics"]
    if rec["trace"]:
        print(f"   {'per-layer metric':34s} {'value':>12s} {'unit':>6s}")
        for key in sorted(m):
            print(f"   {key:34s} {fmt(m[key]):>12s} {tracing.unit(key):>6s}")
    else:
        print(f"   {'end-to-end metric':34s} {'median':>12s} {'unit':>6s} {'samples':>8s}")
        for key in END_TO_END:
            n = len(rec["samples"][key])
            print(f"   {key:34s} {fmt(m[key]):>12s} {tracing.unit(key):>6s} {n:>8d}")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"   {'failed_frac':34s} {fmt(frac):>12s} {'ratio':>6s} {rec['attempted']:>8d}")
    for tag, exp, reason in rec["failures"]:
        print(f"   FAILED {tag} {exp}: {reason}")



def run_workload(name, seed, seconds, trace, deadline, history):
    wr = WorkloadRun(name, seed, deadline, history)
    metrics = measure_layers(wr) if trace else measure(wr, seconds)
    history.save()
    rec = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(wr.versions, history.source),
        "metrics": metrics, "attempted": wr.attempted, "failed": wr.failed,
        "failures": wr.failures,
        "samples": {"run_s": [r["run_s"] for r in wr.runs],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in wr.runs],
                    "setup_s": wr.setups, "calib_s": wr.calib},
        "fired": wr.fired,
    }
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(rec, fh, indent=1)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "homoglab", "__init__.py")):
        print(f"error: no homoglab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    history = History(os.path.join(OUT, "history.json"), source_digest())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        deadline = time.monotonic() + BUDGET_S
        rec = run_workload(name, args.seed, args.seconds, args.trace, deadline, history)
        print_record(rec)
        records.append(rec)

    def key(rec, metric):
        return metric if len(records) == 1 else f"{rec['workload']}/{metric}"

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {key(r, k): {"value": v, "unit": tracing.unit(k)}
               for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
