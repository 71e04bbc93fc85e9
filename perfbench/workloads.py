"""Workload definitions shared by the harness and the child process.

A workload is a list of registry experiments plus the ExperimentConfig
fields they run with.  The seed reaches only the experiments that draw
random data (``seeded``), as ``ExperimentConfig.seed = seed % SEED_CLASSES``,
so that their reference values can be recorded for every seed class.

This module uses the standard library only, so the harness can import it
without numpy.
"""

# the acceptance suite's sweep experiments (tests/test_acceptance.py SWEEP_IDS)
SWEEP_IDS = (
    "thmA-green-size", "thmA-green-grad", "thmB-neumann-size", "thmB-neumann-grad",
    "w1p-dirichlet", "w1p-neumann", "weighted-h1", "lp-dirichlet", "lp-neumann",
    "poisson-remainder", "poisson-approx", "div-approx", "s-epsilon",
    "dtn-expansion", "corrector-bounds",
)

SEED_CLASSES = 16

# one BLAS thread: steadier timings on a shared machine, and the same
# floating-point reduction order wherever the benchmark runs
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Sizes: wall times on a shared host drift by 10-30 % over tens of seconds,
# so a run takes the median of several repetitions of a few seconds each,
# and 70 runs of a benchmark comparison must fit in under an hour.  Cells
# are solved at n = 128 (the registry default is 256) for the same reason.
WORKLOADS = {
    # factorization-bound: all four square operator kinds at n = 64, 128, 256
    "sweep": {
        "ids": SWEEP_IDS,
        "config": {"eps_list": (1 / 4, 1 / 8, 1 / 16), "cell_n": 128},
        "seeded": (),
    },
    # solve-bound: the dense 1024-column Laplacian DtN matrix at n = 256
    "fixed": {
        "ids": ("cell-oracle", "prop21-residual", "prop24-conormal", "leibniz-1"),
        "config": {"cell_n": 128},
        "seeded": ("leibniz-1",),
    },
    # the m = 2 interleaved-dof path, including the m = 2 periodic cell
    "systems": {
        "ids": ("thmA-green-size", "thmA-green-grad", "thmB-neumann-size",
                "thmB-neumann-grad", "lp-dirichlet", "lp-neumann", "w1p-neumann",
                "corrector-bounds"),
        "config": {"coefficient": {"family": "layered", "params": {"m": 2}},
                   "eps_list": (1 / 4, 1 / 8, 1 / 16), "cells_per_period": 8,
                   "cell_n": 128},
        "seeded": (),
    },
}

# tiny inputs for the harness smoke check: same experiments, minutes -> seconds
TINY_CONFIG = {"eps_list": (1 / 2, 1 / 4, 1 / 8), "cells_per_period": 8, "cell_n": 16}


def seed_class(seed):
    return seed % SEED_CLASSES


def plan(name, seed, tiny=False):
    """[(experiment id, ExperimentConfig keyword arguments)] in run order."""
    wl = WORKLOADS[name]
    base = dict(wl["config"])
    if tiny:
        base.update(TINY_CONFIG)
    out = []
    for exp in wl["ids"]:
        kwargs = dict(base)
        if exp in wl["seeded"]:
            kwargs["seed"] = seed_class(seed)
        out.append((exp, kwargs))
    return out
