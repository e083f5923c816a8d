"""Workload definitions shared by the runner and the child script.

Pure data and string formatting only: the runner imports this module
without numpy or mirroragg, so that its own process stays small and its
resident set never masks the child's peak.
"""

from __future__ import annotations

import math

DEFAULT_SEED = 424243

# The acceptance grid of the ROADMAP at 256 replications instead of 1000,
# so that a dozen fresh processes fit in one run and their median holds
# still on a noisy two-core machine.  256 is exactly one replicate block
# of the batch kernels: a change that only merges blocks shows no gain here.
GRID = {
    "family": "bounded_regression",
    "generator": {"grid_size": 16, "noise_level": 0.25},
    "n_grid": (32, 128, 512, 2048),
    "m_grid": (2, 8, 32),
    "replications": 256,
    "loss": "squared",
    "lma_rows": 1,
}

# Wide dictionaries, a transcendental loss and two LMA temperatures: the
# oracles and per-row arithmetic weigh here, not the step count.  50
# replications instead of 100 keep about ten fresh processes per run.
WIDE = {
    "family": "phi_classification",
    "generator": {"grid_size": 256},
    "n_grid": (16, 128),
    "m_grid": (256, 1024),
    "replications": 50,
    "loss": "phi_logit2",
    "lma_rows": 2,
}

# Per-sample public API session; see child.library_session.
LIBRARY = {
    "m": 32,
    "n": 512,
    "samples": 12,
    "condition_betas": (1.0, math.e, 4.0),
    # the moment and concavity checks must pass at the documented
    # temperature e and above; beta = 1 is timed but not judged
    "checked_betas": (math.e, 4.0),
    "condition_m": 6,
    "condition_grid": 8,
    "condition_n": 64,
    "mc_outer": 1000,
    "trials": 1000,
}

WORKLOADS = {
    "grid_serial": {"kind": "run", "grid": GRID, "jobs": 1},
    "grid_parallel": {"kind": "run", "grid": GRID, "jobs": 2},
    "wide_logit": {"kind": "run", "grid": WIDE, "jobs": 1},
    "library_calls": {"kind": "library"},
}

ALGORITHMS = ("MA", "LMA", "ERM")

# pinned to 1 in every child, so grid_parallel uses at most --jobs cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_config_text(grid: dict, seed: int) -> str:
    """INI config for ``mirroragg run`` on one grid at one seed."""
    lines = ["[generator]", f"family = {grid['family']}"]
    lines += [f"{key} = {value}" for key, value in grid["generator"].items()]
    lines += [
        "",
        "[experiment]",
        "n_grid = " + " ".join(str(n) for n in grid["n_grid"]),
        "m_grid = " + " ".join(str(m) for m in grid["m_grid"]),
        f"replications = {grid['replications']}",
        "algorithms = " + " ".join(ALGORITHMS),
        f"loss = {grid['loss']}",
        f"seed = {seed}",
    ]
    return "\n".join(lines) + "\n"


def cells(grid: dict) -> list:
    return [(n, m) for n in grid["n_grid"] for m in grid["m_grid"]]


def library_calls_per_session() -> int:
    """Public calls one library session makes and checks.

    Per sample and dictionary: ma_run, lma_run, erm_select and three
    exact_risk calls; then two condition checks per temperature and one
    nice_beta_report.
    """
    return 2 * LIBRARY["samples"] * 6 + 2 * len(LIBRARY["condition_betas"]) + 1
