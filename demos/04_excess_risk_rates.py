"""Excess-risk decay of the two aggregates, with bound checks and slopes.

A reduced version of the acceptance benchmark: bounded regression over a
16-point grid, 200 replications per cell.  The linearized algorithm is
measured against the best single arm and should decay like 1/n; the
gradient algorithm is measured against the best convex combination and
sits on the slower 1/sqrt(n) envelope when the dictionary is large.
Takes a couple of seconds.
"""

import math

from mirroragg import (
    ExperimentConfig,
    GeneratorSpec,
    LossSpec,
    fit_rate_slope,
    optimal_rate,
    run_dictionary_size,
    verify_bound,
)

config = ExperimentConfig(
    generator=GeneratorSpec(family="bounded_regression", grid_size=16, noise_level=0.25),
    n_grid=(32, 128, 512, 2048),
    m_grid=(8, 32),
    replications=200,
    algorithms=("LMA", "MA"),
    loss=LossSpec("squared", y_bound=1.0),
    master_seed=424243,
)

# one pass per dictionary size yields every sample size of the grid
rows = [row for m in config.m_grid for row in run_dictionary_size(config, m)]

print(f"{'n':>6} {'M':>4} {'algo':<5} {'mean excess':>12} {'2*stderr':>10} {'bound':>10} {'ok':>3}")
for row in rows:
    print(
        f"{row.n:>6} {row.m:>4} {row.algorithm:<5} {row.mean_excess:>12.3e}"
        f" {2 * row.stderr:>10.1e} {row.bound_value:>10.3e} {'yes' if row.bound_pass else 'NO':>3}"
    )
print()

for name in ("lma", "ma"):
    check = verify_bound(rows, name)
    print(f"{name} bound held in {round(check.fraction_passed * check.checked)}/{check.checked} cells")
print()

lma_fit = fit_rate_slope([r for r in rows if r.algorithm == "LMA" and r.m == 8])
ma_fit = fit_rate_slope([r for r in rows if r.algorithm == "MA" and r.m == 32])
print(f"log-log slope, linearized vs best arm (M=8):   {lma_fit.slope:+.3f} +- {lma_fit.stderr:.3f}")
print(f"log-log slope, gradient vs convex hull (M=32): {ma_fit.slope:+.3f} +- {ma_fit.stderr:.3f}")
print()

# reference envelopes at the same sizes, for scale
print("reference rate values:")
for n in config.n_grid:
    ms_rate = optimal_rate(n, 8, "MS")
    c_rate = optimal_rate(n, 32, "C")
    print(f"  n = {n:>4}: lnM/n (M=8) = {ms_rate:.2e}   sqrt(ln M / n) regime (M=32) = {c_rate:.2e}")
print()
print(f"for comparison: sqrt scaling over the grid is {math.sqrt(config.n_grid[-1] / config.n_grid[0]):.0f}x,")
print(f"linear scaling is {config.n_grid[-1] // config.n_grid[0]}x")
