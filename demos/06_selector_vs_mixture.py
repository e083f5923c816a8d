"""Selector versus mixture on a ladder of nearly tied arms.

The near-tie family makes picking a single arm genuinely ambiguous: all
M constant predictors have risks spaced tie_gap apart.  This script puts
the linearized aggregate and plain empirical risk minimization side by
side at several sample sizes and two gap settings.

No verdict is attached on purpose.  With a gap held fixed as n grows the
selector eventually resolves the order and its mis-selection cost is
capped by (M-1)*gap, while the mixture keeps paying for the weight it
spreads over worse arms.  The regime where selection is conjectured to
be the weaker strategy is gaps that shrink with n, which a fixed
instance cannot represent; the table is descriptive, not a test.
"""

from mirroragg import ExperimentConfig, GeneratorSpec, LossSpec, run_dictionary_size

squared = LossSpec("squared", y_bound=1.0)

for gap in (0.01, 0.002):
    config = ExperimentConfig(
        generator=GeneratorSpec(family="near_tie", grid_size=4, noise_level=0.5, tie_gap=gap),
        n_grid=(32, 128, 512, 2048),
        m_grid=(8,),
        replications=400,
        algorithms=("LMA", "ERM"),
        loss=squared,
        master_seed=424243,
    )
    rows = run_dictionary_size(config, 8)
    by_cell = {(r.n, r.algorithm): r for r in rows}

    print(f"tie gap {gap}, M = 8, excess over the best single arm:")
    print(f"  {'n':>6} {'mixture (LMA)':>14} {'selector (ERM)':>15}")
    for n in config.n_grid:
        lma = by_cell[(n, "LMA")].mean_excess
        erm = by_cell[(n, "ERM")].mean_excess
        print(f"  {n:>6} {lma:>14.3e} {erm:>15.3e}")
    print()
