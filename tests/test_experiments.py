import math
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mirroragg import (
    ExperimentConfig,
    FiniteDistribution,
    GeneratorSpec,
    LossSpec,
    ResultRow,
    Schedule,
    TabularDictionary,
    averaged_weights,
    c_oracle,
    default_lma_betas,
    exact_risk,
    fit_rate_slope,
    generate_instance,
    gibbs_map,
    linearized_loss_vector,
    ma_init,
    ma_step,
    ms_oracle,
    ms_oracle_of_losses,
    run_cell,
    run_dictionary_size,
    uniform_weights,
    verify_bound,
)
from mirroragg import experiments, oracles
from mirroragg.aggregation import _reanchor_period, erm_totals, lma_weights, ma_weights
from mirroragg.cli import rows_to_csv
from mirroragg.experiments import _excess_statistics
from mirroragg.losses import loss_values
from mirroragg.oracles import atom_design

SQUARED = LossSpec("squared", y_bound=1.0)


def small_config(**overrides):
    base = dict(
        generator=GeneratorSpec(family="bounded_regression", grid_size=8, noise_level=0.25),
        n_grid=(1,),
        m_grid=(2,),
        replications=1,
        algorithms=("LMA", "MA", "ERM"),
        loss=SQUARED,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def synthetic_row(n, excess, algorithm="LMA", oracle_kind="MS", bound=1.0, stderr=0.0):
    return ResultRow(
        n=n,
        m=4,
        algorithm=algorithm,
        loss_kind="squared",
        oracle_kind=oracle_kind,
        mean_excess=excess,
        stderr=stderr,
        oracle_value=0.25,
        bound_value=bound,
        bound_pass=None,
        seed=0,
    )


class TestGenerators:
    def test_same_key_reproduces_the_instance_bitwise(self):
        spec = GeneratorSpec(family="bounded_regression", grid_size=12, noise_level=0.3)
        dist_a, dict_a = generate_instance(spec, m=5, seed=31)
        dist_b, dict_b = generate_instance(spec, m=5, seed=31)
        assert np.array_equal(dict_a.values, dict_b.values)
        assert np.array_equal(dist_a.ys, dist_b.ys)
        assert np.array_equal(dist_a.ps, dist_b.ps)

    def test_noiseless_regression_is_realizable(self):
        # Arm 0 is the conditional mean by construction; without noise it
        # predicts every response exactly.
        spec = GeneratorSpec(family="bounded_regression", grid_size=8, noise_level=0.0)
        dist, dictionary = generate_instance(spec, m=4, seed=2)
        report = ms_oracle(dictionary, SQUARED, dist)
        assert report.risk_value == 0.0
        assert report.minimizer == 0

    def test_hard_margin_family_keeps_eta_away_from_half(self):
        spec = GeneratorSpec(family="margin_classification", grid_size=8, margin_exponent=1.0)
        dist, _ = generate_instance(spec, m=3, seed=4)
        conditional = {}
        for sample, p in dist.atoms:
            pos, tot = conditional.get(sample.x, (0.0, 0.0))
            conditional[sample.x] = (pos + (p if sample.y == 1.0 else 0.0), tot + p)
        etas = np.array([pos / tot for pos, tot in conditional.values()])
        assert np.min(np.abs(etas - 0.5)) >= 0.25 - 1e-12

    def test_near_tie_ladder_spaces_risks_exactly(self):
        delta = 0.01
        spec = GeneratorSpec(family="near_tie", grid_size=4, noise_level=0.5, tie_gap=delta)
        dist, dictionary = generate_instance(spec, m=5, seed=9)
        noise_floor = 0.25
        for j in range(5):
            risk = exact_risk(j, dictionary, SQUARED, dist)
            assert risk == pytest.approx(noise_floor + delta * j, rel=1e-12)

    def test_infeasible_ladder_is_rejected(self):
        spec = GeneratorSpec(family="near_tie", grid_size=4, noise_level=0.5, tie_gap=0.03)
        with pytest.raises(ValueError, match="infeasible"):
            generate_instance(spec, m=40, seed=0)

    def test_kappa_below_one_is_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            GeneratorSpec(family="margin_classification", margin_exponent=0.5)


class TestRunCell:
    def test_single_observation_cell_matches_oracles_by_hand(self):
        """With n = 1 both aggregates output the uniform mixture.

        The averaged weights are the pre-update weights of the single
        step, so each row's mean excess must equal the uniform-mixture
        risk minus that row's oracle, and the selector must pick the
        empirical minimizer on the one drawn atom.
        """
        config = small_config()
        rows = run_cell(config, n=1, m=2)
        assert [row.algorithm for row in rows] == ["LMA", "MA", "ERM"]
        assert [row.oracle_kind for row in rows] == ["MS", "C", "MS"]
        assert all(row.stderr == 0.0 for row in rows)

        dist, dictionary = generate_instance(config.generator, 2, config.master_seed)
        ms = ms_oracle(dictionary, SQUARED, dist)
        convex = c_oracle(dictionary, SQUARED, dist)
        uniform_risk = exact_risk(uniform_weights(2), dictionary, SQUARED, dist)

        lma_row, ma_row, erm_row = rows
        assert lma_row.oracle_value == ms.risk_value
        assert ma_row.oracle_value == convex.risk_value
        assert abs(lma_row.mean_excess - (uniform_risk - ms.risk_value)) <= 1e-12
        assert abs(ma_row.mean_excess - (uniform_risk - convex.risk_value)) <= 1e-12

        # replicate streams are keyed (seed, 5, M, r), 5 being the replicate tag
        drawn = dist.replicate_indices((config.master_seed, 5, 2), 1, 1)[0, 0]
        sample, _ = dist.atoms[drawn]
        arm_losses = (sample.y - dictionary.values_at(sample.x)) ** 2
        picked = int(np.argmin(arm_losses))
        assert abs(erm_row.mean_excess - (exact_risk(picked, dictionary, SQUARED, dist) - ms.risk_value)) <= 1e-12

    def test_bounds_attached_where_they_apply(self):
        config = small_config(n_grid=(8,), m_grid=(4,), replications=3)
        rows = run_cell(config, n=8, m=4)
        lma_row, ma_row, erm_row = rows
        assert lma_row.bound_value == pytest.approx(16.0 * math.log(4) / 9.0, rel=1e-15)
        assert ma_row.bound_value == pytest.approx(2.0 * math.sqrt(16.0 * math.log(4) / 8.0), rel=1e-15)
        assert erm_row.bound_value is None and erm_row.bound_pass is None

    def test_stderr_scales_like_inverse_root_replications(self):
        few = run_cell(
            small_config(n_grid=(32,), m_grid=(4,), algorithms=("LMA",), replications=250), 32, 4
        )[0]
        many = run_cell(
            small_config(n_grid=(32,), m_grid=(4,), algorithms=("LMA",), replications=1000), 32, 4
        )[0]
        assert few.stderr > 0.0
        assert 0.35 <= many.stderr / few.stderr <= 0.65

    def test_cross_oracle_excesses_differ_by_the_oracle_gap(self):
        # Re-measuring one algorithm's achieved risk against the other
        # oracle must shift the excess by exactly R_MS - R_C.
        config = small_config(n_grid=(16,), m_grid=(4,), replications=5)
        rows = run_cell(config, n=16, m=4)
        dist, dictionary = generate_instance(config.generator, 4, config.master_seed)
        ms = ms_oracle(dictionary, SQUARED, dist)
        convex = c_oracle(dictionary, SQUARED, dist)
        lma_row = rows[0]
        achieved = lma_row.mean_excess + lma_row.oracle_value
        excess_convex = achieved - convex.risk_value
        assert abs((excess_convex - lma_row.mean_excess) - (ms.risk_value - convex.risk_value)) <= 1e-12

    def test_a_selection_only_cell_never_solves_the_convex_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the convex oracle solved on an LMA/ERM-only cell")

        # the table form by either name: the pass's, and the one c_oracle calls
        for module in (experiments, oracles):
            monkeypatch.setattr(module, "c_oracle_of_design", refuse)
        config = small_config(
            generator=GeneratorSpec(family="margin_classification", grid_size=8),
            loss=LossSpec("phi_hinge"),
            algorithms=("LMA", "ERM"),
            lma_betas=(2.0,),
            n_grid=(16,),
            m_grid=(4,),
            replications=5,
        )
        rows = run_cell(config, 16, 4)
        assert [(row.algorithm, row.oracle_kind) for row in rows] == [("LMA", "MS"), ("ERM", "MS")]

    def test_a_gradient_only_cell_never_solves_the_selection_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the selection oracle solved on an MA-only cell")

        for module in (experiments, oracles):
            monkeypatch.setattr(module, "ms_oracle_of_losses", refuse)
        config = small_config(algorithms=("MA",), n_grid=(16,), m_grid=(4,), replications=5)
        rows = run_cell(config, 16, 4)
        assert [(row.algorithm, row.oracle_kind) for row in rows] == [("MA", "C")]

    def test_erm_reads_the_selection_oracles_arm_risks(self, monkeypatch):
        """ERM maps each replicate's pick to the risk the selection oracle enumerated, with no second per-arm pass."""

        def refuse(*args, **kwargs):
            raise AssertionError("an ERM-only cell evaluated exact risks itself")

        def marked_arm_risks(*args):
            return replace(ms_oracle_of_losses(*args), arm_risks=(7.0,) * 4)

        monkeypatch.setattr(experiments, "mixture_risks", refuse)
        monkeypatch.setattr(experiments, "ms_oracle_of_losses", marked_arm_risks)
        config = small_config(algorithms=("ERM",), n_grid=(16,), m_grid=(4,), replications=5)
        [row] = run_cell(config, 16, 4)
        assert row.mean_excess == 7.0 - row.oracle_value

    def test_a_constant_ma_schedule_runs_every_step_at_ma_beta0(self, monkeypatch):
        seen = []

        def recording_ma_weights(idx, design, ys, kind, betas, checkpoints):
            seen.append(betas)
            return ma_weights(idx, design, ys, kind, betas, checkpoints)

        monkeypatch.setattr(experiments, "ma_weights", recording_ma_weights)
        config = small_config(
            algorithms=("MA",), ma_schedule="constant", ma_beta0=0.7, n_grid=(16,), m_grid=(4,), replications=5
        )
        rows = run_cell(config, 16, 4)
        assert [(row.algorithm, row.oracle_kind) for row in rows] == [("MA", "C")]
        assert len(seen) == 1
        assert seen[0].tolist() == [0.7] * 16

    def test_the_kernels_run_after_the_dictionary_is_released(self, monkeypatch):
        """Past the tabulation a cell keeps only the range bound.

        The kernels' tables then never sit in memory beside the dictionary's.
        """
        made = []

        def recording_instance(*args):
            dist, dictionary = generate_instance(*args)
            made.append(weakref.ref(dictionary))
            return dist, dictionary

        def released(kernel):
            def run(*args):
                assert made and made[0]() is None, f"{kernel.__name__} ran while the dictionary was alive"
                return kernel(*args)

            return run

        monkeypatch.setattr(experiments, "generate_instance", recording_instance)
        for kernel in (lma_weights, ma_weights, erm_totals):
            monkeypatch.setattr(experiments, kernel.__name__, released(kernel))
        rows = run_cell(small_config(n_grid=(16,), m_grid=(4,), replications=5), 16, 4)
        assert [row.algorithm for row in rows] == ["LMA", "MA", "ERM"]

    def test_a_pass_tabulates_each_atom_once_and_its_loss_table_once(self, monkeypatch):
        """Both oracles and all three kernels read the one table and the one loss table of the pass."""
        config = small_config(n_grid=(8, 16), m_grid=(4,), replications=5)
        dist, _ = generate_instance(config.generator, 4, config.master_seed)
        evaluated, tabulated = [], []
        values_at = TabularDictionary.values_at

        def counting_values_at(self, x):
            evaluated.append(x)
            return values_at(self, x)

        def recording_loss_values(kind, y, f):
            tabulated.append(np.shape(f))
            return loss_values(kind, y, f)

        monkeypatch.setattr(TabularDictionary, "values_at", counting_values_at)
        for module in (experiments, oracles):
            monkeypatch.setattr(module, "loss_values", recording_loss_values)
        rows = run_dictionary_size(config, 4)
        assert [row.algorithm for row in rows] == ["LMA", "MA", "ERM"] * 2
        assert sorted(evaluated) == sorted(z.x for z, _ in dist.atoms)
        # the mixture risks take (K, 5) blocks of the 5 replicates and the solver (K,) mixtures
        assert tabulated.count((len(dist.atoms), 4)) == 1


@pytest.fixture
def stand_in_draws(monkeypatch):
    """Replicate draws under a stand-in key ``(seed + 1, 99, M)``; returns the keys and widths asked for.

    The stand-in keeps one stream per ``(M, r)``, as the harness's key
    does, so the tests below pin the nesting of the samples, not the
    value of the replicate tag.
    """
    real = FiniteDistribution.replicate_indices
    calls = []

    def stand_in(self, key, replicates, size):
        calls.append((tuple(key), size))
        seed, _, m = key
        return real(self, (seed + 1, 99, m), replicates, size)

    monkeypatch.setattr(FiniteDistribution, "replicate_indices", stand_in)
    return calls


def lma_beta_with_period(period, m=5):
    """An LMA temperature at which the ``small_config`` instance of size ``m`` re-anchors every ``period`` steps."""
    dist, dictionary = generate_instance(small_config().generator, m, small_config().master_seed)
    losses = loss_values("squared", dist.ys[:, None], atom_design(dictionary, SQUARED, dist))
    spread = float((losses.max(axis=1) - losses.min(axis=1)).max())
    beta = (period + 0.5) * spread / 600.0
    assert _reanchor_period(spread, beta) == period
    return beta


class TestCellStatistics:
    @pytest.mark.parametrize("reps", [20, 100, 400])
    def test_equal_replicates_report_their_excess_plus_minus_zero(self, reps):
        """numpy's mean of these equal floats is one ulp off at each R; a cell's mean excess must not be."""
        rng = np.random.default_rng(reps)
        shared = [0.54999999999999993, *rng.uniform(0.0, 2.0, 200), *rng.uniform(0.0, 1e-3, 200)]
        for value in shared:
            for oracle_value in (value, 0.5, 0.0):
                achieved = np.full(reps, value)
                assert _excess_statistics(achieved, oracle_value) == (value - oracle_value, 0.0)

    @pytest.mark.parametrize("reps", [1, 2, 20, 100, 400])
    def test_the_mean_excess_is_the_exact_mean_rounded_once(self, reps):
        rng = np.random.default_rng(1000 + reps)
        for scale in (1.0, 1e-6, 1e6):
            oracle_value = float(rng.uniform(0.0, scale))
            achieved = oracle_value + rng.exponential(scale * 1e-3, reps) * rng.choice([-1.0, 1.0], reps)
            exact = (sum(map(Fraction, achieved.tolist())) - reps * Fraction(oracle_value)) / reps
            mean_excess, stderr = _excess_statistics(achieved, oracle_value)
            assert mean_excess == float(exact)
            expected = achieved.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
            assert stderr == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_an_erm_cell_whose_every_replicate_picks_the_oracle_arm_reads_zero(self):
        """Hinge margin instance: from n = 128 every ERM replicate picks the selection oracle's arm."""
        config = ExperimentConfig(
            generator=GeneratorSpec("margin_classification", grid_size=64, margin_exponent=2.0),
            n_grid=(32, 128, 512, 2048, 8192),
            m_grid=(8,),
            replications=400,
            algorithms=("LMA", "ERM"),
            loss=LossSpec("phi_hinge"),
            master_seed=7,
            lma_betas=(2.0,),
        )
        erm = {row.n: row for row in run_dictionary_size(config, 8) if row.algorithm == "ERM"}
        assert erm[32].mean_excess > 0.0
        assert [(erm[n].mean_excess, erm[n].stderr) for n in (128, 512, 2048, 8192)] == [(0.0, 0.0)] * 4


class TestDictionarySizePass:
    """One pass per dictionary size gives the rows of one cell at a time, byte for byte."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(replications=3),
            dict(replications=9),
            dict(replications=9, ma_schedule="constant", ma_beta0=0.7),
            dict(replications=4, algorithms=("LMA", "ERM"), lma_betas=(2.0, 5.0)),
            dict(replications=9, algorithms=("LMA",), lma_betas=(lma_beta_with_period(5),), n_grid=(1, 10, 13, 25)),
            dict(replications=2, n_grid=(1,)),
        ],
        ids=["R<M", "R>M", "constant-MA", "two-LMA-temperatures", "re-anchor-every-5", "n=1"],
    )
    def test_the_pass_equals_the_cells_one_at_a_time(self, stand_in_draws, overrides):
        """Five arms, so three replicates run the row-major state and nine the arm-major one.

        At a re-anchor period of 5, checkpoint 10 stops right before a
        re-anchor, whose block the next segment replays, and 13 stops
        between two.  The grid is unsorted on purpose.
        """
        config = small_config(**{"n_grid": (33, 1, 20, 7), "m_grid": (5,), **overrides})
        per_size = run_dictionary_size(config, 5)
        per_cell = [row for n in config.n_grid for row in run_cell(config, n, 5)]
        # one draw to the largest n for the pass, then one per cell, all from one key
        key = stand_in_draws[0][0]
        assert stand_in_draws == [(key, max(config.n_grid))] + [(key, n) for n in config.n_grid]
        assert rows_to_csv(per_size, "") == rows_to_csv(per_cell, "")


class TestBatchEngines:
    @pytest.mark.parametrize("reps", [3, 9])
    def test_batched_runs_match_the_public_single_runs(self, reps):
        """Each kernel row equals a per-sample fold of the public steps.

        The references are independent of the kernels: ``ma_step`` for the
        gradient form, and ``gibbs_map`` over ``linearized_loss_vector``
        sums for the linearized form and the selector.  Several replicates
        check that rows do not leak into each other; with five arms, three
        replicates run the row-major state and nine the arm-major one.
        """
        spec = GeneratorSpec(family="bounded_regression", grid_size=8, noise_level=0.25)
        dist, dictionary = generate_instance(spec, m=5, seed=13)
        design = atom_design(dictionary, SQUARED, dist)
        losses = loss_values("squared", dist.ys[:, None], design)
        idx = dist.replicate_indices((13, 17, 5), reps, 17)
        beta = 3.0
        sched = Schedule.sqrt_growth(1.7)

        [batched_lin] = lma_weights(idx, losses, beta, (17,))
        [batched_grad] = ma_weights(idx, design, dist.ys, "squared", sched.betas(17), (17,))
        [batched_totals] = erm_totals(idx, losses, (17,))
        for r in range(reps):
            data = [dist.atoms[i][0] for i in idx[r]]
            state = ma_init(5)
            scores = np.zeros(5)
            mirrored = uniform_weights(5)
            total = np.zeros(5)
            for z in data:
                state = ma_step(state, z, SQUARED, dictionary, sched)
                total += mirrored
                scores = scores + linearized_loss_vector(SQUARED, dictionary, z)
                mirrored = gibbs_map(scores, beta)
            assert_allclose(batched_grad[r], averaged_weights(state), rtol=0, atol=1e-12)
            assert_allclose(batched_lin[r], total / len(data), rtol=0, atol=1e-12)
            assert_allclose(batched_totals[r], scores, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 5])
    def test_a_row_does_not_depend_on_the_replicates_beside_it(self, m):
        """Row 4 of a nine-replicate run equals the same replicate run alone.

        Nine replicates run arm-major and one runs row-major.  The row min
        is exact in both layouts, and so is a sum of two arms, so two arms
        agree bit for bit; more arms may differ in the summation order.
        """
        spec = GeneratorSpec(family="bounded_regression", grid_size=8, noise_level=0.25)
        dist, dictionary = generate_instance(spec, m=m, seed=21)
        design = atom_design(dictionary, SQUARED, dist)
        losses = loss_values("squared", dist.ys[:, None], design)
        idx = dist.replicate_indices((21, 40, m), 9, 40)
        alone = idx[4:5]
        betas = Schedule.sqrt_growth(0.9).betas(40)
        pairs = [
            (ma_weights(idx, design, dist.ys, "squared", betas, (40,))[0][4],
             ma_weights(alone, design, dist.ys, "squared", betas, (40,))[0][0]),
            (lma_weights(idx, losses, 2.0, (40,))[0][4], lma_weights(alone, losses, 2.0, (40,))[0][0]),
            (erm_totals(idx, losses, (40,))[0][4], erm_totals(alone, losses, (40,))[0][0]),
        ]
        for among, single in pairs:
            if m == 2:
                np.testing.assert_array_equal(among, single)
            else:
                assert_allclose(among, single, rtol=0, atol=1e-12)


class TestExpectedExcessByEnumeration:
    """The grid's mean excess estimates the exact expected excess of each algorithm.

    With ``grid_size = 1`` and noise an instance has two atoms of
    probability 1/2, so every sequence of draws is equally likely.  Fed
    all ``2 ** n_max`` sequences as replicate rows, the kernels give the
    exact expected risk at every ``n`` of the grid (a prefix of a uniform
    sequence is uniform), while the grid estimates it from ``R`` seeded
    replicates.  A row passes within four of its standard errors, a bound
    fixed before the first run.  A rare mistake can read ``0 +- 0`` in the
    grid, so a zero standard error is replaced by the exact standard
    deviation over ``sqrt(R)``, with an absolute slack of 1e-15.
    """

    N_GRID = (4, 8, 12)
    LMA_BETA = 16.0
    MA_BETA0 = 2.0

    @pytest.mark.parametrize(
        "generator",
        [
            GeneratorSpec("bounded_regression", grid_size=1, noise_level=0.25),
            GeneratorSpec("near_tie", grid_size=1, noise_level=0.5, tie_gap=0.02),
        ],
        ids=["bounded_regression", "near_tie"],
    )
    @pytest.mark.parametrize("m", [2, 8])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_rows_lie_within_four_standard_errors_of_the_exact_value(self, generator, m, seed):
        config = small_config(
            generator=generator,
            n_grid=self.N_GRID,
            m_grid=(m,),
            replications=4000,
            master_seed=seed,
            lma_betas=(self.LMA_BETA,),
            ma_beta0=self.MA_BETA0,
        )
        dist, dictionary = generate_instance(generator, m, config.master_seed)
        assert dist.ps.tolist() == [0.5, 0.5]
        design = atom_design(dictionary, SQUARED, dist)
        losses = loss_values("squared", dist.ys[:, None], design)
        n_max = self.N_GRID[-1]
        # row s draws atom (s >> t) & 1 at step t: every sequence once
        idx = np.asfortranarray((np.arange(2**n_max)[:, None] >> np.arange(n_max)) & 1)

        def risks(thetas):
            return (dist.ps * (dist.ys - thetas @ design.T) ** 2).sum(axis=1)

        ma_betas = Schedule.sqrt_growth(self.MA_BETA0).betas(n_max)
        arm_risks = dist.ps @ losses
        exact = {
            "LMA": [risks(t) for t in lma_weights(idx, losses, self.LMA_BETA, self.N_GRID)],
            "MA": [risks(t) for t in ma_weights(idx, design, dist.ys, "squared", ma_betas, self.N_GRID)],
            "ERM": [arm_risks[np.argmin(s, axis=1)] for s in erm_totals(idx, losses, self.N_GRID)],
        }
        rows = run_dictionary_size(config, m)
        assert len(rows) == 3 * len(self.N_GRID)
        for row in rows:
            achieved = exact[row.algorithm][self.N_GRID.index(row.n)]
            expected = achieved.mean() - row.oracle_value
            scale = row.stderr or achieved.std() / math.sqrt(config.replications)
            assert abs(row.mean_excess - expected) <= 4.0 * scale + 1e-15, (row, expected)


class TestRateFit:
    def test_exact_inverse_law_recovers_slope_minus_one(self):
        rows = [synthetic_row(n, 0.7 / n) for n in (10, 100, 1000, 10_000)]
        fit = fit_rate_slope(rows)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.stderr <= 1e-9
        assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-9)

    def test_exact_root_law_recovers_slope_minus_half(self):
        rows = [synthetic_row(n, 2.0 / math.sqrt(n)) for n in (16, 64, 256, 1024, 4096)]
        fit = fit_rate_slope(rows)
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)

    def test_nonpositive_rows_are_excluded_with_a_warning(self):
        rows = [synthetic_row(n, 0.7 / n) for n in (10, 100, 1000, 10_000)]
        rows.append(synthetic_row(7, 0.0))
        with pytest.warns(UserWarning, match="n=\\[7\\]"):
            fit = fit_rate_slope(rows)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_too_few_usable_sizes_raise(self):
        rows = [synthetic_row(n, 0.7 / n) for n in (10, 100, 1000)]
        rows.append(synthetic_row(7, -0.1))
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="at least 4"):
            fit_rate_slope(rows)

    def test_duplicate_sizes_raise(self):
        rows = [synthetic_row(n, 0.7 / n) for n in (10, 100, 100, 1000)]
        with pytest.raises(ValueError, match="duplicate"):
            fit_rate_slope(rows)


class TestVerifyBound:
    def test_selection_counting_and_failures(self):
        rows = [
            synthetic_row(10, 0.01, bound=0.5),
            synthetic_row(100, 0.002, bound=0.05),
            synthetic_row(1000, 5.0, bound=0.5),
            synthetic_row(10, 0.1, algorithm="MA", oracle_kind="C", bound=0.5),
            synthetic_row(10, 0.1, algorithm="ERM", bound=None),
        ]
        check = verify_bound(rows, "lma")
        assert check.checked == 3
        assert check.fraction_passed == pytest.approx(2.0 / 3.0)
        assert check.failures == (rows[2],)

        ma_check = verify_bound(rows, "ma")
        assert ma_check.checked == 1 and ma_check.fraction_passed == 1.0

    def test_two_sigma_margin_is_applied(self):
        row = synthetic_row(10, 0.6, bound=0.5, stderr=0.06)
        assert verify_bound([row], "lma").fraction_passed == 1.0
        tight = synthetic_row(10, 0.6, bound=0.5, stderr=0.04)
        assert verify_bound([tight], "lma").fraction_passed == 0.0

    def test_unknown_or_empty_selection_raises(self):
        with pytest.raises(ValueError, match="unknown bound"):
            verify_bound([synthetic_row(10, 0.1)], "erm")
        with pytest.raises(ValueError, match="no rows"):
            verify_bound([synthetic_row(10, 0.1)], "ma")


class TestDefaults:
    def test_default_temperatures_per_loss(self):
        assert default_lma_betas(SQUARED, 1.0) == (16.0,)
        assert default_lma_betas(LossSpec("phi_exponential"), 1.0) == (math.e,)
        logit = default_lma_betas(LossSpec("phi_logit2"), 1.0)
        assert logit == pytest.approx((math.e * math.log(2.0), math.e / math.log(2.0)))
        with pytest.raises(ValueError, match="explicitly"):
            default_lma_betas(LossSpec("phi_hinge"), 1.0)

    def test_config_rejects_inconsistent_choices(self):
        with pytest.raises(ValueError, match="differentiable"):
            small_config(loss=LossSpec("phi_hinge"), algorithms=("MA",), lma_betas=(1.0,))
        with pytest.raises(ValueError, match="explicitly"):
            small_config(loss=LossSpec("phi_hinge"), algorithms=("LMA",))
        with pytest.raises(ValueError, match="^ma_schedule must be 'sqrt_growth' or 'constant', got 'linear'$"):
            small_config(ma_schedule="linear")
        with pytest.raises(ValueError, match="replications"):
            small_config(replications=0)
        with pytest.raises(ValueError, match="m_grid"):
            small_config(m_grid=(1,))
        with pytest.raises(ValueError, match="unknown algorithms"):
            small_config(algorithms=("SGD",))
        with pytest.raises(ValueError, match="n_grid repeats"):
            small_config(n_grid=(8, 16, 8))
        with pytest.raises(ValueError, match="m_grid repeats"):
            small_config(m_grid=(2, 2))
        for family in ("bounded_regression", "near_tie"):
            with pytest.raises(ValueError, match=f"margin losses require labels .* the {family} family"):
                small_config(generator=GeneratorSpec(family=family), loss=LossSpec("phi_logit2"))


def test_run_cell_warns_once_per_cell_on_margin_values_outside_the_unit_range(monkeypatch):
    real = experiments.generate_instance

    def stretched(spec, m, seed):
        dist, dictionary = real(spec, m, seed)
        return dist, TabularDictionary(1.5 * dictionary.values, range_bound=1.5)

    monkeypatch.setattr(experiments, "generate_instance", stretched)
    config = small_config(
        generator=GeneratorSpec(family="phi_classification", grid_size=6),
        loss=LossSpec("phi_logit2"),
        n_grid=(4,),
        replications=3,
    )
    with pytest.warns(UserWarning, match=r"margin loss evaluated at \|f\|=1\.\d+ > 1") as record:
        run_cell(config, 4, 2)
    assert len(record) == 1
