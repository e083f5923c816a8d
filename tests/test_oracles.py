import itertools
import math
import re
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mirroragg import (
    ConvergenceError,
    FiniteDistribution,
    LabeledSample,
    LossSpec,
    TabularDictionary,
    c_oracle,
    c_oracle_of_design,
    erm_select,
    exact_risk,
    excess_risk,
    loss_gradient_theta,
    loss_value,
    ms_oracle,
    ms_oracle_of_losses,
    optimal_rate,
    uniform_weights,
)
from mirroragg import oracles
from mirroragg.experiments import GeneratorSpec, generate_instance
from mirroragg.losses import PHI_HINGE, grad_coef, loss_values
from mirroragg.oracles import column_risks
from platform_key import openblas_core


def atom(x, y, p):
    return (LabeledSample(x, y), p)


def random_regression_instance(rng, m, atoms=4):
    values = rng.uniform(-1.0, 1.0, (m, atoms))
    xs = range(atoms)
    ys = rng.uniform(-1.0, 1.0, atoms)
    ps = rng.dirichlet(np.ones(atoms))
    dist = FiniteDistribution([atom(x, float(y), float(p)) for x, y, p in zip(xs, ys, ps)])
    return TabularDictionary(values), dist


def block_product(design, theta):
    """``design @ theta`` as ``mixture_risks`` forms it: a column of a fresh product with a zero-padded ``_MIXTURE_WIDTH``-row block."""
    block = np.zeros((oracles._MIXTURE_WIDTH, design.shape[1]))
    block[0] = theta
    return (design @ block.T)[:, 0]


class TestDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteDistribution([atom(0, 0.0, 0.6), atom(1, 0.0, 0.6)])

    def test_probabilities_must_be_positive(self):
        with pytest.raises(ValueError):
            FiniteDistribution([atom(0, 0.0, 1.5), atom(1, 0.0, -0.5)])

    def test_label_validation_per_loss(self):
        dist = FiniteDistribution([atom(0, 0.5, 1.0)])
        dist.validate_for(LossSpec("squared"))
        with pytest.raises(ValueError):
            dist.validate_for(LossSpec("phi_exponential"))

    def test_sampling_is_seed_deterministic(self):
        dist = FiniteDistribution([atom(0, -1.0, 0.25), atom(1, 1.0, 0.75)])
        a = dist.sample(np.random.default_rng(5), 20)
        b = dist.sample(np.random.default_rng(5), 20)
        assert a == b

    @pytest.mark.parametrize(
        "atoms",
        [
            1,
            2,
            7,
            64,
            # three tail atoms share the table's last bucket, so several
            # correction rounds are needed
            pytest.param(128, id="128-tail-in-one-bucket"),
            # uint16 replicate indices and an 8192-bucket table
            pytest.param(300, id="300-wide"),
        ],
    )
    def test_index_draws_equal_generator_choice(self, atoms):
        # skewed weights: a Dirichlet with small concentration puts most
        # mass on a few atoms and leaves some nearly empty
        ps = np.random.default_rng(atoms).dirichlet(np.full(atoms, 0.2))
        dist = FiniteDistribution([atom(a, 0.0, float(p)) for a, p in enumerate(ps / ps.sum())])
        for seed in range(12):
            for size in (0, 1, 17, 1000):
                ours, numpy_choice = np.random.default_rng(seed), np.random.default_rng(seed)
                drawn = dist.sample_indices(ours, size)
                expected = numpy_choice.choice(atoms, size, p=dist.ps)
                np.testing.assert_array_equal(drawn, expected)
                assert drawn.dtype == expected.dtype
                # both consumed the stream alike, so later draws agree too
                assert ours.random() == numpy_choice.random()

    def test_a_table_of_many_rounds_draws_by_binary_search_and_still_equals_generator_choice(self):
        """Dirichlet(0.01) over 699 atoms leaves atoms near 1e-311 in probability.

        The guide table would need 67 rounds, past the 3 * 10 at which
        ``_invert`` switches to one ``searchsorted``; the indices and the use
        of the stream must not change.
        """
        ps = np.random.default_rng(1).dirichlet(np.full(699, 0.01))
        dist = FiniteDistribution([atom(a, 0.0, float(p)) for a, p in enumerate(ps / ps.sum())])
        assert dist._guide[2] == 67
        for seed in range(6):
            ours, numpy_choice = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = dist.sample_indices(ours, 5000)
            np.testing.assert_array_equal(drawn, numpy_choice.choice(699, 5000, p=dist.ps))
            assert drawn.dtype == np.intp
            assert ours.random() == numpy_choice.random()
        idx = dist.replicate_indices((4, 2), 3, 700)
        assert idx.dtype == np.uint16
        for r in range(3):
            np.testing.assert_array_equal(idx[r], np.random.default_rng([4, 2, r]).choice(699, 700, p=dist.ps))

    @pytest.mark.parametrize(
        "ps",
        [
            np.full(32, 1 / 32),  # every CDF entry sits on a bucket edge
            np.array([1 - 3e-6, 1e-6, 1e-6, 1e-6]),  # the three tail atoms share one bucket
            np.random.default_rng(128).dirichlet(np.full(128, 0.2)),
            np.random.default_rng(5).dirichlet(np.ones(300)),
            # 67 rounds: inverted by one binary search
            np.random.default_rng(1).dirichlet(np.full(699, 0.01)),
        ],
        ids=["uniform-32", "tail-in-one-bucket", "dirichlet-128", "dirichlet-300", "dirichlet-699-many-rounds"],
    )
    def test_index_draws_invert_the_cdf_at_its_edges(self, ps):
        """Chosen uniforms: 0, every bucket edge of any table up to 2**14
        buckets, each CDF entry and its neighbours, and the largest double
        below 1.  Each index is ``cdf.searchsorted(u, side="right")``."""
        dist = FiniteDistribution([atom(a, 0.0, float(p)) for a, p in enumerate(ps / ps.sum())])
        # the CDF of Generator.choice: cumulative sums over their last entry
        cdf = dist.ps.cumsum()
        cdf /= cdf[-1]
        near = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.arange(2**14) / 2**14, near[near < 1.0]])

        class ChosenUniforms:
            def random(self, size):
                assert size == len(u)
                return u.copy()

        drawn = dist.sample_indices(ChosenUniforms(), len(u))
        np.testing.assert_array_equal(drawn, cdf.searchsorted(u, side="right"))
        assert drawn.dtype == np.intp

    @pytest.mark.parametrize("atoms, dtype", [(32, np.uint8), (256, np.uint8), (300, np.uint16)])
    def test_replicate_rows_are_per_replicate_draws_in_the_narrowest_dtype(self, atoms, dtype):
        ps = np.random.default_rng(atoms).dirichlet(np.ones(atoms))
        dist = FiniteDistribution([atom(a, 0.0, float(p)) for a, p in enumerate(ps / ps.sum())])
        key = (3, 5, 17)
        idx = dist.replicate_indices(key, 6, 500)
        assert idx.dtype == dtype
        assert idx.shape == (6, 500) and idx.flags.f_contiguous
        for r in range(6):
            np.testing.assert_array_equal(idx[r], dist.sample_indices(np.random.default_rng([*key, r]), 500))


def random_distribution(atoms, seed):
    ps = np.random.default_rng(seed).dirichlet(np.full(atoms, 0.5))
    return FiniteDistribution([atom(a, 0.0, float(p)) for a, p in enumerate(ps / ps.sum())])


@pytest.fixture
def seeded(monkeypatch):
    """Records the seed of every ``np.random.default_rng`` call."""
    real = np.random.default_rng
    seeds = []

    def counting(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return seeds


class TestReplicateDraws:
    @pytest.mark.parametrize(
        "key",
        [(2**32, 6), (0, 6), (2**40 + 7, 5, 2), (np.int64(2**32 - 1), True, 0)],
        ids=["exactly-2**32", "zero", "above-2**32", "numpy-int-and-bool"],
    )
    @pytest.mark.parametrize("size", [1, 65, 5000])
    def test_rows_are_generator_draws_across_blocks(self, key, size):
        """Row ``r`` is ``sample_indices`` on ``default_rng([*key, r])``; the last block of uniforms is partly filled."""
        dist = random_distribution(40, 7)
        rows = oracles._BLOCK_ENTRIES // size
        replicates = 2 * rows + 3 if rows < 100 else 7
        idx = dist.replicate_indices(key, replicates, size)
        assert idx.shape == (replicates, size) and idx.flags.f_contiguous
        for r in range(replicates):
            np.testing.assert_array_equal(idx[r], dist.sample_indices(np.random.default_rng([*key, r]), size))

    def test_seed_words_are_those_numpy_reads(self):
        """``2**32`` is two words, ``0`` one: the same streams as the keys spelt as words."""
        assert oracles._seed_words((0, 2**32 - 1, 2**32, 2**64 + 5)) == [0, 2**32 - 1, 0, 1, 5, 0, 1]
        for key, words in [((2**32,), (0, 1)), ((2**64 + 5, 3), (5, 0, 1, 3))]:
            ours = np.random.default_rng(np.array(oracles._seed_words(key), dtype=np.uint32)).random(3)
            np.testing.assert_array_equal(ours, np.random.default_rng(list(words)).random(3))
            np.testing.assert_array_equal(ours, np.random.default_rng(list(key)).random(3))

    def test_a_repeated_request_returns_the_stored_array(self, seeded):
        dist = random_distribution(12, 3)
        seeded.clear()
        first = dist.replicate_indices((7, 6), 20, 30)
        assert len(seeded) == 20
        assert dist.replicate_indices((7, 6), 20, 30) is first
        assert len(seeded) == 20
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1
        for key, replicates, size in [((8, 6), 20, 30), ((7, 6), 21, 30), ((7, 6), 20, 31)]:
            dist = random_distribution(12, 3)
            stored = dist.replicate_indices((7, 6), 20, 30)
            seeded.clear()
            again = dist.replicate_indices(key, replicates, size)
            assert again is not stored and len(seeded) == replicates
            np.testing.assert_array_equal(again, random_distribution(12, 3).replicate_indices(key, replicates, size))

    def test_a_negative_key_is_rejected(self):
        dist = random_distribution(4, 1)
        with pytest.raises(ValueError, match=re.escape("(3, -1)")):
            dist.replicate_indices((3, -1), 2, 5)
        # numpy rejects the same key itself
        with pytest.raises(ValueError):
            np.random.default_rng([3, -1, 0])


class TestExactRisk:
    def test_single_atom_perfect_fit(self):
        dic = TabularDictionary(np.array([[0.7], [0.0]]))
        dist = FiniteDistribution([atom(0, 0.7, 1.0)])
        assert exact_risk(0, dic, LossSpec("squared"), dist) == 0.0

    def test_two_atoms_constant_predictor(self):
        # y is 0 or 2 with equal probability, f = 1: risk (1+1)/2 = 1
        dic = TabularDictionary(np.array([[1.0], [0.0]]), range_bound=1.0)
        dist = FiniteDistribution([atom(0, 0.0, 0.5), atom(0, 2.0, 0.5)])
        spec = LossSpec("squared", y_bound=2.0)
        assert exact_risk(0, dic, spec, dist) == pytest.approx(1.0, abs=1e-15)

    def test_mixture_hand_value(self):
        dic = TabularDictionary(np.array([[1.0, 0.0], [0.0, 0.0]]))
        dist = FiniteDistribution([atom(0, 1.0, 0.5), atom(1, 0.0, 0.5)])
        spec = LossSpec("squared")
        assert exact_risk(np.array([0.5, 0.5]), dic, spec, dist) == pytest.approx(0.125, abs=1e-15)

    def test_convexity_in_weights(self):
        rng = np.random.default_rng(3)
        spec = LossSpec("squared")
        for _ in range(30):
            dic, dist = random_regression_instance(rng, 5)
            a = rng.dirichlet(np.ones(5))
            b = rng.dirichlet(np.ones(5))
            mid = exact_risk(0.5 * (a + b), dic, spec, dist)
            avg = 0.5 * exact_risk(a, dic, spec, dist) + 0.5 * exact_risk(b, dic, spec, dist)
            assert mid <= avg + 1e-12

    def test_jensen_vs_vertex_average(self):
        rng = np.random.default_rng(7)
        spec = LossSpec("squared")
        for _ in range(30):
            dic, dist = random_regression_instance(rng, 4)
            theta = rng.dirichlet(np.ones(4))
            mixture = exact_risk(theta, dic, spec, dist)
            vertex_avg = sum(theta[j] * exact_risk(j, dic, spec, dist) for j in range(4))
            assert mixture <= vertex_avg + 1e-12


class TestSelectionOracle:
    def test_picks_minimum_vertex(self):
        dic = TabularDictionary(np.array([[0.0], [0.5]]))
        dist = FiniteDistribution([atom(0, 1.0, 1.0)])
        report = ms_oracle(dic, LossSpec("squared"), dist)
        # vertex risks are (1.0, 0.25)
        assert report.minimizer == 1
        assert report.risk_value == pytest.approx(0.25, abs=1e-15)
        assert report.oracle_kind == "MS"

    def test_noiseless_realizable_is_zero(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-1, 1, (3, 4))
        dic = TabularDictionary(values)
        dist = FiniteDistribution([atom(x, float(values[2, x]), 0.25) for x in range(4)])
        report = ms_oracle(dic, LossSpec("squared"), dist)
        assert report.minimizer == 2
        assert report.risk_value == 0.0

    def test_matches_brute_force_large_dictionary(self):
        rng = np.random.default_rng(10)
        spec = LossSpec("squared")
        dic, dist = random_regression_instance(rng, 64)
        report = ms_oracle(dic, spec, dist)
        risks = [exact_risk(j, dic, spec, dist) for j in range(64)]
        assert report.risk_value == min(risks)
        assert report.minimizer == int(np.argmin(risks))
        assert report.arm_risks == tuple(risks)


class TestConvexOracle:
    def test_degenerate_duplicate_arms(self):
        dic = TabularDictionary(np.array([[0.4, -0.1], [0.4, -0.1]]))
        dist = FiniteDistribution([atom(0, 0.9, 0.5), atom(1, 0.2, 0.5)])
        spec = LossSpec("squared")
        report = c_oracle(dic, spec, dist)
        assert report.risk_value == pytest.approx(exact_risk(0, dic, spec, dist), abs=1e-12)

    def test_interior_optimum_two_arms(self):
        """Arms 0 and 2 bracket a deterministic target of 1, so the
        even mixture fits exactly while the best single arm misses."""
        dic = TabularDictionary(np.array([[0.0], [2.0]]), range_bound=2.0)
        dist = FiniteDistribution([atom(0, 1.0, 1.0)])
        spec = LossSpec("squared", y_bound=1.0)
        convex = c_oracle(dic, spec, dist)
        selection = ms_oracle(dic, spec, dist)
        assert selection.risk_value == pytest.approx(1.0, abs=1e-15)
        assert convex.risk_value == pytest.approx(0.0, abs=1e-12)
        assert_allclose(convex.minimizer, [0.5, 0.5], atol=1e-5)
        assert convex.gap_certificate <= 1e-8
        assert selection.arm_risks == (1.0, 1.0)
        assert convex.arm_risks == ()

    def test_never_above_selection_oracle(self):
        rng = np.random.default_rng(19)
        spec = LossSpec("squared")
        for _ in range(20):
            dic, dist = random_regression_instance(rng, 5)
            convex = c_oracle(dic, spec, dist)
            selection = ms_oracle(dic, spec, dist)
            assert convex.risk_value <= selection.risk_value + 1e-12

    def test_certificate_is_reconstructible(self):
        rng = np.random.default_rng(23)
        spec = LossSpec("squared")
        dic, dist = random_regression_instance(rng, 4)
        report = c_oracle(dic, spec, dist, tol=1e-10)
        theta = report.minimizer
        grad = np.zeros(4)
        for sample, p in dist.atoms:
            grad += p * loss_gradient_theta(spec, dic, sample, theta)
        gap = float(theta @ grad - grad.min())
        assert gap <= 1e-8

    def test_certified_gaps_are_never_negative_on_empirical_distributions(self):
        """480 solves on samples of n = 8 atoms, plus one whose float vertex gap came out at -1.4e-17.

        Which problems round below 0 follows the BLAS kernels (the iteration
        path does), so only the reported gaps are checked.
        """
        genspec, spec = GeneratorSpec("bounded_regression", grid_size=16, noise_level=0.5), LossSpec("squared")
        gaps = []
        for m in (8, 32):
            for seed in range(6):
                dist, dictionary = generate_instance(genspec, m, seed)
                design = oracles.atom_design(dictionary, spec, dist)
                rng = np.random.default_rng([seed, m])
                samples = [rng.choice(len(dist.atoms), 8, p=dist.ps) for _ in range(40)]
                if (m, seed) == (8, 0):
                    samples.append([7, 13, 14, 20, 22, 26, 27, 28])
                for atoms in samples:
                    empirical = FiniteDistribution([(dist.atoms[a][0], 1 / 8) for a in atoms])
                    gaps.append(c_oracle_of_design(design[atoms], "squared", empirical).gap_certificate)
        assert len(gaps) == 481
        assert min(gaps) >= 0.0

    def test_hinge_identity_with_selection_oracle(self):
        rng = np.random.default_rng(29)
        spec = LossSpec("phi_hinge")
        for _ in range(10):
            values = rng.uniform(-1.0, 1.0, (4, 3))
            dic = TabularDictionary(values)
            ps = rng.dirichlet(np.ones(6))
            atoms = [atom(x, y, float(p)) for (x, y), p in zip([(i, s) for i in range(3) for s in (-1.0, 1.0)], ps)]
            dist = FiniteDistribution(atoms)
            convex = c_oracle(dic, spec, dist)
            selection = ms_oracle(dic, spec, dist)
            assert abs(convex.risk_value - selection.risk_value) <= 1e-8

    def test_iteration_cap_raises_with_best_iterate(self):
        cases = [(random_regression_instance(np.random.default_rng(31), 5), 1)]
        # instances on which a gap recorded apart from the weights came from another iterate
        for seed, max_iter in ((62, 5), (111, 5), (21, 13), (323, 13)):
            rng = np.random.default_rng(seed)
            m, k = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            values, ys = rng.uniform(-1.0, 1.0, (m, k)), rng.uniform(-1.0, 1.0, k)
            dist = FiniteDistribution([atom(x, float(y), 1.0 / k) for x, y in enumerate(ys)])
            cases.append(((TabularDictionary(values), dist), max_iter))
        spec = LossSpec("squared")
        for (dic, dist), max_iter in cases:
            with pytest.raises(ConvergenceError) as info:
                c_oracle(dic, spec, dist, tol=1e-14, max_iter=max_iter)
            err = info.value
            w = err.best_weights
            assert w.shape == (dic.size,)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            # the exact gradient of sum_a p_a (y_a - F_a . w)^2 at the reported weights
            g = dic.values @ (dist.ps * 2.0 * (dic.values.T @ w - dist.ys))
            assert err.gap == pytest.approx(float(w @ g - g.min()), rel=1e-12)
            assert err.best_risk == pytest.approx(exact_risk(w, dic, spec, dist), rel=1e-12)


class TestRates:
    def test_convex_rate_small_dictionary(self):
        assert optimal_rate(100, 5, "C") == pytest.approx(0.05, abs=1e-15)

    def test_selection_rate(self):
        assert optimal_rate(100, 2, "MS") == pytest.approx(0.006931471805599453, abs=1e-15)

    def test_boundary_uses_linear_branch(self):
        # M^2 = n sits on the boundary and takes the M/n branch
        assert optimal_rate(100, 10, "C") == pytest.approx(0.1, abs=1e-15)

    def test_large_dictionary_branch(self):
        assert optimal_rate(1, 2, "C") == pytest.approx(1.048147073968205, abs=1e-12)
        assert optimal_rate(100, 11, "C") == pytest.approx(0.0861357849403706, abs=1e-12)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            optimal_rate(0, 2, "C")
        with pytest.raises(ValueError):
            optimal_rate(10, 1, "MS")
        with pytest.raises(ValueError):
            optimal_rate(10, 2, "median")


class TestExcess:
    def test_zero_at_oracle(self):
        assert excess_risk(0.5, 0.5) == 0.0

    def test_plain_difference(self):
        assert excess_risk(0.6, 0.5) == pytest.approx(0.1)

    def test_bounded_below_by_certificate(self):
        rng = np.random.default_rng(41)
        spec = LossSpec("squared")
        dic, dist = random_regression_instance(rng, 4)
        report = c_oracle(dic, spec, dist)
        for _ in range(10):
            theta = rng.dirichlet(np.ones(4))
            value = excess_risk(exact_risk(theta, dic, spec, dist), report.risk_value)
            assert value >= -report.gap_certificate - 1e-12


class TestSelectorAgainstOracle:
    def test_selector_risk_never_below_selection_oracle(self):
        rng = np.random.default_rng(43)
        spec = LossSpec("squared")
        dic, dist = random_regression_instance(rng, 5)
        data = dist.sample(np.random.default_rng(0), 25)
        index, _ = erm_select(data, spec, dic)
        assert exact_risk(index, dic, spec, dist) >= ms_oracle(dic, spec, dist).risk_value

    def test_uniform_mixture_between_oracles(self):
        rng = np.random.default_rng(47)
        spec = LossSpec("squared")
        for _ in range(10):
            dic, dist = random_regression_instance(rng, 4)
            value = exact_risk(uniform_weights(4), dic, spec, dist)
            assert value >= c_oracle(dic, spec, dist).risk_value - 1e-10
            assert value <= max(exact_risk(j, dic, spec, dist) for j in range(4)) + 1e-12


class TestHingeConvexOracle:
    """One projected-gradient solver serves the hinge loss through its subgradient."""

    @pytest.mark.parametrize("family", ["margin_classification", "phi_classification"])
    @pytest.mark.parametrize("m", [2, 4, 8, 32])
    def test_equals_selection_oracle_exactly_on_unit_range(self, family, m):
        # the hinge risk is affine on the simplex here, so the infimum is the best vertex
        spec = LossSpec("phi_hinge")
        genspec = GeneratorSpec(family)
        for seed in range(4):
            dist, dic = generate_instance(genspec, m, seed)
            convex = c_oracle(dic, spec, dist)
            assert convex.risk_value == ms_oracle(dic, spec, dist).risk_value
            assert convex.gap_certificate <= 1e-8

    def test_certifies_a_minimizer_off_the_vertices(self):
        # arms at +2 and -2; each vertex pays 3 on half the mass, the even mixture predicts 0
        dic = TabularDictionary(np.array([[2.0], [-2.0]]), range_bound=2.0)
        dist = FiniteDistribution([atom(0, 1.0, 0.5), atom(0, -1.0, 0.5)])
        spec = LossSpec("phi_hinge")
        convex = c_oracle(dic, spec, dist)
        assert ms_oracle(dic, spec, dist).risk_value == 1.5
        assert convex.risk_value == 1.0
        assert_allclose(convex.minimizer, [0.5, 0.5])
        assert convex.gap_certificate == 0.0

    def test_certifies_a_vertex_minimizer_beyond_the_unit_range(self):
        # arm 0 reaches 2 at point 0 and has margin exactly 0 at point 1; any
        # weight on arm 1 raises the loss at point 1, so e_0 is the only minimizer
        dic = TabularDictionary(np.array([[2.0, 1.0, 0.0], [0.5, -1.0, 0.0]]), range_bound=2.0)
        dist = FiniteDistribution([atom(0, 1.0, 0.4), atom(1, 1.0, 0.4), atom(2, -1.0, 0.2)])
        spec = LossSpec("phi_hinge")
        convex = c_oracle(dic, spec, dist)
        selection = ms_oracle(dic, spec, dist)
        assert selection.minimizer == 0
        assert convex.risk_value == selection.risk_value == pytest.approx(0.2, abs=1e-15)
        assert_allclose(convex.minimizer, [1.0, 0.0], atol=1e-12)
        assert convex.gap_certificate <= 1e-8


def fsum_columns(kind, dist, values):
    """The reference: ``math.fsum`` of each column's per-atom products, one Python float per atom."""
    return [math.fsum((dist.ps * loss_values(kind, dist.ys, v)).tolist()) for v in values.T]


PRODUCT_CASES = ("unit", "wide range", "zeros and subnormals", "powers of two")


def products_stand_in(rng, case, atoms, columns):
    """``(dist, values)`` whose squared-loss products ``ps[a] * values[a, c]**2`` follow ``case``.

    ``column_risks`` reads only ``ps`` and ``ys``, so a stand-in with
    labels 0 and probabilities of any sign and size reaches every float a
    product can be.
    """
    sign = rng.choice([-1.0, 1.0], atoms)
    if case == "unit":
        ps, values = rng.random(atoms), rng.random((atoms, columns))
    elif case == "wide range":
        ps = sign * 10.0 ** rng.uniform(-150.0, 150.0, atoms)
        values = 10.0 ** rng.uniform(-75.0, 75.0, (atoms, columns))
    elif case == "zeros and subnormals":
        ps = sign * rng.random(atoms) * 1e-300
        values = rng.uniform(0.0, 1e-5, (atoms, columns)) * (rng.random((atoms, columns)) < 0.7)
    else:  # powers of two, so a column's largest product is one, with cancellations
        ps = np.ldexp(sign, rng.integers(-60, 60, atoms))
        values = np.ldexp(1.0, rng.integers(-4, 4, (atoms, columns)))
    return SimpleNamespace(ps=ps, ys=np.zeros(atoms)), values


def subset_sums_match_fsum(ps):
    """``column_risks`` of one column per subset of the products ``ps``, checked against ``math.fsum``."""
    values = (np.arange(2 ** len(ps))[None, :] >> np.arange(len(ps))[:, None]) & 1
    dist = SimpleNamespace(ps=ps, ys=np.zeros(len(ps)))
    got = column_risks("squared", dist, values.astype(float))
    assert list(map(float.hex, got)) == list(map(float.hex, fsum_columns("squared", dist, values)))
    return got


class TestColumnRisks:
    """``column_risks`` is bit for bit ``math.fsum`` of each column, whatever the products and block layout."""

    @pytest.mark.parametrize("case", PRODUCT_CASES)
    @pytest.mark.parametrize("atoms", [1, 3, 512, 4096])
    def test_equals_fsum_of_each_column(self, case, atoms):
        rng = np.random.default_rng([17, atoms, PRODUCT_CASES.index(case)])
        width = oracles._BLOCK_ENTRIES // atoms
        for columns in (1, width - 1, width, width + 1, 2 * width + 1):
            dist, values = products_stand_in(rng, case, atoms, columns)
            got = column_risks("squared", dist, values)
            assert list(map(float.hex, got)) == list(map(float.hex, fsum_columns("squared", dist, values)))

    def test_every_subset_of_ties_and_cancellations(self):
        """Columns pick subsets of products around a power-of-two maximum: ties to even, cancellation, far tails."""
        ps = np.array([1.0, 2.0**-53, 2.0**-200, -(2.0**-200), -(2.0**-54), -1.0, 1.0 - 2.0**-53, 2.0**-1074])
        got = subset_sums_match_fsum(ps)
        assert got[0b11] == 1.0 and got[0b111] == 1.0 + 2.0**-52
        # the tie is broken only by what three extraction passes leave over
        assert got[0b1111] == 1.0 and got[0b10001111] == 1.0 + 2.0**-52

    @pytest.mark.parametrize("top", [1.5 * 2.0**1019, 1.5 * 2.0**1020, 2.0**1020, 2.0**1023])
    def test_near_the_largest_float(self, top):
        """Products up to the largest binade: extracted while ``sigma`` stays finite, summed by ``math.fsum`` beyond."""
        subset_sums_match_fsum(np.array([top, -top, top / 3, 1.0]))

    def test_an_overflowing_sum_raises_fsums_error(self):
        dist = SimpleNamespace(ps=np.array([2.0**1023, 2.0**1023]), ys=np.zeros(2))
        with pytest.raises(OverflowError):
            fsum_columns("squared", dist, np.ones((2, 1)))
        with pytest.raises(OverflowError):
            column_risks("squared", dist, np.ones((2, 1)))

    def test_non_finite_columns_behave_as_fsum(self):
        dist = SimpleNamespace(ps=np.array([1.0, -2.0, 0.5]), ys=np.zeros(3))
        values = np.array([[np.inf, 1.0, np.nan, 1e150], [1.0, np.inf, 2.0, np.inf], [0.5, 1.0, 1.0, 1e-200]])
        got = column_risks("squared", dist, values)
        want = fsum_columns("squared", dist, values)
        assert got[0] == want[0] == np.inf and got[1] == want[1] == -np.inf
        assert math.isnan(got[2]) and math.isnan(want[2])
        assert got[3] == want[3] == -np.inf

    def test_mixed_infinities_raise_fsums_error(self):
        dist = SimpleNamespace(ps=np.array([1.0, -1.0, 1.0]), ys=np.zeros(3))
        values = np.array([[1.0, np.inf], [2.0, np.inf], [3.0, 1.0]])
        with pytest.raises(ValueError) as expected:
            fsum_columns("squared", dist, values)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            column_risks("squared", dist, values)

    @pytest.mark.parametrize("kind", ["squared", "phi_exponential", "phi_logit2", "phi_hinge"])
    def test_equals_fsum_on_a_generated_instance(self, kind):
        if kind == "squared":
            genspec = GeneratorSpec("bounded_regression", grid_size=256, noise_level=0.25)
        else:
            genspec = GeneratorSpec("phi_classification", grid_size=256)
        dist, dictionary = generate_instance(genspec, 100, 5)
        design = oracles.atom_design(dictionary, LossSpec(kind), dist)
        assert column_risks(kind, dist, design) == fsum_columns(kind, dist, design)
        thetas = np.random.default_rng(3).dirichlet(np.ones(100), 130)
        mixtures = np.stack([block_product(design, theta) for theta in thetas], axis=1)
        assert oracles.mixture_risks(kind, dist, design, thetas) == fsum_columns(kind, dist, mixtures)

    @pytest.mark.parametrize("kind", ["squared", "phi_logit2"])
    @pytest.mark.parametrize("m", [2, 33])
    def test_mixture_risks_equal_one_product_per_weight_vector(self, kind, m):
        """Several spans of weight vectors: each risk is ``column_risks`` of its own zero-padded block product."""
        if kind == "squared":
            genspec = GeneratorSpec("bounded_regression", grid_size=256, noise_level=0.25)
        else:
            genspec = GeneratorSpec("phi_classification", grid_size=128)
        dist, dictionary = generate_instance(genspec, m, 9)
        design = oracles.atom_design(dictionary, LossSpec(kind), dist)
        width = oracles._block_width(len(design))
        thetas = np.random.default_rng(m).dirichlet(np.ones(m), 2 * width + 5)
        want = [column_risks(kind, dist, block_product(design, theta)[:, None])[0] for theta in thetas]
        assert oracles.mixture_risks(kind, dist, design, thetas) == want

    @pytest.mark.parametrize("atoms, m", [(1, 1), (1, 7), (9, 1), (5, 3), (40, 17)])
    def test_one_weight_vector_is_one_product(self, atoms, m):
        """One weight vector, down to one atom or one arm: ``mixture_risks`` and ``exact_risk`` price its zero-padded block product."""
        rng = np.random.default_rng(atoms * 100 + m)
        dictionary, dist = random_regression_instance(rng, m, atoms)
        design = oracles.atom_design(dictionary, LossSpec("squared"), dist)
        for theta in rng.dirichlet(np.ones(m), 30):
            want = column_risks("squared", dist, block_product(design, theta)[:, None])
            assert oracles.mixture_risks("squared", dist, design, [theta]) == want
            assert exact_risk(theta, dictionary, LossSpec("squared"), dist) == want[0]

    # _block_width(K) is 16, 32, 64 and 327 here: a span below, at and above
    # one product's width
    @pytest.mark.parametrize("atoms", [2048, 1024, 512, 100])
    def test_a_vectors_risk_does_not_depend_on_its_call(self, atoms):
        """Calls of 1, W - 1, W, W + 1 and 2 spans + 5 vectors, in two orders: each vector's risk is the one it has alone."""
        width = oracles._MIXTURE_WIDTH
        m = 7
        rng = np.random.default_rng(atoms)
        dictionary, dist = random_regression_instance(rng, m, atoms)
        design = oracles.atom_design(dictionary, LossSpec("squared"), dist)
        for count in (1, width - 1, width, width + 1, 2 * oracles._block_width(atoms) + 5):
            thetas = rng.dirichlet(np.ones(m), count)
            alone = [oracles.mixture_risks("squared", dist, design, [theta])[0] for theta in thetas]
            assert oracles.mixture_risks("squared", dist, design, thetas) == alone
            # every vector at another position, among other neighbours
            order = rng.permutation(count)
            assert oracles.mixture_risks("squared", dist, design, thetas[order]) == [alone[i] for i in order]
        assert exact_risk(thetas[0], dictionary, LossSpec("squared"), dist) == alone[0]

    def test_peak_memory_is_flat_in_the_number_of_weight_vectors(self):
        """Past the returned list, a call's peak allocation does not grow with R: only the tail block is padded, never a copy of ``thetas``."""
        dist, dictionary = generate_instance(GeneratorSpec("phi_classification", grid_size=256), 64, 5)
        design = oracles.atom_design(dictionary, LossSpec("phi_logit2"), dist)
        assert oracles._block_width(len(design)) == 64  # one span is two products

        def peak_past_the_list(count):
            thetas = np.random.default_rng(count).dirichlet(np.ones(64), count)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                risks = oracles.mixture_risks("phi_logit2", dist, design, thetas)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            return peak - sys.getsizeof(risks) - sum(map(sys.getsizeof, risks))

        # a tail of 13 vectors on both; a copy of the larger thetas would be 2 MB
        small, large = peak_past_the_list(64 + 13), peak_past_the_list(4096 + 13)
        assert large - small <= 16 * 1024, (small, large)

    @pytest.mark.parametrize("kind", ["squared", "phi_logit2", "phi_hinge"])
    def test_the_convex_oracles_value_is_the_exact_risk_of_its_minimizer(self, kind):
        genspec = GeneratorSpec("bounded_regression" if kind == "squared" else "phi_classification", grid_size=32)
        dist, dictionary = generate_instance(genspec, 9, 4)
        report = c_oracle(dictionary, LossSpec(kind), dist)
        assert report.risk_value == exact_risk(report.minimizer, dictionary, LossSpec(kind), dist)


class CountingDesign:
    """A table that keeps the vector of each ``table @ vector`` product; its ``T`` does the same for the transposed products."""

    def __init__(self, array, transpose=None):
        self.array = array
        self.shape = array.shape
        self.points = []
        self.T = transpose or CountingDesign(array.T, self)

    def __matmul__(self, theta):
        self.points.append(theta)
        return self.array @ theta


def step_rule_sweep():
    """The 600 random tables ``(kind, rows, dist)`` of the step-rule sweep, one atom per point."""
    rng = np.random.default_rng(2026)
    for i in range(600):
        kind = ("squared", "phi_exponential", "phi_logit2", "phi_hinge")[i % 4]
        m, k = int(rng.integers(2, 65)), int(rng.integers(1, 65))
        bound = 1.5 if i % 8 == 3 else 1.0
        values = rng.uniform(-bound, bound, (m, k))
        ys = rng.uniform(-1.0, 1.0, k) if kind == "squared" else rng.choice((-1.0, 1.0), k)
        ps = rng.dirichlet(np.ones(k))
        yield kind, values.T, FiniteDistribution([atom(x, float(y), float(p)) for x, (y, p) in enumerate(zip(ys, ps))])


# products of a certified solve of step_rule_sweep's table, under the step rule
# that only halved the curvature estimate every 50 iterations: relaxing it by
# 0.5 every iteration stalled 385 and 464 in restarts, and 0.7 without the
# restart guard took 244 from 26 to 67-139 iterations (164-273 products), by
# OpenBLAS core
SWEEP_PRODUCTS = {244: 102, 385: 79, 464: 72}


class TestSolverMixtures:
    @pytest.mark.parametrize(
        "kind, genspec",
        [
            ("squared", GeneratorSpec("bounded_regression", grid_size=8, noise_level=0.25)),
            ("phi_logit2", GeneratorSpec("phi_classification", grid_size=8)),
            ("phi_hinge", GeneratorSpec("margin_classification", grid_size=8)),
        ],
    )
    def test_one_product_per_point_and_the_gap_of_a_fresh_product(self, kind, genspec):
        """Every weight vector the solver visits carries its own point-row product; the gap is the final iterate's."""
        dist, dictionary = generate_instance(genspec, 6, 23)
        design = oracles.atom_design(dictionary, LossSpec(kind), dist)
        point_of_atom, first_atoms = dist.design_points
        rows = design.take(first_atoms, axis=0)
        assert 2 * len(rows) == len(design) and rows.shape[0] != rows.shape[1]
        counting = CountingDesign(rows)
        try:
            theta, gap = oracles._minimize(counting, kind, dist, tol=1e-8, max_iter=3000)
        except ConvergenceError as err:
            theta, gap = err.best_weights, err.gap
        # every point is kept alive by the list, so distinct ids are distinct objects
        assert len({id(point) for point in counting.points}) == len(counting.points) > 2
        assert any(point is theta for point in counting.points)
        ps, ys, mix = dist.ps, dist.ys, (rows @ theta).take(point_of_atom)
        if kind == PHI_HINGE:
            weights = ps * (ys * mix <= 1.0) * -ys
        else:
            weights = ps * grad_coef(kind, ys, mix)
        g = rows.T @ np.bincount(point_of_atom, weights=weights, minlength=len(rows))
        # a certified gap that rounding took below 0 is reported as 0
        assert gap == max(float(theta @ g - g.min()), 0.0)

    @pytest.mark.parametrize("seed", [424243, 7, 11])
    def test_a_wide_logit_solve_certifies_within_140_products(self, seed):
        """perfbench's wide table at M = 256; a step that only shortened (halved every 50 iterations) took 222-258 products."""
        dist, dictionary = generate_instance(GeneratorSpec("phi_classification", grid_size=256), 256, seed)
        design = oracles.atom_design(dictionary, LossSpec("phi_logit2"), dist)
        counting = CountingDesign(design.take(dist.design_points[1], axis=0))
        _, gap = oracles._minimize(counting, "phi_logit2", dist, tol=1e-8, max_iter=1_000_000)
        assert gap <= 1e-8
        assert len(counting.points) + len(counting.T.points) <= 140

    @pytest.mark.parametrize("index", sorted(SWEEP_PRODUCTS))
    def test_sweep_tables_certify_within_one_and_a_half_times_the_products_of_the_shrinking_step(self, index):
        kind, rows, dist = next(itertools.islice(step_rule_sweep(), index, None))
        counting = CountingDesign(rows)
        _, gap = oracles._minimize(counting, kind, dist, tol=1e-8, max_iter=5000)
        assert gap <= 1e-8
        assert len(counting.points) + len(counting.T.points) <= 1.5 * SWEEP_PRODUCTS[index]


# the eight family x loss configs of BENCH_17.json's byte-identity checks: grid
# 24, seed 7, noise 0.5 on the regression families and tie_gap 0.02 on near_tie
TABLE_CONFIGS = [
    (GeneratorSpec("bounded_regression", grid_size=24, noise_level=0.5), "squared"),
    (GeneratorSpec("near_tie", grid_size=24, noise_level=0.5, tie_gap=0.02), "squared"),
] + [
    (GeneratorSpec(family, grid_size=24), kind)
    for family in ("phi_classification", "margin_classification")
    for kind in ("phi_exponential", "phi_hinge", "phi_logit2")
]


class TestTableForms:
    @pytest.mark.parametrize(
        "genspec, kind", TABLE_CONFIGS, ids=[f"{genspec.family}-{kind}" for genspec, kind in TABLE_CONFIGS]
    )
    def test_each_table_form_is_its_oracle_bit_for_bit(self, genspec, kind):
        """On one instance's tables the forms return the dictionary oracles' reports, and each arm risk is ``math.fsum``'s."""
        spec = LossSpec(kind)
        for m in (3, 12, 40):
            dist, dictionary = generate_instance(genspec, m, 7)
            design = oracles.atom_design(dictionary, spec, dist)
            losses = loss_values(kind, dist.ys[:, None], design)

            selection, reference = ms_oracle_of_losses(losses, dist), ms_oracle(dictionary, spec, dist)
            assert selection == reference
            assert list(selection.arm_risks) == [math.fsum((dist.ps * column).tolist()) for column in losses.T]

            convex, reference = c_oracle_of_design(design, kind, dist), c_oracle(dictionary, spec, dist)
            assert (convex.risk_value, convex.gap_certificate) == (reference.risk_value, reference.gap_certificate)
            assert np.array_equal(convex.minimizer, reference.minimizer)
            assert convex.risk_value <= selection.risk_value + 1e-8

    @pytest.mark.parametrize("form", ["dictionary", "table"])
    def test_both_convex_forms_validate_their_tolerance_and_iterations(self, form):
        dist = FiniteDistribution([atom(0, 1.0, 1.0)])
        dictionary = TabularDictionary(np.array([[0.0], [0.5]]))

        def solve(**limits):
            if form == "dictionary":
                return c_oracle(dictionary, LossSpec("squared"), dist, **limits)
            return c_oracle_of_design(dictionary.values.T, "squared", dist, **limits)

        with pytest.raises(ValueError, match="^tol must be positive and finite, got 0.0$"):
            solve(tol=0.0)
        with pytest.raises(ValueError, match="^max_iter must be at least 1, got 0$"):
            solve(max_iter=0)
        assert solve().risk_value == 0.25


class CountingTable(TabularDictionary):
    """A table dictionary that records the design point of every ``values_at`` and ``evaluate`` call."""

    def __init__(self, values):
        super().__init__(values)
        self.calls = []

    def values_at(self, x):
        self.calls.append(x)
        return super().values_at(x)

    def evaluate(self, j, x):
        self.calls.append(x)
        return super().evaluate(j, x)


# every generated family that puts two labels at each design point
PAIRED_FAMILIES = [
    (GeneratorSpec("phi_classification", grid_size=16), "phi_logit2"),
    (GeneratorSpec("margin_classification", grid_size=16), "phi_exponential"),
    (GeneratorSpec("bounded_regression", grid_size=16, noise_level=0.25), "squared"),
    (GeneratorSpec("near_tie", grid_size=16, noise_level=0.5), "squared"),
]
PAIRED_IDS = [genspec.family for genspec, _ in PAIRED_FAMILIES]


# (risk_value, gap_certificate) of TestPointTables' pinned solve, per OpenBLAS
# runtime core, each measured with OPENBLAS_CORETYPE forcing the core
SOLVE_PINS = {
    "SkylakeX": ("0x1.dd1398ccb0c35p-3", "0x1.3809dfbc00000p-27"),
    "Haswell": ("0x1.dd1398ccb0c35p-3", "0x1.3809dfd400000p-27"),
    "Sandybridge": ("0x1.dd1398ccb0c35p-3", "0x1.3809dfb400000p-27"),
}


class TestPointTables:
    def test_points_are_numbered_in_first_seen_order_and_an_unhashable_point_is_its_own(self):
        xs = [3, 1, 3, np.array([0.5]), 1, np.array([0.5]), 0, 3.0]
        dist = FiniteDistribution([atom(x, 1.0 if i % 2 else -1.0, 0.125) for i, x in enumerate(xs)])
        point_of_atom, first_atoms = dist.design_points
        assert point_of_atom.dtype == np.intp
        assert point_of_atom.tolist() == [0, 1, 0, 2, 1, 3, 4, 0]
        assert first_atoms == [0, 1, 3, 5, 6]
        assert dist.design_points is dist.design_points

    @pytest.mark.parametrize("genspec, kind", PAIRED_FAMILIES, ids=PAIRED_IDS)
    def test_paired_label_families_have_one_point_per_two_atoms(self, genspec, kind):
        dist, _ = generate_instance(genspec, 5, 3)
        point_of_atom, first_atoms = dist.design_points
        assert point_of_atom.tolist() == np.repeat(np.arange(16), 2).tolist()
        assert first_atoms == list(range(0, 32, 2))

    @pytest.mark.parametrize("family", ["bounded_regression", "near_tie"])
    def test_noise_free_regression_has_one_point_per_atom(self, family):
        dist, _ = generate_instance(GeneratorSpec(family, grid_size=16), 5, 3)
        point_of_atom, first_atoms = dist.design_points
        assert point_of_atom.tolist() == first_atoms == list(range(16))

    @pytest.mark.parametrize("m", [3, 40, 256])
    def test_at_one_atom_per_point_the_point_products_are_the_atom_products_bit_for_bit(self, m):
        dist, dictionary = generate_instance(GeneratorSpec("bounded_regression", grid_size=64), m, 9)
        design = oracles.atom_design(dictionary, LossSpec("squared"), dist)
        point_of_atom, first_atoms = dist.design_points
        rows = design.take(first_atoms, axis=0)
        assert rows.shape == design.shape
        rng = np.random.default_rng(m)
        for _ in range(5):
            theta = rng.dirichlet(np.ones(m))
            mix = (rows @ theta).take(point_of_atom)
            assert mix.tobytes() == (design @ theta).tobytes()
            weights = dist.ps * grad_coef("squared", dist.ys, mix)
            gradient = rows.T @ np.bincount(point_of_atom, weights=weights, minlength=len(rows))
            assert gradient.tobytes() == (design.T @ weights).tobytes()

    @pytest.mark.parametrize("genspec, kind", PAIRED_FAMILIES, ids=PAIRED_IDS)
    def test_the_per_point_gradient_is_the_atom_gradient_summed_per_point(self, genspec, kind):
        dist, dictionary = generate_instance(genspec, 40, 9)
        design = oracles.atom_design(dictionary, LossSpec(kind), dist)
        point_of_atom, first_atoms = dist.design_points
        rows = design.take(first_atoms, axis=0)
        theta = np.random.default_rng(1).dirichlet(np.ones(40))
        mix = (rows @ theta).take(point_of_atom)
        assert_allclose(mix, design @ theta, rtol=0.0, atol=1e-15)
        weights = dist.ps * grad_coef(kind, dist.ys, mix)
        gradient = rows.T @ np.bincount(point_of_atom, weights=weights, minlength=len(rows))
        assert_allclose(gradient, design.T @ weights, rtol=1e-13, atol=1e-16)

    def test_a_solve_at_one_atom_per_point_keeps_the_value_of_the_atom_table_solver(self):
        """Pinned from the per-point solver (OpenBLAS 0.3.31); at one atom per point its products are the atom table's.

        The solver's BLAS products round per kernel set, so the value and
        gap are pinned per OpenBLAS runtime core; on any other core the
        test checks what no kernel can move.
        """
        dictionary, dist = random_regression_instance(np.random.default_rng(11), 12, atoms=40)
        report = c_oracle(dictionary, LossSpec("squared"), dist)
        assert np.count_nonzero(report.minimizer) > 1
        assert report.gap_certificate <= 1e-8
        assert report.risk_value == exact_risk(report.minimizer, dictionary, LossSpec("squared"), dist)
        core = openblas_core()
        if core not in SOLVE_PINS:
            warnings.warn(f"no pinned convex solve for OpenBLAS core {core!r}; checked the gap and exact risk only")
            return
        value, gap = SOLVE_PINS[core]
        assert (report.risk_value, report.gap_certificate) == (float.fromhex(value), float.fromhex(gap))

    @pytest.mark.parametrize("genspec, kind", PAIRED_FAMILIES, ids=PAIRED_IDS)
    def test_tables_evaluate_the_dictionary_once_per_point_and_keep_their_bytes(self, genspec, kind):
        dist, tabular = generate_instance(genspec, 6, 4)
        spec = LossSpec(kind)
        points = [dist.atoms[a][0].x for a in dist.design_points[1]]
        assert 2 * len(points) == len(dist.atoms)
        dictionary = CountingTable(tabular.values)
        design = oracles.atom_design(dictionary, spec, dist)
        assert dictionary.calls == points
        assert design.tobytes() == np.stack([tabular.values_at(z.x) for z, _ in dist.atoms]).tobytes()
        for j in range(dictionary.size):
            dictionary.calls.clear()
            risk = exact_risk(j, dictionary, spec, dist)
            assert dictionary.calls == points
            assert risk == column_risks(kind, dist, design[:, j : j + 1])[0]
        for solve in (c_oracle, ms_oracle, lambda *args: exact_risk(uniform_weights(6), *args)):
            dictionary.calls.clear()
            solve(dictionary, spec, dist)
            assert dictionary.calls == points
