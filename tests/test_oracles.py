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
    erm_select,
    exact_risk,
    excess_risk,
    loss_gradient_theta,
    loss_value,
    ms_oracle,
    optimal_rate,
    uniform_weights,
)
from mirroragg.experiments import GeneratorSpec, generate_instance


def atom(x, y, p):
    return (LabeledSample(x, y), p)


def random_regression_instance(rng, m, atoms=4):
    values = rng.uniform(-1.0, 1.0, (m, atoms))
    xs = range(atoms)
    ys = rng.uniform(-1.0, 1.0, atoms)
    ps = rng.dirichlet(np.ones(atoms))
    dist = FiniteDistribution([atom(x, float(y), float(p)) for x, y, p in zip(xs, ys, ps)])
    return TabularDictionary(values), dist


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

    @pytest.mark.parametrize(
        "ps",
        [
            np.full(32, 1 / 32),  # every CDF entry sits on a bucket edge
            np.array([1 - 3e-6, 1e-6, 1e-6, 1e-6]),  # the three tail atoms share one bucket
            np.random.default_rng(128).dirichlet(np.full(128, 0.2)),
            np.random.default_rng(5).dirichlet(np.ones(300)),
        ],
        ids=["uniform-32", "tail-in-one-bucket", "dirichlet-128", "dirichlet-300"],
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
        rng = np.random.default_rng(31)
        dic, dist = random_regression_instance(rng, 5)
        with pytest.raises(ConvergenceError) as info:
            c_oracle(dic, LossSpec("squared"), dist, tol=1e-14, max_iter=1)
        err = info.value
        assert err.best_weights.shape == (5,)
        assert err.best_weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.isfinite(err.best_risk)
        assert np.isfinite(err.gap)


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

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    @pytest.mark.parametrize("m", [2, 4, 8, 32])
    def test_equals_selection_oracle_exactly_on_unit_range(self, kappa, m):
        # the hinge risk is affine on the simplex here, so the infimum is the best vertex
        spec = LossSpec("phi_hinge")
        genspec = GeneratorSpec("margin_classification", margin_exponent=kappa)
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
