import math
import warnings

import numpy as np
import pytest

from mirroragg import (
    FiniteDistribution,
    GeneratorSpec,
    LabeledSample,
    LossSpec,
    TabularDictionary,
    check_exp_map_concavity,
    check_nice_loss,
    exact_risk,
    generate_instance,
    nice_beta_report,
    surrogate_mixture_loss,
)
from mirroragg.oracles import atom_design

SQUARED = LossSpec("squared", y_bound=1.0)
EXPONENTIAL = LossSpec("phi_exponential")


def atom(x, y, p):
    return (LabeledSample(x, y), p)


def benchmark_instance(m=8, seed=424243):
    spec = GeneratorSpec(family="bounded_regression", grid_size=16, noise_level=0.25)
    return generate_instance(spec, m=m, seed=seed)


def near_tie_instance(m=8, seed=424243):
    spec = GeneratorSpec(family="near_tie", grid_size=4, noise_level=0.5, tie_gap=0.01)
    return generate_instance(spec, m=m, seed=seed)


class TestNiceLossCheck:
    def test_huge_temperature_sends_estimate_to_zero_from_below(self):
        """At beta -> inf the log-moment collapses to the Jensen gap over beta.

        The gap (mixture loss minus averaged loss) is nonpositive for a
        convex loss, so the estimate must sit at or below zero and be
        numerically negligible.
        """
        dist, dictionary = benchmark_instance(m=4)
        verdict = check_nice_loss(SQUARED, dictionary, dist, beta=1e12, n=16, mc_outer=200, seed=3)
        assert verdict.estimate <= 1e-9
        assert abs(verdict.estimate) <= 1e-6
        assert verdict.verdict != "violated"

    def test_identical_arms_give_exact_zero(self):
        # Two equal arms keep the mirror weights at exactly (1/2, 1/2) and
        # make every per-function loss equal to the mixture loss, so the
        # replicate values are exactly zero, not merely small.
        values = np.array([[0.3, -0.2, 0.5], [0.3, -0.2, 0.5]])
        dictionary = TabularDictionary(values, range_bound=1.0)
        dist = FiniteDistribution([atom(0, 0.4, 0.25), atom(1, -0.1, 0.5), atom(2, 0.6, 0.25)])
        verdict = check_nice_loss(SQUARED, dictionary, dist, beta=0.05, n=12, mc_outer=150, seed=11)
        assert verdict.estimate == 0.0
        assert verdict.std_error == 0.0
        assert verdict.verdict == "satisfied"
        assert verdict.samples_used == 150

    def test_noiseless_realizable_instance_satisfied_at_beta_16(self):
        spec = GeneratorSpec(family="bounded_regression", grid_size=8, noise_level=0.0)
        dist, dictionary = generate_instance(spec, m=4, seed=7)
        verdict = check_nice_loss(SQUARED, dictionary, dist, beta=16.0, n=8, mc_outer=10_000, seed=7)
        assert verdict.verdict == "satisfied"
        assert verdict.estimate <= 0.0

    def test_benchmark_satisfied_and_near_tie_violated(self):
        """Frozen verdict pair used by the acceptance run, at reduced size.

        The noisy near-tie ladder at a temperature far below the squared
        loss requirement is the known failure case; the benchmark family at
        beta = 16 is the known pass case.
        """
        dist, dictionary = benchmark_instance()
        good = check_nice_loss(SQUARED, dictionary, dist, beta=16.0, n=64, mc_outer=400, seed=424243)
        assert good.verdict == "satisfied"
        assert -3e-3 < good.estimate < -1e-3

        tie_dist, tie_dict = near_tie_instance()
        bad = check_nice_loss(SQUARED, tie_dict, tie_dist, beta=0.16, n=64, mc_outer=400, seed=424243)
        assert bad.verdict == "violated"
        assert 0.04 < bad.estimate < 0.07

    def test_rerun_is_bitwise_deterministic(self):
        dist, dictionary = benchmark_instance(m=4)
        first = check_nice_loss(SQUARED, dictionary, dist, beta=2.0, n=32, mc_outer=120, seed=99)
        # a fresh distribution draws again instead of reusing the stored draw
        fresh = FiniteDistribution(dist.atoms)
        second = check_nice_loss(SQUARED, dictionary, fresh, beta=2.0, n=32, mc_outer=120, seed=99)
        assert first.estimate == second.estimate
        assert first.std_error == second.std_error

    def test_permuting_dictionary_arms_does_not_move_estimate(self):
        dist, dictionary = benchmark_instance(m=6)
        perm = [4, 0, 5, 2, 1, 3]
        permuted = TabularDictionary(dictionary.values[perm], range_bound=1.0)
        base = check_nice_loss(SQUARED, dictionary, dist, beta=4.0, n=24, mc_outer=200, seed=5)
        moved = check_nice_loss(SQUARED, permuted, dist, beta=4.0, n=24, mc_outer=200, seed=5)
        assert abs(base.estimate - moved.estimate) <= 1e-10

    def test_three_temperatures_draw_once(self, monkeypatch):
        """Three temperatures seed ``mc_outer`` generators in all, and estimate as on fresh distributions."""
        dist, dictionary = benchmark_instance(m=4)
        real = np.random.default_rng
        seeds = []

        def counting(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        betas = (1.0, math.e, 4.0)
        shared = [check_nice_loss(SQUARED, dictionary, dist, beta, n=16, mc_outer=150, seed=5) for beta in betas]
        assert len(seeds) == 150
        for beta, verdict in zip(betas, shared):
            fresh_dist = FiniteDistribution(dist.atoms)
            fresh = check_nice_loss(SQUARED, dictionary, fresh_dist, beta, n=16, mc_outer=150, seed=5)
            assert (verdict.estimate, verdict.std_error) == (fresh.estimate, fresh.std_error)

    def test_a_negative_seed_is_rejected(self):
        dist, dictionary = benchmark_instance(m=4)
        with pytest.raises(ValueError, match=r"\(-1, 6\)"):
            check_nice_loss(SQUARED, dictionary, dist, beta=1.0, n=8, mc_outer=100, seed=-1)

    def test_rejects_bad_arguments(self):
        dist, dictionary = benchmark_instance(m=4)
        with pytest.raises(ValueError, match="at least 100"):
            check_nice_loss(SQUARED, dictionary, dist, beta=1.0, n=8, mc_outer=99, seed=0)
        with pytest.raises(ValueError, match="training size"):
            check_nice_loss(SQUARED, dictionary, dist, beta=1.0, n=0, mc_outer=100, seed=0)
        with pytest.raises(ValueError, match="beta"):
            check_nice_loss(SQUARED, dictionary, dist, beta=0.0, n=8, mc_outer=100, seed=0)
        with pytest.raises(ValueError, match="beta"):
            check_nice_loss(SQUARED, dictionary, dist, beta=math.inf, n=8, mc_outer=100, seed=0)

    def test_rejects_labels_outside_declared_bound(self):
        dictionary = TabularDictionary(np.zeros((2, 1)), range_bound=1.0)
        dist = FiniteDistribution([atom(0, 2.0, 1.0)])
        with pytest.raises(ValueError, match="y_bound"):
            check_nice_loss(SQUARED, dictionary, dist, beta=1.0, n=8, mc_outer=100, seed=0)


class TestConcavityCheck:
    def test_exponential_loss_concave_at_e(self):
        spec = GeneratorSpec(family="phi_classification", grid_size=8)
        dist, dictionary = generate_instance(spec, m=6, seed=1000)
        verdict = check_exp_map_concavity(EXPONENTIAL, dictionary, dist, beta=math.e, seed=0)
        assert verdict.verdict == "satisfied"
        assert verdict.witness is None
        assert verdict.std_error == 0.0
        assert verdict.estimate >= -1e-12

    def test_low_temperature_violation_carries_checkable_witness(self):
        """Two sign-opposite constant classifiers break concavity at beta = 0.1.

        The witness pair must itself reproduce a failing midpoint secant
        when the map is evaluated directly.
        """
        dictionary = TabularDictionary(np.array([[1.0], [-1.0]]))
        dist = FiniteDistribution([atom(0, 1.0, 1.0)])
        beta = 0.1
        verdict = check_exp_map_concavity(EXPONENTIAL, dictionary, dist, beta=beta, seed=0)
        assert verdict.verdict == "violated"
        assert verdict.witness is not None
        assert verdict.estimate < -1e-12

        def h(theta):
            margin = theta[0] - theta[1]
            return math.exp((1.0 - math.exp(-margin)) / beta)

        a, b = verdict.witness
        assert a.shape == (2,) and b.shape == (2,)
        assert abs(a.sum() - 1.0) < 1e-9 and abs(b.sum() - 1.0) < 1e-9
        assert h(0.5 * (a + b)) < 0.5 * (h(a) + h(b))

    def test_an_overflowing_map_is_never_satisfied(self):
        """At beta = 1e-3 the map overflows float64, and the secants are decided in log space.

        The reference is the vertex of the arm with the largest exact risk,
        so almost every pair's exponent runs past 709.  The witness must
        fail the midpoint secant when ``log h`` is evaluated directly.
        """
        dist, dictionary = generate_instance(GeneratorSpec("phi_classification", grid_size=8), 6, 1)
        risks = [exact_risk(j, dictionary, EXPONENTIAL, dist) for j in range(6)]
        theta_ref = np.eye(6)[int(np.argmax(risks))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = check_exp_map_concavity(EXPONENTIAL, dictionary, dist, 1e-3, theta_ref=theta_ref, trials=1000, seed=1)
        assert verdict.verdict == "violated"
        assert verdict.witness is not None
        assert not math.isfinite(verdict.estimate)

        design = atom_design(dictionary, EXPONENTIAL, dist)

        def log_h(theta):
            exponents = (np.exp(-dist.ys * (design @ theta_ref)) - np.exp(-dist.ys * (design @ theta))) / 1e-3
            return np.logaddexp.reduce(np.log(dist.ps) + exponents)

        a, b = verdict.witness
        assert log_h(0.5 * (a + b)) < np.logaddexp(log_h(a), log_h(b)) - math.log(2.0)

    def test_identical_arms_make_the_map_constant(self):
        values = np.array([[0.2, -0.6], [0.2, -0.6]])
        dictionary = TabularDictionary(values)
        dist = FiniteDistribution([atom(0, 1.0, 0.5), atom(1, -1.0, 0.5)])
        verdict = check_exp_map_concavity(EXPONENTIAL, dictionary, dist, beta=1.0, seed=2)
        assert verdict.verdict == "satisfied"
        assert abs(verdict.estimate) < 1e-12

    def test_linear_surrogate_is_the_negative_control(self):
        # Replacing the mixture loss with its linearization makes the map
        # exp(affine), which is convex, so the same instance that passes
        # above must now fail with a witness.
        spec = GeneratorSpec(family="phi_classification", grid_size=8)
        dist, dictionary = generate_instance(spec, m=6, seed=1000)
        surrogate = surrogate_mixture_loss(EXPONENTIAL, dictionary, dist)
        verdict = check_exp_map_concavity(
            EXPONENTIAL, dictionary, dist, beta=math.e, seed=0, mixture_loss=surrogate
        )
        assert verdict.verdict == "violated"
        assert verdict.witness is not None

    @pytest.mark.parametrize(
        "spec, y, message",
        [(EXPONENTIAL, 0.5, r"labels in \{-1, \+1\}"), (SQUARED, 3.0, "y_bound")],
        ids=["margin_label_half", "squared_label_above_bound"],
    )
    def test_linear_surrogate_checks_labels_first(self, spec, y, message):
        dictionary = TabularDictionary(np.zeros((2, 1)), range_bound=1.0)
        dist = FiniteDistribution([atom(0, y, 1.0)])
        with pytest.raises(ValueError, match=message):
            surrogate_mixture_loss(spec, dictionary, dist)

    def test_reference_weights_and_trials_are_validated(self):
        dictionary = TabularDictionary(np.array([[1.0], [-1.0]]))
        dist = FiniteDistribution([atom(0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="at least 1000"):
            check_exp_map_concavity(EXPONENTIAL, dictionary, dist, beta=1.0, trials=10)
        with pytest.raises(ValueError, match="beta"):
            check_exp_map_concavity(EXPONENTIAL, dictionary, dist, beta=-1.0)
        shifted = check_exp_map_concavity(
            EXPONENTIAL, dictionary, dist, beta=math.e, theta_ref=(0.7, 0.3), seed=4
        )
        assert shifted.samples_used == 1000

    def test_same_seed_reproduces_estimate(self):
        spec = GeneratorSpec(family="phi_classification", grid_size=4)
        dist, dictionary = generate_instance(spec, m=3, seed=5)
        first = check_exp_map_concavity(EXPONENTIAL, dictionary, dist, beta=math.e, seed=21)
        second = check_exp_map_concavity(EXPONENTIAL, dictionary, dist, beta=math.e, seed=21)
        assert first.estimate == second.estimate


class TestNiceBetaReport:
    def test_exponential_computed_value_matches_quoted_constant(self):
        report = nice_beta_report("phi_exponential")
        assert report.computed_beta == pytest.approx(math.e, abs=1e-9)
        assert report.quoted_beta == math.e
        assert report.agrees is True

    def test_logit2_computed_value_disagrees_with_quoted_constant(self):
        # The supremum of (phi')^2 / phi'' for base-2 logistic sits at the
        # left end of the margin range and equals e / ln 2, well above the
        # e * ln 2 figure the report quotes for comparison.
        report = nice_beta_report("phi_logit2")
        assert report.computed_beta == pytest.approx(3.9216517136564484, abs=1e-9)
        assert report.quoted_beta == pytest.approx(math.e * math.log(2.0), abs=1e-15)
        assert report.agrees is False

    @pytest.mark.parametrize("kind", ["phi_hinge", "squared"])
    def test_inapplicable_losses_raise(self, kind):
        with pytest.raises(ValueError, match="criterion inapplicable"):
            nice_beta_report(kind)
