import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mirroragg import (
    LabeledSample,
    LossSpec,
    Schedule,
    TabularDictionary,
    averaged_weights,
    erm_select,
    gibbs_map,
    linearized_loss_vector,
    lma_run,
    loss_value,
    ma_init,
    ma_run,
    ma_step,
    mixture_value,
    uniform_weights,
)

UNIT_SCHEDULE = Schedule.constant(1.0)


def two_constant_arms():
    return TabularDictionary(np.array([[1.0], [-1.0]]))


def random_data(rng, kind, k, n):
    if kind == "squared":
        ys = rng.uniform(-1.0, 1.0, n)
    else:
        ys = rng.choice([-1.0, 1.0], n)
    xs = rng.integers(k, size=n)
    return [LabeledSample(int(x), float(y)) for x, y in zip(xs, ys)]


class TestInit:
    def test_scores_zero_weights_uniform(self):
        state = ma_init(5)
        assert_allclose(state.scores, np.zeros(5))
        assert_allclose(state.mirrored, np.full(5, 0.2))
        assert state.step == 0

    def test_two_arm_init(self):
        state = ma_init(2)
        assert_allclose(state.mirrored, [0.5, 0.5])

    def test_single_arm_rejected(self):
        with pytest.raises(ValueError):
            ma_init(1)

    def test_average_undefined_before_first_step(self):
        with pytest.raises(ValueError):
            averaged_weights(ma_init(3))


class TestGradientStep:
    def test_hand_trace_one_step(self):
        """One squared-loss step on two constant arms with y = 1.

        The mixture at uniform weights predicts 0, so the gradient is
        -2(1 - 0) * (1, -1) = (-2, 2) and the mirrored weights are
        (e^2, e^-2) normalized.
        """
        state = ma_step(ma_init(2), LabeledSample(0, 1.0), LossSpec("squared"), two_constant_arms(), UNIT_SCHEDULE)
        assert_allclose(state.scores, [-2.0, 2.0], atol=1e-15)
        z = math.exp(2.0) + math.exp(-2.0)
        assert_allclose(state.mirrored, [math.exp(2.0) / z, math.exp(-2.0) / z], atol=1e-12)
        assert_allclose(state.mirrored, [0.9820, 0.0180], atol=5e-5)
        assert_allclose(averaged_weights(state), [0.5, 0.5], atol=1e-15)

    def test_zero_gradient_is_fixed_point(self):
        dic = TabularDictionary(np.array([[0.3, 0.3], [0.3, 0.3]]))
        data = [LabeledSample(i % 2, 0.3) for i in range(20)]
        theta, _ = ma_run(data, LossSpec("squared"), dic, UNIT_SCHEDULE)
        assert_allclose(theta, [0.5, 0.5], atol=1e-15)

    def test_single_sample_returns_uniform(self):
        theta, _ = ma_run([LabeledSample(0, 1.0)], LossSpec("squared"), two_constant_arms(), UNIT_SCHEDULE)
        assert_allclose(theta, [0.5, 0.5], atol=1e-15)

    def test_duplicate_arms_stay_balanced(self):
        dic = TabularDictionary(np.array([[0.4, -0.2], [0.4, -0.2]]))
        rng = np.random.default_rng(2)
        data = random_data(rng, "squared", 2, 50)
        theta, _ = ma_run(data, LossSpec("squared"), dic, Schedule.sqrt_growth(2.0))
        assert theta[0] == theta[1] == 0.5

    def test_replay_is_bitwise_deterministic(self):
        rng = np.random.default_rng(9)
        dic = TabularDictionary(rng.uniform(-1, 1, (3, 4)))
        data = random_data(rng, "squared", 4, 30)
        sched = Schedule.sqrt_growth(1.5)
        spec = LossSpec("squared")

        def fold():
            state = ma_init(3)
            for z in data:
                state = ma_step(state, z, spec, dic, sched)
            return state

        first, second = fold(), fold()
        assert np.array_equal(first.scores, second.scores)
        assert np.array_equal(first.mirrored, second.mirrored)
        assert np.array_equal(averaged_weights(first), averaged_weights(second))

    def test_run_matches_manual_fold(self):
        rng = np.random.default_rng(21)
        dic = TabularDictionary(rng.uniform(-1, 1, (4, 5)))
        data = random_data(rng, "squared", 5, 40)
        sched = Schedule.sqrt_growth(3.0)
        spec = LossSpec("squared")
        state = ma_init(4)
        for z in data:
            state = ma_step(state, z, spec, dic, sched)
        theta, predictor = ma_run(data, spec, dic, sched)
        assert np.array_equal(theta, averaged_weights(state))
        assert predictor(2) == pytest.approx(mixture_value(theta, dic, 2), abs=1e-15)

    @pytest.mark.parametrize("kind", ["squared", "phi_exponential", "phi_logit2"])
    def test_a_step_fold_is_ma_run_bit_for_bit(self, kind):
        """``averaged_weights`` divides by the step count, as the kernel does, not by the weights' sum."""
        for seed in range(12):
            rng = np.random.default_rng([kind == "squared", kind == "phi_logit2", seed])
            m, n, k = int(rng.integers(2, 40)), int(rng.integers(1, 200)), int(rng.integers(1, 8))
            dic = TabularDictionary(rng.uniform(-1, 1, (m, k)))
            data = random_data(rng, kind, k, n)
            spec, sched = LossSpec(kind), Schedule.sqrt_growth(float(rng.uniform(0.3, 3.0)))
            state = ma_init(m)
            for z in data:
                state = ma_step(state, z, spec, dic, sched)
            assert np.array_equal(ma_run(data, spec, dic, sched)[0], averaged_weights(state)), seed

    def test_hinge_rejected_for_gradient_steps(self):
        with pytest.raises(ValueError):
            ma_run([LabeledSample(0, 1.0)], LossSpec("phi_hinge"), two_constant_arms(), UNIT_SCHEDULE)

    def test_bad_schedule_values_rejected(self):
        bad = Schedule(beta_at=lambda i: -1.0)
        with pytest.raises(ValueError):
            ma_step(ma_init(2), LabeledSample(0, 1.0), LossSpec("squared"), two_constant_arms(), bad)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            ma_run([], LossSpec("squared"), two_constant_arms(), UNIT_SCHEDULE)


class TestLinearizedRun:
    def test_hand_trace_one_step(self):
        # losses (0, 1) at beta = 1: mirrored becomes (1, 1/e) normalized
        dic = TabularDictionary(np.array([[0.0], [1.0]]))
        theta, _ = lma_run([LabeledSample(0, 0.0)], LossSpec("squared"), dic, beta=1.0)
        assert_allclose(theta, [0.5, 0.5], atol=1e-15)
        two = lma_run([LabeledSample(0, 0.0)] * 2, LossSpec("squared"), dic, beta=1.0)[0]
        z = 1.0 + math.exp(-1.0)
        expected_second = np.array([1.0 / z, math.exp(-1.0) / z])
        assert_allclose(two, 0.5 * (np.array([0.5, 0.5]) + expected_second), atol=1e-12)
        assert_allclose(expected_second, [0.7311, 0.2689], atol=5e-5)

    def test_infinite_temperature_stays_uniform(self):
        rng = np.random.default_rng(4)
        dic = TabularDictionary(rng.uniform(-1, 1, (5, 3)))
        data = random_data(rng, "squared", 3, 1000)
        spec = LossSpec("squared")
        state_scores = np.zeros(5)
        for z in data:
            state_scores += linearized_loss_vector(spec, dic, z)
            assert np.max(np.abs(gibbs_map(state_scores, 1e12) - 0.2)) <= 1e-9
        theta, _ = lma_run(data, spec, dic, beta=1e12)
        assert_allclose(theta, np.full(5, 0.2), atol=1e-9)

    @pytest.mark.parametrize("kind", ["squared", "phi_exponential", "phi_logit2", "phi_hinge"])
    def test_equals_mirror_fold_on_per_function_losses(self, kind):
        """The linearized recursion is the generic mirror recursion fed
        with the per-function loss vector in place of the gradient."""
        rng = np.random.default_rng(33)
        dic = TabularDictionary(rng.uniform(-1, 1, (4, 3)))
        data = random_data(rng, kind, 3, 60)
        spec = LossSpec(kind)
        beta = 2.5
        scores = np.zeros(4)
        mirrored = uniform_weights(4)
        total = np.zeros(4)
        for z in data:
            total += mirrored
            scores = scores + linearized_loss_vector(spec, dic, z)
            mirrored = gibbs_map(scores, beta)
        theta, _ = lma_run(data, spec, dic, beta=beta)
        assert_allclose(theta, total / len(data), rtol=0, atol=1e-12)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError):
            lma_run([LabeledSample(0, 1.0)], LossSpec("squared"), two_constant_arms(), beta=0.0)

    def test_permuting_arms_permutes_weights(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-1, 1, (5, 4))
        data = random_data(rng, "squared", 4, 80)
        perm = np.array([3, 0, 4, 2, 1])
        theta, _ = lma_run(data, LossSpec("squared"), TabularDictionary(values), beta=0.8)
        theta_p, _ = lma_run(data, LossSpec("squared"), TabularDictionary(values[perm]), beta=0.8)
        assert_allclose(theta_p, theta[perm], rtol=0, atol=1e-12)


class TestSelector:
    def test_perfect_arm_wins(self):
        dic = TabularDictionary(np.array([[0.5, -0.5], [0.0, 0.0]]))
        data = [LabeledSample(0, 0.5), LabeledSample(1, -0.5)]
        index, risk = erm_select(data, LossSpec("squared"), dic)
        assert index == 0
        assert risk == 0.0

    def test_exact_tie_takes_lowest_index(self):
        dic = TabularDictionary(np.array([[0.5], [-0.5]]))
        index, risk = erm_select([LabeledSample(0, 0.0)], LossSpec("squared"), dic)
        assert index == 0
        assert risk == pytest.approx(0.25)

    def test_a_near_tie_breaks_on_the_summed_losses(self):
        """The sums differ in their last bit, their means over six observations do not."""
        dic = TabularDictionary(np.array([[np.nextafter(0.1775, 1.0)], [0.1775]]))
        index, risk = erm_select([LabeledSample(0, 0.0)] * 6, LossSpec("squared"), dic)
        assert index == 1
        assert risk == 0.18903750000000002 / 6

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        spec = LossSpec("squared")
        for _ in range(25):
            dic = TabularDictionary(rng.uniform(-1, 1, (6, 3)))
            data = random_data(rng, "squared", 3, 17)
            index, risk = erm_select(data, spec, dic)
            table = [
                sum(loss_value(spec, z, dic.evaluate(j, z.x)) for z in data) / len(data)
                for j in range(6)
            ]
            assert index == int(np.argmin(table))
            assert risk == pytest.approx(min(table), abs=1e-12)
