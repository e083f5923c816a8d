import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mirroragg import (
    DIFFERENTIABLE_KINDS,
    LOSS_KINDS,
    PHI_KINDS,
    LabeledSample,
    LossSpec,
    TabularDictionary,
    gradient_second_moment_bound,
    linearized_loss_vector,
    loss_gradient_theta,
    loss_value,
    minimal_nice_beta,
    mixture_value,
    phi_derivatives,
    uniform_weights,
)
from mirroragg.losses import check_margin_range, loss_values


def random_instance(rng, kind, m=4):
    """Random dictionary plus one admissible sample for the given loss."""
    values = rng.uniform(-1.0, 1.0, (m, 3))
    dic = TabularDictionary(values)
    x = int(rng.integers(3))
    if kind == "squared":
        y = float(rng.uniform(-1.0, 1.0))
    else:
        y = float(rng.choice([-1.0, 1.0]))
    return dic, LabeledSample(x, y)


class TestLossValues:
    def test_squared_perfect_fit(self):
        assert loss_value(LossSpec("squared"), LabeledSample(0, 1.0), 1.0) == 0.0

    def test_exponential_zero_margin(self):
        assert loss_value(LossSpec("phi_exponential"), LabeledSample(0, 1.0), 0.0) == pytest.approx(1.0)

    def test_logit_zero_margin(self):
        # log2(1 + e^0) = log2(2) = 1
        assert loss_value(LossSpec("phi_logit2"), LabeledSample(0, 1.0), 0.0) == pytest.approx(1.0)

    def test_hinge_wrong_side(self):
        assert loss_value(LossSpec("phi_hinge"), LabeledSample(0, -1.0), 1.0) == pytest.approx(2.0)

    def test_hinge_clamps_at_zero(self):
        assert loss_value(LossSpec("phi_hinge"), LabeledSample(0, 1.0), 1.0) == 0.0

    def test_margin_losses_require_sign_labels(self):
        for kind in PHI_KINDS:
            with pytest.raises(ValueError):
                loss_value(LossSpec(kind), LabeledSample(0, 0.5), 0.0)

    def test_prediction_outside_range_warns_for_margin_losses(self):
        with pytest.warns(UserWarning):
            loss_value(LossSpec("phi_exponential"), LabeledSample(0, 1.0), 1.5)

    def test_warning_reports_the_largest_magnitude_when_it_is_negative(self):
        dic = TabularDictionary(np.array([[0.5, 0.25], [-1.5, 0.0], [1.2, -0.75]]), range_bound=2.0)
        with pytest.warns(UserWarning, match=r"\|f\|=1\.5 > 1") as record:
            linearized_loss_vector(LossSpec("phi_logit2"), dic, LabeledSample(0, 1.0))
        assert [w.filename for w in record] == [__file__]
        with pytest.warns(UserWarning, match=r"\|f\|=1\.5 > 1"):
            check_margin_range("phi_hinge", dic.values.T)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            LossSpec("absolute")

    def test_bad_label_bound_rejected(self):
        with pytest.raises(ValueError):
            LossSpec("squared", y_bound=0.0)


LOSS_VALUES_SHAPES = {
    "0-d": ((), ()),
    "1-d": ((5,), (5,)),
    "broadcast": ((4, 1), (4, 6)),
}


class TestLossValuesArrays:
    @pytest.mark.parametrize("shape", sorted(LOSS_VALUES_SHAPES))
    @pytest.mark.parametrize("kind", sorted(LOSS_KINDS))
    def test_inputs_untouched_and_result_fresh(self, kind, shape):
        y_shape, f_shape = LOSS_VALUES_SHAPES[shape]
        rng = np.random.default_rng(5)
        y = np.asarray(rng.choice([-1.0, 1.0], y_shape))
        f = np.asarray(rng.uniform(-1.0, 1.0, f_shape))
        y_before, f_before = y.copy(), f.copy()
        got = loss_values(kind, y, f)
        assert np.array_equal(y, y_before) and np.array_equal(f, f_before)
        assert np.shape(got) == np.broadcast_shapes(y_shape, f_shape)
        if shape == "0-d":
            assert type(got) is np.float64
        else:
            assert got.flags.owndata and got.flags.writeable
            assert not np.shares_memory(got, y) and not np.shares_memory(got, f)

    @pytest.mark.parametrize("kind", sorted(LOSS_KINDS))
    def test_loss_value_returns_a_float(self, kind):
        assert type(loss_value(LossSpec(kind), LabeledSample(0, -1.0), 0.25)) is float


class TestGradient:
    def test_zero_residual_gives_zero_vector(self):
        dic = TabularDictionary(np.array([[1.0], [-1.0]]))
        z = LabeledSample(0, 0.0)
        grad = loss_gradient_theta(LossSpec("squared"), dic, z, uniform_weights(2))
        assert_allclose(grad, [0.0, 0.0], atol=1e-15)

    def test_squared_hand_example(self):
        # f_theta = 0 at uniform weights on (1, -1); -2(y - f_theta) f_j = (-2, 2)
        dic = TabularDictionary(np.array([[1.0], [-1.0]]))
        z = LabeledSample(0, 1.0)
        grad = loss_gradient_theta(LossSpec("squared"), dic, z, uniform_weights(2))
        assert_allclose(grad, [-2.0, 2.0], atol=1e-15)

    def test_hinge_rejected(self):
        dic = TabularDictionary(np.array([[1.0], [-1.0]]))
        with pytest.raises(ValueError):
            loss_gradient_theta(LossSpec("phi_hinge"), dic, LabeledSample(0, 1.0), uniform_weights(2))

    @pytest.mark.parametrize("kind", sorted(DIFFERENTIABLE_KINDS))
    def test_matches_central_differences(self, kind):
        """Directional derivatives along simplex tangents e_j - e_k."""
        rng = np.random.default_rng(11)
        spec = LossSpec(kind)
        h = 1e-5
        for _ in range(100):
            dic, z = random_instance(rng, kind)
            theta = rng.dirichlet(np.ones(dic.size))
            grad = loss_gradient_theta(spec, dic, z, theta)
            j, k = rng.choice(dic.size, size=2, replace=False)
            step = np.zeros(dic.size)
            step[j], step[k] = h, -h
            up = loss_value(spec, z, mixture_value(theta + step, dic, z.x))
            down = loss_value(spec, z, mixture_value(theta - step, dic, z.x))
            fd = (up - down) / (2.0 * h)
            analytic = grad[j] - grad[k]
            assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))


class TestLinearized:
    def test_squared_example(self):
        dic = TabularDictionary(np.array([[0.0], [1.0]]))
        vec = linearized_loss_vector(LossSpec("squared"), dic, LabeledSample(0, 0.0))
        assert_allclose(vec, [0.0, 1.0], atol=1e-15)

    def test_hinge_example(self):
        dic = TabularDictionary(np.array([[1.0], [-1.0]]))
        vec = linearized_loss_vector(LossSpec("phi_hinge"), dic, LabeledSample(0, 1.0))
        assert_allclose(vec, [0.0, 2.0], atol=1e-15)

    @pytest.mark.parametrize("kind", sorted(LOSS_KINDS))
    def test_entries_are_per_function_losses(self, kind):
        rng = np.random.default_rng(3)
        spec = LossSpec(kind)
        for _ in range(20):
            dic, z = random_instance(rng, kind)
            vec = linearized_loss_vector(spec, dic, z)
            direct = [loss_value(spec, z, dic.evaluate(j, z.x)) for j in range(dic.size)]
            assert_allclose(vec, direct, rtol=0, atol=1e-12)


class TestSecondMomentBound:
    def test_squared_unit_bounds(self):
        assert gradient_second_moment_bound(LossSpec("squared"), 1.0) == pytest.approx(16.0)

    def test_exponential_unit_bound(self):
        assert gradient_second_moment_bound(LossSpec("phi_exponential"), 1.0) == pytest.approx(math.e**2)

    def test_logit_unit_bound(self):
        value = gradient_second_moment_bound(LossSpec("phi_logit2"), 1.0)
        assert value == pytest.approx(1.1123806697141756, abs=1e-12)

    def test_zero_range_dictionary(self):
        for kind in sorted(DIFFERENTIABLE_KINDS):
            assert gradient_second_moment_bound(LossSpec(kind), 0.0) == 0.0

    @pytest.mark.parametrize("kind", sorted(DIFFERENTIABLE_KINDS))
    def test_dominates_observed_gradients(self, kind):
        spec = LossSpec(kind)
        bound = gradient_second_moment_bound(spec, 1.0)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            dic, z = random_instance(rng, kind)
            theta = rng.dirichlet(np.ones(dic.size))
            grad = loss_gradient_theta(spec, dic, z, theta)
            worst = max(worst, float(np.max(np.abs(grad))) ** 2)
        assert worst <= bound + 1e-9


class TestNiceBeta:
    def test_exponential_constant(self):
        assert minimal_nice_beta("phi_exponential") == pytest.approx(math.e, abs=1e-9)

    def test_logit_constant(self):
        assert minimal_nice_beta("phi_logit2") == pytest.approx(3.9216517136564484, abs=1e-9)

    @pytest.mark.parametrize("kind", ["phi_exponential", "phi_logit2"])
    def test_returned_beta_satisfies_criterion_on_grid(self, kind):
        beta = minimal_nice_beta(kind)
        xs = np.linspace(-1.0, 1.0, 20001)
        d1, d2 = phi_derivatives(kind, xs)
        assert np.all(d1**2 <= beta * d2 + 1e-9)

    def test_inapplicable_kinds_error(self):
        for kind in ("phi_hinge", "squared"):
            with pytest.raises(ValueError, match="twice differentiable"):
                minimal_nice_beta(kind)
            with pytest.raises(ValueError, match="twice differentiable"):
                phi_derivatives(kind, 0.0)


class TestConvexityInWeights:
    @pytest.mark.parametrize("kind", sorted(LOSS_KINDS))
    def test_midpoint_inequality(self, kind):
        rng = np.random.default_rng(17)
        spec = LossSpec(kind)
        for _ in range(50):
            dic, z = random_instance(rng, kind)
            a = rng.dirichlet(np.ones(dic.size))
            b = rng.dirichlet(np.ones(dic.size))
            mid = 0.5 * (a + b)
            loss_mid = loss_value(spec, z, mixture_value(mid, dic, z.x))
            avg = 0.5 * loss_value(spec, z, mixture_value(a, dic, z.x)) + 0.5 * loss_value(
                spec, z, mixture_value(b, dic, z.x)
            )
            assert loss_mid <= avg + 1e-12
