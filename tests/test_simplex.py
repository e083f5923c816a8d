import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mirroragg import (
    CallableDictionary,
    FiniteDistribution,
    LabeledSample,
    LossSpec,
    TabularDictionary,
    exact_risk,
    gibbs_map,
    lma_run,
    mixture_value,
    renormalize,
    uniform_weights,
    validate_weights,
)
from mirroragg.simplex import require_positive


class TestGibbsMap:
    def test_zero_scores_give_uniform(self):
        assert_allclose(gibbs_map(np.zeros(3), 1.0), np.full(3, 1 / 3), rtol=0, atol=1e-15)

    def test_constant_shift_gives_uniform(self):
        for c in (-7.0, 0.0, 3.5):
            assert_allclose(gibbs_map(np.full(5, c), 2.0), np.full(5, 0.2), rtol=0, atol=1e-15)

    def test_log_two_example(self):
        # exp(-ln 2) = 1/2, so the normalized weights are (1/3, 2/3)
        weights = gibbs_map(np.array([np.log(2.0), 0.0]), 1.0)
        assert_allclose(weights, [1 / 3, 2 / 3], rtol=0, atol=1e-15)

    def test_large_score_gap_no_overflow(self):
        weights = gibbs_map(np.array([0.0, 1000.0]), 1.0)
        assert np.all(np.isfinite(weights))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert weights[0] == pytest.approx(1.0, abs=1e-12)
        assert weights[1] >= 0.0

    def test_lower_score_gets_more_weight(self):
        weights = gibbs_map(np.array([0.3, -1.2, 0.9]), 0.7)
        assert weights[1] > weights[0] > weights[2]

    def test_huge_temperature_flattens(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=6)
        assert_allclose(gibbs_map(scores, 1e9), np.full(6, 1 / 6), rtol=0, atol=1e-8)

    def test_tiny_weights_are_kept_not_floored(self):
        weights = gibbs_map(np.array([0.0, 500.0]), 1.0)
        assert weights[1] > 0.0

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_temperature_rejected(self, beta):
        with pytest.raises(ValueError):
            gibbs_map(np.zeros(2), beta)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_temperature_message_is_the_one_positivity_rule(self, beta):
        expected = rf"^beta must be positive and finite, got {re.escape(repr(beta))}$"
        with pytest.raises(ValueError, match=expected):
            require_positive("beta", beta)
        with pytest.raises(ValueError, match=expected):
            gibbs_map(np.zeros(2), beta)

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            gibbs_map(np.array([0.0, np.nan]), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        beta=st.floats(1e-3, 1e3),
    )
    def test_normalization_property(self, scores, beta):
        weights = gibbs_map(np.array(scores), beta)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert np.all(weights >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        beta=st.floats(1e-3, 1e3),
        shift=st.floats(-100, 100),
    )
    def test_shift_invariance_property(self, scores, beta, shift):
        base = gibbs_map(np.array(scores), beta)
        shifted = gibbs_map(np.array(scores) + shift * beta, beta)
        assert np.max(np.abs(base - shifted)) <= 1e-12


class TestWeights:
    def test_uniform(self):
        assert_allclose(uniform_weights(4), [0.25] * 4)

    def test_validate_accepts_uniform(self):
        validate_weights(uniform_weights(3))

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_weights(np.array([1.2, -0.2]))

    def test_validate_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            validate_weights(np.array([0.6, 0.6]))

    def test_validate_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            validate_weights(uniform_weights(3), size=4)

    def test_renormalize_examples(self):
        assert_allclose(renormalize(np.array([2.0, 2.0])), [0.5, 0.5])
        assert_allclose(renormalize(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
        assert_allclose(renormalize(np.array([1.0, 3.0])), [0.25, 0.75])

    def test_renormalize_keeps_exact_zeros(self):
        out = renormalize(np.array([0.0, 1e-300, 1.0]))
        assert out[0] == 0.0
        assert out[1] > 0.0

    def test_renormalize_rejects_zero_total(self):
        with pytest.raises(ValueError):
            renormalize(np.zeros(3))


class TestDictionaries:
    def test_mixture_value_vertex(self):
        dic = TabularDictionary(np.array([[0.5, -0.5], [1.0, 0.0]]))
        assert mixture_value(np.array([1.0, 0.0]), dic, 1) == -0.5

    def test_mixture_value_symmetry(self):
        dic = TabularDictionary(np.array([[0.7], [-0.7]]))
        assert mixture_value(uniform_weights(2), dic, 0) == pytest.approx(0.0, abs=1e-15)

    def test_mixture_value_hand_example(self):
        dic = TabularDictionary(np.array([[1.0], [-1.0]]))
        assert mixture_value(np.array([0.25, 0.75]), dic, 0) == pytest.approx(-0.5)

    def test_tabular_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TabularDictionary(np.array([[1.5], [0.0]]), range_bound=1.0)

    def test_tabular_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TabularDictionary(np.array([[np.inf], [0.0]]))

    def test_tabular_values_at(self):
        dic = TabularDictionary(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert_allclose(dic.values_at(1), [0.2, 0.4])
        assert dic.size == 2
        assert dic.grid_size == 2

    @pytest.mark.parametrize("x", [-1, 2.7, 3, np.int64(-3)])
    def test_tabular_rejects_points_off_the_grid(self, x):
        dic = TabularDictionary(np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]))
        with pytest.raises(ValueError, match="design point"):
            dic.values_at(x)
        with pytest.raises(ValueError, match="design point"):
            dic.evaluate(0, x)
        spec = LossSpec("squared", y_bound=1.0)
        with pytest.raises(ValueError, match="design point"):
            lma_run([LabeledSample(x, 0.9)] * 4, spec, dic, beta=4.0)
        with pytest.raises(ValueError, match="design point"):
            exact_risk(0, dic, spec, FiniteDistribution(((LabeledSample(x, 0.9), 1.0),)))

    def test_tabular_accepts_integral_points(self):
        dic = TabularDictionary(np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]))
        for x in (2, 2.0, np.int64(2)):
            assert_allclose(dic.values_at(x), [0.3, 0.6])
            assert dic.evaluate(1, x) == 0.6

    def test_callable_dictionary_evaluates(self):
        dic = CallableDictionary([lambda x: x / 2, lambda x: -x / 2], range_bound=1.0)
        assert dic.evaluate(0, 1.0) == 0.5
        assert_allclose(dic.values_at(1.0), [0.5, -0.5])

    def test_callable_check_mode_catches_violations(self):
        dic = CallableDictionary([lambda x: 2.0 * x], range_bound=1.0, check=True)
        with pytest.raises(ValueError):
            dic.evaluate(0, 1.0)
