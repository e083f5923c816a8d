"""``lma_weights`` against the exact fold: multiplicative Gibbs factors, exact re-anchors.

The kernel renormalises the previous weights times a row of the factor
table ``exp((rowmin L - L) / beta)`` and re-runs an exact softmin of the
scores every ``K`` steps, with ``K`` read off the table.  The reference
here is the exact fold: the mean over steps of the Gibbs map of every
prefix sum of the drawn loss rows, in long double, so that its own
rounding stays far below the tolerances the kernel is held to.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirroragg import gibbs_map
from mirroragg.aggregation import _REANCHOR_MAX, _reanchor_period, lma_weights


def gibbs_fold(row, losses, beta):
    """Mean of ``gibbs_map(S_t, beta)`` over the prefix sums ``S_0 = 0, ..., S_{n-1}``."""
    scores = np.zeros(losses.shape[1])
    total = np.zeros(losses.shape[1])
    for a in row:
        total += gibbs_map(scores, beta)
        scores = scores + losses[a]
    return total / len(row)


def longdouble_fold(idx, losses, beta):
    """``gibbs_fold`` of every row of ``idx`` in long double, one softmin over all prefixes of a row at once.

    The rows are taken less their minima: a double less a double of about
    the same size is exact in long double, so the shifted rows carry only
    their spread; the softmin ignores the per-row shift, so this is the
    fold of the raw rows.
    """
    shifted = losses.astype(np.longdouble) - losses.min(axis=1, keepdims=True)
    folds = []
    for row in idx:
        prefixes = np.vstack([np.zeros((1, losses.shape[1]), np.longdouble), np.cumsum(shifted[row[:-1]], axis=0)])
        z = prefixes / beta
        w = np.exp(z.min(axis=1, keepdims=True) - z)
        folds.append((w / w.sum(axis=1, keepdims=True)).mean(axis=0))
    return np.array(folds, dtype=float)


class TestUnderflowAndOverflow:
    def test_an_arm_that_underflowed_comes_back_when_it_leads(self):
        """After 100 steps at beta = 0.1 arm 1 weighs e^-1000, which is 0 in floating point.

        The next 100 steps bring the scores level again, so arm 1 must
        recover; a re-anchor every 256 steps would leave it at 0 until
        step 256.
        """
        losses = np.array([[0.0, 1.0], [1.0, 0.0]])
        row = [0] * 100 + [1] * 100 + [0] * 50
        got = lma_weights(np.array([row]), losses, 0.1, (len(row),))[0][0]
        want = gibbs_fold(row, losses, 0.1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, [0.99599946, 0.00400054], rtol=0, atol=1e-8)

    def test_a_factor_that_underflows_falls_back_to_exact_softmin(self):
        """exp(-2000) is 0, so a factor table would zero both weights of the second step."""
        losses = np.array([[0.0, 1000.0], [2000.0, 0.0]])
        assert _reanchor_period(2000.0, 1.0) == 1
        got = lma_weights(np.array([[0, 1, 1]]), losses, 1.0, (3,))[0][0]
        np.testing.assert_allclose(got, gibbs_fold([0, 1, 1], losses, 1.0), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got, [0.5, 0.5])


class TestReanchorPeriod:
    def test_small_spreads_get_the_longest_period(self):
        # the acceptance grid: squared loss, beta = 16, spread at most 4
        assert _reanchor_period(4.0, 16.0) == _REANCHOR_MAX
        assert _reanchor_period(0.0, 1e-3) == _REANCHOR_MAX

    @pytest.mark.parametrize("spread, beta, period", [(1.0, 1.0, 600), (3.0, 2.0, 400), (600.0, 1.0, 1), (601.0, 1.0, 1)])
    def test_a_weight_moves_by_at_most_600_beta_between_re_anchors(self, spread, beta, period):
        assert _reanchor_period(spread, beta) == period


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_ratio=st.floats(math.log(0.01), math.log(5000.0)),
    n=st.integers(1, 1500),
    reps=st.sampled_from([1, 3, 9]),
    atoms=st.integers(1, 5),
    arms=st.integers(2, 6),
    run=st.integers(1, 400),
)
# a float64 fold of the raw rows sat 1.43e-12 from the kernel here; the long-double fold sits 6.4e-14 away
@example(seed=4931, log_ratio=6.25, n=668, reps=1, atoms=3, arms=3, run=57)
def test_lma_weights_match_the_exact_fold(seed, log_ratio, n, reps, atoms, arms, run):
    """Random tables with spread/beta from 0.01 to 5000; atoms drawn in runs of ``run`` steps.

    Long runs of one atom drive arms to underflow and then bring them back.
    Each atom's row is shifted by up to the spread, which leaves the
    weights as they are.
    """
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.1, 10.0))
    unit = rng.uniform(0.0, 1.0, (atoms, arms))
    unit[0, :2] = (0.0, 1.0)
    losses = beta * math.exp(log_ratio) * (unit + rng.uniform(-1.0, 1.0, (atoms, 1)))
    runs = rng.integers(atoms, size=(reps, n // run + 1))
    idx = np.repeat(runs, run, axis=1)[:, :n]
    assert (losses.max(axis=1) - losses.min(axis=1)).max() / beta == pytest.approx(math.exp(log_ratio))
    np.testing.assert_allclose(
        lma_weights(idx, losses, beta, (n,))[0], longdouble_fold(idx, losses, beta), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("spread", [0.25, 20.0])
def test_a_two_arm_row_is_the_same_alone_and_among_nine_across_re_anchors(spread):
    """Nine replicates run arm-major and one runs row-major; with two arms they agree bit for bit.

    At spread/beta = 20 the period is 30 steps, so 400 steps cross 13
    re-anchors; at 0.25 the 400 steps never re-anchor.
    """
    rng = np.random.default_rng(7)
    losses = spread * rng.uniform(0.0, 1.0, (6, 2))
    losses[0] = (0.0, spread)
    idx = rng.integers(6, size=(9, 400))
    assert _reanchor_period(spread, 1.0) == (30 if spread == 20.0 else _REANCHOR_MAX)
    among = lma_weights(idx, losses, 1.0, (400,))[0]
    for r in (0, 4, 8):
        np.testing.assert_array_equal(among[r], lma_weights(idx[r : r + 1], losses, 1.0, (400,))[0][0])


def test_re_anchors_round_the_scores_at_the_spread_not_at_the_common_offset():
    """Spread/beta = 1 (K = 600) and per-atom offsets of about 1e4 * beta, over 1800 steps.

    Each atom's row is a rotation of one row, and the atoms come in
    shuffled rounds of all five, so no arm runs away and the weights stay
    far from 0 and 1.  Raw rows would sum to scores of about 1e7 * beta,
    whose rounding moves the weights by about 1e-10; the rows less their
    minima keep the scores at the size of the spread.
    """
    rng = np.random.default_rng(0)
    beta = 0.5
    v = np.sort(rng.uniform(0.0, 1.0, 5))
    v[0], v[-1] = 0.0, 1.0
    # integer offsets keep each row's spread exactly beta
    losses = beta * (np.array([np.roll(v, a) for a in range(5)]) + np.round(rng.uniform(0.9e4, 1.1e4, (5, 1))))
    assert _reanchor_period(float((losses.max(axis=1) - losses.min(axis=1)).max()), beta) == 600
    idx = np.array([np.concatenate([rng.permutation(5) for _ in range(360)]) for _ in range(3)])
    np.testing.assert_allclose(
        lma_weights(idx, losses, beta, (1800,))[0], longdouble_fold(idx, losses, beta), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("seed", range(4))
def test_exact_softmins_keep_the_scores_at_one_step_of_spread(seed):
    """Spread/beta = 700 (K = 1, an exact softmin every step) and offsets of about 1e4 * beta, over 1800 steps.

    The rows less their minima still add up to about n * spread / 2 in
    each score; subtracting each score row's own minimum at every softmin
    keeps the scores at the size of one step's spread.  Without it the
    weights sat 2.5e-13 to 1.7e-12 away from the long-double fold here.
    """
    rng = np.random.default_rng(seed)
    beta = 0.5
    v = np.sort(rng.uniform(0.0, 1.0, 5))
    v[0], v[-1] = 0.0, 1.0
    losses = beta * (700.0 * np.array([np.roll(v, a) for a in range(5)]) + np.round(rng.uniform(0.9e4, 1.1e4, (5, 1))))
    assert _reanchor_period(float((losses.max(axis=1) - losses.min(axis=1)).max()), beta) == 1
    idx = np.array([np.concatenate([rng.permutation(5) for _ in range(360)]) for _ in range(3)])
    np.testing.assert_allclose(
        lma_weights(idx, losses, beta, (1800,))[0], longdouble_fold(idx, losses, beta), rtol=0, atol=1e-14
    )
