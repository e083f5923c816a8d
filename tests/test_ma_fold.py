"""The replicate kernels against long-double folds, inside stated rounding budgets.

The reference folds each replicate's observations with the MA recursion
in ``np.longdouble`` (a 64-bit mantissa on x86-64), so that its own
rounding stays far below the kernel's.  Rows never interact, so the fold
runs every replicate at once, one row each.  The kernel must sit within
``n * eps * G / beta0`` of it, with ``eps`` the float64 machine epsilon and
``G`` a bound on the gradient coefficient of the loss over labels and
mixtures in [-1, 1]: ``2 * |y - f| <= 4`` for squared,
``exp(-y f) <= e`` for phi_exponential and ``1 / ln 2`` for phi_logit2.
Scores reach ``n * G`` and the temperatures ``beta0 * sqrt(t)``, so a
rounding of ``eps`` per step moves a weight by at most about that much.
The constant in front is 1, fixed before the first run.

``lma_weights`` must sit within ``n * eps * (1 + D / beta)`` of its fold,
with ``D`` the table's largest per-atom spread of losses: an exact softmin
reads scores of up to ``n * D / beta`` in units of the temperature, and a
factor step rounds each weight (at most 1) by about ``eps``.
``erm_totals`` must sit within ``n * eps * sum_t |L[a_t, j]|`` of the
long-double sums, entry by entry: each of the ``n`` additions rounds a
partial sum no larger than that by at most ``eps / 2`` of it.  Both
constants are 1, fixed before the first run.

A single replicate folds on one state vector, and each kernel must give
it the same bytes as its row in a row-major batch.
"""

import math

import numpy as np
import pytest

from mirroragg import Schedule, aggregation
from mirroragg.aggregation import _arm_layout, erm_totals, lma_weights, ma_weights
from mirroragg.losses import loss_values

LD = np.longdouble
EPS = np.finfo(float).eps
COEF_BOUND = {"squared": 4.0, "phi_exponential": math.e, "phi_logit2": 1.0 / math.log(2.0)}


def longdouble_coef(kind, y, f):
    """``grad_coef`` in long double."""
    if kind == "squared":
        return -2 * (y - f)
    if kind == "phi_exponential":
        return -y * np.exp(-y * f)
    return -y / (1 + np.exp(y * f)) / np.log(LD(2))


def longdouble_ma_fold(idx, design, ys, kind, betas):
    """Averaged MA weights after every step of ``idx``, each row folded on its own in long double."""
    design, ys = design.astype(LD), ys.astype(LD)
    reps, m = idx.shape[0], design.shape[1]
    scores = np.zeros((reps, m), LD)
    mirrored = np.full((reps, m), 1 / LD(m))
    total = np.zeros((reps, m), LD)
    for t in range(idx.shape[1]):
        f = design[idx[:, t]]
        mix = (mirrored * f).sum(axis=1, keepdims=True)
        total += mirrored
        scores += longdouble_coef(kind, ys[idx[:, t]][:, None], mix) * f
        z = scores / LD(betas[t])
        w = np.exp(z.min(axis=1, keepdims=True) - z)
        mirrored = w / w.sum(axis=1, keepdims=True)
    return (total / idx.shape[1]).astype(float)


def random_table(rng, kind, atoms, m):
    design = rng.uniform(-1.0, 1.0, (atoms, m))
    if kind == "squared":
        ys = rng.uniform(-1.0, 1.0, atoms)
    else:
        ys = rng.choice([-1.0, 1.0], atoms)
    return design, ys


CASES = [
    # (kind, atoms, arms, n, replicates, seed): R > M is the arm-major layout
    ("squared", 32, 3, 1500, 40, 1),
    ("squared", 5, 24, 300, 4, 2),
    ("squared", 2, 2, 50, 1, 3),
    ("phi_exponential", 17, 8, 300, 40, 4),
    ("phi_exponential", 9, 32, 1500, 4, 5),
    ("phi_exponential", 24, 2, 50, 4, 6),
    ("phi_logit2", 3, 12, 300, 40, 7),
    ("phi_logit2", 32, 32, 50, 1, 8),
    ("phi_logit2", 11, 5, 1500, 4, 9),
]


def expected_layout(reps, m):
    """The kernels' state layout: one vector for one replicate, then arm-major when replicates outnumber arms."""
    return "vector" if reps == 1 else "F" if reps > m else "C"


@pytest.mark.parametrize("reps, m", [(256, 32), (1000, 2), (3, 5), (1, 7), (1, 1)])
def test_ma_state_starts_on_64_byte_boundaries_in_the_kernels_layout(monkeypatch, reps, m):
    carved, carve = [], aggregation._aligned_state

    def spy(*args):
        carved.extend(carve(*args))
        return carved[-4:]

    monkeypatch.setattr(aggregation, "_aligned_state", spy)
    rng = np.random.default_rng(reps * m)
    design, ys = random_table(rng, "squared", 4, m)
    idx = rng.integers(0, 4, (reps, 3))
    ma_weights(idx, design, ys, "squared", np.ones(3), (3,))
    order = _arm_layout(idx, m)[0]
    assert order == expected_layout(reps, m)
    assert len(carved) == 4
    for state in carved:
        if order == "vector":
            assert state.shape == (m,) and state.flags.c_contiguous
        else:
            assert state.shape == (reps, m) and state.flags[f"{order}_CONTIGUOUS"]
        assert state.ctypes.data % 64 == 0
    assert len({state.base.ctypes.data for state in carved}) == 1


ROW_CASES = [
    # (kind, atoms, arms, n, replicates, seed): replicates <= arms is the row-major layout
    ("squared", 7, 3, 200, 3, 31),
    ("squared", 16, 12, 300, 5, 32),
    ("phi_exponential", 9, 40, 200, 7, 33),
    ("phi_logit2", 12, 150, 100, 2, 34),
    ("phi_hinge", 16, 12, 300, 5, 35),
]


@pytest.mark.parametrize("kind, atoms, m, n, reps, seed", ROW_CASES)
def test_one_replicate_folds_to_the_bits_of_its_row_in_a_row_major_batch(kind, atoms, m, n, reps, seed):
    """The vector layout (R = 1) against the same indices as one row of a row-major batch (2 <= R <= M).

    A contiguous row reduces by the same pairwise sums as the vector, so
    every kernel's output must be the same bytes.  LMA runs at a
    temperature whose re-anchor period is shorter than ``n``.
    """
    rng = np.random.default_rng(seed)
    design, ys = random_table(rng, kind, atoms, m)
    losses = loss_values(kind, ys[:, None], design)
    batch = rng.integers(0, atoms, (reps, n))
    row = batch[reps // 2 :][:1]
    assert _arm_layout(row, m)[0] == "vector" and _arm_layout(batch, m)[0] == "C"
    checkpoints = (n // 3, n)
    beta = 0.2
    period = aggregation._reanchor_period(float((losses.max(axis=1) - losses.min(axis=1)).max()), beta)
    assert period < n
    runs = [
        lambda idx: lma_weights(idx, losses, beta, checkpoints),
        lambda idx: lma_weights(idx, losses, 1.0, checkpoints),
        lambda idx: erm_totals(idx, losses, checkpoints),
    ]
    if kind in COEF_BOUND:
        betas = Schedule.sqrt_growth(0.3).betas(n)
        runs.append(lambda idx: ma_weights(idx, design, ys, kind, betas, checkpoints))
    for run in runs:
        for alone, among in zip(run(row), run(batch)):
            assert alone.shape == (1, m)
            np.testing.assert_array_equal(alone[0], among[reps // 2])


@pytest.mark.parametrize("kind, atoms, m, n, reps, seed", CASES)
def test_ma_weights_within_the_rounding_budget_of_the_long_double_fold(kind, atoms, m, n, reps, seed):
    rng = np.random.default_rng(seed)
    design, ys = random_table(rng, kind, atoms, m)
    beta0 = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
    betas = Schedule.sqrt_growth(beta0).betas(n)
    idx = rng.integers(0, atoms, (reps, n))
    assert _arm_layout(idx, m)[0] == expected_layout(reps, m)
    [got] = ma_weights(idx, design, ys, kind, betas, (n,))
    budget = n * EPS * COEF_BOUND[kind] / beta0
    assert np.abs(got - longdouble_ma_fold(idx, design, ys, kind, betas)).max() <= budget


def longdouble_lma_fold(idx, losses, beta, checkpoints):
    """Averaged LMA weights at each checkpoint, the softmin of every prefix sum of loss rows in long double.

    The rows are taken less their minima, which is exact in long double
    and leaves every softmin as it is.
    """
    shifted = losses.astype(LD) - losses.min(axis=1, keepdims=True)
    scores = np.zeros((idx.shape[0], losses.shape[1]), LD)
    total = np.zeros_like(scores)
    averaged = []
    for t in range(checkpoints[-1]):
        z = scores / LD(beta)
        w = np.exp(z.min(axis=1, keepdims=True) - z)
        total += w / w.sum(axis=1, keepdims=True)
        scores += shifted[idx[:, t]]
        if t + 1 in checkpoints:
            averaged.append((total / (t + 1)).astype(float))
    return averaged


LMA_CASES = [
    # (atoms, arms, n, replicates, spread / beta, offset / beta, seed): offsets shift each atom's row
    (32, 3, 1500, 40, 0.01, 0.0, 11),
    (5, 24, 300, 4, 1.0, 1e4, 12),
    (2, 2, 50, 1, 20.0, 1.0, 13),
    (17, 8, 300, 40, 5.0, 1e2, 14),
    (9, 32, 1500, 4, 0.3, 1.0, 15),
    (24, 2, 50, 4, 700.0, 1e4, 16),
    (3, 12, 300, 40, 5000.0, 0.0, 17),
    (32, 32, 50, 1, 60.0, 1e3, 18),
    (11, 5, 1500, 4, 2.0, 10.0, 19),
]


@pytest.mark.parametrize("atoms, m, n, reps, ratio, offset, seed", LMA_CASES)
def test_lma_weights_within_the_rounding_budget_of_the_long_double_fold(atoms, m, n, reps, ratio, offset, seed):
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.1, 10.0))
    unit = rng.uniform(0.0, 1.0, (atoms, m))
    unit[0, :2] = (0.0, 1.0)
    losses = beta * (ratio * unit + offset * rng.uniform(-1.0, 1.0, (atoms, 1)))
    idx = rng.integers(0, atoms, (reps, n))
    checkpoints = (n // 3, n)
    spread = float((losses.max(axis=1) - losses.min(axis=1)).max())
    got = lma_weights(idx, losses, beta, checkpoints)
    for c, kernel, fold in zip(checkpoints, got, longdouble_lma_fold(idx, losses, beta, checkpoints)):
        assert np.abs(kernel - fold).max() <= c * EPS * (1 + spread / beta)


ERM_CASES = [
    # (atoms, arms, n, replicates, offset, seed): losses in [0, 1) plus a per-atom offset
    (32, 3, 1500, 40, 0.0, 21),
    (5, 24, 300, 4, 1e4, 22),
    (2, 2, 50, 1, 1.0, 23),
    (17, 64, 2048, 8, 1e2, 24),
    (3, 12, 300, 40, -1e3, 25),
]


@pytest.mark.parametrize("atoms, m, n, reps, offset, seed", ERM_CASES)
def test_erm_totals_within_the_rounding_budget_of_long_double_sums(atoms, m, n, reps, offset, seed):
    """Totals within budget, and a selection that differs only between arms the budget cannot order."""
    rng = np.random.default_rng(seed)
    losses = rng.uniform(0.0, 1.0, (atoms, m)) + offset * rng.uniform(-1.0, 1.0, (atoms, 1))
    idx = rng.integers(0, atoms, (reps, n))
    checkpoints = (n // 3, n)
    steps = losses.astype(LD)[idx]
    for c, got in zip(checkpoints, erm_totals(idx, losses, checkpoints)):
        exact = steps[:, :c].sum(axis=1)
        budget = (c * EPS * np.abs(steps[:, :c]).sum(axis=1)).astype(float)
        assert (np.abs(got - exact) <= budget).all()
        rows = np.arange(reps)
        chosen, best = got.argmin(axis=1), exact.argmin(axis=1)
        gap = (exact[rows, chosen] - exact[rows, best]).astype(float)
        assert (gap <= budget[rows, chosen] + budget[rows, best]).all()
