"""Mirror-averaging aggregation over a finite dictionary.

Two algorithms share one recursion shape.  Both maintain a score vector
``zeta`` in the dual space, mirror it into the simplex with the Gibbs map,
and output the step-weighted average of the mirrored weights:

* ``ma_run`` (gradient form): step ``i`` adds ``gamma_i`` times the
  simplex gradient of the loss at the previous mirrored point, then
  mirrors at temperature ``beta_i``.
* ``lma_run`` (linearized form): step ``i`` adds the vector of
  per-function losses, with unit steps and a constant temperature.  This
  equals the gradient form applied to the linear surrogate risk
  ``theta -> theta . u(z)``.

The averaged output uses the mirrored weights from *before* each update:
step ``i`` contributes ``theta_bar_{i-1}``.  Getting this off by one
changes nothing per-step but silently degrades the aggregation rate, so
the hand-traced tests pin it.

Each recursion runs in one batch kernel over an ``(R, n)`` array of atom
indices, one replicate per row: ``ma_weights`` on the atom design values
and labels, ``lma_weights`` and ``erm_totals`` on the per-atom loss table
``loss_values(kind, ys[:, None], design)``.  The public runs fold their
sample into such a table, one atom per distinct observation and one
replicate row of indices, so they evaluate the dictionary once per
distinct observation; they validate what the kernels take on trust.
``ma_step`` is the validated per-sample step the kernels are tested
against.

Layout of the ``(R, M)`` kernel state.  Every MA/LMA step reduces over
the arms of each replicate (the row min and normaliser of the softmin,
and MA's mixture value).  Along a short contiguous arm axis numpy pays
its per-row overhead on every one of the R rows.  So when replicates
outnumber arms (R > M) ``ma_weights`` and ``lma_weights`` keep their
state arm-major (column-major) and gather from an arm-major copy of the
table: each reduction is then M elementwise passes over R contiguous
values.  With R <= M (the public runs at R = 1, wide dictionaries) the
state stays row-major.  The kernel body is the same either way; only the
memory order differs.  The row min is exact in any order, and sums over
two arms are too, so M = 2 results do not depend on the layout; for
M >= 3 arm-major sums run sequentially instead of numpy's pairwise order,
which moves the last bit of some weights.  Both kernels return row-major
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# linearized_loss_vector is unused here but stays a name of this module:
# perfbench's tracer wraps aggregation.linearized_loss_vector
from .losses import (  # noqa: F401
    LabeledSample,
    LossSpec,
    check_labels,
    check_margin_range,
    grad_coef,
    linearized_loss_vector,
    loss_gradient_theta,
    loss_values,
)
from .simplex import Dictionary, gibbs_map, mixture_value, renormalize, softmin, uniform_weights

__all__ = [
    "Schedule",
    "AggregatorState",
    "MixturePredictor",
    "ma_init",
    "ma_step",
    "ma_run",
    "lma_run",
    "erm_select",
    "averaged_weights",
    "ma_weights",
    "lma_weights",
    "erm_totals",
]


@dataclass(frozen=True)
class Schedule:
    """Step sizes ``gamma_i`` and temperatures ``beta_i`` for ``i >= 1``.

    Both callables must return positive finite values for every step.
    """

    beta_at: Callable[[int], float]
    gamma_at: Callable[[int], float]

    @staticmethod
    def constant(beta: float, gamma: float = 1.0) -> "Schedule":
        """Constant temperature and step size."""
        _require_positive("beta", beta)
        _require_positive("gamma", gamma)
        return Schedule(lambda i: beta, lambda i: gamma)

    @staticmethod
    def sqrt_growth(beta0: float, gamma: float = 1.0) -> "Schedule":
        """Unit-type steps with ``beta_i = beta0 * sqrt(i)``.

        The default choice for the gradient algorithm: with
        ``beta0 = sqrt(Qstar / log M)`` it balances the entropy and
        gradient-noise terms of the excess-risk envelope.
        """
        _require_positive("beta0", beta0)
        _require_positive("gamma", gamma)
        return Schedule(lambda i: beta0 * math.sqrt(i), lambda i: gamma)

    def arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Validated temperatures and step sizes ``(beta_i, gamma_i)`` for ``i = 1..n``."""
        betas = np.array([float(self.beta_at(i)) for i in range(1, n + 1)])
        gammas = np.array([float(self.gamma_at(i)) for i in range(1, n + 1)])
        ok = (betas > 0.0) & (gammas > 0.0) & np.isfinite(betas) & np.isfinite(gammas)
        if not ok.all():
            # the first bad step, its beta reported before its gamma
            i = int(np.argmin(ok))
            _require_positive(f"beta_at({i + 1})", betas[i])
            _require_positive(f"gamma_at({i + 1})", gammas[i])
        return betas, gammas


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class AggregatorState:
    """State of one aggregation run after ``step`` observations.

    ``weighted_sum`` accumulates ``gamma_i * theta_bar_{i-1}`` and sums to
    ``gamma_total``, so the averaged output is ``weighted_sum / gamma_total``.
    """

    step: int
    scores: np.ndarray
    mirrored: np.ndarray
    weighted_sum: np.ndarray
    gamma_total: float


@dataclass(frozen=True)
class MixturePredictor:
    """Convex mixture of dictionary functions, callable at design points."""

    dictionary: Dictionary
    weights: np.ndarray

    def __call__(self, x) -> float:
        return mixture_value(self.weights, self.dictionary, x)


def _require_mixture_size(m: int) -> None:
    if m < 2:
        raise ValueError(f"aggregation needs at least two dictionary functions, got m={m}")


def ma_init(m: int) -> AggregatorState:
    """Fresh state: zero scores, uniform mirrored weights, empty average."""
    _require_mixture_size(m)
    return AggregatorState(
        step=0,
        scores=np.zeros(m),
        mirrored=uniform_weights(m),
        weighted_sum=np.zeros(m),
        gamma_total=0.0,
    )


def ma_step(
    state: AggregatorState,
    z: LabeledSample,
    spec: LossSpec,
    dictionary: Dictionary,
    sched: Schedule,
) -> AggregatorState:
    """One observation of the gradient-form recursion; returns a new state."""
    i = state.step + 1
    gamma = float(sched.gamma_at(i))
    beta = float(sched.beta_at(i))
    _require_positive(f"gamma_at({i})", gamma)
    _require_positive(f"beta_at({i})", beta)
    grad = loss_gradient_theta(spec, dictionary, z, state.mirrored)
    scores = state.scores + gamma * grad
    return AggregatorState(
        step=i,
        scores=scores,
        mirrored=gibbs_map(scores, beta),
        weighted_sum=state.weighted_sum + gamma * state.mirrored,
        gamma_total=state.gamma_total + gamma,
    )


def averaged_weights(state: AggregatorState) -> np.ndarray:
    """Averaged output ``weighted_sum / gamma_total``; undefined before step 1."""
    if state.step < 1 or state.gamma_total <= 0.0:
        raise ValueError("averaged output is undefined before the first step")
    return renormalize(state.weighted_sum)


def _arm_layout(reps: int, table: np.ndarray):
    """Memory order of the ``(R, M)`` kernel state, and a gather of table rows in that order.

    Arm-major when replicates outnumber arms, row-major otherwise (see
    the module docstring).
    """
    if reps > table.shape[1]:
        by_arm = np.ascontiguousarray(table.T)
        return "F", lambda a: by_arm.take(a, axis=1).T
    return "C", lambda a: table.take(a, axis=0)


def ma_weights(idx, design, ys, kind: str, betas, gammas) -> np.ndarray:
    """Averaged weights of the gradient algorithm, one row per replicate.

    Row ``r`` folds the observations ``(design[a], ys[a])`` for the atom
    indices ``a`` in ``idx[r]``, in order, with temperature ``betas[t]``
    and step size ``gammas[t]`` at step ``t + 1``.
    """
    reps, n = idx.shape
    m = design.shape[1]
    order, gather = _arm_layout(reps, design)
    scores = np.zeros((reps, m), order=order)
    mirrored = np.full((reps, m), 1.0 / m, order=order)
    total = np.zeros((reps, m), order=order)
    work = np.empty((reps, m), order=order)
    gamma_total = 0.0
    for t in range(n):
        a = idx[:, t]
        f = gather(a)
        mix = np.multiply(mirrored, f, out=work).sum(axis=1, keepdims=True)
        coef = grad_coef(kind, ys.take(a)[:, None], mix)
        total += np.multiply(gammas[t], mirrored, out=work)
        gamma_total += gammas[t]
        scores += np.multiply(gammas[t], np.multiply(coef, f, out=work), out=work)
        softmin(np.divide(scores, betas[t], out=mirrored), out=mirrored)
    return np.ascontiguousarray(total / gamma_total)


def lma_weights(idx, losses, beta: float) -> np.ndarray:
    """Averaged weights of the linearized algorithm, one row per replicate.

    ``losses[a]`` is the per-function loss vector at atom ``a``; row ``r``
    folds the atoms ``idx[r]`` in order at constant temperature ``beta``.
    """
    reps, n = idx.shape
    m = losses.shape[1]
    order, gather = _arm_layout(reps, losses)
    scores = np.zeros((reps, m), order=order)
    mirrored = np.full((reps, m), 1.0 / m, order=order)
    total = np.zeros((reps, m), order=order)
    for t in range(n):
        total += mirrored
        scores += gather(idx[:, t])
        softmin(np.divide(scores, beta, out=mirrored), out=mirrored)
    return np.ascontiguousarray(total / n)


def erm_totals(idx, losses) -> np.ndarray:
    """Summed per-function losses ``sum_t losses[idx[r, t]]``, one row per replicate.

    The empirical risk minimizer of replicate ``r`` is the row's argmin
    (ties to the lowest index).
    """
    totals = np.zeros((idx.shape[0], losses.shape[1]))
    for t in range(idx.shape[1]):
        totals += losses.take(idx[:, t], axis=0)
    return totals


def _sample_atoms(data: Sequence[LabeledSample], spec: LossSpec, dictionary: Dictionary):
    """The sample as an atom table: ``(idx, design, ys)`` with ``idx`` of shape ``(1, n)``.

    Each observation maps to the first equal one seen, so the dictionary
    is evaluated once per distinct observation.  An observation whose
    design point is unhashable takes a row of its own.
    """
    if len(data) == 0:
        raise ValueError("need at least one observation")
    first: dict = {}
    atoms: list = []
    idx = np.empty((1, len(data)), dtype=np.intp)
    for t, z in enumerate(data):
        try:
            a = first.setdefault(z, len(atoms))
        except TypeError:
            a = len(atoms)
        if a == len(atoms):
            atoms.append(z)
        idx[0, t] = a
    ys = np.array([z.y for z in atoms], dtype=float)
    check_labels(spec.kind, ys)
    design = np.stack([np.asarray(dictionary.values_at(z.x), dtype=float) for z in atoms])
    check_margin_range(spec.kind, design)
    return idx, design, ys


def ma_run(
    data: Sequence[LabeledSample],
    spec: LossSpec,
    dictionary: Dictionary,
    sched: Schedule,
) -> tuple[np.ndarray, MixturePredictor]:
    """Run the gradient-form algorithm over ``data``.

    Returns the averaged weights and the induced mixture predictor.
    Requires a differentiable loss and at least one observation.
    """
    if len(data) == 0:
        raise ValueError("need at least one observation")
    _require_mixture_size(dictionary.size)
    idx, design, ys = _sample_atoms(data, spec, dictionary)
    betas, gammas = sched.arrays(len(data))
    theta = ma_weights(idx, design, ys, spec.kind, betas, gammas)[0]
    return theta, MixturePredictor(dictionary, theta)


def lma_run(
    data: Sequence[LabeledSample],
    spec: LossSpec,
    dictionary: Dictionary,
    beta: float,
) -> tuple[np.ndarray, MixturePredictor]:
    """Run the linearized algorithm over ``data`` at constant temperature.

    Scores accumulate the per-function loss vectors; any loss kind is
    accepted, hinge included, because no derivative is taken.
    """
    _require_positive("beta", beta)
    _require_mixture_size(dictionary.size)
    idx, design, ys = _sample_atoms(data, spec, dictionary)
    theta = lma_weights(idx, loss_values(spec.kind, ys[:, None], design), beta)[0]
    return theta, MixturePredictor(dictionary, theta)


def erm_select(
    data: Sequence[LabeledSample],
    spec: LossSpec,
    dictionary: Dictionary,
) -> tuple[int, float]:
    """Index and empirical risk of the empirical risk minimizer.

    Ties break to the lowest index (the first minimum found).
    """
    idx, design, ys = _sample_atoms(data, spec, dictionary)
    emp = erm_totals(idx, loss_values(spec.kind, ys[:, None], design))[0] / len(data)
    j = int(np.argmin(emp))
    return j, float(emp[j])
