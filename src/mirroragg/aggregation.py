"""Mirror-averaging aggregation over a finite dictionary.

Two algorithms share one recursion shape.  Both maintain a score vector
``zeta`` in the dual space, mirror it into the simplex with the Gibbs map,
and output the step-weighted average of the mirrored weights:

* ``ma_run`` (gradient form): step ``i`` adds the simplex gradient of
  the loss at the previous mirrored point, then mirrors at temperature
  ``beta_i``.
* ``lma_run`` (linearized form): step ``i`` adds the vector of
  per-function losses, at a constant temperature.  This equals the
  gradient form applied to the linear surrogate risk
  ``theta -> theta . u(z)``.

Both take unit steps, and the averaged output is the plain mean of the
mirrored weights from *before* each update: step ``i`` contributes
``theta_bar_{i-1}``.  Getting this off by one changes nothing per-step but
silently degrades the aggregation rate, so the hand-traced tests pin it.
A constant step size ``c`` would only rescale the temperature: it
multiplies the scores by ``c``, which is the same as dividing every
``beta_i`` by ``c``, and a constant-weight average is the plain mean.

Each recursion runs in one batch kernel over an ``(R, n)`` array of atom
indices, one replicate per row: ``ma_weights`` on the atom design values
and labels, ``lma_weights`` and ``erm_totals`` on the per-atom loss table
``loss_values(kind, ys[:, None], design)``.  A kernel takes a list of
checkpoints, increasing step counts up to ``n``, and returns one
``(R, M)`` array per checkpoint ``c``: its output after the first ``c``
steps, the same bit for bit as a fold that stops there.  One fold to the
largest sample size thus serves every smaller one.  The public runs fold
their sample into such a table, one atom per distinct observation and
one replicate row of indices, and evaluate the dictionary once per
distinct design point; they validate what the kernels take on trust.
``ma_step`` is the validated per-sample step the kernels are tested
against.

LMA without a per-step ``exp``.  LMA's temperature is constant and its
increment at a step is the loss row ``L[a]`` of the drawn atom, so the
softmin of the new scores is the previous weights times the Gibbs factor
row ``exp((min_j L[a, j] - L[a]) / beta)``, renormalised (the
exponential-weights update).  ``lma_weights`` builds this factor table
once per call, one row per atom, so a step is a gather, a multiply, a row
sum and a divide.  Every ``K`` steps it re-anchors instead: it adds the
block's loss rows less their minima ``min_j L[a, j]`` to the scores in
step order, subtracts each score row's own minimum and runs one exact
softmin; neither shift moves a softmin.  The weights at every re-anchor
are then an exact softmin of the scores, a row never depends on the
replicates beside it, and the scores round at the size of one block's
spread, not of the rows' offset or of the steps before.

``K`` is read off the table.  Let ``D`` be the largest per-atom spread
``max_j L[a, j] - min_j L[a, j]``.  One step moves the log of a weight
relative to the others by at most ``D / beta``, so a weight that has
underflowed to 0 needs about ``(708 - ln M - 42) * beta / D`` steps to grow
back above 1e-18 of the leader's.  ``K = min(2048, floor(600 * beta / D))``
re-anchors before that, and ``K = 1`` is an exact softmin at every step.
No fixed ``K`` is safe.  On two arms with losses ``[[0, 1], [1, 0]]`` at
``beta = 0.1``, 100 draws of atom 0 drive arm 1 to 0; after 100 draws of
atom 1 level the scores, a re-anchor every 256 steps still holds it at 0
(averaged weights 0.998/0.002 against the exact 0.996/0.004).  Once
``D / beta`` passes 745 a factor itself underflows, a step can zero a
whole row and renormalising gives nan.  The cap 2048 bounds the rounding
drift between re-anchors, about three roundings per step, to under 1e-12
relative; within it, longer periods measured faster on the acceptance
grid (no re-anchor at all for its n <= 2048) and no less accurate against
an extended-precision fold.

Layout of the kernel state.  Every MA/LMA step reduces over the arms of
each replicate (the row min and normaliser of the softmin, LMA's
renormalising sum and MA's mixture value).  Along a short contiguous arm
axis numpy pays its per-row overhead on every one of the R rows.  So
when replicates outnumber arms (R > M) ``ma_weights`` and
``lma_weights`` keep their ``(R, M)`` state arm-major (column-major) and
gather from an arm-major copy of the table: each reduction is then M
elementwise passes over R contiguous values.  With 1 < R <= M (wide
dictionaries) the state stays row-major.  A single replicate (the public
runs) folds on one ``(M,)`` vector: its steps are Python ints, a gather
is a row view of the table, labels are Python floats and the per-arm
reductions are scalars, so a step makes no ``take`` and no ``(1, 1)``
array.  The kernel body is the same in all three layouts; only the
state's shape and memory order differ (``_arm_layout``).  The row min is
exact in any order, and a contiguous vector reduces by the same pairwise
sums as a row of the row-major state, so one replicate's weights are its
row of a row-major batch, bit for bit.  Sums over two arms are exact in
any order too, so M = 2 results do not depend on the layout; for M >= 3
arm-major sums run sequentially instead of numpy's pairwise order, which
moves the last bit of some weights.  Every kernel returns row-major
``(R, M)`` arrays.
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
from .simplex import (
    Dictionary,
    first_seen,
    gibbs_map,
    mixture_value,
    renormalize,
    require_positive,
    softmin,
    uniform_weights,
)

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
]

# The longest run of multiplicative LMA steps between exact re-anchors, and
# the largest change of a log-weight (in units of beta) one run may make;
# see the module docstring.
_REANCHOR_MAX = 2048
_RECOVERY_EXPONENT = 600.0


@dataclass(frozen=True)
class Schedule:
    """Temperatures ``beta_i`` for the unit steps ``i >= 1`` of MA.

    ``beta_at`` must return a positive finite value for every step.  A
    constant step size would only rescale it (see the module docstring).
    """

    beta_at: Callable[[int], float]

    @staticmethod
    def constant(beta: float) -> "Schedule":
        """Constant temperature."""
        require_positive("beta", beta)
        return Schedule(lambda i: beta)

    @staticmethod
    def sqrt_growth(beta0: float) -> "Schedule":
        """Temperatures ``beta_i = beta0 * sqrt(i)``.

        The default choice for the gradient algorithm: with
        ``beta0 = sqrt(Qstar / log M)`` it balances the entropy and
        gradient-noise terms of the excess-risk envelope.
        """
        require_positive("beta0", beta0)
        return Schedule(lambda i: beta0 * math.sqrt(i))

    def betas(self, n: int) -> np.ndarray:
        """Validated temperatures ``beta_i`` for ``i = 1..n``."""
        betas = np.array([float(self.beta_at(i)) for i in range(1, n + 1)])
        ok = (betas > 0.0) & np.isfinite(betas)
        if not ok.all():
            i = int(np.argmin(ok))
            require_positive(f"beta_at({i + 1})", betas[i])
        return betas


@dataclass
class AggregatorState:
    """State of one aggregation run after ``step`` unit steps.

    ``weighted_sum`` accumulates ``theta_bar_{i-1}`` over the steps; the
    averaged output is ``weighted_sum`` divided by its own sum, which is
    ``step`` up to rounding.
    """

    step: int
    scores: np.ndarray
    mirrored: np.ndarray
    weighted_sum: np.ndarray


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
    beta = float(sched.beta_at(i))
    require_positive(f"beta_at({i})", beta)
    grad = loss_gradient_theta(spec, dictionary, z, state.mirrored)
    scores = state.scores + grad
    return AggregatorState(
        step=i,
        scores=scores,
        mirrored=gibbs_map(scores, beta),
        weighted_sum=state.weighted_sum + state.mirrored,
    )


def averaged_weights(state: AggregatorState) -> np.ndarray:
    """Averaged output: ``weighted_sum`` renormalised to sum to one; undefined before step 1."""
    if state.step < 1:
        raise ValueError("averaged output is undefined before the first step")
    return renormalize(state.weighted_sum)


def _arm_layout(idx, m: float):
    """The kernel state's layout for the replicates ``idx`` over ``m`` arms (see the module docstring).

    Returns ``(order, steps, rows, column)``: the layout, ``"vector"`` for
    one replicate or else the memory order ``"F"`` or ``"C"`` of the
    ``(R, M)`` state; the atoms each step draws; ``rows(table)``, a gather
    of table rows in that layout; and ``column(values)``, a gather of one
    per-atom value for each replicate.
    """
    if idx.shape[0] == 1:
        return "vector", idx[0].tolist(), lambda table: list(table).__getitem__, lambda v: v.tolist().__getitem__
    order = "F" if idx.shape[0] > m else "C"

    def rows(table):
        if order == "C":
            return lambda a: table.take(a, axis=0)
        by_arm = np.ascontiguousarray(table.T)
        return lambda a: by_arm.take(a, axis=1).T

    return order, idx.T, rows, lambda v: lambda a: v.take(a)[:, None]


def _aligned_state(count: int, reps: int, m: int, order: str) -> list:
    """``count`` zeroed states of layout ``order``, each starting on a 64-byte boundary.

    A state is ``(m,)`` in the ``"vector"`` layout and ``(reps, m)`` in
    memory order ``order`` otherwise.  They are carved from one allocation:
    numpy aligns its own to 16 bytes only, and MA's step measured about 6%
    slower with its state 16, 32 or 48 bytes off a 64-byte line.
    """
    stride = -(-reps * m // 8) * 8  # whole 64-byte lines of float64
    raw = np.zeros(count * stride + 7)
    first = -raw.ctypes.data % 64 // 8
    shape = (m,) if order == "vector" else (reps, m)
    return [raw[first + k * stride :][: reps * m].reshape(shape, order="F" if order == "F" else "C") for k in range(count)]


def ma_weights(idx, design, ys, kind: str, betas, checkpoints) -> list:
    """Averaged weights of the gradient algorithm at each checkpoint, one row per replicate.

    Row ``r`` folds the observations ``(design[a], ys[a])`` for the atom
    indices ``a`` in ``idx[r]``, in order, with a unit step at temperature
    ``betas[t]`` at step ``t + 1``.  ``checkpoints`` are increasing step
    counts, the last one the width of ``idx`` (see the module docstring).
    """
    reps, m = idx.shape[0], design.shape[1]
    order, steps, rows, column = _arm_layout(idx, m)
    gather, label, keep = rows(design), column(ys), order != "vector"
    scores, mirrored, total, work = _aligned_state(4, reps, m, order)
    mirrored.fill(1.0 / m)
    averaged = []
    for start, stop in zip((0, *checkpoints), checkpoints):
        for t in range(start, stop):
            a = steps[t]
            f = gather(a)
            mix = np.add.reduce(np.multiply(mirrored, f, out=work), axis=-1, keepdims=keep)
            coef = grad_coef(kind, label(a), mix)
            total += mirrored
            scores += np.multiply(coef, f, out=work)
            softmin(np.divide(scores, betas[t], out=mirrored), out=mirrored)
        averaged.append(np.ascontiguousarray(total / stop).reshape(reps, m))
    return averaged


def _reanchor_period(spread: float, beta: float) -> int:
    """Steps between exact re-anchors of ``lma_weights`` (see the module docstring).

    ``spread`` is the table's largest per-atom spread of losses.
    """
    if spread * _REANCHOR_MAX <= _RECOVERY_EXPONENT * beta:
        return _REANCHOR_MAX
    return max(1, int(_RECOVERY_EXPONENT * beta / spread))


def lma_weights(idx, losses, beta: float, checkpoints) -> list:
    """Averaged weights of the linearized algorithm at each checkpoint, one row per replicate.

    ``losses[a]`` is the per-function loss vector at atom ``a``; row ``r``
    folds the atoms ``idx[r]`` in order at constant temperature ``beta``.
    ``checkpoints`` as for ``ma_weights``.
    """
    reps, m = idx.shape[0], losses.shape[1]
    order, steps, rows, column = _arm_layout(idx, m)
    rowmin = losses.min(axis=1)
    # the Gibbs factor table exp((rowmin L - L) / beta), built in place
    factors = np.subtract(rowmin[:, None], losses)
    period = _reanchor_period(-float(factors.min()), beta)
    factors /= beta
    np.exp(factors, out=factors)
    gather, gather_factors, anchor, keep = rows(losses), rows(factors), column(rowmin), order != "vector"
    scores, mirrored, total = _aligned_state(3, reps, m, order)
    mirrored.fill(1.0 / m)
    total += mirrored
    averaged = []
    # the uniform weights before the first step are already in the total
    for start, stop in zip((1, *checkpoints), checkpoints):
        for t in range(start, stop):
            if t % period:
                mirrored *= gather_factors(steps[t - 1])
                mirrored /= np.add.reduce(mirrored, axis=-1, keepdims=keep)
            else:
                # the last block's rows less their minima, in step order, and each
                # score row less its own minimum, then one exact softmin
                for s in range(t - period, t):
                    scores += gather(steps[s]) - anchor(steps[s])
                scores -= np.minimum.reduce(scores, axis=-1, keepdims=keep)
                softmin(np.divide(scores, beta, out=mirrored), out=mirrored)
            total += mirrored
        averaged.append(np.ascontiguousarray(total / stop).reshape(reps, m))
    return averaged


def erm_totals(idx, losses, checkpoints) -> list:
    """Summed per-function losses ``sum_t losses[idx[r, t]]`` at each checkpoint, one row per replicate.

    ``checkpoints`` as for ``ma_weights``.  The empirical risk minimizer of
    replicate ``r`` is the row's argmin (ties to the lowest index).
    """
    reps, m = idx.shape[0], losses.shape[1]
    # sums reduce nothing across arms, so past one replicate the totals stay row-major
    order, steps, rows, _ = _arm_layout(idx, math.inf)
    gather = rows(losses)
    [totals] = _aligned_state(1, reps, m, order)
    sums = []
    for start, stop in zip((0, *checkpoints), checkpoints):
        for t in range(start, stop):
            totals += gather(steps[t])
        sums.append(totals.reshape(reps, m).copy())
    return sums


def _sample_atoms(data: Sequence[LabeledSample], spec: LossSpec, dictionary: Dictionary):
    """The sample as an atom table: ``(idx, design, ys)`` with ``idx`` of shape ``(1, n)``.

    Each observation maps to the first equal one seen, and each atom's
    design point to the first equal point seen (``first_seen``), so the
    dictionary is evaluated once per distinct design point: both labels
    at one point share its row.  An unhashable design point is its own.
    """
    if len(data) == 0:
        raise ValueError("need at least one observation")
    atom_of, firsts = first_seen(data)
    atoms = [data[t] for t in firsts]
    ys = np.array([z.y for z in atoms], dtype=float)
    check_labels(spec, ys)
    point_of, points = first_seen([z.x for z in atoms])
    rows = np.stack([np.asarray(dictionary.values_at(atoms[a].x), dtype=float) for a in points])
    design = rows.take(point_of, axis=0)
    check_margin_range(spec.kind, design)
    return atom_of[None, :], design, ys


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
    _require_mixture_size(dictionary.size)
    idx, design, ys = _sample_atoms(data, spec, dictionary)
    theta = ma_weights(idx, design, ys, spec.kind, sched.betas(len(data)), (len(data),))[0][0]
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
    require_positive("beta", beta)
    _require_mixture_size(dictionary.size)
    idx, design, ys = _sample_atoms(data, spec, dictionary)
    theta = lma_weights(idx, loss_values(spec.kind, ys[:, None], design), beta, (len(data),))[0][0]
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
    emp = erm_totals(idx, loss_values(spec.kind, ys[:, None], design), (len(data),))[0][0] / len(data)
    j = int(np.argmin(emp))
    return j, float(emp[j])
