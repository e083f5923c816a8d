"""Loss functions, their simplex gradients, and analytic constants.

Four loss kinds are supported: squared error for bounded regression and
three margin losses for classification with labels in {-1, +1}
(exponential, base-2 logistic, hinge).  The margin losses are written as
``phi(-y * f)`` for a convex increasing ``phi``; hinge is convex but not
differentiable, so it is excluded from gradient-based routines and only
participates through loss values.

The base-2 logistic loss ``log2(1 + e^m)`` is evaluated as
``softplus(m) / ln 2`` with ``softplus(m) = max(m, 0) + log1p(e^-|m|)``:
the stable form that ``np.logaddexp(0, m)`` computes element by element,
here built from numpy's vector ``exp`` and ``log1p`` in place in one
fresh output array.  It is several times faster on wide loss tables and
no less accurate (about 2 ulp against a long-double reference), though
it differs from ``logaddexp`` in the last bit for a few percent of
entries.

The module also provides the two analytic constants used by the
aggregation bounds: an upper bound on the squared sup-norm of the simplex
gradient, and the smallest temperature for which the margin loss is
"nice" in the sense of the criterion ``(phi'(x))^2 <= beta * phi''(x)``
for all ``|x| <= 1``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .simplex import Dictionary, require_positive, validate_weights

__all__ = [
    "SQUARED",
    "PHI_EXPONENTIAL",
    "PHI_LOGIT2",
    "PHI_HINGE",
    "LOSS_KINDS",
    "DIFFERENTIABLE_KINDS",
    "PHI_KINDS",
    "LossSpec",
    "LabeledSample",
    "loss_value",
    "loss_gradient_theta",
    "linearized_loss_vector",
    "gradient_second_moment_bound",
    "minimal_nice_beta",
    "phi_derivatives",
]

SQUARED = "squared"
PHI_EXPONENTIAL = "phi_exponential"
PHI_LOGIT2 = "phi_logit2"
PHI_HINGE = "phi_hinge"

LOSS_KINDS = (SQUARED, PHI_EXPONENTIAL, PHI_LOGIT2, PHI_HINGE)
PHI_KINDS = (PHI_EXPONENTIAL, PHI_LOGIT2, PHI_HINGE)
DIFFERENTIABLE_KINDS = (SQUARED, PHI_EXPONENTIAL, PHI_LOGIT2)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class LossSpec:
    """Loss kind plus the label bound it assumes.

    ``y_bound`` only matters for the squared loss, where responses must be
    bounded for the gradient bound to be finite; margin losses require
    labels in {-1, +1} exactly.
    """

    kind: str
    y_bound: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        require_positive("y_bound", self.y_bound)

    @property
    def differentiable(self) -> bool:
        return self.kind in DIFFERENTIABLE_KINDS


@dataclass(frozen=True)
class LabeledSample:
    """One observation ``(x, y)``."""

    x: Any
    y: float


def check_labels(spec: LossSpec, ys) -> None:
    """Reject any label that ``spec`` does not allow.

    Margin losses need labels in {-1, +1}; the squared loss needs finite
    labels with ``|y| <= y_bound``.
    """
    if spec.kind in PHI_KINDS:
        bad = [float(y) for y in np.ravel(ys) if y not in (-1.0, 1.0)]
        if bad:
            raise ValueError(f"margin losses require labels in {{-1, +1}}, got {bad[:3]}")
        return
    worst = float(np.max(np.abs(np.asarray(ys, dtype=float))))
    if not worst <= spec.y_bound:
        raise ValueError(f"labels exceed declared y_bound {spec.y_bound!r}: max |y| = {worst!r}")


def check_margin_range(kind: str, values) -> None:
    """Warn when a margin loss meets prediction values outside [-1, 1].

    Such values are legal, but the analytic temperature constants assume
    that range.  The warning is attributed to the caller's caller.
    """
    if kind in PHI_KINDS:
        values = np.asarray(values)
        worst = float(max(np.max(values, initial=0.0), -np.min(values, initial=0.0)))
        if worst > 1.0:
            warnings.warn(
                f"margin loss evaluated at |f|={worst:.3g} > 1; "
                "analytic temperature constants assume values in [-1, 1]",
                stacklevel=3,
            )


def _expit(x):
    """Logistic sigmoid ``1 / (1 + e^-x)``; saturates to 0 for very negative ``x``."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _log2_softplus(m):
    """``log2(1 + e^m)`` as ``(max(m, 0) + log1p(e^-|m|)) / ln 2``; overwrites ``m``.

    Each step writes into ``m`` or into one output array, so the only
    full-size arrays are ``m`` and the result.
    """
    # ufuncs turn 0-d input into scalars, which ``out=`` cannot name; 0-d arrays it can
    m = np.asarray(m)
    out = np.abs(m, out=np.empty_like(m))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.maximum(m, 0.0, out=m)
    out += m
    out /= _LN2
    return out[()] if out.ndim == 0 else out


def loss_values(kind: str, y, f):
    """Loss of prediction value(s) ``f`` against label(s) ``y``; broadcasts."""
    y = np.asarray(y, dtype=float)
    f = np.asarray(f, dtype=float)
    if kind == SQUARED:
        return (y - f) ** 2
    m = -y * f
    if kind == PHI_EXPONENTIAL:
        return np.exp(m)
    if kind == PHI_LOGIT2:
        return _log2_softplus(m)
    if kind == PHI_HINGE:
        return np.maximum(0.0, 1.0 + m)
    raise ValueError(f"unknown loss kind {kind!r}")


def grad_coef(kind: str, y, f):
    """Derivative of the loss in its prediction argument, evaluated at ``f``.

    The simplex gradient of ``Q(z, f_theta)`` is this coefficient at
    ``f = f_theta(x)`` times the dictionary value vector at ``x``.  ``y``
    and ``f`` are floats or float arrays; they are used as given.
    """
    if kind == SQUARED:
        return -2.0 * (y - f)
    if kind == PHI_EXPONENTIAL:
        return -y * np.exp(-y * f)
    if kind == PHI_LOGIT2:
        return -y * _expit(-y * f) / _LN2
    raise ValueError(f"loss kind {kind!r} has no derivative")


def loss_value(spec: LossSpec, z: LabeledSample, f_value: float) -> float:
    """Loss of the prediction value ``f_value`` on sample ``z``.

    For margin losses, labels must be exactly -1 or +1, and prediction
    values outside [-1, 1] trigger a warning (they are legal but the
    analytic constants assume that range).
    """
    if not math.isfinite(f_value):
        raise ValueError(f"prediction value must be finite, got {f_value!r}")
    check_labels(spec, z.y)
    check_margin_range(spec.kind, f_value)
    return float(loss_values(spec.kind, z.y, f_value))


def loss_gradient_theta(spec: LossSpec, dictionary: Dictionary, z: LabeledSample, theta) -> np.ndarray:
    """Gradient in the mixture weights of ``Q(z, f_theta)`` at ``theta``.

    Component ``j`` is the loss derivative at the mixture value times
    ``f_j(x)``.  Hinge is rejected: it has kinks, and the descent recursion
    relies on a genuine gradient.
    """
    if not spec.differentiable:
        raise ValueError(f"loss kind {spec.kind!r} is not differentiable")
    theta = validate_weights(theta, size=dictionary.size)
    check_labels(spec, z.y)
    vals = np.asarray(dictionary.values_at(z.x), dtype=float)
    mix = float((theta * vals).sum())
    coef = float(grad_coef(spec.kind, z.y, mix))
    return coef * vals


def linearized_loss_vector(spec: LossSpec, dictionary: Dictionary, z: LabeledSample) -> np.ndarray:
    """Vector of per-function losses ``(Q(z, f_1), ..., Q(z, f_M))``.

    Component ``j`` equals ``loss_value`` at the vertex ``e_j``, warning
    included.  Defined for every loss kind, hinge included, since no
    derivative is involved.
    """
    check_labels(spec, z.y)
    vals = np.asarray(dictionary.values_at(z.x), dtype=float)
    check_margin_range(spec.kind, vals)
    return np.asarray(loss_values(spec.kind, z.y, vals), dtype=float)


def gradient_second_moment_bound(spec: LossSpec, range_bound: float) -> float:
    """Upper bound on ``sup_theta E ||grad_theta Q(Z, f_theta)||_inf^2``.

    Bounds the squared sup-norm of the simplex gradient uniformly over the
    simplex, for any data distribution with ``|Y| <= y_bound`` (squared
    loss) or labels in {-1, +1} (margin losses), given ``|f_j| <= range_bound``.

    For squared loss the bound is ``(2 (y_bound + B) B)^2``.  For the
    differentiable margin losses it is ``(B * phi'(c))^2`` with the
    derivative taken at ``c = max(B, 1)``, e.g. ``e^2 B^2`` for the
    exponential loss with ``B <= 1``.
    """
    if not math.isfinite(range_bound) or range_bound < 0.0:
        raise ValueError(f"range_bound must be a finite nonnegative number, got {range_bound!r}")
    if not spec.differentiable:
        raise ValueError(f"loss kind {spec.kind!r} has no gradient bound (not differentiable)")
    b = range_bound
    if spec.kind == SQUARED:
        return (2.0 * (spec.y_bound + b) * b) ** 2
    c = max(b, 1.0)
    d1, _ = phi_derivatives(spec.kind, c)
    return (b * d1) ** 2


def phi_derivatives(kind: str, x):
    """First and second derivatives of ``phi`` for a margin loss kind.

    ``phi(x) = e^x`` for the exponential loss and ``log2(1 + e^x)`` for the
    base-2 logistic loss.  Hinge has no second derivative and is rejected.
    """
    x = np.asarray(x, dtype=float)
    if kind == PHI_EXPONENTIAL:
        e = np.exp(x)
        return e, e.copy()
    if kind == PHI_LOGIT2:
        s = _expit(x)
        return s / _LN2, s * (1.0 - s) / _LN2
    raise ValueError(f"loss kind {kind!r} is not twice differentiable")


# the minimal nice temperature commonly quoted for each margin loss
QUOTED_NICE_BETAS = {
    PHI_EXPONENTIAL: math.e,
    PHI_LOGIT2: math.e * _LN2,
}


def minimal_nice_beta(kind: str) -> float:
    """Smallest temperature satisfying ``(phi'(x))^2 <= beta * phi''(x)`` on [-1, 1].

    This is the supremum of ``(phi')^2 / phi''`` over [-1, 1], in closed
    form.  The ratio is ``e^x`` for the exponential loss and
    ``e^x / ln 2`` for the base-2 logistic loss; both increase in ``x``,
    so the supremum is the value at ``x = 1``: ``e`` and ``e / ln 2``.
    """
    if kind == PHI_EXPONENTIAL:
        return math.e
    if kind == PHI_LOGIT2:
        return math.e / _LN2
    raise ValueError(f"loss kind {kind!r} is not twice differentiable; criterion needs phi''")
