"""Checkers for the loss conditions behind the fast aggregation bound.

The selection-rate guarantee for the linearized algorithm needs the loss
to be "nice" at temperature ``beta``: with ``omega`` a random dictionary
index drawn from the aggregated weights, the exponential moment
inequality

    E log E_omega exp[(Q(Z, f_mix) - Q(Z, f_omega)) / beta] <= 0

must hold, where ``f_mix`` is the mixture under those same weights.  This
module estimates that quantity by Monte Carlo (``check_nice_loss``), tests
the classical sufficient condition that
``theta -> E exp((Q(Z, f_ref) - Q(Z, f_theta)) / beta)`` is concave on the
simplex (``check_exp_map_concavity``), and reports the minimal temperature
from the margin-loss criterion ``(phi')^2 <= beta * phi''``
(``nice_beta_report``).

Verdicts follow one convention: "satisfied" needs the estimate plus two
standard errors at or below zero (for the concavity check: no secant
failing), "violated" needs the opposite with the same margin (a failing
secant), and anything else is "inconclusive".  The concavity secants are
decided in log space, so a map that overflows float64 still gets a verdict.
Moment replicate ``r`` is drawn from ``[seed, 6, r]`` and the concavity
pairs from ``[seed, 7]``: tags that are no instance family code (1 to 4)
nor the benchmark replicate tag (5), so no two streams coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import lma_weights
from .losses import QUOTED_NICE_BETAS, LossSpec, loss_values, minimal_nice_beta
from .oracles import FiniteDistribution, atom_design
from .simplex import Dictionary, require_positive, uniform_weights, validate_weights

__all__ = [
    "ConditionVerdict",
    "NiceBetaReport",
    "check_nice_loss",
    "check_exp_map_concavity",
    "surrogate_mixture_loss",
    "nice_beta_report",
]

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

SECANT_SLACK = 1e-12
# floor of the secant tolerance relative to the largest h of a pair
_SECANT_ROUNDOFF = 4.0 * np.finfo(float).eps
_MOMENT_TAG = 6
_CONCAVITY_TAG = 7


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a condition check.

    ``witness`` is only set by the concavity check, and holds the first
    weight pair whose midpoint secant fails.
    """

    estimate: float
    std_error: float
    verdict: str
    samples_used: int
    witness: tuple | None = None


@dataclass(frozen=True)
class NiceBetaReport:
    """Computed minimal temperature next to the commonly quoted constant."""

    kind: str
    computed_beta: float
    quoted_beta: float | None
    agrees: bool | None


def _verdict_from_estimate(estimate: float, std_error: float) -> str:
    if estimate + 2.0 * std_error <= 0.0:
        return SATISFIED
    if estimate - 2.0 * std_error >= 0.0:
        return VIOLATED
    return INCONCLUSIVE


def check_nice_loss(
    spec: LossSpec,
    dictionary: Dictionary,
    dist: FiniteDistribution,
    beta: float,
    n: int,
    mc_outer: int,
    seed: int,
) -> ConditionVerdict:
    """Monte Carlo check of the exponential-moment inequality at ``beta``.

    Each outer replicate draws a fresh training sample of size ``n``, runs
    the linearized algorithm at temperature ``beta`` to get aggregated
    weights, draws one independent observation ``Z``, and evaluates

        log sum_j theta_j exp[(Q(Z, f_mix) - Q(Z, f_j)) / beta]

    exactly (a finite sum in log space).  The estimate is the replicate
    mean; its sign, resolved at two standard errors, gives the verdict.
    Replicate ``r`` is drawn from ``[seed, 6, r]``, so the result does not
    depend on execution order.
    """
    if mc_outer < 100:
        raise ValueError(f"mc_outer must be at least 100, got {mc_outer}")
    if n < 1:
        raise ValueError(f"training size must be at least 1, got {n}")
    require_positive("beta", beta)
    design = atom_design(dictionary, spec, dist)
    # each replicate's last draw is its test observation
    idx = dist.replicate_indices((seed, _MOMENT_TAG), mc_outer, n + 1)
    test_idx = idx[:, n]
    losses = loss_values(spec.kind, dist.ys[:, None], design)
    thetas = lma_weights(idx[:, :n], losses, beta, (n,))[0]
    test_values = design[test_idx]
    test_ys = dist.ys[test_idx]
    q_mix = loss_values(spec.kind, test_ys, (thetas * test_values).sum(axis=1))
    # log sum_j theta_j e^{a_j}, with the row maximum of a factored out
    a = (q_mix[:, None] - losses[test_idx]) / beta
    a_max = a.max(axis=1)
    vals = a_max + np.log((thetas * np.exp(a - a_max[:, None])).sum(axis=1))
    estimate = float(vals.mean())
    std_error = float(vals.std(ddof=1) / math.sqrt(mc_outer))
    return ConditionVerdict(
        estimate=estimate,
        std_error=std_error,
        verdict=_verdict_from_estimate(estimate, std_error),
        samples_used=mc_outer,
    )


def surrogate_mixture_loss(spec: LossSpec, dictionary: Dictionary, dist: FiniteDistribution):
    """Per-atom loss map of the linear surrogate risk ``theta -> theta . u(z)``.

    Returns a callable sending a batch of weight rows ``(P, M)`` to the
    ``(P, A)`` matrix of surrogate losses at each atom.  Useful as the
    ``mixture_loss`` override of ``check_exp_map_concavity``: the surrogate
    is affine in ``theta``, so its exponential map is convex and the
    concavity check must find violations whenever the per-function losses
    actually differ.
    """
    design = atom_design(dictionary, spec, dist)
    per_function = loss_values(spec.kind, dist.ys[:, None], design)

    def batch_loss(thetas: np.ndarray) -> np.ndarray:
        return thetas @ per_function.T

    return batch_loss


def check_exp_map_concavity(
    spec: LossSpec,
    dictionary: Dictionary,
    dist: FiniteDistribution,
    beta: float,
    theta_ref=None,
    trials: int = 1000,
    seed: int = 0,
    mixture_loss=None,
) -> ConditionVerdict:
    """Secant test of concavity of ``theta -> E exp((Q(ref) - Q(theta)) / beta)``.

    Draws ``trials`` random weight pairs from the flat Dirichlet (stream
    ``[seed, 7]``) and tests the midpoint inequality
    ``h(mid) >= (h(a) + h(b)) / 2``.  ``h`` is an exact finite sum over
    atoms, so the only randomness is the choice of pairs: any failing pair
    certifies non-concavity, and the first one found is returned as the
    witness.  A pair is decided in log space, its three ``h`` scaled by
    ``exp(-s)`` for ``s`` its largest ``log h``, so ``h`` may overflow
    float64; it fails when the scaled slack is below
    ``-max(1e-12 * exp(-s), 4 eps)``.  The estimate is the most negative
    slack, ``-inf`` past the float64 range.

    ``mixture_loss`` replaces the per-atom loss of the mixture predictor
    with an arbitrary batch map (used for the linear surrogate control);
    the default is the loss of ``f_theta`` at each atom.
    """
    if trials < 1000:
        raise ValueError(f"trials must be at least 1000, got {trials}")
    require_positive("beta", beta)
    design = atom_design(dictionary, spec, dist)
    m = dictionary.size
    if theta_ref is None:
        theta_ref = uniform_weights(m)
    theta_ref = validate_weights(theta_ref, size=m)

    if mixture_loss is None:

        def mixture_loss(thetas: np.ndarray) -> np.ndarray:
            return loss_values(spec.kind, dist.ys[None, :], thetas @ design.T)

    ref_losses = mixture_loss(theta_ref[None, :])[0]
    ps = dist.ps

    def log_h(thetas: np.ndarray) -> np.ndarray:
        exponents = (ref_losses[None, :] - mixture_loss(thetas)) / beta
        top = exponents.max(axis=1)
        return top + np.log((ps[None, :] * np.exp(exponents - top[:, None])).sum(axis=1))

    rng = np.random.default_rng([seed, _CONCAVITY_TAG])
    pairs = rng.dirichlet(np.ones(m), size=(trials, 2))
    first = pairs[:, 0, :]
    second = pairs[:, 1, :]
    logs = np.stack([log_h(first), log_h(second), log_h(0.5 * (first + second))])
    s = logs.max(axis=0)
    h_first, h_second, h_mid = np.exp(logs - s)
    scaled = h_mid - 0.5 * (h_first + h_second)
    with np.errstate(over="ignore", invalid="ignore"):
        tolerance = np.maximum(SECANT_SLACK * np.exp(-s), _SECANT_ROUNDOFF)
        # a flat secant has zero slack at any scale, not 0 * inf
        slack = np.where(scaled == 0.0, 0.0, scaled * np.exp(s))
    worst = int(np.argmin(slack))
    # a nonfinite loss makes a nan slack, which certifies nothing
    violations = scaled < -tolerance
    witness = None
    if violations.any():
        witness_idx = int(np.argmax(violations))
        verdict = VIOLATED
        witness = (first[witness_idx].copy(), second[witness_idx].copy())
    elif np.isfinite(scaled).all():
        verdict = SATISFIED
    else:
        verdict = INCONCLUSIVE
    return ConditionVerdict(
        estimate=float(slack[worst]),
        std_error=0.0,
        verdict=verdict,
        samples_used=trials,
        witness=witness,
    )


def nice_beta_report(kind: str) -> NiceBetaReport:
    """Computed minimal nice temperature for a margin loss, with comparison.

    The comparison column holds the constant commonly quoted for the loss
    (``e`` for exponential, ``e * ln 2`` for base-2 logistic); the report
    states whether the computed supremum agrees with it and asserts
    nothing either way.  Hinge has no second derivative, so the criterion
    is inapplicable.
    """
    try:
        computed = minimal_nice_beta(kind)
    except ValueError as exc:
        raise ValueError(f"criterion inapplicable for {kind!r}: {exc}") from exc
    quoted = QUOTED_NICE_BETAS.get(kind)
    agrees = None if quoted is None else bool(abs(computed - quoted) <= 1e-6)
    return NiceBetaReport(kind=kind, computed_beta=computed, quoted_beta=quoted, agrees=agrees)
