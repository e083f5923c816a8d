"""Exact risk computation and aggregation oracles on finite distributions.

Everything here is deterministic: distributions are finite lists of atoms,
risks are exact expectations (compensated summation over atoms), and the
two oracle values the rate experiments compare against are

* the selection oracle ``min_j R(f_j)`` over the dictionary, and
* the convex oracle ``inf R(f_theta)`` over the whole simplex.

The convex oracle is found by one projected-gradient minimizer for every
loss and certified by the vertex gap ``theta . g - min_j g_j`` with ``g``
the exact risk gradient, which upper-bounds the suboptimality of a convex
objective over the simplex.  For the hinge loss ``g`` is a subgradient
that takes slope 1 at a zero margin, so the gap stays a true bound.  The
reference rate curves for both aggregation problems are also provided
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .losses import LabeledSample, LossSpec, PHI_HINGE, check_labels, grad_coef, loss_values
from .simplex import Dictionary, require_positive, uniform_weights, validate_weights

__all__ = [
    "FiniteDistribution",
    "RiskReport",
    "ConvergenceError",
    "atom_design",
    "column_risks",
    "exact_risk",
    "ms_oracle",
    "c_oracle",
    "optimal_rate",
    "excess_risk",
]

PROB_ATOL = 1e-12


@dataclass(frozen=True)
class FiniteDistribution:
    """Distribution of ``(X, Y)`` supported on finitely many atoms.

    ``atoms`` is a tuple of ``(LabeledSample, probability)`` pairs with
    positive probabilities summing to one.
    """

    atoms: tuple

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("distribution needs at least one atom")
        total = math.fsum(p for _, p in atoms)
        for z, p in atoms:
            if not isinstance(z, LabeledSample):
                raise ValueError(f"atom {z!r} is not a LabeledSample")
            require_positive("atom probability", p)
            if not math.isfinite(z.y):
                raise ValueError(f"atom label must be finite, got {z.y!r}")
        if abs(total - 1.0) > PROB_ATOL:
            raise ValueError(f"atom probabilities must sum to 1 within {PROB_ATOL}, got {total!r}")
        object.__setattr__(self, "atoms", atoms)

    @cached_property
    def ys(self) -> np.ndarray:
        return np.asarray([z.y for z, _ in self.atoms], dtype=float)

    @cached_property
    def ps(self) -> np.ndarray:
        return np.asarray([p for _, p in self.atoms], dtype=float)

    def validate_for(self, spec: LossSpec) -> None:
        """Check every atom is legal under ``spec`` (labels, bounds)."""
        check_labels(spec, self.ys)

    @cached_property
    def _cdf(self) -> np.ndarray:
        """Cumulative atom probabilities, scaled so the last entry is exactly 1."""
        cdf = self.ps.cumsum()
        cdf /= cdf[-1]
        return cdf

    @cached_property
    def _guide(self) -> tuple:
        """``(B, guide, rounds)`` of ``sample_indices``, ``B`` a power of two, at least 256 and 16 per atom."""
        cdf = self._cdf
        buckets = max(256, 1 << (16 * len(cdf) - 1).bit_length())
        guide = cdf.searchsorted(np.arange(buckets) / buckets, side="right")
        rounds = int(np.diff(guide, append=len(cdf) - 1).max())
        return buckets, guide, rounds

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. atom indices by inverting the CDF.

        Index for index (and with the same use of ``rng``) this is
        ``rng.choice(len(atoms), size, p=ps)``, which returns
        ``cdf.searchsorted(u, side="right")`` for ``u = rng.random(size)``.
        A guide table finds the same index (Chen & Asau 1974).  Its entry
        ``guide[b]`` is the first index whose CDF entry exceeds ``b / B``.
        With ``B`` a power of two ``u * B`` is exact, so bucket
        ``b = floor(u * B)`` has ``b / B <= u < (b + 1) / B``: its entry never
        passes the answer, and the next bucket's entry (``K - 1`` past the
        last) is not below it.  So ``rounds`` steps of ``i += cdf[i] <= u``,
        ``rounds`` the largest gap between neighbouring entries, reach the
        answer and then stay.  No ``i`` passes the answer, which is below
        ``K`` because ``cdf[-1] = 1 > u``, so each lookup is in range.
        Returns ``intp`` indices.
        """
        buckets, guide, rounds = self._guide
        u = rng.random(size)
        i = guide.take((u * buckets).astype(np.intp))
        for _ in range(rounds):
            i += self._cdf.take(i) <= u
        return i

    def replicate_indices(self, key, replicates: int, size: int) -> np.ndarray:
        """``(replicates, size)`` atom indices, row ``r`` drawn from ``default_rng([*key, r])``.

        Row ``r`` is ``sample_indices`` on that stream, so it is exact in
        the same sense.  Each replicate has its own stream, so a row does
        not depend on how many replicates are drawn or in which order.  The
        array is column-major, so the kernels read each step's atoms
        contiguously, and of the narrowest unsigned dtype that holds every
        atom index (``np.min_scalar_type(K - 1)``: uint8 up to 256 atoms,
        uint16 up to 65,536).
        """
        idx = np.empty((replicates, size), dtype=np.min_scalar_type(len(self.atoms) - 1), order="F")
        for r in range(replicates):
            idx[r] = self.sample_indices(np.random.default_rng([*key, r]), size)
        return idx

    def sample(self, rng: np.random.Generator, size: int) -> list:
        """Draw ``size`` i.i.d. observations as LabeledSamples."""
        idx = self.sample_indices(rng, size)
        return [self.atoms[i][0] for i in idx]


@dataclass(frozen=True)
class RiskReport:
    """An oracle value with its minimizer and optimality certificate.

    ``oracle_kind`` is ``"MS"`` (selection over the dictionary, minimizer
    is an index, certificate 0 by enumeration) or ``"C"`` (convex hull,
    minimizer is a weight vector, certificate is the vertex gap at it).
    ``arm_risks`` holds the exact risk of every dictionary function, as
    the selection oracle enumerated them; the convex oracle leaves it
    empty.
    """

    risk_value: float
    oracle_kind: str
    minimizer: object
    gap_certificate: float
    arm_risks: tuple = ()


class ConvergenceError(RuntimeError):
    """Raised when the convex oracle cannot certify the requested gap.

    ``best_weights`` is the last, lowest-risk iterate, ``best_risk`` its risk, ``gap`` its own vertex gap.
    """

    def __init__(self, message: str, best_weights: np.ndarray, best_risk: float, gap: float):
        super().__init__(message)
        self.best_weights = best_weights
        self.best_risk = best_risk
        self.gap = gap


def atom_design(dictionary: Dictionary, spec: LossSpec, dist: FiniteDistribution) -> np.ndarray:
    """Matrix ``F[a, j] = f_j(x_a)`` over the atoms of ``dist``, once their labels pass ``spec``'s rule."""
    dist.validate_for(spec)
    return np.stack([np.asarray(dictionary.values_at(z.x), dtype=float) for z, _ in dist.atoms])


def column_risks(kind: str, dist: FiniteDistribution, columns) -> list:
    """Exact risk of each column of per-atom prediction values.

    ``columns`` yields vectors ``v`` with ``v[a]`` the prediction at atom
    ``a``.  Each risk is the compensated sum over atoms of ``p_a`` times
    the loss at ``v[a]``, so it is exact up to one floating rounding.
    Columns are reduced one at a time, so memory stays at one atom vector
    however many columns there are.
    """
    return [math.fsum((dist.ps * loss_values(kind, dist.ys, v)).tolist()) for v in columns]


def exact_risk(theta_or_index, dictionary: Dictionary, spec: LossSpec, dist: FiniteDistribution) -> float:
    """Exact population risk of a vertex or mixture under ``dist``.

    An integer selects the single function ``f_j``; a weight vector selects
    the mixture.  The expectation over atoms uses compensated summation,
    so the result is exact up to one floating rounding.
    """
    if isinstance(theta_or_index, (int, np.integer)):
        dist.validate_for(spec)
        j = int(theta_or_index)
        if not 0 <= j < dictionary.size:
            raise ValueError(f"function index {j} outside dictionary of size {dictionary.size}")
        values = np.asarray([dictionary.evaluate(j, z.x) for z, _ in dist.atoms], dtype=float)
    else:
        values = atom_design(dictionary, spec, dist) @ validate_weights(theta_or_index, size=dictionary.size)
    return column_risks(spec.kind, dist, [values])[0]


def ms_oracle(dictionary: Dictionary, spec: LossSpec, dist: FiniteDistribution) -> RiskReport:
    """Best single dictionary function, by exhaustive enumeration.

    Ties break to the lowest index.
    """
    risks = column_risks(spec.kind, dist, atom_design(dictionary, spec, dist).T)
    j = int(np.argmin(risks))
    return RiskReport(risk_value=risks[j], oracle_kind="MS", minimizer=j, gap_certificate=0.0, arm_risks=tuple(risks))


def _risk_closures(design, kind, dist):
    """Fast risk/gradient closures over the atom design matrix."""
    ys = dist.ys
    ps = dist.ps

    def risk(theta):
        return float(ps @ loss_values(kind, ys, design @ theta))

    def grad(theta):
        mix = design @ theta
        if kind == PHI_HINGE:
            # subgradient: slope 1 wherever the margin 1 - y f is exactly zero
            return design.T @ (ps * (ys * mix <= 1.0) * -ys)
        return design.T @ (ps * grad_coef(kind, ys, mix))

    return risk, grad


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.shape[0] + 1)
    rho = np.nonzero(u * idx > (css - 1.0))[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _minimize(risk, grad, m, tol, max_iter):
    """Accelerated projected gradient with backtracking and restarts.

    Acceleration is dropped after an initial phase: the momentum steps
    make early progress but oscillate near the optimum, while plain
    backtracked projected-gradient steps are monotone and let the vertex
    gap settle below the certification tolerance.  ``grad`` may be a
    subgradient (hinge): the steps are then only a heuristic, and the
    vertex gap alone decides success.  Returns ``(theta, gap)`` once
    ``gap <= tol``, else raises ``ConvergenceError`` with the last iterate,
    its risk and its own gap.  ``theta`` only moves to a candidate of no
    larger risk, so the last iterate has the lowest risk any reached.
    """
    accel_phase = min(2000, max_iter)
    theta = uniform_weights(m)
    momentum = theta.copy()
    t_acc = 1.0
    lips = 1.0
    f_theta = risk(theta)
    for it in range(max_iter):
        accelerated = it < accel_phase
        point = momentum if accelerated else theta
        g_y = grad(point)
        f_y = risk(point)
        while True:
            cand = _project_simplex(point - g_y / lips)
            diff = cand - point
            quad = f_y + float(g_y @ diff) + 0.5 * lips * float(diff @ diff)
            f_cand = risk(cand)
            if f_cand <= quad + 1e-15 or lips > 1e18:
                break
            lips *= 2.0
        if accelerated:
            if f_cand > f_theta:
                momentum = theta.copy()
                t_acc = 1.0
            else:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
                momentum = _project_simplex(cand + ((t_acc - 1.0) / t_next) * (cand - theta))
                t_acc = t_next
                theta, f_theta = cand, f_cand
        elif f_cand <= f_theta:
            theta, f_theta = cand, f_cand
        g_theta = grad(theta)
        gap = float(theta @ g_theta - g_theta.min())
        if gap <= tol:
            return theta, gap
        if it % 50 == 49:
            # let oversized curvature estimates relax between backtracks
            lips = max(lips * 0.5, 1e-12)
    raise ConvergenceError(
        f"convex oracle failed to certify gap <= {tol:g} within {max_iter} iterations "
        f"(gap {gap:g} at the last iterate)",
        best_weights=theta,
        best_risk=f_theta,
        gap=gap,
    )


def c_oracle(
    dictionary: Dictionary,
    spec: LossSpec,
    dist: FiniteDistribution,
    tol: float = 1e-8,
    max_iter: int = 1_000_000,
) -> RiskReport:
    """Infimum of the exact risk over all dictionary mixtures.

    Minimizes ``theta -> R(f_theta)`` over the simplex with one
    projected-gradient solver for every loss and certifies the result with
    the vertex gap at the exact risk gradient (for the hinge loss, the
    subgradient with slope 1 at a zero margin); on success the certificate
    is at most ``tol``.  Failure to certify within ``max_iter`` iterations,
    whatever the loss, raises ``ConvergenceError`` carrying the last iterate,
    its risk and its own vertex gap.
    """
    require_positive("tol", tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    design = atom_design(dictionary, spec, dist)
    risk, grad = _risk_closures(design, spec.kind, dist)
    theta, gap = _minimize(risk, grad, dictionary.size, tol, max_iter)
    return RiskReport(
        risk_value=column_risks(spec.kind, dist, [design @ theta])[0],
        oracle_kind="C",
        minimizer=theta,
        gap_certificate=gap,
    )


def optimal_rate(n: int, m: int, kind: str) -> float:
    """Reference rate for a sample size and dictionary size.

    Convex-hull aggregation (``kind="C"``) switches branch at ``m = sqrt(n)``
    (boundary inclusive in the first branch): ``m / n`` for small
    dictionaries, ``sqrt(log(m / sqrt(n) + 1) / n)`` for large ones.
    Selection aggregation (``kind="MS"``) is ``log(m) / n``.  Logs are
    natural.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if m < 2:
        raise ValueError(f"dictionary size must be at least 2, got {m}")
    if kind == "C":
        if m * m <= n:
            return m / n
        return math.sqrt(math.log(m / math.sqrt(n) + 1.0) / n)
    if kind == "MS":
        return math.log(m) / n
    raise ValueError(f"unknown oracle kind {kind!r}; expected 'MS' or 'C'")


def excess_risk(achieved: float, oracle) -> float:
    """Achieved risk minus the oracle value.

    ``oracle`` may be a plain risk value or a ``RiskReport``.
    """
    oracle_value = getattr(oracle, "risk_value", oracle)
    return float(achieved) - float(oracle_value)
