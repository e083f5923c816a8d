"""Monte Carlo harness: instance generators, replicated runs, rate checks.

A cell is one ``(sample size, dictionary size)`` point of a benchmark
grid.  ``run_dictionary_size`` makes every cell of one dictionary size in
one pass: it builds the instance, draws ``R`` independent training
samples of the largest sample size from per-replicate seeded streams,
folds the configured algorithms over them once, and reports at each
sample size ``n`` of the grid the mean excess risk of each over the
first ``n`` draws, against its own oracle only (the selector's is the
selection oracle).  ``run_cell`` is the same pass at one sample size.
The pass tabulates the instance once: the table-level oracles
(``ms_oracle_of_losses``, ``c_oracle_of_design``) and the three kernels
read one ``atom_design`` and one loss table.  A row's mean excess is the
exact mean of its replicates' excesses, rounded once, and its standard
error comes from the deviations about that mean.  The aggregation rows
also carry the theoretical bound value:

* linearized algorithm, selection oracle: ``beta * log(M) / (n + 1)``;
* gradient algorithm, convex oracle: ``2 * sqrt(Qstar * log(M) / n)``.

Streams are keyed by purpose.  The instance of a dictionary size comes
from ``[master seed, family code, M]`` (codes 1 to 4), and replicate
``r`` from ``[master seed, 5, M, r]``, 5 being the replicate tag.  The
key holds no sample size, so the cells of one ``M`` are nested samples:
a cell's replicate ``r`` is the first ``n`` draws of one stream.  Each
cell's mean, standard error and bound verdict keep their distribution,
but the cells of one ``M`` are dependent.  Replicates are reduced in
index order, so results are identical however dictionary sizes or
replicates are scheduled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .aggregation import Schedule, erm_totals, lma_weights, ma_weights
from .losses import (
    QUOTED_NICE_BETAS,
    LabeledSample,
    LossSpec,
    PHI_HINGE,
    PHI_KINDS,
    SQUARED,
    check_margin_range,
    gradient_second_moment_bound,
    loss_values,
    minimal_nice_beta,
)
from .oracles import FiniteDistribution, atom_design, c_oracle_of_design, mixture_risks, ms_oracle_of_losses
# ms_oracle and c_oracle are unused here but stay names of this module:
# perfbench's tracer wraps experiments.ms_oracle and experiments.c_oracle
from .oracles import c_oracle, ms_oracle  # noqa: F401
from .simplex import TabularDictionary, require_positive

__all__ = [
    "GeneratorSpec",
    "ExperimentConfig",
    "ResultRow",
    "RateFit",
    "BoundCheck",
    "generate_instance",
    "default_lma_betas",
    "run_dictionary_size",
    "run_cell",
    "fit_rate_slope",
    "verify_bound",
]

# Purpose words of the streams, literals so that a new family re-keys none:
# a family's instance is ``[seed, code, M]`` and replicate ``r`` is
# ``[seed, _REPLICATE_TAG, M, r]``.  numpy's SeedSequence ignores trailing
# zero words, so replicate 0's stream is ``[seed, 5, M]``; 5 is no family
# code, nor one of the tags 6 and 7 of the ``conditions`` streams.
_FAMILY_CODES = {"bounded_regression": 1, "phi_classification": 2, "margin_classification": 3, "near_tie": 4}
_REPLICATE_TAG = 5
FAMILIES = tuple(_FAMILY_CODES)

# families whose labels are real numbers, not the {-1, +1} of a margin loss
_REGRESSION_FAMILIES = ("bounded_regression", "near_tie")

# Per-arm perturbation amplitudes for the regression recipe are log-spread
# over this interval so the dictionary's risk gaps straddle the crossover
# scales of the benchmark n grid.
_PERTURBATION_AMPLITUDES = (0.35, 0.7)

# the oracle each algorithm's rows are measured against
_ORACLE_OF = {"MA": "C", "LMA": "MS", "ERM": "MS"}

# the MA schedule of each ``ma_schedule`` name, from ``beta0``
_MA_SCHEDULES = {"sqrt_growth": Schedule.sqrt_growth, "constant": Schedule.constant}


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a family of benchmark instances.

    ``noise_level`` is the response noise half-width (regression and near-tie
    families), ``tie_gap`` the risk spacing of the near-tie ladder.
    """

    family: str
    grid_size: int = 16
    noise_level: float = 0.0
    tie_gap: float = 0.01

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown generator family {self.family!r}; expected one of {FAMILIES}")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be at least 1, got {self.grid_size}")
        if not math.isfinite(self.noise_level) or self.noise_level < 0.0:
            raise ValueError(f"noise_level must be a nonnegative finite number, got {self.noise_level!r}")
        if not math.isfinite(self.tie_gap) or self.tie_gap < 0.0:
            raise ValueError(f"tie_gap must be a nonnegative finite number, got {self.tie_gap!r}")


def _regression_atoms(x_values, means, sigma):
    shifts = (0.0,) if sigma == 0.0 else (sigma, -sigma)
    # 1 / (k * len(shifts)) is the same float as 1 / k and 0.5 / k
    p = 1.0 / (len(means) * len(shifts))
    atoms = [
        (LabeledSample(x, float(np.clip(mu + shift, -1.0, 1.0))), p)
        for x, mu in zip(x_values, means)
        for shift in shifts
    ]
    return FiniteDistribution(tuple(atoms))


def _classification_atoms(eta):
    k = len(eta)
    atoms = []
    for x, p in enumerate(eta):
        atoms.append((LabeledSample(x, 1.0), float(p) / k))
        atoms.append((LabeledSample(x, -1.0), float(1.0 - p) / k))
    return FiniteDistribution(tuple(atoms))


def generate_instance(genspec: GeneratorSpec, m: int, seed: int):
    """Build the ``(distribution, dictionary)`` pair for one cell.

    Deterministic in ``(genspec, m, seed)``: the stream is keyed by the
    seed, the family, and the dictionary size, so instances are shared
    across sample sizes and reproducible across processes.
    """
    if m < 2:
        raise ValueError(f"dictionary size must be at least 2, got {m}")
    rng = np.random.default_rng([seed, _FAMILY_CODES[genspec.family], m])
    k = genspec.grid_size
    family = genspec.family

    if family == "bounded_regression":
        # Arm 0 is the conditional mean, so both oracle risks equal the
        # noise floor and every excess is nonnegative pointwise.  The
        # other arms share one sign pattern at log-spread amplitudes,
        # which keeps their risk gaps well separated without letting
        # mixtures cancel the perturbations.
        anchor = rng.uniform(-0.5, 0.5, k)
        lo, hi = _PERTURBATION_AMPLITUDES
        amplitudes = np.exp(rng.uniform(math.log(lo), math.log(hi), m - 1))
        pattern = rng.choice([-1.0, 1.0], size=k)
        offsets = amplitudes[:, None] * pattern[None, :]
        values = np.vstack([anchor, np.clip(anchor + offsets, -1.0, 1.0)])
        dist = _regression_atoms(range(k), anchor, genspec.noise_level)
        return dist, TabularDictionary(values, range_bound=1.0)

    if family == "phi_classification":
        eta = rng.uniform(0.1, 0.9, k)
        values = rng.uniform(-1.0, 1.0, (m, k))
        return _classification_atoms(eta), TabularDictionary(values, range_bound=1.0)

    if family == "margin_classification":
        # arm 0 is the Bayes classifier; an odd grid's middle point goes to +1,
        # so |2 eta - 1| = 1/2 at every point
        bayes = np.where(2 * np.arange(k) < k - 1, -1.0, 1.0)
        eta = 0.5 + 0.25 * bayes
        values = np.vstack([bayes, rng.uniform(-1.0, 1.0, (m - 1, k))])
        return _classification_atoms(eta), TabularDictionary(values, range_bound=1.0)

    # near_tie: constant predictors with risks spaced exactly tie_gap apart
    delta = genspec.tie_gap
    if (m - 1) * delta > 1.0:
        raise ValueError(
            f"infeasible near-tie ladder: sqrt((M-1)*tie_gap) must stay within the range "
            f"bound 1, got (M-1)*tie_gap = {(m - 1) * delta!r}"
        )
    constants = np.sqrt(delta * np.arange(m))
    values = np.repeat(constants[:, None], k, axis=1)
    dist = _regression_atoms(range(k), np.zeros(k), genspec.noise_level)
    return dist, TabularDictionary(values, range_bound=1.0)


def default_lma_betas(spec: LossSpec, range_bound: float) -> tuple[float, ...]:
    """Documented default temperatures for the linearized algorithm.

    Squared loss: ``4 * (y_bound + B)^2``, twice the concavity threshold of
    the exponential-map criterion.  Exponential and base-2 logistic: the
    quoted minimal nice temperature, then the computed one unless equal
    (``e``; ``e * ln 2`` and ``e / ln 2``), producing one result row each.
    Hinge has no documented constant and requires an explicit temperature.
    """
    if spec.kind == SQUARED:
        return (4.0 * (spec.y_bound + range_bound) ** 2,)
    if spec.kind in QUOTED_NICE_BETAS:
        return tuple(dict.fromkeys((QUOTED_NICE_BETAS[spec.kind], minimal_nice_beta(spec.kind))))
    raise ValueError(f"no default temperature for {spec.kind!r}; set lma_beta explicitly")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run depends on.

    ``lma_betas`` empty means the documented defaults for the loss;
    ``ma_beta0`` None means ``sqrt(Qstar / log M)`` per cell.
    """

    generator: GeneratorSpec
    n_grid: tuple
    m_grid: tuple
    replications: int
    algorithms: tuple
    loss: LossSpec
    master_seed: int
    lma_betas: tuple = ()
    ma_beta0: float | None = None
    ma_schedule: str = "sqrt_growth"

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "lma_betas", tuple(float(b) for b in self.lma_betas))
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError(f"n_grid must be nonempty with sample sizes >= 1, got {self.n_grid}")
        if not self.m_grid or any(m < 2 for m in self.m_grid):
            raise ValueError(f"m_grid must be nonempty with dictionary sizes >= 2, got {self.m_grid}")
        for name, grid in (("n_grid", self.n_grid), ("m_grid", self.m_grid)):
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} repeats a size, got {grid}")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        unknown = [a for a in self.algorithms if a not in _ORACLE_OF]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; expected a subset of {tuple(_ORACLE_OF)}")
        if "MA" in self.algorithms and not self.loss.differentiable:
            raise ValueError("the gradient algorithm requires a differentiable loss; drop MA or change loss")
        if "LMA" in self.algorithms and self.loss.kind == PHI_HINGE and not self.lma_betas:
            raise ValueError("no default temperature for phi_hinge; set lma_beta explicitly")
        for beta in self.lma_betas:
            require_positive("lma_betas", beta)
        if self.ma_beta0 is not None:
            require_positive("ma_beta0", self.ma_beta0)
        if self.ma_schedule not in _MA_SCHEDULES:
            names = " or ".join(map(repr, _MA_SCHEDULES))
            raise ValueError(f"ma_schedule must be {names}, got {self.ma_schedule!r}")
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a nonnegative integer, got {self.master_seed!r}")
        if self.loss.kind in PHI_KINDS and self.generator.family in _REGRESSION_FAMILIES:
            raise ValueError(
                f"margin losses require labels in {{-1, +1}}; the {self.generator.family} family draws real labels"
            )


@dataclass(frozen=True)
class ResultRow:
    """Aggregated outcome of one cell for one algorithm and oracle."""

    n: int
    m: int
    algorithm: str
    loss_kind: str
    oracle_kind: str
    mean_excess: float
    stderr: float
    oracle_value: float
    bound_value: float | None
    bound_pass: bool | None
    seed: int


class RateFit(NamedTuple):
    slope: float
    stderr: float
    intercept: float


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of checking one bound over a set of result rows."""

    checked: int
    fraction_passed: float
    failures: tuple


def _excess_statistics(achieved: np.ndarray, oracle_value: float) -> tuple:
    """``(mean, standard error)`` of the excesses ``a_r - oracle_value`` of one cell's replicate risks ``a_r``.

    The mean is exact, rounded once: ``math.fsum`` parts take the exact sum,
    which as one integer ratio divides by ``R`` in one rounding (an ``fsum``
    and then a division round twice, and miss the mean of ``R`` equal
    values for about one value in eight).  The standard error comes from
    the deviations about that mean, so replicates that share one risk
    ``a`` report ``a - oracle_value`` ± 0.
    """
    reps = len(achieved)
    terms = achieved.tolist() + [-oracle_value] * reps
    parts = []
    while remainder := math.fsum(terms):
        parts.append(remainder.as_integer_ratio())
        terms.append(-remainder)
    unit = max((den for _, den in parts), default=1)
    mean_excess = sum(num * (unit // den) for num, den in parts) / (unit * reps)
    if reps == 1:
        return mean_excess, 0.0
    deviations = (achieved - oracle_value) - mean_excess
    return mean_excess, math.sqrt(float(np.square(deviations).sum()) / (reps - 1)) / math.sqrt(reps)


def _bound_holds(mean_excess: float, stderr: float, bound: float) -> bool:
    """The 2σ verdict: the mean excess minus two standard errors is at most ``bound``."""
    return bool(mean_excess - 2.0 * stderr <= bound)


def run_dictionary_size(config: ExperimentConfig, m: int) -> list:
    """Run every configured algorithm on every cell of one dictionary size.

    Returns the rows of each ``n`` of ``config.n_grid`` in grid order, one
    row per algorithm in configuration order.  Each row measures excess
    against the algorithm's natural oracle: selection oracle for the
    linearized algorithm and the selector, convex oracle for the gradient
    algorithm, and only those oracles are solved.  The theoretical bound
    is attached where one applies (both aggregation algorithms, not the
    selector).
    """
    loss = config.loss
    kind = loss.kind
    dist, dictionary = generate_instance(config.generator, m, config.master_seed)
    design = atom_design(dictionary, loss, dist)
    # past the tabulation the pass needs only the range bound; releasing the
    # dictionary's values lowers the peak while the oracles and kernels run
    range_bound = dictionary.range_bound
    del dictionary
    check_margin_range(kind, design)
    losses = loss_values(kind, dist.ys[:, None], design)
    reported = {_ORACLE_OF[algorithm] for algorithm in config.algorithms}
    oracles = {}
    if "MS" in reported:
        oracles["MS"] = ms_oracle_of_losses(losses, dist)
    if "C" in reported:
        oracles["C"] = c_oracle_of_design(design, kind, dist)
    reps = config.replications
    checkpoints = sorted(config.n_grid)
    idx = dist.replicate_indices((config.master_seed, _REPLICATE_TAG, m), reps, checkpoints[-1])

    log_m = math.log(m)
    rows_at: dict = {n: [] for n in checkpoints}

    def emit(n, label, achieved, okind, bound):
        oracle_value = oracles[okind].risk_value
        mean_excess, stderr = _excess_statistics(np.asarray(achieved, dtype=float), oracle_value)
        rows_at[n].append(
            ResultRow(
                n=n,
                m=m,
                algorithm=label,
                loss_kind=kind,
                oracle_kind=okind,
                mean_excess=mean_excess,
                stderr=stderr,
                oracle_value=oracle_value,
                bound_value=bound,
                bound_pass=None if bound is None else _bound_holds(mean_excess, stderr, bound),
                seed=config.master_seed,
            )
        )

    # the mixture weights are reduced to risks inside one comprehension, so no
    # checkpoint's weights are held while the next kernel runs
    for algorithm in config.algorithms:
        okind = _ORACLE_OF[algorithm]
        if algorithm == "LMA":
            betas = config.lma_betas or default_lma_betas(loss, range_bound)
            for beta in betas:
                label = "LMA" if len(betas) == 1 else f"LMA@{beta:.6g}"
                achieved_at = [
                    mixture_risks(kind, dist, design, thetas)
                    for thetas in lma_weights(idx, losses, beta, checkpoints)
                ]
                for n, achieved in zip(checkpoints, achieved_at):
                    emit(n, label, achieved, okind, beta * log_m / (n + 1))
        elif algorithm == "MA":
            qstar = gradient_second_moment_bound(loss, range_bound)
            beta0 = config.ma_beta0 if config.ma_beta0 is not None else math.sqrt(qstar / log_m)
            ma_betas = _MA_SCHEDULES[config.ma_schedule](beta0).betas(checkpoints[-1])
            achieved_at = [
                mixture_risks(kind, dist, design, thetas)
                for thetas in ma_weights(idx, design, dist.ys, kind, ma_betas, checkpoints)
            ]
            for n, achieved in zip(checkpoints, achieved_at):
                emit(n, "MA", achieved, okind, 2.0 * math.sqrt(qstar * log_m / n))
        else:
            vertex_risks = np.array(oracles["MS"].arm_risks)
            for n, sums in zip(checkpoints, erm_totals(idx, losses, checkpoints)):
                emit(n, "ERM", vertex_risks[np.argmin(sums, axis=1)], okind, None)

    return [row for n in config.n_grid for row in rows_at[n]]


def run_cell(config: ExperimentConfig, n: int, m: int) -> list:
    """Run every configured algorithm on one grid cell: ``run_dictionary_size`` at the one size ``n``.

    The rows equal the ``n`` rows of a pass over the whole grid, bit for bit.
    """
    return run_dictionary_size(replace(config, n_grid=(n,)), m)


def fit_rate_slope(rows: Sequence[ResultRow]) -> RateFit:
    """OLS slope of log mean excess against log sample size.

    Rows with nonpositive mean excess carry no information on a log scale;
    they are excluded with a warning.  At least four distinct usable
    sample sizes are required.  The rows of one dictionary size come
    from nested samples (see the module docstring), so their errors are
    correlated: the slope stays a fair summary, but ``stderr``, the OLS
    standard error from the residuals, no longer measures its sampling
    error.
    """
    usable = [(row.n, row.mean_excess) for row in rows if row.mean_excess > 0.0]
    dropped = sorted(row.n for row in rows if row.mean_excess <= 0.0)
    if dropped:
        warnings.warn(f"excluded nonpositive mean-excess rows at n={dropped}", stacklevel=2)
    ns = [n for n, _ in usable]
    if len(set(ns)) != len(ns):
        raise ValueError(f"duplicate sample sizes in rows: {sorted(ns)}")
    if len(ns) < 4:
        raise ValueError(f"need at least 4 distinct usable sample sizes, got {len(ns)}")
    x = np.log([n for n, _ in usable])
    y = np.log([e for _, e in usable])
    x_centered = x - x.mean()
    slope = float((x_centered @ (y - y.mean())) / (x_centered @ x_centered))
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    dof = len(ns) - 2
    stderr = float(math.sqrt((residuals @ residuals) / dof / (x_centered @ x_centered)))
    return RateFit(slope=slope, stderr=stderr, intercept=intercept)


def verify_bound(rows: Sequence[ResultRow], bound: str) -> BoundCheck:
    """Check one oracle-inequality bound over result rows.

    ``bound="lma"`` selects linearized-algorithm rows against the selection
    oracle; ``bound="ma"`` selects gradient-algorithm rows against the
    convex oracle.  A row passes when its mean excess minus two standard
    errors is at most the bound value.
    """
    family = {"lma": "LMA", "ma": "MA"}.get(bound)
    if family is None:
        raise ValueError(f"unknown bound {bound!r}; expected 'lma' or 'ma'")
    picked = [
        row
        for row in rows
        if row.algorithm.split("@")[0] == family
        and row.oracle_kind == _ORACLE_OF[family]
        and row.bound_value is not None
    ]
    if not picked:
        raise ValueError(f"no rows carry the {bound!r} bound")
    failures = tuple(row for row in picked if not _bound_holds(row.mean_excess, row.stderr, row.bound_value))
    return BoundCheck(
        checked=len(picked),
        fraction_passed=1.0 - len(failures) / len(picked),
        failures=failures,
    )
