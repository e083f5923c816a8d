"""Exact risk computation and aggregation oracles on finite distributions.

Everything here is deterministic: distributions are finite lists of atoms,
risks are exact expectations (error-free column sums over atoms, rounded
once, the same float as ``math.fsum``), and the two oracle values the rate
experiments compare against are

* the selection oracle ``min_j R(f_j)`` over the dictionary, and
* the convex oracle ``inf R(f_theta)`` over the whole simplex.

The convex oracle is found by one projected-gradient minimizer for every
loss and certified by the vertex gap ``theta . g - min_j g_j`` with ``g``
the exact risk gradient, which upper-bounds the suboptimality of a convex
objective over the simplex.  For the hinge loss ``g`` is a subgradient
that takes slope 1 at a zero margin, so the gap stays a true bound.

The minimizer works on distinct design points, not atoms: atoms at one
point ``x`` share a row of dictionary values, and the generated families
put two labels at each point (noise-free regression excepted), so one row
per point (``FiniteDistribution.design_points``) halves the table that
the solver streams four times an iteration.  An atom's mixture value is
its point's, and the gradient sums the atoms' weights per point before
one product.  The oracle's value is priced on the atom table, as every
mixture is.

Each oracle has a table-level form that reads what a caller has already
tabulated: ``ms_oracle_of_losses`` the per-atom loss table and
``c_oracle_of_design`` the ``atom_design`` table.  ``ms_oracle`` and
``c_oracle`` tabulate a dictionary and call them.  The reference rate
curves for both aggregation problems are also provided here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .losses import LabeledSample, LossSpec, PHI_HINGE, check_labels, grad_coef, loss_values
from .simplex import Dictionary, first_seen, require_positive, uniform_weights, validate_weights

__all__ = [
    "FiniteDistribution",
    "RiskReport",
    "ConvergenceError",
    "exact_risk",
    "ms_oracle",
    "ms_oracle_of_losses",
    "c_oracle",
    "c_oracle_of_design",
    "optimal_rate",
    "excess_risk",
]

PROB_ATOL = 1e-12

# Exact risks reduce, and replicate draws invert, at most this many entries at
# a time, so their buffers and temporaries stay a few hundred kilobytes.
_BLOCK_ENTRIES = 1 << 15

# Weight vectors per mixture product: every mixture risk is a column of one
# ``design @ block.T`` of this many vectors (see ``mixture_risks``).
_MIXTURE_WIDTH = 32

# ``_minimize``'s curvature estimate shrinks by this factor before each iteration
_STEP_RELAX = 0.7


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
        # ``(request, indices)`` of the last ``replicate_indices`` call
        object.__setattr__(self, "_last_draw", None)

    @cached_property
    def ys(self) -> np.ndarray:
        return np.asarray([z.y for z, _ in self.atoms], dtype=float)

    @cached_property
    def ps(self) -> np.ndarray:
        return np.asarray([p for _, p in self.atoms], dtype=float)

    @cached_property
    def design_points(self) -> tuple:
        """``first_seen`` of the atoms' design points ``z.x``: ``(point_of_atom, first_atoms)``."""
        return first_seen([z.x for z, _ in self.atoms])

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
        Atoms far below ``1 / B`` in probability make ``rounds`` large; past
        ``3 * K.bit_length()`` rounds one ``searchsorted`` (a binary search)
        is faster, and it returns the same indices.  Returns ``intp`` indices.
        """
        return self._invert(rng.random(size))

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(u, side="right")`` of an array of uniforms, by the guide table of ``sample_indices``."""
        buckets, guide, rounds = self._guide
        # measured at 200,000 uniforms: the passes cost one binary search at
        # 2.5-3.7 times K.bit_length() rounds, from 64 to 16,384 atoms
        if rounds > 3 * len(self._cdf).bit_length():
            return self._cdf.searchsorted(u, side="right")
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

        Each generator is seeded from the ``uint32`` words of ``[*key, r]``
        (``_seed_words``), which skips numpy's per-int conversion, and fills
        one row of a block of uniforms that the guide table inverts at once.
        The result is read-only and kept on the distribution: a repeated
        request (the same key words, ``replicates`` and ``size``) returns it
        without drawing again.  Only the last request is kept.
        """
        words = _seed_words(key)
        request = (tuple(words), replicates, size)
        if self._last_draw is not None and self._last_draw[0] == request:
            return self._last_draw[1]
        seed = np.array([*words, 0], dtype=np.uint32)
        idx = np.empty((replicates, size), dtype=np.min_scalar_type(len(self.atoms) - 1), order="F")
        rows = _block_width(size)
        uniforms = np.empty((min(replicates, rows), size))
        for start in range(0, replicates, rows):
            block = uniforms[: replicates - start]
            for r, row in enumerate(block, start):
                seed[-1] = r
                np.random.default_rng(seed).random(out=row)
            idx[start : start + len(block)] = self._invert(block)
        idx.flags.writeable = False
        object.__setattr__(self, "_last_draw", (request, idx))
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
    """Matrix ``F[a, j] = f_j(x_a)`` over the atoms of ``dist``, once their labels pass ``spec``'s rule.

    The dictionary is evaluated once per design point of ``dist``.
    """
    dist.validate_for(spec)
    point_of_atom, first_atoms = dist.design_points
    rows = np.stack([np.asarray(dictionary.values_at(dist.atoms[a][0].x), dtype=float) for a in first_atoms])
    return rows.take(point_of_atom, axis=0)


def _block_width(length: int) -> int:
    """How many columns (or rows) of ``length`` entries fit in one block."""
    return max(1, _BLOCK_ENTRIES // max(length, 1))


def _seed_words(key) -> list:
    """The words numpy's ``SeedSequence`` reads for the non-negative ints of ``key``.

    Each int is its little-endian 32-bit words, at least one (``0`` is
    ``[0]``, ``2**32`` is ``[0, 1]``).  As a ``uint32`` array they seed the
    stream of the list of ints.
    """
    words = []
    for k in map(operator.index, key):
        if k < 0:
            raise ValueError(f"stream key {tuple(key)!r} has a negative entry; keys are non-negative integers")
        words += [(k >> shift) & 0xFFFFFFFF for shift in range(0, max(k.bit_length(), 1), 32)]
    return words


def _exact_column_sums(products: np.ndarray) -> list:
    """``[math.fsum(column) for column in products.T]`` of a float ``(K, C)`` array, without a Python float per entry.

    Error-free extraction (Rump, Ogita & Oishi, *Accurate floating-point
    summation, part I*, SIAM J. Sci. Comput. 2008, Lemma 3.3): with ``sigma``
    a power of two at least ``2**s * max|r|`` and ``2**s >= K + 2``,
    ``q = (sigma + r) - sigma`` and ``r - q`` are exact, every ``q`` is a
    multiple of ``ulp(sigma) / 2`` and their absolute sum is at most
    ``sigma``, so ``q.sum()`` is exact in any order.  Each pass moves the
    leading bits of a column into one exact total ``tau`` and leaves the
    rest in ``r``.  Once ``r`` is zero the exact column sum is the few
    ``tau``, and ``math.fsum`` of those rounds it once, as ``math.fsum`` of
    the column does.  A column with a non-finite entry, too large for
    ``sigma`` to be finite, with a remainder after three passes, or summing
    to zero (the sign of a zero sum is ``math.fsum``'s to choose) is summed
    by ``math.fsum`` itself.
    """
    shift = (len(products) + 1).bit_length()
    amax = np.abs(products).max(axis=0)
    plain = ~(amax < 2.0 ** (1023 - shift))  # also true for inf and nan
    amax[plain] = 0.0
    r = np.where(plain, 0.0, products)
    taus = []
    for _ in range(3):
        sigma = np.ldexp(1.0, np.frexp(amax)[1] + shift)
        q = sigma + r
        q -= sigma
        r -= q
        taus.append(q.sum(axis=0))
        del q  # one block temporary fewer at the abs below
        amax = np.abs(r).max(axis=0)
        if not amax.any():
            break
    sums = [math.fsum(column) for column in zip(*(tau.tolist() for tau in taus))]
    for c in np.flatnonzero(plain | (amax != 0.0) | (np.asarray(sums) == 0.0)):
        sums[c] = math.fsum(products[:, c].tolist())
    return sums


def _expected_columns(table: np.ndarray, dist: FiniteDistribution) -> list:
    """``math.fsum`` of ``p_a * table[a, c]`` over the atoms ``a``, for each column ``c``, bit for bit.

    Blocks of at most ``_BLOCK_ENTRIES`` entries bound the memory past ``table``.
    """
    ps = dist.ps[:, None]
    width = _block_width(len(ps))
    sums = []
    for start in range(0, table.shape[1], width):
        sums += _exact_column_sums(ps * table[:, start : start + width])
    return sums


def column_risks(kind: str, dist: FiniteDistribution, values: np.ndarray) -> list:
    """Exact risk of each column of a ``(K atoms, C columns)`` array of prediction values.

    ``values[a, c]`` is column ``c``'s prediction at atom ``a``.  Each risk
    is the sum over atoms of ``p_a`` times the loss at ``values[a, c]``,
    rounded once: bit for bit ``math.fsum`` of those products.
    """
    return _expected_columns(loss_values(kind, dist.ys[:, None], values), dist)


def mixture_risks(kind: str, dist: FiniteDistribution, design: np.ndarray, thetas) -> list:
    """Exact risk of the mixture ``design @ theta`` for each weight vector ``theta`` of ``thetas``.

    Every mixture is a column of ``design @ block.T``, ``block`` being
    ``_MIXTURE_WIDTH`` consecutive weight vectors, the last block
    zero-padded.  At that fixed width a column's bits depend neither on its
    neighbours nor on the BLAS thread count, so a vector's risk is a
    function of ``(design, theta)`` alone, whichever call prices it.  The
    products pass through one buffer of at most
    ``max(_BLOCK_ENTRIES, K * _MIXTURE_WIDTH)`` entries for ``K`` atoms.
    """
    width = _MIXTURE_WIDTH
    count = len(thetas)
    thetas = np.ascontiguousarray(thetas, dtype=float).reshape(count, design.shape[1])
    span = width * max(1, _block_width(len(design)) // width)
    buffer = np.empty((len(design), min(span, -(-count // width) * width)))
    risks = []
    for first in range(0, count, span):
        stop = min(first + span, count)
        for start in range(first, stop, width):
            block = thetas[start : start + width]
            if len(block) < width:
                block = np.concatenate([block, np.zeros((width - len(block), design.shape[1]))])
            np.matmul(design, block.T, out=buffer[:, start - first : start - first + width])
        risks += column_risks(kind, dist, buffer[:, : stop - first])
    return risks


def exact_risk(theta_or_index, dictionary: Dictionary, spec: LossSpec, dist: FiniteDistribution) -> float:
    """Exact population risk of a vertex or mixture under ``dist``.

    An integer selects the single function ``f_j``, evaluated once per
    design point, whose values are ``column_risks``' one column.  A weight
    vector selects the mixture, priced as ``mixture_risks`` prices every
    mixture: a column of ``design @ block.T`` with the vector in a
    zero-padded block of ``_MIXTURE_WIDTH`` rows.  So its risk is bit for
    bit the one a grid checkpoint reports for the same vector, and
    ``c_oracle``'s value is ``exact_risk`` of its minimizer.  Either way
    the result is the exact sum over atoms rounded once.
    """
    if not isinstance(theta_or_index, (int, np.integer)):
        design = atom_design(dictionary, spec, dist)
        return mixture_risks(spec.kind, dist, design, [validate_weights(theta_or_index, size=dictionary.size)])[0]
    dist.validate_for(spec)
    j = int(theta_or_index)
    if not 0 <= j < dictionary.size:
        raise ValueError(f"function index {j} outside dictionary of size {dictionary.size}")
    point_of_atom, first_atoms = dist.design_points
    values = np.asarray([dictionary.evaluate(j, dist.atoms[a][0].x) for a in first_atoms], dtype=float)
    return column_risks(spec.kind, dist, values.take(point_of_atom)[:, None])[0]


def ms_oracle_of_losses(losses: np.ndarray, dist: FiniteDistribution) -> RiskReport:
    """Best single dictionary function of a per-atom loss table, by exhaustive enumeration.

    ``losses[a, j]`` is function ``j``'s loss at atom ``a`` of ``dist``:
    ``loss_values(kind, dist.ys[:, None], design)`` of an ``atom_design``.
    ``arm_risks`` holds every column's exact risk; ties break to the
    lowest index.
    """
    risks = _expected_columns(losses, dist)
    j = int(np.argmin(risks))
    return RiskReport(risk_value=risks[j], oracle_kind="MS", minimizer=j, gap_certificate=0.0, arm_risks=tuple(risks))


def ms_oracle(dictionary: Dictionary, spec: LossSpec, dist: FiniteDistribution) -> RiskReport:
    """``ms_oracle_of_losses`` of the dictionary's loss table over the atoms of ``dist``."""
    return ms_oracle_of_losses(loss_values(spec.kind, dist.ys[:, None], atom_design(dictionary, spec, dist)), dist)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.shape[0] + 1)
    rho = np.nonzero(u * idx > (css - 1.0))[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _minimize(rows, kind, dist, tol, max_iter):
    """Accelerated projected gradient with backtracking, restarted whenever a step raises the risk.

    ``rows[g, j]`` is function ``j``'s value at design point ``g`` of
    ``dist``.  Each weight vector the solver visits carries its mixture over
    the atoms, ``rows @ theta`` read at each atom's point: one product
    serves both its risk and its gradient.  The curvature estimate ``lips``
    (step ``1 / lips``) shrinks by ``_STEP_RELAX`` before every iteration
    but the first and doubles until the quadratic bound holds, so the step
    lengthens as well as shortens (Scheinberg, Goldfarb & Bai, Found.
    Comput. Math. 2014).  A candidate of larger risk than the iterate is
    rejected and the momentum restarts at the iterate, so ``theta`` only
    moves to a candidate of no larger risk; the restarted step reuses the
    iterate's risk and gradient.  A rejected step taken from the iterate
    itself rose only within the bound's slack, so it also doubles ``lips``:
    without that the relaxation can repeat it, restart after restart.  The
    momentum is projected onto the simplex.  For the hinge loss the
    gradient is the subgradient with slope 1 at a zero margin.
    Returns ``(theta, gap)`` once the vertex gap is at most ``tol``, else
    raises ``ConvergenceError`` with the last iterate, its risk and its gap.
    """
    ys, ps = dist.ys, dist.ps
    point_of_atom = dist.design_points[0]

    def mixture(theta):
        return (rows @ theta).take(point_of_atom)

    def risk(mix):
        return float(ps @ loss_values(kind, ys, mix))

    def grad(mix):
        if kind == PHI_HINGE:
            # subgradient: slope 1 wherever the margin 1 - y f is exactly zero
            weights = ps * (ys * mix <= 1.0) * -ys
        else:
            weights = ps * grad_coef(kind, ys, mix)
        return rows.T @ np.bincount(point_of_atom, weights=weights, minlength=rows.shape[0])

    theta = uniform_weights(rows.shape[1])
    theta_mix = mixture(theta)
    momentum, momentum_mix = theta, theta_mix
    t_acc = 1.0
    lips = 1.0
    f_theta, g_theta = risk(theta_mix), grad(theta_mix)
    for it in range(max_iter):
        if it:
            lips *= _STEP_RELAX
        if momentum is theta:
            g_y, f_y = g_theta, f_theta
        else:
            g_y, f_y = grad(momentum_mix), risk(momentum_mix)
        while True:
            cand = _project_simplex(momentum - g_y / lips)
            cand_mix = mixture(cand)
            diff = cand - momentum
            quad = f_y + float(g_y @ diff) + 0.5 * lips * float(diff @ diff)
            f_cand = risk(cand_mix)
            if f_cand <= quad + 1e-15 or lips > 1e18:
                break
            lips *= 2.0
        if f_cand > f_theta:
            if momentum is theta:
                lips *= 2.0
            momentum, momentum_mix, t_acc = theta, theta_mix, 1.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
            momentum = _project_simplex(cand + ((t_acc - 1.0) / t_next) * (cand - theta))
            momentum_mix = mixture(momentum)
            t_acc = t_next
            theta, theta_mix, f_theta = cand, cand_mix, f_cand
            g_theta = grad(theta_mix)
        gap = float(theta @ g_theta - g_theta.min())
        if gap <= tol:
            return theta, gap
    raise ConvergenceError(
        f"convex oracle failed to certify gap <= {tol:g} within {max_iter} iterations "
        f"(gap {gap:g} at the last iterate)",
        best_weights=theta,
        best_risk=f_theta,
        gap=gap,
    )


def c_oracle_of_design(
    design: np.ndarray, kind: str, dist: FiniteDistribution, tol: float = 1e-8, max_iter: int = 1_000_000
) -> RiskReport:
    """Infimum of the exact risk over all mixtures of the columns of an ``atom_design`` table.

    ``design[a, j]`` is function ``j``'s value at atom ``a`` of ``dist``;
    the solver reads one row per design point.  Minimizes
    ``theta -> R(f_theta)`` over the simplex with one projected-gradient
    solver for every loss and certifies the result with the vertex gap at
    the exact risk gradient (for the hinge loss, the subgradient with slope
    1 at a zero margin); on success the certificate is at most ``tol``.
    Failure to certify within ``max_iter`` iterations, whatever the loss,
    raises ``ConvergenceError`` carrying the last iterate, its risk and its
    own vertex gap.
    """
    require_positive("tol", tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    theta, gap = _minimize(design.take(dist.design_points[1], axis=0), kind, dist, tol, max_iter)
    return RiskReport(
        risk_value=mixture_risks(kind, dist, design, [theta])[0],
        oracle_kind="C",
        minimizer=theta,
        gap_certificate=gap,
    )


def c_oracle(
    dictionary: Dictionary, spec: LossSpec, dist: FiniteDistribution, tol: float = 1e-8, max_iter: int = 1_000_000
) -> RiskReport:
    """``c_oracle_of_design`` of the dictionary's table over the atoms of ``dist``."""
    return c_oracle_of_design(atom_design(dictionary, spec, dist), spec.kind, dist, tol, max_iter)


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
