"""Simplex weights, the Gibbs mirror map, and dictionary mixtures.

Shared numeric substrate for the aggregation routines: probability
vectors over a finite dictionary, the softmin-style Gibbs map that sends
accumulated score vectors into the simplex, and evaluation of convex
mixtures of dictionary functions.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "uniform_weights",
    "validate_weights",
    "renormalize",
    "gibbs_map",
    "mixture_value",
    "Dictionary",
    "TabularDictionary",
    "CallableDictionary",
]

SIMPLEX_ATOL = 1e-12


def require_positive(name: str, value: float) -> None:
    """Reject a ``value`` that is not a positive finite number, naming it ``name``."""
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def uniform_weights(m: int) -> np.ndarray:
    """Uniform probability vector of length ``m``."""
    if m < 1:
        raise ValueError(f"weight vector needs at least one component, got m={m}")
    return np.full(m, 1.0 / m)


def validate_weights(theta, size: int | None = None) -> np.ndarray:
    """Check that ``theta`` is a probability vector and return it as an array.

    Parameters
    ----------
    theta : array_like
        Candidate weight vector; it must sum to 1 within ``SIMPLEX_ATOL``.
    size : int, optional
        Required length; mismatch is an error.
    """
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"weights must be a 1-d vector, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise ValueError(f"expected {size} weights, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
    if np.any(arr < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"weights must sum to 1 within {SIMPLEX_ATOL}, got sum {total!r}")
    return arr


def renormalize(raw) -> np.ndarray:
    """Scale a nonnegative vector to sum to one.

    Components that are exactly zero stay exactly zero; no flooring is
    applied, so weights may be arbitrarily small.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector must be finite")
    if np.any(arr < 0.0):
        raise ValueError("vector must be nonnegative")
    total = float(arr.sum())
    if total <= 0.0:
        raise ValueError("cannot renormalize a vector with nonpositive sum")
    return arr / total


def gibbs_map(scores, beta: float) -> np.ndarray:
    """Map a score vector to simplex weights by softmin at temperature ``beta``.

    Component ``j`` of the result is proportional to ``exp(-scores[j] / beta)``,
    so lower scores receive larger weights.  The largest exponent is shifted
    to zero before exponentiating, which rules out overflow for any finite
    input.

    Parameters
    ----------
    scores : array_like
        Finite score vector (accumulated gradients or losses).
    beta : float
        Positive temperature.  Large ``beta`` flattens the output toward
        uniform; small ``beta`` concentrates it on the componentwise minimum.

    Returns
    -------
    numpy.ndarray
        Probability vector of the same length as ``scores``.
    """
    require_positive("beta", beta)
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"scores must be a nonempty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    return softmin(arr / beta)


def softmin(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unchecked softmin along the last axis: ``exp(-z)`` normalized per row.

    The row minimum is shifted to zero before exponentiating.  Callers
    validate their input; ``gibbs_map`` is the checked entry point.

    ``out`` (which may be ``z`` itself) receives the result.  Any memory
    order works: when ``z`` is column-major the row min and row sum run as
    elementwise passes over the rows, one column at a time.
    """
    keep = z.ndim > 1  # a vector's min and sum are scalars
    # min - z is exactly -(z - min): IEEE subtraction rounds symmetrically
    w = np.subtract(np.minimum.reduce(z, axis=-1, keepdims=keep), z, out=out)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=keep)
    return w


def mixture_value(theta, dictionary: "Dictionary", x) -> float:
    """Value at ``x`` of the convex mixture of dictionary functions under ``theta``."""
    arr = validate_weights(theta, size=dictionary.size)
    vals = dictionary.values_at(x)
    return float((arr * vals).sum())


def first_seen(keys) -> tuple:
    """``(number_of, firsts)``: the keys numbered in first-seen order, equal keys by one number.

    ``number_of[i]`` (``intp``) is the number of ``keys[i]`` and
    ``firsts[g]`` the position of the first key numbered ``g``.  An
    unhashable key is equal to no other and takes a number of its own.
    """
    number: dict = {}
    firsts: list = []
    number_of = np.empty(len(keys), dtype=np.intp)
    for i, key in enumerate(keys):
        try:
            g = number.setdefault(key, len(firsts))
        except TypeError:
            g = len(firsts)
        if g == len(firsts):
            firsts.append(i)
        number_of[i] = g
    return number_of, firsts


class Dictionary:
    """Finite dictionary of real-valued functions with a declared range bound.

    Subclasses call ``__init__(size, range_bound)``, the one check of the
    range bound, and provide ``evaluate``; ``values_at`` has a generic fallback.
    Evaluations must be deterministic and bounded by ``range_bound`` in
    absolute value, and equal at design points that compare equal: tables
    of dictionary values (``atom_design``, the public runs, ``exact_risk``
    of one function) evaluate the dictionary once per distinct design point
    (``first_seen``) and give every atom at that point its row.
    """

    size: int
    range_bound: float

    def __init__(self, size: int, range_bound: float):
        if not np.isfinite(range_bound) or range_bound < 0.0:
            raise ValueError(f"range_bound must be a finite nonnegative number, got {range_bound!r}")
        self.size = size
        self.range_bound = float(range_bound)

    def evaluate(self, j: int, x) -> float:
        raise NotImplementedError

    def values_at(self, x) -> np.ndarray:
        """Vector ``(f_1(x), ..., f_M(x))``."""
        return np.array([self.evaluate(j, x) for j in range(self.size)], dtype=float)


class TabularDictionary(Dictionary):
    """Dictionary stored as an ``(M, K)`` table over integer design points.

    A design point must be an integer in ``[0, K)``; any other is a ``ValueError``.
    """

    def __init__(self, values, range_bound: float = 1.0):
        table = np.asarray(values, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValueError(f"values must be a nonempty (M, K) table, got shape {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ValueError("dictionary values must be finite")
        super().__init__(table.shape[0], range_bound)
        if table.size and np.max(np.abs(table)) > range_bound:
            raise ValueError(
                f"dictionary values exceed declared range bound {range_bound!r}"
            )
        self.values = table
        self.grid_size = table.shape[1]

    def _column(self, x) -> int:
        # indexing with int(x) alone reads x = -1 as the last point and 2.7 as point 2
        k = int(x)
        if k != x or not 0 <= k < self.grid_size:
            raise ValueError(f"design point {x!r} is not an integer in [0, {self.grid_size})")
        return k

    def evaluate(self, j: int, x) -> float:
        return float(self.values[j, self._column(x)])

    def values_at(self, x) -> np.ndarray:
        return self.values[:, self._column(x)]


class CallableDictionary(Dictionary):
    """Dictionary of closed-form functions given as callables.

    With ``check=True`` every evaluation is verified against the declared
    range bound; the check is meant for tests and debugging, not hot loops.
    """

    def __init__(self, funcs, range_bound: float, check: bool = False):
        funcs = list(funcs)
        if not funcs:
            raise ValueError("dictionary needs at least one function")
        super().__init__(len(funcs), range_bound)
        self._funcs = funcs
        self._check = bool(check)

    def evaluate(self, j: int, x) -> float:
        v = float(self._funcs[j](x))
        if self._check and abs(v) > self.range_bound + 1e-12:
            raise ValueError(
                f"f_{j}({x!r}) = {v!r} exceeds declared range bound {self.range_bound!r}"
            )
        return v
