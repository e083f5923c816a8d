"""The base-2 logistic loss against a long-double reference, inside a stated rounding budget.

``loss_values`` evaluates ``log2(1 + e^m)`` in float64 as
``(max(m, 0) + log1p(e^-|m|)) / ln 2``.  The reference is
``log1p(e^m) / ln 2`` in ``np.longdouble`` (a 64-bit mantissa on x86-64):
for ``|m| <= 40`` the exponential neither overflows nor loses its small
values to a ``1 +``, so the reference's own rounding stays about 2^-11
ulp of float64.  Every result must sit within 2.5 ulp of it, the ulp
being the spacing of float64 at the reference.  Each of ``exp``,
``log1p``, the sum and the division rounds once, and ``ln 2`` is itself
rounded; 2.5 ulp was fixed before the first run.

The special values are checked exactly: the loss is 1 at a zero margin
of either sign, vanishes at ``-inf`` and at ``-1000`` (where ``e^m``
underflows), and is ``m / ln 2`` at ``+inf`` and at ``1000``.
"""

import math

import numpy as np
import pytest

from mirroragg.losses import loss_values

LD = np.longdouble

pytestmark = pytest.mark.skipif(
    np.finfo(LD).nmant <= 52, reason="long double is no wider than float64 here"
)


def phi_logit2(m):
    """``log2(1 + e^m)`` by ``loss_values``; label -1 makes the margin ``-y * f`` equal ``f`` exactly."""
    return loss_values("phi_logit2", -1.0, m)


@pytest.mark.parametrize("half_width, seed", [(1.0, 1), (40.0, 2)])
def test_phi_logit2_within_the_rounding_budget_of_long_double(half_width, seed):
    m = np.random.default_rng(seed).uniform(-half_width, half_width, 200_000)
    reference = np.log1p(np.exp(m.astype(LD))) / np.log(LD(2))
    ulps = np.abs(phi_logit2(m).astype(LD) - reference) / np.spacing(reference.astype(float))
    assert float(ulps.max()) <= 2.5


def test_phi_logit2_special_values_exactly():
    m = np.array([0.0, -0.0, -np.inf, -1000.0, np.inf, 1000.0])
    expected = [1.0, 1.0, 0.0, 0.0, np.inf, 1000.0 / math.log(2.0)]
    assert phi_logit2(m).tolist() == expected
