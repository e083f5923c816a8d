"""Mirror averaging over finite dictionaries of predictors.

Aggregates a finite dictionary of bounded predictors into a convex
mixture by stochastic mirror descent with an entropic (softmin) mirror
map, in both the gradient-based and the linearized per-function-loss
variants.  Ships exact risk oracles for finite data distributions,
checkers for the exponential-moment and concavity conditions that the
aggregation guarantees rest on, and a deterministic Monte Carlo harness
for measuring excess-risk decay against the oracle bounds.

The package exports the ``__all__`` of each of its six library modules;
helpers those modules share (``atom_design``, ``loss_values``, the batch
kernels) are imported from their module.
"""

from . import aggregation, conditions, experiments, losses, oracles, simplex
from .aggregation import *  # noqa: F403
from .conditions import *  # noqa: F403
from .experiments import *  # noqa: F403
from .losses import *  # noqa: F403
from .oracles import *  # noqa: F403
from .simplex import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *aggregation.__all__,
    *conditions.__all__,
    *experiments.__all__,
    *losses.__all__,
    *oracles.__all__,
    *simplex.__all__,
    "__version__",
]
