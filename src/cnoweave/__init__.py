"""cnoweave: causal neural operators built from Schauder-basis neural filters
and a parameter-memorizing hypernetwork weave.

Submodules:

- :mod:`cnoweave.spaces` — concrete coordinate spaces, truncation, metrics
- :mod:`cnoweave.net` — flat-parameter (P)ReLU networks, padding, training
- :mod:`cnoweave.filters` — neural filters, complexity budgets, error splits
- :mod:`cnoweave.weave` — packings, exact memorization, dynamic weaving
- :mod:`cnoweave.cno` — the end-to-end causal construction and rollout
- :mod:`cnoweave.sde` — SDE oracles, chaos coordinates, datasets
- :mod:`cnoweave.bench` — recursive targets and the model trade-off harness
- :mod:`cnoweave.cli` — the experiment command line
"""

from . import bench, cno, filters, net, sde, serial, spaces, weave  # noqa: F401
from .errors import (  # noqa: F401
    BudgetOverflowError,
    CnoweaveError,
    ConfigError,
    IntegrityError,
    InvalidArgumentError,
    OracleDivergedError,
    PackingInfeasibleError,
    SpaceMismatchError,
    TrainingDivergedError,
    TrainingShortfallError,
)

__version__ = "0.1.0"
