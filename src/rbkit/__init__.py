"""Greedy reduced-basis construction for affine-parametric elliptic PDEs.

The package builds reduced models by greedy snapshot selection with three
interchangeable greedy objectives: the classical offline-online residual
estimate, a numerically robust QR-based residual evaluation, and a
residual-free indicator based on the Lebesgue function of the reduced
solution's Lagrange coefficients.
"""

__version__ = "0.1.0"

from .truth import (
    AffineOperator,
    ProblemSpec,
    Snapshot,
    TruthDiscretization,
    chebyshev_grid,
    truth_solve,
)
from .rbm import (
    DependentSnapshotError,
    GreedyConfig,
    GreedyHistory,
    ReducedBasis,
    ReducedModel,
    greedy,
    rb_solve,
)
from .estimators import (
    EstimateValue,
    StableFactors,
    make_estimator,
    residual_norm_oracle,
)
from .harness import ExperimentConfig, make_training_grid, run_experiment, validate
