"""Preference-guided multi-objective bilevel optimization.

A library and CLI for minimizing several upper-level objectives coupled
through a shared strongly-convex lower-level problem.  Hypergradients are
estimated by conjugate-gradient or truncated-series Hessian inversion
(deterministic) or by sampled Hessian products with shrinking batches
(stochastic); per-objective weights come from a simplex-constrained
quadratic subproblem that trades Pareto stationarity against preference
alignment, enabling systematic Pareto front exploration.
"""

from .core import (
    AnalyticReference,
    ConfigurationError,
    DeterministicOracles,
    DivergenceError,
    HypergradientMatrix,
    InvalidProblemError,
    IterationRecord,
    NumericalBreakdownError,
    OracleCounters,
    OracleFailureError,
    Preference,
    ProblemConstants,
    ProblemDiagnostics,
    RunFailure,
    RunTrace,
    SimplexWeights,
    SolverConfig,
    StochasticOracles,
    UnsupportedProblemError,
    WcSolverError,
    counted_oracles,
    validate_problem,
    wrap_deterministic,
    HESSIAN,
    JACOBIAN,
    LL_STEP,
    UL_BATCH,
)
from .subsolvers import (
    WcSubproblem,
    conjugate_gradient,
    project_simplex,
    solve_wc_subproblem,
)
from .hypergrad import (
    build_hypergradient_matrix,
    build_hypergradient_matrix_stochastic,
    hypergrad_cg,
    hypergrad_ns,
    lower_level_solve,
    neumann_batch_sizes,
    stochastic_hvp_neumann,
)
from .optimizer import (
    SweepEntry,
    SweepResult,
    expected_counters,
    pareto_sweep,
    run_deterministic,
    run_stochastic,
)
from .benchmarks import (
    HypercleaningToySpec,
    DEFAULT_CORRUPTION_RATES,
    QuadraticBilevelSpec,
    brute_force_min_norm,
    brute_force_simplex_min,
    finite_diff_hypergrad,
    make_hypercleaning_toy,
    make_quadratic,
    quadratic_weighted_optimum,
)

__version__ = "0.1.0"
