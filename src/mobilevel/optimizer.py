"""The outer optimization loop, its public entry points, and the sweep driver.

Each outer iteration solves the lower level (warm-started), estimates one
hypergradient column per objective, picks simplex weights by the quadratic
subproblem, and steps the upper variable along the preference-scaled
combination.  One loop serves every variant; only the hypergradient
estimator step differs: cg or ns on a deterministic problem
(``run_deterministic``, and ``run_nonpreference``, which drops the
preference scaling and uses the plain minimum-norm weights), or the
sampled Neumann recursion on a stochastic one (``run_stochastic``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    ConfigurationError,
    DeterministicOracles,
    IterationRecord,
    OracleCounters,
    Preference,
    RunFailure,
    RunTrace,
    SolverConfig,
    StochasticOracles,
    counted_oracles,
)
from .hypergrad import (
    build_hypergradient_matrix,
    build_hypergradient_matrix_stochastic,
    lower_level_solve,
    stochastic_lower_solve,
)
from .subsolvers import WcSubproblem, solve_wc_subproblem

# Unused here (the loop calls counted_oracles for both bundle types); kept
# bound because the benchmark tracer (bench/tracer.py) patches this name.
counted_stochastic_oracles = counted_oracles

TERM_COMPLETED = "completed"
TERM_STATIONARY = "stationary"
TERM_STOP_TOL = "stop_tol"


def _check_inputs(problem, x0, y0, r: Optional[Preference]):
    if np.shape(x0) != (problem.dim_x,):
        raise ConfigurationError(
            f"x0 has shape {np.shape(x0)}, expected ({problem.dim_x},)"
        )
    if np.shape(y0) != (problem.dim_y,):
        raise ConfigurationError(
            f"y0 has shape {np.shape(y0)}, expected ({problem.dim_y},)"
        )
    if r is not None and len(r) != problem.num_objectives:
        raise ConfigurationError("preference length must equal the objective count")


class _CgNsStep:
    """Deterministic estimator step (cg or ns).

    Carries the per-column CG warm starts across iterations; the ns option
    keeps the lower-level trajectory for the series sweep.
    """

    def __init__(self, config: SolverConfig, s_count: int):
        self.config = config
        self.estimator = config.option
        self.warm_v = [None] * s_count

    def lower(self, oracles, x, y_start):
        config = self.config
        self.result = lower_level_solve(
            oracles, x, y_start, config.D, config.alpha,
            keep_trajectory=config.option == "ns",
        )
        return self.result.y_final

    def hypergradients(self, oracles, x):
        matrix, self.warm_v = build_hypergradient_matrix(
            oracles, x, self.result, self.config, self.warm_v
        )
        return matrix


class _SampledNeumannStep:
    """Stochastic estimator step: sampled lower SGD and Neumann recursion."""

    estimator = "stochastic"

    def __init__(self, config: SolverConfig, mu_g: float):
        self.config = config
        self.mu_g = mu_g
        self.rng = np.random.default_rng(config.seed)

    def lower(self, oracles, x, y_start):
        config = self.config
        self.y_d = stochastic_lower_solve(
            oracles, x, y_start, config.D, config.alpha, config.T, self.rng
        )
        return self.y_d

    def hypergradients(self, oracles, x):
        return build_hypergradient_matrix_stochastic(
            oracles, x, self.y_d, self.config, self.rng, self.mu_g
        )


def _run_loop(problem, weight_vec, x0, y0, step) -> RunTrace:
    """The outer loop shared by every variant.

    ``weight_vec`` scales both the Gram term of the subproblem and the
    update direction; the all-ones vector recovers plain minimum-norm
    weighting.  ``step`` is the hypergradient-estimator step and carries
    the resolved config.
    """
    config = step.config
    counters = OracleCounters()
    oracles = counted_oracles(problem, counters)
    s_count = problem.num_objectives
    x = np.array(x0, dtype=float)
    y_prev = np.array(y0, dtype=float)
    lam = np.full(s_count, 1.0 / s_count)
    records: list = []
    termination = TERM_COMPLETED

    for k in range(config.K):
        try:
            y_prev = step.lower(oracles, x, y_prev)
            matrix = step.hypergradients(oracles, x)
            subproblem = WcSubproblem(
                gram=matrix.gram(), phi=matrix.phi_values, r=weight_vec, u=config.u
            )
            weights, _ = solve_wc_subproblem(subproblem, warm_start=lam)
            lam = weights.lam
        except Exception as exc:  # noqa: BLE001 - wrap with the partial trace
            raise RunFailure(
                f"run aborted at iteration {k}: {exc}",
                trace=RunTrace(
                    tuple(records), x, y_prev, f"error: {exc}", config, step.estimator
                ),
            ) from exc

        direction = matrix.grads @ (weight_vec * lam)
        d_norm_sq = float(direction @ direction)
        true_d_norm_sq = None
        if problem.reference is not None:
            true_direction = problem.reference.grad_phi(x) @ (weight_vec * lam)
            true_d_norm_sq = float(true_direction @ true_direction)
        records.append(
            IterationRecord(
                k=k,
                phi=matrix.phi_values,
                weights=weights,
                d_norm_sq=d_norm_sq,
                counters=counters.snapshot(),
                true_d_norm_sq=true_d_norm_sq,
                hypergrads=matrix.grads if config.record_hypergrads else None,
            )
        )
        if d_norm_sq == 0.0:
            termination = TERM_STATIONARY
            break
        if config.stop_tol > 0.0 and d_norm_sq <= config.stop_tol:
            termination = TERM_STOP_TOL
            break
        x = x - config.beta * direction

    return RunTrace(tuple(records), x, y_prev, termination, config, step.estimator)


def run_deterministic(
    problem: DeterministicOracles,
    config: SolverConfig,
    r: Preference,
    x0: np.ndarray,
    y0: np.ndarray,
) -> RunTrace:
    """Preference-guided deterministic run."""
    _check_inputs(problem, x0, y0, r)
    config = config.resolved(problem.constants, r.r_max)
    return _run_loop(problem, r.r, x0, y0, _CgNsStep(config, problem.num_objectives))


def run_nonpreference(
    problem: DeterministicOracles,
    config: SolverConfig,
    x0: np.ndarray,
    y0: np.ndarray,
) -> RunTrace:
    """Minimum-norm run without preference scaling.

    The simplex weights minimize the plain Gram quadratic (no preference
    scaling, no alignment term) and the update uses the unscaled weighted
    combination of hypergradient columns.
    """
    _check_inputs(problem, x0, y0, None)
    config = config.resolved(problem.constants, 1.0)
    if config.u != 0.0:
        config = replace(config, u=0.0)
    ones = np.ones(problem.num_objectives)
    return _run_loop(problem, ones, x0, y0, _CgNsStep(config, problem.num_objectives))


def run_stochastic(
    problem: StochasticOracles,
    config: SolverConfig,
    r: Preference,
    x0: np.ndarray,
    y0: np.ndarray,
) -> RunTrace:
    """Preference-guided stochastic run with shrinking Hessian batches.

    Requires ``problem.constants.mu_g`` for the batch-size schedule.  One
    generator seeded with ``config.seed`` makes every draw, so the first k
    records of a run do not depend on ``K``.
    """
    _check_inputs(problem, x0, y0, r)
    if problem.constants is None:
        raise ConfigurationError("stochastic runs need problem constants (mu_g)")
    mu_g = problem.constants.mu_g
    config = config.resolved(problem.constants, r.r_max)
    config.validate_stochastic(mu_g)
    return _run_loop(problem, r.r, x0, y0, _SampledNeumannStep(config, mu_g))


@dataclass(frozen=True)
class SweepEntry:
    """Outcome of one preference in a sweep."""

    preference: Preference
    final_phi: Optional[np.ndarray]
    final_d_norm_sq: Optional[float]
    trace: Optional[RunTrace]
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    """Per-preference outcomes, aligned with the requested order."""

    entries: Sequence[SweepEntry]

    def __len__(self) -> int:
        return len(self.entries)


def pareto_sweep(
    problem: DeterministicOracles,
    config: SolverConfig,
    preferences: Sequence[Preference],
    x0: np.ndarray,
    y0: np.ndarray,
) -> SweepResult:
    """One full run per preference from identical initial conditions.

    Individual run failures are recorded in their entry without aborting
    the rest of the sweep.
    """
    if not preferences:
        raise ConfigurationError("preferences must be nonempty")

    def one(pref: Preference) -> SweepEntry:
        try:
            trace = run_deterministic(problem, config, pref, x0, y0)
        except RunFailure as failure:
            return SweepEntry(
                preference=pref,
                final_phi=None,
                final_d_norm_sq=None,
                trace=failure.trace,
                error=str(failure),
            )
        return SweepEntry(
            preference=pref,
            final_phi=trace.final_phi,
            final_d_norm_sq=trace.final_d_norm_sq,
            trace=trace,
        )

    return SweepResult(tuple(one(pref) for pref in preferences))


def expected_counters(config: SolverConfig, s_count: int, option: str) -> OracleCounters:
    """Closed-form oracle counts of a completed run.

    ``option`` names the estimator (``RunTrace.estimator``): one of the
    two deterministic ones or the stochastic loop.  Every per-solve budget
    is fixed (a CG column spends exactly N Hessian products, warm-started
    or not), so the identities hold exactly for a run that completes all
    K iterations; for early-stopped runs substitute the recorded iteration
    count for K.
    """
    k, d = config.K, config.D
    if option == "ns":
        return OracleCounters(
            gc_f=2 * k * s_count,
            gc_g=k * d,
            jv_g=k * (d + 1) * s_count,
            hv_g=k * (d + 1) * s_count,
        )
    if option == "cg":
        return OracleCounters(
            gc_f=2 * k * s_count,
            gc_g=k * d,
            jv_g=k * s_count,
            hv_g=k * config.N * s_count,
        )
    if option == "stochastic":
        return OracleCounters(
            gc_f=2 * k * s_count,
            gc_g=k * d,
            jv_g=k * s_count,
            hv_g=k * config.Q * s_count,
        )
    raise ConfigurationError("option must be 'cg', 'ns', or 'stochastic'")
