"""The outer optimization loop, its public entry points, and the sweep driver.

Each outer iteration solves the lower level (warm-started), estimates one
hypergradient column per objective, picks simplex weights by the quadratic
subproblem, and steps the upper variable along the preference-scaled
combination.  One loop serves every variant.  Each entry point hands it
one ``advance`` closure that makes an iteration's lower solve and
hypergradient columns and holds the run's state between iterations: cg or
ns on a deterministic problem (``run_deterministic``, which carries the CG
warm starts), or the sampled Neumann recursion on a stochastic one
(``run_stochastic``, which carries the generator and the fixed Hessian
batch sizes).  A deterministic run with no preference
(``r=None``) is the non-preference variant: it drops the preference
scaling and uses the plain minimum-norm weights.
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
    SimplexWeights,
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
    for name, start, dim in (("x0", x0, problem.dim_x), ("y0", y0, problem.dim_y)):
        if np.shape(start) != (dim,):
            raise ConfigurationError(f"{name} has shape {np.shape(start)}, expected ({dim},)")
        if not np.isfinite(start).all():
            raise ConfigurationError(f"{name} has a non-finite entry")
    if r is not None and len(r) != problem.num_objectives:
        raise ConfigurationError("preference length must equal the objective count")


def _run_loop(problem, config, estimator, weight_vec, x0, y0, advance) -> RunTrace:
    """The outer loop shared by every variant.

    ``weight_vec`` scales both the Gram term of the subproblem and the
    update direction; the all-ones vector recovers plain minimum-norm
    weighting.  ``config`` is resolved and ``estimator`` names the
    estimator in the trace.  ``advance(oracles, x, y)`` is one iteration's
    estimation: the lower solve at ``x`` from ``y``, then one hypergradient
    column per objective at the new lower iterate; it returns ``(y, grads,
    phi)``: that iterate, the p-by-S columns and their upper-level values,
    and carries the run's own state (CG warm starts, or the generator).
    ``WcSubproblem`` checks both; the loop reads ``grads`` only to step.
    """
    counters = OracleCounters()
    oracles = counted_oracles(problem, counters)
    s_count = problem.num_objectives
    x = np.array(x0, dtype=float)
    y_prev = np.array(y0, dtype=float)
    weights = SimplexWeights(np.full(s_count, 1.0 / s_count))
    records: list = []
    termination = TERM_COMPLETED

    for k in range(config.K):
        try:
            y, grads, phi = advance(oracles, x, y_prev)
            subproblem = WcSubproblem(grads, phi, weight_vec, config.u)
            # A certified warm start comes back as the same object.
            weights, _ = solve_wc_subproblem(subproblem, warm_start=weights)
        except Exception as exc:  # noqa: BLE001 - wrap with the partial trace
            # x and y_prev are still the last completed iteration's.
            raise RunFailure(
                f"run aborted at iteration {k}: {exc}",
                trace=RunTrace(
                    tuple(records), x, y_prev, f"error: {exc}", config, estimator
                ),
            ) from exc
        y_prev = y

        scaled_lam = weight_vec * weights.lam
        direction = grads.dot(scaled_lam)
        d_norm_sq = float(direction.dot(direction))
        true_d_norm_sq = None
        if problem.reference is not None:
            true_direction = problem.reference.grad_phi(x).dot(scaled_lam)
            true_d_norm_sq = float(true_direction.dot(true_direction))
        records.append(
            IterationRecord(
                k=k,
                phi=subproblem.phi,
                weights=weights,
                d_norm_sq=d_norm_sq,
                counters=counters.snapshot(),
                gram=subproblem.gram,
                true_d_norm_sq=true_d_norm_sq,
            )
        )
        if d_norm_sq <= config.stop_tol:
            termination = TERM_STATIONARY if d_norm_sq == 0.0 else TERM_STOP_TOL
            break
        x = x - config.beta * direction

    return RunTrace(tuple(records), x, y_prev, termination, config, estimator)


def run_deterministic(
    problem: DeterministicOracles,
    config: SolverConfig,
    r: Optional[Preference],
    x0: np.ndarray,
    y0: np.ndarray,
) -> RunTrace:
    """Preference-guided deterministic run, or with ``r=None`` the
    minimum-norm run without preference scaling.

    Without a preference the simplex weights minimize the plain Gram
    quadratic (all-ones scaling, no alignment term: ``u`` is set to 0) and
    the update uses the unscaled weighted combination of hypergradient
    columns; ``beta``'s default takes ``r_max = 1``.
    """
    _check_inputs(problem, x0, y0, r)
    if r is None:
        config = config.resolved(problem.constants, 1.0)
        if config.u != 0.0:
            config = replace(config, u=0.0)
        weight_vec = np.ones(problem.num_objectives)
    else:
        config = config.resolved(problem.constants, r.r_max)
        weight_vec = r.r
    warm_v = [None] * problem.num_objectives

    def advance(oracles, x, y):
        nonlocal warm_v
        # The series walks every lower iterate; cg reads only the last.
        trajectory = [] if config.option == "ns" else None
        y = lower_level_solve(oracles, x, y, config.D, config.alpha, trajectory)
        grads, phi, warm_v = build_hypergradient_matrix(
            oracles, x, trajectory or [y], config, warm_v
        )
        return y, grads, phi

    return _run_loop(problem, config, config.option, weight_vec, x0, y0, advance)


def run_stochastic(
    problem: StochasticOracles,
    config: SolverConfig,
    r: Preference,
    x0: np.ndarray,
    y0: np.ndarray,
) -> RunTrace:
    """Preference-guided stochastic run with shrinking Hessian batches.

    Requires ``problem.constants.mu_g`` for the batch-size schedule, which
    is fixed for the run.  One generator seeded with ``config.seed`` makes
    every draw, so the first k records of a run do not depend on ``K``.
    """
    if r is None:
        raise ConfigurationError("the non-preference variant needs a deterministic problem")
    _check_inputs(problem, x0, y0, r)
    if problem.constants is None:
        raise ConfigurationError("stochastic runs need problem constants (mu_g)")
    config = config.resolved(problem.constants, r.r_max)
    sizes = config.validate_stochastic(problem.constants.mu_g)
    rng = np.random.default_rng(config.seed)

    def advance(oracles, x, y):
        y = stochastic_lower_solve(oracles, x, y, config.D, config.alpha, config.T, rng)
        grads, phi = build_hypergradient_matrix_stochastic(oracles, x, y, config, rng, sizes)
        return y, grads, phi

    return _run_loop(problem, config, "stochastic", r.r, x0, y0, advance)


@dataclass(frozen=True)
class SweepEntry:
    """Outcome of one preference in a sweep.

    ``trace`` is the run's trace, partial when the run failed; ``error`` is
    set only then, and the final values are ``None`` for a failed run.
    """

    preference: Preference
    trace: Optional[RunTrace]
    error: Optional[str] = None

    @property
    def final_phi(self) -> Optional[np.ndarray]:
        return None if self.error is not None else self.trace.final_phi

    @property
    def final_d_norm_sq(self) -> Optional[float]:
        return None if self.error is not None else self.trace.final_d_norm_sq


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
            return SweepEntry(pref, failure.trace, str(failure))
        return SweepEntry(pref, trace)

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
    # Jacobian and Hessian products per column and iteration.
    per_column = {"ns": (d + 1, d + 1), "cg": (1, config.N), "stochastic": (1, config.Q)}
    if option not in per_column:
        raise ConfigurationError("option must be 'cg', 'ns', or 'stochastic'")
    jv, hv = per_column[option]
    return OracleCounters(
        gc_f=2 * k * s_count,
        gc_g=k * d,
        jv_g=k * jv * s_count,
        hv_g=k * hv * s_count,
    )
