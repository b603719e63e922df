"""The outer optimization loop, its public entry points, and the sweep driver.

Each outer iteration solves the lower level (warm-started), estimates one
hypergradient column per objective, picks simplex weights by the quadratic
subproblem, and steps the upper variable along the preference-scaled
combination.  One loop serves every variant, and advances one or more runs
in lockstep: a sweep's preferences are its rows.  Each entry point hands
it one ``advance`` function that makes one run's lower solve and
hypergradient columns: cg or ns on a deterministic problem
(``run_deterministic`` and ``pareto_sweep``; each run carries its CG warm
starts), or the sampled Neumann recursion on a stochastic one
(``run_stochastic``, which carries the generator and the fixed Hessian
batch sizes).  A sweep of two or more runs whose counted problem carries
every row form also hands it ``advance_rows``, which does the same for all
rows at once through those forms, one stacked call per oracle; the records'
exact directions then come from one ``reference.grad_phi.rows`` call.
A deterministic run with no preference (``r=None``) is the non-preference
variant: it drops the preference scaling and uses the plain minimum-norm
weights.
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
    has_row_forms,
)
from .hypergrad import (
    build_hypergradient_matrix,
    build_hypergradient_matrix_stochastic,
    build_hypergradient_rows,
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


class _Run:
    """One row of the loop: a run's resolved ``config``, its preference
    scaling ``weight_vec``, its own counters and counted oracles, and its
    state after its last completed iteration (``x``, the lower iterate
    ``y``, the weights, the CG warm starts and the records)."""

    __slots__ = ("config", "weight_vec", "counters", "oracles", "x", "y", "weights", "warm",
                 "records", "outcome")

    def __init__(self, problem, config, weight_vec, x0, y0):
        s_count = problem.num_objectives
        self.config = config
        self.weight_vec = weight_vec
        self.counters = OracleCounters()
        self.oracles = counted_oracles(problem, self.counters)
        self.x = np.array(x0, dtype=float)
        self.y = np.array(y0, dtype=float)
        self.weights = SimplexWeights(np.full(s_count, 1.0 / s_count))
        self.warm = [None] * s_count
        self.records = []
        self.outcome = None

    def finish(self, termination, estimator):
        self.outcome = RunTrace(
            tuple(self.records), self.x, self.y, termination, self.config, estimator
        )

    def fail(self, k, exc, estimator):
        # x and y are still the last completed iteration's.
        self.finish(f"error: {exc}", estimator)
        self.outcome = RunFailure(f"run aborted at iteration {k}: {exc}", trace=self.outcome)
        self.outcome.__cause__ = exc


def _run_loop(problem, estimator, runs, advance, advance_rows=None) -> list:
    """The outer loop shared by every variant; returns each run's
    :class:`RunTrace`, or :class:`RunFailure` with its partial trace.

    The runs share ``K`` and advance in lockstep.  A run leaves at the
    iteration where it fails or stops on ``stop_tol``; the others go on.
    ``advance(run)`` is one iteration's estimation for one run: the lower
    solve at ``run.x`` from ``run.y``, then one hypergradient column per
    objective at the new lower iterate.  It returns ``(y, grads, phi)``:
    that iterate, the p-by-S columns and their upper-level values, and
    updates the run's own state (CG warm starts).  ``WcSubproblem`` checks
    both; the loop reads ``grads`` only to step.  ``estimator`` names the
    estimator in the traces.

    ``advance_rows(runs)`` returns the same for every run at once, one
    tuple per run, and charges each run's counters only once every stacked
    call has returned.  The loop calls it in every iteration with two or
    more runs left: two rows already pay (the shipped two-preference
    p = q = 3 sweeps took 0.95-0.99x the time of row by row, numpy 2.4.6,
    2 shared vCPUs).  If it raises, or a warning raised as an error
    interrupts it, no run has been charged, and the iteration is redone run
    by run, so that a failing run fails as it would alone and the others
    take the same values.  Each row computes what its run would alone, so
    a run must then fail; if none does, the row path is at fault and the
    loop raises ``RuntimeError``.  In such an iteration the reference's
    exact directions come from one ``grad_phi.rows`` call over the runs
    whose weights were found, never at the ``x`` of a run that failed
    there.
    """
    active = list(runs)
    reference = problem.reference
    for k in range(runs[0].config.K):
        if not active:
            break
        results = lockstep_error = None
        lockstep = advance_rows is not None and len(active) > 1
        if lockstep:
            try:
                results = advance_rows(active)
            except Exception as exc:  # noqa: BLE001 - redone run by run below
                lockstep_error = exc

        passed = []
        for i, run in enumerate(active):
            try:
                y, grads, phi = advance(run) if results is None else results[i]
                subproblem = WcSubproblem(grads, phi, run.weight_vec, run.config.u)
                # A certified warm start comes back as the same object.
                weights, _ = solve_wc_subproblem(subproblem, warm_start=run.weights)
            except Exception as exc:  # noqa: BLE001 - the run fails with its partial trace
                run.fail(k, exc, estimator)
                continue
            run.y, run.weights = y, weights
            passed.append((run, grads, subproblem))
        if lockstep_error is not None and len(passed) == len(active):
            # No run fails alone, so the row path itself is at fault.
            raise RuntimeError(
                f"lockstep iteration {k} raised, but every run passes it alone"
            ) from lockstep_error

        true_grads = None
        if lockstep and reference is not None and passed:
            true_grads = reference.grad_phi.rows(np.array([run.x for run, _, _ in passed]))
        left = []
        for j, (run, grads, subproblem) in enumerate(passed):
            config, weights = run.config, run.weights
            scaled_lam = run.weight_vec * weights.lam
            direction = grads.dot(scaled_lam)
            d_norm_sq = float(direction.dot(direction))
            true_d_norm_sq = None
            if reference is not None:
                true_grad = reference.grad_phi(run.x) if true_grads is None else true_grads[j]
                true_direction = true_grad.dot(scaled_lam)
                true_d_norm_sq = float(true_direction.dot(true_direction))
            run.records.append(
                IterationRecord(
                    k=k,
                    phi=subproblem.phi,
                    weights=weights,
                    d_norm_sq=d_norm_sq,
                    counters=run.counters.snapshot(),
                    gram=subproblem.gram,
                    true_d_norm_sq=true_d_norm_sq,
                )
            )
            if d_norm_sq <= config.stop_tol:
                run.finish(TERM_STATIONARY if d_norm_sq == 0.0 else TERM_STOP_TOL, estimator)
                continue
            run.x = run.x - config.beta * direction
            left.append(run)
        active = left

    for run in active:
        run.finish(TERM_COMPLETED, estimator)
    return [run.outcome for run in runs]


def _trace_or_raise(outcome) -> RunTrace:
    if isinstance(outcome, RunFailure):
        raise outcome
    return outcome


def _deterministic_runs(problem, config, preferences, x0, y0) -> list:
    """Every preference's run (``None`` for the non-preference variant),
    advanced in lockstep by ``_run_loop`` from the same start.  Two or more
    runs share one counted batch on one tally; every stacked call covers
    all active rows alike, so each run is charged an equal share of it.
    """
    if isinstance(problem, StochasticOracles):
        raise ConfigurationError("deterministic runs and sweeps take DeterministicOracles: "
                                 "pass problem.deterministic()")
    runs = []
    for r in preferences:
        _check_inputs(problem, x0, y0, r)
        if r is None:
            resolved = config.resolved(problem.constants, 1.0)
            if resolved.u != 0.0:
                resolved = replace(resolved, u=0.0)
            weight_vec = np.ones(problem.num_objectives)
        else:
            resolved = config.resolved(problem.constants, r.r_max)
            weight_vec = r.r
        runs.append(_Run(problem, resolved, weight_vec, x0, y0))
    # alpha, D, N and the option do not depend on the preference.
    shared = runs[0].config
    series, steps, alpha = shared.option == "ns", shared.D, shared.alpha

    def advance(run):
        # The series walks every lower iterate; cg reads only the last.
        trajectory = [] if series else None
        y = lower_level_solve(run.oracles, run.x, run.y, steps, alpha, trajectory)
        grads, phi, run.warm = build_hypergradient_matrix(
            run.oracles, run.x, trajectory or [y], shared, run.warm
        )
        return y, grads, phi

    if len(runs) < 2:
        return _run_loop(problem, shared.option, runs, advance)
    tally = OracleCounters()
    batch = counted_oracles(problem, tally)

    def advance_rows(active):
        before = tally.as_tuple()
        x = np.array([run.x for run in active])
        y = np.array([run.y for run in active])
        trajectory = [] if series else None
        y = lower_level_solve(batch, x, y, steps, alpha, trajectory)
        columns = build_hypergradient_rows(
            batch, x, trajectory or [y], shared, [run.warm for run in active]
        )
        share = [(after - b) // len(active) for after, b in zip(tally.as_tuple(), before)]
        results = []
        for run, y_i, (grads, phi, warm) in zip(active, y, columns):
            c = run.counters
            c.gc_f, c.gc_g, c.jv_g, c.hv_g = (n + t for n, t in zip(c.as_tuple(), share))
            run.warm = warm
            results.append((y_i, grads, phi))
        return results

    rows = advance_rows if has_row_forms(batch) else None
    return _run_loop(problem, shared.option, runs, advance, rows)


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
    (outcome,) = _deterministic_runs(problem, config, [r], x0, y0)
    return _trace_or_raise(outcome)


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
    if isinstance(problem, DeterministicOracles):
        raise ConfigurationError("stochastic runs take StochasticOracles: "
                                 "pass wrap_deterministic(problem)")
    if r is None:
        raise ConfigurationError("the non-preference variant needs a deterministic problem")
    _check_inputs(problem, x0, y0, r)
    if problem.constants is None:
        raise ConfigurationError("stochastic runs need problem constants (mu_g)")
    config = config.resolved(problem.constants, r.r_max)
    sizes = config.validate_stochastic(problem.constants.mu_g)
    rng = np.random.default_rng(config.seed)

    def advance(run):
        y = stochastic_lower_solve(run.oracles, run.x, run.y, config.D, config.alpha, config.T, rng)
        grads, phi = build_hypergradient_matrix_stochastic(run.oracles, run.x, y, config, rng, sizes)
        return y, grads, phi

    (outcome,) = _run_loop(problem, "stochastic", [_Run(problem, config, r.r, x0, y0)], advance)
    return _trace_or_raise(outcome)


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

    The runs advance in lockstep, one row per preference, and each entry
    is byte for byte the ``run_deterministic`` run of its preference.
    With all of the problem's row forms (see :class:`DeterministicOracles`)
    the rows share each oracle call, lower step and CG update, and oracle
    calls interleave across preferences and objectives; without any one
    of them the runs advance row by row.  Individual run failures
    are recorded in their entry without aborting the rest of the sweep.
    """
    if not preferences:
        raise ConfigurationError("preferences must be nonempty")
    outcomes = _deterministic_runs(problem, config, preferences, x0, y0)
    return SweepResult(tuple(
        SweepEntry(pref, outcome.trace, str(outcome))
        if isinstance(outcome, RunFailure) else SweepEntry(pref, outcome)
        for pref, outcome in zip(preferences, outcomes)
    ))


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
