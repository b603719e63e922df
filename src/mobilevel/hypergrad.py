"""Hypergradient estimation.

The total derivative of an upper-level objective through the lower-level
solution is  grad_x f - (d2g/dxdy) v  with v solving the lower Hessian
system against grad_y f.  Two estimators are provided: a conjugate-gradient
solve of that system at the final lower iterate, and a truncated-series
estimator that walks the lower-level trajectory backwards applying one
damping factor (I - alpha * H) per recorded point.  A third routine forms
the Hessian-inverse product stochastically with exponentially shrinking
sample batches.  The stochastic routines make one sampler call per purpose:
the lower solve draws its step batches a block of up to ``LL_BLOCK`` steps
at a time, and one outer iteration's hypergradient draws its Jacobian
batch, its Hessian batches and its upper batches with one call each.

Oracle-call budgets are exact by construction: a lower solve of D steps
costs D gradient calls; the series estimator costs one upper gradient pair,
D+1 Jacobian products, and D+1 Hessian products; a CG solve costs one upper
gradient pair, one Jacobian product, and exactly N Hessian products (warm
starts spend one of the N applications on the initial residual).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import (
    ConfigurationError,
    DeterministicOracles,
    DivergenceError,
    SolverConfig,
    StochasticOracles,
    HESSIAN,
    JACOBIAN,
    LL_STEP,
    UL_BATCH,
    all_finite,
)
from .subsolvers import conjugate_gradient

LL_BLOCK = 1024  # lower SGD steps per sampler call: bounds the batches held at once


def lower_level_solve(
    oracles: DeterministicOracles,
    x: np.ndarray,
    y_init: np.ndarray,
    steps: int,
    step_size: float,
    trajectory: Optional[list] = None,
) -> np.ndarray:
    """Run ``steps`` gradient-descent steps on the lower objective in y; a
    ``trajectory`` list receives ``y_init`` and every iterate."""
    if not 0.0 < step_size < math.inf:
        raise ValueError("step_size must be positive and finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    y = np.array(y_init, dtype=float)
    if trajectory is not None:
        trajectory.append(y)
    ll_grad_y = oracles.ll_grad_y
    for t in range(1, steps + 1):
        y = y - step_size * ll_grad_y(x, y)
        if not all_finite(y):
            raise DivergenceError(f"lower-level iterate diverged at step {t}")
        if trajectory is not None:
            trajectory.append(y)
    return y


def hypergrad_cg(
    oracles: DeterministicOracles,
    x: np.ndarray,
    y_d: np.ndarray,
    s: int,
    v0: Optional[np.ndarray],
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Hypergradient of objective ``s`` via a CG solve at ``y_d``.

    Returns ``(gradient, v)`` where ``v`` is the CG iterate, reusable as a
    warm start.  The solve spends exactly ``n_steps`` Hessian-vector
    products: all of them on CG updates from a zero (or ``None``) start,
    or one on the initial residual plus ``n_steps - 1`` updates from a
    warm start.
    """
    b = oracles.ul_grad_y(s, x, y_d)
    if v0 is None:
        v0 = np.zeros(oracles.dim_y)
    v, _ = conjugate_gradient(lambda w: oracles.ll_hvp(x, y_d, w), b, v0, n_steps)
    grad = oracles.ul_grad_x(s, x, y_d) - oracles.ll_jvp(x, y_d, v)
    return grad, v


def hypergrad_ns(
    oracles: DeterministicOracles,
    x: np.ndarray,
    trajectory: Sequence[np.ndarray],
    s: int,
    alpha: float,
) -> np.ndarray:
    """Hypergradient of objective ``s`` via the trajectory series estimator.

    Walks the lower trajectory backwards: at each point the current
    propagated vector contributes one Jacobian product, then is damped by
    ``(I - alpha * H)`` at that same point.  Summing the contributions and
    scaling by ``alpha`` telescopes to the Hessian-inverse product in the
    limit (for a constant Hessian the sum is the truncated geometric
    series alpha * sum_m (I - alpha H)^m).  ``trajectory`` is the lower
    solve's, ending at the final iterate.
    """
    if not trajectory:
        raise ValueError("trajectory must hold at least the final lower iterate")
    y_d = trajectory[-1]
    w = oracles.ul_grad_y(s, x, y_d)
    total = np.zeros(oracles.dim_x)
    for y_t in reversed(trajectory):
        total += oracles.ll_jvp(x, y_t, w)
        w = w - alpha * oracles.ll_hvp(x, y_t, w)
    return oracles.ul_grad_x(s, x, y_d) - alpha * total


def stochastic_hvp_neumann(
    oracles: StochasticOracles,
    x: np.ndarray,
    y_d: np.ndarray,
    v0: np.ndarray,
    eta: float,
    batches: Sequence[np.ndarray],
) -> np.ndarray:
    """Approximate Hessian-inverse product from sampled Hessian products.

    Backward recursion nu <- nu - eta * H(batch_i) nu for i = Q..1 starting
    from ``v0``, with Q = ``len(batches)``; the output is eta times the sum
    of all Q+1 iterates.  With full batches and constant Hessian this equals
    ``eta * sum_{m=0..Q} (I - eta H)^m v0`` exactly.
    """
    for batch in batches:
        if len(batch) == 0:
            raise ConfigurationError("empty sample batch")
    nu = np.array(v0, dtype=float)
    total = nu.copy()
    for batch in reversed(batches):
        nu = nu - eta * oracles.ll_hvp(x, y_d, nu, batch)
        total += nu
    return eta * total


def build_hypergradient_matrix(
    oracles: DeterministicOracles,
    x: np.ndarray,
    trajectory: Sequence[np.ndarray],
    config: SolverConfig,
    warm_v: Sequence[Optional[np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, list]:
    """One estimated hypergradient column per objective, via the configured option.

    ``trajectory`` ends at the final lower iterate, the only one the cg
    option reads.  Under the cg option column ``s`` warm-starts from
    ``warm_v[s]`` (``None`` for a zero start).  Returns ``(grads, phi,
    warm)``: fresh arrays of the p-by-S columns and the S upper-level
    values at the final lower iterate, unchecked, and the per-objective CG
    iterates for warm starting the next outer iteration (``None`` entries
    under the series option).  ``config.alpha`` must already be resolved.
    """
    s_count = oracles.num_objectives
    cols = np.empty((oracles.dim_x, s_count))
    phi = np.empty(s_count)
    y_d = trajectory[-1]
    new_warm: list = [None] * s_count
    for s in range(s_count):
        phi[s] = oracles.ul_value(s, x, y_d)
        if config.option == "cg":
            grad, new_warm[s] = hypergrad_cg(oracles, x, y_d, s, warm_v[s], config.N)
        else:
            grad = hypergrad_ns(oracles, x, trajectory, s, config.alpha)
        cols[:, s] = grad
    return cols, phi, new_warm


def build_hypergradient_matrix_stochastic(
    oracles: StochasticOracles,
    x: np.ndarray,
    y_d: np.ndarray,
    config: SolverConfig,
    rng: np.random.Generator,
    hessian_sizes: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled hypergradient columns ``grads`` (p by S) and sampled
    upper-level values ``phi`` for one outer iteration, both fresh arrays.

    Makes three sampler calls, in this order: the Jacobian batch and the Q
    Hessian batches of ``hessian_sizes`` (the run's schedule, from
    :meth:`SolverConfig.validate_stochastic`), both shared by all
    objectives, then the S upper-level batches, one per objective.  The
    Hessian-inverse product is seeded from the sampled upper gradient, so
    no warm start is carried across iterations.
    """
    (jac_batch,) = oracles.sample(JACOBIAN, [config.D_g], rng)
    hess_batches = oracles.sample(HESSIAN, hessian_sizes, rng)
    s_count = oracles.num_objectives
    ul_batches = oracles.sample(UL_BATCH, [config.D_f] * s_count, rng)
    cols = np.empty((oracles.dim_x, s_count))
    phi = np.empty(s_count)
    for s, ul_batch in enumerate(ul_batches):
        v0 = oracles.ul_grad_y(s, x, y_d, ul_batch)
        v_q = stochastic_hvp_neumann(oracles, x, y_d, v0, config.eta, hess_batches)
        cols[:, s] = oracles.ul_grad_x(s, x, y_d, ul_batch) - oracles.ll_jvp(
            x, y_d, v_q, jac_batch
        )
        phi[s] = oracles.ul_value(s, x, y_d, ul_batch)
    return cols, phi


def stochastic_lower_solve(
    oracles: StochasticOracles,
    x: np.ndarray,
    y_init: np.ndarray,
    steps: int,
    step_size: float,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Stochastic gradient descent on the lower objective, one batch per step.

    One sampler call draws the batches of up to ``LL_BLOCK`` steps; the
    sampler consumes ``rng`` in order, so they do not depend on the block.
    """
    if not 0.0 < step_size < math.inf:
        raise ValueError("step_size must be positive and finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    y = np.array(y_init, dtype=float)
    ll_grad_y = oracles.ll_grad_y
    for first in range(0, steps, LL_BLOCK):
        block = min(LL_BLOCK, steps - first)
        batches = oracles.sample(LL_STEP, [batch_size] * block, rng)
        for t, batch in enumerate(batches, first + 1):
            y = y - step_size * ll_grad_y(x, y, batch)
            if not all_finite(y):
                raise DivergenceError(f"lower-level iterate diverged at step {t}")
    return y
