"""Reusable numerical kernels.

Conjugate gradient for SPD systems given as linear maps, exact Euclidean
projection onto the probability simplex, and the simplex-constrained
quadratic subproblem that blends a stationarity term with a preference
alignment term, solved exactly by a primal active-set method.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .core import (
    HypergradientMatrix,
    NumericalBreakdownError,
    SimplexWeights,
    WcSolverError,
    all_finite,
)

KKT_TOL = 1e-10
# Random instances up to S = 12 certify within 3.5 face solves per weight.
FACE_SOLVES_PER_WEIGHT = 10


def conjugate_gradient(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    v0: np.ndarray,
    applications: int,
) -> tuple[np.ndarray, float]:
    """Solve ``A v = b`` for an SPD linear map by conjugate gradient.

    Applies the map exactly ``applications`` times and returns
    ``(v, residual_norm)``.  A nonzero ``v0`` spends one application on the
    initial residual, leaving ``applications - 1`` CG updates; a zero
    ``v0`` spends all of them on updates.
    """
    if applications < 1:
        raise ValueError("applications must be at least 1")
    b = np.asarray(b, dtype=float)
    v = np.array(v0, dtype=float)
    if v.any():
        r = b - apply_A(v)
        applications -= 1
    else:
        r = b.copy()
    if not all_finite(r):
        raise NumericalBreakdownError("non-finite residual at iteration 0")
    rr = float(r.dot(r))
    p = r.copy()
    for i in range(applications):
        ap = apply_A(p)
        if not all_finite(ap):
            raise NumericalBreakdownError(f"non-finite map output at iteration {i + 1}")
        pap = float(p.dot(ap))
        # rr == 0 or pap <= 0 only at exact convergence; keep iterating
        # without moving so the map-application budget stays fixed.
        step = rr / pap if (pap > 0.0 and rr > 0.0) else 0.0
        v += step * p
        r -= step * ap
        rr_new = float(r.dot(r))
        if not math.isfinite(rr_new):
            raise NumericalBreakdownError(f"non-finite residual at iteration {i + 1}")
        p = r + (rr_new / rr if rr > 0.0 else 0.0) * p
        rr = rr_new
    return v, math.sqrt(rr)


def project_simplex(z: np.ndarray) -> SimplexWeights:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold algorithm; exact up to floating point, total on
    nonempty finite inputs.
    """
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("projection input must be nonempty")
    if not np.isfinite(z).all():
        raise ValueError("projection input must be finite")
    n = z.size
    s = np.sort(z)[::-1]
    cumulative = np.cumsum(s) - 1.0
    ks = np.arange(1, n + 1)
    feasible = s - cumulative / ks > 0.0
    k = int(np.nonzero(feasible)[0][-1])
    theta = cumulative[k] / (k + 1)
    w = np.maximum(z - theta, 0.0)
    # Renormalize away the last-digit drift so the sum is exactly one.
    w /= w.sum()
    return SimplexWeights(w)


@dataclass(frozen=True)
class WcSubproblem:
    """Data of the simplex QP  min (r*lam)' G (r*lam) - u lam' (r*phi).

    Built from the hypergradient columns: ``gram`` is their S-by-S Gram
    ``matrix.gram()``, formed once here, read-only, and symmetric and positive
    semidefinite by construction (its square root is never formed), and
    ``phi`` is ``matrix.phi_values``.  Raises ``ValueError`` unless ``r``
    has one entry per column and ``u >= 0``, and
    :class:`NumericalBreakdownError` if the Gram of finite columns overflows.
    """

    matrix: InitVar[HypergradientMatrix]
    r: np.ndarray
    u: float
    gram: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)

    def __post_init__(self, matrix: HypergradientMatrix):
        gram = matrix.gram()
        r = np.asarray(self.r, dtype=float)
        if r.shape != (gram.shape[0],):
            raise ValueError("r must have one entry per hypergradient column")
        if self.u < 0.0:
            raise ValueError("u must be nonnegative")
        if not np.isfinite(gram).all():
            raise NumericalBreakdownError("hypergradient Gram matrix is not finite")
        gram.setflags(write=False)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "phi", matrix.phi_values)
        object.__setattr__(self, "r", r)

    @property
    def size(self) -> int:
        return self.gram.shape[0]

    def scaled_gram(self) -> np.ndarray:
        return self.gram * np.outer(self.r, self.r)

    def linear_term(self) -> np.ndarray:
        return self.u * (self.r * self.phi)

    def objective(self, lam: np.ndarray) -> float:
        m = self.scaled_gram()
        return float(lam @ m @ lam - self.linear_term() @ lam)


def _kkt_residual(grad: np.ndarray, lam: np.ndarray) -> float:
    """Distance from the simplex KKT conditions.

    Active coordinates must share a common multiplier; inactive ones must
    sit at or above it.
    """
    g_active = grad[lam > 0.0]
    base = float(g_active.min())
    return max(float(g_active.max()) - base, base - float(grad.min()))


def _face_step(scaled: np.ndarray, grad: np.ndarray, free: np.ndarray,
               floor: float) -> np.ndarray:
    """Step from the current point to the QP minimizer on the face ``free``.

    Works in an orthonormal basis of the face's zero-sum directions (the
    Householder reflection that swaps e_1 and -ones/sqrt(m), less its first
    column), so the simplex constraint holds exactly and no multiplier enters
    the solve; a one-weight face has no such direction and a zero step.
    Eigen-directions of the reduced Hessian with curvature at rounding
    level are flat: the objective falls linearly along them.  If the
    gradient's flat part exceeds ``floor / 4`` the step follows it,
    lengthened so that a unit step must leave the simplex; otherwise it is
    the Newton step on the curved directions, and the flat part spreads the
    face's gradient by at most ``floor / 2``.
    """
    idx = np.flatnonzero(free)
    m = idx.size
    v = np.eye(m)[0] + 1.0 / math.sqrt(m)
    basis = (np.eye(m) - (2.0 / (v @ v)) * np.outer(v, v))[:, 1:]
    curvature, vectors = np.linalg.eigh(basis.T @ (2.0 * scaled[np.ix_(idx, idx)]) @ basis)
    directions = basis @ vectors
    slope = directions.T @ grad[idx]
    flat = curvature <= m * np.finfo(float).eps * curvature.max(initial=0.0)
    ray = directions[:, flat] @ -slope[flat]
    reach = float(np.abs(ray).max(initial=0.0))
    step = np.zeros(grad.size)
    if reach > 0.25 * floor:
        step[idx] = (2.0 / reach) * ray
    else:
        step[idx] = directions[:, ~flat] @ (-slope[~flat] / curvature[~flat])
    return step


def solve_wc_subproblem(
    sp: WcSubproblem, warm_start: SimplexWeights | None = None
) -> tuple[SimplexWeights, float]:
    """Minimize the weighted subproblem over the simplex to KKT residual ``KKT_TOL``.

    The start is ``warm_start``'s weights as they are, or the uniform
    weights when it is None; any other start raises ``TypeError`` (project
    an array with :func:`project_simplex` first).  A start that already
    certifies costs one KKT check and is returned as is, so a certified
    warm start comes back as the same object.
    Otherwise a primal active-set method (Nocedal & Wright, *Numerical
    Optimization*, 16.5) starts from the start's support.  Each step
    moves to the minimizer of the current face, or stops at the boundary
    and drops the blocking weight.  At a face minimizer the excluded weight
    with the lowest gradient enters while its multiplier is negative beyond
    the gradient's floating-point floor; otherwise the point is returned
    once it certifies.  Raises :class:`WcSolverError` with the best iterate
    if ``FACE_SOLVES_PER_WEIGHT`` face solves per weight do not certify.

    Certification is floored at the floating-point resolution of the
    objective gradient, so badly scaled instances certify at their
    attainable precision instead of failing; the returned residual is
    always the raw one.
    """
    s = sp.size
    if warm_start is None:
        warm_start = SimplexWeights(np.full(s, 1.0 / s))
    elif not isinstance(warm_start, SimplexWeights):
        raise TypeError(
            f"warm_start must be SimplexWeights or None, not {type(warm_start).__name__}"
        )
    lam = warm_start.lam

    scaled = sp.scaled_gram()
    lin = sp.linear_term()
    grad_scale = 2.0 * float(np.abs(scaled).max(initial=0.0)) + float(np.abs(lin).max(initial=0.0))
    floor = 64.0 * np.finfo(float).eps * grad_scale
    certify_tol = max(KKT_TOL, floor)

    grad = 2.0 * scaled.dot(lam) - lin
    residual = _kkt_residual(grad, lam)
    if residual <= certify_tol:
        return warm_start, residual

    best, best_residual = lam, residual
    free = lam > 0.0
    for _ in range(FACE_SOLVES_PER_WEIGHT * s):
        step = _face_step(scaled, grad, free, floor)
        shrinking = np.flatnonzero(step < 0.0)
        ratios = lam[shrinking] / -step[shrinking]
        alpha = float(ratios.min(initial=1.0))
        lam = np.maximum(lam + alpha * step, 0.0)
        if alpha < 1.0:
            lam[shrinking[int(np.argmin(ratios))]] = 0.0
        lam /= lam.sum()
        grad = 2.0 * scaled.dot(lam) - lin
        free = lam > 0.0
        if alpha < 1.0:
            continue
        residual = _kkt_residual(grad, lam)
        if residual < best_residual:
            best, best_residual = lam, residual
        enter = int(np.argmin(grad))
        if float(grad[free].min()) - grad[enter] > floor:
            free[enter] = True
        elif residual <= certify_tol:
            return SimplexWeights(lam), residual

    raise WcSolverError(
        f"simplex QP not certified to tol={certify_tol:g} within "
        f"{FACE_SOLVES_PER_WEIGHT * s} face solves (best residual {best_residual:g})",
        best_weights=SimplexWeights(best),
        residual=best_residual,
    )
