"""Reusable numerical kernels.

Conjugate gradient for SPD systems given as linear maps, exact Euclidean
projection onto the probability simplex, and the simplex-constrained
quadratic subproblem that blends a stationarity term with a preference
alignment term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    NumericalBreakdownError,
    SimplexWeights,
    WcSolverError,
)

GRAM_SYMMETRY_TOL = 1e-10
GRAM_EIGEN_SLACK = -1e-10


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
    if np.any(v != 0.0):
        r = b - apply_A(v)
        applications -= 1
    else:
        r = b.copy()
    if not np.isfinite(r).all():
        raise NumericalBreakdownError("non-finite residual at iteration 0")
    rr = float(r @ r)
    res = np.sqrt(rr)
    p = r.copy()
    for i in range(applications):
        ap = apply_A(p)
        if not np.isfinite(ap).all():
            raise NumericalBreakdownError(f"non-finite map output at iteration {i + 1}")
        pap = float(p @ ap)
        # rr == 0 or pap <= 0 only at exact convergence; keep iterating
        # without moving so the map-application budget stays fixed.
        step = rr / pap if (pap > 0.0 and rr > 0.0) else 0.0
        v += step * p
        r -= step * ap
        rr_new = float(r @ r)
        if not math.isfinite(rr_new):
            raise NumericalBreakdownError(f"non-finite residual at iteration {i + 1}")
        res = np.sqrt(rr_new)
        p = r + (rr_new / rr if rr > 0.0 else 0.0) * p
        rr = rr_new
    return v, res


def project_simplex(z: np.ndarray) -> SimplexWeights:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold algorithm; exact up to floating point, total on
    finite inputs.
    """
    z = np.asarray(z, dtype=float)
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

    ``gram`` is the S-by-S Gram matrix of the hypergradient columns; the
    matrix square root of the Gram is never formed since the quadratic
    term only needs the Gram itself.
    """

    gram: np.ndarray
    phi: np.ndarray
    r: np.ndarray
    u: float

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        r = np.asarray(self.r, dtype=float)
        s = gram.shape[0]
        if gram.shape != (s, s) or phi.shape != (s,) or r.shape != (s,):
            raise ValueError("inconsistent subproblem dimensions")
        scale = max(1.0, float(np.abs(gram).max()))
        if float(np.abs(gram - gram.T).max()) > GRAM_SYMMETRY_TOL * scale:
            raise ValueError("gram matrix must be symmetric")
        if float(np.linalg.eigvalsh(gram).min()) < GRAM_EIGEN_SLACK * scale:
            raise ValueError("gram matrix must be positive semidefinite")
        if self.u < 0.0:
            raise ValueError("u must be nonnegative")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "phi", phi)
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


def _power_lambda_max(m: np.ndarray, iters: int = 20) -> float:
    """Largest-eigenvalue estimate of a symmetric PSD matrix."""
    v = np.ones(m.shape[0]) / np.sqrt(m.shape[0])
    est = 0.0
    for _ in range(iters):
        w = m @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # v lies in the null space; the power method cannot leave it.
            return float(np.linalg.eigvalsh(m)[-1])
        v = w / norm
        est = float(v @ m @ v)
    return est


def _kkt_residual(grad: np.ndarray, lam: np.ndarray) -> float:
    """Distance from the simplex KKT conditions.

    Active coordinates must share a common multiplier; inactive ones must
    sit at or above it.
    """
    active = lam > 0.0
    g_active = grad[active]
    base = float(g_active.min())
    residual = float(g_active.max()) - base
    inactive = ~active
    if np.any(inactive):
        violation = base - float(grad[inactive].min())
        residual = max(residual, violation)
    return max(residual, 0.0)


def _polish_active_set(
    sp: WcSubproblem, active: np.ndarray
) -> Optional[np.ndarray]:
    """Exact minimizer on a candidate face, or ``None`` if infeasible.

    Solves the equality-constrained KKT system restricted to ``active``
    with a least-squares solve so rank-deficient faces pick the minimum
    norm multiplier.
    """
    idx = np.nonzero(active)[0]
    m = idx.size
    if m == 0:
        return None
    scaled = sp.scaled_gram()[np.ix_(idx, idx)]
    lin = sp.linear_term()[idx]
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = 2.0 * scaled
    system[:m, m] = -1.0
    system[m, :m] = 1.0
    rhs = np.concatenate([lin, [1.0]])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    lam_face = solution[:m]
    if np.any(lam_face < -1e-12):
        return None
    lam = np.zeros(sp.size)
    lam[idx] = np.maximum(lam_face, 0.0)
    total = lam.sum()
    if total <= 0.0:
        return None
    return lam / total


def solve_wc_subproblem(
    sp: WcSubproblem,
    tol: float = 1e-10,
    max_iters: int = 10_000,
    warm_start: Optional[np.ndarray] = None,
    history: Optional[list] = None,
) -> tuple[SimplexWeights, float]:
    """Minimize the weighted subproblem over the simplex to KKT residual ``tol``.

    Warm-started from the previous outer iteration; a start that already
    certifies is returned after one projection.  Otherwise projected
    gradient descent runs with a fixed step derived from a power-method
    bound on the quadratic term, computed only when PGD runs.  Candidate
    active sets found along the way are refined by an exact face solve so
    optima are certified at tight tolerances; for small problems every face
    is tried before giving up.  Raises
    :class:`WcSolverError` with the best iterate when the budget runs out.

    Certification is floored at the floating-point resolution of the
    objective gradient, so badly scaled instances certify at their
    attainable precision instead of failing; the returned residual is
    always the raw one.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    s = sp.size
    if warm_start is None:
        lam = np.full(s, 1.0 / s)
    else:
        lam = project_simplex(warm_start).lam.copy()
    if s == 1:
        return SimplexWeights(np.ones(1)), 0.0

    scaled = sp.scaled_gram()
    lin = sp.linear_term()
    grad_scale = 2.0 * float(np.abs(scaled).max(initial=0.0)) + float(np.abs(lin).max(initial=0.0))
    certify_tol = max(tol, 64.0 * np.finfo(float).eps * grad_scale)

    def grad(point):
        return 2.0 * (scaled @ point) - lin

    best = lam
    best_residual = _kkt_residual(grad(lam), lam)
    if history is not None:
        history.append(sp.objective(lam))
    if best_residual <= certify_tol:
        return SimplexWeights(best), best_residual

    step = 1.0 / (2.0 * _power_lambda_max(scaled) + sp.u * float(np.linalg.norm(sp.r * sp.phi)) + 1e-12)
    check_every = 25
    for it in range(1, max_iters + 1):
        lam = project_simplex(lam - step * grad(lam)).lam
        if history is not None:
            history.append(sp.objective(lam))
        if it % check_every and it != max_iters:
            continue
        residual = _kkt_residual(grad(lam), lam)
        if residual < best_residual:
            best, best_residual = lam, residual
        if residual <= certify_tol:
            return SimplexWeights(lam), residual
        # Exact solve on the current face; the face contains the iterate
        # (up to coordinates below the activity threshold), so the face
        # optimum cannot be meaningfully worse than the iterate.
        polished = _polish_active_set(sp, lam > 1e-12)
        if polished is not None and sp.objective(polished) <= sp.objective(lam) + 1e-15:
            p_res = _kkt_residual(grad(polished), polished)
            if p_res <= certify_tol:
                if history is not None:
                    history.append(sp.objective(polished))
                return SimplexWeights(polished), p_res

    if s <= 12:
        # PGD stalled; enumerate faces (2^S - 1 exact solves) as a fallback.
        candidates = []
        for mask in range(1, 2**s):
            active = np.array([(mask >> i) & 1 == 1 for i in range(s)])
            polished = _polish_active_set(sp, active)
            if polished is not None:
                candidates.append(polished)
        for candidate in sorted(candidates, key=sp.objective):
            residual = _kkt_residual(grad(candidate), candidate)
            if residual <= certify_tol:
                if history is not None:
                    history.append(sp.objective(candidate))
                return SimplexWeights(candidate), residual
            if residual < best_residual:
                best, best_residual = candidate, residual

    raise WcSolverError(
        f"simplex QP not certified to tol={tol:g} within {max_iters} iterations "
        f"(best residual {best_residual:g})",
        best_weights=SimplexWeights(best),
        residual=best_residual,
    )
