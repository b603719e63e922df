"""Analytic and toy benchmark problems with ground truth.

The quadratic family has a closed-form lower-level solution and exact
total derivatives, making it the reference instrument for every estimator
check.  The hyper-cleaning toy is a small stochastic sample-reweighting
problem whose oracles are logistic-regression closed forms.  Independent
verification oracles (central finite differences, brute-force simplex
search) live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AnalyticReference,
    DeterministicOracles,
    InvalidProblemError,
    OracleFailureError,
    ProblemConstants,
    SimplexWeights,
    StochasticOracles,
    UnsupportedProblemError,
    is_integer,
    HESSIAN,
    JACOBIAN,
    LL_STEP,
    UL_BATCH,
)


def _require_integers(least: int, **values) -> None:
    for name, value in values.items():
        if not is_integer(value) or value < least:
            raise InvalidProblemError(
                f"{name} must be an integer of at least {least}, not {value!r}"
            )


@dataclass(frozen=True)
class QuadraticBilevelSpec:
    """Quadratic bilevel family with closed-form ground truth.

    Lower level: g(x, y) = 0.5 y'Hy - y'Cx with SPD ``hessian`` H and
    coupling C, so y*(x) = H^{-1} C x.  Upper level s:
    f_s(x, y) = 0.5 ||x - x_target_s||^2 + 0.5 ||y - y_target_s||^2.
    The three counts are integers (not ``bool``) of at least 1.
    """

    dim_x: int
    dim_y: int
    num_objectives: int
    hessian: np.ndarray
    coupling: np.ndarray
    x_targets: np.ndarray
    y_targets: np.ndarray

    def __post_init__(self):
        p, q, s = self.dim_x, self.dim_y, self.num_objectives
        _require_integers(1, dim_x=p, dim_y=q, num_objectives=s)
        h = np.asarray(self.hessian, dtype=float)
        c = np.asarray(self.coupling, dtype=float)
        xt = np.asarray(self.x_targets, dtype=float)
        yt = np.asarray(self.y_targets, dtype=float)
        if h.shape != (q, q):
            raise InvalidProblemError(f"hessian must be {q}x{q}")
        if c.shape != (q, p):
            raise InvalidProblemError(f"coupling must be {q}x{p}")
        if xt.shape != (s, p) or yt.shape != (s, q):
            raise InvalidProblemError("target shapes must be (S,p) and (S,q)")
        if float(np.abs(h - h.T).max()) > 1e-10 * max(1.0, float(np.abs(h).max())):
            raise InvalidProblemError("hessian must be symmetric")
        if float(np.linalg.eigvalsh(h).min()) <= 0.0:
            raise InvalidProblemError("hessian must be positive definite")
        for name, arr in (("hessian", h), ("coupling", c), ("x_targets", xt), ("y_targets", yt)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def random(
        cls,
        dim_x: int,
        dim_y: int,
        num_objectives: int,
        seed: int,
        hessian_scale: float = 0.3,
        coupling_scale: float = 0.5,
        target_scale: float = 1.0,
    ) -> "QuadraticBilevelSpec":
        """Seeded instance with H = (scale*M)'(scale*M) + 0.5 I.

        ``hessian_scale`` controls the condition number; zero gives
        H = 0.5 I exactly.  ``seed`` is an integer of at least 0.
        """
        _require_integers(1, dim_x=dim_x, dim_y=dim_y, num_objectives=num_objectives)
        _require_integers(0, seed=seed)
        rng = np.random.default_rng(seed)
        m = hessian_scale * rng.standard_normal((dim_y, dim_y))
        hessian = m.T @ m + 0.5 * np.eye(dim_y)
        coupling = (
            coupling_scale
            * rng.standard_normal((dim_y, dim_x))
            / math.sqrt(max(dim_x, dim_y))
        )
        x_targets = target_scale * rng.standard_normal((num_objectives, dim_x))
        y_targets = target_scale * rng.standard_normal((num_objectives, dim_y))
        return cls(
            dim_x=dim_x,
            dim_y=dim_y,
            num_objectives=num_objectives,
            hessian=hessian,
            coupling=coupling,
            x_targets=x_targets,
            y_targets=y_targets,
        )

    @property
    def condition_number(self) -> float:
        eigs = np.linalg.eigvalsh(self.hessian)
        return float(eigs[-1] / eigs[0])


def make_quadratic(
    spec: QuadraticBilevelSpec,
) -> tuple[DeterministicOracles, ProblemConstants]:
    """Oracles, analytic reference, and smoothness constants for a spec.

    The returned constants carry mu_g = lambda_min(H), L equal to the
    spectral norm of the full second-derivative block matrix (at least 1,
    the upper-level Hessian), and the exact L_phi = 1 + ||W||_2^2 with
    W = H^{-1} C: each Phi_s(x) = 0.5 ||x - xt_s||^2 + 0.5 ||W x - yt_s||^2
    has the constant Hessian I + W'W.  L_phi is ``None`` when it is not
    finite, and then runs must set beta.
    """
    h = spec.hessian
    c = spec.coupling
    solve_h = np.linalg.inv(h)
    w = solve_h @ c  # y*(x) = W x
    x_targets = spec.x_targets
    y_targets = spec.y_targets

    def ul_value(s, x, y):
        dx = x - x_targets[s]
        dy = y - y_targets[s]
        return 0.5 * float(dx.dot(dx)) + 0.5 * float(dy.dot(dy))

    def ul_grad_x(s, x, y):
        return x - x_targets[s]

    def ul_grad_y(s, x, y):
        return y - y_targets[s]

    def ll_grad_y(x, y):
        return h.dot(y) - c.dot(x)

    def ll_hvp(x, y, v):
        return h.dot(v)

    neg_ct = -c.T
    neg_ct.setflags(write=False)

    def ll_jvp(x, y, v):
        return neg_ct.dot(v)

    def y_star(x):
        return w.dot(x)

    def phi(x):
        ys = w.dot(x)
        dx = x[None, :] - x_targets
        dy = ys[None, :] - y_targets
        return 0.5 * np.sum(dx * dx, axis=1) + 0.5 * np.sum(dy * dy, axis=1)

    def grad_phi(x):
        ys = w.dot(x)
        cols = (x[None, :] - x_targets) + (ys[None, :] - y_targets).dot(w)
        return cols.T

    eigs = np.linalg.eigvalsh(h)
    mu_g = float(eigs[0])
    joint = np.zeros((spec.dim_x + spec.dim_y, spec.dim_x + spec.dim_y))
    joint[spec.dim_x :, spec.dim_x :] = h
    joint[: spec.dim_x, spec.dim_x :] = neg_ct
    joint[spec.dim_x :, : spec.dim_x] = -c
    # The joint norm is at least lambda_max(H) >= mu_g, but eigvalsh can round
    # it below mu_g (q = 1 with a large hessian_scale).
    l_bound = max(1.0, float(np.abs(np.linalg.eigvalsh(joint)).max()), mu_g)
    # Each Phi_s has the constant Hessian I + W'W.  ||W||_2 is the top
    # eigenvalue of the symmetric [[0, W'], [W, 0]]: eigvalsh costs no
    # peak memory where an SVD added 0.4 MB, and unlike eigvalsh(W'W) it
    # forms no product that can overflow.  W is not finite where H^{-1} or its
    # product with C overflowed, and then no L_phi is stated.
    sigma = math.inf
    if np.isfinite(w).all():
        embedding = np.zeros_like(joint)
        embedding[: spec.dim_x, spec.dim_x :] = w.T
        embedding[spec.dim_x :, : spec.dim_x] = w
        sigma = float(np.linalg.eigvalsh(embedding)[-1])
    l_phi = 1.0 + sigma * sigma
    constants = ProblemConstants(
        mu_g=mu_g, L=l_bound, L_phi=l_phi if math.isfinite(l_phi) else None
    )

    oracles = DeterministicOracles(
        num_objectives=spec.num_objectives,
        dim_x=spec.dim_x,
        dim_y=spec.dim_y,
        ul_value=ul_value,
        ul_grad_x=ul_grad_x,
        ul_grad_y=ul_grad_y,
        ll_grad_y=ll_grad_y,
        ll_hvp=ll_hvp,
        ll_jvp=ll_jvp,
        constants=constants,
        reference=AnalyticReference(y_star=y_star, phi=phi, grad_phi=grad_phi),
    )
    return oracles, constants


def quadratic_weighted_optimum(
    spec: QuadraticBilevelSpec, weights: np.ndarray
) -> np.ndarray:
    """Closed-form minimizer of the weights-combined upper objectives.

    Solves sum_s w_s grad_phi_s(x) = 0; any normalized nonnegative weight
    vector yields a Pareto-stationary point of the family.
    """
    weights = np.asarray(weights, dtype=float)
    w = np.linalg.inv(spec.hessian) @ spec.coupling
    lhs = weights.sum() * (np.eye(spec.dim_x) + w.T @ w)
    rhs = (weights[:, None] * (spec.x_targets + spec.y_targets @ w)).sum(axis=0)
    return np.linalg.solve(lhs, rhs)


DEFAULT_CORRUPTION_RATES = (0.0, 0.15, 0.3, 0.45, 0.6)


@dataclass(frozen=True)
class HypercleaningToySpec:
    """Small sample-reweighting problem: per-sample logits reweight noisy
    training losses of per-task logistic models; clean validation losses
    are the upper objectives.

    The upper variable stacks one logit per training sample per task
    (p = S * n_train); the lower variable stacks the task model weights
    (q = S * feature_dim).
    """

    feature_dim: int
    n_train: int
    n_val: int
    corruption_rates: Sequence[float]
    reg_weight: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _require_integers(1, feature_dim=self.feature_dim, n_train=self.n_train, n_val=self.n_val)
        _require_integers(0, seed=self.seed)
        rates = tuple(float(r) for r in self.corruption_rates)
        if not rates:
            raise InvalidProblemError("at least one task required")
        if any(not (0.0 <= r < 1.0) for r in rates):
            raise InvalidProblemError("corruption rates must lie in [0, 1)")
        if not (self.reg_weight > 0.0):
            raise InvalidProblemError("reg_weight must be positive")
        object.__setattr__(self, "corruption_rates", rates)

    @property
    def num_objectives(self) -> int:
        return len(self.corruption_rates)


def _sigmoid(z):
    """Logistic function of ``z``, computed in place; returns ``z``."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def _hypercleaning_data(spec: HypercleaningToySpec):
    """Read-only ``(x_train, t_train, x_val, t_val)`` of a spec.

    Per task: seeded Gaussian features, labels from a random linear rule
    with small label noise, then a fraction of training labels flipped at
    the task's corruption rate.  Features have shape (S, n, d) and labels
    (S, n), both C-contiguous.
    """
    s_count = spec.num_objectives
    d = spec.feature_dim
    n_tr, n_val = spec.n_train, spec.n_val
    rng = np.random.default_rng(spec.seed)

    truth = rng.standard_normal((s_count, d))
    truth /= np.linalg.norm(truth, axis=1, keepdims=True)
    x_train = rng.standard_normal((s_count, n_tr, d))
    x_val = rng.standard_normal((s_count, n_val, d))
    margin_noise = 0.1
    t_train = (
        np.einsum("sij,sj->si", x_train, truth)
        + margin_noise * rng.standard_normal((s_count, n_tr))
        > 0.0
    ).astype(float)
    t_val = (
        np.einsum("sij,sj->si", x_val, truth)
        + margin_noise * rng.standard_normal((s_count, n_val))
        > 0.0
    ).astype(float)
    for s, rate in enumerate(spec.corruption_rates):
        flips = rng.permutation(n_tr)[: int(round(rate * n_tr))]
        t_train[s, flips] = 1.0 - t_train[s, flips]
    for arr in (x_train, x_val, t_train, t_val):
        arr.setflags(write=False)
    return x_train, t_train, x_val, t_val


def make_hypercleaning_toy(
    spec: HypercleaningToySpec,
) -> tuple[StochasticOracles, ProblemConstants]:
    """Stochastic oracles of the toy reweighting problem.

    The data are those of ``_hypercleaning_data``.  Lower objective:
    task-averaged, logit-weighted logistic losses plus (reg/2)||w||^2, so
    the Hessian curvature is at least ``reg_weight`` everywhere.  Upper
    objective s: clean validation loss of task s.  Batches index training
    (or validation) samples and apply to every task at once.  The constants
    state mu_g = ``reg_weight`` and a gradient Lipschitz bound L, but no
    L_phi, so runs must set beta.

    The lower-level oracles keep the training set sample-major: features
    of shape (n_train, S, d) and labels of shape (n_train, S), both
    read-only and C-contiguous.  A batch is one ``take`` along axis 0 of
    each, and of the logits ``x`` viewed as (n_train, S), so the oracles
    work on sample-major (b, S, d) features and (b, S) rows.  The gathered
    logits and the model logits are stacked as the two rows of one
    (2, b, S) buffer, so one in-place sigmoid turns them into the sample
    weights and the model probabilities.  NumPy lays the fancy-indexed
    ``x_train[:, idx, :]`` and ``t_train[:, idx]`` out sample-major as well
    (as transposed views), so both batches have the same strides up to the
    naming of the axes.  ``einsum`` picks its summation order from the
    strides, so every result is bitwise the one of the fancy-indexed batch
    (a C-contiguous (S, b, d) batch is summed in another order when d = 1).
    An oracle updates in place only arrays it created itself, never ``x``,
    ``y``, ``v``, the batch or the data: the loop keeps and re-reads its
    inputs.
    """
    s_count = spec.num_objectives
    d = spec.feature_dim
    n_tr, n_val = spec.n_train, spec.n_val
    x_train, t_train, x_val, t_val = _hypercleaning_data(spec)
    x_rows = np.ascontiguousarray(x_train.transpose(1, 0, 2))
    t_rows = np.ascontiguousarray(t_train.T)
    for arr in (x_rows, t_rows):
        arr.setflags(write=False)

    reg = spec.reg_weight
    dim_x = s_count * n_tr
    dim_y = s_count * d

    def _models(y):
        return y.reshape(s_count, d)

    def _batch(x, w_all, idx):
        """Features (b, S, d), sample weights and model probabilities (b, S).

        All three are new arrays; the caller may update them in place.
        """
        features = x_rows.take(idx, axis=0)
        probs = np.empty((2, idx.size, s_count))
        x.reshape(s_count, n_tr).T.take(idx, axis=0, out=probs[0])
        np.einsum("bsd,sd->bs", features, w_all, out=probs[1])
        _sigmoid(probs)
        return features, probs[0], probs[1]

    def ll_grad_y(x, y, idx):
        w_all = _models(y)
        features, sw, mu = _batch(x, w_all, idx)
        mu -= t_rows.take(idx, axis=0)
        mu *= sw
        grads = np.einsum("bs,bsd->sd", mu, features)
        grads /= s_count * idx.size
        grads += reg * w_all
        return grads.reshape(dim_y)

    def ll_hvp(x, y, v, idx):
        v_all = _models(np.asarray(v, dtype=float))
        features, curv, mu = _batch(x, _models(y), idx)
        curv *= mu
        curv *= 1.0 - mu
        curv *= np.einsum("bsd,sd->bs", features, v_all)
        out = np.einsum("bs,bsd->sd", curv, features)
        out /= s_count * idx.size
        out += reg * v_all
        return out.reshape(dim_y)

    def ll_jvp(x, y, v, idx):
        v_all = _models(np.asarray(v, dtype=float))
        features, contrib, mu = _batch(x, _models(y), idx)
        contrib *= 1.0 - contrib
        mu -= t_rows.take(idx, axis=0)
        contrib *= mu
        contrib *= np.einsum("bsd,sd->bs", features, v_all)
        contrib /= s_count * idx.size
        out = np.zeros((s_count, n_tr))
        out[:, idx] = contrib.T
        return out.reshape(dim_x)

    def _val_batch(s, y, idx):
        """Features, labels and logits of validation batch ``idx`` of task ``s``."""
        features = x_val[s].take(idx, axis=0)
        return features, t_val[s].take(idx), features.dot(_models(y)[s])

    def ul_value(s, x, y, idx):
        _, t, z = _val_batch(s, y, idx)
        # log(1 + exp(z)) - t z, computed stably
        return float(np.mean(np.logaddexp(0.0, z) - t * z))

    def ul_grad_x(s, x, y, idx):
        return np.zeros(dim_x)

    def ul_grad_y(s, x, y, idx):
        features, t, mu = _val_batch(s, y, idx)
        _sigmoid(mu)
        mu -= t
        out = np.zeros((s_count, d))
        out[s] = mu.dot(features) / idx.size
        return out.reshape(dim_y)

    # Smoothness bound: each logistic term contributes at most ||xi||^2/4
    # to the y-curvature and at most ||xi||^2/4 to the cross block (the
    # sample weights and their derivatives are both bounded by 1).
    worst = float(np.max(np.sum(x_train * x_train, axis=2)))
    l_bound = reg + worst / (2.0 * s_count)
    constants = ProblemConstants(mu_g=reg, L=max(l_bound, 1.0))

    oracles = StochasticOracles(
        num_objectives=s_count,
        dim_x=dim_x,
        dim_y=dim_y,
        dataset_sizes={LL_STEP: n_tr, HESSIAN: n_tr, JACOBIAN: n_tr, UL_BATCH: n_val},
        ul_value=ul_value,
        ul_grad_x=ul_grad_x,
        ul_grad_y=ul_grad_y,
        ll_grad_y=ll_grad_y,
        ll_hvp=ll_hvp,
        ll_jvp=ll_jvp,
        constants=constants,
    )
    return oracles, constants


def finite_diff_hypergrad(
    problem,
    x: np.ndarray,
    s: int,
    h: float = 1e-5,
    max_ll_iters: int = 200_000,
) -> np.ndarray:
    """Central-difference estimate of the total derivative of objective ``s``.

    At each perturbed point the lower level is solved by gradient descent
    with step ``1/L`` until the gradient norm reaches 1e-12 (warm-started
    from the base solution).  Shares no code with the implicit-differentiation
    path.
    """
    if not (0.0 < h < math.inf):
        raise ValueError(f"h must be positive and finite, not {h!r}")
    det = problem.deterministic() if isinstance(problem, StochasticOracles) else problem
    if det.constants is None or det.constants.default_ll_step() is None:
        raise ValueError("the lower step 1/L is not derivable from the problem constants")
    ll_step = det.constants.default_ll_step()
    x = np.asarray(x, dtype=float)

    def solve(x_point, y_start):
        y = np.array(y_start, dtype=float)
        for _ in range(max_ll_iters):
            g = det.ll_grad_y(x_point, y)
            norm = float(np.linalg.norm(g))
            if norm <= 1e-12:
                return y
            y = y - ll_step * g
            if not np.all(np.isfinite(y)):
                raise OracleFailureError("finite-difference lower solve diverged")
        raise OracleFailureError(
            f"lower solve did not reach 1e-12 within {max_ll_iters} iterations"
        )

    base = solve(x, np.zeros(det.dim_y))
    grad = np.empty(det.dim_x)
    for i in range(det.dim_x):
        x_hi = x.copy()
        x_hi[i] += h
        x_lo = x.copy()
        x_lo[i] -= h
        f_hi = det.ul_value(s, x_hi, solve(x_hi, base))
        f_lo = det.ul_value(s, x_lo, solve(x_lo, base))
        grad[i] = (f_hi - f_lo) / (2.0 * h)
    return grad


def _simplex_grid(s: int, step: float) -> np.ndarray:
    """All simplex points with coordinates on a grid of spacing ``step``."""
    ticks = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    if s == 1:
        return np.ones((1, 1))
    if s == 2:
        return np.column_stack([ticks, 1.0 - ticks])
    if s == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        mask = a + b <= 1.0 + 1e-12
        a, b = a[mask], b[mask]
        return np.column_stack([a, b, 1.0 - a - b])
    raise UnsupportedProblemError("grid enumeration supports at most 3 weights")


def _local_simplex_grid(center: np.ndarray, step: float, width: float) -> np.ndarray:
    """Grid over the patch of the 3-weight simplex within ``width`` of ``center``."""
    offsets = np.arange(-width, width + step / 2, step)
    a, b = np.meshgrid(
        np.clip(center[0] + offsets, 0.0, 1.0),
        np.clip(center[1] + offsets, 0.0, 1.0),
        indexing="ij",
    )
    mask = a + b <= 1.0 + 1e-12
    a, b = a[mask], b[mask]
    return np.column_stack([a, b, 1.0 - a - b])


def brute_force_simplex_min(
    objective,
    s: int,
    resolution: float,
) -> tuple[np.ndarray, float]:
    """Grid minimizer of a vectorized convex objective over the simplex.

    ``objective`` maps an (n, S) array of weights to n values.  One or two
    weights are enumerated at spacing ``resolution``.  For three, a full
    coarse grid (spacing 0.01) is refined tenfold around the incumbent until
    the spacing reaches ``resolution``; for a convex objective a refinement
    window a few coarse cells wide contains the continuous minimizer.
    Raises ``ValueError`` unless ``0 < resolution <= 1``.
    """
    if not (0.0 < resolution <= 1.0):
        raise ValueError(f"resolution must lie in (0, 1], not {resolution!r}")
    if s > 3:
        raise UnsupportedProblemError("grid enumeration supports at most 3 weights")
    step = max(resolution, 0.01) if s == 3 else resolution
    grid = _simplex_grid(s, step)
    values = objective(grid)
    best = grid[int(np.argmin(values))]
    while step > resolution:
        next_step = max(resolution, step / 10.0)
        grid = _local_simplex_grid(best, next_step, 4.0 * step)
        values = objective(grid)
        best = grid[int(np.argmin(values))]
        step = next_step
    return best, float(np.min(values))


def brute_force_min_norm(columns: Sequence[np.ndarray]) -> SimplexWeights:
    """Grid search for the minimum-norm convex combination of vectors.

    Independent oracle for the minimum-norm weights, to grid spacing 1e-4;
    supports up to three columns by simplex enumeration.
    """
    cols = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    s = cols.shape[1]
    if s > 3:
        raise UnsupportedProblemError("brute force supports at most 3 columns")
    gram = cols.T @ cols

    def objective(weights):
        return np.einsum("ni,ij,nj->n", weights, gram, weights)

    best, _ = brute_force_simplex_min(objective, s, 1e-4)
    best = np.maximum(best, 0.0)
    return SimplexWeights(best / best.sum())
