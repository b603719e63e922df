"""Shared domain types, oracle contracts, and run records.

Conventions used throughout the package:

* ``x`` is the upper-level variable (dimension ``p``), ``y`` the
  lower-level variable (dimension ``q``); there are ``S`` upper-level
  objectives.
* Oracles are opaque callables supplied by the problem.  The library never
  differentiates anything itself; benchmark problems provide exact analytic
  oracles, and user problems must do the same.
* All types here are immutable after construction except
  :class:`OracleCounters`, which is owned by a single optimizer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

PREFERENCE_SUM_TOL = 1e-12
PREFERENCE_MIN_COMPONENT = 1e-9
SIMPLEX_SUM_TOL = 1e-10

# Purpose tags understood by stochastic samplers.
LL_STEP = "ll_step"
UL_BATCH = "ul"
JACOBIAN = "jacobian"
HESSIAN = "hessian"
PURPOSES = (LL_STEP, UL_BATCH, JACOBIAN, HESSIAN)


class InvalidProblemError(ValueError):
    """An oracle bundle is inconsistent (dimensions, symmetry, curvature)."""


class ConfigurationError(ValueError):
    """A solver configuration value is missing or out of range."""


class NumericalBreakdownError(RuntimeError):
    """A numerical kernel produced non-finite values."""


class DivergenceError(RuntimeError):
    """A lower-level iteration left the finite range."""


class WcSolverError(RuntimeError):
    """The simplex QP solver exhausted its budget; carries the best iterate."""

    def __init__(self, message, best_weights=None, residual=None):
        super().__init__(message)
        self.best_weights = best_weights
        self.residual = residual


class OracleFailureError(RuntimeError):
    """An independent verification oracle failed to converge."""


class UnsupportedProblemError(ValueError):
    """Requested operation outside the supported problem sizes."""


class RunFailure(RuntimeError):
    """An optimizer run aborted; ``trace`` holds the partial record."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


# Largest vector all_finite checks by a Python sum: above it the sum costs
# more than np.isfinite (the two cross near 80 entries).
_FINITE_SUM_MAX = 64


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the 1-d float array ``v`` is finite.

    Exactly ``np.isfinite(v).all()``, in one NumPy call instead of two for
    short vectors: a finite sum of Python floats has only finite terms (a
    NaN or infinite term keeps the running sum non-finite), and Python float
    arithmetic raises no NumPy floating-point warning.  A sum that overflows
    on finite entries falls back to the elementwise check.
    """
    if v.size <= _FINITE_SUM_MAX and math.isfinite(sum(v.tolist())):
        return True
    return bool(np.isfinite(v).all())


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or NumPy integer, and not a ``bool``."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _frozen_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _require_size(size) -> None:
    if not is_integer(size) or size < 1:
        raise ValueError(f"preference size must be an integer of at least 1, not {size!r}")


@dataclass(frozen=True)
class Preference:
    """Strictly positive objective weights summing to one.

    Components below ``1e-9`` are rejected rather than clamped: the descent
    guarantees of the preference-weighted direction require every weight to
    be bounded away from zero.
    """

    r: np.ndarray

    def __post_init__(self):
        arr = _frozen_vector(self.r, "preference")
        if np.any(arr < PREFERENCE_MIN_COMPONENT):
            raise ValueError(
                "preference components must be strictly positive "
                f"(>= {PREFERENCE_MIN_COMPONENT:g})"
            )
        if abs(float(arr.sum()) - 1.0) > PREFERENCE_SUM_TOL:
            raise ValueError("preference components must sum to 1")
        object.__setattr__(self, "r", arr)

    def __len__(self) -> int:
        return self.r.size

    @property
    def r_max(self) -> float:
        return float(self.r.max())

    @classmethod
    def uniform(cls, size: int) -> "Preference":
        _require_size(size)
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def preferred(cls, size: int, index: int) -> "Preference":
        """Objective ``index`` weighted 0.8, the rest sharing 0.2 equally.

        Raises ``ValueError`` unless ``size`` is an integer of at least 1
        and ``index`` an integer in ``[0, size)``.
        """
        return cls._peaked(size, index, 0.8, 0.2)

    @classmethod
    def extreme(cls, size: int, index: int) -> "Preference":
        """Objective ``index`` weighted 0.96, the rest sharing 0.04 equally.

        Raises ``ValueError`` unless ``size`` is an integer of at least 1
        and ``index`` an integer in ``[0, size)``.
        """
        return cls._peaked(size, index, 0.96, 0.04)

    @classmethod
    def _peaked(cls, size: int, index: int, peak: float, rest: float) -> "Preference":
        # ``rest`` is passed, not derived as 1 - peak, whose rounding would
        # move every grid.
        _require_size(size)
        if not is_integer(index):
            raise ValueError(f"preference index must be an integer, not {index!r}")
        if not 0 <= index < size:
            raise ValueError(f"preference index {index} outside [0, {size})")
        if size == 1:
            return cls(np.ones(1))
        r = np.full(size, rest / (size - 1))
        r[index] = peak
        return cls(r)


@dataclass(frozen=True)
class SimplexWeights:
    """Nonnegative weights summing to one."""

    lam: np.ndarray

    def __post_init__(self):
        arr = _frozen_vector(self.lam, "simplex weights")
        if np.any(arr < 0.0):
            raise ValueError("simplex weights must be nonnegative")
        if abs(float(arr.sum()) - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError("simplex weights must sum to 1")
        object.__setattr__(self, "lam", arr)

    def __len__(self) -> int:
        return self.lam.size


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness constants a bilevel problem states about itself.

    ``mu_g`` is the strong-convexity constant of the lower level in ``y``
    and is required.  ``L`` bounds the gradient Lipschitz constants of all
    objectives, and ``L_phi`` bounds the gradient Lipschitz constant of
    every upper-level objective through the lower solution,
    Phi_s(x) = f_s(x, y*(x)).  Both are optional and only set default step
    sizes (``alpha`` and ``eta`` from ``L``, ``beta`` from ``L_phi``);
    correctness never depends on them, but a loose ``L_phi`` shrinks the
    default beta in proportion (the quadratic family states its exact
    value).  Nothing is derived from one constant to another: a problem
    that knows no ``L_phi`` leaves it ``None``, and its runs must set
    ``beta``.
    """

    mu_g: float
    L: Optional[float] = None
    L_phi: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.mu_g < math.inf):
            raise ValueError("mu_g must be positive and finite")
        if self.L is not None and not (self.mu_g <= self.L < math.inf):
            raise ValueError("L must be finite and at least mu_g")
        if self.L_phi is not None and not (0.0 < self.L_phi < math.inf):
            raise ValueError("L_phi must be positive and finite")

    def default_ll_step(self) -> Optional[float]:
        return None if self.L is None else 1.0 / self.L

    def default_ul_step(self, r_max: float) -> Optional[float]:
        """Upper-level step min{1/(2(1+L_phi)r_max), 1/(3 L_phi)}."""
        l_phi = self.L_phi
        if l_phi is None:
            return None
        return min(1.0 / (2.0 * (1.0 + l_phi) * r_max), 1.0 / (3.0 * l_phi))


_OPTIONS = ("cg", "ns")


@dataclass(frozen=True)
class SolverConfig:
    """Every tunable of the optimizer runs.

    Step sizes left as ``None`` are resolved from :class:`ProblemConstants`
    at run start; there are no silent numeric defaults.  ``K`` may be zero
    (an empty run); all other iteration counts are at least one.  Every
    lower solve and every CG column warm-starts from its previous outer
    iterate; a CG column spends exactly ``N`` Hessian-vector products.  A
    deterministic run reads ``option`` and ``N``; the stochastic loop reads
    ``Q``, ``eta``, ``T``, ``D_f``, ``D_g`` and ``B`` instead.
    """

    K: int = 100
    D: int = 10
    N: int = 10
    Q: int = 10
    alpha: Optional[float] = None
    beta: Optional[float] = None
    eta: Optional[float] = None
    u: float = 0.0
    option: str = "cg"
    T: int = 32
    D_f: int = 32
    D_g: int = 32
    B: int = 8
    seed: int = 0
    stop_tol: float = 0.0

    def __post_init__(self):
        for name in ("K", "D", "N", "Q", "T", "D_f", "D_g", "B", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigurationError(f"{name} must be an integer, not {value!r}")
        if self.K < 0:
            raise ConfigurationError("K must be nonnegative")
        for name in ("D", "N", "Q"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        for name in ("T", "D_f", "D_g", "B"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"batch size {name} must be at least 1")
        for name in ("alpha", "beta", "eta"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value < math.inf):
                raise ConfigurationError(f"step size {name} must be positive and finite")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        for name in ("u", "stop_tol"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ConfigurationError(f"{name} must be nonnegative and finite")
        if self.option not in _OPTIONS:
            raise ConfigurationError(f"option must be one of {_OPTIONS}")

    def resolved(
        self, constants: Optional[ProblemConstants], r_max: float = 1.0
    ) -> "SolverConfig":
        """Fill missing step sizes from problem constants, or fail loudly for
        ``alpha`` and ``beta``; ``validate_stochastic`` checks ``eta`` and
        returns the stochastic loop's Hessian batch sizes."""
        alpha, beta, eta = self.alpha, self.beta, self.eta
        if alpha is None and constants is not None:
            alpha = constants.default_ll_step()
        if beta is None and constants is not None:
            beta = constants.default_ul_step(r_max)
        if eta is None and constants is not None:
            eta = constants.default_ll_step()
        missing = [n for n, v in (("alpha", alpha), ("beta", beta)) if v is None]
        if missing:
            raise ConfigurationError(
                "step sizes not set and not derivable from problem constants: "
                + ", ".join(missing)
            )
        return replace(self, alpha=alpha, beta=beta, eta=eta)

    def validate_stochastic(self, mu_g: float) -> list:
        """The stochastic loop's Hessian batch sizes: ``Q`` sizes
        ``ceil(B*Q*(1-eta*mu_g)^(Q-i))`` for i = 1..Q (Ghadimi & Wang, 2018),
        the last applied first in the Neumann recursion.

        Raises :class:`ConfigurationError` unless ``eta * mu_g`` lies in
        (0, 1] and the smallest size before rounding up,
        B*Q*(1-eta*mu_g)^(Q-1), is at least 1."""
        if self.eta is None:
            raise ConfigurationError(
                "step size not set and not derivable from problem constants: eta"
            )
        if not (0.0 < self.eta * mu_g <= 1.0):
            raise ConfigurationError("eta * mu_g must lie in (0, 1]")
        decay = 1.0 - self.eta * mu_g
        floor = self.B * self.Q * decay ** (self.Q - 1)
        if floor < 1.0:
            raise ConfigurationError(
                f"B*Q*(1-eta*mu_g)^(Q-1) = {floor:g} < 1; "
                "increase B or Q, or decrease eta"
            )
        return [
            math.ceil(self.B * self.Q * decay ** (self.Q - i)) for i in range(1, self.Q + 1)
        ]


@dataclass
class OracleCounters:
    """Counts of oracle evaluations during one run.

    ``gc_f`` counts upper-level partial gradients, ``gc_g`` lower-level
    gradients, ``jv_g`` cross Jacobian-vector products, and ``hv_g``
    lower Hessian-vector products.  Function-value evaluations are free.
    """

    gc_f: int = 0
    gc_g: int = 0
    jv_g: int = 0
    hv_g: int = 0

    def snapshot(self) -> "OracleCounters":
        return OracleCounters(self.gc_f, self.gc_g, self.jv_g, self.hv_g)

    def as_tuple(self) -> tuple:
        return (self.gc_f, self.gc_g, self.jv_g, self.hv_g)


@dataclass(frozen=True)
class AnalyticReference:
    """Ground-truth hooks exposed by benchmark problems.

    ``y_star`` maps x to the exact lower-level solution, ``phi`` to the
    vector of upper-level values at that solution, and ``grad_phi`` to the
    p-by-S matrix of exact total derivatives.  ``grad_phi`` may carry the
    row form ``grad_phi.rows(X)``: X is an m-by-p row stack, and entry
    ``[i]`` of the m x p x S result must equal ``grad_phi(X[i])`` byte for
    byte.  A lockstep sweep needs it (see :class:`DeterministicOracles`).
    """

    y_star: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DeterministicOracles:
    """First- and second-order oracles of a deterministic bilevel problem.

    ``ll_hvp(x, y, v)`` applies the lower-level Hessian in ``y`` to ``v``
    (q to q) and must be a symmetric positive-definite map for every fixed
    ``(x, y)``.  ``ll_jvp(x, y, v)`` applies the mixed second derivative
    (q to p).

    ``ll_grad_y`` may carry an attribute ``at``: ``ll_grad_y.at(x)`` does
    the work that depends on ``x`` alone once and returns a function of
    ``y`` that must equal ``ll_grad_y(x, y)`` byte for byte.  A lower
    solve takes D steps at one ``x``, so it binds ``x`` once when ``at``
    exists, and calls ``ll_grad_y`` per step otherwise.

    Row forms serve a lockstep sweep, which advances one row per
    preference.  They take row stacks: 2-d arrays with one point per row
    (X m x p, Y and V m x q).
    - ``ll_grad_y.at.rows(X)`` returns a function of ``Y`` (m x q), and
      ``ll_hvp.rows(X, Y, V)`` and ``ll_jvp.rows(X, Y, V)`` return m x q
      and m x p; row ``i`` must equal the vector oracle at row ``i``.
    - ``ul_value.rows(X, Y)``, ``ul_grad_x.rows(X, Y)`` and
      ``ul_grad_y.rows(X, Y)`` return m x S, m x S x p and m x S x q;
      entry ``[i, s]`` must equal the vector oracle ``(s, X[i], Y[i])``.
    - ``reference.grad_phi.rows(X)`` (see :class:`AnalyticReference`).
    Each must match byte for byte.  A sweep uses them only when all six
    exist, and ``grad_phi.rows`` too when a reference exists; otherwise
    it calls the vector oracles row by row.  :func:`validate_problem`
    checks them.

    ``dataclasses.replace`` of a field drops that field's attributes, and
    its runs take the per-call or per-row path with the same results.
    ``wrap_deterministic`` and ``StochasticOracles.deterministic()`` forward
    ``at`` but no row forms.
    """

    num_objectives: int
    dim_x: int
    dim_y: int
    ul_value: Callable[[int, np.ndarray, np.ndarray], float]
    ul_grad_x: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    ul_grad_y: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    ll_grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ll_hvp: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    ll_jvp: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    constants: Optional[ProblemConstants] = None
    reference: Optional[AnalyticReference] = None


# Populations up to this size are sampled by sorting random keys, larger ones
# by one ``Generator.choice`` per batch: the keys cost O(n log n) per batch
# but no per-call overhead.  On x86_64 with NumPy 2.4 the two break even
# near n = 400, for batch sizes from 32 to 0.8 n.
_KEYS_MAX_N = 256
# Keys drawn per generator call, so a key matrix takes about 1 MB at most.
_KEYS_PER_CHUNK = 1 << 16


def _draw_sorted(n: int, sizes: Sequence[int], rng: np.random.Generator) -> list[np.ndarray]:
    """Uniform draws without replacement from ``range(n)``, one per size < n.

    Each draw is a sorted, read-only int64 array.  For ``n`` up to
    ``_KEYS_MAX_N`` the draws share ``rng.random((m, n))`` key matrices of at
    most ``_KEYS_PER_CHUNK`` keys, and row i keeps the indices of its
    ``sizes[i]`` smallest keys.  Chunking consumes the generator exactly as
    one matrix would, so the draws do not depend on the chunk size.  Larger
    populations take one ``rng.choice`` per draw, O(size) for small sizes.
    """
    if n > _KEYS_MAX_N:
        draws = [np.sort(rng.choice(n, size, replace=False)) for size in sizes]
        for draw in draws:
            draw.setflags(write=False)
        return draws
    draws = []
    rows = _KEYS_PER_CHUNK // n
    for first in range(0, len(sizes), rows):
        chunk = sizes[first:first + rows]
        m = len(chunk)
        order = rng.random((m, n)).argsort(axis=1)
        keep = np.empty((m, n), dtype=bool)
        keep[np.arange(m)[:, None], order] = np.arange(n) < np.array(chunk)[:, None]
        kept = keep.nonzero()[1]  # row by row, ascending within each row
        kept.setflags(write=False)
        start = 0
        for size in chunk:
            draws.append(kept[start:start + size])
            start += size
    return draws


@dataclass(frozen=True)
class StochasticOracles:
    """Sampled oracles plus the sampler that draws their batches.

    A batch is a sorted, read-only int64 array of sample indices, and every
    oracle takes one as its final argument.  Evaluating with the full batch
    ``arange(n)`` must reproduce the deterministic oracle exactly.
    ``dataset_sizes`` maps each of the four purpose tags in ``PURPOSES`` to
    its population size ``n``, an integer of at least 1; any other mapping
    raises :class:`InvalidProblemError`.

    ``ll_grad_y`` may carry ``at`` as in :class:`DeterministicOracles`;
    ``ll_grad_y.at(x)`` returns a function of ``(y, batch)`` equal to
    ``ll_grad_y(x, y, batch)`` byte for byte.  Stochastic runs have one row,
    so no row form is read.
    """

    num_objectives: int
    dim_x: int
    dim_y: int
    dataset_sizes: Mapping[str, int]
    ul_value: Callable[[int, np.ndarray, np.ndarray, np.ndarray], float]
    ul_grad_x: Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    ul_grad_y: Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    ll_grad_y: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    ll_hvp: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    ll_jvp: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    constants: Optional[ProblemConstants] = None
    reference: Optional[AnalyticReference] = None

    def __post_init__(self):
        if set(self.dataset_sizes) != set(PURPOSES):
            raise InvalidProblemError(
                f"dataset_sizes must name exactly the purposes {PURPOSES}, "
                f"not {tuple(self.dataset_sizes)}"
            )
        for purpose, n in self.dataset_sizes.items():
            if not is_integer(n) or n < 1:
                raise InvalidProblemError(
                    f"dataset_sizes[{purpose!r}] must be an integer of at least 1, not {n!r}"
                )

    def sample(
        self, purpose: str, sizes: Sequence[int], rng: np.random.Generator
    ) -> tuple[np.ndarray, ...]:
        """One index batch per entry of ``sizes``, drawn together in one call.

        Each batch is a sorted, read-only int64 array of ``size`` distinct
        indices in ``[0, n)``, drawn uniformly without replacement from the
        purpose's population ``n``; the batches of one call are independent.
        A size of at least ``n`` gives the full batch ``arange(n)`` and draws
        nothing, so a call whose sizes are all full leaves ``rng`` untouched.
        Two calls with identical generator state, purpose and sizes return
        identical batches.  See :func:`_draw_sorted` for how the smaller
        sizes are drawn.
        """
        if any(size < 1 for size in sizes):
            raise ConfigurationError("batch size must be at least 1")
        n = self.dataset_sizes[purpose]
        drawn = iter(_draw_sorted(n, [size for size in sizes if size < n], rng))
        return tuple(
            self.full_batch(purpose) if size >= n else next(drawn) for size in sizes
        )

    def full_batch(self, purpose: str) -> np.ndarray:
        """The read-only index array ``arange(n)`` of ``purpose``'s population."""
        full = np.arange(self.dataset_sizes[purpose], dtype=np.int64)
        full.setflags(write=False)
        return full

    def deterministic(self) -> DeterministicOracles:
        """Full-batch view of this problem as deterministic oracles."""
        full = {purpose: self.full_batch(purpose) for purpose in self.dataset_sizes}
        ll_step = full[LL_STEP]

        def ll_grad_y(x, y):
            return self.ll_grad_y(x, y, ll_step)

        at = getattr(self.ll_grad_y, "at", None)
        if at is not None:

            def ll_grad_y_at(x):
                bound = at(x)
                return lambda y: bound(y, ll_step)

            ll_grad_y.at = ll_grad_y_at

        return DeterministicOracles(
            num_objectives=self.num_objectives,
            dim_x=self.dim_x,
            dim_y=self.dim_y,
            ul_value=lambda s, x, y: self.ul_value(s, x, y, full[UL_BATCH]),
            ul_grad_x=lambda s, x, y: self.ul_grad_x(s, x, y, full[UL_BATCH]),
            ul_grad_y=lambda s, x, y: self.ul_grad_y(s, x, y, full[UL_BATCH]),
            ll_grad_y=ll_grad_y,
            ll_hvp=lambda x, y, v: self.ll_hvp(x, y, v, full[HESSIAN]),
            ll_jvp=lambda x, y, v: self.ll_jvp(x, y, v, full[JACOBIAN]),
            constants=self.constants,
            reference=self.reference,
        )


def wrap_deterministic(oracles: DeterministicOracles) -> StochasticOracles:
    """Zero-variance stochastic view of a deterministic problem.

    Every purpose has a single pseudo-sample, so every batch is the full
    batch and every sampled oracle returns the wrapped value bitwise.
    """

    def ll_grad_y(x, y, b):
        return oracles.ll_grad_y(x, y)

    at = getattr(oracles.ll_grad_y, "at", None)
    if at is not None:

        def ll_grad_y_at(x):
            bound = at(x)
            return lambda y, b: bound(y)

        ll_grad_y.at = ll_grad_y_at

    return StochasticOracles(
        num_objectives=oracles.num_objectives,
        dim_x=oracles.dim_x,
        dim_y=oracles.dim_y,
        dataset_sizes={purpose: 1 for purpose in PURPOSES},
        ul_value=lambda s, x, y, b: oracles.ul_value(s, x, y),
        ul_grad_x=lambda s, x, y, b: oracles.ul_grad_x(s, x, y),
        ul_grad_y=lambda s, x, y, b: oracles.ul_grad_y(s, x, y),
        ll_grad_y=ll_grad_y,
        ll_hvp=lambda x, y, v, b: oracles.ll_hvp(x, y, v),
        ll_jvp=lambda x, y, v, b: oracles.ll_jvp(x, y, v),
        constants=oracles.constants,
        reference=oracles.reference,
    )


def counted_oracles(
    oracles: DeterministicOracles | StochasticOracles,
    counters: OracleCounters | Sequence[OracleCounters],
) -> DeterministicOracles | StochasticOracles:
    """View of ``oracles`` whose calls increment ``counters``.

    Serves both bundle types: a :class:`StochasticOracles` call passes its
    batch as the trailing argument, a :class:`DeterministicOracles` call
    leaves it ``None``.  (An explicit default is cheaper per call than
    forwarding ``*args`` on this hot path.)  One tick per call regardless
    of batch size.  Value evaluations are not counted; only gradients and
    second-order products are.  Dimension checks are assertions only,
    stripped under ``python -O``.  When the wrapped ``ll_grad_y`` carries
    ``at``, so does the counted one: ``at(x)`` ticks nothing, and each call
    of the function it returns ticks ``gc_g`` once.

    The row forms (see :class:`DeterministicOracles`) are forwarded the
    same way.  ``counters`` is then one :class:`OracleCounters` or a
    sequence of them, one per run of a lockstep batch.  The rows of a
    row-form call split into equal consecutive blocks, one per run, and
    each row ticks its run's counters once, or once per objective for
    ``ul_grad_x.rows`` and ``ul_grad_y.rows``.  ``ul_value`` is not
    counted, so its row form passes through.  Vector calls need one
    :class:`OracleCounters`.
    """
    p, q, s_count = oracles.dim_x, oracles.dim_y, oracles.num_objectives
    runs = (counters,) if isinstance(counters, OracleCounters) else tuple(counters)

    def ul_grad_x(s, x, y, b=None):
        assert 0 <= s < s_count and len(x) == p and len(y) == q
        counters.gc_f += 1
        return oracles.ul_grad_x(s, x, y) if b is None else oracles.ul_grad_x(s, x, y, b)

    def ul_grad_y(s, x, y, b=None):
        assert 0 <= s < s_count and len(x) == p and len(y) == q
        counters.gc_f += 1
        return oracles.ul_grad_y(s, x, y) if b is None else oracles.ul_grad_y(s, x, y, b)

    def ll_grad_y(x, y, b=None):
        assert len(x) == p and len(y) == q
        counters.gc_g += 1
        return oracles.ll_grad_y(x, y) if b is None else oracles.ll_grad_y(x, y, b)

    raw_at = getattr(oracles.ll_grad_y, "at", None)
    if raw_at is not None:

        def ll_grad_y_at(x):
            assert len(x) == p
            bound = raw_at(x)

            def grad(y, b=None):
                assert len(y) == q
                counters.gc_g += 1
                return bound(y) if b is None else bound(y, b)

            return grad

        ll_grad_y.at = ll_grad_y_at

    def ll_hvp(x, y, v, b=None):
        assert len(x) == p and len(v) == q
        counters.hv_g += 1
        return oracles.ll_hvp(x, y, v) if b is None else oracles.ll_hvp(x, y, v, b)

    def ll_jvp(x, y, v, b=None):
        assert len(x) == p and len(v) == q
        counters.jv_g += 1
        return oracles.ll_jvp(x, y, v) if b is None else oracles.ll_jvp(x, y, v, b)

    # The row forms tick each run once per row of its block.
    n_runs = len(runs)
    if raw_at is not None:
        raw_at_rows = getattr(raw_at, "rows", None)
        if raw_at_rows is not None:

            def ll_grad_y_at_rows(x):
                assert x.shape == (len(x), p) and len(x) % n_runs == 0
                bound = raw_at_rows(x)
                ticks = len(x) // n_runs

                def grad(y):
                    assert y.shape == (len(x), q)
                    for run in runs:
                        run.gc_g += ticks
                    return bound(y)

                return grad

            ll_grad_y_at.rows = ll_grad_y_at_rows

    def counted_rows(raw_rows, field):
        def rows(x, y, v):
            assert x.shape == (len(v), p) and y.shape == v.shape == (len(v), q)
            assert len(v) % n_runs == 0
            ticks = len(v) // n_runs
            for run in runs:
                setattr(run, field, getattr(run, field) + ticks)
            return raw_rows(x, y, v)

        return rows

    for counted, raw, field in ((ll_hvp, oracles.ll_hvp, "hv_g"), (ll_jvp, oracles.ll_jvp, "jv_g")):
        if hasattr(raw, "rows"):
            counted.rows = counted_rows(raw.rows, field)

    def counted_upper_rows(raw_rows):
        def rows(x, y):
            assert x.shape == (len(x), p) and y.shape == (len(x), q)
            assert len(x) % n_runs == 0
            ticks = len(x) // n_runs * s_count
            for run in runs:
                run.gc_f += ticks
            return raw_rows(x, y)

        return rows

    for counted, raw in ((ul_grad_x, oracles.ul_grad_x), (ul_grad_y, oracles.ul_grad_y)):
        if hasattr(raw, "rows"):
            counted.rows = counted_upper_rows(raw.rows)

    return replace(
        oracles,
        ul_grad_x=ul_grad_x,
        ul_grad_y=ul_grad_y,
        ll_grad_y=ll_grad_y,
        ll_hvp=ll_hvp,
        ll_jvp=ll_jvp,
    )


@dataclass(frozen=True)
class IterationRecord:
    """One outer-iteration snapshot of a run.

    ``gram`` is the read-only Gram ``G`` the iteration's weight subproblem
    was built from: with ``phi``, ``u`` and the preference ``r`` (all ones
    for ``r=None``) it re-certifies ``weights``, and ``v = r * weights.lam``
    gives ``d_norm_sq = v'Gv`` and the direction's column products ``Gv``.
    """

    k: int
    phi: np.ndarray
    weights: SimplexWeights
    d_norm_sq: float
    counters: OracleCounters
    gram: np.ndarray
    true_d_norm_sq: Optional[float] = None


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration records plus the final iterates of one run, with the
    resolved ``config`` the loop ran and its ``estimator``: ``cg``, ``ns``
    or ``stochastic``, the names ``expected_counters`` takes."""

    records: Sequence[IterationRecord]
    final_x: np.ndarray
    final_y: np.ndarray
    termination: str
    config: SolverConfig
    estimator: str

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_phi(self) -> Optional[np.ndarray]:
        return self.records[-1].phi if self.records else None

    @property
    def final_d_norm_sq(self) -> Optional[float]:
        return self.records[-1].d_norm_sq if self.records else None

    @property
    def counters(self) -> OracleCounters:
        return self.records[-1].counters.snapshot() if self.records else OracleCounters()


@dataclass(frozen=True)
class ProblemDiagnostics:
    """Numerical health report of an oracle bundle at one point."""

    symmetry_residual: float
    hvp_linearity_residual: float
    jvp_linearity_residual: float
    rayleigh_min: float

    def max_residual(self) -> float:
        return max(
            self.symmetry_residual,
            self.hvp_linearity_residual,
            self.jvp_linearity_residual,
        )


def _check_row_forms(problem: DeterministicOracles, x: np.ndarray, y: np.ndarray) -> None:
    """Raise :class:`InvalidProblemError` naming the first row form whose
    rows differ from the vector oracle's outputs in a byte."""
    rng = np.random.default_rng(1)
    xs = x + np.vstack([np.zeros(x.size), rng.standard_normal((2, x.size))])
    ys = y + np.vstack([np.zeros(y.size), rng.standard_normal((2, y.size))])
    vs = rng.standard_normal(ys.shape)
    at = getattr(problem.ll_grad_y, "at", None)
    reference = problem.reference
    objectives = range(problem.num_objectives)

    def upper(oracle):
        return (getattr(oracle, "rows", None), lambda form: form(xs, ys),
                lambda i: np.array([oracle(s, xs[i], ys[i]) for s in objectives], dtype=float))

    cases = (
        ("ll_grad_y.at.rows", getattr(at, "rows", None), lambda form: form(xs)(ys),
         lambda i: problem.ll_grad_y(xs[i], ys[i])),
        ("ll_hvp.rows", getattr(problem.ll_hvp, "rows", None), lambda form: form(xs, ys, vs),
         lambda i: problem.ll_hvp(xs[i], ys[i], vs[i])),
        ("ll_jvp.rows", getattr(problem.ll_jvp, "rows", None), lambda form: form(xs, ys, vs),
         lambda i: problem.ll_jvp(xs[i], ys[i], vs[i])),
        ("ul_value.rows", *upper(problem.ul_value)),
        ("ul_grad_x.rows", *upper(problem.ul_grad_x)),
        ("ul_grad_y.rows", *upper(problem.ul_grad_y)),
        ("reference.grad_phi.rows", getattr(getattr(reference, "grad_phi", None), "rows", None),
         lambda form: form(xs), lambda i: reference.grad_phi(xs[i])),
    )
    for name, form, stacked, row in cases:
        if form is None:
            continue
        out = np.asarray(stacked(form))
        rows = [np.asarray(row(i)) for i in range(len(xs))]
        if out.shape != (len(xs),) + rows[0].shape or any(
            out[i].tobytes() != rows[i].tobytes() for i in range(len(xs))
        ):
            raise InvalidProblemError(f"{name} differs from the vector oracle row by row")


def validate_problem(
    problem: DeterministicOracles,
    x: np.ndarray,
    y: np.ndarray,
) -> ProblemDiagnostics:
    """Probe an oracle bundle for symmetry, linearity, and curvature.

    Eight seeded pairs of random probe vectors check that ``ll_hvp`` is a
    symmetric linear map, that ``ll_jvp`` is linear, and estimate the
    smallest Rayleigh quotient of the lower-level Hessian.  Raises
    :class:`InvalidProblemError` on dimension mismatches, when
    ``ll_grad_y`` carries ``at`` and ``ll_grad_y.at(x)(y)`` differs from
    ``ll_grad_y(x, y)`` in a byte, and when a row form (the seven of
    :class:`DeterministicOracles`) differs from its vector oracle in a
    byte on a three-row stack: the probe point and two seeded
    perturbations of it.  The error names the first form that differs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (problem.dim_x,):
        raise InvalidProblemError(
            f"x has shape {x.shape}, expected ({problem.dim_x},)"
        )
    if y.shape != (problem.dim_y,):
        raise InvalidProblemError(
            f"y has shape {y.shape}, expected ({problem.dim_y},)"
        )
    rng = np.random.default_rng(0)
    q, p = problem.dim_y, problem.dim_x

    probe = problem.ll_hvp(x, y, rng.standard_normal(q))
    if np.shape(probe) != (q,):
        raise InvalidProblemError("ll_hvp output dimension mismatch")
    probe = problem.ll_jvp(x, y, rng.standard_normal(q))
    if np.shape(probe) != (p,):
        raise InvalidProblemError("ll_jvp output dimension mismatch")
    at = getattr(problem.ll_grad_y, "at", None)
    if at is not None:
        direct = np.asarray(problem.ll_grad_y(x, y))
        bound = np.asarray(at(x)(y))
        if bound.shape != direct.shape or bound.tobytes() != direct.tobytes():
            raise InvalidProblemError("ll_grad_y.at(x)(y) differs from ll_grad_y(x, y)")
    _check_row_forms(problem, x, y)

    sym = 0.0
    hvp_lin = 0.0
    jvp_lin = 0.0
    rayleigh = np.inf
    for _ in range(8):
        u = rng.standard_normal(q)
        v = rng.standard_normal(q)
        a, b = rng.standard_normal(2)
        hu = problem.ll_hvp(x, y, u)
        hv = problem.ll_hvp(x, y, v)
        uhv = float(u @ hv)
        vhu = float(v @ hu)
        sym = max(sym, abs(uhv - vhu) / max(1.0, abs(uhv), abs(vhu)))
        combo = problem.ll_hvp(x, y, a * u + b * v)
        expect = a * hu + b * hv
        hvp_lin = max(
            hvp_lin,
            float(np.linalg.norm(combo - expect)) / max(1.0, float(np.linalg.norm(expect))),
        )
        ju = problem.ll_jvp(x, y, u)
        jv = problem.ll_jvp(x, y, v)
        jcombo = problem.ll_jvp(x, y, a * u + b * v)
        jexpect = a * ju + b * jv
        jvp_lin = max(
            jvp_lin,
            float(np.linalg.norm(jcombo - jexpect)) / max(1.0, float(np.linalg.norm(jexpect))),
        )
        rayleigh = min(rayleigh, float(u @ hu) / float(u @ u))

    return ProblemDiagnostics(
        symmetry_residual=sym,
        hvp_linearity_residual=hvp_lin,
        jvp_linearity_residual=jvp_lin,
        rayleigh_min=rayleigh,
    )
