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
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

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
    p-by-S matrix of exact total derivatives.  ``grad_phi`` may carry a
    row form, as the oracles of :class:`DeterministicOracles` may.
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

    The oracles may carry the optional forms of the table ``_FORMS``,
    attributes that must match their vector oracle byte for byte and that
    :func:`validate_problem` checks.
    - ``ll_grad_y.at(x)`` does the work that depends on ``x`` alone once
      and returns a function of ``y``.  A lower solve binds ``x`` once for
      its D steps when ``at`` exists, and calls ``ll_grad_y`` per step
      otherwise.
    - A ``rows`` form takes row stacks, 2-d arrays with one point per row
      (X m x p, Y and V m x q); row ``i`` of its output (entry ``[i, s]``
      for an oracle of objective ``s``) is the vector oracle at row ``i``.
      A lockstep sweep, one row per preference, uses them only when the
      bundle carries every one (:func:`has_row_forms`), and otherwise
      calls the vector oracles row by row.  README's "Row forms" gives
      each one's shape.
    ``dataclasses.replace`` of a field drops that field's forms, and its
    runs take the per-call or per-row path with the same results.
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


class _Form(NamedTuple):
    """An optional oracle form: its attribute path on a bundle, the
    :class:`OracleCounters` field that ``counted_oracles`` ticks for it
    (``None``: not counted), and the arguments of its vector oracle (the
    path without ``at`` and ``rows``), on which ``validate_problem`` probes
    it.  An ``at`` form binds ``x`` of ``ll_grad_y``, and what it returns
    ticks ``gc_g`` per call (per row for a row form).  Other row forms
    tick per row, or per row and objective when their oracle takes ``s``."""

    path: tuple
    counter: Optional[str]
    args: str
    name = property(lambda self: ".".join(self.path))
    rows = property(lambda self: self.path[-1] == "rows")
    binds = property(lambda self: "at" in self.path)


# The optional forms, each after the form it hangs on.
_FORMS = (
    _Form(("ll_grad_y", "at"), "gc_g", "xy"),
    _Form(("ll_grad_y", "at", "rows"), "gc_g", "xy"),
    _Form(("ll_hvp", "rows"), "hv_g", "xyv"),
    _Form(("ll_jvp", "rows"), "jv_g", "xyv"),
    _Form(("ul_value", "rows"), None, "sxy"),
    _Form(("ul_grad_x", "rows"), "gc_f", "sxy"),
    _Form(("ul_grad_y", "rows"), "gc_f", "sxy"),
    _Form(("reference", "grad_phi", "rows"), None, "x"),
)


def optional_form(bundle, *path):
    """What the attribute ``path`` reaches on ``bundle``, such as a form of
    ``_FORMS``, or ``None`` where a link is missing."""
    for attr in path:
        bundle = getattr(bundle, attr, None)
    return bundle


def has_row_forms(bundle) -> bool:
    """Whether ``bundle`` carries every row form of ``_FORMS`` on its
    fields that are not ``None``: a lockstep iteration needs them all."""
    return all(optional_form(bundle, *form.path) is not None for form in _FORMS
               if form.rows and getattr(bundle, form.path[0]) is not None)


def forward_forms(raw, fields: dict, wrap) -> dict:
    """Hang on the oracles ``fields`` each form that ``raw`` carries there,
    as ``wrap(form, raw_form)``.  ``fields`` maps fields of the bundle
    ``raw`` to the callables that replace them.  Where ``wrap`` returns
    ``None``, the form and the forms on it are dropped.  A field left out
    of ``fields``, or replaced by its raw object, keeps its forms."""
    replaced = SimpleNamespace(**fields)
    for form in _FORMS:
        *owner_path, attr = form.path
        owner, raw_owner = optional_form(replaced, *owner_path), optional_form(raw, *owner_path)
        raw_form = getattr(raw_owner, attr, None)
        if owner is not None and owner is not raw_owner and raw_form is not None:
            wrapped = wrap(form, raw_form)
            if wrapped is not None:
                setattr(owner, attr, wrapped)
    return fields


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

    The oracles may carry the forms of ``_FORMS`` without ``rows``, with
    the batch last: ``ll_grad_y.at(x)`` returns a function of ``(y, batch)``
    equal to ``ll_grad_y(x, y, batch)`` byte for byte.  Stochastic runs have
    one row, so the views ``deterministic()`` and ``wrap_deterministic``
    forward no row form.
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

        def add_batch(form, at):
            def bind(x):
                bound = at(x)
                return lambda y: bound(y, ll_step)

            return None if form.rows else bind

        fields = forward_forms(self, dict(
            ul_value=lambda s, x, y: self.ul_value(s, x, y, full[UL_BATCH]),
            ul_grad_x=lambda s, x, y: self.ul_grad_x(s, x, y, full[UL_BATCH]),
            ul_grad_y=lambda s, x, y: self.ul_grad_y(s, x, y, full[UL_BATCH]),
            ll_grad_y=lambda x, y: self.ll_grad_y(x, y, ll_step),
            ll_hvp=lambda x, y, v: self.ll_hvp(x, y, v, full[HESSIAN]),
            ll_jvp=lambda x, y, v: self.ll_jvp(x, y, v, full[JACOBIAN]),
        ), add_batch)
        return DeterministicOracles(
            num_objectives=self.num_objectives,
            dim_x=self.dim_x,
            dim_y=self.dim_y,
            constants=self.constants,
            reference=self.reference,
            **fields,
        )


def wrap_deterministic(oracles: DeterministicOracles) -> StochasticOracles:
    """Zero-variance stochastic view of a deterministic problem.

    Every purpose has a single pseudo-sample, so every batch is the full
    batch and every sampled oracle returns the wrapped value bitwise.
    """

    def drop_batch(form, at):
        def bind(x):
            bound = at(x)
            return lambda y, b: bound(y)

        return None if form.rows else bind

    fields = forward_forms(oracles, dict(
        ul_value=lambda s, x, y, b: oracles.ul_value(s, x, y),
        ul_grad_x=lambda s, x, y, b: oracles.ul_grad_x(s, x, y),
        ul_grad_y=lambda s, x, y, b: oracles.ul_grad_y(s, x, y),
        ll_grad_y=lambda x, y, b: oracles.ll_grad_y(x, y),
        ll_hvp=lambda x, y, v, b: oracles.ll_hvp(x, y, v),
        ll_jvp=lambda x, y, v, b: oracles.ll_jvp(x, y, v),
    ), drop_batch)
    return StochasticOracles(
        num_objectives=oracles.num_objectives,
        dim_x=oracles.dim_x,
        dim_y=oracles.dim_y,
        dataset_sizes={purpose: 1 for purpose in PURPOSES},
        constants=oracles.constants,
        reference=oracles.reference,
        **fields,
    )


def counted_oracles(
    oracles: DeterministicOracles | StochasticOracles,
    counters: OracleCounters,
) -> DeterministicOracles | StochasticOracles:
    """View of ``oracles`` whose calls increment ``counters``.

    Serves both bundle types: a :class:`StochasticOracles` call passes its
    batch as the trailing argument, a :class:`DeterministicOracles` call
    leaves it ``None``.  (An explicit default is cheaper per call than
    forwarding ``*args`` on this hot path.)  One tick per call regardless
    of batch size.  Value evaluations are not counted; only gradients and
    second-order products are.  Dimension checks are assertions only,
    stripped under ``python -O``.

    The optional forms tick as the table ``_FORMS`` says: each row of a
    row-form call as its vector calls would, and binding ``x`` not at all.
    """
    p, q, s_count = oracles.dim_x, oracles.dim_y, oracles.num_objectives

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

    def ll_hvp(x, y, v, b=None):
        assert len(x) == p and len(v) == q
        counters.hv_g += 1
        return oracles.ll_hvp(x, y, v) if b is None else oracles.ll_hvp(x, y, v, b)

    def ll_jvp(x, y, v, b=None):
        assert len(x) == p and len(v) == q
        counters.jv_g += 1
        return oracles.ll_jvp(x, y, v) if b is None else oracles.ll_jvp(x, y, v, b)

    def count(form, raw):
        field, per_row = form.counter, s_count if "s" in form.args else 1

        def bind(x):
            assert len(x) == p
            bound = raw(x)

            def grad(y, b=None):
                assert len(y) == q
                counters.gc_g += 1
                return bound(y) if b is None else bound(y, b)

            return grad

        def bind_rows(x):
            assert x.shape == (len(x), p)
            bound, ticks = raw(x), len(x)

            def grad(y):
                assert y.shape == (ticks, q)
                counters.gc_g += ticks
                return bound(y)

            return grad

        def rows(x, *stacks):
            assert x.shape == (len(x), p)
            for v in stacks:
                assert v.shape == (len(x), q)
            setattr(counters, field, getattr(counters, field) + len(x) * per_row)
            return raw(x, *stacks)

        if form.binds:
            # Binders bind x of ll_grad_y, and a lower solve calls what they
            # return at every step, so they tick gc_g literally: a setattr by
            # name cost 70 ns more (2% of quad-cg, Python 3.11 on x86_64).
            assert field == "gc_g", form.name
            return bind_rows if form.rows else bind
        return raw if field is None else rows

    return replace(oracles, **forward_forms(oracles, dict(
        ul_grad_x=ul_grad_x,
        ul_grad_y=ul_grad_y,
        ll_grad_y=ll_grad_y,
        ll_hvp=ll_hvp,
        ll_jvp=ll_jvp,
    ), count))


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


def _check_forms(problem: DeterministicOracles, x: np.ndarray, y: np.ndarray) -> None:
    """Raise :class:`InvalidProblemError` naming the first form of
    ``_FORMS`` that differs in a byte from its vector oracle: a form
    without ``rows`` at the probe point, a row form row by row on a
    three-row stack, the probe point and two seeded perturbations of it."""
    rng = np.random.default_rng(1)
    xs = x + np.vstack([np.zeros(x.size), rng.standard_normal((2, x.size))])
    ys = y + np.vstack([np.zeros(y.size), rng.standard_normal((2, y.size))])
    vs = rng.standard_normal(ys.shape)
    stacks, point = {"x": xs, "y": ys, "v": vs}, {"x": x[None], "y": y[None], "v": vs[:1]}
    objectives = range(problem.num_objectives)
    for form in _FORMS:
        raw = optional_form(problem, *form.path)
        if raw is None:
            continue
        oracle_path = [attr for attr in form.path if attr not in ("at", "rows")]
        oracle = optional_form(problem, *oracle_path)
        args = [(stacks if form.rows else point)[a] for a in form.args if a != "s"]
        points = list(zip(*args))
        call = args if form.rows else points[0]  # one stacked call, or one vector call
        out = np.asarray(raw(call[0])(*call[1:]) if form.binds else raw(*call))
        out = out if form.rows else out[None]
        rows = [np.array([oracle(s, *a) for s in objectives], dtype=float)
                if "s" in form.args else np.asarray(oracle(*a)) for a in points]
        if out.shape != (len(rows),) + rows[0].shape or any(
            out[i].tobytes() != rows[i].tobytes() for i in range(len(rows))
        ):
            raise InvalidProblemError(
                f"{form.name} differs from the vector oracle row by row" if form.rows
                else f"{form.name}(x)(y) differs from {'.'.join(oracle_path)}(x, y)")


def validate_problem(
    problem: DeterministicOracles,
    x: np.ndarray,
    y: np.ndarray,
) -> ProblemDiagnostics:
    """Probe an oracle bundle for symmetry, linearity, and curvature.

    Eight seeded pairs of random probe vectors check that ``ll_hvp`` is a
    symmetric linear map, that ``ll_jvp`` is linear, and estimate the
    smallest Rayleigh quotient of the lower-level Hessian.  Raises
    :class:`InvalidProblemError` on dimension mismatches, and when an
    optional form of the table ``_FORMS`` differs from its vector oracle
    in a byte: an ``at`` form such as ``ll_grad_y.at(x)(y)`` at the probe
    point, a row form on a three-row stack, the probe point and two
    seeded perturbations of it.  The error names the first form that
    differs.
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
    _check_forms(problem, x, y)

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
