import ast
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilevel import (
    ConfigurationError,
    DeterministicOracles,
    HESSIAN,
    InvalidProblemError,
    JACOBIAN,
    LL_STEP,
    OracleCounters,
    Preference,
    ProblemConstants,
    QuadraticBilevelSpec,
    SimplexWeights,
    SolverConfig,
    StochasticOracles,
    UL_BATCH,
    counted_oracles,
    make_quadratic,
    validate_problem,
    wrap_deterministic,
)
from mobilevel import core
from mobilevel.core import PURPOSES


class TestPreference:
    def test_valid(self):
        r = Preference(np.array([0.3, 0.7]))
        assert r.r_max == 0.7
        assert len(r) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Preference(np.array([1.2, -0.2]))

    def test_rejects_tiny_component(self):
        with pytest.raises(ValueError):
            Preference(np.array([1.0 - 1e-10, 1e-10]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Preference(np.array([0.5, 0.6]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Preference(np.array([np.nan, 1.0]))

    def test_patterns_match_protocol(self):
        # 0.8 plus four 0.05, and 0.96 plus four 0.01, at five objectives
        preferred = Preference.preferred(5, 2)
        np.testing.assert_allclose(preferred.r, [0.05, 0.05, 0.8, 0.05, 0.05])
        extreme = Preference.extreme(5, 0)
        np.testing.assert_allclose(extreme.r, [0.96, 0.01, 0.01, 0.01, 0.01])
        np.testing.assert_allclose(Preference.uniform(4).r, np.full(4, 0.25))

    @pytest.mark.parametrize("pattern", [Preference.preferred, Preference.extreme])
    @pytest.mark.parametrize("size, index", [(3, -1), (3, 3), (1, 1), (1, -1)])
    def test_pattern_index_out_of_range(self, pattern, size, index):
        with pytest.raises(ValueError, match="outside"):
            pattern(size, index)

    @pytest.mark.parametrize("pattern", [Preference.preferred, Preference.extreme])
    @pytest.mark.parametrize(
        "size, index, message",
        [(2.5, 0, "size must be an integer"), (True, 0, "size must be an integer"),
         (0, 0, "size must be an integer"), (np.float64(3.0), 0, "size must be an integer"),
         (3, 1.0, "index must be an integer"), (3, True, "index must be an integer"),
         (3, np.float64(0.0), "index must be an integer")],
    )
    def test_pattern_rejects_non_integer_size_or_index(self, pattern, size, index, message):
        with pytest.raises(ValueError, match=message):
            pattern(size, index)

    def test_pattern_accepts_numpy_integers(self):
        assert np.array_equal(Preference.preferred(np.int64(2), np.int32(1)).r, [0.2, 0.8])

    @pytest.mark.parametrize("size", [0, -1, 2.5, True])
    def test_uniform_rejects_size_below_one(self, size):
        with pytest.raises(ValueError, match="an integer of at least 1"):
            Preference.uniform(size)

    def test_immutable(self):
        r = Preference(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            r.r[0] = 0.9


class TestSimplexWeights:
    def test_valid(self):
        w = SimplexWeights(np.array([0.0, 1.0]))
        assert len(w) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([-0.1, 1.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.5, 0.5 + 1e-6]))


class TestProblemConstants:
    def test_requires_positive_mu(self):
        with pytest.raises(ValueError):
            ProblemConstants(mu_g=0.0)

    def test_l_at_least_mu(self):
        with pytest.raises(ValueError):
            ProblemConstants(mu_g=1.0, L=0.5)

    @pytest.mark.parametrize("kwargs", [
        {"mu_g": np.nan}, {"mu_g": np.inf}, {"mu_g": np.inf, "L": np.inf},
        {"mu_g": 1.0, "L": np.nan}, {"mu_g": 1.0, "L": np.inf},
        {"mu_g": 1.0, "L_phi": 0.0}, {"mu_g": 1.0, "L_phi": -2.0},
        {"mu_g": 1.0, "L_phi": np.nan}, {"mu_g": 1.0, "L_phi": np.inf},
    ])
    def test_rejects_non_finite_or_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            ProblemConstants(**kwargs)

    def test_smoothness_upper_without_value_bound(self):
        # beta reads the stated L_phi alone; nothing is derived from mu_g or L.
        steps = {
            ProblemConstants(mu_g=mu_g, L=l_bound, L_phi=42.0).default_ul_step(0.8)
            for mu_g, l_bound in [(0.5, 2.0), (1e-3, 1e3), (1.0, None)]
        }
        assert steps == {min(1 / (2 * 43.0 * 0.8), 1 / (3 * 42.0))}

    def test_smoothness_upper_unknown(self):
        assert ProblemConstants(mu_g=0.5, L=2.0).default_ul_step(0.8) is None
        assert ProblemConstants(mu_g=0.5).default_ul_step(0.8) is None

    @pytest.mark.parametrize("mu_g, l_bound", [
        (0.5, 1e103), (0.5, 1e120), (0.5, 1e200), (1e-20, 1e100), (1e-170, 1.0), (1e-320, 1.0),
    ])
    def test_smoothness_upper_overflow_not_derivable(self, mu_g, l_bound):
        # make_quadratic states no L_phi where 1 + ||H^{-1} C||^2 leaves the
        # float range.  H = diag(mu_g, l_bound) and C = (1e160 mu_g, 0)' give
        # ||W|| = 1e160, whose square overflows; at mu_g = 1e-320, H^{-1}
        # itself overflows, so W is not finite.
        spec = QuadraticBilevelSpec(
            dim_x=1, dim_y=2, num_objectives=1,
            hessian=np.diag([mu_g, l_bound]), coupling=np.array([[1e160 * mu_g], [0.0]]),
            x_targets=np.zeros((1, 1)), y_targets=np.zeros((1, 2)),
        )
        _, constants = make_quadratic(spec)
        assert constants.mu_g == mu_g
        assert constants.L_phi is None
        assert constants.default_ul_step(0.8) is None
        with pytest.raises(ConfigurationError, match="beta"):
            SolverConfig().resolved(constants, r_max=0.8)

    def test_default_steps(self):
        constants = ProblemConstants(mu_g=0.5, L=2.0, L_phi=42.0)
        assert constants.default_ll_step() == pytest.approx(0.5)
        l_phi = constants.L_phi
        beta = constants.default_ul_step(0.8)
        assert beta == pytest.approx(min(1 / (2 * (1 + l_phi) * 0.8), 1 / (3 * l_phi)))


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()

    def test_k_zero_allowed(self):
        assert SolverConfig(K=0).K == 0

    @pytest.mark.parametrize("field,value", [
        ("K", -1), ("D", 0), ("N", 0), ("Q", 0),
        ("T", 0), ("B", 0), ("u", -0.1), ("stop_tol", -1.0),
        ("alpha", 0.0), ("option", "lbfgs"),
        ("u", np.nan), ("u", np.inf), ("stop_tol", np.nan), ("stop_tol", np.inf),
        ("alpha", np.inf), ("beta", np.inf), ("eta", np.nan), ("seed", -1),
        # Counts and the seed are integers, never floats or bools.
        ("K", 2.5), ("D", 2.5), ("N", 2.5), ("seed", 1.5), ("N", True),
        ("K", 3.0), ("B", "8"),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigurationError):
            SolverConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = SolverConfig(K=np.int64(3), D=np.int64(2), seed=np.int64(1))
        assert (config.K, config.D, config.seed) == (3, 2, 1)

    def test_resolved_fills_steps(self):
        constants = ProblemConstants(mu_g=0.5, L=2.0, L_phi=42.0)
        resolved = SolverConfig().resolved(constants, r_max=0.5)
        assert resolved.alpha == pytest.approx(0.5)
        assert resolved.eta == pytest.approx(0.5)
        assert resolved.beta == pytest.approx(constants.default_ul_step(0.5))

    def test_resolved_requires_constants(self):
        with pytest.raises(ConfigurationError):
            SolverConfig().resolved(None)

    def test_resolved_leaves_eta_to_stochastic_runs(self):
        # Only the stochastic loop reads eta, so only it refuses a missing one.
        resolved = SolverConfig(alpha=0.5, beta=0.05).resolved(None)
        assert resolved.eta is None
        with pytest.raises(ConfigurationError, match="not derivable .*: eta$"):
            resolved.validate_stochastic(1.0)

    def test_explicit_steps_win(self):
        constants = ProblemConstants(mu_g=0.5, L=2.0, L_phi=42.0)
        resolved = SolverConfig(alpha=0.1, beta=0.2, eta=0.3).resolved(constants)
        assert (resolved.alpha, resolved.beta, resolved.eta) == (0.1, 0.2, 0.3)

    def test_stochastic_batch_floor(self):
        config = SolverConfig(B=1, Q=1, eta=0.5)
        config.validate_stochastic(1.0)  # 1 * 1 * (1-0.5)^0 = 1, allowed
        bad = SolverConfig(B=1, Q=40, eta=0.9)
        with pytest.raises(ConfigurationError):
            bad.validate_stochastic(1.0)

    @pytest.mark.parametrize("eta", [1.5, 2.5, 1.0 + 1e-12])
    def test_stochastic_step_beyond_schedule(self, eta):
        # eta * mu_g above 1 has no Neumann schedule, even where the negative
        # base passes the batch floor (4 * 3 * (1 - 1.5)^2 = 3).
        with pytest.raises(ConfigurationError, match="eta \\* mu_g must lie in \\(0, 1\\]"):
            SolverConfig(B=4, Q=3, eta=eta).validate_stochastic(1.0)
        SolverConfig(B=4, Q=1, eta=1.0).validate_stochastic(1.0)  # eta * mu_g = 1 is allowed


@st.composite
def finiteness_cases(draw):
    """Vectors on both sides of all_finite's sum cap, with entries up to
    1e308 in magnitude (so finite sums can overflow) and NaN and infinities
    injected at drawn positions."""
    n = draw(st.integers(0, 100))
    values = draw(st.lists(st.floats(-1e308, 1e308), min_size=n, max_size=n))
    if n:
        hits = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                       st.sampled_from([np.nan, np.inf, -np.inf])),
                             max_size=3))
        for index, value in hits:
            values[index] = value
    return np.array(values, dtype=float)


class TestAllFinite:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(finiteness_cases())
    def test_matches_isfinite(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core.all_finite(v) is bool(np.isfinite(v).all())

    @pytest.mark.parametrize("size", [1, core._FINITE_SUM_MAX, core._FINITE_SUM_MAX + 1])
    @pytest.mark.parametrize("fill, expected", [
        (1e308, True),  # the sum overflows: finite entries, elementwise fallback
        (-1e308, True),
        (np.nan, False),
        (np.inf, False),
    ])
    def test_boundary_cases(self, size, fill, expected):
        v = np.zeros(size)
        v[::2] = fill
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core.all_finite(v) is expected

    def test_opposite_infinities(self):
        # inf + -inf is NaN, so the sum is not finite and the fallback decides.
        assert core.all_finite(np.array([np.inf, -np.inf, 1.0])) is False
        assert core.all_finite(np.array([])) is True


class TestOracleCounters:
    def test_snapshot_is_independent(self):
        counters = OracleCounters()
        snap = counters.snapshot()
        counters.gc_f += 3
        assert snap.gc_f == 0
        assert counters.as_tuple() == (3, 0, 0, 0)


@pytest.fixture(scope="module")
def quadratic():
    spec = QuadraticBilevelSpec.random(3, 4, 2, seed=7)
    problem, constants = make_quadratic(spec)
    return spec, problem, constants


class TestValidateProblem:
    def test_quadratic_benchmark_clean(self, quadratic):
        spec, problem, constants = quadratic
        rng = np.random.default_rng(0)
        diag = validate_problem(problem, rng.standard_normal(3), rng.standard_normal(4))
        assert diag.max_residual() <= 1e-10
        # Rayleigh quotients of the lower Hessian cannot dip below its
        # smallest eigenvalue (computed by direct eigendecomposition).
        lam_min = np.linalg.eigvalsh(spec.hessian).min()
        assert diag.rayleigh_min >= lam_min - 1e-12

    def test_identity_hessian(self):
        problem = DeterministicOracles(
            num_objectives=1, dim_x=2, dim_y=2,
            ul_value=lambda s, x, y: 0.0,
            ul_grad_x=lambda s, x, y: np.zeros(2),
            ul_grad_y=lambda s, x, y: np.zeros(2),
            ll_grad_y=lambda x, y: y,
            ll_hvp=lambda x, y, v: v,
            ll_jvp=lambda x, y, v: np.zeros(2),
        )
        diag = validate_problem(problem, np.zeros(2), np.zeros(2))
        assert diag.symmetry_residual == 0.0
        assert diag.rayleigh_min == pytest.approx(1.0)

    def test_flags_asymmetric_hvp(self):
        # H = [[1, 1], [0, 1]] is not symmetric: <u, Hv> - <v, Hu>
        # = u1*v2 - v1*u2, nonzero for generic probes.
        asym = np.array([[1.0, 1.0], [0.0, 1.0]])
        problem = DeterministicOracles(
            num_objectives=1, dim_x=2, dim_y=2,
            ul_value=lambda s, x, y: 0.0,
            ul_grad_x=lambda s, x, y: np.zeros(2),
            ul_grad_y=lambda s, x, y: np.zeros(2),
            ll_grad_y=lambda x, y: asym @ y,
            ll_hvp=lambda x, y, v: asym @ v,
            ll_jvp=lambda x, y, v: np.zeros(2),
        )
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        # By hand: <u, Hv> = 1, <v, Hu> = 0.
        assert u @ (asym @ v) - v @ (asym @ u) == pytest.approx(1.0)
        diag = validate_problem(problem, np.zeros(2), np.zeros(2))
        assert diag.symmetry_residual > 1e-3

    @pytest.mark.parametrize("offset", [0.0, 1e-16, np.nan])
    def test_checks_bound_gradient(self, quadratic, offset):
        # ll_grad_y.at(x)(y) must equal ll_grad_y(x, y) byte for byte: an
        # offset of 1e-16 moves some entry by an ulp, and a NaN fails too.
        _, problem, _ = quadratic

        def ll_grad_y(x, y):
            return problem.ll_grad_y(x, y)

        ll_grad_y.at = lambda x: lambda y: problem.ll_grad_y(x, y) + offset
        bundle = replace(problem, ll_grad_y=ll_grad_y)
        x, y = np.full(3, 0.5), np.full(4, 0.25)
        if offset == 0.0:
            validate_problem(bundle, x, y)
        else:
            with pytest.raises(InvalidProblemError, match="ll_grad_y.at"):
                validate_problem(bundle, x, y)

    @pytest.mark.parametrize("form", [form.name for form in core._FORMS if form.rows])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_checks_row_forms(self, quadratic, form, perturbed):
        # Each row form must equal its vector oracle row by row, byte for
        # byte: moving one entry of one row by an ulp is named.
        _, problem, _ = quadratic

        def nudged(out):
            out = np.array(out)
            if perturbed:
                entry = (-1,) + (0,) * (out.ndim - 1)
                out[entry] = np.nextafter(out[entry], np.inf)
            return out

        def with_rows(oracle, name):
            """A plain function calling ``oracle``, with its row form,
            nudged when it is the form under test."""

            def vector(*args):
                return oracle(*args)

            rows = oracle.rows
            vector.rows = (lambda *args: nudged(rows(*args))) if name == form else rows
            return vector

        def ll_grad_y(x, y):
            return problem.ll_grad_y(x, y)

        def at(x):
            return problem.ll_grad_y.at(x)

        at_rows = problem.ll_grad_y.at.rows
        at.rows = (lambda xs: lambda ys: nudged(at_rows(xs)(ys))) \
            if form == "ll_grad_y.at.rows" else at_rows
        ll_grad_y.at = at
        fields = {"ll_grad_y": ll_grad_y}
        for field in ("ll_hvp", "ll_jvp", "ul_value", "ul_grad_x", "ul_grad_y"):
            fields[field] = with_rows(getattr(problem, field), f"{field}.rows")
        fields["reference"] = replace(problem.reference, grad_phi=with_rows(
            problem.reference.grad_phi, "reference.grad_phi.rows"))
        bundle = replace(problem, **fields)
        x, y = np.full(3, 0.5), np.full(4, 0.25)
        if perturbed:
            with pytest.raises(InvalidProblemError, match=form.replace(".", r"\.")):
                validate_problem(bundle, x, y)
        else:
            validate_problem(bundle, x, y)

    def test_dimension_mismatch(self, quadratic):
        _, problem, _ = quadratic
        with pytest.raises(InvalidProblemError):
            validate_problem(problem, np.zeros(5), np.zeros(4))
        with pytest.raises(InvalidProblemError):
            validate_problem(problem, np.zeros(3), np.zeros(2))


class TestStochasticWrapper:
    def test_full_batch_bitwise_identity(self, quadratic):
        _, problem, _ = quadratic
        stochastic = wrap_deterministic(problem)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        y = rng.standard_normal(4)
        v = rng.standard_normal(4)
        batch = stochastic.full_batch("ll_step")
        assert np.array_equal(stochastic.ll_grad_y(x, y, batch), problem.ll_grad_y(x, y))
        assert np.array_equal(stochastic.ll_hvp(x, y, v, batch), problem.ll_hvp(x, y, v))
        assert np.array_equal(stochastic.ll_jvp(x, y, v, batch), problem.ll_jvp(x, y, v))
        for s in range(2):
            assert stochastic.ul_value(s, x, y, batch) == problem.ul_value(s, x, y)
            assert np.array_equal(
                stochastic.ul_grad_x(s, x, y, batch), problem.ul_grad_x(s, x, y)
            )
            assert np.array_equal(
                stochastic.ul_grad_y(s, x, y, batch), problem.ul_grad_y(s, x, y)
            )

    def test_wrappers_forward_the_bound_gradient(self, quadratic):
        # wrap_deterministic and deterministic() keep ``ll_grad_y.at``
        # (equal to the per-call gradient byte for byte) and drop the row forms.
        _, problem, _ = quadratic
        stochastic = wrap_deterministic(problem)
        det = stochastic.deterministic()
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(3), rng.standard_normal(4)
        batch = stochastic.full_batch(LL_STEP)
        expected = problem.ll_grad_y(x, y).tobytes()
        assert stochastic.ll_grad_y.at(x)(y, batch).tobytes() == expected
        assert det.ll_grad_y.at(x)(y).tobytes() == expected
        for bundle in (stochastic, det):
            assert not hasattr(bundle.ll_grad_y.at, "rows")
            assert not hasattr(bundle.ll_hvp, "rows") and not hasattr(bundle.ll_jvp, "rows")

    def test_sampler_reproducible(self, quadratic):
        _, problem, _ = quadratic
        stochastic = wrap_deterministic(problem)
        state = np.random.default_rng(5).bit_generator.state
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(0)
        rng_b.bit_generator.state = state
        (a,) = stochastic.sample("ll_step", [1], rng_a)
        (b,) = stochastic.sample("ll_step", [1], rng_b)
        assert np.array_equal(a, b)


class TestDatasetSizes:
    @pytest.mark.parametrize("sizes, message", [
        ({LL_STEP: 5, UL_BATCH: 5, JACOBIAN: 5}, "name exactly"),
        ({**{purpose: 5 for purpose in PURPOSES}, "extra": 5}, "name exactly"),
        ({LL_STEP: 5}, "name exactly"),
        ({**{purpose: 5 for purpose in PURPOSES}, LL_STEP: 0}, "'ll_step'.*at least 1"),
        ({**{purpose: 5 for purpose in PURPOSES}, HESSIAN: -3}, "'hessian'.*at least 1"),
        ({**{purpose: 5 for purpose in PURPOSES}, UL_BATCH: 2.0}, "'ul'.*integer"),
        ({**{purpose: 5 for purpose in PURPOSES}, JACOBIAN: "5"}, "'jacobian'.*integer"),
        ({**{purpose: 5 for purpose in PURPOSES}, LL_STEP: True}, "'ll_step'.*integer"),
        ({**{purpose: 5 for purpose in PURPOSES}, HESSIAN: np.True_}, "'hessian'.*integer"),
    ])
    def test_malformed_sizes_rejected(self, sizes, message):
        with pytest.raises(InvalidProblemError, match=message):
            replace(_sampling_problem(5), dataset_sizes=sizes)

    def test_numpy_integer_sizes_accepted(self):
        sizes = {purpose: np.int64(7) for purpose in PURPOSES}
        problem = replace(_sampling_problem(5), dataset_sizes=sizes)
        assert problem.full_batch(HESSIAN).size == 7


def _sampling_problem(n):
    """A stochastic bundle with population ``n`` for every purpose; only
    its sampler is exercised."""
    return StochasticOracles(
        num_objectives=1, dim_x=1, dim_y=1,
        dataset_sizes={purpose: n for purpose in PURPOSES},
        ul_value=None, ul_grad_x=None, ul_grad_y=None,
        ll_grad_y=None, ll_hvp=None, ll_jvp=None,
    )


# Populations on both sides of the sampler's switch from sorted keys to one
# Generator.choice per batch.
_BOTH_METHODS = pytest.mark.parametrize("n", [40, core._KEYS_MAX_N + 1, 100_000])


class TestSample:
    @_BOTH_METHODS
    def test_batches_distinct_sorted_in_range(self, n):
        problem = _sampling_problem(n)
        sizes = [32] * 50 + [1, 7, 39, n - 1]
        batches = problem.sample(LL_STEP, sizes, np.random.default_rng(3))
        assert [len(batch) for batch in batches] == sizes
        for idx in batches:
            assert np.all(np.diff(idx) > 0)  # sorted, hence distinct
            assert idx[0] >= 0 and idx[-1] < n

    @_BOTH_METHODS
    @pytest.mark.parametrize("full", [False, True])
    def test_batches_are_read_only_int64_arrays(self, n, full):
        # A batch is its index array: every one the sampler hands out, drawn
        # or full, is sorted int64 that no oracle can write into.
        problem = _sampling_problem(n)
        sizes = [n, n + 15] if full else [1, 32, n - 1]
        batches = problem.sample(JACOBIAN, sizes, np.random.default_rng(2))
        if full:
            batches += (problem.full_batch(JACOBIAN),)
        for idx in batches:
            assert type(idx) is np.ndarray and idx.dtype == np.int64
            assert np.all(np.diff(idx) > 0)
            assert not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0] = 1

    @pytest.mark.parametrize("keys_max_n", [core._KEYS_MAX_N, 0])
    def test_inclusion_frequencies_uniform(self, monkeypatch, keys_max_n):
        # Each index of a uniform size-k draw out of n is included with
        # probability k/n.  Over m independent draws the inclusion counts
        # have mean E = m k/n and covariance E (1 - k/n) n/(n-1) (I - 11'/n)
        # (the counts of one draw sum to k), so
        #   sum_i (count_i - E)^2 / E / (1 - k/n) * (n-1)/n
        # is chi-square with n - 1 = 19 degrees of freedom in the limit.
        # Threshold: its 1 - 1e-4 quantile, 50.8, so a correct sampler fails
        # at a given seed with probability about 1e-4.  keys_max_n = 0 sends
        # the same population through one Generator.choice per batch.
        monkeypatch.setattr(core, "_KEYS_MAX_N", keys_max_n)
        n, k, draws = 20, 6, 20_000
        problem = _sampling_problem(n)
        batches = problem.sample(UL_BATCH, [k] * draws, np.random.default_rng(11))
        counts = np.bincount(np.concatenate(batches), minlength=n)
        expected = draws * k / n
        chi2 = float(np.sum((counts - expected) ** 2)) / (expected * (1.0 - k / n))
        chi2 *= (n - 1) / n
        assert chi2 < 50.8

    @_BOTH_METHODS
    def test_full_sizes_return_arange(self, n):
        problem = _sampling_problem(n)
        batches = problem.sample(HESSIAN, [3, n, n + 15, n - 1, n], np.random.default_rng(0))
        for position in (1, 2, 4):
            np.testing.assert_array_equal(batches[position], np.arange(n))
        assert [len(batch) for batch in batches] == [3, n, n, n - 1, n]

    def test_all_full_draws_nothing(self, quadratic):
        # wrap_deterministic has one pseudo-sample per purpose, so its
        # batches are full and the stochastic loop leaves the stream alone.
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        for problem, sizes in (
            (_sampling_problem(5), [5, 7, 100]),
            (_sampling_problem(1000), [1000, 1001]),
            (wrap_deterministic(quadratic[1]), [1, 1, 32]),
        ):
            n = problem.dataset_sizes[JACOBIAN]
            for batch in problem.sample(JACOBIAN, sizes, rng):
                np.testing.assert_array_equal(batch, np.arange(n))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("sizes", [[0], [4, 0, 4], [-1], [5, 0]])
    def test_size_below_one_rejected(self, sizes):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError):
            _sampling_problem(5).sample(LL_STEP, sizes, rng)
        assert rng.bit_generator.state == state

    @_BOTH_METHODS
    def test_equal_states_equal_batches(self, n):
        problem = _sampling_problem(n)
        sizes = [32, 8, n, 17]
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(0)
        rng_b.bit_generator.state = rng_a.bit_generator.state
        a = problem.sample(HESSIAN, sizes, rng_a)
        b = problem.sample(HESSIAN, sizes, rng_b)
        for batch_a, batch_b in zip(a, b):
            np.testing.assert_array_equal(batch_a, batch_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_key_chunks_do_not_change_draws(self, monkeypatch):
        # Chunks of the key matrix consume the stream as one matrix does.
        problem = _sampling_problem(40)
        sizes = [32] * 7 + [40] + [5] * 6
        rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
        whole = problem.sample(LL_STEP, sizes, rng_a)
        monkeypatch.setattr(core, "_KEYS_PER_CHUNK", 3 * 40)
        chunked = problem.sample(LL_STEP, sizes, rng_b)
        for batch_a, batch_b in zip(whole, chunked, strict=True):
            np.testing.assert_array_equal(batch_a, batch_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("n, sizes", [
        (100_000, [32] * 20),  # one (20, n) key matrix would take 34 MB
        (core._KEYS_MAX_N, [1] * 10_000),  # unchunked keys would take 43 MB
    ])
    def test_memory_bounded_by_batches(self, n, sizes):
        problem, rng = _sampling_problem(n), np.random.default_rng(7)
        problem.sample(LL_STEP, sizes[:1], rng)  # first-call allocations
        tracemalloc.start()
        try:
            problem.sample(LL_STEP, sizes, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCountedOracles:
    def test_counts_every_gradient_call(self, quadratic):
        # One wrapper serves both bundle types: each counted field ticks its
        # own counter once, values are free, and every call returns the
        # wrapped oracle's result bitwise.
        _, problem, _ = quadratic
        stochastic = wrap_deterministic(problem)
        rng = np.random.default_rng(0)
        x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
        calls = (  # (field, arguments, ticks as (gc_f, gc_g, jv_g, hv_g))
            ("ul_value", (1, x, y), (0, 0, 0, 0)),
            ("ul_grad_x", (1, x, y), (1, 0, 0, 0)),
            ("ul_grad_y", (1, x, y), (1, 0, 0, 0)),
            ("ll_grad_y", (x, y), (0, 1, 0, 0)),
            ("ll_jvp", (x, y, v), (0, 0, 1, 0)),
            ("ll_hvp", (x, y, v), (0, 0, 0, 1)),
        )
        for bundle, batch in ((problem, ()), (stochastic, (stochastic.full_batch(HESSIAN),))):
            for field, args, ticks in calls:
                counters = OracleCounters()
                counted = counted_oracles(bundle, counters)
                out = getattr(counted, field)(*args, *batch)
                assert counters.as_tuple() == ticks, field
                assert np.array_equal(out, getattr(bundle, field)(*args, *batch)), field

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_bound_gradient_ticks_per_call(self, quadratic, stochastic):
        # ``at(x)`` ticks nothing and each call of the bound function ticks
        # gc_g once, returning the wrapped ``at``'s result bitwise.
        _, problem, _ = quadratic
        bound_x = []

        def ll_grad_y(x, y, *batch):
            return problem.ll_grad_y(x, y)

        def at(x):
            bound_x.append(x)
            grad = problem.ll_grad_y.at(x)
            return (lambda y, b: grad(y)) if stochastic else grad

        ll_grad_y.at = at
        bundle = replace(problem, ll_grad_y=ll_grad_y)
        batch = ()
        if stochastic:
            bundle = replace(wrap_deterministic(bundle), ll_grad_y=ll_grad_y)
            batch = (bundle.full_batch(LL_STEP),)
        counters = OracleCounters()
        counted = counted_oracles(bundle, counters)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        grad = counted.ll_grad_y.at(x)
        assert counters.as_tuple() == (0, 0, 0, 0) and bound_x == [x]
        for calls in (1, 2, 3):
            y = rng.standard_normal(4)
            assert np.array_equal(grad(y, *batch), problem.ll_grad_y(x, y))
            assert counters.as_tuple() == (0, calls, 0, 0)
        assert len(bound_x) == 1

    @pytest.mark.parametrize("runs", [1, 2, 3])
    def test_row_forms_charge_each_run(self, quadratic, runs):
        # Each row of a call ticks the one counter once, as its vector call
        # would, so a stack of ``runs`` runs' two rows each ticks it ``runs``
        # times what one run's rows do; binding x ticks nothing.
        _, problem, _ = quadratic
        counters = OracleCounters()
        counted = counted_oracles(problem, counters)
        rng = np.random.default_rng(0)
        xs, ys, vs = (rng.standard_normal((2 * runs, n)) for n in (3, 4, 4))
        grad = counted.ll_grad_y.at.rows(xs)
        assert counters.as_tuple() == (0, 0, 0, 0)
        outs = (grad(ys), counted.ll_jvp.rows(xs, ys, vs), counted.ll_hvp.rows(xs, ys, vs))
        assert counters.as_tuple() == (0, 2 * runs, 2 * runs, 2 * runs)
        raw = (problem.ll_grad_y.at.rows(xs)(ys), problem.ll_jvp.rows(xs, ys, vs),
               problem.ll_hvp.rows(xs, ys, vs))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(outs, raw))
        # The upper row forms tick gc_f once per row and objective (S = 2);
        # values are not counted, so ul_value's row form passes through.
        outs = (counted.ul_grad_x.rows(xs, ys), counted.ul_grad_y.rows(xs, ys))
        assert counters.as_tuple() == (8 * runs, 2 * runs, 2 * runs, 2 * runs)
        raw = (problem.ul_grad_x.rows(xs, ys), problem.ul_grad_y.rows(xs, ys))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(outs, raw))
        assert counted.ul_value.rows is problem.ul_value.rows

    def test_row_forms_forwarded_only_when_present(self, quadratic):
        _, problem, _ = quadratic
        counted = counted_oracles(problem, OracleCounters())
        assert hasattr(counted.ll_hvp, "rows") and hasattr(counted.ll_grad_y.at, "rows")
        plain = replace(problem, ll_hvp=lambda x, y, v: problem.ll_hvp(x, y, v),
                        ul_grad_x=lambda s, x, y: problem.ul_grad_x(s, x, y))
        counted = counted_oracles(plain, OracleCounters())
        assert not hasattr(counted.ll_hvp, "rows") and hasattr(counted.ll_jvp, "rows")
        assert not hasattr(counted.ul_grad_x, "rows") and hasattr(counted.ul_grad_y, "rows")


# A row form of the vector oracle ``ll_grad_y`` that the table does not
# list: ``ll_grad_y.rows(X, Y)``, m x q, ticking gc_g once per row.
DUMMY_FORM = core._Form(("ll_grad_y", "rows"), "gc_g", "xy")


class TestFormTable:
    """Every consumer of the optional forms walks ``core._FORMS``, so a form
    added to the table alone is forwarded, counted, checked and required."""

    @pytest.fixture
    def dummy(self, quadratic, monkeypatch):
        """The quadratic with the dummy form, and the table listing it."""
        monkeypatch.setattr(core, "_FORMS", core._FORMS + (DUMMY_FORM,))
        _, problem, _ = quadratic

        def ll_grad_y(x, y):
            return problem.ll_grad_y(x, y)

        ll_grad_y.at = problem.ll_grad_y.at
        ll_grad_y.rows = lambda xs, ys: problem.ll_grad_y.at.rows(xs)(ys)
        return replace(problem, ll_grad_y=ll_grad_y)

    @pytest.mark.parametrize("runs", [1, 2, 3])
    def test_counted_oracles_forward_and_tick(self, dummy, runs, monkeypatch):
        # One tick per row.
        counters = OracleCounters()
        counted = counted_oracles(dummy, counters)
        rng = np.random.default_rng(0)
        xs, ys = rng.standard_normal((2 * runs, 3)), rng.standard_normal((2 * runs, 4))
        out = counted.ll_grad_y.rows(xs, ys)
        assert out.tobytes() == dummy.ll_grad_y.rows(xs, ys).tobytes()
        assert counters.as_tuple() == (0, 2 * runs, 0, 0)
        monkeypatch.setattr(core, "_FORMS", core._FORMS[:-1])
        assert not hasattr(counted_oracles(dummy, OracleCounters()).ll_grad_y, "rows")

    def test_views_drop_it(self, dummy):
        # A row form: the stochastic views keep ``at`` and drop it.
        stochastic = wrap_deterministic(dummy)
        assert hasattr(stochastic.ll_grad_y, "at") and not hasattr(stochastic.ll_grad_y, "rows")
        stochastic.ll_grad_y.rows = lambda xs, ys, b: dummy.ll_grad_y.rows(xs, ys)
        det = stochastic.deterministic()
        assert hasattr(det.ll_grad_y, "at") and not hasattr(det.ll_grad_y, "rows")

    def test_validate_problem_names_it(self, dummy):
        # One ulp off in one entry of one row.
        x, y = np.full(3, 0.5), np.full(4, 0.25)
        validate_problem(dummy, x, y)
        rows = dummy.ll_grad_y.rows

        def nudged(xs, ys):
            out = np.array(rows(xs, ys))
            out[-1, 0] = np.nextafter(out[-1, 0], np.inf)
            return out

        dummy.ll_grad_y.rows = nudged
        message = r"^ll_grad_y\.rows differs from the vector oracle row by row$"
        with pytest.raises(InvalidProblemError, match=message):
            validate_problem(dummy, x, y)

    def test_lockstep_requires_it(self, dummy, quadratic):
        _, problem, _ = quadratic
        assert core.has_row_forms(dummy)
        assert core.has_row_forms(counted_oracles(dummy, OracleCounters()))
        assert not core.has_row_forms(problem)


def test_forms_are_looked_up_only_in_core():
    # Outside core.py no module looks an optional form up by name: each goes
    # through the table's accessors (calling a form, as in
    # ``oracles.ul_grad_x.rows(x, y)``, is fine).
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in ("at", "rows")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
