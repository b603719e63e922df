import numpy as np
import pytest

from mobilevel import (
    ConfigurationError,
    DeterministicOracles,
    HESSIAN,
    InvalidProblemError,
    OracleCounters,
    Preference,
    ProblemConstants,
    QuadraticBilevelSpec,
    SimplexWeights,
    SolverConfig,
    counted_oracles,
    make_quadratic,
    validate_problem,
    wrap_deterministic,
)


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

    def test_smoothness_upper_without_value_bound(self):
        # With constant Hessians (tau = rho = 0) no value bound is needed.
        constants = ProblemConstants(mu_g=0.5, L=2.0, tau=0.0, rho=0.0)
        expected = 2.0 + 2 * 4.0 / 0.5 + 8.0 / 0.25
        assert constants.smoothness_upper() == pytest.approx(expected)

    def test_smoothness_upper_unknown(self):
        assert ProblemConstants(mu_g=0.5, L=2.0).smoothness_upper() is None
        assert ProblemConstants(mu_g=0.5, L=2.0, tau=1.0, rho=0.0).smoothness_upper() is None

    def test_default_steps(self):
        constants = ProblemConstants(mu_g=0.5, L=2.0, tau=0.0, rho=0.0)
        assert constants.default_ll_step() == pytest.approx(0.5)
        l_phi = constants.smoothness_upper()
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
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigurationError):
            SolverConfig(**{field: value})

    def test_resolved_fills_steps(self):
        constants = ProblemConstants(mu_g=0.5, L=2.0, tau=0.0, rho=0.0)
        resolved = SolverConfig().resolved(constants, r_max=0.5)
        assert resolved.alpha == pytest.approx(0.5)
        assert resolved.eta == pytest.approx(0.5)
        assert resolved.beta == pytest.approx(constants.default_ul_step(0.5))

    def test_resolved_requires_constants(self):
        with pytest.raises(ConfigurationError):
            SolverConfig().resolved(None)

    def test_explicit_steps_win(self):
        constants = ProblemConstants(mu_g=0.5, L=2.0, tau=0.0, rho=0.0)
        resolved = SolverConfig(alpha=0.1, beta=0.2, eta=0.3).resolved(constants)
        assert (resolved.alpha, resolved.beta, resolved.eta) == (0.1, 0.2, 0.3)

    def test_stochastic_batch_floor(self):
        config = SolverConfig(B=1, Q=1, eta=0.5)
        config.validate_stochastic(1.0)  # 1 * 1 * (1-0.5)^0 = 1, allowed
        bad = SolverConfig(B=1, Q=40, eta=0.9)
        with pytest.raises(ConfigurationError):
            bad.validate_stochastic(1.0)


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
        diag = validate_problem(problem, rng.standard_normal(3), rng.standard_normal(4), probes=8)
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

    def test_sampler_reproducible(self, quadratic):
        _, problem, _ = quadratic
        stochastic = wrap_deterministic(problem)
        state = np.random.default_rng(5).bit_generator.state
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(0)
        rng_b.bit_generator.state = state
        a = stochastic.sample("ll_step", 1, rng_a)
        b = stochastic.sample("ll_step", 1, rng_b)
        assert a.purpose == b.purpose
        assert np.array_equal(a.indices, b.indices)


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
