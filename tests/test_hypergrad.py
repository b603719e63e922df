import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mobilevel import (
    ConfigurationError,
    DeterministicOracles,
    DivergenceError,
    OracleCounters,
    QuadraticBilevelSpec,
    SolverConfig,
    StochasticOracles,
    build_hypergradient_matrix,
    build_hypergradient_matrix_stochastic,
    counted_oracles,
    hypergrad_cg,
    hypergrad_ns,
    lower_level_solve,
    make_quadratic,
    neumann_batch_sizes,
    stochastic_hvp_neumann,
    wrap_deterministic,
    HESSIAN,
    LL_STEP,
)
from mobilevel.core import PURPOSES
from mobilevel.hypergrad import LL_BLOCK, stochastic_lower_solve


@pytest.fixture(scope="module")
def quadratic():
    spec = QuadraticBilevelSpec.random(3, 4, 3, seed=17, hessian_scale=0.25)
    problem, constants = make_quadratic(spec)
    return spec, problem, constants


def scalar_problem(h, b, c):
    """p = q = 1 bilevel problem: g = h y^2 / 2 - b x y, f = (y - c)^2 / 2.

    y*(x) = (b/h) x and the total derivative is (b/h)((b/h) x - c).
    """
    return DeterministicOracles(
        num_objectives=1, dim_x=1, dim_y=1,
        ul_value=lambda s, x, y: 0.5 * float((y[0] - c) ** 2),
        ul_grad_x=lambda s, x, y: np.zeros(1),
        ul_grad_y=lambda s, x, y: np.array([y[0] - c]),
        ll_grad_y=lambda x, y: np.array([h * y[0] - b * x[0]]),
        ll_hvp=lambda x, y, v: np.array([h * v[0]]),
        ll_jvp=lambda x, y, v: np.array([-b * v[0]]),
    )


def _lower_sgd_problem(n, seen=None):
    """Stochastic bundle with population ``n`` whose lower gradient is y;
    ``seen`` receives the indices of every lower batch.  Only the lower
    solve is exercised."""

    def ll_grad_y(x, y, batch):
        if seen is not None:
            seen.append(batch)
        return y

    return StochasticOracles(
        num_objectives=1, dim_x=1, dim_y=1,
        dataset_sizes={purpose: n for purpose in PURPOSES},
        ul_value=None, ul_grad_x=None, ul_grad_y=None,
        ll_grad_y=ll_grad_y, ll_hvp=None, ll_jvp=None,
    )


class TestLowerLevelSolve:
    def test_fixed_point_unchanged(self, quadratic):
        spec, problem, constants = quadratic
        x = np.array([0.4, -1.0, 0.3])
        y_star = problem.reference.y_star(x)
        y = lower_level_solve(problem, x, y_star, 5, 1.0 / constants.L)
        assert np.abs(y - y_star).max() <= 1e-14

    @pytest.mark.parametrize("depth", [8, 16, 32])
    def test_linear_contraction(self, quadratic, depth):
        spec, problem, constants = quadratic
        alpha = 1.0 / constants.L
        x = np.array([1.0, 0.5, -0.2])
        y_star = problem.reference.y_star(x)  # direct solve of H y = C x
        y0 = np.full(4, 2.0)
        y = lower_level_solve(problem, x, y0, depth, alpha)
        bound = (1.0 - alpha * constants.mu_g) ** depth * np.linalg.norm(y0 - y_star)
        assert np.linalg.norm(y - y_star) <= bound + 1e-12

    def test_zero_gradient_single_step(self):
        problem = scalar_problem(2.0, 1.0, 0.0)
        x = np.array([2.0])
        y_star = np.array([1.0])  # h y = b x  =>  y = x/2
        y = lower_level_solve(problem, x, y_star, 1, 0.3)
        np.testing.assert_array_equal(y, y_star)

    def test_divergence_names_step(self):
        problem = scalar_problem(2.0, 1.0, 0.0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="step"):
            lower_level_solve(problem, np.array([1.0]), np.array([1e300]), 10, 1e280)

    def test_stochastic_divergence_names_step(self):
        # h = 2, step 1e10: each step multiplies y by about -2e10, so 1e290
        # overflows on the second step.
        problem = wrap_deterministic(scalar_problem(2.0, 1.0, 0.0))
        rng = np.random.default_rng(0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match=r"^lower-level iterate diverged at step 2$"
        ):
            stochastic_lower_solve(problem, np.zeros(1), np.array([1e290]), 10, 1e10, 1, rng)

    @pytest.mark.parametrize("size", [63, 65])  # either side of all_finite's sum cap
    def test_stochastic_divergence_names_step_at_size(self, size):
        # Lower gradient 2y, step 1e10: the first step takes 1e297 to about
        # -2e307, finite though the entries' sum overflows; the second
        # overflows every entry.
        problem = StochasticOracles(
            num_objectives=1, dim_x=1, dim_y=size,
            dataset_sizes={purpose: 1 for purpose in PURPOSES},
            ul_value=None, ul_grad_x=None, ul_grad_y=None,
            ll_grad_y=lambda x, y, batch: 2.0 * y, ll_hvp=None, ll_jvp=None,
        )
        rng = np.random.default_rng(0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match=r"^lower-level iterate diverged at step 2$"
        ):
            stochastic_lower_solve(problem, np.zeros(1), np.full(size, 1e297), 10, 1e10, 1, rng)

    @pytest.mark.parametrize("n", [40, 1000])  # key matrices, one choice per batch
    def test_stochastic_blocks_consume_stream_as_one_call(self, n):
        # The lower solve draws its batches a block at a time; across a
        # block boundary the batches and the generator state equal those of
        # one sampler call for every step.
        seen = []
        problem = _lower_sgd_problem(n, seen)
        steps = 2 * LL_BLOCK + 5
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        stochastic_lower_solve(problem, np.zeros(1), np.ones(1), steps, 0.5, 32, rng_a)
        whole = problem.sample(LL_STEP, [32] * steps, rng_b)
        assert len(seen) == steps
        for indices, batch in zip(seen, whole):
            np.testing.assert_array_equal(indices, batch)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_stochastic_memory_bounded_in_steps(self):
        # 100,000 steps hold one block of batches, not 100,000 batches
        # (about 70 MB when drawn at once).
        problem, rng = _lower_sgd_problem(40), np.random.default_rng(9)
        stochastic_lower_solve(problem, np.zeros(1), np.ones(1), 2, 0.5, 32, rng)
        tracemalloc.start()
        try:
            stochastic_lower_solve(problem, np.zeros(1), np.ones(1), 100_000, 0.5, 32, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("stochastic", [False, True])
    @pytest.mark.parametrize("steps, step_size, message", [
        (0, 0.3, "steps"),  # would return y_init unchanged
        (3, -1.0, "step_size"),  # gradient ascent: y = 1 would become 27
        (3, 0.0, "step_size"),
        (3, float("nan"), "step_size"),  # diverged at step 1 instead
        (3, float("inf"), "step_size"),
    ])
    def test_rejects_bad_steps(self, stochastic, steps, step_size, message):
        # Both lower solves take the same arguments and reject the same values.
        problem = scalar_problem(2.0, 1.0, 0.0)
        x, y0 = np.zeros(1), np.ones(1)
        with pytest.raises(ValueError, match=message):
            if stochastic:
                stochastic_lower_solve(
                    wrap_deterministic(problem), x, y0, steps, step_size, 1,
                    np.random.default_rng(0),
                )
            else:
                lower_level_solve(problem, x, y0, steps, step_size)

    def test_trajectory_layout(self, quadratic):
        _, problem, constants = quadratic
        trajectory = []
        y = lower_level_solve(problem, np.zeros(3), np.ones(4), 6, 0.5, trajectory)
        assert len(trajectory) == 7
        assert np.array_equal(trajectory[0], np.ones(4))
        assert trajectory[-1] is y
        assert np.array_equal(y, lower_level_solve(problem, np.zeros(3), np.ones(4), 6, 0.5))

    def test_counts_gradient_calls(self, quadratic):
        _, problem, _ = quadratic
        counters = OracleCounters()
        counted = counted_oracles(problem, counters)
        lower_level_solve(counted, np.zeros(3), np.zeros(4), 9, 0.4)
        assert counters.as_tuple() == (0, 9, 0, 0)


class TestHypergradCg:
    def test_zero_upper_gradient(self, quadratic):
        # grad_y f == 0 with a zero start leaves only grad_x f.
        spec, problem, constants = quadratic
        x = np.array([0.2, 0.1, -0.5])
        zeroed = replace(problem, ul_grad_y=lambda s, x, y: np.zeros(4))
        grad, v = hypergrad_cg(zeroed, x, np.ones(4), 0, None, 4)
        np.testing.assert_array_equal(grad, problem.ul_grad_x(0, x, np.ones(4)))
        np.testing.assert_array_equal(v, np.zeros(4))

    def test_matches_analytic_after_deep_solve(self, quadratic):
        spec, problem, constants = quadratic
        x = np.array([1.0, -0.3, 0.4])
        y_d = lower_level_solve(problem, x, np.zeros(4), 200, 1.0 / constants.L)
        analytic = problem.reference.grad_phi(x)
        for s in range(3):
            grad, _ = hypergrad_cg(problem, x, y_d, s, None, 4)
            rel = np.linalg.norm(grad - analytic[:, s]) / np.linalg.norm(analytic[:, s])
            assert rel <= 1e-6

    def test_scalar_closed_form(self):
        # g = h y^2/2 - b x y, f = (y-c)^2/2: total derivative
        # (b/h)((b/h) x - c); one CG step suffices in one dimension.
        h, b, c = 2.0, 1.5, 0.7
        problem = scalar_problem(h, b, c)
        x = np.array([1.3])
        y_star = np.array([b / h * x[0]])
        grad, _ = hypergrad_cg(problem, x, y_star, 0, None, 1)
        expected = (b / h) * ((b / h) * x[0] - c)
        assert grad[0] == pytest.approx(expected, abs=1e-12)

    def test_call_budget_fresh_and_warm(self, quadratic):
        _, problem, _ = quadratic
        counters = OracleCounters()
        counted = counted_oracles(problem, counters)
        x, y = np.zeros(3), np.ones(4)
        hypergrad_cg(counted, x, y, 0, None, 5)
        # One grad_x, one grad_y, one Jacobian product, five Hessian products.
        assert counters.as_tuple() == (2, 0, 1, 5)
        counters = OracleCounters()
        counted = counted_oracles(problem, counters)
        hypergrad_cg(counted, x, y, 0, np.ones(4), 5)
        # Warm start costs the same: initial residual plus four updates.
        assert counters.as_tuple() == (2, 0, 1, 5)


class TestHypergradNs:
    def test_zero_upper_gradient(self, quadratic):
        spec, problem, constants = quadratic
        x = np.array([0.2, 0.1, -0.5])
        zeroed = replace(problem, ul_grad_y=lambda s, x, y: np.zeros(4))
        trajectory = []
        y_d = lower_level_solve(zeroed, x, np.zeros(4), 10, 0.5, trajectory)
        grad = hypergrad_ns(zeroed, x, trajectory, 0, 0.5)
        np.testing.assert_array_equal(grad, problem.ul_grad_x(0, x, y_d))

    def test_requires_trajectory(self, quadratic):
        _, problem, _ = quadratic
        with pytest.raises(ValueError, match="trajectory"):
            hypergrad_ns(problem, np.zeros(3), [], 0, 0.5)

    @pytest.mark.parametrize("depth", [5, 20, 60])
    def test_scalar_geometric_series(self, depth):
        # Constant Hessian h at the exact solution: the series sums to
        # alpha * sum_{m=0..D} (1-alpha h)^m = (1 - (1-alpha h)^{D+1}) / h,
        # so the error against the closed form is bounded by
        # (b/h)|y*-c| (1-alpha h)^D.
        h, b, c = 2.0, 1.5, 0.7
        alpha = 0.3
        problem = scalar_problem(h, b, c)
        x = np.array([1.3])
        y_star = np.array([b / h * x[0]])
        trajectory = []
        lower_level_solve(problem, x, y_star, depth, alpha, trajectory)
        grad = hypergrad_ns(problem, x, trajectory, 0, alpha)
        analytic = (b / h) * ((b / h) * x[0] - c)
        cap = abs((b / h) * (y_star[0] - c)) * (1.0 - alpha * h) ** depth
        assert abs(grad[0] - analytic) <= cap + 1e-15

    def test_agrees_with_cg(self, quadratic):
        spec, problem, constants = quadratic
        alpha = 1.0 / constants.L
        x = np.array([0.7, -0.8, 0.1])
        trajectory = []
        y_d = lower_level_solve(problem, x, np.zeros(4), 200, alpha, trajectory)
        for s in range(3):
            ns = hypergrad_ns(problem, x, trajectory, s, alpha)
            cg, _ = hypergrad_cg(problem, x, y_d, s, None, 4)
            assert np.linalg.norm(ns - cg) <= 1e-5

    def test_call_budget(self, quadratic):
        _, problem, _ = quadratic
        counters = OracleCounters()
        counted = counted_oracles(problem, counters)
        depth = 7
        trajectory = []
        lower_level_solve(counted, np.zeros(3), np.zeros(4), depth, 0.5, trajectory)
        hypergrad_ns(counted, np.zeros(3), trajectory, 0, 0.5)
        assert counters.as_tuple() == (2, depth, depth + 1, depth + 1)

    def test_bias_decays_at_contraction_rate(self):
        # Errors at doubling trajectory depths shrink at least as fast as
        # eight extra contraction steps (plus slack).
        spec = QuadraticBilevelSpec.random(4, 5, 2, seed=1, hessian_scale=0.15)
        problem, constants = make_quadratic(spec)
        alpha = 1.0 / constants.L
        bound = (1.0 - alpha * constants.mu_g) ** 8 + 0.05
        x = np.array([1.0, -0.5, 0.8, 0.2])
        y0 = np.full(5, 3.0)
        errors = []
        for depth in (8, 16, 32, 64):
            trajectory = []
            lower_level_solve(problem, x, y0, depth, alpha, trajectory)
            worst = 0.0
            for s in range(2):
                grad = hypergrad_ns(problem, x, trajectory, s, alpha)
                worst = max(
                    worst,
                    float(np.linalg.norm(grad - problem.reference.grad_phi(x)[:, s])),
                )
            errors.append(worst)
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert all(b <= bound * a for a, b in zip(errors, errors[1:]))


class TestFiniteDifferenceConsistency:
    def test_cg_matches_central_differences(self, quadratic):
        from mobilevel import finite_diff_hypergrad

        spec, problem, constants = quadratic
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3)
        y_d = lower_level_solve(problem, x, np.zeros(4), 400, 1.0 / constants.L)
        for s in range(3):
            cg, _ = hypergrad_cg(problem, x, y_d, s, None, 4)
            fd = finite_diff_hypergrad(problem, x, s, h=1e-5)
            assert np.abs(cg - fd).max() <= 1e-4


def constant_hessian_oracles(h):
    q = h.shape[0]
    det = DeterministicOracles(
        num_objectives=1, dim_x=1, dim_y=q,
        ul_value=lambda s, x, y: 0.0,
        ul_grad_x=lambda s, x, y: np.zeros(1),
        ul_grad_y=lambda s, x, y: np.zeros(q),
        ll_grad_y=lambda x, y: h @ y,
        ll_hvp=lambda x, y, v: h @ v,
        ll_jvp=lambda x, y, v: np.zeros(1),
    )
    return wrap_deterministic(det)


class TestStochasticHvp:
    def test_zero_seed_gives_zero(self):
        st = constant_hessian_oracles(np.diag([1.0, 2.0]))
        batches = [st.full_batch(HESSIAN)] * 4
        out = stochastic_hvp_neumann(st, np.zeros(1), np.zeros(2), np.zeros(2), 4, 0.3, batches)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_eta_h_identity_truncates_immediately(self):
        # eta * H = I: the first damping annihilates the iterate, so the
        # output is eta * v0 = H^{-1} v0 exactly.
        eta = 0.5
        h = np.eye(3) / eta
        st = constant_hessian_oracles(h)
        v0 = np.array([1.0, -2.0, 0.5])
        batches = [st.full_batch(HESSIAN)] * 6
        out = stochastic_hvp_neumann(st, np.zeros(1), np.zeros(3), v0, 6, eta, batches)
        np.testing.assert_allclose(out, eta * v0, atol=1e-15)
        np.testing.assert_allclose(out, np.linalg.solve(h, v0), atol=1e-15)

    @pytest.mark.parametrize("q_steps", [10, 20, 40])
    def test_truncated_series_and_inverse_bound(self, q_steps):
        h = np.diag([1.0, 2.0, 5.0])
        eta, mu, l_const = 0.19, 1.0, 5.0
        st = constant_hessian_oracles(h)
        v0 = np.array([1.0, -2.0, 0.5])
        batches = [st.full_batch(HESSIAN)] * q_steps
        out = stochastic_hvp_neumann(st, np.zeros(1), np.zeros(3), v0, q_steps, eta, batches)
        series = eta * sum(
            np.linalg.matrix_power(np.eye(3) - eta * h, m) @ v0
            for m in range(q_steps + 1)
        )
        np.testing.assert_allclose(out, series, atol=1e-12)
        h_inv_v = np.linalg.solve(h, v0)
        bound = (1 - eta * mu) ** (q_steps + 1) * np.linalg.norm(h_inv_v) * (l_const / mu)
        assert np.linalg.norm(out - h_inv_v) <= bound

    def test_batch_size_schedule(self):
        # ceil(B Q (1 - eta mu)^(Q-i)) for i = 1..Q, floored at one.
        sizes = neumann_batch_sizes(4, 6, 0.19, 1.0)
        decay = 1.0 - 0.19
        expected = [max(1, int(np.ceil(4 * 6 * decay ** (6 - i)))) for i in range(1, 7)]
        assert sizes == expected
        assert sizes[-1] == 24  # largest batch applied first in the recursion
        tiny = neumann_batch_sizes(1, 50, 0.9, 1.0)
        assert min(tiny) == 1

    def test_empty_batch_rejected(self):
        st = constant_hessian_oracles(np.eye(2))
        batches = [np.array([], dtype=np.int64)]
        with pytest.raises(ConfigurationError):
            stochastic_hvp_neumann(st, np.zeros(1), np.zeros(2), np.ones(2), 1, 0.3, batches)

    def test_wrong_batch_count_rejected(self):
        st = constant_hessian_oracles(np.eye(2))
        batches = [st.full_batch(HESSIAN)] * 2
        with pytest.raises(ConfigurationError):
            stochastic_hvp_neumann(st, np.zeros(1), np.zeros(2), np.ones(2), 3, 0.3, batches)

    def test_random_batches_unbiased(self):
        # Independent batches factorize in expectation, so averaging many
        # draws approaches the full-batch output within sampling error.
        rng_data = np.random.default_rng(4)
        n, q = 60, 3
        samples = np.array([np.eye(q) * (1.0 + 0.3 * rng_data.standard_normal()) for _ in range(n)])

        from mobilevel import StochasticOracles

        def hvp(x, y, v, batch):
            return samples[batch].mean(axis=0) @ v

        st = StochasticOracles(
            num_objectives=1, dim_x=1, dim_y=q,
            dataset_sizes={HESSIAN: n, "ll_step": n, "jacobian": n, "ul": n},
            ul_value=lambda s, x, y, b: 0.0,
            ul_grad_x=lambda s, x, y, b: np.zeros(1),
            ul_grad_y=lambda s, x, y, b: np.zeros(q),
            ll_grad_y=lambda x, y, b: y,
            ll_hvp=hvp,
            ll_jvp=lambda x, y, v, b: np.zeros(1),
        )
        v0 = np.array([1.0, 0.5, -0.5])
        eta, q_steps = 0.2, 5
        full = [st.full_batch(HESSIAN)] * q_steps
        reference = stochastic_hvp_neumann(st, np.zeros(1), np.zeros(q), v0, q_steps, eta, full)
        rng = np.random.default_rng(9)
        draws = []
        for _ in range(200):
            batches = st.sample(HESSIAN, [12] * q_steps, rng)
            draws.append(
                stochastic_hvp_neumann(st, np.zeros(1), np.zeros(q), v0, q_steps, eta, batches)
            )
        draws = np.array(draws)
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(mean - reference) <= 3.0 * stderr + 1e-12)


class TestBuildMatrix:
    def test_single_objective_equals_cg(self):
        spec = QuadraticBilevelSpec.random(3, 4, 1, seed=2, hessian_scale=0.25)
        problem, constants = make_quadratic(spec)
        config = SolverConfig(D=30, N=4, option="cg", alpha=1.0 / constants.L,
                              beta=0.1, eta=0.1)
        x = np.array([0.5, -0.5, 1.0])
        y_d = lower_level_solve(problem, x, np.zeros(4), 30, config.alpha)
        matrix, warm = build_hypergradient_matrix(problem, x, [y_d], config, [None])
        grad, v = hypergrad_cg(problem, x, y_d, 0, None, 4)
        np.testing.assert_array_equal(matrix.grads[:, 0], grad)
        np.testing.assert_array_equal(warm[0], v)
        assert matrix.phi_values[0] == problem.ul_value(0, x, y_d)

    def test_three_objectives_match_analytic(self):
        spec = QuadraticBilevelSpec.random(4, 5, 3, seed=3, hessian_scale=0.25)
        problem, constants = make_quadratic(spec)
        config = SolverConfig(D=200, N=5, option="cg", alpha=1.0 / constants.L,
                              beta=0.1, eta=0.1)
        x = np.array([1.0, 0.2, -0.7, 0.4])
        y_d = lower_level_solve(problem, x, np.zeros(5), 200, config.alpha)
        matrix, _ = build_hypergradient_matrix(problem, x, [y_d], config, [None] * 3)
        analytic = problem.reference.grad_phi(x)
        for s in range(3):
            rel = np.linalg.norm(matrix.grads[:, s] - analytic[:, s])
            rel /= np.linalg.norm(analytic[:, s])
            assert rel <= 1e-6

    def test_stochastic_full_batch_matches_deterministic(self):
        spec = QuadraticBilevelSpec.random(3, 4, 2, seed=4, hessian_scale=0.2)
        problem, constants = make_quadratic(spec)
        stochastic = wrap_deterministic(problem)
        alpha = 1.0 / constants.L
        config = SolverConfig(D=200, N=4, Q=200, option="cg", alpha=alpha,
                              beta=0.1, eta=alpha)
        x = np.array([0.8, -0.1, 0.6])
        y_d = lower_level_solve(problem, x, np.zeros(4), 200, alpha)
        det_matrix, _ = build_hypergradient_matrix(problem, x, [y_d], config, [None] * 2)
        rng = np.random.default_rng(0)
        sizes = neumann_batch_sizes(config.B, config.Q, config.eta, constants.mu_g)
        st_matrix = build_hypergradient_matrix_stochastic(
            stochastic, x, y_d, config, rng, sizes
        )
        assert np.abs(st_matrix.grads - det_matrix.grads).max() <= 1e-4
        np.testing.assert_allclose(st_matrix.phi_values, det_matrix.phi_values, atol=1e-12)
