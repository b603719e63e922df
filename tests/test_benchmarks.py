import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilevel import (
    HypercleaningToySpec,
    InvalidProblemError,
    OracleFailureError,
    DEFAULT_CORRUPTION_RATES,
    Preference,
    QuadraticBilevelSpec,
    SolverConfig,
    UnsupportedProblemError,
    brute_force_min_norm,
    brute_force_simplex_min,
    finite_diff_hypergrad,
    hypergrad_cg,
    hypergrad_ns,
    lower_level_solve,
    make_hypercleaning_toy,
    make_quadratic,
    run_stochastic,
    validate_problem,
)
from mobilevel.benchmarks import _hypercleaning_data


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class TestQuadraticFamily:
    def test_scalar_instance_closed_form(self):
        # H = (2), C = (2): y*(x) = x; with both targets at zero,
        # phi(x) = x^2 and its derivative is 2x.
        spec = QuadraticBilevelSpec(
            dim_x=1, dim_y=1, num_objectives=1,
            hessian=np.array([[2.0]]), coupling=np.array([[2.0]]),
            x_targets=np.zeros((1, 1)), y_targets=np.zeros((1, 1)),
        )
        problem, _ = make_quadratic(spec)
        for x_val in (-1.5, 0.3, 2.0):
            x = np.array([x_val])
            assert problem.reference.y_star(x)[0] == pytest.approx(x_val)
            assert problem.reference.phi(x)[0] == pytest.approx(x_val**2)
            assert problem.reference.grad_phi(x)[0, 0] == pytest.approx(2 * x_val)

    def test_joint_stationary_point(self):
        spec = QuadraticBilevelSpec.random(3, 4, 2, seed=0)
        spec = QuadraticBilevelSpec(
            dim_x=3, dim_y=4, num_objectives=2,
            hessian=spec.hessian, coupling=spec.coupling,
            x_targets=np.zeros((2, 3)), y_targets=np.zeros((2, 4)),
        )
        problem, _ = make_quadratic(spec)
        grad = problem.reference.grad_phi(np.zeros(3))
        np.testing.assert_allclose(grad, np.zeros((3, 2)), atol=1e-15)

    def test_implicit_formula_matches_analytic(self):
        # Two independent routes to the total derivative: the analytic
        # expression and the first-order system solved at the exact lower
        # solution.
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(100):
            p = int(rng.integers(1, 5))
            q = int(rng.integers(1, 6))
            s_count = int(rng.integers(1, 4))
            spec = QuadraticBilevelSpec.random(p, q, s_count, seed=trial)
            problem, _ = make_quadratic(spec)
            x = rng.standard_normal(p)
            y_star = problem.reference.y_star(x)
            analytic = problem.reference.grad_phi(x)
            for s in range(s_count):
                v = np.linalg.solve(spec.hessian, problem.ul_grad_y(s, x, y_star))
                implicit = problem.ul_grad_x(s, x, y_star) - problem.ll_jvp(x, y_star, v)
                worst = max(worst, float(np.abs(implicit - analytic[:, s]).max()))
        assert worst <= 1e-10

    @pytest.mark.parametrize("field, value", [
        ("dim_x", True), ("dim_y", 2.0), ("num_objectives", np.True_),
        ("num_objectives", 0), ("dim_y", 2.5),
    ])
    def test_rejects_bad_counts(self, field, value):
        spec = QuadraticBilevelSpec.random(2, 2, 2, seed=0)
        with pytest.raises(InvalidProblemError, match=f"{field} must be an integer"):
            replace(spec, **{field: value})

    @pytest.mark.parametrize("args, field", [
        ((2.5, 2, 2, 0), "dim_x"), ((2, True, 2, 0), "dim_y"),
        ((2, 2, 0, 0), "num_objectives"), ((2, 2, 2, 1.5), "seed"),
        ((2, 2, 2, -1), "seed"),
    ])
    def test_random_rejects_bad_counts(self, args, field):
        with pytest.raises(InvalidProblemError, match=f"{field} must be an integer"):
            QuadraticBilevelSpec.random(*args)

    def test_numpy_integer_counts_accepted(self):
        spec = QuadraticBilevelSpec.random(np.int64(2), 3, np.int32(2), seed=np.uint8(1))
        assert (spec.dim_x, spec.dim_y, spec.num_objectives) == (2, 3, 2)

    def test_non_spd_hessian_rejected(self):
        # Eigenvalues of [[1, 2], [2, 1]] are 3 and -1 (direct computation).
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert np.linalg.eigvalsh(bad).min() == pytest.approx(-1.0)
        with pytest.raises(InvalidProblemError):
            QuadraticBilevelSpec(
                dim_x=2, dim_y=2, num_objectives=1,
                hessian=bad, coupling=np.zeros((2, 2)),
                x_targets=np.zeros((1, 2)), y_targets=np.zeros((1, 2)),
            )

    def test_constants(self):
        spec = QuadraticBilevelSpec.random(3, 4, 2, seed=9)
        problem, constants = make_quadratic(spec)
        eigs = np.linalg.eigvalsh(spec.hessian)
        assert constants.mu_g == pytest.approx(eigs.min())
        assert constants.L >= max(1.0, eigs.max()) - 1e-12
        sigma = np.linalg.svd(np.linalg.solve(spec.hessian, spec.coupling), compute_uv=False)
        assert constants.L_phi == pytest.approx(1.0 + sigma[0] ** 2, rel=1e-12)
        assert problem.constants is constants

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        hessian_scale=st.floats(0.0, 1e3),
        coupling_scale=st.floats(0.0, 100.0),
    )
    def test_l_phi_is_exact(self, dims, seed, hessian_scale, coupling_scale):
        # Phi_s(x) = 0.5 ||x - xt_s||^2 + 0.5 ||W x - yt_s||^2 with
        # W = H^{-1} C has the Hessian I + W'W.  So the stated L_phi bounds
        # the reference gradient's Lipschitz ratio on every pair, and a step
        # along W's top right singular vector attains it.
        p, q, s = dims
        spec = QuadraticBilevelSpec.random(
            p, q, s, seed=seed, hessian_scale=hessian_scale, coupling_scale=coupling_scale
        )
        problem, constants = make_quadratic(spec)
        grad_phi = problem.reference.grad_phi
        l_phi = constants.L_phi
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x1, x2 = rng.standard_normal(p), rng.standard_normal(p)
            ratios = np.linalg.norm(grad_phi(x1) - grad_phi(x2), axis=0) / np.linalg.norm(x1 - x2)
            assert (ratios <= l_phi * (1.0 + 1e-12)).all()
        top = np.linalg.svd(np.linalg.solve(spec.hessian, spec.coupling))[2][0]
        x = rng.standard_normal(p)
        attained = np.linalg.norm(grad_phi(x + top) - grad_phi(x), axis=0)
        np.testing.assert_allclose(attained, l_phi, rtol=1e-12)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_coupling_columns_are_ul_grad_x(self, dims, seed):
        # Without coupling y* does not depend on x: L_phi is exactly 1, and
        # every cg and ns column is ul_grad_x at the lower iterate, whatever
        # the lower solve and CG reached.
        p, q, s = dims
        spec = QuadraticBilevelSpec.random(p, q, s, seed=seed)
        spec = replace(spec, coupling=np.zeros((q, p)))
        problem, constants = make_quadratic(spec)
        assert constants.L_phi == 1.0
        rng = np.random.default_rng(seed)
        x = _read_only(rng.standard_normal(p))
        alpha = constants.default_ll_step()
        trajectory = []
        lower_level_solve(problem, x, rng.standard_normal(q), 4, alpha, trajectory)
        y_d = trajectory[-1]
        for k in range(s):
            expected = problem.ul_grad_x(k, x, y_d).tobytes()
            cg, _ = hypergrad_cg(problem, x, y_d, k, rng.standard_normal(q), 3)
            assert cg.tobytes() == expected
            assert hypergrad_ns(problem, x, trajectory, k, alpha).tobytes() == expected

    @pytest.mark.parametrize("seed, scale", [(2, 1e60), (1, 1e100)])
    def test_one_dimensional_lower_level_at_large_scale(self, seed, scale):
        # eigvalsh rounds the joint norm below mu_g here; L is floored at
        # mu_g.  ||W||^2 is below 1e-200, so L_phi rounds to exactly 1.
        spec = QuadraticBilevelSpec.random(3, 1, 2, seed=seed, hessian_scale=scale)
        _, constants = make_quadratic(spec)
        assert constants.L == constants.mu_g == float(spec.hessian[0, 0])
        assert constants.L_phi == 1.0

    def test_validate_clean(self):
        spec = QuadraticBilevelSpec.random(4, 4, 2, seed=11)
        problem, _ = make_quadratic(spec)
        diag = validate_problem(problem, np.zeros(4), np.zeros(4))
        assert diag.max_residual() <= 1e-10

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        dims=st.sampled_from([(3, 3, 2), (2, 3, 1), (50, 50, 3), (7, 50, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_jvp_bitwise_matches_negated_transpose(self, dims, seed):
        p, q, s = dims
        spec = QuadraticBilevelSpec.random(p, q, s, seed=seed)
        problem, _ = make_quadratic(spec)
        rng = np.random.default_rng(seed)
        x = _read_only(rng.standard_normal(p))
        y = _read_only(rng.standard_normal(q))
        for scale in (1e-3, 1.0, 30.0):
            v = _read_only(scale * rng.standard_normal(q))
            assert np.array_equal(problem.ll_jvp(x, y, v), -spec.coupling.T @ v)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 80), st.integers(1, 80), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_bitwise_match_matmul(self, dims, seed):
        # The oracles and the reference use ndarray.dot, which skips the
        # matmul dispatch; both reach the same BLAS routine, so every result
        # equals its @ form bit for bit, including the F-ordered -C^T and the
        # 2-d product in grad_phi.
        p, q, s = dims
        spec = QuadraticBilevelSpec.random(p, q, s, seed=seed)
        problem, _ = make_quadratic(spec)
        h, c = spec.hessian, spec.coupling
        neg_ct = -c.T
        w = np.linalg.inv(h) @ c
        xt, yt = spec.x_targets, spec.y_targets
        rng = np.random.default_rng(seed)
        x = _read_only(rng.standard_normal(p))
        y = _read_only(rng.standard_normal(q))
        v = _read_only(rng.standard_normal(q))
        assert np.array_equal(problem.ll_grad_y(x, y), h @ y - c @ x)
        assert np.array_equal(problem.ll_hvp(x, y, v), h @ v)
        assert np.array_equal(problem.ll_jvp(x, y, v), neg_ct @ v)
        for k in range(s):
            dx, dy = x - xt[k], y - yt[k]
            assert problem.ul_value(k, x, y) == 0.5 * float(dx @ dx) + 0.5 * float(dy @ dy)
        ref = problem.reference
        ys = w @ x
        assert np.array_equal(ref.y_star(x), ys)
        dx, dy = x[None, :] - xt, ys[None, :] - yt
        assert np.array_equal(
            ref.phi(x), 0.5 * np.sum(dx * dx, axis=1) + 0.5 * np.sum(dy * dy, axis=1)
        )
        assert np.array_equal(ref.grad_phi(x), (dx + dy @ w).T)


def _reference_oracles(spec):
    """The hyper-cleaning oracles as plain fancy-indexed NumPy expressions.

    The shipped kernels gather and update in place; these bodies are the
    straightforward form they must match bit for bit.
    """
    x_train, t_train, x_val, t_val = _hypercleaning_data(spec)
    s_count, d, n_tr = spec.num_objectives, spec.feature_dim, spec.n_train
    reg = spec.reg_weight

    def sigmoid(z):
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    def ll_grad_y(x, y, idx):
        w_all = y.reshape(s_count, d)
        sw = sigmoid(x.reshape(s_count, n_tr)[:, idx])
        features = x_train[:, idx, :]
        mu = sigmoid(np.einsum("sbd,sd->sb", features, w_all))
        resid = sw * (mu - t_train[:, idx])
        grads = np.einsum("sb,sbd->sd", resid, features) / (s_count * idx.size)
        return (grads + reg * w_all).reshape(-1)

    def ll_hvp(x, y, v, idx):
        w_all = y.reshape(s_count, d)
        v_all = v.reshape(s_count, d)
        sw = sigmoid(x.reshape(s_count, n_tr)[:, idx])
        features = x_train[:, idx, :]
        mu = sigmoid(np.einsum("sbd,sd->sb", features, w_all))
        curv = sw * mu * (1.0 - mu)
        fv = np.einsum("sbd,sd->sb", features, v_all)
        out = np.einsum("sb,sbd->sd", curv * fv, features) / (s_count * idx.size)
        return (out + reg * v_all).reshape(-1)

    def ll_jvp(x, y, v, idx):
        w_all = y.reshape(s_count, d)
        v_all = v.reshape(s_count, d)
        sw = sigmoid(x.reshape(s_count, n_tr)[:, idx])
        features = x_train[:, idx, :]
        mu = sigmoid(np.einsum("sbd,sd->sb", features, w_all))
        fv = np.einsum("sbd,sd->sb", features, v_all)
        contrib = sw * (1.0 - sw) * (mu - t_train[:, idx]) * fv / (s_count * idx.size)
        out = np.zeros((s_count, n_tr))
        out[:, idx] = contrib
        return out.reshape(-1)

    def ul_value(s, x, y, idx):
        z = x_val[s, idx, :] @ y.reshape(s_count, d)[s]
        return float(np.mean(np.logaddexp(0.0, z) - t_val[s, idx] * z))

    def ul_grad_y(s, x, y, idx):
        w_s = y.reshape(s_count, d)[s]
        mu = sigmoid(x_val[s, idx, :] @ w_s)
        out = np.zeros((s_count, d))
        out[s] = (mu - t_val[s, idx]) @ x_val[s, idx, :] / idx.size
        return out.reshape(-1)

    return ll_grad_y, ll_hvp, ll_jvp, ul_value, ul_grad_y


@st.composite
def hypercleaning_cases(draw):
    spec = HypercleaningToySpec(
        feature_dim=draw(st.integers(1, 6)),
        n_train=draw(st.integers(1, 24)),
        n_val=draw(st.integers(1, 8)),
        corruption_rates=(0.0, 0.3, 0.5)[: draw(st.integers(1, 3))],
        seed=draw(st.integers(0, 2**16)),
    )
    scales = draw(st.tuples(*[st.sampled_from([1e-3, 1.0, 30.0])] * 3))
    sizes = (draw(st.integers(1, spec.n_train)), draw(st.integers(1, spec.n_val)))
    return spec, scales, sizes, draw(st.integers(0, 2**32 - 1))


@pytest.fixture(scope="module")
def toy():
    spec = HypercleaningToySpec(
        feature_dim=4, n_train=30, n_val=30,
        corruption_rates=(0.0, 0.3, 0.5), seed=3,
    )
    problem, constants = make_hypercleaning_toy(spec)
    return spec, problem, constants


class TestHypercleaningToy:
    def test_default_rate_preset(self):
        spec = HypercleaningToySpec(
            feature_dim=5, n_train=40, n_val=40, corruption_rates=DEFAULT_CORRUPTION_RATES,
        )
        assert spec.corruption_rates == DEFAULT_CORRUPTION_RATES
        assert spec.num_objectives == 5

    def test_rejects_bad_rates(self):
        with pytest.raises(InvalidProblemError):
            HypercleaningToySpec(feature_dim=3, n_train=10, n_val=10,
                                 corruption_rates=(0.2, 1.0))
        with pytest.raises(InvalidProblemError):
            HypercleaningToySpec(feature_dim=3, n_train=10, n_val=10,
                                 corruption_rates=(0.2,), reg_weight=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("feature_dim", 0), ("n_train", 0), ("n_val", 0), ("seed", -1),
         ("feature_dim", True), ("n_train", 2.5), ("n_val", np.float64(3.0)),
         ("seed", 1.5), ("seed", False)],
    )
    def test_rejects_bad_sizes_and_seed(self, field, value):
        sizes = dict(feature_dim=3, n_train=10, n_val=10, seed=0)
        sizes[field] = value
        with pytest.raises(InvalidProblemError, match=field):
            HypercleaningToySpec(corruption_rates=(0.2,), **sizes)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hypercleaning_cases())
    def test_oracles_bitwise_match_reference(self, case):
        # The inputs are read-only, so an in-place write to one raises.
        spec, (x_scale, y_scale, v_scale), (size, val_size), seed = case
        problem, _ = make_hypercleaning_toy(spec)
        ref_grad, ref_hvp, ref_jvp, ref_ul_value, ref_ul_grad = _reference_oracles(spec)
        rng = np.random.default_rng(seed)
        x = _read_only(x_scale * rng.standard_normal(problem.dim_x))
        y = _read_only(y_scale * rng.standard_normal(problem.dim_y))
        v = _read_only(v_scale * rng.standard_normal(problem.dim_y))
        idx = _read_only(np.sort(rng.choice(spec.n_train, size, replace=False)))
        val = _read_only(np.sort(rng.choice(spec.n_val, val_size, replace=False)))
        full = problem.full_batch("ll_step")
        det = problem.deterministic()
        for batch in (idx, full):
            assert np.array_equal(problem.ll_grad_y(x, y, batch), ref_grad(x, y, batch))
            assert np.array_equal(problem.ll_hvp(x, y, v, batch), ref_hvp(x, y, v, batch))
            assert np.array_equal(problem.ll_jvp(x, y, v, batch), ref_jvp(x, y, v, batch))
        assert np.array_equal(det.ll_grad_y(x, y), ref_grad(x, y, full))
        assert np.array_equal(det.ll_hvp(x, y, v), ref_hvp(x, y, v, full))
        assert np.array_equal(det.ll_jvp(x, y, v), ref_jvp(x, y, v, full))
        for s in range(spec.num_objectives):
            assert problem.ul_value(s, x, y, val) == ref_ul_value(s, x, y, val)
            assert np.array_equal(problem.ul_grad_y(s, x, y, val), ref_ul_grad(s, x, y, val))

    def test_curvature_floor_is_reg_weight(self, toy):
        spec, problem, constants = toy
        assert constants.mu_g == spec.reg_weight
        rng = np.random.default_rng(0)
        det = problem.deterministic()
        diag = validate_problem(
            det, 0.5 * rng.standard_normal(problem.dim_x),
            0.5 * rng.standard_normal(problem.dim_y),
        )
        assert diag.rayleigh_min >= spec.reg_weight - 1e-12
        assert diag.max_residual() <= 1e-10

    def test_full_batch_bitwise_deterministic(self, toy):
        spec, problem, _ = toy
        det = problem.deterministic()
        rng = np.random.default_rng(1)
        x = 0.3 * rng.standard_normal(problem.dim_x)
        y = 0.3 * rng.standard_normal(problem.dim_y)
        v = rng.standard_normal(problem.dim_y)
        for purpose in ("ll_step", "hessian"):
            batch = problem.full_batch(purpose)
            assert np.array_equal(problem.ll_grad_y(x, y, batch), det.ll_grad_y(x, y))
            assert np.array_equal(problem.ll_hvp(x, y, v, batch), det.ll_hvp(x, y, v))
        jac = problem.full_batch("jacobian")
        assert np.array_equal(problem.ll_jvp(x, y, v, jac), det.ll_jvp(x, y, v))
        val = problem.full_batch("ul")
        for s in range(3):
            assert problem.ul_value(s, x, y, val) == det.ul_value(s, x, y)

    def test_oracle_calculus_consistent(self, toy):
        # The second-order oracles are the derivatives of the first-order
        # ones; central differences of the latter recover the former.
        spec, problem, _ = toy
        det = problem.deterministic()
        rng = np.random.default_rng(4)
        x = 0.5 * rng.standard_normal(problem.dim_x)
        y = 0.5 * rng.standard_normal(problem.dim_y)
        v = rng.standard_normal(problem.dim_y)
        h = 1e-6
        fd_hvp = (det.ll_grad_y(x, y + h * v) - det.ll_grad_y(x, y - h * v)) / (2 * h)
        assert np.abs(det.ll_hvp(x, y, v) - fd_hvp).max() <= 1e-8
        fd_jvp = np.zeros(problem.dim_x)
        for i in range(problem.dim_x):
            e = np.zeros(problem.dim_x)
            e[i] = h
            fd_jvp[i] = ((det.ll_grad_y(x + e, y) - det.ll_grad_y(x - e, y)) / (2 * h)) @ v
        assert np.abs(det.ll_jvp(x, y, v) - fd_jvp).max() <= 1e-8
        for s in range(problem.num_objectives):
            fd_grad = np.zeros(problem.dim_y)
            for i in range(problem.dim_y):
                e = np.zeros(problem.dim_y)
                e[i] = h
                fd_grad[i] = (det.ul_value(s, x, y + e) - det.ul_value(s, x, y - e)) / (2 * h)
            assert np.abs(det.ul_grad_y(s, x, y) - fd_grad).max() <= 1e-8

    def test_matches_finite_differences(self, toy):
        spec, problem, constants = toy
        rng = np.random.default_rng(2)
        x = 0.3 * rng.standard_normal(problem.dim_x)
        det = problem.deterministic()
        y_d = lower_level_solve(det, x, np.zeros(problem.dim_y), 500, 1.0 / constants.L)
        grad, _ = hypergrad_cg(det, x, y_d, 1, None, problem.dim_y)
        fd = finite_diff_hypergrad(problem, x, 1)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-30)
        assert rel <= 1e-3

    def test_clean_run_upweights_samples(self):
        # With no corruption and matching data, raising the sample logits
        # can only help the validation fit: the mean logit must rise, and
        # the initial update must move with the (analytic) descent sign.
        spec = HypercleaningToySpec(
            feature_dim=3, n_train=20, n_val=20, corruption_rates=(0.0, 0.0), seed=6,
        )
        problem, constants = make_hypercleaning_toy(spec)
        x0 = np.zeros(problem.dim_x)
        y0 = np.zeros(problem.dim_y)
        config = SolverConfig(
            K=30, D=40, Q=40, T=10**6, D_f=10**6, D_g=10**6, B=10**6,
            option="ns", u=0.0, seed=1,
            alpha=1.0 / constants.L, eta=1.0 / constants.L, beta=2.0,
        )
        trace = run_stochastic(problem, config, Preference.uniform(2), x0, y0)
        assert trace.final_x.mean() > x0.mean()
        # The first update follows -d_0; a positive mean step means the
        # blended hypergradient points down in the logit coordinates.
        first_phi = trace.records[0].phi
        assert np.all(trace.final_phi <= first_phi + 1e-9)


class TestFiniteDifferenceOracle:
    def test_quadratic_against_analytic(self):
        spec = QuadraticBilevelSpec.random(3, 4, 2, seed=15, hessian_scale=0.25)
        problem, _ = make_quadratic(spec)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        analytic = problem.reference.grad_phi(x)
        for s in range(2):
            fd = finite_diff_hypergrad(problem, x, s, h=1e-5)
            assert np.abs(fd - analytic[:, s]).max() <= 1e-4

    def test_constant_objective_gives_zero(self):
        spec = QuadraticBilevelSpec.random(2, 3, 1, seed=16)
        problem, _ = make_quadratic(spec)
        constant = replace(problem, ul_value=lambda s, x, y: 4.2)
        fd = finite_diff_hypergrad(constant, np.zeros(2), 0)
        np.testing.assert_allclose(fd, np.zeros(2), atol=1e-12)

    def test_rejects_bad_step(self):
        spec = QuadraticBilevelSpec.random(2, 2, 1, seed=17)
        problem, _ = make_quadratic(spec)
        with pytest.raises(ValueError):
            finite_diff_hypergrad(problem, np.zeros(2), 0, h=0.0)

    @pytest.mark.parametrize("h", [-1e-5, math.nan, math.inf])
    def test_rejects_step_outside_positive_reals(self, h):
        problem, _ = make_quadratic(QuadraticBilevelSpec.random(2, 2, 1, seed=17))
        with pytest.raises(ValueError, match="h must be positive and finite"):
            finite_diff_hypergrad(problem, np.zeros(2), 0, h=h)

    def test_nonconvergent_lower_solve_raises(self):
        spec = QuadraticBilevelSpec.random(2, 2, 1, seed=18)
        problem, _ = make_quadratic(spec)
        with pytest.raises(OracleFailureError):
            finite_diff_hypergrad(problem, np.zeros(2), 0, max_ll_iters=1)


class TestBruteForceSimplexMin:
    @staticmethod
    def _objective(grid):
        return ((grid - np.array([0.3, 0.7])) ** 2).sum(axis=1)

    @pytest.mark.parametrize("resolution", [1.0, 0.1, 1e-4])
    def test_resolution_in_range_accepted(self, resolution):
        best, value = brute_force_simplex_min(self._objective, 2, resolution)
        assert value == pytest.approx(float(self._objective(best[None, :])[0]))

    @pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan, 2.0, np.nextafter(1.0, 2.0)])
    def test_resolution_outside_unit_interval_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution must lie in"):
            brute_force_simplex_min(self._objective, 2, resolution)


class TestBruteForceMinNorm:
    def test_opposing_columns(self):
        g = np.array([1.0, 2.0, -0.5])
        w = brute_force_min_norm([g, -g])
        np.testing.assert_allclose(w.lam, [0.5, 0.5], atol=1e-4)

    def test_single_column(self):
        w = brute_force_min_norm([np.array([3.0, 1.0])])
        np.testing.assert_allclose(w.lam, [1.0])

    def test_orthogonal_columns_closed_form(self):
        w = brute_force_min_norm([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
        np.testing.assert_allclose(w.lam, [0.8, 0.2], atol=1e-4)

    def test_too_many_columns(self):
        cols = [np.ones(2)] * 4
        with pytest.raises(UnsupportedProblemError):
            brute_force_min_norm(cols)
