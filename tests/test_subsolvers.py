import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilevel import subsolvers
from mobilevel import (
    NumericalBreakdownError,
    WcSolverError,
    WcSubproblem,
    brute_force_min_norm,
    brute_force_simplex_min,
    conjugate_gradient,
    project_simplex,
    solve_wc_subproblem,
)


class TestConjugateGradient:
    def test_identity_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        v, res = conjugate_gradient(lambda w: w, b, np.zeros(3), 1)
        np.testing.assert_allclose(v, b, atol=1e-15)
        assert res <= 1e-15

    def test_diagonal_two_iterations(self):
        # Direct solve: v = (1/1, 2/2) = (1, 1).
        a = np.diag([1.0, 2.0])
        v, res = conjugate_gradient(lambda w: a @ w, np.array([1.0, 2.0]), np.zeros(2), 2)
        np.testing.assert_allclose(v, [1.0, 1.0], atol=1e-12)
        assert res <= 1e-12

    def test_exact_start_zero_iterations(self):
        a = np.diag([1.0, 2.0])
        start = np.array([1.0, 1.0])
        v, res = conjugate_gradient(lambda w: a @ w, np.array([1.0, 2.0]), start, 1)
        assert res == 0.0
        np.testing.assert_array_equal(v, start)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 6))
        a = m.T @ m + 0.5 * np.eye(6)
        b = rng.standard_normal(6)
        v, res = conjugate_gradient(lambda w: a @ w, b, np.zeros(6), 6)
        np.testing.assert_allclose(v, np.linalg.solve(a, b), atol=1e-9)

    def test_fixed_application_count(self):
        calls = []

        def apply_a(w):
            calls.append(1)
            return w

        b = np.array([1.0, 2.0])
        conjugate_gradient(apply_a, b, np.zeros(2), 5)
        # Zero start: the residual is free, all five applications are CG
        # steps even though the system converges after one.
        assert len(calls) == 5
        calls.clear()
        conjugate_gradient(apply_a, b, np.array([1.0, 0.0]), 5)
        # Warm start: one of the five goes to the initial residual.
        assert len(calls) == 5

    def test_breakdown_names_iteration(self):
        def bad(w):
            return np.full_like(w, np.nan)

        with pytest.raises(NumericalBreakdownError, match="iteration 1"):
            conjugate_gradient(bad, np.ones(2), np.zeros(2), 3)

    def test_late_breakdown_names_iteration(self):
        calls = []

        def inf_on_third(w):
            calls.append(1)
            return np.full_like(w, np.inf) if len(calls) == 3 else 2.0 * w

        with pytest.raises(NumericalBreakdownError,
                           match=r"^non-finite map output at iteration 3$"):
            conjugate_gradient(inf_on_third, np.array([1.0, -2.0, 0.5]), np.zeros(3), 5)
        assert len(calls) == 3


def bisection_threshold(z):
    """Sort-free reference: bisect on theta, where sum(max(z - theta, 0))
    falls from at least S (theta = min z - 1) to 0 (theta = max z), down
    to adjacent floats."""
    lo, hi = z.min() - 1.0, z.max()
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if np.maximum(z - mid, 0.0).sum() >= 1.0:
            lo = mid
        else:
            hi = mid


@st.composite
def simplex_inputs(draw):
    """Vectors of 1 to 12 entries at scales from 1e-6 to 1e6; entries
    drawn from a short pool give ties, and a last entry within 1e-9 of the
    threshold of the others sits at the edge of the support."""
    s = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    pool = draw(st.lists(unit, min_size=1, max_size=3))
    entries = draw(st.lists(st.one_of(unit, st.sampled_from(pool)), min_size=s, max_size=s))
    z = np.array(entries) * 10.0 ** draw(st.floats(-6.0, 6.0))
    if s > 1 and draw(st.booleans()):
        z[-1] = bisection_threshold(z[:-1]) + draw(st.floats(-1e-9, 1e-9))
    return z


class TestProjectSimplex:
    def test_feasible_point_unchanged(self):
        w = project_simplex(np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(w.lam, [0.2, 0.3, 0.5], atol=1e-15)

    def test_outside_vertex(self):
        # Grid search over the 1-simplex confirms (1, 0) is the nearest point.
        z = np.array([2.0, 0.0])
        w = project_simplex(z)
        np.testing.assert_allclose(w.lam, [1.0, 0.0], atol=1e-12)
        best, _ = brute_force_simplex_min(
            lambda grid: np.sum((grid - z) ** 2, axis=1), 2, 1e-4
        )
        np.testing.assert_allclose(w.lam, best, atol=1e-4)

    def test_constant_vector_symmetry(self):
        for c in (-5.0, 0.0, 7.3):
            w = project_simplex(np.full(3, c))
            np.testing.assert_allclose(w.lam, np.full(3, 1 / 3), atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("s", [2, 3])
    def test_matches_grid_minimizer(self, s):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = 3.0 * rng.standard_normal(s)
            w = project_simplex(z).lam

            def objective(grid, z=z):
                diff = grid - z[None, :]
                return np.sum(diff * diff, axis=1)

            best, _ = brute_force_simplex_min(objective, s, 1e-3)
            assert np.abs(w - best).max() <= 2e-3

    def test_matches_grid_minimizer_four_dims(self):
        # Direct enumeration of the 4-simplex at spacing 0.04.
        ticks = np.linspace(0.0, 1.0, 26)
        a, b, c = np.meshgrid(ticks, ticks, ticks, indexing="ij")
        mask = a + b + c <= 1.0 + 1e-12
        grid = np.column_stack([a[mask], b[mask], c[mask], 1.0 - a[mask] - b[mask] - c[mask]])
        rng = np.random.default_rng(12)
        for _ in range(5):
            z = 2.0 * rng.standard_normal(4)
            w = project_simplex(z).lam
            dist = np.sum((grid - z[None, :]) ** 2, axis=1)
            best = grid[int(np.argmin(dist))]
            assert np.abs(w - best).max() <= 0.08

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(simplex_inputs())
    def test_matches_threshold_bisection(self, z):
        # The projection is max(z - theta, 0) for the theta at which the
        # entries sum to one; bisection finds that theta without sorting.
        expected = np.maximum(z - bisection_threshold(z), 0.0)
        got = project_simplex(z).lam
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(z).max())



class TestWcSubproblem:
    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValueError):
            WcSubproblem(gram=np.array([[1.0, 0.5], [0.0, 1.0]]),
                         phi=np.zeros(2), r=np.full(2, 0.5), u=0.0)

    def test_rejects_indefinite_gram(self):
        with pytest.raises(ValueError):
            WcSubproblem(gram=np.diag([1.0, -0.5]),
                         phi=np.zeros(2), r=np.full(2, 0.5), u=0.0)


class TestSolveWcSubproblem:
    def test_single_objective_trivial(self):
        sp = WcSubproblem(gram=np.array([[4.0]]), phi=np.array([9.0]),
                          r=np.ones(1), u=3.0)
        lam, residual = solve_wc_subproblem(sp)
        np.testing.assert_allclose(lam.lam, [1.0])
        assert residual == 0.0

    def test_diagonal_closed_form(self):
        # Columns (1,0) and (0,2): minimize (0.5 a)^2 + 4 (0.5 (1-a))^2
        # over a, giving a = 0.8; direction (0.4, 0.2).
        sp = WcSubproblem(gram=np.diag([1.0, 4.0]), phi=np.zeros(2),
                          r=np.full(2, 0.5), u=0.0)
        lam, residual = solve_wc_subproblem(sp)
        np.testing.assert_allclose(lam.lam, [0.8, 0.2], atol=1e-9)
        cols = np.array([[1.0, 0.0], [0.0, 2.0]])
        d = cols @ (np.full(2, 0.5) * lam.lam)
        np.testing.assert_allclose(d, [0.4, 0.2], atol=1e-9)
        # Cross-check against a fine grid on the same objective.
        best, _ = brute_force_simplex_min(
            lambda grid: np.einsum("ni,ij,nj->n", grid * 0.5, sp.gram, grid * 0.5),
            2, 1e-5,
        )
        np.testing.assert_allclose(lam.lam, best, atol=1e-4)

    def test_alignment_term_dominates(self):
        # Large u selects the objective with the largest r_s * phi_s.
        sp = WcSubproblem(gram=np.eye(2), phi=np.array([10.0, 1.0]),
                          r=np.full(2, 0.5), u=100.0)
        lam, _ = solve_wc_subproblem(sp)
        np.testing.assert_allclose(lam.lam, [1.0, 0.0], atol=1e-10)
        best, _ = brute_force_simplex_min(
            lambda grid: np.einsum("ni,ij,nj->n", grid * 0.5, sp.gram, grid * 0.5)
            - 100.0 * grid @ (0.5 * sp.phi),
            2, 1e-4,
        )
        np.testing.assert_allclose(lam.lam, best, atol=1e-4)

    @pytest.mark.parametrize("s", [2, 3])
    def test_uniform_r_recovers_min_norm_weights(self, s):
        rng = np.random.default_rng(21)
        for _ in range(10):
            cols = rng.standard_normal((5, s))
            sp = WcSubproblem(gram=cols.T @ cols, phi=np.zeros(s),
                              r=np.full(s, 1.0 / s), u=0.0)
            lam, _ = solve_wc_subproblem(sp)
            reference = brute_force_min_norm([cols[:, j] for j in range(s)])
            assert np.abs(lam.lam - reference.lam).max() <= 1e-4

    def test_objective_nonincreasing(self):
        # The result is no worse than the warm start it began from, nor than
        # any vertex of the simplex.
        rng = np.random.default_rng(30)
        cols = rng.standard_normal((4, 3))
        sp = WcSubproblem(gram=cols.T @ cols, phi=rng.uniform(0, 3, 3),
                          r=np.array([0.5, 0.3, 0.2]), u=2.0)
        start = np.array([1.0, 0.0, 0.0])
        lam, _ = solve_wc_subproblem(sp, warm_start=start)
        value = sp.objective(lam.lam)
        assert value <= sp.objective(start) + 1e-12
        for vertex in np.eye(3):
            assert value <= sp.objective(vertex) + 1e-12

    def test_scaling_invariance(self):
        # Scaling all columns by c scales the Gram by c^2 and the direction
        # by c, while the optimal weights stay put (u = 0).
        rng = np.random.default_rng(31)
        for _ in range(10):
            cols = rng.standard_normal((4, 3))
            r = np.array([0.2, 0.5, 0.3])
            c = float(rng.uniform(0.5, 4.0))
            sp1 = WcSubproblem(gram=cols.T @ cols, phi=np.zeros(3), r=r, u=0.0)
            sp2 = WcSubproblem(gram=c**2 * (cols.T @ cols), phi=np.zeros(3), r=r, u=0.0)
            lam1, _ = solve_wc_subproblem(sp1)
            lam2, _ = solve_wc_subproblem(sp2)
            assert np.abs(lam1.lam - lam2.lam).max() <= 1e-6
            d1 = cols @ (r * lam1.lam)
            d2 = (c * cols) @ (r * lam2.lam)
            np.testing.assert_allclose(c * d1, d2, atol=1e-6 * max(1.0, c))

    def test_min_norm_value_matches_hull_min(self):
        # For u = 0 and uniform r, ||d|| equals the minimum-norm point of
        # the convex hull of the columns (scaled by 1/S).
        rng = np.random.default_rng(32)
        for s in (2, 3):
            cols = rng.standard_normal((4, s))
            r = np.full(s, 1.0 / s)
            sp = WcSubproblem(gram=cols.T @ cols, phi=np.zeros(s), r=r, u=0.0)
            lam, _ = solve_wc_subproblem(sp)
            d_norm = np.linalg.norm(cols @ (r * lam.lam))
            gram = cols.T @ cols
            _, best_val = brute_force_simplex_min(
                lambda grid: np.einsum("ni,ij,nj->n", grid, gram, grid), s, 1e-4
            )
            hull_min = np.sqrt(max(best_val, 0.0))
            assert abs(d_norm * s - hull_min) <= 1e-4 * max(1.0, hull_min)

    def test_zero_gram_returns_warm_start(self):
        sp = WcSubproblem(gram=np.zeros((3, 3)), phi=np.zeros(3),
                          r=np.full(3, 1 / 3), u=0.0)
        start = np.array([0.6, 0.3, 0.1])
        lam, residual = solve_wc_subproblem(sp, warm_start=start)
        np.testing.assert_allclose(lam.lam, start, atol=1e-12)
        assert residual == 0.0

    def test_exhaustion_carries_best_iterate(self, monkeypatch):
        # A face solve that never moves cannot certify: the solver must fail
        # loudly after its budget, with its best iterate attached.
        def stuck(scaled, grad, free, tol):
            return np.zeros(grad.size)

        monkeypatch.setattr(subsolvers, "_face_step", stuck)
        sp = WcSubproblem(gram=np.diag([1.0, 4.0, 2.0]), phi=np.zeros(3),
                          r=np.full(3, 1 / 3), u=0.0)
        start = np.array([0.1, 0.9, 0.0])
        with pytest.raises(WcSolverError) as info:
            solve_wc_subproblem(sp, warm_start=start)
        np.testing.assert_allclose(info.value.best_weights.lam, start, atol=1e-15)
        assert info.value.residual > 1e-10

    def test_badly_scaled_instances_certify_at_resolution(self):
        # Columns at scale 1e3 push the gradient's floating-point floor past
        # an absolute 1e-10; certification falls back to the attainable
        # resolution instead of failing.
        rng = np.random.default_rng(34)
        for _ in range(20):
            cols = 1e3 * rng.standard_normal((5, 3))
            sp = WcSubproblem(gram=cols.T @ cols, phi=rng.uniform(0, 10, 3),
                              r=np.full(3, 1 / 3), u=1.0)
            lam, residual = solve_wc_subproblem(sp)
            scale = 2.0 * np.abs(sp.scaled_gram()).max()
            assert residual <= max(1e-10, 64 * np.finfo(float).eps * scale)

    def test_opposed_columns_in_power_null_space(self):
        # Opposed columns of equal scaled norm: the all-ones vector lies in
        # the scaled Gram's null space.
        sp = WcSubproblem(gram=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                          phi=np.ones(2), r=np.full(2, 0.5), u=0.0)
        lam, residual = solve_wc_subproblem(sp, warm_start=np.array([0.9, 0.1]))
        np.testing.assert_allclose(lam.lam, [0.5, 0.5], atol=1e-12)
        assert residual <= 1e-10

    def test_certified_warm_start_returned_exactly(self, monkeypatch):
        # A warm start that certifies is returned without a face solve.
        calls = []
        face_step = subsolvers._face_step
        monkeypatch.setattr(subsolvers, "_face_step",
                            lambda *args: calls.append(1) or face_step(*args))
        sp = WcSubproblem(gram=np.diag([1.0, 4.0]), phi=np.zeros(2),
                          r=np.full(2, 0.5), u=0.0)
        lam, residual = solve_wc_subproblem(sp, warm_start=np.array([0.8, 0.2]))
        np.testing.assert_array_equal(lam.lam, [0.8, 0.2])
        assert residual <= 1e-10
        assert not calls
        lam, _ = solve_wc_subproblem(sp, warm_start=np.array([0.1, 0.9]))
        np.testing.assert_allclose(lam.lam, [0.8, 0.2], atol=1e-12)
        assert calls

    def test_cold_start_interior_optimum_at_scale(self):
        # Columns of size 1e2 with a strong alignment term, started cold: the
        # optimum is interior, at (19/54, 1/12, 61/108), and its gradient
        # floor is above the absolute 1e-10.
        cols = np.array([[100.0, 300.0], [-300.0, -200.0], [-200.0, 0.0]]).T
        sp = WcSubproblem(gram=cols.T @ cols, phi=np.array([300.0, 300.0, 400.0]),
                          r=np.array([0.3, 0.4, 0.3]), u=50.0)
        lam, residual = solve_wc_subproblem(sp)
        np.testing.assert_allclose(lam.lam, [19 / 54, 1 / 12, 61 / 108], atol=1e-12)
        grad_max = 2.0 * np.abs(sp.scaled_gram()).max() + np.abs(sp.linear_term()).max()
        assert residual <= 64 * np.finfo(float).eps * grad_max


@st.composite
def wc_instances(draw):
    """Simplex QPs with up to six weights: PSD Grams (rank-deficient and
    opposed columns included) with column scales from 1e-3 to 1e3, random
    preferences, u = 0 or u > 0, and an optional warm start."""
    s = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 4))
    entry = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    cols = np.array(draw(st.lists(st.lists(entry, min_size=s, max_size=s),
                                  min_size=rows, max_size=rows)))
    exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=s, max_size=s))
    cols = cols * 10.0 ** np.array(exponents)
    if draw(st.booleans()):
        # Column 1 points against column 0.
        cols[:, 1] = -draw(st.floats(0.25, 4.0)) * cols[:, 0]
    r = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=s, max_size=s)))
    u = draw(st.one_of(st.just(0.0), st.floats(0.1, 5.0)))
    phi = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=s, max_size=s)))
    warm = draw(st.one_of(
        st.none(),
        st.lists(st.floats(-1.0, 2.0), min_size=s, max_size=s).map(np.array),
    ))
    sp = WcSubproblem(gram=cols.T @ cols, phi=phi, r=r / r.sum(), u=u)
    return sp, warm


class TestSolveWcSubproblemProperties:
    RESOLUTION = 1e-4

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(wc_instances())
    def test_matches_grid_minimum_and_certifies(self, instance):
        sp, warm = instance
        s = sp.size
        lam, residual = solve_wc_subproblem(sp, warm_start=warm)
        scaled = sp.scaled_gram()
        lin = sp.linear_term()
        grad_max = 2.0 * np.abs(scaled).max() + np.abs(lin).max()
        certify_tol = max(1e-10, 64.0 * np.finfo(float).eps * grad_max)
        assert residual <= certify_tol
        if s > 3:
            return
        _, grid_min = brute_force_simplex_min(
            lambda grid: np.einsum("ni,ij,nj->n", grid, scaled, grid) - grid @ lin,
            s, self.RESOLUTION,
        )
        # A grid point lies within RESOLUTION of the minimizer in every
        # coordinate, so the grid minimum exceeds the true one by at most
        # the gradient bound times the l1 distance plus the curvature term.
        slack = s * self.RESOLUTION * (grad_max + s * np.abs(scaled).max()) + 1e-12
        value = sp.objective(lam.lam)
        assert value <= grid_min + 1e-12 * max(1.0, grad_max)
        assert value >= grid_min - slack
