import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilevel import subsolvers
from mobilevel import (
    NumericalBreakdownError,
    SimplexWeights,
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
        v, res = conjugate_gradient(lambda w: w, b, None, 1)
        np.testing.assert_allclose(v, b, atol=1e-15)
        assert res <= 1e-15

    def test_diagonal_two_iterations(self):
        # Direct solve: v = (1/1, 2/2) = (1, 1).
        a = np.diag([1.0, 2.0])
        v, res = conjugate_gradient(lambda w: a @ w, np.array([1.0, 2.0]), None, 2)
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
        v, res = conjugate_gradient(lambda w: a @ w, b, None, 6)
        np.testing.assert_allclose(v, np.linalg.solve(a, b), atol=1e-9)

    def test_fixed_application_count(self):
        calls = []

        def apply_a(w):
            calls.append(1)
            return w

        b = np.array([1.0, 2.0])
        conjugate_gradient(apply_a, b, None, 5)
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
            conjugate_gradient(bad, np.ones(2), None, 3)

    def test_late_breakdown_names_iteration(self):
        calls = []

        def inf_on_third(w):
            calls.append(1)
            return np.full_like(w, np.inf) if len(calls) == 3 else 2.0 * w

        with pytest.raises(NumericalBreakdownError,
                           match=r"^non-finite map output at iteration 3$"):
            conjugate_gradient(inf_on_third, np.array([1.0, -2.0, 0.5]), None, 5)
        assert len(calls) == 3

    @pytest.mark.parametrize("size", [63, 65])  # either side of all_finite's sum cap
    def test_late_breakdown_names_iteration_at_size(self, size):
        calls = []

        def inf_on_third(w):
            calls.append(1)
            return np.full_like(w, np.inf) if len(calls) == 3 else 2.0 * w

        with pytest.raises(NumericalBreakdownError,
                           match=r"^non-finite map output at iteration 3$"):
            conjugate_gradient(inf_on_third, np.resize([1.0, -2.0, 0.5], size), None, 5)
        assert len(calls) == 3

    @pytest.mark.parametrize("start", ["zero", "warm"])
    @pytest.mark.parametrize("applications", [1, 2, 4, 7])
    def test_residual_is_final_recurrence_residual(self, start, applications):
        # The returned residual is sqrt(r @ r) of the last recurrence
        # residual, and v the last iterate, bit for bit: checked against the
        # textbook Hestenes-Stiefel recurrence (no breakdown on this map).
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 5))
        a = m.T @ m + 0.1 * np.eye(5)
        b = rng.standard_normal(5)
        v0 = None if start == "zero" else rng.standard_normal(5)
        v, res = conjugate_gradient(lambda w: a @ w, b, v0, applications)

        ref = np.zeros(5) if v0 is None else v0.copy()
        r = b - a @ ref if start == "warm" else b.copy()
        p = r.copy()
        rr = float(r @ r)
        for _ in range(applications - (start == "warm")):
            ap = a @ p
            step = rr / float(p @ ap)
            ref += step * p
            r -= step * ap
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new
        assert res == np.sqrt(float(r @ r))
        np.testing.assert_array_equal(v, ref)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_application_count_property(self, data):
        # Random SPD maps H = (sM)'(sM) + eps I with q <= 12, s = 10^[-3, 3];
        # zero, all-zero array, random and exact-solution starts, zero and nonzero right-hand
        # sides (a zero residual must not end the loop early), and budgets
        # from 1 to q + 3 (past convergence).  The map is applied exactly
        # `applications` times and the output stays finite.
        q = data.draw(st.integers(1, 12), label="q")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scale = 10.0 ** data.draw(st.floats(-3.0, 3.0), label="log10 scale")
        m = scale * rng.standard_normal((q, q))
        a = m.T @ m + data.draw(st.sampled_from([1e-6, 1e-2, 1.0]), label="eps") * np.eye(q)
        b = rng.standard_normal(q) if data.draw(st.booleans(), label="nonzero b") else np.zeros(q)
        start = data.draw(st.sampled_from(["zero", "zero array", "random", "solution"]),
                          label="start")
        v0 = {
            "zero": None,
            "zero array": np.zeros(q),
            "random": rng.standard_normal(q),
            "solution": np.linalg.solve(a, b),
        }[start]
        budget = data.draw(st.integers(1, q + 3), label="applications")
        calls = []

        def apply_a(w):
            calls.append(1)
            return a @ w

        v, res = conjugate_gradient(apply_a, b, v0, budget)
        assert len(calls) == budget
        assert np.isfinite(v).all() and np.isfinite(res)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference_kernel_bitwise(self, data):
        # The kernel against the textbook recurrence, which also forms the
        # direction after the last update: zero starts and warm ones (an
        # all-zero array among them), zero right-hand sides (the rr == 0
        # branch) and budgets of 1 to 6, with exactly `applications` map
        # calls each.
        q = data.draw(st.integers(1, 8), label="q")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = 10.0 ** data.draw(st.floats(-3.0, 3.0), label="log10 scale") * rng.standard_normal((q, q))
        a = m.T @ m + data.draw(st.sampled_from([1e-6, 1.0]), label="eps") * np.eye(q)
        b = rng.standard_normal(q) if data.draw(st.booleans(), label="nonzero b") else np.zeros(q)
        v0 = {"zero": None, "zero array": np.zeros(q), "warm": rng.standard_normal(q)}[
            data.draw(st.sampled_from(["zero", "zero array", "warm"]), label="start")]
        budget = data.draw(st.integers(1, 6), label="applications")
        calls, ref_calls = [], []

        def apply_a(w):
            calls.append(1)
            return a.dot(w)

        def ref_apply_a(w):
            ref_calls.append(1)
            return a.dot(w)

        v, res = conjugate_gradient(apply_a, b, v0, budget)
        ref_v, ref_res = reference_conjugate_gradient(ref_apply_a, b, v0, budget)
        assert len(calls) == len(ref_calls) == budget
        assert v.tobytes() == ref_v.tobytes()
        assert np.float64(res).tobytes() == np.float64(ref_res).tobytes()


    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_row_stacks_solve_each_row_bitwise(self, data):
        # Lockstep CG on a row stack, with the rows' map a stacked matmul:
        # every row is byte for byte the vector solve of that row, for zero
        # and warm starts (a warm stack may mix zero and nonzero rows), zero
        # right-hand-side rows and budgets of 1 to 6.
        q = data.draw(st.integers(1, 60), label="q")
        rows = data.draw(st.integers(1, 20), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = 10.0 ** data.draw(st.floats(-3.0, 3.0), label="log10 scale") * rng.standard_normal((q, q))
        a = m.T @ m + data.draw(st.sampled_from([1e-6, 1.0]), label="eps") * np.eye(q)
        b = rng.standard_normal((rows, q))
        b[rng.random(rows) < 0.2] = 0.0
        start = data.draw(st.sampled_from(["zero", "warm", "mixed"]), label="start")
        v0 = None if start == "zero" else rng.standard_normal((rows, q))
        if start == "mixed":
            v0[rng.random(rows) < 0.5] = 0.0
        budget = data.draw(st.integers(1, 6), label="applications")
        calls = []

        def apply_rows(w):
            calls.append(1)
            return np.matmul(a, w[:, :, None])[:, :, 0]

        v, res = conjugate_gradient(apply_rows, b, v0, budget)
        assert len(calls) == budget
        for i in range(rows):
            start_i = None if v0 is None else v0[i]
            ref_v, ref_res = conjugate_gradient(a.dot, b[i], start_i, budget)
            assert v[i].tobytes() == ref_v.tobytes()
            assert res[i].tobytes() == np.float64(ref_res).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (4, 3)], ids=["vector", "rows"])
    @pytest.mark.parametrize("applications", [1, 2, 5])
    def test_zero_array_is_a_warm_start(self, shape, applications):
        # An all-zero array is a warm start: the first application forms
        # the residual at zero, and the other applications - 1 are the
        # updates of the zero start.  With b = 0 nothing moves, and the two
        # starts give the same bytes.
        a = np.diag([1.0, 2.0, 4.0])
        calls = []

        def apply_a(w):
            calls.append(w.copy())
            return np.matmul(a, w[..., None])[..., 0]

        b = np.resize([1.0, -2.0, 0.5, 3.0], shape)
        v, res = conjugate_gradient(apply_a, b, np.zeros(shape), applications)
        assert len(calls) == applications and not calls[0].any()
        if applications > 1:
            cold_v, cold_res = conjugate_gradient(apply_a, b, None, applications - 1)
            assert v.tobytes() == cold_v.tobytes()
            assert np.float64(res).tobytes() == np.float64(cold_res).tobytes()
        zero = np.zeros(shape)
        warm_v, warm_res = conjugate_gradient(apply_a, zero, np.zeros(shape), applications)
        cold_v, cold_res = conjugate_gradient(apply_a, zero, None, applications)
        assert warm_v.tobytes() == cold_v.tobytes() == zero.tobytes()
        assert np.float64(warm_res).tobytes() == np.float64(cold_res).tobytes()


def reference_conjugate_gradient(apply_A, b, v0, applications):
    """CG with every direction update, the last one included, which the
    kernel skips since nothing reads it; no finiteness checks (the maps
    here stay finite)."""
    b = np.asarray(b, dtype=float)
    if v0 is None:
        v, r = np.zeros_like(b), b.copy()
    else:
        v = np.array(v0, dtype=float)
        r = b - apply_A(v)
        applications -= 1
    rr = float(r.dot(r))
    p = r.copy()
    for _ in range(applications):
        ap = apply_A(p)
        pap = float(p.dot(ap))
        step = rr / pap if (pap > 0.0 and rr > 0.0) else 0.0
        v += step * p
        r -= step * ap
        rr_new = float(r.dot(r))
        p = r + (rr_new / rr if rr > 0.0 else 0.0) * p
        rr = rr_new
    return v, math.sqrt(rr)


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

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            project_simplex(np.array([]))

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



@st.composite
def column_matrices(draw):
    """Finite p-by-S hypergradient columns, p 1-60 and S 1-8, each column at
    its own scale 10^e with e in [-100, 100]; some columns duplicate an
    earlier one or are zero."""
    p = draw(st.integers(1, 60))
    s = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.lists(st.floats(-100.0, 100.0), min_size=s, max_size=s))
    cols = rng.standard_normal((p, s)) * 10.0 ** np.array(exponents)
    for j in range(1, s):
        kind = draw(st.sampled_from(["own", "duplicate", "zero"]))
        if kind == "duplicate":
            cols[:, j] = cols[:, draw(st.integers(0, j - 1))]
        elif kind == "zero":
            cols[:, j] = 0.0
    return cols


@st.composite
def columns_with_one_non_finite(draw):
    """p-by-S columns, p 1-200 and S 1-5, each at its own scale 10^e with e
    in [-100, 100] and, in some, half the entries zero, with one NaN, +inf
    or -inf at any position."""
    p = draw(st.integers(1, 200))
    s = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.lists(st.floats(-100.0, 100.0), min_size=s, max_size=s))
    cols = rng.standard_normal((p, s)) * 10.0 ** np.array(exponents)
    if draw(st.booleans()):
        # Zeros make inf * 0 in the off-diagonal products.
        cols[rng.random((p, s)) < 0.5] = 0.0
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    cols[draw(st.integers(0, p - 1)), draw(st.integers(0, s - 1))] = bad
    return cols


class TestWcSubproblem:
    def test_leaves_caller_arrays_writable(self):
        # The subproblem freezes its own phi, Gram and QP data; the caller's
        # arrays stay its own.
        grads, phi = np.ones((3, 2)), np.zeros(2)
        sp = WcSubproblem(grads, phi, np.full(2, 0.5), 0.0)
        grads[0, 0], phi[0] = 2.0, 5.0
        assert sp.gram[0, 0] == 3.0 and sp.phi[0] == 0.0
        own = (sp.gram, sp.phi, sp.scaled_gram, sp.linear_term)
        assert not any(arr.flags.writeable for arr in own)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(column_matrices())
    def test_column_gram_is_symmetric_psd(self, cols):
        # The symmetry and eigenvalue checks the constructor does not make,
        # at their tolerances: a finite Gram of finite columns passes both.
        s = cols.shape[1]
        gram = WcSubproblem(cols, np.zeros(s), np.ones(s), 0.0).gram
        assert np.isfinite(gram).all()
        scale = max(1.0, float(np.abs(gram).max()))
        assert float(np.abs(gram - gram.T).max()) <= 1e-10 * scale
        assert float(np.linalg.eigvalsh(gram).min()) >= -1e-10 * scale

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(columns_with_one_non_finite())
    def test_any_non_finite_entry_is_a_breakdown(self, cols):
        # The Gram's diagonal holds the columns' sums of squares, so one bad
        # entry anywhere makes it non-finite; no warning is raised first.
        s = cols.shape[1]
        with pytest.raises(NumericalBreakdownError, match="Gram matrix is not finite"):
            WcSubproblem(cols, np.zeros(s), np.full(s, 1.0 / s), 0.0)

    def test_overflowing_gram_is_a_breakdown(self):
        # Finite columns whose Gram overflows to inf on the diagonal.
        cols = np.array([[1e160, 1.0], [2.0, -1e160]])
        with pytest.raises(NumericalBreakdownError, match="Gram matrix is not finite"):
            WcSubproblem(cols, np.zeros(2), np.full(2, 0.5), 0.0)

    def test_non_finite_phi_is_a_breakdown(self):
        with pytest.raises(NumericalBreakdownError, match="phi are not finite"):
            WcSubproblem(np.eye(2), np.array([0.0, np.nan]), np.full(2, 0.5), 0.0)

    @pytest.mark.parametrize("grads, phi, message", [
        (np.ones(2), np.zeros(2), "2-d"),
        (np.ones((1, 2, 2)), np.zeros(2), "2-d"),
        (np.eye(2), np.zeros(3), "phi must have one entry"),
        (np.eye(2), np.zeros((2, 1)), "phi must have one entry"),
    ])
    def test_rejects_malformed_columns_and_phi(self, grads, phi, message):
        with pytest.raises(ValueError, match=message):
            WcSubproblem(grads, phi, np.full(2, 0.5), 0.0)

    @pytest.mark.parametrize("r", [np.ones(1), np.full(3, 1 / 3), np.full((2, 1), 0.5)])
    def test_rejects_r_of_wrong_length(self, r):
        with pytest.raises(ValueError, match="one entry per hypergradient column"):
            WcSubproblem(np.eye(2), np.zeros(2), r, 0.0)

    def test_accepts_zero_u(self):
        assert WcSubproblem(np.eye(2), np.zeros(2), np.full(2, 0.5), 0.0).u == 0.0

    @pytest.mark.parametrize("u", [np.nan, np.inf, -1e-300])
    def test_rejects_u_outside_range(self, u):
        with pytest.raises(ValueError, match="u must be nonnegative and finite"):
            WcSubproblem(np.eye(2), np.zeros(2), np.full(2, 0.5), u)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cols, phi, r, u", [
        # u * r * phi overflows in one entry: the old check certified any start.
        (np.eye(3)[:, :2], [1e308, 1.0], [0.5, 0.5], 10.0),
        # ... in both: the QP failed with a bare ValueError after warnings.
        (np.eye(3)[:, :2], [1e308, 1e308], [0.5, 0.5], 10.0),
        # A finite Gram whose doubled entry overflows.
        (np.array([[1.2e154, 0.0], [0.0, 1.0]]), [0.0, 0.0], [1.0, 1.0], 0.0),
        # r r' overflows beside a zero Gram entry: 0 * inf is NaN, which
        # Python's max skips at any position but the first.
        (np.array([[1.0, 0.0], [0.0, 0.0]]), [0.0, 0.0], [1.0, 1e200], 0.0),
    ])
    def test_overflowing_gradient_scale_is_a_breakdown(self, cols, phi, r, u):
        with pytest.raises(NumericalBreakdownError, match="gradient scale is not finite"):
            WcSubproblem(cols, np.array(phi), np.array(r), u)


class TestSolveWcSubproblem:
    def test_single_objective_trivial(self):
        sp = WcSubproblem(np.array([[2.0]]), np.array([9.0]),
                          np.ones(1), 3.0)
        lam, residual = solve_wc_subproblem(sp)
        np.testing.assert_allclose(lam.lam, [1.0])
        assert residual == 0.0

    def test_diagonal_closed_form(self):
        # Columns (1,0) and (0,2): minimize (0.5 a)^2 + 4 (0.5 (1-a))^2
        # over a, giving a = 0.8; direction (0.4, 0.2).
        cols = np.array([[1.0, 0.0], [0.0, 2.0]])
        sp = WcSubproblem(cols, np.zeros(2), np.full(2, 0.5), 0.0)
        lam, residual = solve_wc_subproblem(sp)
        np.testing.assert_allclose(lam.lam, [0.8, 0.2], atol=1e-9)
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
        sp = WcSubproblem(np.eye(2), np.array([10.0, 1.0]),
                          np.full(2, 0.5), 100.0)
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
            sp = WcSubproblem(cols, np.zeros(s),
                              np.full(s, 1.0 / s), 0.0)
            lam, _ = solve_wc_subproblem(sp)
            reference = brute_force_min_norm([cols[:, j] for j in range(s)])
            assert np.abs(lam.lam - reference.lam).max() <= 1e-4

    def test_objective_nonincreasing(self):
        # The result is no worse than the warm start it began from, nor than
        # any vertex of the simplex.
        rng = np.random.default_rng(30)
        cols = rng.standard_normal((4, 3))
        sp = WcSubproblem(cols, rng.uniform(0, 3, 3),
                          np.array([0.5, 0.3, 0.2]), 2.0)
        start = np.array([1.0, 0.0, 0.0])
        lam, _ = solve_wc_subproblem(sp, warm_start=project_simplex(start))
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
            sp1 = WcSubproblem(cols, np.zeros(3), r, 0.0)
            sp2 = WcSubproblem(c * cols, np.zeros(3), r, 0.0)
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
            sp = WcSubproblem(cols, np.zeros(s), r, 0.0)
            lam, _ = solve_wc_subproblem(sp)
            d_norm = np.linalg.norm(cols @ (r * lam.lam))
            gram = cols.T @ cols
            _, best_val = brute_force_simplex_min(
                lambda grid: np.einsum("ni,ij,nj->n", grid, gram, grid), s, 1e-4
            )
            hull_min = np.sqrt(max(best_val, 0.0))
            assert abs(d_norm * s - hull_min) <= 1e-4 * max(1.0, hull_min)

    def test_zero_gram_returns_warm_start(self):
        sp = WcSubproblem(np.zeros((3, 3)), np.zeros(3),
                          np.full(3, 1 / 3), 0.0)
        start = np.array([0.6, 0.3, 0.1])
        lam, residual = solve_wc_subproblem(sp, warm_start=project_simplex(start))
        np.testing.assert_allclose(lam.lam, start, atol=1e-12)
        assert residual == 0.0

    def test_exhaustion_carries_best_iterate(self, monkeypatch):
        # A face solve that never moves cannot certify: the solver must fail
        # loudly after its budget, with its best iterate attached.
        def stuck(scaled, grad, free, tol):
            return np.zeros(grad.size)

        monkeypatch.setattr(subsolvers, "_face_step", stuck)
        # Columns e1, 2 e2 and e3 + e4: the Gram is diag(1, 4, 2).
        cols = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        sp = WcSubproblem(cols, np.zeros(3), np.full(3, 1 / 3), 0.0)
        start = np.array([0.1, 0.9, 0.0])
        with pytest.raises(WcSolverError) as info:
            solve_wc_subproblem(sp, warm_start=project_simplex(start))
        np.testing.assert_allclose(info.value.best_weights.lam, start, atol=1e-15)
        assert info.value.residual > 1e-10

    def test_badly_scaled_instances_certify_at_resolution(self):
        # Columns at scale 1e3 push the gradient's floating-point floor past
        # an absolute 1e-10; certification falls back to the attainable
        # resolution instead of failing.
        rng = np.random.default_rng(34)
        for _ in range(20):
            cols = 1e3 * rng.standard_normal((5, 3))
            sp = WcSubproblem(cols, rng.uniform(0, 10, 3),
                              np.full(3, 1 / 3), 1.0)
            lam, residual = solve_wc_subproblem(sp)
            scale = 2.0 * np.abs(sp.scaled_gram).max()
            assert residual <= max(1e-10, 64 * np.finfo(float).eps * scale)

    def test_opposed_columns_in_power_null_space(self):
        # Opposed columns of equal scaled norm: the all-ones vector lies in
        # the scaled Gram's null space.
        sp = WcSubproblem(np.array([[1.0, -1.0]]), np.ones(2),
                          np.full(2, 0.5), 0.0)
        lam, residual = solve_wc_subproblem(sp, warm_start=project_simplex(np.array([0.9, 0.1])))
        np.testing.assert_allclose(lam.lam, [0.5, 0.5], atol=1e-12)
        assert residual <= 1e-10

    def test_certified_warm_start_returned_exactly(self, monkeypatch):
        # A warm start that certifies is returned without a face solve.
        calls = []
        face_step = subsolvers._face_step
        monkeypatch.setattr(subsolvers, "_face_step",
                            lambda *args: calls.append(1) or face_step(*args))
        sp = WcSubproblem(np.diag([1.0, 2.0]), np.zeros(2),
                          np.full(2, 0.5), 0.0)
        lam, residual = solve_wc_subproblem(sp, warm_start=project_simplex(np.array([0.8, 0.2])))
        np.testing.assert_array_equal(lam.lam, [0.8, 0.2])
        assert residual <= 1e-10
        assert not calls
        lam, _ = solve_wc_subproblem(sp, warm_start=project_simplex(np.array([0.1, 0.9])))
        np.testing.assert_allclose(lam.lam, [0.8, 0.2], atol=1e-12)
        assert calls

    def test_certified_simplex_weights_returned_by_identity(self, monkeypatch):
        # A SimplexWeights warm start is used as it is: one that certifies
        # comes back as the same object, with no projection.
        projections = []
        project = subsolvers.project_simplex
        monkeypatch.setattr(subsolvers, "project_simplex",
                            lambda z: projections.append(1) or project(z))
        sp = WcSubproblem(np.diag([1.0, 2.0]), np.zeros(2),
                          np.full(2, 0.5), 0.0)
        warm = SimplexWeights(np.array([0.8, 0.2]))
        lam, residual = solve_wc_subproblem(sp, warm_start=warm)
        assert lam is warm
        assert residual <= 1e-10
        lam, _ = solve_wc_subproblem(sp, warm_start=SimplexWeights(np.array([0.1, 0.9])))
        np.testing.assert_allclose(lam.lam, [0.8, 0.2], atol=1e-12)
        assert not projections

    @pytest.mark.parametrize("start", [np.array([0.8, 0.2]), [0.8, 0.2]])
    def test_array_warm_start_rejected(self, start):
        # One start form: the caller projects an array with project_simplex.
        sp = WcSubproblem(np.diag([1.0, 2.0]), np.zeros(2),
                          np.full(2, 0.5), 0.0)
        with pytest.raises(TypeError, match="SimplexWeights"):
            solve_wc_subproblem(sp, warm_start=start)

    @pytest.mark.parametrize("size", [1, 3])
    def test_warm_start_of_wrong_size_rejected(self, size):
        sp = WcSubproblem(np.eye(2), np.zeros(2), np.full(2, 0.5), 0.0)
        start = SimplexWeights(np.full(size, 1.0 / size))
        with pytest.raises(ValueError, match=f"^warm_start has {size} weights, expected 2$"):
            solve_wc_subproblem(sp, warm_start=start)

    def test_cold_start_interior_optimum_at_scale(self):
        # Columns of size 1e2 with a strong alignment term, started cold: the
        # optimum is interior, at (19/54, 1/12, 61/108), and its gradient
        # floor is above the absolute 1e-10.
        cols = np.array([[100.0, 300.0], [-300.0, -200.0], [-200.0, 0.0]]).T
        sp = WcSubproblem(cols, np.array([300.0, 300.0, 400.0]),
                          np.array([0.3, 0.4, 0.3]), 50.0)
        lam, residual = solve_wc_subproblem(sp)
        np.testing.assert_allclose(lam.lam, [19 / 54, 1 / 12, 61 / 108], atol=1e-12)
        grad_max = 2.0 * np.abs(sp.scaled_gram).max() + np.abs(sp.linear_term).max()
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
        st.lists(st.floats(-1.0, 2.0), min_size=s, max_size=s)
        .map(lambda z: project_simplex(np.array(z))),
    ))
    sp = WcSubproblem(cols, phi, r / r.sum(), u)
    return sp, warm


class TestSolveWcSubproblemProperties:
    RESOLUTION = 1e-4

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(wc_instances())
    def test_matches_grid_minimum_and_certifies(self, instance):
        sp, warm = instance
        s = sp.size
        lam, residual = solve_wc_subproblem(sp, warm_start=warm)
        scaled = sp.scaled_gram
        lin = sp.linear_term
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


def numpy_certification(gram, phi, r, u, lam):
    """The warm-start certification written as NumPy expressions: (scaled
    Gram, linear term, gradient scale, floor, KKT residual, certified)."""
    scaled = gram * np.outer(r, r)
    lin = u * (r * phi)
    grad_scale = 2.0 * float(np.abs(scaled).max(initial=0.0)) + float(np.abs(lin).max(initial=0.0))
    floor = 64.0 * np.finfo(float).eps * grad_scale
    grad = 2.0 * scaled.dot(lam) - lin
    g_active = grad[lam > 0.0]
    base = float(g_active.min())
    residual = max(float(g_active.max()) - base, base - float(grad.min()))
    return scaled, lin, grad_scale, floor, residual, residual <= max(1e-10, floor)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@st.composite
def certification_cases(draw):
    """Columns for 1 to 8 weights (a zero column included) with Grams at
    scales from 1e-150 to 1e150, u = 0 or u > 0, and weights with zeros.
    With u > 0, phi may instead be set so that the residual is near the
    certification tolerance, on either side of it."""
    s = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 6))
    entry = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    cols = np.array(draw(st.lists(st.lists(entry, min_size=s, max_size=s),
                                  min_size=rows, max_size=rows)))
    if draw(st.booleans()):
        cols[:, draw(st.integers(0, s - 1))] = 0.0
    cols = cols * 10.0 ** draw(st.floats(-75.0, 75.0))
    r = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=s, max_size=s)))
    r = np.ones(s) if draw(st.booleans()) else r / r.sum()
    u = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    phi = np.array(draw(st.lists(entry, min_size=s, max_size=s)))
    phi = phi * 10.0 ** draw(st.floats(-150.0, 150.0))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                            min_size=s, max_size=s))
    weights[draw(st.integers(0, s - 1))] = draw(st.floats(1e-3, 1.0))
    lam = np.array(weights) / sum(weights)
    warm = SimplexWeights(lam)
    if u > 0.0 and draw(st.booleans()):
        # Aim every gradient at 0 except the first active one at t and the
        # inactive ones at -t, so the residual is about t.
        gram = cols.T @ cols
        g0 = 2.0 * (gram * np.outer(r, r)).dot(warm.lam)
        tol = max(1e-10, 64.0 * np.finfo(float).eps * (2.0 * np.abs(gram * np.outer(r, r)).max()
                                                         + np.abs(g0).max()))
        t = draw(st.floats(0.5, 2.0)) * tol
        target = np.where(warm.lam > 0.0, 0.0, -t)
        target[np.flatnonzero(warm.lam)[0]] = t
        phi = (g0 - target) / (u * r)
    return cols, phi, r, u, warm


class TestLeanCertification:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(certification_cases())
    def test_matches_numpy_formulas_bitwise(self, case):
        cols, phi, r, u, warm = case
        sp = WcSubproblem(cols, phi, r, u)
        scaled, lin, grad_scale, floor, residual, certified = numpy_certification(
            sp.gram, sp.phi, sp.r, u, warm.lam)
        assert same_bits(sp.scaled_gram, scaled) and same_bits(sp.linear_term, lin)
        assert same_bits(sp.grad_scale, grad_scale)
        assert same_bits(64.0 * subsolvers._EPS * sp.grad_scale, floor)
        grad = 2.0 * sp.scaled_gram.dot(warm.lam) - sp.linear_term
        assert same_bits(subsolvers._kkt_residual(grad, warm.lam), residual)
        try:
            lam, lean_residual = solve_wc_subproblem(sp, warm_start=warm)
        except WcSolverError:
            assert not certified
            return
        assert (lam is warm) == certified
        if certified:
            assert same_bits(lean_residual, residual)

    def test_both_sides_of_the_tolerance(self):
        # Zero columns and phi = (a, a + k ulp): the residual climbs one ulp
        # of u * r * phi per step through the floor 64 eps * max|u r phi|.
        a = 1e8
        outcomes = []
        for k in range(150):
            phi = np.array([a, a + k * math.ulp(a)])
            sp = WcSubproblem(np.zeros((2, 2)), phi, np.full(2, 0.5), 1.0)
            warm = SimplexWeights(np.full(2, 0.5))
            *_, residual, certified = numpy_certification(sp.gram, sp.phi, sp.r, 1.0, warm.lam)
            lam, lean_residual = solve_wc_subproblem(sp, warm_start=warm)
            assert (lam is warm) == certified
            if certified:
                assert same_bits(lean_residual, residual)
            outcomes.append(certified)
        # Certified up to the boundary, not past it.
        assert outcomes[0] and not outcomes[-1]
        assert outcomes == sorted(outcomes, reverse=True)
