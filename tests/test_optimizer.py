import functools
import hashlib
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mobilevel import cli, core, hypergrad, optimizer, subsolvers
from mobilevel import (
    ConfigurationError,
    OracleCounters,
    Preference,
    ProblemConstants,
    QuadraticBilevelSpec,
    RunFailure,
    SolverConfig,
    brute_force_min_norm,
    counted_oracles,
    expected_counters,
    make_quadratic,
    pareto_sweep,
    quadratic_weighted_optimum,
    run_deterministic,
    run_stochastic,
    wrap_deterministic,
)


QUADRATIC_INI = str(Path(__file__).resolve().parent.parent / "configs" / "quadratic_preferred.ini")
HYPERCLEANING_INI = str(Path(__file__).resolve().parent.parent / "configs" / "hypercleaning.ini")


@pytest.fixture(scope="module")
def two_objective():
    spec = QuadraticBilevelSpec.random(3, 4, 2, seed=13, hessian_scale=0.2)
    problem, constants = make_quadratic(spec)
    return spec, problem, constants


class TestRunDeterministic:
    def test_stationary_start_stays_put(self, two_objective):
        # Solve the weighted first-order condition in closed form and start
        # there: the first direction is (numerically) zero and x holds.
        spec, problem, _ = two_objective
        r = Preference(np.array([0.7, 0.3]))
        x_star = quadratic_weighted_optimum(spec, r.r * np.array([0.4, 0.6]))
        config = SolverConfig(K=3, D=400, N=4, option="cg", u=0.0)
        trace = run_deterministic(problem, config, r, x_star, np.zeros(4))
        assert trace.records[0].d_norm_sq <= 1e-10
        assert np.abs(trace.final_x - x_star).max() <= 1e-8

    def test_single_objective_linear_convergence(self):
        spec = QuadraticBilevelSpec.random(3, 3, 1, seed=2, hessian_scale=0.2)
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=500, D=32, N=3, option="cg", u=0.0)
        trace = run_deterministic(
            problem, config, Preference.uniform(1), np.zeros(3), np.zeros(3)
        )
        final_grad = problem.reference.grad_phi(trace.final_x)[:, 0]
        assert np.linalg.norm(final_grad) <= 1e-6
        assert all(np.array_equal(rec.weights.lam, [1.0]) for rec in trace.records)

    def test_k_zero_empty_run(self, two_objective):
        _, problem, _ = two_objective
        config = SolverConfig(K=0)
        trace = run_deterministic(
            problem, config, Preference.uniform(2), np.zeros(3), np.zeros(4)
        )
        assert trace.iterations == 0
        assert trace.final_phi is None
        assert trace.counters.as_tuple() == (0, 0, 0, 0)
        np.testing.assert_array_equal(trace.final_x, np.zeros(3))

    def test_dimension_checks(self, two_objective):
        _, problem, _ = two_objective
        with pytest.raises(ConfigurationError):
            run_deterministic(problem, SolverConfig(), Preference.uniform(2),
                              np.zeros(5), np.zeros(4))
        with pytest.raises(ConfigurationError):
            run_deterministic(problem, SolverConfig(), Preference.uniform(3),
                              np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("entry", ["deterministic", "nonpreference", "stochastic"])
    @pytest.mark.parametrize("name", ["x0", "y0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_start_rejected(self, two_objective, entry, name, bad):
        # Refused before any oracle call, naming the start, not reported as
        # a lower-level divergence.
        _, problem, _ = two_objective
        starts = {"x0": np.zeros(3), "y0": np.zeros(4)}
        starts[name][1] = bad
        config = SolverConfig(K=2, D=2, Q=2)
        if entry == "stochastic":
            run, problem, pref = run_stochastic, wrap_deterministic(problem), Preference.uniform(2)
        else:
            run = run_deterministic
            pref = None if entry == "nonpreference" else Preference.uniform(2)
        with pytest.raises(ConfigurationError, match=f"^{name} has a non-finite entry$"):
            run(problem, config, pref, starts["x0"], starts["y0"])

    def test_stop_tol_early_exit(self, two_objective):
        _, problem, _ = two_objective
        config = SolverConfig(K=500, D=50, N=4, option="cg", u=0.0, stop_tol=1e-4)
        trace = run_deterministic(
            problem, config, Preference.uniform(2), np.zeros(3), np.zeros(4)
        )
        assert trace.termination == "stop_tol"
        assert trace.iterations < 500
        assert trace.final_d_norm_sq <= 1e-4

    def test_failure_attaches_partial_trace(self, two_objective):
        _, problem, _ = two_objective
        # A divergent lower step fails at k = 0 with an empty partial trace;
        # a valid first iteration followed by a huge upper step fails later.
        config = SolverConfig(K=5, D=5, option="cg", N=2, alpha=1e9, beta=0.1, eta=0.1)
        with np.errstate(over="ignore"), pytest.raises(RunFailure) as info:
            run_deterministic(problem, config, Preference.uniform(2),
                              np.zeros(3), np.ones(4))
        assert info.value.trace is not None
        assert info.value.trace.termination.startswith("error")

    @pytest.mark.parametrize("fault, message", [
        ("ll_hvp_nan", "non-finite residual"),
        ("ul_grad_x_huge", "Gram matrix is not finite"),
    ])
    def test_failed_run_reports_last_completed_iterates(self, fault, message):
        # From iteration 1 on, a NaN Hessian product breaks CG inside the
        # estimation, or a huge upper gradient overflows the Gram in the
        # weight QP.  Either way the partial trace ends at the K = 1 run.
        spec = QuadraticBilevelSpec.random(3, 3, 2, seed=7, hessian_scale=0.2)
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=3, D=8, N=3, option="cg", u=1.0)
        r, x0, y0 = Preference.uniform(2), np.full(3, 0.5), np.zeros(3)
        calls = []
        if fault == "ll_hvp_nan":
            def ll_hvp(x, y, v):
                calls.append(1)
                return problem.ll_hvp(x, y, v) if len(calls) <= 6 else np.full(3, np.nan)
            faulty = replace(problem, ll_hvp=ll_hvp)  # N * S = 6 products per iteration
        else:
            def ul_grad_x(s, x, y):
                calls.append(1)
                return problem.ul_grad_x(s, x, y) * (1.0 if len(calls) <= 2 else 1e200)
            faulty = replace(problem, ul_grad_x=ul_grad_x)  # S = 2 calls per iteration
        one = run_deterministic(problem, replace(config, K=1), r, x0, y0)
        with np.errstate(over="ignore"), pytest.raises(RunFailure, match=f"at iteration 1: .*{message}") as info:
            run_deterministic(faulty, config, r, x0, y0)
        partial = info.value.trace
        assert partial.iterations == 1
        assert np.array_equal(partial.final_y, one.final_y)
        assert np.array_equal(partial.final_x, one.final_x)

    @pytest.mark.parametrize("mirrored, stop_tol, termination", [
        (True, 0.0, "stationary"),
        (True, 1e-4, "stationary"),  # an exact zero is stationary under any tolerance
        (False, 1e300, "stop_tol"),  # 0 < d_norm_sq <= stop_tol
    ])
    def test_stop_rule(self, two_objective, mirrored, stop_tol, termination):
        if mirrored:
            # Decoupled lower level and mirrored targets: columns (g, -g), so
            # the direction at equal weights is exactly zero.
            spec = QuadraticBilevelSpec(
                dim_x=2, dim_y=2, num_objectives=2,
                hessian=np.eye(2), coupling=np.zeros((2, 2)),
                x_targets=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                y_targets=np.zeros((2, 2)),
            )
            problem, _ = make_quadratic(spec)
        else:
            _, problem, _ = two_objective
        config = SolverConfig(K=5, D=4, N=2, alpha=0.5, beta=0.1, stop_tol=stop_tol)
        trace = run_deterministic(problem, config, Preference.uniform(2),
                                  np.zeros(problem.dim_x), np.zeros(problem.dim_y))
        assert trace.termination == termination
        assert trace.iterations == 1
        assert (trace.final_d_norm_sq == 0.0) is mirrored

    def test_counters_nondecreasing_and_exact(self, two_objective):
        _, problem, _ = two_objective
        for option in ("cg", "ns"):
            config = SolverConfig(K=6, D=7, N=3, option=option)
            trace = run_deterministic(
                problem, config, Preference.uniform(2), np.zeros(3), np.zeros(4)
            )
            counts = [rec.counters.as_tuple() for rec in trace.records]
            for earlier, later in zip(counts, counts[1:]):
                assert all(b >= a for a, b in zip(earlier, later))
            expected = expected_counters(config, 2, option)
            assert trace.counters.as_tuple() == expected.as_tuple()

    def test_early_stop_counters_match_recorded_iterations(self, two_objective):
        # An early-stopped run performed full oracle work for each recorded
        # iteration, so the closed forms hold with K set to that count.
        _, problem, _ = two_objective
        config = SolverConfig(K=500, D=12, N=3, option="cg", u=0.0, stop_tol=1e-4)
        trace = run_deterministic(
            problem, config, Preference.uniform(2), np.zeros(3), np.zeros(4)
        )
        assert 0 < trace.iterations < 500
        effective = replace(config, K=trace.iterations)
        assert trace.counters.as_tuple() == expected_counters(effective, 2, "cg").as_tuple()

    def test_explicit_steps_need_no_constants(self, two_objective):
        # A deterministic run reads alpha and beta, never eta: with both
        # given it needs no problem constants.
        _, problem, _ = two_objective
        config = SolverConfig(K=3, D=8, N=3, alpha=0.5, beta=0.05)
        trace = run_deterministic(
            replace(problem, constants=None), config, Preference.uniform(2),
            np.zeros(3), np.zeros(4),
        )
        assert trace.iterations == 3 and trace.config.eta is None

    def test_replay_bitwise(self, two_objective):
        _, problem, _ = two_objective
        config = SolverConfig(K=12, D=10, N=3, option="cg", u=0.5, seed=77)
        first = run_deterministic(problem, config, Preference.uniform(2),
                                  np.full(3, 0.5), np.zeros(4))
        second = run_deterministic(problem, config, Preference.uniform(2),
                                   np.full(3, 0.5), np.zeros(4))
        assert np.array_equal(first.final_x, second.final_x)
        assert np.array_equal(first.final_y, second.final_y)
        for a, b in zip(first.records, second.records):
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.weights.lam, b.weights.lam)
            assert a.d_norm_sq == b.d_norm_sq
            assert a.true_d_norm_sq == b.true_d_norm_sq


class TestWarmWeights:
    @pytest.mark.parametrize("option", ["cg", "ns"])
    def test_certified_weights_pass_through(self, monkeypatch, option):
        # The loop hands each QP the previous SimplexWeights: nothing is
        # projected, and an iteration whose warm start certifies (no face
        # solve) records the very weights object of the iteration before.
        parser = cli.load_config(QUADRATIC_INI, ["solver.k=20", f"solver.option={option}"])
        problem, _, x0, y0, _ = cli.build_problem(parser, QUADRATIC_INI)
        config = cli.build_solver_config(parser, QUADRATIC_INI)
        preference = cli.build_preference(parser, QUADRATIC_INI, problem.num_objectives)
        projections, face_solves, certified = [], [], []
        project, face_step = subsolvers.project_simplex, subsolvers._face_step
        monkeypatch.setattr(subsolvers, "project_simplex",
                            lambda z: projections.append(1) or project(z))
        monkeypatch.setattr(subsolvers, "_face_step",
                            lambda *args: face_solves.append(1) or face_step(*args))
        solve = optimizer.solve_wc_subproblem

        def recording_solve(sp, warm_start):
            before = len(face_solves)
            result = solve(sp, warm_start=warm_start)
            certified.append(len(face_solves) == before)
            return result

        monkeypatch.setattr(optimizer, "solve_wc_subproblem", recording_solve)
        records = run_deterministic(problem, config, preference, x0, y0).records
        assert not projections
        # The uniform start moves to a vertex once; every later QP certifies.
        assert certified == [False] + [True] * 19
        for k in range(1, 20):
            assert records[k].weights is records[k - 1].weights


class TestDescentProperties:
    def test_weighted_direction_inequality(self):
        # With a tiny alignment coefficient every hypergradient column
        # correlates with the update direction: ||d||^2 does not exceed
        # 2 r_max <d, column_s> by more than the slack, at every iteration.
        for seed in range(2):
            spec = QuadraticBilevelSpec.random(4, 4, 3, seed=seed, hessian_scale=0.25)
            problem, _ = make_quadratic(spec)
            pref = Preference(np.array([0.5, 0.3, 0.2]))
            config = SolverConfig(K=50, D=40, N=4, option="cg", u=1e-6)
            trace = run_deterministic(problem, config, pref,
                                      np.full(4, 2.0), np.zeros(4))
            for rec in trace.records:
                # With v = r*lam: ||d||^2 = v'Gv and <d, column_s> = (Gv)_s.
                v = pref.r * rec.weights.lam
                gv = rec.gram @ v
                dns = float(v @ gv)
                for s in range(3):
                    assert dns <= 2 * pref.r_max * float(gv[s]) + 1e-8

    def test_common_descent_with_small_step(self):
        # u = 0, near-exact oracles, tiny upper step: every objective value
        # is nonincreasing while the direction is meaningfully nonzero.
        spec = QuadraticBilevelSpec.random(3, 3, 3, seed=4, hessian_scale=0.2)
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=120, D=200, N=3, option="cg", u=0.0, beta=1e-3)
        trace = run_deterministic(problem, config, Preference.uniform(3),
                                  np.full(3, 2.0), np.zeros(3))
        phi = np.array([rec.phi for rec in trace.records])
        dns = np.array([rec.d_norm_sq for rec in trace.records])
        steps = np.diff(phi, axis=0)
        active = dns[:-1] > 1e-8
        assert np.all(steps[active] <= 1e-10)

    def test_rescaled_weights_certify_stationarity(self, two_objective):
        # lambda-hat = (r * lambda) / sum(r * lambda) stays on the simplex
        # and scales the certified direction norm by 1 / sum(r * lambda).
        _, problem, _ = two_objective
        pref = Preference(np.array([0.8, 0.2]))
        config = SolverConfig(K=20, D=30, N=4, option="cg", u=0.1)
        trace = run_deterministic(problem, config, pref, np.ones(3), np.zeros(4))
        for rec in trace.records:
            scaled = pref.r * rec.weights.lam
            total = scaled.sum()
            rescaled = scaled / total
            assert rescaled.min() >= 0.0
            assert rescaled.sum() == pytest.approx(1.0, abs=1e-12)
            # ||d||^2 = v'Gv with v = r*lam, and ||d-hat||^2 with v = lambda-hat.
            d_norm = np.sqrt(scaled @ rec.gram @ scaled)
            d_hat_norm = np.sqrt(rescaled @ rec.gram @ rescaled)
            assert d_hat_norm == pytest.approx(d_norm / total, rel=1e-9)


class TestRecordedGram:
    # Every record keeps the Gram its weight subproblem was built from, so
    # the record alone re-certifies the weights and gives the direction norm.

    @pytest.mark.parametrize("variant", ["cg", "ns", "stochastic", "none"])
    def test_weights_certify_on_recorded_gram(self, two_objective, variant):
        from mobilevel import HypercleaningToySpec, make_hypercleaning_toy

        _, problem, _ = two_objective
        x0, y0 = np.ones(3), np.zeros(4)
        pref = Preference(np.array([0.7, 0.3]))
        config = SolverConfig(K=20, D=20, N=3, u=1.0)
        if variant == "stochastic":
            spec = HypercleaningToySpec(feature_dim=3, n_train=20, n_val=20,
                                        corruption_rates=(0.0, 0.2, 0.4), seed=4)
            toy, constants = make_hypercleaning_toy(spec)
            pref = Preference(np.array([0.5, 0.3, 0.2]))
            config = SolverConfig(K=20, D=20, Q=5, T=8, D_f=8, D_g=8, B=4, u=1.0, seed=3,
                                  alpha=1.0 / constants.L, eta=1.0 / constants.L, beta=0.5)
            trace = run_stochastic(toy, config, pref,
                                   np.zeros(toy.dim_x), np.zeros(toy.dim_y))
        elif variant == "none":
            trace = run_deterministic(problem, config, None, x0, y0)
        else:
            trace = run_deterministic(problem, replace(config, option=variant), pref, x0, y0)
        assert (trace.termination, trace.iterations) == ("completed", 20)
        w = np.ones(2) if variant == "none" else pref.r
        u = trace.config.u
        for rec in trace.records:
            gram, lam = rec.gram, rec.weights.lam
            assert gram.shape == (w.size, w.size)
            assert not gram.flags.writeable
            # The QP gradient and certify tolerance as solve_wc_subproblem forms them.
            scaled = gram * np.outer(w, w)
            lin = u * (w * rec.phi)
            grad_scale = 2.0 * np.abs(scaled).max() + np.abs(lin).max()
            tol = max(subsolvers.KKT_TOL, 64.0 * np.finfo(float).eps * grad_scale)
            assert subsolvers._kkt_residual(2.0 * scaled.dot(lam) - lin, lam) <= tol
            v = w * lam
            slack = 1e-12 * np.abs(gram).max()
            assert v @ gram @ v == pytest.approx(rec.d_norm_sq, rel=1e-9, abs=slack)


class TestRunNonpreference:
    # r = None selects the non-preference variant of run_deterministic.

    def test_resolves_without_preference(self, two_objective):
        # No alignment term (u = 0), and beta's default at r_max = 1.
        _, problem, constants = two_objective
        config = SolverConfig(K=2, D=4, N=2, option="cg", u=10.0)
        trace = run_deterministic(problem, config, None, np.zeros(3), np.zeros(4))
        assert trace.config.u == 0.0
        assert trace.config.beta == constants.default_ul_step(1.0)

    def test_single_objective_reduces_to_descent(self):
        spec = QuadraticBilevelSpec.random(2, 3, 1, seed=8, hessian_scale=0.2)
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=300, D=32, option="ns", u=0.0)
        trace = run_deterministic(problem, config, None, np.zeros(2), np.zeros(3))
        assert all(np.array_equal(rec.weights.lam, [1.0]) for rec in trace.records)
        final_grad = problem.reference.grad_phi(trace.final_x)[:, 0]
        assert np.linalg.norm(final_grad) <= 1e-6

    def test_opposing_gradients_stop_immediately(self):
        # Decoupled lower level and mirrored targets give columns (g, -g);
        # the minimum-norm combination is zero at equal weights.
        spec = QuadraticBilevelSpec(
            dim_x=2, dim_y=2, num_objectives=2,
            hessian=np.eye(2), coupling=np.zeros((2, 2)),
            x_targets=np.array([[1.0, 1.0], [-1.0, -1.0]]),
            y_targets=np.zeros((2, 2)),
        )
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=5, D=4, option="ns", alpha=0.5, beta=0.1, eta=0.5)
        trace = run_deterministic(problem, config, None, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(trace.records[0].weights.lam, [0.5, 0.5], atol=1e-9)
        assert trace.records[0].d_norm_sq == 0.0
        assert trace.termination == "stationary"
        assert trace.iterations == 1

    def test_terminates_pareto_stationary(self):
        spec = QuadraticBilevelSpec.random(3, 3, 2, seed=21, hessian_scale=0.2)
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=300, D=64, option="ns", beta=0.05)
        trace = run_deterministic(problem, config, None, np.full(3, 1.5), np.zeros(3))
        cols = problem.reference.grad_phi(trace.final_x)
        weights = brute_force_min_norm([cols[:, 0], cols[:, 1]])
        assert np.linalg.norm(cols @ weights.lam) ** 2 <= 1e-6

    def test_matches_uniform_preference_weights(self):
        # The Gram scaling by a constant leaves the argmin unchanged, so the
        # weight sequences coincide once the trajectories do; the uniform
        # preference scales the direction by 1/S, compensated through beta.
        spec = QuadraticBilevelSpec.random(3, 3, 2, seed=21, hessian_scale=0.2)
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=150, D=64, option="ns", u=0.0, beta=0.05)
        nonpref = run_deterministic(problem, config, None, np.full(3, 1.5), np.zeros(3))
        scaled = replace(config, beta=config.beta * 2)
        uniform = run_deterministic(problem, scaled, Preference.uniform(2),
                                    np.full(3, 1.5), np.zeros(3))
        for a, b in zip(nonpref.records, uniform.records):
            assert np.abs(a.weights.lam - b.weights.lam).max() <= 1e-6


class TestParetoSweep:
    def test_single_preference_matches_run(self, two_objective):
        _, problem, _ = two_objective
        config = SolverConfig(K=15, D=20, N=3, option="cg", u=1.0)
        pref = Preference(np.array([0.6, 0.4]))
        sweep = pareto_sweep(problem, config, [pref], np.zeros(3), np.zeros(4))
        assert len(sweep) == 1
        direct = run_deterministic(problem, config, pref, np.zeros(3), np.zeros(4))
        np.testing.assert_array_equal(sweep.entries[0].final_phi, direct.final_phi)
        assert sweep.entries[0].final_d_norm_sq == direct.final_d_norm_sq
        assert sweep.entries[0].error is None

    def test_front_ordering_two_objectives(self):
        # Distinct upper-level minima: heavier preference on the first
        # objective lands at a lower final value for it.
        spec = QuadraticBilevelSpec(
            dim_x=2, dim_y=2, num_objectives=2,
            hessian=np.array([[1.0, 0.1], [0.1, 0.8]]),
            coupling=np.array([[0.3, 0.1], [0.0, 0.2]]),
            x_targets=np.array([[2.0, 0.0], [-2.0, 0.5]]),
            y_targets=np.array([[1.0, 0.0], [0.0, -1.0]]),
        )
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=300, D=48, N=2, option="cg", u=10.0)
        prefs = [Preference(np.array([v, 1.0 - v])) for v in (0.1, 0.3, 0.5, 0.7, 0.9)]
        sweep = pareto_sweep(problem, config, prefs, np.zeros(2), np.zeros(2))
        phi1 = [entry.final_phi[0] for entry in sweep.entries]
        assert all(b <= a + 1e-6 for a, b in zip(phi1, phi1[1:]))

    def test_failures_recorded_per_entry(self, two_objective):
        _, problem, _ = two_objective
        config = SolverConfig(K=5, D=5, N=2, option="cg", alpha=1e9, beta=0.1, eta=0.1)
        prefs = [Preference.uniform(2), Preference.preferred(2, 0)]
        with np.errstate(over="ignore"):
            sweep = pareto_sweep(problem, config, prefs, np.zeros(3), np.ones(4))
        assert len(sweep) == 2
        for entry in sweep.entries:
            assert entry.error is not None
            assert entry.final_phi is None
            assert entry.final_d_norm_sq is None

    def test_failed_entry_keeps_partial_trace_without_final_values(self, two_objective):
        # The lower gradient fails on its 7th call, in iteration 3 (D = 2):
        # the entry keeps the three finished records but reports no final values.
        _, problem, _ = two_objective
        calls = []

        def ll_grad_y(x, y):
            calls.append(None)
            if len(calls) == 7:
                raise FloatingPointError("injected")
            return problem.ll_grad_y(x, y)

        failing = replace(problem, ll_grad_y=ll_grad_y)
        config = SolverConfig(K=5, D=2, N=2, option="cg", beta=0.05)
        (entry,) = pareto_sweep(failing, config, [Preference.uniform(2)],
                                np.zeros(3), np.zeros(4)).entries
        assert "injected" in entry.error
        assert entry.trace.iterations == 3 and entry.trace.final_phi is not None
        assert entry.final_phi is None and entry.final_d_norm_sq is None

    def test_empty_preferences_rejected(self, two_objective):
        _, problem, _ = two_objective
        with pytest.raises(ConfigurationError):
            pareto_sweep(problem, SolverConfig(), [], np.zeros(3), np.zeros(4))


class TestRunStochastic:
    def test_full_batch_degenerates_to_deterministic(self, two_objective):
        # A zero-variance sampler with a deep Hessian recursion tracks the
        # deterministic series run to within the hypergradient truncation.
        # eta is kept small enough that the shrinking-batch feasibility
        # bound B*Q*(1-eta*mu)^(Q-1) >= 1 admits the 200-step recursion.
        _, problem, constants = two_objective
        stochastic = wrap_deterministic(problem)
        alpha = 1.0 / constants.L
        config = SolverConfig(K=40, D=64, Q=200, B=256, option="ns", u=1.0,
                              seed=5, alpha=alpha, eta=0.1)
        pref = Preference(np.array([0.7, 0.3]))
        st = run_stochastic(stochastic, config, pref, np.zeros(3), np.zeros(4))
        det = run_deterministic(problem, config, pref, np.zeros(3), np.zeros(4))
        assert np.abs(st.final_phi - det.final_phi).max() <= 1e-3

    def test_zero_variance_toy_run_converges(self):
        from mobilevel import HypercleaningToySpec, make_hypercleaning_toy

        spec = HypercleaningToySpec(feature_dim=4, n_train=30, n_val=30,
                                    corruption_rates=(0.0, 0.3, 0.5), seed=3)
        toy, constants = make_hypercleaning_toy(spec)
        config = SolverConfig(
            K=60, D=60, Q=100, T=10**6, D_f=10**6, D_g=10**6, B=10**6,
            option="ns", u=0.0, seed=2,
            alpha=1.0 / constants.L, eta=1.0 / constants.L, beta=1.0,
        )
        trace = run_stochastic(toy, config, Preference.uniform(3),
                               np.zeros(toy.dim_x), np.zeros(toy.dim_y))
        assert trace.final_d_norm_sq <= 1e-4

    def test_counters_match_closed_form(self, two_objective):
        _, problem, _ = two_objective
        stochastic = wrap_deterministic(problem)
        config = SolverConfig(K=6, D=8, Q=5, option="ns", beta=0.05)
        trace = run_stochastic(stochastic, config, Preference.uniform(2),
                               np.zeros(3), np.zeros(4))
        expected = expected_counters(config, 2, "stochastic")
        assert trace.counters.as_tuple() == expected.as_tuple()
        assert expected.as_tuple() == (2 * 6 * 2, 6 * 8, 6 * 2, 6 * 5 * 2)

    def test_replay_bitwise_prefix_of_longer_run(self):
        # A run is reproducible from its config: a K = 5 run repeats the
        # first five records of a K = 8 run bit for bit.
        from mobilevel import HypercleaningToySpec, make_hypercleaning_toy

        spec = HypercleaningToySpec(feature_dim=3, n_train=20, n_val=20,
                                    corruption_rates=(0.1, 0.4), seed=9)
        toy, constants = make_hypercleaning_toy(spec)
        config = SolverConfig(K=8, D=10, Q=6, T=8, D_f=8, D_g=8, B=3,
                              option="ns", seed=31,
                              alpha=1.0 / constants.L, eta=1.0 / constants.L,
                              beta=0.5)
        long, short = (
            run_stochastic(toy, replace(config, K=k), Preference.uniform(2),
                           np.zeros(toy.dim_x), np.zeros(toy.dim_y))
            for k in (8, 5)
        )
        assert (long.iterations, short.iterations) == (8, 5)
        for a, b in zip(long.records, short.records):
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.weights.lam, b.weights.lam)
            assert a.d_norm_sq == b.d_norm_sq
            assert a.counters == b.counters

    def test_rejects_nonpreference_variant(self, two_objective):
        _, problem, _ = two_objective
        with pytest.raises(ConfigurationError, match="needs a deterministic problem"):
            run_stochastic(wrap_deterministic(problem), SolverConfig(K=2, D=2, Q=2, beta=0.1),
                           None, np.zeros(3), np.zeros(4))

    def test_requires_constants(self, two_objective):
        _, problem, _ = two_objective
        stochastic = replace(wrap_deterministic(problem), constants=None)
        with pytest.raises(ConfigurationError):
            run_stochastic(stochastic, SolverConfig(beta=0.1, alpha=0.1, eta=0.1),
                           Preference.uniform(2), np.zeros(3), np.zeros(4))

    def test_batch_floor_guard(self, two_objective):
        _, problem, _ = two_objective
        stochastic = wrap_deterministic(problem)
        config = SolverConfig(K=2, D=2, Q=60, B=1, eta=0.9, alpha=0.5, beta=0.1)
        bad = replace(stochastic, constants=ProblemConstants(mu_g=1.0))
        with pytest.raises(ConfigurationError):
            run_stochastic(bad, config, Preference.uniform(2), np.zeros(3), np.zeros(4))

    def test_batch_schedule_computed_once_per_run(self, two_objective, monkeypatch):
        _, problem, _ = two_objective
        calls = []
        original = SolverConfig.validate_stochastic

        def counting(self, mu_g):
            calls.append(mu_g)
            return original(self, mu_g)

        monkeypatch.setattr(SolverConfig, "validate_stochastic", counting)
        config = SolverConfig(K=5, D=4, Q=3, option="ns", beta=0.05)
        trace = run_stochastic(wrap_deterministic(problem), config, Preference.uniform(2),
                               np.zeros(3), np.zeros(4))
        assert trace.iterations == 5
        assert len(calls) == 1

    def test_infeasible_schedule_is_a_config_error(self, two_objective):
        # eta * mu_g = 1.5 passes the batch floor (4 * 3 * 0.25 = 3) but has no
        # Neumann schedule; the run refuses it before its first iteration.
        _, problem, _ = two_objective
        stochastic = wrap_deterministic(problem)
        bad = replace(stochastic, constants=ProblemConstants(mu_g=1.0))
        for k in (0, 3):
            config = SolverConfig(K=k, D=2, Q=3, B=4, eta=1.5, alpha=0.5, beta=0.1)
            with pytest.raises(ConfigurationError, match="eta \\* mu_g"):
                run_stochastic(bad, config, Preference.uniform(2), np.zeros(3), np.zeros(4))


# The names a span around the loop's kernels patches, in the namespace the
# loop (or the estimator) calls them from.
KERNELS = (
    (optimizer, "lower_level_solve"),
    (optimizer, "stochastic_lower_solve"),
    (optimizer, "build_hypergradient_matrix"),
    (optimizer, "build_hypergradient_matrix_stochastic"),
    (optimizer, "WcSubproblem"),
    (optimizer, "solve_wc_subproblem"),
    (optimizer, "counted_oracles"),
    (optimizer, "counted_stochastic_oracles"),
    (hypergrad, "hypergrad_cg"),
    (hypergrad, "hypergrad_ns"),
    (hypergrad, "stochastic_hvp_neumann"),
    (hypergrad, "conjugate_gradient"),
)


class TestKernelNamespaces:
    """Every kernel call goes through its module namespace, so a wrapper
    patched there sees each one: a refactor that binds a kernel elsewhere
    fails here instead of leaving a layer's span empty."""

    @pytest.mark.parametrize("option, expected", [
        ("cg", {"lower_level_solve": 3, "build_hypergradient_matrix": 3,
                "hypergrad_cg": 6, "conjugate_gradient": 6}),
        ("ns", {"lower_level_solve": 3, "build_hypergradient_matrix": 3,
                "hypergrad_ns": 6}),
        ("stochastic", {"stochastic_lower_solve": 3,
                        "build_hypergradient_matrix_stochastic": 3,
                        "stochastic_hvp_neumann": 6}),
    ])
    def test_call_counts(self, two_objective, monkeypatch, option, expected):
        _, problem, constants = two_objective
        calls = {}
        for module, name in KERNELS:
            calls[name] = 0

            def counted(*args, _name=name, _kernel=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        pref = Preference(np.array([0.7, 0.3]))
        if option == "stochastic":
            config = SolverConfig(K=3, D=4, Q=3, B=8, u=1.0, seed=1,
                                  alpha=1.0 / constants.L, eta=1.0 / constants.L)
            run_stochastic(wrap_deterministic(problem), config, pref, np.zeros(3), np.zeros(4))
        else:
            config = SolverConfig(K=3, D=4, N=3, option=option, u=1.0)
            run_deterministic(problem, config, pref, np.zeros(3), np.zeros(4))
        shared = {"WcSubproblem": 3, "solve_wc_subproblem": 3, "counted_oracles": 1}
        assert calls == {name: 0 for _, name in KERNELS} | shared | expected


class TestExpectedCounters:
    def test_series_closed_form(self):
        config = SolverConfig(K=10, D=5)
        counters = expected_counters(config, 3, "ns")
        assert counters.gc_f == 60
        assert counters.gc_g == 50
        assert counters.jv_g == 10 * 6 * 3
        assert counters.hv_g == 10 * 6 * 3

    def test_cg_closed_form(self):
        config = SolverConfig(K=10, N=4)
        counters = expected_counters(config, 3, "cg")
        assert counters.jv_g == 30
        assert counters.hv_g == 120

    def test_k_zero_all_zero(self):
        config = SolverConfig(K=0)
        for option in ("cg", "ns", "stochastic"):
            assert expected_counters(config, 4, option).as_tuple() == (0, 0, 0, 0)

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_counters(SolverConfig(), 2, "exact")


def _forwarding(problem):
    """``problem`` with a plain ``ll_grad_y`` that forwards each call: no ``at``."""

    def ll_grad_y(*args):
        return problem.ll_grad_y(*args)

    return replace(problem, ll_grad_y=ll_grad_y)


def _bound(problem, stale=False):
    """``problem`` whose ``ll_grad_y.at`` is its own or, where it has none
    (the hyper-cleaning toy), binds x to the per-call gradient; a ``stale``
    one keeps the first x it sees."""
    own_at = getattr(problem.ll_grad_y, "at", None)
    seen = []

    def ll_grad_y(*args):
        return problem.ll_grad_y(*args)

    def at(x):
        seen.append(x)
        x = seen[0] if stale else x
        return own_at(x) if own_at is not None else functools.partial(problem.ll_grad_y, x)

    ll_grad_y.at = at
    return replace(problem, ll_grad_y=ll_grad_y)


class TestBoundLowerGradient:
    """The lower solves take ``ll_grad_y.at(x)`` when the oracle carries it;
    a run through the bound form is byte for byte the per-call run."""

    @staticmethod
    def _outputs(config_path, overrides, sweep, transform):
        """Trace CSV, record JSON, records and counters of the config's run,
        or of a ``pareto_sweep`` over the preferred grid, on ``transform(problem)``."""
        parser = cli.load_config(config_path, overrides)
        problem, kind, x0, y0, summary = cli.build_problem(parser, config_path)
        config = cli.build_solver_config(parser, config_path)
        s_count = problem.num_objectives
        problem = transform(problem)
        if sweep:
            prefs = [Preference.preferred(s_count, i) for i in range(s_count)]
            sweep_result = pareto_sweep(problem, config, prefs, x0, y0)
            traces = [entry.trace for entry in sweep_result.entries]
        else:
            prefs = [cli.build_preference(parser, config_path, s_count)]
            run = run_stochastic if kind == "stochastic" else run_deterministic
            traces = [run(problem, config, prefs[0], x0, y0)]
        out = []
        for pref, trace in zip(prefs, traces):
            out.append(cli.trace_csv_text(trace, s_count))
            out.append(json.dumps(cli.run_record(trace, trace.config, summary, pref)))
            out.append([
                (rec.k, rec.phi.tobytes(), rec.weights.lam.tobytes(), rec.d_norm_sq,
                 rec.true_d_norm_sq, rec.counters.as_tuple(), rec.gram.tobytes())
                for rec in trace.records
            ])
            out.append((trace.final_x.tobytes(), trace.final_y.tobytes(),
                        trace.counters.as_tuple()))
        return out

    @pytest.mark.parametrize("config_path, overrides, sweep", [
        (QUADRATIC_INI, [], False),
        (QUADRATIC_INI, ["solver.option=ns"], False),
        (QUADRATIC_INI, ["preference.pattern=none"], False),
        (HYPERCLEANING_INI, ["solver.k=12"], False),
        (QUADRATIC_INI, ["problem.p=50", "problem.q=50", "problem.s=3", "solver.k=60"], True),
    ], ids=["cg", "ns", "none", "hypercleaning", "sweep-50"])
    def test_run_equals_per_call_run(self, config_path, overrides, sweep):
        def outputs(transform):
            return self._outputs(config_path, overrides, sweep, transform)

        as_built = outputs(lambda problem: problem)
        assert as_built == outputs(_forwarding) == outputs(_bound)
        # The comparison sees a bound gradient that keeps its first x, so the
        # runs above did go through ``at``.
        assert as_built != outputs(functools.partial(_bound, stale=True))


UPPER_FORMS = ("ul_value", "ul_grad_x", "ul_grad_y", "reference.grad_phi")
ORACLE_FIELDS = ("ul_value", "ul_grad_x", "ul_grad_y", "ll_grad_y", "ll_hvp", "ll_jvp")


def _forwarding_upper(problem, fields, wrap):
    """``problem`` with each named upper oracle (``UPPER_FORMS``) replaced
    by ``wrap(name, oracle)``; a missing reference stays missing."""
    changes = {f: wrap(f, getattr(problem, f)) for f in fields if f != "reference.grad_phi"}
    if "reference.grad_phi" in fields and problem.reference is not None:
        changes["reference"] = replace(problem.reference, grad_phi=wrap(
            "reference.grad_phi", problem.reference.grad_phi))
    return replace(problem, **changes)


def _plain(name, oracle):
    """A function forwarding each call to ``oracle``, with no row form."""

    def vector(*args):
        return oracle(*args)

    return vector


def _without_row_forms(problem):
    """``problem`` with its vector oracles and ``ll_grad_y.at``, but none
    of the seven row forms."""

    def ll_grad_y(x, y):
        return problem.ll_grad_y(x, y)

    ll_grad_y.at = lambda x: problem.ll_grad_y.at(x)
    problem = _forwarding_upper(problem, UPPER_FORMS, _plain)
    return replace(problem, ll_grad_y=ll_grad_y, ll_hvp=_plain("ll_hvp", problem.ll_hvp),
                   ll_jvp=_plain("ll_jvp", problem.ll_jvp))


def _without_form(problem, name):
    """``problem`` with every oracle and optional form forwarded by a plain
    function, but without the form ``name`` (and the forms on it)."""
    fields = {field: _plain(field, getattr(problem, field)) for field in ORACLE_FIELDS}
    fields["reference"] = replace(problem.reference, grad_phi=_plain(
        "reference.grad_phi", problem.reference.grad_phi))
    core.forward_forms(problem, fields, lambda form, raw: (
        None if form.name == name else _plain(form.name, raw)))
    return replace(problem, **fields)


def _watching(problem, calls):
    """``problem`` whose vector upper oracles and ``reference.grad_phi``
    append their name to ``calls``; every row form is kept."""

    def watched(name, oracle):
        def vector(*args):
            calls.append(name)
            return oracle(*args)

        vector.rows = oracle.rows
        return vector

    return _forwarding_upper(problem, UPPER_FORMS, watched)


def _overflowing(problem, coordinate, limit):
    """``problem`` whose lower gradient, in every form, is scaled by 1e300
    wherever ``x[coordinate] > limit``: a run that crosses the limit fails
    in its lower solve (an overflow warning, or a non-finite iterate)."""
    at = problem.ll_grad_y.at

    def scale(x):
        return 1e300 if x[coordinate] > limit else 1.0

    def ll_grad_y(x, y):
        return problem.ll_grad_y(x, y) * scale(x)

    def ll_grad_y_at(x):
        grad, factor = at(x), scale(x)
        return lambda y: grad(y) * factor

    def ll_grad_y_at_rows(xs):
        grad = at.rows(xs)
        factors = np.where(xs[:, coordinate] > limit, 1e300, 1.0)[:, None]
        return lambda ys: grad(ys) * factors

    ll_grad_y_at.rows = ll_grad_y_at_rows
    ll_grad_y.at = ll_grad_y_at
    return replace(problem, ll_grad_y=ll_grad_y)


def _outputs(trace, error, s_count):
    """Everything a run hands out: trace CSV, records, final iterates, error."""
    records = [
        (rec.k, rec.phi.tobytes(), rec.weights.lam.tobytes(), rec.d_norm_sq,
         rec.true_d_norm_sq, rec.counters.as_tuple(), rec.gram.tobytes())
        for rec in trace.records
    ]
    return (cli.trace_csv_text(trace, s_count), records, trace.final_x.tobytes(),
            trace.final_y.tobytes(), trace.termination, error)


def _sweep_outputs(problem, config, prefs, x0, y0):
    sweep = pareto_sweep(problem, config, prefs, x0, y0)
    return [_outputs(e.trace, e.error, problem.num_objectives) for e in sweep.entries]


def _solo_outputs(problem, config, prefs, x0, y0):
    out = []
    for pref in prefs:
        try:
            trace, error = run_deterministic(problem, config, pref, x0, y0), None
        except RunFailure as failure:
            trace, error = failure.trace, str(failure)
        out.append(_outputs(trace, error, problem.num_objectives))
    return out


class TestLockstepSweep:
    """``pareto_sweep`` advances its preferences in lockstep through the row
    forms; each entry is byte for byte its preference's solo run, and the
    sweep without row forms (row by row) is too."""

    @staticmethod
    def _sweep_50(overrides=()):
        parser = cli.load_config(QUADRATIC_INI, [
            "problem.p=50", "problem.q=50", "problem.s=3", "solver.k=40", *overrides])
        problem, _, x0, y0, _ = cli.build_problem(parser, QUADRATIC_INI)
        config = cli.build_solver_config(parser, QUADRATIC_INI)
        prefs = [Preference.preferred(3, i) for i in range(3)]
        prefs += [Preference.extreme(3, i) for i in range(3)]
        return problem, config, prefs, x0, y0

    @staticmethod
    def _assert_equal_everywhere(problem, config, prefs, x0, y0):
        swept = _sweep_outputs(problem, config, prefs, x0, y0)
        assert swept == _solo_outputs(problem, config, prefs, x0, y0)
        assert swept == _sweep_outputs(_without_row_forms(problem), config, prefs, x0, y0)
        return swept

    @pytest.mark.parametrize("option", ["cg", "ns"])
    def test_entries_equal_solo_runs(self, option, monkeypatch):
        problem, config, prefs, x0, y0 = self._sweep_50([f"solver.option={option}"])
        calls = []
        lockstep = optimizer.build_hypergradient_rows

        def counting(*args):
            calls.append(len(args[1]))
            return lockstep(*args)

        monkeypatch.setattr(optimizer, "build_hypergradient_rows", counting)
        swept = self._assert_equal_everywhere(problem, config, prefs, x0, y0)
        # Every iteration of the sweep with row forms ran all six rows at once.
        assert calls == [len(prefs)] * config.K
        # ... and made one stacked call per upper oracle and one of
        # grad_phi.rows, no vector call.
        vector_calls = []
        watched = _watching(problem, vector_calls)
        assert _sweep_outputs(watched, config, prefs, x0, y0) == swept
        assert vector_calls == []
        expected = expected_counters(config, 3, option).as_tuple()
        for _, records, _, _, termination, error in swept:
            assert error is None and termination == "completed"
            assert records[-1][5] == expected
            # Each iteration charges each run gc_f = 2 S, as a solo run.
            assert [record[5][0] for record in records] == [6 * (k + 1) for k in range(config.K)]

    @pytest.mark.parametrize("missing", [form.name for form in core._FORMS if form.rows],
                             ids=lambda name: name.rsplit(".", 1)[0])
    def test_one_missing_upper_form_sweeps_row_by_row(self, missing, monkeypatch):
        # All or none: without any one row form, upper or lower, the sweep
        # takes the row by row path for every oracle, with the same outputs.
        problem, config, prefs, x0, y0 = self._sweep_50(["solver.k=12"])
        swept = _sweep_outputs(problem, config, prefs, x0, y0)

        def lockstep(*args):
            raise AssertionError("a lockstep iteration ran")

        monkeypatch.setattr(optimizer, "build_hypergradient_rows", lockstep)
        lacking = _without_form(problem, missing)
        assert _sweep_outputs(lacking, config, prefs, x0, y0) == swept

    @pytest.mark.parametrize("missing", [None] + [form.name for form in core._FORMS],
                             ids=lambda name: f"without-{name}" if name else "full")
    def test_counted_batch_has_the_problems_row_forms(self, two_objective, missing):
        # The sweep asks ``has_row_forms`` once, of the raw problem, for
        # every counted batch it makes: the two answers agree.
        _, problem, _ = two_objective
        if missing is not None:
            problem = _without_form(problem, missing)
        batch = counted_oracles(problem, [OracleCounters(), OracleCounters()])
        # Without ``ll_grad_y.at`` the form on it, ``at.rows``, goes too.
        assert core.has_row_forms(batch) == core.has_row_forms(problem) == (missing is None)

    @pytest.mark.parametrize("warning_filter", ["error", "ignore"])
    @pytest.mark.parametrize("option", ["cg", "ns"])
    def test_diverging_row_leaves_the_batch(self, two_objective, option, warning_filter):
        # Only the first preference drives x[2] above 0.05, after its first
        # iteration; its lower solve then overflows.  With warnings as
        # errors the overflow warning fails it, otherwise the non-finite
        # iterate does; the other rows go on in lockstep.
        _, problem, _ = two_objective
        failing = _overflowing(problem, 2, 0.05)
        config = SolverConfig(K=12, D=8, N=3, option=option, u=1.0)
        prefs = [Preference.preferred(2, 0), Preference.uniform(2), Preference.preferred(2, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter(warning_filter)
            swept = self._assert_equal_everywhere(failing, config, prefs, np.zeros(3), np.zeros(4))
        errors = [out[5] for out in swept]
        assert errors[0] is not None and errors[1:] == [None, None]
        assert len(swept[0][1]) >= 1
        message = "overflow" if warning_filter == "error" else "diverged"
        assert message in errors[0]
        # The reference is never evaluated at the x where the row failed.
        seen = []

        def watched(name, grad_phi):
            def vector(x):
                return grad_phi(x)

            vector.rows = lambda xs: seen.append(xs.copy()) or grad_phi.rows(xs)
            return vector

        watching = _forwarding_upper(failing, ["reference.grad_phi"], watched)
        with warnings.catch_warnings():
            warnings.simplefilter(warning_filter)
            sweep = pareto_sweep(watching, config, prefs, np.zeros(3), np.zeros(4))
        failed_at = sweep.entries[0].trace.final_x
        assert [len(xs) for xs in seen] == [3] * len(swept[0][1]) + [2] * (config.K - len(swept[0][1]))
        assert not any((xs == failed_at).all(axis=1).any() for xs in seen)

    def test_rows_stop_on_stop_tol_at_their_own_iteration(self):
        problem, config, prefs, x0, y0 = self._sweep_50(["solver.k=300"])
        config = replace(config, stop_tol=1e-12)
        swept = self._assert_equal_everywhere(problem, config, prefs, x0, y0)
        iterations = [len(out[1]) for out in swept]
        assert all(out[4] == "stop_tol" for out in swept)
        assert len(set(iterations)) > 1 and max(iterations) < config.K

    def test_lockstep_error_that_no_run_repeats_is_raised(self, two_objective):
        # A row form that raises where its vector oracle does not breaks the
        # row contract.  The loop redoes the iteration run by run, finds no
        # failing run, and raises instead of hiding the error.
        _, problem, _ = two_objective
        calls = []
        hvp_rows = problem.ll_hvp.rows

        def ll_hvp(x, y, v):
            return problem.ll_hvp(x, y, v)

        def flaky_rows(xs, ys, vs):
            calls.append(None)
            if len(calls) == 5:
                raise FloatingPointError("injected")
            return hvp_rows(xs, ys, vs)

        ll_hvp.rows = flaky_rows
        config = SolverConfig(K=6, D=4, N=3, option="cg", u=1.0)
        prefs = [Preference.preferred(2, 0), Preference.preferred(2, 1)]
        flaky = replace(problem, ll_hvp=ll_hvp)
        # Three Hessian products per iteration: the fifth is in iteration 1.
        with pytest.raises(RuntimeError, match="lockstep iteration 1 raised") as info:
            pareto_sweep(flaky, config, prefs, np.zeros(3), np.zeros(4))
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_zero_upper_gradient_objective_runs_in_lockstep(self, monkeypatch):
        # Objective 0 is a regularizer on x alone.  Its ``ul_grad_y`` is
        # zero, so its CG iterate stays exactly zero while the others' do
        # not; that zero is a warm start like any other, so every iteration
        # builds all six rows' columns in lockstep, with no failed attempt
        # to redo.
        problem, config, prefs, x0, y0 = self._sweep_50(["solver.k=10"])
        ul_value, ul_grad_x, ul_grad_y = problem.ul_value, problem.ul_grad_x, problem.ul_grad_y

        def value(s, x, y):
            return 0.5 * float(x.dot(x)) if s == 0 else ul_value(s, x, y)

        def grad_x(s, x, y):
            return x.copy() if s == 0 else ul_grad_x(s, x, y)

        def grad_y(s, x, y):
            return np.zeros(len(y)) if s == 0 else ul_grad_y(s, x, y)

        # The row forms, so that the sweep runs in lockstep.
        def value_rows(xs, ys):
            out = ul_value.rows(xs, ys)
            out[:, 0] = 0.5 * subsolvers._row_dots(xs, xs)
            return out

        def grad_x_rows(xs, ys):
            out = ul_grad_x.rows(xs, ys)
            out[:, 0] = xs
            return out

        def grad_y_rows(xs, ys):
            out = ul_grad_y.rows(xs, ys)
            out[:, 0] = 0.0
            return out

        value.rows, grad_x.rows, grad_y.rows = value_rows, grad_x_rows, grad_y_rows
        regularized = replace(problem, ul_value=value, ul_grad_x=grad_x, ul_grad_y=grad_y,
                              reference=None)
        calls = []
        lockstep = optimizer.build_hypergradient_rows

        def counting(oracles, x, *args):
            calls.append(len(x))
            return lockstep(oracles, x, *args)

        def no_redo(run):
            raise AssertionError("a lockstep attempt failed")

        monkeypatch.setattr(optimizer, "build_hypergradient_rows", counting)
        monkeypatch.setattr(optimizer._Run, "rewind_counters", no_redo)
        swept = self._assert_equal_everywhere(regularized, config, prefs, x0, y0)
        assert calls == [len(prefs)] * config.K
        expected = expected_counters(config, 3, "cg").as_tuple()
        assert all(out[1][-1][5] == expected and out[5] is None for out in swept)
        # The entries' traces as the row by row columns built them before
        # a zero CG iterate became a warm start.
        digest = hashlib.sha256("".join(out[0] for out in swept).encode()).hexdigest()
        assert digest == "f1b500d59afb49a9b32e5eba52ead290340aacb78bc30ea0df3373148a5d5f2e"


class TestStochasticCounterRun:
    """The stochastic run of the ``counter-identity`` check goes through
    ``wrap_deterministic``, which forwards ``ll_grad_y.at``."""

    @staticmethod
    def _run(transform):
        spec = QuadraticBilevelSpec.random(3, 4, 3, seed=2, hessian_scale=0.2)
        problem, _ = make_quadratic(spec)
        config = SolverConfig(K=5, D=7, Q=6, option="ns", beta=0.05)
        trace = run_stochastic(wrap_deterministic(transform(problem)), config,
                               Preference.uniform(3), np.zeros(3), np.zeros(4))
        return _outputs(trace, None, 3)

    def test_takes_the_bound_gradient_with_unchanged_output(self):
        as_built = self._run(lambda problem: problem)
        # The trace digest of this run before the wrappers forwarded ``at``.
        digest = hashlib.sha256(as_built[0].encode()).hexdigest()
        assert digest == "4739b8790b8e2d122928d71afdffb69b24ef89de9996dfb301228caafbf618f0"
        assert as_built[1][-1][5] == (30, 35, 15, 90)
        assert as_built == self._run(_forwarding)
        assert as_built != self._run(functools.partial(_bound, stale=True))
