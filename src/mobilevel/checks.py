"""The registry of correctness checks behind ``mobilevel verify`` and the
acceptance suite.

It holds the ten acceptance criteria, each at its stated tolerance, and five
checks of the benchmark oracles and the simplex projection.  Expected values
come from independent oracles: analytic ground truth, central finite
differences, brute-force simplex grids, and closed-form counting.  Each
check returns its detail line or fails a ``_require``; plain ``verify`` runs
the ``quick`` ones and ``verify --full`` runs all of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np

from . import cli
from .benchmarks import (
    HypercleaningToySpec,
    QuadraticBilevelSpec,
    brute_force_min_norm,
    brute_force_simplex_min,
    finite_diff_hypergrad,
    make_hypercleaning_toy,
    make_quadratic,
)
from .core import (
    HESSIAN,
    DeterministicOracles,
    HypergradientMatrix,
    Preference,
    SolverConfig,
    validate_problem,
    wrap_deterministic,
)
from .hypergrad import (
    hypergrad_cg,
    hypergrad_ns,
    lower_level_solve,
    stochastic_hvp_neumann,
)
from .optimizer import (
    expected_counters,
    pareto_sweep,
    run_deterministic,
    run_stochastic,
)
from .subsolvers import WcSubproblem, project_simplex, solve_wc_subproblem


class _Failed(Exception):
    """A condition of a check does not hold; the message says which."""


def _require(condition, detail: str) -> str:
    """Fail the check with ``detail`` unless ``condition`` holds; return ``detail``."""
    if not condition:
        raise _Failed(detail)
    return detail


@dataclass(frozen=True)
class Check:
    """One registry entry: ``fn`` returns its detail or fails a ``_require``."""

    name: str
    fn: Callable[[], str]
    quick: bool

    def run(self) -> Tuple[bool, str]:
        try:
            return True, self.fn()
        except _Failed as exc:
            return False, str(exc)


# name -> check, in the order ``verify`` runs them.
CHECKS: dict = {}


def _check(name: str, quick: bool):
    def register(fn):
        CHECKS[name] = Check(name, fn, quick)
        return fn

    return register


def _verify_quadratic(seed: int = 0):
    """Problem factory of the oracle checks (patchable in tests)."""
    spec = QuadraticBilevelSpec.random(4, 5, 3, seed=seed, hessian_scale=0.25)
    return make_quadratic(spec)


# ---------------------------------------------------------------------------
# Benchmark oracles and the simplex projection


@_check("oracle-symmetry", quick=True)
def _oracle_symmetry():
    problem, _ = _verify_quadratic()
    rng = np.random.default_rng(0)
    diag = validate_problem(problem, rng.standard_normal(4), rng.standard_normal(5))
    return _require(diag.max_residual() <= 1e-10, f"max residual {diag.max_residual():.2e}")


@_check("oracle-curvature", quick=True)
def _oracle_curvature():
    problem, constants = _verify_quadratic()
    rng = np.random.default_rng(1)
    diag = validate_problem(problem, rng.standard_normal(4), rng.standard_normal(5))
    return _require(diag.rayleigh_min >= constants.mu_g - 1e-9,
                    f"rayleigh {diag.rayleigh_min:.4f} vs mu_g {constants.mu_g:.4f}")


@_check("analytic-consistency", quick=True)
def _analytic_consistency():
    worst = 0.0
    for seed in range(5):
        problem, _ = _verify_quadratic(seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal(problem.dim_x)
        ys = problem.reference.y_star(x)
        analytic = problem.reference.grad_phi(x)
        for s in range(problem.num_objectives):
            rhs = problem.ul_grad_y(s, x, ys)
            hessian = np.column_stack(
                [problem.ll_hvp(x, ys, e) for e in np.eye(problem.dim_y)]
            )
            v = np.linalg.solve(hessian, rhs)
            implicit = problem.ul_grad_x(s, x, ys) - problem.ll_jvp(x, ys, v)
            worst = max(worst, float(np.abs(implicit - analytic[:, s]).max()))
    return _require(worst <= 1e-10, f"max gap {worst:.2e}")


@_check("simplex-projection", quick=True)
def _simplex_projection():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(30):
        s = int(rng.integers(2, 4))
        z = 3.0 * rng.standard_normal(s)
        w = project_simplex(z).lam

        def objective(grid, z=z):
            diff = grid - z[None, :]
            return np.sum(diff * diff, axis=1)

        best, _ = brute_force_simplex_min(objective, s, 1e-3)
        worst = max(worst, float(np.abs(w - best).max()))
    return _require(worst <= 2e-3, f"max gap to grid {worst:.2e}")


@_check("hypercleaning-oracles", quick=True)
def _hypercleaning_oracles():
    spec = HypercleaningToySpec(
        feature_dim=4, n_train=30, n_val=30,
        corruption_rates=(0.0, 0.3, 0.5), seed=5,
    )
    toy, constants = make_hypercleaning_toy(spec)
    det = toy.deterministic()
    rng = np.random.default_rng(8)
    diag = validate_problem(det, np.zeros(toy.dim_x), 0.1 * rng.standard_normal(toy.dim_y))
    curvature_ok = diag.rayleigh_min >= constants.mu_g - 1e-12
    full = toy.full_batch("ll_step")
    x = np.zeros(toy.dim_x)
    y = 0.1 * rng.standard_normal(toy.dim_y)
    bitwise = np.array_equal(toy.ll_grad_y(x, y, full), det.ll_grad_y(x, y))
    return _require(
        curvature_ok and bitwise and diag.max_residual() <= 1e-10,
        f"rayleigh {diag.rayleigh_min:.4f} (mu_g {constants.mu_g}), full-batch bitwise {bitwise}",
    )


# ---------------------------------------------------------------------------
# The ten acceptance criteria


@_check("hypergradient-correctness", quick=True)
def _criterion_1():
    # 20 seeded quadratic problems (p, q <= 20, S <= 5); CG with a deep
    # lower solve against the analytic total derivative and against the
    # central-difference oracle.
    rng = np.random.default_rng(123)
    worst_rel, worst_fd = 0.0, 0.0
    for seed in range(20):
        p = int(rng.integers(2, 21))
        q = int(rng.integers(2, 21))
        s_count = int(rng.integers(1, 6))
        spec = QuadraticBilevelSpec.random(p, q, s_count, seed=seed, hessian_scale=0.25)
        problem, constants = make_quadratic(spec)
        x = rng.standard_normal(p)
        y_d = lower_level_solve(problem, x, np.zeros(q), 400, 1.0 / constants.L)
        analytic = problem.reference.grad_phi(x)
        for s in range(s_count):
            grad, _ = hypergrad_cg(problem, x, y_d, s, None, q)
            rel = np.linalg.norm(grad - analytic[:, s])
            rel /= np.linalg.norm(analytic[:, s])
            _require(rel <= 1e-6, f"problem {seed} column {s}: CG relative error {rel:.2e}")
            fd = finite_diff_hypergrad(problem, x, s, h=1e-5)
            gap = np.abs(fd - analytic[:, s]).max()
            _require(gap <= 1e-4, f"problem {seed} column {s}: finite-difference gap {gap:.2e}")
            worst_rel, worst_fd = max(worst_rel, rel), max(worst_fd, gap)
    return f"CG relative error {worst_rel:.2e}, finite-difference gap {worst_fd:.2e}"


@_check("series-bias-decay", quick=True)
def _criterion_2():
    # Fixed x, cold lower-level starts, step 1/L: the estimator error is
    # monotone in the trajectory depth and contracts by at least
    # (1 - alpha mu)^8 (plus slack) per doubling.
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
            truth = problem.reference.grad_phi(x)[:, s]
            worst = max(worst, float(np.linalg.norm(grad - truth)))
        errors.append(worst)
    return _require(all(b < a and b <= bound * a for a, b in zip(errors, errors[1:])),
                    f"errors {['%.2e' % e for e in errors]}, ratio bound {bound:.3f}")


@_check("weight-subproblem", quick=True)
def _criterion_3():
    # 200 random PSD instances at two and three objectives: certified KKT
    # residuals, objective parity with a fine simplex grid, and matching
    # minimum-norm weights in the unweighted case.
    rng = np.random.default_rng(77)
    for i in range(200):
        s_count = 2 + (i % 2)
        p = int(rng.integers(s_count, 8))
        cols = rng.standard_normal((p, s_count))
        gram = cols.T @ cols
        if i % 2 == 0:
            r = np.full(s_count, 1.0 / s_count)
            u = 0.0
        else:
            raw = rng.uniform(0.1, 1.0, s_count)
            r = raw / raw.sum()
            u = float(rng.choice([0.1, 1.0, 10.0]))
        phi = rng.uniform(0.0, 5.0, s_count)
        sp = WcSubproblem(HypergradientMatrix(cols, phi), r, u)
        lam, kkt = solve_wc_subproblem(sp)
        _require(kkt <= 1e-10, f"instance {i}: KKT residual {kkt:.2e}")

        def objective(grid, r=r, gram=gram, phi=phi, u=u):
            scaled = grid * r[None, :]
            quad = np.einsum("ni,ij,nj->n", scaled, gram, scaled)
            return quad - u * (grid @ (r * phi))

        _, grid_val = brute_force_simplex_min(objective, s_count, 1e-4)
        gap = abs(sp.objective(lam.lam) - grid_val)
        _require(gap <= 1e-6, f"instance {i}: objective gap to grid {gap:.2e}")
        if u == 0.0:
            reference = brute_force_min_norm([cols[:, j] for j in range(s_count)])
            gap = np.abs(lam.lam - reference.lam).max()
            _require(gap <= 1e-4, f"instance {i}: minimum-norm weight gap {gap:.2e}")
    return "200 instances certified"


@_check("direction-inequality", quick=False)
def _criterion_4():
    # Full runs on five benchmarks, three preferences each, tiny alignment
    # coefficient: ||d_k||^2 <= 2 r_max <d_k, column_s> + 1e-8 for all k, s.
    worst = -np.inf
    for seed in range(5):
        spec = QuadraticBilevelSpec.random(4, 4, 3, seed=seed, hessian_scale=0.25)
        problem, _ = make_quadratic(spec)
        prefs = (
            Preference.uniform(3),
            Preference.preferred(3, 0),
            Preference(np.array([0.5, 0.3, 0.2])),
        )
        for pref in prefs:
            config = SolverConfig(K=60, D=40, N=4, option="cg", u=1e-6)
            trace = run_deterministic(problem, config, pref, np.full(4, 2.0), np.zeros(4))
            _require(trace.iterations == 60, f"problem {seed}: {trace.iterations} iterations")
            for rec in trace.records:
                # With v = r*lam: ||d||^2 = v'Gv and <d, column_s> = (Gv)_s.
                v = pref.r * rec.weights.lam
                gv = rec.gram @ v
                dns = float(v @ gv)
                for s in range(3):
                    bound = 2.0 * pref.r_max * float(gv[s])
                    _require(dns <= bound + 1e-8,
                             f"problem {seed} iteration {rec.k}: violation {dns - bound:.2e}")
                    worst = max(worst, dns - bound)
    return f"worst violation {worst:.2e}"


@_check("convergence-rate", quick=False)
def _criterion_5():
    # Series option, depth 64, upper step from the smoothness rule: the
    # running average of the true-direction norms halves (within 0.65) as
    # the horizon doubles, and the best iterate is stationary to 1e-6.
    spec = QuadraticBilevelSpec.random(4, 4, 2, seed=5, hessian_scale=0.1)
    problem, constants = make_quadratic(spec)
    _require(constants.L_phi is not None, "no upper smoothness constant")
    pref = Preference(np.array([0.6, 0.4]))
    config = SolverConfig(K=500, D=64, option="ns", u=0.0)  # beta from rule
    trace = run_deterministic(problem, config, pref, np.full(4, 2.0), np.zeros(4))
    resolved = config.resolved(constants, pref.r_max)
    _require(resolved.beta == constants.default_ul_step(pref.r_max), "beta is not the rule step")
    true_d = np.array([rec.true_d_norm_sq for rec in trace.records])
    _require(true_d.shape == (500,), f"{true_d.shape[0]} iterations")
    ratio = true_d[:400].mean() / true_d[:200].mean()
    return _require(ratio <= 0.65 and true_d.min() <= 1e-6,
                    f"avg ratio {ratio:.3f}, min true d^2 {true_d.min():.2e}")


@_check("counter-identities", quick=True)
def _criterion_6():
    # Actual counters equal the closed forms exactly, zero tolerance, for
    # both deterministic estimators and the stochastic loop.
    spec = QuadraticBilevelSpec.random(3, 4, 3, seed=2, hessian_scale=0.2)
    problem, _ = make_quadratic(spec)
    pref = Preference.uniform(3)
    x0, y0 = np.zeros(3), np.zeros(4)
    k, d, n = 9, 6, 4
    cases = (
        ("ns", SolverConfig(K=k, D=d, N=n, option="ns"),
         (2 * k * 3, k * d, k * (d + 1) * 3, k * (d + 1) * 3)),
        ("cg", SolverConfig(K=k, D=d, N=n, option="cg"),
         (2 * k * 3, k * d, k * 3, k * n * 3)),
        ("stochastic", SolverConfig(K=5, D=7, Q=6, option="ns", beta=0.05),
         (2 * 5 * 3, 5 * 7, 5 * 3, 5 * 6 * 3)),
    )
    details = []
    for option, config, closed_form in cases:
        if option == "stochastic":
            trace = run_stochastic(wrap_deterministic(problem), config, pref, x0, y0)
        else:
            trace = run_deterministic(problem, config, pref, x0, y0)
        counts = trace.counters.as_tuple()
        _require(counts == closed_form, f"{option}: {counts}, expected {closed_form}")
        expected = expected_counters(config, 3, trace.estimator).as_tuple()
        _require(counts == expected, f"{option}: {counts}, expected_counters {expected}")
        details.append(f"{option}: {counts}")
    return "; ".join(details)


@_check("stochastic-consistency", quick=False)
def _criterion_7():
    # Zero-variance sampling reproduces the deterministic run on the toy
    # reweighting problem, and the sampled Hessian-inverse recursion hits
    # its closed form and its geometric error bound on diag(1, 2, 5).
    spec = HypercleaningToySpec(feature_dim=4, n_train=30, n_val=30,
                                corruption_rates=(0.0, 0.3, 0.5), seed=5)
    toy, constants = make_hypercleaning_toy(spec)
    big = 10**6
    config = SolverConfig(
        K=15, D=40, Q=150, T=big, D_f=big, D_g=big, B=big,
        option="ns", u=1.0, seed=2,
        alpha=1.0 / constants.L, eta=1.0 / constants.L, beta=0.5,
    )
    pref = Preference.uniform(3)
    x0, y0 = np.zeros(toy.dim_x), np.zeros(toy.dim_y)
    stochastic = run_stochastic(toy, config, pref, x0, y0)
    deterministic = run_deterministic(toy.deterministic(), config, pref, x0, y0)
    gap = np.abs(stochastic.final_phi - deterministic.final_phi).max()
    _require(gap <= 1e-3, f"final phi gap {gap:.2e}")

    hessian = np.diag([1.0, 2.0, 5.0])
    mu, l_const, eta = 1.0, 5.0, 0.19
    carrier = wrap_deterministic(DeterministicOracles(
        num_objectives=1, dim_x=1, dim_y=3,
        ul_value=lambda s, x, y: 0.0,
        ul_grad_x=lambda s, x, y: np.zeros(1),
        ul_grad_y=lambda s, x, y: np.zeros(3),
        ll_grad_y=lambda x, y: hessian @ y,
        ll_hvp=lambda x, y, v: hessian @ v,
        ll_jvp=lambda x, y, v: np.zeros(1),
    ))
    v0 = np.array([1.0, -2.0, 0.5])
    h_inv_v = np.linalg.solve(hessian, v0)
    for q_steps in (10, 20, 40):
        batches = [carrier.full_batch(HESSIAN)] * q_steps
        out = stochastic_hvp_neumann(carrier, np.zeros(1), np.zeros(3),
                                     v0, q_steps, eta, batches)
        series = eta * sum(
            np.linalg.matrix_power(np.eye(3) - eta * hessian, m) @ v0
            for m in range(q_steps + 1)
        )
        series_gap = np.abs(out - series).max()
        _require(series_gap <= 1e-12, f"Q={q_steps}: gap to the series {series_gap:.2e}")
        bound = (1 - eta * mu) ** (q_steps + 1)
        bound *= np.linalg.norm(h_inv_v) * (l_const / mu)
        error = np.linalg.norm(out - h_inv_v)
        _require(error <= bound, f"Q={q_steps}: error {error:.2e} above bound {bound:.2e}")
    return f"final phi gap {gap:.2e}"


@_check("front-exploration", quick=False)
def _criterion_8():
    # Two quadratic objectives with separated minima: the final value of
    # the first objective is nonincreasing in its preference weight, and
    # nonincreasing in the alignment coefficient at a fixed preference.
    spec = QuadraticBilevelSpec(
        dim_x=2, dim_y=2, num_objectives=2,
        hessian=np.array([[1.0, 0.1], [0.1, 0.8]]),
        coupling=np.array([[0.3, 0.1], [0.0, 0.2]]),
        x_targets=np.array([[2.0, 0.0], [-2.0, 0.5]]),
        y_targets=np.array([[1.0, 0.0], [0.0, -1.0]]),
    )
    problem, _ = make_quadratic(spec)
    x0, y0 = np.zeros(2), np.zeros(2)
    config = SolverConfig(K=400, D=48, N=2, option="cg", u=10.0)
    prefs = [Preference(np.array([v, 1.0 - v])) for v in (0.1, 0.3, 0.5, 0.7, 0.9)]
    sweep = pareto_sweep(problem, config, prefs, x0, y0)
    phi1 = [entry.final_phi[0] for entry in sweep.entries]
    detail = f"phi_1 along r_1 {['%.3f' % v for v in phi1]}"
    _require(all(b <= a + 1e-6 for a, b in zip(phi1, phi1[1:])), detail)

    pref = Preference(np.array([0.9, 0.1]))
    finals = []
    for u in (0.1, 1.0, 10.0, 20.0):
        trace = run_deterministic(problem, replace(config, u=u), pref, x0, y0)
        finals.append(trace.final_phi[0])
    detail += f", along u {['%.3f' % v for v in finals]}"
    return _require(all(b <= a + 1e-6 for a, b in zip(finals, finals[1:])), detail)


@_check("nonpreference-variant", quick=False)
def _criterion_9():
    # The plain minimum-norm run reaches a point whose true gradients admit
    # a near-zero convex combination, and its weight sequence matches the
    # uniform-preference run (whose direction is 1/S of the unscaled one,
    # compensated through the upper step).
    spec = QuadraticBilevelSpec.random(3, 3, 2, seed=21, hessian_scale=0.2)
    problem, _ = make_quadratic(spec)
    x0, y0 = np.full(3, 1.5), np.zeros(3)
    config = SolverConfig(K=300, D=64, option="ns", u=0.0, beta=0.05)
    nonpref = run_deterministic(problem, config, None, x0, y0)
    cols = problem.reference.grad_phi(nonpref.final_x)
    weights = brute_force_min_norm([cols[:, 0], cols[:, 1]])
    stationarity = float(np.linalg.norm(cols @ weights.lam) ** 2)
    _require(stationarity <= 1e-6, f"min-norm combination {stationarity:.2e}")

    uniform = run_deterministic(problem, replace(config, beta=0.05 * 2),
                                Preference.uniform(2), x0, y0)
    _require(nonpref.iterations == uniform.iterations, "iteration counts differ")
    gaps = [np.abs(a.weights.lam - b.weights.lam).max()
            for a, b in zip(nonpref.records, uniform.records)]
    return _require(all(gap <= 1e-6 for gap in gaps), f"min-norm combination "
                    f"{stationarity:.2e}, weight gap {max(gaps, default=0.0):.2e}")


@_check("reproducibility", quick=True)
def _criterion_10():
    # Identical config and seed produce byte-identical CSV and JSON output
    # across invocations, for single runs and sweeps.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = os.path.join(tmp, "out")
        config_path = os.path.join(tmp, "run.ini")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(f"""
[problem]
family = quadratic
p = 3
q = 3
s = 2
seed = 7
hessian_scale = 0.2

[solver]
option = cg
k = 50
d = 16
n = 3
u = 10.0
seed = 11

[preference]
pattern = preferred
index = 0

[output]
trace_csv = {out}/trace.csv
run_json = {out}/run.json
summary_csv = {out}/summary.csv
traces_dir = {out}/traces
""")

        def read(name):
            with open(os.path.join(out, name), "rb") as fh:
                return fh.read()

        run = ["run", "--config", config_path]
        sweep = ["sweep", "--config", config_path, "--grid", "preferred"]
        _require(cli.main(run) == 0, "run failed")
        csv_first, json_first = read("trace.csv"), read("run.json")
        _require(cli.main(run) == 0, "second run failed")
        _require(read("trace.csv") == csv_first, "run trace differs")
        _require(read("run.json") == json_first, "run record differs")
        seed = json.loads(json_first)["solver"]["seed"]
        _require(seed == 11, f"recorded solver seed {seed}, expected 11")

        _require(cli.main(sweep) == 0, "sweep failed")
        summary_first, trace_first = read("summary.csv"), read("traces/run_000.csv")
        _require(cli.main(sweep) == 0, "second sweep failed")
        _require(read("summary.csv") == summary_first, "sweep summary differs")
        _require(read("traces/run_000.csv") == trace_first, "sweep trace differs")
    return "run and sweep outputs byte-identical"
