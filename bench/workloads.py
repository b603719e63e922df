"""The benchmark's workloads: inputs from a seed, one repetition, output checks.

Every workload is a config under ``bench/configs`` plus overrides.  The seed
generates the inputs handed to the library through the same override
mechanism a user has (``--set``): the upper-level starting point ``x0``
(standard normal scaled by ``X0_SCALE``) and the solver seed, which drives
the stochastic sampler.  The problem instances are the shipped ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from mobilevel import cli, optimizer
from mobilevel.optimizer import TERM_COMPLETED, expected_counters

X0_SCALE = 0.1


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: tuple = ()
    grids: tuple = ()  # preference grids of a sweep; empty for a single run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quad-cg", "quadratic_preferred.ini"),
        Workload("quad-ns", "quadratic_preferred.ini", ("solver.option=ns",)),
        Workload("hypercleaning", "hypercleaning.ini"),
        Workload(
            "sweep-50",
            "quadratic_preferred.ini",
            ("problem.p=50", "problem.q=50", "problem.s=3", "solver.k=300"),
            ("preferred", "extreme"),
        ),
    )
}


def seeded_overrides(workload, config_path, seed, iterations=None):
    """Config overrides for one seed: the workload's own, then the generated inputs."""
    overrides = list(workload.overrides)
    if iterations is not None:
        overrides.append(f"solver.k={iterations}")
    parser = cli.load_config(config_path, overrides)
    dim_x = cli.build_problem(parser, config_path)[0].dim_x
    x0 = X0_SCALE * np.random.default_rng(seed).standard_normal(dim_x)
    overrides.append("problem.x0=" + ",".join(format(v, ".17g") for v in x0))
    overrides.append(f"solver.seed={seed}")
    return overrides


def summary_text(result, s_count):
    """The sweep summary CSV, in the layout ``mobilevel sweep`` writes (``cli`` inlines it)."""
    fmt = cli._fmt
    header = (
        [f"r_{i + 1}" for i in range(s_count)]
        + [f"phi_{i + 1}" for i in range(s_count)]
        + ["d_norm_sq", "status"]
    )
    lines = [",".join(header)]
    for entry in result.entries:
        row = [fmt(v) for v in entry.preference.r]
        if entry.error is None:
            row += [fmt(v) for v in entry.final_phi] + [fmt(entry.final_d_norm_sq), "ok"]
        else:
            row += [""] * s_count + ["", "failed"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def run_once(built, problem, out_dir):
    """One repetition: solve, then put the trace CSV(s) and the record on disk.

    Output goes through the CLI's own functions, looked up on ``cli`` at each
    call so that the traced run can span them.  Returns
    ``[(preference, trace, csv_text, error), ...]``, one per run.
    """
    s_count = problem.num_objectives
    x0, y0 = built["x0"], built["y0"]
    if built["grids"]:
        result = optimizer.pareto_sweep(problem, built["config"], built["preferences"], x0, y0)
        runs = []
        for index, entry in enumerate(result.entries):
            text = cli.trace_csv_text(entry.trace, s_count) if entry.trace is not None else ""
            cli._write_text(os.path.join(out_dir, "traces", f"run_{index:03d}.csv"), text)
            runs.append((entry.preference, entry.trace, text, entry.error))
        cli._write_text(os.path.join(out_dir, "summary.csv"), summary_text(result, s_count))
        return runs
    preference, config = built["preferences"][0], built["resolved"][0]
    run = optimizer.run_stochastic if built["kind"] == "stochastic" else optimizer.run_deterministic
    trace = run(problem, config, preference, x0, y0)
    text = cli.trace_csv_text(trace, s_count)
    cli._write_text(os.path.join(out_dir, "trace.csv"), text)
    record = cli.run_record(trace, config, built["summary"], preference)
    cli._write_text(os.path.join(out_dir, "run.json"), json.dumps(record, indent=2, sort_keys=True) + "\n")
    return [(preference, trace, text, None)]


def check_run(built, trace, text, error):
    """Reasons a run fails the output checks; empty when it passes."""
    if error is not None:
        return [f"raised: {error}"]
    config = built["config"]
    option = "stochastic" if built["kind"] == "stochastic" else config.option
    expected = expected_counters(config, built["problem"].num_objectives, option)
    problems = []
    if trace.termination != TERM_COMPLETED:
        problems.append(f"termination {trace.termination!r}")
    if trace.iterations != config.K:
        problems.append(f"{trace.iterations} iterations, expected {config.K}")
    if trace.counters.as_tuple() != expected.as_tuple():
        problems.append(f"counters {trace.counters.as_tuple()} != {expected.as_tuple()}")
    finite = np.all(np.isfinite(trace.final_x)) and np.all(np.isfinite(trace.final_y))
    if not finite or "nan" in text or "inf" in text:
        problems.append("non-finite output")
    return problems


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def exact_gradients(problem, x, y_start):
    """Exact ``(phi, grad_phi)`` at ``x`` for problems with or without a reference.

    The quadratic family has closed forms.  Otherwise the full-batch lower
    problem is solved by gradient descent to a gradient norm of 1e-11 and the
    Hessian system is solved densely, built column by column from the
    Hessian- and Jacobian-vector oracles.
    """
    det = problem.deterministic() if hasattr(problem, "deterministic") else problem
    if det.reference is not None:
        return det.reference.phi(x), det.reference.grad_phi(x)
    y = np.array(y_start, dtype=float)
    step = det.constants.default_ll_step()
    for _ in range(200_000):
        grad = det.ll_grad_y(x, y)
        if float(np.linalg.norm(grad)) <= 1e-11:
            break
        y = y - step * grad
    else:
        raise RuntimeError("reference lower solve did not converge")
    eye = np.eye(det.dim_y)
    hessian = np.column_stack([det.ll_hvp(x, y, e) for e in eye])
    jacobian = np.column_stack([det.ll_jvp(x, y, e) for e in eye])
    s_count = det.num_objectives
    phi = np.array([det.ul_value(s, x, y) for s in range(s_count)])
    grads = np.column_stack([
        det.ul_grad_x(s, x, y) - jacobian @ np.linalg.solve(hessian, det.ul_grad_y(s, x, y))
        for s in range(s_count)
    ])
    return phi, grads


def quality(problem, runs):
    """``(pref_phi, stationarity_gap)`` of one repetition's runs.

    ``pref_phi`` is r . phi(x_K), averaged over a sweep's preferences;
    ``stationarity_gap`` is ||grad_phi(x_K) (r * lambda)||^2 with the last
    weights, the maximum over a sweep's preferences.
    """
    values, gaps = [], []
    for preference, trace, _, _ in runs:
        phi, grads = exact_gradients(problem, trace.final_x, trace.final_y)
        direction = grads @ (preference.r * trace.records[-1].weights.lam)
        values.append(float(preference.r @ phi))
        gaps.append(float(direction @ direction))
    return float(np.mean(values)), max(gaps)
