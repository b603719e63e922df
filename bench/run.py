"""mobilevel benchmark: one workload, one seed, measured for a fixed time.

Usage (from the repository root):

    python3 bench/run.py --workload quad-cg --seed 1 --seconds 25 --trace 0

Builds nothing: it imports ``mobilevel`` from ``src/`` next to this
directory and refuses to run without it.  Set-up is timed in fresh
interpreters (``setup_probe.py``); the solve-and-write path is repeated in
this process until ``--seconds`` have passed.  Both are paced
(``pace.py``): their wall time is rescaled, every 2 ms, by how much slower
than on an unloaded CPU a calibration loop runs, which takes other tenants'
interference on a shared machine out; ``run_s`` and ``setup_s`` are medians
over the repetitions and probes.  ``--trace 0`` reports the
end-to-end metrics from untraced repetitions; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.  Every
repetition's output is checked.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``bench/README.md`` for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 15
MIN_REPS = 3
SMOKE_ITERATIONS = 2  # outer iterations K of a smoke run (``--seconds 0``)
SEED_ENV_VAR = "MOBL_SEED"  # the CLI's solver-seed override; the benchmark sets the seed itself

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "oracle_calls": "count",
    "pref_phi": "objective",
    "peak_rss_mb": "MB",
}

ORACLES = ("ul_value", "ul_grad_x", "ul_grad_y", "ll_grad_y", "ll_hvp", "ll_jvp")

# Self time of each reported layer: the sum over the spans of the functions
# that can fill that role.  A role is reported rather than each function so
# that every time metric is measured on every workload.
SELF_TIMES = {
    "optimizer.loop.self_s": ("optimizer.loop", "optimizer.pareto_sweep"),
    "hypergrad.lower_solve.self_s": (
        "hypergrad.lower_level_solve", "hypergrad.stochastic_lower_solve"),
    "hypergrad.build_matrix.self_s": (
        "hypergrad.build_hypergradient_matrix",
        "hypergrad.build_hypergradient_matrix_stochastic"),
    "hypergrad.columns.self_s": (
        "hypergrad.hypergrad_cg", "hypergrad.hypergrad_ns",
        "hypergrad.stochastic_hvp_neumann", "subsolvers.conjugate_gradient"),
    "subsolvers.WcSubproblem.self_s": ("subsolvers.WcSubproblem",),
    "subsolvers.solve_wc_subproblem.self_s": ("subsolvers.solve_wc_subproblem",),
    "subsolvers.project_simplex.self_s": ("subsolvers.project_simplex",),
    "core.counted_oracles.self_s": ("core.counted_oracles",),
    "cli.trace_csv_text.self_s": ("cli.trace_csv_text",),
    "cli.record.self_s": ("cli.record",),
    "cli.write.self_s": ("cli.write",),
    **{f"benchmarks.{o}.self_s": (f"benchmarks.{o}",) for o in ORACLES},
}

CALLS = (
    "hypergrad.lower_level_solve", "hypergrad.stochastic_lower_solve",
    "hypergrad.hypergrad_cg", "hypergrad.hypergrad_ns",
    "hypergrad.stochastic_hvp_neumann", "subsolvers.conjugate_gradient",
    "subsolvers.solve_wc_subproblem", "core.sample",
    *(f"benchmarks.{o}" for o in ORACLES),
)

PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{f"{name}.calls": "count" for name in CALLS},
    "optimizer.loop.iters": "count",
    "optimizer.stationarity_gap": "sq_norm",
    "subsolvers.solve_wc_subproblem.us_per_call": "us",
    "subsolvers.solve_wc_subproblem.warm_certified_ratio": "ratio",
    "subsolvers.project_simplex.per_qp": "count",
    "benchmarks.kernel.computed_gflop": "GFLOP",
    "benchmarks.kernel.computed_mb": "MB",
    "benchmarks.kernel.gflop_s": "GFLOP/s",
    "cli.import_s": "s",
    "cli.load_config.self_s": "s",
    "cli.build_problem.self_s": "s",
    "cli.trace_bytes": "B",
    "trace.overhead_s": "s",
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import ``mobilevel`` from this checkout's ``src`` and nowhere else."""
    package = SRC / "mobilevel"
    if not (package / "__init__.py").is_file():
        fail(f"no mobilevel package at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mobilevel

    if Path(mobilevel.__file__).resolve().parent != package.resolve():
        fail(f"imported mobilevel from {mobilevel.__file__}, not {package}")


def git_commit():
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info():
    import ctypes
    import glob

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        getter.argtypes = []
        info["threads"] = getter()
    return info


def environment(seed):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


def pin_to_fastest_cpu():
    """Pin this process (and the children it starts) to the CPU that runs a short loop fastest now.

    Other tenants of a shared virtual machine slow its virtual CPUs
    independently, each for seconds at a time, and the guest sees no steal
    time; running each measured step on the currently faster CPU keeps the
    measurement to the program's own cost.  The workloads run in one thread.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        return
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            begin = time.perf_counter()
            total = 0
            for i in range(20_000):
                total += i
            best = min(best, time.perf_counter() - begin)
        speeds[cpu] = best
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def setup_command(config_path, overrides, grids):
    command = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), config_path]
    for spec in grids:
        command += ["--grid", spec]
    for item in overrides:
        command += ["--set", item]
    return command


def time_setup(command):
    """Wall time from spawning a fresh interpreter to a set-up workload, and its paced phases.

    The interpreter start (``start``) is paced by the interpreter calibration
    loop timed just before the spawn; the probe paces the other phases itself.
    """
    gc.collect()
    pin_to_fastest_cpu()
    scale = pace.INTERPRETER.scale()
    spawned = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - spawned
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    report = json.loads(line)
    phases = dict(report["phases"], start=(report["started"] - spawned) * scale)
    return wall, phases


def tail(times):
    """Highest percentile with at least ten samples beyond it, as (level, value)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def validate_trace(snapshot, counters):
    """Problems with one traced repetition: oracle calls must match the counters."""
    calls = {o: snapshot.get(f"benchmarks.{o}", {}).get("calls", 0) for o in ORACLES}
    traced = (calls["ul_grad_x"] + calls["ul_grad_y"], calls["ll_grad_y"],
              calls["ll_jvp"], calls["ll_hvp"])
    problems = []
    if traced != tuple(counters):
        problems.append(f"traced oracle calls {traced} != counters {tuple(counters)}")
    negative = [name for name, stat in snapshot.items() if stat["self_s"] < 0.0]
    if negative:
        problems.append(f"negative self time: {negative}")
    return problems


def layer_metrics(tracing, snapshots, phases, traced_times, plain_times, runs, gap):
    def over_reps(value):
        return statistics.median(value(snap) for snap in snapshots)

    def field(snap, names, key):
        return sum(snap.get(name, {}).get(key, 0) for name in names)

    last = snapshots[-1]
    metrics = {name: over_reps(lambda s, n=names: field(s, n, "self_s"))
               for name, names in SELF_TIMES.items()}
    metrics.update({f"{name}.calls": field(last, (name,), "calls") for name in CALLS})
    kernels = [f"benchmarks.{o}" for o in ORACLES]
    qp_calls = field(last, ("subsolvers.solve_wc_subproblem",), "calls")
    metrics.update({
        "optimizer.loop.iters": sum(trace.iterations for _, trace, _, _ in runs),
        "optimizer.stationarity_gap": gap,
        "subsolvers.solve_wc_subproblem.us_per_call": over_reps(
            lambda s: 1e6 * field(s, ("subsolvers.solve_wc_subproblem",), "total_s") / qp_calls),
        "subsolvers.solve_wc_subproblem.warm_certified_ratio":
            field(last, (tracing.WARM_CERTIFIED,), "calls") / qp_calls,
        "subsolvers.project_simplex.per_qp":
            field(last, ("subsolvers.project_simplex",), "calls") / qp_calls,
        "benchmarks.kernel.computed_gflop": field(last, kernels, "flops") / 1e9,
        "benchmarks.kernel.computed_mb": field(last, kernels, "bytes") / 1e6,
        "benchmarks.kernel.gflop_s": over_reps(
            lambda s: field(s, kernels, "flops") / 1e9 / field(s, kernels, "self_s")),
        "cli.import_s": phases["import"],
        "cli.load_config.self_s": phases["load_config"],
        "cli.build_problem.self_s": phases["build_problem"],
        "cli.trace_bytes": sum(len(text) for _, _, text, _ in runs),
        "trace.overhead_s": statistics.median(traced_times) - statistics.median(plain_times),
    })
    return metrics


def print_spans(snapshots, run_s):
    names = sorted(snapshots[-1], key=lambda n: -snapshots[-1][n]["self_s"])
    print(f"{'span':52s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s} {'self/run':>8s}")
    for name in names:
        self_s = statistics.median(s.get(name, {}).get("self_s", 0.0) for s in snapshots)
        total_s = statistics.median(s.get(name, {}).get("total_s", 0.0) for s in snapshots)
        calls = snapshots[-1][name]["calls"]
        print(f"{name:52s} {calls:9d} {self_s:10.5f} {total_s:10.5f} {self_s / run_s:8.1%}")


def emit(problems, attempted, failed, metrics, units):
    """Print the failed checks, then the result line."""
    for text in problems[:20]:
        print("FAILED CHECK:", text)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A zero-second window is a smoke check of the harness: a tiny K, one
    # set-up probe and the minimum number of repetitions.
    smoke = args.seconds <= 0

    import_library()
    os.environ.pop(SEED_ENV_VAR, None)
    import numpy as np
    from mobilevel import cli

    import setup_probe
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    config_path = str(BENCH / "configs" / workload.config)
    overrides = workloads.seeded_overrides(
        workload, config_path, args.seed, SMOKE_ITERATIONS if smoke else None)
    env = environment(args.seed)
    print("environment:", json.dumps(env, sort_keys=True))

    probe = setup_command(config_path, overrides, workload.grids)
    setup_reps = 1 if smoke else SETUP_REPS
    setups = [time_setup(probe)]
    built, _ = setup_probe.setup(cli, config_path, overrides, workload.grids)
    built["grids"] = workload.grids
    problem = built["problem"]
    out_dir = str(OUT / f"{args.workload}-seed{args.seed}")

    # Warm-up repetition: fixes the reference digests and the solution quality.
    units = PER_LAYER if args.trace else END_TO_END
    runs_per_rep = len(built["preferences"])
    try:
        reference = workloads.run_once(built, problem, out_dir)
    except Exception as exc:  # noqa: BLE001 - a run that raises is a failed run
        emit([f"warm-up raised {type(exc).__name__}: {exc}"], runs_per_rep, runs_per_rep, {}, units)
        return 0
    reference_digests = [workloads.digest(text) for _, _, text, _ in reference]
    problems = [p for _, trace, text, error in reference
                for p in workloads.check_run(built, trace, text, error)]
    attempted, failed = runs_per_rep, (runs_per_rep if problems else 0)
    pref_phi, gap = workloads.quality(problem, reference) if not problems else (None, None)

    tracer = tracing.Tracer()
    calibration = pace.numpy_calibration()
    if args.trace:
        if built["kind"] == "stochastic":
            summary = built["summary"]
            costs = tracing.hypercleaning_costs(
                problem.num_objectives, summary["feature_dim"], summary["n_train"])
        else:
            costs = tracing.quadratic_costs(problem.dim_x, problem.dim_y)
        traced_problem = tracer.wrap_oracles(
            problem, ORACLES, lambda field: f"benchmarks.{field}", costs)

    plain_times, paced_times, traced_times, snapshots = [], [], [], []
    # Set-up probes are spread over the measuring window, which is extended
    # by the time they take.
    started = time.perf_counter()
    rep = 0
    while rep < MIN_REPS * (1 + args.trace) or time.perf_counter() - started < args.seconds:
        elapsed = time.perf_counter() - started
        if not smoke and len(setups) < setup_reps * elapsed / args.seconds:
            begin = time.perf_counter()
            setups.append(time_setup(probe))
            started += time.perf_counter() - begin
            continue
        traced = bool(args.trace and rep % 2)
        rep += 1
        gc.collect()
        tracer.reset()
        pin_to_fastest_cpu()
        try:
            if traced:
                # Not paced: the calibration would land inside the spans.
                begin = time.perf_counter()
                with tracer.patched():
                    runs = workloads.run_once(built, traced_problem, out_dir)
                traced_times.append(time.perf_counter() - begin)
            else:
                with pace.Pacer(calibration) as pacer:
                    runs = workloads.run_once(built, problem, out_dir)
                plain_times.append(pacer.wall)
                paced_times.append(pacer.paced)
        except Exception as exc:  # noqa: BLE001 - a failed repetition is counted, not fatal
            attempted += runs_per_rep
            failed += runs_per_rep
            problems.append(f"repetition {rep} raised {type(exc).__name__}: {exc}")
            continue
        rep_problems = []
        for index, (_, trace, text, error) in enumerate(runs):
            found = workloads.check_run(built, trace, text, error)
            if not found and workloads.digest(text) != reference_digests[index]:
                found = ["trace differs from the warm-up repetition's"]
            attempted += 1
            failed += bool(found)
            rep_problems += found
        if traced and not rep_problems:
            counters = np.sum([trace.counters.as_tuple() for _, trace, _, _ in runs], axis=0)
            snapshot = tracer.snapshot()
            invalid = validate_trace(snapshot, counters)
            if invalid:
                failed += len(runs)
                rep_problems += invalid
            else:
                snapshots.append(snapshot)
        problems += [f"repetition {rep}: {p}" for p in rep_problems]

    while len(setups) < setup_reps:
        setups.append(time_setup(probe))
    phases = {name: statistics.median(p[name] for _, p in setups) for name in setups[0][1]}
    if not paced_times:
        emit(problems, attempted, failed, {}, units)
        return 0
    oracle_calls = sum(sum(trace.counters.as_tuple()) for _, trace, _, _ in reference)
    metrics = {
        "run_s": statistics.median(paced_times),
        "setup_s": statistics.median(sum(p.values()) for _, p in setups),
        "oracle_calls": oracle_calls,
        "pref_phi": pref_phi,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("inputs: " + " ".join(o for o in overrides if not o.startswith("problem.x0=")) +
          f"  x0 ~ {workloads.X0_SCALE} * N(0, I) from the seed")
    print("trace sha256:", " ".join(reference_digests))
    for label, times in (("paced", paced_times), ("wall", plain_times)):
        tail_at = tail(times)
        quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"{label} run: {len(times)} untraced repetitions, fastest {min(times):.6f} s, "
              "quartiles " + " ".join(f"{q:.6f}" for q in quartiles) + " s" +
              (f", p{tail_at[0]:.0f} {tail_at[1]:.6f} s" if tail_at else ", too few for a tail"))
    print(f"set-up probes: {len(setups)}, median wall {statistics.median(w for w, _ in setups):.6f} s, "
          f"paced {metrics['setup_s']:.6f} s")
    print(f"stationarity_gap: {gap!r}  error_rate: {failed}/{attempted}")
    for name, value in metrics.items():
        print(f"  {name:14s} {value!r} {END_TO_END[name]}")
    if args.trace:
        if snapshots:
            print_spans(snapshots, statistics.median(traced_times))
            metrics = layer_metrics(tracing, snapshots, phases, traced_times, plain_times, reference, gap)
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
                spans = {name: dict(stat, parents=sorted(tracer.parents.get(name, ())))
                         for name, stat in snapshots[-1].items()}
                json.dump(spans, fh, indent=1, sort_keys=True)
        else:
            problems.append("no valid traced repetition")
            metrics = {}
        for name in PER_LAYER:
            print(f"  {name:52s} {metrics.get(name)!r} {PER_LAYER[name]}")
    emit(problems, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
