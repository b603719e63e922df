"""Command-line front end.

Parses INI-style run configs with [problem]/[solver]/[preference]/[output]
sections (unknown sections and keys are rejected), builds benchmark
problems, executes runs and preference sweeps, and emits machine-readable
traces (CSV) plus a JSON run record.  The verify command runs the check
registry of :mod:`mobilevel.checks`, the same one the acceptance suite
drives: the quick entries by default, all of them with ``--full``.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ConfigurationError,
    Preference,
    RunFailure,
    RunTrace,
    SolverConfig,
)
from .benchmarks import (
    HypercleaningToySpec,
    DEFAULT_CORRUPTION_RATES,
    QuadraticBilevelSpec,
    make_hypercleaning_toy,
    make_quadratic,
)
from .optimizer import (
    pareto_sweep,
    run_deterministic,
    run_nonpreference,
    run_stochastic,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigFileError(Exception):
    """Raised for malformed or semantically invalid config files."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _find_line(path: str, section: str, key: Optional[str] = None) -> Optional[int]:
    """Best-effort line number of a section or key for error messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return None
    in_section = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if in_section and key is not None:
                return None
            in_section = stripped[1:-1].strip() == section
            if in_section and key is None:
                return lineno
            continue
        if in_section and key is not None:
            name = stripped.split("=", 1)[0].strip()
            if name == key:
                return lineno
    return None


def _config_error(path: str, section: str, key: Optional[str], message: str) -> ConfigFileError:
    lineno = _find_line(path, section, key)
    where = f"{path}:{lineno}" if lineno else path
    field = f"[{section}] {key}" if key else f"[{section}]"
    return ConfigFileError(f"{where}: {field}: {message}")


def load_config(path: str, overrides: Sequence[str] = ()) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigFileError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigFileError(f"override '{item}' is not of the form section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigFileError(f"override '{item}' is not of the form section.key=value")
        section, key = (part.strip() for part in target.split(".", 1))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
    _reject_unknown_keys(parser, path)
    return parser


# Keys each section accepts; every other key, and every other section, is
# rejected.  [problem] also accepts the keys its family reads in
# build_problem, and [solver] the fields build_solver_config reads.
_SOLVER_INT_FIELDS = ("K", "D", "N", "Q", "T", "D_f", "D_g", "B", "seed")
_SOLVER_FLOAT_FIELDS = ("alpha", "beta", "eta", "u", "stop_tol")
_SECTION_KEYS = {
    "problem": ("family", "seed", "x0", "y0"),
    "solver": ("option",) + tuple(
        key.lower() for key in _SOLVER_INT_FIELDS + _SOLVER_FLOAT_FIELDS
    ),
    "preference": ("vector", "pattern", "index"),
    "output": ("trace_csv", "run_json", "summary_csv", "traces_dir"),
}
_FAMILY_KEYS = {
    "quadratic": (
        "p", "q", "s", "hessian_scale", "coupling_scale", "target_scale", "hessian", "coupling",
    ),
    "hypercleaning": ("feature_dim", "n_train", "n_val", "corruption_rates", "reg_weight"),
}


def _reject_unknown_keys(parser: configparser.ConfigParser, path: str) -> None:
    family = parser.get("problem", "family", fallback=None)
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise _config_error(path, section, None, "unknown section")
        allowed = _SECTION_KEYS[section]
        if section == "problem":
            if family not in _FAMILY_KEYS:
                continue  # build_problem reports the missing or unknown family
            allowed += _FAMILY_KEYS[family]
        for key in parser.options(section):
            if key not in allowed:
                raise _config_error(path, section, key, "unknown key")


def _get(parser, path, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise _config_error(path, section, key, "missing required field")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, ConfigFileError) as exc:
        raise _config_error(path, section, key, f"invalid value '{raw}': {exc}")


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def cast(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise ValueError(f"must be at least {minimum}")
        return value

    return cast


_dimension = _int_at_least(1)


def _parse_vector(raw: str) -> np.ndarray:
    return np.array([_finite(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()])


def _parse_matrix(raw: str) -> np.ndarray:
    rows = [r for r in raw.split(";") if r.strip()]
    return np.array([[_finite(tok) for tok in row.split(",")] for row in rows])


def _parse_rates(raw: str):
    return DEFAULT_CORRUPTION_RATES if raw.strip() == "default" else tuple(_parse_vector(raw))


def build_problem(parser: configparser.ConfigParser, path: str):
    """Construct the benchmark problem named by the [problem] section.

    Returns ``(problem, kind, x0, y0, problem_summary)`` where ``kind`` is
    ``deterministic`` or ``stochastic``.
    """
    section = "problem"
    if not parser.has_section(section):
        raise _config_error(path, section, None, "missing section")
    family = _get(parser, path, section, "family", str, required=True)
    seed = _get(parser, path, section, "seed", _int_at_least(0), default=0)

    if family == "quadratic":
        p = _get(parser, path, section, "p", _dimension, default=2)
        q = _get(parser, path, section, "q", _dimension, default=2)
        s = _get(parser, path, section, "s", _dimension, default=2)
        hessian_scale = _get(parser, path, section, "hessian_scale", _finite, default=0.3)
        coupling_scale = _get(parser, path, section, "coupling_scale", _finite, default=0.5)
        target_scale = _get(parser, path, section, "target_scale", _finite, default=1.0)
        spec = QuadraticBilevelSpec.random(
            p, q, s, seed,
            hessian_scale=hessian_scale,
            coupling_scale=coupling_scale,
            target_scale=target_scale,
        )
        hessian = _get(parser, path, section, "hessian", _parse_matrix)
        coupling = _get(parser, path, section, "coupling", _parse_matrix)
        if hessian is not None or coupling is not None:
            try:
                spec = QuadraticBilevelSpec(
                    dim_x=p,
                    dim_y=q,
                    num_objectives=s,
                    hessian=spec.hessian if hessian is None else hessian,
                    coupling=spec.coupling if coupling is None else coupling,
                    x_targets=spec.x_targets,
                    y_targets=spec.y_targets,
                    seed=seed,
                )
            except Exception as exc:
                key = "hessian" if hessian is not None else "coupling"
                raise _config_error(path, section, key, str(exc))
        problem, _ = make_quadratic(spec)
        kind = "deterministic"
        summary = {
            "family": family, "p": p, "q": q, "s": s, "seed": seed,
            "hessian_scale": hessian_scale, "coupling_scale": coupling_scale,
            "target_scale": target_scale,
            "condition_number": spec.condition_number,
        }
    elif family == "hypercleaning":
        feature_dim = _get(parser, path, section, "feature_dim", _dimension, default=5)
        n_train = _get(parser, path, section, "n_train", _dimension, default=40)
        n_val = _get(parser, path, section, "n_val", _dimension, default=40)
        rates = _get(parser, path, section, "corruption_rates", _parse_rates,
                     default=DEFAULT_CORRUPTION_RATES)
        reg_weight = _get(parser, path, section, "reg_weight", _finite, default=0.1)
        try:
            spec = HypercleaningToySpec(
                feature_dim=feature_dim,
                n_train=n_train,
                n_val=n_val,
                corruption_rates=rates,
                reg_weight=reg_weight,
                seed=seed,
            )
        except Exception as exc:
            raise _config_error(path, section, "corruption_rates", str(exc))
        problem, _ = make_hypercleaning_toy(spec)
        kind = "stochastic"
        summary = {
            "family": family, "feature_dim": feature_dim, "n_train": n_train,
            "n_val": n_val, "corruption_rates": list(rates),
            "reg_weight": reg_weight, "seed": seed,
        }
    else:
        raise _config_error(path, section, "family", f"unknown family '{family}'")

    x0 = _get(parser, path, section, "x0", _parse_vector)
    y0 = _get(parser, path, section, "y0", _parse_vector)
    x0 = np.zeros(problem.dim_x) if x0 is None else x0
    y0 = np.zeros(problem.dim_y) if y0 is None else y0
    if x0.shape != (problem.dim_x,):
        raise _config_error(path, section, "x0", f"expected {problem.dim_x} entries")
    if y0.shape != (problem.dim_y,):
        raise _config_error(path, section, "y0", f"expected {problem.dim_y} entries")
    return problem, kind, x0, y0, summary


def build_solver_config(parser: configparser.ConfigParser, path: str) -> SolverConfig:
    section = "solver"
    kwargs = {}
    if parser.has_section(section):
        for fields, cast in ((_SOLVER_INT_FIELDS, int), (_SOLVER_FLOAT_FIELDS, _finite)):
            for key in fields:
                value = _get(parser, path, section, key.lower(), cast)
                if value is not None:
                    kwargs[key] = value
        option = _get(parser, path, section, "option", str)
        if option is not None:
            kwargs["option"] = option.lower()
    try:
        return SolverConfig(**kwargs)
    except ConfigurationError as exc:
        raise _config_error(path, section, None, str(exc))


def _reject_cg_keys(parser: configparser.ConfigParser, path: str) -> None:
    """A stochastic run has one estimator, the sampled Neumann recursion:
    reject the [solver] keys that would select or size another one."""
    if parser.has_option("solver", "n"):
        raise _config_error(path, "solver", "n", "a stochastic run has no CG budget")
    option = parser.get("solver", "option", fallback="ns").strip().lower()
    if option != "ns":
        raise _config_error(
            path, "solver", "option", f"a stochastic run takes option 'ns', not '{option}'"
        )


def build_preference(
    parser: configparser.ConfigParser, path: str, s_count: int
) -> Optional[Preference]:
    """Preference from the [preference] section; ``None`` selects the
    non-preference variant."""
    section = "preference"
    if not parser.has_section(section):
        raise _config_error(path, section, None, "missing section")
    vector = _get(parser, path, section, "vector", _parse_vector)
    pattern = _get(parser, path, section, "pattern", str)
    if (vector is None) == (pattern is None):
        raise _config_error(
            path, section, None, "give exactly one of 'vector' or 'pattern'"
        )
    if vector is not None:
        if vector.size != s_count:
            raise _config_error(
                path, section, "vector",
                f"expected {s_count} components, got {vector.size}",
            )
        try:
            return Preference(vector)
        except ValueError as exc:
            raise _config_error(path, section, "vector", str(exc))
    pattern = pattern.strip().lower()
    if pattern == "none":
        return None
    if pattern == "uniform":
        return Preference.uniform(s_count)
    index = _get(parser, path, section, "index", int, default=0)
    if not (0 <= index < s_count):
        raise _config_error(path, section, "index", f"index must be in [0, {s_count})")
    if pattern == "preferred":
        return Preference.preferred(s_count, index)
    if pattern == "extreme":
        return Preference.extreme(s_count, index)
    raise _config_error(
        path, section, "pattern",
        "pattern must be 'preferred', 'extreme', 'uniform', or 'none'",
    )


def trace_csv_text(trace: RunTrace, s_count: int) -> str:
    """Render a trace as CSV with 17-significant-digit floats."""
    header = (
        ["k"]
        + [f"phi_{i + 1}" for i in range(s_count)]
        + [f"lambda_{i + 1}" for i in range(s_count)]
        + ["d_norm_sq", "true_d_norm_sq", "gc_f", "gc_g", "jv_g", "hv_g"]
    )
    lines = [",".join(header)]
    for rec in trace.records:
        row = [str(rec.k)]
        row += [_fmt(v) for v in rec.phi]
        row += [_fmt(v) for v in rec.weights.lam]
        row.append(_fmt(rec.d_norm_sq))
        row.append("" if rec.true_d_norm_sq is None else _fmt(rec.true_d_norm_sq))
        counters = rec.counters
        row += [str(counters.gc_f), str(counters.gc_g), str(counters.jv_g), str(counters.hv_g)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_trace_csv(text: str):
    """Inverse of :func:`trace_csv_text`; returns a list of row dicts."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        values = line.split(",")
        row = {}
        for name, value in zip(header, values):
            if name == "k" or name.startswith(("gc_", "jv_", "hv_")):
                row[name] = int(value)
            elif name == "true_d_norm_sq" and value == "":
                row[name] = None
            else:
                row[name] = float(value)
        rows.append(row)
    return rows


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def run_record(
    trace: RunTrace,
    config: SolverConfig,
    problem_summary: dict,
    preference: Optional[Preference],
) -> dict:
    """The JSON run record; ``option`` is ``trace.estimator``, and a
    stochastic run, which has no CG budget, leaves out ``N``."""
    counters = trace.counters
    solver = {
        "K": config.K, "D": config.D, "N": config.N, "Q": config.Q,
        "alpha": config.alpha, "beta": config.beta, "eta": config.eta,
        "u": config.u, "option": trace.estimator,
        "T": config.T, "D_f": config.D_f, "D_g": config.D_g, "B": config.B,
        "seed": config.seed, "stop_tol": config.stop_tol,
    }
    if trace.estimator == "stochastic":
        del solver["N"]
    return {
        "problem": problem_summary,
        "solver": solver,
        "preference": None if preference is None else [float(v) for v in preference.r],
        "termination": trace.termination,
        "iterations": trace.iterations,
        "final_x": [float(v) for v in trace.final_x],
        "final_y": [float(v) for v in trace.final_y],
        "final_phi": None if trace.final_phi is None else [float(v) for v in trace.final_phi],
        "final_d_norm_sq": trace.final_d_norm_sq,
        "counters": {
            "gc_f": counters.gc_f, "gc_g": counters.gc_g,
            "jv_g": counters.jv_g, "hv_g": counters.hv_g,
        },
    }


def _execute(problem, kind, config, preference, x0, y0) -> RunTrace:
    if preference is None:
        if kind != "deterministic":
            raise ConfigFileError("the non-preference variant needs a deterministic problem")
        return run_nonpreference(problem, config, x0, y0)
    if kind == "stochastic":
        return run_stochastic(problem, config, preference, x0, y0)
    return run_deterministic(problem, config, preference, x0, y0)


def cmd_run(args) -> int:
    try:
        parser = load_config(args.config, args.set or [])
        problem, kind, x0, y0, summary = build_problem(parser, args.config)
        if kind == "stochastic":
            _reject_cg_keys(parser, args.config)
        config = build_solver_config(parser, args.config)
        preference = build_preference(parser, args.config, problem.num_objectives)
        trace_path = _get(parser, args.config, "output", "trace_csv", str, default="trace.csv")
        json_path = _get(parser, args.config, "output", "run_json", str, default="run.json")
    except (ConfigFileError, ConfigurationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    started = time.perf_counter()
    try:
        trace = _execute(problem, kind, config, preference, x0, y0)
    except RunFailure as failure:
        if failure.trace is not None:
            _write_text(trace_path, trace_csv_text(failure.trace, problem.num_objectives))
        print(f"run failed: {failure}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigurationError, ConfigFileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.perf_counter() - started

    _write_text(trace_path, trace_csv_text(trace, problem.num_objectives))
    # The config the loop resolved (u = 0 in the non-preference variant).
    record = run_record(trace, trace.config, summary, preference)
    _write_text(json_path, json.dumps(record, indent=2, sort_keys=True) + "\n")

    phi = trace.final_phi
    print(f"termination: {trace.termination} after {trace.iterations} iterations "
          f"({elapsed:.2f}s)")
    print("final phi:", "-" if phi is None else " ".join(_fmt(v) for v in phi))
    dns = trace.final_d_norm_sq
    print("final d_norm_sq:", "-" if dns is None else _fmt(dns))
    print("counters (gc_f, gc_g, jv_g, hv_g):", trace.counters.as_tuple())
    print(f"trace: {trace_path}")
    print(f"record: {json_path}")
    return EXIT_OK


def parse_grid(spec: str, s_count: int) -> list:
    """Preference grid from a compact spec string.

    Forms: ``preferred`` / ``extreme`` (one pattern per objective),
    ``uniform``, ``r1=0.1,0.3,...`` (two objectives, varying the first
    weight), or ``list:w1,...,wS;w1,...,wS;...`` (explicit vectors).
    """
    spec = spec.strip()
    if spec == "preferred":
        return [Preference.preferred(s_count, i) for i in range(s_count)]
    if spec == "extreme":
        return [Preference.extreme(s_count, i) for i in range(s_count)]
    if spec == "uniform":
        return [Preference.uniform(s_count)]
    try:
        if spec.startswith("r1="):
            if s_count != 2:
                raise ConfigFileError("'r1=' grids need a two-objective problem")
            vectors = [np.array([v, 1.0 - v]) for v in _parse_vector(spec[3:])]
        elif spec.startswith("list:"):
            vectors = [_parse_vector(chunk) for chunk in spec[5:].split(";") if chunk.strip()]
        else:
            raise ConfigFileError(f"unrecognized grid spec '{spec}'")
        prefs = [Preference(vector) for vector in vectors]
    except ValueError as exc:
        raise ConfigFileError(f"grid '{spec}': {exc}") from exc
    if not prefs:
        raise ConfigFileError("empty preference list")
    for pref in prefs:
        if len(pref) != s_count:
            raise ConfigFileError(
                f"grid '{spec}': expected {s_count} weights per preference, got {len(pref)}"
            )
    return prefs


def cmd_sweep(args) -> int:
    try:
        parser = load_config(args.config, args.set or [])
        problem, kind, x0, y0, summary = build_problem(parser, args.config)
        config = build_solver_config(parser, args.config)
        preferences = parse_grid(args.grid, problem.num_objectives)
        summary_path = _get(parser, args.config, "output", "summary_csv", str, default="summary.csv")
        traces_dir = _get(parser, args.config, "output", "traces_dir", str, default="traces")
    except (ConfigFileError, ConfigurationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if kind != "deterministic":
        print("config error: sweeps need a deterministic problem", file=sys.stderr)
        return EXIT_CONFIG

    started = time.perf_counter()
    try:
        result = pareto_sweep(problem, config, preferences, x0, y0)
    except (ConfigurationError, ConfigFileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.perf_counter() - started

    s_count = problem.num_objectives
    header = (
        [f"r_{i + 1}" for i in range(s_count)]
        + [f"phi_{i + 1}" for i in range(s_count)]
        + ["d_norm_sq", "status"]
    )
    lines = [",".join(header)]
    failures = 0
    for index, entry in enumerate(result.entries):
        row = [_fmt(v) for v in entry.preference.r]
        if entry.error is None:
            row += [_fmt(v) for v in entry.final_phi]
            row.append(_fmt(entry.final_d_norm_sq))
            row.append("ok")
        else:
            failures += 1
            row += [""] * s_count + ["", "failed"]
        lines.append(",".join(row))
        if entry.trace is not None:
            _write_text(
                os.path.join(traces_dir, f"run_{index:03d}.csv"),
                trace_csv_text(entry.trace, s_count),
            )
    _write_text(summary_path, "\n".join(lines) + "\n")
    print(f"{len(result.entries)} runs ({failures} failed) in {elapsed:.2f}s")
    print(f"summary: {summary_path}")
    print(f"traces: {traces_dir}/")
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_verify(args) -> int:
    # Imported here: checks imports this module, and run and sweep do not need it.
    from .checks import CHECKS

    selected = [check for check in CHECKS.values() if args.full or check.quick]
    failures = []
    for check in selected:
        started = time.perf_counter()
        try:
            ok, detail = check.run()
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {check.name} ({elapsed:.2f}s): {detail}")
        if not ok:
            failures.append(check.name)
    if failures:
        print(f"failed checks: {', '.join(failures)}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"all {len(selected)} checks passed")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mobilevel",
        description="Preference-guided multi-objective bilevel optimization runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute one optimizer run from a config")
    run_parser.add_argument("--config", required=True)
    run_parser.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE",
        help="override a config value",
    )
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = sub.add_parser("sweep", help="run a preference grid")
    sweep_parser.add_argument("--config", required=True)
    sweep_parser.add_argument("--grid", required=True)
    sweep_parser.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    sweep_parser.set_defaults(func=cmd_sweep)

    verify_parser = sub.add_parser("verify", help="run the cross-check suites")
    verify_parser.add_argument("--full", action="store_true")
    verify_parser.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
