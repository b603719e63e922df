"""Command-line front end.

Parses INI-style run configs with [problem]/[solver]/[preference]/[output]
sections against one schema, ``_SCHEMA``, which gives every key its cast,
domain and default: unknown sections and keys are rejected, and a value
outside its domain is reported under its own key and line.  Builds
benchmark problems, executes runs and preference sweeps, and emits
machine-readable traces (CSV) plus a JSON run record.  The verify command runs the check
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
import re
import sys
import time
from dataclasses import replace
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
            in_section = stripped[1:-1].strip() == section
            if in_section and key is None:
                return lineno
        elif in_section and re.split("[=:]", stripped, maxsplit=1)[0].strip().lower() == key:
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
        target, equals, value = item.partition("=")
        if not equals or "." not in target:
            raise ConfigFileError(f"override '{item}' is not of the form section.key=value")
        section, key = (part.strip() for part in target.split(".", 1))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
    _reject_unknown_keys(parser, path)
    return parser


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _where(parse: Callable[[str], object], ok: Callable[[object], bool], requirement: str):
    """Cast that parses a raw value and requires ``ok(value)``."""

    def cast(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"must be {requirement}")
        return value

    return cast


_dimension = _where(int, lambda value: value >= 1, "at least 1")
_count = _where(int, lambda value: value >= 0, "at least 0")
# A scale of the random quadratic instance: bounded so that its matrices stay finite.
_scale = _where(_finite, lambda value: abs(value) <= 1e100, "at most 1e100 in magnitude")


def _checked(parse: Callable[[str], object], check: Callable[[object], object]):
    """Cast that parses a raw value and hands it to ``check``, the domain
    check of the class that owns the value, which raises ``ValueError``."""

    def cast(raw: str):
        value = parse(raw)
        check(value)
        return value

    return cast


def _parse_vector(raw: str) -> np.ndarray:
    return np.array([_finite(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()])


def _parse_matrix(raw: str) -> np.ndarray:
    rows = [r for r in raw.split(";") if r.strip()]
    return np.array([[_finite(tok) for tok in row.split(",")] for row in rows])


def _parse_rates(raw: str) -> tuple:
    """Corruption rates, checked by HypercleaningToySpec itself."""
    rates = DEFAULT_CORRUPTION_RATES if raw.strip() == "default" else _parse_vector(raw)
    return HypercleaningToySpec(1, 1, 1, rates).corruption_rates


def _preference(raw: str) -> Preference:
    return Preference(_parse_vector(raw))


# Named preference patterns, shared by [preference] pattern and --grid: each
# maps the objective count S to its grid, one preference per index.
_PATTERNS = {
    "preferred": lambda s: [Preference.preferred(s, i) for i in range(s)],
    "extreme": lambda s: [Preference.extreme(s, i) for i in range(s)],
    "uniform": lambda s: [Preference.uniform(s)],
}

# The config vocabulary: (section, family) -> key -> (cast, default).  The
# family None holds the keys every config accepts in that section; [problem]
# also accepts the keys of the family it names.  Every other key, and every
# other section, is rejected.  Each cast parses a raw value and enforces the
# key's domain, so a bad value is reported under its own key and line.
# [solver] keys are the SolverConfig fields (the INI key is the lowercased
# name).  Checks that span keys (matrix and x0/y0 shapes, the preference
# length and index) follow in the builders.
_SCHEMA = {
    ("problem", None): {
        "family": (str, None),
        "seed": (_count, 0),
        "x0": (_parse_vector, None),
        "y0": (_parse_vector, None),
    },
    ("problem", "quadratic"): {
        "p": (_dimension, 2),
        "q": (_dimension, 2),
        "s": (_dimension, 2),
        "hessian_scale": (_scale, 0.3),
        "coupling_scale": (_scale, 0.5),
        "target_scale": (_scale, 1.0),
        "hessian": (_parse_matrix, None),
        "coupling": (_parse_matrix, None),
    },
    ("problem", "hypercleaning"): {
        "feature_dim": (_dimension, 5),
        "n_train": (_dimension, 40),
        "n_val": (_dimension, 40),
        "corruption_rates": (_parse_rates, DEFAULT_CORRUPTION_RATES),
        "reg_weight": (
            _checked(_finite, lambda weight: HypercleaningToySpec(1, 1, 1, (0.0,), weight)),
            0.1,
        ),
    },
    ("solver", None): {
        # SolverConfig checks each value and supplies the defaults.
        field: (
            _checked(parse, lambda value, field=field: SolverConfig(**{field: value})),
            getattr(SolverConfig, field),
        )
        for field, parse in (
            ("K", int), ("D", int), ("N", int), ("Q", int),
            ("alpha", float), ("beta", float), ("eta", float), ("u", float),
            ("option", str.lower), ("T", int), ("D_f", int), ("D_g", int), ("B", int),
            ("seed", int), ("stop_tol", float),
        )
    },
    ("preference", None): {
        "vector": (_preference, None),
        "pattern": (
            _where(str.lower, lambda name: name == "none" or name in _PATTERNS,
                   "one of none, " + ", ".join(_PATTERNS)),
            None,
        ),
        "index": (_count, 0),
    },
    ("output", None): {
        "trace_csv": (str, "trace.csv"),
        "run_json": (str, "run.json"),
        "summary_csv": (str, "summary.csv"),
        "traces_dir": (str, "traces"),
    },
}


def _keys(section: str, family: Optional[str] = None) -> dict:
    """The schema entries ``section`` accepts, with ``family``'s in [problem]."""
    return {**_SCHEMA[section, None], **_SCHEMA.get((section, family), {})}


def _reject_unknown_keys(parser: configparser.ConfigParser, path: str) -> None:
    family = parser.get("problem", "family", fallback=None)
    for section in parser.sections():
        if (section, None) not in _SCHEMA:
            raise _config_error(path, section, None, "unknown section")
        if section == "problem" and (family is None or (section, family) not in _SCHEMA):
            continue  # build_problem reports the missing or unknown family
        allowed = {key.lower() for key in _keys(section, family)}
        for key in parser.options(section):
            if key not in allowed:
                raise _config_error(path, section, key, "unknown key")


def _values(
    parser: configparser.ConfigParser, path: str, section: str, family: Optional[str] = None
) -> dict:
    """Every schema key of ``section`` (and of ``family`` in [problem]),
    cast and domain-checked; a key the config leaves out takes its default."""
    values = {}
    for key, (cast, default) in _keys(section, family).items():
        name = key.lower()  # configparser lowercases INI keys
        raw = parser.get(section, name, fallback=None)
        try:
            values[key] = default if raw is None else cast(raw)
        except ValueError as exc:
            raise _config_error(path, section, name, f"invalid value '{raw}': {exc}")
    return values


def build_problem(parser: configparser.ConfigParser, path: str):
    """Construct the benchmark problem named by the [problem] section.

    Returns ``(problem, kind, x0, y0, problem_summary)`` where ``kind`` is
    ``deterministic`` or ``stochastic`` and the summary holds every
    [problem] value but the initial points and explicit matrices.
    """
    section = "problem"
    if not parser.has_section(section):
        raise _config_error(path, section, None, "missing section")
    family = parser.get(section, "family", fallback=None)
    if family is None:
        raise _config_error(path, section, "family", "missing required field")
    if (section, family) not in _SCHEMA:
        raise _config_error(path, section, "family", f"unknown family '{family}'")
    values = _values(parser, path, section, family)
    arrays = ("x0", "y0", "hessian", "coupling")
    summary = {key: value for key, value in values.items() if key not in arrays}

    if family == "quadratic":
        spec = QuadraticBilevelSpec.random(
            values["p"], values["q"], values["s"], values["seed"],
            hessian_scale=values["hessian_scale"],
            coupling_scale=values["coupling_scale"],
            target_scale=values["target_scale"],
        )
        # An explicit matrix is checked against p, q and the other matrix
        # when it replaces the random one, so each error names its matrix.
        for key in ("hessian", "coupling"):
            if values[key] is not None:
                try:
                    spec = replace(spec, **{key: values[key]})
                except ValueError as exc:
                    raise _config_error(path, section, key, str(exc))
        problem, _ = make_quadratic(spec)
        kind = "deterministic"
        summary["condition_number"] = spec.condition_number
    else:
        # The family's keys are the spec's fields.
        spec = HypercleaningToySpec(
            **{key: values[key] for key in _SCHEMA[section, family]}, seed=values["seed"]
        )
        problem, _ = make_hypercleaning_toy(spec)
        kind = "stochastic"

    x0, y0 = values["x0"], values["y0"]
    x0 = np.zeros(problem.dim_x) if x0 is None else x0
    y0 = np.zeros(problem.dim_y) if y0 is None else y0
    if x0.shape != (problem.dim_x,):
        raise _config_error(path, section, "x0", f"expected {problem.dim_x} entries")
    if y0.shape != (problem.dim_y,):
        raise _config_error(path, section, "y0", f"expected {problem.dim_y} entries")
    return problem, kind, x0, y0, summary


def build_solver_config(parser: configparser.ConfigParser, path: str) -> SolverConfig:
    return SolverConfig(**_values(parser, path, "solver"))


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
    non-preference variant.  ``index`` picks from the pattern's grid."""
    section = "preference"
    if not parser.has_section(section):
        raise _config_error(path, section, None, "missing section")
    values = _values(parser, path, section)
    vector, pattern = values["vector"], values["pattern"]
    if (vector is None) == (pattern is None):
        raise _config_error(
            path, section, None, "give exactly one of 'vector' or 'pattern'"
        )
    if vector is not None:
        if len(vector) != s_count:
            raise _config_error(
                path, section, "vector",
                f"expected {s_count} components, got {len(vector)}",
            )
        return vector
    if pattern == "none":
        return None
    grid = _PATTERNS[pattern](s_count)
    if values["index"] >= len(grid):
        raise _config_error(path, section, "index", f"index must be in [0, {len(grid)})")
    return grid[values["index"]]


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
    solver = {field: getattr(config, field) for field in _SCHEMA["solver", None]}
    solver["option"] = trace.estimator
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
        output = _values(parser, args.config, "output")
        trace_path, json_path = output["trace_csv"], output["run_json"]
        started = time.perf_counter()
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
    if spec in _PATTERNS:
        return _PATTERNS[spec](s_count)
    try:
        if spec.startswith("r1="):
            if s_count != 2:
                raise ConfigFileError("'r1=' grids need a two-objective problem")
            prefs = [Preference(np.array([v, 1.0 - v])) for v in _parse_vector(spec[3:])]
        elif spec.startswith("list:"):
            prefs = [_preference(chunk) for chunk in spec[5:].split(";") if chunk.strip()]
        else:
            raise ConfigFileError(f"unrecognized grid spec '{spec}'")
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
        output = _values(parser, args.config, "output")
        summary_path, traces_dir = output["summary_csv"], output["traces_dir"]
        if kind != "deterministic":
            raise ConfigFileError("sweeps need a deterministic problem")
        started = time.perf_counter()
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
