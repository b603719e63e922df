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
    run_stochastic,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _find_line(
    parser: configparser.ConfigParser, path: str, section: str, key: Optional[str] = None
) -> Optional[int]:
    """Best-effort line number of a section or key for error messages;
    headers are matched as ``parser`` read them, by ``parser.SECTCRE``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return None
    in_section = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        header = parser.SECTCRE.match(stripped)
        if header:
            in_section = header.group("header") == section
            if in_section and key is None:
                return lineno
        elif in_section and re.split("[=:]", stripped, maxsplit=1)[0].strip().lower() == key:
            return lineno
    return None


def _config_error(
    parser: configparser.ConfigParser, path: str, section: str, key: Optional[str], message: str
) -> ConfigurationError:
    """Error at the ``--set`` that gave the key its value (or added the
    section), else at its file line."""
    override = parser.overrides.get((section, key))
    if override:
        where = f"--set {override}"
    else:
        lineno = _find_line(parser, path, section, key)
        where = f"{path}:{lineno}" if lineno else path
    field = f"[{section}] {key}" if key else f"[{section}]"
    return ConfigurationError(f"{where}: {field}: {message}")


def load_config(path: str, overrides: Sequence[str] = ()) -> configparser.ConfigParser:
    # Values are read literally: no '%' interpolation.  No section feeds
    # defaults to the others (a header can never name the empty section), so
    # a [DEFAULT] section is an ordinary, unknown one.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    # (section, key) -> the override item that set the key, or with key None
    # the one that added the section.
    parser.overrides = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid UTF-8: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    for item in overrides:
        target, equals, value = item.partition("=")
        section, dot, key = (part.strip() for part in target.partition("."))
        if not (equals and dot and section and key):
            raise ConfigurationError(f"override '{item}' is not of the form section.key=value")
        if not parser.has_section(section):
            parser.add_section(section)
            parser.overrides[section, None] = item
        parser.set(section, key, value.strip())
        parser.overrides[section, parser.optionxform(key)] = item
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


def _solver_fields(*fields) -> dict:
    """SolverConfig fields: SolverConfig checks each value and supplies the defaults."""
    return {
        field: (
            _checked(parse, lambda value, field=field: SolverConfig(**{field: value})),
            getattr(SolverConfig, field),
        )
        for field, parse in fields
    }


# The config vocabulary: (section, family) -> key -> (cast, default).  The
# family None holds the keys every config accepts in that section; [problem]
# and [solver] also accept (or override) the keys of the family [problem]
# names.  Every other key, and every other section, is rejected.  Each cast
# parses a raw value and enforces the key's domain, so a bad value is
# reported under its own key and line.  [solver] keys are the SolverConfig
# fields a run of the family reads (the INI key is the lowercased name).
# Checks that span keys (matrix and x0/y0 shapes, the preference length and
# index) follow in the builders.
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
    ("solver", None): _solver_fields(
        ("K", int), ("D", int), ("alpha", float), ("beta", float), ("u", float),
        ("seed", int), ("stop_tol", float),
    ),
    ("solver", "quadratic"): _solver_fields(("option", str.lower), ("N", int)),
    ("solver", "hypercleaning"): {
        **_solver_fields(
            ("Q", int), ("eta", float), ("T", int), ("D_f", int), ("D_g", int), ("B", int)
        ),
        # A stochastic run has one estimator, the sampled Neumann recursion.
        "option": (_where(str.lower, lambda name: name == "ns", "'ns'"), "ns"),
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
    """The schema entries ``section`` accepts, with ``family``'s own."""
    return {**_SCHEMA[section, None], **_SCHEMA.get((section, family), {})}


def _reject_unknown_keys(parser: configparser.ConfigParser, path: str) -> None:
    family = parser.get("problem", "family", fallback=None)
    known_family = family is not None and ("problem", family) in _SCHEMA
    for section in parser.sections():
        if (section, None) not in _SCHEMA:
            raise _config_error(parser, path, section, None, "unknown section")
        if section in ("problem", "solver") and not known_family:
            continue  # build_problem reports the missing or unknown family
        allowed = {key.lower() for key in _keys(section, family)}
        for key in parser.options(section):
            if key not in allowed:
                raise _config_error(parser, path, section, key, "unknown key")


def _values(
    parser: configparser.ConfigParser, path: str, section: str, family: Optional[str] = None
) -> dict:
    """Every schema key of ``section`` and of ``family`` there, cast and
    domain-checked; a key the config leaves out takes its default."""
    values = {}
    for key, (cast, default) in _keys(section, family).items():
        name = key.lower()  # configparser lowercases INI keys
        raw = parser.get(section, name, fallback=None)
        try:
            values[key] = default if raw is None else cast(raw)
        except ValueError as exc:
            raise _config_error(parser, path, section, name, f"invalid value '{raw}': {exc}")
    return values


def build_problem(parser: configparser.ConfigParser, path: str):
    """Construct the benchmark problem named by the [problem] section.

    Returns ``(problem, kind, x0, y0, problem_summary)`` where ``kind`` is
    ``deterministic`` or ``stochastic`` and the summary holds every
    [problem] value but the initial points and explicit matrices; a
    quadratic summary adds the lower Hessian's ``condition_number`` and the
    stated ``L_phi`` behind the default beta (``None`` when not stated).
    """
    section = "problem"
    if not parser.has_section(section):
        raise _config_error(parser, path, section, None, "missing section")
    family = parser.get(section, "family", fallback=None)
    if family is None:
        raise _config_error(parser, path, section, "family", "missing required field")
    if (section, family) not in _SCHEMA:
        raise _config_error(parser, path, section, "family", f"unknown family '{family}'")
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
                    raise _config_error(parser, path, section, key, str(exc))
        problem, _ = make_quadratic(spec)
        kind = "deterministic"
        summary["condition_number"] = spec.condition_number
        summary["L_phi"] = problem.constants.L_phi
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
        raise _config_error(parser, path, section, "x0", f"expected {problem.dim_x} entries")
    if y0.shape != (problem.dim_y,):
        raise _config_error(parser, path, section, "y0", f"expected {problem.dim_y} entries")
    return problem, kind, x0, y0, summary


def build_solver_config(parser: configparser.ConfigParser, path: str) -> SolverConfig:
    """The [solver] values of the family [problem] names; call after build_problem."""
    return SolverConfig(**_values(parser, path, "solver", parser.get("problem", "family")))


def build_preference(
    parser: configparser.ConfigParser, path: str, s_count: int
) -> Optional[Preference]:
    """Preference from the [preference] section; ``None`` (pattern
    ``none``, a grid of that one entry) selects the non-preference variant.
    ``index`` picks from the pattern's grid and is rejected next to
    ``vector``."""
    section = "preference"
    if not parser.has_section(section):
        raise _config_error(parser, path, section, None, "missing section")
    values = _values(parser, path, section)
    vector, pattern = values["vector"], values["pattern"]
    if (vector is None) == (pattern is None):
        raise _config_error(
            parser, path, section, None, "give exactly one of 'vector' or 'pattern'"
        )
    if vector is not None:
        if parser.has_option(section, "index"):
            raise _config_error(
                parser, path, section, "index", "applies only with 'pattern', not with 'vector'"
            )
        if len(vector) != s_count:
            raise _config_error(
                parser, path, section, "vector",
                f"expected {s_count} components, got {len(vector)}",
            )
        return vector
    grid = [None] if pattern == "none" else _PATTERNS[pattern](s_count)
    if values["index"] >= len(grid):
        raise _config_error(parser, path, section, "index", f"index must be in [0, {len(grid)})")
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
        row += [_fmt(v) for v in rec.phi.tolist()]
        row += [_fmt(v) for v in rec.weights.lam.tolist()]
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
    """The JSON run record; its solver block holds the family's [solver] keys
    of ``config``, which must be ``trace.config``, and ``option`` names
    ``trace.estimator``."""
    if config != trace.config:
        raise ValueError("config differs from trace.config, the config the loop ran")
    counters = trace.counters
    solver = {key: getattr(config, key) for key in _keys("solver", problem_summary["family"])}
    solver["option"] = trace.estimator
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


def cmd_run(args) -> int:
    try:
        parser = load_config(args.config, args.set or [])
        problem, kind, x0, y0, summary = build_problem(parser, args.config)
        config = build_solver_config(parser, args.config)
        preference = build_preference(parser, args.config, problem.num_objectives)
        output = _values(parser, args.config, "output")
        trace_path, json_path = output["trace_csv"], output["run_json"]
        started = time.perf_counter()
        run = run_stochastic if kind == "stochastic" else run_deterministic
        trace = run(problem, config, preference, x0, y0)
    except RunFailure as failure:
        if failure.trace is not None:
            _write_text(trace_path, trace_csv_text(failure.trace, problem.num_objectives))
        print(f"run failed: {failure}", file=sys.stderr)
        return EXIT_RUNTIME
    except ConfigurationError as exc:
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
    # Raised outside the try below, which wraps the parsers' ValueErrors
    # (ConfigurationError is one).
    if spec.startswith("r1=") and s_count != 2:
        raise ConfigurationError("'r1=' grids need a two-objective problem")
    if not spec.startswith(("r1=", "list:")):
        raise ConfigurationError(f"unrecognized grid spec '{spec}'")
    try:
        if spec.startswith("r1="):
            prefs = [Preference(np.array([v, 1.0 - v])) for v in _parse_vector(spec[3:])]
        else:
            prefs = [_preference(chunk) for chunk in spec[5:].split(";") if chunk.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"grid '{spec}': {exc}") from exc
    if not prefs:
        raise ConfigurationError("empty preference list")
    for pref in prefs:
        if len(pref) != s_count:
            raise ConfigurationError(
                f"grid '{spec}': expected {s_count} weights per preference, got {len(pref)}"
            )
    return prefs


def sweep_summary_text(result, s_count: int) -> str:
    """The sweep summary CSV: one row per preference, in grid order, with
    its final phi and d_norm_sq and status ``ok`` (empty values for an
    empty run, K = 0), or empty values and status ``failed``."""
    header = (
        [f"r_{i + 1}" for i in range(s_count)]
        + [f"phi_{i + 1}" for i in range(s_count)]
        + ["d_norm_sq", "status"]
    )
    lines = [",".join(header)]
    for entry in result.entries:
        phi, d_norm_sq = entry.final_phi, entry.final_d_norm_sq
        row = [_fmt(v) for v in entry.preference.r]
        row += [""] * s_count if phi is None else [_fmt(v) for v in phi]
        status = "ok" if entry.error is None else "failed"
        row += ["" if d_norm_sq is None else _fmt(d_norm_sq), status]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    try:
        parser = load_config(args.config, args.set or [])
        problem, kind, x0, y0, summary = build_problem(parser, args.config)
        config = build_solver_config(parser, args.config)
        # The grid replaces [preference], which is still checked as in run.
        if parser.has_section("preference"):
            build_preference(parser, args.config, problem.num_objectives)
        preferences = parse_grid(args.grid, problem.num_objectives)
        output = _values(parser, args.config, "output")
        summary_path, traces_dir = output["summary_csv"], output["traces_dir"]
        if kind != "deterministic":
            raise ConfigurationError("sweeps need a deterministic problem")
        started = time.perf_counter()
        result = pareto_sweep(problem, config, preferences, x0, y0)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.perf_counter() - started

    s_count = problem.num_objectives
    for index, entry in enumerate(result.entries):
        if entry.trace is not None:
            _write_text(
                os.path.join(traces_dir, f"run_{index:03d}.csv"),
                trace_csv_text(entry.trace, s_count),
            )
    _write_text(summary_path, sweep_summary_text(result, s_count))
    failures = sum(entry.error is not None for entry in result.entries)
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
