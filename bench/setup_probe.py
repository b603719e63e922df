"""Time the set-up of one benchmark workload in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG [--grid SPEC]... [--set SECTION.KEY=VALUE]...

Imports ``mobilevel`` from SRC_DIR, then performs the set-up that precedes
``mobilevel run`` / ``mobilevel sweep``: load the config, build the problem,
the solver config and the preference(s), and resolve the step sizes.  Prints
one JSON line: the ``time.perf_counter()`` reading at the start of this
script (a system-wide clock, so the caller can time the interpreter start
from the spawn) and the paced time of each phase (``pace.Pacer``).
"""

import sys
import time

import pace


def setup(cli, config_path, overrides, grids=(), clock=time.perf_counter):
    """Set up a workload the way the CLI does; return the built objects and phase times."""
    phases = {}
    last = clock()

    def lap(name):
        nonlocal last
        now = clock()
        phases[name] = now - last
        last = now

    parser = cli.load_config(config_path, overrides)
    lap("load_config")
    problem, kind, x0, y0, summary = cli.build_problem(parser, config_path)
    lap("build_problem")
    config = cli.build_solver_config(parser, config_path)
    lap("build_solver_config")
    if grids:
        preferences = [p for spec in grids for p in cli.parse_grid(spec, problem.num_objectives)]
    else:
        preferences = [cli.build_preference(parser, config_path, problem.num_objectives)]
    lap("build_preference")
    resolved = [config.resolved(problem.constants, pref.r_max) for pref in preferences]
    if kind == "stochastic":
        for item in resolved:
            item.validate_stochastic(problem.constants.mu_g)
    lap("resolved")
    built = dict(
        problem=problem, kind=kind, x0=x0, y0=y0, summary=summary,
        config=config, preferences=preferences, resolved=resolved,
    )
    return built, phases


def main(argv):
    started = time.perf_counter()
    src, config_path = argv[0], argv[1]
    grids, overrides = [], []
    rest = iter(argv[2:])
    for flag in rest:
        (grids if flag == "--grid" else overrides).append(next(rest))
    with pace.Pacer(pace.INTERPRETER) as pacer:
        sys.path.insert(0, src)
        from mobilevel import cli
        import json

        import_s = pacer.split()[1]
        _, phases = setup(cli, config_path, overrides, grids, lambda: pacer.split()[1])
    phases["import"] = import_s
    print(json.dumps({"started": started, "phases": phases}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
