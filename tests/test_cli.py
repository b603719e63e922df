import contextlib
import io
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobilevel import (
    Preference,
    QuadraticBilevelSpec,
    SolverConfig,
    SweepEntry,
    SweepResult,
    checks,
    cli,
    make_quadratic,
    pareto_sweep,
    run_deterministic,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HYPERCLEANING_INI = CONFIGS / "hypercleaning.ini"


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


QUADRATIC_CONFIG = """
[problem]
family = quadratic
p = 3
q = 3
s = 2
seed = 7
hessian_scale = 0.2

[solver]
option = cg
k = 40
d = 16
n = 3
u = 10.0

[preference]
pattern = preferred
index = 0

[output]
trace_csv = {out}/trace.csv
run_json = {out}/run.json
"""


@pytest.fixture()
def quadratic_config(tmp_path):
    out = tmp_path / "out"
    return write_config(tmp_path / "run.ini", QUADRATIC_CONFIG.format(out=out)), out


class TestCmdRun:
    def test_reference_scale_defaults(self, tmp_path, capsys):
        # (K, D) = (500, 32) with u = 10 runs to completion and yields one
        # trace row per outer iteration.
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "run.ini",
            QUADRATIC_CONFIG.format(out=out).replace("k = 40", "k = 500")
            .replace("d = 16", "d = 32"),
        )
        assert cli.main(["run", "--config", config]) == 0
        rows = cli.parse_trace_csv((out / "trace.csv").read_text())
        assert len(rows) == 500
        record = json.loads((out / "run.json").read_text())
        assert record["solver"]["u"] == 10.0
        assert record["iterations"] == 500

    def test_k_zero_header_only(self, quadratic_config):
        config, out = quadratic_config
        assert cli.main(["run", "--config", config, "--set", "solver.k=0"]) == 0
        text = (out / "trace.csv").read_text()
        lines = text.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("k,phi_1,phi_2,lambda_1,lambda_2,d_norm_sq")
        record = json.loads((out / "run.json").read_text())
        assert record["counters"] == {"gc_f": 0, "gc_g": 0, "jv_g": 0, "hv_g": 0}

    def test_non_spd_hessian_exit_2(self, tmp_path, capsys):
        # [[1, 2], [2, 1]] has eigenvalues 3 and -1.
        out = tmp_path / "out"
        config = write_config(tmp_path / "bad.ini", f"""
[problem]
family = quadratic
p = 2
q = 2
s = 1
hessian = 1,2;2,1

[solver]
k = 5

[preference]
pattern = uniform

[output]
trace_csv = {out}/trace.csv
run_json = {out}/run.json
""")
        assert cli.main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "hessian" in err

    @pytest.mark.parametrize("section, key", [
        ("problem", "hesian_scale"),
        ("solver", "kk"),
        ("preference", "indx"),
        ("output", "trace"),
        ("solver", "exact_counters"),
        ("solver", "warm_start_y"),
        ("solver", "warm_start_v"),
        ("solver", "record_hypergrads"),
    ])
    def test_unknown_key_reports_line(self, tmp_path, capsys, section, key):
        # A misspelled key is rejected, never silently ignored.
        text = QUADRATIC_CONFIG.format(out=tmp_path / "out")
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
        config = write_config(tmp_path / "run.ini", text)
        line = text.splitlines().index(f"[{section}]") + 2
        assert cli.main(["run", "--config", config]) == 2
        assert f"{config}:{line}: [{section}] {key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("header, key, message", [
        # configparser keeps the spaces inside the brackets: a section
        # named " problem ", which is unknown.
        ("[ problem ]", None, "[ problem ]: unknown section"),
        # configparser reads a header up to its last ']' and ignores the rest.
        ("[problem] ; the instance", "bogus", "[problem] bogus: unknown key"),
    ], ids=["spaced", "inline-comment"])
    def test_header_forms_report_line(self, tmp_path, capsys, header, key, message):
        # The error line is found by the header pattern configparser reads with.
        text = QUADRATIC_CONFIG.format(out=tmp_path / "out")
        text = text.replace("[problem]\n", f"{header}\n" + (f"{key} = 1\n" if key else ""))
        config = write_config(tmp_path / "run.ini", text)
        line = text.splitlines().index(header) + (2 if key else 1)
        assert cli.main(["run", "--config", config]) == 2
        assert f"{config}:{line}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["q", "t", "d_f", "d_g", "b", "eta"])
    def test_stochastic_keys_unknown_to_quadratic(self, tmp_path, capsys, key):
        # A deterministic run reads none of the sampled Neumann settings, so
        # a quadratic config rejects each of them, from --set and from the file.
        out = tmp_path / "out"
        text = QUADRATIC_CONFIG.format(out=out)
        config = write_config(tmp_path / "run.ini", text)
        assert cli.main(["run", "--config", config, "--set", f"solver.{key}=5"]) == 2
        assert f"--set solver.{key}=5: [solver] {key}: unknown key" in capsys.readouterr().err
        text = text.replace("[solver]\n", f"[solver]\n{key} = 5\n")
        config = write_config(tmp_path / "run.ini", text)
        line = text.splitlines().index("[solver]") + 2
        assert cli.main(["run", "--config", config]) == 2
        assert f"{config}:{line}: [solver] {key}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family, message", [
        ("", "[problem] family: missing required field"),
        ("family = quadratc", "[problem] family: unknown family 'quadratc'"),
    ])
    def test_family_reported_before_solver_keys(self, tmp_path, capsys, family, message):
        # Which [solver] keys are known depends on the family, so a missing
        # or unknown family is the error, not a key it would reject.
        config = write_config(tmp_path / "run.ini", f"""
[problem]
{family}

[solver]
q = 3
n = 3

[preference]
pattern = uniform
""")
        assert cli.main(["run", "--config", config]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_section_and_override_rejected(self, quadratic_config, capsys):
        config, _ = quadratic_config
        assert cli.main(["run", "--config", config, "--set", "solver.kk=1"]) == 2
        assert "[solver] kk: unknown key" in capsys.readouterr().err
        assert cli.main(["sweep", "--config", config, "--grid", "uniform",
                         "--set", "solvr.k=1"]) == 2
        assert "--set solvr.k=1: [solvr]: unknown section" in capsys.readouterr().err

    def test_default_section_in_file_rejected(self, tmp_path, capsys):
        # [DEFAULT] is an unknown section like any other; its keys do not
        # leak into the other sections.
        text = "[DEFAULT]\nseed = 5\n" + QUADRATIC_CONFIG.format(out=tmp_path / "out")
        config = write_config(tmp_path / "run.ini", text)
        assert cli.main(["run", "--config", config]) == 2
        assert f"config error: {config}:1: [DEFAULT]: unknown section" in (
            capsys.readouterr().err
        )

    def test_default_section_override_rejected(self, quadratic_config, capsys):
        config, out = quadratic_config
        assert cli.main(["run", "--config", config, "--set", "DEFAULT.k=3"]) == 2
        assert "config error: --set DEFAULT.k=3: [DEFAULT]: unknown section" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("override", [".p=3", "solver.=3"])
    def test_override_needs_section_and_key(self, quadratic_config, capsys, override):
        config, out = quadratic_config
        assert cli.main(["run", "--config", config, "--set", override]) == 2
        assert f"config error: override '{override}' is not of the form section.key=value" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[problem]\nfamily = quadr\xe9tic\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"config error: {path}: not valid UTF-8" in capsys.readouterr().err

    def test_readme_ini_example_runs(self, tmp_path):
        # The INI block in the README is a working config.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
        config = write_config(tmp_path / "readme.ini", block)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--set", "solver.k=2",
                         "--set", f"output.trace_csv={out}/trace.csv",
                         "--set", f"output.run_json={out}/run.json"]) == 0
        assert json.loads((out / "run.json").read_text())["iterations"] == 2

    def test_readme_schema_table_matches_schema(self):
        # The README's table lists each (section, family, key) of _SCHEMA
        # exactly once; "all" is the family None.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = re.findall(r"^\| (\w+) \| (\w+) \| ([^|]*) \|", readme, re.MULTILINE)
        listed = [
            (section, None if family == "all" else family, key)
            for section, family, keys in rows if section != "section"
            for key in re.findall(r"`(\w+)`", keys)
        ]
        schema = [
            (section, family, key.lower())
            for (section, family), keys in cli._SCHEMA.items() for key in keys
        ]
        assert len(listed) == len(set(listed))
        assert set(listed) == set(schema)

    @pytest.mark.parametrize("family, override", [
        ("quadratic", "problem.p=0"),
        ("quadratic", "problem.q=-1"),
        ("quadratic", "problem.hessian_scale=nan"),
        ("quadratic", "problem.seed=-1"),
        ("quadratic", "solver.u=nan"),
        ("quadratic", "solver.beta=inf"),
        ("hypercleaning", "problem.feature_dim=0"),
        ("hypercleaning", "problem.n_train=0"),
        ("hypercleaning", "problem.corruption_rates=abc"),
    ])
    def test_out_of_domain_value_rejected(self, tmp_path, capsys, family, override):
        # Values outside a key's domain are configuration errors that name
        # the key, not tracebacks or runs on an empty variable.
        out = tmp_path / "out"
        if family == "quadratic":
            config = write_config(tmp_path / "run.ini", QUADRATIC_CONFIG.format(out=out))
        else:
            config = str(HYPERCLEANING_INI)
        outputs = ["--set", f"output.trace_csv={out}/trace.csv",
                   "--set", f"output.run_json={out}/run.json"]
        assert cli.main(["run", "--config", config, "--set", override] + outputs) == 2
        section, key = override.split("=")[0].split(".")
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --set {override}: [{section}] {key}: invalid value")
        assert not out.exists()

    @pytest.mark.parametrize("config_name, override", [
        ("hypercleaning.ini", "problem.reg_weight=0"),
        ("hypercleaning.ini", "problem.corruption_rates=0.5,1.5"),
        ("quadratic_preferred.ini", "solver.k=-1"),
        ("quadratic_preferred.ini", "solver.option=bogus"),
        ("quadratic_preferred.ini", "solver.n=0"),
    ])
    def test_domain_error_names_key_and_line(self, tmp_path, capsys, config_name, override):
        # The error names the key whose value is out of its domain, at the
        # --set that gives the value, or else at the line of the config file
        # that sets it.
        target, value = override.split("=")
        section, key = target.split(".")
        lines = (CONFIGS / config_name).read_text().splitlines()
        line = next(i for i, text in enumerate(lines, 1) if text.startswith(f"{key} ="))
        lines[line - 1] = f"{key} = {value}"
        edited = write_config(tmp_path / config_name, "\n".join(lines) + "\n")
        out = tmp_path / "out"
        outputs = ["--set", f"output.trace_csv={out}/trace.csv",
                   "--set", f"output.run_json={out}/run.json"]
        for config, where, override_args in (
            (str(CONFIGS / config_name), f"--set {override}", ["--set", override]),
            (edited, f"{edited}:{line}", []),
        ):
            assert cli.main(["run", "--config", config] + override_args + outputs) == 2
            assert capsys.readouterr().err.startswith(
                f"config error: {where}: [{section}] {key}: invalid value '{value}': ")
        assert not out.exists()

    def test_invalid_value_reports_line(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.ini", """
[problem]
family = quadratic

[solver]
k = not_a_number

[preference]
pattern = uniform
""")
        assert cli.main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "bad.ini:6" in err and "k" in err

    @pytest.mark.parametrize("setting", ["K = -1", "k: -1"])
    def test_any_key_spelling_reports_line(self, tmp_path, capsys, setting):
        # configparser lowercases keys and also takes ':' for '=', so both
        # settings are [solver] k, and the error finds the line of either.
        text = QUADRATIC_CONFIG.format(out=tmp_path / "out").replace("k = 40", setting)
        config = write_config(tmp_path / "run.ini", text)
        line = text.splitlines().index(setting) + 1
        assert cli.main(["run", "--config", config]) == 2
        assert f"{config}:{line}: [solver] k: invalid value '-1'" in capsys.readouterr().err

    def test_values_read_literally(self, tmp_path, capsys):
        # No '%' interpolation: a '%' is a character of the value, in an
        # override and in the file alike.
        out = tmp_path / "out"
        config = write_config(tmp_path / "run.ini", QUADRATIC_CONFIG.format(out=out))
        assert cli.main(["run", "--config", config, "--set", "solver.k=2",
                         "--set", f"output.trace_csv={out}/100%.csv",
                         "--set", f"output.run_json={out}/%(trace_csv)s.json"]) == 0
        assert sorted(os.listdir(out)) == ["%(trace_csv)s.json", "100%.csv"]
        text = QUADRATIC_CONFIG.format(out=out).replace("seed = 7", "seed = 1%")
        config = write_config(tmp_path / "run.ini", text)
        assert cli.main(["run", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {config}:7: [problem] seed: invalid value '1%': ")

    def test_missing_preference_section_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.ini", """
[problem]
family = quadratic
""")
        assert cli.main(["run", "--config", config]) == 2

    def test_csv_round_trip_exact(self, quadratic_config):
        config, out = quadratic_config
        assert cli.main(["run", "--config", config]) == 0
        from mobilevel import (
            Preference, QuadraticBilevelSpec, SolverConfig,
            make_quadratic, run_deterministic,
        )

        spec = QuadraticBilevelSpec.random(3, 3, 2, seed=7, hessian_scale=0.2)
        problem, _ = make_quadratic(spec)
        trace = run_deterministic(
            problem,
            SolverConfig(K=40, D=16, N=3, option="cg", u=10.0),
            Preference.preferred(2, 0), np.zeros(3), np.zeros(3),
        )
        rows = cli.parse_trace_csv((out / "trace.csv").read_text())
        assert len(rows) == trace.iterations
        for row, rec in zip(rows, trace.records):
            assert row["k"] == rec.k
            assert row["phi_1"] == rec.phi[0] and row["phi_2"] == rec.phi[1]
            assert row["lambda_1"] == rec.weights.lam[0]
            assert row["d_norm_sq"] == rec.d_norm_sq
            assert row["true_d_norm_sq"] == rec.true_d_norm_sq
            assert row["gc_f"] == rec.counters.gc_f
            assert row["hv_g"] == rec.counters.hv_g

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path / "run.ini", QUADRATIC_CONFIG.format(out=out))
        assert cli.main(["run", "--config", config]) == 0
        first_csv = (out / "trace.csv").read_bytes()
        first_json = (out / "run.json").read_bytes()
        assert cli.main(["run", "--config", config]) == 0
        assert (out / "trace.csv").read_bytes() == first_csv
        assert (out / "run.json").read_bytes() == first_json

    def test_seed_env_var_ignored(self, tmp_path, monkeypatch):
        # The solver seed comes from the config alone (or --set
        # solver.seed=N); an environment variable cannot move it.
        monkeypatch.setenv("MOBL_SEED", "123")
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "run.ini",
            QUADRATIC_CONFIG.format(out=out).replace("u = 10.0", "u = 10.0\nseed = 11"),
        )
        assert cli.main(["run", "--config", config]) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["solver"]["seed"] == 11
        ok, detail = checks.CHECKS["reproducibility"].run()
        assert ok, detail

    def test_infeasible_neumann_schedule_exit_2(self, tmp_path, capsys):
        # eta * mu_g = 25 * 0.1 has no Neumann schedule: a config error,
        # raised before the first iteration, with no trace written.
        out = tmp_path / "out"
        assert cli.main([
            "run", "--config", str(HYPERCLEANING_INI), "--set", "solver.eta=25",
            "--set", f"output.trace_csv={out}/trace.csv",
            "--set", f"output.run_json={out}/run.json",
        ]) == 2
        assert "config error: eta * mu_g must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_stochastic_rejects_cg_keys(self, tmp_path, capsys):
        # The stochastic loop has one estimator: its family knows no CG
        # budget and no option but ns, and its record names the estimator
        # it ran.
        config = str(HYPERCLEANING_INI)
        out = tmp_path / "out"
        outputs = ["--set", f"output.trace_csv={out}/trace.csv",
                   "--set", f"output.run_json={out}/run.json", "--set", "solver.k=2"]
        assert cli.main(["run", "--config", config, "--set", "solver.n=7"] + outputs) == 2
        assert "--set solver.n=7: [solver] n: unknown key" in capsys.readouterr().err
        assert cli.main(["run", "--config", config, "--set", "solver.option=cg"] + outputs) == 2
        assert "--set solver.option=cg: [solver] option: invalid value 'cg': must be 'ns'" in (
            capsys.readouterr().err)
        assert cli.main(["run", "--config", config] + outputs) == 0
        solver = json.loads((out / "run.json").read_text())["solver"]
        assert solver["option"] == "stochastic" and "N" not in solver

    def test_index_rejected_next_to_vector(self, tmp_path, capsys):
        # index picks from a pattern's grid; next to a vector it would be
        # accepted and unused, so it is an error at its line.
        out = tmp_path / "out"
        text = QUADRATIC_CONFIG.format(out=out).replace(
            "pattern = preferred", "vector = 0.7, 0.3")
        config = write_config(tmp_path / "run.ini", text)
        line = text.splitlines().index("index = 0") + 1
        assert cli.main(["run", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {config}:{line}: [preference] index: applies only with 'pattern'")
        hypercleaning = str(HYPERCLEANING_INI)
        assert cli.main(["run", "--config", hypercleaning, "--set", "solver.k=2",
                         "--set", "preference.index=3",
                         "--set", f"output.trace_csv={out}/trace.csv",
                         "--set", f"output.run_json={out}/run.json"]) == 2
        assert "--set preference.index=3: [preference] index: " in capsys.readouterr().err
        assert not out.exists()

    def test_run_failure_exit_1_with_partial_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path / "run.ini", QUADRATIC_CONFIG.format(out=out))
        with np.errstate(over="ignore"):
            code = cli.main([
                "run", "--config", config,
                "--set", "solver.alpha=1e9", "--set", "solver.beta=0.1",
                "--set", "problem.y0=1,1,1",
            ])
        assert code == 1
        assert "run failed" in capsys.readouterr().err
        # The partial trace file exists (header-only: the failure hit k = 0).
        text = (out / "trace.csv").read_text()
        assert text.startswith("k,phi_1")

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda path: path.name)
    def test_shipped_config_records_its_family_keys(self, tmp_path, config):
        # Every shipped config runs, and its record's solver block holds
        # exactly the [solver] keys of its problem family.
        out = tmp_path / "out"
        assert cli.main([
            "run", "--config", str(config), "--set", "solver.k=2",
            "--set", f"output.trace_csv={out}/trace.csv",
            "--set", f"output.run_json={out}/run.json",
        ]) == 0
        record = json.loads((out / "run.json").read_text())
        family = record["problem"]["family"]
        assert {key.lower() for key in record["solver"]} == section_keys("solver", family)
        assert record["solver"]["K"] == record["iterations"] == 2

    def test_record_refuses_config_loop_did_not_run(self, quadratic_config):
        # The record's solver block is the config the loop ran; a different
        # config passed beside the trace is an error, not a second source.
        path, _ = quadratic_config
        parser = cli.load_config(path, ["solver.k=2"])
        problem, _, x0, y0, summary = cli.build_problem(parser, path)
        config = cli.build_solver_config(parser, path)
        preference = cli.build_preference(parser, path, problem.num_objectives)
        trace = run_deterministic(problem, config, preference, x0, y0)
        record = cli.run_record(trace, trace.config, summary, preference)
        assert trace.config.alpha is not None
        assert record["solver"]["alpha"] == trace.config.alpha
        for other in (config, replace(trace.config, N=7)):
            with pytest.raises(ValueError, match="trace.config"):
                cli.run_record(trace, other, summary, preference)

    @pytest.mark.parametrize("option", ["cg", "ns"])
    @pytest.mark.parametrize(
        "scale", ["0", "1e-3", "0.1", "1", "10", "1e3", "1e12", "1e60", "1e100"]
    )
    def test_condition_sweep(self, tmp_path, capsys, option, scale):
        # The shipped quadratic with its default steps over the in-domain
        # range of hessian_scale: each run completes with finite output, or
        # fails with a typed error (exit 2 for a config error, exit 1 for a
        # RunFailure, which writes its partial trace); never a traceback or
        # a silent NaN.  From 1e60 the smoothness bound behind the default
        # beta overflows, which is a config error.
        out = tmp_path / "out"
        code = cli.main([
            "run", "--config", str(CONFIGS / "quadratic_preferred.ini"),
            "--set", f"problem.hessian_scale={scale}", "--set", f"solver.option={option}",
            "--set", f"output.trace_csv={out}/trace.csv",
            "--set", f"output.run_json={out}/run.json",
        ])
        err = capsys.readouterr().err
        if scale in ("1e60", "1e100"):
            assert code == 2
        if code == 0:
            record = json.loads((out / "run.json").read_text())
            rows = cli.parse_trace_csv((out / "trace.csv").read_text())
            assert len(rows) == record["iterations"] == 500
            finals = record["final_x"] + record["final_y"] + record["final_phi"]
            assert np.isfinite(finals + [record["final_d_norm_sq"]]).all()
            assert all(np.isfinite(v) for row in rows for v in row.values() if v is not None)
        elif code == 2:
            assert err.startswith("config error:")
        else:
            assert code == 1 and err.startswith("run failed:")
            assert (out / "trace.csv").exists()

    def test_nonpreference_pattern(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "run.ini",
            QUADRATIC_CONFIG.format(out=out)
            .replace("pattern = preferred", "pattern = none")
            .replace("index = 0", ""),
        )
        assert cli.main(["run", "--config", config]) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["preference"] is None

    def test_nonpreference_pattern_is_a_grid_of_one(self, tmp_path, capsys):
        # Pattern none takes index 0, the one entry of its grid, and rejects
        # any other index as uniform does.
        config = str(CONFIGS / "quadratic_preferred.ini")
        out = tmp_path / "out"
        base = ["--config", config, "--set", "solver.k=2", "--set", "preference.pattern=none",
                "--set", f"output.trace_csv={out}/trace.csv",
                "--set", f"output.run_json={out}/run.json",
                "--set", f"output.summary_csv={out}/summary.csv",
                "--set", f"output.traces_dir={out}/traces"]
        for command in (["run"], ["sweep", "--grid", "preferred"]):
            assert cli.main(command + base + ["--set", "preference.index=1"]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: --set preference.index=1: [preference] index: "
                "index must be in [0, 1)")
        assert not out.exists()
        assert cli.main(["run"] + base) == 0
        assert json.loads((out / "run.json").read_text())["preference"] is None

    def test_nonpreference_pattern_needs_deterministic_problem(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = HYPERCLEANING_INI.read_text(encoding="utf-8").replace(
            "vector = 0.025, 0.025, 0.025, 0.025, 0.9", "pattern = none")
        assert "pattern = none" in text
        config = write_config(tmp_path / "hc.ini", text)
        assert cli.main(["run", "--config", config, "--set", "solver.k=2",
                         "--set", f"output.trace_csv={out}/trace.csv",
                         "--set", f"output.run_json={out}/run.json"]) == 2
        assert capsys.readouterr().err == (
            "config error: the non-preference variant needs a deterministic problem\n")
        assert not out.exists()

    def test_hypercleaning_family(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path / "hc.ini", f"""
[problem]
family = hypercleaning
feature_dim = 3
n_train = 20
n_val = 20
corruption_rates = 0.0, 0.4
reg_weight = 0.1
seed = 5

[solver]
option = ns
k = 10
d = 20
q = 3
t = 8
d_f = 8
d_g = 8
b = 4
u = 1.0
alpha = 0.2
beta = 0.2
eta = 0.2

[preference]
vector = 0.3, 0.7

[output]
trace_csv = {out}/trace.csv
run_json = {out}/run.json
""")
        assert cli.main(["run", "--config", config]) == 0
        rows = cli.parse_trace_csv((out / "trace.csv").read_text())
        assert len(rows) == 10
        # Stochastic traces have no ground-truth direction column values.
        assert all(row["true_d_norm_sq"] is None for row in rows)


# The keys each section accepts in every config.
ACCEPTED_KEYS = {
    "problem": {"family", "seed", "x0", "y0"},
    "solver": {"option", "k", "d", "seed", "alpha", "beta", "u", "stop_tol"},
    "preference": {"vector", "pattern", "index"},
    "output": {"trace_csv", "run_json", "summary_csv", "traces_dir"},
}
# The keys each problem family adds: its instance, and the settings of the
# estimator it runs (cg or ns; the sampled Neumann recursion).
FAMILY_KEYS = {
    "quadratic": {
        "problem": {
            "p", "q", "s", "hessian_scale", "coupling_scale", "target_scale", "hessian",
            "coupling",
        },
        "solver": {"n"},
    },
    "hypercleaning": {
        "problem": {"feature_dim", "n_train", "n_val", "corruption_rates", "reg_weight"},
        "solver": {"q", "t", "d_f", "d_g", "b", "eta"},
    },
}


def section_keys(section, family):
    return ACCEPTED_KEYS[section] | FAMILY_KEYS[family].get(section, set())


def fmt_vector(values):
    return ", ".join(format(float(v), ".17g") for v in values)


def ini_text(sections):
    """INI text of ``{section: {key: value}}``; floats as ``.17g``."""
    blocks = []
    for section, values in sections.items():
        lines = [f"[{section}]"]
        for key, value in values.items():
            if isinstance(value, float):
                value = format(value, ".17g")
            elif isinstance(value, np.ndarray) and value.ndim == 2:
                value = "; ".join(fmt_vector(row) for row in value)
            elif isinstance(value, (np.ndarray, tuple)):
                value = fmt_vector(value)
            lines.append(f"{key} = {value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@pytest.fixture(scope="module")
def schema_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("schema")


# The scalar [problem] values a config that leaves them out runs with.
PROBLEM_DEFAULTS = {
    "quadratic": {
        "seed": 0, "p": 2, "q": 2, "s": 2,
        "hessian_scale": 0.3, "coupling_scale": 0.5, "target_scale": 1.0,
    },
    "hypercleaning": {
        "seed": 0, "feature_dim": 5, "n_train": 40, "n_val": 40,
        "corruption_rates": (0.0, 0.15, 0.3, 0.45, 0.6), "reg_weight": 0.1,
    },
}


def finite_floats(low=None, high=None):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def quadratic_problems(draw):
    """In-domain [problem] values of the quadratic family; any key may be
    left out.  An explicit hessian is strictly diagonally dominant (its
    diagonal is at least 2q - 1, its off-diagonal row sums at most
    2(q - 1)), hence SPD."""
    p, q, s = (draw(st.integers(1, 4)) for _ in range(3))
    values = {"family": "quadratic"}
    for key, dim in zip("pqs", (p, q, s)):
        if dim != 2 or draw(st.booleans()):
            values[key] = dim
    scale = finite_floats(-1e100, 1e100)
    optional = {
        "seed": st.integers(0, 2**63),
        "hessian_scale": scale, "coupling_scale": scale, "target_scale": scale,
        "x0": st.lists(finite_floats(), min_size=p, max_size=p).map(np.array),
        "y0": st.lists(finite_floats(), min_size=q, max_size=q).map(np.array),
        "coupling": st.lists(finite_floats(-1e3, 1e3), min_size=q * p, max_size=q * p)
        .map(lambda flat: np.array(flat).reshape(q, p)),
        "hessian": st.lists(finite_floats(-1.0, 1.0), min_size=q * q, max_size=q * q)
        .map(lambda flat: np.array(flat).reshape(q, q))
        .map(lambda m: m + m.T + (2.0 * q + 1.0) * np.eye(q)),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            values[key] = draw(strategy)
    return values


@st.composite
def hypercleaning_problems(draw):
    """In-domain [problem] values of the hyper-cleaning family."""
    values = {"family": "hypercleaning"}
    optional = {
        "seed": st.integers(0, 2**63),
        "feature_dim": st.integers(1, 3),
        "n_train": st.integers(1, 4),
        "n_val": st.integers(1, 4),
        "corruption_rates": st.one_of(
            st.just("default"),
            st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3).map(tuple),
        ),
        "reg_weight": st.floats(0.0, 1e6, exclude_min=True),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            values[key] = draw(strategy)
    return values


STEP = st.floats(0.0, exclude_min=True, allow_infinity=False)
COMMON_SOLVER_VALUES = {
    "K": st.integers(0, 10**9),
    "D": st.integers(1, 10**9),
    "seed": st.integers(0, 2**63),
    "alpha": STEP,
    "beta": STEP,
    **{field: finite_floats(0.0) for field in ("u", "stop_tol")},
}
# In-domain SolverConfig values of the [solver] keys each family reads.
SOLVER_VALUES = {
    "quadratic": {
        **COMMON_SOLVER_VALUES,
        "N": st.integers(1, 10**9),
        "option": st.sampled_from(["cg", "ns", "CG", "Ns"]),
    },
    "hypercleaning": {
        **COMMON_SOLVER_VALUES,
        **{field: st.integers(1, 10**9) for field in ("Q", "T", "D_f", "D_g", "B")},
        "eta": STEP,
        "option": st.sampled_from(["ns", "NS", "Ns"]),
    },
}
OUTPUT_PATH = st.text("abcxyz019/._-", min_size=1, max_size=12).filter(lambda t: t.strip() == t)


@st.composite
def preference_sections(draw):
    """A [preference] section for S objectives and the preference it names."""
    s = draw(st.integers(1, 6))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(1.0, 100.0), min_size=s, max_size=s)))
        vector = weights / weights.sum()
        return s, {"vector": vector}, vector
    pattern = draw(st.sampled_from(["none", "preferred", "extreme", "uniform"]))
    section = {"pattern": pattern}
    index = draw(st.integers(0, s - 1)) if pattern in ("preferred", "extreme") else 0
    if index or draw(st.booleans()):
        section["index"] = index
    expected = {
        "none": lambda: None,
        "preferred": lambda: Preference.preferred(s, index).r,
        "extreme": lambda: Preference.extreme(s, index).r,
        "uniform": lambda: Preference.uniform(s).r,
    }[pattern]()
    return s, section, expected


# Out-of-domain raw values of every numeric key.
NOT_A_DIMENSION = st.one_of(st.integers(max_value=0).map(str), st.just("1.5"))
NEGATIVE = st.integers(max_value=-1).map(str)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
NOT_POSITIVE = st.one_of(NON_FINITE, finite_floats(high=0.0).map(repr))
NEGATIVE_FLOAT = st.one_of(NON_FINITE, finite_floats(high=-1e-300).map(repr))
HUGE = st.one_of(NON_FINITE, finite_floats(1e100).filter(lambda v: v > 1e100).map(repr),
                 finite_floats(high=-1e100).filter(lambda v: v < -1e100).map(repr))
WITH_NAN = st.integers(0, 3).map(lambda i: ", ".join(["0"] * i + ["nan"]))
BAD_RATES = st.one_of(st.floats(1.0, 10.0), st.floats(-10.0, 0.0, exclude_max=True)).map(
    lambda rate: f"0.5, {rate!r}")
# Every numeric [solver] key, under each family.
SOLVER_OUT_OF_DOMAIN = {
    "k": NEGATIVE,
    "seed": NEGATIVE,
    **{key: NOT_A_DIMENSION for key in ("d", "n", "q", "t", "d_f", "d_g", "b")},
    **{key: NOT_POSITIVE for key in ("alpha", "beta", "eta")},
    **{key: NEGATIVE_FLOAT for key in ("u", "stop_tol")},
}
OUT_OF_DOMAIN = [
    ("quadratic", "problem", "seed", NEGATIVE),
    *(("quadratic", "problem", key, NOT_A_DIMENSION) for key in ("p", "q", "s")),
    *(("quadratic", "problem", key, HUGE)
      for key in ("hessian_scale", "coupling_scale", "target_scale")),
    *(("quadratic", "problem", key, WITH_NAN) for key in ("x0", "y0", "hessian", "coupling")),
    *(("hypercleaning", "problem", key, NOT_A_DIMENSION)
      for key in ("feature_dim", "n_train", "n_val")),
    ("hypercleaning", "problem", "reg_weight", NOT_POSITIVE),
    ("hypercleaning", "problem", "corruption_rates", BAD_RATES),
    *((family, "solver", key, raw_values)
      for family in FAMILY_KEYS for key, raw_values in SOLVER_OUT_OF_DOMAIN.items()),
    ("quadratic", "preference", "index", NEGATIVE),
]


class TestSchema:
    @pytest.mark.parametrize("family", ["quadratic", "hypercleaning"])
    def test_accepted_key_set(self, tmp_path, family):
        # The schema accepts exactly the common keys and the family's, a
        # config that sets all of them loads, and the other family's are
        # unknown.
        expected = {section: section_keys(section, family) for section in ACCEPTED_KEYS}
        for section, keys in expected.items():
            assert {key.lower() for key in cli._keys(section, family)} == keys
        text = ini_text({
            section: {key: family if key == "family" else "1" for key in sorted(keys)}
            for section, keys in expected.items()
        })
        parser = cli.load_config(write_config(tmp_path / "all.ini", text))
        assert {section: set(parser.options(section)) for section in parser.sections()} == expected
        other = ({"quadratic", "hypercleaning"} - {family}).pop()
        for section, keys in FAMILY_KEYS[other].items():
            for key in sorted(keys - expected[section]):
                with pytest.raises(cli.ConfigFileError,
                                   match=rf"\[{section}\] {key}: unknown key"):
                    cli.load_config(str(tmp_path / "all.ini"), [f"{section}.{key}=1"])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.one_of(quadratic_problems(), hypercleaning_problems()).flatmap(
               lambda problem: st.tuples(st.just(problem), st.fixed_dictionaries(
                   {}, optional=SOLVER_VALUES[problem["family"]]))),
           preference_sections(),
           st.fixed_dictionaries({}, optional={
               key: OUTPUT_PATH for key in ("trace_csv", "run_json", "summary_csv", "traces_dir")
           }))
    def test_values_read_back(self, schema_dir, problem_and_solver, preference, output_values):
        # Every in-domain value written to a config is read back exactly by
        # the builders; a key left out takes its default.
        problem_values, solver_values = problem_and_solver
        s_count, preference_values, expected_preference = preference
        solver_ini = {field.lower(): value for field, value in solver_values.items()}
        path = write_config(schema_dir / "drawn.ini", ini_text({
            "problem": problem_values, "solver": solver_ini,
            "preference": preference_values, "output": output_values,
        }))
        parser = cli.load_config(path)

        problem, kind, x0, y0, summary = cli.build_problem(parser, path)
        family = problem_values["family"]
        for key, default in PROBLEM_DEFAULTS[family].items():
            value = problem_values.get(key, default)
            if value == "default":
                value = default
            assert summary[key] == value, key
        for key, got, dim in (("x0", x0, problem.dim_x), ("y0", y0, problem.dim_y)):
            expected = problem_values.get(key, np.zeros(dim))
            assert np.array_equal(got, expected) and got.shape == (dim,)
        if "hessian" in problem_values:
            eye = np.eye(problem.dim_y)
            assert np.array_equal(problem.ll_hvp(x0, y0, eye), problem_values["hessian"])
        if "coupling" in problem_values:
            eye = np.eye(problem.dim_y)
            assert np.array_equal(-problem.ll_jvp(x0, y0, eye), problem_values["coupling"].T)

        # The hyper-cleaning family runs one estimator, and its option says so.
        expected_solver = {"option": "ns"} if family == "hypercleaning" else {}
        expected_solver.update({field: value.lower() if field == "option" else value
                                for field, value in solver_values.items()})
        assert cli.build_solver_config(parser, path) == SolverConfig(**expected_solver)

        got = cli.build_preference(parser, path, s_count)
        if expected_preference is None:
            assert got is None
        else:
            assert np.array_equal(got.r, expected_preference)

        defaults = {"trace_csv": "trace.csv", "run_json": "run.json",
                    "summary_csv": "summary.csv", "traces_dir": "traces"}
        assert cli._values(parser, path, "output") == {**defaults, **output_values}

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda s: st.lists(
        st.lists(st.floats(1.0, 100.0), min_size=s, max_size=s), min_size=1, max_size=5)))
    def test_list_grid_round_trip(self, rows):
        vectors = [np.array(row) / sum(row) for row in rows]
        spec = "list:" + "; ".join(fmt_vector(vector) for vector in vectors)
        prefs = cli.parse_grid(spec, len(rows[0]))
        assert len(prefs) == len(vectors)
        for pref, vector in zip(prefs, vectors):
            assert np.array_equal(pref.r, vector)

    @pytest.mark.parametrize(
        "family, section, key, raw_values", OUT_OF_DOMAIN,
        ids=[f"{family}-{section}.{key}" for family, section, key, _ in OUT_OF_DOMAIN],
    )
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(data=st.data())
    def test_out_of_domain_value_names_key(self, schema_dir, family, section, key,
                                           raw_values, data):
        raw = data.draw(raw_values)
        config = CONFIGS / ("quadratic_preferred.ini" if family == "quadratic"
                            else "hypercleaning.ini")
        out = schema_dir / f"{section}.{key}"
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = cli.main(["run", "--config", str(config), "--set", f"{section}.{key}={raw}",
                             "--set", f"output.trace_csv={out}/trace.csv",
                             "--set", f"output.run_json={out}/run.json"])
        err = stderr.getvalue()
        assert code == 2, err
        # A key the family does not read is unknown, whatever its value.
        if key in section_keys(section, family):
            assert f"[{section}] {key}: invalid value '{raw}': " in err
        else:
            assert f"[{section}] {key}: unknown key" in err
        assert not out.exists()


class TestCmdSweep:
    def test_summary_text_layout(self):
        # One row per entry in grid order; a failed entry keeps its r and
        # leaves its values empty.
        problem, _ = make_quadratic(QuadraticBilevelSpec.random(2, 2, 2, seed=3))
        (ok,) = pareto_sweep(problem, SolverConfig(K=3, D=4, N=2), [Preference.uniform(2)],
                             np.zeros(2), np.zeros(2)).entries
        failed = SweepEntry(Preference(np.array([0.25, 0.75])), None, "run aborted")
        phi, dns = ok.trace.final_phi, ok.trace.final_d_norm_sq
        assert cli.sweep_summary_text(SweepResult((ok, failed)), 2) == (
            "r_1,r_2,phi_1,phi_2,d_norm_sq,status\n"
            f"0.5,0.5,{phi[0]:.17g},{phi[1]:.17g},{dns:.17g},ok\n"
            "0.25,0.75,,,,failed\n"
        )

    def test_preferred_grid_rows(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path / "run.ini", f"""
[problem]
family = quadratic
p = 2
q = 2
s = 5
seed = 3
hessian_scale = 0.2

[solver]
option = cg
k = 10
d = 10
n = 2
u = 10.0

[preference]
pattern = uniform

[output]
summary_csv = {out}/summary.csv
traces_dir = {out}/traces
""")
        assert cli.main(["sweep", "--config", config, "--grid", "preferred"]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 6  # header + one row per objective
        assert len(os.listdir(out / "traces")) == 5

    def test_single_uniform_matches_run(self, tmp_path):
        out = tmp_path / "out"
        base = QUADRATIC_CONFIG.format(out=out).replace(
            "pattern = preferred", "pattern = uniform"
        ).replace("index = 0", "")
        config = write_config(tmp_path / "run.ini", base + f"\nsummary_csv = {out}/summary.csv\ntraces_dir = {out}/traces\n")
        assert cli.main(["run", "--config", config]) == 0
        run_rows = cli.parse_trace_csv((out / "trace.csv").read_text())
        assert cli.main(["sweep", "--config", config, "--grid", "uniform"]) == 0
        sweep_rows = cli.parse_trace_csv((out / "traces" / "run_000.csv").read_text())
        assert run_rows == sweep_rows
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 2

    def test_r1_grid_front_ordering(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path / "front.ini", f"""
[problem]
family = quadratic
p = 2
q = 2
s = 2
hessian = 1,0.1;0.1,0.8
coupling = 0.3,0.1;0,0.2
seed = 2

[solver]
option = cg
k = 250
d = 48
n = 2
u = 10.0

[preference]
pattern = uniform

[output]
summary_csv = {out}/summary.csv
traces_dir = {out}/traces
""")
        code = cli.main([
            "sweep", "--config", config, "--grid", "r1=0.1,0.3,0.5,0.7,0.9",
        ])
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        phi1_index = header.index("phi_1")
        phi1 = [float(line.split(",")[phi1_index]) for line in lines[1:]]
        assert all(b <= a + 1e-6 for a, b in zip(phi1, phi1[1:]))

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "out"
        base = QUADRATIC_CONFIG.format(out=out)
        config = write_config(
            tmp_path / "run.ini",
            base + f"\nsummary_csv = {out}/summary.csv\ntraces_dir = {out}/traces\n",
        )
        assert cli.main(["sweep", "--config", config, "--grid", "extreme"]) == 0
        first = {
            name: (out / "traces" / name).read_bytes()
            for name in os.listdir(out / "traces")
        }
        first_summary = (out / "summary.csv").read_bytes()
        assert cli.main(["sweep", "--config", config, "--grid", "extreme"]) == 0
        assert (out / "summary.csv").read_bytes() == first_summary
        for name, blob in first.items():
            assert (out / "traces" / name).read_bytes() == blob

    @pytest.mark.parametrize("override", ["preference.pattern=bogus", "preference.index=-4"])
    def test_preference_values_checked(self, tmp_path, capsys, override):
        # The grid replaces [preference], but its values are checked as in
        # run, each error at the --set that gives it.
        config = CONFIGS / "quadratic_preferred.ini"
        target, value = override.split("=")
        key = target.split(".")[1]
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config), "--grid", "preferred",
                         "--set", "solver.k=2", "--set", override,
                         "--set", f"output.summary_csv={out}/summary.csv",
                         "--set", f"output.traces_dir={out}/traces"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: --set {override}: [preference] {key}: invalid value '{value}': ")
        assert not out.exists()

    @pytest.mark.parametrize("pattern_line, overrides, message", [
        ("pattern = preferred", ["--set", "preference.vector=0.5,0.5"],
         ":17: [preference]: give exactly one of 'vector' or 'pattern'"),
        ("vector = 0.7, 0.3", [],
         ":19: [preference] index: applies only with 'pattern', not with 'vector'"),
    ], ids=["vector-and-pattern", "index-next-to-vector"])
    def test_preference_cross_key_rules_checked(self, tmp_path, capsys, pattern_line,
                                                overrides, message):
        # A [preference] section that run rejects fails a sweep the same way.
        out = tmp_path / "out"
        text = QUADRATIC_CONFIG.format(out=out).replace("pattern = preferred", pattern_line)
        config = write_config(tmp_path / "run.ini", text)
        for command in (["run"], ["sweep", "--grid", "preferred"]):
            assert cli.main(command + ["--config", config] + overrides) == 2
            assert capsys.readouterr().err.startswith(f"config error: {config}{message}")
        assert not out.exists()

    def test_bad_grid_spec(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path / "run.ini", QUADRATIC_CONFIG.format(out=out))
        assert cli.main(["sweep", "--config", config, "--grid", "bogus"]) == 2

    @pytest.mark.parametrize("grid, message", [
        ("r1=0,0.5", "strictly positive"),
        ("r1=abc", "could not convert"),
        ("list:0.5,0.5,0.1", "sum to 1"),
        ("list:0.5,0.25,0.25", "expected 2 weights per preference, got 3"),
    ])
    def test_bad_grid_preference_exit_2(self, tmp_path, capsys, grid, message):
        out = tmp_path / "out"
        config = write_config(tmp_path / "run.ini", QUADRATIC_CONFIG.format(out=out))
        assert cli.main(["sweep", "--config", config, "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: grid '{grid}': ") and message in err


class TestCmdVerify:
    def test_quick_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == sum(check.quick for check in checks.CHECKS.values())
        assert "[FAIL]" not in out

    def test_corrupted_benchmark_fails_symmetry(self, monkeypatch, capsys):
        from dataclasses import replace as dc_replace

        real_factory = checks._verify_quadratic

        def corrupted(seed=0):
            problem, constants = real_factory(seed)
            skew = np.zeros((5, 5))
            skew[0, 1] = 0.5

            def bad_hvp(x, y, v, base=problem.ll_hvp):
                return base(x, y, v) + skew @ v

            return dc_replace(problem, ll_hvp=bad_hvp), constants

        monkeypatch.setattr(checks, "_verify_quadratic", corrupted)
        assert cli.main(["verify"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] oracle-symmetry" in captured.out
        assert "oracle-symmetry" in captured.err
