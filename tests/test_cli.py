import json
import os
from pathlib import Path

import numpy as np
import pytest

from mobilevel import checks, cli

HYPERCLEANING_INI = Path(__file__).resolve().parent.parent / "configs" / "hypercleaning.ini"


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

    def test_unknown_section_and_override_rejected(self, quadratic_config, capsys):
        config, _ = quadratic_config
        assert cli.main(["run", "--config", config, "--set", "solver.kk=1"]) == 2
        assert "[solver] kk: unknown key" in capsys.readouterr().err
        assert cli.main(["sweep", "--config", config, "--grid", "uniform",
                         "--set", "solvr.k=1"]) == 2
        assert "[solvr]: unknown section" in capsys.readouterr().err

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
        assert err.startswith(f"config error: {config}")
        assert f"[{section}] {key}: invalid value" in err
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

    def test_stochastic_rejects_cg_keys(self, tmp_path, capsys):
        # The stochastic loop has one estimator: it takes no CG budget and
        # no option but ns, and its record names the estimator it ran.
        config = str(HYPERCLEANING_INI)
        out = tmp_path / "out"
        outputs = ["--set", f"output.trace_csv={out}/trace.csv",
                   "--set", f"output.run_json={out}/run.json", "--set", "solver.k=2"]
        assert cli.main(["run", "--config", config, "--set", "solver.n=7"] + outputs) == 2
        assert f"{config}: [solver] n: a stochastic run has no CG budget" in (
            capsys.readouterr().err)
        line = HYPERCLEANING_INI.read_text().splitlines().index("option = ns") + 1
        assert cli.main(["run", "--config", config, "--set", "solver.option=cg"] + outputs) == 2
        assert f"{config}:{line}: [solver] option: " in capsys.readouterr().err
        assert cli.main(["run", "--config", config] + outputs) == 0
        solver = json.loads((out / "run.json").read_text())["solver"]
        assert solver["option"] == "stochastic" and "N" not in solver

    def test_run_failure_exit_1_with_partial_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path / "run.ini", QUADRATIC_CONFIG.format(out=out))
        with np.errstate(over="ignore"):
            code = cli.main([
                "run", "--config", config,
                "--set", "solver.alpha=1e9", "--set", "solver.beta=0.1",
                "--set", "solver.eta=0.1", "--set", "problem.y0=1,1,1",
            ])
        assert code == 1
        assert "run failed" in capsys.readouterr().err
        # The partial trace file exists (header-only: the failure hit k = 0).
        text = (out / "trace.csv").read_text()
        assert text.startswith("k,phi_1")

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


class TestCmdSweep:
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
