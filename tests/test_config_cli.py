import json
import os

import numpy as np
import pytest

from frontlab import parse_config
from frontlab.cli import main
from frontlab.errors import ConfigError

MINIMAL = """\
[kernel]
type = laplace

[reaction]
type = logistic
"""


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.get("model", "d") == 1.0
        assert cfg.get("model", "mu") == 1.0
        assert cfg.get("grid", "dx") == 0.1
        assert cfg.get("semiwave", "n_cells") == 4000

    def test_kernel_and_reaction_builders(self):
        cfg = parse_config(
            "[kernel]\ntype = power\nsigma = 2.0\n[reaction]\ntype = custom\ncoeffs = 0,1,-1\n"
        )
        k = cfg.build_kernel()
        assert k.name == "power"
        r = cfg.build_reaction()
        assert float(r.f(0.5)) == pytest.approx(0.25)

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[model]\nd = 1.0\nwibble = 3\n")
        assert any("wibble" in v for v in err.value.violations)

    def test_unread_keys_removed(self):
        # no code would read a seed, a thread count or experiment.c
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nseed = 0\nthreads = 2\n[experiment]\nc = 1.0\n")
        assert len(err.value.violations) == 3

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[banana]\nq = 1\n")
        assert any("banana" in v for v in err.value.violations)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[model]\nd = 1.0\nd = 2.0\n")
        assert any("duplicate" in v for v in err.value.violations)

    def test_negative_mu_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[model]\nmu = -1\n")
        assert any("mu" in v for v in err.value.violations)

    def test_multiple_violations_all_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[model]\nmu = -1\nd = zero\n[junk]\n")
        assert len(err.value.violations) == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[time]\nt_max = inf\n")
        assert any("finite" in v for v in err.value.violations)

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\n[model]\n# inline note\nd = 2.5\n")
        assert cfg.get("model", "d") == 2.5

    def test_u0_vanishes_at_edges(self):
        cfg = parse_config(MINIMAL)
        u0 = cfg.u0_callable()
        h0 = cfg.get("model", "h0")
        assert float(u0(np.array([h0]))[0]) == 0.0
        assert float(u0(np.array([0.0]))[0]) == pytest.approx(1.0)


class TestCli:
    def test_classify_kernel(self, capsys):
        assert main(["classify-kernel"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tail_class"] == "ThinTail"
        assert payload["c_of_J"] == pytest.approx(0.5, abs=1e-6)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nmu = -1\n")
        assert main(["--config", str(bad), "classify-kernel"]) == 2
        assert "mu" in capsys.readouterr().err

    def test_semiwave_emits_profile(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[semiwave]\ndepth = 30.0\nn_cells = 1200\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "semiwave", "--c", "1.0"]) == 0
        profile = (out / "profile.csv").read_text().splitlines()
        assert profile[0] == "x,phi"
        assert len(profile) == 1202
        summary = json.loads((out / "summary.json").read_text())
        assert summary["accepted"] is True
        assert summary["residual"] < 1e-6

    def test_semiwave_nonexistence_is_reported(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[semiwave]\ndepth = 30.0\nn_cells = 1200\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "semiwave", "--c", "3.0"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["accepted"] is False

    def test_semiwave_sigma_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[semiwave]\ndepth = 30.0\nn_cells = 1200\n")
        out = tmp_path / "out"
        code = main(
            ["--config", str(cfg), "--out", str(out), "semiwave", "--c", "1.0", "--sigma", "0.05"]
        )
        assert code == 0
        rows = (out / "profile.csv").read_text().splitlines()
        # the perturbed problem pins the front value at sigma instead of 0
        assert float(rows[-1].split(",")[1]) == pytest.approx(0.05)

    def test_speed_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[semiwave]\ndepth = 30.0\nn_cells = 1200\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "speed", "--mu", "1.0"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["c0"] < 0.5

    def test_speed_curve_csv_schema(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[semiwave]\ndepth = 30.0\nn_cells = 1200\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--out", str(out), "speed-curve", "--mus", "1,2"])
        assert code == 0
        lines = (out / "c0_curve.csv").read_text().splitlines()
        assert lines[0] == "mu,c0,residual"
        assert len(lines) == 3

    def test_simulate_and_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            MINIMAL
            + "[model]\nh0 = 5.0\n[time]\nt_max = 5.0\nsample_dt = 0.5\nsnap_dt = 2.5\n"
            + "[grid]\ndx = 0.2\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", str(cfg), "--out", str(out1), "simulate"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "simulate"]) == 0
        t1 = (out1 / "trajectory.csv").read_bytes()
        t2 = (out2 / "trajectory.csv").read_bytes()
        assert t1 == t2
        assert t1.splitlines()[0] == b"t,g,h"
        s1 = (out1 / "snapshots" / "000.csv").read_bytes()
        s2 = (out2 / "snapshots" / "000.csv").read_bytes()
        assert s1 == s2

    def test_cauchy_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            MINIMAL
            + "[model]\nh0 = 5.0\n[time]\nt_max = 5.0\nsample_dt = 0.5\n"
            + "[grid]\ndx = 0.2\ndomain_halfwidth = 40.0\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "cauchy"]) == 0
        lines = (out / "levelset.csv").read_text().splitlines()
        assert lines[0] == "t,x_minus,x_plus"

    def test_experiment_dichotomy_vanishing(self, tmp_path):
        from frontlab.experiments import VANISHING_PRESET

        cfg = tmp_path / "van.cfg"
        cfg.write_text(VANISHING_PRESET.replace("t_max = 200.0", "t_max = 60.0"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "experiment", "dichotomy"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["summary"]["outcome"] == "Vanishing"

    def test_experiment_failure_exit_code(self, tmp_path):
        # a spreading run declared as expected-vanishing must fail with code 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            MINIMAL
            + "[model]\nh0 = 5.0\n[time]\nt_max = 5.0\nsample_dt = 0.5\n[grid]\ndx = 0.2\n"
            + "[experiment]\nexpect = vanishing\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "experiment", "dichotomy"]) == 1

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[semiwave]\ndepth = 30.0\nn_cells = 1200\nmax_iters = 2\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "semiwave", "--c", "1.0"]) == 3
        assert "nonconvergence" in capsys.readouterr().err

    def test_no_finite_speed_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kernel]\ntype = power\nsigma = 0.8\n[reaction]\ntype = logistic\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "speed"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "NoFiniteSpeedError" in err
        assert "Traceback" not in err

    def test_rejected_step_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            MINIMAL + "[model]\nh0 = 2.0\n[time]\nt_max = 1.0\ndt = 0.5\n[grid]\ndx = 0.2\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "RejectedStepError" in err
        assert "Traceback" not in err

    def test_experiment_linear_speed_reduced(self, tmp_path):
        cfg = tmp_path / "ls.cfg"
        cfg.write_text(
            MINIMAL
            + "[model]\nh0 = 10.0\n[time]\nt_max = 40.0\nsample_dt = 0.5\n"
            + "[grid]\ndx = 0.2\n[semiwave]\ndepth = 30.0\nn_cells = 1200\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "experiment", "linear-speed"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["summary"]["relative_error"] <= 0.10
        assert (out / "trajectory.csv").exists()

    def test_experiment_mu_limit_reduced_and_deterministic(self, tmp_path):
        cfg = tmp_path / "ml.cfg"
        cfg.write_text(
            MINIMAL
            + "[model]\nh0 = 4.0\n[time]\nt_max = 4.0\nsnap_dt = 1.0\n"
            + "[grid]\ndx = 0.25\ndomain_halfwidth = 30.0\nwindow_halfwidth = 8.0\n"
            + "[experiment]\nmus = 1,10\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", str(cfg), "--out", str(out1), "experiment", "mu-limit"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "experiment", "mu-limit"]) == 0
        b1 = (out1 / "mu_limit.csv").read_bytes()
        assert b1 == (out2 / "mu_limit.csv").read_bytes()
        assert b1.splitlines()[0] == b"mu,sup_excess,sup_abs,h_final"
