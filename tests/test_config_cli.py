import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import frontlab
from frontlab import parse_config
from frontlab.cli import main
from frontlab.config import _SCHEMA
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

    def test_speed_mu_list_removed(self):
        # experiment.mus is the one mu list; speed-curve falls back to it
        with pytest.raises(ConfigError) as err:
            parse_config("[speed]\nmu_list = 1,10,100\n")
        assert any("mu_list" in v for v in err.value.violations)

    def test_single_valued_keys_removed(self):
        # constants now: the level and end threshold of whole-line runs, the
        # plateau threshold; the homotopy source is the semiwave --sigma flag
        with pytest.raises(ConfigError) as err:
            parse_config(
                "[grid]\nlevel = 0.5\nboundary_eps = 1e-3\n"
                "[semiwave]\nsigma = 0.0\nplateau_eps = 1e-2\n"
            )
        assert len(err.value.violations) == 4
        assert all("unknown key" in v for v in err.value.violations)

    def test_every_schema_key_is_read(self):
        src = "".join(p.read_text() for p in pathlib.Path(frontlab.__file__).parent.glob("*.py"))
        unread = [
            (section, key)
            for section, keys in _SCHEMA.items()
            for key in keys
            if not re.search(rf'get\(\s*"{section}",\s*"{key}"\s*\)', src)
        ]
        assert unread == []

    def test_readme_config_block_is_the_defaults(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(block)
        for section, keys in _SCHEMA.items():
            for key, (_typ, default, _constraint) in keys.items():
                assert cfg.get(section, key) == default, f"{section}.{key}"

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

    @pytest.mark.parametrize("key", ["mus", "radii"])
    @pytest.mark.parametrize("text", ["2,1", "1,1", "-1,2", "1,inf", ""])
    def test_experiment_lists_positive_and_increasing(self, key, text):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[experiment]\n{key} = {text}\n")
        violations = err.value.violations
        assert len(violations) == 1 and f"experiment.{key}" in violations[0]

    @pytest.mark.parametrize("coeffs, failed", [
        ("0,-0.2,1.2,-1", "df0_positive"),  # bistable: f'(0) = -0.2
        ("0,0.5,-1", "f(1)=0"),  # f(1) = -0.5
        ("0,1,-2,1", "negative_beyond_cap"),  # u(1-u)^2 stays positive past 1
    ])
    def test_custom_reaction_must_be_kpp(self, coeffs, failed):
        with warnings.catch_warnings(), pytest.raises(ConfigError) as err:
            warnings.simplefilter("error")
            parse_config(f"[reaction]\ntype = custom\ncoeffs = {coeffs}\n")
        violations = err.value.violations
        assert len(violations) == 1 and "not KPP" in violations[0] and failed in violations[0]

    @pytest.mark.parametrize("coeffs", ["0,1,-1", "0,1,0,-1"])
    def test_custom_kpp_reaction_accepted(self, coeffs):
        cfg = parse_config(f"[reaction]\ntype = custom\ncoeffs = {coeffs}\n")
        assert float(cfg.build_reaction().f(1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_custom_reaction_coeffs_finite(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[reaction]\ntype = custom\ncoeffs = 0,1,nan\n")
        assert err.value.violations == ["reaction.coeffs must be finite"]

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\n[model]\n# inline note\nd = 2.5\n")
        assert cfg.get("model", "d") == 2.5

    def test_u0_vanishes_at_edges(self):
        cfg = parse_config(MINIMAL)
        u0 = cfg.u0_callable()
        h0 = cfg.get("model", "h0")
        assert float(u0(np.array([h0]))[0]) == 0.0
        assert float(u0(np.array([0.0]))[0]) == pytest.approx(1.0)

    def test_bump_family(self, tmp_path):
        text = MINIMAL + "[model]\nh0 = 2.0\n[initial]\nfamily = bump\namplitude = 0.7\n"
        u0 = parse_config(text).u0_callable()
        assert np.all(u0(np.array([-3.0, -2.0, 2.0, 3.0])) == 0.0)
        assert np.all(u0(np.linspace(-1.99, 1.99, 399)) > 0.0)
        assert float(u0(np.array([0.0]))[0]) == 0.7
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "[time]\nt_max = 1.0\n[grid]\ndx = 0.2\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        first = (out / "trajectory.csv").read_text().splitlines()[1]
        assert [float(v) for v in first.split(",")] == [0.0, -2.0, 2.0]


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

    @pytest.mark.parametrize("content", [None, b"[model]\nd = \xff\n"], ids=["missing", "not-utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "nope.cfg"
        if content is not None:
            path.write_bytes(content)
        assert main(["--config", str(path), "speed"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nope.cfg" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sigma", ["-0.5", "1.5"])
    def test_semiwave_sigma_flag_out_of_range(self, tmp_path, capsys, sigma):
        out = tmp_path / "out"
        code = main(["--out", str(out), "semiwave", "--c", "1.0", "--sigma", sigma])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error") and "--sigma" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["speed", "--mu", "-1"], "model.mu"),
            (["speed", "--mu", "nan"], "model.mu"),
            (["speed-curve", "--mus=-1,2"], "experiment.mus"),
            (["speed-curve", "--mus=2,1"], "experiment.mus"),
            (["speed-curve", "--mus=abc"], "experiment.mus"),
            (["semiwave", "--c", "-1"], "--c"),
            (["semiwave", "--c", "0"], "--c"),
        ],
        ids=["mu-negative", "mu-nan", "mus-negative", "mus-decreasing", "mus-unparseable",
             "c-negative", "c-zero"],
    )
    def test_bad_flag_value_exit_code(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert main(["--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error") and key in err
        assert not out.exists()

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

    def test_speed_at_tiny_mu(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg), "--out", str(out), "speed", "--mu", "1e-12"]) == 0
        assert capsys.readouterr().err == ""
        assert 0.0 < json.loads((out / "summary.json").read_text())["c0"] < 1e-12

    def test_speed_curve_csv_schema(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[semiwave]\ndepth = 30.0\nn_cells = 1200\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--out", str(out), "speed-curve", "--mus", "1,2"])
        assert code == 0
        lines = (out / "c0_curve.csv").read_text().splitlines()
        assert lines[0] == "mu,c0,residual"
        assert len(lines) == 3

    def test_speed_curve_defaults_to_experiment_mus(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            MINIMAL + "[semiwave]\ndepth = 30.0\nn_cells = 1200\n[experiment]\nmus = 1,2\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "speed-curve"]) == 0
        rows = (out / "c0_curve.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [1.0, 2.0]

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

    def test_simulate_records_front_slopes(self, tmp_path):
        # 33 samples: every dyadic window of (0, 8] holds at least two
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            MINIMAL + "[model]\nh0 = 2.0\n[time]\nt_max = 8.0\nsample_dt = 0.25\n[grid]\ndx = 0.2\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "speed_measurement_error" not in summary
        assert summary["slope_h"] > 0.0
        assert summary["slope_g"] == pytest.approx(-summary["slope_h"], rel=1e-12)
        assert len(summary["dyadic_slopes"]) == 4
        assert all(v > 0.0 for v in summary["dyadic_slopes"])

    def test_simulate_records_too_few_samples(self, tmp_path):
        # three samples are too few for a slope; the run itself still succeeds
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[model]\nh0 = 2.0\n[time]\nt_max = 1.0\nsample_dt = 0.5\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "too few samples" in summary["speed_measurement_error"]

    def test_simulate_propagates_measurement_bugs(self, tmp_path, monkeypatch):
        def broken(traj):
            raise RuntimeError("bug in the measurement")

        monkeypatch.setattr("frontlab.cli.measure_speed", broken)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[model]\nh0 = 2.0\n[time]\nt_max = 1.0\nsample_dt = 0.5\n")
        with pytest.raises(RuntimeError, match="bug in the measurement"):
            main(["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"])

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

    @pytest.mark.parametrize("argv", [
        ["speed"], ["speed-curve"], ["experiment", "linear-speed"], ["experiment", "truncation"],
    ], ids=lambda a: a[-1])
    def test_speed_solves_reject_sigma_homotopy(self, tmp_path, capsys, argv):
        # the homotopy source is the semiwave command's --sigma flag alone;
        # the semiwave.sigma key is unknown to every command
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "[semiwave]\nsigma = 0.3\ndepth = 30.0\nn_cells = 1200\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown key 'sigma'" in err
        assert not out.exists()

    def test_cauchy_wide_gaussian(self, tmp_path):
        # the domain comes from c_lin, whose bracket search probes moments
        # past the largest float
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[kernel]\ntype = gaussian\nsd = 30.0\n[reaction]\ntype = logistic\n"
            "[time]\nt_max = 0.5\nsample_dt = 0.25\n[grid]\ndx = 1.0\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "cauchy"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["domain_halfwidth"] == pytest.approx(8.0 * 0.5 * 30.0 * np.sqrt(np.e))

    def test_cauchy_wide_uniform(self, tmp_path):
        # c_lin's bracket search starts where sinh(lam * R) overflows
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[kernel]\ntype = uniform\nradius = 400\n[reaction]\ntype = logistic\n"
            "[time]\nt_max = 0.2\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "cauchy"]) == 0

    def test_experiment_accelerated_reduced(self, tmp_path):
        from frontlab.experiments import EXPERIMENT_PRESETS

        # the preset (power sigma = 0.8, speed_cap = 2.0) at half the horizon
        # and twice the cell
        text = EXPERIMENT_PRESETS["accelerated"]
        text = text.replace("t_max = 200.0", "t_max = 100.0").replace("dx = 0.25", "dx = 0.5")
        cfg = tmp_path / "acc.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "experiment", "accelerated"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        dy = summary["summary"]["dyadic_slopes"]
        assert len(dy) == 4 and summary["summary"]["slope_ratio"] == dy[-1] / dy[0]

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

    @pytest.mark.parametrize("X", [6.0, 10.0])
    def test_experiment_mu_limit_fails_on_a_short_line(self, tmp_path, capsys, X):
        # the density reaches the ends of the line, so the whole line is no
        # Cauchy solution to compare with, whatever the other checks read
        cfg = tmp_path / "ml.cfg"
        cfg.write_text(
            MINIMAL
            + "[model]\nh0 = 2.0\n[time]\nt_max = 2.0\nsnap_dt = 1.0\n"
            + f"[grid]\ndx = 0.1\ndomain_halfwidth = {X!r}\nwindow_halfwidth = 3.0\n"
            + "[experiment]\nmus = 1,10\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "experiment", "mu-limit"]) == 1
        assert "[FAIL] whole_line_not_too_short" in capsys.readouterr().out.splitlines()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summary"]["domain_too_small"] is True
        assert summary["passed"] is False


# bad inputs with their documented exit codes: 2 configuration, 4 any other
# frontlab error
_FAT_TAIL = "[kernel]\ntype = power\nsigma = 0.8\n[reaction]\ntype = logistic\n"
_BAD_INPUTS = {
    "bistable-reaction": (
        MINIMAL.replace("type = logistic", "type = custom\ncoeffs = 0,-0.2,1.2,-1"), ["speed"], 2
    ),
    "reaction-negative-at-1": (
        MINIMAL.replace("type = logistic", "type = custom\ncoeffs = 0,0.5,-1"), ["speed"], 2
    ),
    "semiwave-sigma-key-removed": (
        MINIMAL + "[semiwave]\nsigma = 0.3\ndepth = 30.0\nn_cells = 1200\n", ["speed"], 2
    ),
    "cauchy-dt-above-bound": (
        MINIMAL + "[time]\nt_max = 1.0\ndt = 3.0\n[grid]\ndx = 0.2\ndomain_halfwidth = 20.0\n",
        ["cauchy"],
        4,
    ),
    "fat-tail-simulate-without-speed-cap": (
        _FAT_TAIL + "[model]\nh0 = 2.0\n[time]\nt_max = 1.0\n[grid]\ndx = 0.25\n",
        ["simulate"],
        2,
    ),
    "fat-tail-mu-limit": (
        _FAT_TAIL + "[model]\nh0 = 2.0\n[time]\nt_max = 1.0\n"
        + "[grid]\ndx = 0.25\ndomain_halfwidth = 20.0\nwindow_halfwidth = 5.0\n",
        ["experiment", "mu-limit"],
        4,
    ),
    # the default line, 8*t_max*c_lin wide, is sized by the kernel's speed
    # while its band grows with the width: 7.3e13 multiply-adds
    "cauchy-default-line-of-a-wide-gaussian": (
        MINIMAL.replace("type = laplace", "type = gaussian\nsd = 30.0"), ["cauchy"], 2
    ),
    "cauchy-line-shorter-than-u0": (
        MINIMAL + "[model]\nh0 = 5.0\n[time]\nt_max = 1.0\n[grid]\ndomain_halfwidth = 8.0\n",
        ["cauchy"],
        4,
    ),
    # 800 table points per unit of support: 8e8 at R = 1e6
    "truncation-radius-too-large": (
        MINIMAL + "[experiment]\nradii = 1e6\n", ["experiment", "truncation"], 4
    ),
    # the bump underflows to 0 at the node x = 10, inside (-h0, h0)
    "bump-u0-zero-inside": (
        MINIMAL + "[model]\nh0 = 10.0003\n[initial]\nfamily = bump\n", ["simulate"], 4
    ),
    "h0-holds-no-lattice-node": (MINIMAL + "[model]\nh0 = 1e-14\n", ["simulate"], 4),
    # 20 / 0.15 cells: the whole line's nodes miss the lattice
    "mu-limit-line-off-the-lattice": (
        MINIMAL + "[model]\nh0 = 2.0\n[time]\nt_max = 1.0\n"
        + "[grid]\ndx = 0.15\ndomain_halfwidth = 20.0\nwindow_halfwidth = 5.0\n",
        ["experiment", "mu-limit"],
        2,
    ),
    # an unset line is refused before the first step
    "mu-limit-line-unset": (MINIMAL, ["experiment", "mu-limit"], 2),
    "mu-limit-window-escapes-the-line": (
        MINIMAL + "[model]\nh0 = 5.0\n[time]\nt_max = 6.0\n"
        + "[grid]\ndx = 0.2\ndomain_halfwidth = 12.0\nwindow_halfwidth = 5.0\n"
        + "[experiment]\nmus = 100\n",
        ["experiment", "mu-limit"],
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
def test_entry_point_reports_bad_input_in_one_line(tmp_path, capsys, name):
    text, argv, code = _BAD_INPUTS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")] + argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err


def test_module_entry_point_reports_bad_input_in_one_line(tmp_path):
    """``python -m frontlab`` exits with main's code and its one stderr line;
    the cases above run main in-process, this one a fresh interpreter."""
    text, argv, code = _BAD_INPUTS["bump-u0-zero-inside"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    paths = [str(pathlib.Path(frontlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "frontlab", "--config", str(cfg), "--out", str(tmp_path / "out")]
        + argv,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def _cold_start_loads(module, code="import frontlab, frontlab.cli"):
    """"True" or "False": whether ``code`` (by default ``import frontlab,
    frontlab.cli``) in a fresh interpreter puts ``module`` in sys.modules."""
    paths = [str(pathlib.Path(frontlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cold_start_skips_scipy_signal():
    """Importing the package and its CLI pulls in no scipy.signal, which
    with the scipy.stats it imports would cost most of a cold start."""
    assert _cold_start_loads("scipy.signal") == "False"


def test_cold_start_skips_scipy_optimize():
    """scipy.optimize is imported only inside its one caller,
    ``linear_determinacy_speed``, so a cold start never pays for it."""
    assert _cold_start_loads("scipy.optimize") == "False"


def test_eta_n_skips_scipy_optimize():
    """eta_n comes from a bisection, so the truncation experiment needs no
    scipy.optimize."""
    code = (
        "from frontlab import adjust_for_truncation, make_logistic; "
        "adjust_for_truncation(make_logistic(), 0.8, 1.0)"
    )
    assert _cold_start_loads("scipy.optimize", code) == "False"


def _per_value_csv(header, rows):
    """The CSV text as written one value at a time: floats with 17
    significant digits, everything else with str."""
    fmt = lambda v: f"{v:.17g}" if isinstance(v, float) else str(v)  # noqa: E731
    return "".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows])


class TestWriteCsv:
    def test_matches_the_per_value_format(self, tmp_path):
        from frontlab.experiments import write_csv

        rng = np.random.default_rng(8)
        floats = rng.normal(size=9) * 10.0 ** rng.integers(-300, 300, 9)
        floats[:5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        columns = [
            floats,
            np.arange(-4, 5),
            [float(v) for v in rng.uniform(size=9)],
            [np.float64(0.1), 0.2, np.float64(-0.0), float("nan"), 1.0, 2.5, 3.0, 1e-7, 7.0],
            [1, 2.5, None, "a,b", np.int64(7), True, np.float32(0.1), -0.0, 1e300],
            np.arange(9) % 2 == 0,
            np.linspace(0.0, 1.0, 9, dtype=np.float32),
            [np.int64(v) for v in range(9)],
        ]
        header = [f"c{i}" for i in range(len(columns))]
        for n_rows in (9, 4, 0):
            cut = [c[:n_rows] for c in columns]
            path = tmp_path / f"t{n_rows}.csv"
            write_csv(str(path), header, cut)
            assert path.read_bytes() == _per_value_csv(header, zip(*cut)).encode()
        write_csv(str(tmp_path / "empty.csv"), ["a"], [])
        assert (tmp_path / "empty.csv").read_text() == "a\n"


class TestExperiments:
    def test_truncation_solves_c_n_at_speed_tol(self, tmp_path, monkeypatch):
        from frontlab import experiments, fbsim

        tols = []
        solve_c0 = fbsim.solve_c0

        def recording(mu, d, k, r, params, tol):
            tols.append(tol)
            return solve_c0(mu, d, k, r, params, tol)

        monkeypatch.setattr(fbsim, "solve_c0", recording)
        cfg = parse_config(
            MINIMAL
            + "[semiwave]\ndepth = 30.0\nn_cells = 1200\n[speed]\ntol = 1e-7\n"
            + "[experiment]\nradii = 5,10\n"
        )
        experiments.run_truncation(cfg, str(tmp_path))
        assert tols == [1e-7, 1e-7]
