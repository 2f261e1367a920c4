"""The benchmark's traced pass (perfbench/tracing.py) wraps frontlab's public
functions by name.  One small traced job here makes a renamed or removed
wrapped name fail the test suite, not only a benchmark run.  Traced Laplace
simulations show that the free-boundary step evaluates no kernel tail, and a
traced mu-limit run that every run takes the whole line's steps.  The
config of every benchmark job must parse, and every seed-0 job must pass the
benchmark's output check, so a schema change that rejects one, or a headline
that drifts from its baseline, fails here too, not only in a benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

from frontlab import estimate_cstar, parse_config
from frontlab.cli import main

_PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _traced_run(tracing, tmp_path, name, cfg_text, argv):
    """Run one CLI command under the tracer; returns its per-layer metrics."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(cfg_text)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["--config", str(cfg), "--out", str(tmp_path / name)] + argv)
    finally:
        tracer.uninstall()
    assert code == 0
    return tracing.layer_metrics(tracer.spans)


def test_traced_speed_job_counts_semiwave_solves(tmp_path):
    metrics = _traced_run(
        _load("tracing"), tmp_path, "speed",
        "[kernel]\ntype = laplace\n[reaction]\ntype = logistic\n"
        "[semiwave]\ndepth = 30.0\nn_cells = 1200\n",
        ["speed", "--mu", "1"],
    )
    assert metrics["semiwave.solves"] > 0


def test_traced_laplace_simulate_steps_without_tail_mass(tmp_path):
    # the Laplace step reads its boundary fluxes off the convolution, so a
    # longer run takes more steps and no more tail evaluations
    tracing = _load("tracing")
    short, long = (
        _traced_run(
            tracing, tmp_path, f"simulate-{t_max:g}",
            "[kernel]\ntype = laplace\n[reaction]\ntype = logistic\n[model]\nh0 = 2.0\n"
            f"[time]\nt_max = {t_max!r}\nsample_dt = 0.25\n",
            ["simulate"],
        )
        for t_max in (1.0, 2.0)
    )
    assert long["fbsim.steps"] > short["fbsim.steps"] > 0
    assert long["kernels.tail_mass_calls"] == short["kernels.tail_mass_calls"]


def test_traced_mu_limit_counts_every_lockstep_step(tmp_path):
    # compare_mu_limit steps through the module bindings the tracer rebinds:
    # a local alias of step or cauchy_step would leave these counts at 0
    metrics = _traced_run(
        _load("tracing"), tmp_path, "mu-limit",
        "[kernel]\ntype = laplace\n[reaction]\ntype = logistic\n[model]\nh0 = 4.0\n"
        "[time]\nt_max = 1.0\nsnap_dt = 0.5\n"
        "[grid]\ndx = 0.25\ndomain_halfwidth = 30.0\nwindow_halfwidth = 8.0\n"
        "[experiment]\nmus = 1,10\n",
        ["experiment", "mu-limit"],
    )
    assert metrics["fbsim.steps"] == 2 * metrics["cauchy.steps"] > 0


@pytest.mark.parametrize("seed", [0, 4099])
def test_every_benchmark_job_config_parses(seed):
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs_for(workload, seed):
            parse_config(job.config)


def test_every_seed0_benchmark_job_passes_its_check(tmp_path):
    # the benchmark's output gate, headlines against their seed-0 baselines
    # included, run once per job in-process as perfbench/worker.py runs it
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs_for(workload, 0):
            out_dir = tmp_path / job.name
            cfg = parse_config(job.config)
            if job.kind == "cstar":
                value = estimate_cstar(
                    cfg.get("model", "d"), cfg.build_kernel(), cfg.build_reaction(),
                    cfg.semiwave_params(),
                )
            else:
                cfg_path = tmp_path / f"{job.name}.cfg"
                cfg_path.write_text(job.config)
                value = main(["--config", str(cfg_path), "--out", str(out_dir)] + job.argv)
            assert workloads.check(job, str(out_dir), value, 0) == [], job.name
