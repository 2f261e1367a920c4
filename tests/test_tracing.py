"""The benchmark's traced pass (perfbench/tracing.py) wraps frontlab's public
functions by name.  One small traced job here makes a renamed or removed
wrapped name fail the test suite, not only a benchmark run."""

import importlib.util
import pathlib

from frontlab.cli import main

_TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_speed_job_counts_semiwave_solves(tmp_path):
    tracing = _load_tracing()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[kernel]\ntype = laplace\n[reaction]\ntype = logistic\n"
        "[semiwave]\ndepth = 30.0\nn_cells = 1200\n"
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "speed", "--mu", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracing.layer_metrics(tracer.spans)["semiwave.solves"] > 0
