"""The five named experiments and their artifact emission.

Each experiment runs a configured instance, writes plot-ready CSVs plus a
structured summary, and reports pass/fail for the checks that belong to it.
Numbers are printed with 17 significant digits so re-running a config
reproduces artifacts byte for byte.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .cauchy import MuLimitConfig, compare_mu_limit
from .config import RunConfig, parse_config
from .errors import ConfigError
from .fbsim import (
    OutcomeTag,
    SimConfig,
    classify_outcome,
    measure_speed,
    simulate,
    truncated_speed_sequence,
)
from .kernels import TailClass, classify_tail
from .speed import solve_c0

__all__ = ["ExperimentResult", "EXPERIMENT_NAMES", "EXPERIMENT_PRESETS", "run_experiment"]


@dataclass(eq=False, kw_only=True)
class ExperimentResult:
    name: str
    checks: dict[str, bool]
    summary: dict
    artifacts: list[str]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _column(values) -> tuple[str, list]:
    """A CSV column as its %-format and its values, printed as ``_fmt``
    prints each: a column of floats (numpy's included) through ``%.17g``,
    any other column value by value.  A float64 or integer array is read
    with ``tolist``, which keeps every value and its printed form."""
    if isinstance(values, np.ndarray) and (values.dtype == float or values.dtype.kind in "biu"):
        values = values.tolist()
    else:
        values = list(values)
    if all(isinstance(v, float) for v in values):
        return "%.17g", values
    return "%s", [_fmt(v) for v in values]


def write_csv(path: str, header: list[str], columns) -> None:
    """One column per header entry; the rows stop where the shortest column
    does.  The whole table is one %-format, so a long profile costs a few
    C-level passes instead of a Python call per value."""
    parsed = [_column(c) for c in columns]
    rows = list(zip(*(values for _, values in parsed)))
    row_format = ",".join(fmt for fmt, _ in parsed) + "\n"
    table = row_format * len(rows) % tuple(chain.from_iterable(rows))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(table)


def write_summary(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory(out_dir: str, traj) -> list[str]:
    paths = []
    p = os.path.join(out_dir, "trajectory.csv")
    write_csv(p, ["t", "g", "h"], [traj.ts, traj.gs, traj.hs])
    paths.append(p)
    for i, snap in enumerate(traj.snapshots):
        sp = os.path.join(out_dir, "snapshots", f"{i:03d}.csv")
        write_csv(sp, ["x", "u"], [snap.x, snap.u])
        paths.append(sp)
    return paths


def build_sim_config(cfg: RunConfig) -> SimConfig:
    kernel = cfg.build_kernel()
    if cfg.get("time", "speed_cap") == 0 and classify_tail(kernel) is TailClass.FAT_TAIL:
        raise ConfigError(["time.speed_cap must be positive for a fat-tailed kernel"])
    return SimConfig(
        kernel=kernel,
        reaction=cfg.build_reaction(),
        d=cfg.get("model", "d"),
        mu=cfg.get("model", "mu"),
        h0=cfg.get("model", "h0"),
        u0=cfg.u0_callable(),
        t_max=cfg.get("time", "t_max"),
        dx=cfg.get("grid", "dx"),
        dt=cfg.get("time", "dt"),
        sample_dt=cfg.get("time", "sample_dt"),
        snap_dt=cfg.get("time", "snap_dt"),
        v_cap=cfg.get("time", "speed_cap"),
    )


def run_linear_speed(cfg: RunConfig, out_dir: str) -> ExperimentResult:
    """Finite-speed regime: measured front slope against the selected speed."""
    kernel = cfg.build_kernel()
    reaction = cfg.build_reaction()
    sol = solve_c0(
        cfg.get("model", "mu"),
        cfg.get("model", "d"),
        kernel,
        reaction,
        cfg.semiwave_params(),
        cfg.get("speed", "tol"),
    )
    sim = build_sim_config(cfg)
    traj = simulate(sim)
    meas = measure_speed(traj)
    rel_err = abs(meas.slope_h - sol.c0) / sol.c0
    sym = float(np.max(np.abs(traj.gs + traj.hs)))
    checks = {
        "slope_within_10pct_of_c0": rel_err <= 0.10,
        "symmetric_fronts": sym < 1e-10,
    }
    artifacts = write_trajectory(out_dir, traj)
    summary = {
        "c0": sol.c0,
        "c0_residual": sol.residual,
        "measured_slope_h": meas.slope_h,
        "measured_slope_g": meas.slope_g,
        "relative_error": rel_err,
        "max_abs_g_plus_h": sym,
        "dyadic_slopes": meas.dyadic_slopes,
        "clamp_count": traj.clamp_count,
    }
    return ExperimentResult(
        name="linear-speed", checks=checks, summary=summary, artifacts=artifacts
    )


def run_accelerated(cfg: RunConfig, out_dir: str) -> ExperimentResult:
    """Accelerating regime: dyadic front slopes must keep growing."""
    sim = build_sim_config(cfg)
    traj = simulate(sim)
    meas = measure_speed(traj)
    dy = meas.dyadic_slopes
    checks = {
        "dyadic_slopes_strictly_increasing": all(b > a for a, b in zip(dy, dy[1:])),
        "final_over_first_at_least_2": dy[-1] / dy[0] >= 2.0,
    }
    artifacts = write_trajectory(out_dir, traj)
    summary = {
        "dyadic_slopes": dy,
        "slope_ratio": dy[-1] / dy[0],
        "final_h": float(traj.hs[-1]),
        "clamp_count": traj.clamp_count,
    }
    return ExperimentResult(
        name="accelerated", checks=checks, summary=summary, artifacts=artifacts
    )


def run_dichotomy(cfg: RunConfig, out_dir: str) -> ExperimentResult:
    """Classify one run as Spreading / Vanishing / Undecided."""
    sim = build_sim_config(cfg)
    traj = simulate(sim)
    outcome = classify_outcome(traj)
    expect = cfg.get("experiment", "expect")
    if expect:
        ok = outcome.tag.value.lower() == expect
    else:
        ok = outcome.tag is not OutcomeTag.UNDECIDED
    checks = {"outcome_matches_expectation": ok}
    artifacts = write_trajectory(out_dir, traj)
    summary = {
        "outcome": outcome.tag.value,
        "expected": expect or "(any decided)",
        "evidence": {k: v for k, v in outcome.evidence.items()},
    }
    return ExperimentResult(
        name="dichotomy", checks=checks, summary=summary, artifacts=artifacts
    )


def run_mu_limit(cfg: RunConfig, out_dir: str) -> ExperimentResult:
    """Free-boundary runs squeezed under the whole-line solution."""
    if not cfg.get("grid", "domain_halfwidth"):
        raise ConfigError(["grid.domain_halfwidth must be set for the mu-limit experiment"])
    shared = MuLimitConfig(
        kernel=cfg.build_kernel(),
        reaction=cfg.build_reaction(),
        d=cfg.get("model", "d"),
        h0=cfg.get("model", "h0"),
        u0=cfg.u0_callable(),
        t_max=cfg.get("time", "t_max"),
        dx=cfg.get("grid", "dx"),
        domain_halfwidth=cfg.get("grid", "domain_halfwidth"),
        window_halfwidth=cfg.get("grid", "window_halfwidth"),
        snap_dt=cfg.get("time", "snap_dt") or 1.0,
    )
    mus = cfg.experiment_mus()
    report = compare_mu_limit(mus, shared)
    sups = [e.sup_abs for e in report.entries]
    hs = [e.h_final for e in report.entries]
    checks = {
        "one_sided_excess_below_5e-3": all(e.sup_excess <= 5e-3 for e in report.entries),
        "sup_abs_decreasing_in_mu": all(b < a for a, b in zip(sups, sups[1:])),
        "h_final_increasing_in_mu": all(b > a for a, b in zip(hs, hs[1:])),
        # a line too short for the whole-line solution leaves nothing to compare with
        "whole_line_not_too_short": not report.domain_too_small,
    }
    p = os.path.join(out_dir, "mu_limit.csv")
    write_csv(
        p,
        ["mu", "sup_excess", "sup_abs", "h_final"],
        zip(*[(e.mu, e.sup_excess, e.sup_abs, e.h_final) for e in report.entries]),
    )
    summary = {
        "entries": [
            {"mu": e.mu, "sup_excess": e.sup_excess, "sup_abs": e.sup_abs, "h_final": e.h_final}
            for e in report.entries
        ],
        "shared_dt": report.shared_dt,
        "domain_too_small": report.domain_too_small,
    }
    return ExperimentResult(name="mu-limit", checks=checks, summary=summary, artifacts=[p])


def run_truncation(cfg: RunConfig, out_dir: str) -> ExperimentResult:
    """Cutoff-kernel speeds: monotone, and either diverging or consistent."""
    kernel = cfg.build_kernel()
    reaction = cfg.build_reaction()
    params = cfg.semiwave_params()
    tol = cfg.get("speed", "tol")
    entries = truncated_speed_sequence(
        kernel,
        cfg.radii(),
        cfg.get("model", "d"),
        cfg.get("model", "mu"),
        reaction,
        params,
        tol,
    )
    cs = [e.c_n for e in entries]
    checks = {"c_n_nondecreasing": all(b >= a * (1.0 - 1e-6) for a, b in zip(cs, cs[1:]))}
    summary = {
        "radii": [e.radius for e in entries],
        "sigma_n": [e.sigma_n for e in entries],
        "eta_n": [e.eta_n for e in entries],
        "c_n": cs,
    }
    if classify_tail(kernel) is TailClass.FAT_TAIL:
        checks["ratio_last_over_first_above_2"] = cs[-1] / cs[0] > 2.0
        summary["ratio"] = cs[-1] / cs[0]
    else:
        sol = solve_c0(
            cfg.get("model", "mu"),
            cfg.get("model", "d"),
            kernel,
            reaction,
            params,
            tol,
        )
        rel = abs(cs[-1] - sol.c0) / sol.c0
        checks["last_radius_within_5pct_of_untruncated"] = rel <= 0.05
        summary["untruncated_c0"] = sol.c0
        summary["relative_gap"] = rel
    p = os.path.join(out_dir, "cn.csv")
    write_csv(
        p,
        ["radius", "sigma_n", "eta_n", "c_n"],
        zip(*[(e.radius, e.sigma_n, e.eta_n, e.c_n) for e in entries]),
    )
    return ExperimentResult(name="truncation", checks=checks, summary=summary, artifacts=[p])


_RUNNERS = {
    "linear-speed": run_linear_speed,
    "accelerated": run_accelerated,
    "dichotomy": run_dichotomy,
    "mu-limit": run_mu_limit,
    "truncation": run_truncation,
}

EXPERIMENT_NAMES = tuple(_RUNNERS)

# canonical configurations; `frontlab experiment NAME` uses these when no
# config file is given
EXPERIMENT_PRESETS: dict[str, str] = {
    "linear-speed": """\
[kernel]
type = laplace
[reaction]
type = logistic
[model]
d = 1.0
mu = 1.0
h0 = 10.0
[time]
t_max = 200.0
sample_dt = 0.5
[grid]
dx = 0.1
""",
    "accelerated": """\
[kernel]
type = power
sigma = 0.8
[reaction]
type = logistic
[model]
d = 1.0
mu = 0.1
h0 = 4.0
[time]
t_max = 200.0
sample_dt = 0.5
speed_cap = 2.0
[grid]
dx = 0.25
""",
    "dichotomy": """\
[kernel]
type = laplace
[reaction]
type = logistic
[model]
d = 1.0
mu = 1.0
h0 = 10.0
[time]
t_max = 200.0
sample_dt = 0.5
[grid]
dx = 0.1
[experiment]
expect = spreading
""",
    "mu-limit": """\
[kernel]
type = laplace
[reaction]
type = logistic
[model]
d = 1.0
h0 = 5.0
[time]
t_max = 20.0
snap_dt = 1.0
[grid]
dx = 0.1
domain_halfwidth = 80.0
window_halfwidth = 20.0
[experiment]
mus = 1,10,100
""",
    "truncation": """\
[kernel]
type = power
sigma = 0.8
[reaction]
type = logistic
[model]
d = 1.0
mu = 1.0
[semiwave]
depth = 120.0
n_cells = 3000
tol_iter = 1e-9
[experiment]
radii = 10,20,40,80
""",
}

# the vanishing counterpart of the dichotomy experiment, shipped for AC use
VANISHING_PRESET = """\
[kernel]
type = laplace
[reaction]
type = logistic
[model]
d = 5.0
mu = 0.05
h0 = 0.2
[initial]
amplitude = 0.01
[time]
t_max = 200.0
sample_dt = 0.5
[grid]
dx = 0.1
[experiment]
expect = vanishing
"""


def run_experiment(name: str, cfg: RunConfig | None, out_dir: str) -> ExperimentResult:
    """Dispatch one named experiment; preset config when none is supplied."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}")
    if cfg is None:
        cfg = parse_config(EXPERIMENT_PRESETS[name])
    result = _RUNNERS[name](cfg, out_dir)
    payload = {
        "experiment": result.name,
        "passed": result.passed,
        "checks": result.checks,
        "summary": result.summary,
    }
    write_summary(os.path.join(out_dir, "summary.json"), payload)
    result.artifacts.append(os.path.join(out_dir, "summary.json"))
    return result
