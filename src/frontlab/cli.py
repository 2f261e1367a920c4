"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 configuration
error, 3 numerical nonconvergence, 4 any other frontlab error (for example a
kernel with no finite spreading speed, a time step above the stability
bound, or a whole line too short for its initial data or its fronts).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .cauchy import CauchyConfig, cauchy_simulate
from .config import DEFAULT_CONFIG_TEXT, RunConfig, parse_config
from .errors import ConfigError, FrontlabError, InsufficientDataError, NonconvergenceError
from .experiments import (
    EXPERIMENT_NAMES,
    build_sim_config,
    run_experiment,
    write_csv,
    write_summary,
    write_trajectory,
)
from .fbsim import classify_outcome, measure_speed, simulate, stability_dt
from .kernels import TailClass, c_of_J, classify_tail
from .semiwave import linear_determinacy_speed, solve_semiwave
from .speed import c0_curve, solve_c0


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config(DEFAULT_CONFIG_TEXT)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc.strerror or exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"]) from exc
    return parse_config(text)


def _cmd_semiwave(args) -> int:
    if not (math.isfinite(args.c) and args.c > 0):
        raise ConfigError([f"--c must be finite and positive, got {args.c!r}"])
    if not 0.0 <= args.sigma < 1.0:
        raise ConfigError([f"--sigma must lie in [0, 1), got {args.sigma!r}"])
    cfg = _load_config(args.config)
    out = solve_semiwave(
        args.c, cfg.get("model", "d"), cfg.build_kernel(), cfg.build_reaction(),
        cfg.semiwave_params(), sigma=args.sigma,
    )
    out_dir = args.out or cfg.get("run", "out")
    if not out.accepted:
        write_summary(
            os.path.join(out_dir, "summary.json"),
            {
                "accepted": False,
                "c": out.c,
                "plateau": out.plateau_value,
                "residual": out.residual,
                "iterations": out.iterations_used,
                "reason": out.reason,
            },
        )
        print(f"no semi-wave at c={args.c}: {out.reason}")
        return 0
    write_csv(
        os.path.join(out_dir, "profile.csv"),
        ["x", "phi"],
        [out.grid.nodes(), out.phi],
    )
    write_summary(
        os.path.join(out_dir, "summary.json"),
        {
            "accepted": True,
            "c": out.c,
            "residual": out.residual,
            "plateau": out.plateau_value,
            "iterations": out.iterations_used,
            "ode_defect": out.ode_defect,
        },
    )
    print(f"semi-wave at c={args.c}: residual {out.residual:.3e}, plateau {out.plateau_value:.6f}")
    return 0


def _cmd_speed(args) -> int:
    cfg = _load_config(args.config)
    if args.mu is not None:
        cfg.override("model", "mu", args.mu)
    mu = cfg.get("model", "mu")
    sol = solve_c0(
        mu,
        cfg.get("model", "d"),
        cfg.build_kernel(),
        cfg.build_reaction(),
        cfg.semiwave_params(),
        cfg.get("speed", "tol"),
    )
    out_dir = args.out or cfg.get("run", "out")
    write_csv(
        os.path.join(out_dir, "profile.csv"),
        ["x", "phi"],
        [sol.profile.grid.nodes(), sol.profile.phi],
    )
    write_summary(
        os.path.join(out_dir, "summary.json"),
        {
            "c0": sol.c0,
            "mu": sol.mu,
            "residual": sol.residual,
            "upper_bound_mu_cJ": sol.flux_constant,
        },
    )
    print(f"c0({mu}) = {sol.c0:.10g} (residual {sol.residual:.3e})")
    return 0


def _cmd_speed_curve(args) -> int:
    cfg = _load_config(args.config)
    if args.mus:
        cfg.override("experiment", "mus", args.mus)
    mus = cfg.experiment_mus()
    entries = c0_curve(
        mus,
        cfg.get("model", "d"),
        cfg.build_kernel(),
        cfg.build_reaction(),
        cfg.semiwave_params(),
        cfg.get("speed", "tol"),
    )
    out_dir = args.out or cfg.get("run", "out")
    rows = []
    errors = {}
    for e in entries:
        if e.solution is not None:
            rows.append((e.mu, e.solution.c0, e.solution.residual))
        else:
            rows.append((e.mu, float("nan"), float("nan")))
            errors[str(e.mu)] = e.error
    write_csv(os.path.join(out_dir, "c0_curve.csv"), ["mu", "c0", "residual"], zip(*rows))
    write_summary(
        os.path.join(out_dir, "summary.json"),
        {"mus": mus, "errors": errors, "n_ok": sum(e.solution is not None for e in entries)},
    )
    for row in rows:
        print(f"mu={row[0]:g}: c0={row[1]:.10g}")
    return 0 if not errors else 1


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    traj = simulate(build_sim_config(cfg))
    out_dir = args.out or cfg.get("run", "out")
    artifacts = write_trajectory(out_dir, traj)
    outcome = classify_outcome(traj)
    summary = {
        "outcome": outcome.tag.value,
        "evidence": outcome.evidence,
        "clamp_count": traj.clamp_count,
        "final_h": float(traj.hs[-1]),
        "final_g": float(traj.gs[-1]),
    }
    try:
        meas = measure_speed(traj)
        summary["slope_h"] = meas.slope_h
        summary["slope_g"] = meas.slope_g
        summary["dyadic_slopes"] = meas.dyadic_slopes
    except InsufficientDataError as exc:  # slopes are optional extras here
        summary["speed_measurement_error"] = str(exc)
    write_summary(os.path.join(out_dir, "summary.json"), summary)
    print(f"outcome: {outcome.tag.value}; artifacts in {out_dir} ({len(artifacts)} files)")
    return 0


# a default-width whole line is refused above this many multiply-adds: four
# to six minutes at the 0.25-0.37 ns each its banded sum took on a 2-core Xeon
_MAX_LINE_WORK = 1e12


def _cmd_cauchy(args) -> int:
    cfg = _load_config(args.config)
    X = cfg.get("grid", "domain_halfwidth")
    kernel = cfg.build_kernel()
    reaction = cfg.build_reaction()
    d, dx, t_max = cfg.get("model", "d"), cfg.get("grid", "dx"), cfg.get("time", "t_max")
    if X <= 0:
        # expected-speed heuristic; accelerating kernels need an explicit width
        c_lin = linear_determinacy_speed(d, kernel, reaction)
        if c_lin is None:
            raise ConfigError(
                ["grid.domain_halfwidth must be set explicitly for kernels without "
                 "a finite exponential moment"]
            )
        X = 8.0 * t_max * c_lin
        nodes = max(2, int(round(2.0 * X / dx))) + 1
        # kernel terms per node: 1 in an exponential kernel's tridiagonal
        # solve, else 2*band + 1 in the banded sum, the band found by bisection
        # on the density (nonincreasing away from 0) without sampling the row
        band, beyond = 0, nodes
        while kernel.exp_rate is None and beyond - band > 1:
            mid = (band + beyond) // 2
            band, beyond = (mid, beyond) if kernel.density(mid * dx) > 0.0 else (band, mid)
        steps = math.ceil(t_max / (cfg.get("time", "dt") or stability_dt(d, reaction, dx)))
        terms = min(2 * band + 1, nodes)
        if steps * nodes * terms > _MAX_LINE_WORK:
            raise ConfigError(
                [f"grid.domain_halfwidth is unset, and the default line of {nodes} nodes "
                 f"needs about {steps * nodes * terms:.1e} multiply-adds ({steps} steps x "
                 f"{nodes} nodes x {terms} kernel terms), above {_MAX_LINE_WORK:.0e}: "
                 "set it explicitly"]
            )
    run = cauchy_simulate(
        CauchyConfig(
            kernel=kernel,
            reaction=reaction,
            d=d,
            u0=cfg.u0_callable(),
            t_max=t_max,
            dx=dx,
            domain_halfwidth=X,
            dt=cfg.get("time", "dt"),
            sample_dt=cfg.get("time", "sample_dt"),
            snap_dt=cfg.get("time", "snap_dt"),
        )
    )
    out_dir = args.out or cfg.get("run", "out")
    tr = run.track
    write_csv(
        os.path.join(out_dir, "levelset.csv"),
        ["t", "x_minus", "x_plus"],
        [tr.ts, tr.x_minus, tr.x_plus],
    )
    for i, snap in enumerate(run.snapshots):
        write_csv(os.path.join(out_dir, "snapshots", f"{i:03d}.csv"), ["x", "u"], [snap.x, snap.u])
    write_summary(
        os.path.join(out_dir, "summary.json"),
        {
            "domain_halfwidth": X,
            "domain_too_small": run.domain_too_small,
            "level": tr.lam,
            "final_x_plus": float(tr.x_plus[-1]),
        },
    )
    print(f"level {tr.lam} front at t={tr.ts[-1]:g}: x+ = {tr.x_plus[-1]:.6g}"
          + (" [domain-too-small]" if run.domain_too_small else ""))
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config) if args.config else None
    out_dir = args.out or (cfg.get("run", "out") if cfg else os.path.join("out", args.name))
    result = run_experiment(args.name, cfg, out_dir)
    for check, ok in result.checks.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {check}")
    print(f"experiment {args.name}: {'pass' if result.passed else 'FAIL'}; artifacts in {out_dir}")
    return 0 if result.passed else 1


def _cmd_classify_kernel(args) -> int:
    cfg = _load_config(args.config)
    kernel = cfg.build_kernel()
    cls = classify_tail(kernel)
    payload = {"kernel": kernel.name, "tail_class": cls.value}
    if cls is not TailClass.FAT_TAIL:
        payload["c_of_J"] = c_of_J(kernel)
    print(json.dumps(payload, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Nonlocal free-boundary spreading: semi-waves, speeds, simulations.",
    )
    parser.add_argument("--config", help="path to a config file", default=None)
    parser.add_argument("--out", help="output directory (overrides config)", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semiwave", help="solve the semi-wave problem at one speed")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--sigma", type=float, default=0.0, help="homotopy source, in [0, 1)")
    p.set_defaults(func=_cmd_semiwave)

    p = sub.add_parser("speed", help="solve the spreading-speed identity")
    p.add_argument("--mu", type=float, default=None)
    p.set_defaults(func=_cmd_speed)

    p = sub.add_parser("speed-curve", help="spreading speed over a mu sweep")
    p.add_argument("--mus", default=None, help="comma-separated mu values")
    p.set_defaults(func=_cmd_speed_curve)

    p = sub.add_parser("simulate", help="run the free-boundary system")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cauchy", help="run the whole-line problem")
    p.set_defaults(func=_cmd_cauchy)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("classify-kernel", help="report the kernel tail class")
    p.set_defaults(func=_cmd_classify_kernel)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return 3
    except FrontlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
