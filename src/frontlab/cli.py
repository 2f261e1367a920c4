"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 configuration
error, 3 numerical nonconvergence, 4 any other frontlab error (for example a
kernel with no finite spreading speed, or a time step above the stability
bound).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cauchy import CauchyConfig, cauchy_simulate
from .config import DEFAULT_CONFIG_TEXT, RunConfig, parse_config
from .errors import ConfigError, FrontlabError, NonconvergenceError
from .experiments import (
    EXPERIMENT_NAMES,
    build_sim_config,
    run_experiment,
    write_csv,
    write_summary,
    write_trajectory,
)
from .fbsim import classify_outcome, measure_speed, simulate
from .kernels import TailClass, c_of_J, classify_tail
from .semiwave import NonExistence, linear_determinacy_speed, solve_semiwave
from .speed import c0_curve, solve_c0


def _load_config(path: str | None) -> RunConfig:
    text = DEFAULT_CONFIG_TEXT if path is None else open(path, "r", encoding="utf-8").read()
    return parse_config(text)


def _cmd_semiwave(args) -> int:
    cfg = _load_config(args.config)
    params = cfg.semiwave_params()
    if args.sigma is not None:
        params.sigma_homotopy = args.sigma
    out = solve_semiwave(
        args.c, cfg.get("model", "d"), cfg.build_kernel(), cfg.build_reaction(), params
    )
    out_dir = args.out or cfg.get("run", "out")
    if isinstance(out, NonExistence):
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
        zip(out.grid.nodes(), out.phi),
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
    mu = args.mu if args.mu is not None else cfg.get("model", "mu")
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
        zip(sol.profile.grid.nodes(), sol.profile.phi),
    )
    write_summary(
        os.path.join(out_dir, "summary.json"),
        {
            "c0": sol.c0,
            "mu": sol.mu,
            "residual": sol.residual,
            "bracket": list(sol.bracket),
            "upper_bound_mu_cJ": sol.flux_constant,
        },
    )
    print(f"c0({mu}) = {sol.c0:.10g} (residual {sol.residual:.3e})")
    return 0


def _cmd_speed_curve(args) -> int:
    cfg = _load_config(args.config)
    mus = [float(m) for m in args.mus.split(",")] if args.mus else cfg.mu_list()
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
    write_csv(os.path.join(out_dir, "c0_curve.csv"), ["mu", "c0", "residual"], rows)
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
        meas = measure_speed(traj, 0.25)
        summary["slope_h"] = meas.slope_h
        summary["slope_g"] = meas.slope_g
        summary["dyadic_slopes"] = meas.dyadic_slopes
    except Exception as exc:  # noqa: BLE001 - slopes are optional extras here
        summary["speed_measurement_error"] = str(exc)
    write_summary(os.path.join(out_dir, "summary.json"), summary)
    print(f"outcome: {outcome.tag.value}; artifacts in {out_dir} ({len(artifacts)} files)")
    return 0


def _cmd_cauchy(args) -> int:
    cfg = _load_config(args.config)
    X = cfg.get("grid", "domain_halfwidth")
    kernel = cfg.build_kernel()
    reaction = cfg.build_reaction()
    if X <= 0:
        # expected-speed heuristic; accelerating kernels need an explicit width
        c_lin = linear_determinacy_speed(cfg.get("model", "d"), kernel, reaction)
        if c_lin is None:
            raise ConfigError(
                ["grid.domain_halfwidth must be set explicitly for kernels without "
                 "a finite exponential moment"]
            )
        X = 8.0 * cfg.get("time", "t_max") * c_lin
    run = cauchy_simulate(
        CauchyConfig(
            kernel=kernel,
            reaction=reaction,
            d=cfg.get("model", "d"),
            u0=cfg.u0_callable(),
            t_max=cfg.get("time", "t_max"),
            dx=cfg.get("grid", "dx"),
            domain_halfwidth=X,
            dt=cfg.get("time", "dt") or None,
            sample_dt=cfg.get("time", "sample_dt"),
            snap_dt=cfg.get("time", "snap_dt") or None,
            levels=(cfg.get("grid", "level"),),
            boundary_eps=cfg.get("grid", "boundary_eps"),
        )
    )
    out_dir = args.out or cfg.get("run", "out")
    lam = cfg.get("grid", "level")
    tr = run.tracks[lam]
    write_csv(
        os.path.join(out_dir, "levelset.csv"),
        ["t", "x_minus", "x_plus"],
        zip(tr.ts, tr.x_minus, tr.x_plus),
    )
    for i, snap in enumerate(run.snapshots):
        write_csv(os.path.join(out_dir, "snapshots", f"{i:03d}.csv"), ["x", "u"], zip(snap.x, snap.u))
    write_summary(
        os.path.join(out_dir, "summary.json"),
        {
            "domain_halfwidth": X,
            "domain_too_small": run.domain_too_small,
            "level": lam,
            "final_x_plus": float(tr.x_plus[-1]),
        },
    )
    print(f"level {lam} front at t={tr.ts[-1]:g}: x+ = {tr.x_plus[-1]:.6g}"
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
    p.add_argument("--sigma", type=float, default=None)
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
