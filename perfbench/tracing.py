"""Spans around frontlab's layers, installed from outside the package.

`install` replaces every module binding of each wrapped public function
(for example `solve_semiwave` in both `semiwave` and `speed`, `simulate` in
`fbsim`, `cauchy` and `cli`) with a wrapper that records a span, and wraps
`density` / `tail_mass` / `f` on each kernel and reaction the factories
return.  Spans stay in memory as `[name, start, end, parent, job, info]`
until `write_spans`; `layer_metrics` turns them into the per-layer numbers.
A wrapper only calls through, so traced and untraced runs compute the same
bits.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# The layer-boundary functions that get a span.  Helpers called once per
# step or iteration (choose_M, stability_dt, ...) are left out on purpose:
# their cost is part of the caller's self time, which is what the per-step
# and per-iteration metrics are meant to show.
WRAPPED = {
    "semiwave": ("solve_semiwave", "estimate_cstar", "apply_A", "linear_determinacy_speed"),
    "speed": ("solve_c0", "flux_M", "c0_curve"),
    "fbsim": ("simulate", "step", "classify_outcome", "measure_speed",
              "truncated_speed_sequence", "principal_eigenvalue"),
    "cauchy": ("cauchy_simulate", "cauchy_step", "compare_mu_limit"),
    "config": ("parse_config",),
    "experiments": ("run_experiment", "write_csv", "write_summary", "write_trajectory"),
}
# artifact writers are reported under the cli layer: they are what a command
# spends after the numerics are done
SPAN_NAME = {
    "experiments.write_csv": "cli.write_csv",
    "experiments.write_summary": "cli.write_summary",
    "experiments.write_trajectory": "cli.write_trajectory",
}
KERNEL_FACTORIES = ("make_laplace", "make_gaussian", "make_uniform", "make_power",
                    "make_custom", "truncate")
REACTION_FACTORIES = ("make_logistic", "make_polynomial")


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                if info is not None:
                    rec[5] = info(args, kwargs, None, exc)
                raise
            rec[2] = clock()
            stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out, None)
            return out

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch frontlab in place; `uninstall` restores every binding."""
        from frontlab import kernels, reactions

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "frontlab" or n.startswith("frontlab."))]

        def rebind(orig, new) -> None:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, new)

        for layer, names in WRAPPED.items():
            mod = sys.modules[f"frontlab.{layer}"]
            for name in names:
                orig = getattr(mod, name)
                span = SPAN_NAME.get(f"{layer}.{name}", f"{layer}.{name}")
                rebind(orig, self.wrap(span, orig, _INFO.get(span)))

        for name in KERNEL_FACTORIES:
            orig = getattr(kernels, name)
            rebind(orig, self._returning(orig, self._instrument_kernel))
        self._set(kernels.TruncatedKernel, "normalized",
                  self._returning(kernels.TruncatedKernel.normalized, self._instrument_kernel))
        for name in REACTION_FACTORIES:
            orig = getattr(reactions, name)
            rebind(orig, self._returning(orig, self._instrument_reaction))
        self._set(reactions.AdjustedReaction, "to_unit_reaction",
                  self._returning(reactions.AdjustedReaction.to_unit_reaction,
                                  self._instrument_reaction))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _returning(self, factory, instrument):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            obj = factory(*args, **kwargs)
            instrument(obj)
            return obj

        return make

    def _instrument_kernel(self, k) -> None:
        k.density = self.wrap("kernels.density", k.density, _points)
        if k.tail_mass is not None:
            k.tail_mass = self.wrap("kernels.tail_mass", k.tail_mass, _points)

    def _instrument_reaction(self, r) -> None:
        r.f = self.wrap("reactions.f", r.f, _points)


def _points(args, kwargs, out, exc):
    return int(np.size(args[0]))


def _solve_info(args, kwargs, out, exc):
    from frontlab.errors import NonconvergenceError
    from frontlab.semiwave import SemiWaveParams

    initial = args[5] if len(args) > 5 else kwargs.get("initial")
    warm = initial is not None
    if exc is None:
        return ("accepted" if out.accepted else "nonexistence", out.iterations_used, warm)
    if isinstance(exc, NonconvergenceError):
        params = args[4] if len(args) > 4 else kwargs.get("params")
        return ("budget", (params or SemiWaveParams()).max_iters, warm)
    return ("error", 0, warm)


def _step_info(args, kwargs, out, exc):
    s = args[0]
    return (int(s.u.size), 0 if out is None else out.clamp_count - s.clamp_count)


def _cauchy_step_info(args, kwargs, out, exc):
    return int(args[0].u.size)


def _bytes_written(args, kwargs, out, exc):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path) if exc is None else 0


_INFO = {
    "semiwave.solve_semiwave": _solve_info,
    "fbsim.step": _step_info,
    "cauchy.cauchy_step": _cauchy_step_info,
    "cli.write_csv": _bytes_written,
    "cli.write_summary": _bytes_written,
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass.

    Self time is a span's duration minus the durations of its child spans.
    A call nested in a span of the same name (a truncated kernel's density
    calling the base kernel's) counts once, as the outer call.
    """
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    self_s: dict[str, float] = {}
    top: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        name = rec[0]
        self_s[name] = self_s.get(name, 0.0) + (rec[2] - rec[1] - child[i])
        if rec[3] < 0 or spans[rec[3]][0] != name:
            top.setdefault(name, []).append(i)

    def calls(name):
        return len(top.get(name, ()))

    def infos(name):
        return [spans[i][5] for i in top.get(name, ())]

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    m: dict[str, float] = {}
    for what in ("density", "tail_mass"):
        m[f"kernels.{what}_calls"] = calls(f"kernels.{what}")
        m[f"kernels.{what}_points"] = sum(infos(f"kernels.{what}"))
        m[f"kernels.{what}_s"] = self_s.get(f"kernels.{what}", 0.0)
    m["reactions.f_calls"] = calls("reactions.f")
    m["reactions.f_points"] = sum(infos("reactions.f"))
    m["reactions.f_s"] = self_s.get("reactions.f", 0.0)

    solves = infos("semiwave.solve_semiwave")
    iterations = sum(s[1] for s in solves)
    m["semiwave.solves"] = len(solves)
    m["semiwave.solves_warm"] = sum(1 for s in solves if s[2])
    m["semiwave.accepted"] = sum(1 for s in solves if s[0] == "accepted")
    m["semiwave.nonexistence"] = sum(1 for s in solves if s[0] == "nonexistence")
    m["semiwave.budget_exhausted"] = sum(1 for s in solves if s[0] == "budget")
    m["semiwave.iterations"] = iterations
    m["semiwave.iterations_per_solve"] = ratio(iterations, len(solves))
    m["semiwave.self_s"] = layer_self("semiwave.")
    m["semiwave.s_per_iteration"] = ratio(self_s.get("semiwave.solve_semiwave", 0.0), iterations)

    c0_solves = calls("speed.solve_c0")
    m["speed.c0_solves"] = c0_solves
    m["speed.flux_evals"] = calls("speed.flux_M")
    m["speed.solves_per_c0"] = ratio(
        sum(1 for i in top.get("semiwave.solve_semiwave", ()) if under(i, "speed.solve_c0")),
        c0_solves,
    )
    m["speed.self_s"] = layer_self("speed.")

    steps = infos("fbsim.step")
    node_steps = sum(s[0] for s in steps)
    step_self = self_s.get("fbsim.step", 0.0)
    m["fbsim.runs"] = calls("fbsim.simulate")
    m["fbsim.steps"] = len(steps)
    m["fbsim.node_steps"] = node_steps
    m["fbsim.max_window"] = max((s[0] for s in steps), default=0)
    m["fbsim.step_self_s"] = step_self
    m["fbsim.s_per_node_step"] = ratio(step_self, node_steps)
    m["fbsim.simulate_self_s"] = self_s.get("fbsim.simulate", 0.0)
    m["fbsim.clamps"] = sum(s[1] for s in steps)

    csteps = infos("cauchy.cauchy_step")
    cstep_self = self_s.get("cauchy.cauchy_step", 0.0)
    m["cauchy.steps"] = len(csteps)
    m["cauchy.nodes"] = max(csteps, default=0)
    m["cauchy.step_self_s"] = cstep_self
    m["cauchy.s_per_step"] = ratio(cstep_self, len(csteps))
    m["cauchy.simulate_self_s"] = self_s.get("cauchy.cauchy_simulate", 0.0)
    m["cauchy.compare_self_s"] = self_s.get("cauchy.compare_mu_limit", 0.0)

    m["config.parse_s"] = self_s.get("config.parse_config", 0.0)
    m["cli.write_s"] = layer_self("cli.write_")
    m["cli.artifact_bytes"] = sum(infos("cli.write_csv")) + sum(infos("cli.write_summary"))
    return m


def write_spans(path: str, spans: list[list]) -> None:
    """One CSV line per span, times in seconds from the first span."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,job,info\n")
        for i, (name, start, end, parent, job, info) in enumerate(spans):
            info_text = "" if info is None else str(info).replace(",", ";")
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{job},{info_text}\n")
