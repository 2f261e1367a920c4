"""Plain-text run configuration: sections of key = value lines.

The format is deliberately rigid: unknown sections or keys, duplicate keys,
type mismatches, and constraint violations are all collected and reported
together.  Reproducibility of experiment artifacts is the point; there is no
environment-variable fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .kernels import Kernel, make_gaussian, make_laplace, make_power, make_uniform
from .reactions import Reaction, make_logistic, make_polynomial, validate_kpp
from .semiwave import SemiWaveParams

__all__ = ["RunConfig", "parse_config", "DEFAULT_CONFIG_TEXT"]

_SCHEMA: dict[str, dict[str, tuple]] = {
    # section -> key -> (type, default, constraint)
    "kernel": {
        "type": (str, "laplace", lambda v: v in ("laplace", "gaussian", "uniform", "power")),
        "sd": (float, 1.0, lambda v: v > 0),
        "radius": (float, 1.0, lambda v: v > 0),
        "sigma": (float, 2.0, lambda v: v > 0.5),
    },
    "reaction": {
        "type": (str, "logistic", lambda v: v in ("logistic", "custom")),
        "coeffs": (str, "0,1,-1", lambda v: True),
    },
    "model": {
        "d": (float, 1.0, lambda v: v > 0),
        "mu": (float, 1.0, lambda v: v > 0),
        "h0": (float, 10.0, lambda v: v > 0),
    },
    "initial": {
        "family": (str, "parabola", lambda v: v in ("parabola", "bump")),
        "amplitude": (float, 1.0, lambda v: v > 0),
    },
    "time": {
        "t_max": (float, 200.0, lambda v: v > 0),
        "dt": (float, 0.0, lambda v: v >= 0),
        "sample_dt": (float, 0.5, lambda v: v > 0),
        "snap_dt": (float, 0.0, lambda v: v >= 0),
        "speed_cap": (float, 0.0, lambda v: v >= 0),
    },
    "grid": {
        "dx": (float, 0.1, lambda v: v > 0),
        "domain_halfwidth": (float, 0.0, lambda v: v >= 0),
        "window_halfwidth": (float, 20.0, lambda v: v > 0),
    },
    "semiwave": {
        "depth": (float, 0.0, lambda v: v >= 0),
        "n_cells": (int, 4000, lambda v: v >= 100),
        "tol_iter": (float, 1e-10, lambda v: v > 0),
        "max_iters": (int, 100_000, lambda v: v > 0),
    },
    "speed": {
        "tol": (float, 1e-8, lambda v: v > 0),
    },
    "experiment": {
        "expect": (str, "", lambda v: v in ("", "spreading", "vanishing", "undecided")),
        "radii": (str, "10,20,40,80", lambda v: True),
        "mus": (str, "1,10,100", lambda v: True),
    },
    "run": {
        "out": (str, "out", lambda v: True),
    },
}

DEFAULT_CONFIG_TEXT = """\
[kernel]
type = laplace

[reaction]
type = logistic

[model]
d = 1.0
mu = 1.0
h0 = 10.0
"""


@dataclass(eq=False)
class RunConfig:
    """Typed view of one parsed configuration."""

    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def override(self, section: str, key: str, value) -> None:
        """Replace one value (a CLI flag), held to the checks a config file gets."""
        typ, _default, constraint = _SCHEMA[section][key]
        if (typ is float and not math.isfinite(value)) or not constraint(value):
            raise ConfigError([f"{section}.{key} violates its constraint: {value!r}"])
        self.values[section][key] = value
        violations: list[str] = []
        _cross_validate(self, violations)
        if violations:
            raise ConfigError(violations)

    def build_kernel(self) -> Kernel:
        kind = self.get("kernel", "type")
        if kind == "laplace":
            return make_laplace()
        if kind == "gaussian":
            return make_gaussian(self.get("kernel", "sd"))
        if kind == "uniform":
            return make_uniform(self.get("kernel", "radius"))
        return make_power(self.get("kernel", "sigma"))

    def build_reaction(self) -> Reaction:
        if self.get("reaction", "type") == "logistic":
            return make_logistic()
        coeffs = _parse_float_list(self.get("reaction", "coeffs"))
        return make_polynomial(coeffs)

    def u0_callable(self) -> Callable[[np.ndarray], np.ndarray]:
        h0 = self.get("model", "h0")
        amp = self.get("initial", "amplitude")
        if self.get("initial", "family") == "parabola":
            def u0(x):
                return amp * np.maximum(0.0, 1.0 - (np.asarray(x, dtype=float) / h0) ** 2)
        else:
            def u0(x):
                s = np.clip(np.abs(np.asarray(x, dtype=float)) / h0, 0.0, 1.0)
                with np.errstate(divide="ignore", over="ignore"):
                    out = np.where(s < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - s * s)), 0.0)
                return amp * out
        return u0

    def semiwave_params(self) -> SemiWaveParams:
        depth = self.get("semiwave", "depth")
        return SemiWaveParams(
            depth=depth if depth > 0 else None,
            n_cells=self.get("semiwave", "n_cells"),
            tol_iter=self.get("semiwave", "tol_iter"),
            max_iters=self.get("semiwave", "max_iters"),
        )

    def radii(self) -> list[float]:
        return _parse_float_list(self.get("experiment", "radii"))

    def experiment_mus(self) -> list[float]:
        return _parse_float_list(self.get("experiment", "mus"))


def _parse_float_list(text: str) -> list[float]:
    items = [t.strip() for t in str(text).split(",") if t.strip()]
    return [float(t) for t in items]


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    violations: list[str] = []
    values: dict[str, dict[str, object]] = {
        sec: {key: spec[1] for key, spec in keys.items()} for sec, keys in _SCHEMA.items()
    }
    seen: set[tuple[str, str]] = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                violations.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        if section is None:
            violations.append(f"line {lineno}: key outside any known section")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA[section]:
            violations.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if (section, key) in seen:
            violations.append(f"line {lineno}: duplicate key {key!r} in section [{section}]")
            continue
        seen.add((section, key))
        typ, _default, constraint = _SCHEMA[section][key]
        try:
            parsed = typ(val)
        except ValueError:
            violations.append(
                f"line {lineno}: key {key!r} expects {typ.__name__}, got {val!r}"
            )
            continue
        if typ is float and not math.isfinite(parsed):
            violations.append(f"line {lineno}: key {key!r} must be finite, got {val!r}")
            continue
        if not constraint(parsed):
            violations.append(f"line {lineno}: key {key!r} violates its constraint: {val!r}")
            continue
        values[section][key] = parsed
    if violations:
        raise ConfigError(violations)
    cfg = RunConfig(values=values)
    _cross_validate(cfg, violations)
    if violations:
        raise ConfigError(violations)
    return cfg


def _cross_validate(cfg: RunConfig, violations: list[str]) -> None:
    if cfg.get("reaction", "type") == "custom":
        try:
            coeffs = _parse_float_list(cfg.get("reaction", "coeffs"))
        except ValueError:
            violations.append("reaction.coeffs is not a comma-separated float list")
            return
        if len(coeffs) < 2:
            violations.append("reaction.coeffs needs at least two coefficients")
        elif not all(math.isfinite(v) for v in coeffs):
            violations.append("reaction.coeffs must be finite")
        else:
            failed = validate_kpp(make_polynomial(coeffs)).failed()
            if failed:
                violations.append(f"reaction.coeffs is not KPP: fails {', '.join(failed)}")
    # truncated_speed_sequence and c0_curve take their lists in increasing order
    for key in ("radii", "mus"):
        try:
            vals = _parse_float_list(cfg.get("experiment", key))
        except ValueError:
            violations.append(f"experiment.{key} is not a comma-separated float list")
            continue
        if not vals or not all(math.isfinite(v) and v > 0 for v in vals):
            violations.append(f"experiment.{key} needs one or more finite, positive entries")
        elif any(b <= a for a, b in zip(vals, vals[1:])):
            violations.append(f"experiment.{key} must be strictly increasing")
