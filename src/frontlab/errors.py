"""Exception types shared across the package."""

from __future__ import annotations


class FrontlabError(Exception):
    """Base class for all package-specific errors."""


class NonNormalizableError(FrontlabError, ValueError):
    """Kernel density cannot be normalized to unit mass."""


class DivergentIntegralError(FrontlabError, ValueError):
    """Requested integral diverges for this kernel tail."""


class UndecidableTailError(FrontlabError, RuntimeError):
    """Numeric tail probe could not settle on a class."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class UnsupportedTailError(FrontlabError, ValueError):
    """Operation requires a thinner kernel tail than supplied."""


class DegenerateAdjustmentError(FrontlabError, ValueError):
    """Truncation mass loss too large for the reaction adjustment."""


class NonconvergenceError(FrontlabError, RuntimeError):
    """Iteration budget exhausted without meeting its tolerance."""


class NoCrossingError(FrontlabError, ValueError):
    """Profile never attains the requested level."""


class NoFiniteSpeedError(FrontlabError, ValueError):
    """Kernel tail admits no finite spreading speed."""


class InsufficientDataError(FrontlabError, ValueError):
    """Trajectory too short for the requested measurement."""


class RejectedStepError(FrontlabError, ValueError):
    """Time step exceeds the stability bound."""


class DomainTooSmallError(FrontlabError, ValueError):
    """Truncated whole line too short for the initial data or the fronts."""


class InitialDataError(FrontlabError, ValueError):
    """Initial density fails the free-boundary preconditions on [-h0, h0]."""


class ConfigError(FrontlabError, ValueError):
    """Configuration text failed validation; carries every violation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
