"""Exception hierarchy shared across the package.

Every failure mode that callers may want to catch individually gets its own
class; all inherit from :class:`KppWavesError` so blanket handling stays easy.
"""

from __future__ import annotations

__all__ = [
    "KppWavesError",
    "InvalidParameterError",
    "DegenerateScaleError",
    "UnsupportedModelError",
    "DomainError",
    "SeedFailureError",
    "StepFailureError",
    "NoIntersectionError",
    "InconclusiveError",
    "NotAConnectionError",
    "InsufficientTailError",
    "StabilityViolationError",
    "NegativityError",
    "DomainTooSmallError",
    "NoFrontError",
    "MissingArtifactError",
    "ConfigError",
]


class KppWavesError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(KppWavesError, ValueError):
    """A numeric parameter is outside its admissible range.

    The message names the offending field.
    """


class DegenerateScaleError(KppWavesError, ValueError):
    """p = q: the amplitude scale l = (beta/alpha)^(1/(p-q)) is undefined."""


class UnsupportedModelError(KppWavesError, ValueError):
    """The (m, p, q) triple falls outside the supported regime.

    Carries which hypothesis failed ("p > q" or "m + q > 0").
    """

    def __init__(self, hypothesis: str, message: str | None = None):
        self.hypothesis = hypothesis
        super().__init__(message or f"unsupported model: hypothesis {hypothesis!r} fails")


class DomainError(KppWavesError, ValueError):
    """An evaluation point lies outside the function's domain (e.g. X < 0)."""


class SeedFailureError(KppWavesError):
    """No admissible local direction exists for the requested shot."""


class StepFailureError(KppWavesError):
    """The integrator underflowed its step size or otherwise failed."""


class NoIntersectionError(KppWavesError):
    """The trajectory never crossed the X axis and did not enter P2."""


class InconclusiveError(KppWavesError):
    """A trajectory neither arrived near a target fixed point nor escaped
    within the integration budget; no classification is possible."""


class NotAConnectionError(KppWavesError):
    """The trajectory does not join the two fixed points required for a
    wave-profile reconstruction."""


class InsufficientTailError(KppWavesError):
    """The profile tail does not reach the smallest requested threshold."""


class StabilityViolationError(KppWavesError):
    """The PDE state exceeded the blow-up guard u_max."""


class NegativityError(KppWavesError):
    """The PDE state dipped below -1e-12 before clamping; the scheme's
    positivity guarantee is broken (should never happen)."""


class DomainTooSmallError(KppWavesError):
    """The PDE front came within 10 dx of a boundary.

    ``suggestion`` holds a (x_min, x_max) pair large enough for the run.
    """

    def __init__(self, message: str, suggestion: tuple[float, float] | None = None):
        self.suggestion = suggestion
        super().__init__(message)


class NoFrontError(KppWavesError):
    """No usable level-set front exists in the requested window."""


class MissingArtifactError(KppWavesError, FileNotFoundError):
    """An expected input file from an earlier pipeline stage is absent."""


class ConfigError(KppWavesError, ValueError):
    """Run configuration failed validation; message includes the field path."""
