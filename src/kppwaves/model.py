"""Model parameters, nondimensionalization, and the critical-speed formula.

The general equation

    u_t = kappa * (u^(m-1) u_x)_x + alpha * u^p - beta * u^q

is reduced to the canonical form

    u_t = (u^(m-1) u_x)_x + u^p - u^q

by the change of variables x -> a*x, t -> b*t, u -> l*u with

    l = (beta/alpha)^(1/(p-q)),  a = (kappa * l^(m-p) / alpha)^(1/2),
    b = l^(1-p) / alpha.

Travelling waves f(x - c t) with f(-inf) = 1, f(+inf) = 0 exist iff c < 0;
they are monotone iff |c| >= 2*sqrt(p-q) and oscillatory otherwise.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from enum import Enum

from .errors import (
    DegenerateScaleError,
    InvalidParameterError,
    UnsupportedModelError,
)

__all__ = [
    "Regime",
    "SpeedClass",
    "GeneralModel",
    "ScalingMap",
    "CanonicalModel",
    "nondimensionalize",
    "critical_speed",
    "classify_speed",
    "model_from_json",
    "model_to_json",
]


class Regime(str, Enum):
    """Which phase-plane substitution applies to a canonical model."""

    CASE_I = "CaseI"        # m + q > 2
    CASE_II = "CaseII"      # 0 < m + q <= 2


class SpeedClass(str, Enum):
    """Predicted travelling-wave class for a given original speed c."""

    NO_WAVE = "None"
    MONOTONE = "Monotone"
    OSCILLATORY = "Oscillatory"


def json_number(value) -> float | None:
    """The one rule for a number read from JSON, config files included: an
    int or a float, numpy's too (numbers.Real), but never a bool or a
    string, as a float; None for anything else.  An int too large for a
    float reads as inf, so a finiteness check refuses it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _require_finite(name: str, value: float) -> float:
    v = json_number(value)
    if v is None or not math.isfinite(v):
        raise InvalidParameterError(
            f"{name} must be {'a number' if v is None else 'finite'}, got {value!r}")
    return v


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise InvalidParameterError(f"{name} must be positive, got {value!r}")
    return value


@dataclass(frozen=True)
class GeneralModel:
    """Coefficients of the general equation. kappa, alpha, beta, m > 0."""

    kappa: float
    alpha: float
    beta: float
    m: float
    p: float
    q: float

    def __post_init__(self):
        for name in ("kappa", "alpha", "beta", "m"):
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))
        object.__setattr__(self, "p", _require_finite("p", self.p))
        object.__setattr__(self, "q", _require_finite("q", self.q))
        if self.p == self.q:
            raise DegenerateScaleError(
                "p = q leaves the amplitude scale l = (beta/alpha)^(1/(p-q)) undefined"
            )


@dataclass(frozen=True)
class ScalingMap:
    """Scales relating general and canonical variables.

    If u(x, t) solves the general equation then
    (1/l) * u(a*x, b*t) solves the canonical one.
    """

    a: float  # space
    b: float  # time
    l: float  # amplitude


@dataclass(frozen=True)
class CanonicalModel:
    """Exponents (m, p, q) of the canonical equation.

    Supported iff p > q and m + q > 0; outside that range the rest states
    swap roles and none of the analysis here applies.  Construction rejects
    unsupported triples; the error names the failed condition.
    """

    m: float
    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "m", _require_positive("m", self.m))
        object.__setattr__(self, "p", _require_finite("p", self.p))
        object.__setattr__(self, "q", _require_finite("q", self.q))
        if self.p == self.q:
            raise DegenerateScaleError("p = q is outside the supported scope")
        if self.p < self.q:
            raise UnsupportedModelError("p > q")
        if self.m + self.q <= 0.0:
            raise UnsupportedModelError("m + q > 0")

    @property
    def mq(self) -> float:
        return self.m + self.q

    @property
    def regime(self) -> Regime:
        if self.mq > 2.0:
            return Regime.CASE_I
        # mq > 0 is guaranteed by construction; the boundary mq = 2 is Case II
        return Regime.CASE_II


def nondimensionalize(g: GeneralModel) -> tuple[CanonicalModel, ScalingMap]:
    """Reduce a general model to canonical form.

    Parameters
    ----------
    g : GeneralModel

    Returns
    -------
    (CanonicalModel, ScalingMap)
        The canonical exponents (m, p, q unchanged) and the scales
        (a, b, l) defined in the module docstring.

    Raises
    ------
    DegenerateScaleError
        If p = q (guarded at construction already).
    UnsupportedModelError
        If the exponents fall outside the supported regime.
    """
    l = (g.beta / g.alpha) ** (1.0 / (g.p - g.q))
    a = math.sqrt(g.kappa * l ** (g.m - g.p) / g.alpha)
    b = l ** (1.0 - g.p) / g.alpha
    return CanonicalModel(g.m, g.p, g.q), ScalingMap(a=a, b=b, l=l)


def critical_speed(cm: CanonicalModel) -> float:
    """Return |c*| = 2*sqrt(p - q), the monotone/oscillatory boundary."""
    return 2.0 * math.sqrt(cm.p - cm.q)


def classify_speed(cm: CanonicalModel, c: float) -> SpeedClass:
    """Predicted wave class for original speed c.

    No wave for c >= 0; monotone for |c| >= 2*sqrt(p-q) (boundary included);
    oscillatory for 0 < |c| < 2*sqrt(p-q).  This is the prediction from the
    closed-form threshold; `connect.classify_connection` measures the class.
    """
    c = _require_finite("c", c)
    if c >= 0.0:
        return SpeedClass.NO_WAVE
    if abs(c) >= critical_speed(cm):
        return SpeedClass.MONOTONE
    return SpeedClass.OSCILLATORY


# --- JSON plumbing -----------------------------------------------------------

def model_from_json(doc: str | dict) -> GeneralModel | CanonicalModel:
    """Build a model from a JSON document or parsed dict.

    The keys are GeneralModel's fields.  Any of its coefficients beyond
    CanonicalModel's fields gives a GeneralModel, whose other coefficients
    default to 1; without them the model is a CanonicalModel.  A document
    that is not a JSON object is an InvalidParameterError.
    """
    data = doc
    if isinstance(doc, str):
        try:
            data = json.loads(doc)
        except json.JSONDecodeError as e:
            raise InvalidParameterError(f"model document is not JSON: {e}") from e
    if not isinstance(data, dict):
        raise InvalidParameterError(
            f"a model must be a JSON object, got {type(data).__name__}: {data!r}")
    general = {f.name for f in fields(GeneralModel)}
    canonical = {f.name for f in fields(CanonicalModel)}
    unknown = set(data) - general
    if unknown:
        raise InvalidParameterError(f"unknown model keys: {sorted(unknown)}")
    missing = canonical - set(data)
    if missing:
        raise InvalidParameterError(f"model is missing keys: {sorted(missing)}")
    if set(data) - canonical:
        return GeneralModel(**{**dict.fromkeys(general - canonical, 1.0), **data})
    return CanonicalModel(**data)


def model_to_json(model: GeneralModel | CanonicalModel) -> dict:
    """Flat dict form of a model; round-trips through model_from_json."""
    if not isinstance(model, (GeneralModel, CanonicalModel)):
        raise InvalidParameterError(f"unsupported model object {type(model).__name__}")
    return asdict(model)
