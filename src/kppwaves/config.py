"""Run configuration: JSON parsing, defaults, and validation.

Validation failures raise ConfigError with the offending field path in the
message.  Defaults live on the dataclasses alone: ``parse_config`` reads them
there, and ``config_to_dict`` echoes the parsed dataclasses, so the effective
configuration can be written next to the outputs and re-parsed to reproduce a
run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigError, KppWavesError
from .model import CanonicalModel, GeneralModel, model_from_json

__all__ = ["PdeConfig", "SweepConfig", "RunConfig", "parse_config",
           "load_config", "config_to_dict", "c_label"]


def c_label(c: float) -> str:
    """The label a speed (or time) carries in output file names."""
    return f"{float(c):g}"


@dataclass(frozen=True)
class PdeConfig:
    x_min: float | None = None     # None: sized from the profile
    x_max: float | None = None
    n_cells: int = 1000
    cfl: float = 0.9
    T: float = 5.0
    snapshot_times: tuple[float, ...] = ()


@dataclass(frozen=True)
class SweepConfig:
    c_min: float
    c_max: float
    step: float


@dataclass(frozen=True)
class RunConfig:
    model: GeneralModel | CanonicalModel
    speeds: tuple[float, ...] = ()
    ode_tolerances: tuple[float, float] = (1e-10, 1e-10)  # (abs, rel)
    pde: PdeConfig = PdeConfig()
    sweep: SweepConfig | None = None
    output_dir: str = "out"
    seed_eps: float = 1e-6


def _refuse_shared_labels(values: tuple[float, ...], path: str) -> None:
    """ConfigError when two values would write files of the same name."""
    first: dict[str, int] = {}
    for i, v in enumerate(values):
        j = first.setdefault(c_label(v), i)
        if j != i:
            raise ConfigError(f"{path}[{i}]: {v!r} shares the file label "
                              f"{c_label(v)!r} with {path}[{j}] = {values[j]!r}")


def _need_finite(value, path: str) -> float:
    try:
        if isinstance(value, bool):   # JSON true and false are no numbers
            raise TypeError
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return v


def _parse_pde(data, path: str = "pde") -> PdeConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {"x_min", "x_max", "n_cells", "cfl", "T", "snapshot_times"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
    d = PdeConfig()
    x_min = data.get("x_min", d.x_min)
    x_max = data.get("x_max", d.x_max)
    if x_min is not None:
        x_min = _need_finite(x_min, f"{path}.x_min")
    if x_max is not None:
        x_max = _need_finite(x_max, f"{path}.x_max")
    if (x_min is None) != (x_max is None):
        missing = "x_max" if x_max is None else "x_min"
        raise ConfigError(f"{path}.{missing}: required when the domain's other end is set")
    if x_min is not None and not (x_max > x_min):
        raise ConfigError(f"{path}.x_max: must exceed x_min ({x_min} >= {x_max})")
    n_cells = data.get("n_cells", d.n_cells)
    if not isinstance(n_cells, int) or isinstance(n_cells, bool) or n_cells < 4:
        raise ConfigError(f"{path}.n_cells: expected an integer >= 4, got {n_cells!r}")
    cfl = _need_finite(data.get("cfl", d.cfl), f"{path}.cfl")
    if not (0.0 < cfl <= 0.9):
        raise ConfigError(f"{path}.cfl: must lie in (0, 0.9], got {cfl}")
    T = _need_finite(data.get("T", d.T), f"{path}.T")
    if T < 0.0:
        raise ConfigError(f"{path}.T: must be non-negative, got {T}")
    raw_snaps = data.get("snapshot_times", list(d.snapshot_times))
    if not isinstance(raw_snaps, (list, tuple)):
        raise ConfigError(f"{path}.snapshot_times: expected a list")
    snaps = []
    for i, t in enumerate(raw_snaps):
        tv = _need_finite(t, f"{path}.snapshot_times[{i}]")
        if tv < 0.0 or tv > T:
            raise ConfigError(f"{path}.snapshot_times[{i}]: {tv} outside [0, {T}]")
        snaps.append(tv)
    _refuse_shared_labels(tuple(snaps), f"{path}.snapshot_times")
    return PdeConfig(x_min=x_min, x_max=x_max, n_cells=n_cells, cfl=cfl, T=T,
                     snapshot_times=tuple(sorted(snaps)))


def _parse_sweep(data, path: str = "sweep") -> SweepConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in data:
        if key not in {"c_min", "c_max", "step"}:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in ("c_min", "c_max", "step"):
        if key not in data:
            raise ConfigError(f"{path}.{key}: required")
    c_min = _need_finite(data["c_min"], f"{path}.c_min")
    c_max = _need_finite(data["c_max"], f"{path}.c_max")
    step = _need_finite(data["step"], f"{path}.step")
    if c_max < c_min:
        raise ConfigError(f"{path}.c_max: must be at least c_min")
    if step <= 0.0:
        raise ConfigError(f"{path}.step: must be positive, got {step}")
    if (c_max - c_min) / step > 100000:
        raise ConfigError(f"{path}.step: grid would exceed 100000 points")
    return SweepConfig(c_min=c_min, c_max=c_max, step=step)


def parse_config(data) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    known = {"model", "speeds", "ode_tolerances", "pde", "sweep",
             "output_dir", "seed_eps"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration key")
    if "model" not in data:
        raise ConfigError("model: required")
    try:
        model = model_from_json(data["model"])
    except KppWavesError:
        raise
    except Exception as e:
        raise ConfigError(f"model: {e}") from e
    d = RunConfig(model=model)

    raw_speeds = data.get("speeds", list(d.speeds))
    if not isinstance(raw_speeds, (list, tuple)):
        raise ConfigError("speeds: expected a list")
    speeds = tuple(_need_finite(c, f"speeds[{i}]") for i, c in enumerate(raw_speeds))
    _refuse_shared_labels(speeds, "speeds")

    raw_tol = data.get("ode_tolerances", list(d.ode_tolerances))
    if not isinstance(raw_tol, (list, tuple)) or len(raw_tol) != 2:
        raise ConfigError("ode_tolerances: expected [abs, rel]")
    tol = tuple(_need_finite(v, f"ode_tolerances[{i}]") for i, v in enumerate(raw_tol))
    if tol[0] <= 0.0 or tol[1] <= 0.0:
        raise ConfigError(f"ode_tolerances: must be positive, got {list(tol)}")

    pde = _parse_pde(data.get("pde", {}))
    sweep = _parse_sweep(data["sweep"]) if data.get("sweep") is not None else None

    output_dir = data.get("output_dir", d.output_dir)
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir: expected a non-empty string, got {output_dir!r}")

    seed_eps = _need_finite(data.get("seed_eps", d.seed_eps), "seed_eps")
    if not (0.0 < seed_eps <= 1e-2):
        raise ConfigError(f"seed_eps: must lie in (0, 1e-2], got {seed_eps}")

    return RunConfig(model=model, speeds=speeds, ode_tolerances=(tol[0], tol[1]),
                     pde=pde, sweep=sweep, output_dir=output_dir, seed_eps=seed_eps)


def load_config(path) -> RunConfig:
    """The parsed config file at ``path``: a missing, unreadable or
    non-UTF-8 file is a ConfigError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: invalid JSON ({e})") from e
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path}: cannot be read ({e})") from e
    return parse_config(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """Effective configuration with every default resolved; round-trips
    through parse_config.  Tuples stay tuples, which JSON writes as lists;
    an unset sweep is left out."""
    out = asdict(cfg)
    if cfg.sweep is None:
        del out["sweep"]
    return out
