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
from dataclasses import MISSING, asdict, dataclass, fields

from .errors import ConfigError
from .model import CanonicalModel, GeneralModel, json_number, model_from_json

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

    @property
    def n_points(self) -> float:
        """Points of the grid from c_min in steps of step through c_max;
        a float, so that a grid too fine to count reads inf."""
        return round((self.c_max - self.c_min) / self.step + 1e-9, 0) + 1


@dataclass(frozen=True)
class RunConfig:
    model: GeneralModel | CanonicalModel
    speeds: tuple[float, ...] = ()
    ode_tolerances: tuple[float, float] = (1e-10, 1e-10)  # (abs, rel)
    pde: PdeConfig = PdeConfig()
    sweep: SweepConfig | None = None
    output_dir: str = "out"


def _refuse_shared_labels(values: tuple[float, ...], path: str) -> None:
    """ConfigError when two values would write files of the same name."""
    first: dict[str, int] = {}
    for i, v in enumerate(values):
        j = first.setdefault(c_label(v), i)
        if j != i:
            raise ConfigError(f"{path}[{i}]: {v!r} shares the file label "
                              f"{c_label(v)!r} with {path}[{j}] = {values[j]!r}")


def _need_finite(value, path: str) -> float:
    v = json_number(value)
    if v is None or not math.isfinite(v):
        raise ConfigError(f"{path}: {'expected a number' if v is None else 'must be finite'}"
                          f", got {value!r}")
    return v


def _numbers(values, path: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{path}: expected a list")
    return tuple(_need_finite(v, f"{path}[{i}]") for i, v in enumerate(values))


def _read_object(cls, data, path: str) -> dict:
    """The JSON object ``data`` as the fields of the dataclass ``cls``, with
    defaults where it leaves them out: an unknown key, or a field without a
    default left out, is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'configuration root'}: expected an object")
    at = f"{path}." if path else ""
    names = {f.name: f.default for f in fields(cls)}
    for key in data:
        if key not in names:
            raise ConfigError(f"{at}{key}: unknown key")
    for key, default in names.items():
        if key not in data and default is MISSING:
            raise ConfigError(f"{at}{key}: required")
    return {**names, **data}


def _parse_pde(data, path: str = "pde") -> PdeConfig:
    v = _read_object(PdeConfig, data, path)
    x_min, x_max = (None if v[k] is None else _need_finite(v[k], f"{path}.{k}")
                    for k in ("x_min", "x_max"))
    if (x_min is None) != (x_max is None):
        missing = "x_max" if x_max is None else "x_min"
        raise ConfigError(f"{path}.{missing}: required when the domain's other end is set")
    if x_min is not None and not (x_max > x_min):
        raise ConfigError(f"{path}.x_max: must exceed x_min ({x_min} >= {x_max})")
    n_cells = v["n_cells"]
    # an int too large for a float is refused as not finite
    if not isinstance(n_cells, int) or _need_finite(n_cells, f"{path}.n_cells") < 4:
        raise ConfigError(f"{path}.n_cells: expected an integer >= 4, got {n_cells!r}")
    cfl = _need_finite(v["cfl"], f"{path}.cfl")
    if not (0.0 < cfl <= 0.9):
        raise ConfigError(f"{path}.cfl: must lie in (0, 0.9], got {cfl}")
    T = _need_finite(v["T"], f"{path}.T")
    if T < 0.0:
        raise ConfigError(f"{path}.T: must be non-negative, got {T}")
    snaps = _numbers(v["snapshot_times"], f"{path}.snapshot_times")
    for i, t in enumerate(snaps):
        if t < 0.0 or t > T:
            raise ConfigError(f"{path}.snapshot_times[{i}]: {t} outside [0, {T}]")
    _refuse_shared_labels(snaps, f"{path}.snapshot_times")
    return PdeConfig(x_min=x_min, x_max=x_max, n_cells=n_cells, cfl=cfl, T=T,
                     snapshot_times=tuple(sorted(snaps)))


def _parse_sweep(data, path: str = "sweep") -> SweepConfig:
    v = _read_object(SweepConfig, data, path)
    s = SweepConfig(**{k: _need_finite(v[k], f"{path}.{k}") for k in v})
    if s.c_max < s.c_min:
        raise ConfigError(f"{path}.c_max: must be at least c_min")
    if s.step <= 0.0:
        raise ConfigError(f"{path}.step: must be positive, got {s.step}")
    if s.n_points > 100000:
        raise ConfigError(f"{path}.step: grid would exceed 100000 points")
    return s


def parse_config(data) -> RunConfig:
    v = _read_object(RunConfig, data, "")
    if not isinstance(v["model"], dict):
        raise ConfigError(f"model: expected an object, got {v['model']!r}")
    model = model_from_json(v["model"])

    speeds = _numbers(v["speeds"], "speeds")
    _refuse_shared_labels(speeds, "speeds")

    tol = _numbers(v["ode_tolerances"], "ode_tolerances")
    if len(tol) != 2:
        raise ConfigError("ode_tolerances: expected [abs, rel]")
    if tol[0] <= 0.0 or tol[1] <= 0.0:
        raise ConfigError(f"ode_tolerances: must be positive, got {list(tol)}")

    pde = _parse_pde(data.get("pde", {}))
    sweep = None if v["sweep"] is None else _parse_sweep(v["sweep"])

    output_dir = v["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir: expected a non-empty string, got {output_dir!r}")

    return RunConfig(model=model, speeds=speeds, ode_tolerances=tol,
                     pde=pde, sweep=sweep, output_dir=output_dir)


def load_config(path) -> RunConfig:
    """The parsed config file at ``path``: a missing, unreadable or
    non-UTF-8 file is a ConfigError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: invalid JSON ({e})") from e
    except (OSError, ValueError) as e:   # not UTF-8, or an int past Python's digit limit
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
