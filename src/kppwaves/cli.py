"""Command-line front end: analyze, shoot, pde, sweep.

Every command reads one JSON configuration, echoes the effective (defaults
resolved) configuration into the output directory, and writes deterministic
artifacts: identical configs give byte-identical files.  Exit codes: 0
success, 2 configuration or model validation failure, 3 computation failure
with whatever partial outputs were produced left in place.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import connect, pde
from .config import RunConfig, c_label, config_to_dict, load_config
from .errors import (
    ConfigError,
    InconclusiveError,
    KppWavesError,
    MissingArtifactError,
    UnsupportedModelError,
)
from .io import (
    fmt,
    read_json,
    read_profile_csv,
    write_csv,
    write_json,
    write_profile_csv,
)
from .model import (
    CanonicalModel,
    GeneralModel,
    SpeedClass,
    classify_speed,
    critical_speed,
    model_to_json,
    nondimensionalize,
)
from .phaseplane import PhaseSystemI, build_system, fixed_points

log = logging.getLogger(__name__)

__all__ = ["main", "cmd_analyze", "cmd_shoot", "cmd_pde", "cmd_sweep"]


def _setup_logging() -> None:
    name = os.environ.get("KPPWAVES_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _canonical(cfg: RunConfig):
    """(canonical model, scaling map or None) for the configured model."""
    if isinstance(cfg.model, GeneralModel):
        cm, smap = nondimensionalize(cfg.model)
        return cm, smap
    return cfg.model, None


def _profile_path(out: Path, c: float) -> Path:
    return out / f"profile_c{c_label(c)}.csv"


def _trajectory_path(out: Path, c: float) -> Path:
    return out / f"trajectory_c{c_label(c)}.csv"


def _echo_config(cfg: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "effective_config.json", config_to_dict(cfg))


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# --- analyze -------------------------------------------------------------------

def cmd_analyze(cfg: RunConfig, out: Path | None = None) -> dict:
    """Canonical parameters, regime, c*, and per-speed fixed-point report."""
    out = Path(out or cfg.output_dir)
    _echo_config(cfg, out)
    cm, smap = _canonical(cfg)
    report = {
        "model": model_to_json(cfg.model),
        "canonical": {"m": cm.m, "p": cm.p, "q": cm.q},
        "scaling": None if smap is None else {"a": smap.a, "b": smap.b, "l": smap.l},
        "regime": cm.regime.value,
        "critical_speed": critical_speed(cm),
        "speeds": [],
    }
    for c in cfg.speeds:
        sys_ = build_system(cm, abs(c))
        if isinstance(sys_, PhaseSystemI):
            system = {"case": "I", "gamma": sys_.gamma, "k": sys_.k, "c": sys_.c}
        else:
            system = {"case": "II", "gamma": sys_.gamma, "k": sys_.k,
                      "k1": sys_.k1, "k2": sys_.k2, "c1": sys_.c1}
        entry = {
            "c": c,
            "predicted_class": classify_speed(cm, c).value,
            "mirrored_to": abs(c),
            "system": system,
            "fixed_points": [
                {
                    "name": fp.name,
                    "location": [fp.location[0], fp.location[1]],
                    "jacobian": [list(row) for row in fp.jacobian],
                    "eigenvalues": [_complex_pair(z) for z in fp.eigenvalues],
                    "kind": fp.kind.value,
                    "degenerate": fp.degenerate,
                }
                for fp in fixed_points(sys_)
            ],
        }
        report["speeds"].append(entry)
    write_json(out / "report.json", report)
    return report


# --- shoot ---------------------------------------------------------------------

def cmd_shoot(cfg: RunConfig, out: Path | None = None) -> list[dict]:
    """Classify each configured speed and write trajectory/profile artifacts."""
    out = Path(out or cfg.output_dir)
    _echo_config(cfg, out)
    cm, _ = _canonical(cfg)
    if not cfg.speeds:
        log.warning("no speeds configured; nothing to shoot")
        print("warning: no speeds configured; nothing to shoot", file=sys.stderr)
        return []
    atol, rtol = cfg.ode_tolerances
    rows: list[dict] = []
    for c in cfg.speeds:
        row: dict = {"c": c}
        try:
            res = connect.classify_connection(cm, c, eps=cfg.seed_eps,
                                              rtol=rtol, atol=atol)
            row.update({
                "predicted_class": res.predicted.value,
                "observed_class": res.observed.value,
                "low_confidence": res.low_confidence,
                "n_oscillations": res.n_oscillations,
                "x0": res.x0,
            })
            if res.trajectory is not None:
                traj = res.trajectory
                tpath = _trajectory_path(out, c)
                write_csv(tpath, ["tau", "X", "Y"],
                          ([fmt(t), fmt(x), fmt(y)]
                           for t, x, y in zip(traj.tau, traj.X, traj.Y)))
                row["trajectory_file"] = tpath.name
                row["events"] = [
                    {"kind": ev.kind.value, "tau": ev.tau,
                     "X": ev.state[0], "Y": ev.state[1], "target": ev.target}
                    for ev in traj.events
                ]
                sys_ = build_system(cm, abs(c))
                prof = connect.reconstruct_profile(traj, sys_, cm)
                ppath = _profile_path(out, c)
                write_profile_csv(ppath, prof.xi, prof.f)
                row["profile_file"] = ppath.name
                row["profile_classification"] = prof.classification.value
                row["overshoot_extrema"] = [[a, b] for a, b in prof.overshoot_extrema]
        except KppWavesError as e:
            row["error"] = str(e)
            row["error_kind"] = type(e).__name__
            log.error("speed %g failed: %s", c, e)
        rows.append(row)
    write_json(out / "classification.json", rows)
    return rows


# --- pde -----------------------------------------------------------------------

def _infer_classification(f: np.ndarray) -> SpeedClass:
    if float(np.ptp(f)) < 1e-12:
        return SpeedClass.NO_WAVE
    if float(np.max(f)) > 1.0 + 1e-6:
        return SpeedClass.OSCILLATORY
    return SpeedClass.MONOTONE


def _no_wave_labels(out: Path) -> set[str]:
    """Speeds the shoot stage classified as carrying no wave (no profile)."""
    path = out / "classification.json"
    if not path.exists():
        return set()
    labels = set()
    for row in read_json(path):
        if row.get("observed_class") == SpeedClass.NO_WAVE.value:
            labels.add(c_label(row["c"]))
    return labels


def cmd_pde(cfg: RunConfig, out: Path | None = None) -> list[dict]:
    """Advect each speed's stored profile and write PDE artifacts.

    Speeds the shoot stage recorded as waveless are skipped; a profile that
    should exist but does not is a missing artifact.
    """
    out = Path(out or cfg.output_dir)
    _echo_config(cfg, out)
    cm, _ = _canonical(cfg)
    pc = cfg.pde
    domain = (pc.x_min, pc.x_max) if (pc.x_min is not None and pc.x_max is not None) else None
    waveless = _no_wave_labels(out)
    rows: list[dict] = []
    for c in cfg.speeds:
        row: dict = {"c": c}
        try:
            ppath = _profile_path(out, c)
            if not ppath.exists():
                if c_label(c) in waveless:
                    row["skipped"] = "no wave at this speed; nothing to advect"
                    rows.append(row)
                    continue
                raise MissingArtifactError(
                    f"expected profile file {ppath} (produce it with the shoot "
                    "command first)")
            xi, f = read_profile_csv(ppath)
            profile = connect.WaveProfile(
                xi=xi, f=f, c=float(c), classification=_infer_classification(f))
            res = pde.advect_profile_test(
                profile, cm, pc.T, n_cells=pc.n_cells, cfl=pc.cfl,
                domain=domain, snapshot_times=pc.snapshot_times)
            label = c_label(c)
            front_path = out / f"front_c{label}.csv"
            # repr of a Python float is fmt's text, "nan" included
            write_csv(front_path, ["t", "x_front"],
                      ([repr(t), repr(xf)] for t, xf in res.run.front_track))
            snap_files = []
            x = res.run.x.tolist()
            for t, u in res.snapshots:
                spath = out / f"snapshot_c{label}_t{c_label(t)}.csv"
                write_csv(spath, ["x", "u"],
                          ([repr(a), repr(b)] for a, b in zip(x, u.tolist())))
                snap_files.append(spath.name)
            row.update({
                "max_error": res.max_error,
                "measured_speed": res.measured_speed,
                "domain": [res.domain[0], res.domain[1]],
                "n_cells": pc.n_cells,
                "cfl": pc.cfl,
                "T": pc.T,
                "checkpoints": [[t, e] for t, e in res.checkpoints],
                "front_file": front_path.name,
                "snapshot_files": snap_files,
                "steps": res.steps,
                "dt_min": res.dt_min,
                "dt_max": res.dt_max,
                "min_before_clamp": res.min_before_clamp,
            })
        except KppWavesError as e:
            row["error"] = str(e)
            row["error_kind"] = type(e).__name__
            if getattr(e, "suggestion", None) is not None:
                row["suggested_domain"] = [e.suggestion[0], e.suggestion[1]]
            log.error("pde for speed %g failed: %s", c, e)
        rows.append(row)
    write_json(out / "pde_summary.json", rows)
    return rows


# --- sweep ---------------------------------------------------------------------

def _sweep_grid(cfg: RunConfig) -> list[float]:
    if cfg.sweep is not None:
        s = cfg.sweep
        n = int(round((s.c_max - s.c_min) / s.step + 1e-9)) + 1
        grid = [round(s.c_min + i * s.step, 12) for i in range(n)]
        return [c for c in grid if c <= s.c_max + 1e-9]
    return sorted(cfg.speeds)


def _sweep_row(task) -> dict:
    cm, c, eps, atol, rtol = task
    try:
        res = connect.classify_connection(cm, c, eps=eps, rtol=rtol, atol=atol)
        if res.low_confidence:
            flag = "low_confidence"
        elif res.predicted == res.observed:
            flag = "agree"
        else:
            flag = "disagree"
        return {"c": c, "predicted_class": res.predicted.value,
                "observed_class": res.observed.value, "x0": res.x0,
                "n_oscillations": res.n_oscillations, "agreement_flag": flag}
    except KppWavesError as e:
        return {"c": c, "error": str(e), "error_kind": type(e).__name__}


def _check_transition_bracket(rows: list[dict], cm: CanonicalModel,
                              step: float) -> None:
    """The monotone/oscillatory boundary must bracket -c* within one grid step."""
    mono = [r["c"] for r in rows
            if r.get("observed_class") == SpeedClass.MONOTONE.value and r["c"] < 0]
    osc = [r["c"] for r in rows
           if r.get("observed_class") == SpeedClass.OSCILLATORY.value and r["c"] < 0]
    if not mono or not osc:
        return
    boundary = -critical_speed(cm)
    m_hi = max(mono)   # monotone speed closest to zero
    o_lo = min(osc)    # most negative oscillatory speed
    slack = step + 1e-9
    if m_hi > boundary + slack or o_lo < boundary - slack:
        raise InconclusiveError(
            f"observed monotone/oscillatory transition sits between c = {m_hi} "
            f"and c = {o_lo}, which does not bracket -c* = {boundary} within "
            f"one grid step ({step})")


def cmd_sweep(cfg: RunConfig, out: Path | None = None, *, jobs: int = 1,
              fmt_kind: str = "csv") -> list[dict]:
    """Classify a grid of speeds and write the comparison table."""
    out = Path(out or cfg.output_dir)
    _echo_config(cfg, out)
    cm, _ = _canonical(cfg)
    grid = _sweep_grid(cfg)
    if not grid:
        raise ConfigError("sweep: no speeds to sweep (set `sweep` or `speeds`)")
    atol, rtol = cfg.ode_tolerances
    tasks = [(cm, c, cfg.seed_eps, atol, rtol) for c in grid]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    rows.sort(key=lambda r: r["c"])

    header = ["c", "predicted_class", "observed_class", "X0",
              "n_oscillations", "agreement_flag"]
    table = []
    for r in rows:
        if "error" in r:
            table.append([fmt(r["c"]), "", "Error", "", "", "error"])
        else:
            table.append([fmt(r["c"]), r["predicted_class"], r["observed_class"],
                          fmt(r["x0"]), str(r["n_oscillations"]),
                          r["agreement_flag"]])
    if fmt_kind == "json":
        write_json(out / "sweep.json", rows)
    else:
        write_csv(out / "sweep.csv", header, table)

    step = cfg.sweep.step if cfg.sweep is not None else max(
        (b - a for a, b in zip(grid, grid[1:])), default=0.0)
    _check_transition_bracket(rows, cm, step)
    return rows


# --- entry point -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kppwaves",
        description="Travelling-wave analysis of u_t = (u^{m-1} u_x)_x + u^p - u^q")
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": "canonical parameters, regime, c*, fixed points per speed",
        "shoot": "classify speeds and export trajectories and profiles",
        "pde": "advect stored profiles and measure front speeds",
        "sweep": "grid speeds into a predicted/observed comparison table",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON configuration path")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--jobs", type=int, default=1,
                        help="concurrent workers for sweep rows")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format (sweep)")
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
    except (ConfigError, UnsupportedModelError, KppWavesError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    try:
        if args.command == "analyze":
            cmd_analyze(cfg, out)
            return 0
        if args.command == "shoot":
            rows = cmd_shoot(cfg, out)
            return 3 if any("error" in r for r in rows) else 0
        if args.command == "pde":
            rows = cmd_pde(cfg, out)
            return 3 if any("error" in r for r in rows) else 0
        rows = cmd_sweep(cfg, out, jobs=args.jobs, fmt_kind=args.format)
        return 3 if any("error" in r for r in rows) else 0
    except (ConfigError, UnsupportedModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KppWavesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
