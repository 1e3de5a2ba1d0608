"""Command-line front end: analyze, shoot, pde, sweep.

Every command reads one JSON configuration, echoes the effective (defaults
resolved) configuration into the output directory, and writes deterministic
artifacts: identical configs give byte-identical files.  Exit codes: 0
success, 2 configuration or model validation failure, 3 computation failure
with whatever partial outputs were produced left in place.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

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
    write_float_csv,
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
        entry = {
            "c": c,
            "predicted_class": classify_speed(cm, c).value,
            "mirrored_to": abs(c),
            "system": {"case": "I" if isinstance(sys_, PhaseSystemI) else "II",
                       **dataclasses.asdict(sys_)},
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
        print("warning: no speeds configured; nothing to shoot", file=sys.stderr)
        return []
    atol, rtol = cfg.ode_tolerances
    rows: list[dict] = []
    for c in cfg.speeds:
        row: dict = {"c": c}
        try:
            res = connect.classify_connection(cm, c, eps=cfg.seed_eps, rtol=rtol,
                                              atol=atol, profile_of=cm)
            row.update({
                "predicted_class": res.predicted.value,
                "observed_class": res.observed.value,
                "low_confidence": res.low_confidence,
                "n_oscillations": res.n_oscillations,
                "tail_extrema": res.tail_extrema,
                "x0": res.x0,
                "evidence": res.evidence,
                "solver_steps": res.solver_steps,
                "nfev": res.nfev,
                "njev": res.njev,
                "event_counts": res.event_counts,
            })
            if res.trajectory is not None:
                # the files present the orbit with tau = 0 at its P2 end
                traj = res.trajectory
                T = float(traj.tau[-1])
                tpath = _trajectory_path(out, c)
                write_float_csv(tpath, ["tau", "X", "Y"], zip(
                    (traj.tau - T).tolist(), traj.X.tolist(), traj.Y.tolist()))
                row["trajectory_file"] = tpath.name
                row["events"] = [
                    {"kind": ev.kind.value, "tau": ev.tau - T,
                     "X": ev.state[0], "Y": ev.state[1], "target": ev.target}
                    for ev in traj.events
                ]
                prof = connect.reconstruct_profile(traj)
                ppath = _profile_path(out, c)
                write_profile_csv(ppath, prof.xi, prof.f)
                row["profile_file"] = ppath.name
                row["overshoot_extrema"] = [[a, b] for a, b in prof.overshoot_extrema]
        except KppWavesError as e:
            row["error"] = str(e)
            row["error_kind"] = type(e).__name__
            log.error("speed %g failed: %s", c, e)
        rows.append(row)
    write_json(out / "classification.json", rows)
    return rows


# --- pde -----------------------------------------------------------------------

def _observed_classes(out: Path) -> dict[str, SpeedClass]:
    """The class the shoot stage observed for each speed label, read from
    classification.json (empty when there is no such file)."""
    path = out / "classification.json"
    if not path.exists():
        return {}
    return {c_label(row["c"]): SpeedClass(row["observed_class"])
            for row in read_json(path) if "observed_class" in row}


def cmd_pde(cfg: RunConfig, out: Path | None = None) -> list[dict]:
    """Advect each speed's stored profile and write PDE artifacts.

    Speeds the shoot stage recorded as waveless are skipped; a profile that
    should exist but does not, or one the shoot stage left unclassified, is
    a missing artifact.
    """
    out = Path(out or cfg.output_dir)
    _echo_config(cfg, out)
    cm, _ = _canonical(cfg)
    pc = cfg.pde
    domain = None if pc.x_min is None else (pc.x_min, pc.x_max)
    observed = _observed_classes(out)
    rows: list[dict] = []
    for c in cfg.speeds:
        row: dict = {"c": c}
        try:
            ppath = _profile_path(out, c)
            label = c_label(c)
            if not ppath.exists():
                if observed.get(label) is SpeedClass.NO_WAVE:
                    row["skipped"] = "no wave at this speed; nothing to advect"
                    rows.append(row)
                    continue
                raise MissingArtifactError(
                    f"expected profile file {ppath} (produce it with the shoot "
                    "command first)")
            if label not in observed:
                raise MissingArtifactError(
                    f"profile file {ppath} has no classified row in "
                    f"{out / 'classification.json'} (produce both with the "
                    "shoot command)")
            xi, f = read_profile_csv(ppath)
            profile = connect.WaveProfile(
                xi=xi, f=f, c=float(c), classification=observed[label])
            res = pde.advect_profile_test(
                profile, cm, pc.T, n_cells=pc.n_cells, cfl=pc.cfl,
                domain=domain, snapshot_times=pc.snapshot_times)
            run = res.run
            front_path = out / f"front_c{label}.csv"
            write_float_csv(front_path, ["t", "x_front"], run.front_track)
            snap_files = []
            x = run.x.tolist()
            for t, u in res.snapshots:
                spath = out / f"snapshot_c{label}_t{c_label(t)}.csv"
                write_float_csv(spath, ["x", "u"], zip(x, u.tolist()))
                snap_files.append(spath.name)
            row.update({
                "max_error": res.max_error,
                "measured_speed": res.measured_speed,
                "domain": [run.x_min, run.x_max],
                "n_cells": pc.n_cells,
                "cfl": pc.cfl,
                "T": pc.T,
                "checkpoints": [[t, e] for t, e in res.checkpoints],
                "front_file": front_path.name,
                "snapshot_files": snap_files,
                "steps": run.steps,
                # the extremes of a run that took no step are None
                **{key: getattr(run, key) if run.steps else None for key in
                   ("dt_min", "dt_max", "min_before_clamp", "limiter_clips",
                    "positivity_fallbacks", "factorizations")},
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
    cm, c, atol, rtol = task
    try:
        res = connect.classify_connection(cm, c, rtol=rtol, atol=atol)
        if res.low_confidence:
            flag = "low_confidence"
        elif res.predicted == res.observed:
            flag = "agree"
        else:
            flag = "disagree"
        return {"c": c, "predicted_class": res.predicted.value,
                "observed_class": res.observed.value, "x0": res.x0,
                "n_oscillations": res.n_oscillations, "agreement_flag": flag,
                "tail_extrema": res.tail_extrema,
                "evidence": res.evidence, "solver_steps": res.solver_steps,
                "nfev": res.nfev, "njev": res.njev}
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
    tasks = [(cm, c, atol, rtol) for c in grid]
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
                        help="concurrent workers for sweep rows (only sweep uses it)")
        if name == "sweep":
            sp.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="table output format")
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
