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
import functools
import logging
import os
import sys
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

# concurrent.futures.process loads only when a sweep runs on a pool
ProcessPoolExecutor = None

__all__ = ["main", "cmd_analyze", "cmd_shoot", "cmd_pde", "cmd_sweep"]


def _setup_logging() -> None:
    name = os.environ.get("KPPWAVES_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _row(c: float, fill, *args) -> dict:
    """The row {"c": c} as ``fill(row, *args)`` completes it in place.  A
    KppWavesError makes it an error row, which keeps what fill wrote first."""
    row: dict = {"c": c}
    try:
        fill(row, *args)
    except KppWavesError as e:
        row["error"] = str(e)
        row["error_kind"] = type(e).__name__
        if getattr(e, "suggestion", None) is not None:
            row["suggested_domain"] = list(e.suggestion)
        log.error("speed %g failed: %s", c, e)
    return row


def _classify(row: dict, cm: CanonicalModel, **kw) -> connect.ConnectionResult:
    """Classify the row's speed and copy the classification into the row."""
    res = connect.classify_connection(cm, row["c"], **kw)
    row.update({
        "predicted_class": res.predicted.value,
        "observed_class": res.observed.value,
        "n_oscillations": res.n_oscillations,
        "tail_extrema": res.tail_extrema,
        "x0": res.x0,
        "evidence": res.evidence,
        "solver_steps": res.solver_steps,
        "nfev": res.nfev,
        "njev": res.njev,
    })
    return res


# --- analyze -------------------------------------------------------------------

def cmd_analyze(cfg: RunConfig, cm: CanonicalModel, out: Path) -> list[dict]:
    """Canonical parameters, regime, c*, and per-speed fixed-point report."""
    speeds = []
    for c in cfg.speeds:
        sys_ = build_system(cm, abs(c))
        speeds.append({
            "c": c,
            "predicted_class": classify_speed(cm, c).value,
            "mirrored_to": abs(c),
            "system": {"case": "I" if isinstance(sys_, PhaseSystemI) else "II",
                       **dataclasses.asdict(sys_)},
            "fixed_points": [
                {**dataclasses.asdict(fp),
                 "eigenvalues": [[z.real, z.imag] for z in fp.eigenvalues]}
                for fp in fixed_points(sys_)
            ],
        })
    write_json(out / "report.json", {
        "model": model_to_json(cfg.model),
        "canonical": dataclasses.asdict(cm),
        "scaling": dataclasses.asdict(nondimensionalize(cfg.model)[1])
        if isinstance(cfg.model, GeneralModel) else None,
        "regime": cm.regime.value,
        "critical_speed": critical_speed(cm),
        "speeds": speeds,
    })
    return speeds


# --- shoot ---------------------------------------------------------------------

def _shoot_row(row: dict, cfg: RunConfig, cm: CanonicalModel, out: Path) -> None:
    atol, rtol = cfg.ode_tolerances
    res = _classify(row, cm, rtol=rtol, atol=atol, profile_of=cm)
    row["low_confidence"] = res.low_confidence
    row["event_counts"] = res.event_counts
    if res.trajectory is None:
        return
    # the files present the orbit with tau = 0 at its P2 end
    traj, label = res.trajectory, c_label(row["c"])
    T = float(traj.tau[-1])
    tpath = out / f"trajectory_c{label}.csv"
    write_float_csv(tpath, ["tau", "X", "Y"], (traj.tau - T, traj.X, traj.Y))
    row["trajectory_file"] = tpath.name
    row["events"] = [
        {"kind": ev.kind.value, "tau": ev.tau - T,
         "X": ev.state[0], "Y": ev.state[1], "target": ev.target}
        for ev in traj.events
    ]
    prof = connect.reconstruct_profile(traj)
    ppath = out / f"profile_c{label}.csv"
    write_profile_csv(ppath, prof.xi, prof.f)
    row["profile_file"] = ppath.name
    row["overshoot_extrema"] = [[a, b] for a, b in prof.overshoot_extrema]
    row["series_samples"] = prof.series_samples
    row["front_samples"] = prof.front_samples
    row["plateau_shortfall"] = prof.plateau_shortfall


def cmd_shoot(cfg: RunConfig, cm: CanonicalModel, out: Path) -> list[dict]:
    """Classify each configured speed and write trajectory/profile artifacts."""
    if not cfg.speeds:
        print("warning: no speeds configured; nothing to shoot", file=sys.stderr)
        return []
    rows = [_row(c, _shoot_row, cfg, cm, out) for c in cfg.speeds]
    write_json(out / "classification.json", rows)
    return rows


# --- pde -----------------------------------------------------------------------

def _pde_row(row: dict, cfg: RunConfig, cm: CanonicalModel, out: Path) -> None:
    label = c_label(row["c"])
    ppath = out / f"profile_c{label}.csv"
    if not ppath.exists():
        if row["c"] >= 0.0:
            row["skipped"] = "no wave at this speed; nothing to advect"
            return
        raise MissingArtifactError(
            f"expected profile file {ppath} (produce it with the shoot command first)")
    xi, f = read_profile_csv(ppath)
    pc = cfg.pde
    res = pde.advect_profile_test(
        connect.WaveProfile(xi=xi, f=f, c=float(row["c"])),
        cm, pc.T, n_cells=pc.n_cells, cfl=pc.cfl,
        domain=None if pc.x_min is None else (pc.x_min, pc.x_max),
        snapshot_times=pc.snapshot_times)
    run = res.run
    front_path = out / f"front_c{label}.csv"
    write_float_csv(front_path, ["t", "x_front"], zip(*run.front_track))
    snap_files = []
    for t, u in res.snapshots:
        spath = out / f"snapshot_c{label}_t{c_label(t)}.csv"
        write_float_csv(spath, ["x", "u"], (run.x, u))
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


def cmd_pde(cfg: RunConfig, cm: CanonicalModel, out: Path) -> list[dict]:
    """Advect each speed's stored profile and write PDE artifacts.

    A speed c >= 0 carries no wave and is skipped when it has no profile; a
    missing profile at c < 0 is a missing artifact.
    """
    rows = [_row(c, _pde_row, cfg, cm, out) for c in cfg.speeds]
    write_json(out / "pde_summary.json", rows)
    return rows


# --- sweep ---------------------------------------------------------------------

def _sweep_row(row: dict, cm: CanonicalModel, atol: float, rtol: float) -> None:
    res = _classify(row, cm, rtol=rtol, atol=atol)
    if res.low_confidence:
        row["agreement_flag"] = "low_confidence"
    else:
        row["agreement_flag"] = "agree" if res.predicted == res.observed else "disagree"


def _sweep_task(task: tuple) -> dict:
    return _row(*task)


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


def cmd_sweep(cfg: RunConfig, cm: CanonicalModel, out: Path, *, jobs: int = 1,
              fmt_kind: str = "csv") -> list[dict]:
    """Classify a grid of speeds and write the comparison table."""
    s = cfg.sweep
    if s is not None:
        grid = [c for c in (round(s.c_min + i * s.step, 12)
                            for i in range(int(s.n_points)))
                if c <= s.c_max + 1e-9]
    else:
        grid = sorted(cfg.speeds)
    if not grid:
        raise ConfigError("sweep: no speeds to sweep (set `sweep` or `speeds`)")
    atol, rtol = cfg.ode_tolerances
    tasks = [(c, _sweep_row, cm, atol, rtol) for c in grid]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        global ProcessPoolExecutor
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_task, tasks))
    else:
        rows = list(map(_sweep_task, tasks))
    rows.sort(key=lambda r: r["c"])

    if fmt_kind == "json":
        write_json(out / "sweep.json", rows)
    else:
        write_csv(out / "sweep.csv", ["c", "predicted_class", "observed_class", "X0",
                                      "n_oscillations", "agreement_flag"],
                  [[fmt(r["c"]), "", "Error", "", "", "error"] if "error" in r else
                   [fmt(r["c"]), r["predicted_class"], r["observed_class"],
                    fmt(r["x0"]), str(r["n_oscillations"]), r["agreement_flag"]]
                   for r in rows])

    step = s.step if s is not None else max(
        (b - a for a, b in zip(grid, grid[1:])), default=0.0)
    _check_transition_bracket(rows, cm, step)
    return rows


# --- entry point -----------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    p = argparse.ArgumentParser(
        prog="kppwaves",
        description="Travelling-wave analysis of u_t = (u^{m-1} u_x)_x + u^p - u^q")
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": (cmd_analyze, "canonical parameters, regime, c*, fixed points per speed"),
        "shoot": (cmd_shoot, "classify speeds and export trajectories and profiles"),
        "pde": (cmd_pde, "advect stored profiles and measure front speeds"),
        "sweep": (cmd_sweep, "grid speeds into a predicted/observed comparison table"),
    }
    for name, (command, help_text) in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=command)
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
    except KppWavesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out or cfg.output_dir)
    kw = {"jobs": args.jobs, "fmt_kind": args.format} if args.run is cmd_sweep else {}
    try:
        write_json(out / "effective_config.json", config_to_dict(cfg))
        cm = (nondimensionalize(cfg.model)[0] if isinstance(cfg.model, GeneralModel)
              else cfg.model)
        rows = args.run(cfg, cm, out, **kw)
    except (ConfigError, UnsupportedModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KppWavesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 3 if any("error" in r for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
