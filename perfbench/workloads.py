"""Seeded inputs for the benchmark's three workloads.

A workload is a list of jobs; a job is one CLI invocation on one generated
config, and a round runs every job once through ``kppwaves.cli.main`` in the
current process.  One operation is one configured speed: classified (sweep),
shot and reconstructed (profiles), or advected (advect).

The seed moves speeds only inside bands chosen to keep clear of c* and of two
faults in the program (README.md, "Inputs"):

* every sweep speed is at least 7.5 % of c* below it or 1.5 % above it.  In
  between, ``classify_connection`` reports Oscillatory with zero oscillations
  (evidence "focus"), which the n_oscillations check would reject;
* profiles and advect use m >= 1 and p - q >= 0.5 only, because
  ``reconstruct_profile`` collapses the front for m < 1 and for p - q near 0;
* every speed in one config has its own ``:g`` label, because the CLI names
  profile files with ``:g`` and two speeds sharing a label overwrite one file.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Ablowitz & Zeppetella (1979): for (m, p, q) = (1, 2, 1) the substitution
# v = 1 - u gives Fisher's equation, whose wave at this speed is explicit.
AZ_SPEED = -5.0 / math.sqrt(6.0)

SWEEP_STEP = 0.12            # grid step as a share of c*
SWEEP_BELOW = 17             # grid points beyond the oscillatory neighbour of c*
SWEEP_ABOVE = 6              # grid points between it and zero
SWEEP_OSC_GAP = (0.08, 0.10)  # how far below c* the oscillatory neighbour sits

PDE_CELLS = 1600
PDE_T = 5.0

# Times are scaled to a machine on which reference_s() takes this long.
REFERENCE_S = 0.02
_REFERENCE_X = np.linspace(0.0, 1.0, 1601)

CASE_I = {"m": 2.0, "p": 2.0, "q": 1.0}
BOUNDARY = {"m": 1.0, "p": 2.0, "q": 1.0}       # m + q = 2; holds the closed form
SLOW_DIFFUSION = {"m": 0.5, "p": 2.0, "q": 1.0}  # m < 1
SINK = {"m": 1.0, "p": 1.0, "q": 0.5}            # q < 1: finite-propagation tail
GENERAL = {"kappa": 2.0, "alpha": 1.5, "beta": 0.5, "m": 3.0, "p": 2.5, "q": 1.0}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``kppwaves <command> --config <name>.json``."""

    name: str
    command: str
    model: dict
    config: dict
    speeds: tuple[float, ...]   # the operations, in the order the CLI writes them


def critical_speed(model: dict) -> float:
    """|c*| = 2 sqrt(p - q); rescaling a general model leaves p and q alone."""
    return 2.0 * math.sqrt(model["p"] - model["q"])


def _speed(rng: random.Random, model: dict, lo: float, hi: float) -> float:
    """A negative speed with |c| / c* drawn from [lo, hi], to 4 decimals."""
    return -round(rng.uniform(lo, hi) * critical_speed(model), 4)


def _labels_distinct(speeds) -> None:
    labels = [f"{float(c):g}" for c in speeds]
    if len(set(labels)) != len(labels):
        raise ValueError(f"speeds {list(speeds)} share a file label")


def sweep_grid(c_min: float, c_max: float, step: float) -> list[float]:
    """The speeds a ``sweep`` section {c_min, c_max, step} asks for."""
    n = int(round((c_max - c_min) / step)) + 1
    return [round(c_min + i * step, 12) for i in range(n)]


def _sweep_job(rng: random.Random, name: str, model: dict) -> Job:
    cs = critical_speed(model)
    step = round(SWEEP_STEP * cs, 4)
    c_osc = -(1.0 - rng.uniform(*SWEEP_OSC_GAP)) * cs
    c_min = round(c_osc - SWEEP_BELOW * step, 4)
    c_max = round(c_min + (SWEEP_BELOW + SWEEP_ABOVE) * step, 4)
    grid = sweep_grid(c_min, c_max, step)
    for c in grid:
        r = abs(c) / cs
        if not (r >= 1.015 or 0.1 <= r <= 0.925):
            raise ValueError(f"sweep speed {c} sits inside an excluded band")
    config = {"model": model, "sweep": {"c_min": c_min, "c_max": c_max, "step": step}}
    return Job(name, "sweep", model, config, tuple(grid))


def _speeds_job(command: str, name: str, model: dict, speeds, pde=None) -> Job:
    _labels_distinct(speeds)
    config = {"model": model, "speeds": list(speeds)}
    if pde is not None:
        config["pde"] = pde
    return Job(name, command, model, config, tuple(speeds))


def make_jobs(workload: str, seed: int) -> tuple[list[Job], list[Job]]:
    """(set-up jobs, timed jobs) for a workload; the same seed gives the same jobs."""
    rng = random.Random(f"kppwaves-{workload}-{seed}")
    if workload == "sweep":
        models = {"case1": CASE_I, "boundary": BOUNDARY, "slowdiff": SLOW_DIFFUSION,
                  "sink": SINK, "general": GENERAL}
        return [], [_sweep_job(rng, name, model) for name, model in models.items()]
    if workload == "profiles":
        jobs = []
        for name, model in {"boundary": BOUNDARY, "case1": CASE_I, "sink": SINK,
                            "general": GENERAL}.items():
            speeds = [_speed(rng, model, 0.45, 0.75), _speed(rng, model, 1.3, 1.7)]
            if model is BOUNDARY:
                speeds.append(AZ_SPEED)
            jobs.append(_speeds_job("shoot", name, model, speeds))
        return [], jobs
    if workload == "advect":
        pde = {"n_cells": PDE_CELLS, "T": PDE_T, "snapshot_times": [PDE_T]}
        mix = {
            # fast monotone waves: the domain is padded by |c| T
            "boundary": (BOUNDARY, [-round(3.0 * rng.uniform(0.97, 1.03), 4), AZ_SPEED]),
            # slow oscillatory wave: the step count is set by dx^2
            "case1": (CASE_I, [-round(rng.uniform(0.95, 1.05), 4)]),
            # q < 1 front: exercises the sink limiter
            "sink": (SINK, [-round(3.0 * rng.uniform(0.97, 1.03), 4)]),
        }
        shoot = [_speeds_job("shoot", n, m, s, pde) for n, (m, s) in mix.items()]
        advect = [_speeds_job("pde", n, m, s, pde) for n, (m, s) in mix.items()]
        return shoot, advect
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(jobs, rundir: Path) -> None:
    for job in jobs:
        out = rundir / job.name
        out.mkdir(parents=True, exist_ok=True)
        with open(rundir / f"{job.name}.json", "w") as fh:
            json.dump(job.config, fh, indent=2, sort_keys=True)


def reference_s() -> float:
    """CPU seconds of a fixed loop of the two kinds of work kppwaves does:
    numpy operations on grid-sized arrays and interpreted arithmetic."""
    t0 = time.process_time()
    s = 0.0
    for _ in range(600):
        y = _REFERENCE_X ** 1.5 + np.diff(_REFERENCE_X, prepend=0.0)
        s += float(y.max())
        for k in range(60):
            s += k * 0.5
    return time.process_time() - t0


def run_round(cli, jobs, rundir: Path, calibrate: bool = False) -> tuple[int, list[float]]:
    """Run every job once through ``cli.main``.

    Returns the operations that failed and each job's CPU seconds.  With
    ``calibrate`` the reference loop runs before and after every job, and
    the job's time is scaled by REFERENCE_S over the mean of the two.
    """
    failed, times = 0, []
    ref = reference_s() if calibrate else 0.0
    for job in jobs:
        t0 = time.process_time()
        rc = cli.main([job.command, "--config", str(rundir / f"{job.name}.json"),
                       "--out", str(rundir / job.name), "--jobs", "1"])
        t = time.process_time() - t0
        if calibrate:
            ref_after = reference_s()
            t *= REFERENCE_S / (0.5 * (ref + ref_after))
            ref = ref_after
        times.append(t)
        if rc != 0:
            failed += len(job.speeds)
    return failed, times
