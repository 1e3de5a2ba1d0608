"""The output checks pass real program output and reject broken copies of it.

    python3 -m pytest perfbench/test_checks.py

Each test runs the CLI on one small config, shows that the check accepts
the result, then breaks one thing the check exists to catch.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from kppwaves import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import AZ_SPEED, BOUNDARY, Job  # noqa: E402

C_STAR = workloads.critical_speed(BOUNDARY)
PDE = {"n_cells": workloads.PDE_CELLS, "T": workloads.PDE_T,
       "snapshot_times": [workloads.PDE_T]}


@pytest.fixture(scope="module")
def rundir():
    path = HERE / "out" / "test-checks"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(rundir, *jobs):
    workloads.write_configs(jobs, rundir)
    failed, _ = workloads.run_round(cli, jobs, rundir)
    assert failed == 0
    return rundir / jobs[0].name


@pytest.fixture(scope="module")
def sweep_rows(rundir):
    _, jobs = workloads.make_jobs("sweep", 1)
    job = next(j for j in jobs if j.model == BOUNDARY)
    header, rows = checks.read_table(_run(rundir, job) / "sweep.csv")
    assert checks.check_sweep(header, rows, job.speeds, C_STAR) == []
    return header, rows, job.speeds


@pytest.fixture(scope="module")
def az_output(rundir):
    """(1, 2, 1) shot and advected at the closed-form speed."""
    config = {"model": BOUNDARY, "speeds": [AZ_SPEED], "pde": PDE}
    out = _run(rundir, Job("az", "shoot", BOUNDARY, config, (AZ_SPEED,)),
               Job("az", "pde", BOUNDARY, config, (AZ_SPEED,)))
    [shot] = json.loads((out / "classification.json").read_text())
    [row] = json.loads((out / "pde_summary.json").read_text())
    xi, f = checks.read_columns(out / shot["profile_file"])
    x, u = checks.read_columns(out / row["snapshot_files"][-1])
    t, x_front = checks.read_columns(out / row["front_file"])
    return xi, f, x, u, t, x_front


def _with_column(rows, col, change):
    return [r[:col] + [change(r)] + r[col + 1:] for r in rows]


def test_sweep_check_rejects_a_flipped_class(sweep_rows):
    header, rows, speeds = sweep_rows
    flip = {"Monotone": "Oscillatory", "Oscillatory": "Monotone"}
    broken = _with_column(rows, 2, lambda r: flip[r[2]] if r is rows[0] else r[2])
    assert checks.check_sweep(header, broken, speeds, C_STAR)


def test_sweep_check_rejects_a_lost_oscillation_count(sweep_rows):
    header, rows, speeds = sweep_rows
    broken = _with_column(rows, 4, lambda r: "0")
    assert checks.check_sweep(header, broken, speeds, C_STAR)


def test_sweep_check_rejects_a_rising_turning_point(sweep_rows):
    header, rows, speeds = sweep_rows
    broken = _with_column(rows, 3, lambda r: "1.5" if r is rows[0] else r[3])
    assert checks.check_sweep(header, broken, speeds, C_STAR)


def test_profile_check_rejects_a_shifted_profile(az_output):
    xi, f = az_output[:2]
    assert checks.check_profile(xi, f, AZ_SPEED, BOUNDARY, C_STAR, closed_form=True) == []
    problems = checks.check_profile(xi + 0.5, f, AZ_SPEED, BOUNDARY, C_STAR,
                                    closed_form=True)
    assert any("closed form" in p for p in problems)
    assert any("f(0)" in p for p in problems)


def test_profile_check_rejects_a_collapsed_front():
    # the front inside a single sample of a span of 8e6, as reconstruct_profile
    # returns it for m < 1
    xi = np.linspace(-4e6, 4e6, 4001)
    problems = checks.check_profile(xi, checks.az_closed_form(xi), AZ_SPEED, BOUNDARY, C_STAR)
    assert any("samples with" in p for p in problems)
    assert any("residual" in p for p in problems)


def test_profile_check_rejects_a_front_the_windows_never_see():
    # flat in every residual window: the residual is ~0, but only vacuously
    xi = np.linspace(-10.0, 10.0, 4001)
    f = np.where(xi < 9.99, 1.0, 0.0)
    problems = checks.check_profile(xi, f, AZ_SPEED, BOUNDARY, C_STAR)
    assert any("untested" in p for p in problems)


def test_profile_check_rejects_the_wrong_speed(az_output):
    xi, f = az_output[:2]
    problems = checks.check_profile(xi, f, 0.8 * AZ_SPEED, BOUNDARY, C_STAR)
    assert any("weak-form residual" in p for p in problems)


def test_advect_check_rejects_a_displaced_snapshot(az_output):
    xi, f, x, u, t, x_front = az_output
    T = workloads.PDE_T
    assert checks.check_advect(x, u, T, AZ_SPEED, xi, f, t, x_front, closed_form=True) == []
    assert checks.check_advect(x, u, T, AZ_SPEED, xi, f, t, x_front) == []
    # one front width: the distance between the f = 0.9 and f = 0.1 crossings
    width = float(np.interp(0.1, f[::-1], xi[::-1]) - np.interp(0.9, f[::-1], xi[::-1]))
    problems = checks.check_advect(x + width, u, T, AZ_SPEED, xi, f, t, x_front,
                                   closed_form=True)
    assert any("from f(x - cT)" in p for p in problems)


def test_advect_check_rejects_a_slow_front_and_negative_values(az_output):
    xi, f, x, u, t, x_front = az_output
    T = workloads.PDE_T
    problems = checks.check_advect(x, u - 1e-3, T, AZ_SPEED, xi, f, t, 0.98 * x_front)
    assert any("front moves" in p for p in problems)
    assert any("dips" in p for p in problems)
