"""Output checks that do not use the program's own answers.

Each check takes parsed output plus what the benchmark knows independently
(the model, its own c* = 2 sqrt(p - q), the closed-form wave, the travelling
solution f(x - ct)) and returns a list of problems; an empty list passes.
Nothing here imports kppwaves, and nothing compares against a stored copy of
earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import AZ_SPEED, BOUNDARY, critical_speed

LOW_CONFIDENCE = 1e-3       # |c| this close to c* is not held to either class
X0_FLOOR = 1.0 - 1e-3
X0_SLACK = 1e-9
F_HALF_TOL = 1e-6
CLOSED_FORM_TOL = 1e-6      # the reconstruction matches the closed form to ~1.5e-9
FRONT_SAMPLES_MIN = 100     # samples with 0.1 < f < 0.9 (today 535 to 1181)
MONOTONE_RISE_TOL = 1e-12
OVERSHOOT_MIN = 1e-6
RESIDUAL_TOL = 1e-4         # weak-form residual / scale (today about 2e-6)
RESIDUAL_SCALE_MIN = 0.1    # a scale below this means the front fell between samples
RESIDUAL_WINDOWS = 16
SNAPSHOT_TOL = 0.01         # ||u(., T) - f(. - cT)||_inf; one front width moves it ~0.5
SPEED_TOL = 0.01
SPEED_FIT_FROM = 0.2        # fit the front over t >= this share of T


def read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], rows[1:]


def read_columns(path) -> tuple[np.ndarray, ...]:
    _, rows = read_table(path)
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


def expected_class(c: float, c_star: float) -> str | None:
    """The wave class the critical speed predicts; None inside the low-confidence band."""
    if c >= 0.0:
        return "None"
    if abs(abs(c) - c_star) < LOW_CONFIDENCE:
        return None
    return "Monotone" if abs(c) >= c_star else "Oscillatory"


def az_closed_form(xi):
    """The (1, 2, 1) wave at c = -5/sqrt(6), with u(0) = 1/2."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):   # far behind the front exp overflows to inf: u = 1
        return 1.0 - (1.0 + (math.sqrt(2.0) - 1.0) * np.exp(-xi / math.sqrt(6.0))) ** -2


# --- sweep ---------------------------------------------------------------------

def check_sweep(header, rows, speeds, c_star: float) -> list[str]:
    """sweep.csv rows against the grid asked for and against c*."""
    problems = []
    if header != ["c", "predicted_class", "observed_class", "X0",
                  "n_oscillations", "agreement_flag"]:
        return [f"unexpected sweep header {header}"]
    got = [float(r[0]) for r in rows]
    if len(got) != len(speeds) or any(abs(a - b) > 1e-9 for a, b in zip(got, speeds)):
        return [f"sweep rows cover {got}, expected {list(speeds)}"]
    x0_by_speed = []
    for c_text, _, observed, x0_text, n_osc_text, _ in rows:
        c = float(c_text)
        want = expected_class(c, c_star)
        if want is not None and observed != want:
            problems.append(f"c={c}: observed {observed}, c*={c_star:.6g} predicts {want}")
        n_osc = int(n_osc_text)
        if (n_osc > 0) != (observed == "Oscillatory"):
            problems.append(f"c={c}: {observed} with {n_osc} oscillations")
        x0 = float(x0_text)
        if not x0 >= X0_FLOOR:
            problems.append(f"c={c}: X0 = {x0} below {X0_FLOOR}")
        x0_by_speed.append((abs(c), x0))
    x0_by_speed.sort()
    for (ca, xa), (cb, xb) in zip(x0_by_speed, x0_by_speed[1:]):
        if xb > xa + X0_SLACK:
            problems.append(f"X0 rises from {xa} at |c|={ca} to {xb} at |c|={cb}")
    return problems


# --- profiles --------------------------------------------------------------------

def weak_form_residual(xi, f, c: float, m: float, p: float, q: float,
                       windows: int = RESIDUAL_WINDOWS) -> tuple[float, float]:
    """(worst window residual, scale) of (f^m)'/m + c f + int(f^p - f^q) = const.

    Integrating (f^{m-1} f')' + c f' + f^p - f^q = 0 over a window gives
    dg + c df + int(f^p - f^q) = 0 with the flux g = (f^m)'/m.  The scale is
    the largest |dg| or |c df| over the windows, so the ratio is small only
    when the equation holds across a front the samples resolve.
    """
    xi = np.asarray(xi, dtype=float)
    f = np.maximum(np.asarray(f, dtype=float), 0.0)
    h = float(xi[1] - xi[0])
    g = np.gradient(f ** m, h) / m
    react = f ** p - f ** q
    n = len(f)
    edges = np.linspace(n // 20, n - 1 - n // 20, windows + 1).astype(int)
    worst = scale = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        seg = react[a:b + 1]
        integral = h * (float(seg.sum()) - 0.5 * float(seg[0] + seg[-1]))
        dg, df = g[b] - g[a], c * (f[b] - f[a])
        worst = max(worst, abs(dg + df + integral))
        scale = max(scale, abs(dg), abs(df))
    return worst, scale


def check_profile(xi, f, c: float, model: dict, c_star: float,
                  closed_form: bool = False) -> list[str]:
    """One profile_c*.csv against the wave equation, c* and (for (1,2,1) at
    c = -5/sqrt(6)) the closed form."""
    xi = np.asarray(xi, dtype=float)
    f = np.asarray(f, dtype=float)
    tag = f"c={c}"
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(f))):
        return [f"{tag}: profile has non-finite samples"]
    if len(xi) < 16 or np.any(np.diff(xi) <= 0.0):
        return [f"{tag}: xi is not an increasing grid"]
    problems = []
    f0 = float(np.interp(0.0, xi, f))
    if abs(f0 - 0.5) > F_HALF_TOL:
        problems.append(f"{tag}: f(0) = {f0}, expected 1/2")
    front = int(np.count_nonzero((f > 0.1) & (f < 0.9)))
    if front < FRONT_SAMPLES_MIN:
        problems.append(f"{tag}: {front} samples with 0.1 < f < 0.9, need {FRONT_SAMPLES_MIN}")
    want = expected_class(c, c_star)
    if want == "Monotone" and float(np.max(np.diff(f))) > MONOTONE_RISE_TOL:
        problems.append(f"{tag}: monotone profile rises by {float(np.max(np.diff(f))):.3e}")
    if want == "Oscillatory" and float(np.max(f)) <= 1.0 + OVERSHOOT_MIN:
        problems.append(f"{tag}: oscillatory profile never exceeds 1 (max {float(np.max(f))})")
    worst, scale = weak_form_residual(xi, f, c, model["m"], model["p"], model["q"])
    if scale < RESIDUAL_SCALE_MIN:
        problems.append(f"{tag}: residual scale {scale:.3e} leaves the equation untested")
    elif worst > RESIDUAL_TOL * scale:
        problems.append(f"{tag}: weak-form residual {worst:.3e} exceeds "
                        f"{RESIDUAL_TOL:g} x scale {scale:.3e}")
    if closed_form:
        err = float(np.max(np.abs(f - az_closed_form(xi))))
        if err > CLOSED_FORM_TOL:
            problems.append(f"{tag}: differs from the closed form by {err:.3e}")
    return problems


# --- advect ----------------------------------------------------------------------

def fitted_speed(t, x_front, T: float) -> float:
    """Least-squares slope of the tracked front over t >= SPEED_FIT_FROM * T."""
    t = np.asarray(t, dtype=float)
    x_front = np.asarray(x_front, dtype=float)
    keep = (t >= SPEED_FIT_FROM * T) & np.isfinite(x_front)
    return float(np.polyfit(t[keep], x_front[keep], 1)[0])


def check_advect(x, u, T: float, c: float, xi, f, front_t, front_x,
                 closed_form: bool = False) -> list[str]:
    """A snapshot at T against the travelling solution f(x - cT) and the
    front track against c."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    xi = np.asarray(xi, dtype=float)
    f = np.asarray(f, dtype=float)
    tag = f"c={c}"
    if not np.all(np.isfinite(u)):
        return [f"{tag}: snapshot has non-finite values"]
    problems = []
    if float(np.min(u)) < 0.0:
        problems.append(f"{tag}: u dips to {float(np.min(u)):.3e}")
    if closed_form:
        ref = az_closed_form(x - c * T)
    else:
        ref = np.interp(x - c * T, xi, f, left=f[0], right=f[-1])
    err = float(np.max(np.abs(u - ref)))
    if err > SNAPSHOT_TOL:
        problems.append(f"{tag}: snapshot at T={T} is {err:.3e} from f(x - cT)")
    speed = fitted_speed(front_t, front_x, T)
    if abs(speed - c) > SPEED_TOL * abs(c):
        problems.append(f"{tag}: front moves at {speed:.6g}, expected {c}")
    return problems


# --- whole runs ------------------------------------------------------------------

def _rows_by_speed(path: Path) -> dict[float, dict]:
    with open(path) as fh:
        return {float(r["c"]): r for r in json.load(fh)}


def _is_closed_form(job, c: float) -> bool:
    return job.model == BOUNDARY and c == AZ_SPEED


def check_run(workload: str, jobs, rundir: Path) -> list[str]:
    """Every check of a workload, on the outputs the last round left in rundir."""
    problems = []
    for job in jobs:
        out = Path(rundir) / job.name
        c_star = critical_speed(job.model)
        if workload == "sweep":
            header, rows = read_table(out / "sweep.csv")
            problems += [f"{job.name}: {p}" for p in check_sweep(header, rows, job.speeds, c_star)]
            continue
        shots = _rows_by_speed(out / "classification.json")
        advected = _rows_by_speed(out / "pde_summary.json") if workload == "advect" else {}
        for c in job.speeds:
            shot = shots.get(c, {})
            want = expected_class(c, c_star)
            if "profile_file" not in shot or (want and shot.get("observed_class") != want):
                problems.append(f"{job.name} c={c}: shoot gave {shot}, c* predicts {want}")
                continue
            xi, f = read_columns(out / shot["profile_file"])
            if workload == "profiles":
                found = check_profile(xi, f, c, job.model, c_star, _is_closed_form(job, c))
            else:
                row = advected.get(c, {})
                if "snapshot_files" not in row:
                    problems.append(f"{job.name} c={c}: pde gave {row}")
                    continue
                x, u = read_columns(out / row["snapshot_files"][-1])
                t, x_front = read_columns(out / row["front_file"])
                found = check_advect(x, u, job.config["pde"]["T"], c, xi, f, t, x_front,
                                     _is_closed_form(job, c))
            problems += [f"{job.name}: {p}" for p in found]
    return problems


def output_digest(rundir: Path) -> bytes:
    """One hash over every output file, to show that rounds repeat byte for byte."""
    h = hashlib.sha256()
    for path in sorted(Path(rundir).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(rundir)).encode())
            h.update(path.read_bytes())
    return h.digest()
