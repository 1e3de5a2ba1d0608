"""Direct solution of u_t = (u^{m-1} u_x)_x + u^p - u^q on an interval.

The scheme is explicit and conservative: diffusion as flux differences with
the interface diffusivity taken as the arithmetic mean of u^{m-1} at the
neighbors (its limit at u = 0 switches the flux off, which is the degenerate
behavior; a harmonic mean would stall fronts artificially), reaction evaluated
pointwise with u below ``U_FLOOR`` contributing nothing.  The time step is
re-evaluated every step from the diffusion constraint cfl dx^2 / (2 max D)
and the reaction-slope constraint dt |p u^{p-1} - q u^{q-1}| <= 1/2 at the
current maximum.  Sinks are limited per node so they cannot overdraw the
value left after diffusion; u stays non-negative up to roundoff, and anything
below -1e-12 before the clamp is treated as a scheme failure, not smoothed
over.

Each step runs on a workspace kept on the run: the model's coefficients,
checked once, and scratch buffers allocated once per (run, model).  The
arithmetic is the original formulation's, operation for operation (unit
coefficients and m = 1's constant diffusivity only skip exact no-ops), so
states, time steps and times are unchanged to the bit.  The run counts its
steps, the range of dt and the lowest value seen before the clamp; the
``pde`` command writes these into ``pde_summary.json`` as ``steps``,
``dt_min``, ``dt_max`` and ``min_before_clamp``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainTooSmallError,
    InvalidParameterError,
    NegativityError,
    NoFrontError,
    StabilityViolationError,
    UnsupportedModelError,
)
from .model import CanonicalModel, GeneralModel, SpeedClass
from .connect import WaveProfile

log = logging.getLogger(__name__)

__all__ = [
    "U_FLOOR",
    "U_MAX",
    "PdeRun",
    "make_run",
    "step",
    "evolve",
    "AdvectResult",
    "advect_profile_test",
    "measure_front_speed",
    "support_edge",
    "front_position",
    "wave_ode_residual",
]

U_FLOOR = 1e-12
U_MAX = 10.0
BOUNDARY_GUARD_CELLS = 10
FRONT_LEVEL = 0.5       # the level set tracked as the front
N_CHECKPOINTS = 5       # shape-error checkpoints of an advection test
RESIDUAL_WINDOWS = 8    # windows of the weak-form residual
RESIDUAL_MARGIN = 0.05  # share of the span the residual trims at each end


@dataclass
class PdeRun:
    """Mutable state of one finite-interval run.

    ``state`` holds node values on the uniform grid of ``n_cells`` cells
    (n_cells + 1 nodes).  ``bc`` pins the end values (Dirichlet); the
    ``zero_flux`` and ``reaction_on`` switches are test hooks for the
    conservation checks and leave the production path untouched.

    ``step`` keeps count: ``steps`` taken, the smallest and largest ``dt``
    (``dt_min``, ``dt_max``) and ``min_before_clamp``, the lowest state value
    any step produced before negatives of roundoff size were clamped to 0.
    Before the first step the extremes are the empty-set values +-inf.
    """

    x_min: float
    x_max: float
    n_cells: int
    cfl: float
    state: np.ndarray
    time: float = 0.0
    dt: float = 0.0
    front_track: list[tuple[float, float]] = field(default_factory=list)
    bc: tuple[float, float] = (1.0, 0.0)
    zero_flux: bool = False
    reaction_on: bool = True
    steps: int = 0
    dt_min: float = math.inf
    dt_max: float = -math.inf
    min_before_clamp: float = math.inf
    _work: "_Workspace | None" = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)


def make_run(x_min: float, x_max: float, n_cells: int, u0, *,
             cfl: float = 0.9, bc: tuple[float, float] = (1.0, 0.0),
             zero_flux: bool = False, reaction_on: bool = True) -> PdeRun:
    """Build a run from an initial condition (callable of x or an array)."""
    if not (x_max > x_min):
        raise InvalidParameterError("x_max must exceed x_min")
    if n_cells < 4:
        raise InvalidParameterError("need at least 4 cells")
    if not (0.0 < cfl <= 0.9):
        raise InvalidParameterError(f"cfl must lie in (0, 0.9], got {cfl!r}")
    x = np.linspace(x_min, x_max, n_cells + 1)
    u = np.asarray(u0(x) if callable(u0) else u0, dtype=float).copy()
    if u.shape != x.shape:
        raise InvalidParameterError(
            f"initial state has shape {u.shape}, grid has {x.shape}")
    if np.min(u) < 0.0:
        raise NegativityError(f"initial state dips to {np.min(u):.3e}")
    run = PdeRun(x_min=float(x_min), x_max=float(x_max), n_cells=int(n_cells),
                 cfl=float(cfl), state=u, bc=(float(bc[0]), float(bc[1])),
                 zero_flux=zero_flux, reaction_on=reaction_on)
    if not zero_flux:
        run.state[0], run.state[-1] = run.bc
    return run


class _Workspace:
    """Validated coefficients and scratch buffers of `step`.

    Built on a run's first step and rebuilt whenever a different model object
    (or a state of another size) is passed, so the checks on the model run
    once per (run, model) and the step itself allocates only the new state.
    """

    def __init__(self, model, size: int):
        if isinstance(model, GeneralModel):
            coeffs = (model.kappa, model.alpha, model.beta, model.m, model.p, model.q)
        elif isinstance(model, CanonicalModel):
            coeffs = (1.0, 1.0, 1.0, model.m, model.p, model.q)
        else:
            raise InvalidParameterError(
                f"unsupported model object {type(model).__name__}")
        self.kappa, self.alpha, self.beta, self.m, self.p, self.q = coeffs
        if not self.p > self.q:
            # a canonical model cannot get here; a general one is refused as
            # nondimensionalize refuses it
            raise UnsupportedModelError("p > q")
        if self.m < 1.0:
            raise InvalidParameterError(
                "the explicit scheme needs bounded diffusivity; m >= 1 required "
                f"(got m = {self.m!r})")
        if self.q < 0.0:
            raise InvalidParameterError(
                "reaction exponents below zero are outside the solver's remit "
                f"(got q = {self.q!r})")
        self.model = model
        self.size = size
        self.D, self.r, self.tmp = np.empty(size), np.empty(size), np.empty(size)
        self.flux, self.du = np.empty(size - 1), np.empty(size - 1)
        self.dead = np.empty(size, dtype=bool)


def _power(u: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """``u ** e`` written to ``out``, taking the shortcuts numpy's ``**``
    takes for these exponents so the bits match; e = 1 returns ``u``."""
    if e == 1.0:
        return u
    if e == 2.0:
        return np.square(u, out=out)
    if e == 0.5:
        return np.sqrt(u, out=out)
    if e == 0.0:
        out.fill(1.0)
        return out
    return np.power(u, e, out=out)


def step(run: PdeRun, model, dt_limit: float | None = None) -> PdeRun:
    """Advance one explicit step; mutates and returns ``run``.

    ``dt_limit`` additionally caps the step (used to land exactly on
    snapshot times); the stability constraints always apply.  The new state
    is a fresh array, so a caller holding the old ``run.state`` keeps it.
    """
    u = run.state
    ws = run._work
    if ws is None or ws.model is not model or ws.size != u.size:
        ws = run._work = _Workspace(model, u.size)
    kappa, alpha, beta, m, p, q = ws.kappa, ws.alpha, ws.beta, ws.m, ws.p, ws.q

    dx = run.dx
    u_top = float(u.max())
    if m == 1.0:
        D = None          # kappa * u**0 is the constant kappa (0**0 = 1)
        d_max = kappa
    else:
        D = _power(u, m - 1.0, ws.D)
        if kappa != 1.0:
            D = np.multiply(kappa, D, out=ws.D)
        d_max = u_top if D is u else float(D.max())
    dt = run.cfl * dx * dx / (2.0 * d_max) if d_max > 0.0 else math.inf
    if run.reaction_on and u_top >= U_FLOOR:
        slope = abs(alpha * p * u_top ** (p - 1.0) - beta * q * u_top ** (q - 1.0))
        if slope > 0.0:
            dt = min(dt, 0.5 / slope)
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    if math.isinf(dt):
        dt = run.cfl * dx * dx / 2.0  # vacuum: no timescale in the state at all
    if not dt > 0.0:
        raise StabilityViolationError(f"no positive step available (dt = {dt!r})")

    # flux = 0.5 (D_i + D_{i+1}) (u_{i+1} - u_i) / dx, rounded step by step
    # in that order; with constant D the mean is D itself, exactly
    flux = ws.flux
    if D is None:
        np.subtract(u[1:], u[:-1], out=flux)
        if kappa != 1.0:
            np.multiply(kappa, flux, out=flux)
    else:
        np.add(D[:-1], D[1:], out=flux)
        np.multiply(0.5, flux, out=flux)
        np.multiply(flux, np.subtract(u[1:], u[:-1], out=ws.du), out=flux)
    np.divide(flux, dx, out=flux)

    u_new = np.empty_like(u)   # holds the divergence, then u + dt div, then the result
    if run.zero_flux:
        u_new.fill(0.0)
        np.divide(flux, dx, out=flux)
        np.add(u_new[:-1], flux, out=u_new[:-1])
        np.subtract(u_new[1:], flux, out=u_new[1:])
    else:
        np.subtract(flux[1:], flux[:-1], out=u_new[1:-1])
        np.divide(u_new[1:-1], dx, out=u_new[1:-1])
        u_new[0] = u_new[-1] = 0.0
    np.multiply(u_new, dt, out=u_new)
    np.add(u, u_new, out=u_new)   # diffusion alone keeps u >= 0 under the cfl bound

    if run.reaction_on:
        # nodes below U_FLOOR contribute nothing (p > q >= 0 keeps u^p finite)
        r = _power(u, p, ws.r)
        if alpha != 1.0:
            r = np.multiply(alpha, r, out=ws.r)
        sink = _power(u, q, ws.tmp)
        if beta != 1.0:
            sink = np.multiply(beta, sink, out=ws.tmp)
        r = np.subtract(r, sink, out=ws.r)
        np.putmask(r, np.less(u, U_FLOOR, out=ws.dead), 0.0)
        # a sink may not overdraw its node; the bound must reference the
        # diffused value, or a retreating support edge dips negative when
        # absorption empties a node whose stencil is simultaneously losing
        # (the bound is -max(u*, 0) / dt; moving the sign onto dt is exact)
        bound = np.maximum(u_new, 0.0, out=ws.tmp)
        np.maximum(r, np.divide(bound, -dt, out=bound), out=r)
        np.multiply(r, dt, out=r)
        np.add(u_new, r, out=u_new)
    if not run.zero_flux:
        u_new[0], u_new[-1] = run.bc

    # NaN propagates through min and max, so these two reductions carry
    # the finiteness, negativity and blow-up guards
    low, high = float(u_new.min()), float(u_new.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise StabilityViolationError("non-finite values appeared in the state")
    if low < -1e-12:
        raise NegativityError(f"state dipped to {low:.3e} before clamping")
    np.maximum(u_new, 0.0, out=u_new)
    if high > U_MAX:
        raise StabilityViolationError(
            f"state reached {high:.3g}, beyond the blow-up guard {U_MAX}")

    run.state = u_new
    run.time += dt
    run.dt = dt
    run.steps += 1
    run.dt_min = min(run.dt_min, dt)
    run.dt_max = max(run.dt_max, dt)
    run.min_before_clamp = min(run.min_before_clamp, low)
    return run


def front_position(x: np.ndarray, u: np.ndarray, level: float) -> float | None:
    """x of the unique level crossing by linear interpolation.

    Returns None when the level set is absent, nan when it is crossed more
    than once (the front is then not monotone at this record).
    """
    d = u - level
    s = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    exact = np.nonzero(d == 0.0)[0]
    n_cross = len(s) + len(exact)
    if n_cross == 0:
        return None
    if n_cross > 1:
        return math.nan
    if len(exact) == 1:
        return float(x[exact[0]])
    i = s[0]
    w = d[i] / (d[i] - d[i + 1])
    return float(x[i] + w * (x[i + 1] - x[i]))


def evolve(run: PdeRun, model, T: float, *, snapshot_times=(),
           track_front: bool = True,
           guard_cells: int | None = None) -> list[tuple[float, np.ndarray]]:
    """Step ``run`` to time T, recording the front (the ``FRONT_LEVEL`` level
    set) and requested snapshots.

    ``guard_cells`` raises DomainTooSmall when the tracked front comes within
    that many cells of a boundary (None disables the check).
    """
    if T < run.time:
        raise InvalidParameterError("target time lies in the past")
    snaps_pending = sorted(float(t) for t in snapshot_times)
    for t in snaps_pending:
        if t < run.time - 1e-12 or t > T + 1e-12:
            raise InvalidParameterError(f"snapshot time {t} outside [{run.time}, {T}]")
    x = run.x
    dx = run.dx
    out: list[tuple[float, np.ndarray]] = []

    def record():
        if track_front:
            pos = front_position(x, run.state, FRONT_LEVEL)
            run.front_track.append((run.time, math.nan if pos is None else pos))
            if guard_cells is not None and pos is not None and math.isfinite(pos):
                lo = run.x_min + guard_cells * dx
                hi = run.x_max - guard_cells * dx
                if pos < lo or pos > hi:
                    span = run.x_max - run.x_min
                    raise DomainTooSmallError(
                        f"front at x = {pos:.4g} is within {guard_cells} cells of "
                        f"the boundary [{run.x_min:.4g}, {run.x_max:.4g}]",
                        suggestion=(run.x_min - 0.5 * span, run.x_max + 0.5 * span))
        while snaps_pending and run.time >= snaps_pending[0] - 1e-12:
            out.append((run.time, run.state.copy()))
            snaps_pending.pop(0)

    record()
    while run.time < T - 1e-12:
        dt_limit = T - run.time
        if snaps_pending:
            dt_limit = min(dt_limit, snaps_pending[0] - run.time)
        step(run, model, dt_limit=dt_limit)
        record()
    return out


def measure_front_speed(run: PdeRun, window: tuple[float, float]) -> float:
    """Least-squares slope of the recorded front positions over the window."""
    t1, t2 = window
    pts = [(t, xf) for (t, xf) in run.front_track if t1 <= t <= t2]
    if any(math.isnan(xf) for _, xf in pts):
        raise NoFrontError(
            "front track contains records where the level set is absent or "
            "crossed more than once")
    if len(pts) < 10:
        raise NoFrontError(f"only {len(pts)} track points in the window; need 10")
    ts = np.array([t for t, _ in pts])
    xs = np.array([xf for _, xf in pts])
    slope, _ = np.polyfit(ts, xs, 1)
    return float(slope)


def support_edge(run: PdeRun, threshold: float) -> float | None:
    """Rightmost x with u above the threshold (interpolated), or None."""
    if threshold < U_FLOOR:
        raise InvalidParameterError(f"threshold must be at least {U_FLOOR}")
    u = run.state
    above = np.nonzero(u > threshold)[0]
    if len(above) == 0:
        return None
    i = int(above[-1])
    x = run.x
    if i == run.n_cells:
        return float(x[i])
    w = (u[i] - threshold) / (u[i] - u[i + 1])
    return float(x[i] + w * (x[i + 1] - x[i]))


# --- profile advection ---------------------------------------------------------

@dataclass(frozen=True)
class AdvectResult:
    """max_error over checkpoints of ||u(.,t) - f(. - ct)||_inf plus the
    front-fitted speed (None signals no measurable front), and the step
    diagnostics of the run (see `PdeRun`)."""

    max_error: float
    measured_speed: float | None
    checkpoints: tuple[tuple[float, float], ...]
    domain: tuple[float, float]
    run: PdeRun
    snapshots: tuple[tuple[float, np.ndarray], ...] = ()

    # the run's step diagnostics; the extremes are None when no step ran
    @property
    def steps(self) -> int:
        return self.run.steps

    @property
    def dt_min(self) -> float | None:
        return self.run.dt_min if self.run.steps else None

    @property
    def dt_max(self) -> float | None:
        return self.run.dt_max if self.run.steps else None

    @property
    def min_before_clamp(self) -> float | None:
        return self.run.min_before_clamp if self.run.steps else None


def advect_profile_test(profile: WaveProfile, cm: CanonicalModel, T: float, *,
                        n_cells: int = 4000, cfl: float = 0.9,
                        domain: tuple[float, float] | None = None,
                        snapshot_times=()) -> AdvectResult:
    """Evolve u(x,0) = f(x) to time T and compare against f(x - ct).

    The domain defaults to the profile's span padded for the motion c T plus
    a safety margin; pass ``domain`` to override (a front straying within 10
    cells of a boundary raises DomainTooSmall with a widened suggestion).  A
    profile with a non-finite xi or f is refused before the run is built.

    The plateau behind the front sits at an unstable state of the reaction,
    so any shortfall 1 - f at the profile's left end grows like
    exp((p - q) T) during the run.  For grid-convergence measurements shoot
    the profile with a tighter arrival radius (say 1e-9) so this floor stays
    below the scheme error; the default radius is fine for shape checks.
    """
    if T < 0.0:
        raise InvalidParameterError("T must be non-negative")
    xi = np.asarray(profile.xi, dtype=float)
    f = np.asarray(profile.f, dtype=float)
    for name, values in (("xi", xi), ("f", f)):
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError(
                f"profile {name} has non-finite values; only a finite profile "
                "can be advected")
    c = float(profile.c)
    f_left, f_right = float(f[0]), float(f[-1])
    if profile.classification is SpeedClass.NO_WAVE:
        raise InvalidParameterError("profile carries no wave to advect")

    if domain is None:
        span = float(xi[-1] - xi[0])
        pad = max(0.1 * span, 2.0)
        x_min = float(xi[0]) + min(0.0, c * T) - pad
        x_max = float(xi[-1]) + max(0.0, c * T) + pad
    else:
        x_min, x_max = float(domain[0]), float(domain[1])
    dx = (x_max - x_min) / n_cells

    # fail fast when the commanded window cannot contain the motion
    xi_front = float(np.interp(0.5, f[::-1], xi[::-1])) if f[-1] < 0.5 < f[0] else 0.0
    final_front = xi_front + c * T
    guard = BOUNDARY_GUARD_CELLS * dx
    if final_front < x_min + guard or final_front > x_max - guard:
        span = x_max - x_min
        raise DomainTooSmallError(
            f"front would end at x = {final_front:.4g}, within {BOUNDARY_GUARD_CELLS} "
            f"cells of the boundary [{x_min:.4g}, {x_max:.4g}]",
            suggestion=(x_min + min(0.0, c * T) - 0.5 * span,
                        x_max + max(0.0, c * T) + 0.5 * span))

    def u0(x):
        return np.interp(x, xi, f, left=f_left, right=f_right)

    run = make_run(x_min, x_max, n_cells, u0, cfl=cfl, bc=(f_left, f_right))
    x = run.x
    inner = slice(BOUNDARY_GUARD_CELLS, len(x) - BOUNDARY_GUARD_CELLS)
    times = [T * (i + 1) / N_CHECKPOINTS for i in range(N_CHECKPOINTS)] if T > 0 else []
    wanted = sorted(float(t) for t in snapshot_times)
    for t in wanted:
        if t < 0.0 or t > T:
            raise InvalidParameterError(f"snapshot time {t} outside [0, {T}]")

    checkpoints: list[tuple[float, float]] = []
    kept: list[tuple[float, np.ndarray]] = []
    if T == 0.0:
        checkpoints.append((0.0, 0.0))
    recorded = evolve(run, cm, T, snapshot_times=sorted(set(times) | set(wanted)),
                      guard_cells=BOUNDARY_GUARD_CELLS)
    for t, u in recorded:
        if any(abs(t - tc) <= 1e-9 for tc in times):
            ref = np.interp(x - c * t, xi, f, left=f_left, right=f_right)
            checkpoints.append((t, float(np.max(np.abs(u[inner] - ref[inner])))))
        if any(abs(t - tw) <= 1e-9 for tw in wanted):
            kept.append((t, u))

    max_error = max(err for _, err in checkpoints)
    try:
        speed = measure_front_speed(run, (0.0, T)) if T > 0 else None
    except NoFrontError:
        speed = None
    log.info("advect test c=%g T=%g N=%d: max_error=%.3e speed=%s",
             c, T, n_cells, max_error, speed)
    return AdvectResult(max_error=max_error, measured_speed=speed,
                        checkpoints=tuple(checkpoints),
                        domain=(x_min, x_max), run=run,
                        snapshots=tuple(kept))


# --- weak-form residual ---------------------------------------------------------

def wave_ode_residual(profile: WaveProfile, cm: CanonicalModel, *,
                      num: int | None = None) -> float:
    """Max window residual of the integrated wave equation.

    Integrating (f^{m-1} f')' + c f' + f^p - f^q = 0 over [xi_1, xi_2] gives
    g(xi_2) - g(xi_1) + c (f(xi_2) - f(xi_1)) + int f^p - f^q = 0 with the
    flux g = (f^m)'/m, which exists wherever f does; the profile satisfies
    the equation in this weak sense.  g comes from central differences and
    the integral from the trapezoid rule, so the residual shrinks at second
    order in the grid spacing.  ``num`` resamples the profile to that many
    uniform points first; ``RESIDUAL_WINDOWS`` windows partition the span
    with a share ``RESIDUAL_MARGIN`` trimmed at each end.
    """
    xi = np.asarray(profile.xi, dtype=float)
    f = np.asarray(profile.f, dtype=float)
    if num is not None:
        if num < 16:
            raise InvalidParameterError("num must be at least 16")
        xi_u = np.linspace(xi[0], xi[-1], num)
        f = np.interp(xi_u, xi, f)
        xi = xi_u
    h = xi[1] - xi[0]
    if not np.allclose(np.diff(xi), h, rtol=1e-8, atol=1e-12):
        raise InvalidParameterError("profile samples must be uniform in xi")
    f = np.maximum(f, 0.0)
    c = float(profile.c)
    m, p, q = cm.m, cm.p, cm.q

    fm = f ** m
    g = (fm[2:] - fm[:-2]) / (2.0 * m * h)   # flux at nodes 1..n-2
    react = np.zeros_like(f)
    pos = f > 0.0
    react[pos] = f[pos] ** p - f[pos] ** q

    n = len(f)
    i0 = max(1, int(round(RESIDUAL_MARGIN * (n - 1))))
    i1 = min(n - 2, (n - 1) - i0)
    if i1 - i0 < RESIDUAL_WINDOWS:
        raise InvalidParameterError("too few interior samples for the window count")
    edges = np.unique(np.round(np.linspace(i0, i1, RESIDUAL_WINDOWS + 1)).astype(int))
    worst = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        integral = float(np.trapezoid(react[a:b + 1], dx=h))
        res = (g[b - 1] - g[a - 1]) + c * (f[b] - f[a]) + integral
        worst = max(worst, abs(res))
    return worst
