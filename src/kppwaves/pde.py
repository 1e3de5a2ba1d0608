"""Direct solution of u_t = (u^{m-1} u_x)_x + u^p - u^q on an interval.

Each step is linearly implicit (IMEX-BDF2, "SBDF2": Ascher, Ruuth & Wetton
1995; Hundsdorfer & Verwer 2003, ch. IV): diffusion implicit, reaction
extrapolated, one symmetric tridiagonal solve per step.  Each interior row
is one of two kinds,

* SBDF2:  (3/2 - dt L_a) u^{n+1} = 2u^n - u^{n-1}/2 + dt (2R^n - R^{n-1}),
* BE:     (1 - dt L_a) u^{n+1} = max(u^n + dt R^n, 0),

with R = u^p - u^q (nodes below ``U_FLOOR`` contribute nothing) and L_a the
flux-difference operator whose interface diffusivity a is the arithmetic
mean of u^{m-1} at the neighbors (its limit at u = 0 switches the flux off,
which is the degenerate behavior; a harmonic mean would stall fronts
artificially).  u^{m-1} is taken from max(2u^n - u^{n-1}, 0), or from u^n
on a BE start.  A row is BE on the first step, after any restart (see
`PdeRun`), and wherever its SBDF2 right-hand side is negative.  The matrix
is an M-matrix and every right-hand side is non-negative, so u^{n+1} >= 0
with no limiter after the solve; no linear method above first order is
positive unconditionally, so the per-row fallback is what keeps it so.
The scheme is second order in time.

The step solves in increment form, (lead - dt L_a) delta = b + dt L_a u^n
with b the right-hand side less lead u^n, so a constant state gives delta =
0 exactly.  LAPACK ``pttrf`` factors the matrix and ``pttrs`` solves with
the factors on the interior nodes; the end nodes hold their Dirichlet
values.  For m = 1 the uniform lead-3/2 matrix depends only on dt, dx and
the cell count, and a run keeps its one factorization with the step size
it belongs to.  A step's first k rows are rows of that matrix: for m = 1, k
is every row of an SBDF2 step, the index of the first BE row of a step
with rows of both kinds, and 0 on a BE start or restart; for m != 1, k is
0.  Those rows keep the run's factors, and ``pttrf`` runs on from row
k - 1, or over the whole matrix when k = 0 (``pttrf`` is a forward
recursion, so this is the full factorization bit for bit).  `evolve` takes
full steps and lands only on its end time; a snapshot due inside a step is
the linear interpolant of the states at the step's ends, second order like
the step itself.

A step passes over the arrays only where its result needs it.  An SBDF2
step of (m, p, q) = (1, 2, 1) makes 21 passes: u^2 and its difference with
u (an exponent of 1 takes u itself), the U_FLOOR cut-off (a comparison and
a masked store), the factor dt, five for the right-hand side, three for
the positivity test, four for the flux difference, ``pttrs``, one add into
the fresh new state, and its minimum and maximum.  Gathers over the BE
rows alone make their right-hand sides and leads.  m != 1 adds the
extrapolation, the faces and ``pttrf``.  The reaction-slope cap takes the
maximum that the last step found, and the clamp runs only when the minimum
is not positive.  The cached maximum, like the history, holds only while
``run.state`` is the array the last step produced: a caller who changes
the state between steps assigns a new array, since an edit in place is
seen by neither.

The equation is the canonical one: the functions here take a
`CanonicalModel` and refuse a general model, which `nondimensionalize`
reduces to canonical form.  The time step is dt = cfl H dx, capped by the
reaction-slope constraint dt |p u^{p-1} - q u^{q-1}| <= 1/2 at the current
maximum.  u stays non-negative up to roundoff, and anything below -1e-12
before the clamp is treated as a scheme failure, not smoothed over.

The run counts its steps, the range of dt, the lowest value seen before the
clamp, the BE right-hand sides clamped at 0, the node updates the
positivity rule switched to BE and the steps that factor; the ``pde``
command writes these into ``pde_summary.json`` as ``steps``, ``dt_min``,
``dt_max``, ``min_before_clamp``, ``limiter_clips``,
``positivity_fallbacks`` and ``factorizations``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._compiled import flapack
from .errors import (
    DomainTooSmallError,
    InvalidParameterError,
    NegativityError,
    NoFrontError,
    StabilityViolationError,
)
from .model import CanonicalModel
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
H = 4.0 / 18.0          # dt = cfl H dx in canonical units: 0.2 dx at cfl 0.9
BOUNDARY_GUARD_CELLS = 10
FRONT_LEVEL = 0.5       # the level set tracked as the front
N_CHECKPOINTS = 5       # shape-error checkpoints of an advection test
RESIDUAL_WINDOWS = 8    # windows of the weak-form residual
RESIDUAL_MARGIN = 0.05  # share of the span the residual trims at each end

_PTTRF, _PTTRS = flapack.dpttrf, flapack.dpttrs   # what get_lapack_funcs gives for float64


@dataclass
class PdeRun:
    """Mutable state of one finite-interval run.

    ``state`` holds node values on the uniform grid of ``n_cells`` cells
    (n_cells + 1 nodes).  ``cfl`` scales the time step dt = cfl H dx (see
    the module docstring).  ``bc`` pins the end values (Dirichlet).

    ``step`` keeps count: ``steps`` taken, the smallest and largest ``dt``
    (``dt_min``, ``dt_max``), ``min_before_clamp``, the lowest state value
    any step produced before negatives of roundoff size were clamped to 0,
    ``limiter_clips``, the backward-Euler right-hand sides clamped at 0,
    ``positivity_fallbacks``, the node updates that the positivity rule
    switched from SBDF2 to backward Euler (start and restart rows are not
    counted), and ``factorizations``, the steps that factor.
    Before the first step the extremes are the empty-set values +-inf.

    The run keeps the history of its last step: the state before it, its
    dt R and the maximum of the state it produced.  A step takes that
    maximum while ``state`` is still that array, and the rest only if, in
    addition, the model, dt, dx and n_cells are those of the last step;
    otherwise it restarts with backward Euler.  For m = 1 the run
    also keeps the uniform lead-3/2 matrix, as (size, faces, factors) with
    size = (dt, dx, n_cells), replaced only when a step needs it at another
    size; every step reuses its factors down to its first BE row (see the
    module docstring).
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
    steps: int = 0
    dt_min: float = math.inf
    dt_max: float = -math.inf
    min_before_clamp: float = math.inf
    limiter_clips: int = 0
    positivity_fallbacks: int = 0
    factorizations: int = 0
    _factors: tuple = field(default=(None,), init=False, repr=False,
                            compare=False)
    _history: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)


def make_run(x_min: float, x_max: float, n_cells: int, u0, *,
             cfl: float = 0.9, bc: tuple[float, float] = (1.0, 0.0)) -> PdeRun:
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
    bc = (float(bc[0]), float(bc[1]))
    for name, value in zip(("left", "right"), bc):
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidParameterError(
                f"{name} boundary value must be finite and non-negative, got {value!r}")
    # the minimum of a state holding NaN is NaN, which passes the sign test
    if not np.all(np.isfinite(u)):
        raise InvalidParameterError("initial state has non-finite values")
    if np.min(u) < 0.0:
        raise NegativityError(f"initial state dips to {np.min(u):.3e}")
    run = PdeRun(x_min=float(x_min), x_max=float(x_max), n_cells=int(n_cells),
                 cfl=float(cfl), state=u, bc=bc)
    run.state[0], run.state[-1] = run.bc
    return run


def _coefficients(cm) -> tuple[float, float, float]:
    """(m, p, q) of a canonical model the step accepts."""
    if not isinstance(cm, CanonicalModel):
        raise InvalidParameterError(
            f"the PDE takes a CanonicalModel, got {type(cm).__name__}; "
            "reduce a general model with nondimensionalize first")
    if cm.m < 1.0:
        raise InvalidParameterError(
            "the diffusivity u^(m-1) must stay bounded; m >= 1 required "
            f"(got m = {cm.m!r})")
    if cm.q < 0.0:
        raise InvalidParameterError(
            "reaction exponents below zero are outside the solver's remit "
            f"(got q = {cm.q!r})")
    return cm.m, cm.p, cm.q


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e, with x itself for e = 1 (x ** 1.0 is a copy of x)."""
    return x if e == 1.0 else x ** e


def _faces(u: np.ndarray, m: float, dt: float, dx: float) -> np.ndarray:
    """w = -dt a / dx^2 per face, with a the mean of u^(m-1) at its nodes."""
    D = _pow(u, m - 1.0)
    w = D[:-1] + D[1:]
    w *= -0.5 * dt / (dx * dx)
    return w


def _factor(w: np.ndarray, lead, head=None) -> tuple[np.ndarray, np.ndarray]:
    """The ``pttrf`` factors of the interior block of lead - dt L_a, given
    its face weights w; ``lead`` is one number or one per interior row.
    ``head`` = (k, d, e) holds the factors of a matrix with the same rows
    up to row k: those rows keep them, and ``pttrf`` runs from row k on,
    with d[k] as its first pivot, which is what it computes there."""
    k = head[0] if head else 0
    diag = (lead[k:] if head else lead) - w[k + 1:]
    diag -= w[k:-1]
    if head:
        diag[0] = head[1][k]
    d, e, info = _PTTRF(diag, w[k + 1:-1], overwrite_d=1)
    if info != 0:
        raise StabilityViolationError(
            f"diffusion factorization failed (LAPACK info = {info + k if info > 0 else info})")
    if head:
        d, e = np.concatenate((head[1][:k], d)), np.concatenate((head[2][:k], e))
    return d, e


def step(run: PdeRun, cm: CanonicalModel, dt_limit: float | None = None) -> PdeRun:
    """Advance one linearly implicit step; mutates and returns ``run``.

    ``dt_limit`` additionally caps the step (`evolve` lands on its end time
    with it); it must be positive, and the reaction-slope cap always
    applies.  The new state is a fresh array, so a caller holding the old
    ``run.state`` keeps it.
    """
    m, p, q = _coefficients(cm)
    if dt_limit is not None and not dt_limit > 0.0:
        raise InvalidParameterError(f"dt_limit must be positive, got {dt_limit!r}")
    u = run.state
    dx = run.dx
    dt = run.cfl * H * dx
    history = run._history
    # the last step's maximum holds while run.state is the array it produced
    ours = history is not None and history[1] is u
    u_top = history[4] if ours else float(u.max())
    if u_top >= U_FLOOR:
        slope = abs(p * u_top ** (p - 1.0) - q * u_top ** (q - 1.0))
        if slope > 0.0:
            dt = min(dt, 0.5 / slope)
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    if not dt > 0.0:
        raise StabilityViolationError(f"no positive step available (dt = {dt!r})")

    # dt R on the interior; nodes below U_FLOOR contribute nothing (p > q >= 0
    # keeps u^p finite)
    ui = u[1:-1]
    r = _pow(ui, p) - _pow(ui, q)
    r[ui < U_FLOOR] = 0.0
    r *= dt
    # every row solves lead u_new - dt L_a u_new = s in increment form,
    # (lead - dt L_a) delta = b + dt L_a u with b = s - lead u: a BE row has
    # lead 1 and s = max(u + dt R, 0), an SBDF2 row lead 3/2 and
    # s = 2u - u_prev/2 + dt (2R - R_prev)
    key = (m, p, q, dt, dx, run.n_cells)
    u_a = u
    switched = 0
    # the first k rows are those of the uniform lead-3/2 matrix of m = 1,
    # whose factors the run keeps (see the module docstring)
    k = 0
    if ours and history[0] == key:
        u_prev, r_prev = history[2], history[3]
        b = ui - u_prev[1:-1]
        b *= 0.5
        b += 2.0 * r
        b -= r_prev
        # the positivity rule: a row whose SBDF2 right-hand side 3u/2 + b is
        # negative is a BE row (for doubles, fl(x + y) < 0 exactly when y < -x)
        rows = (b < -1.5 * ui).nonzero()[0]
        switched = len(rows)
        lead, clips = 1.5, 0
        if switched:
            r_be, floor_be = r[rows], -ui[rows]
            clips = int(np.count_nonzero(r_be < floor_be))
            b[rows] = np.maximum(r_be, floor_be)
            lead = np.full(len(ui), 1.5)
            lead[rows] = 1.0
        if m != 1.0:
            u_a = np.maximum(2.0 * u - u_prev, 0.0)
        else:
            k = int(rows[0]) if switched else len(ui)
    else:
        # the first step, and every restart, is BE throughout
        b = np.maximum(r, -ui)
        lead = 1.0
        clips = int(np.count_nonzero(r < -ui))

    size = (dt, dx, run.n_cells)
    fresh = k < len(ui)
    if k and run._factors[0] != size:
        w = _faces(u, m, dt, dx)
        run._factors = (size, w, *_factor(w, 1.5))
        fresh = True
    if k:
        _, w, d, e = run._factors
    else:
        w = _faces(u_a, m, dt, dx)
    if k < len(ui):
        d, e = _factor(w, lead, (k - 1, d, e) if k else None)

    flux = u[1:] - u[:-1]
    flux *= w
    rhs = flux[:-1] - flux[1:]
    rhs += b
    delta, info = _PTTRS(d, e, rhs, overwrite_b=1)
    if info != 0:
        raise StabilityViolationError(f"diffusion solve failed (LAPACK info = {info})")
    u_new = np.empty_like(u)
    np.add(ui, delta, out=u_new[1:-1])
    u_new[0], u_new[-1] = run.bc

    # NaN propagates through min and max, so these reductions carry the
    # finiteness, negativity and blow-up guards; every right-hand side is
    # non-negative and the matrix is an M-matrix, so only roundoff can dip,
    # and only then (or at a -0.0) does the clamp act
    low = float(u_new.min())
    high = float(u_new.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise StabilityViolationError("non-finite values appeared in the state")
    if low < -1e-12:
        raise NegativityError(f"state dipped to {low:.3e} before clamping")
    if high > U_MAX:
        raise StabilityViolationError(
            f"state reached {high:.3g}, beyond the blow-up guard {U_MAX}")
    if not low > 0.0:
        np.maximum(u_new, 0.0, out=u_new)

    run.state = u_new
    run.time += dt
    run.dt = dt
    run.steps += 1
    run.dt_min = min(run.dt_min, dt)
    run.dt_max = max(run.dt_max, dt)
    run.min_before_clamp = min(run.min_before_clamp, low)
    run.limiter_clips += clips
    run.positivity_fallbacks += switched
    run.factorizations += fresh
    run._history = (key, u_new, u, r, high)
    return run


def front_position(x: np.ndarray, u: np.ndarray, level: float,
                   work: np.ndarray | None = None) -> float | None:
    """x of the unique level crossing of a finite u, by linear interpolation.

    Returns None when the level set is absent, nan when it is crossed more
    than once (the front is then not monotone at this record).  A crossing
    is a node where u equals the level or a cell whose ends lie strictly on
    either side of it.  ``work``, a boolean array of shape (2, len(u)), is
    scratch space that a caller tracking many records can reuse.
    """
    if work is None:
        work = np.empty((2, len(u)), dtype=bool)
    above, flips = work[0], work[1, :-1]
    np.greater(u, level, out=above)
    np.not_equal(above[1:], above[:-1], out=flips)
    cells = flips.nonzero()[0]
    n_flips = len(cells)
    hits = np.equal(u, level, out=above)
    n_hits = int(np.count_nonzero(hits))
    if n_hits == 0:
        if n_flips != 1:
            return None if n_flips == 0 else math.nan
        i = int(cells[0])
        d0, d1 = u[i] - level, u[i + 1] - level
        w = d0 / (d0 - d1)
        return float(x[i] + w * (x[i + 1] - x[i]))
    if n_hits > 1:
        return math.nan
    # a flip on either side of the hit node is that node's own crossing
    j = int(np.argmax(hits))
    n_flips -= int(j > 0 and flips[j - 1]) + int(j < len(flips) and flips[j])
    return float(x[j]) if n_flips == 0 else math.nan


def evolve(run: PdeRun, cm: CanonicalModel, T: float, *,
           snapshot_times=()) -> list[tuple[float, np.ndarray]]:
    """Step ``run`` to time T, recording the front (the ``FRONT_LEVEL`` level
    set) after every step and the requested snapshots.

    Every step but the last is full size; a snapshot due inside a step is
    interpolated linearly between the states at its ends, so snapshots do
    not change the steps taken.  A tracked front that comes within
    ``BOUNDARY_GUARD_CELLS`` cells of a boundary raises DomainTooSmall; a
    T that is not finite or lies before ``run.time``, and a snapshot time
    that is NaN or outside [run.time, T], are refused before any step.  The
    front is recorded at the start too, unless the track already ends at
    ``run.time`` (a run evolved before), so the track holds one record per
    time.
    """
    if not run.time <= T < math.inf:
        raise InvalidParameterError(f"target time {T!r} must be finite and at least {run.time}")
    snaps_pending = sorted(float(t) for t in snapshot_times)
    for t in snaps_pending:
        if not run.time - 1e-12 <= t <= T + 1e-12:
            raise InvalidParameterError(f"snapshot time {t} outside [{run.time}, {T}]")
    x = run.x
    dx = run.dx
    out: list[tuple[float, np.ndarray]] = []
    work = np.empty((2, len(x)), dtype=bool)

    lo = run.x_min + BOUNDARY_GUARD_CELLS * dx
    hi = run.x_max - BOUNDARY_GUARD_CELLS * dx

    def record():
        pos = front_position(x, run.state, FRONT_LEVEL, work)
        run.front_track.append((run.time, math.nan if pos is None else pos))
        # a nan position (crossed more than once) compares false
        if pos is not None and (pos < lo or pos > hi):
            span = run.x_max - run.x_min
            raise DomainTooSmallError(
                f"front at x = {pos:.4g} is within {BOUNDARY_GUARD_CELLS} cells of "
                f"the boundary [{run.x_min:.4g}, {run.x_max:.4g}]",
                suggestion=(run.x_min - 0.5 * span, run.x_max + 0.5 * span))

    def snapshot(before=None, t_before=None):
        # a snapshot due inside the last step is the linear interpolant of
        # the states at its ends, second order like the step, so snapshots
        # never shorten a step or restart the scheme
        while snaps_pending and run.time >= snaps_pending[0] - 1e-12:
            t = snaps_pending.pop(0)
            if before is None or t >= run.time - 1e-12:
                out.append((run.time, run.state.copy()))
            else:
                theta = (t - t_before) / (run.time - t_before)
                out.append((t, before + theta * (run.state - before)))

    if not run.front_track or run.front_track[-1][0] != run.time:
        record()
    snapshot()
    while run.time < T - 1e-12:
        before, t_before = run.state, run.time
        step(run, cm, dt_limit=T - run.time)
        record()
        snapshot(before, t_before)
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
    if not threshold >= U_FLOOR:
        raise InvalidParameterError(f"threshold must be at least {U_FLOOR}, got {threshold!r}")
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
    front-fitted speed (None signals no measurable front); ``run`` carries
    the domain and the step diagnostics (see `PdeRun`)."""

    max_error: float
    measured_speed: float | None
    checkpoints: tuple[tuple[float, float], ...]
    run: PdeRun
    snapshots: tuple[tuple[float, np.ndarray], ...] = ()


def advect_profile_test(profile: WaveProfile, cm: CanonicalModel, T: float, *,
                        n_cells: int = 4000, cfl: float = 0.9,
                        domain: tuple[float, float] | None = None,
                        snapshot_times=()) -> AdvectResult:
    """Evolve u(x,0) = f(x) to time T and compare against f(x - ct).

    The domain defaults to the profile's span padded for the motion c T plus
    a safety margin; pass ``domain`` to override (a front straying within 10
    cells of a boundary raises DomainTooSmall with a widened suggestion).  A
    profile with a non-finite xi or f, or without a finite speed c < 0 (no
    wave moves otherwise), is refused before the run is built, and a
    snapshot time that is NaN or outside [0, T] before the first step.

    The plateau behind the front sits at an unstable state of the reaction,
    so any shortfall 1 - f at the profile's left end grows like
    exp((p - q) T) during the run.  For grid-convergence measurements shoot
    the profile with a tighter arrival radius (say 1e-9) so this floor stays
    below the scheme error; the default radius is fine for shape checks.
    """
    if not 0.0 <= T < math.inf:
        raise InvalidParameterError(f"T must be finite and non-negative, got {T!r}")
    xi, f = profile.xi, profile.f
    for name, values in (("xi", xi), ("f", f)):
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError(
                f"profile {name} has non-finite values; only a finite profile "
                "can be advected")
    c = float(profile.c)
    if not -math.inf < c < 0.0:
        raise InvalidParameterError(f"a wave profile has a finite speed c < 0, got c = {c!r}")
    f_left, f_right = float(f[0]), float(f[-1])

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
    # at T = 0 every checkpoint is the initial state, whose error is 0
    times = [T * (i + 1) / N_CHECKPOINTS for i in range(N_CHECKPOINTS)]
    wanted = sorted(float(t) for t in snapshot_times)

    checkpoints: list[tuple[float, float]] = []
    kept: list[tuple[float, np.ndarray]] = []
    recorded = evolve(run, cm, T, snapshot_times=sorted(set(times) | set(wanted)))
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
                        checkpoints=tuple(checkpoints), run=run,
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
    xi, f = profile.xi, profile.f
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
