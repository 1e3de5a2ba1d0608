"""Shooting computation of the wave-generating heteroclinic orbit.

The connecting orbit leaves the Y-axis equilibrium (P0 in Case I, the
positive-Y axis point in Case II) and falls into P2 = (1, 0).  Its departure
end is transversally stable, so the orbit is computed by integrating forward
from a seed displaced eps along the local departure direction; tracing
"backward from P2" is exposed as the same orbit re-parametrized from its P2
end, because direct backward integration out of the attracting node amplifies
transverse error like exp(c |tau|) and never finds the axis point.

LSODA does the integration: the forward orbit spends tau ~ c/(gamma eps)
drifting along the center manifold near P0 with a stiffness-limited explicit
step, which a fixed Runge-Kutta pair cannot afford at eps = 1e-6.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    InconclusiveError,
    InsufficientTailError,
    InvalidParameterError,
    NoIntersectionError,
    NotAConnectionError,
    SeedFailureError,
    StepFailureError,
)
from .model import CanonicalModel, SpeedClass, classify_speed, critical_speed
from .phaseplane import (
    FixedPointKind,
    PhaseSystem,
    PhaseSystemI,
    PhaseSystemII,
    axis_equilibria,
    build_system,
    fixed_points,
    zero_speed_curve,
)

log = logging.getLogger(__name__)

__all__ = [
    "Point",
    "Direction",
    "EventKind",
    "TrajectoryEvent",
    "Trajectory",
    "WaveProfile",
    "ConnectionResult",
    "shoot_from",
    "first_X_axis_intersection",
    "x0_monotonicity_check",
    "classify_connection",
    "reconstruct_profile",
    "detect_finite_propagation",
    "threshold_crossings",
    "x0_seed_sensitivity",
]

DEFAULT_EPS = 1e-6
ARRIVAL_RADIUS = 1e-5
ESCAPE_BOUND = 50.0
TAU_SPAN = 1e9
GRAZE_TOL = 1e-6          # |X-1| below this does not count as an oscillation
LOW_CONFIDENCE_BAND = 1e-3  # |c - c*| band where the class is flagged


class Point(Enum):
    P0 = "P0"
    P1 = "P1"
    P2 = "P2"


class Direction(Enum):
    FORWARD = "Forward"
    BACKWARD = "Backward"


class EventKind(str, Enum):
    X_AXIS_CROSS = "XAxisCross"
    Y_AXIS_CROSS = "YAxisCross"
    UNIT_X_CROSS = "UnitXCross"
    ESCAPE = "Escape"
    FIXED_POINT_ARRIVAL = "FixedPointArrival"


@dataclass(frozen=True)
class TrajectoryEvent:
    kind: EventKind
    index: int                   # insertion index into the sample arrays
    tau: float
    state: tuple[float, float]
    target: str | None = None    # fixed-point name for arrivals


class _NordsieckTable:
    """LSODA dense output of a whole shot as one zero-padded coefficient table.

    Step n's interpolant is the Nordsieck polynomial sum_k yh[:, k] s^k,
    s = (t - t_n) / h, about the step's end t_n (Petzold 1983).  As in the
    OdeSolution solve_ivp builds for LSODA, a breakpoint belongs to the step
    that starts there.
    """

    def __init__(self, sol):
        steps = sol.interpolants
        self.ts = np.asarray(sol.ts, dtype=float)
        self.t_end = np.array([s.t for s in steps], dtype=float)
        self.h = np.array([s.h for s in steps], dtype=float)
        order = max(len(s.p) for s in steps)
        self.coef = np.zeros((order, steps[0].yh.shape[0], len(steps)))
        for j, s in enumerate(steps):
            self.coef[:len(s.p), :, j] = s.yh.T

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.h) - 1)
        s = (t - self.t_end[j]) / self.h[j]
        y = self.coef[-1].take(j, axis=1)
        for c in self.coef[-2::-1]:
            y *= s
            y += c.take(j, axis=1)
        return y


@dataclass
class Trajectory:
    """Integrated orbit samples, strictly increasing in tau, all X >= 0.

    ``c`` is the speed parameter of the system's own frame (c in Case I,
    c1 in Case II).  ``state_at`` evaluates the integrator's dense output.
    """

    tau: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    events: list[TrajectoryEvent]
    seed: tuple[float, float]
    seed_note: str
    c: float
    arrived: str | None
    escaped: bool
    arrival_radius: float = ARRIVAL_RADIUS
    _dense: object = field(default=None, repr=False)
    _dense_sign: float = field(default=1.0, repr=False)
    _dense_shift: float = field(default=0.0, repr=False)

    @cached_property
    def _nordsieck(self) -> _NordsieckTable:
        if self._dense is None:
            raise InvalidParameterError("trajectory carries no dense output")
        return _NordsieckTable(self._dense)

    def state_at(self, tau):
        """Dense-output states at the given presented-tau values.

        The integrator's dense output is evaluated as one vectorized Nordsieck
        table, built on the first call.
        """
        sigma = self._dense_sign * np.asarray(tau, dtype=float) + self._dense_shift
        out = self._nordsieck(sigma)
        return out[0], out[1]


@dataclass
class WaveProfile:
    """Wave profile f(xi) presented with its original (negative) speed.

    xi increases left to right; f runs from ~1 (behind the front, xi -> -inf)
    to ~0 ahead of it.  overshoot_extrema lists (xi, f) of the measured
    |f - 1| extrema for oscillatory profiles.
    """

    xi: np.ndarray
    f: np.ndarray
    c: float
    classification: SpeedClass
    overshoot_extrema: tuple[tuple[float, float], ...] = ()
    support_edge: float | None = None


@dataclass(frozen=True)
class ConnectionResult:
    """Outcome of classify_connection: predicted vs observed class plus the
    trajectory evidence.

    ``evidence`` records how the class was decided: "extrema" (measured
    X = 1 overshoots), "range" (X confined to [0, 1] into a node), "focus"
    (no overshoot resolved above the arrival radius, but the orbit entered a
    non-degenerate stable focus, whose local form forces crossings below the
    truncation scale), or "sign" (non-negative speed, no wave exists).
    """

    c: float
    predicted: SpeedClass
    observed: SpeedClass
    low_confidence: bool
    n_oscillations: int
    extrema: tuple[tuple[float, float], ...]   # (tau, X) at Y = 0 crossings
    trajectory: Trajectory | None
    x0: float | None
    evidence: str = "extrema"


# --- system geometry helpers -------------------------------------------------

def _system_speed(sys: PhaseSystem) -> float:
    return sys.c if isinstance(sys, PhaseSystemI) else sys.c1


def _fixed_point_locations(sys: PhaseSystem) -> dict[str, tuple[float, float]]:
    if isinstance(sys, PhaseSystemI):
        pts = {"P0": (0.0, 0.0), "P2": (1.0, 0.0)}
        if sys.c > 0.0:
            pts["P1"] = (0.0, -sys.c)
        return pts
    y_plus, y_minus = axis_equilibria(sys)
    return {"P0": (0.0, y_plus), "P1": (0.0, y_minus), "P2": (1.0, 0.0)}


def _make_rhs(sys: PhaseSystem):
    if isinstance(sys, PhaseSystemI):
        g, k, c = sys.gamma, sys.k, sys.c

        def rhs(X: float, Y: float) -> tuple[float, float]:
            Xk = X ** k if X > 0.0 else 0.0
            Xp = X if X > 0.0 else 0.0
            return g * Xp * Y, -Y * (Y + c) + Xp - Xk

        return rhs
    g, k1, k2, c1 = sys.gamma, sys.k1, sys.k2, sys.c1

    def rhs(X: float, Y: float) -> tuple[float, float]:
        Xp = X if X > 0.0 else 0.0
        Xk1 = 1.0 if k1 == 0.0 else (Xp ** k1 if Xp > 0.0 else 0.0)
        Xk2 = Xp ** k2 if Xp > 0.0 else 0.0
        return g * Xp * Y, -Y * (Y + c1 * Xk1) + 1.0 - Xk2

    return rhs


def _eigvec_lower_triangular(lam: float, d: float, j21: float) -> np.ndarray:
    # eigenvector of [[lam, 0], [j21, d]] for eigenvalue lam (lam != d)
    v = np.array([d - lam, -j21], dtype=float)
    n = float(np.hypot(v[0], v[1]))
    if n == 0.0:
        raise SeedFailureError("degenerate eigenvector")
    v /= n
    if v[0] < 0.0:
        v = -v
    return v


def _axis_linearization(sys: PhaseSystemII, y0: float) -> tuple[float, float, float]:
    """(lambda_transverse, dQ/dY, dQ/dX) at the axis equilibrium (0, y0)."""
    lam = sys.gamma * y0
    d = -2.0 * y0 - (sys.c1 if sys.k1 == 0.0 else 0.0)
    j21 = 0.0
    if sys.k1 == 1.0:
        j21 -= sys.c1 * y0
    if sys.k2 == 1.0:
        j21 -= 1.0
    return lam, d, j21


def _seed_state(sys: PhaseSystem, point: Point, direction: Direction,
                eps: float) -> tuple[np.ndarray, str]:
    """Seed position and a human-readable note for the supported shots."""
    if point is Point.P0 and direction is Direction.FORWARD:
        if isinstance(sys, PhaseSystemI):
            if sys.c > 0.0:
                v = np.array([sys.c, 1.0]) / math.hypot(sys.c, 1.0)
                return eps * v, (
                    "P0 forward: seeded eps along the center direction Y = X/c "
                    "(the departure branch of the saddle-node)"
                )
            y2 = zero_speed_curve(sys, eps)
            if y2 <= 0.0:
                raise SeedFailureError("zero-speed curve has no real branch at the seed offset")
            return np.array([eps, math.sqrt(y2)]), (
                "P0 forward at c = 0: seeded on the explicit trajectory "
                "Y^2 = 2X/(2+gamma) - 2X^k/(2+gamma k)"
            )
        y_plus, _ = axis_equilibria(sys)
        lam, d, j21 = _axis_linearization(sys, y_plus)
        v = _eigvec_lower_triangular(lam, d, j21)
        return np.array([0.0, y_plus]) + eps * v, (
            f"axis point (0, {y_plus:.6g}) forward: seeded eps along the "
            "unstable eigenvector"
        )
    if point is Point.P1 and direction is Direction.BACKWARD:
        if isinstance(sys, PhaseSystemI):
            if sys.c <= 0.0:
                raise SeedFailureError("P1 coincides with P0 at c = 0; no separatrix to trace")
            v = np.array([sys.c * (1.0 + sys.gamma), -1.0])
            v /= float(np.hypot(v[0], v[1]))
            return np.array([0.0, -sys.c]) + eps * v, (
                "P1 backward: seeded eps along the stable eigenvector "
                "(traces the separatrix arriving at P1 into its past)"
            )
        _, y_minus = axis_equilibria(sys)
        lam, d, j21 = _axis_linearization(sys, y_minus)
        v = _eigvec_lower_triangular(lam, d, j21)
        return np.array([0.0, y_minus]) + eps * v, (
            f"axis point (0, {y_minus:.6g}) backward: seeded eps along the "
            "stable eigenvector"
        )
    if point is Point.P2 and direction is Direction.FORWARD:
        return np.array([1.0 - eps, 0.0]), (
            "P2 forward: orbit through a point eps left of the attractor; "
            "degenerate by construction (stays near P2)"
        )
    raise SeedFailureError(
        f"no admissible local direction for {point.value} {direction.value}: "
        "the invariant manifolds reachable from that end are the Y axis itself "
        "(supported shots: P0 Forward, P1 Backward, P2 Backward, P2 Forward)"
    )


# --- integration core --------------------------------------------------------

def _integrate(sys: PhaseSystem, s0: np.ndarray, *, backward: bool,
               rtol: float, atol: float, tau_span: float,
               arrival_radius: float, escape_bound: float,
               terminal_x_axis: bool) -> tuple[dict, object]:
    rhs = _make_rhs(sys)
    sign = -1.0 if backward else 1.0

    def fun(_t, s):
        dx, dy = rhs(s[0], s[1])
        return (sign * dx, sign * dy)

    fps = _fixed_point_locations(sys)
    names: list[str] = []
    evts: list = []

    def arrival_event(x0: float, y0: float):
        def ev(_t, s):
            return math.hypot(s[0] - x0, s[1] - y0) - arrival_radius
        ev.terminal = True
        ev.direction = -1  # only fires on entry; a seed inside never re-triggers on exit
        return ev

    for name, (x0, y0) in fps.items():
        names.append(name)
        evts.append(arrival_event(x0, y0))

    def escape(_t, s):
        return max(s[0] - escape_bound, abs(s[1]) - escape_bound)
    escape.terminal = True
    escape.direction = 1
    evts.append(escape)

    def x_axis(_t, s):
        return s[1]
    x_axis.terminal = terminal_x_axis
    evts.append(x_axis)

    def unit_x(_t, s):
        return s[0] - 1.0
    evts.append(unit_x)

    def y_axis(_t, s):
        return s[0]
    y_axis.direction = -1
    evts.append(y_axis)

    sol = solve_ivp(fun, (0.0, tau_span), s0, method="LSODA",
                    rtol=rtol, atol=atol, dense_output=True, events=evts)
    if sol.status == -1:
        raise StepFailureError(f"integrator failed: {sol.message}")

    n_fp = len(names)
    raw_events: list[tuple[EventKind, float, tuple[float, float], str | None]] = []
    for i, (t_ev, y_ev) in enumerate(zip(sol.t_events, sol.y_events)):
        for t_e, s_e in zip(t_ev, y_ev):
            tau_e = sign * t_e
            state = (float(s_e[0]), float(s_e[1]))
            if i < n_fp:
                raw_events.append((EventKind.FIXED_POINT_ARRIVAL, tau_e, state, names[i]))
            elif i == n_fp:
                raw_events.append((EventKind.ESCAPE, tau_e, state, None))
            elif i == n_fp + 1:
                raw_events.append((EventKind.X_AXIS_CROSS, tau_e, state, None))
            elif i == n_fp + 2:
                raw_events.append((EventKind.UNIT_X_CROSS, tau_e, state, None))
            else:
                raw_events.append((EventKind.Y_AXIS_CROSS, tau_e, state, None))

    tau = sign * sol.t
    X, Y = sol.y[0], sol.y[1]
    if backward:
        tau, X, Y = tau[::-1].copy(), X[::-1].copy(), Y[::-1].copy()
    return {
        "tau": tau, "X": X, "Y": Y, "raw_events": raw_events,
        "status": sol.status, "message": sol.message,
    }, sol.sol


def shoot_from(sys: PhaseSystem, point: Point, direction: Direction,
               eps: float = DEFAULT_EPS, *, rtol: float = 1e-10,
               atol: float = 1e-10, tau_span: float = TAU_SPAN,
               arrival_radius: float = ARRIVAL_RADIUS,
               escape_bound: float = ESCAPE_BOUND) -> Trajectory:
    """Integrate the orbit attached to a fixed point.

    Supported shots: (P0, Forward) for the connecting orbit's departure,
    (P1, Backward) for the separatrix arriving at P1, (P2, Backward) for the
    connection traced from its P2 end, and (P2, Forward) as a degenerate
    near-P2 arc.  Events record X-axis / X = 1 / Y-axis crossings, escape
    beyond ``escape_bound`` and arrival within ``arrival_radius`` of a fixed
    point; arrival and escape stop the integration.

    At c = 0 in Case I the shot terminates at the first X-axis crossing: the
    orbit is symmetric under (Y, tau) -> (-Y, -tau) there, and following the
    mirror half numerically runs into the fully degenerate origin.

    Returned samples ascend in tau with the flow; Backward shots cover the
    seed's past, tau in [-T, 0].
    """
    if not (eps > 0.0) or eps > 1e-2:
        raise InvalidParameterError(f"seed offset eps must lie in (0, 1e-2], got {eps!r}")

    if point is Point.P2 and direction is Direction.BACKWARD:
        base = shoot_from(sys, Point.P0, Direction.FORWARD, eps, rtol=rtol,
                          atol=atol, tau_span=tau_span,
                          arrival_radius=arrival_radius, escape_bound=escape_bound)
        if base.arrived != "P2":
            raise InconclusiveError(
                "the connecting orbit from the axis point did not reach P2 "
                f"(arrived={base.arrived!r}, escaped={base.escaped}); cannot "
                "present it as a backward trace from P2"
            )
        T = float(base.tau[-1])
        events = [replace(ev, tau=ev.tau - T) for ev in base.events]
        return Trajectory(
            tau=base.tau - T, X=base.X, Y=base.Y, events=events,
            seed=(float(base.X[-1]), float(base.Y[-1])),
            seed_note=(
                "P2 backward: same orbit as the P0-forward shot, "
                "re-parametrized with tau = 0 at the P2 end (direct backward "
                "integration out of the attracting point is exponentially "
                "unstable and never reaches the axis)"
            ),
            c=base.c, arrived="P0", escaped=False,
            arrival_radius=arrival_radius,
            _dense=base._dense, _dense_sign=1.0, _dense_shift=T,
        )

    s0, note = _seed_state(sys, point, direction, eps)
    backward = direction is Direction.BACKWARD
    terminal_x_axis = (
        isinstance(sys, PhaseSystemI) and sys.c == 0.0
        and point is Point.P0 and direction is Direction.FORWARD
    )
    res, dense = _integrate(
        sys, s0, backward=backward, rtol=rtol, atol=atol, tau_span=tau_span,
        arrival_radius=arrival_radius, escape_bound=escape_bound,
        terminal_x_axis=terminal_x_axis,
    )
    tau, X, Y = res["tau"], res["X"], res["Y"]
    if np.min(X) < -1e-9:
        raise StepFailureError(f"integration left the half-plane (min X = {np.min(X):.3e})")
    X = np.maximum(X, 0.0)

    events = [
        TrajectoryEvent(kind=k, index=int(np.searchsorted(tau, t)), tau=float(t),
                        state=s, target=tgt)
        for (k, t, s, tgt) in res["raw_events"]
    ]

    arrived = None
    escaped = False
    for ev in events:
        if ev.kind is EventKind.FIXED_POINT_ARRIVAL:
            arrived = ev.target
        elif ev.kind is EventKind.ESCAPE:
            escaped = True

    # mark asymptotic attachment at both ends where the event functions never
    # fire (the seed starts inside its own arrival ball; a forward P2 shot
    # never leaves it)
    fps = _fixed_point_locations(sys)
    seed_idx = len(tau) - 1 if backward else 0
    far_idx = 0 if backward else len(tau) - 1
    seed_name = point.value if point.value in fps else None
    if seed_name is not None:
        x0, y0 = fps[seed_name]
        # the seed is placed ~eps from its fixed point on purpose, so attach it
        # even when the caller asked for an arrival ball tighter than eps
        seed_ball = max(arrival_radius, 2.0 * eps)
        if math.hypot(X[seed_idx] - x0, Y[seed_idx] - y0) <= seed_ball:
            events.append(TrajectoryEvent(
                kind=EventKind.FIXED_POINT_ARRIVAL, index=seed_idx,
                tau=float(tau[seed_idx]), state=(float(X[seed_idx]), float(Y[seed_idx])),
                target=seed_name))
    if arrived is None:
        for name, (x0, y0) in fps.items():
            if math.hypot(X[far_idx] - x0, Y[far_idx] - y0) <= arrival_radius:
                events.append(TrajectoryEvent(
                    kind=EventKind.FIXED_POINT_ARRIVAL, index=far_idx,
                    tau=float(tau[far_idx]), state=(float(X[far_idx]), float(Y[far_idx])),
                    target=name))
                arrived = name
                break

    events.sort(key=lambda e: (e.tau, e.kind.value))
    traj = Trajectory(
        tau=tau, X=X, Y=Y, events=events,
        seed=(float(s0[0]), float(s0[1])), seed_note=note,
        c=_system_speed(sys), arrived=arrived, escaped=escaped,
        arrival_radius=arrival_radius,
        _dense=dense, _dense_sign=-1.0 if backward else 1.0, _dense_shift=0.0,
    )
    log.debug("shoot %s %s eps=%g: %d samples, arrived=%s escaped=%s",
              point.value, direction.value, eps, len(tau), arrived, escaped)
    return traj


# --- measurements on trajectories --------------------------------------------

def first_X_axis_intersection(traj: Trajectory) -> float:
    """X at the first Y = 0 crossing with X > 0: the turning point X0.

    A trajectory entering the node at P2 directly from above never crosses;
    the crossing then degenerates to P2 itself and 1.0 is returned.
    """
    for ev in traj.events:
        if ev.kind is EventKind.X_AXIS_CROSS and ev.state[0] > 1e-8:
            x0 = float(ev.state[0])
            if x0 < 1.0 - 1e-3:
                raise InconclusiveError(
                    f"first X-axis intersection at X = {x0!r} < 1 contradicts C2; "
                    "integration accuracy is suspect"
                )
            return x0
    touches_p2 = traj.arrived == "P2" or any(
        ev.kind is EventKind.FIXED_POINT_ARRIVAL and ev.target == "P2"
        for ev in traj.events)
    if touches_p2:
        return 1.0
    raise NoIntersectionError(
        f"no X-axis crossing recorded and the trajectory did not reach P2 "
        f"(arrived={traj.arrived!r}, escaped={traj.escaped})"
    )


def x0_monotonicity_check(cm: CanonicalModel, speeds, eps: float = DEFAULT_EPS,
                          **shoot_kw) -> list[tuple[float, float]]:
    """X0 for each c in ``speeds`` (non-negative, increasing).

    The turning point X0(c) is non-increasing in c and starts from the closed
    form at c = 0; this returns the measurements and leaves assertions to the
    caller.
    """
    speeds = [float(c) for c in speeds]
    if any(c < 0.0 for c in speeds):
        raise InvalidParameterError("speeds must be non-negative")
    if any(b <= a for a, b in zip(speeds, speeds[1:])):
        raise InvalidParameterError("speeds must be strictly increasing")
    out = []
    for c in speeds:
        sys = build_system(cm, c)
        traj = shoot_from(sys, Point.P0, Direction.FORWARD, eps, **shoot_kw)
        out.append((c, first_X_axis_intersection(traj)))
    return out


def x0_seed_sensitivity(sys: PhaseSystem, eps: float = DEFAULT_EPS, **shoot_kw) -> float:
    """|X0(eps) - X0(eps/2)|: the built-in seed convergence diagnostic."""
    a = first_X_axis_intersection(shoot_from(sys, Point.P0, Direction.FORWARD, eps, **shoot_kw))
    b = first_X_axis_intersection(shoot_from(sys, Point.P0, Direction.FORWARD, eps / 2.0, **shoot_kw))
    return abs(a - b)


def _qualifying_extrema(traj: Trajectory) -> list[tuple[float, float]]:
    # Y = 0 crossings are exactly the X extrema (X' = gamma X Y); an extremum
    # counts as an oscillation only if |X - 1| clears the grazing guard
    out = []
    for ev in traj.events:
        if ev.kind is EventKind.X_AXIS_CROSS and ev.state[0] > 1e-8:
            if abs(ev.state[0] - 1.0) > GRAZE_TOL:
                out.append((ev.tau, float(ev.state[0])))
    return out


def classify_connection(cm: CanonicalModel, c_original: float,
                        eps: float = DEFAULT_EPS, **shoot_kw) -> ConnectionResult:
    """Measure the wave class for an original-frame speed.

    c_original >= 0 carries no wave.  For c_original < 0 the mirrored system
    at c = |c_original| is shot backward from P2 (see shoot_from); the orbit
    is Monotone when X never leaves [0, 1] and crosses neither axis line,
    Oscillatory when X = 1 crossings occur with measurable |X - 1| extrema.
    """
    predicted = classify_speed(cm, c_original)
    if c_original >= 0.0:
        return ConnectionResult(
            c=float(c_original), predicted=predicted, observed=SpeedClass.NO_WAVE,
            low_confidence=False, n_oscillations=0, extrema=(),
            trajectory=None, x0=None, evidence="sign")

    c = abs(float(c_original))
    sys = build_system(cm, c)
    traj = shoot_from(sys, Point.P2, Direction.BACKWARD, eps, **shoot_kw)
    if traj.arrived != "P0":
        raise InconclusiveError(
            f"trajectory for c = {c_original} neither reached P0 nor classified "
            f"(arrived={traj.arrived!r}, escaped={traj.escaped})")

    extrema = _qualifying_extrema(traj)
    x_max = float(np.max(traj.X))
    if extrema:
        observed, evidence = SpeedClass.OSCILLATORY, "extrema"
    else:
        p2 = next(fp for fp in fixed_points(sys) if fp.name == "P2")
        if p2.kind is FixedPointKind.STABLE_FOCUS and not p2.degenerate:
            # the orbit hit the arrival ball before its first X = 1 crossing;
            # inside the ball the hyperbolic focus forces the crossings the
            # truncation hid, so the wave still oscillates
            observed, evidence = SpeedClass.OSCILLATORY, "focus"
        elif x_max <= 1.0 + GRAZE_TOL:
            observed, evidence = SpeedClass.MONOTONE, "range"
        else:
            raise InconclusiveError(
                f"X exceeds 1 (max {x_max}) without a recorded extremum; "
                "no classifiable pattern")
    try:
        x0 = first_X_axis_intersection(traj)
    except NoIntersectionError:
        x0 = None
    low_confidence = abs(c - critical_speed(cm)) < LOW_CONFIDENCE_BAND
    return ConnectionResult(
        c=float(c_original), predicted=predicted, observed=observed,
        low_confidence=low_confidence, n_oscillations=len(extrema),
        extrema=tuple(extrema), trajectory=traj, x0=x0, evidence=evidence)


# --- profile reconstruction ---------------------------------------------------

_GL_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                      0.3399810435848563, 0.8611363115940526])
_GL_WEIGHTS = np.array([0.34785484513745385, 0.6521451548625461,
                        0.6521451548625461, 0.34785484513745385])


class _XiMap:
    """Arc-length-style map tau -> xi along a trajectory.

    xi accumulates pref * X(tau)^expo by 4-point Gauss quadrature on a table
    refined 4x beyond the solver's own steps; inversion is a vectorized
    Newton iteration (the density is strictly positive).
    """

    def __init__(self, traj: Trajectory, pref: float, expo: float):
        self.traj = traj
        self.pref = pref
        self.expo = expo
        knots = traj.tau
        quarters = np.arange(4) * (np.diff(knots) / 4.0)[:, None] + knots[:-1, None]
        fine = np.unique(np.append(quarters, knots[-1]))
        self.t = fine
        a, b = fine[:-1], fine[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        gvals = self._density(nodes).reshape(-1, 4)
        seg = half * (gvals @ _GL_WEIGHTS)
        self.xi = np.concatenate([[0.0], np.cumsum(seg)])

    def _density(self, tau):
        X, _ = self.traj.state_at(tau)
        X = np.maximum(np.asarray(X, dtype=float), 0.0)
        if self.expo == 0.0:
            return np.full_like(X, self.pref)
        return self.pref * X ** self.expo

    def value(self, tau):
        """xi at arbitrary tau (tau within the trajectory range)."""
        tau = np.asarray(tau, dtype=float)
        idx = np.clip(np.searchsorted(self.t, tau) - 1, 0, len(self.t) - 2)
        a = self.t[idx]
        half = 0.5 * (tau - a)
        mid = a + half
        nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        gvals = self._density(nodes).reshape(-1, 4)
        return self.xi[idx] + half * (gvals @ _GL_WEIGHTS)

    def invert(self, xi_target):
        """tau with value(tau) = xi_target, by Newton from a table estimate."""
        xi_target = np.asarray(xi_target, dtype=float)
        tau = np.interp(xi_target, self.xi, self.t)
        lo, hi = self.t[0], self.t[-1]
        for _ in range(6):
            g = np.maximum(self._density(tau), 1e-300)
            tau = np.clip(tau - (self.value(tau) - xi_target) / g, lo, hi)
        return tau


def _profile_exponents(sys: PhaseSystem, cm: CanonicalModel) -> tuple[float, float, float]:
    """(quadrature prefactor, quadrature exponent, f = X^fe exponent)."""
    if isinstance(sys, PhaseSystemI):
        return 1.0, (cm.m - 1.0) / sys.gamma, 1.0 / sys.gamma
    pref = math.sqrt(2.0 / cm.mq)
    return pref, (cm.m - cm.q) / (2.0 * sys.k), 1.0 / sys.k


def _end_targets(traj: Trajectory) -> tuple[str | None, str | None]:
    n = len(traj.tau)
    start = end = None
    for ev in traj.events:
        if ev.kind is not EventKind.FIXED_POINT_ARRIVAL:
            continue
        if ev.index <= 1 and start is None:
            start = ev.target
        if ev.index >= n - 2:
            end = ev.target
    return start, end


def reconstruct_profile(traj: Trajectory, sys: PhaseSystem, cm: CanonicalModel,
                        *, num_samples: int = 4001) -> WaveProfile:
    """Recover f(xi) from a connecting trajectory by quadrature.

    xi accumulates X^((m-1)/gamma) d tau in Case I and
    sqrt(2/(m+q)) X^((m-q)/(2k)) d tau in Case II; f = X^(1/gamma) resp.
    X^(1/k).  The profile is flipped to the original negative speed (the
    orbit was computed in the mirrored c > 0 frame) and shifted so f = 1/2
    at xi = 0 on the front's last downward crossing.  Samples come back on a
    uniform xi grid of ``num_samples`` points.
    """
    if num_samples < 9:
        raise InvalidParameterError("num_samples must be at least 9")
    c_wave = -_system_speed(sys) if isinstance(sys, PhaseSystemI) else \
        -_system_speed(sys) * math.sqrt(cm.mq / 2.0)
    start, end = _end_targets(traj)
    pref, expo, fe = _profile_exponents(sys, cm)

    p2 = (1.0, 0.0)
    if np.all(np.hypot(traj.X - p2[0], traj.Y - p2[1]) <= 10.0 * traj.arrival_radius):
        # degenerate fixture: an orbit pinned at P2 maps to the constant state
        xi = np.linspace(-1.0, 1.0, num_samples)
        return WaveProfile(xi=xi, f=np.ones_like(xi), c=c_wave,
                           classification=SpeedClass.NO_WAVE)

    if {start, end} != {"P0", "P2"}:
        raise NotAConnectionError(
            f"trajectory ends are attached to {start!r} and {end!r}; "
            "a profile needs the P0-P2 connection (or its reverse)")
    # samples always ascend from the P0 end toward P2 (a 'P2 backward' trace
    # is the same orbit re-parametrized), so no flip is needed here.  A slow
    # orbit can overflow the quadrature; refuse it here rather than run the
    # inversion on inf and NaN
    with np.errstate(over="ignore", invalid="ignore"):
        xi_map = _XiMap(traj, pref, expo)
    if not np.all(np.isfinite(xi_map.xi)):
        raise InconclusiveError(
            "profile reconstruction produced non-finite samples: the xi "
            "quadrature overflowed")

    # anchor: first upward crossing of f = 1/2, which the final flipped
    # presentation sees as the last downward crossing at the front
    x_half = 0.5 ** (1.0 / fe)
    above = np.nonzero(traj.X >= x_half)[0]
    if len(above) == 0 or above[0] == 0:
        raise NotAConnectionError("trajectory never crosses f = 1/2 from below")
    i1 = above[0]
    t_lo, t_hi = traj.tau[i1 - 1], traj.tau[i1]

    def half_defect(t):
        X, _ = traj.state_at(t)
        return float(X) - x_half

    tau_half = brentq(half_defect, t_lo, t_hi, xtol=1e-13)
    xi_half = float(xi_map.value(np.array([tau_half]))[0])

    xi_lo = float(xi_map.xi[0]) - xi_half
    xi_hi = float(xi_map.xi[-1]) - xi_half
    xi_fwd = np.linspace(xi_lo, xi_hi, num_samples)
    tau_grid = xi_map.invert(xi_fwd + xi_half)
    X_grid, _ = traj.state_at(tau_grid)
    X_grid = np.maximum(np.asarray(X_grid, dtype=float), 0.0)
    f_fwd = X_grid ** fe
    if not (np.all(np.isfinite(xi_fwd)) and np.all(np.isfinite(f_fwd))):
        raise InconclusiveError("profile reconstruction produced non-finite samples")

    # flip per the mirror symmetry: the wave moves with c_wave < 0
    xi = -xi_fwd[::-1]
    f = f_fwd[::-1].copy()
    f[0] = min(f[0], 1.0) if abs(f[0] - 1.0) < 1e-3 else f[0]

    extrema = []
    for (tau_e, x_e) in _qualifying_extrema(traj):
        xi_e = -(float(xi_map.value(np.array([tau_e]))[0]) - xi_half)
        extrema.append((xi_e, x_e ** fe))
    extrema.sort(key=lambda p: p[0])

    observed = SpeedClass.OSCILLATORY if extrema else SpeedClass.MONOTONE
    return WaveProfile(xi=xi, f=f, c=c_wave, classification=observed,
                       overshoot_extrema=tuple(extrema))


# --- finite propagation --------------------------------------------------------

def _right_tail(profile: WaveProfile) -> tuple[np.ndarray, np.ndarray]:
    f = profile.f
    n = len(f)
    i = n - 1
    while i > 0 and f[i - 1] > f[i] >= 0.0:
        i -= 1
    return profile.xi[i:], f[i:]


def threshold_crossings(profile: WaveProfile, thresholds) -> list[tuple[float, float]]:
    """(threshold, xi) where the monotone right tail crosses each threshold."""
    thresholds = [float(t) for t in thresholds]
    if any(t <= 0.0 for t in thresholds) or any(
            b >= a for a, b in zip(thresholds, thresholds[1:])):
        raise InvalidParameterError("thresholds must be positive and strictly decreasing")
    xi_t, f_t = _right_tail(profile)
    if len(f_t) < 2:
        raise InsufficientTailError("profile has no decreasing right tail")
    f_min = float(f_t[-1])
    if f_min > thresholds[-1]:
        raise InsufficientTailError(
            f"profile tail bottoms out at f = {f_min:.3e}, above the smallest "
            f"threshold {thresholds[-1]:.3e}")
    pos = f_t > 0.0
    logf = np.log(f_t[pos][::-1])
    xi_r = xi_t[pos][::-1]
    return [(t, float(np.interp(math.log(t), logf, xi_r))) for t in thresholds]


def detect_finite_propagation(profile: WaveProfile, cm: CanonicalModel,
                              thresholds=(1e-2, 1e-3, 1e-4), *,
                              ratio_max: float = 0.9) -> float | None:
    """Estimate the support edge xi0 by threshold extrapolation.

    The xi positions of a geometric sequence of f thresholds form gaps that
    contract when the profile touches zero at finite xi (which happens for
    q < 1, m > q) and stay level for exponential tails.  Contraction by at
    least ``ratio_max`` per threshold step extrapolates geometrically to a
    finite xi0; anything slower returns None.  Exact zeros already present in
    the samples short-circuit to the first such xi.
    """
    f = profile.f
    zero = np.nonzero(f == 0.0)[0]
    if len(zero) > 0 and zero[-1] == len(f) - 1:
        j = len(f) - 1
        while j > 0 and f[j - 1] == 0.0:
            j -= 1
        return float(profile.xi[j])
    crossings = threshold_crossings(profile, thresholds)
    if len(crossings) < 3:
        raise InvalidParameterError("need at least 3 thresholds to extrapolate")
    xis = [xi for _, xi in crossings]
    gaps = np.diff(xis)
    if np.any(gaps <= 0.0):
        return None
    ratios = gaps[1:] / gaps[:-1]
    log.debug("finite propagation gaps %s ratios %s", gaps, ratios)
    if np.any(ratios >= ratio_max):
        return None
    r = float(ratios[-1])
    return float(xis[-1] + gaps[-1] * r / (1.0 - r))
