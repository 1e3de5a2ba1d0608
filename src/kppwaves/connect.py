"""Shooting computation of the wave-generating heteroclinic orbit.

The connecting orbit leaves the Y-axis equilibrium (P0 in Case I, the
positive-Y axis point in Case II) and falls into P2 = (1, 0).  Its departure
end is transversally stable, so a shot is one forward integration from a
seed displaced eps from P0 along the local departure direction, with tau = 0
at the seed.  Nothing integrates backward from P2: leaving the attracting
node backward amplifies transverse error like exp(c |tau|) and never finds
the axis point.

LSODA does the integration: the forward orbit spends tau ~ c/(gamma eps)
drifting along the center manifold near P0 with a stiffness-limited explicit
step, which a fixed Runge-Kutta pair cannot afford at eps = 1e-6.  Each step
is one direct call of scipy's compiled ODEPACK wrapper in one-step mode, with
the arguments ``scipy.integrate._ode.lsoda.run`` passes, on the tolerances
and work arrays a fresh ``scipy.integrate.LSODA`` would hand it; no such
object is built, and no scipy subpackage is imported (see _compiled).  The
counters are ODEPACK's own, and event roots come from scipy's compiled
``brentq``.
The events (fixed-point arrival, escape, Y = 0 crossing) are functions of
(X, Y), evaluated only on the few steps that one exact inline test cannot
rule out, with the sign-change rule and root solve of ``solve_ivp``
reproduced exactly.  The RHS is one phaseplane.solver_rhs call.  P0's arrival event starts
inside its ball whatever the seed, so for a seed inside that ball samples,
events and roots equal what ``solve_ivp(..., events=..., dense_output=True)``
returns.

A shot that is to become a profile carries the wave coordinate xi as a third
state, dxi/dtau = pref * X^expo, which the solver integrates but leaves out of
its error test (a quadrature state, as CVODES treats one).  Such a shot also
keeps its dense output: each step's raw Nordsieck record (t, h, yh) is one
copy from the solver's work arrays into a row of one table.  No other shot
keeps one.

A shot stops on entering P2's arrival ball, and the X extrema the ball hides
are the Y = 0 crossings of P2's local flow from the arrival state: roots on
P2's conjugacy with its linear flow (phaseplane.arrival_map), so the
oscillation count and X0 do not depend on the radius.  A profile shot keeps
its seed ``eps`` and ``ARRIVAL_RADIUS``, since its samples become the
profile.  A shot that only classifies starts on P0's departure manifold
(phaseplane.departure_seed, up to X = 0.8) and stops where the map's reach
puts P2's ball, between ``CLASSIFY_RADIUS`` and ``P2_RADIUS_MAX``: it skips
the drift away from P0, and the map takes over the approach to P2, so
class, count and X0 keep their values (to 2e-9 in X0) at fewer steps.  At a
real, non-resonant node such a shot also stops at its first sample within
P2_TOL of P2's slow manifold Y = g(X) (phaseplane.slow_manifold) inside the
reach of g's series: from there the orbit follows g into P2 with X monotone,
so it arrives there as a Monotone wave with X0 = 1, unless its own recorded
extrema made it Oscillatory already.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice, takewhile

import numpy as np

from . import _compiled
from ._compiled import brentq
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
    P2_DEGREE,
    P2_TOL,
    PhaseSystem,
    PhaseSystemI,
    SlowManifold,
    arrival_map,
    build_system,
    departure_seed,
    fixed_point_locations,
    linearization,
    slow_manifold,
    solver_rhs,
    zero_speed_curve,
)

log = logging.getLogger(__name__)

__all__ = [
    "EventKind",
    "TrajectoryEvent",
    "Trajectory",
    "WaveProfile",
    "ConnectionResult",
    "shoot",
    "first_X_axis_intersection",
    "x0_monotonicity_check",
    "classify_connection",
    "reconstruct_profile",
    "detect_finite_propagation",
    "threshold_crossings",
]

DEFAULT_EPS = 1e-6        # a profile shot's seed offset from P0
MAX_EPS = 1e-2            # the largest seed offset a shot takes
ARRIVAL_RADIUS = 1e-5
CLASSIFY_RADIUS = 1e-4    # P2's arrival radius for such a shot where its map falls short
P2_RADIUS_MAX = 2e-2      # cap on the P2 arrival radius that the map's reach sets
ESCAPE_BOUND = 50.0
TAU_SPAN = 1e9
MAX_AXIS_CROSSINGS = 10_000   # recorded X-axis crossings past which a shot stops
GRAZE_TOL = 1e-6          # |X-1| below this does not count as an oscillation
LOW_CONFIDENCE_BAND = 1e-3  # |c - c*| band where the class is flagged
PROFILE_SAMPLES = 4001      # uniform xi grid of a reconstructed profile
XI_ATOL = 1e300             # xi's absolute tolerance: its error weight vanishes
XI_LOG_RATE_MAX = 575.0     # cap on log X^expo, so xi stays finite over TAU_SPAN
XI_NEWTON_PASSES = 3        # Newton passes of the tau(xi) inversion
_TINY = 5e-324              # X at or below 0 enters the xi rate as this


class EventKind(str, Enum):
    X_AXIS_CROSS = "XAxisCross"
    ESCAPE = "Escape"
    FIXED_POINT_ARRIVAL = "FixedPointArrival"


@dataclass(frozen=True)
class TrajectoryEvent:
    kind: EventKind
    tau: float
    state: tuple[float, float]
    target: str | None = None    # fixed-point name for arrivals


class _NordsieckTable:
    """LSODA dense output of a whole shot as one zero-padded coefficient table.

    ``ts`` are the sample times, ascending.  Step n ends at t_end[n], with
    step size h[n] and history coef[:, :, n], whose row k is the k-th
    Nordsieck coefficient of every state component.  Its interpolant is the
    polynomial sum_k coef[k, :, n] s^k, s = (t - t_end[n]) / h[n], about the
    step's end (Petzold 1983).  As in the OdeSolution solve_ivp builds for
    LSODA, a breakpoint belongs to the step that starts there.
    """

    def __init__(self, ts, t_end: np.ndarray, h: np.ndarray, coef: np.ndarray):
        self.ts = np.asarray(ts, dtype=float)
        self.t_end, self.h, self.coef = t_end, h, coef

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
    """Integrated orbit samples, strictly increasing in tau from 0 at the
    seed, all X >= 0.

    ``sys`` is the system the orbit was shot in.  ``solver_steps``, ``nfev``
    and ``njev`` are the integrator's own counts.  ``xi`` holds the wave
    coordinate at the samples, xi = 0 at the P0 end, on shots made with
    ``profile_of``, the model it belongs to; both are None otherwise.  Only
    such a shot keeps the integrator's dense output, which ``state_at``
    evaluates.  ``on_manifold`` marks a shot that stopped on P2's slow
    manifold (see _integrate), its arrival at P2 attached at its last sample.
    """

    tau: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    events: list[TrajectoryEvent]
    sys: PhaseSystem
    arrived: str | None
    escaped: bool
    solver_steps: int = 0
    nfev: int = 0
    njev: int = 0
    xi: np.ndarray | None = None
    profile_of: CanonicalModel | None = None
    on_manifold: bool = False
    _table: _NordsieckTable | None = field(default=None, repr=False)

    def state_at(self, tau) -> np.ndarray:
        """Dense-output state rows (X, Y, xi) at the given tau values."""
        if self._table is None:
            raise InvalidParameterError(
                "trajectory carries no dense output: shoot it with "
                "profile_of=<the model> to evaluate it between samples")
        return self._table(tau)


@dataclass
class WaveProfile:
    """Wave profile f(xi) presented with its original (negative) speed.

    xi increases left to right; f runs from ~1 (behind the front, xi -> -inf)
    to ~0 ahead of it.  overshoot_extrema lists (xi, f) of the measured
    |f - 1| extrema for oscillatory profiles.  ``xi`` and ``f`` are held as
    float arrays, whatever sequences they are given as.
    """

    xi: np.ndarray
    f: np.ndarray
    c: float
    overshoot_extrema: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        self.f = np.asarray(self.f, dtype=float)


@dataclass(frozen=True)
class ConnectionResult:
    """Outcome of classify_connection: predicted vs observed class plus the
    trajectory evidence.

    ``evidence`` records how the class was decided: "extrema" (X = 1
    overshoots, measured or from P2's local flow), "range" (X confined to
    [0, 1] into a node), "manifold" (X confined to [0, 1] up to a sample on
    P2's slow manifold, which carries the orbit into the node with X
    monotone; see classify_connection), "focus" (the orbit entered a
    non-degenerate stable focus whose first overshoot is already within
    ``GRAZE_TOL``), or "sign" (non-negative speed, no wave exists).
    ``extrema`` lists the shot's own extrema, then the ``tail_extrema``
    that P2's local flow adds after the arrival (see _tail_crossings);
    ``n_oscillations`` counts both.  ``solver_steps``, ``nfev`` and
    ``njev`` are the shot's integrator counts and ``event_counts`` its events
    per kind, an arrival attached at the orbit's end included (all zero
    without a shot); the seed is no event.
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
    tail_extrema: int = 0
    solver_steps: int = 0
    nfev: int = 0
    njev: int = 0
    event_counts: dict[str, int] = field(
        default_factory=lambda: {kind.value: 0 for kind in EventKind})


# --- seeds ----------------------------------------------------------------------

def _seed_state(sys: PhaseSystem, eps: float) -> np.ndarray:
    """Seed eps from P0 along the eigenvector transverse to the Y axis.

    On the axis the Jacobian is triangular; the transverse eigenvalue is its
    larger diagonal entry (0 at Case I's saddle-node, gamma Y+ > 0 in Case
    II), the first that ``linearization`` lists.
    """
    if isinstance(sys, PhaseSystemI) and sys.c == 0.0:
        # the fully degenerate origin has no transverse direction: seed on the
        # explicit trajectory Y^2 = 2X/(2+gamma) - 2X^k/(2+gamma k)
        y2 = zero_speed_curve(sys, eps)
        if y2 <= 0.0:
            raise SeedFailureError("zero-speed curve has no real branch at the seed offset")
        return np.array([eps, math.sqrt(y2)])
    x0, y0 = fixed_point_locations(sys)["P0"]
    v = linearization(sys, x0, y0)[2][:, 0].real
    if v[0] < 0.0:
        v = -v
    if not v[0] > 0.0:
        raise SeedFailureError("P0's transverse eigenvector does not leave the Y axis")
    return np.array([x0, y0]) + eps * v


# --- integration core --------------------------------------------------------

_ROOT_TOL = 4.0 * np.finfo(float).eps   # solve_ivp's brentq xtol and rtol
_RTOL_MIN = 100.0 * np.finfo(float).eps  # the floor scipy's LSODA raises rtol to
_ISTATE_MESSAGES = {     # scipy.integrate._ode.lsoda.messages
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
}
_lsoda = _compiled.odepack.lsoda   # ODEPACK's lsoda, called once a step
_WORK_TEMPLATES: dict[int, tuple] = {}   # n -> the arrays a fresh shot of n states starts on
_SPARE_WORK: dict[int, list] = {}   # n -> sets of those arrays no shot runs on
_DENSE_ROWS = 1024      # first length of a profile shot's record table


def _nordsieck_record(iwork: np.ndarray, rwork: np.ndarray, n: int):
    """(h, yh) of LSODA's last step, read as LSODA._dense_output_impl does.

    ODEPACK leaves the Nordsieck array in the state needed for the next step:
    iwork[13] is the order just used, rwork[11] the step size the history is
    scaled to, and when the order is about to drop (iwork[14] < order) the
    last column was left scaled to the previous size rwork[10].
    """
    order = iwork[13]
    h = rwork[11]
    yh = rwork[20:20 + (order + 1) * n].reshape(order + 1, n).copy()
    if iwork[14] < order:
        yh[-1] *= (h / rwork[10]) ** order
    return h, yh


def _tolerances(rtol: float, atol, n: int):
    """(rtol, atol) as scipy's LSODA hands them to ODEPACK, checked as its
    validate_tol checks them: an rtol below 100 eps is raised to that floor
    with scipy's UserWarning, and an atol that is negative or neither a
    scalar nor of shape (n,) is refused.  A NaN or infinite rtol or atol,
    which scipy passes on, is refused too."""
    if not (math.isfinite(rtol) and np.all(np.isfinite(atol))):
        raise InvalidParameterError(f"rtol and atol must be finite, got {rtol!r} and {atol!r}")
    if rtol < _RTOL_MIN:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {_RTOL_MIN})`.")
        rtol = _RTOL_MIN
    atol = np.asarray(atol)
    if atol.ndim > 0 and atol.shape != (n,):
        raise InvalidParameterError(f"atol must be a scalar or of shape ({n},), "
                                    f"got shape {atol.shape}")
    if np.any(atol < 0):
        raise InvalidParameterError(f"atol must be non-negative, got {atol}")
    return rtol, atol


def _work_template(n: int) -> tuple[np.ndarray, ...]:
    """(rwork, iwork, state doubles, state ints) of a shot of n states, as a
    fresh ``LSODA`` hands them to ODEPACK: scipy.integrate._ode.lsoda.reset's
    arrays for jt = 2 (full Jacobian by differences) with its default
    options, and TAU_SPAN as the critical time in rwork[0].  Built once per
    n; the first build checks the installed scipy (_compiled.check_lsoda_layout)."""
    if not _WORK_TEMPLATES:
        _compiled.check_lsoda_layout()
    rwork = np.zeros(max(20 + 16 * n, 22 + 9 * n + n * n))   # for orders up to 12 and 5
    rwork[0] = TAU_SPAN
    iwork = np.zeros(20 + n, dtype=np.int32)
    iwork[[5, 7, 8]] = 500, 12, 5   # MXSTEP, MXORDN, MXORDS
    doubles, ints = _compiled.LSODA_STATE
    return _WORK_TEMPLATES.setdefault(
        n, (rwork, iwork, np.zeros(doubles), np.zeros(ints, dtype=np.int32)))


def _event_functions(fps: dict, rad: float, escape: float, p2_rad: float):
    """The shot's event functions of (X, Y), in this order: arrival within
    ``rad`` of each fixed point of ``fps`` (within ``p2_rad`` of P2), escape
    past ``escape``, the X axis."""
    hypot = math.hypot

    def arrival(px: float, py: float, r: float):
        return lambda X, Y: hypot(X - px, Y - py) - r

    return [arrival(px, py, p2_rad if name == "P2" else rad)
            for name, (px, py) in fps.items()] + [
        lambda X, Y: max(X - escape, abs(Y) - escape), lambda _X, Y: Y]


def _step_interpolant(t: float, h: float, yh: np.ndarray):
    """The step's Nordsieck polynomial as a function of tau, for the step
    that ends at t with record (h, yh) (see _nordsieck_record): the arithmetic
    of scipy's LsodaDenseOutput, np.dot(yh.T, ((u - t) / h) ** p) with yh.T
    in C order and p = 0, 1, ..., order, without building the object.  p is
    held as floats: numpy's power casts integer exponents to them anyway."""
    yhT, p = yh.T.copy(), np.arange(len(yh), dtype=float)

    def at(u):
        return np.dot(yhT, ((u - t) / h) ** p)

    return at


def _xi_rate(sys: PhaseSystem, cm: CanonicalModel) -> tuple[float, float, float, float]:
    """(pref, expo, _TINY, XI_LOG_RATE_MAX) of dxi/dtau = pref * X^expo, which
    solver_rhs takes in log form with log X^expo capped: X^expo overflows
    near the seed when expo is large and negative.  ``cm`` must give
    ``sys``'s field at some speed: its type, gamma and exponents."""
    ref = build_system(cm, 0.0)
    if type(ref) is not type(sys) or (ref.gamma, *ref.form[1:]) != (sys.gamma, *sys.form[1:]):
        raise InvalidParameterError(f"profile_of={cm} does not give the system {sys}")
    pref, expo, _ = _profile_exponents(sys, cm)
    return pref, expo, _TINY, XI_LOG_RATE_MAX


def _integrate(sys: PhaseSystem, s0: np.ndarray, *, rtol: float, atol: float,
               arrival_radius: float, p2_radius: float,
               manifold: SlowManifold | None = None,
               xi_rate=None) -> tuple[dict, _NordsieckTable | None]:
    """Integrate forward from s0 with every event; P2's arrival ball has
    radius ``p2_radius``, the others ``arrival_radius``.  With ``xi_rate``
    xi rides along as a third state from xi = 0, outside the error test, and
    each step's Nordsieck record is kept as the shot's dense output; without
    it the dense output is None.
    ``events`` lists the events in the order solve_ivp reports them: by
    event function, then in time.  With ``manifold``, P2's slow manifold Y
    = g(X), the shot also stops after the first sample with |X - 1| below
    g's reach and |Y - g(X)| <= P2_TOL, and ``manifold`` in the result says
    whether it did; that one comparison of X keeps the test off every other
    step.

    Most steps are quiet: tau advances, Y keeps its sign, |Y| < escape and
    X lies in a gap between the arrival balls, rad < X < 1 - rad2 or 1 +
    rad2 < X < escape (rad2 P2's radius).  Such a step keeps its sample and
    nothing else, as in solve_ivp, after one inline test.  The test is exact while every fixed
    point lies on X = 0 or X = 1, which the shot checks first: a faithfully
    rounded hypot is at least each |component|, and X - 0 and X - 1 are
    exact where they matter (X - 1 for X >= 0.5; below that, |X - 1| > 0.5
    exceeds any rad2 that leaves the first gap open), so no arrival value
    reaches 0, and the escape value stays below it.  Every other step
    evaluates the event values, their sign-change rule and the root solves
    on the step's Nordsieck polynomial (_step_interpolant).  A root brentq
    finds no bracket for there (the rule reads the samples, which can differ
    from the polynomial in the last bit) raises StepFailureError.

    A shot that records more than MAX_AXIS_CROSSINGS X-axis crossings stops
    with an InconclusiveError: a slow wave spirals into P2 with work like 1/c,
    and (2,2,1) at c = -1e-3 records 5,250 of them.
    """
    fps = fixed_point_locations(sys)
    if any(px not in (0.0, 1.0) for px, _ in fps.values()):
        raise RuntimeError(f"a fixed point of {sys} lies off X = 0 and X = 1: {fps}; "
                           "the quiet-step test is exact only on those lines")
    dense = xi_rate is not None
    fun = solver_rhs(sys, np.empty(len(s0) + dense), xi_rate)
    if dense:
        s0 = np.append(s0, 0.0)
        atol = [atol, atol, XI_ATOL]
    n = len(s0)
    rtol, atol = _tolerances(rtol, atol, n)

    # one row per event function, in the order solve_ivp would be given them:
    # (kind, target, direction, terminal).  Arrivals fire only on entry; the
    # X axis stops the shot in Case I at c = 0 (see shoot)
    table = [(EventKind.FIXED_POINT_ARRIVAL, name, -1, True) for name in fps]
    table += [(EventKind.ESCAPE, None, 1, True),
              (EventKind.X_AXIS_CROSS, None, 0,
               isinstance(sys, PhaseSystemI) and sys.c == 0.0)]
    directions = [d for _, _, d, _ in table]
    escape = ESCAPE_BOUND
    event_fns = _event_functions(fps, arrival_radius, escape, p2_radius)
    lo, mid, hi = arrival_radius, 1.0 - p2_radius, 1.0 + p2_radius
    # without P2's slow manifold the window g_lo < X < g_hi is empty
    reach, stopped_on_g = 0.0 if manifold is None else manifold.reach, False
    g_lo, g_hi = 1.0 - reach, 1.0 + reach

    # each step is one itask-5 call of ODEPACK with scipy.integrate._ode.lsoda.run's
    # arguments.  The wrapper keeps every rwork and iwork it is given: run on a
    # spare set of arrays, reset from the template
    template = _WORK_TEMPLATES.get(n) or _work_template(n)
    spare, run = _SPARE_WORK.setdefault(n, []), _lsoda
    work = spare.pop() if spare else tuple(map(np.empty_like, template))
    try:
        for a, a0 in zip(work, template):
            a[:] = a0
        rwork, iwork, sd, si = work
        if dense:
            # step k's record is row k of one zero-filled table (doubled when
            # full), one copy of rwork[11:]: HCUR (its h), TCUR (its end), seven
            # unread words, the Nordsieck entries in use (see _nordsieck_record).
            # Orders reach MXORDN or MXORDS; ``top`` counts the history rows used
            width = 9 + (max(iwork[7:9].tolist()) + 1) * n
            rows, k, top, item = np.zeros((_DENSE_ROWS, width)), 0, 0, iwork.item
        # the wrapper steps y in place
        y, t, istate = np.array(s0, dtype=float), 0.0, 1
        # samples as one flat list of floats: kept per-step lists would load the
        # garbage collector on every shot
        state = s0.tolist()
        ts, flat = [0.0], list(state)
        sample, extend = ts.append, flat.extend
        hits: list[list] = [[] for _ in table]
        crossings = hits[-1]
        # the events see X and Y only, never a carried xi
        X, Y = state[0], state[1]
        while t < TAU_SPAN:
            t_old = t
            y, t, istate = run(fun, y, t, TAU_SPAN, rtol, atol, 5, istate, rwork, iwork,
                               None, 2, (), 1, (), sd, si)
            if istate < 0:
                raise StepFailureError(
                    f"integrator failed: LSODA istate {istate}: "
                    f"{_ISTATE_MESSAGES.get(istate, 'unexpected istate')}")
            istate = 2
            if dense:
                order = item(13)
                m = 9 + (order + 1) * n
                if k == len(rows):
                    rows = np.concatenate((rows, np.zeros_like(rows)))
                rows[k, :m] = rwork[11:11 + m]
                if item(14) < order:
                    rows[k, m - n:m] *= (rwork[11] / rwork[10]) ** iwork[13]
                if order >= top:
                    top = order + 1
                k += 1
            state = y.tolist()
            Xo, Yo, X, Y = X, Y, state[0], state[1]
            if (Yo * Y > 0.0 and (lo < X < mid or hi < X < escape)
                    and -escape < Y < escape and t_old < t):
                sample(t)
                extend(state)
                if g_lo < X < g_hi and abs(Y - manifold(X)) <= P2_TOL:
                    stopped_on_g = True
                    break
                continue
            terminate = False
            g, g_new = [f(Xo, Yo) for f in event_fns], [f(X, Y) for f in event_fns]
            if t_old == 0.0:
                # the P0 row (fps lists P0 first) starts inside its ball, as at
                # P0 itself: leaving the seed fires no arrival there, whatever
                # eps and the radius are
                g[0] = -arrival_radius
            # solve_ivp's find_active_events
            active = [i for i, d in enumerate(directions)
                      if (g[i] <= 0.0 <= g_new[i] and d >= 0)
                      or (g[i] >= 0.0 >= g_new[i] and d <= 0)]
            if active:
                sol = _step_interpolant(t, *_nordsieck_record(iwork, rwork, n))
                roots = []
                for i in active:
                    try:
                        roots.append(brentq(lambda u, f=event_fns[i]: f(*sol(u)[:2]), t_old, t,
                                            xtol=_ROOT_TOL, rtol=_ROOT_TOL))
                    except ValueError as e:
                        kind, target = table[i][:2]
                        raise StepFailureError(
                            f"{kind.value}{f' ({target})' if target else ''} event: a sign change "
                            f"on the samples of the step from tau = {t_old!r} to {t!r} that its "
                            f"interpolant does not bracket ({e})") from e
                terminate = any(table[i][3] for i in active)
                if terminate:
                    # handle_events: in time order, up to the first terminal root
                    order = sorted(range(len(roots)), key=roots.__getitem__)
                    stop = next(k for k, j in enumerate(order) if table[active[j]][3])
                    active = [active[j] for j in order[:stop + 1]]
                    roots = [roots[j] for j in order[:stop + 1]]
                for i, root in zip(active, roots):
                    hits[i].append((root, sol(root)))
                if len(crossings) > MAX_AXIS_CROSSINGS:
                    raise InconclusiveError(
                        f"the shot in {sys} made more than {MAX_AXIS_CROSSINGS} X-axis "
                        f"crossings (MAX_AXIS_CROSSINGS) by tau = {t:.6g} without arriving; "
                        "a slow wave's spiral into P2 costs work like 1/c")
                if terminate:
                    t = roots[-1]
                    state = sol(t).tolist()
            if len(ts) > 1 and ts[-1] == t:
                # solve_ivp keeps neither a repeated final time nor its interpolant
                if dense:
                    k -= 1
                    rows[k] = 0.0
            else:
                sample(t)
                extend(state)
            if terminate:
                break
            if g_lo < X < g_hi and abs(Y - manifold(X)) <= P2_TOL:
                stopped_on_g = True
                break

        # ODEPACK's own counters: steps NST, RHS calls NFE and Jacobians NJE
        steps, nfev, njev = iwork[10:13].tolist()
    finally:
        # a shot that raises gives its arrays back too
        spare.append(work)
    events = [TrajectoryEvent(kind, t_e, (float(s_e[0]), float(s_e[1])), target)
              for (kind, target, _, _), found in zip(table, hits) for t_e, s_e in found]
    X, Y, *xi = np.array(flat).reshape(len(ts), -1).T.copy()
    return {
        "tau": np.array(ts), "X": X, "Y": Y, "xi": xi[0] if xi else None, "events": events,
        "solver_steps": steps, "nfev": nfev, "njev": njev,
        "manifold": stopped_on_g,
    }, _NordsieckTable(ts, rows[:k, 1], rows[:k, 0], rows[:k, 9:9 + top * n].reshape(
        k, top, n).transpose(1, 2, 0)) if dense else None


def shoot(sys: PhaseSystem, eps: float = DEFAULT_EPS, *, rtol: float = 1e-10,
          atol: float = 1e-10, arrival_radius: float = ARRIVAL_RADIUS,
          profile_of: CanonicalModel | None = None) -> Trajectory:
    """Integrate the connecting orbit forward from its P0 seed, tau = 0 there.

    Events record the X-axis (Y = 0) crossings, escape beyond
    ``ESCAPE_BOUND`` and arrival within ``arrival_radius`` of a fixed point;
    arrival and escape stop the integration, and ``TAU_SPAN`` bounds it.  A
    shot past ``MAX_AXIS_CROSSINGS`` X-axis crossings raises InconclusiveError.
    An ``arrival_radius`` that is not finite and positive is refused.
    Arrivals fire on entry into a ball and the seed counts as inside P0's,
    so leaving it records none.  An orbit that ends in a ball it never
    entered on a step (still in P0's at ``TAU_SPAN``) gets the arrival
    attached at its last sample.

    ``profile_of`` names the model ``sys`` was built from (one of another
    system is refused) when the orbit is to become a profile: the shot then
    carries xi (see reconstruct_profile) as a third state and keeps the
    dense output ``state_at`` evaluates.
    Without it the shot integrates (X, Y) alone and keeps no dense output.

    At c = 0 in Case I the shot terminates at the first X-axis crossing: the
    orbit is symmetric under (Y, tau) -> (-Y, -tau) there, and following the
    mirror half numerically runs into the fully degenerate origin.
    """
    if not 0.0 < eps <= MAX_EPS:
        raise InvalidParameterError(f"seed offset eps must lie in (0, {MAX_EPS:g}], got {eps!r}")
    return _shoot_from(sys, _seed_state(sys, eps), rtol=rtol, atol=atol,
                       arrival_radius=arrival_radius, profile_of=profile_of)


def _shoot_from(sys: PhaseSystem, s0, *, rtol: float = 1e-10, atol: float = 1e-10,
                arrival_radius: float = ARRIVAL_RADIUS, p2_radius: float | None = None,
                manifold: SlowManifold | None = None, profile_of=None) -> Trajectory:
    if not 0.0 < arrival_radius < math.inf:
        raise InvalidParameterError(f"arrival_radius {arrival_radius!r} is not finite and > 0")
    p2_radius = arrival_radius if p2_radius is None else p2_radius
    res, table = _integrate(
        sys, s0, rtol=rtol, atol=atol, arrival_radius=arrival_radius, p2_radius=p2_radius,
        manifold=manifold, xi_rate=None if profile_of is None else _xi_rate(sys, profile_of))
    tau, X, Y = res["tau"], res["X"], res["Y"]
    if np.min(X) < -1e-9:
        raise StepFailureError(f"integration left the half-plane (min X = {np.min(X):.3e})")
    X = np.maximum(X, 0.0)

    # arrival and escape are terminal: at most one of them fires
    events = res["events"]
    arrived = next((ev.target for ev in events
                    if ev.kind is EventKind.FIXED_POINT_ARRIVAL), None)
    escaped = any(ev.kind is EventKind.ESCAPE for ev in events)

    # an orbit can end inside a ball without entering it on a step (it never
    # left P0's), or on P2's slow manifold: attach the arrival at the last sample
    if arrived is None:
        arrived = "P2" if res["manifold"] else next(
            (name for name, (x0, y0) in fixed_point_locations(sys).items()
             if math.hypot(X[-1] - x0, Y[-1] - y0) <= (
                 p2_radius if name == "P2" else arrival_radius)), None)
        if arrived is not None:
            events.append(TrajectoryEvent(
                kind=EventKind.FIXED_POINT_ARRIVAL, tau=float(tau[-1]),
                state=(float(X[-1]), float(Y[-1])), target=arrived))
    events.sort(key=lambda e: (e.tau, e.kind.value))

    log.debug("shot from %s: %d samples, arrived=%s escaped=%s",
              s0, len(tau), arrived, escaped)
    return Trajectory(
        tau=tau, X=X, Y=Y, events=events, sys=sys, arrived=arrived,
        escaped=escaped, solver_steps=res["solver_steps"], nfev=res["nfev"],
        njev=res["njev"], xi=res["xi"], profile_of=profile_of, on_manifold=res["manifold"],
        _table=table,
    )


# --- measurements on trajectories --------------------------------------------

def first_X_axis_intersection(traj: Trajectory) -> float:
    """X at the first Y = 0 crossing with X > 0: the turning point X0.

    When the orbit entered P2's arrival ball before its first crossing, the
    first crossing on P2's local flow gives X0 (see _tail_crossings).  A
    trajectory entering the node at P2 directly from above never crosses,
    nor does one that stopped on P2's slow manifold; the crossing then
    degenerates to P2 itself and 1.0 is returned.
    """
    return _turning_point(traj, _tail_crossings(traj))


def _turning_point(traj: Trajectory, tail) -> float:
    """first_X_axis_intersection, with the tail crossings read from the
    iterator ``tail`` only when the shot recorded no crossing."""
    for ev in traj.events:
        if ev.kind is EventKind.X_AXIS_CROSS and ev.state[0] > 1e-8:
            x0 = float(ev.state[0])
            if x0 < 1.0 - 1e-3:
                raise InconclusiveError(
                    f"first X-axis intersection at X = {x0!r} < 1 contradicts C2; "
                    "integration accuracy is suspect"
                )
            return x0
    if traj.arrived == "P2":
        first = next(tail, None)
        return 1.0 if first is None else first[1]
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
        traj = shoot(sys, eps, **shoot_kw)
        out.append((c, first_X_axis_intersection(traj)))
    return out


def _tail_crossings(traj: Trajectory, degree: int = P2_DEGREE):
    """(tau, X) at each Y = 0 crossing after the shot's arrival at P2, in
    time order: the crossings its arrival ball hides, on P2's conjugacy K
    (phaseplane.arrival_map) from the arrival state.  K has ``degree`` where
    the state lies within its reach and degree 1, the linear flow,
    elsewhere.  A focus crosses about every pi/beta without end, a node at
    most once; a degenerate P2 (c = c*) bounds the monotone class and yields
    none, and so does a shot that stopped on P2's slow manifold: within
    P2_TOL of g it crosses Y = 0 nowhere but within GRAZE_TOL of P2 (see
    classify_connection)."""
    K = arrival_map(traj.sys, degree) if traj.arrived == "P2" else None
    if K is None or traj.on_manifold:
        return
    dx, dy, tau0 = float(traj.X[-1]) - 1.0, float(traj.Y[-1]), float(traj.tau[-1])
    if math.hypot(dx, dy) > K.reach * (1.0 + 1e-6):
        K = arrival_map(traj.sys, 1)
    for t, x in K.crossings(dx, dy):
        yield tau0 + t, x


def _wave_class(traj: Trajectory) -> tuple[SpeedClass, str, list, list, list]:
    """(class, evidence, measured, tail, first) of a shot that arrived at P2.

    Y = 0 crossings are exactly the X extrema (X' = gamma X Y); an extremum
    counts as an oscillation only if |X - 1| clears the grazing guard.
    ``measured`` holds the (tau, X) extrema the shot recorded, ``tail`` those
    of P2's local flow after the arrival (see _tail_crossings), so no count
    depends on the arrival radius.  ``first`` holds the first tail crossing,
    also a grazing one, if there is one.
    """
    measured = [(ev.tau, float(ev.state[0])) for ev in traj.events
                if ev.kind is EventKind.X_AXIS_CROSS and ev.state[0] > 1e-8
                and abs(ev.state[0] - 1.0) > GRAZE_TOL]
    crossings = _tail_crossings(traj)
    first = list(islice(crossings, 1))
    tail = list(takewhile(lambda e: abs(e[1] - 1.0) > GRAZE_TOL, chain(first, crossings)))
    if measured or tail:
        return SpeedClass.OSCILLATORY, "extrema", measured, tail, first
    K = arrival_map(traj.sys)
    if K is not None and K.lam[0].imag:
        # the first crossing already grazes X = 1, but the hyperbolic focus
        # forces it, so the wave still oscillates
        return SpeedClass.OSCILLATORY, "focus", measured, tail, first
    x_max = float(np.max(traj.X))
    if x_max <= 1.0 + GRAZE_TOL:
        return (SpeedClass.MONOTONE, "manifold" if traj.on_manifold else "range",
                measured, tail, first)
    raise InconclusiveError(
        f"X exceeds 1 (max {x_max}) without a recorded extremum; "
        "no classifiable pattern")


def classify_connection(cm: CanonicalModel, c_original: float,
                        **shoot_kw) -> ConnectionResult:
    """Measure the wave class for an original-frame speed.

    c_original >= 0 carries no wave.  For c_original < 0 the mirrored system
    at c = |c_original| is shot from P0 (see shoot), and the orbit must
    arrive at P2.  It is Oscillatory when it has Y = 0 crossings (the X
    extrema) with |X - 1| above ``GRAZE_TOL`` or, failing those, when P2 is
    a non-degenerate stable focus; otherwise Monotone when X never exceeds
    1 + ``GRAZE_TOL``.  The crossings after the arrival come from P2's
    local flow, so neither the count nor X0 depends on the arrival radius.
    reconstruct_profile measures its profile's extrema by the same rule.

    ``shoot_kw`` go to shoot.  ``profile_of=cm`` makes the trajectory one
    that reconstruct_profile accepts; it is shot from shoot's ``eps``.  A
    shot without it only classifies and takes no ``eps``: it starts on P0's
    departure manifold at phaseplane.departure_seed and arrives at the reach
    of P2's map (phaseplane.arrival_map), held between ``CLASSIFY_RADIUS``
    and ``P2_RADIUS_MAX``, unless ``arrival_radius`` is given.  Its class,
    count and X0 agree with those of a shot from eps = 1e-6 to radius 1e-8,
    X0 to 2e-9 (tests/test_connect.py), and it takes fewer steps.

    Without ``arrival_radius`` such a shot has one more stop where P2 is a
    real, non-resonant node with l1 != l2 (phaseplane.slow_manifold): the
    first sample within P2_TOL of P2's slow manifold Y = g(X) and within
    the reach of g's series.  There g leaves out at most P2_TOL more, g has
    no zero but at P2 (|g| >= |c_1 (X - 1)| / 2) and the distance to g
    contracts, so the orbit stays within 2 P2_TOL of g into P2 and crosses
    Y = 0 only within 4 P2_TOL / |c_1| of X = 1, which is checked to lie
    within ``GRAZE_TOL``: the shot arrives at P2 with no tail extrema, X0
    = 1.0, and, without extrema of its own, the class Monotone with
    evidence "manifold".  Every other shot runs as without the stop.
    """
    predicted = classify_speed(cm, c_original)
    if c_original >= 0.0:
        return ConnectionResult(
            c=float(c_original), predicted=predicted, observed=SpeedClass.NO_WAVE,
            low_confidence=False, n_oscillations=0, extrema=(),
            trajectory=None, x0=None, evidence="sign")

    c = abs(float(c_original))
    sys = build_system(cm, c)
    if shoot_kw.get("profile_of") is not None:
        traj = shoot(sys, **shoot_kw)
    else:
        if "arrival_radius" not in shoot_kw:
            K = arrival_map(sys)
            reach = 0.0 if K is None else K.reach
            g = slow_manifold(sys)
            shoot_kw.update(arrival_radius=CLASSIFY_RADIUS, p2_radius=min(
                reach, P2_RADIUS_MAX) if reach > CLASSIFY_RADIUS else CLASSIFY_RADIUS,
                manifold=g if g and 4.0 * P2_TOL <= GRAZE_TOL * abs(g.coef[1]) else None)
        traj = _shoot_from(sys, np.array(departure_seed(sys)), **shoot_kw)
    if traj.arrived != "P2":
        raise InconclusiveError(
            f"trajectory for c = {c_original} did not reach P2 "
            f"(arrived={traj.arrived!r}, escaped={traj.escaped})")

    observed, evidence, measured, tail, first = _wave_class(traj)
    x0 = _turning_point(traj, iter(first))   # a float: the orbit reached P2
    low_confidence = abs(c - critical_speed(cm)) < LOW_CONFIDENCE_BAND
    return ConnectionResult(
        c=float(c_original), predicted=predicted, observed=observed,
        low_confidence=low_confidence, n_oscillations=len(measured) + len(tail),
        extrema=tuple(measured + tail), trajectory=traj, x0=x0, evidence=evidence,
        tail_extrema=len(tail), solver_steps=traj.solver_steps, nfev=traj.nfev,
        njev=traj.njev,
        event_counts={kind.value: sum(ev.kind is kind for ev in traj.events)
                      for kind in EventKind})


# --- profile reconstruction ---------------------------------------------------

def _profile_exponents(sys: PhaseSystem, cm: CanonicalModel) -> tuple[float, float, float]:
    """(pref, expo, fe): dxi/dtau = pref * X^expo and f = X^fe."""
    if isinstance(sys, PhaseSystemI):
        return 1.0, (cm.m - 1.0) / sys.gamma, 1.0 / sys.gamma
    pref = math.sqrt(2.0 / cm.mq)
    return pref, (cm.m - cm.q) / (2.0 * sys.k), 1.0 / sys.k


def reconstruct_profile(traj: Trajectory) -> WaveProfile:
    """Recover f(xi) from a connecting trajectory shot with ``profile_of``.

    The shot carries xi as a third state: dxi/dtau = X^((m-1)/gamma) in
    Case I and sqrt(2/(m+q)) X^((m-q)/(2k)) in Case II, and f = X^(1/gamma)
    resp. X^(1/k).  A uniform xi grid of ``PROFILE_SAMPLES`` points is mapped
    back to tau by interpolation on the samples' xi, then Newton passes on
    the dense output.  The profile is flipped to the original negative speed
    (the orbit was computed in the mirrored c > 0 frame) and shifted so
    f = 1/2 at xi = 0 on the front's last downward crossing.
    """
    sys, cm = traj.sys, traj.profile_of
    if traj.arrived != "P2":
        raise NotAConnectionError(
            f"trajectory arrived at {traj.arrived!r}, not P2 "
            f"(escaped={traj.escaped}); a profile needs the P0-P2 connection")
    if cm is None:
        raise InvalidParameterError(
            "trajectory carries no xi: shoot it with profile_of=<the model> "
            "to reconstruct a profile")
    # the profile ends at the arrival, so it shows only the measured extrema
    _, _, extrema, _, _ = _wave_class(traj)
    speed = sys.form[0]
    c_wave = -speed if isinstance(sys, PhaseSystemI) else -speed * math.sqrt(cm.mq / 2.0)
    pref, expo, fe = _profile_exponents(sys, cm)
    # X^expo is largest at an end of X's range; where it passed the cap the
    # shot carried a clipped rate, so its xi is wrong (without the cap, inf)
    log_rate = max(expo * math.log(max(float(x), _TINY))
                   for x in (traj.X.min(), traj.X.max()))
    if log_rate >= XI_LOG_RATE_MAX:
        raise InconclusiveError(
            f"profile reconstruction refused: the xi rate X^{expo:.6g} passes "
            f"its cap along this orbit (log X^expo reaches {log_rate:.1f} > "
            f"{XI_LOG_RATE_MAX:g}), so xi is non-finite or unresolved")

    # anchor: first upward crossing of f = 1/2, which the final flipped
    # presentation sees as the last downward crossing at the front
    x_half = 0.5 ** (1.0 / fe)
    above = np.nonzero(traj.X >= x_half)[0]
    if len(above) == 0 or above[0] == 0:
        raise NotAConnectionError("trajectory never crosses f = 1/2 from below")
    i1 = above[0]
    t_lo, t_hi = traj.tau[i1 - 1], traj.tau[i1]

    tau_half = brentq(lambda t: float(traj.state_at(t)[0]) - x_half, t_lo, t_hi, xtol=1e-13)
    xi_half = float(traj.state_at(tau_half)[2])

    # invert the monotone xi(tau): a table estimate, then Newton on the
    # dense output with the (strictly positive, capped) rate as slope
    xi_target = np.linspace(traj.xi[0], traj.xi[-1], PROFILE_SAMPLES)
    tau_grid = np.interp(xi_target, traj.xi, traj.tau)
    for _ in range(XI_NEWTON_PASSES):
        X_grid, _, xi_grid = traj.state_at(tau_grid)
        rate = pref * np.exp(np.minimum(expo * np.log(np.maximum(X_grid, _TINY)),
                                        XI_LOG_RATE_MAX))
        tau_grid = np.clip(tau_grid - (xi_grid - xi_target) / rate,
                           traj.tau[0], traj.tau[-1])
    X_grid = traj.state_at(tau_grid)[0]
    xi_fwd = xi_target - xi_half
    f_fwd = np.maximum(X_grid, 0.0) ** fe
    if not (np.all(np.isfinite(xi_fwd)) and np.all(np.isfinite(f_fwd))):
        raise InconclusiveError("profile reconstruction produced non-finite samples")

    # flip per the mirror symmetry: the wave moves with c_wave < 0
    xi = -xi_fwd[::-1]
    f = f_fwd[::-1].copy()
    f[0] = min(f[0], 1.0) if abs(f[0] - 1.0) < 1e-3 else f[0]

    overshoots = sorted(((-(float(traj.state_at(tau_e)[2]) - xi_half), x_e ** fe)
                         for tau_e, x_e in extrema), key=lambda p: p[0])
    return WaveProfile(xi=xi, f=f, c=c_wave, overshoot_extrema=tuple(overshoots))


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
    if not thresholds or not all(0.0 < t < math.inf for t in thresholds) or any(
            b >= a for a, b in zip(thresholds, thresholds[1:])):
        raise InvalidParameterError(
            f"thresholds {thresholds} are not one or more finite, positive, decreasing values")
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


def detect_finite_propagation(profile: WaveProfile, cm: CanonicalModel) -> float | None:
    """The support edge xi0 of a profile from reconstruct_profile, or None
    when its tail is exponential.

    The profile ends at its shot's seed on P0's departure manifold, where
    Y = y1 X^d to leading order: X/c in Case I, P0's Y in Case II.  The xi
    left between the seed and P0 is then pref X^(expo-d) / (gamma y1
    (expo-d)) with X the seed's (see _profile_exponents).  It is finite
    exactly when expo > d, that is q < 1 in Case I and m > q in Case II;
    otherwise the tail never reaches zero.  Exact zeros already present in
    the samples short-circuit to the first such xi.
    """
    if not profile.c < 0.0:
        raise InvalidParameterError(f"a wave profile has speed c < 0, got c = {profile.c!r}")
    f = profile.f
    zero = np.nonzero(f == 0.0)[0]
    if len(zero) > 0 and zero[-1] == len(f) - 1:
        j = len(f) - 1
        while j > 0 and f[j - 1] == 0.0:
            j -= 1
        return float(profile.xi[j])
    sys = build_system(cm, -profile.c)
    pref, expo, fe = _profile_exponents(sys, cm)
    if isinstance(sys, PhaseSystemI):
        y1, d = 1.0 / sys.c, 1.0
    else:
        y1, d = fixed_point_locations(sys)["P0"][1], 0.0
    if expo <= d:
        return None
    x_seed = float(f[-1]) ** (1.0 / fe)
    return float(profile.xi[-1] + pref * x_seed ** (expo - d) / (sys.gamma * y1 * (expo - d)))
