"""Shooting, classification, profile reconstruction, finite propagation."""
import cmath
import dataclasses
import gc
import importlib.util
import math
import sys
import tracemalloc
import warnings
from itertools import islice, permutations, takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import LSODA, solve_ivp
from scipy.integrate._ivp.ivp import find_active_events
from scipy.integrate._ivp.lsoda import LsodaDenseOutput
from scipy.linalg import expm
from scipy.optimize import brentq

import kppwaves as kw
from kppwaves import (CanonicalModel, EventKind, SpeedClass, TrajectoryEvent,
                      WaveProfile, build_system, classify_connection,
                      detect_finite_propagation, first_X_axis_intersection,
                      reconstruct_profile, shoot, threshold_crossings,
                      zero_speed_X0, zero_speed_curve)
from kppwaves import _compiled, connect
from conftest import linear_seed, scalar_field, scalar_xi_rate, scipy_table
from kppwaves.phaseplane import PhaseSystemI, fixed_point_locations, linearization

CM221 = CanonicalModel(m=2, p=2, q=1)
ESCAPE_BOUND = connect.ESCAPE_BOUND


# --- the shot as solve_ivp computes it --------------------------------------------

def _shot_fun(sys, xi=None):
    """The shot's right-hand side from the oracles; with ``xi``, the
    parameters connect._xi_rate gives, it carries xi."""
    rhs, rate = scalar_field(sys), None if xi is None else scalar_xi_rate(xi)

    def fun(_t, s):
        dx, dy = rhs(s[0], s[1])
        return (dx, dy) if rate is None else (dx, dy, rate(s[0]))

    return fun


def _shot_args(cm, c, s0=None, **overrides):
    """(system, seed, _integrate keywords) of a plain shot's integration
    from the linear seed 1e-6 off P0 (conftest.linear_seed), or from the
    given seed ``s0``."""
    sys = build_system(cm, c)
    if s0 is None:
        s0 = linear_seed(sys)
    kwargs = dict(rtol=1e-10, atol=1e-10, arrival_radius=connect.ARRIVAL_RADIUS,
                  p2_radius=connect.ARRIVAL_RADIUS)
    kwargs.update(overrides)
    return sys, s0, kwargs


def _profile_shot_args(cm, c):
    """_shot_args of the integration shoot(..., profile_of=cm) runs: from
    its seed on P0's departure manifold, carrying xi."""
    sys = build_system(cm, c)
    return _shot_args(cm, c, s0=connect._profile_seed(sys), xi_rate=connect._xi_rate(sys, cm))


def _solve_ivp_integrate(sys, s0, *, rtol, atol, arrival_radius, p2_radius, xi_rate=None):
    """The shot through solve_ivp with one closure per event, as the library
    computed it before driving LSODA itself: the driver's reference.  P2's
    arrival ball has radius ``p2_radius``.  With ``xi_rate`` xi is a third
    state with the driver's tolerance."""
    fun = _shot_fun(sys, xi_rate)
    if xi_rate is not None:
        s0, atol = np.append(s0, 0.0), [atol, atol, connect.XI_ATOL]
    escape_bound = connect.ESCAPE_BOUND

    fps = fixed_point_locations(sys)
    names: list[str] = []
    evts: list = []

    def arrival_event(x0: float, y0: float, radius: float):
        def ev(_t, s):
            return math.hypot(s[0] - x0, s[1] - y0) - radius
        ev.terminal = True
        ev.direction = -1  # only fires on entry; a seed inside never re-triggers on exit
        return ev

    for name, (x0, y0) in fps.items():
        names.append(name)
        evts.append(arrival_event(x0, y0, p2_radius if name == "P2" else arrival_radius))

    def escape(_t, s):
        return max(s[0] - escape_bound, abs(s[1]) - escape_bound)
    escape.terminal = True
    escape.direction = 1
    evts.append(escape)

    def x_axis(_t, s):
        return s[1]
    x_axis.terminal = isinstance(sys, PhaseSystemI) and sys.c == 0.0
    evts.append(x_axis)

    sol = solve_ivp(fun, (0.0, connect.TAU_SPAN), s0, method="LSODA",
                    rtol=rtol, atol=atol, dense_output=True, events=evts)
    assert sol.status != -1, sol.message

    n_fp = len(names)
    events = []
    for i, (t_ev, y_ev) in enumerate(zip(sol.t_events, sol.y_events)):
        for t_e, s_e in zip(t_ev, y_ev):
            state = (float(s_e[0]), float(s_e[1]))
            if i < n_fp:
                events.append(TrajectoryEvent(EventKind.FIXED_POINT_ARRIVAL, float(t_e),
                                              state, names[i]))
            elif i == n_fp:
                events.append(TrajectoryEvent(EventKind.ESCAPE, float(t_e), state))
            else:
                events.append(TrajectoryEvent(EventKind.X_AXIS_CROSS, float(t_e), state))

    return {"tau": sol.t, "X": sol.y[0], "Y": sol.y[1],
            "xi": sol.y[2] if xi_rate is not None else None, "events": events,
            "nfev": sol.nfev, "njev": sol.njev}, sol.sol


# (model, c, _shot_args overrides; "escape_bound" is set on the module
# instead, and "xi" carries xi with the model's rate).  Every pin but
# 221-P2-forward integrates from the linear P0 seed.  Shots without xi keep no dense
# output, as sweep shots do; profile shots do
PIN_SHOTS = {
    "221-P0-c1": (CM221, 1.0, {}),
    "221-P0-c3": (CM221, 3.0, {}),
    "221-P0-c0-terminal-axis": (CM221, 0.0, {}),
    "1-1-0.5-P2-backward": (CanonicalModel(m=1, p=1, q=0.5), 1.0, {}),
    "121-P0-oscillatory": (CanonicalModel(m=1, p=2, q=1), 0.5, {}),
    "221-P0-escape": (CM221, 1.0, {"escape_bound": 1.02}),
    # no shot starts at P2; this pin integrates from a point eps left of it.
    # That seed has Y = 0 exactly, so the X-axis event starts at g = 0 and
    # fires upward at tau = 0
    "221-P2-forward": (CM221, 1.0, {"s0": np.array([1.0 - connect.DEFAULT_EPS, 0.0])}),
    "221-xi-oscillatory": (CM221, 1.0, {"xi": True}),
    "121-xi-monotone": (CanonicalModel(m=1, p=2, q=1), 3.0, {"xi": True}),
    "3-2.5-1-xi": (CanonicalModel(m=3, p=2.5, q=1), 3.5198, {"xi": True}),
}


def _pin_args(name, monkeypatch):
    """_shot_args of a pin shot, with its escape bound set on the module."""
    cm, c, overrides = PIN_SHOTS[name]
    overrides = dict(overrides)
    monkeypatch.setattr(connect, "ESCAPE_BOUND", overrides.pop("escape_bound", ESCAPE_BOUND))
    xi = overrides.pop("xi", False)
    sys, s0, kwargs = _shot_args(cm, c, **overrides)
    if xi:
        kwargs["xi_rate"] = connect._xi_rate(sys, cm)
    return sys, s0, kwargs


# --- trajectories -------------------------------------------------------------

def test_forward_shot_reaches_rest_state():
    traj = shoot(build_system(CM221, 3.0))
    assert traj.arrived == "P2"
    assert not traj.escaped
    assert np.all(np.diff(traj.tau) > 0.0)
    assert np.all(traj.X >= 0.0)


def test_dense_output_matches_samples():
    traj = shoot(build_system(CM221, 1.0), profile_of=CM221)
    for i in (len(traj.tau) // 3, 2 * len(traj.tau) // 3):
        X, Y, _ = traj.state_at(traj.tau[i])
        assert X == pytest.approx(traj.X[i], abs=1e-9)
        assert Y == pytest.approx(traj.Y[i], abs=1e-9)


DENSE_SHOTS = [(CM221, 1.0), (CanonicalModel(m=3, p=2.5, q=1), 3.5198),
               (CanonicalModel(m=1, p=1, q=0.5), 1.0)]


@pytest.mark.parametrize("cm, c", DENSE_SHOTS)
def test_state_at_matches_scipy_dense_output(cm, c):
    # pins the Nordsieck table of a profile shot against the OdeSolution
    # solve_ivp returns for the same shot with xi as a third state, including
    # the layout of LSODA's dense output (t, h, yh, p)
    traj = shoot(build_system(cm, c), profile_of=cm)
    sys, s0, kwargs = _profile_shot_args(cm, c)
    _, reference = _solve_ivp_integrate(sys, s0, **kwargs)
    tau = traj.tau
    first, last = tau[1] - tau[0], tau[-1] - tau[-2]
    pts = np.concatenate([tau, 0.5 * (tau[:-1] + tau[1:]),
                          [tau[0] - 0.5 * first, tau[-1] + 0.5 * last]])
    for t in (pts, pts[len(pts) // 3]):
        X, Y, xi = traj.state_at(t)
        want = reference(t)
        for got, ref in ((X, want[0]), (Y, want[1]), (xi, want[2])):
            assert np.shape(got) == np.shape(ref)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("cm, c", DENSE_SHOTS)
def test_component_rows_are_the_full_evaluations_rows(cm, c):
    # the table evaluates only the rows it is asked for, each bit for bit
    # the row of the full evaluation, in any order and at any point: the
    # samples (which are the breakpoints), step midpoints and half a step
    # past either end, as an array and one at a time
    table = shoot(build_system(cm, c), profile_of=cm)._table
    ts = table.ts
    pts = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:]),
                          [ts[0] - 0.5 * (ts[1] - ts[0]), ts[-1] + 0.5 * (ts[-1] - ts[-2])]])
    assert table.coef.flags.c_contiguous and table.coef.shape[1:] == (3, len(table.h))
    for t in (pts, pts[len(pts) // 3], pts[-1]):
        full = table(t)
        assert full.shape == (3,) + np.shape(t)
        for size in (1, 2, 3):
            for rows in permutations(range(3), size):
                assert np.array_equal(table(t, rows), full[list(rows)]), rows
    # a breakpoint belongs to the step that starts there: a table of that
    # step alone gives the same bits
    for k in range(len(table.h)):
        step = connect._NordsieckTable(ts[k:k + 2], table.t_end[k:k + 1], table.h[k:k + 1],
                                       table.coef[..., k:k + 1])
        assert np.array_equal(step(ts[k]), table(ts[k])), k


@pytest.mark.parametrize("name", PIN_SHOTS)
def test_driver_is_bit_identical_to_solve_ivp(name, monkeypatch):
    sys, s0, kwargs = _pin_args(name, monkeypatch)
    got, table = connect._integrate(sys, s0, **kwargs)
    want, reference = _solve_ivp_integrate(sys, s0, **kwargs)
    for key in ("tau", "X", "Y"):
        assert np.array_equal(got[key], want[key]), key
    assert got["events"] == want["events"]
    assert (got["nfev"], got["njev"]) == (want["nfev"], want["njev"])
    assert got["solver_steps"] == len(reference.interpolants)
    if "xi_rate" not in kwargs:
        assert got["xi"] is None and table is None
        return
    # a profile shot carries xi and keeps its dense output: both equal
    # solve_ivp's on the same three-state shot
    assert np.array_equal(got["xi"], want["xi"])
    ref_table = scipy_table(reference)
    for attr in ("ts", "t_end", "h", "coef"):
        assert np.array_equal(getattr(table, attr), getattr(ref_table, attr)), attr
    ts = table.ts
    pts = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])])
    assert np.array_equal(table(pts), ref_table(pts))


def test_pin_shots_cover_the_event_paths(monkeypatch):
    ends, kinds = {}, {}
    for name in PIN_SHOTS:
        sys, s0, kwargs = _pin_args(name, monkeypatch)
        res, _ = connect._integrate(sys, s0, **kwargs)
        ends[name] = res["tau"][-1]
        kinds[name] = {}
        for ev in res["events"]:
            kinds[name].setdefault(ev.kind, []).append(ev.tau)
    # the terminal X-axis root is the last sample
    assert kinds["221-P0-c0-terminal-axis"][EventKind.X_AXIS_CROSS] == \
        [ends["221-P0-c0-terminal-axis"]]
    assert len(kinds["121-P0-oscillatory"][EventKind.X_AXIS_CROSS]) >= 5
    assert kinds["221-P0-escape"][EventKind.ESCAPE] == [ends["221-P0-escape"]]
    assert 0.0 in kinds["221-P2-forward"][EventKind.X_AXIS_CROSS]


# the event tests' fixed points: two arrival balls at c = 0, three at c = 0.5.
# A radius of 5 * 2^-12 and offsets in units of 2^-12 put (3, 4) offsets
# exactly on a ball's boundary and (5, 0) offsets on its bounding box's edge
# as well
SCREEN_FPS = {2: fixed_point_locations(build_system(CM221, 0.0)),
              3: fixed_point_locations(build_system(CM221, 0.5))}
SCREEN_RAD, SCREEN_UNIT = 5.0 * 2.0 ** -12, 2.0 ** -12


def _solve_ivp_values(fps, X, Y):
    """The event values at (X, Y), each event a closure as
    ``_solve_ivp_integrate`` gives them to solve_ivp."""
    return [math.hypot(X - x0, Y - y0) - SCREEN_RAD for x0, y0 in fps.values()] + \
        [max(X - ESCAPE_BOUND, abs(Y) - ESCAPE_BOUND), Y]


def _solve_ivp_active(fps, prev, new, seed=False):
    """The events solve_ivp's find_active_events reports on the step prev ->
    new; from a seed, P0's arrival starts inside its ball."""
    g = _solve_ivp_values(fps, *prev)
    if seed:
        g[0] = -SCREEN_RAD
    return find_active_events(np.array(g), np.array(_solve_ivp_values(fps, *new)),
                              np.array([-1] * len(fps) + [1, 0]))


def _screen_points(fps):
    """States on, just inside and just outside each box edge and ball
    boundary, signed zeros, NaN and the escape bound met exactly."""
    u, rad, e = SCREEN_UNIT, SCREEN_RAD, ESCAPE_BOUND
    up, down = math.nextafter(rad, math.inf), math.nextafter(rad, 0.0)
    offsets = [(0.0, 0.0), (-0.0, -0.0), (3 * u, 4 * u), (-4 * u, 3 * u), (3 * u, -4 * u),
               (rad, 0.0), (0.0, -rad), (-rad, -0.0), (up, 0.0), (0.0, -up), (down, 0.0),
               (down, down), (rad, rad), (up, up), (3 * u, math.nan), (math.nan, 0.0)]
    pts = [(x0 + dx, y0 + dy) for x0, y0 in fps.values() for dx, dy in offsets]
    pts += [(e, 0.5), (math.nextafter(e, 0.0), 0.5), (0.5, e), (0.5, -e),
            (0.5, math.nextafter(-e, 0.0)), (math.inf, 0.5), (0.5, -math.inf),
            (0.5, 0.3), (0.5, -0.3), (0.5, 0.0), (0.5, -0.0), (math.nan, math.nan)]
    return pts


@pytest.mark.parametrize("n_arrivals", [2, 3])
def test_event_values_are_solve_ivps(n_arrivals):
    # the driver's event values are the closures' values at every state on,
    # just inside and just outside each ball's boundary and box edge, NaN and
    # signed zeros included
    fps = SCREEN_FPS[n_arrivals]
    assert len(fps) == n_arrivals
    events = connect._event_functions(fps, SCREEN_RAD, ESCAPE_BOUND, SCREEN_RAD)
    for p in _screen_points(fps):
        assert np.array_equal([f(*p) for f in events], _solve_ivp_values(fps, *p),
                              equal_nan=True), p


_near = st.one_of(st.floats(-3 * SCREEN_RAD, 3 * SCREEN_RAD),
                  st.sampled_from([0.0, -0.0, SCREEN_RAD, -SCREEN_RAD, 3 * SCREEN_UNIT,
                                   -4 * SCREEN_UNIT, math.nextafter(SCREEN_RAD, 1.0)]))


# --- the quiet-step path ---------------------------------------------------------------

def _scripted_shot(monkeypatch, sys, s0, steps, fps=None):
    """connect._integrate of ``sys`` from s0 at arrival radius SCREEN_RAD,
    with ODEPACK replaced by a script of (tau, (X, Y)) steps that ends with a
    step to TAU_SPAN, and each event function by one that records the tau of
    the step it is evaluated on and returns 1, so that no event fires.
    ``fps`` replaces the system's fixed points.  Returns (the shot, the taus
    of the steps whose event values the driver computed, once a step)."""
    evaluated, now, script = {}, [0, 0.0], iter(steps)
    event_functions = connect._event_functions

    def value(_X, _Y):
        evaluated[now[0]] = now[1]
        return 1.0

    def recorded(*args):
        return [value for _ in event_functions(*args)]

    def runner(_fun, y, _t, *_args):
        now[0] += 1
        now[1], state = next(script, (connect.TAU_SPAN, y))
        return np.array(state, dtype=float), now[1], 2

    monkeypatch.setattr(connect, "_event_functions", recorded)
    monkeypatch.setattr(connect, "_lsoda", runner)
    if fps is not None:
        monkeypatch.setattr(connect, "fixed_point_locations", lambda _sys: fps)
    res, _ = connect._integrate(sys, np.array(s0, dtype=float), rtol=1e-10, atol=1e-10,
                                arrival_radius=SCREEN_RAD, p2_radius=SCREEN_RAD)
    return res, list(evaluated.values())


def _assert_quiet_hides_no_event(monkeypatch, sys, s0, path, fps=None):
    """Every step of the path s0 -> path[0] -> path[1] ... on which solve_ivp's
    rule finds a crossing (the first from a seed inside P0's ball) has its
    event values computed; returns the number of steps the quiet path took."""
    fps = fixed_point_locations(sys) if fps is None else fps
    steps = [(float(k), p) for k, p in enumerate(path, 1)]
    _, evaluated = _scripted_shot(monkeypatch, sys, s0, steps, fps)
    evaluated = set(evaluated)
    for (t, new), prev in zip(steps, [s0, *path]):
        active = _solve_ivp_active(fps, prev, new, seed=t == 1.0)
        if len(active):
            assert t in evaluated, (prev, new, active)
    return len(steps) - len(evaluated & {t for t, _ in steps})


# Case I with two and with three fixed points, Case II with P0 and P1 off Y = 0
QUIET_SYSTEMS = {"case-i-c0": build_system(CM221, 0.0), "case-i": build_system(CM221, 0.5),
                 "case-ii": build_system(CanonicalModel(m=1, p=2, q=1), 1.0)}


def _gap_edges(fps):
    """States on, just inside and just outside each bound of the quiet test,
    with every sign of Y, and the balls' boundary states."""
    rad, e, tiny = SCREEN_RAD, ESCAPE_BOUND, 2.0 ** -60
    xs = [x for edge in (rad, 1.0 - rad, 1.0 + rad, e)
          for x in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))]
    ys = [tiny, -tiny, 0.0, -0.0, 0.3, -0.3, rad, -rad, e, -e,
          math.nextafter(e, 0.0), math.nextafter(-e, 0.0)]
    return ([(x, y) for x in xs + [0.5, math.inf, math.nan] for y in ys]
            + [(0.5, math.inf), (0.5, -math.inf), (0.5, math.nan)] + _screen_points(fps))


@pytest.mark.parametrize("name", QUIET_SYSTEMS)
def test_quiet_path_never_hides_an_event(name, monkeypatch):
    # the loop's inline test skips the event values only on steps where no
    # event can fire: every step between the gaps' edges, the balls and the
    # escape bound, from states on either side of the X axis and inside each
    # ball, that solve_ivp's rule finds a crossing on has them computed
    sys = QUIET_SYSTEMS[name]
    fps = fixed_point_locations(sys)
    news = _gap_edges(fps)
    prevs = [(0.5, 0.3), (0.5, -0.3), (0.5, 2.0 ** -60), (2.0, -2.0 ** -60), (60.0, 0.3),
             (0.5, 60.0), (math.nan, 0.3)] + [(x + 1e-4, y + 1e-4) for x, y in fps.values()]
    path = [p for prev in prevs for new in news for p in (prev, new)]
    quiet = _assert_quiet_hides_no_event(monkeypatch, sys, (0.5, 0.3), path)
    # seeds inside P0's ball: their first step fires no arrival there
    (x0, y0), u = fps["P0"], SCREEN_UNIT
    for seed in [(x0 + 3 * u, y0 + u), (x0 + 3 * u, y0 - 4 * u)]:
        for new in news:
            quiet += _assert_quiet_hides_no_event(monkeypatch, sys, seed, [new])
    # and the quiet path is taken: an ordinary step skips the event values
    assert quiet > 0
    assert _assert_quiet_hides_no_event(monkeypatch, sys, (0.5, 0.3), [(0.51, 0.31)]) == 1


def test_quiet_path_needs_every_fixed_point_on_x_0_or_1(monkeypatch):
    # the quiet test is exact only while every fixed point lies on X = 0 or
    # X = 1: a shot in a system with one between them is refused at its start
    sys = QUIET_SYSTEMS["case-i"]
    fps = {"P0": (0.0, 0.0), "Q": (0.5, 0.25), "P2": (1.0, 0.0)}
    with pytest.raises(RuntimeError, match="off X = 0 and X = 1"):
        _scripted_shot(monkeypatch, sys, (0.5, 0.3), [(1.0, (0.5, 0.3))], fps)


def test_quiet_path_keeps_no_repeated_time(monkeypatch):
    # a step that does not advance tau keeps no sample, as in solve_ivp
    steps = [(1.0, (0.5, 0.3)), (2.0, (0.5, 0.31)), (2.0, (0.5, 0.32)), (3.0, (0.5, 0.33))]
    res, evaluated = _scripted_shot(monkeypatch, QUIET_SYSTEMS["case-i"], (0.5, 0.29), steps)
    assert res["tau"].tolist() == [0.0, 1.0, 2.0, 3.0, connect.TAU_SPAN]
    assert res["Y"].tolist() == [0.29, 0.3, 0.31, 0.33, 0.33]
    assert evaluated == [2.0]


_edge_x = st.sampled_from([SCREEN_RAD, 1.0 - SCREEN_RAD, 1.0 + SCREEN_RAD, ESCAPE_BOUND, 0.0, 1.0])
_quiet_state = st.tuples(
    st.one_of(st.floats(-1.0, 60.0), st.builds(lambda x, d: x + d, _edge_x,
                                               st.floats(-3 * SCREEN_RAD, 3 * SCREEN_RAD))),
    st.one_of(st.floats(-60.0, 60.0), _near,
              st.sampled_from([ESCAPE_BOUND, -ESCAPE_BOUND, 2.0 ** -60, -2.0 ** -60])))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(QUIET_SYSTEMS)), path=st.lists(_quiet_state, min_size=2,
                                                                  max_size=6))
def test_quiet_path_never_hides_an_event_on_random_steps(name, path):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_quiet_hides_no_event(monkeypatch, QUIET_SYSTEMS[name], (0.5, 0.3), path)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("order", range(1, 13))
def test_step_interpolant_is_lsoda_dense_output_bit_for_bit(order, n):
    # the event roots evaluate each step's Nordsieck polynomial directly;
    # scipy's LsodaDenseOutput over the same record gives the same bits at
    # both ends of the step and inside it
    rng = np.random.default_rng(1000 * order + n)
    for _ in range(20):
        t = float(rng.uniform(-10.0, 1e3))
        h = float(10.0 ** rng.uniform(-6.0, 1.0))
        t_old = t - h * float(rng.uniform(0.2, 1.0))
        yh = rng.normal(size=(order + 1, n)) * 10.0 ** rng.uniform(-8.0, 2.0, (order + 1, 1))
        got = connect._step_interpolant(t, h, yh)
        want = LsodaDenseOutput(t_old, t, h, order, yh.T.copy())
        for u in [t_old, t, *rng.uniform(t_old, t, 5).tolist()]:
            a, b = got(u), want(u)
            assert a.shape == b.shape == (n,) and a.tobytes() == b.tobytes(), (u, a, b)


def test_nordsieck_capture_matches_lsoda_dense_output(monkeypatch):
    # the driver reads each step's history straight from LSODA's work arrays;
    # a scipy that moves them must fail here, not produce wrong profiles
    rescaled = 0
    for name in PIN_SHOTS:
        sys, s0, kwargs = _pin_args(name, monkeypatch)
        steps = connect._integrate(sys, s0, **kwargs)[0]["solver_steps"]
        xi_rate = kwargs.get("xi_rate")
        atol = kwargs["atol"]
        if xi_rate is not None:
            s0, atol = np.append(s0, 0.0), [atol, atol, connect.XI_ATOL]
        solver = LSODA(_shot_fun(sys, xi_rate), 0.0, s0, connect.TAU_SPAN,
                       rtol=kwargs["rtol"], atol=atol)
        core = solver._lsoda_solver._integrator
        for k in range(steps):
            solver.step()
            h, yh = connect._nordsieck_record(core.iwork, core.rwork, solver.n)
            ref = solver.dense_output()
            assert h == ref.h and np.array_equal(yh, ref.yh.T), (
                f"{name}, step {k}: the captured Nordsieck record differs from "
                "LSODA._dense_output_impl; scipy changed the rwork/iwork layout")
            rescaled += core.iwork[14] < core.iwork[13]
    # the order-drop rescale of the last column is exercised
    assert rescaled > 0


def test_record_table_keeps_order_drops_and_a_repeated_end(monkeypatch):
    # the record table's rare branches on a profile shot: a step whose order
    # drops has its last history row rescaled in place, a terminal root on
    # the last sample drops that step's record and zeroes its row, and a full
    # table doubles.  On those steps state_at is solve_ivp's dense output bit
    # for bit
    sys, s0, kwargs = _pin_args("221-xi-oscillatory", monkeypatch)
    res, table = connect._integrate(sys, s0, **kwargs)
    solver = LSODA(_shot_fun(sys, kwargs["xi_rate"]), 0.0, np.append(s0, 0.0),
                   connect.TAU_SPAN, rtol=kwargs["rtol"],
                   atol=[kwargs["atol"], kwargs["atol"], connect.XI_ATOL])
    core, drops = solver._lsoda_solver._integrator, []
    for k in range(res["solver_steps"]):
        solver.step()
        if core.iwork[14] < core.iwork[13]:
            drops.append(k)
    assert drops
    # a radius one ulp inside the distance of the last step's start from P2:
    # the arrival's root lands on that sample, so the final time repeats
    X, Y = res["X"][-2], res["Y"][-2]
    r = float(np.nextafter(math.hypot(X - 1.0, Y), 0.0))
    at_end = dict(kwargs, arrival_radius=r, p2_radius=r)
    end, end_table = connect._integrate(sys, s0, **at_end)
    assert end["tau"][-1] == res["tau"][-2]
    assert end["solver_steps"] == res["solver_steps"] == len(end_table.h) + 1
    for got, tab, kw_, steps in ((res, table, kwargs, drops),
                                 (end, end_table, at_end, [len(end_table.h) - 1])):
        ref = scipy_table(_solve_ivp_integrate(sys, s0, **kw_)[1])
        ts = got["tau"]
        pts = np.concatenate([np.linspace(ts[k], ts[k + 1], 9) for k in steps]
                             + [[ts[-1] + 0.5 * (ts[-1] - ts[-2])]])
        assert np.array_equal(tab.coef[..., steps], ref.coef[..., steps])
        assert np.array_equal(tab(pts), ref(pts))
    # a table that starts with one row doubles into the same table
    monkeypatch.setattr(connect, "_DENSE_ROWS", 1)
    grown = connect._integrate(sys, s0, **kwargs)[1]
    for attr in ("ts", "t_end", "h", "coef"):
        assert np.array_equal(getattr(grown, attr), getattr(table, attr)), attr


def test_event_root_without_a_bracket_is_a_step_failure():
    # a radius one ulp inside the distance of the (1,1,0.5) c = 1 profile
    # shot's last sample before its arrival: the arrival value changes sign
    # on the step's samples, but its Nordsieck polynomial at the step's start
    # is already inside the ball, so brentq has no bracket.  The shot stops
    # with a typed error, not brentq's ValueError
    cm = CanonicalModel(m=1, p=1, q=0.5)
    sys, s0, kwargs = _profile_shot_args(cm, 1.0)
    res, _ = connect._integrate(sys, s0, **kwargs)
    r = float(np.nextafter(math.hypot(res["X"][-2] - 1.0, res["Y"][-2]), 0.0))
    with pytest.raises(kw.StepFailureError, match=r"FixedPointArrival \(P2\) event"):
        connect._integrate(sys, s0, **dict(kwargs, arrival_radius=r, p2_radius=r))
    with pytest.raises(kw.KppWavesError):
        classify_connection(cm, -1.0, profile_of=cm, arrival_radius=r)


@pytest.mark.parametrize("eps", [1e-6, 1e-5, 2e-5])
def test_no_arrival_fires_at_the_seed(eps):
    # the seed counts as inside P0's ball whether it lies inside (1e-6), on
    # (1e-5) or outside (2e-5) the default radius: the orbit leaving it
    # records no event, and the one arrival is P2's at the end
    sys, _, kwargs = _shot_args(CM221, 1.0)
    res, _ = connect._integrate(sys, linear_seed(sys, eps), **kwargs)
    traj = connect._shoot_from(sys, linear_seed(sys, eps))
    for events in (res["events"], traj.events):
        arrivals = [(ev.tau, ev.target) for ev in events
                    if ev.kind is EventKind.FIXED_POINT_ARRIVAL]
        assert arrivals == [(traj.tau[-1], "P2")]
    assert traj.arrived == "P2" and traj.tau[-1] > 0.0


def test_any_seed_offset_gives_a_result_or_a_typed_error():
    # the shot of every pinned model and speed from linear seeds with offsets
    # across (0, 1e-2], including offsets on and just past the arrival radius
    # and a radius equal to the offset, is a result or a KppWavesError, and
    # one that arrives at P2 has the class c* predicts
    pins = sorted({(cm, c) for cm, c, _ in PIN_SHOTS.values() if c > 0.0}, key=str)
    grid = [*np.geomspace(1e-9, 1e-2, 8), 1e-5, 1.37e-5, 2e-5]
    for cm, c in pins:
        sys_ = build_system(cm, c)
        for eps, radius in [(e, connect.ARRIVAL_RADIUS) for e in grid] + [(1e-6, 1e-6)]:
            try:
                traj = connect._shoot_from(sys_, linear_seed(sys_, eps), arrival_radius=radius)
                observed = connect._wave_class(traj)[0] if traj.arrived == "P2" else None
            except kw.KppWavesError:
                continue
            assert observed in (None, kw.classify_speed(cm, -c)), (cm, c, eps, radius)
    # the seed on the radius and the radius shrunk to the seed offset used
    # to end in a raw ValueError and in an arrival back at P0
    sys_ = build_system(CM221, 1.0)
    for eps, radius in ((1e-5, connect.ARRIVAL_RADIUS), (1e-6, 1e-6)):
        traj = connect._shoot_from(sys_, linear_seed(sys_, eps), arrival_radius=radius)
        assert traj.arrived == "P2" and connect._wave_class(traj)[1] == "extrema"


@pytest.mark.parametrize("share", [0.3, 0.9, 1.1])
def test_overflow_in_the_field_is_a_step_failure(share):
    # next to the regime boundary m + q = 2 the field raises X to k2 = 1e4,
    # and a trial state of the integrator overflows that power inside
    # ODEPACK's callback: the shot stops with a typed error naming the system
    cm = CanonicalModel(m=1, p=1.4999, q=0.9999)
    with pytest.raises(kw.StepFailureError, match=r"in PhaseSystemII\(.*overflowed"):
        classify_connection(cm, -share * kw.critical_speed(cm))


@pytest.mark.parametrize("mpq, share", [
    ((1.5, 0.9999, 0.4999), 0.3), ((1.5, 0.9999, 0.4999), 0.9), ((1.5, 0.9999, 0.4999), 1.1),
    ((1, 1.5001, 1.0001), 0.9), ((1.5, 1.0001, 0.5001), 0.9)])
def test_shots_next_to_the_regime_boundary_give_a_result_or_a_typed_error(mpq, share):
    # the other models within 1e-4 of m + q = 2, on either side, whose
    # fields can overflow at a trial state inside ODEPACK's callback: the
    # classification shot, and the profile shot with its reconstruction,
    # each give a result or a KppWavesError, with no numpy warning on the way
    cm = CanonicalModel(*mpq)
    c = -share * kw.critical_speed(cm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: classify_connection(cm, c),
                    lambda: reconstruct_profile(classify_connection(cm, c, profile_of=cm)
                                                .trajectory)):
            try:
                run()
            except kw.KppWavesError:
                pass


def test_shot_diagnostics_are_deterministic_counts():
    # the classification and the profile shot both start on P0's departure
    # manifold and here never leave the Adams method (njev may be 0)
    profile = classify_connection(CM221, -1.0, profile_of=CM221)
    a, b = classify_connection(CM221, -1.0), classify_connection(CM221, -1.0)
    for r in (profile, a, b):
        counts = (r.solver_steps, r.nfev, r.njev)
        assert all(type(n) is int for n in counts) and r.solver_steps > 0 and r.nfev > 0
        assert r.nfev >= r.solver_steps >= len(r.trajectory.tau) - 1
        assert counts == (r.trajectory.solver_steps, r.trajectory.nfev, r.trajectory.njev)
        assert sum(r.event_counts.values()) == len(r.trajectory.events)
        # the crossings P2's local flow adds after the arrival are no events
        assert r.event_counts["XAxisCross"] >= r.n_oscillations - r.tail_extrema
    assert (a.solver_steps, a.nfev, a.njev, a.event_counts) == \
        (b.solver_steps, b.nfev, b.njev, b.event_counts)
    none = classify_connection(CM221, 1.0)
    assert (none.solver_steps, none.nfev, none.njev) == (0, 0, 0)
    assert set(none.event_counts.values()) == {0}


def test_shots_leave_no_work_arrays_behind():
    # scipy's ODEPACK wrapper keeps a reference to the rwork and iwork it is
    # given on every step, so a shot that allocated its own would leave them
    # alive; shots run on spare arrays that connect allocates once per size.
    # 41 shots kept 30 kB of fresh arrays, 730 bytes a shot, when each shot
    # allocated them; numpy's cache of array dimensions may hold a few bytes
    sys = build_system(CM221, 3.0)

    def shots():
        for _ in range(40):
            classify_connection(CM221, -3.0)
        shoot(sys, profile_of=CM221)
        gc.collect()
        return tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*kppwaves/connect.py")])

    tracemalloc.start()
    try:
        before = shots()
        after = shots()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "lineno"))
    assert grown < 500, after.compare_to(before, "lineno")[:3]


def test_failing_shots_leave_no_work_arrays_behind(monkeypatch):
    # a shot that raises gives its spare (rwork, iwork) pair back as a shot
    # that ends does; each failing shot kept a fresh pair of 700 bytes before.
    # (1,2,1) at c = 0.5 fails ODEPACK's accuracy test within 1 ms; with no
    # crossing allowed, (2,2,1) at c = 1 exhausts the budget at its first one
    failing = build_system(CanonicalModel(m=1, p=2, q=1), 0.5)
    spiral = build_system(CM221, 1.0)
    monkeypatch.setattr(connect, "MAX_AXIS_CROSSINGS", 0)

    def shots():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for _ in range(10):
                with pytest.raises(kw.StepFailureError):
                    shoot(failing, rtol=1e-20, atol=1e-30)
                with pytest.raises(kw.InconclusiveError):
                    shoot(spiral)
        gc.collect()
        return tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*kppwaves/connect.py")])

    tracemalloc.start()
    try:
        before = shots()
        after = shots()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "lineno"))
    assert grown < 500, after.compare_to(before, "lineno")[:3]


def test_integrator_failure_names_the_reason():
    sys = build_system(CM221, 1.0)
    with warnings.catch_warnings():
        # scipy raises an rtol below 100 eps to that floor, with a UserWarning
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(kw.StepFailureError, match="Excess accuracy") as err:
            shoot(sys, rtol=1e-20, atol=1e-30)
    assert "istate -2" in str(err.value)


def test_odepack_layout_change_fails_loudly(monkeypatch, tmp_path):
    # the shot calls ODEPACK's C lsoda as scipy's own wrapper does, on state
    # arrays of the sizes that wrapper allocates.  A scipy whose wrapper keeps
    # 47 state ints (which crashes the C lsoda, not raises) must stop the shot
    full, short = ("self.state_ints = zeros(%d, dtype=np.int32)" % k for k in (48, 47))
    source = _compiled.ODE_SOURCE.read_text()
    assert source.count(full) == 1
    doctored = tmp_path / "_ode.py"
    doctored.write_text(source.replace(full, short))
    monkeypatch.setattr(_compiled, "ODE_SOURCE", doctored)
    monkeypatch.setattr(connect, "_WORK_TEMPLATES", {})
    with pytest.raises(RuntimeError, match=r"scipy\.integrate\._ode\.lsoda\.run") as err:
        shoot(build_system(CM221, 1.0))
    assert "48 state ints" in str(err.value) and full in str(err.value)
    assert connect._WORK_TEMPLATES == {}


def test_odepack_layout_is_checked_once_before_the_first_call(monkeypatch):
    calls = []
    check = _compiled.check_lsoda_layout
    monkeypatch.setattr(_compiled, "check_lsoda_layout", lambda: calls.append(check()))
    monkeypatch.setattr(connect, "_WORK_TEMPLATES", {})
    ref = classify_connection(CM221, -1.0)
    assert calls == [None]
    shoot(build_system(CM221, 1.0), profile_of=CM221)
    assert classify_connection(CM221, -1.0).extrema == ref.extrema
    assert calls == [None] and sorted(connect._WORK_TEMPLATES) == [2, 3]


@pytest.mark.parametrize("n, atol", [(2, 1e-10), (3, 1e-10), (3, [1e-10, 1e-10, 1e300])])
@pytest.mark.parametrize("rtol", [1e-10, 1e-3])
def test_work_arrays_are_what_lsoda_builds(n, atol, rtol):
    # the shot hands ODEPACK the tolerances, work arrays, option words, jt
    # and state arrays a fresh scipy LSODA of n states would
    core = LSODA(lambda _t, y: -y, 0.0, np.ones(n), connect.TAU_SPAN, rtol=rtol,
                 atol=atol)._lsoda_solver._integrator
    want_rtol, want_atol, _, _, rwork, iwork, jt = core.call_args
    got_rtol, got_atol = connect._tolerances(rtol, atol, n)
    assert type(got_rtol) is type(want_rtol) and got_rtol == want_rtol
    assert got_atol.dtype == want_atol.dtype and np.array_equal(got_atol, want_atol)
    assert jt == 2
    for got, want in zip(connect._work_template(n),
                         (rwork, iwork, core.state_doubles, core.state_ints)):
        assert got.dtype == want.dtype and np.array_equal(got, want), (got, want)
    assert connect._ISTATE_MESSAGES.items() <= core.messages.items()


def test_tolerances_are_checked_as_lsoda_checks_them():
    with pytest.warns(UserWarning) as want:
        core = LSODA(lambda _t, y: -y, 0.0, np.ones(2), 1.0, rtol=1e-20,
                     atol=1e-30)._lsoda_solver._integrator
    with pytest.warns(UserWarning) as got:
        rtol, _ = connect._tolerances(1e-20, 1e-30, 2)
    assert [str(w.message) for w in got] == [str(w.message) for w in want]
    assert type(rtol) is type(core.call_args[0]) and rtol == core.call_args[0]
    for atol in (-1e-10, [1e-10, -1e-10], [1e-10] * 3, [[1e-10, 1e-10]]):
        with pytest.raises(ValueError):
            LSODA(lambda _t, y: -y, 0.0, np.ones(2), 1.0, atol=atol)
        with pytest.raises(kw.InvalidParameterError, match="atol"):
            connect._tolerances(1e-10, atol, 2)


@pytest.mark.parametrize("kwargs", [
    {"atol": math.nan}, {"atol": math.inf}, {"rtol": math.nan}, {"rtol": math.inf},
    {"arrival_radius": math.nan}, {"arrival_radius": -1.0}, {"arrival_radius": 0.0},
    {"arrival_radius": math.inf},
], ids=["atol-nan", "atol-inf", "rtol-nan", "rtol-inf",
        "radius-nan", "radius-negative", "radius-zero", "radius-inf"])
def test_non_finite_tolerances_and_radii_are_refused(kwargs):
    # scipy passes a NaN or infinite tolerance on to ODEPACK, where a shot
    # "arrives" at P0 or leaves the half-plane; a shot with such a radius
    # never arrives.  Each is refused before the shot, whichever path runs
    # it; a shot that only classifies takes no radius at all
    [name] = kwargs
    runs = [lambda: shoot(build_system(CM221, 3.0), **kwargs),
            lambda: classify_connection(CM221, -3.0, profile_of=CM221, **kwargs)]
    if name != "arrival_radius":
        runs.append(lambda: classify_connection(CM221, -3.0, **kwargs))
    for run in runs:
        with pytest.raises(kw.InvalidParameterError, match=rf"{name}\b.* finite"):
            run()


def test_classification_shot_takes_no_arrival_radius():
    # a shot that only classifies has one stop rule, at the reach of P2's
    # map and on its slow manifold: any radius is refused, as a seed offset
    # is on either path
    for radius in (1e-8, connect.CLASSIFY_RADIUS, math.nan):
        with pytest.raises(TypeError, match="arrival_radius"):
            classify_connection(CM221, -1.0, arrival_radius=radius)
    for kwargs in ({}, {"profile_of": CM221}):
        with pytest.raises(TypeError, match="eps"):
            classify_connection(CM221, -1.0, eps=1e-6, **kwargs)


def test_missing_compiled_module_names_the_scipy(monkeypatch, tmp_path):
    import scipy
    monkeypatch.setattr(_compiled, "SCIPY_DIR", tmp_path)
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} .* no compiled module "
                       r"scipy\.integrate\._absent"):
        _compiled._load("integrate", "_absent")


def _event_like(kind):
    """A function of tau shaped like a shot's event values: a path spiralling
    into P2 = (1, 0), seen by an arrival ball, the escape box or the X axis."""
    def path(u):
        r = 0.5 * math.exp(-u)
        return 1.0 + r * math.cos(3.0 * u), r * math.sin(3.0 * u)

    return {"arrival": lambda u: math.hypot(path(u)[0] - 1.0, path(u)[1]) - 1e-2,
            "axis": lambda u: path(u)[1],
            "escape": lambda u: max(path(u)[0] - 3.0, abs(path(u)[1]) - 3.0)}[kind]


@pytest.mark.parametrize("kind", ["arrival", "axis", "escape"])
@pytest.mark.parametrize("xtol, rtol", [(connect._ROOT_TOL, connect._ROOT_TOL),
                                        (1e-13, 4 * np.finfo(float).eps), (2e-12, 1e-6)])
def test_brentq_is_scipys_bit_for_bit(kind, xtol, rtol):
    f = _event_like(kind)
    grid = np.linspace(-2.0, 5.0, 201)
    values = [f(u) for u in grid]
    brackets = [(a, b) for a, b, fa, fb in zip(grid, grid[1:], values, values[1:])
                if fa * fb < 0.0]
    assert brackets
    for a, b in brackets:
        for lo, hi in ((a, b), (b, a), (a - 0.013, b + 0.021)):
            if f(lo) * f(hi) > 0.0:
                continue
            got = _compiled.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            want = brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            assert type(got) is type(want) and got.hex() == want.hex(), (lo, hi)


def test_brentq_refuses_what_scipys_refuses():
    def nan_inside(u):
        return math.nan if 0.3 < u < 0.7 else u - 0.5

    # no sign change; NaN at an end; NaN on an iterate
    for f, a, b in ((lambda u: u * u + 1.0, -1.0, 1.0), (lambda _u: math.nan, 0.0, 1.0),
                    (nan_inside, 0.0, 1.0)):
        with pytest.raises(ValueError) as want:
            brentq(f, a, b)
        with pytest.raises(ValueError) as got:
            _compiled.brentq(f, a, b)
        assert str(got.value) == str(want.value)


def test_axis_events_sit_on_the_axis():
    traj = shoot(build_system(CM221, 1.0))
    crossings = [ev for ev in traj.events if ev.kind is EventKind.X_AXIS_CROSS]
    assert crossings, "an oscillatory orbit must cross Y = 0"
    for ev in crossings:
        assert abs(ev.state[1]) < 1e-9


# --- a shot that only classifies against a fine shot -------------------------------

def _fine_shot(cm, c):
    """(class, count, X0) of the shot from the linear seed 1e-6 off P0 to
    radius 1e-8, read from the crossings it records: no tail from P2's map
    adds to them."""
    sys_ = build_system(cm, abs(c))
    traj = connect._shoot_from(sys_, linear_seed(sys_), arrival_radius=1e-8)
    assert traj.arrived == "P2"
    xs = [ev.state[0] for ev in traj.events
          if ev.kind is EventKind.X_AXIS_CROSS and ev.state[0] > 1e-8]
    n = sum(abs(x - 1.0) > connect.GRAZE_TOL for x in xs)
    p2 = {fp.name: fp for fp in kw.fixed_points(traj.sys)}["P2"]
    focus = p2.kind is kw.FixedPointKind.STABLE_FOCUS and not p2.degenerate
    observed = SpeedClass.OSCILLATORY if n or focus else SpeedClass.MONOTONE
    return observed, n, xs[0] if xs else 1.0


def _assert_matches_fine_shot(cm, speeds):
    # class, count, and X0 to README's 2e-9
    for c in speeds:
        r = classify_connection(cm, c)
        observed, n, x0 = _fine_shot(cm, c)
        assert (r.observed, r.n_oscillations) == (observed, n), (cm, c)
        assert abs(r.x0 - x0) <= 2e-9, (cm, c, r.x0, x0)


@pytest.mark.parametrize("mpq", [(2, 2, 1), (1, 2, 1), (1, 1, 0.5), (0.5, 2, 1), (3, 2.5, 1)])
def test_classification_shot_matches_the_fine_shot(mpq):
    # seeded on P0's departure manifold and stopped 1e-4 from P2, the shot's
    # class, count and X0 are those of a shot from 1e-6 to 1e-8; the counts
    # of the 0.45-0.99 c* rows fell short when the arrival ball hid the
    # spiral's tail
    cm = CanonicalModel(*mpq)
    shares = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 0.95, 0.99, 1.05, 1.5)
    _assert_matches_fine_shot(cm, [-s * kw.critical_speed(cm) for s in shares])


@pytest.mark.parametrize("mpq", [(2, 2, 1), (1, 2, 1), (1, 1, 0.5), (0.5, 2, 1), (3, 2.5, 1)])
def test_manifold_seed_keeps_x0_within_2e_9_of_the_fine_shot(mpq):
    # seeded on P0's departure-manifold series, the shot that only classifies
    # has the fine shot's class and count, and its X0 to 2e-9
    cm = CanonicalModel(*mpq)
    shares = (0.08, 0.15, 0.25, 0.4, 0.55, 0.7, 0.85, 0.92, 1.1, 2.0)
    _assert_matches_fine_shot(cm, [-s * kw.critical_speed(cm) for s in shares])


def _manifold_graph(sys, X, start, rtol):
    """h(X) on P0's departure manifold Y = h(X): the graph equation gamma X h
    h' = -h (h + s X^a) + X^b - X^e integrated over ln X (DOP853) from the
    series at start * X."""
    g, (s, a, b, e) = sys.gamma, sys.form
    alpha, c = kw.phaseplane.departure_series(sys)
    X1 = start * X
    sol = solve_ivp(lambda t, h: (-h * (h + s * math.exp(a * t)) + math.exp(b * t)
                                  - math.exp(e * t)) / (g * h),
                    (math.log(X1), math.log(X)), [sum(ck * X1 ** x for x, ck in zip(alpha, c))],
                    method="DOP853", rtol=rtol, atol=1e-20)
    assert sol.success
    return sol.y[0, -1]


@pytest.mark.parametrize("mpq", [(2, 2, 1), (1, 2, 1), (0.5, 2, 1), (1, 1, 0.5), (3, 2.5, 1)])
def test_manifold_seed_lies_on_the_departing_orbit(mpq):
    # the manifold attracts the graphs near it as X grows, so integrating
    # its graph equation from the series at X / 2, where the series' error
    # is 2^-alpha_next of that at the seed, gives the manifold's Y at the
    # seed's X; started at X / 10 with ten times the tolerance, that Y moves
    # by less than SERIES_TOL / 50, so it decides the question.  The seed's
    # Y is the manifold's to SERIES_TOL
    cm = CanonicalModel(*mpq)
    tol = kw.phaseplane.SERIES_TOL
    for share in (0.05, 0.1, 0.2, 0.5, 0.9, 1.2, 2.0):
        sys = build_system(cm, share * kw.critical_speed(cm))
        X, Y = kw.phaseplane.departure_seed(sys)
        ref = _manifold_graph(sys, X, 0.5, 1e-13)
        assert abs(_manifold_graph(sys, X, 0.1, 1e-12) - ref) <= tol / 50
        assert abs(Y - ref) <= tol


def _sweep_benchmark(seed):
    """(model, speeds) of each job of the benchmark's sweep round on ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        jobs = workloads.make_jobs("sweep", seed)[1]
    finally:
        del sys.modules[spec.name]
    assert sum(len(job.speeds) for job in jobs) == 120
    return [(kw.nondimensionalize(kw.GeneralModel(**job.model))[0] if "kappa" in job.model
             else CanonicalModel(**job.model), job.speeds) for job in jobs]


def test_classification_shot_matches_the_fine_shot_on_the_sweep_benchmark():
    # the 120 speeds of the benchmark's sweep round on seven seeds' grids:
    # class, count and X0 to README's 2e-9
    for seed in (1, 2, 7, 13, 17, 31, 1234):
        for cm, speeds in _sweep_benchmark(seed):
            _assert_matches_fine_shot(cm, speeds)


def test_sweep_benchmark_round_stays_within_its_step_budget():
    # seeded up to X = 0.8 on P0's departure manifold, stopped where P2's
    # map reaches and, at a node, on P2's slow manifold, the 120 shots of
    # the seed-1 round take 18,648 ODEPACK steps; without the slow manifold
    # they take 24,634, stopped 1e-4 from P2 33,047, and seeded up to X =
    # 0.2 41,642, all well past the bound
    steps = sum(classify_connection(cm, c).solver_steps
                for cm, speeds in _sweep_benchmark(1) for c in speeds)
    assert steps <= 19_150


def test_sweep_benchmark_keeps_the_papers_orderings():
    # along each model's grid, X0 never rises as |c| grows, and neither does
    # the oscillation count: a shot that stopped on P2's slow manifold where
    # its orbit still had to overshoot X = 1 would break one of them.  The
    # three seeds' grids hold 345 pairs of neighbouring speeds
    pairs = 0
    for seed in (1, 7, 31):
        for cm, speeds in _sweep_benchmark(seed):
            rows = [classify_connection(cm, c) for c in sorted(speeds, key=abs)]
            for slow, fast in zip(rows, rows[1:]):
                assert fast.x0 <= slow.x0, (seed, cm, fast.c, fast.x0, slow.x0)
                assert fast.n_oscillations <= slow.n_oscillations, (seed, cm, fast.c)
                pairs += 1
    assert pairs == 345


def _slow_graph(sys_, X, start, rtol):
    """g(X) on P2's slow manifold Y = g(X): the graph equation dY/dX = (-Y (Y
    + s X^a) + X^b - X^e) / (gamma X Y) integrated (DOP853) from the series
    at X - 1 scaled by ``start`` to X.  Away from P2 the graphs near g part
    from it like |X - 1|^(l2 / l1), so the start lies close enough to X for
    that to stay a factor of 10 to 100."""
    g, (s, a, b, e) = sys_.gamma, sys_.form
    X1 = 1.0 + start * (X - 1.0)
    sol = solve_ivp(lambda X, Y: (-Y * (Y + s * X ** a) + X ** b - X ** e) / (g * X * Y),
                    (X1, X), [kw.slow_manifold(sys_)(X1)], method="DOP853", rtol=rtol,
                    atol=1e-20)
    assert sol.success
    return sol.y[0, -1]


@pytest.mark.parametrize("mpq, share, stops", [((2, 2, 1), 2.716, True),
                                               ((2, 2, 1), 1.3, False),
                                               ((1, 1, 0.5), 2.83, True),
                                               ((1, 2, 1), 2.0, True)])
def test_slow_manifold_series_lies_on_the_field_graph(mpq, share, stops):
    # at the series' reach, and at the shot's stop where it stops on g, the
    # series is the graph of the field's own flow to P2_TOL: the graph
    # equation integrated from the series nearer P2 by a factor 10^(-1/r)
    # or 10^(-2/r), r = l2 / l1, gives the same Y to P2_TOL / 10 and the
    # series' Y to P2_TOL.  At 1.3 c* (r = 4.5) the orbit's own part along
    # the fast direction is still above P2_TOL where P2's map takes over
    cm = CanonicalModel(*mpq)
    tol = kw.phaseplane.P2_TOL
    r = classify_connection(cm, -share * kw.critical_speed(cm))
    traj = r.trajectory
    g = kw.slow_manifold(traj.sys)
    l1, l2 = kw.arrival_map(traj.sys).lam
    assert 0.0 < g.reach <= 0.8 * g.radius
    points = [1.0 - g.reach]
    assert traj.on_manifold is stops
    if stops:
        assert (r.observed, r.evidence, r.x0) == (SpeedClass.MONOTONE, "manifold", 1.0)
        assert 0.0 < 1.0 - traj.X[-1] < g.reach
        assert abs(traj.Y[-1] - g(traj.X[-1])) <= tol
        points.append(traj.X[-1])
    else:
        assert (r.observed, r.evidence, r.x0) == (SpeedClass.MONOTONE, "range", 1.0)
    for X in points:
        ref = _slow_graph(traj.sys, X, 10.0 ** (-2.0 * l1 / l2), 1e-13)
        assert abs(_slow_graph(traj.sys, X, 10.0 ** (-l1 / l2), 1e-13) - ref) <= tol / 10
        assert abs(g(X) - ref) <= tol


@pytest.mark.parametrize("c, observed, n, x0", [
    (2.5, SpeedClass.MONOTONE, 0, 1.0),         # l2 = 4 l1 exactly
    (1.8, SpeedClass.OSCILLATORY, 1, 1.000093981916758),   # a focus, 0.9 c*
    (2.0, SpeedClass.MONOTONE, 0, 1.0),         # c = c*, l1 = l2
])
def test_shots_without_a_slow_manifold_run_as_before(c, observed, n, x0):
    # at an exact resonance, a focus and c = c*, P2 has no slow-manifold
    # series, and the shot keeps the class, count and X0 it had without one
    sys_ = build_system(CM221, c)
    assert kw.slow_manifold(sys_) is None
    r = classify_connection(CM221, -c)
    assert not r.trajectory.on_manifold and r.evidence != "manifold"
    assert (r.observed, r.n_oscillations, r.x0) == (observed, n, x0)


def _dop853_crossings(sys_, tau0, state, tau_end):
    """(tau, X) at the Y = 0 crossings of the full field from ``state`` at
    tau0 up to tau_end, by DOP853 at rtol 1e-13."""
    rhs = scalar_field(sys_)
    sol = solve_ivp(lambda _t, s: rhs(s[0], s[1]), (tau0, tau_end), list(state),
                    method="DOP853", rtol=1e-13, atol=1e-16, events=lambda _t, s: s[1])
    assert sol.success
    return [(float(t), float(s[0])) for t, s in zip(sol.t_events[0], sol.y_events[0])]


def test_tail_crossings_follow_the_focus():
    # after the arrival the crossings are those of P2's local flow.  On its
    # conjugacy truncated at degree 1, the linear flow, they are pi/beta
    # apart, |X - 1| shrinking by exp(alpha pi/beta) from one to the next.
    # The full map's crossings, which the class counts, are the field's own
    r = classify_connection(CM221, -0.5)
    traj = r.trajectory
    (alpha, beta), = {(lam.real, abs(lam.imag)) for lam in
                      linearization(traj.sys, 1.0, 0.0)[1]}
    tail = list(takewhile(lambda e: abs(e[1] - 1.0) > connect.GRAZE_TOL,
                          connect._tail_crossings(traj, degree=1)))
    assert len(tail) >= 5 and tail[0][0] > traj.tau[-1]
    assert np.allclose(np.diff([t for t, _ in tail]), math.pi / beta, rtol=1e-12)
    amps = np.array([x - 1.0 for _, x in tail])
    assert np.all(amps[1:] * amps[:-1] < 0.0)
    assert np.allclose(amps[1:] / amps[:-1], -math.exp(alpha * math.pi / beta), rtol=1e-10)
    assert abs(amps[-1]) > connect.GRAZE_TOL >= abs(amps[-1]) * math.exp(alpha * math.pi / beta)
    full = r.extrema[-r.tail_extrema:]
    ref = _dop853_crossings(traj.sys, traj.tau[-1], (traj.X[-1], traj.Y[-1]), full[-1][0] + 1.0)
    assert len(full) == len(ref) >= 5
    for (t, x), (t_ref, x_ref) in zip(full, ref):
        assert abs(t - t_ref) <= 1e-8 and abs(x - x_ref) <= 1e-10


def test_tail_zero_of_a_node_lies_on_its_linear_flow():
    # at a node P2 the linear flow from the slow mode plus twice as much of
    # the fast one in Y, opposite in sign, crosses Y = 0 once: on P2's
    # conjugacy truncated at degree 1 where expm puts it, on the full map
    # where the field does
    sys_ = build_system(CM221, 3.0)
    J, (l1, l2), V = linearization(sys_, 1.0, 0.0)
    assert l1.imag == l2.imag == 0.0 and l1.real > l2.real
    V = V.real
    delta0 = 1e-3 * (V[:, 0] - 2.0 * V[1, 0] / V[1, 1] * V[:, 1])
    traj = connect.Trajectory(tau=np.array([0.0, 7.0]), X=np.array([0.5, 1.0 + delta0[0]]),
                              Y=np.array([0.0, delta0[1]]), events=[], sys=sys_,
                              arrived="P2", escaped=False)
    (tau, x), = connect._tail_crossings(traj, degree=1)
    assert tau > 7.0
    X, Y = expm(J * (tau - 7.0)) @ delta0 + (1.0, 0.0)
    assert abs(Y) <= 1e-15 and x == pytest.approx(X, rel=1e-14)
    (tau, x), = connect._tail_crossings(traj)
    t_ref, x_ref = _dop853_crossings(sys_, 7.0, (1.0 + delta0[0], delta0[1]), 20.0)[0]
    assert abs(tau - t_ref) <= 1e-10 and abs(x - x_ref) <= 1e-12
    assert first_X_axis_intersection(traj) == x


@pytest.mark.parametrize("mpq", [(2, 2, 1), (1, 2, 1), (1, 1, 0.5), (0.5, 2, 1), (3, 2.5, 1)])
def test_p2_map_is_the_flow_within_its_reach(mpq):
    # from states on the circle of the map's reach about P2, K(e^{Lambda t}
    # K^-1(state)) is the field's flow (DOP853) to P2_TOL, also near c*,
    # where P2's eigenvectors nearly coincide and the reach shrinks with
    # |V^-1|
    cm = CanonicalModel(*mpq)
    for share in (0.3, 0.92, 1.015, 1.6):
        sys_ = build_system(cm, share * kw.critical_speed(cm))
        K, rhs = kw.arrival_map(sys_), scalar_field(sys_)
        (l1, l2), T = K.lam, 2.0
        for angle in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            dx, dy = K.reach * math.cos(angle), K.reach * math.sin(angle)
            th1, th2 = K.invert(dx, dy)
            X, Y, _ = K._state(th1 * cmath.exp(l1 * T), th2 * cmath.exp(l2 * T))
            sol = solve_ivp(lambda _t, s: rhs(s[0], s[1]), (0.0, T), [1.0 + dx, dy],
                            method="DOP853", rtol=1e-13, atol=1e-16)
            assert max(abs(sol.y[0, -1] - 1.0 - X), abs(sol.y[1, -1] - Y)) <= kw.phaseplane.P2_TOL


@pytest.mark.parametrize("shift", [1e-9, 1e-6, 1e-3, -1e-9, -1e-6, -1e-3])
def test_tail_keeps_a_crossing_next_to_the_arrival(shift):
    # started ``shift`` half-turns before a crossing of the map's flow, the
    # tail's first crossing is that one; started after it, the next one.  The
    # map moves the linear flow's crossings to either side by turns, so one
    # of two neighbours has the linear flow's just before a start that the
    # map's follows
    sys_ = build_system(CM221, 1.0)
    K = kw.arrival_map(sys_)
    l1, start = K.lam[0], (0.6 * K.reach, -0.8 * K.reach)
    th1, _ = K.invert(*start)
    crossings = list(islice(K.crossings(*start), 3))
    for k in (0, 1):
        t0 = crossings[k][0] - shift * math.pi / l1.imag
        z = th1 * cmath.exp(l1 * t0)
        dx, dy, _ = K._state(z, z.conjugate())
        t, x = next(K.crossings(dx, dy))
        t_ref, x_ref = crossings[k if shift > 0 else k + 1]
        assert abs(t0 + t - t_ref) <= 1e-9 and abs(x - x_ref) <= 1e-12


def _ratio_speed(cm, ratio):
    """|c| at which P2's eigenvalues l2/l1 = ratio: c* (ratio + 1) / (2 sqrt(ratio))."""
    return kw.critical_speed(cm) * (ratio + 1.0) / (2.0 * math.sqrt(ratio))


@pytest.mark.parametrize("mpq", [(2, 2, 1), (1, 2, 1)])
def test_p2_map_edges_keep_the_fine_shot(mpq):
    # where P2's eigenvalue ratio lies within 1e-6 of 2, 3 and 4 a node's map
    # has near-resonant coefficients, and near c* the eigenvectors nearly
    # coincide (a focus at 0.92 c*, a node at 1.015 c*: the edges of the
    # benchmark's excluded band).  There the map's reach falls back toward
    # CLASSIFY_RADIUS, and class, count and X0 are the fine shot's, without
    # a division by zero or an overflow
    cm = CanonicalModel(*mpq)
    speeds = [_ratio_speed(cm, n + d) for n in (2, 3, 4) for d in (-1e-6, 0.0, 1e-6)]
    for c, n in zip(speeds, (2, 2, 2, 3, 3, 3, 4, 4, 4)):
        l1, l2 = linearization(build_system(cm, c), 1.0, 0.0)[1]
        assert abs(l2 / l1 - n) <= 1.01e-6
    speeds += [0.92 * kw.critical_speed(cm), 1.015 * kw.critical_speed(cm)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_fine_shot(cm, [-c for c in speeds])


@pytest.mark.parametrize("mpq, c, n", [((2, 2, 1), 2.5, 4), ((2, 3, 1), 3.0, 2),
                                       ((2, 4, 1), 4.0, 3)])
def test_exact_resonance_leaves_the_linear_flow(mpq, c, n):
    # l2 = n l1 exactly in floats: order n has no conjugacy term, so the map
    # is the linear flow with no reach, and the shot stops at CLASSIFY_RADIUS
    cm = CanonicalModel(*mpq)
    sys_ = build_system(cm, c)
    l1, l2 = linearization(sys_, 1.0, 0.0)[1]
    assert l2 == n * l1
    K = kw.arrival_map(sys_)
    assert (K.degree, K.reach) == (1, 0.0)
    _assert_matches_fine_shot(cm, [-c])


def test_slow_wave_stops_at_the_crossing_budget():
    # a slow Case I wave spirals into P2 with work like 1/c: (2,2,1) records
    # 5,250 crossings at c = -1e-3, which still classifies, and about 26,000
    # at c = -2e-4.  At c = -1e-5 the shot ran for minutes; past
    # MAX_AXIS_CROSSINGS it stops with a typed error naming c and the budget
    assert classify_connection(CM221, -1e-3).n_oscillations == 8182
    with pytest.raises(kw.InconclusiveError) as err:
        classify_connection(CM221, -2e-4)
    assert "c=0.0002" in str(err.value)
    assert f"{connect.MAX_AXIS_CROSSINGS} X-axis crossings" in str(err.value)


# --- the explicit zero-speed orbit ----------------------------------------------

def test_zero_speed_shot_follows_closed_form():
    s = build_system(CM221, 0.0)
    traj = shoot(s)
    mask = traj.X > 1e-6
    defect = traj.Y[mask] ** 2 - zero_speed_curve(s, traj.X[mask])
    assert np.max(np.abs(defect)) < 1e-6
    x0 = first_X_axis_intersection(traj)
    assert x0 == pytest.approx(zero_speed_X0(s), abs=1e-4)
    assert x0 == pytest.approx(4.0 / 3.0, abs=1e-4)


# --- turning point monotonicity --------------------------------------------------

def _turning_points(cm, speeds):
    """X0 of the plain shot at each speed."""
    return [first_X_axis_intersection(shoot(build_system(cm, c))) for c in speeds]


def test_turning_point_decreases_with_speed():
    xs = _turning_points(CM221, [0.0, 0.5, 1.0, 2.0])
    assert xs[0] == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert all(b <= a + 1e-9 for a, b in zip(xs, xs[1:]))
    assert xs[-1] == pytest.approx(1.0, abs=1e-3)


def test_turning_point_saturates_past_threshold():
    at_2, at_5 = _turning_points(CM221, [2.0, 5.0])
    assert at_2 == pytest.approx(1.0, abs=1e-3)
    assert at_5 == pytest.approx(1.0, abs=1e-4)


# --- classification ---------------------------------------------------------------

def test_classify_oscillatory_with_measured_overshoots():
    r = classify_connection(CM221, -1.0)
    assert r.observed is SpeedClass.OSCILLATORY
    assert r.predicted is SpeedClass.OSCILLATORY
    assert r.evidence == "extrema"
    assert r.n_oscillations >= 3
    assert r.x0 == pytest.approx(1.0331873960, abs=1e-6)
    # overshoot amplitudes decay along the orbit
    amps = [abs(x - 1.0) for _, x in r.extrema]
    assert all(b < a for a, b in zip(amps, amps[1:]))


def test_classify_oscillatory_near_threshold_uses_focus_evidence():
    # the first overshoot here, 1 + 3.7e-8, is within the grazing guard, so
    # the extremum count is zero, as it is on a shot to radius 1e-8; the
    # spiral kind of the rest state decides
    r = classify_connection(CM221, -1.95)
    assert r.observed is SpeedClass.OSCILLATORY
    assert r.evidence == "focus"
    assert r.n_oscillations == _fine_shot(CM221, -1.95)[1] == 0
    assert r.x0 == pytest.approx(1.0 + 3.66e-8, abs=1e-9)


@pytest.mark.parametrize("c", [-1.90, -1.93, -1.96])
def test_profile_class_is_the_shot_class(c):
    # each first overshoot lies inside the profile shot's arrival ball.  At
    # -1.90 it clears the grazing guard and P2's local flow counts it; at
    # -1.93 and -1.96 it does not, and focus evidence decides.  The profile
    # ends at the arrival, so it shows no overshoot
    r = classify_connection(CM221, c, profile_of=CM221)
    n = {-1.90: 1, -1.93: 0, -1.96: 0}[c]
    assert r.n_oscillations == r.tail_extrema == n == _fine_shot(CM221, c)[1]
    assert (r.observed, r.evidence) == (SpeedClass.OSCILLATORY, "extrema" if n else "focus")
    prof = reconstruct_profile(r.trajectory)
    assert prof.overshoot_extrema == ()


def test_classify_threshold_speed_is_monotone_low_confidence():
    r = classify_connection(CM221, -2.0)
    assert r.observed is SpeedClass.MONOTONE
    assert r.evidence == "range"
    assert r.low_confidence


def test_classify_fast_speeds_monotone():
    for c in (-2.5, -5.0):
        r = classify_connection(CM221, c)
        assert r.observed is SpeedClass.MONOTONE
        assert not r.low_confidence
        assert r.x0 == pytest.approx(1.0, abs=1e-4)


def test_classify_nonnegative_speed_is_waveless():
    for c in (0.0, 0.5, 3.0):
        r = classify_connection(CM221, c)
        assert r.observed is SpeedClass.NO_WAVE
        assert r.evidence == "sign"
        assert r.trajectory is None and r.x0 is None


def test_classify_agrees_with_prediction_on_case_ii():
    cm = CanonicalModel(m=1, p=2, q=1)
    assert classify_connection(cm, -1.0).observed is SpeedClass.OSCILLATORY
    assert classify_connection(cm, -3.0).observed is SpeedClass.MONOTONE


# --- profiles -----------------------------------------------------------------------

def test_monotone_profile_shape(monotone_profile_121):
    prof, cm = monotone_profile_121
    # the fixture's shot, classified
    assert classify_connection(cm, -3.0, profile_of=cm).observed is SpeedClass.MONOTONE
    assert prof.c == pytest.approx(-3.0, rel=1e-12)
    assert np.all(np.diff(prof.xi) > 0.0)
    assert np.all(np.diff(prof.f) <= 1e-12)
    assert np.interp(0.0, prof.xi, prof.f) == pytest.approx(0.5, abs=1e-6)
    assert prof.f[0] == pytest.approx(1.0, abs=1e-4)
    assert prof.f[-1] < 1e-4
    assert prof.overshoot_extrema == ()


def test_oscillatory_profile_shape(oscillatory_profile_221):
    prof, cm = oscillatory_profile_221
    # the fixture's shot, classified
    assert classify_connection(cm, -1.0, profile_of=cm).observed is SpeedClass.OSCILLATORY
    assert prof.c == pytest.approx(-1.0, rel=1e-12)
    assert prof.f.max() == pytest.approx(1.0331873960, abs=1e-4)
    assert np.interp(0.0, prof.xi, prof.f) == pytest.approx(0.5, abs=1e-6)
    ext = prof.overshoot_extrema
    assert len(ext) >= 3
    assert all(x2 > x1 for (x1, _), (x2, _) in zip(ext, ext[1:]))
    # overshoot amplitude grows toward the front (decays behind it)
    amps = [abs(f - 1.0) for _, f in ext]
    assert all(b > a for a, b in zip(amps, amps[1:]))


def test_profile_matches_closed_form_wave():
    # (m,p,q) = (1,2,1) at c = -5/sqrt(6) has the explicit front
    # u = 1 - (1 + (sqrt(2) - 1) e^(-xi/sqrt(6)))^-2 with u(0) = 1/2
    # (Ablowitz & Zeppetella 1979)
    cm = CanonicalModel(m=1, p=2, q=1)
    r = classify_connection(cm, -5.0 / math.sqrt(6.0), profile_of=cm)
    assert r.observed is SpeedClass.MONOTONE
    prof = reconstruct_profile(r.trajectory)
    with np.errstate(over="ignore"):
        exact = 1.0 - (1.0 + (math.sqrt(2.0) - 1.0) * np.exp(-prof.xi / math.sqrt(6.0))) ** -2
    assert np.max(np.abs(prof.f - exact)) < 1e-6


def test_profile_tail_matches_the_closed_form_wave():
    # the tail f < 0.1 lies between the P0 end and the shot's seed on P0's
    # departure manifold, where the series gives xi; a shot drifting from
    # 1e-6 off P0 with xi outside its error test was off by 2.4e-4 relative
    cm = CanonicalModel(m=1, p=2, q=1)
    prof = reconstruct_profile(classify_connection(
        cm, -5.0 / math.sqrt(6.0), profile_of=cm).trajectory)
    exact = 1.0 - (1.0 + (math.sqrt(2.0) - 1.0) * np.exp(-prof.xi / math.sqrt(6.0))) ** -2
    tail = prof.f < 0.1
    assert tail.sum() > 1000 and prof.series_samples > 0
    assert np.max(np.abs(prof.f[tail] / exact[tail] - 1.0)) < 1e-7


def test_profile_xi_along_the_departure_manifold_matches_a_tight_integration():
    # the shoot command's (2,2,1) profile at c = -2.9283: the xi distance
    # between its samples nearest X = 1e-5 and X = 0.05 against the manifold
    # integrated by DOP853 with xi in the error test (25.124501527296 over
    # the whole span).  A shot from 1e-6 off P0 read 25.12415199
    cm = CanonicalModel(m=2, p=2, q=1)
    prof = reconstruct_profile(classify_connection(cm, -2.9283, profile_of=cm).trajectory)
    sys_ = build_system(cm, 2.9283)
    reference = _series_xi(sys_, cm, 1e-5, 0.05)
    assert float(reference(1e-5)) == pytest.approx(-25.124501527296, abs=1e-9)
    X = prof.f ** (1.0 / connect._profile_exponents(sys_, cm)[2])
    j, k = (int(np.argmin(np.abs(np.log(X / x)))) for x in (1e-5, 0.05))
    # the profile is flipped: xi grows toward P0
    got = prof.xi[j] - prof.xi[k]
    assert abs(got + float(reference(X[j]) - reference(X[k]))) < 1e-9


def test_benchmark_profile_shots_start_on_the_departure_manifold():
    # the nine seed-1 profiles of the benchmark: their shots took 4,398
    # ODEPACK steps from 1e-6 off P0, 59 % of them before departure_seed's X
    shots = [((1, 2, 1), (-1.0526, -3.2056, -5.0 / math.sqrt(6.0))),
             ((2, 2, 1), (-1.1598, -2.9283)), ((1, 1, 0.5), (-0.979, -2.3136)),
             ((3, 2.5, 1), (-1.42, -3.5198))]
    steps = 0
    for mpq, speeds in shots:
        cm = CanonicalModel(*mpq)
        for c in speeds:
            r = classify_connection(cm, c, profile_of=cm)
            x_s = min(kw.phaseplane.departure_seed(r.trajectory.sys)[0], connect.PROFILE_SEED_X)
            assert r.trajectory.X[0] == x_s
            steps += r.solver_steps
    assert steps <= 2400


def test_case_i_profile_matches_tight_shot():
    # xi's rate is X^((m-1)/gamma) = X here, not the constant of the
    # closed-form test; the reference is the same orbit shot at 1e-13
    for cm, c in ((CM221, 1.0), (CanonicalModel(m=3, p=2.5, q=1), 3.5198)):
        s = build_system(cm, c)
        got, ref = (reconstruct_profile(shoot(s, profile_of=cm, **tol))
                    for tol in ({}, {"rtol": 1e-13, "atol": 1e-13}))
        front = ref.f > 1e-4
        assert np.max(np.abs(np.interp(ref.xi[front], got.xi, got.f) - ref.f[front])) < 1e-6


def test_non_finite_profile_is_inconclusive():
    # xi's rate X^expo, expo = -46.7, overflows near this slow orbit's seed;
    # the shot caps it and the profile must be refused, not returned full of
    # NaN, with no numpy warning on the way
    cm = CanonicalModel(m=0.72, p=3.741, q=1.286)
    s = build_system(cm, 0.05 * kw.critical_speed(cm))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = shoot(s, profile_of=cm)
        with pytest.raises(kw.InconclusiveError, match="non-finite"):
            reconstruct_profile(traj)


@pytest.mark.parametrize("mpq", [(1.5, 1.0001, 0.5001), (1.5, 0.9999, 0.4999)])
def test_underflowing_xi_rate_is_refused(mpq):
    # next to m + q = 2, on either side, expo is 5,000 or 10,001: X^expo
    # underflows over most of the orbit, and the Newton steps would divide by
    # 0.  The orbit from P0's departure manifold reaches P2, and the profile
    # is refused with a typed error, with no numpy warning on the way
    cm = CanonicalModel(*mpq)
    traj = classify_connection(cm, -0.9 * kw.critical_speed(cm), profile_of=cm).trajectory
    assert connect._profile_exponents(traj.sys, cm)[1] > 4000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kw.InconclusiveError, match="leaves its range"):
            reconstruct_profile(traj)


def test_reconstruct_needs_a_shot_that_carries_xi():
    s = build_system(CM221, 1.0)
    plain = shoot(s)
    assert plain.xi is None
    # nor does it keep the dense output that would be evaluated
    with pytest.raises(kw.InvalidParameterError, match="profile_of"):
        plain.state_at(plain.tau[len(plain.tau) // 2])
    with pytest.raises(kw.InvalidParameterError, match="profile_of"):
        reconstruct_profile(plain)
    # nor a trajectory that names its model but has no dense output
    bare = dataclasses.replace(shoot(s, profile_of=CM221), _table=None)
    with pytest.raises(kw.InvalidParameterError, match="profile_of"):
        reconstruct_profile(bare)


@pytest.mark.parametrize("mpq", [(3, 2.5, 1), (1, 2, 1)])
def test_profile_of_must_give_the_shot_system(mpq):
    # (3, 2.5, 1) has (gamma, k) = (2, 1.75) against (2,2,1)'s (1, 2), and
    # (1, 2, 1) is Case II: either xi map would make a wrong profile of the
    # (2,2,1) orbit
    with pytest.raises(kw.InvalidParameterError, match="profile_of"):
        shoot(build_system(CM221, 1.0), profile_of=CanonicalModel(*mpq))


def test_profile_of_may_be_any_model_of_the_shot_system():
    # (3, 1, 0) shares (gamma, k) = (1, 2) with (2,2,1), so both give one
    # system at every speed, and the xi map of (3, 1, 0) is its own wave's
    s, other = build_system(CM221, 1.0), CanonicalModel(m=3, p=1, q=0)
    assert build_system(other, 1.0) == s
    got = reconstruct_profile(shoot(s, profile_of=other))
    want = reconstruct_profile(shoot(build_system(other, 1.0), profile_of=other))
    assert np.array_equal(got.xi, want.xi) and np.array_equal(got.f, want.f)


def test_reconstructed_profile_has_the_shot_speed():
    # the profile takes its system and model from the shot, so its speed is
    # the one shot at: c in Case I, and c1 sqrt((m+q)/2) = c in Case II
    prof = reconstruct_profile(shoot(build_system(CM221, 1.0), profile_of=CM221))
    assert prof.c == -1.0
    cm = CanonicalModel(m=1, p=1, q=0.5)
    prof = reconstruct_profile(shoot(build_system(cm, 3.0), profile_of=cm))
    assert prof.c == pytest.approx(-3.0, rel=1e-15)


# (m, p, q), c and the measured extrema of slow waves: (1,2,1) at c = -0.01
# shoots 16,993 steps, (2,2,1) at c = -0.05 shoots 3,487
SLOW_WAVES = [((1, 2, 1), -0.01, 695), ((2, 2, 1), -0.05, 134)]


@pytest.fixture(scope="module")
def slow_waves():
    """classify_connection of each SLOW_WAVES speed, shot as a profile."""
    return [classify_connection(CanonicalModel(*mpq), c, profile_of=CanonicalModel(*mpq))
            for mpq, c, _ in SLOW_WAVES]


def _reference_state_at(table, t):
    # every component at once, each order gathered from the (component,
    # step) slab along the step axis
    t = np.asarray(t, dtype=float)
    j = np.clip(np.searchsorted(table.ts, t, side="right") - 1, 0, len(table.h) - 1)
    s = (t - table.t_end[j]) / table.h[j]
    y = table.coef[-1].take(j, axis=1)
    for c in table.coef[-2::-1]:
        y *= s
        y += c.take(j, axis=1)
    return y


def _series_xi(sys, cm, x_lo, x_hi):
    """xi(X) along P0's departure manifold, 0 at x_hi: the field in s = log X,
    (Y, xi)' = (Y' / (gamma Y), pref X^expo / (gamma Y)), integrated by
    DOP853 with xi inside the error test from the series point at x_lo, as
    a dense-output function of X."""
    g, (s_, a, b, e) = sys.gamma, sys.form
    pref, expo, _ = connect._profile_exponents(sys, cm)
    alpha, c = kw.phaseplane.departure_series(sys)

    def field(t, y):
        X, (Y, _) = math.exp(t), y
        return [(-Y * (Y + s_ * X ** a) + X ** b - X ** e) / (g * Y), pref * X ** expo / (g * Y)]

    y0 = [sum(ck * x_lo ** x for x, ck in zip(alpha, c)), 0.0]
    sol = solve_ivp(field, (math.log(x_lo), math.log(x_hi)), y0, method="DOP853",
                    rtol=1e-13, atol=1e-16, dense_output=True)
    assert sol.success
    end = sol.y[1, -1]
    return lambda X: sol.sol(np.log(X))[1] - end


def _reference_profile(traj):
    # reconstruct_profile on full evaluations, one per extremum, with the
    # rate formed at every expo and np.clip: the definition its xi, its f
    # on the shot's samples and its overshoot_extrema must match to the bit.
    # The grid's P0 end and the samples below the seed are the series map's
    # (see test_reconstruction_matches_reference)
    def state_at(t):
        return _reference_state_at(traj._table, t)

    _, _, extrema, _, _ = connect._wave_class(traj)
    pref, expo, fe = connect._profile_exponents(traj.sys, traj.profile_of)
    x_half = 0.5 ** (1.0 / fe)
    i1 = np.nonzero(traj.X >= x_half)[0][0]
    tau_half = connect.brentq(lambda t: float(state_at(t)[0]) - x_half,
                              traj.tau[i1 - 1], traj.tau[i1], xtol=1e-13)
    xi_half = float(state_at(tau_half)[2])
    x_lo = linear_seed(traj.sys)[0]
    fill = connect._DepartureXi(traj.sys, traj.profile_of, x_lo, traj.X[0])
    xi_target = np.linspace(fill.xi_lo, traj.xi[-1], connect.PROFILE_SAMPLES)
    on_shot = xi_target[xi_target >= 0.0]
    tau_grid = np.interp(on_shot, traj.xi, traj.tau)
    for _ in range(connect.XI_NEWTON_PASSES):
        X_grid, _, xi_grid = state_at(tau_grid)
        rate = pref * np.exp(np.minimum(expo * np.log(np.maximum(X_grid, connect._TINY)),
                                        connect.XI_LOG_RATE_MAX))
        tau_grid = np.clip(tau_grid - (xi_grid - on_shot) / rate,
                           traj.tau[0], traj.tau[-1])
    X_grid = state_at(tau_grid)[0]
    xi = -(xi_target - xi_half)[::-1]
    f = (np.maximum(X_grid, 0.0) ** fe)[::-1].copy()
    f[0] = min(f[0], 1.0) if abs(f[0] - 1.0) < 1e-3 else f[0]
    overshoots = sorted(((-(float(state_at(tau_e)[2]) - xi_half), x_e ** fe)
                         for tau_e, x_e in extrema), key=lambda p: p[0])
    return xi, f, tuple(overshoots), xi_target[xi_target < 0.0]


@pytest.mark.parametrize("mpq, c, n_extrema", [
    ((1, 2, 1), -3.0, 0), ((2, 2, 1), -1.0, 5), ((1, 1, 0.5), -3.0, 0), *SLOW_WAVES])
def test_reconstruction_matches_reference(mpq, c, n_extrema):
    # the fixtures' monotone, oscillatory and finite-propagation fronts, and
    # the slow waves; (1,2,1) has expo = 0, so its Newton passes divide by
    # pref itself.  The samples from the departure series sit at the P0 end
    # (the profile's right end), and their X gives back their xi within 1e-9
    # on a tight integration of the manifold
    cm = CanonicalModel(*mpq)
    traj = shoot(build_system(cm, abs(c)), profile_of=cm)
    prof = reconstruct_profile(traj)
    xi, f, overshoots, series_xi = _reference_profile(traj)
    assert len(overshoots) == n_extrema
    assert prof.xi.tobytes() == xi.tobytes()
    n = len(f)
    assert prof.series_samples == len(series_xi) == len(prof.f) - n > 0
    assert prof.f[:n].tobytes() == f.tobytes()
    assert np.array(prof.overshoot_extrema).tobytes() == np.array(overshoots).tobytes()
    pref, expo, fe = connect._profile_exponents(traj.sys, cm)
    X = prof.f[n:][::-1] ** (1.0 / fe)
    reference = _series_xi(traj.sys, cm, linear_seed(traj.sys)[0], traj.X[0])
    assert np.max(np.abs(reference(X) - series_xi)) < 1e-9


def test_dense_output_costs_per_point_not_per_step(slow_waves, monkeypatch):
    # a one-point read allocates its few outputs, not a copy of the step
    # table (410,757 B on the 17,068-step shot of this wave when it did),
    # and the profile reads every extremum's xi in one evaluation: the
    # evaluations number XI_NEWTON_PASSES + 2 arrays and the anchor's
    # brentq, against 706 for one per extremum
    traj = slow_waves[0].trajectory
    assert traj.solver_steps == 16_993
    t = 0.5 * (traj.tau[100] + traj.tau[101])
    traj.state_at(t)
    tracemalloc.start()
    try:
        traj.state_at(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_000
    calls = []
    evaluate = connect._NordsieckTable.__call__

    def counted(self, t, *args):
        calls.append(np.ndim(t))
        return evaluate(self, t, *args)

    monkeypatch.setattr(connect._NordsieckTable, "__call__", counted)
    for res, (_, _, n_extrema) in zip(slow_waves, SLOW_WAVES):
        calls.clear()
        prof = reconstruct_profile(res.trajectory)
        assert len(prof.overshoot_extrema) == n_extrema
        assert calls.count(1) == connect.XI_NEWTON_PASSES + 2
        assert calls.count(0) < 50 < n_extrema


@pytest.mark.parametrize("k", range(len(SLOW_WAVES)))
def test_slow_wave_profiles_keep_every_measured_extremum(slow_waves, k):
    # one overshoot per extremum the shot measured, each at its crossing
    # event's f = X^fe, inside the profile and alternating about 1
    res = slow_waves[k]
    traj = res.trajectory
    prof = reconstruct_profile(traj)
    measured = res.n_oscillations - res.tail_extrema
    assert len(prof.overshoot_extrema) == measured == SLOW_WAVES[k][2]
    fe = connect._profile_exponents(traj.sys, traj.profile_of)[2]
    # sorted by xi, the overshoots run backward in tau
    assert [f for _, f in prof.overshoot_extrema] == [
        x_e ** fe for _, x_e in reversed(res.extrema[:measured])]
    xi_e = np.array([xi for xi, _ in prof.overshoot_extrema])
    assert np.all((prof.xi[0] <= xi_e) & (xi_e <= prof.xi[-1]))
    assert np.all(np.diff(xi_e) > 0.0)
    d = np.array([f for _, f in prof.overshoot_extrema]) - 1.0
    assert np.all(d[1:] * d[:-1] < 0.0)


def test_classify_names_where_a_failed_orbit_went(monkeypatch):
    # with the escape bound at X = 1.02 the (2,2,1) orbit at c = -1
    # overshoots past it: the error names the escape.  Both shots start on
    # P0's departure manifold and fail alike
    monkeypatch.setattr(connect, "ESCAPE_BOUND", 1.02)
    for kwargs in ({}, {"profile_of": CM221}):
        with pytest.raises(kw.InconclusiveError,
                           match=r"did not reach P2 \(arrived=None, escaped=True\)"):
            classify_connection(CM221, -1.0, **kwargs)


def test_reconstruct_rejects_non_connections():
    # just off (1,2,1) the orbit from the linear seed 1e-6 off P0 never
    # leaves P0's ball within TAU_SPAN, and the arrival attached at its end
    # names P0; a shot from P0's departure manifold arrives
    cm = CanonicalModel(m=1, p=2, q=1.001)
    sys_ = build_system(cm, 1.0)
    traj = connect._shoot_from(sys_, linear_seed(sys_))
    assert traj.arrived == "P0"
    with pytest.raises(kw.NotAConnectionError, match="arrived at 'P0', not P2"):
        reconstruct_profile(traj)
    assert classify_connection(cm, -1.0).observed is SpeedClass.OSCILLATORY


def test_backward_from_rest_state_requires_a_connection():
    # at c = 0 the orbit from P0 turns around on the X axis instead of
    # reaching the rest state (1, 0), so there is no wave to trace back from
    # it; P0's departure manifold has no series there, so no profile shot
    # starts
    sys_ = build_system(CM221, 0.0)
    traj = shoot(sys_)
    assert traj.arrived is None
    with pytest.raises(kw.NotAConnectionError, match="not P2"):
        reconstruct_profile(traj)
    with pytest.raises(kw.SeedFailureError, match="no departure-manifold series"):
        shoot(sys_, profile_of=CM221)


# --- finite propagation ---------------------------------------------------------------

def test_threshold_crossings_oracle(finite_prop_profile):
    prof, _ = finite_prop_profile
    got = threshold_crossings(prof, (1e-2, 1e-3, 1e-4))
    want = [(1e-2, 7.063707), (1e-3, 7.790096), (1e-4, 8.126230)]
    for (t1, x1), (t2, x2) in zip(got, want):
        assert t1 == t2
        assert x1 == pytest.approx(x2, abs=2e-3)


def _profile(m, p, q, c):
    cm = CanonicalModel(m, p, q)
    return reconstruct_profile(shoot(build_system(cm, abs(c)), profile_of=cm)), cm


@pytest.mark.parametrize("m, p, q, c", [(1, 1, 0.5, -1.0), (1, 1, 0.5, -3.0),
                                        (2, 2, 0.5, -1.0)])
def test_compact_support_edge_lies_beyond_the_tail(m, p, q, c):
    prof, cm = _profile(m, p, q, c)
    xi0 = detect_finite_propagation(prof, cm)
    assert xi0 is not None
    assert xi0 > prof.xi[prof.f > 0.0].max()
    if cm.m == 1.0:
        # near the edge f ~ A (xi0 - xi)^(2/(1-q)): f^((1-q)/2) is linear in
        # xi, and its zero is the edge
        tail = (prof.f > 0.0) & (prof.f < 1e-6)
        slope, icpt = np.polyfit(prof.xi[tail], prof.f[tail] ** ((1.0 - cm.q) / 2.0), 1)
        assert xi0 == pytest.approx(-icpt / slope, abs=1e-3)


@pytest.mark.parametrize("m, p, q, spread", [(1, 1, 0.5, 1e-6), (2, 2, 0.5, 1e-6),
                                            (1.5, 2, 0.5, 1e-4)])
def test_compact_support_edge_does_not_depend_on_the_seed(m, p, q, spread, monkeypatch):
    # neither where the profile ends on P0's side (the X of a seed DEFAULT_EPS
    # off P0) nor where its shot starts on P0's departure manifold moves the edge
    for name, values in (("DEFAULT_EPS", (1e-5, 1e-6, 1e-7)),
                         ("PROFILE_SEED_X", (0.1, 0.03, 0.01))):
        edges = []
        for value in values:
            monkeypatch.setattr(connect, name, value)
            edges.append(detect_finite_propagation(*_profile(m, p, q, -1.0)))
        monkeypatch.undo()
        assert max(edges) - min(edges) <= spread, name


@pytest.mark.parametrize("m, p, q", [(2, 2, 1), (0.5, 2, 1)])
def test_divergent_edge_integral_reports_no_edge(m, p, q):
    # the xi left between the seed and P0 diverges at q = 1 in Case I and at
    # m < q in Case II
    assert detect_finite_propagation(*_profile(m, p, q, -1.0)) is None


def test_edge_needs_a_negative_speed():
    prof = WaveProfile(xi=np.array([0.0, 1.0]), f=np.array([1.0, 0.5]), c=0.0)
    with pytest.raises(kw.InvalidParameterError, match="c < 0"):
        detect_finite_propagation(prof, CM221)


def test_exponential_tail_reports_no_edge(monotone_profile_121):
    prof, cm = monotone_profile_121
    assert detect_finite_propagation(prof, cm) is None


def test_exact_zero_tail_short_circuits():
    xi = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    f = np.array([1.0, 0.5, 0.2, 0.0, 0.0])
    prof = WaveProfile(xi=xi, f=f, c=-1.0)
    assert detect_finite_propagation(prof, CM221) == 3.0


def test_profile_from_lists_reads_as_from_arrays():
    # xi and f are held as float arrays, so a profile built from lists gives
    # the results of the array-built one, not a raw TypeError or ValueError
    lists = WaveProfile(xi=[0, 1, 2], f=[1, 0.5, 0], c=-1.0)
    arrays = WaveProfile(xi=np.array([0.0, 1.0, 2.0]), f=np.array([1.0, 0.5, 0.0]), c=-1.0)
    assert threshold_crossings(lists, (0.7, 0.5)) == threshold_crossings(arrays, (0.7, 0.5))
    assert detect_finite_propagation(lists, CM221) == detect_finite_propagation(
        arrays, CM221) == 2.0
    assert lists.xi.dtype == lists.f.dtype == np.float64


def test_threshold_validation(monotone_profile_121):
    prof, _ = monotone_profile_121
    with pytest.raises(kw.InvalidParameterError):
        threshold_crossings(prof, (1e-3, 1e-2))
    with pytest.raises(kw.InvalidParameterError):
        threshold_crossings(prof, (1e-2, -1e-3))
    for bad in ((), (math.nan,), (math.inf,), (1e-2, math.nan)):
        with pytest.raises(kw.InvalidParameterError, match="not one or more finite"):
            threshold_crossings(prof, bad)
    # this profile's tail is truncated near 1e-6: asking for 1e-8 over-reaches
    with pytest.raises(kw.InsufficientTailError):
        threshold_crossings(prof, (1e-2, 1e-8))
