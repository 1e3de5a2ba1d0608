"""Linearly implicit IMEX-BDF2 scheme: steady states, positivity, conservation,
history, fronts, profile advection."""
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solveh_banded

import kppwaves as kw
from kppwaves.pde import H, U_FLOOR, U_MAX
from kppwaves import (CanonicalModel, GeneralModel, advect_profile_test,
                      evolve, front_position, make_run, measure_front_speed,
                      step, support_edge, wave_ode_residual)

CM121 = CanonicalModel(m=1, p=2, q=1)
CM221 = CanonicalModel(m=2, p=2, q=1)


def bump(x):
    # compactly supported in [-1, 1]; end fluxes stay exactly zero until
    # the stencil influence reaches the boundary
    return np.maximum(0.0, 1.0 - x * x) ** 2


# --- steady states and positivity -----------------------------------------------

@pytest.mark.parametrize("cm", [CM121, CM221])
def test_rest_states_are_exact_equilibria(cm):
    for value in (0.0, 1.0):
        run = make_run(-5.0, 5.0, 100, lambda x: np.full_like(x, value),
                       bc=(value, value))
        for _ in range(100):
            step(run, cm)
        assert np.array_equal(run.state, np.full(101, value))


def test_vacuum_state_steps_without_a_timescale():
    # u = 0 gives no diffusive or reactive rate; dt = cfl H dx needs neither
    run = make_run(0.0, 1.0, 10, lambda x: np.zeros_like(x), bc=(0.0, 0.0))
    step(run, CM121)
    assert run.dt > 0.0
    assert np.array_equal(run.state, np.zeros(11))


def test_sink_limited_reaction_preserves_positivity():
    # the sub-sqrt sink is non-Lipschitz at 0; tail nodes rely on the BE
    # fallback and its right-hand side max(u + dt R, 0) to stay non-negative
    cm = CanonicalModel(m=1, p=1, q=0.5)
    run = make_run(-2.0, 2.0, 200, bump, bc=(0.0, 0.0))
    for _ in range(50):
        step(run, cm)
    assert float(np.min(run.state)) >= 0.0
    assert float(np.max(run.state)) < 1.0   # pure decay from this data


def test_strong_sink_extinguishes_tiny_bump_cleanly():
    # finite-time extinction: the sink eats the bump and the BE rows'
    # clamped right-hand sides hand back zeros instead of negative residue
    cm = CanonicalModel(m=1, p=1, q=0.5)
    run = make_run(-2.0, 2.0, 200, lambda x: 1e-8 * bump(x), bc=(0.0, 0.0))
    for _ in range(400):
        step(run, cm)
    assert float(np.min(run.state)) >= 0.0
    assert float(np.max(run.state)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", [0.5, 1.0])
def test_large_diffusion_number_keeps_state_non_negative(m, q):
    # dt / dx^2 is far beyond the explicit bound of 1/2; the implicit
    # diffusion is an M-matrix solve and every row's right-hand side is
    # non-negative, so compactly supported data stays non-negative
    run = make_run(-2.0, 2.0, 400, bump, bc=(0.0, 0.0))
    cm = CanonicalModel(m=m, p=2, q=q)
    for _ in range(200):
        step(run, cm)
        assert run.dt / run.dx ** 2 >= 4.0
    assert run.min_before_clamp >= -1e-15
    assert float(np.min(run.state)) >= 0.0


def test_supercritical_state_trips_blowup_guard():
    run = make_run(-1.0, 1.0, 50, lambda x: np.full_like(x, 5.0), bc=(5.0, 5.0))
    with pytest.raises(kw.StabilityViolationError):
        evolve(run, CM121, 1.0)


# --- the terms of the scheme ------------------------------------------------------

def _dense_rows(u, lead, s, u_a, m, dt, dx):
    """u_new solving lead_i u_new_i - dt (L_a u_new)_i = s_i on the interior,
    L_a the flux differences of the face means a of u_a^(m-1); the Dirichlet
    ends hold their values."""
    a = 0.5 * (u_a[:-1] ** (m - 1) + u_a[1:] ** (m - 1))
    n = len(u)
    L = np.zeros((n, n))
    for i, ai in enumerate(a):
        w = ai / dx ** 2
        L[i, i] -= w
        L[i, i + 1] += w
        L[i + 1, i + 1] -= w
        L[i + 1, i] += w
    L[0] = L[-1] = 0.0
    M = np.diag(np.concatenate(([1.0], lead, [1.0]))) - dt * L
    return np.linalg.solve(M, np.concatenate(([u[0]], s, [u[-1]])))


@pytest.mark.parametrize("m", [1, 2, 3], ids=lambda m: f"{m}-dirichlet")
def test_diffusion_is_backward_euler_with_lagged_coefficients(m):
    # the first step is backward Euler throughout: (1 - dt L_a) u_new =
    # max(u + dt R, 0), with a the face means of u^(m-1) before the step;
    # the sub-linear sink of q = 0.5 clamps right-hand sides in the tail
    cm = CanonicalModel(m=m, p=1, q=0.5)
    run = make_run(-8.0, 8.0, 160, _tailed_front)
    u = run.state
    step(run, cm)
    dt = run.dt
    s = (u + _reference_reaction(u, cm.p, cm.q, dt))[1:-1]
    ref = _dense_rows(u, np.ones(len(s)), np.maximum(s, 0.0), u, m, dt, run.dx)
    assert float(np.max(np.abs(run.state - ref))) <= 1e-14
    assert float(np.max(np.abs(run.state[1:-1] - s))) > 1e-3   # it did diffuse
    assert run.limiter_clips == int(np.count_nonzero(s < 0.0)) > 0
    assert run.positivity_fallbacks == 0   # start rows are not counted


@pytest.mark.parametrize("m", [1, 2, 3])
def test_later_steps_are_sbdf2_with_a_per_row_positivity_fallback(m):
    # with the history of the last step, a row solves (3/2 - dt L_a) u_new =
    # 2u - u_prev/2 + dt (2R - R_prev), a taken from max(2u - u_prev, 0);
    # a row whose right-hand side is negative is backward Euler instead
    cm = CanonicalModel(m=m, p=1, q=0.5)
    run = make_run(-8.0, 8.0, 160, _tailed_front)
    states = [run.state]
    for _ in range(20):
        fallbacks = run.positivity_fallbacks
        step(run, cm)
        states.append(run.state)
    assert run.dt_min == run.dt_max
    u_prev, u, dt = states[-3], states[-2], run.dt
    r, r_prev = (_reference_reaction(v, cm.p, cm.q, dt) for v in (u, u_prev))
    s = 2.0 * u - 0.5 * u_prev + 2.0 * r - r_prev
    be = s < 0.0
    s = np.where(be, np.maximum(u + r, 0.0), s)[1:-1]
    lead = np.where(be, 1.0, 1.5)[1:-1]
    u_a = np.maximum(2.0 * u - u_prev, 0.0)
    ref = _dense_rows(u, lead, s, u_a, m, dt, run.dx)
    assert float(np.max(np.abs(run.state - ref))) <= 1e-13
    assert run.positivity_fallbacks - fallbacks == int(np.count_nonzero(be[1:-1])) > 0
    assert np.any(lead == 1.5)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_constant_state_is_a_fixed_point_of_the_diffusion(m):
    # at u = 1 the reaction 1^2 - 1^1 vanishes exactly and the diffusivity
    # is 1; in increment form L_a u and the SBDF2 increment both vanish
    # exactly on a constant state, so the BE start and the SBDF2 steps after
    # it leave it unchanged to the bit
    run = make_run(-5.0, 5.0, 100, lambda x: np.full_like(x, 1.0), bc=(1.0, 1.0))
    for _ in range(50):
        step(run, CanonicalModel(m=m, p=2, q=1))
    assert np.array_equal(run.state, np.full(101, 1.0))


def test_time_step_is_linear_in_dx():
    # dt = cfl H dx; the reaction-slope cap, 0.5 at the bump's top of 1,
    # does not bind here
    for n_cells in (100, 200, 400):
        run = make_run(-5.0, 5.0, n_cells, bump, bc=(0.0, 0.0), cfl=0.6)
        step(run, CM221)
        assert run.dt == pytest.approx(0.6 * H * run.dx, rel=1e-15)
    assert 0.9 * H == pytest.approx(0.2)


def test_evolve_steps_grow_like_one_over_dx():
    # (2,2,1) at 8000 cells: the step count to T is ceil(T / dt) plus the
    # landing step, where dt ~ dx^2 would need about 40x as many
    run = make_run(-40.0, 40.0, 8000, lambda x: 0.5 * (1.0 - np.tanh(x)))
    T = 1.0
    evolve(run, CM221, T)
    assert run.time == pytest.approx(T, abs=1e-12)
    assert run.steps <= math.ceil(T / (run.cfl * H * run.dx)) + 1


def test_limiter_clips_are_counted_deterministically():
    # the sub-linear sink of (1,1,0.5) would overdraw the thin tail nodes, so
    # the positivity rule switches them to BE and their right-hand sides are
    # clamped at 0; a rerun counts the same switches and clips
    counts = []
    for _ in range(2):
        run = make_run(-2.0, 2.0, 200, bump, bc=(0.0, 0.0))
        assert run.limiter_clips == 0
        for _ in range(50):
            step(run, CanonicalModel(m=1, p=1, q=0.5))
        counts.append((run.limiter_clips, run.positivity_fallbacks))
    assert min(counts[0]) > 0 and counts[0] == counts[1]
    quiet = make_run(-5.0, 5.0, 100, lambda x: np.full_like(x, 1.0), bc=(1.0, 1.0))
    for _ in range(5):
        step(quiet, CM121)
    assert quiet.limiter_clips == quiet.positivity_fallbacks == 0


def test_m1_factors_once_per_time_step_size():
    # m = 1: the matrix depends on dt and its leads alone, so the full step
    # factors once per lead (1 at the start, 3/2 after it); snapshots are
    # interpolated, so at most the last step, landing on T, factors again
    run = make_run(-20.0, 20.0, 400, lambda x: 0.5 * (1.0 - np.tanh(x)))
    snaps = (0.13, 0.37, 0.61)
    evolve(run, CM121, 2.0, snapshot_times=snaps)
    assert run.steps >= 2.0 / (0.9 * H * 0.1) == pytest.approx(100)
    assert 1 <= run.factorizations <= 2 * len(snaps) + 1
    assert run.factorizations <= 3


def test_snapshots_do_not_change_the_steps():
    # snapshots due inside a step, here two or three to a step, are the
    # linear interpolants of the states at its ends: the run takes the
    # steps of an unobserved one, bit for bit, and lands only on T
    def u0(x):
        return 0.5 * (1.0 - np.tanh(x))
    T = 1.01   # 50 full steps of 0.02 and a landing step
    plain = make_run(-20.0, 20.0, 400, u0)
    states = {0.0: plain.state}
    while plain.time < T - 1e-12:
        step(plain, CM121, dt_limit=T - plain.time)
        states[plain.time] = plain.state
    wanted = np.linspace(0.0, T, 121)
    run = make_run(-20.0, 20.0, 400, u0)
    snaps = evolve(run, CM121, T, snapshot_times=wanted)
    assert run.steps == plain.steps == 51 and run.time == plain.time
    assert np.array_equal(run.state, plain.state)
    assert len(run.front_track) == run.steps + 1 and len(snaps) == len(wanted)
    times = sorted(states)
    for t, (t_snap, u) in zip(wanted, snaps):
        after = next(s for s in times if s >= t - 1e-12)
        if after - t <= 1e-12:
            assert t_snap == after and np.array_equal(u, states[after])
            continue
        before = times[times.index(after) - 1]
        assert t_snap == t
        theta = (t - before) / (after - before)
        assert np.allclose(u, (1.0 - theta) * states[before] + theta * states[after],
                           rtol=0.0, atol=1e-15)


# --- conservation ----------------------------------------------------------------

def test_interior_mass_identity_without_reaction():
    # below U_FLOOR the reaction is off, and backward-Euler diffusion reaches
    # the Dirichlet walls in the first step, so mass leaves through them.
    # Each step is conservative: dx times the sum of its left-hand side less
    # its right-hand side, u1 - u0 for the BE start and 3/2 u2 - 2 u1 + u0/2
    # for SBDF2, is exactly dt times the net boundary flux of the new state
    scale = 1e-13
    run = make_run(-3.0, 3.0, 300, lambda x: scale * bump(x), bc=(0.0, 0.0))
    states = [run.state]
    for _ in range(80):
        step(run, CM121)
        states.append(run.state)
    assert run.positivity_fallbacks == 0 and run.dt_min == run.dt_max
    dx, dt = run.dx, run.dt
    for k, u in enumerate(states[1:], start=1):
        if k == 1:
            change = u - states[0]
        else:
            change = 1.5 * u - 2.0 * states[k - 1] + 0.5 * states[k - 2]
        net_flux = (u[-1] - u[-2]) / dx - (u[1] - u[0]) / dx
        assert net_flux < 0.0
        assert abs(float(np.sum(change)) * dx - dt * net_flux) <= 1e-12 * scale


# --- validation -------------------------------------------------------------------

def test_make_run_validation():
    with pytest.raises(kw.InvalidParameterError):
        make_run(1.0, 0.0, 100, bump)
    with pytest.raises(kw.InvalidParameterError):
        make_run(0.0, 1.0, 3, bump)
    with pytest.raises(kw.InvalidParameterError):
        make_run(0.0, 1.0, 100, bump, cfl=0.95)
    with pytest.raises(kw.NegativityError):
        make_run(0.0, 1.0, 100, lambda x: x - 0.5)   # negative data


@pytest.mark.parametrize("bc, u0, name", [
    ((-0.5, 0.0), bump, "left boundary"),
    ((math.nan, 0.0), bump, "left boundary"),
    ((1.0, math.inf), bump, "right boundary"),
    ((0.0, 0.0), lambda x: np.where(x > 0.5, math.nan, bump(x)), "initial state"),
    ((0.0, 0.0), lambda x: np.where(x < -0.5, math.inf, bump(x)), "initial state"),
], ids=["negative-bc", "nan-bc", "inf-bc", "nan-u0", "inf-u0"])
def test_make_run_refuses_bad_boundary_and_initial_values(bc, u0, name):
    # refused before any step, naming the input, rather than surfacing as a
    # negativity, non-finite or zero-dt failure of a later step
    with pytest.raises(kw.InvalidParameterError, match=name):
        make_run(-1.0, 1.0, 100, u0, bc=bc)


def test_fast_diffusion_rejected():
    run = make_run(0.0, 1.0, 16, lambda x: np.full_like(x, 0.5), bc=(0.5, 0.5))
    with pytest.raises(kw.InvalidParameterError):
        step(run, CanonicalModel(m=0.5, p=2, q=0.5))


def test_evolve_time_validation():
    run = make_run(0.0, 1.0, 16, lambda x: np.full_like(x, 0.5), bc=(0.5, 0.5))
    run.time = 1.0
    with pytest.raises(kw.InvalidParameterError):
        evolve(run, CM121, 0.5)
    with pytest.raises(kw.InvalidParameterError):
        evolve(run, CM121, 2.0, snapshot_times=(3.0,))
    for T in (math.nan, math.inf):
        with pytest.raises(kw.InvalidParameterError, match="must be finite"):
            evolve(run, CM121, T)
    assert run.steps == 0 and run.time == 1.0


def test_evolve_refuses_a_nan_snapshot_time(monotone_profile_121):
    # NaN fails every comparison, so a range test written as two "outside"
    # comparisons lets it through; it is refused before any step, through
    # evolve and through advect_profile_test
    run = make_run(0.0, 1.0, 16, lambda x: np.full_like(x, 0.5), bc=(0.5, 0.5))
    for times in ([math.nan], [0.5, math.nan]):
        with pytest.raises(kw.InvalidParameterError, match="snapshot time nan"):
            evolve(run, CM121, 1.0, snapshot_times=times)
    assert run.steps == 0 and run.time == 0.0 and run.front_track == []
    prof, cm = monotone_profile_121
    with pytest.raises(kw.InvalidParameterError, match="snapshot time nan"):
        advect_profile_test(prof, cm, 1.0, n_cells=600, snapshot_times=(0.5, math.nan))


def test_evolve_again_records_each_time_once():
    # a second call starts where the first ended: its entry record would
    # repeat that time, and measure_front_speed would weigh the point twice
    run = make_run(-20.0, 20.0, 400, lambda x: 0.5 * (1.0 - np.tanh(x)))
    evolve(run, CM121, 0.1)
    t_end = run.time
    snaps = evolve(run, CM121, 0.2, snapshot_times=(t_end,))
    assert [t for t, _ in snaps] == [t_end]
    evolve(run, CM121, 0.3)
    times = [t for t, _ in run.front_track]
    assert run.steps == round(0.3 / (0.9 * H * 0.1)) == 15
    assert len(times) == run.steps + 1 == 16
    assert all(b > a for a, b in zip(times, times[1:]))


# --- front measurements --------------------------------------------------------------

def test_front_position_cases():
    x = np.linspace(0.0, 1.0, 11)
    down = np.linspace(1.0, 0.0, 11)
    assert front_position(x, down, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert front_position(x, down, 0.5 + 1e-12) is not None
    assert front_position(x, np.ones(11), 0.5) is None
    vee = np.abs(np.linspace(-1.0, 1.0, 11))
    assert math.isnan(front_position(x, vee, 0.5))
    exact = np.linspace(1.0, 0.0, 11)
    assert front_position(x, exact, exact[3]) == pytest.approx(x[3])
    # an exact hit is one crossing, also where u only touches the level
    touch = np.array([1.0, 0.8, 0.5, 0.8, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert front_position(x, touch, 0.5) == x[2]
    # a double crossing: two hits, or a hit and a strict crossing elsewhere
    assert math.isnan(front_position(x, np.array(
        [1.0, 0.5, 0.2, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), 0.5))
    assert math.isnan(front_position(x, np.array(
        [1.0, 0.5, 0.2, 0.7, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), 0.5))
    assert math.isnan(front_position(x, np.array(
        [0.2, 0.7, 0.9, 0.7, 0.2, 0.2, 0.2, 0.2, 0.5, 0.2, 0.2]), 0.5))
    # a reused scratch buffer gives the same answers
    work = np.empty((2, 11), dtype=bool)
    for u, level in ((down, 0.5 + 1e-12), (vee, 0.5), (touch, 0.5), (np.ones(11), 0.5)):
        a, b = front_position(x, u, level), front_position(x, u, level, work)
        assert a == b or (math.isnan(a) and math.isnan(b))


def _reference_front_position(x, u, level, work=None):
    # the tracker written with counts and argmaxes: the definition that
    # front_position must match to the bit
    if work is None:
        work = np.empty((2, len(u)), dtype=bool)
    above, flips = work[0], work[1, :-1]
    np.greater(u, level, out=above)
    np.not_equal(above[1:], above[:-1], out=flips)
    n_flips = int(np.count_nonzero(flips))
    hits = np.equal(u, level, out=above)
    n_hits = int(np.count_nonzero(hits))
    if n_hits == 0:
        if n_flips != 1:
            return None if n_flips == 0 else math.nan
        i = int(np.argmax(flips))
        d0, d1 = u[i] - level, u[i + 1] - level
        w = d0 / (d0 - d1)
        return float(x[i] + w * (x[i + 1] - x[i]))
    if n_hits > 1:
        return math.nan
    j = int(np.argmax(hits))
    n_flips -= int(j > 0 and flips[j - 1]) + int(j < len(flips) and flips[j])
    return float(x[j]) if n_flips == 0 else math.nan


def _same_position(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("n", [2, 3, 11, 64])
def test_front_position_matches_reference(n):
    # seeded states with one or several crossings, exact hits at interior
    # and end nodes and runs of nodes at the level, through a fresh and a
    # reused work buffer
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(-5.0, 5.0, n))
    level = 0.5
    work = np.empty((2, n), dtype=bool)
    kinds = {"none": 0, "one": 0, "nan": 0}
    for trial in range(500):
        kind = trial % 5
        if kind == 0:
            # a monotone front
            u = np.sort(rng.uniform(0.0, 1.0, n))[::-1].copy()
        elif kind == 1:
            # several crossings
            u = rng.uniform(0.0, 1.0, n)
        elif kind == 2:
            # values at the level, singly or in runs, anywhere
            u = rng.choice([0.2, level, 0.8], n)
        elif kind == 3:
            u = np.sort(rng.uniform(0.0, 1.0, n))[::-1].copy()
            j = int(rng.integers(n))
            u[j:j + int(rng.integers(1, 4))] = level
        else:
            # one side of the level, touching it or not
            u = rng.uniform(0.6, 1.0, n) if trial % 2 else rng.uniform(0.0, 0.4, n)
        if trial % 3 == 0:
            u[rng.choice([0, n - 1])] = level
        want = _reference_front_position(x, u, level)
        for got in (front_position(x, u, level), front_position(x, u, level, work)):
            assert _same_position(got, want), (u, got, want)
        kinds["none" if want is None else "nan" if math.isnan(want) else "one"] += 1
    assert all(kinds.values()), kinds


def _run_with_track(track):
    run = make_run(0.0, 1.0, 16, lambda x: np.full_like(x, 0.5), bc=(0.5, 0.5))
    run.front_track.extend(track)
    return run


def test_front_speed_fit_exact():
    ts = np.linspace(0.0, 1.0, 30)
    run = _run_with_track([(t, 5.0 - 3.0 * t) for t in ts])
    assert measure_front_speed(run, (0.0, 1.0)) == pytest.approx(-3.0, abs=1e-12)


def test_front_speed_fit_with_noise():
    rng = np.random.default_rng(3)
    ts = np.linspace(0.0, 1.0, 200)
    run = _run_with_track([(t, 5.0 - 3.0 * t + 1e-4 * rng.standard_normal()) for t in ts])
    assert measure_front_speed(run, (0.0, 1.0)) == pytest.approx(-3.0, abs=1e-3)


def test_front_speed_needs_enough_points():
    run = _run_with_track([(t, -t) for t in np.linspace(0.0, 1.0, 5)])
    with pytest.raises(kw.NoFrontError):
        measure_front_speed(run, (0.0, 1.0))


def test_front_speed_rejects_broken_track():
    run = _run_with_track([(t, math.nan if t > 0.5 else -t)
                           for t in np.linspace(0.0, 1.0, 30)])
    with pytest.raises(kw.NoFrontError):
        measure_front_speed(run, (0.0, 1.0))


def test_support_edge():
    def indicator(x):
        return np.clip(10.0 * (1.0 - x), 0.0, 1.0)   # 1 until x=0.9, 0 past 1
    run = make_run(0.0, 2.0, 400, indicator, bc=(1.0, 0.0))
    edge = support_edge(run, 1e-6)
    assert edge == pytest.approx(1.0, abs=1e-2)
    empty = make_run(0.0, 1.0, 16, lambda x: np.zeros_like(x), bc=(0.0, 0.0))
    assert support_edge(empty, 1e-6) is None
    for threshold in (1e-15, math.nan):
        with pytest.raises(kw.InvalidParameterError, match="threshold must be at least"):
            support_edge(run, threshold)


# --- profile advection ------------------------------------------------------------------

def test_advect_monotone_front(monotone_profile_121):
    prof, cm = monotone_profile_121
    res = advect_profile_test(prof, cm, 1.0, n_cells=1200,
                              snapshot_times=(0.5, 1.0))
    assert res.measured_speed == pytest.approx(-3.0, rel=0.02)
    assert res.max_error < 0.02
    assert [t for t, _ in res.snapshots] == pytest.approx([0.5, 1.0], abs=1e-9)
    assert all(u.shape == (1201,) for _, u in res.snapshots)


def test_advect_oscillatory_front_keeps_overshoot(oscillatory_profile_221):
    prof, cm = oscillatory_profile_221
    res = advect_profile_test(prof, cm, 1.0, n_cells=1200)
    assert res.measured_speed == pytest.approx(-1.0, rel=0.02)
    assert float(np.max(res.run.state)) > 1.005


def test_advect_zero_horizon(monotone_profile_121):
    prof, cm = monotone_profile_121
    res = advect_profile_test(prof, cm, 0.0, n_cells=600)
    assert res.checkpoints == ((0.0, 0.0),)
    assert res.max_error == 0.0
    assert res.measured_speed is None


def test_advect_rejects_cramped_domain(monotone_profile_121):
    prof, cm = monotone_profile_121
    # the front ends near x = -15; a left edge at -15.2 leaves less than
    # the 10-cell guard
    with pytest.raises(kw.DomainTooSmallError) as ei:
        advect_profile_test(prof, cm, 5.0, n_cells=800,
                            domain=(-15.2, 16.0))
    lo, hi = ei.value.suggestion
    assert lo < -15.2 and hi >= 16.0


def test_evolve_stops_a_front_near_the_boundary():
    # the stable state 0 invades 1 leftwards; the run stops once the front is
    # within the 10-cell guard of x_min = -4 (the layer the boundary value
    # u = 1 holds is about one unit wide, well inside the guard's two)
    run = make_run(-4.0, 4.0, 40, lambda x: np.where(x < 0.0, 1.0, 0.0))
    with pytest.raises(kw.DomainTooSmallError) as ei:
        evolve(run, CM121, 5.0)
    assert ei.value.suggestion == (-8.0, 8.0)
    lo = run.x_min + kw.pde.BOUNDARY_GUARD_CELLS * run.dx
    (t0, x0), *inside, (t, x) = run.front_track
    assert t0 == 0.0 and 0.0 < t < 5.0 and run.steps > 0
    assert x < lo <= min(pos for _, pos in inside) < x0


def test_advect_rejects_negative_horizon(monotone_profile_121):
    prof, cm = monotone_profile_121
    for T in (-1.0, math.nan, math.inf):
        with pytest.raises(kw.InvalidParameterError, match="T must be finite and non-negative"):
            advect_profile_test(prof, cm, T)


@pytest.mark.parametrize("c", [0.0, -0.0, 1.0, math.nan, -math.inf])
def test_advect_refuses_a_profile_without_a_negative_speed(monotone_profile_121, c):
    # a wave f(x - ct) from 1 to 0 exists exactly when c < 0
    prof, cm = monotone_profile_121
    moved = kw.WaveProfile(xi=prof.xi, f=prof.f, c=c)
    with pytest.raises(kw.InvalidParameterError, match="finite speed c < 0"):
        advect_profile_test(moved, cm, 1.0, n_cells=200)


@pytest.mark.parametrize("t", [-0.1, 1.5])
def test_advect_rejects_snapshot_time_outside_horizon(monotone_profile_121, t):
    prof, cm = monotone_profile_121
    with pytest.raises(kw.InvalidParameterError, match="snapshot time"):
        advect_profile_test(prof, cm, 1.0, n_cells=600, snapshot_times=(0.5, t))


@pytest.mark.parametrize("name, xi, f", [
    ("f", [-1.0, 0.0, 1.0], [1.0, math.inf, 0.0]),
    ("f", [-1.0, 0.0, 1.0], [1.0, math.nan, 0.0]),
    ("xi", [-1.0, math.nan, 1.0], [1.0, 0.5, 0.0]),
    ("xi", [-math.inf, 0.0, 1.0], [1.0, 0.5, 0.0]),
], ids=["f-inf", "f-nan", "xi-nan", "xi-inf"])
def test_advect_refuses_non_finite_profile(name, xi, f):
    # refused before the run is built, with no numpy warning on the way
    prof = kw.WaveProfile(xi=np.array(xi), f=np.array(f), c=-3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kw.InvalidParameterError, match=rf"profile {name} "):
            advect_profile_test(prof, CM221, 1.0, n_cells=200)


# At 1600 cells the advect error is mostly temporal.  These profiles are shot
# to radius 1e-9, so the plateau floor lies below it; the bounds are the
# errors of the first-order step that SBDF2 replaced, at 1600 cells and T = 5.

def test_advect_error_is_second_order_in_time(tight_az_profile_121):
    # halving dt cuts the error about 4x (backward Euler: 2x)
    prof, cm = tight_az_profile_121
    coarse = advect_profile_test(prof, cm, 5.0, n_cells=1600)
    fine = advect_profile_test(prof, cm, 5.0, n_cells=1600, cfl=0.45)
    assert fine.run.dt_max == pytest.approx(0.5 * coarse.run.dt_max, rel=1e-12)
    assert coarse.max_error >= 3.0 * fine.max_error


@pytest.mark.parametrize("m, p, q, c, bound", [
    (1, 2, 1, -5.0 / math.sqrt(6.0), 1.36e-3),
    (2, 2, 1, -3.0, 1.99e-3),
    (1, 1, 0.5, -3.0, 1.20e-3),
    (2, 2, 1, -1.0, 1.17e-3),
], ids=["121-AZ", "221-3", "1-1-0.5-3", "221-1"])
def test_advect_error_of_tight_profiles(m, p, q, c, bound):
    cm = CanonicalModel(m=m, p=p, q=q)
    prof = kw.reconstruct_profile(kw.shoot(kw.build_system(cm, abs(c)), profile_of=cm,
                                           arrival_radius=1e-9))
    res = advect_profile_test(prof, cm, 5.0, n_cells=1600)
    assert res.max_error <= bound
    assert res.measured_speed == pytest.approx(c, rel=1e-3)


def test_dense_snapshots_keep_the_advect_error(tight_az_profile_121):
    # 50 snapshot times, a step or so apart, neither shorten a step nor
    # restart the scheme: the run at T is that of the plain advection, and
    # each snapshot's error stays at the scale of the checkpoint errors
    prof, cm = tight_az_profile_121
    plain = advect_profile_test(prof, cm, 5.0, n_cells=1600)
    wanted = tuple(0.1 * (k + 1) for k in range(50))
    dense = advect_profile_test(prof, cm, 5.0, n_cells=1600, snapshot_times=wanted)
    assert dense.run.steps == plain.run.steps
    assert np.array_equal(dense.run.state, plain.run.state)
    assert dense.max_error == plain.max_error <= 1.36e-3
    x = dense.run.x
    inner = slice(10, len(x) - 10)
    for t, u in dense.snapshots:
        ref = np.interp(x - prof.c * t, prof.xi, prof.f, left=prof.f[0], right=prof.f[-1])
        assert float(np.max(np.abs(u[inner] - ref[inner]))) <= plain.max_error


# --- weak form of the profile equation --------------------------------------------------

def test_wave_residual_small_and_second_order(monotone_profile_121):
    prof, cm = monotone_profile_121
    # reconstruction emits a uniform xi grid, so the raw profile works too
    r0 = wave_ode_residual(prof, cm)
    assert r0 < 1e-2
    r1 = wave_ode_residual(prof, cm, num=501)
    r2 = wave_ode_residual(prof, cm, num=1001)
    assert r1 < 1e-3
    assert r2 < 0.35 * r1


def test_wave_residual_requires_uniform_samples():
    prof = kw.WaveProfile(xi=np.array([0.0, 0.1, 0.3, 0.6, 1.0, 1.5]),
                          f=np.array([1.0, 0.8, 0.5, 0.3, 0.1, 0.0]), c=-1.0)
    with pytest.raises(kw.InvalidParameterError):
        wave_ode_residual(prof, CM121)
    with pytest.raises(kw.InvalidParameterError):
        wave_ode_residual(prof, CM121, num=8)


# --- the step against the scheme's definition -----------------------------------------
#
# The scheme written out from its definition: each row is BE (lead 1) or
# SBDF2 (lead 3/2), the banded matrix lead - dt L_a is assembled in upper
# form and handed to solveh_banded, and the reaction is gathered through a
# boolean mask.  The step must reproduce it to the bit.

def _reference_reaction(u, p, q, dt):
    r = np.zeros_like(u)
    live = u >= U_FLOOR
    ul = u[live]
    r[live] = dt * (ul ** p - ul ** q)
    return r


class _Reference:
    """A run stepped by the reference scheme, with the history it keeps."""

    def __init__(self, run):
        self.run = run
        self.history = None

    def step(self, cm, dt_limit=None):
        run = self.run
        m, p, q = cm.m, cm.p, cm.q
        u = run.state
        dx = run.dx
        dt = run.cfl * H * dx
        u_top = float(np.max(u))
        if u_top >= U_FLOOR:
            slope = abs(p * u_top ** (p - 1.0) - q * u_top ** (q - 1.0))
            if slope > 0.0:
                dt = min(dt, 0.5 / slope)
        if dt_limit is not None:
            dt = min(dt, dt_limit)

        ui = u[1:-1]
        r = _reference_reaction(ui, p, q, dt)
        # a BE row: lead 1 and right-hand side max(u + dt R, 0), here less u
        lead = np.ones_like(ui)
        b = np.maximum(r, -ui)
        u_a = u
        key = (m, p, q, dt, dx, run.n_cells)
        if self.history is not None and self.history[0] == key and self.history[1] is u:
            _, _, u_prev, r_prev = self.history
            # an SBDF2 row: lead 3/2 and 2u - u_prev/2 + dt (2R - R_prev),
            # here less 3u/2, wherever that right-hand side is non-negative
            g = 0.5 * (ui - u_prev[1:-1]) + 2.0 * r - r_prev
            sbdf2 = 1.5 * ui + g >= 0.0
            lead[sbdf2] = 1.5
            b[sbdf2] = g[sbdf2]
            if m != 1.0:
                u_a = np.maximum(2.0 * u - u_prev, 0.0)
        D = u_a ** (m - 1.0)
        w = (-0.5 * dt / (dx * dx)) * (D[:-1] + D[1:])   # -dt a / dx^2 per face
        ab = np.zeros((2, len(ui)))
        ab[0, 1:] = w[1:-1]
        ab[1] = lead - w[1:] - w[:-1]
        flux = w * np.diff(u)
        u_new = u.copy()
        u_new[1:-1] = ui + solveh_banded(ab, b + (flux[:-1] - flux[1:]))
        u_new[0], u_new[-1] = run.bc
        assert np.all(np.isfinite(u_new)) and float(np.min(u_new)) >= -1e-12
        np.maximum(u_new, 0.0, out=u_new)
        assert float(np.max(u_new)) <= U_MAX
        self.history = (key, u_new, u, r)
        run.state = u_new
        run.time += dt
        run.dt = dt


def _tailed_front(x):
    # a front whose tail runs through U_FLOOR into exact zeros, so the
    # reaction cut-off, the sink clamp and the degenerate flux all act
    return np.where(x < 7.5, 0.5 * (1.0 - np.tanh(2.0 * x)), 0.0)


def _pair(u0=_tailed_front, bc=(1.0, 0.0)):
    """A (reference, step) pair of runs from the same initial state."""
    return (_Reference(make_run(-8.0, 8.0, 240, u0, bc=bc)),
            make_run(-8.0, 8.0, 240, u0, bc=bc))


def _assert_same_steps(models, n_steps, dt_limits=(None,), runs=None):
    # step i is capped by dt_limits[i % len(dt_limits)]; ``runs`` continues
    # a (reference, step) pair instead of starting a fresh one
    ref, new = runs or _pair()
    for model in models:
        for i in range(n_steps):
            dt_limit = dt_limits[i % len(dt_limits)]
            ref.step(model, dt_limit=dt_limit)
            held = new.state
            step(new, model, dt_limit=dt_limit)
            assert new.state is not held
            assert np.array_equal(new.state, ref.run.state)
            assert new.dt == ref.run.dt
            assert new.time == ref.run.time
    return new


@pytest.mark.parametrize("model", [
    CM121, CM221, CanonicalModel(m=1, p=1, q=0.5), CanonicalModel(m=3, p=2.5, q=1)],
    ids=["121", "221", "1-1-0.5", "3-2.5-1"])
def test_step_is_bit_identical_to_reference(model):
    run = _assert_same_steps([model], 250)
    assert run.steps == 250
    if model == CM121:
        # the full step factors once per lead, 1 at the start and 3/2 after
        assert run.positivity_fallbacks == 0 and run.factorizations == 2


def test_mixed_lead_suffix_is_the_full_factorization_bit_for_bit():
    # a matrix whose rows up to k are those of the uniform lead-3/2 one
    # keeps its factors there, and pttrf from row k on, with the cached
    # pivot, gives the rest of the full factorization exactly, at every
    # offset mod 4 of pttrf's unrolled loop
    rng = np.random.default_rng(5)
    w = -rng.uniform(0.05, 3.0, 41)
    cached = kw.pde._factor(w, 1.5)
    for k in range(39):
        lead = np.where(rng.random(40) < 0.5, 1.0, 1.5)
        lead[:k + 1], lead[k + 1] = 1.5, 1.0
        want = kw.pde._factor(w, lead)
        got = kw.pde._factor(w, lead, (k, *cached))
        assert all(np.array_equal(g, v) for g, v in zip(got, want))
        assert not np.array_equal(want[0], cached[0])
    # a failure names the same row either way
    bad = np.full(40, 1.5)
    bad[9] = -50.0
    for head in (None, (5, *cached)):
        with pytest.raises(kw.StabilityViolationError, match=r"info = 10\)"):
            kw.pde._factor(w, bad, head)


def test_m1_steps_with_switched_rows_reuse_the_cached_head():
    # (1,1,0.5): a step whose first BE row comes after row 0 factors only
    # from the row before it, on lead-3/2 factors built once for the step
    # size, and still counts one factorization
    calls = []
    factor = kw.pde._factor

    def spy(w, lead, head=None):
        # the row from which pttrf runs; None for a uniform lead
        calls.append(head[0] if head else 0 if np.ndim(lead) else None)
        return factor(w, lead, head)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kw.pde, "_factor", spy)
        run = _assert_same_steps([CanonicalModel(m=1, p=1, q=0.5)], 250)
    # the BE start and the lead-3/2 head (uniform leads), then one a step
    # from the row before its first BE row, past row 100 on every step here
    assert calls[:2] == [None, None] and len(calls) == 251
    assert min(calls[2:]) > 100
    assert run.factorizations == run.steps == 250


def test_m1_uniform_steps_reuse_lead_three_halves_factors_of_an_earlier_step_size():
    # (1,1,0.5) on a small bump: step 1 is the BE start, steps 2 and 3 have
    # switched rows, and step 2 builds the lead-3/2 factors of the full step
    # size.  The reaction slope caps step 4 shorter, and step 5 restarts at
    # the full size with BE.  From step 6 on every step is uniform lead 3/2
    # at the full size and takes the factors that step 2 built
    runs = _pair(lambda x: 1e-3 * np.maximum(0.0, 1.0 - x * x) ** 2, bc=(0.0, 0.0))
    run = _assert_same_steps([CanonicalModel(m=1, p=1, q=0.5)], 300, runs=runs)
    assert run.dt_min < run.dt_max
    assert run.factorizations == 5


@pytest.mark.parametrize("switch", ["no-reaction", "dt-limit", "alternating-dt-limit",
                                    "regrid"])
@pytest.mark.parametrize("model", [CM121, CM221, CanonicalModel(m=1, p=1, q=0.5)],
                         ids=["121", "221", "1-1-0.5"])
def test_step_switches_are_bit_identical_to_reference(model, switch):
    if switch == "dt-limit":
        # a constant step shorter than cfl H dx: for (1,2,1) the BE start
        # factors, and so does the first SBDF2 step, whose lead-3/2 factors
        # every later step reuses; m != 1, and the steps of (1,1,0.5) with
        # switched rows, factor every step
        run = _assert_same_steps([model], 200, dt_limits=(1e-4,))
        assert run.dt_max == 1e-4
        assert run.factorizations == (2 if model == CM121 else 200)
        return
    if switch == "alternating-dt-limit":
        # each change of dt restarts with BE, which factors its whole
        # matrix; no step is SBDF2, so no step has lead-3/2 factors to keep
        # or reuse, and every step factors
        run = _assert_same_steps([model], 200, dt_limits=(None, 1e-4))
        assert run.dt_min == 1e-4 < run.dt_max
        assert run.positivity_fallbacks == 0
        assert run.factorizations == 200
        return
    if switch == "regrid":
        # a change of dx, then of n_cells at the same dx, between full steps;
        # the state is resampled onto a grid of a new size
        runs = _pair()
        for x_max, n_cells in ((8.0, 240), (10.0, 240), (14.5, 300)):
            for side in (runs[0].run, runs[1]):
                if n_cells != side.n_cells:
                    x = np.linspace(side.x_min, x_max, n_cells + 1)
                    side.state = np.interp(x, side.x, side.state)
                side.x_max, side.n_cells = x_max, n_cells
            run = _assert_same_steps([model], 40, runs=runs)
        assert run.dx == 18.0 / 240 and run.dt_min < run.dt_max
        if model == CM121:
            assert run.positivity_fallbacks == 0 and run.factorizations == 6
        elif model.m != 1:
            assert run.factorizations == 120
        return
    # no-reaction: below U_FLOOR the step is the diffusion alone
    runs = _pair(lambda x: 1e-13 * _tailed_front(x), bc=(1e-13, 0.0))
    run = _assert_same_steps([model], 200, runs=runs)
    assert float(np.max(run.state)) < U_FLOOR


def _signed_zero_front(x):
    # the tailed front with its tail written as alternating 0.0 and -0.0
    zeros = np.where(np.arange(len(x)) % 2 == 0, 0.0, -0.0)
    return np.where(x < 7.5, 0.5 * (1.0 - np.tanh(2.0 * x)), zeros)


@pytest.mark.parametrize("bc", [(1.0, -0.0), (1.0, 0.0)], ids=["bc-negzero", "bc-zero"])
@pytest.mark.parametrize("model", [CM121, CM221, CanonicalModel(m=1, p=1, q=0.5)],
                         ids=["121", "221", "1-1-0.5"])
def test_step_keeps_the_sign_bit_of_the_reference(model, bc):
    # exact zeros and -0.0 in the state and at the ends: the reference clamps
    # every step, which turns -0.0 into +0.0, so the step's clamp must run
    # whenever the minimum is not positive; array_equal alone takes -0.0
    # for 0.0, so the sign bits are compared too
    u0 = _signed_zero_front(np.linspace(-8.0, 8.0, 241))
    assert np.signbit(u0).any()
    ref, new = _pair(_signed_zero_front, bc=bc)
    assert np.signbit(new.state[-1]) == np.signbit(bc[1])
    for _ in range(60):
        ref.step(model)
        step(new, model)
        assert np.array_equal(new.state, ref.run.state)
        assert np.array_equal(np.signbit(new.state), np.signbit(ref.run.state))
        assert new.dt == ref.run.dt
    assert not np.signbit(new.state).any()
    assert float(np.min(new.state)) == 0.0


@pytest.mark.parametrize("model", [CM121, CM221, CanonicalModel(m=1, p=1, q=0.5)],
                         ids=["121", "221", "1-1-0.5"])
def test_step_cuts_the_reaction_on_positive_states_below_the_floor(model):
    # every node positive, the interior spanning U_FLOOR: the cut-off acts
    # on nodes below U_FLOOR, not only on those at 0
    def u0(x):
        return 10.0 ** np.interp(x, (-8.0, 8.0), (-10.0, -14.0))

    runs = _pair(u0, bc=(1e-10, 1e-14))
    assert float(np.min(runs[1].state)) > 0.0
    run = _assert_same_steps([model], 40, runs=runs)
    assert float(np.min(run.state)) > 0.0


@pytest.mark.parametrize("model", [CM121, CM221], ids=["121", "221"])
def test_step_caps_dt_by_the_maximum_of_a_newly_assigned_state(model):
    # the slope cap reuses the last step's maximum only while run.state is
    # that step's array: a new array of a higher maximum caps dt by its own
    # (on 24 cells the cap binds at a maximum of 5, not at 1)
    ref, new = runs = (_Reference(make_run(-8.0, 8.0, 24, _tailed_front)),
                       make_run(-8.0, 8.0, 24, _tailed_front))
    _assert_same_steps([model], 5, runs=runs)
    dt = new.dt
    ref.run.state = 5.0 * ref.run.state
    new.state = 5.0 * new.state
    _assert_same_steps([model], 2, runs=runs)
    assert new.dt < dt


def _sparse_noise(x):
    # seeded: every other node or so at 0, the rest uniform in [0, 1)
    rng = np.random.default_rng(3)
    return rng.uniform(0.0, 1.0, len(x)) * (rng.random(len(x)) < 0.5)


@pytest.mark.parametrize("dt_limits", [(None,), (None, None, None, 2e-3)], ids=["full", "restarts"])
@pytest.mark.parametrize("u0", [bump, _sparse_noise], ids=["bump", "noise"])
def test_step_counts_switched_and_clipped_rows_by_their_definitions(u0, dt_limits):
    # (1,1,0.5): recount each step's rows from the reference's history: a
    # row is BE when its SBDF2 right-hand side 3u/2 + g is negative (every
    # row of a start or restart, which are not counted as switched), and a
    # BE row is clipped when u + dt R < 0; on the noise, some switched rows
    # are not
    model = CanonicalModel(m=1, p=1, q=0.5)
    ref, new = _pair(u0, bc=(0.0, 0.0))
    switched = clips = unclipped = 0
    for i in range(120):
        before = ref.history
        ref.step(model, dt_limit=dt_limits[i % len(dt_limits)])
        step(new, model, dt_limit=dt_limits[i % len(dt_limits)])
        key, _, u, r = ref.history
        ui = u[1:-1]
        if before is not None and before[0] == key and before[1] is u:
            g = 0.5 * (ui - before[2][1:-1]) + 2.0 * r - before[3]
            be = 1.5 * ui + g < 0.0
            switched += int(np.count_nonzero(be))
            unclipped += int(np.count_nonzero(be & (ui + r >= 0.0)))
        else:
            be = np.ones(len(ui), dtype=bool)
        clips += int(np.count_nonzero(be & (ui + r < 0.0)))
        assert (new.positivity_fallbacks, new.limiter_clips) == (switched, clips)
    assert switched > 0 and clips > 0
    assert unclipped > 0 or u0 is bump


@pytest.mark.parametrize("dt_limit", [math.nan, 0.0, -0.0, -1.0, -math.inf])
def test_step_refuses_a_non_positive_dt_limit(dt_limit):
    # a caller's bad argument, refused before the run is touched; min(dt,
    # nan) is dt, so unchecked a NaN limit would take a full step
    fresh, used = [make_run(-8.0, 8.0, 240, _tailed_front) for _ in range(2)]
    step(used, CM121)

    def counters(run):
        return (run.time, run.dt, run.steps, run.dt_min, run.dt_max,
                run.min_before_clamp, run.limiter_clips, run.positivity_fallbacks,
                run.factorizations)

    for run in (fresh, used):
        held, before = run.state, counters(run)
        copy = held.copy()
        with pytest.raises(kw.InvalidParameterError, match="dt_limit must be positive"):
            step(run, CM121, dt_limit=dt_limit)
        assert run.state is held and np.array_equal(held, copy)
        assert counters(run) == before
    # an infinite limit caps nothing
    capped, free = [make_run(-8.0, 8.0, 240, _tailed_front) for _ in range(2)]
    for _ in range(3):
        step(capped, CM121, dt_limit=math.inf)
        step(free, CM121)
        assert np.array_equal(capped.state, free.state) and capped.dt == free.dt


def _fresh_first_step(run, model, dt_limit=None):
    fresh = make_run(run.x_min, run.x_max, run.n_cells, run.state, cfl=run.cfl,
                     bc=run.bc)
    return step(fresh, model, dt_limit=dt_limit)


@pytest.mark.parametrize("change", ["m", "q", "dt", "dx", "n_cells", "state"])
@pytest.mark.parametrize("model", [CM121, CM221], ids=["121", "221"])
def test_step_restarts_after_a_change_of_setup(model, change):
    # the step uses the history of the last one only while the model, dt,
    # dx and n_cells stay and run.state is the array that step produced;
    # after any change it is the first step of a fresh run from the same
    # state, bit for bit, and the steps after it use their history again
    run = make_run(-8.0, 8.0, 240, _tailed_front)
    for _ in range(5):
        step(run, model)
    dt_limit, after = None, model
    if change == "m":
        after = CM221 if model == CM121 else CM121
    elif change == "q":
        after = CanonicalModel(m=model.m, p=model.p, q=0.5)
    elif change == "dt":
        dt_limit = 1e-3
    elif change == "dx":
        run.x_max = 9.0
    elif change == "n_cells":
        # 300 cells at the same dx: a fresh array that must be resampled
        x = np.linspace(run.x_min, 12.0, 301)
        run.state = np.interp(x, run.x, run.state)
        run.x_max, run.n_cells = 12.0, 300
    else:
        run.state = run.state.copy()
    fresh = _fresh_first_step(run, after, dt_limit)
    step(run, after, dt_limit=dt_limit)
    assert np.array_equal(run.state, fresh.state)
    assert run.dt == fresh.dt
    for _ in range(2):
        fresh = _fresh_first_step(run, after, dt_limit)
        step(run, after, dt_limit=dt_limit)
        assert run.dt == fresh.dt
        assert not np.array_equal(run.state, fresh.state)
    assert run.steps == 8


def test_step_refusals_fire_on_first_call_and_after_a_switch():
    for bad in (CanonicalModel(m=0.5, p=2, q=0.5), CanonicalModel(m=1.5, p=1, q=-0.2)):
        fresh = make_run(0.0, 1.0, 16, lambda x: np.full_like(x, 0.5), bc=(0.5, 0.5))
        with pytest.raises(kw.InvalidParameterError):
            step(fresh, bad)
        assert fresh.steps == 0 and fresh.time == 0.0
        used = make_run(0.0, 1.0, 16, lambda x: np.full_like(x, 0.5), bc=(0.5, 0.5))
        step(used, CM121)
        with pytest.raises(kw.InvalidParameterError):
            step(used, bad)
        assert used.steps == 1


@pytest.mark.parametrize("model, u0", [
    (CM121, lambda x: np.full_like(x, 3.0))],
    ids=["blow-up-121"])
def test_step_guards_match_reference(model, u0):
    # the guard names the value it saw, and the failed step leaves the last
    # good state, time and counters in place
    run = make_run(-8.0, 8.0, 240, u0, bc=(u0(-8.0), u0(8.0)))
    before = None
    while True:
        held, time, steps = run.state, run.time, run.steps
        try:
            step(run, model)
        except kw.StabilityViolationError as e:
            message = str(e)
            break
        before = held
        assert run.steps < 1000
    # a constant state does not diffuse; away from the ends the reaction
    # R = u^2 - u moves it.  The failed step has the size of the one before,
    # so it is SBDF2: 3/2 u_new = 2u - u_prev/2 + dt (2R - R_prev)
    top, top_prev = float(np.max(held)), float(np.max(before))
    dt = min(run.cfl * H * run.dx, 0.5 / (2.0 * top - 1.0))
    assert dt == run.dt
    high = (2.0 * top - 0.5 * top_prev
            + dt * (2.0 * (top * top - top) - (top_prev * top_prev - top_prev))) / 1.5
    assert message == f"state reached {high:.3g}, beyond the blow-up guard {U_MAX}"
    assert run.state is held and run.time == time and run.steps == steps
    assert float(np.max(held)) <= U_MAX


def test_step_refuses_a_general_model():
    # the step solves the canonical equation only; a general model is
    # refused before it touches the run: on a fresh run and after a step
    g = GeneralModel(kappa=2, alpha=0.5, beta=1.5, m=2, p=2, q=1)
    fresh, used = [make_run(-8.0, 8.0, 240, _tailed_front) for _ in range(2)]
    step(used, CM121)

    def counters(run):
        return (run.time, run.dt, run.steps, run.dt_min, run.dt_max,
                run.min_before_clamp, run.limiter_clips)

    for run in (fresh, used):
        held, before = run.state.copy(), counters(run)
        with pytest.raises(kw.InvalidParameterError, match="nondimensionalize"):
            step(run, g)
        assert counters(run) == before
        assert np.array_equal(run.state, held)


def test_step_refuses_non_finite_state():
    bad = make_run(-1.0, 1.0, 50, lambda x: np.full_like(x, 0.5), bc=(0.5, 0.5))
    bad.state[20] = math.nan
    with pytest.raises(kw.StabilityViolationError, match="non-finite"):
        step(bad, CM221)


def test_step_diagnostics():
    run = make_run(-8.0, 8.0, 240, _tailed_front)
    assert run.steps == 0 and math.isinf(run.dt_min) and math.isinf(run.min_before_clamp)
    dts, lows = [], []
    for _ in range(50):
        step(run, CanonicalModel(m=1, p=1, q=0.5), dt_limit=1e-3 if len(dts) % 2 else None)
        dts.append(run.dt)
    assert run.steps == 50
    assert run.dt_min == min(dts) and run.dt_max == max(dts)
    assert run.dt_min < run.dt_max
    assert -1e-12 <= run.min_before_clamp <= float(np.min(run.state))
