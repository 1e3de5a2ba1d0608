"""Linearly implicit scheme: steady states, conservation, fronts, profile advection."""
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solveh_banded

import kppwaves as kw
from kppwaves.pde import H, U_FLOOR, U_MAX, _diffuse
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
    # the sub-sqrt sink is non-Lipschitz at 0; tail nodes rely on the
    # r >= -u/dt clamp to stay non-negative
    cm = CanonicalModel(m=1, p=1, q=0.5)
    run = make_run(-2.0, 2.0, 200, bump, bc=(0.0, 0.0))
    for _ in range(50):
        step(run, cm)
    assert float(np.min(run.state)) >= 0.0
    assert float(np.max(run.state)) < 1.0   # pure decay from this data


def test_strong_sink_extinguishes_tiny_bump_cleanly():
    # finite-time extinction: the sink eats the bump and the overdraw bound
    # hands back exact zeros instead of negative residue
    cm = CanonicalModel(m=1, p=1, q=0.5)
    run = make_run(-2.0, 2.0, 200, lambda x: 1e-8 * bump(x), bc=(0.0, 0.0))
    for _ in range(400):
        step(run, cm)
    assert float(np.min(run.state)) >= 0.0
    assert float(np.max(run.state)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", [0.5, 1.0])
def test_large_diffusion_number_keeps_state_non_negative(m, q):
    # dt / dx^2 is far beyond the explicit bound of 1/2; the backward-Euler
    # diffusion is an M-matrix solve and the sink limiter caps the reaction,
    # so compactly supported data stays non-negative
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

def _dense_diffusion(u, a, dt, dx):
    """u* solving (I - dt L_a) u* = u, L_a the flux differences of the face
    coefficients a; the Dirichlet ends hold their values."""
    n = len(u)
    L = np.zeros((n, n))
    for i, ai in enumerate(a):
        w = ai / dx ** 2
        L[i, i] -= w
        L[i, i + 1] += w
        L[i + 1, i + 1] -= w
        L[i + 1, i] += w
    L[0] = L[-1] = 0.0
    return np.linalg.solve(np.eye(n) - dt * L, u)


@pytest.mark.parametrize("m", [1, 2, 3], ids=lambda m: f"{m}-dirichlet")
def test_diffusion_is_backward_euler_with_lagged_coefficients(m):
    u = _tailed_front(np.linspace(-8.0, 8.0, 161))
    dx = 16.0 / 160
    dt = 0.9 * H * dx
    a = 0.5 * (u[:-1] ** (m - 1) + u[1:] ** (m - 1))   # of the state before the step
    u_star = _diffuse(u, m, dt, dx)
    ref = _dense_diffusion(u, a, dt, dx)
    assert float(np.max(np.abs(u_star - ref))) <= 1e-14
    assert float(np.max(np.abs(u_star - u))) > 1e-3   # it did diffuse


@pytest.mark.parametrize("m", [1, 2, 3])
def test_constant_state_is_a_fixed_point_of_the_diffusion(m):
    # in increment form L_a u vanishes exactly on a constant state, so the
    # diffusion leaves it unchanged to the bit at any value
    u = np.full(101, 0.3)
    for _ in range(50):
        u = _diffuse(u, m, 0.9 * H * 0.1, 0.1)
    assert np.array_equal(u, np.full(101, 0.3))


def test_time_step_is_linear_in_dx():
    # dt = cfl H dx; the reaction-slope cap, 0.5 at the bump's top of 1,
    # does not bind here
    for n_cells in (100, 200, 400):
        run = make_run(-5.0, 5.0, n_cells, bump, bc=(0.0, 0.0), cfl=0.6)
        step(run, CM221)
        assert run.dt == pytest.approx(0.6 * H * run.dx, rel=1e-15)
    assert 0.9 * H == pytest.approx(0.05)


def test_evolve_steps_grow_like_one_over_dx():
    # (2,2,1) at 8000 cells: the step count to T is ceil(T / dt) plus the
    # landing step, where dt ~ dx^2 would need about 10x as many
    run = make_run(-40.0, 40.0, 8000, lambda x: 0.5 * (1.0 - np.tanh(x)))
    T = 1.0
    evolve(run, CM221, T)
    assert run.time == pytest.approx(T, abs=1e-12)
    assert run.steps <= math.ceil(T / (run.cfl * H * run.dx)) + 1


def test_limiter_clips_are_counted_deterministically():
    # the sub-linear sink of (1,1,0.5) overdraws the thin tail nodes, which the
    # limiter cuts back; a rerun counts the same clips
    counts = []
    for _ in range(2):
        run = make_run(-2.0, 2.0, 200, bump, bc=(0.0, 0.0))
        assert run.limiter_clips == 0
        for _ in range(50):
            step(run, CanonicalModel(m=1, p=1, q=0.5))
        counts.append(run.limiter_clips)
    assert counts[0] > 0 and counts[0] == counts[1]
    quiet = make_run(-5.0, 5.0, 100, lambda x: np.full_like(x, 1.0), bc=(1.0, 1.0))
    step(quiet, CM121)
    assert quiet.limiter_clips == 0


def test_m1_factors_once_per_time_step_size():
    # m = 1: the matrix depends on dt alone, so only the short steps that
    # land on snapshots, and the full step after each, factor it again
    run = make_run(-20.0, 20.0, 400, lambda x: 0.5 * (1.0 - np.tanh(x)))
    snaps = (0.13, 0.37, 0.61)
    evolve(run, CM121, 2.0, snapshot_times=snaps)
    assert run.steps >= 400
    assert 1 <= run.factorizations <= 2 * len(snaps) + 1


# --- conservation ----------------------------------------------------------------

def test_interior_mass_identity_without_reaction():
    # backward-Euler diffusion reaches the Dirichlet walls in the first step,
    # so mass leaves through them: each step changes it by exactly dt times
    # the net boundary flux of the diffused state (m = 1, so a = 1)
    u = bump(np.linspace(-3.0, 3.0, 301))
    dx = 6.0 / 300
    dt = 0.9 * H * dx
    for _ in range(80):
        m0 = float(np.sum(u)) * dx
        u = _diffuse(u, 1.0, dt, dx)
        net_flux = (u[-1] - u[-2]) / dx - (u[1] - u[0]) / dx
        assert net_flux < 0.0
        assert abs(float(np.sum(u)) * dx - m0 - dt * net_flux) <= 1e-12


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
    assert run.steps == 60
    assert len(times) == run.steps + 1 == 61
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
    with pytest.raises(kw.InvalidParameterError):
        support_edge(run, 1e-15)


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


def test_advect_rejects_negative_horizon(monotone_profile_121):
    prof, cm = monotone_profile_121
    with pytest.raises(kw.InvalidParameterError):
        advect_profile_test(prof, cm, -1.0)


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
    prof = kw.WaveProfile(xi=np.array(xi), f=np.array(f), c=-3.0,
                          classification=kw.SpeedClass.MONOTONE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kw.InvalidParameterError, match=rf"profile {name} "):
            advect_profile_test(prof, CM221, 1.0, n_cells=200)


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
                          f=np.array([1.0, 0.8, 0.5, 0.3, 0.1, 0.0]),
                          c=-1.0, classification=kw.SpeedClass.MONOTONE)
    with pytest.raises(kw.InvalidParameterError):
        wave_ode_residual(prof, CM121)
    with pytest.raises(kw.InvalidParameterError):
        wave_ode_residual(prof, CM121, num=8)


# --- the step against the scheme's definition -----------------------------------------
#
# The scheme written out from its definition: the banded matrix I - dt L_a
# assembled in upper form and handed to solveh_banded, the reaction gathered
# through a boolean mask.  The step must reproduce it to the bit.

def _reference_diffusion(u, m, dt, dx):
    D = u ** (m - 1.0)
    w = (-0.5 * dt / (dx * dx)) * (D[:-1] + D[1:])   # -dt a / dx^2 per face
    ab = np.zeros((2, len(u)))
    ab[0, 1:] = w
    ab[1] = 1.0
    ab[1, :-1] -= w
    ab[1, 1:] -= w
    flux = w * np.diff(u)
    div = np.zeros_like(u)
    div[:-1] -= flux
    div[1:] += flux
    u_star = u.copy()
    u_star[1:-1] += solveh_banded(ab[:, 1:-1], div[1:-1])
    return u_star


def _reference_reaction(u, p, q, dt):
    r = np.zeros_like(u)
    live = u >= U_FLOOR
    ul = u[live]
    r[live] = dt * ul ** p - dt * ul ** q
    return r


def _reference_step(run, cm, dt_limit=None):
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

    u_star = _reference_diffusion(u, m, dt, dx)
    # the sink may not overdraw the diffused value
    u_new = np.maximum(u_star + _reference_reaction(u, p, q, dt),
                       np.minimum(u_star, 0.0))
    u_new[0], u_new[-1] = run.bc
    assert np.all(np.isfinite(u_new)) and float(np.min(u_new)) >= -1e-12
    np.maximum(u_new, 0.0, out=u_new)
    assert float(np.max(u_new)) <= U_MAX
    run.state = u_new
    run.time += dt
    run.dt = dt
    return run


def _tailed_front(x):
    # a front whose tail runs through U_FLOOR into exact zeros, so the
    # reaction cut-off, the sink limiter and the degenerate flux all act
    return np.where(x < 7.5, 0.5 * (1.0 - np.tanh(2.0 * x)), 0.0)


def _assert_same_steps(models, n_steps, dt_limits=(None,), runs=None):
    # step i is capped by dt_limits[i % len(dt_limits)]; ``runs`` continues
    # a (reference, step) pair instead of starting a fresh one
    ref, new = runs or [make_run(-8.0, 8.0, 240, _tailed_front) for _ in range(2)]
    for model in models:
        for i in range(n_steps):
            dt_limit = dt_limits[i % len(dt_limits)]
            _reference_step(ref, model, dt_limit=dt_limit)
            held = new.state
            step(new, model, dt_limit=dt_limit)
            assert new.state is not held
            assert np.array_equal(new.state, ref.state)
            assert new.dt == ref.dt
            assert new.time == ref.time
    return new


@pytest.mark.parametrize("model", [
    CM121, CM221, CanonicalModel(m=1, p=1, q=0.5), CanonicalModel(m=3, p=2.5, q=1)],
    ids=["121", "221", "1-1-0.5", "3-2.5-1"])
def test_step_is_bit_identical_to_reference(model):
    run = _assert_same_steps([model], 250)
    assert run.steps == 250


@pytest.mark.parametrize("switch", ["no-reaction", "dt-limit", "alternating-dt-limit",
                                    "regrid"])
@pytest.mark.parametrize("model", [CM121, CM221, CanonicalModel(m=1, p=1, q=0.5)],
                         ids=["121", "221", "1-1-0.5"])
def test_step_switches_are_bit_identical_to_reference(model, switch):
    if switch == "dt-limit":
        run = _assert_same_steps([model], 200, dt_limits=(1e-4,))
        assert run.dt_max == 1e-4
        assert run.factorizations == (1 if model.m == 1 else 200)
        return
    if switch == "alternating-dt-limit":
        # for m = 1 each change of dt must factor the matrix again
        run = _assert_same_steps([model], 200, dt_limits=(None, 1e-4))
        assert run.dt_min == 1e-4 < run.dt_max
        assert run.factorizations == 200
        return
    if switch == "regrid":
        # a change of dx, then of n_cells at the same dx, between steps, with
        # dt held by its cap; the state is resampled onto a grid of a new size
        runs = [make_run(-8.0, 8.0, 240, _tailed_front) for _ in range(2)]
        for x_max, n_cells in ((8.0, 240), (10.0, 240), (14.5, 300)):
            for side in runs:
                if n_cells != side.n_cells:
                    x = np.linspace(side.x_min, x_max, n_cells + 1)
                    side.state = np.interp(x, side.x, side.state)
                side.x_max, side.n_cells = x_max, n_cells
            run = _assert_same_steps([model], 40, dt_limits=(1e-3,), runs=runs)
        assert run.dx == 18.0 / 240 and run.dt_min == run.dt_max == 1e-3
        assert run.factorizations == (3 if model.m == 1 else 120)
        return
    # the diffusion half of the step alone
    u = ref = _tailed_front(np.linspace(-8.0, 8.0, 241))
    dx = 16.0 / 240
    dt = 0.9 * H * dx
    for _ in range(200):
        u = _diffuse(u, model.m, dt, dx)
        ref = _reference_diffusion(ref, model.m, dt, dx)
        assert np.array_equal(u, ref)


def test_step_follows_a_change_of_model():
    # after a switch, the step is the one a fresh run of the new model takes
    # from the same state: nothing of an earlier model's call carries over
    run = make_run(-8.0, 8.0, 240, _tailed_front)
    for model in (CM221, CM121, CanonicalModel(m=2, p=2, q=1), CM221):
        for _ in range(30):
            fresh = make_run(-8.0, 8.0, 240, run.state)
            step(run, model)
            step(fresh, model)
            assert np.array_equal(run.state, fresh.state)
            assert run.dt == fresh.dt
    assert run.steps == 120


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
    while True:
        held, time, steps = run.state, run.time, run.steps
        try:
            step(run, model)
        except kw.StabilityViolationError as e:
            message = str(e)
            break
        assert run.steps < 1000
    # a constant state does not diffuse; the reaction u^2 - u moves it
    top = float(np.max(held))
    dt = min(run.cfl * H * run.dx, 0.5 / (2.0 * top - 1.0))
    high = top + dt * (top * top - top)
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
