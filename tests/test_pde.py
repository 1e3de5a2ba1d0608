"""Explicit scheme: steady states, conservation, fronts, profile advection."""
import math

import numpy as np
import pytest

import kppwaves as kw
from kppwaves.pde import U_FLOOR, U_MAX
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
    # u = 0 gives no diffusive or reactive rate; the step falls back to the
    # bare grid scale instead of dividing by zero
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


def test_supercritical_state_trips_blowup_guard():
    run = make_run(-1.0, 1.0, 50, lambda x: np.full_like(x, 5.0), bc=(5.0, 5.0))
    with pytest.raises(kw.StabilityViolationError):
        evolve(run, CM121, 1.0)


# --- conservation ----------------------------------------------------------------

def test_interior_mass_identity_without_reaction():
    run = make_run(-3.0, 3.0, 300, bump, bc=(0.0, 0.0), reaction_on=False)
    dx = run.dx
    m0 = float(np.sum(run.state)) * dx
    for _ in range(80):
        step(run, CM121)
    assert abs(float(np.sum(run.state)) * dx - m0) <= 1e-12


def test_zero_flux_walls_conserve_mass():
    run = make_run(0.0, 1.0, 128, lambda x: 0.5 + 0.4 * np.sin(2 * np.pi * x),
                   zero_flux=True, reaction_on=False)
    m0 = float(np.sum(run.state)) * run.dx
    for _ in range(100):
        step(run, CM221)
    assert abs(float(np.sum(run.state)) * run.dx - m0) <= 1e-13


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


def _run_with_track(track):
    run = make_run(0.0, 1.0, 16, lambda x: np.full_like(x, 0.5), bc=(0.5, 0.5))
    run.front_track.extend(track)
    return run


def test_front_speed_fit_exact():
    ts = np.linspace(0.0, 1.0, 30)
    run = _run_with_track([(t, 5.0 - 3.0 * t) for t in ts])
    assert measure_front_speed(run, 0.5, (0.0, 1.0)) == pytest.approx(-3.0, abs=1e-12)


def test_front_speed_fit_with_noise():
    rng = np.random.default_rng(3)
    ts = np.linspace(0.0, 1.0, 200)
    run = _run_with_track([(t, 5.0 - 3.0 * t + 1e-4 * rng.standard_normal()) for t in ts])
    assert measure_front_speed(run, 0.5, (0.0, 1.0)) == pytest.approx(-3.0, abs=1e-3)


def test_front_speed_needs_enough_points():
    run = _run_with_track([(t, -t) for t in np.linspace(0.0, 1.0, 5)])
    with pytest.raises(kw.NoFrontError):
        measure_front_speed(run, 0.5, (0.0, 1.0))


def test_front_speed_rejects_broken_track():
    run = _run_with_track([(t, math.nan if t > 0.5 else -t)
                           for t in np.linspace(0.0, 1.0, 30)])
    with pytest.raises(kw.NoFrontError):
        measure_front_speed(run, 0.5, (0.0, 1.0))
    with pytest.raises(kw.InvalidParameterError):
        measure_front_speed(run, 1.5, (0.0, 1.0))


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
    assert res.max_error == 0.0
    assert res.measured_speed is None


def test_advect_constant_profile_short_circuits():
    s = kw.build_system(CM221, 3.0)
    traj = kw.shoot_from(s, kw.Point.P2, kw.Direction.FORWARD)
    prof = kw.reconstruct_profile(traj, s, CM221)
    res = advect_profile_test(prof, CM221, 1.0)
    assert res.measured_speed is None
    assert res.max_error < 1e-12


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


# --- discrete scaling equivariance ----------------------------------------------------

def test_general_run_matches_rescaled_canonical_run():
    g = GeneralModel(kappa=4.0, alpha=1.0, beta=1.0, m=1, p=2, q=1)
    cm, s = kw.nondimensionalize(g)
    assert (s.a, s.b, s.l) == (2.0, 1.0, 1.0)

    def u0(x):
        return 0.5 * (1.0 - np.tanh(x / 2.0))

    rg = make_run(-20.0, 20.0, 800, u0)
    rc = make_run(-10.0, 10.0, 800, lambda y: u0(s.a * y))
    for _ in range(50):
        step(rg, g)
        step(rc, cm)
    # nodes align under x = a y, so the two states agree to rounding
    assert rg.time == pytest.approx(s.b * rc.time, rel=1e-14)
    assert float(np.max(np.abs(rg.state - s.l * rc.state))) < 1e-13


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


# --- the step against its original formulation ----------------------------------------
#
# A verbatim copy of the step as first written: temporaries per call, the
# reaction gathered through a boolean mask, four reductions for the guards.
# The preallocated kernel must reproduce it to the bit.

def _reference_coeffs(model):
    if isinstance(model, GeneralModel):
        return model.kappa, model.alpha, model.beta, model.m, model.p, model.q
    if isinstance(model, CanonicalModel):
        return 1.0, 1.0, 1.0, model.m, model.p, model.q
    raise kw.InvalidParameterError(f"unsupported model object {type(model).__name__}")


def _reference_reaction(u, alpha, beta, p, q):
    r = np.zeros_like(u)
    live = u >= U_FLOOR
    ul = u[live]
    r[live] = alpha * ul ** p - beta * ul ** q
    return r


def _reference_step(run, model, dt_limit=None):
    kappa, alpha, beta, m, p, q = _reference_coeffs(model)
    if m < 1.0:
        raise kw.InvalidParameterError(
            "the explicit scheme needs bounded diffusivity; m >= 1 required "
            f"(got m = {m!r})")
    if q < 0.0:
        raise kw.InvalidParameterError(
            "reaction exponents below zero are outside the solver's remit "
            f"(got q = {q!r})")

    u = run.state
    dx = run.dx
    D = kappa * u ** (m - 1.0)  # 0**0 = 1 covers m = 1 exactly
    d_max = float(np.max(D))
    dt = run.cfl * dx * dx / (2.0 * d_max) if d_max > 0.0 else math.inf
    u_top = float(np.max(u))
    if run.reaction_on and u_top >= U_FLOOR:
        slope = abs(alpha * p * u_top ** (p - 1.0) - beta * q * u_top ** (q - 1.0))
        if slope > 0.0:
            dt = min(dt, 0.5 / slope)
    if dt_limit is not None:
        dt = min(dt, dt_limit)
    if math.isinf(dt):
        dt = run.cfl * dx * dx / 2.0  # vacuum: no timescale in the state at all
    if not dt > 0.0:
        raise kw.StabilityViolationError(f"no positive step available (dt = {dt!r})")

    flux = 0.5 * (D[:-1] + D[1:]) * np.diff(u) / dx
    div = np.zeros_like(u)
    if run.zero_flux:
        div[:-1] += flux / dx
        div[1:] -= flux / dx
    else:
        div[1:-1] = (flux[1:] - flux[:-1]) / dx
    u_star = u + dt * div   # diffusion alone keeps u >= 0 under the cfl bound

    if run.reaction_on:
        r = _reference_reaction(u, alpha, beta, p, q)
        np.maximum(r, -np.maximum(u_star, 0.0) / dt, out=r)
        u_new = u_star + dt * r
    else:
        u_new = u_star
    if not run.zero_flux:
        u_new[0], u_new[-1] = run.bc

    if not np.all(np.isfinite(u_new)):
        raise kw.StabilityViolationError("non-finite values appeared in the state")
    low = float(np.min(u_new))
    if low < -1e-12:
        raise kw.NegativityError(f"state dipped to {low:.3e} before clamping")
    np.maximum(u_new, 0.0, out=u_new)
    if float(np.max(np.abs(u_new))) > U_MAX:
        raise kw.StabilityViolationError(
            f"state reached {float(np.max(np.abs(u_new))):.3g}, beyond the "
            f"blow-up guard {U_MAX}")

    run.state = u_new
    run.time += dt
    run.dt = dt
    return run


def _tailed_front(x):
    # a front whose tail runs through U_FLOOR into exact zeros, so the
    # reaction cut-off, the sink limiter and the degenerate flux all act
    return np.where(x < 7.5, 0.5 * (1.0 - np.tanh(2.0 * x)), 0.0)


def _assert_same_steps(models, n_steps, dt_limit=None, **kwargs):
    ref, new = [make_run(-8.0, 8.0, 240, _tailed_front, **kwargs) for _ in range(2)]
    for model in models:
        for _ in range(n_steps):
            _reference_step(ref, model, dt_limit=dt_limit)
            held = new.state
            step(new, model, dt_limit=dt_limit)
            assert new.state is not held
            assert np.array_equal(new.state, ref.state)
            assert new.dt == ref.dt
            assert new.time == ref.time
    return new


GKAB = dict(kappa=2.0, alpha=1.5, beta=0.5)


@pytest.mark.parametrize("model", [
    CM121, CM221, CanonicalModel(m=1, p=1, q=0.5), CanonicalModel(m=3, p=2.5, q=1),
    GeneralModel(**GKAB, m=3, p=2.5, q=1), GeneralModel(**GKAB, m=1, p=2, q=1),
    GeneralModel(**GKAB, m=2, p=1.5, q=0.5)],
    ids=["121", "221", "1-1-0.5", "3-2.5-1", "general-3-2.5-1", "general-121",
         "general-2-1.5-0.5"])
def test_step_is_bit_identical_to_reference(model):
    run = _assert_same_steps([model], 250)
    assert run.steps == 250


@pytest.mark.parametrize("kwargs", [
    dict(zero_flux=True), dict(reaction_on=False), dict(dt_limit=1e-4),
    dict(zero_flux=True, reaction_on=False)],
    ids=["zero-flux", "no-reaction", "dt-limit", "zero-flux-no-reaction"])
@pytest.mark.parametrize("model", [CM121, CM221, CanonicalModel(m=1, p=1, q=0.5)],
                         ids=["121", "221", "1-1-0.5"])
def test_step_switches_are_bit_identical_to_reference(model, kwargs):
    kwargs = dict(kwargs)
    dt_limit = kwargs.pop("dt_limit", None)
    run = _assert_same_steps([model], 200, dt_limit=dt_limit, **kwargs)
    if dt_limit is not None:
        assert run.dt_max == dt_limit


def test_step_follows_a_change_of_model():
    # the cached workspace must never serve the model of an earlier call
    _assert_same_steps([CM221, CM121, CanonicalModel(m=2, p=2, q=1),
                        GeneralModel(**GKAB, m=2, p=2, q=1)], 60)


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
    (CM121, lambda x: np.full_like(x, 3.0)),
    # u^p with p < 0 is singular at the vacuum; nodes below U_FLOOR must not
    # evaluate it (no warning) and the guard still fires
    (GeneralModel(kappa=1, alpha=1, beta=1, m=1, p=-0.5, q=0.5), _tailed_front)],
    ids=["blow-up-121", "negative-p"])
def test_step_guards_match_reference(model, u0):
    # same error, same message, same last good state
    ref, new = [make_run(-8.0, 8.0, 240, u0, bc=(u0(-8.0), u0(8.0))) for _ in range(2)]
    errors = []
    for stepper, run in ((_reference_step, ref), (step, new)):
        with pytest.raises(kw.StabilityViolationError) as ei:
            for _ in range(1000):
                stepper(run, model)
        errors.append(str(ei.value))
    assert "blow-up guard" in errors[0] and errors[0] == errors[1]
    assert np.array_equal(ref.state, new.state) and ref.time == new.time


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
