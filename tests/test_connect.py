"""Shooting, classification, profile reconstruction, finite propagation."""
import math
import warnings

import numpy as np
import pytest

import kppwaves as kw
from kppwaves import (CanonicalModel, Direction, EventKind, Point, SpeedClass,
                      WaveProfile, build_system, classify_connection,
                      detect_finite_propagation, first_X_axis_intersection,
                      reconstruct_profile, shoot_from, threshold_crossings,
                      x0_monotonicity_check, x0_seed_sensitivity,
                      zero_speed_X0, zero_speed_curve)

CM221 = CanonicalModel(m=2, p=2, q=1)


# --- trajectories -------------------------------------------------------------

def test_forward_shot_reaches_rest_state():
    traj = shoot_from(build_system(CM221, 3.0), Point.P0, Direction.FORWARD)
    assert traj.arrived == "P2"
    assert not traj.escaped
    assert np.all(np.diff(traj.tau) > 0.0)
    assert np.all(traj.X >= 0.0)


def test_dense_output_matches_samples():
    traj = shoot_from(build_system(CM221, 1.0), Point.P0, Direction.FORWARD)
    for i in (len(traj.tau) // 3, 2 * len(traj.tau) // 3):
        X, Y = traj.state_at(traj.tau[i])
        assert X == pytest.approx(traj.X[i], abs=1e-9)
        assert Y == pytest.approx(traj.Y[i], abs=1e-9)


@pytest.mark.parametrize("cm, c, point, direction", [
    (CM221, 1.0, Point.P0, Direction.FORWARD),
    (CM221, 2.0, Point.P1, Direction.BACKWARD),
    (CanonicalModel(m=1, p=1, q=0.5), 1.0, Point.P2, Direction.BACKWARD),
])
def test_state_at_matches_scipy_dense_output(cm, c, point, direction):
    # pins the Nordsieck table against scipy's OdeSolution on the same shot,
    # including the layout of LSODA's dense output (t, h, yh, p)
    traj = shoot_from(build_system(cm, c), point, direction)
    tau = traj.tau
    first, last = tau[1] - tau[0], tau[-1] - tau[-2]
    pts = np.concatenate([tau, 0.5 * (tau[:-1] + tau[1:]),
                          [tau[0] - 0.5 * first, tau[-1] + 0.5 * last]])
    for t in (pts, pts[len(pts) // 3]):
        X, Y = traj.state_at(t)
        want = traj._dense(traj._dense_sign * t + traj._dense_shift)
        for got, ref in ((X, want[0]), (Y, want[1])):
            assert np.shape(got) == np.shape(ref)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_axis_events_sit_on_the_axis():
    traj = shoot_from(build_system(CM221, 1.0), Point.P0, Direction.FORWARD)
    crossings = [ev for ev in traj.events if ev.kind is EventKind.X_AXIS_CROSS]
    assert crossings, "an oscillatory orbit must cross Y = 0"
    for ev in crossings:
        assert abs(ev.state[1]) < 1e-9


def test_backward_shot_time_axis():
    traj = shoot_from(build_system(CM221, 2.0), Point.P1, Direction.BACKWARD)
    assert traj.tau[-1] == 0.0
    assert traj.tau[0] < 0.0
    assert np.all(np.diff(traj.tau) > 0.0)


def test_unsupported_seed_combinations():
    s = build_system(CM221, 1.0)
    with pytest.raises(kw.SeedFailureError):
        shoot_from(s, Point.P0, Direction.BACKWARD)
    with pytest.raises(kw.SeedFailureError):
        shoot_from(s, Point.P1, Direction.FORWARD)


def test_backward_from_rest_state_requires_a_connection():
    # at c = 0 the forward orbit turns around on the X axis instead of
    # reaching (1, 0), so there is nothing to run backwards
    with pytest.raises(kw.InconclusiveError):
        shoot_from(build_system(CM221, 0.0), Point.P2, Direction.BACKWARD)


def test_seed_sensitivity_diagnostic():
    assert x0_seed_sensitivity(build_system(CM221, 1.0)) < 1e-5


# --- the explicit zero-speed orbit ----------------------------------------------

def test_zero_speed_shot_follows_closed_form():
    s = build_system(CM221, 0.0)
    traj = shoot_from(s, Point.P0, Direction.FORWARD)
    mask = traj.X > 1e-6
    defect = traj.Y[mask] ** 2 - zero_speed_curve(s, traj.X[mask])
    assert np.max(np.abs(defect)) < 1e-6
    x0 = first_X_axis_intersection(traj)
    assert x0 == pytest.approx(zero_speed_X0(s), abs=1e-4)
    assert x0 == pytest.approx(4.0 / 3.0, abs=1e-4)


# --- turning point monotonicity --------------------------------------------------

def test_turning_point_decreases_with_speed():
    vals = x0_monotonicity_check(CM221, [0.0, 0.5, 1.0, 2.0])
    xs = [x for _, x in vals]
    assert xs[0] == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert all(b <= a + 1e-9 for a, b in zip(xs, xs[1:]))
    assert xs[-1] == pytest.approx(1.0, abs=1e-3)


def test_turning_point_saturates_past_threshold():
    vals = dict(x0_monotonicity_check(CM221, [2.0, 5.0]))
    assert vals[2.0] == pytest.approx(1.0, abs=1e-3)
    assert vals[5.0] == pytest.approx(1.0, abs=1e-4)


def test_turning_point_sweep_validates_input():
    with pytest.raises(kw.InvalidParameterError):
        x0_monotonicity_check(CM221, [-1.0, 0.0])
    with pytest.raises(kw.InvalidParameterError):
        x0_monotonicity_check(CM221, [1.0, 1.0])


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
    # the first overshoot here is smaller than the arrival ball, so the
    # extremum count is zero; the spiral kind of the rest state decides
    r = classify_connection(CM221, -1.95)
    assert r.observed is SpeedClass.OSCILLATORY
    assert r.evidence == "focus"
    assert r.n_oscillations == 0


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
    prof, _ = monotone_profile_121
    assert prof.classification is SpeedClass.MONOTONE
    assert prof.c == pytest.approx(-3.0, rel=1e-12)
    assert np.all(np.diff(prof.xi) > 0.0)
    assert np.all(np.diff(prof.f) <= 1e-12)
    assert np.interp(0.0, prof.xi, prof.f) == pytest.approx(0.5, abs=1e-6)
    assert prof.f[0] == pytest.approx(1.0, abs=1e-4)
    assert prof.f[-1] < 1e-4
    assert prof.overshoot_extrema == ()


def test_oscillatory_profile_shape(oscillatory_profile_221):
    prof, _ = oscillatory_profile_221
    assert prof.classification is SpeedClass.OSCILLATORY
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
    s = build_system(cm, 5.0 / math.sqrt(6.0))
    prof = reconstruct_profile(shoot_from(s, Point.P2, Direction.BACKWARD), s, cm)
    assert prof.classification is SpeedClass.MONOTONE
    with np.errstate(over="ignore"):
        exact = 1.0 - (1.0 + (math.sqrt(2.0) - 1.0) * np.exp(-prof.xi / math.sqrt(6.0))) ** -2
    assert np.max(np.abs(prof.f - exact)) < 1e-6


def test_non_finite_profile_is_inconclusive():
    # the xi quadrature overflows along this slow orbit; the profile must be
    # refused, not returned full of NaN, and refused as soon as the xi table
    # overflows, before numpy warns about the inf and NaN an inversion
    # would run on
    cm = CanonicalModel(m=0.72, p=3.741, q=1.286)
    s = build_system(cm, 0.05 * kw.critical_speed(cm))
    traj = shoot_from(s, Point.P2, Direction.BACKWARD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kw.InconclusiveError, match="non-finite"):
            reconstruct_profile(traj, s, cm)


def test_constant_trajectory_reconstructs_to_rest_state():
    s = build_system(CM221, 3.0)
    traj = shoot_from(s, Point.P2, Direction.FORWARD)
    prof = reconstruct_profile(traj, s, CM221)
    assert np.all(prof.f == 1.0)
    assert prof.classification is SpeedClass.NO_WAVE


def test_reconstruct_rejects_non_connections():
    s = build_system(CM221, 2.0)
    traj = shoot_from(s, Point.P1, Direction.BACKWARD)
    with pytest.raises(kw.NotAConnectionError):
        reconstruct_profile(traj, s, CM221)


# --- finite propagation ---------------------------------------------------------------

def test_threshold_crossings_oracle(finite_prop_profile):
    prof, _ = finite_prop_profile
    got = threshold_crossings(prof, (1e-2, 1e-3, 1e-4))
    want = [(1e-2, 7.063707), (1e-3, 7.790096), (1e-4, 8.126230)]
    for (t1, x1), (t2, x2) in zip(got, want):
        assert t1 == t2
        assert x1 == pytest.approx(x2, abs=2e-3)


def test_compact_support_edge_extrapolates(finite_prop_profile):
    prof, cm = finite_prop_profile
    xi0 = detect_finite_propagation(prof, cm)
    assert xi0 is not None
    assert xi0 == pytest.approx(8.4157, abs=1e-2)
    # the estimate must land inside the resolved part of the tail
    assert xi0 < prof.xi[-1]


def test_exponential_tail_reports_no_edge(monotone_profile_121):
    prof, cm = monotone_profile_121
    assert detect_finite_propagation(prof, cm) is None


def test_exact_zero_tail_short_circuits():
    xi = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    f = np.array([1.0, 0.5, 0.2, 0.0, 0.0])
    prof = WaveProfile(xi=xi, f=f, c=-1.0, classification=SpeedClass.MONOTONE)
    assert detect_finite_propagation(prof, CM221) == 3.0


def test_threshold_validation(monotone_profile_121):
    prof, _ = monotone_profile_121
    with pytest.raises(kw.InvalidParameterError):
        threshold_crossings(prof, (1e-3, 1e-2))
    with pytest.raises(kw.InvalidParameterError):
        threshold_crossings(prof, (1e-2, -1e-3))
    # this profile's tail is truncated near 1e-6: asking for 1e-8 over-reaches
    with pytest.raises(kw.InsufficientTailError):
        threshold_crossings(prof, (1e-2, 1e-8))
