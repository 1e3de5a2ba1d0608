"""End-to-end acceptance checks for the library's headline guarantees.

Each test exercises one guarantee at its stated tolerance and runtime
budget, and prints a single PASS/FAIL line with the measured numbers so a
console run documents the outcome on its own.  The unit-test modules pin
the same functions against frozen oracles; this module checks the
cross-cutting claims (closed forms against bisection, certificates against
finite differences, ODE profiles against the PDE, dual routes generally).
"""
import math
import time

import numpy as np
from scipy.integrate import solve_ivp

import kppwaves as kw
from conftest import linear_seed


def _report(capsys, idx, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {idx:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _p2_kind(cm, c):
    fps = {fp.name: fp for fp in kw.fixed_points(kw.build_system(cm, c))}
    return fps["P2"].kind


def test_criterion_01_critical_speed_matches_bisection(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        m = rng.uniform(0.3, 4.0)
        q = rng.uniform(0.1, 3.0)
        p = q + rng.uniform(0.05, 3.0)
        cm = kw.CanonicalModel(m=m, p=p, q=q)
        c_star = kw.critical_speed(cm)

        def is_focus(c):
            return _p2_kind(cm, c) is kw.FixedPointKind.STABLE_FOCUS

        lo, hi = 1e-9, 2.0 * c_star + 1.0
        assert is_focus(lo) and not is_focus(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if is_focus(mid):
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(0.5 * (lo + hi) - c_star))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(capsys, 1, ok,
            f"P2 focus/node boundary sits at 2*sqrt(p-q): worst bisection gap "
            f"{worst:.2e} over 50 random triples (tol 1e-08, {elapsed:.2f} s)")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_dulac_weighted_divergence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2345)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        while True:
            m = rng.uniform(0.5, 4.0)
            q = rng.uniform(0.1, 3.0)
            if m + q > 2.2:
                break
        p = q + rng.uniform(0.05, 3.0)
        c = rng.uniform(0.2, 4.0)
        s = kw.build_system(kw.CanonicalModel(m=m, p=p, q=q), c)
        # interior grid: the weight X^(2/gamma - 1) is singular at X = 0, so
        # the stencil stays a safe distance from that edge
        X, Y = np.meshgrid(np.linspace(0.2, 1.0, 100), np.linspace(-2.0, 2.0, 100))
        e = 2.0 / s.gamma - 1.0

        def weighted(Xa, Ya):
            fx, fy = kw.vector_field(s, Xa, Ya)
            return Xa**e * fx, Xa**e * fy

        gx_p, _ = weighted(X + h, Y)
        gx_m, _ = weighted(X - h, Y)
        _, gy_p = weighted(X, Y + h)
        _, gy_m = weighted(X, Y - h)
        div = (gx_p - gx_m) / (2 * h) + (gy_p - gy_m) / (2 * h)
        worst = max(worst, float(np.max(np.abs(div - kw.dulac_divergence(s, X)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    _report(capsys, 2, ok,
            f"finite-difference divergence of the weighted field matches "
            f"-c X^(2/gamma-1): worst {worst:.2e} on 100x100 grids for 10 "
            f"systems (tol 1e-06, {elapsed:.2f} s)")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_03_zero_speed_explicit_trajectory(capsys):
    t0 = time.perf_counter()
    details = []
    worst_defect = 0.0
    worst_x0 = 0.0
    # (gamma, k) = (1,2), (2,2), (2,3)
    for mpq in ((2, 2, 1), (2, 4, 2), (2, 6, 2)):
        s = kw.build_system(kw.CanonicalModel(*mpq), 0.0)
        traj = kw.shoot(s)
        defect = float(np.max(np.abs(traj.Y**2 - kw.zero_speed_curve(s, traj.X))))
        x0_err = abs(kw.first_X_axis_intersection(traj) - kw.zero_speed_X0(s))
        worst_defect = max(worst_defect, defect)
        worst_x0 = max(worst_x0, x0_err)
        details.append(f"(gamma,k)=({s.gamma:g},{s.k:g}) defect {defect:.1e} "
                       f"|dX0| {x0_err:.1e}")
    elapsed = time.perf_counter() - t0
    ok = worst_defect < 1e-6 and worst_x0 <= 1e-4 and elapsed < 5.0
    _report(capsys, 3, ok,
            f"c=0 shot reproduces the explicit Y^2 curve and its X0: "
            f"{'; '.join(details)} (tols 1e-06 / 1e-04, {elapsed:.2f} s)")
    assert worst_defect < 1e-6
    assert worst_x0 <= 1e-4
    assert elapsed < 5.0


def test_criterion_04_region_confinement_at_critical_speed(capsys):
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 10_000)
    worst_R = -math.inf
    worst_viol = -math.inf
    worst_x0 = 0.0
    for mpq in ((2, 2, 1), (2, 3, 2), (3, 2.5, 0.5)):
        cm = kw.CanonicalModel(*mpq)
        c_star = kw.critical_speed(cm)
        s = kw.build_system(cm, c_star)
        worst_R = max(worst_R, float(np.max(kw.region_G_residual(s, grid))))
        # the orbit from 1e-6 off P0 along P0's linear eigenvector
        traj = kw.connect._shoot_from(s, linear_seed(s))
        a = c_star / (2.0 * s.gamma)
        # G = {0 <= X <= 1, 0 <= Y <= a(1 - X)}; positive excess = exit
        viol = max(float(np.max(traj.X - 1.0)), float(np.max(-traj.X)),
                   float(np.max(-traj.Y)), float(np.max(traj.Y - a * (1.0 - traj.X))))
        worst_viol = max(worst_viol, viol)
        worst_x0 = max(worst_x0, abs(kw.first_X_axis_intersection(traj) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (worst_R <= 1e-12 and worst_viol <= 1e-6 and worst_x0 <= 1e-3
          and elapsed < 5.0)
    _report(capsys, 4, ok,
            f"at c = 2*sqrt(p-q) the boundary flux stays <= 0 (max R "
            f"{worst_R:.1e}) and the shot stays inside G (worst excess "
            f"{worst_viol:.1e}), giving X0 = 1 within {worst_x0:.1e} "
            f"({elapsed:.2f} s)")
    assert worst_R <= 1e-12
    assert worst_viol <= 1e-6
    assert worst_x0 <= 1e-3
    assert elapsed < 5.0


def test_criterion_05_turning_point_monotone_in_speed(capsys):
    t0 = time.perf_counter()
    cm = kw.CanonicalModel(m=2, p=2, q=1)
    xs = [kw.first_X_axis_intersection(kw.shoot(kw.build_system(cm, c)))
          for c in (0.0, 0.5, 1.0, 1.5, 2.0)]
    non_increasing = all(b <= a + 1e-9 for a, b in zip(xs, xs[1:]))
    start_err = abs(xs[0] - 4.0 / 3.0)
    end_err = abs(xs[-1] - 1.0)
    elapsed = time.perf_counter() - t0
    ok = (non_increasing and start_err <= 1e-4 and end_err <= 1e-3
          and elapsed < 10.0)
    _report(capsys, 5, ok,
            f"X0(c) on (2,2,1) over c = 0..2: "
            f"{', '.join(f'{x:.5f}' for x in xs)} (non-increasing, starts at "
            f"4/3 within {start_err:.1e}, ends at 1 within {end_err:.1e}, "
            f"{elapsed:.2f} s)")
    assert non_increasing
    assert start_err <= 1e-4
    assert end_err <= 1e-3
    assert elapsed < 10.0


def test_criterion_06_speed_trichotomy_sweep(capsys):
    t0 = time.perf_counter()
    cm = kw.CanonicalModel(m=2, p=2, q=1)
    results = [kw.classify_connection(cm, i / 10.0) for i in range(-40, 11)]
    max_osc = 0
    for r in results:
        if r.c >= 0.0:
            assert r.observed is kw.SpeedClass.NO_WAVE
            assert r.trajectory is None
        elif r.c <= -2.0:
            assert r.observed is kw.SpeedClass.MONOTONE
        elif not r.low_confidence:
            assert r.observed is kw.SpeedClass.OSCILLATORY
        if r.evidence == "extrema":
            # the spiral's excursions above and below X = 1 are asymmetric
            # at weak damping, so the decay is asserted per side (i.e. per
            # revolution), not across alternating extrema
            for side in (1.0, -1.0):
                amps = [abs(X - 1.0) for _, X in r.extrema
                        if side * (X - 1.0) > 0.0]
                assert all(b < a for a, b in zip(amps, amps[1:])), \
                    f"amplitudes not strictly decreasing at c = {r.c}"
            max_osc = max(max_osc, r.n_oscillations)
    elapsed = time.perf_counter() - t0
    ok = max_osc >= 3 and elapsed < 60.0
    _report(capsys, 6, ok,
            f"sweep c in [-4, 1] step 0.1 on (2,2,1): no wave for c >= 0, "
            f"oscillatory on (-2, 0), monotone for c <= -2, amplitudes "
            f"strictly decreasing, up to {max_osc} oscillations "
            f"({elapsed:.2f} s)")
    assert max_osc >= 3
    assert elapsed < 60.0


def test_criterion_07_speed_sign_mirror(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3456)
    T = 4.0

    def rhs(sys):
        def f(_t, state):
            return kw.vector_field(sys, max(state[0], 0.0), state[1])
        return f

    worst = 0.0
    for trial in range(5):
        if trial < 3:
            m = rng.uniform(1.5, 4.0)
            q = rng.uniform(0.5, 2.0)
            if m + q <= 2.2:
                m += 2.0
        else:
            m = rng.uniform(0.2, 1.2)
            q = rng.uniform(0.1, 0.7)
        p = q + rng.uniform(0.1, 2.0)
        c = rng.uniform(0.3, 3.0)
        s = kw.build_system(kw.CanonicalModel(m=m, p=p, q=q), c)
        if isinstance(s, kw.PhaseSystemI):
            s_neg = kw.PhaseSystemI(gamma=s.gamma, k=s.k, c=-s.c)
        else:
            s_neg = kw.PhaseSystemII(gamma=s.gamma, k=s.k, k1=s.k1,
                                     k2=s.k2, c1=-s.c1)
        fwd = solve_ivp(rhs(s), (0.0, T), [0.5, 0.1], dense_output=True,
                        rtol=1e-11, atol=1e-12)
        x_end, y_end = fwd.y[0, -1], fwd.y[1, -1]
        # run the mirrored system from the flipped endpoint; it must retrace
        # the original orbit under (X, Y, tau) -> (X, -Y, T - tau)
        back = solve_ivp(rhs(s_neg), (0.0, T), [x_end, -y_end],
                         dense_output=True, rtol=1e-11, atol=1e-12)
        ts = np.linspace(0.0, T, 200)
        orig = fwd.sol(T - ts)
        mirr = back.sol(ts)
        worst = max(worst,
                    float(np.max(np.abs(mirr[0] - orig[0]))),
                    float(np.max(np.abs(mirr[1] + orig[1]))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(capsys, 7, ok,
            f"negating c mirrors trajectories: worst pointwise gap {worst:.2e} "
            f"across 5 systems (tol 1e-06, {elapsed:.2f} s)")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_08_pde_advects_profiles(capsys, tight_profile_121,
                                           tight_profile_221):
    t0 = time.perf_counter()
    details = []
    ok = True
    for prof, cm in (tight_profile_121, tight_profile_221):
        coarse = kw.advect_profile_test(prof, cm, 5.0, n_cells=4000)
        fine = kw.advect_profile_test(prof, cm, 5.0, n_cells=8000)
        assert coarse.measured_speed is not None
        speed_rel = abs(coarse.measured_speed - prof.c) / abs(prof.c)
        ratio = fine.max_error / coarse.max_error
        details.append(
            f"(m,p,q)=({cm.m:g},{cm.p:g},{cm.q:g}) c={prof.c:g}: speed "
            f"{coarse.measured_speed:.4f} ({speed_rel:.2%}), err "
            f"{coarse.max_error:.2e} -> {fine.max_error:.2e} (x{ratio:.2f})")
        ok = ok and speed_rel <= 0.02 and coarse.max_error < 0.02 and ratio <= 0.65
        assert speed_rel <= 0.02
        assert coarse.max_error < 0.02
        # dt is tied to dx (0.2 dx), so the fine run halves both.  The
        # (1,2,1) error is mostly the second-order error in time, and its
        # ratio sits near 0.23; for (2,2,1) the space error holds its own
        # beside the time error, and its ratio sits near 0.6
        assert ratio <= 0.65
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(capsys, 8, ok,
            f"profile-initialized runs translate at their wave speed: "
            f"{'; '.join(details)} ({elapsed:.0f} s)")
    assert elapsed < 300.0


def test_criterion_09_finite_propagation(capsys, finite_prop_profile,
                                         monotone_profile_121):
    t0 = time.perf_counter()
    prof, cm = finite_prop_profile

    # crossing positions of thresholds two decades apart form a Cauchy
    # sequence for the compactly supported tail (the gaps shrink by well
    # over 2x per step; one decade would shrink them by only 10^(1/4))
    xs = np.array([xi for _, xi in kw.threshold_crossings(
        prof, [1e-2, 1e-4, 1e-6, 1e-8])])
    gaps = np.diff(xs)
    ratios = gaps[1:] / gaps[:-1]
    xi0 = kw.detect_finite_propagation(prof, cm)

    # the same construction on an everywhere-positive tail must not converge
    prof_exp, cm_exp = monotone_profile_121
    xs_exp = np.array([xi for _, xi in kw.threshold_crossings(
        prof_exp, [1e-2, 1e-4, 1e-6])])
    gaps_exp = np.diff(xs_exp)
    exp_ratio = float(gaps_exp[1] / gaps_exp[0])
    xi0_exp = kw.detect_finite_propagation(prof_exp, cm_exp)

    # support edge of the evolving PDE state moves at a bounded rate
    x_min, x_max = -25.0, float(prof.xi[-1]) + 2.0
    n_cells = 1400
    x = np.linspace(x_min, x_max, n_cells + 1)
    run = kw.make_run(x_min, x_max, n_cells,
                      np.interp(x, prof.xi, prof.f, left=1.0, right=0.0),
                      bc=(1.0, 0.0))
    times = np.linspace(0.4, 4.0, 10)
    edges = []
    for t in times:
        kw.evolve(run, cm, float(t))
        edges.append(kw.support_edge(run, 1e-8))
    finite_edges = all(e is not None and math.isfinite(e) for e in edges)
    rates = np.diff(np.array(edges, dtype=float)) / np.diff(times)
    max_rate = float(np.max(np.abs(rates)))

    elapsed = time.perf_counter() - t0
    ok = (bool(np.all(ratios <= 0.5)) and xi0 is not None and math.isfinite(xi0)
          and exp_ratio >= 0.8 and xi0_exp is None
          and finite_edges and max_rate <= 4.0 and elapsed < 120.0)
    _report(capsys, 9, ok,
            f"(1,1,0.5) crossing gaps shrink x"
            f"{', x'.join(f'{1/r:.1f}' for r in ratios)} per step giving "
            f"xi0 = {xi0:.4f}; PDE support edge moves at <= {max_rate:.2f} "
            f"(bound 4); (1,2,1) gaps shrink x{1/exp_ratio:.2f} only and "
            f"its divergent xi integral to P0 reports no edge ({elapsed:.1f} s)")
    assert np.all(ratios <= 0.5)
    assert xi0 is not None and math.isfinite(xi0)
    assert exp_ratio >= 0.8
    assert xi0_exp is None
    assert finite_edges
    assert max_rate <= 4.0
    assert elapsed < 120.0


def test_criterion_10_weak_form_residual_second_order(capsys,
                                                      monotone_profile_121,
                                                      oscillatory_profile_221,
                                                      finite_prop_profile):
    t0 = time.perf_counter()
    details = []
    worst_order = math.inf
    for prof, cm in (monotone_profile_121, oscillatory_profile_221,
                     finite_prop_profile):
        res = [kw.wave_ode_residual(prof, cm, num=n) for n in (401, 801, 1601)]
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        worst_order = min(worst_order, *orders)
        details.append(f"({cm.m:g},{cm.p:g},{cm.q:g}): "
                       f"{res[0]:.1e}/{res[1]:.1e}/{res[2]:.1e} orders "
                       f"{orders[0]:.2f},{orders[1]:.2f}")
    elapsed = time.perf_counter() - t0
    ok = worst_order >= 1.7 and elapsed < 30.0
    _report(capsys, 10, ok,
            f"integrated wave equation residual falls at second order under "
            f"grid refinement: {'; '.join(details)} ({elapsed:.1f} s)")
    assert worst_order >= 1.7
    assert elapsed < 30.0
