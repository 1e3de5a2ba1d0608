"""Phase system construction, equilibria, and the confinement certificates."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kppwaves as kw
from kppwaves import (CanonicalModel, FixedPointKind, PhaseSystemI,
                      PhaseSystemII, axis_equilibria, build_system,
                      dulac_divergence, fixed_points, jacobian,
                      region_G_residual, vector_field, zero_speed_X0,
                      zero_speed_curve)
from conftest import scalar_field, scalar_xi_rate
from kppwaves.phaseplane import linearization, xpow


# --- construction ------------------------------------------------------------

def test_build_case_i():
    s = build_system(CanonicalModel(m=2, p=2, q=1), 3.0)
    assert isinstance(s, PhaseSystemI)
    assert s.gamma == pytest.approx(1.0)
    assert s.k == pytest.approx(2.0)
    assert s.c == 3.0


def test_build_case_ii_critical_diffusion():
    # m + q = 2: the exponent branch k = p - q with k1 = 0, k2 = 1
    s = build_system(CanonicalModel(m=1, p=2, q=1), 1.0)
    assert isinstance(s, PhaseSystemII)
    assert (s.k, s.k1, s.k2) == (1.0, 0.0, 1.0)
    assert s.gamma == pytest.approx(1.0)
    assert s.c1 == pytest.approx(1.0)


def test_build_case_ii_slow_diffusion_branch():
    # m + q = 1 < 2 and (2-m-q)/2 = 0.5 < p - q = 1.5: k = 0.5, k1 = 1, k2 = 3
    s = build_system(CanonicalModel(m=0.5, p=2, q=0.5), 1.0)
    assert isinstance(s, PhaseSystemII)
    assert (s.k, s.k1, s.k2) == (0.5, 1.0, 3.0)
    assert s.gamma == pytest.approx(1.0)
    assert s.c1 == pytest.approx(math.sqrt(2.0))


def test_build_case_ii_other_branch():
    s = build_system(CanonicalModel(m=0.5, p=2, q=1), 1.0)
    assert (s.k, s.k1, s.k2) == (0.25, 1.0, 4.0)
    assert s.gamma == pytest.approx(1.0 / 3.0)
    assert s.c1 == pytest.approx(math.sqrt(2.0 / 1.5))


def test_build_rejects_negative_speed():
    with pytest.raises(kw.InvalidParameterError):
        build_system(CanonicalModel(m=2, p=2, q=1), -1.0)


triples = st.tuples(st.floats(min_value=0.3, max_value=4.0),
                    st.floats(min_value=0.1, max_value=3.0),
                    st.floats(min_value=0.05, max_value=3.0))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(t=triples, c=st.floats(min_value=0.0, max_value=5.0))
def test_exponent_identities(t, c):
    m, q, dp = t
    cm = CanonicalModel(m=m, p=q + dp, q=q)
    s = build_system(cm, c)
    if isinstance(s, PhaseSystemI):
        # gamma (k - 1) = p - q ties the transformed exponents to the model
        assert s.gamma * (s.k - 1.0) == pytest.approx(dp, rel=1e-12)
        assert s.gamma == pytest.approx(m + q - 2.0, rel=1e-12)
    else:
        assert s.k * s.k2 == pytest.approx(dp, rel=1e-12)
        assert s.gamma == pytest.approx(2.0 * s.k / (m + q), rel=1e-12)
        assert s.c1 == pytest.approx(c * math.sqrt(2.0 / (m + q)), rel=1e-12)


# --- vector field and linearization -------------------------------------------

def test_vector_field_point_value():
    s = build_system(CanonicalModel(m=2, p=2, q=1), 1.0)
    fx, fy = vector_field(s, 0.5, 0.2)
    assert fx == pytest.approx(0.1, abs=1e-15)
    assert fy == pytest.approx(0.01, abs=1e-15)


def test_vector_field_rejects_negative_x():
    s = build_system(CanonicalModel(m=2, p=2, q=1), 1.0)
    with pytest.raises(kw.DomainError):
        vector_field(s, -0.1, 0.0)


@pytest.mark.parametrize("cm", [
    CanonicalModel(m=2, p=2, q=1), CanonicalModel(m=1, p=2, q=1),
    CanonicalModel(m=0.5, p=2, q=0.5), CanonicalModel(m=0.5, p=0.75, q=0.5)],
    ids=["case-i", "case-ii-k1-0", "case-ii-k1-1", "case-ii-k2-1"])
def test_scalar_field_matches_vector_field(cm):
    # the integrator's closure is the array field in scalar form: equal at
    # X = 0 and X = 1, and inside (0, 2) up to the last bit in which numpy's
    # power and Python's pow may differ
    rng = np.random.default_rng(11)
    for c in (0.0, 0.7, 3.0):
        s = build_system(cm, c)
        rhs = scalar_field(s)
        for X in (0.0, 1.0):
            for Y in (-1.5, 0.0, 0.25):
                assert rhs(X, Y) == vector_field(s, X, Y)
        X, Y = rng.uniform(0.0, 2.0, 300), rng.uniform(-2.0, 2.0, 300)
        want = np.stack(vector_field(s, X, Y), axis=1)
        got = np.array([rhs(x, y) for x, y in zip(X.tolist(), Y.tolist())])
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))


# one model per form family of solver_rhs: Case I with k = 2 and with the
# general model's k = 1.75, Case II with a = 0, a = 1 and a = k1 > 1
FORM_MODELS = [CanonicalModel(m=2, p=2, q=1), CanonicalModel(m=3, p=2.5, q=1),
               CanonicalModel(m=1, p=2, q=1), CanonicalModel(m=0.5, p=2, q=0.5),
               CanonicalModel(m=0.5, p=0.75, q=0.5)]
_field_X = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    [0.0, -0.0, 1.0, 5e-324, -5e-324, -1.0, 1e-300, 2.0 ** -60]))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(model=st.integers(0, len(FORM_MODELS) - 1), c=st.sampled_from([0.0, 0.7, 3.0]),
       X=_field_X, Y=st.floats(-2.0, 2.0), carry_xi=st.booleans())
def test_solver_rhs_is_the_scalar_field_bit_for_bit(model, c, X, Y, carry_xi):
    # the integrator's fused right-hand side writes scalar_field's (X, Y)
    # derivative, and with xi the xi rate connect's shots use, into out
    cm = FORM_MODELS[model]
    s = build_system(cm, c)
    params = kw.connect._xi_rate(s, cm) if carry_xi else None
    rate = params and scalar_xi_rate(params)
    out = np.empty(2 + carry_xi)
    got = kw.phaseplane.solver_rhs(s, out, params)(0.0, np.array([X, Y, 0.3][:len(out)]))
    assert got is out
    assert got[:2].tolist() == list(scalar_field(s)(X, Y))
    if X in (0.0, 1.0):
        assert tuple(got[:2].tolist()) == vector_field(s, X, Y)
    if carry_xi:
        assert got[2] == rate(X)


def _invariance_residual(s, alpha, c, X):
    """(gamma X h h' + h (h + s X^a) - X^b + X^e at X, its largest term)."""
    sp, a, b, e = s.form
    h = sum(ck * X ** x for x, ck in zip(alpha, c))
    dh = sum(x * ck * X ** (x - 1.0) for x, ck in zip(alpha[1:], c[1:]))
    terms = (s.gamma * X * h * dh, h * h, sp * h * X ** a, -(X ** b), X ** e)
    return math.fsum(terms), max(map(abs, terms))


def _residual_coefficients(s, alpha, c):
    """Per kept exponent alpha_k > 0, the terms of the coefficient of
    X^alpha_k in gamma X h h' + h (h + s X^a) - X^b + X^e."""
    sp, a, b, e = s.form
    at = {x: k for k, x in enumerate(alpha)}
    out = []
    for x in alpha[1:]:
        terms = [c[i] * c[at[x - y]] * (1.0 + s.gamma * (x - y))
                 for i, y in enumerate(alpha) if x - y in at]
        if a > 0.0 and x - a in at:
            terms.append(sp * c[at[x - a]])
        elif a == 0.0:
            terms.append(sp * c[at[x]])
        out.append(terms + [-1.0] * (x == b) + [1.0] * (x == e))
    return out


@pytest.mark.parametrize("cm", FORM_MODELS)
def test_departure_seed_solves_the_invariance_equation(cm):
    # the series keeps the lattice's first SERIES_TERMS exponents and leaves
    # a residual of the order of the first one it omits, which the seed
    # bounds: at most L(alpha_next) SERIES_TOL, L(alpha) = gamma Y0 alpha -
    # dY'/dY(P0) being the factor that turns a coefficient into its
    # residual, and at most that factor at the seed times SERIES_TOL, which
    # keeps the error that the residual puts on Y within SERIES_TOL.  Every
    # kept exponent is solved: the residual's coefficient of each vanishes
    # to the rounding of the sum of its terms
    pp = kw.phaseplane
    eps = np.finfo(float).eps
    for share in (0.05, 0.2, 0.5, 0.9, 1.2, 2.0):
        s = build_system(cm, share * kw.critical_speed(cm))
        sp, a, b, e = s.form
        alpha, c = pp.departure_series(s)
        gens = {g for g in (a, b, e) if g > 0.0}
        lattice = {i * g + j * h for g in gens for h in gens
                   for i in range(60) for j in range(60)}
        assert len(alpha) == pp.SERIES_TERMS
        assert alpha == sorted(x for x in lattice if x <= alpha[-1])
        for terms in _residual_coefficients(s, alpha, c):
            assert abs(math.fsum(terms)) <= len(terms) * eps * sum(map(abs, terms))

        nxt = min(x for x in lattice if x > alpha[-1])
        at_p0 = s.gamma * c[0] * nxt + 2.0 * c[0] + (sp if a == 0.0 else 0.0)

        def within(X):
            """(the top band's largest term, the residual, its bound) at X."""
            h = sum(ck * X ** x for x, ck in zip(alpha, c))
            Xdh = sum(x * ck * X ** x for x, ck in zip(alpha, c))
            at_seed = s.gamma * (h * nxt + Xdh) + 2.0 * h + sp * X ** a
            top = max(abs(ck) * X ** x for x, ck in zip(alpha, c) if x > alpha[-1] - 2)
            return top, abs(_invariance_residual(s, alpha, c, X)[0]), \
                pp.SERIES_TOL * min(at_p0, at_seed)

        X, Y = pp.departure_seed(s)
        assert 0.0 < X <= pp.SERIES_X_MAX
        assert Y == c[0] + sum(ck * X ** x for x, ck in zip(alpha[1:], c[1:]))
        top, res, bound = within(X)
        assert top <= pp.SERIES_TOL * (1 + 1e-12)
        assert res <= bound <= pp.SERIES_TOL * at_p0
        # X is the largest at which both hold: where the residual holds at
        # the top band's X, that X exactly; where X shrinks for the
        # residual, to 1 %
        band = min([pp.SERIES_X_MAX] + [(pp.SERIES_TOL / abs(ck)) ** (1.0 / x)
                                        for x, ck in zip(alpha, c) if x > alpha[-1] - 2 and ck])
        _, band_res, band_bound = within(band)
        if band_res <= band_bound:
            assert X == pp.SERIES_X_MAX or top >= pp.SERIES_TOL * (1 - 1e-12)
        else:
            top, res, bound = within(1.01 * X)
            assert X < band and res > bound


def test_departure_seed_needs_a_positive_case_i_speed():
    # L(alpha) = c vanishes at c = 0 and the series overflows as c -> 0: a
    # typed error, not a ZeroDivisionError or a seed at P0
    cm = CanonicalModel(m=2, p=2, q=1)
    for s in (build_system(cm, 0.0), build_system(cm, 1e-30),
              PhaseSystemI(gamma=1.0, k=2.0, c=-1.0)):
        with pytest.raises(kw.SeedFailureError):
            kw.phaseplane.departure_seed(s)


def test_slow_case_i_series_stops_before_it_overflows():
    # the saddle-node series grows like 1/c^(2k): at c = 1e-3 its 48th
    # coefficient is past the float range, so the series ends at the last
    # finite one and the seed still holds its residual bound
    pp = kw.phaseplane
    s = build_system(CanonicalModel(m=2, p=2, q=1), 1e-3)
    alpha, c = pp.departure_series(s)
    assert pp.SERIES_MIN_TERMS <= len(c) < pp.SERIES_TERMS and len(alpha) == len(c)
    assert all(map(math.isfinite, c)) and abs(c[-1]) > 1e300
    X, Y = pp.departure_seed(s)
    assert 0.0 < X < 1e-7
    # L(alpha) = c for every alpha of a Case I series
    assert abs(_invariance_residual(s, alpha, c, X)[0]) <= pp.SERIES_TOL * s.c
    assert Y == c[0] + sum(ck * X ** x for x, ck in zip(alpha[1:], c[1:]))


def test_p2_linearization_trio():
    cm = CanonicalModel(m=2, p=2, q=1)
    p2 = {fp.name: fp for fp in fixed_points(build_system(cm, 3.0))}["P2"]
    assert np.allclose(p2.jacobian, [[0.0, 1.0], [-1.0, -3.0]])
    assert p2.kind is FixedPointKind.STABLE_NODE and not p2.degenerate

    p2 = {fp.name: fp for fp in fixed_points(build_system(cm, 1.0))}["P2"]
    assert p2.kind is FixedPointKind.STABLE_FOCUS
    assert p2.eigenvalues[0] == pytest.approx(-0.5 + 0.8660254037844386j)

    # discriminant zero at c = 2 sqrt(p-q): repeated root, flagged degenerate
    p2 = {fp.name: fp for fp in fixed_points(build_system(cm, 2.0))}["P2"]
    assert p2.kind is FixedPointKind.STABLE_NODE and p2.degenerate
    assert p2.eigenvalues[0] == pytest.approx(-1.0)


def test_case_i_saddle_structure():
    fps = {fp.name: fp for fp in fixed_points(build_system(CanonicalModel(m=2, p=2, q=1), 2.0))}
    assert fps["P0"].kind is FixedPointKind.SADDLE_NODE
    assert sorted(e.real for e in fps["P0"].eigenvalues) == pytest.approx([-2.0, 0.0])
    assert fps["P1"].location == (0.0, -2.0)
    assert fps["P1"].kind is FixedPointKind.SADDLE


def test_zero_speed_collapses_equilibria():
    fps = {fp.name: fp for fp in fixed_points(build_system(CanonicalModel(m=2, p=2, q=1), 0.0))}
    # P1 falls onto P0 and P2 turns into a center; everything is degenerate
    assert "P1" not in fps
    assert fps["P0"].kind is FixedPointKind.DEGENERATE
    assert fps["P2"].degenerate
    assert fps["P2"].eigenvalues[0].real == pytest.approx(0.0)


def test_case_ii_axis_equilibria_values():
    s = build_system(CanonicalModel(m=0.5, p=2, q=0.5), 1.0)   # k1 = 1
    assert axis_equilibria(s) == (1.0, -1.0)
    s = build_system(CanonicalModel(m=1, p=2, q=1), 1.0)       # k1 = 0
    yp, ym = axis_equilibria(s)
    assert yp == pytest.approx((-1.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)
    assert ym == pytest.approx((-1.0 - math.sqrt(5.0)) / 2.0, rel=1e-14)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(t=triples, c=st.floats(min_value=0.05, max_value=5.0))
def test_fixed_points_are_field_zeros_with_consistent_linearization(t, c):
    m, q, dp = t
    s = build_system(CanonicalModel(m=m, p=q + dp, q=q), c)
    for fp in fixed_points(s):
        fx, fy = vector_field(s, *fp.location)
        assert abs(fx) < 1e-12 and abs(fy) < 1e-12
        J = np.asarray(fp.jacobian)
        lam = np.linalg.eigvals(J)
        got = sorted(np.asarray(fp.eigenvalues), key=lambda z: (z.real, z.imag))
        ref = sorted(lam, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, ref, atol=1e-10)
        # the eigenvectors: unit columns that J maps onto lam times themselves
        _, lam, V = linearization(s, *fp.location)
        assert lam == fp.eigenvalues
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=1e-14)
        assert np.allclose(J @ V, V * np.array(lam), atol=1e-10 * max(1.0, np.abs(J).max()))
        if fp.location[0] == 0.0:
            # a Y-axis equilibrium's Jacobian is triangular: its diagonal, exactly
            assert lam == tuple(complex(d) for d in sorted(np.diag(J), reverse=True))


SWEEP_MODELS = [(2, 2, 1), (1, 2, 1), (0.5, 2, 1), (1, 1, 0.5), (3, 2.5, 1)]


@pytest.mark.parametrize("mpq", SWEEP_MODELS)
def test_fixed_point_linearization_is_numpys_bit_for_bit(mpq, monkeypatch):
    # at X = 0 and 1 the Jacobian takes its powers in plain floats; they must
    # be the bits numpy's power (xpow) gives, from J to the eigenvectors
    cm = CanonicalModel(*mpq)
    systems = [build_system(cm, share * kw.critical_speed(cm))
               for share in (0.0, 0.05, 0.2, 0.6, 0.95, 1.0, 1.05, 1.5, 3.0)]

    def linearizations():
        return [(fp.jacobian, fp.eigenvalues, *linearization(s, *fp.location),
                 jacobian(s, *fp.location))
                for s in systems for fp in fixed_points(s)]

    got = linearizations()
    monkeypatch.setattr(kw.phaseplane, "_unit_power", xpow)
    want = linearizations()
    assert len(got) == len(want) >= 2 * len(systems)
    for a, b in zip(got, want):
        # every value bit for bit, signed zeros included
        for x, y in zip(a, b):
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for cm, c in [(CanonicalModel(m=2, p=3, q=1), 1.5),
                  (CanonicalModel(m=1, p=2, q=1), 0.7),
                  (CanonicalModel(m=0.5, p=2, q=0.5), 2.0)]:
        s = build_system(cm, c)
        for _ in range(5):
            X = float(rng.uniform(0.1, 1.2))
            Y = float(rng.uniform(-1.0, 1.0))
            J = jacobian(s, X, Y)
            h = 1e-6
            fd = np.empty((2, 2))
            fd[:, 0] = (np.array(vector_field(s, X + h, Y)) -
                        np.array(vector_field(s, X - h, Y))) / (2 * h)
            fd[:, 1] = (np.array(vector_field(s, X, Y + h)) -
                        np.array(vector_field(s, X, Y - h))) / (2 * h)
            assert np.allclose(J, fd, atol=1e-6)


# --- closed orbits excluded: weighted divergence ------------------------------

def test_dulac_point_values():
    s = build_system(CanonicalModel(m=2, p=2, q=1), 1.0)    # gamma = 1
    assert dulac_divergence(s, 1.0) == pytest.approx(-1.0, abs=1e-15)
    s = build_system(CanonicalModel(m=2, p=3, q=2), 3.0)    # gamma = 2
    assert dulac_divergence(s, 4.0) == pytest.approx(-3.0, abs=1e-15)


def test_dulac_zero_speed_vanishes():
    s = build_system(CanonicalModel(m=2, p=2, q=1), 0.0)
    assert np.all(dulac_divergence(s, np.linspace(0.1, 1.0, 11)) == 0.0)


def test_dulac_rejects_case_ii():
    s = build_system(CanonicalModel(m=1, p=2, q=1), 1.0)
    with pytest.raises(kw.InvalidParameterError):
        dulac_divergence(s, 0.5)


# --- region G confinement ------------------------------------------------------

def test_region_residual_anchors():
    cm = CanonicalModel(m=2, p=2, q=1)
    for c in (0.5, 1.0, 2.0, 3.5):
        s = build_system(cm, c)
        a = c / (2.0 * s.gamma)
        assert region_G_residual(s, 1.0) == pytest.approx(0.0, abs=1e-13)
        assert region_G_residual(s, 0.0) == pytest.approx(-a * a - c * a, rel=1e-13)


def test_region_residual_quadratic_oracle():
    # (2,2,1) at c = 2: a = 1 and R collapses to -3 (X - 1)^2
    s = build_system(CanonicalModel(m=2, p=2, q=1), 2.0)
    X = np.linspace(0.0, 1.0, 101)
    assert np.allclose(region_G_residual(s, X), -3.0 * (X - 1.0) ** 2, atol=1e-13)


def test_region_residual_sign_at_critical_speed():
    X = np.linspace(0.0, 1.0, 10001)
    for cm in (CanonicalModel(m=2, p=2, q=1), CanonicalModel(m=2, p=3, q=2),
               CanonicalModel(m=3, p=2.5, q=0.5)):
        s = build_system(cm, kw.critical_speed(cm))
        assert np.max(region_G_residual(s, X)) <= 1e-12


# --- the explicit zero-speed trajectory ----------------------------------------

@pytest.mark.parametrize("mpq,want", [
    ((2, 2, 1), 4.0 / 3.0),          # gamma 1, k 2
    ((2, 4, 2), 1.5),                # gamma 2, k 2
    ((2, 6, 2), math.sqrt(2.0)),     # gamma 2, k 3
])
def test_zero_speed_turning_point(mpq, want):
    m, p, q = mpq
    s = build_system(CanonicalModel(m=m, p=p, q=q), 0.0)
    assert zero_speed_X0(s) == pytest.approx(want, rel=1e-14)


def test_zero_speed_curve_value():
    s = build_system(CanonicalModel(m=2, p=2, q=1), 0.0)
    assert zero_speed_curve(s, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    # the curve vanishes exactly at the turning point
    assert zero_speed_curve(s, zero_speed_X0(s)) == pytest.approx(0.0, abs=1e-15)


# --- xpow edge cases -----------------------------------------------------------

def test_xpow_limits():
    assert xpow(0.0, 0.0) == 1.0
    assert xpow(0.0, 2.0) == 0.0
    assert np.allclose(xpow(np.array([0.0, 4.0]), 0.5), [0.0, 2.0])
    with pytest.raises(kw.DomainError):
        xpow(-1.0, 2.0)
    with pytest.raises(kw.DomainError):
        xpow(0.0, -1.0)
