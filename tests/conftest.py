"""Shared fixtures and oracles.

Profile shots and their reconstruction are the costly steps of these
tests, so profiles used by several test modules are built once per session
here.
"""
import math

import numpy as np
import pytest

import kppwaves as kw
from kppwaves.phaseplane import PhaseSystemI, fixed_point_locations, linearization


def linear_seed(sys, eps=kw.connect.DEFAULT_EPS):
    """The seed eps off P0 along P0's eigenvector transverse to the Y axis,
    the first that phaseplane.linearization lists: the reference seed of the
    tests that pin the shot against solve_ivp or compare a shot with one
    from near P0.  In Case I at c = 0, where P0 is fully degenerate, it is
    shoot's own seed there, on the zero-speed curve at X = eps."""
    if isinstance(sys, PhaseSystemI) and sys.c == 0.0:
        return np.array([eps, math.sqrt(kw.zero_speed_curve(sys, eps))])
    x0, y0 = fixed_point_locations(sys)["P0"]
    v = linearization(sys, x0, y0)[2][:, 0].real
    if v[0] < 0.0:
        v = -v
    assert v[0] > 0.0, v
    return np.array([x0, y0]) + eps * v


def scalar_field(sys):
    """The vector field as a function of two floats X, Y: the reference that
    phaseplane.solver_rhs, the integrators' form, matches bit for bit.

    X <= 0 evaluates as X = 0, so a step that strays just outside the
    half-plane stays finite."""
    g, (s, a, b, e) = sys.gamma, sys.form

    def rhs(X: float, Y: float) -> tuple[float, float]:
        Xp = X if X > 0.0 else 0.0
        # 0.0 ** 0.0 is 1.0, so X^0 = 1 holds at X = 0 too
        return g * Xp * Y, -Y * (Y + s * Xp ** a) + Xp ** b - Xp ** e

    return rhs


def scalar_xi_rate(params):
    """The xi rate that connect._xi_rate's (pref, expo, tiny, cap) give, as
    a function of one float: the reference that the xi state of
    phaseplane.solver_rhs matches bit for bit."""
    pref, expo, tiny, cap = params
    exp, log = math.exp, math.log

    def rate(X: float) -> float:
        return pref * exp(min(expo * log(max(X, tiny)), cap))

    return rate


def scipy_table(ode_solution):
    """The Nordsieck table of the interpolants solve_ivp returns, assembled
    record by record: the reference for a profile shot's dense output."""
    records = [(s.t, s.h, s.yh.T) for s in ode_solution.interpolants]
    order = max(len(yh) for _, _, yh in records)
    coef = np.zeros((order, records[0][2].shape[1], len(records)))
    for j, (_, _, yh) in enumerate(records):
        coef[:len(yh), :, j] = yh
    return kw.connect._NordsieckTable(
        ode_solution.ts, np.array([t for t, _, _ in records], dtype=float),
        np.array([h for _, h, _ in records], dtype=float), coef)


def build_profile(m, p, q, c, arrival_radius=None):
    cm = kw.CanonicalModel(m=m, p=p, q=q)
    sys = kw.build_system(cm, abs(c))
    kwargs = {} if arrival_radius is None else {"arrival_radius": arrival_radius}
    return kw.reconstruct_profile(kw.shoot(sys, profile_of=cm, **kwargs)), cm


@pytest.fixture(scope="session")
def monotone_profile_121():
    """(m,p,q) = (1,2,1) at c = -3: a Case II monotone front."""
    return build_profile(1, 2, 1, -3.0)


@pytest.fixture(scope="session")
def oscillatory_profile_221():
    """(m,p,q) = (2,2,1) at c = -1: a Case I oscillatory front."""
    return build_profile(2, 2, 1, -1.0)


@pytest.fixture(scope="session")
def tight_profile_121():
    """Same front as monotone_profile_121, shot to within 1e-9 of the rest
    state.  The plateau behind the front is unstable under the reaction, so
    grid-convergence measurements need the tail this close to 1."""
    return build_profile(1, 2, 1, -3.0, arrival_radius=1e-9)


@pytest.fixture(scope="session")
def tight_profile_221():
    return build_profile(2, 2, 1, -1.0, arrival_radius=1e-9)


@pytest.fixture(scope="session")
def finite_prop_profile():
    """(m,p,q) = (1,1,0.5) at c = -3: compactly supported ahead of the front."""
    return build_profile(1, 1, 0.5, -3.0)


@pytest.fixture(scope="session")
def tight_az_profile_121():
    """(1,2,1) at the Ablowitz-Zeppetella speed -5/sqrt(6), shot to within
    1e-9 of the rest state."""
    return build_profile(1, 2, 1, -5.0 / 6.0 ** 0.5, arrival_radius=1e-9)
