"""Phase-plane systems for the travelling-wave ODE and their certificates.

Substituting the wave ansatz into the canonical equation and rescaling turns
the profile ODE into a first-order system in (X, Y).  Two substitutions cover
the parameter space, and both give one field

    X' = gamma X Y
    Y' = -Y (Y + s X^a) + X^b - X^e

with the coefficients (s, a, b, e) of each case:

Case I (m + q > 2):
    X = f^(m+q-2),  Y = f^(m-2) f',  d_xi = X^((m-1)/gamma) d_tau
    (s, a, b, e) = (c, 0, 1, k),  k = (m+p-2)/(m+q-2) > 1, gamma = m+q-2

Case II (0 < m + q <= 2):
    X = f^k,  Y = sqrt((m+q)/2) f^((m-q-2)/2) f'
    (s, a, b, e) = (c1, k1, 0, k2),  gamma = 2k/(m+q), c1 = c sqrt(2/(m+q))

with k = min{(2-m-q)/2, p-q} and the (k1, k2) branch rules below.  In both
cases the wave corresponds to a heteroclinic orbit between an equilibrium on
the Y axis and P2 = (1, 0), and the node/focus boundary of P2 reproduces the
critical speed 2 sqrt(p-q).
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat, takewhile
from operator import mul

import numpy as np

from .errors import DomainError, InvalidParameterError, SeedFailureError
from .model import CanonicalModel, Regime

__all__ = [
    "PhaseSystemI",
    "PhaseSystemII",
    "FixedPointKind",
    "FixedPointInfo",
    "build_system",
    "vector_field",
    "jacobian",
    "linearization",
    "fixed_points",
    "fixed_point_locations",
    "axis_equilibria",
    "solver_rhs",
    "departure_series",
    "departure_graph",
    "departure_seed",
    "ArrivalMap",
    "arrival_map",
    "SlowManifold",
    "slow_manifold",
    "dulac_divergence",
    "region_G_residual",
    "zero_speed_curve",
    "zero_speed_X0",
    "xpow",
]


def xpow(X, r: float):
    """X**r with explicit limits at X = 0: 0 for r > 0, 1 for r = 0.

    Raises DomainError for negative bases, and for X = 0 with r < 0.
    Accepts scalars or arrays.
    """
    arr = np.asarray(X, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError(f"negative base in X^{r}")
    if r < 0.0 and np.any(arr == 0.0):
        raise DomainError(f"X^{r} undefined at X = 0")
    # numpy's power gives 1 at r = 0, X = 0 included
    out = arr ** r
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PhaseSystemI:
    """Case I coefficients. gamma = m+q-2 > 0, k = (m+p-2)/gamma > 1.

    c is the transformed-frame speed; build_system produces c >= 0 (negative
    original speeds are mapped through the mirror (c, X, Y) -> (-c, X, -Y)
    first), but the dataclass accepts any finite c so the mirror property
    itself can be tested.
    """

    gamma: float
    k: float
    c: float

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise InvalidParameterError(f"gamma must be positive, got {self.gamma!r}")
        if not (self.k > 1.0):
            raise InvalidParameterError(f"k must exceed 1 in Case I, got {self.k!r}")

    @property
    def form(self) -> tuple[float, float, float, float]:
        """The field's coefficients (s, a, b, e); see the module docstring."""
        return self.c, 0.0, 1.0, self.k


@dataclass(frozen=True)
class PhaseSystemII:
    """Case II coefficients.

    k = min{(2-m-q)/2, p-q} (k = p-q when m+q = 2); the branch taken fixes
    (k1, k2):  k = (2-m-q)/2 -> k1 = 1, k2 = 2(p-q)/(2-m-q);
    k = p-q < (2-m-q)/2 -> k2 = 1, k1 = (2-m-q)/(2(p-q));
    m+q = 2 -> k1 = 0, k2 = 1.  In every branch k*k2 = p-q.
    """

    gamma: float
    k: float
    k1: float
    k2: float
    c1: float

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise InvalidParameterError(f"gamma must be positive, got {self.gamma!r}")
        if not (self.k > 0.0):
            raise InvalidParameterError(f"k must be positive, got {self.k!r}")
        if self.k1 < 0.0 or self.k2 <= 0.0:
            raise InvalidParameterError(f"bad exponents k1={self.k1!r}, k2={self.k2!r}")

    @property
    def form(self) -> tuple[float, float, float, float]:
        """The field's coefficients (s, a, b, e); see the module docstring."""
        return self.c1, self.k1, 0.0, self.k2


PhaseSystem = PhaseSystemI | PhaseSystemII


class FixedPointKind(str, Enum):
    SADDLE_NODE = "SaddleNode"
    SADDLE = "Saddle"
    STABLE_NODE = "StableNode"
    STABLE_FOCUS = "StableFocus"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class FixedPointInfo:
    """Location, linearization, and kind of one equilibrium.

    ``degenerate`` marks the discriminant-zero boundary c = c*, where the
    kind is reported as StableNode (the approach is still non-spiralling
    there, so the boundary belongs with the monotone class).
    """

    name: str
    location: tuple[float, float]
    jacobian: tuple[tuple[float, float], tuple[float, float]]
    eigenvalues: tuple[complex, complex]
    kind: FixedPointKind
    degenerate: bool = False


def build_system(cm: CanonicalModel, c: float) -> PhaseSystem:
    """Construct the phase system for canonical model ``cm`` at speed c >= 0.

    Callers with a negative original speed must flip its sign first (the
    mirror symmetry maps the c < 0 question to c > 0).  c = 0 is accepted:
    it is the boundary case whose trajectories are explicit in Case I.
    """
    c = float(c)
    if not math.isfinite(c) or c < 0.0:
        raise InvalidParameterError(
            f"build_system needs c >= 0 (map negative speeds through the mirror), got {c!r}"
        )
    mq = cm.mq
    if cm.regime is Regime.CASE_I:
        gamma = mq - 2.0
        k = (cm.m + cm.p - 2.0) / gamma
        return PhaseSystemI(gamma=gamma, k=k, c=c)
    # Case II, including the boundary m+q = 2
    if mq == 2.0:
        k = cm.p - cm.q
        k1, k2 = 0.0, 1.0
    else:
        half = (2.0 - mq) / 2.0
        if half <= cm.p - cm.q:
            k = half
            k1 = 1.0
            k2 = 2.0 * (cm.p - cm.q) / (2.0 - mq)
        else:
            k = cm.p - cm.q
            k2 = 1.0
            k1 = (2.0 - mq) / (2.0 * (cm.p - cm.q))
    gamma = 2.0 * k / mq
    c1 = c * math.sqrt(2.0 / mq)
    return PhaseSystemII(gamma=gamma, k=k, k1=k1, k2=k2, c1=c1)


def vector_field(sys: PhaseSystem, X, Y):
    """Evaluate (dX/dtau, dY/dtau). Accepts scalars or broadcastable arrays.

    Raises DomainError for X < 0 (the systems live in the closed half-plane).
    """
    Xa = np.asarray(X, dtype=float)
    Ya = np.asarray(Y, dtype=float)
    if np.any(Xa < 0.0):
        raise DomainError("vector_field requires X >= 0")
    s, a, b, e = sys.form
    dX = sys.gamma * Xa * Ya
    dY = -Ya * (Ya + s * xpow(Xa, a)) + xpow(Xa, b) - xpow(Xa, e)
    if np.ndim(dX) == 0 and np.ndim(dY) == 0:
        return float(dX), float(dY)
    dX, dY = np.broadcast_arrays(dX, dY)
    return dX, dY


def solver_rhs(sys: PhaseSystem, out: np.ndarray, xi_rate=None):
    """The field as an ODE right-hand side fun(t, state) that writes (X', Y')
    of the module docstring's field into ``out`` and returns it; with
    ``xi_rate`` = (pref, expo, tiny, cap) the state is (X, Y, xi) and out[2] =
    pref exp(min(expo log(max(X, tiny)), cap)).  X <= 0 evaluates as X = 0
    in the field, so a step just outside the half-plane stays finite.  fun
    is compiled once per field form (see _rhs_template)."""
    s, a, b, e = sys.form
    return _rhs_template(a, b, e, xi_rate is not None)(sys.gamma, s, out, *xi_rate or ())


@lru_cache(maxsize=64)
def _rhs_template(a: float, b: float, e: float, carry_xi: bool):
    """make(g, s, out[, pref, expo, tiny, cap]) -> fun for the exponents (a,
    b, e), with X^0 = 1 and X^1 = X written out (Python's ** gives them
    exactly), the coefficients bound per shot, and the xi rate's max and min
    as conditionals that pick what Python's would, NaN included."""
    A, B, E = ({0.0: "1.0", 1.0: "X"}.get(r, f"X ** {r!r}") for r in (a, b, e))
    code = (f"def make(g, s, out{', pref, expo, tiny, cap' if carry_xi else ''}):\n"
            "    def fun(_t, state):\n"
            f"        Z, Y{', _' if carry_xi else ''} = state.tolist()\n"
            "        X = Z if Z > 0.0 else 0.0\n"
            "        out[0] = g * X * Y\n"
            f"        out[1] = -Y * (Y + {'s' if A == '1.0' else 's * ' + A}) + {B} - {E}\n"
            + ("        L = expo * log(tiny if tiny > Z else Z)\n"
               "        out[2] = pref * exp(cap if cap < L else L)\n" if carry_xi else "")
            + "        return out\n"
            "    return fun\n")
    scope = {"exp": math.exp, "log": math.log}
    exec(code, scope)
    return scope["make"]


def jacobian(sys: PhaseSystem, X: float, Y: float) -> np.ndarray:
    """2x2 Jacobian of the vector field at (X, Y), X >= 0."""
    X = float(X)
    Y = float(Y)
    if X < 0.0:
        raise DomainError("jacobian requires X >= 0")
    s, a, b, e = sys.form
    # a vanishing exponent drops its term, which keeps X^-1 out at X = 0
    dQdX = 0.0
    if a != 0.0:
        dQdX -= s * Y * a * _unit_power(X, a - 1.0)
    if b != 0.0:
        dQdX += b * _unit_power(X, b - 1.0)
    dQdX -= e * _unit_power(X, e - 1.0)
    dQdY = -2.0 * Y - s * _unit_power(X, a)
    return np.array([[sys.gamma * Y, sys.gamma * X], [dQdX, dQdY]], dtype=float)


def _unit_power(X: float, r: float) -> float:
    """X^r in plain floats.  At X = 0 or 1, where every fixed point lies,
    it is xpow(X, r) exactly; elsewhere it may differ in the last bit."""
    if X == 0.0 and r < 0.0:
        raise DomainError(f"X^{r} undefined at X = 0")
    return X ** r


def _eigenvector(J: list[list[float]], lam: complex) -> tuple[complex, complex]:
    # J - lam I is singular, so (J01, lam - J00) and (lam - J11, J10) each
    # solve it; the longer one is the better conditioned
    (a, b), (c, d) = J
    v = (b + 0j, lam - a)
    if abs(v[0]) + abs(v[1]) < abs(lam - d) + abs(c):
        v = (lam - d, c + 0j)
    # Python's complex division by a real n divides each part by n exactly
    n = float(np.hypot(abs(v[0]), abs(v[1])))
    return v[0] / n, v[1] / n


def linearization(sys: PhaseSystem, x: float, y: float
                  ) -> tuple[np.ndarray, tuple[complex, complex], np.ndarray]:
    """(J, (l1, l2), V): the field's Jacobian at the fixed point (x, y), its
    eigenvalues and its eigenvectors.

    l1 and l2 = (tr +- root)/2 are the roots of the characteristic polynomial,
    except that a triangular Jacobian (every Y-axis equilibrium has J01 =
    gamma X = 0) gives its diagonal exactly, the larger entry first.  Column
    k of the complex 2x2 array V is a unit eigenvector of l_k; at a double
    eigenvalue the two columns coincide.
    """
    J = jacobian(sys, x, y)
    Jl = J.tolist()
    (a, b), (c, d) = Jl
    if b == 0.0 or c == 0.0:
        lam = (complex(max(a, d)), complex(min(a, d)))
    else:
        tr = a + d
        root = cmath.sqrt(complex(tr * tr - 4.0 * (a * d - b * c)))
        lam = (complex(tr + root) / 2.0, complex(tr - root) / 2.0)
    return J, lam, np.array([_eigenvector(Jl, z) for z in lam]).T


def _classify_p2(speed: float, lam: tuple[complex, complex]) -> tuple[FixedPointKind, bool]:
    """Kind of P2 and its degenerate flag, from the field's speed coefficient
    s and P2's eigenvalues."""
    if speed == 0.0:
        # zero-speed boundary: purely imaginary eigenvalues (center at the
        # linear level); not in the stable node/focus dichotomy
        return FixedPointKind.DEGENERATE, True
    l1, l2 = lam
    # (l1 - l2)^2 is the discriminant s^2 - 4 gamma (e - b), l1 l2 = gamma (e - b)
    if abs(l1 - l2) ** 2 <= 1e-12 * max(speed * speed, 4.0 * abs(l1 * l2), 1.0):
        # boundary c = c*: reported as StableNode, flagged degenerate
        return FixedPointKind.STABLE_NODE, True
    if l1.imag:
        return FixedPointKind.STABLE_FOCUS, False
    return FixedPointKind.STABLE_NODE, False


def axis_equilibria(sys: PhaseSystemII) -> tuple[float, float]:
    """Y values of the two Y-axis equilibria (Y+ > 0 > Y-) of a Case II system.

    On X = 0 the second equation reads -Y(Y + c1*[k1=0]) + 1 = 0, so the
    roots are +-1 when k1 > 0 and (-c1 +- sqrt(c1^2+4))/2 when k1 = 0.
    """
    if sys.k1 > 0.0:
        return 1.0, -1.0
    s = math.sqrt(sys.c1 * sys.c1 + 4.0)
    return (-sys.c1 + s) / 2.0, (-sys.c1 - s) / 2.0


def fixed_point_locations(sys: PhaseSystem) -> dict[str, tuple[float, float]]:
    """Name -> (X, Y) of each equilibrium that ``fixed_points`` lists, without
    the cost of linearizing them."""
    if isinstance(sys, PhaseSystemI):
        pts = {"P0": (0.0, 0.0)}
        if sys.c != 0.0:
            pts["P1"] = (0.0, -sys.c)
    else:
        y_plus, y_minus = axis_equilibria(sys)
        pts = {"P0": (0.0, y_plus), "P1": (0.0, y_minus)}
    pts["P2"] = (1.0, 0.0)
    return pts


SERIES_TERMS = 48     # terms of P0's departure-manifold series
SERIES_MIN_TERMS = 8  # fewer finite terms than this give no seed
SERIES_TOL = 1e-10    # bound on the seed's error and its top band's terms
SERIES_X_MAX = 0.8    # cap on the seed's X


@lru_cache(maxsize=64)
def _series_exponents(a: float, b: float, e: float):
    """(alpha, rows): the SERIES_TERMS + 1 smallest sums of the positive ones
    of a, b, e, ascending from 0, found exactly as whole multiples of 1/D, D
    the least common denominator of a, b and e (no pair is lost to
    rounding), and per alpha_k > 0 but the last, _graph_series' row for P0:
    alpha_k, the pairs (i, j), 0 < i < j, with alpha_i + alpha_j = alpha_k
    (so each product is formed once), the index of alpha_k / 2 (or None),
    X^a h's one term [(index of alpha_k - a, 1)] where a > 0, and [alpha_k
    = b] - [alpha_k = e].  The exponents are the lattice's first, so every
    sum and difference a row needs comes before it."""
    exact = [Fraction(g) for g in (a, b, e)]
    D = math.lcm(*(g.denominator for g in exact))
    A, B, E = (int(g * D) for g in exact)
    heap, alpha = [0], []
    while len(alpha) <= SERIES_TERMS:
        x = heapq.heappop(heap)
        alpha.append(x)
        for z in {x + y for y in (A, B, E) if y > 0} - set(heap):
            heapq.heappush(heap, z)
    at = {x: i for i, x in enumerate(alpha)}
    return [x / D for x in alpha], [
        (x / D, [(i, at[x - y]) for i, y in enumerate(alpha[1:k], 1) if i < at.get(x - y, 0)],
         at.get(Fraction(x, 2)), [(at[x - A], 1.0)] if A and x - A in at else [],
         float((x == B) - (x == E)))
        for k, x in enumerate(alpha[1:-1], 1)]


def _lead(sys: PhaseSystem, y0: float) -> float:
    """-dY'/dY at P0 = (0, y0)."""
    s, a, _, _ = sys.form
    return 2.0 * y0 + (s if a == 0.0 else 0.0)


def _graph_series(g: float, s: float, c: list[float], lead: float, rows,
                  c1: float = 0.0) -> list[float]:
    """Extend c, the given first coefficients of a graph Y = h = sum_k c_k
    u^alpha_k that solves the field's invariance equation gamma X h h' = -h
    (h + s X^a) + X^b - X^e, by one coefficient per row, and return it.
    Row k is (alpha_k, pairs, half, conv, force): the pairs (i, j), i < j,
    and the index ``half`` (or None) whose products make the part of h^2 at
    alpha_k that c_0 has no share in; the (index, weight) terms of X^a h
    there that c_k has no share in; and the part of X^b - X^e there.  c_k
    divides by gamma c_0 alpha_k + lead, lead = 2 c_0 + s X^a at u = 0.

    About P0, u = X.  About P2, u = X - 1 = x on the integers, c_0 = 0, c_1
    = c1, and a row's pairs and half are None: gamma X h h' = gamma (x h h'
    + h h'), and h h' at x^k is (k + 1) / 2 times h^2 at x^(k+1), where c_k
    has the share 2 c_1 c_k.  So c_k divides by gamma (k + 1) c1 more, k l1
    - l2 in all, and the rest of h^2 at x^(k+1) is the next row's h^2 at
    its own order, less 2 c_1 c_k."""
    c0 = c[0]
    ahead = -c1 * c1   # so that h^2 at x^2 comes out c_1^2
    for x, pairs, half, conv, force in rows:
        for i, w in conv:
            force -= s * c[i] * w
        den = g * c0 * x + lead
        if pairs is None:
            k = len(c)
            quad = ahead + 2.0 * c1 * c[-1]
            ahead = sum(map(mul, c[2:k], c[k - 1:1:-1]))
            force -= 0.5 * g * (x + 1.0) * ahead
            den += g * (x + 1.0) * c1
        else:
            quad = 2.0 * sum([c[i] * c[j] for i, j in pairs])
            if half is not None:
                quad += c[half] * c[half]
        c.append((force - (1.0 + 0.5 * g * x) * quad) / den)
    return c


def departure_series(sys: PhaseSystem) -> tuple[list[float], list[float]]:
    """(alpha, c): P0's departure manifold as the graph Y = h(X) = sum_k
    c_k X^alpha_k over the lattice's SERIES_TERMS first exponents, alpha_0 =
    0 and c_0 = P0's Y, cut before the first coefficient that overflows (a
    Case I series diverges, the faster the slower the speed).  The
    invariance gamma X h h' = -h (h + s X^a) + X^b - X^e gives each c_k from
    those before it over L(alpha_k) = gamma c_0 alpha_k - dY'/dY(P0): c in
    Case I (which must be positive), positive in Case II, so no exponent is
    resonant (see _graph_series)."""
    alpha, c = _departure_series(sys)
    return list(alpha), list(c)


@lru_cache(maxsize=16)
def _departure_series(sys: PhaseSystem) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """departure_series as tuples, kept for the few systems last asked for:
    a profile's shot seeds on the series and its reconstruction reads it
    again."""
    g, (s, a, b, e) = sys.gamma, sys.form
    y0 = 0.0 if isinstance(sys, PhaseSystemI) else axis_equilibria(sys)[0]
    alpha, rows = _series_exponents(a, b, e)
    lead = _lead(sys, y0)
    if not lead > 0.0:
        raise SeedFailureError(f"P0 has no departure-manifold series at speed {s!r}")
    c = _graph_series(g, s, [y0], lead, rows)
    if not all(map(math.isfinite, c)):
        c = list(takewhile(math.isfinite, c))
    return tuple(alpha[:len(c)]), tuple(c)


def departure_graph(alpha: list[float], c: list[float], log_x) -> np.ndarray:
    """h(X) = sum_k c_k X^alpha_k of a departure_series (alpha, c) at X =
    exp(log_x), for an array log_x: every point and term in one einsum (not
    a BLAS product; see connect._chebyshev_operators)."""
    return np.einsum("...k,k->...", np.exp(np.multiply.outer(log_x, alpha[1:])), c[1:]) + c[0]


def departure_seed(sys: PhaseSystem) -> tuple[float, float]:
    """(X, Y) on P0's departure manifold, at the largest X <= SERIES_X_MAX
    where each term with alpha > alpha_top - 2 is within SERIES_TOL (a band
    of two terms at least: one alone can vanish by chance) and so is the
    error that the invariance residual R = gamma X h h' + h (h + s X^a) -
    X^b + X^e puts on Y: R over L(alpha_next), the factor that turns a next
    term into its residual, taken at P0 and at the seed, whichever is
    smaller (gamma Y alpha + gamma X h' + 2 Y + s X^a there).  Where R
    exceeds that, X shrinks as if R went as X^alpha_next, aiming at 0.9 of
    the bound, until it holds."""
    g, (s, a, b, e) = sys.gamma, sys.form
    alpha, c = _departure_series(sys)
    nxt = _series_exponents(a, b, e)[0][len(c)]
    if len(c) < SERIES_MIN_TERMS:
        raise SeedFailureError(f"P0's departure-manifold series overflows at exponent {nxt!r}")
    at_p0 = g * c[0] * nxt + _lead(sys, c[0])
    X = min([SERIES_X_MAX] + [(SERIES_TOL / abs(ck)) ** (1.0 / x) for x, ck
                              in zip(alpha, c) if x > alpha[-1] - 2.0 and ck])
    while True:
        terms = [ck * X ** x for x, ck in zip(alpha[1:], c[1:])]
        Y = c[0] + sum(terms)
        XdY = sum(map(mul, alpha[1:], terms))
        sXa = s * X ** a
        res = math.fsum((g * XdY * Y, Y * Y, sXa * Y, -X ** b, X ** e))
        bound = SERIES_TOL * max(0.0, min(at_p0, g * (Y * nxt + XdY) + 2.0 * Y + sXa))
        if not abs(res) > bound:
            break
        X *= (0.9 * bound / abs(res)) ** (1.0 / nxt)
    if not (X > 0.0 and math.isfinite(Y) and abs(res) <= bound):
        raise SeedFailureError(f"P0's departure-manifold series gives no seed: {(X, Y)!r}")
    return X, Y


P2_DEGREE = 5       # degree of P2's conjugacy
P2_TOL = 1e-10      # bound on its next-degree remainder within its reach, and on
                    # the slow manifold's omitted terms and a shot's distance to it
_NEWTON_PASSES = 8  # cap on the Newton passes of an inversion or a crossing
_NEWTON_STEP = 1e-8  # a relative Newton step this small leaves an error below rounding
_CROSSING_STEP = 1e-6  # the same for a crossing's time, where X is stationary


@lru_cache(maxsize=32)
def _order_solver(degree: int, focus: bool, powers: tuple[str, ...]):
    """solve(g, s, a, b, e, l1, l2, v00, v01, v10, v11) -> (terms, R):
    arrival_map's order-by-order solve through order degree + 1, each order
    straight-line code on local names, compiled once per (degree, focus,
    powers) and handed the lower orders as one tuple (one compile for all
    orders peaked at over three times the memory).  ``terms`` are ArrivalMap's to
    ``degree`` and R the larger of the sums of |k_ij| over order degree + 1
    in X and in Y; at an exact resonance they are the linear flow's and inf.
    x_k and y_k name the coefficients of X - 1 and Y at flat index k = n (n +
    1) / 2 + j (theta1^(n-j) theta2^j).  ``powers`` names the exponents
    among a, b, e whose (1 + x)^r gets a series p of its own: e always, a
    and b unless they are 0 or 1, where the nonlinear part of y (1 + x)^a is
    a x y and that of (1 + x)^b vanishes."""
    def at(n, j):
        return n * (n + 1) // 2 + j

    def conv(u, v, n, j, n1=None):
        pairs = [(at(m, i), at(n - m, j - i)) for m in ([n1] if n1 else range(1, n))
                 for i in range(max(0, j - n + m), min(j, m) + 1)]
        if u != v:
            return " + ".join(f"{u}{p} * {v}{q}" for p, q in pairs)
        # a square: each product of two distinct coefficients once, doubled
        twice = " + ".join(f"{u}{p} * {v}{q}" for p, q in pairs if p < q)
        once = " + ".join(f"{u}{p} * {v}{q}" for p, q in pairs if p == q)
        return " + ".join(filter(None, [twice and f"2.0 * ({twice})", once]))

    def terms(top):
        return "(" + "".join(
            f"({n - j}, {j}, {w} * x{at(n, j)}, {w} * y{at(n, j)}, "
            f"{w} * y{at(n, j)} * ({n - j} * l1 + {j} * l2)), "
            for n in range(1, top + 1) for j in range(n // 2 + 1 if focus else n + 1)
            for w in [2.0 if focus and 2 * j < n else 1.0]) + ")"

    def compiled(args, body):
        scope = {"inf": math.inf}
        exec(f"def f({args}):\n" + "\n".join(body), scope)
        return scope["f"]

    names = ["x", "y"] + [f"p{r}" for r in powers]
    known = [f"{u}{k}" for u in names for k in (1, 2)]
    linear = compiled("l1, l2, x1, x2, y1, y2", [f"    return {terms(1)}, inf"])
    orders = []
    for n in range(2, degree + 2):
        body, new = [f"    {', '.join(known)}, = c"], []
        for j in range(n // 2 + 1 if focus else n + 1):
            i = at(n, j)
            body += [f"    mu = {n - j} * l1 + {j} * l2",
                     "    det = (mu - l1) * (mu - l2)",
                     "    if det == 0.0: return None",
                     f"    xy = {conv('x', 'y', n, j)}",
                     f"    yy = {conv('y', 'y', n, j)}"]
            # the nonlinear part of (1 + x)^r by n p_n = sum (r n1 - n2) x_n1 p_n2
            for r in powers:
                parts = [f"({r} * {m} - {n - m}) * ({conv('x', 'p' + r, n, j, m)})"
                         for m in range(1, n)]
                body.append(f"    n{r} = ({' + '.join(parts)}) / {n}")
            ya = conv("pa", "y", n, j) if "a" in powers else "a * xy"
            Ny = f"-yy - s * ({ya})" + " + nb" * ("b" in powers) + " - ne"
            body += [f"    Nx, Ny = g * xy, {Ny}",
                     f"    x{i} = ((mu + s) * Nx + g * Ny) / det",
                     f"    y{i} = ((b - e) * Nx + mu * Ny) / det"]
            body += [f"    p{r}{i} = n{r} + {r} * x{i}" for r in powers]
            new += [f"{u}{i}" for u in names]
            if focus and 2 * j != n:
                body += [f"    {u}{at(n, n - j)} = {u}{i}.conjugate()" for u in names]
                new += [f"{u}{at(n, n - j)}" for u in names]
        orders.append(compiled("g, s, a, b, e, l1, l2, c", body + [f"    return c + ({', '.join(new)},)"]))
        known += new
    top = range(at(degree + 1, 0), at(degree + 2, 0))
    finish = compiled("l1, l2, c", [
        f"    {', '.join(known)}, = c",
        f"    return {terms(degree)}, max({' + '.join(f'abs(x{k})' for k in top)}, "
        f"{' + '.join(f'abs(y{k})' for k in top)})"])

    def solve(g, s, a, b, e, l1, l2, x1, x2, y1, y2):
        exponent = {"a": a, "b": b, "e": e}
        c = (x1, x2, y1, y2, *(exponent[r] * v for r in powers for v in (x1, x2)))
        for order in orders:
            c = order(g, s, a, b, e, l1, l2, c)
            if c is None:
                return linear(l1, l2, x1, x2, y1, y2)
        return finish(l1, l2, c)

    return solve


@dataclass(frozen=True)
class ArrivalMap:
    """P2's local flow as a conjugacy K with its linear flow: phi_t(K(theta))
    = K(e^{Lambda t} theta), K(theta) = P2 + sum k_ij theta1^i theta2^j over
    1 <= i + j <= degree (Cabre, Fontich & de la Llave 2003), with P2's
    eigenvalues ``lam`` and eigenvectors ``V`` (k_10, k_01).  theta2 is
    conj(theta1) at a focus; at a node both are real, and so is the map.
    ``terms`` lists (i, j, w kx, w ky, w ky mu_ij) with (X, Y) = P2 + Re sum
    w k theta1^i theta2^j, mu_ij = i l1 + j l2: every term at a node (w =
    1), and at a focus those with j <= i, w = 2 for j < i (its conjugate
    partner) and 1 for j = i.  K truncated at degree 1 is the linear flow V e^{Lambda t}
    V^-1 delta.  Within ``reach`` of P2 the next degree's terms stay below
    P2_TOL."""

    lam: tuple[complex, complex]
    V: tuple[tuple[complex, complex], tuple[complex, complex]]
    degree: int
    terms: tuple[tuple[int, int, complex, complex, complex], ...]
    reach: float

    def _powers(self, t1: complex, t2: complex):
        p1, p2 = [1.0, t1], [1.0, t2]
        for _ in range(self.degree - 1):
            p1.append(p1[-1] * t1)
            p2.append(p2[-1] * t2)
        return p1, p2

    def _state(self, t1: complex, t2: complex) -> tuple[float, float, float]:
        """(X - 1, Y, dY/dt) at theta = (t1, t2) on the map's flow."""
        p1, p2 = self._powers(t1, t2)
        X = Y = dY = 0j
        for i, j, kx, ky, kyt in self.terms:
            m = p1[i] * p2[j]
            X += kx * m
            Y += ky * m
            dY += kyt * m
        return X.real, Y.real, dY.real

    def invert(self, dx: float, dy: float) -> tuple[complex, complex]:
        """theta with K(theta) = P2 + (dx, dy): Newton from V^-1 (dx, dy),
        along Re and Im theta1 at a focus (theta2 following)."""
        (v00, v01), (v10, v11) = self.V
        det = v00 * v11 - v01 * v10
        focus = bool(self.lam[0].imag)
        t1 = (v11 * dx - v01 * dy) / det
        t2 = t1.conjugate() if focus else (v00 * dy - v10 * dx) / det
        for _ in range(_NEWTON_PASSES if self.degree > 1 else 0):
            p1, p2 = self._powers(t1, t2)
            Kx = Ky = Ax = Ay = Bx = By = 0j
            for i, j, kx, ky, _ in self.terms:
                m = p1[i] * p2[j]
                Kx += kx * m
                Ky += ky * m
                if i:   # A and B: the derivatives along t1 and t2 alone
                    m = i * p1[i - 1] * p2[j]
                    Ax += kx * m
                    Ay += ky * m
                if j:
                    m = j * p1[i] * p2[j - 1]
                    Bx += kx * m
                    By += ky * m
            if focus:
                (a, b), (c, d) = ((Ax + Bx).real, (Bx - Ax).imag), ((Ay + By).real, (By - Ay).imag)
            else:
                (a, b), (c, d) = (Ax.real, Bx.real), (Ay.real, By.real)
            rx, ry, det = Kx.real - dx, Ky.real - dy, a * d - b * c
            u, v = (d * rx - b * ry) / det, (a * ry - c * rx) / det
            if focus:
                t1 -= complex(u, v)
                t2 = t1.conjugate()
            else:
                t1, t2 = t1 - u, t2 - v
            if abs(u) + abs(v) <= _NEWTON_STEP * (abs(t1) + abs(t2)):
                break
        return t1, t2

    def crossings(self, dx: float, dy: float):
        """(t, X) at each Y = 0 crossing, t > 0, of the orbit through P2 + (dx,
        dy) at t = 0, in time order: roots of Y(K(e^{Lambda t} theta0)), each
        by Newton from the linear flow's, theta0 = K^-1 of the start.  A focus
        crosses about every pi/beta without end; a node crosses at most once,
        where Y's sign at t = 0 differs from that of its slow mode."""
        th1, th2 = self.invert(dx, dy)
        (l1, l2), ((_, _), (y10, y01)) = self.lam, self.V
        exp, scale = cmath.exp if l1.imag else math.exp, abs(l1)

        def root(t):
            for _ in range(_NEWTON_PASSES):
                z1 = th1 * exp(l1 * t)
                X, Y, dY = self._state(z1, z1.conjugate() if l1.imag else th2 * exp(l2 * t))
                step = Y / dY
                t -= step
                if abs(step) * scale <= _CROSSING_STEP:
                    break
            return t, 1.0 + X, dY

        if l1.imag:
            # from the linear flow's first crossing at t >= 0, then every
            # pi/beta.  Y leaves the start with the sign of dy, so a first
            # root where Y takes that sign follows a skipped one: the linear
            # flow's crossing just before t = 0 that the map puts after it
            half_turn = math.pi / l1.imag
            t, X, dY = root((0.5 * math.pi - cmath.phase(y10 * th1)) % math.pi / l1.imag)
            if dY * dy > 0.0:
                t0, X0, _ = root(0.0)
                if t0 > 0.0:
                    yield t0, X0
            # the map's shift of each crossing off the linear flow's changes
            # by -e^{alpha pi/beta} a half-turn at leading order: extrapolated,
            # it leaves Newton a second-order start
            decay, drift = -math.exp(l1.real * half_turn), 0.0
            while True:
                if t > 0.0:
                    yield t, X
                t_old = t
                t, X, _ = root(t + half_turn + drift * decay)
                drift = t - t_old - half_turn
        A, B = (y10 * th1).real, (y01 * th2).real
        if A * dy < 0.0:
            # the slow mode's Y and the start's differ in sign: one crossing,
            # where A e^{l1 t} + B e^{l2 t} vanishes for the linear flow
            t, X, _ = root(max(0.0, math.log(-B / A) / (l1 - l2).real) if -B / A > 0.0 else 0.0)
            if t > 0.0:
                yield t, X


def arrival_map(sys: PhaseSystem, degree: int = P2_DEGREE) -> ArrivalMap | None:
    """P2's conjugacy K to ``degree`` (see ArrivalMap), or None when P2 is
    degenerate.  Order n solves (mu I - J) k_ij = N_ij, mu = i l1 + j l2,
    with N_ij the order-n part of the field's nonlinear terms on the lower
    orders; (1 + x)^r comes from the Euler-operator recurrence (1 + x) E p =
    r p E x (E multiplies a term of order n by n), and at a focus only j <=
    n / 2 is solved, the rest conjugate.  The reach is the state radius
    rho / |V^-1| (its largest row norm) where the degree + 1 terms sum to
    P2_TOL at |theta| = rho.  It is 0 where they are not finite, and where
    mu hits an eigenvalue exactly (a resonant node), which also ends K."""
    return _arrival_map(sys, degree)


@lru_cache(maxsize=64)
def _arrival_map(sys: PhaseSystem, degree: int) -> ArrivalMap | None:
    g, (s, a, b, e) = sys.gamma, sys.form
    _, lam, V = linearization(sys, 1.0, 0.0)
    if _classify_p2(s, lam)[1]:
        return None
    (l1, l2), V = lam, V.tolist()
    focus = bool(l1.imag)
    if not focus:   # a node's map is real
        (l1, l2), V = (l1.real, l2.real), [[v.real for v in row] for row in V]
    (v00, v01), (v10, v11) = V
    powers = tuple(r for r, v in zip("ab", (a, b)) if v not in (0.0, 1.0)) + ("e",)
    terms, R = _order_solver(degree, focus, powers)(g, s, a, b, e, l1, l2, v00, v01, v10, v11)
    # the next degree's terms bound K's remainder
    norm = max(math.hypot(abs(v11), abs(v01)), math.hypot(abs(v10), abs(v00))) / abs(
        v00 * v11 - v01 * v10)
    reach = (P2_TOL / R) ** (1.0 / (degree + 1)) / norm if 0.0 < R < math.inf else 0.0
    return ArrivalMap((l1, l2), tuple(map(tuple, V)), sum(terms[-1][:2]), terms, reach)


SLOW_TERMS_MARGIN = 8    # P2's slow-manifold series runs this far past l2 / l1
SLOW_RADIUS_SHARE = 0.8  # share of the series' radius that its reach may take


@lru_cache(maxsize=64)
def _slow_rows(a: float, b: float, e: float):
    """_graph_series' rows for P2's slow manifold, k = 2 .. SERIES_TERMS: the
    terms (i, [x^(k-i)] (1 + x)^a), 0 < i < k, of (1 + x)^a h that do not
    vanish, and [x^k] ((1 + x)^b - (1 + x)^e).  Each (1 + x)^r comes from
    the power recurrence n p_n = (r - n + 1) p_(n-1), exact for r = 0 and
    1."""
    def power(r):
        p = [1.0]
        for n in range(1, SERIES_TERMS + 1):
            p.append(p[-1] * (r - n + 1) / n)
        return p

    pa, pb, pe = power(a), power(b), power(e)
    return [(float(k), None, None, [(i, pa[k - i]) for i in range(1, k) if pa[k - i]],
             pb[k] - pe[k]) for k in range(2, SERIES_TERMS + 1)]


@dataclass(frozen=True)
class SlowManifold:
    """P2's slow manifold at a real, non-resonant node: the graph Y = g(X) =
    sum_n c_n x^n, x = X - 1, n = 1 .. len(coef) - 1, c_0 = 0 and c_1 = l1 /
    gamma on the slow eigenvector (l1 the eigenvalue nearer 0).  ``radius``
    is the root test's min |c_n|^(-1/n) over the top half of the terms, at
    most 1, the radius of (1 + x)^r.
    Within ``reach`` of X = 1 (at most SLOW_RADIUS_SHARE of the radius) the
    omitted terms stay below P2_TOL, |g(X)| >= |c_1 x| / 2, so g has no zero
    but at P2, and a graph Y = g + d has d' = d (r(X) - d) with r = -2 g - s
    X^a - gamma X g' <= l2 / 2 < 0: an orbit that lies within a bound of g
    there stays within it, and reaches P2 with X monotone."""

    coef: tuple[float, ...]
    radius: float
    reach: float

    def __call__(self, X: float) -> float:
        x, y = X - 1.0, 0.0
        for c in reversed(self.coef):
            y = y * x + c
        return y


def slow_manifold(sys: PhaseSystem) -> SlowManifold | None:
    """P2's slow manifold (see SlowManifold), or None where P2 is a focus or
    degenerate, where l2 / l1 + SLOW_TERMS_MARGIN passes SERIES_TERMS
    terms (the radius would miss the small divisor k l1 - l2 near k = l2 /
    l1), at an exact resonance k l1 = l2 in floats (as arrival_map's test
    reads it), and where the checks leave no reach.  Order k solves the invariance
    equation with _graph_series over k l1 - l2 (Cabre, Fontich & de la Llave
    2003).  Its reach starts at the smaller of SLOW_RADIUS_SHARE of the
    radius and the x where the top two terms are within (1 -
    SLOW_RADIUS_SHARE) P2_TOL (so a geometric tail at that share stays
    within P2_TOL), and shrinks by that share until the sums of |terms|
    bound |g(x)/x - c_1| by |c_1| / 2 and r(X) - l2 by |l2| / 2 over |x| <=
    reach, where (1 + x)^a is monotone in x."""
    g, (s, a, b, e) = sys.gamma, sys.form
    K = arrival_map(sys)
    if K is None or isinstance(K.lam[0], complex):
        return None
    l1, l2 = K.lam
    rows = _slow_rows(a, b, e)
    n = math.ceil(l2 / l1) + SLOW_TERMS_MARGIN
    if n > len(rows) + 1 or round(l2 / l1) * l1 == l2:
        return None
    c1 = l1 / g
    c = _graph_series(g, s, [0.0, c1], s, rows[:n - 1], c1)
    if not all(map(math.isfinite, c)):
        return None
    ac = list(map(abs, c))
    radius = min([1.0] + [ck ** (-1.0 / k) for k, ck in enumerate(ac) if 2 * k > n and ck])
    band = (1.0 - SLOW_RADIUS_SHARE) * P2_TOL
    w = min([SLOW_RADIUS_SHARE * radius] + [(band / ck) ** (1.0 / k)
                                          for k, ck in enumerate(ac) if k >= n - 1 and ck])
    kc = list(map(mul, ac, range(n + 1)))   # k |c_k|
    while w >= P2_TOL:
        wk = list(accumulate(repeat(w, n), mul))   # w^1 .. w^n
        # |g/x - c_1|, and |r - l2| <= 2 |g| + |s| |(1 + x)^a - 1| + gamma
        # (|g' - c_1| + |x g'|), bounded term by term
        if (sum(map(mul, ac[2:], wk)) <= 0.5 * ac[1] and
                2.0 * sum(map(mul, ac[1:], wk)) + g * (
                    sum(map(mul, kc[2:], wk)) + sum(map(mul, kc[1:], wk)))
                + abs(s) * max(abs((1.0 + w) ** a - 1.0), abs((1.0 - w) ** a - 1.0))
                <= -0.5 * l2):
            return SlowManifold(tuple(c), radius, w)
        w *= SLOW_RADIUS_SHARE
    return None


def fixed_points(sys: PhaseSystem) -> list[FixedPointInfo]:
    """Equilibria of the system with linearization and kind.

    Case I: P0 = (0,0) saddle-node (eigenvalues {0, -c}), P1 = (0,-c) saddle,
    P2 = (1,0) stable node iff c^2 >= 4*gamma*(k-1), i.e. iff c >= 2*sqrt(p-q).
    At c = 0, P0 and P1 merge into one fully degenerate point.

    Case II: the two Y-axis equilibria take the P0/P1 roles (the positive-Y
    one repels into X > 0, the negative-Y one is its mirror); both are
    hyperbolic saddles.  P2 = (1,0) is classified exactly as in Case I, with
    discriminant c1^2 - 4*gamma*k2 (same sign as c^2 - 4(p-q)).
    """
    pts: list[FixedPointInfo] = []
    for name, (x, y) in fixed_point_locations(sys).items():
        J, lam, _ = linearization(sys, x, y)
        if name == "P2":
            kind, degenerate = _classify_p2(sys.form[0], lam)
        elif name == "P1" or isinstance(sys, PhaseSystemII):
            kind, degenerate = FixedPointKind.SADDLE, False
        elif sys.c == 0.0:
            kind, degenerate = FixedPointKind.DEGENERATE, True
        else:
            kind, degenerate = FixedPointKind.SADDLE_NODE, False
        pts.append(FixedPointInfo(
            name=name, location=(x, y),
            jacobian=((J[0, 0], J[0, 1]), (J[1, 0], J[1, 1])),
            eigenvalues=lam, kind=kind, degenerate=degenerate))
    return pts


def dulac_divergence(sys: PhaseSystemI, X):
    """Divergence of the field weighted by B = X^(2/gamma - 1).

    The closed form is -c * X^(2/gamma - 1): independent of Y and strictly
    negative on X > 0 for c > 0, which rules out closed orbits in the open
    half-plane.  Accepts a scalar or an array of X.
    """
    if not isinstance(sys, PhaseSystemI):
        raise InvalidParameterError("dulac_divergence applies to Case I systems")
    Xa = np.asarray(X, dtype=float)
    if np.any(Xa <= 0.0):
        raise DomainError("dulac_divergence requires X > 0")
    out = -sys.c * Xa ** (2.0 / sys.gamma - 1.0)
    return out if out.ndim else float(out)


def region_G_residual(sys: PhaseSystemI, X):
    """Outward normal flux R(X) = n . V on the line Y = a(1 - X), a = c/(2 gamma).

    R(X) = -X^2 a^2 (m+q-1) + X (a^2 (m+q) + c a + 1) - a^2 - c a - X^k,
    with m + q = gamma + 2.  R(1) = 0 identically and R(X) <= 0 on [0,1]
    whenever c >= 2 sqrt(p-q), which confines the connecting orbit to the
    triangle G.
    """
    if not isinstance(sys, PhaseSystemI):
        raise InvalidParameterError("region_G_residual applies to Case I systems")
    mq = sys.gamma + 2.0
    Xa = np.asarray(X, dtype=float)
    if np.any(Xa < 0.0):
        raise DomainError("region_G_residual requires X >= 0")
    a = sys.c / (2.0 * sys.gamma)
    out = (
        -(Xa * Xa) * a * a * (mq - 1.0)
        + Xa * (a * a * mq + sys.c * a + 1.0)
        - a * a
        - sys.c * a
        - xpow(Xa, sys.k)
    )
    return out if np.ndim(out) else float(out)


def zero_speed_curve(sys: PhaseSystemI, X):
    """Y^2 along the explicit c = 0 trajectory: 2X/(2+gamma) - 2X^k/(2+gamma k).

    May be negative, meaning the curve does not pass through that X.
    """
    Xa = np.asarray(X, dtype=float)
    if np.any(Xa < 0.0):
        raise DomainError("zero_speed_curve requires X >= 0")
    out = 2.0 * Xa / (2.0 + sys.gamma) - 2.0 * xpow(Xa, sys.k) / (2.0 + sys.gamma * sys.k)
    return out if np.ndim(out) else float(out)


def zero_speed_X0(sys: PhaseSystemI) -> float:
    """X where the c = 0 trajectory recrosses the X axis:
    ((2 + gamma k)/(2 + gamma))^(1/(k-1)) > 1."""
    return ((2.0 + sys.gamma * sys.k) / (2.0 + sys.gamma)) ** (1.0 / (sys.k - 1.0))
