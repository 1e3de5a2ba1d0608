"""scipy's compiled routines, loaded without the subpackages that hold them.

kppwaves calls three of scipy's extension modules: ODEPACK's ``lsoda``
(``scipy.integrate._odepack``) for the shots, ``_brentq``
(``scipy.optimize._zeros``) for event roots, and LAPACK's ``dpttrf`` and
``dpttrs`` (``scipy.linalg._flapack``) for the PDE step.  Importing them
through ``scipy.integrate``, ``scipy.optimize`` and ``scipy.linalg`` would
run those packages' ``__init__``, which pull in ``scipy.special``,
``scipy.sparse`` and numpy's f2py machinery: about half a run's resident
memory and two thirds of its set-up, for code no run calls.  So each module
is loaded from its file in the installed scipy's directory and registered
under its own name, where a later import of its subpackage finds it.  This
is the package's only route to scipy's compiled code.
"""

from __future__ import annotations

import ast
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import scipy

SCIPY_DIR = Path(scipy.__file__).parent
# the source of scipy's own lsoda wrapper, whose call the shots repeat
ODE_SOURCE = SCIPY_DIR / "integrate" / "_ode.py"
LSODA_STATE = (240, 48)     # state doubles and ints the C lsoda keeps between calls


def _load(package: str, name: str):
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = SCIPY_DIR / package / (name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(f"scipy {scipy.__version__} at {SCIPY_DIR} has no compiled "
                          f"module {full}", name=full)
    spec = importlib.util.spec_from_file_location(full, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


flapack = _load("linalg", "_flapack")
odepack = _load("integrate", "_odepack")
_zeros = _load("optimize", "_zeros")


def brentq(f, a: float, b: float, *, xtol: float = 2e-12,
           rtol: float = 4.0 * sys.float_info.epsilon) -> float:
    """``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)``: the same
    compiled solver, and a NaN value of f raises scipy's ValueError."""
    def checked(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    return _zeros._brentq(checked, a, b, xtol, rtol, 100, (), False, True)


def check_lsoda_layout() -> None:
    """Refuse a scipy whose lsoda wrapper no longer calls ODEPACK as the shots
    do.  The C ``lsoda`` keeps its state in two arrays its caller allocates;
    one too short can crash the process, not raise.  So the wrapper's source,
    ``ODE_SOURCE``, read as text, must still allocate ``LSODA_STATE`` and pass
    both arrays to the runner in its 17-argument call."""
    doubles, ints = LSODA_STATE
    want = [f"self.state_doubles = zeros({doubles}, dtype=np.float64)",
            f"self.state_ints = zeros({ints}, dtype=np.int32)",
            "self.runner(f, y0, t0, t1, rtol, atol, itask, istate, rwork, iwork, jac, jt, "
            "f_params, 1, jac_params, self.state_doubles, self.state_ints)"]
    text = ODE_SOURCE.read_text()
    start = text.find("\nclass lsoda(")
    end = text.find("\nclass ", start + 1)
    found = set() if start < 0 else {
        ast.unparse(node) for node in ast.walk(ast.parse(text[start:end if end > 0 else None]))
        if isinstance(node, (ast.Assign, ast.Call))}
    missing = [line for line in want if line not in found]
    if missing:
        raise RuntimeError(
            "scipy's LSODA internals changed: the shot calls ODEPACK's lsoda as "
            "scipy.integrate._ode.lsoda.run does in scipy 1.17 "
            f"({doubles} state doubles, {ints} state ints, 17 arguments), but class "
            f"lsoda in scipy {scipy.__version__}'s {ODE_SOURCE} lacks: {'; '.join(missing)}")
