"""Travelling-wave analysis for u_t = (u^{m-1} u_x)_x + u^p - u^q.

The package nondimensionalizes the five-parameter reaction-diffusion
equation, builds the phase-plane systems whose heteroclinic orbits are the
travelling waves, computes and classifies those orbits by shooting,
reconstructs wave profiles, and cross-validates everything against direct
PDE runs.
"""

from .errors import *
from .model import *
from .phaseplane import *
from .connect import *
from .pde import *
from .config import *

__version__ = "0.1.0"
