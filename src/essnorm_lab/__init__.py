"""Desk-scale laboratory for essential norms of multiplication operators
on weighted L_p spaces over discretized diffuse-plus-atomic measure spaces."""

from . import essnorm, lattice, lpspace, measure, operators
from .essnorm import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .lpspace import *  # noqa: F401,F403
from .measure import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*essnorm.__all__, *lattice.__all__, *lpspace.__all__, *measure.__all__, *operators.__all__]
