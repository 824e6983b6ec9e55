"""1D two-population (normal/autophagic) tumor growth: porous-medium
transport, nutrient coupling, closed-form references, and scenario tooling.

The package namespace is the union of the modules' `__all__` lists; each
module's `__all__` is the one declaration of what it makes public."""

from .analytic import *
from .diagnostics import *
from .grid import *
from .kinetics import *
from .scenarios import *
from .solver import *
