"""Two-level system in a broadband squeezed vacuum.

Tools for the frozen-evolution effect under continuous monitoring: closed-form
and numerical master-equation propagation, the survival-exponent landscape
over measurement directions, discrete projection protocols, and the
jump-operator eigenstates that saturate the quadrature uncertainty bound.
Each module's `__all__` is the one list of its public names; the package
re-exports them all.
"""

from . import algebra, bath, directions, dynamics, intelligent, measurement
from .algebra import *  # noqa: F403
from .bath import *  # noqa: F403
from .directions import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .intelligent import *  # noqa: F403
from .measurement import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (algebra, bath, directions, dynamics, intelligent, measurement)
    for name in module.__all__
)
