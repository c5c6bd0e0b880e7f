"""Dilatively stable processes: simulation, transforms, and scaling checks.

The package builds additive processes whose finite dimensional
log-characteristic functions scale jointly in time and argument, realises
them as random integrals of exponential weights against time-changed Levy
drivers, maps them through the Lamperti-type transform family, and verifies
every scaling law statistically through empirical characteristic functions
with closed-form oracles where those exist.
"""

# Each module's __all__ (for errors, every public name) is its one export list.
from .drivers import *  # noqa: F403
from .ecf import *  # noqa: F403
from .errors import *  # noqa: F403
from .integrator import *  # noqa: F403
from .processes import *  # noqa: F403
from .timechange import *  # noqa: F403
from .validation import *  # noqa: F403

__version__ = "0.1.0"
