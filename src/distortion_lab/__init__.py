"""Randomized voting rules and worst-case distortion oracles.

The package has two halves. ``rules`` holds the voting rules themselves:
classics (plurality, Copeland, random dictatorship), veto-based winners,
harmonic-weight lotteries and their anchored truncations, the top-t
variants that only see ranking prefixes, and a convex-combination
combinator. ``oracles`` answers "how bad can this lottery be on this
profile": linear programs search over every consistent metric, a
per-agent choice of polytope vertices (Dinkelbach's iteration) over every
consistent utility profile, with an exact enumeration twin for
cross-checking and a worst-case search over whole profiles.

``instances`` generates the structured profiles used by the worst-case
demonstrations and handles the JSON file formats; ``lp`` is the dense
two-phase simplex solver underneath the metric oracle.
"""

from . import core, instances, lp, oracles, rules
from .core import *
from .instances import *
from .lp import *
from .oracles import *
from .rules import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *instances.__all__,
    *lp.__all__,
    *oracles.__all__,
    *rules.__all__,
    "__version__",
]
