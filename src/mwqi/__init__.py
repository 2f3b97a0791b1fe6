"""Microwave quantum illumination with electro-opto-mechanical converters.

A numerical library for the full pipeline: a converter that entangles a
propagating microwave signal with an optical idler, Gaussian-state
characterization of the source (entanglement metric, logarithmic negativity,
coherent information, Gaussian discord), the noisy target-return channel, a
phase-conjugating microwave-to-optical receiver with difference photocounting,
and the error-probability comparison against the optimal classical
(coherent-state homodyne) benchmark.
"""

__version__ = "0.1.0"

from . import converter, correlations, detection, states, sweep
from .states import *  # noqa: F401,F403
from .converter import *  # noqa: F401,F403
from .correlations import *  # noqa: F401,F403
from .detection import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403

# the submodules' public names, and nothing else: not the submodules themselves
__all__ = [*states.__all__, *converter.__all__, *correlations.__all__,
           *detection.__all__, *sweep.__all__]
