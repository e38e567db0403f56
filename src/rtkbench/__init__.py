"""Diffusion sampling via reverse transition kernels, with a DDPM baseline.

The package splits denoising into per-segment log-concave sampling problems
(MALA, score-only MALA, ULA, ULD) and benchmarks them against
one-step Gaussian reversal on Gaussian-mixture targets.  Each module's
__all__ is its public surface; the package re-exports their union.
"""

from . import bench, metrics, samplers, schedule, targets
from .bench import *
from .metrics import *
from .samplers import *
from .schedule import *
from .targets import *

__version__ = "0.1.0"

__all__ = [*bench.__all__, *metrics.__all__, *samplers.__all__, *schedule.__all__,
           *targets.__all__]
