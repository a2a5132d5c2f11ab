"""Near-cloaking acoustic scattering toolkit.

Simulates time-harmonic scattering by regularized invisibility cloaks:
sound-soft, sound-hard, and their finite lossy-layer realizations, via
exact modal series (2D/3D) cross-validated by a 2D boundary-integral
solver, plus the transformation-acoustics algebra that produces the
cloak's material tensors.
"""

from . import analysis, bie, media, mie, specfun
from .analysis import FitResult, SweepResult, fit_decay, sweep
from .bie import BoundaryCurve, DensitySolution, circle, kite
from .media import RadialMapSpec
from .mie import FarFieldPattern, ModalSolution, SchemeSpec, WaveParams

__version__ = "0.1.0"

__all__ = [
    "analysis", "bie", "media", "mie", "specfun",
    "FitResult", "SweepResult", "fit_decay", "sweep",
    "BoundaryCurve", "DensitySolution", "circle", "kite",
    "RadialMapSpec",
    "FarFieldPattern", "ModalSolution", "SchemeSpec", "WaveParams",
    "__version__",
]
