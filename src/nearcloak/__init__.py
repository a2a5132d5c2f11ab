"""Near-cloaking acoustic scattering toolkit.

Simulates time-harmonic scattering by regularized invisibility cloaks:
sound-soft, sound-hard, and their finite lossy-layer realizations, via
exact modal series (2D/3D) cross-validated by a 2D boundary-integral
solver, plus the transformation-acoustics algebra that produces the
cloak's material tensors.
"""

from . import analysis, bie, media, mie, specfun

__version__ = "0.1.0"
