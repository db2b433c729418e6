"""Bound states and resonances of a single photon in a two-level atomic cloud."""

__version__ = "0.1.0"

from .dynamics import FieldState  # noqa: F401
from .eigensolver import ResonanceTrace, SpectrumResult  # noqa: F401
from .greens import Branch, ExpansionCoeffs, WaveNumber  # noqa: F401
from .nystrom import PhysicalParams, QuadratureRule  # noqa: F401
