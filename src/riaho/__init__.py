"""Rotationally invariant anisotropic harmonic oscillator toolkit.

Exact symbolic phase-space algebra, classical trajectories, truncated Fock
matrices, the conformal-bridge wavefunction map, anisotropic-oscillator
spectra, and the coupling-parameter dictionary to Landau-type systems.
"""
from . import phasealg  # first: coupling imports phasealg.exact, phasealg.catalog imports coupling
from .coupling import Coupling, Phase

__all__ = ["Coupling", "Phase"]
__version__ = "0.1.0"
