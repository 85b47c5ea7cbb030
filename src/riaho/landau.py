"""Parameter maps onto the magnetic and rotating-frame realizations.

The coupled-rotation oscillator H_g = H_osc + g*omega*p_phi, restricted to
|g| finite, is the same system as

* a charged particle in a uniform magnetic field plus an extra quadratic
  potential m*Lambda*x^2/2 per axis (omegaB = -qB_z/2mc, see below):
  subcritical confinement omegaB^2 + Lambda > 0 maps to (omega, g) via
  omega = sqrt(omegaB^2 + Lambda), g = omegaB/omega;
* a plane oscillator of spring constant k >= 0 in a frame rotating at
  signed angular frequency Omega, via omegaB -> Omega, Lambda -> k/m -
  Omega^2.

Orientation: with p_phi = x1 p2 - x2 p1, the g returned gives H_g exactly
for (p - qA/c)^2/2m + m*Lambda*r^2/2 in the gauge qA/c = m*omegaB*(x2, -x1)
(field along -z for q*omegaB > 0) and for H_osc + Omega*p_phi (frame turning
clockwise for Omega > 0); the textbook gauge m*omegaB*(-x2, x1) and
H_osc - Omega*p_phi give H_{-g}.  Both Hamiltonians are quadratic, so the
exact check in the circular basis holds at any rational (m, omega), as at
(k, m, Omega) = (9, 4, 2), where m*omega = 6.

The boundary Lambda = -omegaB^2 is the critical (free-in-rotating-frame)
case and Lambda < -omegaB^2 is supercritical; both are classification-only
branches with continuous spectra.  Since omegaB^2 + Lambda = omega^2 on the
image of the forward map, round trips are exact for rational (g, omega) and
good to float tolerance otherwise.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .coupling import Coupling, Phase
from .reports import VerificationReport, check
from .phasealg.exact import coerce_real, rational_sqrt, to_float

__all__ = [
    "CRITICAL",
    "SUPERCRITICAL",
    "LandauExtension",
    "RotatingFrame",
    "PhaseResult",
    "landau_to_g",
    "g_to_landau",
    "rotating_frame_to_g",
    "classify",
    "suite_landau",
]

CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


def _sqrt(value: Fraction, exact: bool):
    """Square root of an exact value > 0: a Fraction when ``exact`` and the value is a
    rational square, else a float.

    A value in the normal float range gives sqrt(float(value)), as it always has; past
    that range, either way, float(value) does not exist and the root is the correctly
    rounded float of an integer square root.  A root outside the float range raises
    ValueError.
    """
    if exact and (root := rational_sqrt(value)) is not None:
        return root
    if sys.float_info.min <= value <= sys.float_info.max:
        return math.sqrt(float(value))
    n, d = value.numerator, value.denominator
    k = max(0, 60 - (n.bit_length() - d.bit_length()) // 2)  # 2^k root has >= 59 bits
    q, rem = divmod(n << 2 * k, d)
    r = math.isqrt(q)
    try:  # (r + 1/2) / 2^k rounds as the root in (r, r + 1) / 2^k does
        root = (2 * r + (r * r != q or rem != 0)) / 2 ** (k + 1)
    except OverflowError:
        root = math.inf
    if not 0.0 < root < math.inf:
        raise ValueError("omega lies outside the float range")
    return root


@dataclass(frozen=True)
class LandauExtension:
    """Signed cyclotron half-frequency omegaB and quadratic strength Lambda."""

    omegaB: Fraction | float
    Lambda: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "omegaB", coerce_real(self.omegaB, "omegaB"))
        object.__setattr__(self, "Lambda", coerce_real(self.Lambda, "Lambda"))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.omegaB, Fraction) and isinstance(self.Lambda, Fraction)


@dataclass(frozen=True)
class RotatingFrame:
    """Plane oscillator (spring k >= 0, mass m > 0) seen from a rotating frame."""

    k: Fraction | float
    m: Fraction | float
    Omega: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "k", coerce_real(self.k, "k"))
        object.__setattr__(self, "m", coerce_real(self.m, "m"))
        object.__setattr__(self, "Omega", coerce_real(self.Omega, "Omega"))
        if self.k < 0:
            raise ValueError("spring constant k must be non-negative")
        if self.m <= 0:
            raise ValueError("mass m must be positive")


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of a parameter map.

    ``phase`` is one of the Coupling phase labels ("euclidean", "landau",
    "minkowskian") for confined systems, or "critical"/"supercritical".
    ``omega`` is the trap frequency on the confined branch and the
    magnitude |omega| = sqrt(-(omegaB^2+Lambda)) on the supercritical one;
    ``g`` is set only when confined.  Exact inputs give exact fields
    whenever the involved square roots are rational.
    """

    phase: str
    omega: Fraction | float | None = None
    g: Fraction | float | None = None

    @property
    def coupling(self) -> Coupling:
        """``g`` as a Coupling; ValueError when it is None or an inexact float.

        A float ``g`` from float inputs converts only when its binary value
        is the decimal it prints as (0.5), as in ``Coupling(0.5)``: for
        ``landau_to_g(g_to_landau(Coupling("3/10"), 1.7))`` it is a float
        near 0.3 and this raises ValueError.  Use exact inputs for an exact g.
        """
        if self.g is None:
            raise ValueError(f"{self.phase} branch carries no finite coupling")
        return Coupling.coerce(self.g)


def landau_to_g(ext: LandauExtension) -> PhaseResult:
    """Classify a Landau extension and extract (omega, g) when confined.

    Total on all inputs: omegaB^2 + Lambda > 0 is the confined branch with
    omega = sqrt(omegaB^2 + Lambda) and g = omegaB/omega (so the defining
    relation |Lambda| = |1 - g^2| omega^2 holds and sign g = sign omegaB);
    equality is critical; below it supercritical with |omega| reported.
    omegaB^2 + Lambda is formed exactly, on the binary values of float
    inputs, so it never overflows; a float omega or g outside the float
    range raises ValueError.
    """
    return _to_g(ext.omegaB, Fraction(ext.Lambda), ext.is_exact)


def _to_g(omegaB, Lambda: Fraction, exact: bool) -> PhaseResult:
    """:func:`landau_to_g` with Lambda exact; ``exact`` tells whether the inputs were."""
    s = Fraction(omegaB) ** 2 + Lambda
    if s < 0:
        return PhaseResult(phase=SUPERCRITICAL, omega=_sqrt(-s, exact))
    if s == 0:
        return PhaseResult(phase=CRITICAL)
    omega = _sqrt(s, exact)
    if isinstance(omega, Fraction):
        g = omegaB / omega
    else:
        g = to_float(omegaB, "omegaB") / omega
        if not math.isfinite(g) or (g == 0) != (omegaB == 0):
            raise ValueError(f"g = omegaB/omega lies outside the float range (omega = {omega})")
    if Lambda > 0:
        phase = Phase.EUCLIDEAN
    elif Lambda == 0:
        phase = Phase.LANDAU
    else:
        phase = Phase.MINKOWSKIAN
    return PhaseResult(phase=phase, omega=omega, g=g)


def g_to_landau(coupling, omega) -> LandauExtension:
    """Landau-extension parameters of the coupling: omegaB = g w, Lambda = (1-g^2) w^2.

    Rejects the isotropic-Minkowskian limit flag (|g| infinite needs the
    rescaled limit, not this map).  Exact for rational inputs; round-trips
    through :func:`landau_to_g` exactly there because omegaB^2 + Lambda is
    then the perfect square omega^2.
    """
    coupling = Coupling.coerce(coupling)
    if coupling.isotropic_mink:
        raise ValueError("isotropic-Minkowskian limit has no finite coupling")
    w = coerce_real(omega, "omega")
    if w <= 0:
        raise ValueError("omega must be positive")
    g = coupling.g
    if isinstance(w, Fraction):
        return LandauExtension(g * w, (1 - g * g) * w * w)
    gf = coupling.as_float()
    return LandauExtension(gf * w, (1.0 - gf * gf) * w * w)


def rotating_frame_to_g(frame: RotatingFrame) -> PhaseResult:
    """Map a rotating-frame oscillator to the coupling parameters.

    Identifies omegaB with Omega and the effective quadratic strength with
    k/m - Omega^2, so g = Omega/sqrt(k/m) with the sign of Omega; k = 0
    with Omega != 0 lands exactly on the critical case (free particle in a
    rotating frame), and supercritical never occurs since k >= 0.  k/m -
    Omega^2 is formed exactly, as in :func:`landau_to_g`.
    """
    exact = all(isinstance(v, Fraction) for v in (frame.k, frame.m, frame.Omega))
    return _to_g(frame.Omega, Fraction(frame.k) / Fraction(frame.m) - Fraction(frame.Omega) ** 2,
                 exact)


def classify(Lambda, omegaB) -> str:
    """Phase label of the (Lambda, omegaB) plane; boundaries get their own names.

    One of "euclidean", "landau", "minkowskian", "critical",
    "supercritical".  The isotropic point omegaB = 0, Lambda > 0 counts as
    euclidean (it is the g = 0 interior point of that phase).
    """
    return landau_to_g(LandauExtension(omegaB, Lambda)).phase


def suite_landau(config) -> VerificationReport:
    """Parameter-map round trips, phase boundaries, rotating-frame table.

    Exact throughout, so no setting of the run ``config`` applies.
    """
    report = VerificationReport(suite="landau")
    for gtext, wtext in (("1/2", "1"), ("3", "2"), ("-2/3", "5/7"), ("1", "3"), ("0", "2")):
        g, w = Fraction(gtext), Fraction(wtext)
        result = landau_to_g(g_to_landau(Coupling(g), w))
        passed = result.g == g and result.omega == w
        report.add(check(f"roundtrip:g={gtext},omega={wtext}", passed,
                         "" if passed else f"got g = {result.g}, omega = {result.omega}"))

    boundary = (
        ("boundary-landau:+", LandauExtension(Fraction(3), Fraction(0)), Phase.LANDAU, Fraction(1)),
        ("boundary-landau:-", LandauExtension(Fraction(-2), Fraction(0)),
         Phase.LANDAU, Fraction(-1)),
        ("boundary-critical", LandauExtension(Fraction(2), Fraction(-4)), CRITICAL, None),
    )
    probes = (
        ("4", "1", "1", Phase.EUCLIDEAN, Fraction(1, 2)),
        ("1", "1", "1", Phase.LANDAU, Fraction(1)),
        ("1", "1", "-1", Phase.LANDAU, Fraction(-1)),
        ("1", "4", "1", Phase.MINKOWSKIAN, Fraction(2)),
        ("1", "4", "-1", Phase.MINKOWSKIAN, Fraction(-2)),
        ("9", "1", "1", Phase.EUCLIDEAN, Fraction(1, 3)),
        ("9", "1", "0", Phase.EUCLIDEAN, Fraction(0)),
        ("0", "1", "2", CRITICAL, None),
        ("0", "1", "0", CRITICAL, None),
    )
    phases = [(check_id, landau_to_g(ext), phase, g) for check_id, ext, phase, g in boundary] + [
        (f"rotating-frame:k={k},m={mass},Omega={Omega}",
         rotating_frame_to_g(RotatingFrame(Fraction(k), Fraction(mass), Fraction(Omega))), phase, g)
        for k, mass, Omega, phase, g in probes]
    for check_id, result, phase, g in phases:
        report.add(check(check_id, result.phase == phase and result.g == g,
                         f"got {result.phase}, g = {result.g}",
                         phase=phase, g="" if g is None else f", g = {g}"))
    return report
