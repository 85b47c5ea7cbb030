"""Anisotropic two-frequency oscillators built by the per-coordinate bridge.

The rotationally invariant model (module fockeng) is unitarily equivalent to
ordinary anisotropic oscillators H^(sigma) = hbar*(w1*n1 + sigma*w2*n2 +
(w1+sigma*w2)/2) once the circular modes are rescaled mode by mode.  This
module covers that side of the story:

* ``FrequencyPair`` with exact or detected commensurability l1*w1 == l2*w2,
* signed-mode Hamiltonians and their exact spectra,
* hidden ladder operators L (sign +) and J (sign -) at commensurable
  frequencies, and the matching degeneracy-orbit structure,
* the so(1,1) invariant of the equal-frequency sign=- oscillator,
* the per-coordinate bridge sending monomials x1^n1 x2^n2 to product
  Hermite functions,
* Lissajous trajectories and their closure period,
* the anisotropic rescaling map that identifies the rotationally invariant
  Hamiltonian with a signed-mode oscillator at Omega_i = |ell_i|*omega.

Convention note: with l1*w1 == l2*w2 and coprime (l1, l2), the minimal
closure time of a Lissajous figure is T = 2*pi*l2/w1 = 2*pi*l1/w2 (w1*T and
w2*T are then the coprime multiples 2*pi*l2 and 2*pi*l1 of a full turn).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .bridge import ProportionalityReport, ZPolynomial, grid_proportionality, inverse_weierstrass
from .coupling import Coupling, _to_float
from .fockeng import (
    FockBasis,
    InteriorMask,
    _diagonal,
    _hidden_ladder_matrix,
    _orbit_row,
    exact_energy,
    ladder,
    ladder_orbits,
    level_sets,
    operator_norm,
    verify_commutes,
)
from .phasealg import (
    CANONICAL,
    ExactComplex,
    PhasePoly,
    poisson_bracket,
)
from .phasealg.catalog import hidden_shift
from .phasealg.exact import coerce_real, ring_sqrt
from .reports import CheckRow, VerificationReport

__all__ = [
    "FrequencyPair",
    "detect_commensurability",
    "spectrum",
    "signed_hamiltonian",
    "verify_signed_spectrum",
    "hidden_operator",
    "hidden_orbits",
    "degeneracy_partition",
    "so11_invariant_check",
    "SeparableState",
    "aniso_cbt_apply",
    "hermite_eigenstate",
    "mode_constant",
    "aniso_proportionality",
    "lissajous",
    "closure_period",
    "RescaleMap",
    "rescale_map",
    "rescale_canonical_check",
    "composite_spectrum_check",
    "suite_aniso",
]


# ---------------------------------------------------------------------------
# frequencies


def _float_resonant(l1: int, l2: int, w1, w2) -> bool:
    """The one float resonance rule: l1*w1 == l2*w2 to 1e-9 relative to the larger side.

    Decided exactly on the frequencies' binary values, so no product
    l_i*w_i can overflow, however large the frequency or the label.
    """
    lhs, rhs = l1 * Fraction(w1), l2 * Fraction(w2)
    return abs(lhs - rhs) <= Fraction(1, 10**9) * max(lhs, rhs)


def detect_commensurability(omega1, omega2):
    """Coprime (l1, l2) with l1*w1 == l2*w2, or None.

    Exact rational frequencies always have a rational ratio, so detection
    never fails for them (and no denominator cap applies).  Float inputs are
    rationalized by continued fractions with denominators capped at 64 and
    accepted only when the resonance mismatch |l1*w1 - l2*w2| stays within
    1e-9 relative to the common value; a ratio outside the float range is
    not commensurate either.
    """
    w1 = coerce_real(omega1, "frequency")
    w2 = coerce_real(omega2, "frequency")
    if w1 <= 0 or w2 <= 0:
        raise ValueError("frequencies must be positive")
    if isinstance(w1, Fraction) and isinstance(w2, Fraction):
        ratio = w1 / w2
        return ratio.denominator, ratio.numerator
    try:
        ratio = Fraction(float(w1) / float(w2)).limit_denominator(64)
    except OverflowError:
        return None
    if ratio <= 0:
        return None
    l1, l2 = ratio.denominator, ratio.numerator
    return (l1, l2) if _float_resonant(l1, l2, w1, w2) else None


@dataclass(frozen=True)
class FrequencyPair:
    """Pair of positive mode frequencies with optional commensurability.

    The coprime labels (l1, l2) satisfy w1/w2 = l2/l1, i.e. l1*w1 == l2*w2
    (exactly for rational frequencies, to 1e-9 relative for floats).
    Integer and Fraction frequencies are kept exact; floats stay floats and
    must be finite (ValueError otherwise).
    """

    omega1: Fraction | float
    omega2: Fraction | float
    l1: int | None = None
    l2: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "omega1", coerce_real(self.omega1, "frequency"))
        object.__setattr__(self, "omega2", coerce_real(self.omega2, "frequency"))
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("frequencies must be positive")
        if (self.l1 is None) != (self.l2 is None):
            raise ValueError("give both commensurability labels or neither")
        if self.l1 is None:
            return
        l1, l2 = int(self.l1), int(self.l2)
        object.__setattr__(self, "l1", l1)
        object.__setattr__(self, "l2", l2)
        if l1 <= 0 or l2 <= 0:
            raise ValueError("commensurability labels must be positive")
        if math.gcd(l1, l2) != 1:
            raise ValueError("commensurability labels must be coprime")
        if not (l1 * self.omega1 == l2 * self.omega2 if self.is_exact
                else _float_resonant(l1, l2, self.omega1, self.omega2)):
            raise ValueError("labels do not satisfy l1*w1 == l2*w2")

    @classmethod
    def detect(cls, omega1, omega2):
        """Pair with labels filled in when :func:`detect_commensurability` finds a resonance."""
        labels = detect_commensurability(omega1, omega2) or (None, None)
        return cls(omega1, omega2, *labels)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.omega1, Fraction) and isinstance(self.omega2, Fraction)

    @property
    def commensurate(self) -> bool:
        return self.l1 is not None

    @property
    def equal(self) -> bool:
        return self.omega1 == self.omega2

    def float_omegas(self) -> tuple[float, float]:
        """(w1, w2) as floats; ValueError when one overflows or underflows to 0.0."""
        return _to_float(self.omega1, "frequency omega1"), _to_float(self.omega2, "frequency omega2")


def _sign_value(sign) -> int:
    if sign in ("+", 1, +1):
        return 1
    if sign in ("-", -1):
        return -1
    raise ValueError("sign must be '+' or '-'")


# ---------------------------------------------------------------------------
# signed-mode Hamiltonians and spectra


def spectrum(freq: FrequencyPair, sign, n1: int, n2: int, hbar=1):
    """Energy hbar*(w1*n1 + sigma*w2*n2 + (w1 + sigma*w2)/2).

    Exact (Fraction) when the frequencies and hbar are exact rationals,
    float otherwise.  sign=+ spectra are positive; sign=- is unbounded
    below and vanishes on the diagonal n1 == n2 at equal frequencies.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("quantum numbers must be non-negative")
    sigma = _sign_value(sign)
    w1, w2 = freq.omega1, freq.omega2
    half = Fraction(1, 2) if freq.is_exact else 0.5
    return hbar * (w1 * n1 + sigma * w2 * n2 + (w1 + sigma * w2) * half)


def signed_hamiltonian(
    basis: FockBasis, freq: FrequencyPair, sign, hbar: float = 1.0
) -> np.ndarray:
    """Diagonal H^(sigma) with the closed-formula spectrum.

    The diagonal entries are floats of the exact values, so commutators
    with resonant ladders vanish identically (degenerate levels share the
    same float).  The ladder-product construction is compared against this
    in :func:`verify_signed_spectrum`.
    """
    sigma = _sign_value(sign)
    return _diagonal(basis, lambda n1, n2: float(spectrum(freq, sigma, n1, n2, hbar)),
                     f"H({'+' if sigma > 0 else '-'})")


def verify_signed_spectrum(
    basis: FockBasis, freq: FrequencyPair, sign, hbar: float = 1.0
) -> CheckRow:
    """H^(sigma) assembled from ladder products matches the closed formula.

    Number operators built as a+ a- are exact on the whole grid (lowering
    first never leaves the truncation), so no interior mask is needed; the
    only residual is float squaring of sqrt(n) amplitudes.
    """
    sigma = _sign_value(sign)
    w1, w2 = freq.float_omegas()
    num1 = ladder(basis, 1, "+") @ ladder(basis, 1, "-")
    num2 = ladder(basis, 2, "+") @ ladder(basis, 2, "-")
    built = hbar * (
        w1 * num1
        + sigma * w2 * num2
        + 0.5 * (w1 + sigma * w2) * np.eye(basis.dim)
    )
    return CheckRow.within(
        "signed-spectrum",
        "diag(H^(sigma)) = hbar*(w1 n1 + sigma w2 n2 + (w1+sigma w2)/2)",
        operator_norm(built - signed_hamiltonian(basis, freq, sign, hbar)), 1e-12,
        detail=f"sign={sign}, cutoff={basis.cutoff}",
    )


# ---------------------------------------------------------------------------
# hidden ladder operators at commensurable frequencies


def _require_labels(freq: FrequencyPair) -> tuple[int, int]:
    if not freq.commensurate:
        raise ValueError(
            "frequencies carry no commensurability labels; "
            "hidden ladder operators need l1*w1 == l2*w2"
        )
    return freq.l1, freq.l2


def hidden_operator(
    basis: FockBasis, freq: FrequencyPair, kind: str, sign: str = "+"
) -> np.ndarray:
    """Resonant ladder L+ = (a1+)^l1 (a2-)^l2 or J+ = (a1+)^l1 (a2+)^l2.

    Kind "L" commutes with the sign=+ Hamiltonian, kind "J" with sign=-;
    in both cases the operator only links exactly degenerate states, so the
    commutator vanishes on the full truncated grid, not just an interior.
    sign="-" returns the adjoint.  Matrix elements agree with
    :func:`riaho.fockeng.hidden_coefficient` at orders (l1, l2).
    """
    return _hidden_ladder_matrix(basis, kind, *_require_labels(freq), sign)


def hidden_orbits(
    basis: FockBasis,
    freq: FrequencyPair,
    kind: str,
    mask: InteriorMask | None = None,
) -> list[frozenset]:
    """Connected components of the grid under the resonant ladder pair.

    The step is ``hidden_shift(kind, l1, l2)``, (l1, -l2) for kind "L" and
    (l1, l2) for kind "J"; two states of the (convex) pool are linked when
    one ladder application maps one onto the other.
    For commensurable frequencies these orbits coincide with the exact
    degeneracy classes of the matching signed Hamiltonian (the level sets
    are single arithmetic progressions, and a rectangular pool only cuts
    their head or tail).
    """
    step = hidden_shift(kind, *_require_labels(freq))
    return ladder_orbits(basis.states() if mask is None else mask.states(), step)


def degeneracy_partition(
    basis: FockBasis,
    freq: FrequencyPair,
    sign,
    mask: InteriorMask | None = None,
) -> list[frozenset]:
    """Grid states grouped by exact energy of H^(sigma).

    Requires exact rational frequencies; grouping floats by equality would
    silently split classes.  Sorted by the minimal member, like
    :func:`hidden_orbits`, so the two partitions compare directly.
    """
    if not freq.is_exact:
        raise ValueError("degeneracy grouping needs exact rational frequencies")
    pool = basis.states() if mask is None else mask.states()
    return level_sets(pool, lambda n1, n2: spectrum(freq, sign, n1, n2))


# ---------------------------------------------------------------------------
# so(1,1) invariant of the equal-frequency sign=- oscillator


def so11_invariant_check(
    omega=1.0, cutoff: int = 10, hbar: float = 1.0
) -> VerificationReport:
    """Invariance and bracket checks around L11 = x1 p2 + x2 p1.

    With equal frequencies the sign=- Hamiltonian commutes with
    L11 = i*hbar*(J+ - J-), J+- = a1+- a2+-, and {J0, J+-} closes on
    sl(2,R).  The normalization satisfying [J-, J+] = 2*J0 exactly is
    J0 = H_osc/(2*omega*hbar) = (n1 + n2 + 1)/2; the shifted grading
    (H_osc - hbar*omega)/(2*omega*hbar) obeys the same [J0, J+-] = +-J+-
    but picks up the identity in the lowering-raising bracket, which the
    report records explicitly.
    """
    if not isinstance(omega, FrequencyPair):
        omega = FrequencyPair(omega, omega)
    if not omega.equal:
        raise ValueError("so(1,1) invariant needs equal frequencies")
    w = omega.float_omegas()[0]

    basis = FockBasis(cutoff)
    freq = FrequencyPair(w, w, 1, 1)
    hminus = signed_hamiltonian(basis, freq, "-", hbar)
    hosc = signed_hamiltonian(basis, freq, "+", hbar)
    up1, dn1 = ladder(basis, 1, "+"), ladder(basis, 1, "-")
    up2, dn2 = ladder(basis, 2, "+"), ladder(basis, 2, "-")
    jplus = hidden_operator(basis, freq, "J", "+")
    jminus = hidden_operator(basis, freq, "J", "-")
    l11 = 1j * hbar * (jplus - jminus)

    # quadrature realization; the cross terms cancel identically because
    # mode-1 and mode-2 matrices are kron factors and commute exactly.
    sx = math.sqrt(hbar / (2.0 * w))
    sp = math.sqrt(hbar * w / 2.0)
    x1, p1 = sx * (up1 + dn1), 1j * sp * (up1 - dn1)
    x2, p2 = sx * (up2 + dn2), 1j * sp * (up2 - dn2)

    mask = InteriorMask(basis, margin1=1, margin2=1)
    report = VerificationReport(suite="so11-invariant")
    report.add(CheckRow.within("so11-quadrature-form", "x1 p2 + x2 p1 = i hbar (J+ - J-)",
                               operator_norm(x1 @ p2 + x2 @ p1 - l11), 1e-12))
    report.add(verify_commutes(hminus, l11, mask,
                               check_id="so11-invariance", identity="[H(-), L11] = 0"))
    # shifted grading generator used in the invariance statement
    j0_shift = (hosc - hbar * w * np.eye(basis.dim)) / (2.0 * w * hbar)
    for name, mat, sgn, s in (("raise", jplus, +1, "+"), ("lower", jminus, -1, "-")):
        report.add(CheckRow.within(
            f"sl2-{name}", f"[J0, J{s}] = {s}J{s}",
            operator_norm(j0_shift @ mat - mat @ j0_shift - sgn * mat), 1e-12))
    report.add(CheckRow.within(
        "sl2-ladder-bracket", "[J-, J+] = H_osc/(hbar w) = 2 J0 + 1",
        operator_norm(
            mask.restrict_columns(jminus @ jplus - jplus @ jminus - hosc / (w * hbar))),
        1e-12, detail="closes on the unshifted grading H_osc/(2 hbar w)"))
    # the two diagonals commute exactly, so the residual must be exactly 0
    report.add(verify_commutes(hminus, hosc, tol=0.0,
                               check_id="diagonal-pair", identity="[H(-), H_osc] = 0"))
    return report


# ---------------------------------------------------------------------------
# per-coordinate bridge: monomials to product Hermite functions


@dataclass(frozen=True)
class SeparableState:
    """Polynomial times a product Gaussian exp(-r1 x1^2 - r2 x2^2).

    ``poly`` is a :class:`ZPolynomial` whose (p1, p2) exponents are those of
    x1 and x2 (a term dict is converted).  The envelope is separable by
    construction; the polynomial factorizes for monomial input but is kept
    joint so sums of monomials stay closed.
    """

    poly: ZPolynomial
    rate1: float
    rate2: float

    def __post_init__(self):
        if not isinstance(self.poly, ZPolynomial):
            object.__setattr__(self, "poly", ZPolynomial(self.poly))
        if self.rate1 <= 0 or self.rate2 <= 0:
            raise ValueError("Gaussian rates must be positive")

    def evaluate(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = self.poly.at(x1, x2) * np.exp(-self.rate1 * x1**2 - self.rate2 * x2**2)
        return out if np.ndim(out) else complex(out)

    def scale(self, factor) -> "SeparableState":
        return SeparableState(self.poly.scale(factor), self.rate1, self.rate2)


def _mode_bridge_poly(n: int, omega: float, m: float, hbar: float) -> dict:
    """One-coordinate bridge of x^n: grading, finite heat series, in x units.

    The grading rescale contributes 2^((n + 1/2)/2); the heat factor
    e^{d^2-operator} reduces to the exact inverse-Weierstrass series in the
    dimensionless variable x/lambda, lambda^2 = hbar/(m omega).
    """
    lam_sq = hbar / (m * omega)
    series = inverse_weierstrass(n).series
    pref = 2.0**0.25 * 2.0 ** (n / 2.0)
    return {p: pref * float(c) * lam_sq ** ((n - p) / 2.0) for p, c in series.items()}


def aniso_cbt_apply(
    phi, freq: FrequencyPair, m: float = 1.0, hbar: float = 1.0
) -> SeparableState:
    """Bridge a polynomial in (x1, x2) through the per-coordinate composition.

    ``phi`` is a monomial exponent pair (n1, n2) or a dict mapping such
    pairs to coefficients.  Each coordinate passes independently through
    grading rescale, the finite heat series at its own frequency, and the
    Gaussian e^{-m w_i x_i^2 / 2 hbar}; a monomial lands on a multiple of
    the product Hermite function psi_n1(x1) psi_n2(x2).
    """
    if isinstance(phi, tuple) and len(phi) == 2:
        phi = {phi: 1.0}
    if not isinstance(phi, dict):
        raise ValueError("input must be a monomial pair or exponent-to-coefficient dict")
    w1, w2 = freq.float_omegas()
    joint: dict = {}
    for key, coeff in phi.items():
        try:
            n1, n2 = operator.index(key[0]), operator.index(key[1])
        except (TypeError, ValueError, IndexError):
            raise ValueError("exponents must be integer pairs") from None
        if n1 < 0 or n2 < 0:
            raise ValueError("negative exponent is not polynomial")
        c = complex(coeff)
        if c == 0:
            continue
        poly1 = _mode_bridge_poly(n1, w1, m, hbar)
        poly2 = _mode_bridge_poly(n2, w2, m, hbar)
        for p1, c1 in poly1.items():
            for p2, c2 in poly2.items():
                joint[(p1, p2)] = joint.get((p1, p2), 0j) + c * c1 * c2
    rate1 = m * w1 / (2.0 * hbar)
    rate2 = m * w2 / (2.0 * hbar)
    return SeparableState(joint, rate1, rate2)


def _mode_eigen_poly(n: int, omega: float, m: float, hbar: float) -> dict:
    lam_sq = hbar / (m * omega)
    norm = (math.pi * lam_sq) ** -0.25 / math.sqrt(2.0**n * math.factorial(n))
    series = inverse_weierstrass(n).series
    return {
        p: norm * 2.0**n * float(c) * lam_sq ** (-p / 2.0) for p, c in series.items()
    }


def hermite_eigenstate(
    n1: int, n2: int, freq: FrequencyPair, m: float = 1.0, hbar: float = 1.0
) -> SeparableState:
    """Normalized product eigenfunction psi_n1(x1; w1) psi_n2(x2; w2)."""
    if n1 < 0 or n2 < 0:
        raise ValueError("quantum numbers must be non-negative")
    w1, w2 = freq.float_omegas()
    poly1 = _mode_eigen_poly(n1, w1, m, hbar)
    poly2 = _mode_eigen_poly(n2, w2, m, hbar)
    joint = {
        (p1, p2): c1 * c2 for p1, c1 in poly1.items() for p2, c2 in poly2.items()
    }
    return SeparableState(joint, m * w1 / (2.0 * hbar), m * w2 / (2.0 * hbar))


def mode_constant(n: int, omega: float, m: float = 1.0, hbar: float = 1.0) -> float:
    """Per-coordinate proportionality constant of the bridge.

    S x^n = c_n(omega) psi_n with c_n = 2^(1/4) (pi lam^2)^(1/4) lam^n
    sqrt(n!), lam^2 = hbar/(m omega); the two-coordinate constant is the
    product over modes.
    """
    lam_sq = hbar / (m * omega)
    return (
        2.0**0.25
        * (math.pi * lam_sq) ** 0.25
        * lam_sq ** (n / 2.0)
        * math.sqrt(math.factorial(n))
    )


def aniso_proportionality(
    n1: int, n2: int, freq: FrequencyPair, m: float = 1.0, hbar: float = 1.0
) -> ProportionalityReport:
    """Grid-constancy of aniso_cbt_apply(x1^n1 x2^n2) / eigenfunction.

    The grid, nodal floor and spread tolerance are those of
    :func:`riaho.bridge.grid_proportionality`.  The reduced constant divides
    out the closed-form per-mode product, so it must equal 1 for every
    (n1, n2) and frequency pair.
    """
    bridged = aniso_cbt_apply((n1, n2), freq, m, hbar)
    eigen = hermite_eigenstate(n1, n2, freq, m, hbar)
    w1, w2 = freq.float_omegas()
    expected = mode_constant(n1, w1, m, hbar) * mode_constant(n2, w2, m, hbar)
    return grid_proportionality(n1, n2, bridged.evaluate, eigen.evaluate, expected)


# ---------------------------------------------------------------------------
# Lissajous trajectories


def lissajous(A1, B1, A2, B2, freq: FrequencyPair, t):
    """x_i(t) = A_i cos(w_i t) + B_i sin(w_i t).

    The general classical solution for both signed Hamiltonians: the
    sign=- mode only flips the momentum relation, x_i still obeys
    x_i'' = -w_i^2 x_i, so the configuration-space curves coincide.
    """
    t = np.asarray(t, dtype=float)
    w1, w2 = freq.float_omegas()
    x1 = A1 * np.cos(w1 * t) + B1 * np.sin(w1 * t)
    x2 = A2 * np.cos(w2 * t) + B2 * np.sin(w2 * t)
    if t.shape:
        return x1, x2
    return float(x1), float(x2)


def closure_period(freq: FrequencyPair):
    """Minimal common period 2 pi l2 / w1 = 2 pi l1 / w2, None if open.

    With l1*w1 == l2*w2 coprime, this T makes w1*T and w2*T the coprime
    multiples 2 pi l2 and 2 pi l1 of a full turn, so no shorter closure
    exists.  inf when the period exceeds the float range; ValueError when a
    frequency or label does not fit in a float.
    """
    if not freq.commensurate:
        return None
    return 2.0 * math.pi * _to_float(freq.l2, "label l2") / freq.float_omegas()[0]


# ---------------------------------------------------------------------------
# anisotropic rescaling of the rotationally invariant model


@dataclass(frozen=True)
class RescaleMap:
    """Mode-by-mode canonical rescaling x_i' = sqrt|ell_i| x_i, p_i' = p_i/sqrt|ell_i|.

    Carries H_g in circular modes onto the signed anisotropic oscillator
    with frequencies Omega_i = |ell_i| * omega and mode signs
    sigma_i = sign(ell_i).  Exact weight squares are kept as Fractions.
    """

    coupling: Coupling
    sigma: tuple[int, int]
    weight_sq: tuple[Fraction, Fraction]

    @property
    def weights(self) -> tuple[float, float]:
        return tuple(math.sqrt(w) for w in self.omegas())

    def omegas(self, omega: float = 1.0) -> tuple[float, float]:
        return tuple(_to_float(w, "rescaled frequency |ell_i|") * omega for w in self.weight_sq)

    def omega_factors(self) -> tuple[Fraction, Fraction]:
        """Exact frequency magnifications |ell_1|, |ell_2|."""
        return self.weight_sq

    def signed_form(self) -> tuple[FrequencyPair, str, bool]:
        """(frequency pair, sign, swapped) of the image Hamiltonian at omega=1.

        When ell_1 < 0 the positive-frequency mode is listed first, the pair
        is swapped (flag True) and the spectrum identification reads
        E_g(n1, n2) = spectrum(freq, sign, n2, n1).
        """
        f1, f2 = self.weight_sq
        s1, s2 = self.sigma
        if s1 > 0:
            pair = FrequencyPair.detect(f1, f2)
            return pair, ("+" if s2 > 0 else "-"), False
        pair = FrequencyPair.detect(f2, f1)
        return pair, "-", True

    def apply(self, x1: float, p1: float, x2: float, p2: float):
        """Transform a classical phase-space point."""
        w1, w2 = self.weights
        return (x1 * w1, p1 / w1, x2 * w2, p2 / w2)


def rescale_map(coupling) -> RescaleMap:
    """Rescaling data for coupling g; Landau values have a frozen mode."""
    coupling = Coupling.coerce(coupling)
    ell1, ell2 = coupling.ell1, coupling.ell2
    if ell1 == 0 or ell2 == 0:
        raise ValueError("Landau coupling: a rescaling weight vanishes")
    return RescaleMap(
        coupling=coupling,
        sigma=(1 if ell1 > 0 else -1, 1 if ell2 > 0 else -1),
        weight_sq=(abs(ell1), abs(ell2)),
    )


def rescale_canonical_check(coupling) -> CheckRow:
    """Symbolic canonical-bracket table for the rescaling map.

    Builds x_i' = w_i x_i, p_i' = p_i / w_i as exact phase-space polynomials
    and verifies every canonical bracket {x_i', x_j'} = {p_i', p_j'} = 0,
    {x_i', p_j'} = delta_ij exactly.  The actual weights sqrt|ell_i| are used
    when they lie in the coefficient ring Q(i)[sqrt2]; otherwise the table is
    run over generic rational witness weights, which decides the same
    identity because every bracket is w-independent: {w x, p/w} = {x, p}.
    """
    the_map = rescale_map(coupling)
    exact1 = ring_sqrt(the_map.weight_sq[0])
    exact2 = ring_sqrt(the_map.weight_sq[1])
    if exact1 is not None and exact2 is not None:
        weight_pairs = [(exact1, exact2)]
        detail = "weights sqrt|ell_i| exact in the coefficient ring"
    else:
        weight_pairs = [
            (ExactComplex.coerce(Fraction(5, 7)), ExactComplex.coerce(Fraction(11, 3))),
            (ExactComplex.coerce(Fraction(2)), ExactComplex.coerce(Fraction(3, 2))),
        ]
        detail = "generic rational witness weights (bracket is weight-independent)"

    x1 = PhasePoly.variable("x1", CANONICAL)
    x2 = PhasePoly.variable("x2", CANONICAL)
    p1 = PhasePoly.variable("p1", CANONICAL)
    p2 = PhasePoly.variable("p2", CANONICAL)
    one = PhasePoly.constant(1, CANONICAL)
    zero = PhasePoly.zero(CANONICAL)

    ok = True
    for w1, w2 in weight_pairs:
        prim = [x1 * w1, x2 * w2, p1 * w1.inverse(), p2 * w2.inverse()]
        canon = {(0, 2): one, (1, 3): one}
        for i in range(4):
            for j in range(i + 1, 4):
                expected = canon.get((i, j), zero)
                if poisson_bracket(prim[i], prim[j]) != expected:
                    ok = False
    return CheckRow.exact("rescale-canonical",
                          "{x_i', p_j'} = delta_ij, {x', x'} = {p', p'} = 0", ok, detail)


def composite_spectrum_check(coupling, cutoff: int = 8) -> CheckRow:
    """Exact spectrum transport from H_g to the signed anisotropic image.

    The unitary mode change (module fockeng) and the rescaling map send
    H_g onto H^(sigma) at Omega_i = |ell_i| omega; in units of hbar*omega
    the energies ell_1 n_1 + ell_2 n_2 + 1 must reappear as the signed-mode
    formula state by state, hence as equal multisets over any grid.
    """
    coupling = Coupling.coerce(coupling)
    if coupling.isotropic_mink:
        raise ValueError("finite rational coupling required")
    the_map = rescale_map(coupling)
    freq, sign, swapped = the_map.signed_form()
    if not freq.is_exact:
        raise ValueError("exact rational coupling required")
    source = []
    image = []
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1):
            source.append(exact_energy(coupling, n1, n2))
            pair = (n2, n1) if swapped else (n1, n2)
            image.append(spectrum(freq, sign, *pair))
    ok = sorted(source) == sorted(image)
    return CheckRow.exact(
        "composite-spectrum", "spec(H_g) = spec(H^(sigma), Omega_i=|ell_i| w) with multiplicity",
        ok, detail=f"g={coupling.g}, grid (cutoff+1)^2 = {(cutoff + 1) ** 2} states")


def suite_aniso(config) -> VerificationReport:
    """Signed two-frequency engine: spectra, hidden pairs, Lissajous, rescaling.

    Reads ``config.tol_fock``.
    """
    report = VerificationReport(suite="aniso")
    report.extend(so11_invariant_check(omega=1.0, cutoff=8).rows)

    basis = FockBasis(8)
    for w1, w2 in ((1, 3), (3, 5)):
        freq = FrequencyPair.detect(Fraction(w1), Fraction(w2))
        for sign in ("+", "-"):
            report.add(replace(
                verify_signed_spectrum(basis, freq, sign),
                check_id=f"signed-spectrum:{w1}:{w2}:{sign}",
            ))
        for sign, kind in (("+", "L"), ("-", "J")):
            report.add(verify_commutes(
                signed_hamiltonian(basis, freq, sign), hidden_operator(basis, freq, kind, "+"),
                tol=config.tol_fock, check_id=f"hidden-commutes:{kind}({w1},{w2})",
                identity=f"[H^({sign}), {kind}+] = 0"))
            report.add(_orbit_row(
                f"{kind}({w1},{w2})", f"{kind} orbits = H^({sign}) degeneracy classes",
                hidden_orbits(basis, freq, kind), degeneracy_partition(basis, freq, sign)))

    for w1, w2 in ((1, 3), (1, 4), (3, 5)):
        freq = FrequencyPair.detect(Fraction(w1), Fraction(w2))
        period = closure_period(freq)
        a0 = lissajous(1.0, 0.3, 0.7, 1.0, freq, 0.0)
        a1 = lissajous(1.0, 0.3, 0.7, 1.0, freq, period)
        report.add(CheckRow.within(
            f"lissajous-closure:{w1}:{w2}", "curve closes at 2 pi l2 / omega1",
            math.hypot(a1[0] - a0[0], a1[1] - a0[1]) / 2.0, 1e-9))

    for gtext in ("1/3", "1/2", "3"):
        coupling = Coupling(Fraction(gtext))
        report.add(replace(
            rescale_canonical_check(coupling), check_id=f"rescale-canonical:g={gtext}"))
        report.add(replace(
            composite_spectrum_check(coupling), check_id=f"composite-spectrum:g={gtext}"))
    return report
