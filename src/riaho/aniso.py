"""Anisotropic two-frequency oscillators built by the per-coordinate bridge.

The rotationally invariant model (module fockeng) is unitarily equivalent to
ordinary anisotropic oscillators H^(sigma) = hbar*(w1*n1 + sigma*w2*n2 +
(w1+sigma*w2)/2) once the circular modes are rescaled mode by mode.  This
module covers that side of the story:

* ``FrequencyPair``, whose coprime labels l1*w1 == l2*w2 the frequencies fix: the
  lowest terms of w1/w2 when exact, a denominator-64 fit held to 1e-9 when float,
* signed-mode Hamiltonians and their exact spectra,
* hidden ladder operators L (sign +) and J (sign -) at commensurable
  frequencies, and the matching degeneracy-orbit structure,
* the so(1,1) invariant of the equal-frequency sign=- oscillator,
* the per-coordinate bridge sending a ZPolynomial in (x1, x2) to a separable state,
  each monomial x1^n1 x2^n2 to a product Hermite function,
* Lissajous trajectories and their closure period,
* the anisotropic rescaling map that identifies the rotationally invariant
  Hamiltonian with a signed-mode oscillator at Omega_i = |ell_i|*omega and
  sigma_i = sign(ell_i), both read from the coupling g alone.

Convention note: with l1*w1 == l2*w2 and coprime (l1, l2), the minimal
closure time of a Lissajous figure is T = 2*pi*l2/w1 = 2*pi*l1/w2 (w1*T and
w2*T are then the coprime multiples 2*pi*l2 and 2*pi*l1 of a full turn).
"""
from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bridge import (ProportionalityReport, Units, ZPolynomial, _float_range, _graded_series,
                     grid_proportionality)
from .coupling import Coupling
from .fockeng import (FockBasis, InteriorMask, _hidden_commutator, _hidden_ladder_matrix,
                      _integer_weights, _levels, commutator, hermite_rows, ladder, ladder_orbits,
                      level_sets, operator_norm)
from .phasealg import (
    CANONICAL,
    ExactComplex,
    PhasePoly,
    hamiltonian,
    poisson_bracket,
    reduce_to_cartan,
)
from .phasealg.catalog import hidden_shift
from .phasealg.exact import (_sample, coerce_real, require_choice, require_int, require_real,
                             ring_sqrt, to_float)
from .reports import CheckRow, VerificationReport, check

__all__ = [
    "FrequencyPair",
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


@dataclass(frozen=True)
class FrequencyPair:
    """Pair of positive mode frequencies, with the commensurability labels they fix.

    The labels are derived, never given: coprime (l1, l2) with w1/w2 = l2/l1, i.e.
    l1*w1 == l2*w2, or None when no such pair exists.  Exact frequencies always resonate:
    the labels are the denominator and numerator of w1/w2 (no cap).  Float frequencies are
    rationalized by ``limit_denominator(64)`` of the float ratio, and the labels are kept only
    when the resonance holds to 1e-9 relative (:func:`_float_resonant`); a ratio past the
    float range does not resonate.  Integer and Fraction frequencies are kept exact; floats
    stay floats and must be finite; any other type raises ValueError (see ``coerce_real``).
    """

    omega1: Fraction | float
    omega2: Fraction | float
    l1: int | None = field(init=False)
    l2: int | None = field(init=False)

    def __post_init__(self):
        w1, w2 = coerce_real(self.omega1, "omega1"), coerce_real(self.omega2, "omega2")
        if w1 <= 0 or w2 <= 0:
            raise ValueError("frequencies omega1, omega2 must be positive")
        if isinstance(w1, Fraction) and isinstance(w2, Fraction):
            ratio = w1 / w2
        else:
            try:
                ratio = Fraction(float(w1) / float(w2)).limit_denominator(64)
            except (OverflowError, ZeroDivisionError):  # the ratio lies past the float range
                ratio = None
            if ratio and not _float_resonant(ratio.denominator, ratio.numerator, w1, w2):
                ratio = None
        labels = (ratio.denominator, ratio.numerator) if ratio else (None, None)
        for name, value in zip(("omega1", "omega2", "l1", "l2"), (w1, w2, *labels)):
            object.__setattr__(self, name, value)

    @classmethod
    def detect(cls, omega1, omega2):
        """``FrequencyPair(omega1, omega2)``; kept as a name perfbench's tracer wraps."""
        return cls(omega1, omega2)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.omega1, Fraction) and isinstance(self.omega2, Fraction)

    @property
    def commensurate(self) -> bool:
        return self.l1 is not None

    def float_omegas(self) -> tuple[float, float]:
        """(w1, w2) as floats; ValueError when one overflows or underflows to 0.0."""
        return to_float(self.omega1, "frequency omega1"), to_float(self.omega2, "frequency omega2")


def _sign_value(sign) -> int:
    """+1 for "+", -1 for "-"; anything else (1, -1, True and 1.0 among it) raises ValueError."""
    return 1 if require_choice(sign, "sign", ("+", "-")) == "+" else -1


# ---------------------------------------------------------------------------
# signed-mode Hamiltonians and spectra


def _signed_weights(freq: FrequencyPair, sign) -> tuple[Fraction, Fraction, Fraction]:
    """Level weights (w1, sigma*w2, (w1 + sigma*w2)/2) of H^(sigma), exact binary values."""
    w1, w2 = Fraction(freq.omega1), _sign_value(sign) * Fraction(freq.omega2)
    return w1, w2, (w1 + w2) / 2


def spectrum(freq: FrequencyPair, sign, n1: int, n2: int):
    """Energy w1*n1 + sigma*w2*n2 + (w1 + sigma*w2)/2 in units of hbar.

    Exact (Fraction) when the frequencies are exact rationals.  Otherwise the level, on the
    frequencies' exact binary values, is rounded correctly to a float, as in
    :func:`signed_hamiltonian`.  sign=+ spectra are positive; sign=- is unbounded below and
    vanishes on the diagonal n1 == n2 at equal frequencies.  An n1 or n2 that is not an
    int >= 0, or a float level past the float range (or a non-zero level that underflows to
    0.0) raises ValueError, never inf.
    """
    a, b, c, d = _integer_weights(*_signed_weights(freq, sign))
    level = Fraction(a * require_int(n1, "n1") + b * require_int(n2, "n2") + c, d)
    return level if freq.is_exact else to_float(level, f"level of ({n1}, {n2})")


def signed_hamiltonian(basis: FockBasis, freq: FrequencyPair, sign) -> np.ndarray:
    """Diagonal H^(sigma) in units of hbar, with the closed-formula spectrum.

    The entries are the levels of :func:`riaho.fockeng._levels` at the weights
    (w1, sigma*w2, (w1 + sigma*w2)/2), each the correctly rounded float of its exact value,
    so they equal :func:`spectrum` bit for bit and commutators with resonant ladders
    vanish identically (degenerate levels share the same float).  A level past the float
    range raises ValueError.  The ladder-product construction is compared against this in
    :func:`verify_signed_spectrum`.
    """
    return np.diag(_levels(basis, _signed_weights(freq, sign), f"H({sign})"))


def verify_signed_spectrum(basis: FockBasis, freq: FrequencyPair, sign) -> CheckRow:
    """H^(sigma) assembled from ladder products matches the closed formula, at hbar = 1:
    row ``signed-spectrum:{omega1}:{omega2}:{sign}``.

    Number operators built as a+ a- are exact on the whole grid (lowering
    first never leaves the truncation), so no interior mask is needed; the
    only residual is float squaring of sqrt(n) amplitudes.
    """
    sigma = _sign_value(sign)
    w1, w2 = freq.float_omegas()
    num1 = ladder(basis, 1, "+") @ ladder(basis, 1, "-")
    num2 = ladder(basis, 2, "+") @ ladder(basis, 2, "-")
    built = w1 * num1 + sigma * w2 * num2 + 0.5 * (w1 + sigma * w2) * np.eye(basis.dim)
    return check(f"signed-spectrum:{freq.omega1}:{freq.omega2}:{sign}",
                 operator_norm(built - signed_hamiltonian(basis, freq, sign)),
                 f"sign={sign}, cutoff={basis.cutoff}")


# ---------------------------------------------------------------------------
# hidden ladder operators at commensurable frequencies


def _require_labels(freq: FrequencyPair) -> tuple[int, int]:
    """(l1, l2); only a float pair that does not resonate has none."""
    if not freq.commensurate:
        raise ValueError(
            f"float frequencies {freq.omega1}, {freq.omega2} do not resonate; "
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


def hidden_orbits(basis: FockBasis, freq: FrequencyPair, kind: str) -> list[frozenset]:
    """Connected components of the grid under the resonant ladder pair.

    The step is ``hidden_shift(kind, l1, l2)``, (l1, -l2) for kind "L" and
    (l1, l2) for kind "J"; two grid states are linked when one ladder
    application maps one onto the other.
    For commensurable frequencies these orbits coincide with the exact
    degeneracy classes of the matching signed Hamiltonian (the level sets
    are single arithmetic progressions, and the square grid only cuts
    their head or tail).
    """
    return ladder_orbits(basis.states(), hidden_shift(kind, *_require_labels(freq)))


def degeneracy_partition(basis: FockBasis, freq: FrequencyPair, sign) -> list[frozenset]:
    """Grid states grouped by exact energy of H^(sigma).

    Requires exact rational frequencies; grouping floats by equality would
    silently split classes.  Equal levels share the integer key a*n1 + b*n2,
    w1 = a/d and sigma*w2 = b/d.  Sorted by the minimal member, like
    :func:`hidden_orbits`, so the two partitions compare directly.
    """
    if not freq.is_exact:
        raise ValueError("degeneracy grouping needs exact rational frequencies")
    a, b, _, _ = _integer_weights(*_signed_weights(freq, sign))
    return level_sets(basis.states(), lambda n1, n2: a * n1 + b * n2)


# ---------------------------------------------------------------------------
# so(1,1) invariant of the equal-frequency sign=- oscillator


def so11_invariant_check(cutoff: int = 10) -> VerificationReport:
    """Invariance and bracket checks around L11 = x1 p2 + x2 p1, at hbar = omega = 1.

    With equal frequencies the sign=- Hamiltonian commutes with
    L11 = i*hbar*(J+ - J-), J+- = a1+- a2+-, and {J0, J+-} closes on
    sl(2,R).  The normalization satisfying [J-, J+] = 2*J0 exactly is
    J0 = H_osc/(2*omega*hbar) = (n1 + n2 + 1)/2; the shifted grading
    (H_osc - hbar*omega)/(2*omega*hbar) obeys the same [J0, J+-] = +-J+-
    but picks up the identity in the lowering-raising bracket, which the
    report records explicitly.  Omega is only an overall scale of these identities, so
    the checks run at omega = 1.  A cutoff that is not an int >= 1 raises ValueError.
    """
    basis = FockBasis(cutoff)
    freq = FrequencyPair(1, 1)
    hminus = signed_hamiltonian(basis, freq, "-")
    hosc = signed_hamiltonian(basis, freq, "+")
    up1, dn1 = ladder(basis, 1, "+"), ladder(basis, 1, "-")
    up2, dn2 = ladder(basis, 2, "+"), ladder(basis, 2, "-")
    jplus = hidden_operator(basis, freq, "J", "+")
    jminus = hidden_operator(basis, freq, "J", "-")
    l11 = 1j * (jplus - jminus)

    # quadrature realization; the cross terms cancel identically because
    # mode-1 and mode-2 matrices are kron factors and commute exactly.
    s = math.sqrt(0.5)
    x1, p1 = s * (up1 + dn1), 1j * s * (up1 - dn1)
    x2, p2 = s * (up2 + dn2), 1j * s * (up2 - dn2)

    mask = InteriorMask(basis, margin1=1, margin2=1)
    report = VerificationReport(suite="so11-invariant")
    report.add(check("so11-quadrature-form", operator_norm(x1 @ p2 + x2 @ p1 - l11)))
    # L11 links states of equal n1 - n2, whose levels are one float, so the residual is 0
    report.add(check("so11-invariance",
                     operator_norm(mask.restrict_columns(commutator(hminus, l11)))))
    # shifted grading generator used in the invariance statement
    j0_shift = (hosc - np.eye(basis.dim)) / 2.0
    for name, mat, sgn in (("raise", jplus, +1), ("lower", jminus, -1)):
        report.add(check(f"sl2-{name}", operator_norm(j0_shift @ mat - mat @ j0_shift - sgn * mat)))
    report.add(check(
        "sl2-ladder-bracket",
        operator_norm(mask.restrict_columns(jminus @ jplus - jplus @ jminus - hosc)),
        "closes on the unshifted grading H_osc/(2 hbar w)"))
    return report


# ---------------------------------------------------------------------------
# per-coordinate bridge: monomials to product Hermite functions


@dataclass(frozen=True)
class SeparableState:
    """Polynomial times a product Gaussian exp(-r1 x1^2 - r2 x2^2).

    ``poly`` is a :class:`ZPolynomial` whose (p1, p2) exponents are those of
    x1 and x2; anything else raises ValueError.  The envelope is separable by
    construction; the polynomial factorizes for monomial input but is kept
    joint so sums of monomials stay closed.  Rates are positive finite reals, stored as
    floats; ``evaluate`` takes scalars through require_real and arrays as given.
    """

    poly: ZPolynomial
    rate1: float
    rate2: float

    def __post_init__(self):
        if not isinstance(self.poly, ZPolynomial):
            raise ValueError(f"poly {self.poly!r} is not a ZPolynomial")
        for name in ("rate1", "rate2"):
            object.__setattr__(self, name, require_real(getattr(self, name), name, positive=True))

    def evaluate(self, x1, x2):
        x1 = np.asarray(_sample(x1, "x1"), dtype=float)
        x2 = np.asarray(_sample(x2, "x2"), dtype=float)
        out = self.poly.at(x1, x2) * np.exp(-self.rate1 * x1**2 - self.rate2 * x2**2)
        return out if np.ndim(out) else complex(out)

    def scale(self, factor) -> "SeparableState":
        return SeparableState(self.poly.scale(factor), self.rate1, self.rate2)


@_float_range
def aniso_cbt_apply(
    phi: ZPolynomial, freq: FrequencyPair, m: float = 1.0, hbar: float = 1.0
) -> SeparableState:
    """Bridge a polynomial in (x1, x2) through the per-coordinate composition.

    ``phi`` is a :class:`ZPolynomial` whose (p1, p2) exponents are those of x1 and x2, as
    :func:`riaho.bridge.cbt_apply` takes one over (z, zbar); anything else raises ValueError.
    As there (one :func:`_graded_series`): the grading 2^((n1+n2+1)/2), the heat series of
    sum_i -(lam_i^2/4) d^2/dx_i^2 with lam_i^2 = hbar/(m w_i), then the Gaussians
    e^{-m w_i x_i^2 / 2 hbar}; a monomial lands on a multiple of psi_n1(x1) psi_n2(x2).
    Units that are not positive and finite, or a coefficient past the float range, raise
    ValueError.
    """
    if not isinstance(phi, ZPolynomial):
        raise ValueError(f"phi {phi!r} is not a ZPolynomial")
    u1, u2 = (Units(m, w, hbar) for w in freq.float_omegas())
    heat1, heat2 = -u1.length_sq / 8, -u2.length_sq / 8  # -lam_i^2/4, lam_i^2 = length_sq/2

    def step(term: ZPolynomial, k: int) -> ZPolynomial:
        out: dict = {}
        for (p1, p2), c in term.terms.items():
            for key, weight in (((p1 - 2, p2), heat1 * p1 * (p1 - 1)),
                                ((p1, p2 - 2), heat2 * p2 * (p2 - 1))):
                if weight:
                    out[key] = out.get(key, 0j) + weight * c / k
        if not all(map(cmath.isfinite, out.values())):
            raise OverflowError
        return ZPolynomial(out)

    return SeparableState(_graded_series(phi.terms, step), u1.gauss, u2.gauss)


def _mode_eigen_poly(n: int, units: Units) -> dict:
    """psi_n's polynomial in x units from the last row of :func:`riaho.fockeng.hermite_rows`,
    each [x^p] H_n / 2^n the correctly rounded float of the int quotient."""
    row = deque(hermite_rows(n), maxlen=1).pop()
    lam_sq = units.length_sq / 2
    norm = (math.pi * lam_sq) ** -0.25 / math.sqrt(2.0**n * math.factorial(n))
    return {p: norm * 2.0**n * (row[p] / 2**n) * lam_sq ** (-p / 2.0) for p in range(n, -1, -2)}


@_float_range
def hermite_eigenstate(
    n1: int, n2: int, freq: FrequencyPair, m: float = 1.0, hbar: float = 1.0
) -> SeparableState:
    """Normalized product eigenfunction psi_n1(x1; w1) psi_n2(x2; w2).

    Units that are not positive and finite, an n1 or n2 that is not an int
    >= 0, or a coefficient past the float range, raise ValueError.
    """
    n1, n2 = require_int(n1, "n1"), require_int(n2, "n2")
    u1, u2 = (Units(m, w, hbar) for w in freq.float_omegas())
    poly1 = _mode_eigen_poly(n1, u1)
    poly2 = _mode_eigen_poly(n2, u2)
    joint = {
        (p1, p2): c1 * c2 for p1, c1 in poly1.items() for p2, c2 in poly2.items()
    }
    return SeparableState(ZPolynomial(joint), u1.gauss, u2.gauss)


@_float_range
def mode_constant(n: int, omega: float, m: float = 1.0, hbar: float = 1.0) -> float:
    """Per-coordinate proportionality constant of the bridge.

    S x^n = c_n(omega) psi_n with c_n = 2^(1/4) (pi lam^2)^(1/4) lam^n
    sqrt(n!), lam^2 = hbar/(m omega); the two-coordinate constant is the
    product over modes.  Units that are not positive and finite, an n that
    is not an int >= 0, or a c_n past the float range, raise ValueError.
    """
    require_int(n, "n")
    lam_sq = Units(m, omega, hbar).length_sq / 2
    value = (
        2.0**0.25
        * (math.pi * lam_sq) ** 0.25
        * lam_sq ** (n / 2.0)
        * math.sqrt(math.factorial(n))
    )
    if math.isinf(value):
        raise ValueError(f"mode_constant: c_{n} leaves the float range")
    return value


def aniso_proportionality(
    n1: int, n2: int, freq: FrequencyPair, m: float = 1.0, hbar: float = 1.0
) -> ProportionalityReport:
    """Grid-constancy of aniso_cbt_apply(x1^n1 x2^n2) / eigenfunction.

    The grid, nodal floor and spread tolerance are those of
    :func:`riaho.bridge.grid_proportionality`.  The reduced constant divides
    out the closed-form per-mode product, so it must equal 1 for every
    (n1, n2) and frequency pair.
    """
    bridged = aniso_cbt_apply(ZPolynomial.monomial(n1, n2), freq, m, hbar)
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
    x_i'' = -w_i^2 x_i, so the configuration-space curves coincide.  An array t
    is sampled as given; the amplitudes and a scalar t go through require_real.
    """
    A1, B1, A2, B2 = map(require_real, (A1, B1, A2, B2), ("A1", "B1", "A2", "B2"))
    t = np.asarray(_sample(t, "t"), dtype=float)
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
    return 2.0 * math.pi * to_float(freq.l2, "label l2") / freq.float_omegas()[0]


# ---------------------------------------------------------------------------
# anisotropic rescaling of the rotationally invariant model


@dataclass(frozen=True)
class RescaleMap:
    """Mode-by-mode canonical rescaling x_i' = sqrt|ell_i| x_i, p_i' = p_i/sqrt|ell_i|.

    Carries H_g in circular modes onto the signed anisotropic oscillator with frequencies
    Omega_i = |ell_i| * omega and mode signs sigma_i = sign(ell_i).  The coupling fixes the
    map: ``sigma`` and ``weight_sq`` (the exact magnifications |ell_i| as Fractions) are read
    from its ell_i.  ``coupling`` goes through ``Coupling.coerce``; a Landau coupling, where
    an ell_i is 0 and a mode is frozen, raises ValueError.
    """

    coupling: Coupling

    def __post_init__(self):
        coupling = Coupling.coerce(self.coupling)
        if coupling.ell1 == 0 or coupling.ell2 == 0:
            raise ValueError("Landau coupling: a rescaling weight vanishes")
        object.__setattr__(self, "coupling", coupling)

    @property
    def sigma(self) -> tuple[int, int]:
        return tuple(1 if ell > 0 else -1 for ell in (self.coupling.ell1, self.coupling.ell2))

    @property
    def weight_sq(self) -> tuple[Fraction, Fraction]:
        return abs(self.coupling.ell1), abs(self.coupling.ell2)

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


def rescale_canonical_check(coupling) -> CheckRow:
    """Symbolic canonical-bracket table for the rescaling map: row ``rescale-canonical:g={g}``.

    Builds x_i' = w_i x_i, p_i' = p_i / w_i as exact phase-space polynomials
    and verifies every canonical bracket {x_i', x_j'} = {p_i', p_j'} = 0,
    {x_i', p_j'} = delta_ij exactly.  The actual weights sqrt|ell_i| are used
    when they lie in the coefficient ring Q(i)[sqrt2]; otherwise the table is
    run over generic rational witness weights, which decides the same
    identity because every bracket is w-independent: {w x, p/w} = {x, p}.

    The row also holds the transport the map names, mode by mode at omega = 1:
    ell_j (w_j^2 X^2 + P^2/w_j^2)/2 = sigma_j (Omega_j^2 X^2 + P^2)/2 exactly, with ell_j
    read off H_g by :func:`~riaho.phasealg.reduce_to_cartan`, w_j^2 and sigma_j from the
    map, and Omega_j with its sign from :meth:`RescaleMap.signed_form`, mapped back when the
    pair is swapped.
    """
    the_map = RescaleMap(coupling)
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

    ells = reduce_to_cartan(hamiltonian(the_map.coupling)).diagonal  # N1 at (1, 0), N2 at (0, 1)
    freq, sign, swapped = the_map.signed_form()
    omegas, signs = (freq.omega1, freq.omega2), (1, _sign_value(sign))
    if swapped:
        omegas, signs = omegas[::-1], signs[::-1]
    for ell, (x, p), w_sq, sigma, omega, image_sign in zip(
            (ells[1, 0], ells[0, 1]), ((x1, p1), (x2, p2)), the_map.weight_sq,
            the_map.sigma, omegas, signs):
        xx, pp = x * x, p * p
        lhs = (xx * w_sq + pp * (1 / w_sq)) * (ell * Fraction(1, 2))
        ok = ok and image_sign == sigma and lhs == (xx * omega**2 + pp) * Fraction(sigma, 2)
    return check(f"rescale-canonical:g={the_map.coupling}", ok, detail)


def composite_spectrum_check(coupling) -> CheckRow:
    """Exact spectrum transport from H_g to the signed anisotropic image: row
    ``composite-spectrum:g={g}``.

    The unitary mode change (module fockeng) and the rescaling map send
    H_g onto H^(sigma) at Omega_i = |ell_i| omega; in units of hbar*omega
    the energies ell_1 n_1 + ell_2 n_2 + 1 must reappear as the signed-mode
    formula state by state, at (n2, n1) when the pair is swapped; every state of the
    fixed cutoff-8 grid compares its integer numerators over one denominator.
    """
    coupling = Coupling.coerce(coupling)
    if coupling.isotropic_mink:
        raise ValueError("finite rational coupling required")
    freq, sign, swapped = RescaleMap(coupling).signed_form()
    w1, w2, w0 = _signed_weights(freq, sign)
    # E_g(n1, n2) = spectrum(freq, sign, n2, n1) when swapped: weights (sigma*w2, w1, w0)
    a, b, c, a2, b2, c2, _ = _integer_weights(coupling.ell1, coupling.ell2, 1,
                                              *((w2, w1) if swapped else (w1, w2)), w0)
    grid = range(9)
    ok = all(a * n1 + b * n2 + c == a2 * n1 + b2 * n2 + c2 for n1 in grid for n2 in grid)
    return check(f"composite-spectrum:g={coupling.g}", ok,
                 f"g={coupling.g}, grid (cutoff+1)^2 = 81 states")


def suite_aniso(config) -> VerificationReport:
    """Signed two-frequency engine: spectra, hidden pairs, Lissajous, rescaling.

    Reads no run setting.
    """
    report = VerificationReport(suite="aniso")
    report.extend(so11_invariant_check(cutoff=8).rows)

    basis = FockBasis(8)
    for w1, w2 in ((1, 3), (3, 5)):
        freq = FrequencyPair.detect(Fraction(w1), Fraction(w2))
        for sign in ("+", "-"):
            report.add(verify_signed_spectrum(basis, freq, sign))
        for sign, kind in (("+", "L"), ("-", "J")):
            levels = _levels(basis, _signed_weights(freq, sign), f"H({sign})")
            # the ladder links only states of one level, and _levels gives those one float
            report.add(check(f"hidden-commutes:{kind}({w1},{w2})",
                             _hidden_commutator(levels, basis, kind, freq.l1, freq.l2),
                             h=f"H^({sign})", x=f"{kind}+"))
            orbits = hidden_orbits(basis, freq, kind)
            report.add(check(f"orbits-match-degeneracy:{kind}({w1},{w2})",
                             orbits == degeneracy_partition(basis, freq, sign),
                             f"{len(orbits)} orbits", x=kind,
                             classes=f"H^({sign}) degeneracy classes"))

    for w1, w2 in ((1, 3), (1, 4), (3, 5)):
        freq = FrequencyPair.detect(Fraction(w1), Fraction(w2))
        period = closure_period(freq)
        a0 = lissajous(1.0, 0.3, 0.7, 1.0, freq, 0.0)
        a1 = lissajous(1.0, 0.3, 0.7, 1.0, freq, period)
        report.add(check(f"lissajous-closure:{w1}:{w2}",
                         math.hypot(a1[0] - a0[0], a1[1] - a0[1]) / 2.0))

    for coupling in map(Coupling, ("1/3", "1/2", "3")):
        report.add(rescale_canonical_check(coupling))
        report.add(composite_spectrum_check(coupling))
    return report
