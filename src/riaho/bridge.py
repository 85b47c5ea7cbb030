"""Wavefunction-level conformal bridge: monomial states to oscillator modes.

Free-particle generators act on monomials phi_{n1,n2} = z^n1 zbar^n2 by
simple index shifts, so the bridge operator -- a grading rescale, a finite
exponential series in the free Hamiltonian, and a Gaussian factor -- maps
any polynomial to a closed-form state (polynomial times Gaussian) exactly.
Oscillator eigenfunctions are built by ladder differential operators on the
ground Gaussian; quadrature enters only for inner products.

Complex coordinates: z = x1 + i x2, zbar = x1 - i x2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coupling import Coupling
from .fockeng import verify_one_mode_bridge, verify_quantum_bridge
from .reports import CheckRow, VerificationReport

__all__ = [
    "Units",
    "ZPolynomial",
    "WaveState",
    "FREE_GENERATORS",
    "act_free",
    "monomial_state",
    "cbt_apply",
    "apply_ladder",
    "hamiltonian_action",
    "angular_momentum_action",
    "ground_state",
    "eigenstate",
    "rotate",
    "wave_distance",
    "inner_product",
    "orthonormality",
    "overlap_matrix",
    "ProportionalityReport",
    "verify_bridge_proportionality",
    "grid_proportionality",
    "WeierstrassReport",
    "inverse_weierstrass",
    "coherent_state",
    "coherent_eigenvalues",
    "expansion_coefficient",
    "coherent_checks",
    "suite_bridge",
]


@dataclass(frozen=True)
class Units:
    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.m, self.omega, self.hbar)):
            raise ValueError("units must be positive and finite")
        if not (0 < self.gauss < math.inf and 0 < self.length_sq < math.inf):
            raise ValueError("m*omega/(2*hbar) or its inverse leaves the float range")

    @property
    def gauss(self) -> float:
        """Gaussian envelope rate m*omega/(2*hbar)."""
        return self.m * self.omega / (2 * self.hbar)

    @property
    def length_sq(self) -> float:
        """Oscillator length squared 2*hbar/(m*omega); ladder shift scale."""
        return 2 * self.hbar / (self.m * self.omega)


_UNIT = Units()


@dataclass(frozen=True)
class ZPolynomial:
    """Complex polynomial in (z, zbar) as a pruned term map (n1, n2) -> finite coeff."""

    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (n1, n2), coeff in self.terms.items():
            if not (isinstance(n1, int) and isinstance(n2, int)) or n1 < 0 or n2 < 0:
                raise ValueError(f"bad exponents ({n1}, {n2})")
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient of z^{n1} zbar^{n2} is not finite ({c})")
            if c != 0:
                clean[(n1, n2)] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def zero() -> "ZPolynomial":
        return ZPolynomial({})

    @staticmethod
    def monomial(n1: int, n2: int, coeff=1.0) -> "ZPolynomial":
        return ZPolynomial({(n1, n2): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((n1 + n2 for n1, n2 in self.terms), default=0)

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return ZPolynomial(out)

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        return self + other.scale(-1.0)

    def scale(self, factor) -> "ZPolynomial":
        return ZPolynomial({k: complex(factor) * c for k, c in self.terms.items()})

    def shift(self, d1: int, d2: int) -> "ZPolynomial":
        """Multiply by z^d1 zbar^d2."""
        return ZPolynomial({(n1 + d1, n2 + d2): c for (n1, n2), c in self.terms.items()})

    def diff_z(self) -> "ZPolynomial":
        return ZPolynomial(
            {(n1 - 1, n2): n1 * c for (n1, n2), c in self.terms.items() if n1 > 0}
        )

    def diff_zbar(self) -> "ZPolynomial":
        return ZPolynomial(
            {(n1, n2 - 1): n2 * c for (n1, n2), c in self.terms.items() if n2 > 0}
        )

    def at(self, u, v):
        """Sum of c u^n1 v^n2 (the value at z = u, zbar = v); scalars or broadcast arrays."""
        shape = np.broadcast(u, v).shape
        total = np.zeros(shape, dtype=complex) if shape else 0j  # scalars stay Python complex
        for (n1, n2), c in self.terms.items():
            total += c * u**n1 * v**n2
        return total

    def evaluate(self, z: complex) -> complex:
        return self.at(z, z.conjugate())

    def conjugate(self) -> "ZPolynomial":
        return ZPolynomial(
            {(n2, n1): c.conjugate() for (n1, n2), c in self.terms.items()}
        )

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


FREE_GENERATORS = ("H", "K", "D2i", "Pphi", "Pplus", "Pminus", "XiPlus", "XiMinus")


def act_free(generator: str, s: ZPolynomial, units: Units = _UNIT) -> ZPolynomial:
    """Free-particle generator action on polynomials of (z, zbar).

    Per monomial phi_{n1,n2}: H -> -(2*hbar/m) n1 n2 phi_{n1-1,n2-1},
    K -> (m/2) phi_{n1+1,n2+1}, 2iD -> hbar (n1+n2+1) phi,
    p_phi -> hbar (n1-n2) phi, and the first-order momentum and boost shifts
    p-: -2i hbar n1 phi_{n1-1,n2}, p+: -2i hbar n2 phi_{n1,n2-1},
    xi+: m phi_{n1+1,n2}, xi-: m phi_{n1,n2+1}.
    """
    if generator not in FREE_GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    m, hbar = units.m, units.hbar
    out: dict = {}

    def put(key, val):
        if val != 0:
            out[key] = out.get(key, 0.0) + val

    for (n1, n2), c in s.terms.items():
        if generator == "H":
            if n1 > 0 and n2 > 0:
                put((n1 - 1, n2 - 1), -(2 * hbar / m) * n1 * n2 * c)
        elif generator == "K":
            put((n1 + 1, n2 + 1), (m / 2) * c)
        elif generator == "D2i":
            put((n1, n2), hbar * (n1 + n2 + 1) * c)
        elif generator == "Pphi":
            put((n1, n2), hbar * (n1 - n2) * c)
        elif generator == "Pminus":
            if n1 > 0:
                put((n1 - 1, n2), -2j * hbar * n1 * c)
        elif generator == "Pplus":
            if n2 > 0:
                put((n1, n2 - 1), -2j * hbar * n2 * c)
        elif generator == "XiPlus":
            put((n1 + 1, n2), m * c)
        else:  # XiMinus
            put((n1, n2 + 1), m * c)
    return ZPolynomial(out)


def monomial_state(n1: int, n2: int) -> ZPolynomial:
    """phi_{n1,n2} = z^n1 zbar^n2."""
    if n1 < 0 or n2 < 0:
        raise ValueError("indices must be non-negative")
    return ZPolynomial.monomial(n1, n2)


# ---------------------------------------------------------------------------
# closed-form states


@dataclass(frozen=True)
class WaveState:
    """Polynomial-times-Gaussian closed form.

    Value at z is prefactor(z, zbar) * exp(exp_zzbar*z*zbar + exp_z*z
    + exp_zbar*zbar + exp_const).  Physical states need a decaying
    envelope: Re(exp_zzbar) < 0.
    """

    prefactor: ZPolynomial
    exp_zzbar: complex = -0.5
    exp_z: complex = 0.0
    exp_zbar: complex = 0.0
    exp_const: complex = 0.0
    units: Units = _UNIT

    @property
    def is_physical(self) -> bool:
        return complex(self.exp_zzbar).real < 0

    def evaluate(self, x1, x2) -> complex:
        z = complex(x1) + 1j * complex(x2)
        zb = z.conjugate()
        expo = self.exp_zzbar * z * zb + self.exp_z * z + self.exp_zbar * zb + self.exp_const
        return self.prefactor.at(z, zb) * np.exp(expo)

    def evaluate_grid(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        z = np.asarray(x1) + 1j * np.asarray(x2)
        zb = np.conj(z)
        expo = self.exp_zzbar * z * zb + self.exp_z * z + self.exp_zbar * zb + self.exp_const
        return self.prefactor.at(z, zb) * np.exp(expo)

    def _same_envelope(self, other: "WaveState") -> bool:
        """Every exponent coefficient agrees with ``other``'s to 1e-12."""
        return (
            abs(self.exp_zzbar - other.exp_zzbar) <= 1e-12
            and abs(self.exp_z - other.exp_z) <= 1e-12
            and abs(self.exp_zbar - other.exp_zbar) <= 1e-12
            and abs(self.exp_const - other.exp_const) <= 1e-12
        )

    def __add__(self, other: "WaveState") -> "WaveState":
        if not isinstance(other, WaveState):
            return NotImplemented
        if not self._same_envelope(other):
            raise ValueError("cannot add states with different exponents")
        return self.with_prefactor(self.prefactor + other.prefactor)

    def __sub__(self, other: "WaveState") -> "WaveState":
        return self + other.scale(-1.0)

    def scale(self, factor) -> "WaveState":
        return self.with_prefactor(self.prefactor.scale(factor))

    def with_prefactor(self, poly: ZPolynomial) -> "WaveState":
        return WaveState(
            poly, self.exp_zzbar, self.exp_z, self.exp_zbar, self.exp_const, self.units
        )

    def diff_z(self) -> "WaveState":
        # d/dz hits the polynomial and pulls down (exp_zzbar*zbar + exp_z)
        poly = (
            self.prefactor.diff_z()
            + self.prefactor.shift(0, 1).scale(self.exp_zzbar)
            + self.prefactor.scale(self.exp_z)
        )
        return self.with_prefactor(poly)

    def diff_zbar(self) -> "WaveState":
        poly = (
            self.prefactor.diff_zbar()
            + self.prefactor.shift(1, 0).scale(self.exp_zzbar)
            + self.prefactor.scale(self.exp_zbar)
        )
        return self.with_prefactor(poly)

    def mul_z(self) -> "WaveState":
        return self.with_prefactor(self.prefactor.shift(1, 0))

    def mul_zbar(self) -> "WaveState":
        return self.with_prefactor(self.prefactor.shift(0, 1))


def wave_distance(a: WaveState, b: WaveState) -> float:
    """Coefficient-level distance between two closed forms (same envelope)."""
    env = max(
        abs(a.exp_zzbar - b.exp_zzbar),
        abs(a.exp_z - b.exp_z),
        abs(a.exp_zbar - b.exp_zbar),
        abs(a.exp_const - b.exp_const),
    )
    diff = a.prefactor - b.prefactor
    scale = max(a.prefactor.max_abs(), b.prefactor.max_abs(), 1.0)
    return max(env, diff.max_abs() / scale)


# ---------------------------------------------------------------------------
# the bridge map


def cbt_apply(s: ZPolynomial, units: Units = _UNIT) -> WaveState:
    """Bridge a polynomial of (z, zbar) to a normalizable closed form.

    Composition, right to left: the dilation factor rescales each monomial
    by 2^((n1+n2+1)/2); the free-Hamiltonian exponential series terminates
    because H lowers both indices; the conformal factor multiplies by the
    Gaussian exp(-(m*omega/2*hbar) z zbar).
    """
    if not isinstance(s, ZPolynomial):
        raise ValueError("bridge input must be a ZPolynomial")
    graded = ZPolynomial(
        {key: c * 2.0 ** ((key[0] + key[1] + 1) / 2) for key, c in s.terms.items()}
    )
    total = graded
    term = graded
    k = 1
    denom = 2 * units.hbar * units.omega
    while not term.is_zero():
        term = act_free("H", term, units).scale(1.0 / (denom * k))
        total = total + term
        k += 1
    return WaveState(total, exp_zzbar=-units.gauss, units=units)


# ---------------------------------------------------------------------------
# circular ladder modes as differential operators


def apply_ladder(state: WaveState, mode: int, direction: str) -> WaveState:
    """Circular-mode ladder operator acting on a closed form.

    With s = sqrt(m*omega/(4*hbar)) and c = 2*hbar/(m*omega):
    b1- = s(zbar + c d/dz),  b1+ = s(z - c d/dzbar),
    b2- = s(z + c d/dzbar),  b2+ = s(zbar - c d/dz).
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    u = state.units
    amp = math.sqrt(u.m * u.omega / (4 * u.hbar))
    c = u.length_sq
    if mode == 1 and direction == "-":
        out = state.mul_zbar() + state.diff_z().scale(c)
    elif mode == 1 and direction == "+":
        out = state.mul_z() + state.diff_zbar().scale(-c)
    elif mode == 2 and direction == "-":
        out = state.mul_z() + state.diff_zbar().scale(c)
    else:
        out = state.mul_zbar() + state.diff_z().scale(-c)
    return out.scale(amp)


def hamiltonian_action(state: WaveState, coupling: Coupling) -> WaveState:
    """Apply hbar*omega*(l1 n1 + l2 n2 + 1) via ladder differential operators."""
    u = state.units
    l1, l2 = coupling.float_ells()
    n1 = apply_ladder(apply_ladder(state, 1, "-"), 1, "+")
    n2 = apply_ladder(apply_ladder(state, 2, "-"), 2, "+")
    return (n1.scale(l1) + n2.scale(l2) + state).scale(u.hbar * u.omega)


def angular_momentum_action(state: WaveState) -> WaveState:
    """Apply hbar*(n1 - n2) via ladder differential operators."""
    n1 = apply_ladder(apply_ladder(state, 1, "-"), 1, "+")
    n2 = apply_ladder(apply_ladder(state, 2, "-"), 2, "+")
    return (n1 - n2).scale(state.units.hbar)


def ground_state(units: Units = _UNIT) -> WaveState:
    """Normalized Gaussian ground state sqrt(m*omega/(pi*hbar)) e^{-m*omega*zzbar/(2 hbar)}."""
    norm = math.sqrt(units.m * units.omega / (math.pi * units.hbar))
    return WaveState(
        ZPolynomial.monomial(0, 0, norm), exp_zzbar=-units.gauss, units=units
    )


@lru_cache(maxsize=None)
def _eigenstate_cached(n1: int, n2: int, units: Units) -> WaveState:
    if n1 == 0 and n2 == 0:
        return ground_state(units)
    if n1 > 0:
        below = _eigenstate_cached(n1 - 1, n2, units)
        return apply_ladder(below, 1, "+").scale(1.0 / math.sqrt(n1))
    below = _eigenstate_cached(0, n2 - 1, units)
    return apply_ladder(below, 2, "+").scale(1.0 / math.sqrt(n2))


def eigenstate(n1: int, n2: int, units: Units = _UNIT) -> WaveState:
    """Normalized eigenfunction (b1+)^n1 (b2+)^n2 ground / sqrt(n1! n2!)."""
    if n1 < 0 or n2 < 0:
        raise ValueError("indices must be non-negative")
    return _eigenstate_cached(n1, n2, units)


def rotate(state: WaveState, gamma: float) -> WaveState:
    """Rotation generated by the angular momentum: z -> e^{i gamma} z.

    Monomial z^a zbar^b picks up e^{i gamma (a-b)}; the linear exponent
    coefficients co-rotate, the radial ones are invariant.
    """
    ph = complex(np.exp(1j * gamma))
    poly = ZPolynomial(
        {
            (a, b): c * ph ** (a - b)
            for (a, b), c in state.prefactor.terms.items()
        }
    )
    return WaveState(
        poly,
        state.exp_zzbar,
        state.exp_z * ph,
        state.exp_zbar / ph,
        state.exp_const,
        state.units,
    )


# ---------------------------------------------------------------------------
# quadrature inner products


@lru_cache(maxsize=None)
def _gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights of ``order``, computed once, read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _quadrature_grid(a: WaveState, b: WaveState, order: int):
    """(z, zbar, weight, lam) of the order-``order`` rule for conj(a) * b on the 2D node grid.

    The combined envelope exp(-lam z zbar) must decay; nodes are rescaled so it matches
    the Gauss-Hermite weight exactly, and the rule must integrate the prefactors' degree.
    """
    rate = (a.exp_zzbar.conjugate() + b.exp_zzbar)
    if abs(rate.imag) > 1e-12 or rate.real >= 0:
        raise ValueError("combined envelope does not decay")
    lam = -rate.real
    scale = math.sqrt(lam)
    nodes, weights = _gauss_hermite(order)
    deg = a.prefactor.degree() + b.prefactor.degree()
    if deg > 2 * order - 1:
        raise ValueError(
            f"quadrature order {order} insufficient for polynomial degree {deg}"
        )
    x = nodes / scale
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    z = x1 + 1j * x2
    w1, w2 = np.meshgrid(weights, weights, indexing="ij")
    return z, np.conj(z), w1 * w2, lam


def inner_product(a: WaveState, b: WaveState, order: int = 40) -> complex:
    """2D Gauss-Hermite quadrature of conj(a) * b.

    The combined envelope must decay; nodes are rescaled so the quadratic
    part matches the Gauss-Hermite weight exactly, and any residual linear
    exponent rides along as part of the integrand.
    """
    z, zb, weight, lam = _quadrature_grid(a, b, order)
    # polynomial parts and the leftover (linear + constant) exponent
    pa = np.conj(a.prefactor.at(z, zb))
    pb = b.prefactor.at(z, zb)
    lin = (
        (a.exp_z.conjugate() + b.exp_zbar) * zb
        + (a.exp_zbar.conjugate() + b.exp_z) * z
        + (a.exp_const.conjugate() + b.exp_const)
    )
    total = np.sum(weight * pa * pb * np.exp(lin))
    return complex(total / lam)


def orthonormality(
    n1: int, n2: int, l1: int, l2: int, units: Units = _UNIT, order: int = 40
) -> complex:
    """Quadrature overlap of eigenfunctions, indices in [0, 6]; Kronecker delta to 1e-8."""
    for idx in (n1, n2, l1, l2):
        if idx < 0 or idx > 6:
            raise ValueError(f"index {idx} outside [0, 6]")
    return inner_product(eigenstate(n1, n2, units), eigenstate(l1, l2, units), order)


def overlap_matrix(nmax: int, units: Units = _UNIT) -> np.ndarray:
    """Gram matrix of all eigenfunctions with n1, n2 <= nmax, by order-40 quadrature.

    The eigenfunctions share one Gaussian envelope and no linear exponent, so with P the
    prefactors on the node grid and W the weights the Gram matrix is P^H (W P) / lam.
    """
    states = [
        eigenstate(n1, n2, units)
        for n1 in range(nmax + 1)
        for n2 in range(nmax + 1)
    ]
    z, zb, weight, lam = _quadrature_grid(states[-1], states[-1], 40)  # the highest degree
    prefactors = np.stack([s.prefactor.at(z, zb).ravel() for s in states], axis=1)
    return prefactors.conj().T @ (weight.reshape(-1, 1) * prefactors) / lam


# ---------------------------------------------------------------------------
# bridge-vs-ladder proportionality


@dataclass(frozen=True)
class ProportionalityReport:
    n1: int
    n2: int
    constant: complex
    reduced_constant: complex
    spread: float
    points_used: int
    passed: bool


def verify_bridge_proportionality(n1: int, n2: int, units: Units = _UNIT) -> ProportionalityReport:
    """Pointwise ratio of the bridged monomial to the ladder eigenfunction.

    The ratio must be grid-constant (see :func:`grid_proportionality`);
    dividing by (2 hbar/(m omega))^((n1+n2)/2) sqrt(n1! n2!) gives a reduced
    constant that is the same for every (n1, n2).
    """
    bridged = cbt_apply(monomial_state(n1, n2), units)
    ladder_state = eigenstate(n1, n2, units)
    expected = units.length_sq ** ((n1 + n2) / 2) * math.sqrt(
        math.factorial(n1) * math.factorial(n2)
    )
    return grid_proportionality(
        n1, n2, bridged.evaluate_grid, ladder_state.evaluate_grid, expected)


def grid_proportionality(n1: int, n2: int, phi, psi, expected) -> ProportionalityReport:
    """Grid-constancy of phi/psi, both evaluated on meshgrid arrays.

    The grid has 21 x 21 points on [-3, 3]^2 and skips the nodal points
    |psi| <= 1e-6; it passes when max |ratio - mean| <= 1e-9 |mean|.  The
    reduced constant is the mean ratio divided by ``expected``.
    """
    xs = np.linspace(-3.0, 3.0, 21)
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    psi_vals = psi(x1, x2)
    phi_vals = phi(x1, x2)
    keep = np.abs(psi_vals) > 1e-6
    ratios = phi_vals[keep] / psi_vals[keep]
    mean = np.mean(ratios)
    spread = float(np.max(np.abs(ratios - mean)) / abs(mean))
    return ProportionalityReport(
        n1=n1,
        n2=n2,
        constant=complex(mean),
        reduced_constant=complex(mean / expected),
        spread=spread,
        points_used=int(np.count_nonzero(keep)),
        passed=bool(spread <= 1e-9),
    )


# ---------------------------------------------------------------------------
# inverse Weierstrass transform


@dataclass(frozen=True)
class WeierstrassReport:
    n: int
    series: dict
    scaled_hermite: dict
    passed: bool


def _hermite_coeffs(n: int) -> dict:
    """Integer coefficient maps of the physicists' Hermite polynomials."""
    h_prev = {0: Fraction(1)}
    if n == 0:
        return h_prev
    h_cur = {1: Fraction(2)}
    for k in range(1, n):
        nxt: dict = {}
        for p, c in h_cur.items():
            nxt[p + 1] = nxt.get(p + 1, Fraction(0)) + 2 * c
        for p, c in h_prev.items():
            nxt[p] = nxt.get(p, Fraction(0)) - 2 * k * c
        h_prev, h_cur = h_cur, {p: c for p, c in nxt.items() if c}
    return h_cur


def inverse_weierstrass(n: int) -> WeierstrassReport:
    """Exact identity e^{-(1/4) d^2/d eta^2} eta^n = 2^{-n} H_n(eta).

    The left side is the finite series sum_k (-1/4)^k/k! * n!/(n-2k)!
    eta^(n-2k) with exact rational coefficients; the right side uses the
    Hermite recursion.  Equality is exact, not approximate.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    series: dict = {}
    for k in range(n // 2 + 1):
        coeff = (
            Fraction(-1, 4) ** k
            * Fraction(math.factorial(n), math.factorial(k) * math.factorial(n - 2 * k))
        )
        if coeff:
            series[n - 2 * k] = coeff
    scaled = {
        p: c / Fraction(2) ** n for p, c in _hermite_coeffs(n).items()
    }
    return WeierstrassReport(n=n, series=series, scaled_hermite=scaled, passed=series == scaled)


# ---------------------------------------------------------------------------
# coherent states


def _label_weight(alpha: complex, beta: complex) -> float:
    """|alpha|^2 + |beta|^2; ValueError when it leaves the float range."""
    try:
        return abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        raise ValueError(f"coherent labels {alpha}, {beta}: |alpha|^2 + |beta|^2 "
                         "exceeds the float range") from None


def coherent_state(alpha: complex, beta: complex, units: Units = _UNIT) -> WaveState:
    """Normalized joint eigenstate of the two lowering operators.

    Phi proportional to exp(-(m omega/2 hbar) z zbar + alpha z + beta zbar
    - (hbar/m omega) alpha beta); eigenvalues sqrt(hbar/(m omega)) alpha
    and sqrt(hbar/(m omega)) beta for modes 1 and 2.  Labels whose
    |alpha|^2 + |beta|^2 overflows raise ValueError.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    ratio = units.hbar / (units.m * units.omega)
    norm_log = -(ratio / 2) * _label_weight(alpha, beta)
    amp = math.sqrt(units.m * units.omega / (math.pi * units.hbar))
    return WaveState(
        ZPolynomial.monomial(0, 0, amp),
        exp_zzbar=-units.gauss,
        exp_z=alpha,
        exp_zbar=beta,
        exp_const=norm_log - ratio * alpha * beta,
        units=units,
    )


def coherent_eigenvalues(alpha: complex, beta: complex, units: Units = _UNIT):
    root = math.sqrt(units.hbar / (units.m * units.omega))
    return root * complex(alpha), root * complex(beta)


def expansion_coefficient(
    alpha: complex, beta: complex, n1: int, n2: int, units: Units = _UNIT
) -> complex:
    """Closed-form overlap of the coherent state with eigenstate (n1, n2).

    0 once the vacuum factor underflows, without forming lambda^n.
    """
    lam1, lam2 = coherent_eigenvalues(alpha, beta, units)
    ratio = units.hbar / (units.m * units.omega)
    vacuum = math.exp(-(ratio / 2) * _label_weight(alpha, beta))
    if vacuum == 0.0:
        return 0j
    return (
        lam1**n1
        * lam2**n2
        / math.sqrt(math.factorial(n1) * math.factorial(n2))
        * vacuum
    )


def coherent_checks(
    alpha: complex,
    beta: complex,
    t: float,
    gamma: float,
    coupling: Coupling = Coupling(0),
    units: Units = _UNIT,
    cutoff: int = 30,
) -> VerificationReport:
    """Eigenvalue, evolution, truncation and rotation contracts for one
    coherent state.

    Evolution is checked by expanding over eigenstates, phasing each term by
    its exact level, resumming, and comparing on sample points against the
    closed form with mapped labels (alpha, beta) ->
    (alpha e^{-i omega l1 t}, beta e^{-i omega l2 t}) times the zero-point
    phase.  Rotation by gamma maps (alpha, beta) -> (alpha e^{i gamma},
    beta e^{-i gamma}) and is compared coefficient-by-coefficient.  The
    truncation row holds the expansion weight sum |c_{n1,n2}|^2 over
    n1 + n2 <= cutoff to 1, so an expansion that is cut short or underflows
    fails instead of passing at residual 0.  ``cutoff`` above 170 raises
    ValueError: 171! exceeds the float range.

    The evolution row also measures the float rounding of the level phases,
    about eps*omega*max|l|*cutoff*|t|: at g = 1/3 and the suite's labels it
    reads 1.2e-12 at |t| = 1e4 and 1.4e-10 at 1e6, so it fails by design from
    |t| ~ 1e6.  A largest phase omega*(max|l|*cutoff + 1)*|t| past the float
    range, or an ell past it, raises ValueError.
    """
    if cutoff > 170:
        raise ValueError(f"cutoff {cutoff} above 170: 171! exceeds the float range")
    l1f, l2f = coupling.float_ells()
    reach = max(abs(l1f), abs(l2f)) * cutoff + 1
    if not math.isfinite(units.omega * reach * abs(t)):
        raise ValueError(f"time {t}: the evolution phase leaves the float range")
    report = VerificationReport(suite="coherent-checks")
    state = coherent_state(alpha, beta, units)
    lam1, lam2 = coherent_eigenvalues(alpha, beta, units)
    norm = math.sqrt(abs(inner_product(state, state).real))

    for mode, lam in ((1, lam1), (2, lam2)):
        resid_state = apply_ladder(state, mode, "-") - state.scale(lam)
        resid = math.sqrt(abs(inner_product(resid_state, resid_state).real)) / max(
            norm, 1e-300
        )
        report.add(CheckRow.within(f"coherent-eigenvalue-b{mode}",
                                   f"b{mode}- Phi = lambda{mode} Phi", resid, 1e-10))

    # time evolution via the eigenstate expansion
    omega = units.omega
    alpha_t = alpha * np.exp(-1j * omega * l1f * t)
    beta_t = beta * np.exp(-1j * omega * l2f * t)
    target = coherent_state(alpha_t, beta_t, units)
    pts = [(x, y) for x in (-1.1, 0.3, 0.9) for y in (-0.7, 0.2, 1.3)]
    evolved = np.zeros(len(pts), dtype=complex)
    weight = 0.0  # sum of |c|^2 over the cutoff triangle, skipped terms included
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1 - n1):
            coeff = expansion_coefficient(alpha, beta, n1, n2, units)
            weight += abs(coeff) ** 2
            if abs(coeff) < 1e-18:
                continue
            phase = np.exp(-1j * omega * (l1f * n1 + l2f * n2 + 1) * t)
            psi = eigenstate(n1, n2, units)
            evolved += coeff * phase * np.array([psi.evaluate(*p) for p in pts])
    # the expansion carries the zero-point phase exp(-i omega t) on top of
    # the label map, since every level includes the +1
    closed = np.exp(-1j * omega * t) * np.array([target.evaluate(*p) for p in pts])
    scale = max(np.max(np.abs(closed)), 1e-300)
    report.add(CheckRow.within(
        "coherent-evolution",
        "exp(-itH/hbar) Phi(a,b) = Phi(a e^{-i w l1 t}, b e^{-i w l2 t})",
        np.max(np.abs(evolved - closed)) / scale, 1e-10))
    # the coefficients are normalized, so a weight short of 1 is expansion
    # lost past the cutoff or to underflow, which the evolution row cannot see
    report.add(CheckRow.within("coherent-truncation",
                               "retained expansion weight = 1 within 1e-10",
                               abs(1.0 - weight), 1e-10))

    # rotation as an exact label map
    rotated = rotate(state, gamma)
    target_rot = coherent_state(
        alpha * np.exp(1j * gamma), beta * np.exp(-1j * gamma), units
    )
    report.add(CheckRow.within("coherent-rotation",
                               "R(gamma) Phi(a,b) = Phi(a e^{i gamma}, b e^{-i gamma})",
                               wave_distance(rotated, target_rot), 1e-12))
    return report


def suite_bridge(config) -> VerificationReport:
    """Bridge eigenfunctions, overlaps, Weierstrass identity, coherent states.

    Reads ``config.units`` and ``config.tol_quad``.
    """
    report = VerificationReport(suite="bridge")
    report.extend(verify_one_mode_bridge(size=11))
    report.extend(verify_quantum_bridge(cutoff=10))

    units = config.units
    reduced = []
    for n1, n2 in ((0, 0), (1, 0), (2, 1), (3, 3)):
        rep = verify_bridge_proportionality(n1, n2, units)
        reduced.append(rep.reduced_constant)
        report.add(CheckRow(
            check_id=f"proportionality:{n1}{n2}",
            identity="bridged monomial is grid-proportional to the eigenfunction",
            passed=rep.passed,
            residual=rep.spread,
        ))
    base = reduced[0]
    report.add(CheckRow.within(
        "reduced-constant", "reduced proportionality constant is state-independent",
        max(abs(c - base) / abs(base) for c in reduced), 1e-9))

    overlap = overlap_matrix(3, units)
    report.add(CheckRow.within(
        "overlap-identity", "eigenfunction Gram matrix = identity by quadrature",
        np.max(np.abs(overlap - np.eye(overlap.shape[0]))), config.tol_quad))

    report.add(CheckRow(
        check_id="inverse-weierstrass",
        identity="exp(-(1/4) d^2) eta^n = 2^-n H_n(eta) exactly for n <= 10",
        passed=all(inverse_weierstrass(n).passed for n in range(11)),
    ))

    coherent = coherent_checks(
        complex(0.8, -0.5), complex(0.4, 0.7), t=0.9, gamma=2.1,
        coupling=Coupling(Fraction(1, 2)), units=units, cutoff=24,
    )
    report.extend(coherent.rows)
    return report
