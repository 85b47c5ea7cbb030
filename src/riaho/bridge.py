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
import functools
import math
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coupling import Coupling
from .fockeng import hermite_rows, verify_one_mode_bridge, verify_quantum_bridge
from .phasealg.cbt import _exp_series
from .phasealg.exact import _sample, require_choice, require_complex, require_int, require_real
from .reports import FAMILIES, VerificationReport, check

__all__ = [
    "Units",
    "ZPolynomial",
    "WaveState",
    "act_free",
    "cbt_apply",
    "apply_ladder",
    "hamiltonian_action",
    "angular_momentum_action",
    "ground_state",
    "eigenstate",
    "rotate",
    "wave_distance",
    "inner_product",
    "overlap_matrix",
    "ProportionalityReport",
    "verify_bridge_proportionality",
    "grid_proportionality",
    "WeierstrassReport",
    "inverse_weierstrass",
    "coherent_state",
    "coherent_eigenvalues",
    "evolved_labels",
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
        for name in ("m", "omega", "hbar"):
            object.__setattr__(self, name, require_real(getattr(self, name), name, positive=True))
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
_QUAD_TOL = FAMILIES["overlap-identity"].tol  # the most a quadrature norm or overlap may stray


def _number(value):
    """complex(value) of a number, numpy's among them; None for a str or bool (numpy's too),
    which complex() would parse, and for anything else."""
    try:
        return None if isinstance(value, (str, bool, np.bool_)) else complex(value)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class ZPolynomial:
    """Complex polynomial in (z, zbar) as a pruned term map (n1, n2) -> finite coeff."""

    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.terms, dict):
            raise ValueError(f"terms {self.terms!r} is not a dict")
        clean = {}
        for key, coeff in self.terms.items():
            if type(key) is not tuple or len(key) != 2:  # a set or range unpacked as a pair
                raise ValueError(f"bad exponents {key!r}")
            n1, n2 = key
            if not (type(n1) is int and type(n2) is int) or n1 < 0 or n2 < 0:  # no bools
                raise ValueError(f"bad exponents ({n1}, {n2})")
            c = _number(coeff)
            if c is None:
                raise ValueError(f"coefficient {coeff!r} of z^{n1} zbar^{n2} is not a number")
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient of z^{n1} zbar^{n2} is not finite ({c})")
            if c != 0:
                clean[(n1, n2)] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def monomial(n1: int, n2: int, coeff=1.0) -> "ZPolynomial":
        """coeff z^n1 zbar^n2 (the monomial state phi_{n1,n2} at coeff 1); an n1 or n2 that
        is not an int >= 0 raises ValueError."""
        return ZPolynomial({(require_int(n1, "n1"), require_int(n2, "n2")): coeff})

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
        """factor times the polynomial; ValueError for a factor that is not a number (str, bool)."""
        number = _number(factor)
        if number is None:
            raise ValueError(f"factor {factor!r} is not a number")
        return ZPolynomial({k: number * c for k, c in self.terms.items()})

    def shift(self, d1: int, d2: int) -> "ZPolynomial":
        """Multiply by z^d1 zbar^d2; a d1 or d2 that is not an int raises ValueError."""
        d1, d2 = require_int(d1, "d1", None), require_int(d2, "d2", None)
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
        return _values_at((self,), u, v)[0]

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


def _values_at(polys, u, v) -> list:
    """[p.at(u, v) for p in polys], with each power u**k and v**k formed once for all of them
    and only for the exponents present; each term is still c * u**n1 * v**n2, summed in the
    terms' order, so every value is the same to the bit as a term-by-term sum."""
    u_pow = {n1: u**n1 for n1 in {n1 for p in polys for n1, _ in p.terms}}
    v_pow = {n2: v**n2 for n2 in {n2 for p in polys for _, n2 in p.terms}}
    shape = np.broadcast(u, v).shape
    values = []
    for p in polys:
        total = np.zeros(shape, dtype=complex) if shape else 0j  # scalars stay Python complex
        for (n1, n2), c in p.terms.items():
            total += c * u_pow[n1] * v_pow[n2]
        values.append(total)
    return values


# generator -> (index shift, coefficient(n1, n2, m, hbar)) of its action on phi_{n1,n2}
_FREE_ACTIONS = {
    "H": ((-1, -1), lambda n1, n2, m, hbar: -(2 * hbar * hbar / m) * n1 * n2),
    "K": ((1, 1), lambda n1, n2, m, hbar: m / 2),
    "D2i": ((0, 0), lambda n1, n2, m, hbar: hbar * (n1 + n2 + 1)),
    "Pphi": ((0, 0), lambda n1, n2, m, hbar: hbar * (n1 - n2)),
    "Pplus": ((0, -1), lambda n1, n2, m, hbar: -2j * hbar * n2),
    "Pminus": ((-1, 0), lambda n1, n2, m, hbar: -2j * hbar * n1),
    "XiPlus": ((1, 0), lambda n1, n2, m, hbar: m),
    "XiMinus": ((0, 1), lambda n1, n2, m, hbar: m),
}


def act_free(generator: str, s: ZPolynomial, units: Units = _UNIT) -> ZPolynomial:
    """Free-particle generator action on polynomials of (z, zbar).

    Per monomial phi_{n1,n2}: H = -(hbar^2/2m) 4 d_z d_zbar -> -(2*hbar^2/m) n1 n2 phi_{n1-1,n2-1},
    K -> (m/2) phi_{n1+1,n2+1}, 2iD -> hbar (n1+n2+1) phi,
    p_phi -> hbar (n1-n2) phi, and the first-order momentum and boost shifts
    p-: -2i hbar n1 phi_{n1-1,n2}, p+: -2i hbar n2 phi_{n1,n2-1},
    xi+: m phi_{n1+1,n2}, xi-: m phi_{n1,n2+1}.  A lowering shift carries
    the vanishing factor n_i, so no term leaves the non-negative indices.
    """
    (d1, d2), coeff = _FREE_ACTIONS[require_choice(generator, "generator", _FREE_ACTIONS)]
    out = {(n1 + d1, n2 + d2): coeff(n1, n2, units.m, units.hbar) * c
           for (n1, n2), c in s.terms.items()}
    return ZPolynomial({key: c for key, c in out.items() if c != 0})


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

    def evaluate(self, x1, x2):
        """Value at (x1, x2): a complex for scalars (through require_real), an array of the
        broadcast shape for arrays or sequences, sampled as given."""
        z = np.asarray(_sample(x1, "x1")) + 1j * np.asarray(_sample(x2, "x2"))
        zb = np.conj(z)
        out = self.prefactor.at(z, zb) * self._envelope(z, zb)
        return out if np.ndim(out) else complex(out)

    evaluate_grid = evaluate

    def _envelope(self, z, zb):
        """The Gaussian factor exp(exp_zzbar*z*zbar + exp_z*z + exp_zbar*zbar + exp_const)."""
        expo = self.exp_zzbar * z * zb + self.exp_z * z + self.exp_zbar * zb + self.exp_const
        return np.exp(expo)

    def _exponents(self) -> tuple:
        return self.exp_zzbar, self.exp_z, self.exp_zbar, self.exp_const

    def __add__(self, other: "WaveState") -> "WaveState":
        if not isinstance(other, WaveState):
            return NotImplemented
        if not _envelope_gap(self, other) <= 1e-12:  # a nan gap raises too
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


def _envelope_gap(a: WaveState, b: WaveState) -> float:
    """Largest gap between the four exponent coefficients of a and b; nan if any gap is nan."""
    return float(np.max([abs(x - y) for x, y in zip(a._exponents(), b._exponents())]))


def wave_distance(a: WaveState, b: WaveState) -> float:
    """Coefficient-level distance between two closed forms (same envelope)."""
    diff = a.prefactor - b.prefactor
    scale = max(a.prefactor.max_abs(), b.prefactor.max_abs(), 1.0)
    return max(_envelope_gap(a, b), diff.max_abs() / scale)


# ---------------------------------------------------------------------------
# the bridge map


def _float_range(fn):
    """``fn`` with an OverflowError of its float arithmetic turned into ValueError."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            raise ValueError(f"{fn.__name__}: a coefficient leaves the float range") from None

    return checked


def _graded_series(terms: dict, step) -> ZPolynomial:
    """e^X of the terms (n1, n2) -> c each graded by 2^((n1+n2+1)/2), by the one series kernel
    :func:`riaho.phasealg.cbt._exp_series`; a grading past the float range raises OverflowError."""
    graded = ZPolynomial({key: c * 2.0 ** ((key[0] + key[1] + 1) / 2) for key, c in terms.items()})
    return _exp_series(graded, step)


@_float_range
def cbt_apply(s: ZPolynomial, units: Units = _UNIT) -> WaveState:
    """Bridge a polynomial of (z, zbar) to a normalizable closed form.

    Composition, right to left: the dilation factor rescales each monomial
    by 2^((n1+n2+1)/2); the free-Hamiltonian exponential series terminates
    because H lowers both indices; the conformal factor multiplies by the
    Gaussian exp(-(m*omega/2*hbar) z zbar).  The grading and series are :func:`_graded_series`,
    as in :func:`riaho.aniso.aniso_cbt_apply`; a coefficient past the float range raises ValueError.
    """
    if not isinstance(s, ZPolynomial):
        raise ValueError("bridge input must be a ZPolynomial")
    denom = 2 * units.hbar * units.omega
    series = _graded_series(
        s.terms, lambda term, k: act_free("H", term, units).scale(1.0 / (denom * k)))
    return WaveState(series, exp_zzbar=-units.gauss, units=units)


# ---------------------------------------------------------------------------
# circular ladder modes as differential operators


def apply_ladder(state: WaveState, mode: int, direction: str) -> WaveState:
    """Circular-mode ladder operator acting on a closed form.

    With s = sqrt(m*omega/(4*hbar)) and c = 2*hbar/(m*omega):
    b1- = s(zbar + c d/dz),  b1+ = s(z - c d/dzbar),
    b2- = s(z + c d/dzbar),  b2+ = s(zbar - c d/dz).
    One rule: b1- and b2+ pair zbar with d/dz, b1+ and b2- pair z with
    d/dzbar, and the derivative enters with + for lowering, - for raising.
    """
    require_int(mode, "mode", 1, 2)
    require_choice(direction, "direction", ("+", "-"))
    u = state.units
    amp = math.sqrt(u.m * u.omega / (4 * u.hbar))
    c = u.length_sq if direction == "-" else -u.length_sq
    p = state.prefactor
    if (mode == 1) == (direction == "-"):  # zbar with d/dz
        times, deriv, lin = p.shift(0, 1), p.diff_z(), state.exp_z
    else:  # z with d/dzbar
        times, deriv, lin = p.shift(1, 0), p.diff_zbar(), state.exp_zbar
    # the derivative hits the polynomial and pulls down exp_zzbar * (paired variable) + lin
    pulled = deriv + times.scale(state.exp_zzbar) + p.scale(lin)
    return state.with_prefactor((times + pulled.scale(c)).scale(amp))


def _number_actions(state: WaveState) -> tuple[WaveState, WaveState]:
    """(n1 state, n2 state) with n_i = b_i+ b_i- as ladder differential operators."""
    return tuple(apply_ladder(apply_ladder(state, mode, "-"), mode, "+") for mode in (1, 2))


def hamiltonian_action(state: WaveState, coupling: Coupling) -> WaveState:
    """Apply hbar*omega*(l1 n1 + l2 n2 + 1) via ladder differential operators."""
    u = state.units
    l1, l2 = coupling.float_ells()
    n1, n2 = _number_actions(state)
    return (n1.scale(l1) + n2.scale(l2) + state).scale(u.hbar * u.omega)


def angular_momentum_action(state: WaveState) -> WaveState:
    """Apply hbar*(n1 - n2) via ladder differential operators."""
    n1, n2 = _number_actions(state)
    return (n1 - n2).scale(state.units.hbar)


def ground_state(units: Units = _UNIT) -> WaveState:
    """Normalized Gaussian ground state sqrt(m*omega/(pi*hbar)) e^{-m*omega*zzbar/(2 hbar)}."""
    norm = math.sqrt(units.m * units.omega / (math.pi * units.hbar))
    return WaveState(
        ZPolynomial.monomial(0, 0, norm), exp_zzbar=-units.gauss, units=units
    )


_EIGENSTATES: dict[tuple[int, int, Units], WaveState] = {}


def eigenstate(n1: int, n2: int, units: Units = _UNIT) -> WaveState:
    """Normalized eigenfunction (b1+)^n1 (b2+)^n2 ground / sqrt(n1! n2!), climbed and cached
    up the chain (0, 0) -> (0, n2) -> (n1, n2); ValueError for an index that is not an int >= 0
    and once a term underflows."""
    todo, key = [], (require_int(n1, "n1"), require_int(n2, "n2"), units)
    if (0, 0, units) not in _EIGENSTATES:
        _EIGENSTATES[0, 0, units] = ground_state(units)
    while key not in _EIGENSTATES:  # walk down to the nearest cached state, then climb back
        todo.append(key)
        key = (key[0] - 1, n2, units) if key[0] > 0 else (0, key[1] - 1, units)
    state = _EIGENSTATES[key]
    for k1, k2, _ in reversed(todo):
        mode, n = (1, k1) if k1 > 0 else (2, k2)
        state = apply_ladder(state, mode, "+").scale(1.0 / math.sqrt(n))
        coeffs = [abs(c) for c in state.prefactor.terms.values()]
        # the min(k1, k2) + 1 terms z^(k1-j) zbar^(k2-j) stay present and normal
        if len(coeffs) != min(k1, k2) + 1 or min(coeffs) < np.finfo(float).smallest_normal:
            raise ValueError(f"eigenstate ({k1}, {k2}) leaves the float range: a term underflows")
        _EIGENSTATES[k1, k2, units] = state
    return state


def rotate(state: WaveState, gamma: float) -> WaveState:
    """Rotation generated by the angular momentum: z -> e^{i gamma} z.

    Monomial z^a zbar^b picks up e^{i gamma (a-b)}; the linear exponent
    coefficients co-rotate, the radial ones are invariant.  A gamma that is
    not a finite real raises ValueError.
    """
    gamma = require_real(gamma, "gamma")
    ph = complex(np.exp(1j * gamma))
    poly = ZPolynomial({(a, b): c * ph ** (a - b) for (a, b), c in state.prefactor.terms.items()})
    return replace(state, prefactor=poly, exp_z=state.exp_z * ph, exp_zbar=state.exp_zbar / ph)


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


@np.errstate(over="ignore", invalid="ignore")
def inner_product(a: WaveState, b: WaveState) -> complex:
    """2D Gauss-Hermite quadrature of conj(a) * b.

    The combined envelope must decay; nodes are rescaled so the quadratic part matches the
    Gauss-Hermite weight exactly, and any residual linear exponent rides along as part of the
    integrand.  The order max(40, (deg a + deg b)//2 + 1) integrates the prefactors' product
    exactly.  A sum past the float range raises ValueError.
    """
    order = max(40, (a.prefactor.degree() + b.prefactor.degree()) // 2 + 1)
    z, zb, weight, lam = _quadrature_grid(a, b, order)
    # polynomial parts and the leftover (linear + constant) exponent
    pa = np.conj(a.prefactor.at(z, zb))
    pb = b.prefactor.at(z, zb)
    lin = (
        (a.exp_z.conjugate() + b.exp_zbar) * zb
        + (a.exp_zbar.conjugate() + b.exp_z) * z
        + (a.exp_const.conjugate() + b.exp_const)
    )
    total = complex(np.sum(weight * pa * pb * np.exp(lin)) / lam)
    if not cmath.isfinite(total):
        raise ValueError(f"the order-{order} quadrature leaves the float range")
    return total


def overlap_matrix(nmax: int, units: Units = _UNIT) -> np.ndarray:
    """Gram matrix of all eigenfunctions with n1, n2 <= nmax, by order-40 quadrature.

    The eigenfunctions share one Gaussian envelope and no linear exponent, so with P the
    prefactors on the node grid and W the weights the Gram matrix is P^H (W P) / lam.
    The order-40 rule integrates degree <= 79 exactly and the highest product has degree
    4 nmax, so nmax is at most 19; nmax 20 and above raise ValueError ("quadrature order
    40 insufficient"), as does an nmax that is not a non-negative int.
    """
    require_int(nmax, "nmax")
    states = [
        eigenstate(n1, n2, units)
        for n1 in range(nmax + 1)
        for n2 in range(nmax + 1)
    ]
    z, zb, weight, lam = _quadrature_grid(states[-1], states[-1], 40)  # the highest degree
    prefactors = np.stack(
        [p.ravel() for p in _values_at([s.prefactor for s in states], z, zb)], axis=1)
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


@_float_range
def verify_bridge_proportionality(n1: int, n2: int, units: Units = _UNIT) -> ProportionalityReport:
    """Pointwise ratio of the bridged monomial to the ladder eigenfunction.

    The ratio must be grid-constant (see :func:`grid_proportionality`);
    dividing by (2 hbar/(m omega))^((n1+n2)/2) sqrt(n1! n2!) gives a reduced
    constant that is the same for every (n1, n2).  A divisor past the float range raises ValueError.
    """
    bridged = cbt_apply(ZPolynomial.monomial(n1, n2), units)
    ladder_state = eigenstate(n1, n2, units)
    expected = units.length_sq ** ((n1 + n2) / 2) * math.sqrt(
        math.factorial(n1) * math.factorial(n2)
    )
    return grid_proportionality(
        n1, n2, bridged.evaluate, ladder_state.evaluate, expected)


def grid_proportionality(n1: int, n2: int, phi, psi, expected) -> ProportionalityReport:
    """Grid-constancy of phi/psi, both evaluated on meshgrid arrays.

    The grid has 21 x 21 points on [-3, 3]^2 and skips the nodal points |psi| <= 1e-6; the
    spread is max |ratio - mean| / |mean|, which ``check("proportionality:...", spread)``
    holds to its family's tolerance.  The reduced constant is the mean ratio divided by
    ``expected``.  ValueError when no grid point clears the nodal floor, for an n1 or n2 (the
    report's labels) that is not an int >= 0, or an ``expected`` that is not a positive finite real.
    """
    n1, n2 = require_int(n1, "n1"), require_int(n2, "n2")
    expected = require_real(expected, "expected", positive=True)
    xs = np.linspace(-3.0, 3.0, 21)
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    psi_vals = psi(x1, x2)
    phi_vals = phi(x1, x2)
    keep = np.abs(psi_vals) > 1e-6
    if not keep.any():
        raise ValueError(f"({n1}, {n2}): no grid point has |psi| > 1e-6")
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
    )


# ---------------------------------------------------------------------------
# inverse Weierstrass transform


@dataclass(frozen=True)
class WeierstrassReport:
    n: int
    series: dict
    scaled_hermite: dict
    passed: bool


def inverse_weierstrass(n: int) -> WeierstrassReport:
    """Exact identity e^{-(1/4) d^2/d eta^2} eta^n = 2^{-n} H_n(eta).

    The left side is the finite series sum_k (-1/4)^k/k! * n!/(n-2k)!
    eta^(n-2k) with exact rational coefficients; the right side is the last
    row of :func:`~riaho.fockeng.hermite_rows`.  Equality is exact, not approximate.
    An n that is not an int >= 0 raises ValueError.
    """
    require_int(n, "n")
    series: dict = {}
    for k in range(n // 2 + 1):
        coeff = (
            Fraction(-1, 4) ** k
            * Fraction(math.factorial(n), math.factorial(k) * math.factorial(n - 2 * k))
        )
        if coeff:
            series[n - 2 * k] = coeff
    top = deque(hermite_rows(n), maxlen=1).pop()
    scaled = {p: Fraction(c, 2**n) for p, c in enumerate(top) if c}
    return WeierstrassReport(n=n, series=series, scaled_hermite=scaled, passed=series == scaled)


# ---------------------------------------------------------------------------
# coherent states


def _label_weight(alpha: complex, beta: complex) -> float:
    """|alpha|^2 + |beta|^2; ValueError for a non-finite label or a weight past the float range."""
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"coherent labels {alpha}, {beta} must be finite")
    try:
        return abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        raise ValueError(f"coherent labels {alpha}, {beta}: |alpha|^2 + |beta|^2 "
                         "exceeds the float range") from None


def coherent_state(alpha: complex, beta: complex, units: Units = _UNIT) -> WaveState:
    """Normalized joint eigenstate of the two lowering operators.

    Phi proportional to exp(-(m omega/2 hbar) z zbar + alpha z + beta zbar
    - (hbar/m omega) alpha beta); eigenvalues sqrt(hbar/(m omega)) alpha
    and sqrt(hbar/(m omega)) beta for modes 1 and 2.  Labels that are not
    finite or whose |alpha|^2 + |beta|^2 overflows raise ValueError.
    """
    alpha, beta = require_complex(alpha, "alpha"), require_complex(beta, "beta")
    ratio = units.hbar / (units.m * units.omega)
    norm_log = -(ratio / 2) * _label_weight(alpha, beta)
    return replace(ground_state(units), exp_z=alpha, exp_zbar=beta,
                   exp_const=norm_log - ratio * alpha * beta)


def coherent_eigenvalues(alpha: complex, beta: complex, units: Units = _UNIT):
    """sqrt(hbar/(m omega)) (alpha, beta); a label that is not a finite number raises ValueError."""
    alpha, beta = require_complex(alpha, "alpha"), require_complex(beta, "beta")
    root = math.sqrt(units.hbar / (units.m * units.omega))
    return root * alpha, root * beta


def evolved_labels(alpha: complex, beta: complex, t: float, coupling: Coupling,
                   units: Units = _UNIT) -> tuple[complex, complex]:
    """Coherent labels after time t: (alpha e^{-i omega l1 t}, beta e^{-i omega l2 t}).

    exp(-itH/hbar) maps Phi(alpha, beta) to this pair's state times the zero-point
    phase e^{-i omega t}.  A label that is not a finite number, or a t that is not a finite
    real, raises ValueError.
    """
    alpha, beta = require_complex(alpha, "alpha"), require_complex(beta, "beta")
    t = require_real(t, "t")
    l1, l2 = coupling.float_ells()
    return (alpha * complex(np.exp(-1j * units.omega * l1 * t)),
            beta * complex(np.exp(-1j * units.omega * l2 * t)))


def expansion_coefficient(
    alpha: complex, beta: complex, n1: int, n2: int, units: Units = _UNIT
) -> complex:
    """Closed-form overlap of the coherent state with eigenstate (n1, n2).

    0 once the vacuum factor underflows, without forming lambda^n; ValueError
    when lambda^n or sqrt(n1! n2!) leaves the float range, for a label that is not a
    finite number, or for an n1 or n2 that is not an int >= 0.
    """
    return _coefficients(alpha, beta, units)(require_int(n1, "n1"), require_int(n2, "n2"))


def _coefficients(alpha: complex, beta: complex, units: Units):
    """(n1, n2) -> :func:`expansion_coefficient` of one coherent state, indices unchecked."""
    lam1, lam2 = coherent_eigenvalues(alpha, beta, units)
    ratio = units.hbar / (units.m * units.omega)
    vacuum = math.exp(-(ratio / 2) * _label_weight(alpha, beta))

    def coefficient(n1: int, n2: int) -> complex:
        if vacuum == 0.0:
            return 0j
        try:
            return lam1**n1 * lam2**n2 / math.sqrt(math.factorial(n1) * math.factorial(n2)) * vacuum
        except OverflowError:
            raise ValueError(f"expansion coefficient ({n1}, {n2}) leaves the float range") from None

    return coefficient


def _evolved_expansion(alpha: complex, beta: complex, t: float, ells: tuple[float, float],
                       units: Units, cutoff: int, x1: np.ndarray, x2: np.ndarray):
    """(sum of c_{n1,n2} e^{-i omega (l1 n1 + l2 n2 + 1) t} psi_{n1,n2} at the sample arrays
    (x1, x2), sum of |c_{n1,n2}|^2) over n1 + n2 <= cutoff, in (n1, n2) order.

    A term with |c| < 1e-18 is left out of the sum but counted in the weight.  The kept
    eigenstates must share one Gaussian envelope (ValueError otherwise): it and the powers
    of z and zbar are formed once, and each term is added as coeff * phase * (prefactor *
    envelope), the same bits as coeff * phase * psi_{n1,n2}.evaluate(x1, x2).
    """
    l1, l2 = ells
    coefficient = _coefficients(alpha, beta, units)
    weight = 0.0  # sum of |c|^2 over the cutoff triangle, skipped terms included
    terms = []  # (coefficient, level phase, eigenstate) of each kept term
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1 - n1):
            coeff = coefficient(n1, n2)
            weight += abs(coeff) ** 2
            if abs(coeff) < 1e-18:
                continue
            phase = np.exp(-1j * units.omega * (l1 * n1 + l2 * n2 + 1) * t)
            terms.append((coeff, phase, eigenstate(n1, n2, units)))
    evolved = np.zeros(x1.shape, dtype=complex)
    if not terms:
        return evolved, weight
    shared = terms[0][2]
    if any(state._exponents() != shared._exponents() for _, _, state in terms):
        raise ValueError("the eigenstates of the expansion do not share one envelope")
    z = x1 + 1j * x2
    zb = np.conj(z)
    envelope = shared._envelope(z, zb)
    values = _values_at([state.prefactor for _, _, state in terms], z, zb)
    for (coeff, phase, _), value in zip(terms, values):
        evolved += coeff * phase * (value * envelope)
    return evolved, weight


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
    fails instead of passing at residual 0.  A ``cutoff`` that is not an int
    in 0..170 raises ValueError: 171! exceeds the float range.

    The evolution row also measures the float rounding of the level phases,
    about eps*omega*max|l|*cutoff*|t|: at g = 1/3 and the suite's labels it
    reads 1.2e-12 at |t| = 1e4 and 1.4e-10 at 1e6, so it fails by design from
    |t| ~ 1e6.  A largest phase omega*(max|l|*cutoff + 1)*|t| past the float
    range, an ell past it, a t that is not a finite real, or a label that is not a finite
    number, raises ValueError.
    """
    alpha, beta = require_complex(alpha, "alpha"), require_complex(beta, "beta")
    require_int(cutoff, "cutoff", 0, 170)
    t = require_real(t, "t")
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
        report.add(check(f"coherent-eigenvalue-b{mode}", resid))

    # time evolution via the eigenstate expansion, on 9 sample points
    target = coherent_state(*evolved_labels(alpha, beta, t, coupling, units), units)
    x1, x2 = np.meshgrid((-1.1, 0.3, 0.9), (-0.7, 0.2, 1.3), indexing="ij")
    evolved, weight = _evolved_expansion(alpha, beta, t, (l1f, l2f), units, cutoff, x1, x2)
    # the expansion carries the zero-point phase exp(-i omega t) on top of
    # the label map, since every level includes the +1
    closed = np.exp(-1j * units.omega * t) * target.evaluate(x1, x2)
    scale = max(np.max(np.abs(closed)), 1e-300)
    report.add(check("coherent-evolution", np.max(np.abs(evolved - closed)) / scale))
    # the coefficients are normalized, so a weight short of 1 is expansion
    # lost past the cutoff or to underflow, which the evolution row cannot see
    report.add(check("coherent-truncation", abs(1.0 - weight)))

    # rotation as an exact label map
    rotated = rotate(state, gamma)
    target_rot = coherent_state(
        alpha * np.exp(1j * gamma), beta * np.exp(-1j * gamma), units
    )
    report.add(check("coherent-rotation", wave_distance(rotated, target_rot)))
    return report


def suite_bridge(config) -> VerificationReport:
    """Bridge eigenfunctions, overlaps, Weierstrass identity, coherent states.

    Reads ``config.units``.
    """
    report = VerificationReport(suite="bridge")
    report.extend(verify_one_mode_bridge(size=11))
    report.extend(verify_quantum_bridge(cutoff=10))

    units = config.units
    reduced = []
    for n1, n2 in ((0, 0), (1, 0), (2, 1), (3, 3)):
        rep = verify_bridge_proportionality(n1, n2, units)
        reduced.append(rep.reduced_constant)
        report.add(check(f"proportionality:{n1}{n2}", rep.spread))
    base = reduced[0]
    report.add(check("reduced-constant", max(abs(c - base) / abs(base) for c in reduced)))

    overlap = overlap_matrix(3, units)
    report.add(check("overlap-identity", np.max(np.abs(overlap - np.eye(overlap.shape[0])))))

    report.add(check("inverse-weierstrass", all(inverse_weierstrass(n).passed for n in range(11))))

    coherent = coherent_checks(
        complex(0.8, -0.5), complex(0.4, 0.7), t=0.9, gamma=2.1,
        coupling=Coupling(Fraction(1, 2)), units=units, cutoff=24,
    )
    report.extend(coherent.rows)
    return report
