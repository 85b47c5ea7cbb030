"""Named observables of H_g = omega*(ell1*N1 + ell2*N2) as exact polynomials.

Builds the sl(2,R) x u(1) generators, the su(2) rotation pair, the
quadratic one-mode pairs, the linear dynamical integrals, and the
higher-order hidden families, each as a :class:`PhasePoly` in the circular
basis with the matching exact time frequency mu (units of omega):

============================  ====================  ==================
observable                    monomial              mu
============================  ====================  ==================
J0                            (N1 + N2)/2           0
J+-                           b1^+- b2^+-           -+2
L2                            (N1 - N2)/2           0
L+-                           b1^+- b2^-+           -+2g
B_j^+-                        (b_j^+-)^2            -+2*ell_j
beta_j^+-                     b_j^+-                -+ell_j
L^+-_{s1,s2}                  (b1^+-)^s1(b2^-+)^s2  -+(s1*ell1-s2*ell2)
J^+-_{s1,s2}                  (b1^+-)^s1(b2^+-)^s2  -+(s1*ell1+s2*ell2)
============================  ====================  ==================

A member is a *true* (time-independent) integral exactly when its mu
vanishes.  A hidden '+' member shifts the mode numbers by Delta = (s1, -s2)
(L) or (s1, s2) (J) and has mu = -Delta.ell, so its resonance is Delta.ell = 0.
"""
from __future__ import annotations

from fractions import Fraction

from ..coupling import Coupling
from .exact import ExactComplex, require_choice, require_int
from .poly import CIRCULAR, Params, PhasePoly, _make, _tag

__all__ = [
    "hamiltonian", "angular_momentum", "generator", "catalog",
    "hidden_shift", "hidden_integral", "is_true_integral", "true_integral_coupling",
    "GENERATOR_NAMES",
]

_HALF = ExactComplex(Fraction(1, 2))

GENERATOR_NAMES = ("J0", "J+", "J-", "L2", "L+", "L-",
                   "B1+", "B1-", "B2+", "B2-",
                   "beta1+", "beta1-", "beta2+", "beta2-")
# the ladder generators are low-order hidden ladders: name -> the '+' member's mode shift
# hidden_shift(kind, s1, s2) of J_{1,1}, L_{1,1}, J_{2,0}, J_{0,2}, J_{1,0} and J_{0,1}
_LADDERS = {"J": (1, 1), "L": (1, -1), "B1": (2, 0), "B2": (0, 2), "beta1": (1, 0),
            "beta2": (0, 1)}

# The builders below take checked arguments and write each term key in canonical form
# (int exponents, mu kept by _tag), so they build through _make and skip the per-key
# checks of PhasePoly.__init__; the public functions validate their arguments once.


def _number_form(c1: ExactComplex, c2: ExactComplex, params: Params) -> PhasePoly:
    """c1 N1 + c2 N2, with N_j = b_j+ b_j- and mu = 0; a zero coefficient drops its term."""
    return _make(CIRCULAR, {(1, 1, 0, 0, 0): c1, (0, 0, 1, 1, 0): c2}, params)


def _ladder(c: Coupling, d1: int, d2: int, params: Params) -> PhasePoly:
    """The monomial moving mode j by d_j quanta, a factor (b_j+)^d_j for d_j >= 0 and
    (b_j-)^-d_j for d_j < 0, with mu = -(d1 ell1 + d2 ell2)."""
    (n1, q1), (n2, q2) = c.ell1.as_integer_ratio(), c.ell2.as_integer_ratio()
    mu = Fraction(-(d1 * n1 * q2 + d2 * n2 * q1), q1 * q2)  # one reduction, no Fraction arithmetic
    e = (max(d1, 0), max(-d1, 0), max(d2, 0), max(-d2, 0))
    return _make(CIRCULAR, {(*e, _tag(mu)): ExactComplex.ONE}, params)


def _generator(name: str, c: Coupling, params: Params) -> PhasePoly:
    if name in ("J0", "L2"):  # (N1 +- N2)/2
        return _number_form(_HALF, _HALF if name == "J0" else -_HALF, params)
    d1, d2 = _LADDERS[name[:-1]]
    return _ladder(c, d1, d2, params) if name[-1] == "+" else _ladder(c, -d1, -d2, params)


def hamiltonian(coupling, params=None) -> PhasePoly:
    """H_g = omega*(ell1*N1 + ell2*N2) in the circular basis."""
    c = Coupling.coerce(coupling)
    params = Params.coerce(params)
    w = params.omega
    return _number_form(ExactComplex.coerce(w * c.ell1), ExactComplex.coerce(w * c.ell2), params)


def angular_momentum(params=None) -> PhasePoly:
    """p_phi = N1 - N2 (equals x1 p2 - x2 p1 in canonical variables)."""
    return _number_form(ExactComplex.ONE, -ExactComplex.ONE, Params.coerce(params))


def generator(name: str, coupling, params=None) -> PhasePoly:
    """One catalog generator with its exact time-frequency tag."""
    c = Coupling.coerce(coupling)
    params = Params.coerce(params)
    return _generator(require_choice(name, "generator", GENERATOR_NAMES), c, params)


def catalog(coupling, params=None) -> dict:
    """All named generators for one coupling, keyed by name."""
    c, params = Coupling.coerce(coupling), Params.coerce(params)  # once for all 14
    return {n: _generator(n, c, params) for n in GENERATOR_NAMES}


def hidden_shift(kind: str, s1: int, s2: int) -> tuple[int, int]:
    """Mode-number shift of the '+' ladder: (s1, -s2) for L, (s1, s2) for J.

    The one validator of kind and orders (ints >= 0 by :func:`require_int`,
    not both zero).
    """
    require_choice(kind, "kind", ("L", "J"))
    if (require_int(s1, "s1"), require_int(s2, "s2")) == (0, 0):
        raise ValueError("orders must not both be zero")
    return (s1, -s2) if kind == "L" else (s1, s2)


def hidden_integral(coupling, kind: str, s1: int, s2: int, sign: str = "+",
                    params=None) -> PhasePoly:
    """Higher-order ladder product L^sign_{s1,s2} or J^sign_{s1,s2}.

    The '+' member moves mode j by Delta_j = :func:`hidden_shift` quanta and
    has mu = -Delta.ell; sign "-" gives the complex conjugate (mu flips).
    """
    d1, d2 = hidden_shift(kind, s1, s2)
    if require_choice(sign, "sign", ("+", "-")) == "-":  # the conjugate: Delta and mu flip
        d1, d2 = -d1, -d2
    return _ladder(Coupling.coerce(coupling), d1, d2, Params.coerce(params))


def is_true_integral(coupling, kind: str, s1: int, s2: int) -> bool:
    """mu = 0 test: Delta.ell = 0, i.e. s1*ell1 = s2*ell2 (L) or s1*ell1 = -s2*ell2 (J)."""
    d1, d2 = hidden_shift(kind, s1, s2)
    c = Coupling.coerce(coupling)
    return d1 * c.ell1 + d2 * c.ell2 == 0


def true_integral_coupling(kind: str, s1: int, s2: int) -> Fraction | None:
    """The unique g making L^pm_{s1,s2} (or J^pm_{s1,s2}) time-independent.

    Delta.ell = 0 at g = (Delta1 + Delta2)/(Delta2 - Delta1): (s2 - s1)/(s1 + s2)
    for L, (s1 + s2)/(s2 - s1) for J, undefined (None) when Delta1 = Delta2.
    """
    d1, d2 = hidden_shift(kind, s1, s2)
    return None if d1 == d2 else Fraction(d1 + d2, d2 - d1)
