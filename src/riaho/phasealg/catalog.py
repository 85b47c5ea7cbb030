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
from .poly import CIRCULAR, Params, PhasePoly

__all__ = [
    "hamiltonian", "angular_momentum", "generator", "catalog",
    "hidden_shift", "hidden_integral", "is_true_integral", "true_integral_coupling",
    "GENERATOR_NAMES",
]

_HALF = Fraction(1, 2)

GENERATOR_NAMES = ("J0", "J+", "J-", "L2", "L+", "L-",
                   "B1+", "B1-", "B2+", "B2-",
                   "beta1+", "beta1-", "beta2+", "beta2-")
# the ladder generators are low-order hidden ladders: name -> (kind, s1, s2)
_LADDERS = {"J": ("J", 1, 1), "L": ("L", 1, 1), "B1": ("J", 2, 0), "B2": ("J", 0, 2),
            "beta1": ("J", 1, 0), "beta2": ("J", 0, 1)}


def _mono(e, coeff, mu, params) -> PhasePoly:
    return PhasePoly(CIRCULAR, {(*e, Fraction(mu)): ExactComplex.coerce(coeff)},
                     params)


def hamiltonian(coupling, params=None) -> PhasePoly:
    """H_g = omega*(ell1*N1 + ell2*N2) in the circular basis."""
    c = Coupling.coerce(coupling)
    params = Params.coerce(params)
    w = params.omega
    return (_mono((1, 1, 0, 0), w * c.ell1, 0, params)
            + _mono((0, 0, 1, 1), w * c.ell2, 0, params))


def angular_momentum(params=None) -> PhasePoly:
    """p_phi = N1 - N2 (equals x1 p2 - x2 p1 in canonical variables)."""
    params = Params.coerce(params)
    return _mono((1, 1, 0, 0), 1, 0, params) - _mono((0, 0, 1, 1), 1, 0, params)


def generator(name: str, coupling, params=None) -> PhasePoly:
    """One catalog generator with its exact time-frequency tag."""
    c = Coupling.coerce(coupling)
    params = Params.coerce(params)
    if require_choice(name, "generator", GENERATOR_NAMES) in ("J0", "L2"):  # (N1 +- N2)/2
        coeff2 = _HALF if name == "J0" else -_HALF
        return _mono((1, 1, 0, 0), _HALF, 0, params) + _mono((0, 0, 1, 1), coeff2, 0, params)
    return hidden_integral(c, *_LADDERS[name[:-1]], name[-1], params)


def catalog(coupling, params=None) -> dict:
    """All named generators for one coupling, keyed by name."""
    c, params = Coupling.coerce(coupling), Params.coerce(params)  # once for all 14
    return {n: generator(n, c, params) for n in GENERATOR_NAMES}


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
    require_choice(sign, "sign", ("+", "-"))
    c = Coupling.coerce(coupling)
    e = (max(d1, 0), max(-d1, 0), max(d2, 0), max(-d2, 0))
    out = _mono(e, 1, -(d1 * c.ell1 + d2 * c.ell2), Params.coerce(params))
    return out.conjugate() if sign == "-" else out


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
