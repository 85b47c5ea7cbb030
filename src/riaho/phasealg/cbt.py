"""Classical conformal bridge as a composition of exact polynomial flows.

The bridge map is T = T_K0(beta) o T_H(delta) o T_D0(gamma) with parameters

    gamma = -ln 2,  delta = i/(2*omega),  beta = -i*omega,

acting on time-independent canonical polynomials.  Each factor is exact:

* T_D0(-ln 2) is the grading rescale x -> sqrt2*x, p -> p/sqrt2, i.e. a
  monomial of x-degree a and p-degree b picks up 2^((a-b)/2), an element
  of Q[sqrt2]: the dilation that also changes units in ``to_basis``.
* T_H(delta) f = sum_k delta^k/k! {H, .}^k f with H = p^2/2m; the bracket
  lowers total x-degree so the series terminates on polynomials.  The sum is
  :func:`_exp_series`, the one series kernel, which both wavefunction bridges share.
* T_K0(beta) likewise with K0 = m x^2/2, lowering p-degree.

The composite sends the conformal sl(2,R) triple of the free particle onto
the oscillator triple: H -> -omega*J-|_0, i*D0 -> J0, K0 -> J+|_0 / omega
(time frozen at t=0; the images acquire their e^{+-2i*omega*t} factors only
along the oscillator flow).
"""
from __future__ import annotations

from fractions import Fraction

from .exact import ExactComplex
from .poly import CANONICAL, Params, PhasePoly, _dilate, poisson_bracket

__all__ = [
    "free_hamiltonian", "conformal_k0", "dilation_id0",
    "grading_rescale", "generator_flow", "classical_cbt",
]


def free_hamiltonian(params=None) -> PhasePoly:
    """H = (p1^2 + p2^2)/(2m)."""
    params = Params.coerce(params)
    c = Fraction(1, 2) / params.m
    return PhasePoly(CANONICAL, {(0, 0, 2, 0, Fraction(0)): ExactComplex(c),
                                 (0, 0, 0, 2, Fraction(0)): ExactComplex(c)},
                     params)


def conformal_k0(params=None) -> PhasePoly:
    """K0 = m*(x1^2 + x2^2)/2, the special-conformal generator at t=0."""
    params = Params.coerce(params)
    c = params.m * Fraction(1, 2)
    return PhasePoly(CANONICAL, {(2, 0, 0, 0, Fraction(0)): ExactComplex(c),
                                 (0, 2, 0, 0, Fraction(0)): ExactComplex(c)},
                     params)


def dilation_id0(params=None) -> PhasePoly:
    """i*D0 with D0 = (x1 p1 + x2 p2)/2, the dilation generator at t=0."""
    params = Params.coerce(params)
    c = ExactComplex(0, Fraction(1, 2))
    return PhasePoly(CANONICAL, {(1, 0, 1, 0, Fraction(0)): c,
                                 (0, 1, 0, 1, Fraction(0)): c}, params)


def grading_rescale(a: PhasePoly) -> PhasePoly:
    """T_D0(-ln 2): the dilation x -> sqrt2*x, p -> p/sqrt2, so each monomial
    gains 2^((xdeg - pdeg)/2); the same map as a change of units (:func:`_dilate`)."""
    if a.basis != CANONICAL:
        raise ValueError("grading rescale is defined on the canonical basis")
    return _dilate(a, 2)


def _exp_series(start, step):
    """e^X start = sum_k term_k, term_0 = start, term_k = step(term_{k-1}, k) = X term_{k-1}/k,
    summed until a term vanishes (a PhasePoly or a :class:`riaho.bridge.ZPolynomial`); a
    non-zero term k > degree(start) + 1 raises ValueError: the series does not terminate."""
    total = term = start
    bound = start.degree() + 1
    k = 1
    while not (term := step(term, k)).is_zero():
        if k > bound:
            raise ValueError("flow series does not terminate on this input")
        total = total + term
        k += 1
    return total


def generator_flow(a: PhasePoly, gen: PhasePoly, param: ExactComplex) -> PhasePoly:
    """sum_k param^k/k! {gen, .}^k a, requiring the series to terminate."""
    return _exp_series(a, lambda term, k: poisson_bracket(gen, term) * (param * Fraction(1, k)))


def classical_cbt(a: PhasePoly) -> PhasePoly:
    """Apply the full bridge T_K0(-i*omega) T_H(i/2*omega) T_D0(-ln 2)."""
    if a.basis != CANONICAL:
        raise ValueError("classical bridge acts on canonical polynomials")
    if any(mu != 0 for mu in a.frequencies()):
        raise ValueError("input must be time-independent (t=0 snapshot)")
    params = a.params
    w = params.omega
    out = grading_rescale(a)
    out = generator_flow(out, free_hamiltonian(params),
                         ExactComplex(0, Fraction(1, 2) / w))
    out = generator_flow(out, conformal_k0(params), ExactComplex(0, -w))
    return out
