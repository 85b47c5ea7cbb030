"""Bracket engine against an independent sympy oracle, plus conversions."""
import random
from fractions import Fraction as F

import pytest
import sympy as sp

from riaho.phasealg import (CANONICAL, CIRCULAR, ExactComplex, Params,
                            PhasePoly, poisson_bracket, reduce_to_cartan,
                            total_time_derivative)

X1, X2, P1, P2 = sp.symbols("x1 x2 p1 p2")
_SYMS = (X1, X2, P1, P2)


def to_sympy(poly: PhasePoly):
    """Rebuild a canonical-basis, time-independent PhasePoly in sympy."""
    assert poly.basis == CANONICAL
    total = sp.Integer(0)
    for key, c in poly.terms.items():
        assert key[4] == 0
        coeff = (sp.Rational(c.ar) + sp.Rational(c.ai) * sp.I
                 + (sp.Rational(c.br) + sp.Rational(c.bi) * sp.I) * sp.sqrt(2))
        mono = sp.Integer(1)
        for s, e in zip(_SYMS, key[:4]):
            mono *= s ** e
        total += coeff * mono
    return sp.expand(total)


def sympy_bracket(a, b):
    out = sp.Integer(0)
    for x, p in ((X1, P1), (X2, P2)):
        out += sp.diff(a, x) * sp.diff(b, p) - sp.diff(a, p) * sp.diff(b, x)
    return sp.expand(out)


def random_poly(rng, nterms=3, maxexp=2):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(0, maxexp) for _ in range(4)) + (F(0),)
        coeff = ExactComplex(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)),
                             F(rng.randint(-2, 2), 2), 0)
        terms[key] = coeff
    return PhasePoly(CANONICAL, terms)


@pytest.mark.parametrize("seed", range(12))
def test_bracket_matches_sympy(seed):
    rng = random.Random(seed)
    a, b = random_poly(rng), random_poly(rng)
    ours = to_sympy(poisson_bracket(a, b))
    theirs = sympy_bracket(to_sympy(a), to_sympy(b))
    assert sp.simplify(ours - theirs) == 0


def test_fundamental_brackets():
    v = lambda n: PhasePoly.variable(n, CANONICAL)
    assert poisson_bracket(v("x1"), v("p1")) == PhasePoly.constant(1, CANONICAL)
    assert poisson_bracket(v("x1"), v("x2")).is_zero()
    assert poisson_bracket(v("p1"), v("p2")).is_zero()
    assert poisson_bracket(v("x1"), v("p2")).is_zero()


def test_circular_fundamental_bracket():
    b1m = PhasePoly.variable("b1-", CIRCULAR)
    b1p = PhasePoly.variable("b1+", CIRCULAR)
    b2p = PhasePoly.variable("b2+", CIRCULAR)
    minus_i = PhasePoly.constant(ExactComplex(0, -1), CIRCULAR)
    assert poisson_bracket(b1m, b1p) == minus_i
    assert poisson_bracket(b1m, b2p).is_zero()


@pytest.mark.parametrize("m,w", [(F(1), F(1)), (F(1), F(4)), (F(2), F(1)),
                                 (F(1), F(2)), (F(1, 2), F(1)), (F(9), F(2))])
def test_conversion_round_trip(m, w):
    params = Params(m, w)
    rng = random.Random(17)
    for _ in range(5):
        p = random_poly(rng)
        p = PhasePoly(CANONICAL, p.terms, params)
        assert p.to_basis(CIRCULAR).to_basis(CANONICAL) == p


def test_conversion_unavailable_units():
    # m*omega = 3: neither a rational square nor twice one
    p = PhasePoly.variable("x1", CANONICAL, params=(F(3), F(1)))
    with pytest.raises(ValueError):
        p.to_basis(CIRCULAR)


def test_conversion_preserves_brackets():
    rng = random.Random(5)
    a, b = random_poly(rng), random_poly(rng)
    direct = poisson_bracket(a, b).to_basis(CIRCULAR)
    converted = poisson_bracket(a.to_basis(CIRCULAR), b.to_basis(CIRCULAR))
    assert direct == converted


def test_oscillator_is_total_number():
    half = F(1, 2)
    xx = lambda n: PhasePoly.variable(n, CANONICAL)
    h = (xx("p1") ** 2 + xx("p2") ** 2) * half \
        + (xx("x1") ** 2 + xx("x2") ** 2) * half
    cf = reduce_to_cartan(h.to_basis(CIRCULAR))
    assert cf.is_pure
    assert cf.diagonal == {(1, 0): ExactComplex(1), (0, 1): ExactComplex(1)}


def test_angular_momentum_is_number_difference():
    xx = lambda n: PhasePoly.variable(n, CANONICAL)
    lz = xx("x1") * xx("p2") - xx("x2") * xx("p1")
    cf = reduce_to_cartan(lz.to_basis(CIRCULAR))
    assert cf.is_pure
    assert cf.diagonal == {(1, 0): ExactComplex(1), (0, 1): ExactComplex(-1)}


def test_cartan_reports_remainder():
    p = PhasePoly(CIRCULAR, {(1, 0, 0, 0, F(0)): ExactComplex(1),
                             (1, 1, 0, 0, F(0)): ExactComplex(2)})
    cf = reduce_to_cartan(p)
    assert not cf.is_pure
    assert cf.diagonal == {(1, 0): ExactComplex(2)}
    assert len(cf.remainder) == 1


def test_time_derivative_requires_autonomous_hamiltonian():
    h = PhasePoly(CIRCULAR, {(1, 1, 0, 0, F(1)): ExactComplex(1)})
    a = PhasePoly.variable("b1+", CIRCULAR)
    with pytest.raises(ValueError):
        total_time_derivative(a, h)


def test_evaluate_with_time_factor():
    import cmath
    # term b1+ * e^{i*mu*w*t} with mu=-2
    p = PhasePoly(CIRCULAR, {(1, 0, 0, 0, F(-2)): ExactComplex(1)})
    got = p.evaluate({"b1+": 0.5 + 0.25j, "b1-": 0, "b2+": 0, "b2-": 0},
                     t=0.3)
    want = (0.5 + 0.25j) * cmath.exp(-2j * 0.3)
    assert abs(got - want) < 1e-14


def test_evaluate_outside_float_range_raises_valueerror():
    p = PhasePoly(CIRCULAR, {(3, 0, 0, 0, F(0)): ExactComplex(1)})
    with pytest.raises(ValueError, match="float range"):
        p.evaluate({"b1+": 1e200, "b1-": 0, "b2+": 0, "b2-": 0})


def test_evaluate_time_factor_is_one_at_time_zero():
    # mu = 10^400 has no float; at t = 0 its factor is exactly 1
    p = PhasePoly(CIRCULAR, {(1, 0, 0, 0, F(10) ** 400): ExactComplex(1)})
    assert p.evaluate({"b1+": 0.5j, "b1-": 0, "b2+": 0, "b2-": 0}) == 0.5j
