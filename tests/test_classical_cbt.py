"""Bridge flows carry the free-particle conformal triple to ladder products."""
from fractions import Fraction as F

import pytest

from riaho.phasealg import (CANONICAL, CIRCULAR, ExactComplex, Params,
                            PhasePoly, classical_cbt, conformal_k0,
                            dilation_id0, free_hamiltonian, generator,
                            generator_flow, grading_rescale)


def circ(poly):
    return poly.to_basis(CIRCULAR)


# the last two have m*omega = 6 and 3/5: the quadratic triple converts at any rational units
@pytest.mark.parametrize("m,w", [(F(1), F(1)), (F(1), F(4)), (F(2), F(1)),
                                 (F(1), F(2)), (F(4), F(3, 2)), (F(3, 5), F(1))])
class TestBridgeTriple:
    def test_free_hamiltonian_maps_to_lowering_pair(self, m, w):
        params = Params(m, w)
        got = circ(classical_cbt(free_hamiltonian(params)))
        want = (-w) * generator("J-", 0, params).at_time_zero()
        assert got == want

    def test_dilation_maps_to_number_operator(self, m, w):
        params = Params(m, w)
        got = circ(classical_cbt(dilation_id0(params)))
        assert got == generator("J0", 0, params)

    def test_conformal_maps_to_raising_pair(self, m, w):
        params = Params(m, w)
        got = circ(classical_cbt(conformal_k0(params)))
        want = (F(1) / w) * generator("J+", 0, params).at_time_zero()
        assert got == want


def test_grading_rescale_scales_by_half_degree_difference():
    x1 = PhasePoly.variable("x1", CANONICAL)
    p1 = PhasePoly.variable("p1", CANONICAL)
    s2 = ExactComplex.sqrt2()
    assert grading_rescale(x1) == s2 * x1
    assert grading_rescale(p1) == s2.inverse() * p1
    assert grading_rescale(x1 * p1) == x1 * p1
    assert grading_rescale(x1 ** 2) == 2 * x1 ** 2
    assert grading_rescale(p1 ** 3 * x1) == F(1, 2) * p1 ** 3 * x1
    with pytest.raises(ValueError, match="canonical"):
        grading_rescale(generator("J0", 0))


def test_flow_is_exact_exponential_on_linear_generator():
    # e^{c{K0,.}} shifts p by c*m*x; check on p1^2 with c = 1/2
    params = Params()
    p1 = PhasePoly.variable("p1", CANONICAL)
    x1 = PhasePoly.variable("x1", CANONICAL)
    c = ExactComplex(F(1, 2))
    flowed = generator_flow(p1 ** 2, conformal_k0(params), c)
    shifted = (p1 + F(1, 2) * x1) ** 2
    assert flowed == shifted


def test_flow_that_does_not_terminate_raises():
    # {x1 p1, .} keeps x1 at degree 1, so every term of the series is non-zero
    x1 = PhasePoly.variable("x1", CANONICAL)
    p1 = PhasePoly.variable("p1", CANONICAL)
    with pytest.raises(ValueError, match="does not terminate"):
        generator_flow(x1, x1 * p1, ExactComplex(1))


def test_bridge_rejects_circular_input():
    h = generator("J0", 0)
    with pytest.raises(ValueError):
        classical_cbt(h)


def test_bridge_rejects_time_dependent_input():
    p = PhasePoly(CANONICAL, {(1, 0, 0, 0, F(1)): ExactComplex(1)})
    with pytest.raises(ValueError):
        classical_cbt(p)


def test_bridge_is_linear():
    params = Params()
    a = free_hamiltonian(params)
    b = conformal_k0(params)
    lhs = classical_cbt(a + 3 * b)
    rhs = classical_cbt(a) + 3 * classical_cbt(b)
    assert lhs == rhs
