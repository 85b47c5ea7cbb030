"""Structural properties of the bracket on randomly generated polynomials."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from riaho.phasealg import (CANONICAL, CIRCULAR, ExactComplex, PhasePoly,
                            poisson_bracket)

# exact arithmetic on big random polynomials is not fast; give every
# example room and cap the counts
settings.register_profile("exactalg", max_examples=25, deadline=None)
settings.load_profile("exactalg")

_coeffs = st.builds(
    ExactComplex,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.just(F(0)))

_key = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                 st.integers(0, 2),
                 st.sampled_from([F(0), F(1), F(-2), F(1, 3)]))


def _polys(basis):
    return st.dictionaries(_key, _coeffs, min_size=1, max_size=3).map(
        lambda terms: PhasePoly(basis, terms))


canonical_polys = _polys(CANONICAL)
circular_polys = _polys(CIRCULAR)


@given(canonical_polys, canonical_polys)
def test_antisymmetry(a, b):
    assert (poisson_bracket(a, b) + poisson_bracket(b, a)).is_zero()


@settings(max_examples=20, deadline=None)
@given(circular_polys, circular_polys, circular_polys)
def test_jacobi_identity(a, b, c):
    total = (poisson_bracket(a, poisson_bracket(b, c))
             + poisson_bracket(b, poisson_bracket(c, a))
             + poisson_bracket(c, poisson_bracket(a, b)))
    assert total.is_zero()


@given(circular_polys, circular_polys, circular_polys)
def test_leibniz_rule(a, b, c):
    lhs = poisson_bracket(a, b * c)
    rhs = poisson_bracket(a, b) * c + b * poisson_bracket(a, c)
    assert (lhs - rhs).is_zero()


@given(canonical_polys)
def test_conversion_round_trips(a):
    assert a.to_basis(CIRCULAR).to_basis(CANONICAL) == a


@given(circular_polys)
def test_conjugation_is_involutive(a):
    assert a.conjugate().conjugate() == a


@given(circular_polys, circular_polys)
def test_conjugation_commutes_with_bracket(a, b):
    lhs = poisson_bracket(a, b).conjugate()
    rhs = poisson_bracket(a.conjugate(), b.conjugate())
    assert (lhs - rhs).is_zero()


@given(canonical_polys)
def test_conversion_respects_conjugation(a):
    # canonical variables are real, so conjugation commutes with the map
    lhs = a.conjugate().to_basis(CIRCULAR)
    rhs = a.to_basis(CIRCULAR).conjugate()
    assert (lhs - rhs).is_zero()


def _shift_mu(a, key, by):
    """a with the term at `key` moved to time tag mu + by, every other term kept."""
    term = PhasePoly(a.basis, {key: a.terms[key]}, a.params)
    moved = PhasePoly(a.basis, {(*key[:4], key[4] + by): a.terms[key]}, a.params)
    return a - term + moved


@given(circular_polys, circular_polys, st.sampled_from([F(1), F(-1, 3)]))
def test_equality_agrees_with_a_zero_difference(a, b, by):
    # the verify rows decide lhs == rhs and form lhs - rhs only for a failing row's detail
    same = (a + b) - b  # equal to a, built by other operations
    pairs = [(a, b), (a, same), (a, a * 1), (same, a.conjugate().conjugate())]
    pairs += [(a, _shift_mu(a, key, by)) for key in a.terms]  # differ only in one mu
    for x, y in pairs:
        assert (x == y) == (x - y).is_zero()
        assert (y == x) == (x == y)
    assert all(x == y for x, y in pairs[1:4])
    assert not any(x == y for x, y in pairs[4:])
    # pairs that differ only in params are unequal, and their difference is refused
    other = PhasePoly(a.basis, a.terms, (2, F(3, 5)))
    assert a != other and other != a
    with pytest.raises(ValueError, match="params mismatch"):
        a - other
