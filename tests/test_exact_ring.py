"""Field arithmetic in Q(i)[sqrt2] and exact rational square roots."""
import struct
from fractions import Fraction as F
from math import gcd, sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from riaho.phasealg.exact import ExactComplex, rational_sqrt, require_int, ring_sqrt


class _FractionRing:
    """Reference ring: (ar + ai*i) + (br + bi*i)*sqrt2 on four Fractions.

    This is the straightforward Fraction-component arithmetic that the
    integer Q(zeta) representation of ExactComplex must agree with.
    """

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        self.ar, self.ai, self.br, self.bi = F(ar), F(ai), F(br), F(bi)

    def __add__(self, o):
        return _FractionRing(self.ar + o.ar, self.ai + o.ai,
                             self.br + o.br, self.bi + o.bi)

    def __neg__(self):
        return _FractionRing(-self.ar, -self.ai, -self.br, -self.bi)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        # (a + b*s)(c + d*s) = (ac + 2bd) + (ad + bc)*s   with s^2 = 2
        ar, ai, br, bi = self.ar, self.ai, self.br, self.bi
        cr, ci, dr, di = o.ar, o.ai, o.br, o.bi
        return _FractionRing(
            ar * cr - ai * ci + 2 * (br * dr - bi * di),
            ar * ci + ai * cr + 2 * (br * di + bi * dr),
            ar * dr - ai * di + br * cr - bi * ci,
            ar * di + ai * dr + br * ci + bi * cr)

    def inverse(self):
        """1/(a+b*s) = (a-b*s)/(a^2-2b^2)."""
        a2_r = self.ar * self.ar - self.ai * self.ai
        a2_i = 2 * self.ar * self.ai
        b2_r = self.br * self.br - self.bi * self.bi
        b2_i = 2 * self.br * self.bi
        den_r = a2_r - 2 * b2_r
        den_i = a2_i - 2 * b2_i
        nrm = den_r * den_r + den_i * den_i
        conj = _FractionRing(self.ar, self.ai, -self.br, -self.bi)
        return conj * _FractionRing(den_r / nrm, -den_i / nrm)

    def conjugate(self):
        return _FractionRing(self.ar, -self.ai, self.br, -self.bi)

    def components(self):
        return (self.ar, self.ai, self.br, self.bi)

    def to_complex(self):
        return complex(float(self.ar) + sqrt(2.0) * float(self.br),
                       float(self.ai) + sqrt(2.0) * float(self.bi))

    def __repr__(self):
        parts = []
        if self.ar or self.ai:
            if self.ai == 0:
                parts.append(str(self.ar))
            elif self.ar == 0:
                parts.append(f"{self.ai}i")
            else:
                parts.append(f"({self.ar}{'+' if self.ai > 0 else ''}{self.ai}i)")
        if self.br or self.bi:
            if self.bi == 0:
                coef = str(self.br)
            elif self.br == 0:
                coef = f"{self.bi}i"
            else:
                coef = f"({self.br}{'+' if self.bi > 0 else ''}{self.bi}i)"
            parts.append(f"{coef}*sqrt2")
        return " + ".join(parts) if parts else "0"


def test_constants():
    assert ExactComplex.ZERO.is_zero()
    assert ExactComplex.ONE == 1
    assert ExactComplex.I * ExactComplex.I == -1


def test_sqrt2_squares_to_two():
    s = ExactComplex.sqrt2()
    assert s * s == 2
    assert (s * s * s) == ExactComplex(0, 0, 2)  # 2*sqrt2


def test_mixed_product():
    # (1 + i sqrt2)(1 - i sqrt2) = 1 + 2 = 3
    a = ExactComplex(1, 0, 0, 1)
    b = ExactComplex(1, 0, 0, -1)
    assert a * b == 3


def test_inverse_of_sqrt2():
    s = ExactComplex.sqrt2()
    assert s.inverse() == ExactComplex(0, 0, F(1, 2))  # 1/sqrt2 = sqrt2/2
    assert s.inverse() * s == 1


def test_inverse_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        ExactComplex.ZERO.inverse()


def test_conjugate():
    z = ExactComplex(1, 2, 3, 4)
    zc = z.conjugate()
    assert zc == ExactComplex(1, -2, 3, -4)
    prod = z * zc
    # |z|^2 is real in the ring sense: no i components
    assert prod.ai == 0 and prod.bi == 0


def test_to_complex():
    z = ExactComplex(1, 1, 1, 0)  # 1 + i + sqrt2
    w = z.to_complex()
    assert abs(w - (1 + 2 ** 0.5 + 1j)) < 1e-15


_HUGE = ExactComplex(10**400)
_PAST_ABS = ExactComplex(F(15 * 10**307), F(15 * 10**307))  # both parts are floats, |z| is not


@pytest.mark.parametrize("convert, value", [
    (ExactComplex.to_complex, _HUGE),  # int / int raised a raw OverflowError
    (ExactComplex.to_complex, ExactComplex(0, 0, 0, -10**400)),
    (abs, _HUGE),
    (abs, _PAST_ABS),                  # abs() of the finite complex raised OverflowError
])
def test_float_conversion_past_the_float_range_raises(convert, value):
    if value is _PAST_ABS:  # abs() fails past the range, not to_complex
        assert value.to_complex() == complex(1.5e308, 1.5e308)
    with pytest.raises(ValueError, match="outside the float range"):
        convert(value)


@pytest.mark.parametrize("q,root", [
    (F(4), F(2)), (F(9, 4), F(3, 2)), (F(0), F(0)), (F(1), F(1)),
    (F(2), None), (F(-1), None), (F(3, 2), None), (F(49, 36), F(7, 6)),
])
def test_rational_sqrt(q, root):
    assert rational_sqrt(q) == root


_elems = st.builds(
    ExactComplex,
    *(st.fractions(min_value=-4, max_value=4, max_denominator=6)
      for _ in range(4)))


@given(_elems, _elems, _elems)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a - a == 0


@given(_elems)
def test_inverse_round_trip(a):
    if a.is_zero():
        return
    try:
        inv = a.inverse()
    except ZeroDivisionError:
        # a = x + y*sqrt2 with x^2 = 2 y^2 never happens for rationals
        # unless both are zero, and Gaussian norms are nonzero off zero
        pytest.fail("nonzero element reported non-invertible")
    assert a * inv == 1


@given(_elems, _elems)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(_elems)
def test_float_embedding_consistent(a):
    w = a.to_complex()
    assert abs(w.real - (float(a.ar) + float(a.br) * 2 ** 0.5)) < 1e-9


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _agree(ours: ExactComplex, ref: _FractionRing):
    assert (ours.ar, ours.ai, ours.br, ours.bi) == ref.components()
    assert all(isinstance(c, F) for c in (ours.ar, ours.ai, ours.br, ours.bi))
    assert repr(ours) == repr(ref)
    assert _bits(ours.to_complex()) == _bits(ref.to_complex())


_components = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    min_size=4, max_size=4)


@given(_components, _components)
def test_matches_fraction_reference(x, y):
    a, b = ExactComplex(*x), ExactComplex(*y)
    ra, rb = _FractionRing(*x), _FractionRing(*y)
    _agree(a, ra)
    _agree(a + b, ra + rb)
    _agree(a - b, ra - rb)
    _agree(a * b, ra * rb)
    _agree(-a, -ra)
    _agree(a.conjugate(), ra.conjugate())
    if not a.is_zero():
        _agree(a.inverse(), ra.inverse())


def _canonical(z: ExactComplex):
    return z._d > 0 and gcd(z._c0, z._c1, z._c2, z._c3, z._d) == 1


@pytest.mark.parametrize("built,value", [
    (ExactComplex(F(2, 4)), ExactComplex(F(1, 2))),
    (ExactComplex.sqrt2() * ExactComplex.sqrt2(), ExactComplex(2)),
    (ExactComplex(0, 0, F(1, 2)) * ExactComplex.sqrt2(), ExactComplex.ONE),
    (ExactComplex(F(1, 6), F(1, 3)) + ExactComplex(F(1, 3), F(2, 3)), ExactComplex(F(1, 2), 1)),
    (ExactComplex(F(3, 4), 0, F(1, 4)) - ExactComplex(F(1, 4), 0, F(1, 4)), ExactComplex(F(1, 2))),
    (ExactComplex(0, 0, 3, 1).inverse() * ExactComplex(0, 0, 3, 1), ExactComplex.ONE),
])
def test_canonical_form(built, value):
    assert built == value
    assert hash(built) == hash(value)
    assert _canonical(built) and _canonical(value)


def test_equality_with_rationals():
    assert ExactComplex(F(1, 2)) == F(1, 2)
    assert ExactComplex(3) == 3
    assert ExactComplex(F(1, 2), 1) != F(1, 2)
    assert ExactComplex(0, 0, 1) != 0


def test_constructor_rejects_floats():
    with pytest.raises(ValueError, match=r"^ar 0\.5 is not an int or Fraction$"):
        ExactComplex(0.5)


@pytest.mark.parametrize("q,root", [
    (F(4), ExactComplex(2)), (F(9, 4), ExactComplex(F(3, 2))), (F(0), ExactComplex(0)),
    (F(2), ExactComplex(0, 0, 1)), (F(8, 9), ExactComplex(0, 0, F(2, 3))),
    (F(3), None), (F(-1), None), (F(-2), None), (F(3, 2), None),
])
def test_ring_sqrt(q, root):
    got = ring_sqrt(q)
    assert got == root
    if root is not None:
        assert got * got == q


@pytest.mark.parametrize("value, lo, hi", [(0, 0, None), (3, 3, None), (10**400, 1, None),
                                           (0, 0, 98), (98, 0, 98), (-2, -5, -1)])
def test_require_int_returns_an_int_in_range(value, lo, hi):
    assert require_int(value, "x", lo, hi) is value


@pytest.mark.parametrize("value, lo, hi, message", [
    (1.5, 0, 98, "cutoff 1.5 is not an integer in 0..98"),
    (99, 0, 98, "cutoff 99 is not an integer in 0..98"),
    (2, 3, None, "cutoff 2 is not an integer >= 3"),
    (-1, 0, None, "cutoff -1 is not an integer >= 0"),
    (True, 0, None, "cutoff True is not an integer >= 0"),
    (2.0, 0, None, "cutoff 2.0 is not an integer >= 0"),
    ("2", 0, None, "cutoff '2' is not an integer >= 0"),
    (None, 0, None, "cutoff None is not an integer >= 0"),
    (F(2), 0, None, "cutoff Fraction(2, 1) is not an integer >= 0"),  # not a bare 2
    (np.int64(2), 0, None, f"cutoff {np.int64(2)!r} is not an integer >= 0"),
])
def test_require_int_names_the_argument_and_the_value(value, lo, hi, message):
    with pytest.raises(ValueError) as info:
        require_int(value, "cutoff", lo, hi)
    assert str(info.value) == message
