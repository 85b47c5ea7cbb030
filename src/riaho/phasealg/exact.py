"""Exact scalar arithmetic over Q(i)[sqrt2].

Coefficients of phase-space polynomials live in the ring of complex numbers
a + b*sqrt2 with a, b Gaussian rationals.  This is the smallest ring closed
under every operation the symmetry-algebra engine performs: Poisson brackets
keep coefficients Gaussian rational, the circular<->canonical mode conversion
introduces d = sqrt(m*omega)/2 (rational, or rational*sqrt2, for the unit
systems supported), and the grading flow of the conformal bridge introduces
half-integer powers of 2.

Representation is canonical (1 and sqrt2 are independent over Q), so zero
testing and equality are exact dictionary comparisons.
"""
from __future__ import annotations

from fractions import Fraction
from math import isfinite, isqrt, sqrt as _fsqrt

__all__ = ["ExactComplex", "coerce_real", "rational_sqrt"]

_SQRT2 = _fsqrt(2.0)
_F0 = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def coerce_real(value, name: str):
    """Ints and Fractions stay exact; other numbers become finite floats.

    A bool raises TypeError and a non-finite value ValueError.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def rational_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None.

    Returns a Fraction r with r*r == q when q is a perfect rational square.
    """
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class ExactComplex:
    """Element (ar + ai*i) + (br + bi*i)*sqrt2 with Fraction components."""

    __slots__ = ("ar", "ai", "br", "bi")

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        self.ar = _as_fraction(ar)
        self.ai = _as_fraction(ai)
        self.br = _as_fraction(br)
        self.bi = _as_fraction(bi)

    # -- constructors -------------------------------------------------
    @classmethod
    def coerce(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to ExactComplex")

    @classmethod
    def i(cls) -> "ExactComplex":
        return cls(0, 1)

    @classmethod
    def sqrt2(cls) -> "ExactComplex":
        return cls(0, 0, 1)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not (self.ar or self.ai or self.br or self.bi)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return (self.ar == other.ar and self.ai == other.ai
                and self.br == other.br and self.bi == other.bi)

    def __hash__(self):
        return hash((self.ar, self.ai, self.br, self.bi))

    # -- ring operations -----------------------------------------------
    def __add__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        other = ExactComplex.coerce(other)
        return ExactComplex(self.ar + other.ar, self.ai + other.ai,
                            self.br + other.br, self.bi + other.bi)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.ar, -self.ai, -self.br, -self.bi)

    def __sub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return self + (-ExactComplex.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return ExactComplex.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        other = ExactComplex.coerce(other)
        # complex parts: a = ar+i*ai, b = br+i*bi for each factor
        ar, ai, br, bi = self.ar, self.ai, self.br, self.bi
        cr, ci, dr, di = other.ar, other.ai, other.br, other.bi
        # (a + b*s)(c + d*s) = (ac + 2bd) + (ad + bc)*s   with s^2 = 2;
        # skip the zero blocks, coefficients are sparse in practice
        or_ = oi = sr = si = _F0
        if (ar or ai) and (cr or ci):
            or_ = ar * cr - ai * ci
            oi = ar * ci + ai * cr
        if (br or bi) and (dr or di):
            or_ = or_ + 2 * (br * dr - bi * di)
            oi = oi + 2 * (br * di + bi * dr)
        if (ar or ai) and (dr or di):
            sr = ar * dr - ai * di
            si = ar * di + ai * dr
        if (br or bi) and (cr or ci):
            sr = sr + br * cr - bi * ci
            si = si + br * ci + bi * cr
        return ExactComplex(or_, oi, sr, si)

    __rmul__ = __mul__

    def inverse(self) -> "ExactComplex":
        """Multiplicative inverse: 1/(a+b*s) = (a-b*s)/(a^2-2b^2)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        a2_r = self.ar * self.ar - self.ai * self.ai
        a2_i = 2 * self.ar * self.ai
        b2_r = self.br * self.br - self.bi * self.bi
        b2_i = 2 * self.br * self.bi
        den_r = a2_r - 2 * b2_r   # a^2 - 2 b^2, Gaussian rational
        den_i = a2_i - 2 * b2_i
        nrm = den_r * den_r + den_i * den_i
        if nrm == 0:
            raise ZeroDivisionError("non-invertible element")
        inv_r, inv_i = den_r / nrm, -den_i / nrm
        conj = ExactComplex(self.ar, self.ai, -self.br, -self.bi)
        return conj * ExactComplex(inv_r, inv_i)

    def conjugate(self) -> "ExactComplex":
        """Complex conjugation (sqrt2 is real, so only i flips)."""
        return ExactComplex(self.ar, -self.ai, self.br, -self.bi)

    # -- numerics / display ---------------------------------------------
    def to_complex(self) -> complex:
        return complex(float(self.ar) + _SQRT2 * float(self.br),
                       float(self.ai) + _SQRT2 * float(self.bi))

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __repr__(self) -> str:
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


ExactComplex.ZERO = ExactComplex(0)
ExactComplex.ONE = ExactComplex(1)
ExactComplex.I = ExactComplex(0, 1)
