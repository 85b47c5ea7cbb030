"""Exact scalar arithmetic over Q(i)[sqrt2] = Q(zeta), zeta = exp(i*pi/4).

Coefficients of phase-space polynomials live in the ring of complex numbers
A + B*sqrt2 with A, B Gaussian rationals.  This is the smallest ring closed
under every operation the symmetry-algebra engine performs: Poisson brackets
keep coefficients Gaussian rational, and the one dilation x -> lam x,
p -> p/lam behind both the change of units (lam^2 = m*omega) and the grading
flow of the conformal bridge (lam^2 = 2) scales x^a p^b by lam^(a-b), which
leaves the ring only for odd a - b when lam^2 is neither a rational square
nor twice one.

That ring is the 8th cyclotomic field Q(zeta): zeta^4 = -1, i = zeta^2 and
sqrt2 = zeta - zeta^3.  zeta is the e^{+-i pi/4} phase that the
Cartesian-to-circular unitary puts on each mode.  An element is stored as
four ints over one denominator,

    (c0 + c1*zeta + c2*zeta^2 + c3*zeta^3) / d,    d > 0,
    gcd(c0, c1, c2, c3, d) = 1,

which is canonical (1, zeta, zeta^2, zeta^3 are independent over Q), so
equality and hashing compare five ints.  With A = ar + ai*i and
B = br + bi*i the two coordinate systems are related by

    c/d = (ar, br + bi, ai, bi - br)
    ar = c0/d, ai = c2/d, br = (c1 - c3)/(2d), bi = (c1 + c3)/(2d).

The constructor and the read-only ``ar/ai/br/bi`` properties speak the
(A, B) coordinates; the arithmetic runs on the integers.  A product is a
negacyclic length-4 convolution (zeta^4 = -1) and one gcd; the inverse is
the product of the Galois conjugates zeta -> zeta^3, zeta^5, zeta^7 over the
rational norm; complex conjugation is zeta -> zeta^7.  Kernels that sum many
products (the Poisson bracket, the four chained basis-change pair steps) stay
on the integers: :func:`_numerators` puts a batch over one denominator,
:func:`_convolve` multiplies numerators, and each final sum is reduced once.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, isqrt, lcm, sqrt as _fsqrt

__all__ = ["ExactComplex", "coerce_real", "rational_sqrt", "require_choice", "require_complex",
           "require_int", "require_real", "ring_sqrt", "to_float"]

_SQRT2 = _fsqrt(2.0)
_new_object = object.__new__


def _is_exact(value) -> bool:
    return type(value) is int or isinstance(value, Fraction)  # no bool, no float


def _as_fraction(value, name: str) -> Fraction:
    """The rule for an exact argument: an int or Fraction as a Fraction of any size;
    anything else, a bool, float or numpy scalar among it, raises ValueError naming ``name``."""
    if _is_exact(value):
        return Fraction(value)
    raise ValueError(f"{name} {value!r} is not an int or Fraction")


def _shown(value) -> str:
    """A rejected value as the real and complex rules print it: a Fraction in its str form
    (-1/2, as typed on the command line), anything else by repr, so a str keeps its quotes."""
    return str(value) if isinstance(value, Fraction) else repr(value)


def to_float(value, name: str) -> float:
    """float(value) of an int, Fraction or float; ValueError naming ``name`` when the value
    lies past the float range or a non-zero value underflows to 0.0."""
    try:
        out = float(value)
    except OverflowError:
        raise ValueError(f"{name} lies outside the float range") from None
    if out == 0.0 and value != 0:
        raise ValueError(f"{name} underflows to 0.0 as a float")
    return out


def coerce_real(value, name: str):
    """A real argument that may be exact: an int or Fraction as a Fraction of any size, a
    finite float (numpy float64 too) as a float; anything else, bool, str, None, complex,
    nan or inf among it, raises ValueError naming ``name`` and the value."""
    if type(value) is int or isinstance(value, Fraction):
        return Fraction(value)
    if isinstance(value, float) and isfinite(value):
        return float(value)
    raise ValueError(f"{name} {_shown(value)} is not a finite real")


def require_real(value, name: str, positive: bool = False) -> float:
    """The rule for a real argument used as a float (mass, frequency, hbar, radius, time,
    angle, tolerance): an int, Fraction or float, through :func:`to_float`, finite and > 0
    when ``positive``; anything else raises ValueError naming ``name`` and the value."""
    if type(value) is int or isinstance(value, (Fraction, float)):
        out = to_float(value, name)
        if isfinite(out) and (out > 0 or not positive):
            return out
    sign = "positive " if positive else ""
    raise ValueError(f"{name} {_shown(value)} is not a {sign}finite real")


def _sample(value, name: str):
    """The rule for a time or coordinate to evaluate at: a numpy array (0-d too) or a
    sequence is used as given, a scalar goes through :func:`require_real`."""
    import numpy as np  # here, so the exact algebra imports without numpy
    return value if isinstance(value, np.ndarray) or np.ndim(value) else require_real(value, name)


def require_complex(value, name: str) -> complex:
    """The rule for a complex argument used as a complex float (a coherent-state label): an
    int or Fraction through :func:`to_float`, or a float or complex, finite; anything else,
    bool, str, None, nan or inf among it, raises ValueError naming ``name`` and the value."""
    if type(value) is int or isinstance(value, Fraction):
        return complex(to_float(value, name))
    if isinstance(value, (float, complex)):
        out = complex(value)
        if isfinite(out.real) and isfinite(out.imag):
            return out
    raise ValueError(f"{name} {_shown(value)} is not a finite complex number")


def require_int(value, name: str, lo: int | None = 0, hi: int | None = None) -> int:
    """``value`` when it is a Python int with lo <= value <= hi (hi None: no upper end;
    lo and hi None: any int).

    The one integer-argument rule for every count, size, mode and quantum number:
    Python ints only.  A bool, float, string, Fraction or numpy integer raises ValueError
    naming ``name`` and the value's repr (Fraction(2, 1), never a bare 2), as does an int out
    of range; the CLI turns it into exit 2.
    """
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise ValueError(f"{name} {value!r} is not an integer{bounds}")


def require_choice(value, name: str, choices) -> str:
    """``value`` when it is a Python str among ``choices`` (a tuple, or a dict by its keys).

    The one rule for every sign, direction, kind, basis, variable, generator, gallery and
    format name: Python strs only, tested before membership, so no lookup or elementwise ==
    runs on a list or numpy array.  Anything else, np.str_, 1, True and None among it, raises
    ValueError naming ``name``, the value's repr and the choices; the CLI turns it into exit 2.
    """
    if type(value) is str and value in choices:
        return value
    raise ValueError(f"{name} {value!r} is not one of {', '.join(map(repr, choices))}")


def rational_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None.

    Returns a Fraction r with r*r == q when q is a perfect rational square.  A q that is
    not an int or Fraction raises ValueError.
    """
    q = _as_fraction(q, "q")
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _make(c0, c1, c2, c3, d):
    """Element (c0 + c1 z + c2 z^2 + c3 z^3)/d, reduced to canonical form.

    d must be positive.
    """
    if d != 1:
        g = gcd(c0, c1, c2, c3, d)
        if g != 1:
            c0 //= g
            c1 //= g
            c2 //= g
            c3 //= g
            d //= g
    z = _new_object(ExactComplex)
    z._c0 = c0
    z._c1 = c1
    z._c2 = c2
    z._c3 = c3
    z._d = d
    return z


def _numerators(values) -> tuple:
    """The integer form of a batch of elements, for kernels that accumulate many
    products and reduce once: ([(c0, c1, c2, c3), ...], d) with element k equal
    to (c0 + c1 z + c2 z^2 + c3 z^3)/d and d the lcm of their denominators.
    Sums of such tuples (times ints, through :func:`_convolve`, :func:`_powers_of_i`)
    stay over a known denominator; ``_make(*numerators, d)`` reduces one result."""
    values = list(values)
    d = lcm(*(v._d for v in values))
    return [(v._c0 * (s := d // v._d), v._c1 * s, v._c2 * s, v._c3 * s)
            for v in values], d


def _convolve(a, b) -> tuple:
    """Numerators of a product: the negacyclic convolution (z^4 = -1) of two
    numerator 4-tuples, whose denominator is the product of theirs."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def _powers_of_i(c) -> tuple:
    """(c, i c, -c, -i c) as numerator tuples: i = z^2 shifts the coefficients two places."""
    c0, c1, c2, c3 = c
    return c, (-c2, -c3, c0, c1), (-c0, -c1, -c2, -c3), (c2, c3, -c0, -c1)


def _from_rational(x) -> "ExactComplex":
    return _make(x.numerator, 0, 0, 0, x.denominator)


class ExactComplex:
    """Element (ar + ai*i) + (br + bi*i)*sqrt2 of Q(zeta), stored on ints."""

    __slots__ = ("_c0", "_c1", "_c2", "_c3", "_d")

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        ar, ai = _as_fraction(ar, "ar"), _as_fraction(ai, "ai")
        br, bi = _as_fraction(br, "br"), _as_fraction(bi, "bi")
        parts = (ar, br + bi, ai, bi - br)
        # the lcm of reduced denominators leaves the form already canonical
        d = lcm(*(p.denominator for p in parts))
        self._c0, self._c1, self._c2, self._c3 = (
            p.numerator * (d // p.denominator) for p in parts)
        self._d = d

    # -- (A, B) coordinates -----------------------------------------------
    @property
    def ar(self) -> Fraction:
        return Fraction(self._c0, self._d)

    @property
    def ai(self) -> Fraction:
        return Fraction(self._c2, self._d)

    @property
    def br(self) -> Fraction:
        return Fraction(self._c1 - self._c3, 2 * self._d)

    @property
    def bi(self) -> Fraction:
        return Fraction(self._c1 + self._c3, 2 * self._d)

    # -- constructors -------------------------------------------------
    @classmethod
    def coerce(cls, value) -> "ExactComplex":
        """An ExactComplex, or an int or Fraction as one; anything else raises ValueError."""
        if isinstance(value, ExactComplex):
            return value
        if _is_exact(value):
            return _from_rational(value)
        raise ValueError(f"value {value!r} is not an int, Fraction or ExactComplex")

    @classmethod
    def sqrt2(cls) -> "ExactComplex":
        return cls(0, 0, 1)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not (self._c0 or self._c1 or self._c2 or self._c3)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactComplex):
            return (self._c0 == other._c0 and self._c1 == other._c1
                    and self._c2 == other._c2 and self._c3 == other._c3
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (not (self._c1 or self._c2 or self._c3)
                    and self._c0 * other.denominator == other.numerator * self._d)
        return NotImplemented

    def __hash__(self):
        return hash((self._c0, self._c1, self._c2, self._c3, self._d))

    # -- ring operations -----------------------------------------------
    def __add__(self, other):
        if not isinstance(other, ExactComplex):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _from_rational(other)
        d, e = self._d, other._d
        if d == e:
            return _make(self._c0 + other._c0, self._c1 + other._c1,
                         self._c2 + other._c2, self._c3 + other._c3, d)
        return _make(self._c0 * e + other._c0 * d, self._c1 * e + other._c1 * d,
                     self._c2 * e + other._c2 * d, self._c3 * e + other._c3 * d,
                     d * e)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._c0, -self._c1, -self._c2, -self._c3, self._d)

    def __sub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return self + (-ExactComplex.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return ExactComplex.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, ExactComplex):
            if isinstance(other, int):  # scale the numerators, skip the convolution
                return _make(self._c0 * other, self._c1 * other, self._c2 * other,
                             self._c3 * other, self._d)
            if not isinstance(other, Fraction):
                return NotImplemented
            other = _from_rational(other)
        return _make(*_convolve((self._c0, self._c1, self._c2, self._c3),
                                (other._c0, other._c1, other._c2, other._c3)),
                     self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactComplex":
        """Multiplicative inverse: the product of the three Galois
        conjugates (zeta -> zeta^3, zeta^5, zeta^7) over the rational norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        a0, a1, a2, a3 = self._c0, self._c1, self._c2, self._c3
        # u = a * sigma5(a) = x0 + x2 z^2 lies in Q(i); sigma3(u) = x0 - x2 z^2
        # and sigma3(a) sigma7(a) = sigma3(u), so 1/a = sigma5(a) sigma3(u) / N
        # with N = u sigma3(u) = x0^2 + x2^2.
        x0 = a0 * a0 - a2 * a2 + 2 * a1 * a3
        x2 = 2 * a0 * a2 - a1 * a1 + a3 * a3
        b0, b1, b2, b3 = a0, -a1, a2, -a3
        d = self._d
        return _make(d * (b0 * x0 + b2 * x2), d * (b1 * x0 + b3 * x2),
                     d * (b2 * x0 - b0 * x2), d * (b3 * x0 - b1 * x2),
                     x0 * x0 + x2 * x2)

    def conjugate(self) -> "ExactComplex":
        """Complex conjugation, the automorphism zeta -> zeta^7 = 1/zeta."""
        return _make(self._c0, -self._c3, -self._c2, -self._c1, self._d)

    # -- numerics / display ---------------------------------------------
    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float() of the reduced Fraction
        d, d2 = self._d, 2 * self._d
        try:
            return complex(self._c0 / d + _SQRT2 * ((self._c1 - self._c3) / d2),
                           self._c2 / d + _SQRT2 * ((self._c1 + self._c3) / d2))
        except OverflowError:
            raise ValueError("an exact value lies outside the float range") from None

    def __abs__(self) -> float:
        try:
            return abs(self.to_complex())  # a ValueError of to_complex passes through
        except OverflowError:
            raise ValueError("an exact value lies outside the float range") from None

    def __repr__(self) -> str:
        ar, ai, br, bi = self.ar, self.ai, self.br, self.bi
        parts = []
        if ar or ai:
            if ai == 0:
                parts.append(str(ar))
            elif ar == 0:
                parts.append(f"{ai}i")
            else:
                parts.append(f"({ar}{'+' if ai > 0 else ''}{ai}i)")
        if br or bi:
            if bi == 0:
                coef = str(br)
            elif br == 0:
                coef = f"{bi}i"
            else:
                coef = f"({br}{'+' if bi > 0 else ''}{bi}i)"
            parts.append(f"{coef}*sqrt2")
        return " + ".join(parts) if parts else "0"


ExactComplex.ZERO = ExactComplex(0)
ExactComplex.ONE = ExactComplex(1)
ExactComplex.I = ExactComplex(0, 1)


def ring_sqrt(q: Fraction):
    """sqrt(q) as an ExactComplex when q = r^2 or 2 r^2 (r rational), else None; a q that
    is not an int or Fraction raises ValueError."""
    q = _as_fraction(q, "q")  # an int q would halve to a float
    root = rational_sqrt(q)
    if root is not None:
        return _from_rational(root)
    root = rational_sqrt(q / 2)
    if root is not None:
        return ExactComplex(0, 0, root)
    return None
