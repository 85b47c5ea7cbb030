"""Exact phase-space polynomial algebra for the two-dimensional oscillator.

A :class:`PhasePoly` is a polynomial over Q(i)[sqrt2] in one of two variable
sets:

* canonical: ``x1, x2, p1, p2``
* circular:  ``b1+, b1-, b2+, b2-`` (classical circular ladder modes)

Each monomial additionally carries an exact rational "time frequency" mu:
the physical object represented is ``coeff * monomial * exp(i*mu*omega*t)``.
This is how explicitly time-dependent integrals of motion are encoded; the
total time derivative along the flow of a Hamiltonian H is

    dA/dt = {A, H} + i*mu*omega*A   (termwise in mu),

so "A is an integral" is the exact statement ``total_time_derivative(A, H)
== 0`` in the ring, with no floating point involved.

Brackets are generated by {x_i, p_j} = delta_ij, equivalently
{b_i^-, b_j^+} = -i delta_ij, and extended as a biderivation.  Basis
conversion uses d = sqrt(m*omega)/2 and is exact for unit systems in which
m*omega is a rational square or twice one (the default m = omega = 1 in
particular).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactComplex, ring_sqrt

__all__ = [
    "CANONICAL", "CIRCULAR", "CANONICAL_VARS", "CIRCULAR_VARS",
    "Params", "PhasePoly", "CartanForm",
    "poisson_bracket", "total_time_derivative", "reduce_to_cartan",
]

CANONICAL = "canonical"
CIRCULAR = "circular"

CANONICAL_VARS = ("x1", "x2", "p1", "p2")
CIRCULAR_VARS = ("b1+", "b1-", "b2+", "b2-")

_VARS = {CANONICAL: CANONICAL_VARS, CIRCULAR: CIRCULAR_VARS}

_ZERO = Fraction(0)
_I = ExactComplex.I


@dataclass(frozen=True)
class Params:
    """Exact unit parameters (mass, frequency)."""

    m: Fraction = Fraction(1)
    omega: Fraction = Fraction(1)

    @classmethod
    def coerce(cls, value) -> "Params":
        if value is None:
            return cls()
        if isinstance(value, Params):
            return value
        m, omega = value
        return cls(Fraction(m), Fraction(omega))

    def conversion_factor(self) -> ExactComplex:
        """d = sqrt(m*omega)/2 as a ring element.

        Exact when m*omega is q^2 or 2*q^2 for rational q; raises otherwise
        since the conversion would leave the coefficient ring.
        """
        mw = self.m * self.omega
        root = ring_sqrt(mw)
        if root is not None:
            return root * Fraction(1, 2)
        raise ValueError(
            f"m*omega = {mw} is neither a rational square nor twice one; "
            "exact mode conversion is unavailable for these units")


class PhasePoly:
    """Polynomial over Q(i)[sqrt2] with per-term exact time frequency."""

    __slots__ = ("basis", "params", "terms")

    def __init__(self, basis: str, terms: dict | None = None, params=None):
        if basis not in _VARS:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.params = Params.coerce(params)
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = ExactComplex.coerce(coeff)
            if coeff.is_zero():
                continue
            e = tuple(int(v) for v in key[:4])
            mu = key[4] if len(key) > 4 else _ZERO
            if not isinstance(mu, Fraction):
                mu = Fraction(mu)
            if any(v < 0 for v in e):
                raise ValueError("negative exponent")
            clean[(*e, mu)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, basis: str, params=None) -> "PhasePoly":
        return cls(basis, {}, params)

    @classmethod
    def constant(cls, value, basis: str, params=None) -> "PhasePoly":
        return cls(basis, {(0, 0, 0, 0, _ZERO): ExactComplex.coerce(value)},
                   params)

    @classmethod
    def variable(cls, name: str, basis: str, params=None,
                 mu: Fraction = _ZERO) -> "PhasePoly":
        names = _VARS[basis]
        if name not in names:
            raise ValueError(f"{name!r} is not a {basis} variable")
        e = [0, 0, 0, 0]
        e[names.index(name)] = 1
        return cls(basis, {(*e, Fraction(mu)): ExactComplex.ONE}, params)

    # -- inspection -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return (self.basis == other.basis and self.terms == other.terms
                and self.params == other.params)

    def __len__(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        return max((sum(k[:4]) for k in self.terms), default=0)

    def frequencies(self) -> set:
        return {k[4] for k in self.terms}

    def at_time_zero(self) -> "PhasePoly":
        """Drop the exp(i mu w t) tags (evaluate the time factors at t=0)."""
        out = {}
        for key, coeff in self.terms.items():
            k0 = (*key[:4], _ZERO)
            out[k0] = out.get(k0, ExactComplex.ZERO) + coeff
        return PhasePoly(self.basis, out, self.params)

    # -- ring operations ---------------------------------------------------
    def _compat(self, other: "PhasePoly"):
        if self.basis != other.basis:
            raise ValueError("basis mismatch")
        if self.params != other.params:
            raise ValueError("params mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = PhasePoly.constant(other, self.basis, self.params)
        self._compat(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, ExactComplex.ZERO) + coeff
        return PhasePoly(self.basis, out, self.params)

    __radd__ = __add__

    def __neg__(self):
        return PhasePoly(self.basis,
                         {k: -c for k, c in self.terms.items()}, self.params)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = PhasePoly.constant(other, self.basis, self.params)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            c = ExactComplex.coerce(other)
            return PhasePoly(self.basis,
                             {k: v * c for k, v in self.terms.items()},
                             self.params)
        self._compat(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2],
                       k1[3] + k2[3], k1[4] + k2[4])
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return PhasePoly(self.basis, out, self.params)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = PhasePoly.constant(1, self.basis, self.params)
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self) -> "PhasePoly":
        """Complex conjugation.

        Canonical variables are real; circular modes conjugate pairwise
        (b_i^+ <-> b_i^-).  The time factor conjugates to -mu.
        """
        out = {}
        for key, coeff in self.terms.items():
            e = key[:4]
            if self.basis == CIRCULAR:
                e = (e[1], e[0], e[3], e[2])
            k = (*e, -key[4])
            out[k] = out.get(k, ExactComplex.ZERO) + coeff.conjugate()
        return PhasePoly(self.basis, out, self.params)

    def diff(self, name: str) -> "PhasePoly":
        """Formal partial derivative with respect to one variable."""
        i = _VARS[self.basis].index(name)
        out = {}
        for key, coeff in self.terms.items():
            if key[i] == 0:
                continue
            e = list(key[:4])
            n = e[i]
            e[i] = n - 1
            k = (*e, key[4])
            add = coeff * n
            out[k] = out.get(k, ExactComplex.ZERO) + add
        return PhasePoly(self.basis, out, self.params)

    # -- basis conversion ---------------------------------------------------
    def to_basis(self, basis: str) -> "PhasePoly":
        if basis == self.basis:
            return self
        # substitute on exponent-only keys: the degree-1 images carry no time
        # tag, so each source term's mu is attached once, to its whole image
        pows = [[image] for image in
                _conversion_images(self.basis, basis, self.params)]
        by_mu: dict = {}  # mu -> {exponents: coefficient}
        for key, coeff in self.terms.items():
            term = _UNIT
            for i in range(4):
                n = key[i]
                if n:
                    lst = pows[i]
                    while len(lst) < n:
                        lst.append(_product(lst[-1], lst[0]))
                    term = lst[n - 1] if term is _UNIT else _product(term, lst[n - 1])
            acc = by_mu.setdefault(key[4], {})
            for e, c in term.items():
                prod = coeff * c
                if e in acc:
                    acc[e] = acc[e] + prod
                else:
                    acc[e] = prod
        return PhasePoly(basis, {(*e, mu): c for mu, acc in by_mu.items()
                                 for e, c in acc.items()}, self.params)

    # -- numerics ------------------------------------------------------------
    def evaluate(self, point: dict, t: float = 0.0) -> complex:
        """Numeric evaluation; `point` maps this basis's variable names to
        complex values.  Time factors use the params' omega.  A power or
        time factor outside the float range raises ValueError."""
        import cmath
        w = float(self.params.omega)
        names = _VARS[self.basis]
        vals = [complex(point[n]) for n in names]
        total = 0j
        try:
            for key, coeff in self.terms.items():
                v = coeff.to_complex()
                for i in range(4):
                    if key[i]:
                        v *= vals[i] ** key[i]
                if key[4] and t:  # the time factor is exactly 1 at t = 0
                    v *= cmath.exp(1j * float(key[4]) * w * t)
                total += v
        except OverflowError as exc:
            raise ValueError(f"polynomial value leaves the float range: {exc}") from None
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = _VARS[self.basis]
        bits = []
        for key in sorted(self.terms, key=lambda k: (k[4], k[:4])):
            coeff = self.terms[key]
            factors = [f"({coeff!r})"]
            for i, n in enumerate(key[:4]):
                if n == 1:
                    factors.append(names[i])
                elif n > 1:
                    factors.append(f"{names[i]}^{n}")
            if key[4]:
                factors.append(f"E[{key[4]}]")
            bits.append("*".join(factors))
        return " + ".join(bits)

    __repr__ = __str__


_UNIT = {(0, 0, 0, 0): ExactComplex.ONE}


def _product(a: dict, b: dict) -> dict:
    """Product of two polynomials given as {exponent 4-tuple: coefficient}."""
    out = {}
    for (i0, i1, i2, i3), c1 in a.items():
        for (j0, j1, j2, j3), c2 in b.items():
            key = (i0 + j0, i1 + j1, i2 + j2, i3 + j3)
            prod = c1 * c2
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod
    return {k: c for k, c in out.items() if c}


def _conversion_images(src: str, dst: str, params: Params) -> list:
    """Degree-1 images of the src variables, in src variable order, as
    {dst exponent 4-tuple: coefficient} dicts."""
    d = params.conversion_factor()
    dinv = d.inverse()
    i = _I

    if src == CANONICAL and dst == CIRCULAR:
        # b1- = d(x1 - i x2) + (i/4d)(p1 - i p2), b2- = d(x1 + i x2) + (i/4d)(p1 + i p2)
        # inverses actually needed here:
        q = Fraction(1, 4) * dinv
        images = {
            "x1": {(0, 1, 0, 0): q, (0, 0, 0, 1): q,
                   (1, 0, 0, 0): q, (0, 0, 1, 0): q},
            "x2": {(0, 0, 0, 1): -i * q, (0, 1, 0, 0): i * q,
                   (1, 0, 0, 0): -i * q, (0, 0, 1, 0): i * q},
            "p1": {(0, 1, 0, 0): -i * d, (0, 0, 0, 1): -i * d,
                   (1, 0, 0, 0): i * d, (0, 0, 1, 0): i * d},
            "p2": {(0, 1, 0, 0): d, (0, 0, 0, 1): -d,
                   (1, 0, 0, 0): d, (0, 0, 1, 0): -d},
        }
    elif src == CIRCULAR and dst == CANONICAL:
        q = Fraction(1, 4) * dinv
        images = {
            "b1-": {(1, 0, 0, 0): d, (0, 1, 0, 0): -i * d,
                    (0, 0, 1, 0): i * q, (0, 0, 0, 1): q},
            "b2-": {(1, 0, 0, 0): d, (0, 1, 0, 0): i * d,
                    (0, 0, 1, 0): i * q, (0, 0, 0, 1): -q},
            "b1+": {(1, 0, 0, 0): d, (0, 1, 0, 0): i * d,
                    (0, 0, 1, 0): -i * q, (0, 0, 0, 1): q},
            "b2+": {(1, 0, 0, 0): d, (0, 1, 0, 0): -i * d,
                    (0, 0, 1, 0): -i * q, (0, 0, 0, 1): -q},
        }
    else:
        raise ValueError(f"no conversion {src} -> {dst}")
    return [images[name] for name in _VARS[src]]


def poisson_bracket(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    """Poisson bracket extended as a biderivation from the generators.

    canonical: {A,B} = sum_i dA/dx_i dB/dp_i - dA/dp_i dB/dx_i
    circular:  {A,B} = -i sum_i (dA/db_i^- dB/db_i^+ - dA/db_i^+ dB/db_i^-)
    """
    a._compat(b)
    if a.basis == CANONICAL:
        out = PhasePoly.zero(a.basis, a.params)
        for x, p in (("x1", "p1"), ("x2", "p2")):
            out = out + a.diff(x) * b.diff(p) - a.diff(p) * b.diff(x)
        return out
    out = PhasePoly.zero(a.basis, a.params)
    for lo, hi in (("b1-", "b1+"), ("b2-", "b2+")):
        out = out + a.diff(lo) * b.diff(hi) - a.diff(hi) * b.diff(lo)
    return out * (-_I)


def total_time_derivative(a: PhasePoly, h: PhasePoly) -> PhasePoly:
    """dA/dt = {A, H} + dA/dt|_explicit along the flow of H.

    H must carry no explicit time dependence.  The explicit part multiplies
    each term by i*mu*omega exactly.
    """
    if any(mu != 0 for mu in h.frequencies()):
        raise ValueError("Hamiltonian must be time-independent")
    out = poisson_bracket(a, h)
    w = a.params.omega
    explicit = {}
    for key, coeff in a.terms.items():
        mu = key[4]
        if mu:
            explicit[key] = coeff * (_I * (mu * w))
    return out + PhasePoly(a.basis, explicit, a.params)


@dataclass
class CartanForm:
    """Result of rewriting a circular-basis polynomial in N1, N2.

    ``diagonal`` maps (k1, k2) -> coefficient of N1^k1 N2^k2; ``remainder``
    collects the terms that are not functions of the number variables
    (unequal raising/lowering exponents, or residual time dependence).
    """

    diagonal: dict
    remainder: PhasePoly

    @property
    def is_pure(self) -> bool:
        return self.remainder.is_zero()


def reduce_to_cartan(a: PhasePoly) -> CartanForm:
    if a.basis != CIRCULAR:
        raise ValueError("reduce_to_cartan expects the circular basis")
    diagonal = {}
    rem = {}
    for key, coeff in a.terms.items():
        e1p, e1m, e2p, e2m = key[:4]
        if key[4] == 0 and e1p == e1m and e2p == e2m:
            k = (e1p, e2p)
            diagonal[k] = diagonal.get(k, ExactComplex.ZERO) + coeff
        else:
            rem[key] = coeff
    diagonal = {k: c for k, c in diagonal.items() if not c.is_zero()}
    return CartanForm(diagonal, PhasePoly(a.basis, rem, a.params))
