"""Exact phase-space polynomial algebra for the two-dimensional oscillator.

A :class:`PhasePoly` is a polynomial over Q(i)[sqrt2] in one of two variable
sets:

* canonical: ``x1, x2, p1, p2``
* circular:  ``b1+, b1-, b2+, b2-`` (classical circular ladder modes)

Each monomial additionally carries an exact rational "time frequency" mu, an int when
integral, else a Fraction, as the fifth entry of its term key (e1, e2, e3, e4, mu): the
physical object represented is ``coeff * monomial * exp(i*mu*omega*t)``.  This is how
explicitly time-dependent integrals of motion are encoded; the total time derivative along
the flow of a Hamiltonian H is

    dA/dt = {A, H} + i*mu*omega*A   (termwise in mu),

so "A is an integral" is the exact statement ``total_time_derivative(A, H)
== 0`` in the ring, with no floating point involved.

Brackets are generated by {x_i, p_j} = delta_ij, equivalently
{b_i^-, b_j^+} = -i delta_ij, and extended as a biderivation, in one pass
over term pairs on integer numerators (:func:`poisson_bracket`).  Basis
conversion is four pair transforms at unit scale, m*omega = 1: with
w = x1 + i x2 and pi = p1 + i p2, w = b1+ + b2-, pi = i (b1+ - b2-),
wbar = b1- + b2+ and pibar = i (b2+ - b1-).  Each step expands (s + t)^a (s - t)^b with
the integer rows of :func:`krawtchouk_rows`; the four run on integer numerators over one
running denominator, and each output coefficient is reduced once, after the last.  The
units enter as one dilation x -> sqrt(m*omega) x, p -> p/sqrt(m*omega) (:func:`_dilate`,
also the bridge's T_D0): a term of even total degree converts at any rational (m, omega),
one of odd degree needs m*omega to be a rational square or twice one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .exact import (ExactComplex, _convolve, _is_exact, _make as _element, _numerators,
                    _powers_of_i, require_choice, require_int, require_real, ring_sqrt)

__all__ = [
    "CANONICAL", "CIRCULAR", "CANONICAL_VARS", "CIRCULAR_VARS",
    "Params", "PhasePoly", "CartanForm",
    "poisson_bracket", "total_time_derivative", "reduce_to_cartan",
    "krawtchouk_rows",
]

CANONICAL = "canonical"
CIRCULAR = "circular"

CANONICAL_VARS = ("x1", "x2", "p1", "p2")
CIRCULAR_VARS = ("b1+", "b1-", "b2+", "b2-")

_VARS = {CANONICAL: CANONICAL_VARS, CIRCULAR: CIRCULAR_VARS}

_I = ExactComplex.I
_HALF = Fraction(1, 2)


def _checked_key(key) -> tuple:
    """(e1, e2, e3, e4, mu) from a 5-entry tuple key: int exponents >= 0 and an int or Fraction
    mu, kept by :func:`_tag`; anything else, a 4-entry key, a range or another sequence among
    them, raises ValueError."""
    if type(key) is not tuple or len(key) != 5:
        raise ValueError(f"a term key is (e1, e2, e3, e4, mu), got {key!r}")
    exps, mu = key[:4], key[4]
    if not all(type(v) is int and v >= 0 for v in exps) or not _is_exact(mu):
        raise ValueError(f"a term key needs int exponents >= 0 and an exact mu, got {key!r}")
    return (*exps, mu if type(mu) is int else _tag(Fraction(mu)))


def _tag(mu):
    """mu as keys hold it: an int when integral (it hashes for free), else a Fraction."""
    return mu.numerator if mu.denominator == 1 else mu


def _drop_zeros(terms: dict) -> dict:
    for key in [key for key, c in terms.items() if not c]:
        del terms[key]
    return terms


def _make(basis: str, terms: dict, params: "Params") -> "PhasePoly":
    """A ring operation's result; it owns `terms`, whose keys are already checked."""
    out = object.__new__(PhasePoly)
    out.basis, out.params, out.terms = basis, params, _drop_zeros(terms)
    return out


@dataclass(frozen=True)
class Params:
    """Exact unit parameters (mass, frequency): positive ints or Fractions, else ValueError."""

    m: Fraction = Fraction(1)
    omega: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("m", "omega"):
            value = getattr(self, name)
            if not _is_exact(value) or value.numerator <= 0:
                raise ValueError(f"{name} must be a positive int or Fraction, got {value!r}")
            object.__setattr__(self, name, Fraction(value))

    @classmethod
    def coerce(cls, value) -> "Params":
        if value is None:
            return _UNIT
        if isinstance(value, Params):
            return value
        if not isinstance(value, (tuple, list)) or len(value) != 2:
            raise ValueError(f"params {value!r} is not None, a Params or an (m, omega) pair")
        return cls(*value)


_UNIT = Params()  # m = omega = 1, shared: Params is frozen


class PhasePoly:
    """Polynomial over Q(i)[sqrt2] with per-term exact time frequency.

    `terms` maps (e1, e2, e3, e4, mu) to coefficients: int exponents >= 0 in the basis's
    variable order and an int or Fraction time tag mu; any other key (a 4-entry one among
    them) and a map that is not a dict raise ValueError.
    """

    __slots__ = ("basis", "params", "terms")

    def __init__(self, basis: str, terms: dict | None = None, params=None):
        self.basis = require_choice(basis, "basis", _VARS)
        self.params = Params.coerce(params)
        if terms is not None and not isinstance(terms, dict):
            raise ValueError(f"terms {terms!r} is not a dict")
        clean = {}
        for raw, coeff in (terms or {}).items():
            key, coeff = _checked_key(raw), ExactComplex.coerce(coeff)
            if not coeff.is_zero():
                clean[key] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, basis: str, params=None) -> "PhasePoly":
        return cls(basis, {}, params)

    @classmethod
    def constant(cls, value, basis: str, params=None) -> "PhasePoly":
        return cls(basis, {(0, 0, 0, 0, 0): ExactComplex.coerce(value)},
                   params)

    @classmethod
    def variable(cls, name: str, basis: str, params=None,
                 mu: Fraction = 0) -> "PhasePoly":
        names = _VARS[require_choice(basis, "basis", _VARS)]
        e = [0, 0, 0, 0]
        e[names.index(require_choice(name, "variable", names))] = 1
        return cls(basis, {(*e, mu): ExactComplex.ONE}, params)

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
            k0 = (*key[:4], 0)
            out[k0] = out.get(k0, ExactComplex.ZERO) + coeff
        return _make(self.basis, out, self.params)

    # -- ring operations ---------------------------------------------------
    def _compat(self, other: "PhasePoly"):
        if self.basis != other.basis:
            raise ValueError("basis mismatch")
        if self.params is not other.params and self.params != other.params:
            raise ValueError("params mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = PhasePoly.constant(other, self.basis, self.params)
        self._compat(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, ExactComplex.ZERO) + coeff
        return _make(self.basis, out, self.params)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.basis, {k: -c for k, c in self.terms.items()}, self.params)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = PhasePoly.constant(other, self.basis, self.params)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            c = ExactComplex.coerce(other)
            return _make(self.basis, {k: v * c for k, v in self.terms.items()},
                         self.params)
        self._compat(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2],
                       k1[3] + k2[3], _tag(k1[4] + k2[4]))
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return _make(self.basis, out, self.params)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        require_int(n, "power")
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
        return _make(self.basis, out, self.params)

    # -- basis conversion ---------------------------------------------------
    def to_basis(self, basis: str) -> "PhasePoly":
        """The same polynomial in the other variable set, by four pair steps.

        The steps run at m*omega = 1 (``_TO_CIRCULAR``, ``_TO_CANONICAL``):
        x1 = (w + wbar)/2, x2 = -i/2 (w - wbar), likewise (p1, p2) -> (pi, pibar), then
        w = b1+ + b2-, pi = i (b1+ - b2-), wbar = b2+ + b1-, pibar = i (b2+ - b1-); back,
        b2-, b1+ = S +- T and b1-, b2+ = Sbar +- Tbar with S, Sbar = (x1 +- i x2)/2 and
        T, Tbar = i (p1 +- i p2)/2.  The units are one dilation on the canonical side
        (:func:`_dilate`, lam^2 = 1/(m*omega) before the steps, m*omega after); an
        odd-degree term that leaves the ring raises ValueError naming it, before any step.
        """
        if require_choice(basis, "basis", _VARS) == self.basis:
            return self
        mw, to_circular = self.params.m * self.params.omega, basis == CIRCULAR
        if not to_circular and mw != 1 and ring_sqrt(mw) is None:  # odd degree stays odd
            if (odd := next((k for k in self.terms if sum(k[:4]) % 2), None)) is not None:
                term = _make(self.basis, {odd: self.terms[odd]}, self.params)
                raise ValueError(f"term {term} has odd degree, so its image needs sqrt({mw}), "
                                 "which leaves Q(zeta)")
        by_mu: dict = {}  # the steps run on exponent-only keys, one time tag at a time
        for key, coeff in _dilate(self, 1 / mw if to_circular else 1).terms.items():
            by_mu.setdefault(key[4], {})[key[:4]] = coeff
        out = {}
        for mu, terms in by_mu.items():
            nums, d = _numerators(terms.values())
            nums = dict(zip(terms, nums))
            for step in _TO_CIRCULAR if to_circular else _TO_CANONICAL:
                nums, d = _pair_step(nums, d, *step)
            out.update({(*e, mu): _element(*c, d) for e, c in nums.items()})
        return _dilate(_make(basis, out, self.params), 1 if to_circular else mw)

    # -- numerics ------------------------------------------------------------
    def evaluate(self, point: dict, t: float = 0.0) -> complex:
        """Numeric evaluation; `point` maps this basis's variable names to
        complex values.  Time factors use the params' omega.  A variable missing
        from `point`, a power or time factor outside the float range, or a t that
        is not a finite real raises ValueError."""
        import cmath
        t, w = require_real(t, "t"), float(self.params.omega)
        names = _VARS[self.basis]
        if (missing := next((n for n in names if n not in point), None)) is not None:
            raise ValueError(f"point {point!r} gives no value for variable {missing!r}")
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


@cache
def krawtchouk_rows(n: int) -> tuple:
    """Integer kernel of degree n: row r holds the coefficients of x^0 .. x^n in
    G = (1 - x)^r (1 + x)^(n - r), i.e. of s^(n-m) t^m in (s + t)^(n-r) (s - t)^r,
    from (m+1) K_m+1 = (n - 2r) K_m - (n - m + 1) K_m-1, as (1 - x^2) G' = (n - 2r - n x) G.
    An n that is not an int >= 0 raises ValueError.
    """
    require_int(n, "n")
    cols = [[1] * (n + 1), [n - 2 * r for r in range(n + 1)]]
    for m in range(1, n):
        cols.append([((n - 2 * r) * k1 - (n - m + 1) * k0) // (m + 1)
                     for r, k0, k1 in zip(range(n + 1), cols[m - 1], cols[m])])
    return tuple(zip(*cols[: n + 1]))


def _accumulate(sums: dict, key, k: int, c: tuple):
    """sums[key] += k c on numerator 4-lists, a key entering on first sight."""
    acc = sums.get(key)
    if acc is None:
        sums[key] = [k * c[0], k * c[1], k * c[2], k * c[3]]
    else:
        acc[0] += k * c[0]
        acc[1] += k * c[1]
        acc[2] += k * c[2]
        acc[3] += k * c[3]


def _pair_step(nums: dict, d: int, i: int, j: int, s_slot: int, t_slot: int,
               alpha: ExactComplex, beta: ExactComplex, phase: bool) -> tuple[dict, int]:
    """Substitute v_i = alpha (s + t), v_j = beta (s - t) into {exponent 4-tuple:
    numerator 4-tuple} over the denominator d, the exponents of s and t going to slots
    s_slot, t_slot (i and j).  With `phase`, t = i u and the result is in u (u^m gains i^m).

    Integer form: the power products alpha^a beta^b (one per (a, b) present), convolved on
    numerators, go over one lcm denominator d'; each output key sums a term's numerators
    times theirs times its Krawtchouk entry (times i^m with `phase`).  The sums, zero ones
    dropped, are over d d' and unreduced: :meth:`PhasePoly.to_basis` chains its four steps
    on one running denominator and reduces each output coefficient once.  Keys keep their
    first-seen order.
    """
    ((alpha,), da), ((beta,), db) = _numerators((alpha,)), _numerators((beta,))
    apow, bpow, scale = [(1, 0, 0, 0)], [(1, 0, 0, 0)], {}
    for key in nums:
        a, b = key[i], key[j]
        if (a, b) not in scale:
            while len(apow) <= a:
                apow.append(_convolve(apow[-1], alpha))
            while len(bpow) <= b:
                bpow.append(_convolve(bpow[-1], beta))
            scale[a, b] = _convolve(apow[a], bpow[b]), da ** a * db ** b
    d_scale = lcm(*(d for _, d in scale.values()))
    factors = {ab: tuple(x * (d_scale // d) for x in c) for ab, (c, d) in scale.items()}
    sums = {}
    for key, c in nums.items():
        a, b = key[i], key[j]
        n = a + b
        c = _convolve(c, factors[a, b])
        turns = _powers_of_i(c) if phase else (c, c, c, c)
        e = list(key)
        for m, kernel in enumerate(krawtchouk_rows(n)[b]):
            if not kernel:
                continue
            e[s_slot], e[t_slot] = n - m, m
            _accumulate(sums, tuple(e), kernel, turns[m & 3])
    return {key: acc for key, acc in sums.items() if any(acc)}, d * d_scale


# _pair_step arguments (i, j, s_slot, t_slot, alpha, beta, phase) at m*omega = 1
_ONE, _HALF_C, _HALF_I = ExactComplex.ONE, ExactComplex(_HALF), ExactComplex(0, _HALF)
_TO_CIRCULAR = (  # x1 x2 p1 p2 -> w wbar pibar pi -> b1+ b1- b2+ b2-
    (0, 1, 0, 1, _HALF_C, -_HALF_I, False), (2, 3, 3, 2, _HALF_C, -_HALF_I, False),
    (0, 3, 0, 3, _ONE, _I, False), (1, 2, 2, 1, _ONE, _I, False))
_TO_CANONICAL = (  # b1+ b1- b2+ b2- -> S Sbar Tbar T -> x1 x2 p1 p2
    (3, 0, 0, 3, _ONE, _ONE, False), (1, 2, 1, 2, _ONE, _ONE, False),
    (0, 1, 0, 1, _HALF_C, _HALF_C, True), (3, 2, 2, 3, _HALF_I, _HALF_I, True))


def _dilate(a: PhasePoly, lam_sq) -> PhasePoly:
    """x -> lam x, p -> p/lam on a canonical polynomial, lam^2 = lam_sq rational > 0: a
    term x^a p^b gains lam^(a-b).  It is the change of units (lam^2 = m*omega or its
    inverse) and the bridge's T_D0(-ln 2) (lam^2 = 2).  lam (:func:`ring_sqrt`) is
    needed only for odd a - b; a term that needs it outside Q(zeta) raises ValueError."""
    lam_sq = Fraction(lam_sq)
    if lam_sq == 1:
        return a
    factors, out = {}, {}
    for key, coeff in a.terms.items():
        k = key[0] + key[1] - key[2] - key[3]
        if k not in factors:
            factors[k] = ExactComplex(lam_sq ** (k // 2))
            if k % 2:
                root = ring_sqrt(lam_sq)
                if root is None:
                    raise ValueError(f"term {_make(a.basis, {key: coeff}, a.params)} scales by "
                                     f"sqrt({lam_sq})^{k}, which leaves Q(zeta): {lam_sq} is "
                                     "neither a rational square nor twice one")
                factors[k] = factors[k] * root
        out[key] = coeff * factors[k]
    return _make(a.basis, out, a.params)


# per basis, the slot pairs (u, v) of the bracket {A,B} = sum dA/du dB/dv - dA/dv dB/du
# (before the circular factor -i) and the exponent each product of the pair loses
_BRACKET_SLOTS = {
    CANONICAL: ((0, 2, (1, 0, 1, 0)), (1, 3, (0, 1, 0, 1))),  # (x_i, p_i)
    CIRCULAR: ((1, 0, (1, 1, 0, 0)), (3, 2, (0, 0, 1, 1))),   # (b_i-, b_i+)
}


def poisson_bracket(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    """Poisson bracket extended as a biderivation from the generators.

    canonical: {A,B} = sum_i dA/dx_i dB/dp_i - dA/dp_i dB/dx_i
    circular:  {A,B} = -i sum_i (dA/db_i^- dB/db_i^+ - dA/db_i^+ dB/db_i^-)

    One pass over term pairs (k1, c1) x (k2, c2): both products of a slot pair
    (u, v) land on the monomial k1 + k2 - e_u - e_v, time tag mu1 + mu2, with the
    factor n = k1[u] k2[v] - k1[v] k2[u].  A pair with n = 0 for both slot pairs
    is skipped; otherwise c1 c2 is formed once, on integer numerators over the
    lcm denominators of A's and of B's coefficients, and n c1 c2 is added.  Each
    output term is reduced once, after the circular -i.
    """
    a._compat(b)
    slots = _BRACKET_SLOTS[a.basis]
    left, da = _numerators(a.terms.values())
    right, db = _numerators(b.terms.values())
    right = list(zip(b.terms, right))
    sums = {}
    for k1, x in zip(a.terms, left):
        for k2, y in right:
            prod = None
            for u, v, (f0, f1, f2, f3) in slots:
                n = k1[u] * k2[v] - k1[v] * k2[u]
                if not n:
                    continue
                if prod is None:
                    prod, mu = _convolve(x, y), _tag(k1[4] + k2[4])
                _accumulate(sums, (k1[0] + k2[0] - f0, k1[1] + k2[1] - f1,
                                   k1[2] + k2[2] - f2, k1[3] + k2[3] - f3, mu), n, prod)
    turn = 3 if a.basis == CIRCULAR else 0  # -i = i^3
    d = da * db
    return _make(a.basis, {key: _element(*_powers_of_i(acc)[turn], d)
                           for key, acc in sums.items()}, a.params)


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
    return out + _make(a.basis, explicit, a.params)


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
    return CartanForm(diagonal, _make(a.basis, rem, a.params))
