"""Bracket engine and basis conversion against independent oracles: sympy,
and the variable-by-variable substitution that ``to_basis`` used to run."""
import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from riaho.phasealg import (CANONICAL, CIRCULAR, ExactComplex, Params,
                            PhasePoly, angular_momentum, hamiltonian, poisson_bracket,
                            reduce_to_cartan, total_time_derivative)
from riaho.phasealg.exact import ring_sqrt
from riaho.phasealg import poly
from riaho.phasealg.poly import krawtchouk_rows
from test_phasealg_properties import canonical_polys, circular_polys

X1, X2, P1, P2 = sp.symbols("x1 x2 p1 p2")
_SYMS = (X1, X2, P1, P2)

# the (m, omega) pairs of the conversion tests
UNIT_PAIRS = [(F(1), F(1)), (F(1), F(4)), (F(2), F(1)),
              (F(1), F(2)), (F(1, 2), F(1)), (F(9), F(2))]


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


@pytest.mark.parametrize("m,w", UNIT_PAIRS)
def test_conversion_round_trip(m, w):
    params = Params(m, w)
    rng = random.Random(17)
    for _ in range(5):
        p = random_poly(rng)
        p = PhasePoly(CANONICAL, p.terms, params)
        assert p.to_basis(CIRCULAR).to_basis(CANONICAL) == p


def test_conversion_unavailable_units():
    # m*omega = 3: neither a rational square nor twice one, so the odd-degree x1 has no image
    p = PhasePoly.variable("x1", CANONICAL, params=(F(3), F(1)))
    with pytest.raises(ValueError, match="x1"):
        p.to_basis(CIRCULAR)


# (m, omega) with m*omega = 6, 3/5 and 7/2: neither a rational square nor twice one
OFF_RING_UNITS = [Params(4, F(3, 2)), Params(F(3, 5), 1), Params(7, F(1, 2))]


def _even_poly(rng, basis, params):
    """Four terms of even total degree <= 12, random exponents, coefficients and time tags."""
    terms = {}
    for _ in range(4):
        e = [0, 0, 0, 0]
        for _ in range(2 * rng.randint(0, 6)):
            e[rng.randrange(4)] += 1
        terms[(*e, rng.choice([F(0), F(1), F(-2), F(1, 3)]))] = ExactComplex(
            F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(rng.randint(-2, 2), 2),
            F(rng.randint(-1, 1), 3))
    return PhasePoly(basis, terms, params)


@pytest.mark.parametrize("params", OFF_RING_UNITS, ids=str)
class TestEvenDegreeAtAnyRationalUnits:
    """Terms of even total degree convert at any rational (m, omega)."""

    @staticmethod
    def _round_trips(p):
        other = CIRCULAR if p.basis == CANONICAL else CANONICAL
        there = p.to_basis(other)
        assert there.params == p.params and there.to_basis(p.basis) == p

    def test_h_g_p_phi_and_products_round_trip(self, params):
        h, h3, p_phi = hamiltonian(F(1, 3), params), hamiltonian(3, params), angular_momentum(params)
        for p in (h, p_phi, h * p_phi, h * h3, p_phi * p_phi * h3):
            self._round_trips(p)

    def test_h_g_is_the_textbook_canonical_form(self, params):
        # p^2/2m + m w^2 x^2/2 + g w p_phi, written out in the canonical ring
        m, w, g = params.m, params.omega, F(1, 3)
        x1, x2, p1, p2 = (PhasePoly.variable(n, CANONICAL, params) for n in ("x1", "x2", "p1", "p2"))
        want = ((p1 * p1 + p2 * p2) * (1 / (2 * m)) + (x1 * x1 + x2 * x2) * (m * w * w / 2)
                + (x1 * p2 - x2 * p1) * (g * w))
        assert hamiltonian(g, params).to_basis(CANONICAL) == want
        assert want.to_basis(CIRCULAR) == hamiltonian(g, params)

    @pytest.mark.parametrize("basis", [CANONICAL, CIRCULAR])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_even_degree_polys_round_trip(self, params, basis, seed):
        self._round_trips(_even_poly(random.Random(f"{seed}/{params}"), basis, params))

    def test_odd_degree_canonical_term_raises_naming_it(self, params):
        x1, p2 = (PhasePoly.variable(n, CANONICAL, params) for n in ("x1", "p2"))
        with pytest.raises(ValueError, match=r"x1\*p2\^2"):
            (x1 * x1 + x1 * p2 * p2).to_basis(CIRCULAR)

    def test_odd_degree_circular_term_raises_naming_it(self, params, monkeypatch):
        # the degree is checked before any pair step runs, so the message names b1+ itself
        def no_step(*args):
            raise AssertionError("a pair step ran")

        monkeypatch.setattr(poly, "_pair_step", no_step)
        b = PhasePoly.variable("b1+", CIRCULAR, params)
        with pytest.raises(ValueError, match=r"^term \(1\)\*b1\+ has odd degree.* Q\(zeta\)"):
            (b * b + b).to_basis(CANONICAL)


def test_to_basis_rejects_unknown_basis():
    with pytest.raises(ValueError):
        PhasePoly.variable("x1", CANONICAL).to_basis("polar")


# sympy's own exact arithmetic: polynomials over Q(sqrt2, i)
_K = sp.QQ.algebraic_field(sp.sqrt(2), sp.I)
_R, *_GENS = ring("x1 x2 p1 p2 b1p b1m b2p b2m", _K)
_RING_VARS = {CANONICAL: tuple(_GENS[:4]), CIRCULAR: tuple(_GENS[4:])}
_KI, _KSQRT2 = _K.from_sympy(sp.I), _K.from_sympy(sp.sqrt(2))


def sympy_images(m, w) -> dict:
    """basis -> the images of its variables in the other basis: the circular
    modes written out with d = sqrt(m w)/2 and q = 1/(4d), and the canonical
    variables from sympy's inverse of that linear map."""
    d = _K.from_sympy(sp.sqrt(sp.Rational(m.numerator, m.denominator)
                              * sp.Rational(w.numerator, w.denominator)) / 2)
    q, i = _K.one / (4 * d), _KI
    x1, x2, p1, p2 = _RING_VARS[CANONICAL]
    circular = [  # b1+, b1-, b2+, b2-
        d * (x1 + i * x2) - i * q * (p1 + i * p2),
        d * (x1 - i * x2) + i * q * (p1 - i * p2),
        d * (x1 - i * x2) - i * q * (p1 - i * p2),
        d * (x1 + i * x2) + i * q * (p1 + i * p2),
    ]
    mat = DomainMatrix([[b.coeff(v) for v in (x1, x2, p1, p2)] for b in circular], (4, 4), _K)
    canonical = [sum((c * b for c, b in zip(row, _RING_VARS[CIRCULAR])), _R.zero)
                 for row in mat.inv().to_list()]
    return {CANONICAL: canonical, CIRCULAR: circular}


def in_sympy_ring(poly: PhasePoly, images=None) -> dict:
    """{mu: sympy ring element} of poly, with its variables replaced by `images`."""
    def rational(f):
        return _K.convert(sp.Rational(f.numerator, f.denominator))

    out = {}
    for key, c in poly.terms.items():
        term = _R(rational(c.ar) + rational(c.ai) * _KI
                  + (rational(c.br) + rational(c.bi) * _KI) * _KSQRT2)
        for v, e in zip(images or _RING_VARS[poly.basis], key[:4]):
            term *= v ** e
        out[key[4]] = out.get(key[4], _R.zero) + term
    return {mu: p for mu, p in out.items() if p}


def _oracle_poly(rng, basis, params, degrees=(8, 5, 2)):
    """Terms of the given total degrees, random exponents, coefficients and time tags."""
    terms = {}
    for deg in degrees:
        e = [0, 0, 0, 0]
        for _ in range(deg):
            e[rng.randrange(4)] += 1
        mu = rng.choice([F(0), F(1), F(-2), F(1, 3)])
        terms[(*e, mu)] = ExactComplex(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)),
                                       F(rng.randint(-2, 2), 2), F(rng.randint(-1, 1), 3))
    return PhasePoly(basis, terms, params)


@pytest.mark.parametrize("basis", [CANONICAL, CIRCULAR])
@pytest.mark.parametrize("m,w", UNIT_PAIRS)
def test_to_basis_matches_sympy_substitution(m, w, basis):
    other = CIRCULAR if basis == CANONICAL else CANONICAL
    poly = _oracle_poly(random.Random(f"{m}/{w}/{basis}"), basis, Params(m, w))
    want = in_sympy_ring(poly, sympy_images(m, w)[basis])
    assert in_sympy_ring(poly.to_basis(other)) == want


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


def _conversion_images(src: str, params: Params) -> list:
    """Degree-1 images of the src variables, in src variable order, as
    {other-basis exponent 4-tuple: coefficient} dicts, with d = sqrt(m*omega)/2 and
    q = 1/(4d) taken here from the units (which must put d in the ring)."""
    d = ring_sqrt(params.m * params.omega) * F(1, 2)
    q = F(1, 4) * d.inverse()
    i = ExactComplex.I
    if src == CANONICAL:  # onto b1+, b1-, b2+, b2-
        return [
            {(0, 1, 0, 0): q, (0, 0, 0, 1): q, (1, 0, 0, 0): q, (0, 0, 1, 0): q},
            {(0, 0, 0, 1): -i * q, (0, 1, 0, 0): i * q, (1, 0, 0, 0): -i * q, (0, 0, 1, 0): i * q},
            {(0, 1, 0, 0): -i * d, (0, 0, 0, 1): -i * d, (1, 0, 0, 0): i * d, (0, 0, 1, 0): i * d},
            {(0, 1, 0, 0): d, (0, 0, 0, 1): -d, (1, 0, 0, 0): d, (0, 0, 1, 0): -d},
        ]
    return [  # b1+, b1-, b2+, b2- onto x1, x2, p1, p2
        {(1, 0, 0, 0): d, (0, 1, 0, 0): i * d, (0, 0, 1, 0): -i * q, (0, 0, 0, 1): q},
        {(1, 0, 0, 0): d, (0, 1, 0, 0): -i * d, (0, 0, 1, 0): i * q, (0, 0, 0, 1): q},
        {(1, 0, 0, 0): d, (0, 1, 0, 0): -i * d, (0, 0, 1, 0): -i * q, (0, 0, 0, 1): -q},
        {(1, 0, 0, 0): d, (0, 1, 0, 0): i * d, (0, 0, 1, 0): i * q, (0, 0, 0, 1): -q},
    ]


def substituted(poly: PhasePoly, basis: str) -> PhasePoly:
    """poly in `basis` by substituting each variable's degree-1 image and
    multiplying the powers out, one source term at a time."""
    pows = [[image] for image in _conversion_images(poly.basis, poly.params)]
    out = {}
    for key, coeff in poly.terms.items():
        term = _UNIT
        for i in range(4):
            n = key[i]
            if n:
                lst = pows[i]
                while len(lst) < n:
                    lst.append(_product(lst[-1], lst[0]))
                term = _product(term, lst[n - 1])
        for e, c in term.items():
            k = (*e, key[4])
            out[k] = out.get(k, ExactComplex.ZERO) + coeff * c
    return PhasePoly(basis, out, poly.params)


@settings(max_examples=20, deadline=None)
@given(st.one_of(canonical_polys, circular_polys), st.sampled_from(UNIT_PAIRS))
def test_to_basis_matches_substitution(poly, units):
    poly = PhasePoly(poly.basis, poly.terms, units)
    other = CIRCULAR if poly.basis == CANONICAL else CANONICAL
    assert poly.to_basis(other) == substituted(poly, other)


@pytest.mark.parametrize("n", range(31))
def test_krawtchouk_rows_expand_pair_products(n):
    # row r: the coefficients of s^(n-m) t^m in (s + t)^(n-r) (s - t)^r,
    # multiplied out one linear factor at a time
    def times(p, sign):  # p * (s + sign t) on coefficient lists in t
        return [x + sign * y for x, y in zip(p + [0], [0] + p)]

    for r, row in enumerate(krawtchouk_rows(n)):
        p = [1]
        for sign in [1] * (n - r) + [-1] * r:
            p = times(p, sign)
        assert list(row) == p


@pytest.mark.parametrize("key", [
    (F(3, 2), 0, 0, 0, 0),     # a non-integral exponent is not truncated
    (1.5, 0, 0, 0, 0),
    (1, 0, 0, 0),              # a 4-entry key is not read as mu = 0
    (1, 0, 0),                 # a 3-entry key does not shift mu into p2
    (1, 0, 0, 0, F(0), 0),
    (1, 0, 0, 0, 0.1),         # a float mu would carry a 2^-55 denominator
    (-1, 0, 0, 0, 0),
    (True, 0, 0, 0, 0),
    5,                         # not a sequence: len() or key[:4] raised TypeError
    None,
    frozenset({1, 2, 3, 4}),
    range(0, 4),               # a range read as (0, 1, 2, 3) and a 5-entry one as mu = 5
    range(1, 6),
])
def test_bad_term_key_raises(key):
    with pytest.raises(ValueError, match="term key"):
        PhasePoly(CANONICAL, {key: 1})


def test_term_keys_take_int_or_fraction_mu():
    p = PhasePoly(CIRCULAR, {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 2): 1, (0, 0, 1, 0, F(1, 3)): 1})
    assert set(p.terms) == {(1, 0, 0, 0, F(0)), (0, 1, 0, 0, F(2)), (0, 0, 1, 0, F(1, 3))}
    with pytest.raises(ValueError):
        PhasePoly.variable("b1+", CIRCULAR, mu=0.1)
    assert PhasePoly.variable("b1+", CIRCULAR, mu=-2).frequencies() == {F(-2)}


class TestTimeTags:
    """Keys hold an integral time tag as an int and any other as a Fraction; 2 and F(2)
    compare and hash alike, so the form shows in no lookup, equality or printout."""

    @pytest.mark.parametrize("tags", [(F(2), 2), (2, F(2)), (F(-6, 3), -2)])
    def test_int_and_fraction_tag_name_one_term(self, tags):
        # equal keys with equal hashes: a dict holds one of them, with the last value
        terms = {(1, 0, 0, 0, tags[0]): 1, (1, 0, 0, 0, tags[1]): 3}
        assert len(terms) == 1
        p = PhasePoly(CIRCULAR, terms)
        assert p.terms == {(1, 0, 0, 0, tags[1]): 3} and type(next(iter(p.terms))[4]) is int

    def test_integral_tags_are_stored_as_ints(self):
        p = PhasePoly(CIRCULAR, {(1, 0, 0, 0, F(4, 2)): 1, (0, 1, 0, 0, F(1, 3)): 1,
                                 (0, 0, 1, 0, 0): 1, (0, 0, 0, 1, F(0)): 1})
        assert [type(key[4]) for key in p.terms] == [int, F, int, int]
        assert p.terms[(1, 0, 0, 0, F(2))] == 1 and p.terms[(0, 0, 1, 0, 0)] == 1

    def test_fraction_tags_summing_to_an_int_land_on_the_int_key(self):
        # 2/3 + 4/3 is Fraction(2); the product keys it as the int 2
        a = PhasePoly.variable("b1+", CIRCULAR, mu=F(2, 3))
        b = PhasePoly.variable("b1-", CIRCULAR, mu=F(4, 3))
        same = PhasePoly(CIRCULAR, {(1, 1, 0, 0, 2): 1})
        for product in (a * b, b * a):
            (key,) = product.terms
            assert key == (1, 1, 0, 0, 2) and type(key[4]) is int
            assert product == same and (product - same).is_zero()
            assert product.frequencies() == {2} == {F(2)}
            assert str(product) == str(same) == "(1)*b1+*b1-*E[2]"
        bracket = poisson_bracket(a, b)  # {b1+, b1-} = i, tag 2
        (key,) = bracket.terms
        assert type(key[4]) is int
        assert (bracket - PhasePoly(CIRCULAR, {(0, 0, 0, 0, 2): ExactComplex.I})).is_zero()
        assert str(bracket) == "(1i)*E[2]"


@pytest.mark.parametrize("m,w", [(0, 3), (-1, -4), (F(1), 0), (F(1, 2), F(-1)),
                                 (0.5, 2), (1, 1.0), (True, 1), ("1", 1)])
def test_params_reject_unusable_units(m, w):
    with pytest.raises(ValueError):
        Params(m, w)
    with pytest.raises(ValueError):
        PhasePoly.variable("x1", CANONICAL, params=(m, w))


def test_params_hold_fractions():
    p = Params(2, F(1, 2))
    assert (type(p.m), type(p.omega)) == (F, F)
    assert p == Params(F(2), F(1, 2)) == Params.coerce((2, F(1, 2)))


@pytest.mark.parametrize("make", [
    lambda: PhasePoly(CANONICAL, {}, 2.5), lambda: hamiltonian(F(1, 3), 5),
    lambda: Params.coerce(True), lambda: Params.coerce([]),
    lambda: Params.coerce((1, 2, 3)), lambda: Params.coerce({"m": 1}),
], ids=["float", "int", "bool", "empty-list", "triple", "dict"])
def test_params_other_than_none_a_params_or_a_pair_raise(make):
    # a scalar raised TypeError (cannot unpack), and a container of another length (the
    # one-key dict among them) an unpacking ValueError that named no argument
    with pytest.raises(ValueError,
                       match=r"^params .* is not None, a Params or an \(m, omega\) pair$"):
        make()


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
