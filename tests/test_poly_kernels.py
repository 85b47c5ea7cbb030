"""The two exact-algebra kernels of phasealg.poly against the forms they replaced.

``poisson_bracket`` is one pass over term pairs on integer numerators and
``_pair_step`` accumulates integer numerators per output key.  The derivative-product
bracket and the per-term pair step they replaced stay here as oracles: a seeded
sweep holds the new kernels ``==`` to them (and ``to_basis`` to their key order),
and two kernel mutants must fail named ``verify algebra`` rows.
"""
import random
from fractions import Fraction as F

import pytest

from riaho.cli import RunConfig
from riaho.phasealg import (CANONICAL, CIRCULAR, ExactComplex, Params, PhasePoly,
                            poisson_bracket, total_time_derivative)
from riaho.phasealg import poly
from riaho.phasealg.poly import _drop_zeros, krawtchouk_rows
from riaho.phasealg.verify import suite_algebra

I = ExactComplex.I
MUS = (F(0), F(0), F(1, 2), F(-2, 3), F(3))
# (m, omega) with m*omega a rational square or twice one
UNITS = (Params(), Params(1, 4), Params(2, 1), Params(F(1, 2), 1), Params(9, 2))


def bracket_by_derivatives(a, b):
    """The bracket as first written: eight derivatives, four products and their sums."""
    if a.basis == CANONICAL:
        out = PhasePoly.zero(a.basis, a.params)
        for x, p in (("x1", "p1"), ("x2", "p2")):
            out = out + a.diff(x) * b.diff(p) - a.diff(p) * b.diff(x)
        return out
    out = PhasePoly.zero(a.basis, a.params)
    for lo, hi in (("b1-", "b1+"), ("b2-", "b2+")):
        out = out + a.diff(lo) * b.diff(hi) - a.diff(hi) * b.diff(lo)
    return out * (-I)


def pair_step_per_term(terms, i, j, s_slot, t_slot, alpha, beta, phase):
    """The pair step as first written: one reduced ExactComplex per kernel entry."""
    apow, bpow = [ExactComplex.ONE], [ExactComplex.ONE]
    out = {}
    for key, coeff in terms.items():
        a, b = key[i], key[j]
        n = a + b
        while len(apow) <= a:
            apow.append(apow[-1] * alpha)
        while len(bpow) <= b:
            bpow.append(bpow[-1] * beta)
        c = coeff * (apow[a] * bpow[b])
        coeffs = (c, c * I) if phase else (c, c)
        e = list(key)
        for m, kernel in enumerate(krawtchouk_rows(n)[b]):
            if not kernel:
                continue
            e[s_slot], e[t_slot] = n - m, m
            new = tuple(e)
            prod = coeffs[m & 1] * (-kernel if phase and m & 2 else kernel)
            out[new] = out[new] + prod if new in out else prod
    return _drop_zeros(out)


def coefficient(rng):
    """A coefficient with rational, i, sqrt2 and i sqrt2 parts, each possibly zero."""
    part = lambda: F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    return ExactComplex(part(), part(), part(), part())


def random_poly(rng, basis, params, nterms, degree):
    """nterms terms of total degree <= degree, each with a drawn time tag mu."""
    terms = {}
    for _ in range(nterms):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(4)] += 1
        terms[(*e, rng.choice(MUS))] = coefficient(rng)
    return PhasePoly(basis, terms, params)


def sweep_polys(seed, basis):
    """A seeded pair of polynomials, degrees up to 6; the first seeds are the edge cases."""
    rng = random.Random(seed)
    params = UNITS[seed % len(UNITS)]
    if seed == 0:
        return PhasePoly.zero(basis, params), random_poly(rng, basis, params, 3, 4)
    if seed == 1:
        constant = PhasePoly.constant(coefficient(rng), basis, params)
        return constant, random_poly(rng, basis, params, 3, 4)
    if seed == 2:
        return (PhasePoly.constant(3, basis, params),
                PhasePoly.constant(coefficient(rng), basis, params))
    return tuple(random_poly(rng, basis, params, rng.randint(1, 5), rng.randint(1, 6))
                 for _ in range(2))


def to_basis_per_term(p, basis, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(poly, "_pair_step", pair_step_per_term)
        return p.to_basis(basis)


SEEDS = range(40)


class TestAgainstFirstWrittenKernels:
    @pytest.mark.parametrize("basis", [CANONICAL, CIRCULAR])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bracket_equals_derivative_products(self, seed, basis):
        a, b = sweep_polys(seed, basis)
        for x, y in ((a, b), (b, a), (a, a)):
            assert poisson_bracket(x, y) == bracket_by_derivatives(x, y)

    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_time_derivative_equals_derivative_products(self, seed):
        a, _ = sweep_polys(seed, CIRCULAR)
        h = random_poly(random.Random(seed), CIRCULAR, a.params, 3, 2).at_time_zero()
        explicit = {key: c * (I * (key[4] * a.params.omega)) for key, c in a.terms.items()}
        assert total_time_derivative(a, h) == (
            bracket_by_derivatives(a, h) + PhasePoly(CIRCULAR, explicit, a.params))

    @pytest.mark.parametrize("basis", [CANONICAL, CIRCULAR])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_to_basis_equals_per_term_steps_in_key_order(self, seed, basis, monkeypatch):
        other = CIRCULAR if basis == CANONICAL else CANONICAL
        for p in sweep_polys(seed, basis):
            got, want = p.to_basis(other), to_basis_per_term(p, other, monkeypatch)
            assert got == want
            assert list(got.terms) == list(want.terms)

    def test_sweep_reaches_degree_six_sqrt2_and_i(self):
        polys = [p for seed in SEEDS for basis in (CANONICAL, CIRCULAR)
                 for p in sweep_polys(seed, basis)]
        coeffs = [c for p in polys for c in p.terms.values()]
        assert max(p.degree() for p in polys) == 6
        assert any(c.br or c.bi for c in coeffs) and any(c.ai for c in coeffs)
        assert {mu for p in polys for mu in p.frequencies()} == set(MUS)
        assert any(p.is_zero() for p in polys) and any(p.degree() == 0 and p.terms for p in polys)


def failed_algebra_rows():
    return [row.check_id for row in suite_algebra(RunConfig()).rows if not row.passed]


class TestKernelMutants:
    def test_exact_kernels_pass_every_algebra_row(self):
        assert failed_algebra_rows() == []

    def test_bracket_without_its_second_slot_pair_fails_named_rows(self, monkeypatch):
        for basis, slots in list(poly._BRACKET_SLOTS.items()):
            monkeypatch.setitem(poly._BRACKET_SLOTS, basis, slots[:1])
        failed = failed_algebra_rows()
        assert any(row.startswith(("sp4:", "integral[")) for row in failed), failed

    @pytest.fixture
    def wrong_denominator(self, monkeypatch):
        """_pair_step with the last numerator of each batch scaled to 2d instead of d."""
        exact_numerators, exact_step = poly._numerators, poly._pair_step

        def scaled_wrong(values):
            nums, d = exact_numerators(values)
            return nums[:-1] + [tuple(2 * c for c in nums[-1])], d

        def step(*args):
            with monkeypatch.context() as patch:
                patch.setattr(poly, "_numerators", scaled_wrong)
                return exact_step(*args)

        monkeypatch.setattr(poly, "_pair_step", step)

    def test_pair_step_with_a_wrong_denominator_fails_named_rows(self, wrong_denominator):
        # the pair step runs in verify algebra only through to_basis, in the cbt triple
        failed = failed_algebra_rows()
        assert any(row.startswith("cbt-") for row in failed), failed

    @pytest.mark.parametrize("seed", range(3, 8))
    def test_pair_step_with_a_wrong_denominator_breaks_the_round_trip(self, seed,
                                                                       wrong_denominator):
        p, _ = sweep_polys(seed, CANONICAL)
        assert p.to_basis(CIRCULAR).to_basis(CANONICAL) != p
