"""The two exact-algebra kernels of phasealg.poly against the forms they replaced.

``poisson_bracket`` is one pass over term pairs on integer numerators, and ``to_basis``
chains four ``_pair_step`` calls on integer numerators over one running denominator,
reducing each output coefficient once.  The derivative-product bracket and the per-term
pair step, one reduced ExactComplex per kernel entry, stay here as oracles: a seeded sweep
holds the bracket ``==`` to them, and ``to_basis`` to the per-term steps run over this
file's own step tables (``==``, key order and coefficient ``repr``); two kernel mutants must
fail named ``verify algebra`` rows.  ``to_basis`` runs its pair steps at unit scale and
changes units with one dilation, ``_dilate``; the per-term steps with d = sqrt(m*omega)/2
threaded through them stay here as the oracle for every unit pair where d is in the ring,
and a sign-flipped dilation must fail.  Neither oracle calls ``_pair_step``.
"""
import random
from fractions import Fraction as F

import pytest

from riaho.cli import RunConfig
from riaho.phasealg import (CANONICAL, CIRCULAR, ExactComplex, Params, PhasePoly,
                            poisson_bracket, total_time_derivative)
from riaho.phasealg import cbt, poly
from riaho.phasealg.exact import ring_sqrt
from riaho.phasealg.poly import _drop_zeros, krawtchouk_rows
from riaho.phasealg.verify import suite_algebra
from test_phase_poly import substituted

I = ExactComplex.I
MUS = (F(0), F(0), F(1, 2), F(-2, 3), F(3))
# (m, omega) with m*omega a rational square or twice one
UNITS = (Params(), Params(1, 4), Params(2, 1), Params(F(1, 2), 1), Params(9, 2))


def derivative(p, name):
    """The formal partial derivative of ``p`` with respect to one of its basis variables."""
    i = poly._VARS[p.basis].index(name)
    out = {}
    for key, coeff in p.terms.items():
        n = key[i]
        if n:
            k = (*key[:i], n - 1, *key[i + 1:])
            out[k] = out.get(k, ExactComplex.ZERO) + coeff * n
    return poly._make(p.basis, out, p.params)


def bracket_by_derivatives(a, b):
    """The bracket as first written: eight derivatives, four products and their sums."""
    d = derivative
    if a.basis == CANONICAL:
        out = PhasePoly.zero(a.basis, a.params)
        for x, p in (("x1", "p1"), ("x2", "p2")):
            out = out + d(a, x) * d(b, p) - d(a, p) * d(b, x)
        return out
    out = PhasePoly.zero(a.basis, a.params)
    for lo, hi in (("b1-", "b1+"), ("b2-", "b2+")):
        out = out + d(a, lo) * d(b, hi) - d(a, hi) * d(b, lo)
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


# to_basis's unit-scale step tables, (i, j, s_slot, t_slot, alpha, beta, phase), written out
# here: x1 x2 p1 p2 -> w wbar pibar pi -> b1+ b1- b2+ b2-, and b1+ b1- b2+ b2- -> S Sbar Tbar T
# -> x1 x2 p1 p2
HALF, HALF_I, ONE = ExactComplex(F(1, 2)), ExactComplex(0, F(1, 2)), ExactComplex.ONE
UNIT_STEPS = {
    CIRCULAR: ((0, 1, 0, 1, HALF, -HALF_I, False), (2, 3, 3, 2, HALF, -HALF_I, False),
               (0, 3, 0, 3, ONE, I, False), (1, 2, 2, 1, ONE, I, False)),
    CANONICAL: ((3, 0, 0, 3, ONE, ONE, False), (1, 2, 1, 2, ONE, ONE, False),
                (0, 1, 0, 1, HALF, HALF, True), (3, 2, 2, 3, HALF_I, HALF_I, True)),
}


def per_term_steps(p, basis, steps):
    """p's terms through ``steps`` by pair_step_per_term, one time tag at a time."""
    by_mu = {}
    for key, coeff in p.terms.items():
        by_mu.setdefault(key[4], {})[key[:4]] = coeff
    out = {}
    for mu, terms in by_mu.items():
        for step in steps:
            terms = pair_step_per_term(terms, *step)
        out.update({(*e, mu): c for e, c in terms.items()})
    return PhasePoly(basis, out, p.params)


def to_basis_per_term(p, basis):
    """to_basis with the per-term steps: the unit-scale tables between the same dilations."""
    mw = p.params.m * p.params.omega
    if basis == CIRCULAR:
        return per_term_steps(poly._dilate(p, 1 / mw), basis, UNIT_STEPS[basis])
    return poly._dilate(per_term_steps(p, basis, UNIT_STEPS[basis]), mw)


def to_basis_with_d(p, basis):
    """to_basis as first written: the four per-term pair steps carry d = sqrt(m*omega)/2
    and q = 1/(4d), so it needs m*omega to be a rational square or twice one."""
    d = ring_sqrt(p.params.m * p.params.omega) * F(1, 2)
    if basis == CIRCULAR:
        q2, id2 = d.inverse() * F(1, 2), I * d * 2
        steps = ((0, 1, 0, 1, HALF, -HALF_I, False), (2, 3, 3, 2, HALF, -HALF_I, False),
                 (0, 3, 0, 3, q2, id2, False), (1, 2, 2, 1, q2, id2, False))
    else:
        iq = I * d.inverse() * F(1, 4)
        steps = ((3, 0, 0, 3, ONE, ONE, False), (1, 2, 1, 2, ONE, ONE, False),
                 (0, 1, 0, 1, d, d, True), (3, 2, 2, 3, iq, iq, True))
    return per_term_steps(p, basis, steps)


def assert_same_terms(got, want):
    """``==``, the same key order and the same coefficient reprs."""
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert [repr(c) for c in got.terms.values()] == [repr(c) for c in want.terms.values()]


SEEDS = range(40)
# every kind of unit pair the d-threaded steps reach: m*omega = 1, a square, twice a square
PARITY_UNITS = UNITS + (Params(F(3, 5), F(5, 3)), Params(8, 1), Params(F(1, 3), F(3, 2)),
                        Params(F(2, 7), F(7, 8)))


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
    @pytest.mark.parametrize("params", PARITY_UNITS, ids=str)
    def test_to_basis_equals_d_threaded_steps_term_for_term(self, params, basis):
        # the dilation changes no conversion the d-threaded steps could make: same
        # terms, same key order, same coefficient reprs, up to degree 12
        other = CIRCULAR if basis == CANONICAL else CANONICAL
        rng = random.Random(f"{params}/{basis}")
        for _ in range(6):
            p = random_poly(rng, basis, params, rng.randint(1, 6), 12)
            assert_same_terms(p.to_basis(other), to_basis_with_d(p, other))

    @pytest.mark.parametrize("basis", [CANONICAL, CIRCULAR])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_to_basis_equals_per_term_steps_in_key_order(self, seed, basis):
        other = CIRCULAR if basis == CANONICAL else CANONICAL
        for p in sweep_polys(seed, basis):
            assert_same_terms(p.to_basis(other), to_basis_per_term(p, other))

    def test_oracles_run_without_the_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an oracle called _pair_step")

        p = random_poly(random.Random(0), CANONICAL, Params(1, 4), 4, 6)
        want = p.to_basis(CIRCULAR)
        monkeypatch.setattr(poly, "_pair_step", refuse)
        assert_same_terms(to_basis_per_term(p, CIRCULAR), want)
        assert_same_terms(to_basis_with_d(p, CIRCULAR), want)
        assert to_basis_per_term(want, CANONICAL) == p

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
        """_pair_step with the last numerator of its output batch doubled: that term is
        over d/2 instead of the running d for the rest of the chain."""
        exact_step = poly._pair_step

        def step(*args):
            nums, d = exact_step(*args)
            if nums:
                last = next(reversed(nums))
                nums[last] = [2 * c for c in nums[last]]
            return nums, d

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

    @pytest.fixture
    def flipped_dilation(self, monkeypatch):
        """_dilate with the exponent's sign flipped: lam^(b-a) for lam^(a-b), in both
        the unit change and the bridge's T_D0."""
        exact = poly._dilate

        def flipped(a, lam_sq):
            return exact(a, 1 / F(lam_sq))

        monkeypatch.setattr(poly, "_dilate", flipped)
        monkeypatch.setattr(cbt, "_dilate", flipped)

    def test_flipped_dilation_fails_the_bridge_rows(self, flipped_dilation):
        # T_D0 is the grading x -> sqrt2 x; iD0 = x.p has x-degree = p-degree and passes
        assert failed_algebra_rows() == ["cbt-H", "cbt-K0"]

    @pytest.mark.parametrize("basis", [CANONICAL, CIRCULAR])
    @pytest.mark.parametrize("seed", range(3, 8))
    def test_flipped_dilation_fails_the_substitution_oracle(self, seed, basis,
                                                              flipped_dilation):
        # at m*omega = 4 the unit change scales x^a p^b by 2^(b-a) instead of 2^(a-b)
        other = CIRCULAR if basis == CANONICAL else CANONICAL
        p = random_poly(random.Random(seed), basis, Params(1, 4), 3, 6)
        assert p.to_basis(other) != substituted(p, other)
