"""Generator catalog: bracket table, Casimirs, hidden integral families."""
import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from riaho import bridge, classdyn, fockeng, landau
from riaho.coupling import Coupling, Phase
from riaho.fockeng import hidden_coefficient
from riaho.phasealg.catalog import hidden_shift
from riaho.phasealg import (CIRCULAR, ExactComplex, PhasePoly,
                            angular_momentum, catalog, generator, hamiltonian,
                            hidden_integral, is_true_integral,
                            poisson_bracket, reduce_to_cartan,
                            total_time_derivative, true_integral_coupling,
                            verify_casimirs, verify_dynamical_integrals,
                            verify_sp4_table)

I = ExactComplex.I


def test_hamiltonian_decomposition():
    # H_g = H_osc + g*w*p_phi = w*(2 J0 + 2 g L2)
    g = F(2, 3)
    h = hamiltonian(g)
    j0 = generator("J0", g)
    l2 = generator("L2", g)
    assert h == 2 * j0 + (2 * g) * l2
    # and p_phi = 2 L2
    assert angular_momentum() == 2 * l2


@pytest.mark.parametrize("g", [F(0), F(1, 3), F(1, 2), F(1), F(3), F(-2, 5)])
def test_sp4_table_all_identities(g):
    checks = verify_sp4_table(g)
    assert len(checks) == 29
    assert all(c.passed for c in checks), \
        [c.identity_name for c in checks if not c.passed]


def test_selected_structure_constants():
    cat = catalog(F(1, 3))
    assert poisson_bracket(cat["J-"], cat["J+"]) == -2 * I * cat["J0"]
    assert poisson_bracket(cat["L+"], cat["L-"]) == -2 * I * cat["L2"]
    assert poisson_bracket(cat["J0"], cat["L2"]).is_zero()
    assert poisson_bracket(cat["B1-"], cat["B1+"]) == \
        -4 * I * (cat["J0"] + cat["L2"])
    assert poisson_bracket(cat["L2"], cat["B2+"]) == I * cat["B2+"]


@pytest.mark.parametrize("g", [F(0), F(1, 3), F(1), F(5, 4)])
def test_casimir_identities(g):
    checks = verify_casimirs(g)
    assert len(checks) == 4
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("g", [F(0), F(1, 3), F(2, 3), F(1), F(3), F(-1, 2)])
def test_all_generators_are_dynamical_integrals(g):
    checks = verify_dynamical_integrals(g)
    assert all(c.passed for c in checks), \
        [c.identity_name for c in checks if not c.passed]


@pytest.mark.parametrize("g,built", [("1/3", 1), (F(-3, 5), 1), (2, 1), (Coupling(3), 0)])
def test_catalog_coerces_the_coupling_once(monkeypatch, g, built):
    # each of the 14 generators used to coerce the raw g again: 14 Couplings per catalog
    made = []
    post_init = Coupling.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Coupling, "__post_init__", counted)
    cat = catalog(g)
    assert len(made) == built
    monkeypatch.undo()
    assert cat == {name: generator(name, g) for name in cat}


def test_linear_integrals_match_mode_frequencies():
    # beta_j^+ rotates against mode j's frequency ell_j
    g = F(1, 4)
    c = Coupling(g)
    b1 = generator("beta1+", g)
    assert b1.frequencies() == {-c.ell1}
    b2 = generator("beta2-", g)
    assert b2.frequencies() == {c.ell2}


class TestHiddenIntegrals:
    def test_shape_and_frequency(self):
        g = F(1, 3)
        lp = hidden_integral(g, "L", 1, 2)
        assert list(lp.terms) == [(1, 0, 0, 2, F(0))]  # mu = -(l1 - 2 l2) = 0
        jp = hidden_integral(g, "J", 1, 2)
        # mu = -(l1 + 2 l2) = -(4/3 + 4/3) = -8/3
        assert list(jp.terms) == [(1, 0, 2, 0, F(-8, 3))]

    def test_conjugate_flag(self):
        lm = hidden_integral(F(1, 3), "L", 1, 2, sign="-")
        assert list(lm.terms) == [(0, 1, 2, 0, F(0))]

    def test_reduces_to_su2_pair_at_g0(self):
        assert hidden_integral(0, "L", 1, 1) == generator("L+", 0)
        assert hidden_integral(0, "L", 1, 1, sign="-") == generator("L-", 0)

    @pytest.mark.parametrize("g,kind,s1,s2", [
        (F(1, 3), "L", 1, 2), (F(3, 5), "L", 1, 4), (F(0), "L", 1, 1),
        (F(3), "J", 1, 2), (F(2), "J", 1, 3), (F(5, 3), "J", 1, 4),
    ])
    def test_true_integrals_commute_with_hamiltonian(self, g, kind, s1, s2):
        assert is_true_integral(g, kind, s1, s2)
        h = hamiltonian(g)
        for sign in "+-":
            a = hidden_integral(g, kind, s1, s2, sign)
            assert a.frequencies() == {F(0)}
            assert total_time_derivative(a, h).is_zero()

    def test_dynamical_but_not_true_off_resonance(self):
        g = F(1, 2)  # L-resonance needs (s1,s2) = (1,3)
        a = hidden_integral(g, "L", 1, 2)
        assert not is_true_integral(g, "L", 1, 2)
        assert a.frequencies() != {F(0)}
        assert total_time_derivative(a, hamiltonian(g)).is_zero()

    def test_coupling_solving(self):
        assert true_integral_coupling("L", 1, 2) == F(1, 3)
        assert true_integral_coupling("L", 1, 1) == 0
        assert true_integral_coupling("J", 1, 2) == 3
        assert true_integral_coupling("J", 2, 2) is None

    def test_rejects_degenerate_orders(self):
        with pytest.raises(ValueError):
            hidden_integral(F(1, 3), "L", 0, 0)
        with pytest.raises(ValueError):
            hidden_integral(F(1, 3), "X", 1, 2)

    def test_bracket_of_hidden_pair_closes_on_numbers(self):
        # {L^-_{1,2}, L^+_{1,2}} at g=1/3 is a degree-2 polynomial in N1, N2
        g = F(1, 3)
        lp = hidden_integral(g, "L", 1, 2)
        lm = hidden_integral(g, "L", 1, 2, sign="-")
        br = poisson_bracket(lm, lp)
        cf = reduce_to_cartan(br)
        assert cf.is_pure
        assert cf.diagonal == {(0, 2): ExactComplex(0, -1),
                               (1, 1): ExactComplex(0, 4)}

    def test_hidden_bracket_numeric_cross_check(self):
        # same bracket evaluated as a complex function on a grid of points
        g = F(1, 3)
        lp = hidden_integral(g, "L", 1, 2)
        lm = hidden_integral(g, "L", 1, 2, sign="-")
        br = poisson_bracket(lm, lp)
        pts = [
            {"b1+": 0.3 + 0.1j, "b1-": 0.3 - 0.1j,
             "b2+": -0.2 + 0.5j, "b2-": -0.2 - 0.5j},
            {"b1+": 1.0 + 0j, "b1-": 1.0 + 0j,
             "b2+": 0.4 - 0.3j, "b2-": 0.4 + 0.3j},
        ]
        for pt in pts:
            n1 = (pt["b1+"] * pt["b1-"]).real
            n2 = (pt["b2+"] * pt["b2-"]).real
            want = -1j * n2 ** 2 + 4j * n1 * n2
            assert abs(br.evaluate(pt) - want) < 1e-12


class TestHiddenPairClosedForm:
    """{X+, X-} of a hidden pair in closed form, an oracle that no bracket code wrote:
    with X+- = (b1^+-)^s1 (b2^-+)^s2 (L) or (b1^+-)^s1 (b2^+-)^s2 (J) and
    {b_i^-, b_i^+} = -i, the brackets are N1^(s1-1) N2^(s2-1) times
    -i (s2^2 N1 - s1^2 N2) for L and +i (s2^2 N1 + s1^2 N2) for J."""

    @staticmethod
    def closed_form(kind, s1, s2):
        sign = -1 if kind == "L" else 1
        return {(s1, s2 - 1): ExactComplex(0, sign * s2 * s2),
                (s1 - 1, s2): ExactComplex(0, s1 * s1)}

    @pytest.mark.parametrize("g", [F(1, 3), F(3), F(-2, 5)])
    @pytest.mark.parametrize("kind", ["L", "J"])
    @pytest.mark.parametrize("s1", [1, 2, 3])
    @pytest.mark.parametrize("s2", [1, 2, 3])
    def test_bracket_of_the_pair_is_the_closed_form(self, g, kind, s1, s2):
        plus = hidden_integral(g, kind, s1, s2, "+")
        minus = hidden_integral(g, kind, s1, s2, "-")
        cf = reduce_to_cartan(poisson_bracket(plus, minus))
        assert cf.is_pure
        assert cf.diagonal == self.closed_form(kind, s1, s2)


class TestHiddenShift:
    def test_shift_per_kind(self):
        assert hidden_shift("L", 1, 2) == (1, -2)
        assert hidden_shift("J", 1, 2) == (1, 2)
        assert hidden_shift("L", 0, 1) == (0, -1)

    @pytest.mark.parametrize("kind", ["L", "J"])
    @pytest.mark.parametrize("s1,s2", [(0, 1), (1, 0), (1, 2), (2, 1), (3, 1), (2, 2)])
    def test_exponents_and_resonance_follow_the_shift(self, kind, s1, s2):
        d1, d2 = hidden_shift(kind, s1, s2)
        g = true_integral_coupling(kind, s1, s2)
        if g is None:  # Delta1 = Delta2 fixes Delta.ell = 2*Delta1 for every g
            assert d1 == d2 and not is_true_integral(F(1, 3), kind, s1, s2)
            return
        c = Coupling(g)
        assert d1 * c.ell1 + d2 * c.ell2 == 0
        assert is_true_integral(g, kind, s1, s2)
        e = (s1, 0, 0, s2) if kind == "L" else (s1, 0, s2, 0)
        assert list(hidden_integral(g, kind, s1, s2).terms) == [(*e, F(0))]

    @pytest.mark.parametrize("kind,s1,s2", [
        ("L", 0, 0), ("L", -1, -2), ("L", -1, 2), ("J", 1, -1),
        ("J", 1.5, 2), ("L", 1.5, 1), ("L", F(1), 2), ("X", 1, 2),
    ])
    def test_bad_kind_or_orders_raise_value_error_everywhere(self, kind, s1, s2):
        calls = [
            lambda: hidden_shift(kind, s1, s2),
            lambda: is_true_integral(F(1, 3), kind, s1, s2),
            lambda: true_integral_coupling(kind, s1, s2),
            lambda: hidden_integral(F(1, 3), kind, s1, s2),
            lambda: hidden_coefficient(kind, s1, s2, 2, 2),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_regressions(self):
        # each of these used to pass or fail with another error
        for s1, s2 in ((0, 0), (-1, -2)):
            with pytest.raises(ValueError):
                is_true_integral(F(1, 3), "L", s1, s2)  # returned True
        with pytest.raises(ValueError):
            true_integral_coupling("L", 0, 0)  # ZeroDivisionError
        with pytest.raises(ValueError):
            true_integral_coupling("L", -1, 2)  # returned 3
        with pytest.raises(ValueError):
            true_integral_coupling("J", 1.5, 2)  # TypeError
        with pytest.raises(ValueError):
            hidden_integral(F(1, 3), "L", 1.5, 1)  # a binary-float mu tag

    @pytest.mark.parametrize("call", [
        lambda: hidden_coefficient("L", 1, 2, 2.0, 2),  # TypeError from math.factorial
        lambda: hidden_coefficient("J", 1, 2, 2, 2.5),
        lambda: hidden_coefficient("L", 1, 2, True, 2),
        lambda: hidden_shift("J", True, False),  # bools are ints, and were accepted
        lambda: hidden_coefficient("L", True, 2, 1, 2),  # returned 2.0
    ], ids=["float_n1", "float_n2", "bool_n1", "bool_orders", "bool_order_coefficient"])
    def test_non_integer_and_bool_inputs_raise_value_error(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("kind", ["L", "J"])
    def test_coefficient_rejects_negative_numbers(self, kind):
        for n1, n2 in ((-1, 0), (0, -1), (-1, -1), (3, -1)):
            with pytest.raises(ValueError):
                hidden_coefficient(kind, 1, 2, n1, n2)


class TestCouplingPhases:
    @pytest.mark.parametrize("g,phase", [
        (F(0), Phase.ISOTROPIC), (F(1, 3), Phase.EUCLIDEAN),
        (F(-2, 3), Phase.EUCLIDEAN), (F(1), Phase.LANDAU),
        (F(-1), Phase.LANDAU), (F(3), Phase.MINKOWSKIAN),
        (F(-5, 4), Phase.MINKOWSKIAN),
    ])
    def test_phase_tag(self, g, phase):
        assert Coupling(g).phase == phase

    @pytest.mark.parametrize("flag", ["no", 1, 0, 1.0, None])
    def test_isotropic_mink_takes_a_bool(self, flag):
        # Coupling(1, isotropic_mink="no") was the |g| -> inf limit and printed as inf
        with pytest.raises(ValueError, match="is not a bool"):
            Coupling(1, isotropic_mink=flag)
        assert str(Coupling(1, isotropic_mink=True)) == "inf"

    def test_ell_sum_and_difference(self):
        c = Coupling(F(2, 7))
        assert c.ell1 + c.ell2 == 2
        assert c.ell1 - c.ell2 == 2 * c.g

    @pytest.mark.parametrize("g,orders", [
        (F(0), (1, 1)), (F(1, 3), (1, 2)), (F(1, 2), (1, 3)),
        (F(3, 5), (1, 4)), (F(1, 5), (2, 3)), (F(3), (1, 2)),
        (F(2), (1, 3)), (F(5, 3), (1, 4)), (F(-1, 3), (2, 1)),
    ])
    def test_mode_orders(self, g, orders):
        c = Coupling(g)
        assert c.mode_orders == orders
        s1, s2 = orders
        if c.phase in (Phase.ISOTROPIC, Phase.EUCLIDEAN):
            assert g == F(s2 - s1, s1 + s2)
        else:
            assert g == F(s1 + s2, s2 - s1)

    def test_weights_are_derived_once(self):
        c = Coupling(F(2, 7))
        assert c.ell1 is c.ell1 and c.ell2 is c.ell2 and c.float_ells() is c.float_ells()

    def test_reading_the_weights_leaves_the_dataclass_as_it_was(self):
        read, fresh = Coupling(F(-2, 7)), Coupling(F(-2, 7))
        assert read.ell1 == F(5, 7) and read.float_ells() == (5 / 7, 9 / 7)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert repr(read) == "Coupling(g=Fraction(-2, 7), isotropic_mink=False)"
        assert [f.name for f in dataclasses.fields(read)] == ["g", "isotropic_mink"]
        moved = dataclasses.replace(read, g=F(1, 3))
        assert (moved.ell1, moved.ell2, moved.float_ells()) == (F(4, 3), F(2, 3), (4 / 3, 2 / 3))
        for c in (read, fresh):
            copy = pickle.loads(pickle.dumps(c))
            assert copy == c and hash(copy) == hash(c) and repr(copy) == repr(c)
            assert (copy.ell1, copy.ell2, copy.float_ells()) == (F(5, 7), F(9, 7), (5 / 7, 9 / 7))

    def test_a_float_range_failure_is_raised_on_every_read(self):
        c = Coupling(F(10**400))
        for _ in range(3):
            with pytest.raises(ValueError, match="mode weight ell1 lies outside the float range"):
                c.float_ells()
        assert c.ell1 == 1 + F(10**400)

    @pytest.mark.parametrize("g,weights", [
        (F(0), (1, -1)), (F(1), (1, -1)), (F(7, 2), (1, -1)),
        (F(-1), (-1, 1)), (F(-7, 2), (-1, 1)),
    ])
    def test_isotropic_mink_weights(self, g, weights):
        c = Coupling(g, isotropic_mink=True)
        assert (c.ell1, c.ell2) == weights and type(c.ell1) is type(c.ell2) is F
        assert c.float_ells() == weights and type(c.float_ells()[0]) is float

    def test_no_orders_at_landau(self):
        assert Coupling(F(1)).mode_orders is None
        assert Coupling(F(-1)).mode_orders is None

    @pytest.mark.parametrize("g", [F(1, 3), F(2, 5), F(7, 2), F(-4, 3),
                                   F(9, 7), F(-1, 6)])
    def test_exactly_one_family_contains_true_integral(self, g):
        s1, s2 = Coupling(g).mode_orders
        l_hit = is_true_integral(g, "L", s1, s2)
        j_hit = is_true_integral(g, "J", s1, s2)
        assert l_hit != j_hit
        assert l_hit == (abs(g) < 1)

    @pytest.mark.parametrize("x,want", [(0.5, F(1, 2)), (2.0, F(2)),
                                        (-0.25, F(-1, 4))])
    def test_exact_float_accepted(self, x, want):
        assert Coupling(x).g == want
        assert Coupling.coerce(x).g == want

    @pytest.mark.parametrize("make", [Coupling, Coupling.coerce])
    def test_inexact_float_rejected_with_exact_alternative(self, make):
        # 0.1 is 3602879701896397/36028797018963968 in binary
        with pytest.raises(ValueError, match=r'"1/10"|Fraction\(1, 10\)'):
            make(0.1)


BIG = Coupling(10**400)  # exact, but g and both ell leave the float range
ORBIT_START = [1.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("call", [
    lambda: BIG.as_float(),
    lambda: classdyn.is_cusped(classdyn.TrajectoryParams(R1=1, R2=1, coupling=BIG)),
    lambda: classdyn.hamiltonian_flow_rhs(ORBIT_START, BIG, 1.0),
    lambda: classdyn.hamiltonian_value(ORBIT_START, BIG, 1.0),
    lambda: classdyn.integrate(ORBIT_START, BIG, 1.0, 1.0),
    lambda: fockeng.hamiltonian(fockeng.FockBasis(2), BIG),
    # ell1 = 1 + 10^308 is a float, the level 2*ell1 + 1 of state (2, 0) is not
    lambda: fockeng.hamiltonian(fockeng.FockBasis(2), Coupling(10**308)),
    lambda: fockeng.rni_hamiltonian(fockeng.FockBasis(2), BIG),
    lambda: landau.g_to_landau(BIG, 1.5),
    lambda: bridge.hamiltonian_action(bridge.ground_state(), BIG),
], ids=["as_float", "is_cusped", "flow_rhs", "hamiltonian_value", "integrate",
        "fock_hamiltonian", "fock_hamiltonian_1e308", "rni_hamiltonian", "g_to_landau",
        "hamiltonian_action"])
def test_coupling_past_float_range_raises_value_error(call):
    # each of these raised OverflowError from float() of an exact Fraction
    with pytest.raises(ValueError, match="float range"):
        call()
