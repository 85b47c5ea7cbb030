"""Bridge map, generator actions, eigenfunctions, coherent states.

Frozen closed forms were hand-traced through the three-factor bridge
composition (grading, finite free-Hamiltonian series, Gaussian) and the
first-order ladder operators.
"""
import dataclasses
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from riaho.coupling import Coupling
from riaho import aniso as an, bridge as br, fockeng as fe
from riaho.reports import check

F = Fraction
SQ2 = math.sqrt(2)


class TestZPolynomial:
    def test_pruning(self):
        p = br.ZPolynomial({(0, 0): 0.0, (1, 2): 3.0})
        assert p.terms == {(1, 2): 3.0}

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            br.ZPolynomial({(-1, 0): 1.0})

    @pytest.mark.parametrize("call, message", [
        (lambda v: br.ZPolynomial({(0, 0): v}), "coefficient"),
        (lambda v: br.ZPolynomial({(0, 0): 1}).scale(v), "factor"),
        (lambda v: br.ground_state().scale(v), "factor"),
        (lambda v: an.SeparableState({(1, 0): 1.0}, 0.5, 0.5).scale(v), "factor"),
    ], ids=["ZPolynomial", "ZPolynomial.scale", "WaveState.scale", "SeparableState.scale"])
    @pytest.mark.parametrize("value", [None, object(), [1.0], "x", "1+2j", "2", True, False,
                                       np.True_, np.False_], ids=repr)
    def test_coefficient_that_is_not_a_number_raises(self, call, message, value):
        # None raised TypeError from complex(); complex() parsed "1+2j", "2" and the bools
        with pytest.raises(ValueError, match=rf"^{message} .* is not a number$"):
            call(value)

    @pytest.mark.parametrize("value", [3, 2.5, 1 - 2j, np.int64(3), np.float64(2.5),
                                       np.float32(0.5), np.complex128(1 - 2j)], ids=repr)
    def test_numbers_are_accepted(self, value):
        assert br.ZPolynomial({(0, 0): value}).terms == {(0, 0): complex(value)}
        assert br.ZPolynomial({(1, 0): 1}).scale(value).terms == {(1, 0): complex(value)}

    def test_arithmetic(self):
        p = br.ZPolynomial.monomial(1, 0, 2.0)
        q = br.ZPolynomial.monomial(1, 0, -2.0) + br.ZPolynomial.monomial(0, 1, 1.0)
        assert (p + q).terms == {(0, 1): 1.0}
        assert p.scale(0.5).terms == {(1, 0): 1.0}
        assert p.shift(1, 2).terms == {(2, 2): 2.0}

    def test_derivatives(self):
        p = br.ZPolynomial({(2, 1): 1.0})
        assert p.diff_z().terms == {(1, 1): 2.0}
        assert p.diff_zbar().terms == {(2, 0): 1.0}
        assert br.ZPolynomial.monomial(0, 0).diff_z().is_zero()


class TestActFree:
    def test_all_rules_on_phi23(self):
        s = br.ZPolynomial.monomial(2, 3)
        assert br.act_free("H", s).terms == {(1, 2): -12.0}
        assert br.act_free("K", s).terms == {(3, 4): 0.5}
        assert br.act_free("D2i", s).terms == {(2, 3): 6.0}
        assert br.act_free("Pphi", s).terms == {(2, 3): -1.0}
        assert br.act_free("Pminus", s).terms == {(1, 3): -4j}
        assert br.act_free("Pplus", s).terms == {(2, 2): -6j}
        assert br.act_free("XiPlus", s).terms == {(3, 3): 1.0}
        assert br.act_free("XiMinus", s).terms == {(2, 4): 1.0}

    def test_annihilation_edges(self):
        assert br.act_free("H", br.ZPolynomial.monomial(1, 0)).is_zero()
        assert br.act_free("H", br.ZPolynomial.monomial(0, 5)).is_zero()
        assert br.act_free("Pminus", br.ZPolynomial.monomial(0, 2)).is_zero()
        assert br.act_free("Pplus", br.ZPolynomial.monomial(2, 0)).is_zero()

    def test_frozen_paper_examples(self):
        assert br.act_free("H", br.ZPolynomial.monomial(1, 1)).terms == {(0, 0): -2.0}
        assert br.act_free("D2i", br.ZPolynomial.monomial(0, 0)).terms == {(0, 0): 1.0}

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            br.act_free("X", br.ZPolynomial.monomial(0, 0))

    def test_units_scaling(self):
        u = br.Units(m=2.0, omega=1.0, hbar=3.0)
        out = br.act_free("H", br.ZPolynomial.monomial(1, 1), u)
        assert out.terms == {(0, 0): -9.0}  # -(2*hbar^2/m) = -9
        assert br.act_free("K", br.ZPolynomial.monomial(0, 0), u).terms == {(1, 1): 1.0}

    def test_linearity(self):
        s = br.ZPolynomial({(1, 1): 2.0, (2, 2): -1.0})
        out = br.act_free("H", s)
        assert out.terms == {(0, 0): -4.0, (1, 1): 8.0}


class TestCbtApply:
    def test_frozen_ground(self):
        w = br.cbt_apply(br.ZPolynomial.monomial(0, 0))
        assert w.prefactor.terms == {(0, 0): pytest.approx(SQ2)}
        assert w.exp_zzbar == -0.5

    def test_frozen_first_excited(self):
        w = br.cbt_apply(br.ZPolynomial.monomial(1, 0))
        assert w.prefactor.terms == {(1, 0): pytest.approx(2.0)}

    def test_frozen_radial(self):
        w = br.cbt_apply(br.ZPolynomial.monomial(1, 1))
        assert w.prefactor.terms[(1, 1)] == pytest.approx(2 * SQ2)
        assert w.prefactor.terms[(0, 0)] == pytest.approx(-2 * SQ2)

    def test_linearity(self):
        a = br.ZPolynomial.monomial(1, 1)
        b = br.ZPolynomial.monomial(2, 0)
        combined = br.cbt_apply(br.ZPolynomial({(1, 1): 2.0, (2, 0): -3.0}))
        separate = br.cbt_apply(a).scale(2.0) + br.cbt_apply(b).scale(-3.0)
        assert br.wave_distance(combined, separate) < 1e-14

    def test_envelope_follows_units(self):
        u = br.Units(m=2.0, omega=3.0, hbar=1.0)
        w = br.cbt_apply(br.ZPolynomial.monomial(0, 0), u)
        assert w.exp_zzbar == pytest.approx(-3.0)

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError):
            br.cbt_apply("z*zbar")

    def test_grading_past_the_float_range_raises(self):
        # 2.0 ** 1024 raised a raw OverflowError
        with pytest.raises(ValueError, match="float range"):
            br.cbt_apply(br.ZPolynomial.monomial(2047, 0))

    @pytest.mark.parametrize("n1", range(5))
    @pytest.mark.parametrize("n2", range(5))
    def test_intertwining_sweep(self, n1, n2):
        # bridging the free-Hamiltonian image equals -omega*hbar times the
        # two-mode lowering action on the bridged state
        phi = br.ZPolynomial.monomial(n1, n2)
        lhs = br.cbt_apply(br.act_free("H", phi))
        rhs = br.apply_ladder(
            br.apply_ladder(br.cbt_apply(phi), 2, "-"), 1, "-"
        ).scale(-1.0)
        assert br.wave_distance(lhs, rhs) < 1e-12


class TestEigenstates:
    def test_ground_normalization(self):
        g = br.ground_state()
        assert g.prefactor.terms[(0, 0)] == pytest.approx(1 / math.sqrt(math.pi))
        assert g.exp_zzbar == -0.5

    def test_frozen_low_states(self):
        c = 1 / math.sqrt(math.pi)
        p10 = br.eigenstate(1, 0)
        assert p10.prefactor.terms == {(1, 0): pytest.approx(c)}
        p01 = br.eigenstate(0, 1)
        assert p01.prefactor.terms == {(0, 1): pytest.approx(c)}
        p11 = br.eigenstate(1, 1)
        assert p11.prefactor.terms[(1, 1)] == pytest.approx(c)
        assert p11.prefactor.terms[(0, 0)] == pytest.approx(-c)

    def test_angular_momentum_eigenvalue(self):
        psi = br.eigenstate(2, 1)
        out = br.angular_momentum_action(psi)
        assert br.wave_distance(out, psi.scale(1.0)) < 1e-13

    @pytest.mark.parametrize("g,n1,n2", [(F(1, 3), 1, 0), (F(1, 2), 2, 1), (3, 0, 1)])
    def test_energy_eigenvalue(self, g, n1, n2):
        c = Coupling(F(g))
        psi = br.eigenstate(n1, n2)
        out = br.hamiltonian_action(psi, c)
        level = float(c.ell1 * n1 + c.ell2 * n2 + 1)
        assert br.wave_distance(out, psi.scale(level)) < 1e-12

    def test_general_units_energy(self):
        u = br.Units(m=2.0, omega=3.0, hbar=0.5)
        psi = br.eigenstate(1, 0, u)
        out = br.hamiltonian_action(psi, Coupling(F(1, 3)))
        level = u.hbar * u.omega * float(F(4, 3) + 1)
        assert br.wave_distance(out, psi.scale(level)) < 1e-12

    def test_negative_index(self):
        with pytest.raises(ValueError):
            br.eigenstate(-1, 0)

    @pytest.mark.parametrize("n1, n2", [(1.5, 0), (0, 0.5), (2.0, 1), (1, "2"), (None, 0)])
    def test_non_int_index_raises(self, n1, n2):
        # (1.5, 0) walked (0.5, 0) -> (0, -1) -> (0, -2) -> ... and never returned
        with pytest.raises(ValueError, match="not an integer >= 0"):
            br.eigenstate(n1, n2)

    @pytest.mark.parametrize("mode, direction", [(1, "-"), (1, "+"), (2, "-"), (2, "+")])
    def test_ladder_rule_matches_the_four_formulas(self, mode, direction):
        # b1- = s(zbar + c d/dz), b1+ = s(z - c d/dzbar), b2- = s(z + c d/dzbar),
        # b2+ = s(zbar - c d/dz), written out branch by branch, bit for bit
        u = br.Units(m=2.0, omega=0.75, hbar=1.5)
        state = br.coherent_state(0.4 - 0.2j, -0.3 + 0.6j, u).with_prefactor(
            br.ZPolynomial({(0, 0): 0.5, (2, 1): 1.5 - 0.25j, (0, 3): -0.5j}))
        s, c = math.sqrt(u.m * u.omega / (4 * u.hbar)), u.length_sq
        p = state.prefactor
        d_z = p.diff_z() + p.shift(0, 1).scale(state.exp_zzbar) + p.scale(state.exp_z)
        d_zbar = p.diff_zbar() + p.shift(1, 0).scale(state.exp_zzbar) + p.scale(state.exp_zbar)
        expected = {
            (1, "-"): p.shift(0, 1) + d_z.scale(c), (1, "+"): p.shift(1, 0) + d_zbar.scale(-c),
            (2, "-"): p.shift(1, 0) + d_zbar.scale(c), (2, "+"): p.shift(0, 1) + d_z.scale(-c),
        }[(mode, direction)].scale(s)
        out = br.apply_ladder(state, mode, direction)
        assert out.prefactor.terms == expected.terms
        assert out.with_prefactor(p) == state

    def test_ladder_commutators_on_a_displaced_state(self):
        # [b_i-, b_j+] = delta_ij and [b1-, b2-] = 0 with linear exponents present
        state = br.coherent_state(0.5 + 0.1j, 0.2 - 0.7j).with_prefactor(
            br.ZPolynomial({(1, 0): 1.0, (1, 2): 0.3j}))
        lad = br.apply_ladder
        for i in (1, 2):
            for j in (1, 2):
                comm = lad(lad(state, j, "+"), i, "-") - lad(lad(state, i, "-"), j, "+")
                assert br.wave_distance(comm, state.scale(float(i == j))) < 1e-13
        comm = lad(lad(state, 2, "-"), 1, "-") - lad(lad(state, 1, "-"), 2, "-")
        assert comm.prefactor.max_abs() < 1e-13

    def test_lowering_annihilates_ground(self):
        out = br.apply_ladder(br.ground_state(), 1, "-")
        assert out.prefactor.max_abs() < 1e-15

    @pytest.mark.parametrize("n1, n2", [(0, 0), (3, 0), (0, 4), (6, 5), (25, 15)])
    def test_chain_matches_ladder_products(self, n1, n2):
        # (b2+)^n2 then (b1+)^n1 on the ground state, one normalized step at a time
        state = br.ground_state()
        for k in range(1, n2 + 1):
            state = br.apply_ladder(state, 2, "+").scale(1.0 / math.sqrt(k))
        for k in range(1, n1 + 1):
            state = br.apply_ladder(state, 1, "+").scale(1.0 / math.sqrt(k))
        psi = br.eigenstate(n1, n2)
        assert psi.prefactor.terms == state.prefactor.terms
        assert br.eigenstate(n1, n2) is psi

    def test_chain_climbs_from_the_nearest_cached_state(self, monkeypatch):
        units = br.Units(m=1.0, omega=1.0, hbar=0.37)  # no state of these units is cached yet
        br.eigenstate(5, 3, units)
        steps, ladder = [], br.apply_ladder
        monkeypatch.setattr(br, "apply_ladder",
                            lambda state, mode, direction: steps.append((mode, direction))
                            or ladder(state, mode, direction))
        psi = br.eigenstate(7, 3, units)
        assert steps == [(1, "+"), (1, "+")]
        assert br.eigenstate(7, 3, units) is psi and len(steps) == 2

    def test_last_state_before_underflow_is_built(self):
        # the single coefficient of (300, 0) is still a normal float, 3.2e-308
        psi = br.eigenstate(300, 0)
        assert list(psi.prefactor.terms) == [(300, 0)]

    @pytest.mark.parametrize("n1, n2", [(400, 0), (0, 400), (1000, 0), (200, 200)])
    def test_underflowing_prefactor_raises(self, n1, n2):
        # past n1 + n2 ~ 300 the prefactor underflowed to the empty polynomial, a zero
        # state; at 1000 the recursive ladder chain ended in RecursionError
        with pytest.raises(ValueError, match="leaves the float range"):
            br.eigenstate(n1, n2)


class TestOrthonormality:
    def test_frozen_cases(self):
        def overlap(n1, n2, l1, l2):
            return br.inner_product(br.eigenstate(n1, n2), br.eigenstate(l1, l2))

        assert overlap(0, 0, 0, 0) == pytest.approx(1.0, abs=1e-10)
        assert abs(overlap(1, 0, 0, 1)) < 1e-10
        assert overlap(2, 1, 2, 1) == pytest.approx(1.0, abs=1e-8)

    def test_negative_overlap_size_raises(self):
        # nmax = -1 raised IndexError on the empty state list
        with pytest.raises(ValueError, match="not an integer >= 0"):
            br.overlap_matrix(-1)

    @pytest.mark.parametrize("nmax", [1.5, 2.0, "3"])
    def test_non_int_overlap_size_raises(self, nmax):
        # 1.5 raised TypeError from range
        with pytest.raises(ValueError, match="not an integer >= 0"):
            br.overlap_matrix(nmax)

    def test_overlap_matrix_identity(self):
        gram = br.overlap_matrix(4)
        assert np.max(np.abs(gram - np.eye(25))) < 1e-8

    @pytest.mark.parametrize("nmax", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("units", [br.Units(), br.Units(2.0, 0.5, 3.0)],
                             ids=["unit", "scaled"])
    def test_overlap_matrix_matches_pairwise_quadrature(self, nmax, units):
        states = [br.eigenstate(n1, n2, units) for n1 in range(nmax + 1) for n2 in range(nmax + 1)]
        pairwise = np.array([[br.inner_product(a, b) for b in states] for a in states])
        assert np.max(np.abs(br.overlap_matrix(nmax, units) - pairwise)) <= 1e-14

    def test_quadrature_rule_is_cached_read_only(self):
        nodes, weights = br._gauss_hermite(40)
        assert br._gauss_hermite(40)[0] is nodes
        ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(40)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_insufficient_order_flagged(self):
        # inner_product picks its own order; the Gram matrix keeps order 40 for every nmax
        with pytest.raises(ValueError, match="order 40 insufficient for polynomial degree 80"):
            br.overlap_matrix(20)

    def test_quadrature_past_the_float_range_raises(self):
        # the order-251 sum for |psi_250,0|^2 overflowed and returned nan with numpy warnings
        psi = br.eigenstate(250, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="order-251 quadrature leaves the float range"):
                br.inner_product(psi, psi)

    def test_combined_envelope_guard(self):
        grow = br.WaveState(br.ZPolynomial.monomial(0, 0, 1.0), exp_zzbar=+0.5)
        with pytest.raises(ValueError):
            br.inner_product(grow, grow)


def _proportional(rep) -> bool:
    """The verdict of the suite's row on a proportionality report."""
    return check(f"proportionality:{rep.n1}{rep.n2}", rep.spread).passed


class TestProportionality:
    def test_reduced_constant_matches_ground(self):
        r00 = br.verify_bridge_proportionality(0, 0)
        r10 = br.verify_bridge_proportionality(1, 0)
        assert _proportional(r00) and _proportional(r10)
        ratio = r10.reduced_constant / r00.reduced_constant
        assert abs(ratio - 1) < 1e-9

    def test_reduced_constant_value(self):
        # cbt(phi00) = sqrt2 e^{-zzbar/2} against (1/sqrt(pi)) gives sqrt(2 pi)
        r = br.verify_bridge_proportionality(0, 0)
        assert r.constant == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    def test_frozen_11_constant(self):
        r = br.verify_bridge_proportionality(1, 1)
        assert r.constant == pytest.approx(2 * SQ2 * math.sqrt(math.pi), rel=1e-9)

    @pytest.mark.parametrize("n1,n2", [(2, 0), (0, 2), (2, 1), (3, 3)])
    def test_grid_constancy(self, n1, n2):
        r = br.verify_bridge_proportionality(n1, n2)
        assert _proportional(r)
        assert r.spread <= 1e-9
        assert 0 < r.points_used <= 441

    @pytest.mark.parametrize("hbar", [0.5, 2.0])
    def test_grid_constancy_off_unit_hbar(self, hbar):
        # the bridge's free Hamiltonian -(hbar^2/2m) 4 d_z d_zbar carries hbar squared
        units = br.Units(m=2.0, omega=0.75, hbar=hbar)
        reports = [br.verify_bridge_proportionality(n1, n2, units)
                   for n1, n2 in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 3)]]
        assert all(_proportional(r) and r.spread <= 1e-9 for r in reports), \
            [r.spread for r in reports]
        base = reports[0].reduced_constant
        assert all(abs(r.reduced_constant / base - 1) <= 1e-9 for r in reports)

    def test_divisor_past_the_float_range_raises(self):
        # sqrt(171!) raised a raw OverflowError
        with pytest.raises(ValueError, match="float range"):
            br.verify_bridge_proportionality(171, 0)

    def test_nodal_exclusion(self):
        # the (1,0) state vanishes at the origin, which is a grid point
        r = br.verify_bridge_proportionality(1, 0)
        assert r.points_used == 440


class TestInverseWeierstrass:
    def test_frozen_examples(self):
        r2 = br.inverse_weierstrass(2)
        assert r2.passed
        assert r2.series == {2: F(1), 0: F(-1, 2)}
        r3 = br.inverse_weierstrass(3)
        assert r3.passed
        assert r3.series == {3: F(1), 1: F(-3, 2)}

    @pytest.mark.parametrize("n", range(11))
    def test_exact_identity(self, n):
        rep = br.inverse_weierstrass(n)
        assert rep.passed
        assert rep.series == rep.scaled_hermite

    def test_negative(self):
        with pytest.raises(ValueError):
            br.inverse_weierstrass(-1)


def _hermite_coeffs(n: int) -> dict:
    """Integer coefficient maps of the physicists' Hermite polynomials."""
    h_prev = {0: Fraction(1)}
    if n == 0:
        return h_prev
    h_cur = {1: Fraction(2)}
    for k in range(1, n):
        nxt: dict = {}
        for p, c in h_cur.items():
            nxt[p + 1] = nxt.get(p + 1, Fraction(0)) + 2 * c
        for p, c in h_prev.items():
            nxt[p] = nxt.get(p, Fraction(0)) - 2 * k * c
        h_prev, h_cur = h_cur, {p: c for p, c in nxt.items() if c}
    return h_cur


def _mutant_rows(step):
    """hermite_rows with H_{j+1}[k] = step(H_j[k-1], H_{j-1}[k], j) in place of the recurrence."""
    def rows(n):
        prev, row = (), (1,)
        yield row
        for j in range(n):
            prev, row = row, tuple(step(a, b, j) for a, b in zip((0, *row), (*prev, 0, 0)))
            yield row
    return rows


class TestHermiteRows:
    def test_matches_dict_recurrence(self):
        rows = list(fe.hermite_rows(40))
        assert len(rows) == 41
        for n, row in enumerate(rows):
            assert len(row) == n + 1 and all(type(c) is int for c in row)
            assert {p: c for p, c in enumerate(row) if c} == _hermite_coeffs(n), n
            assert rows[: n + 1] == list(fe.hermite_rows(n))

    def test_derivative_identity(self):
        # H_j' = 2j H_{j-1}, coefficient by coefficient
        prev = None
        for j, row in enumerate(fe.hermite_rows(40)):
            deriv = [k * c for k, c in enumerate(row)][1:]
            assert deriv == ([2 * j * c for c in prev] if j else []), j
            prev = row

    def test_frozen_rows(self):
        assert list(fe.hermite_rows(3)) == [(1,), (0, 2), (-2, 0, 4), (0, -12, 0, 8)]

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            next(fe.hermite_rows(-1))

    @pytest.mark.parametrize("step", [
        lambda a, b, j: 2 * a - 2 * (j + 1) * b,
        lambda a, b, j: a - 2 * j * b,
        lambda a, b, j: 2 * a - 2 * j * b + (j == 6),
    ], ids=["lower-coefficient", "raising-factor", "one-entry"])
    def test_mutated_recurrence_fails_the_suite_rows(self, monkeypatch, step):
        # bridge reads hermite_rows through its own import, so both names are patched
        monkeypatch.setattr(fe, "hermite_rows", _mutant_rows(step))
        monkeypatch.setattr(br, "hermite_rows", _mutant_rows(step))
        rows = {row.check_id: row for row in br.suite_bridge(
            SimpleNamespace(units=br.Units())).rows}
        for check_id in ("inverse-weierstrass", "bridge-one-mode-H", "bridge-one-mode-iD",
                         "bridge-one-mode-K"):
            assert not rows[check_id].passed, check_id


class TestUnits:
    @pytest.mark.parametrize("kwargs", [
        {"hbar": float("nan")}, {"m": float("inf")}, {"omega": float("nan")}, {"hbar": 0.0},
    ])
    def test_non_positive_or_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="is not a positive finite real"):
            br.Units(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"m": 1e-308, "omega": 1e-308}, {"m": 1e-308}, {"hbar": 1e308},
        {"m": 1e300, "omega": 1e300}, {"m": 1e300, "hbar": 1e-300},
    ])
    def test_derived_scales_outside_the_float_range_rejected(self, kwargs):
        # m*omega = 0.0 used to raise ZeroDivisionError in length_sq
        with pytest.raises(ValueError, match="float range"):
            br.Units(**kwargs)


class TestRotation:
    def test_eigenstate_picks_up_phase(self):
        psi = br.eigenstate(2, 1)
        rot = br.rotate(psi, 0.8)
        expected = psi.scale(np.exp(1j * 0.8))  # n1 - n2 = 1
        assert br.wave_distance(rot, expected) < 1e-14

    def test_full_turn(self):
        psi = br.eigenstate(1, 2)
        assert br.wave_distance(br.rotate(psi, 2 * math.pi), psi) < 1e-13

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_raises(self, gamma):
        # inf emitted a numpy RuntimeWarning, nan gave nan exponents
        with pytest.raises(ValueError, match="gamma .* is not a finite real"):
            br.rotate(br.ground_state(), gamma)


class TestCoherent:
    def test_vacuum_limit(self):
        assert br.wave_distance(br.coherent_state(0, 0), br.ground_state()) < 1e-15

    def test_normalized(self):
        phi = br.coherent_state(0.5 + 0.3j, -0.2 + 0.4j)
        assert br.inner_product(phi, phi).real == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalue_closed_form(self):
        alpha, beta = 0.7 - 0.1j, 0.2 + 0.6j
        phi = br.coherent_state(alpha, beta)
        lam1, lam2 = br.coherent_eigenvalues(alpha, beta)
        assert lam1 == pytest.approx(alpha)
        assert br.wave_distance(br.apply_ladder(phi, 1, "-"), phi.scale(lam1)) < 1e-13
        assert br.wave_distance(br.apply_ladder(phi, 2, "-"), phi.scale(lam2)) < 1e-13

    def test_general_units_eigenvalue(self):
        u = br.Units(m=2.0, omega=2.0, hbar=1.0)
        alpha = 0.4 + 0.1j
        phi = br.coherent_state(alpha, 0.0, u)
        lam1, _ = br.coherent_eigenvalues(alpha, 0.0, u)
        assert lam1 == pytest.approx(alpha / 2)
        assert br.wave_distance(br.apply_ladder(phi, 1, "-"), phi.scale(lam1)) < 1e-13

    def test_expansion_coefficients_match_quadrature(self):
        alpha, beta = 0.6 + 0.2j, -0.3 + 0.5j
        phi = br.coherent_state(alpha, beta)
        for n1 in range(4):
            for n2 in range(4 - n1):
                via_quad = br.inner_product(br.eigenstate(n1, n2), phi)
                closed = br.expansion_coefficient(alpha, beta, n1, n2)
                assert via_quad == pytest.approx(closed, abs=1e-12)

    @pytest.mark.parametrize(
        "g,t,gamma",
        [(0, 0.9, 0.4), (F(2, 3), 0.7, 1.1), (3, 0.3, 2.0)],
    )
    def test_full_checks(self, g, t, gamma):
        rep = br.coherent_checks(
            0.4 + 0.2j, -0.3 + 0.5j, t=t, gamma=gamma, coupling=Coupling(F(g))
        )
        assert rep.passed
        for row in rep.rows:
            assert row.residual <= 1e-10

    def test_cutoff_beyond_factorial_range_raises(self):
        with pytest.raises(ValueError, match="170"):
            br.coherent_checks(0.1, 0.1, t=0.0, gamma=0.0, cutoff=171)

    @pytest.mark.parametrize("t,g", [
        (1e307, F(1, 3)), (1e308, F(2)), (-1e308, F(0)), (1.0, F(10**400))])
    def test_time_with_phase_beyond_float_range_raises(self, t, g):
        # the level phases overflowed to inf and numpy warned about nan, and an
        # ell past the float range raised OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                br.coherent_checks(0.1, 0, t, 0, Coupling(g))

    def test_labels_beyond_float_range_raise(self):
        # |alpha|^2 overflowed with an OverflowError before
        for alpha in (1e308, complex(-1, -1e308), 2e154):
            with pytest.raises(ValueError, match="float range"):
                br.coherent_state(alpha, 0)
            with pytest.raises(ValueError, match="float range"):
                br.expansion_coefficient(alpha, 0, 1, 0)

    def test_underflowed_vacuum_gives_zero_coefficient(self):
        # lambda^4 = 1e400 would overflow; the vacuum factor is 0 first
        assert br.expansion_coefficient(1e100, 0, 4, 0) == 0j
        assert br.expansion_coefficient(1000, 0, 3, 0) == 0j

    @pytest.mark.parametrize("n1, n2, alpha", [(200, 0, 0.5), (0, 171, 0.5), (100, 100, 0.5),
                                               (400, 0, 30.0)])
    def test_coefficient_past_the_float_range_raises(self, n1, n2, alpha):
        # sqrt(200!) and lambda^400 raised OverflowError
        with pytest.raises(ValueError, match="float range"):
            br.expansion_coefficient(alpha, 0.5, n1, n2)

    @pytest.mark.parametrize("alpha, beta", [
        (complex("nan"), 0), (0, complex(0, float("nan"))), (float("inf"), 0), (0, -math.inf)])
    def test_non_finite_labels_raise(self, alpha, beta):
        # a nan label gave a state with nan exponents
        with pytest.raises(ValueError, match="finite"):
            br.coherent_state(alpha, beta)
        with pytest.raises(ValueError, match="finite"):
            br.expansion_coefficient(alpha, beta, 1, 0)

    def test_evolved_labels_rotate_each_mode_at_its_frequency(self):
        alpha, beta, t = 0.8 - 0.5j, 0.4 + 0.7j, 0.9
        coupling = Coupling(F(1, 3))
        l1, l2 = coupling.float_ells()
        u = br.Units(omega=1.5)
        a_t, b_t = br.evolved_labels(alpha, beta, t, coupling, u)
        assert type(a_t) is complex and type(b_t) is complex
        # the same bits as the numpy-scalar product
        assert a_t == alpha * np.exp(-1j * 1.5 * l1 * t)
        assert b_t == beta * np.exp(-1j * 1.5 * l2 * t)
        assert br.evolved_labels(alpha, beta, 0.0, coupling) == (alpha, beta)


class TestWaveState:
    def test_envelope_mismatch(self):
        a = br.ground_state()
        b = br.WaveState(br.ZPolynomial.monomial(0, 0, 1.0), exp_zzbar=-1.0)
        with pytest.raises(ValueError):
            a + b

    @pytest.mark.parametrize("name", ["exp_zzbar", "exp_z", "exp_zbar", "exp_const"])
    def test_nan_exponent_refuses_addition(self, name):
        a = br.coherent_state(0.3, -0.2j)
        b = dataclasses.replace(a, **{name: math.nan})
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="different exponents"):
                x + y
            # a nan gap past the first field used to read as distance 0
            assert math.isnan(br.wave_distance(x, y))

    def test_one_evaluator_for_scalars_and_arrays(self):
        psi = br.coherent_state(0.4 - 0.1j, 0.2 + 0.3j).with_prefactor(
            br.ZPolynomial({(2, 1): 1.5, (0, 3): -0.5j}))
        assert br.WaveState.evaluate_grid is br.WaveState.evaluate
        value = psi.evaluate(0.3, -1.2)
        assert type(value) is complex
        assert type(psi.evaluate(np.float64(0.3), np.float64(-1.2))) is complex
        x1 = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        grid = psi.evaluate(x1, x1[:, :1])  # (3, 4) against (3, 1)
        assert isinstance(grid, np.ndarray) and grid.shape == (3, 4)
        assert psi.evaluate(np.array([0.3]), np.array([-1.2])).shape == (1,)
        assert psi.evaluate(np.array([0.3]), np.array([-1.2]))[0] == pytest.approx(value, rel=1e-15)

    def test_grid_matches_scalar_evaluate(self):
        psi = br.eigenstate(2, 1)
        xs = np.array([0.3, -1.2])
        ys = np.array([0.5, 0.8])
        grid = psi.evaluate_grid(xs, ys)
        for i in range(2):
            assert grid[i] == pytest.approx(psi.evaluate(xs[i], ys[i]))


# ---------------------------------------------------------------------------
# one power table and one envelope per sample grid


def _at_term_by_term(poly, u, v):
    """ZPolynomial.at as first written: u**n1 and v**n2 formed afresh for every term."""
    shape = np.broadcast(u, v).shape
    total = np.zeros(shape, dtype=complex) if shape else 0j
    for (n1, n2), c in poly.terms.items():
        total += c * u**n1 * v**n2
    return total


def _evaluate_as_first_written(state, x1, x2):
    """WaveState.evaluate on arrays as first written: its own z, envelope and powers."""
    z = np.asarray(x1) + 1j * np.asarray(x2)
    zb = np.conj(z)
    expo = state.exp_zzbar * z * zb + state.exp_z * z + state.exp_zbar * zb + state.exp_const
    return _at_term_by_term(state.prefactor, z, zb) * np.exp(expo)


def _expansion_by_evaluate(alpha, beta, t, coupling, units, cutoff, x1, x2):
    """The coherent expansion summed with one evaluation per eigenstate."""
    l1, l2 = coupling.float_ells()
    evolved = np.zeros(x1.shape, dtype=complex)
    weight = 0.0
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1 - n1):
            coeff = br.expansion_coefficient(alpha, beta, n1, n2, units)
            weight += abs(coeff) ** 2
            if abs(coeff) < 1e-18:
                continue
            phase = np.exp(-1j * units.omega * (l1 * n1 + l2 * n2 + 1) * t)
            evolved += coeff * phase * _evaluate_as_first_written(
                br.eigenstate(n1, n2, units), x1, x2)
    return evolved, weight


# (alpha, beta, t, coupling, units, cutoff): the bridge suite's call, the CI's coherent
# command at the CLI's default cutoff and at the largest one, README's example, and the
# labels whose evolution row fails at cutoff 170
EXPANSION_CASES = [
    (0.8 - 0.5j, 0.4 + 0.7j, 0.9, Coupling(F(1, 2)), br.Units(), 24),
    (0.5 - 0.3j, 0.2 + 0.6j, 1.0, Coupling(F(1, 2)), br.Units(), 30),
    (0.5 - 0.3j, 0.2 + 0.6j, 1.0, Coupling(F(1, 2)), br.Units(), 170),
    (0.9 - 0.2j, -0.3 + 0.6j, 1.7, Coupling(0), br.Units(), 30),
    (0.8 - 0.5j, 0.4 + 0.7j, 0.9, Coupling(F(1, 3)), br.Units(2.0, 0.5, 3.0), 24),
    (8.0, 1 - 1j, 2.3, Coupling(F(2, 3)), br.Units(), 170),
]


class TestSharedGridEvaluation:
    SAMPLES = np.meshgrid((-1.1, 0.3, 0.9), (-0.7, 0.2, 1.3), indexing="ij")

    @pytest.mark.parametrize("alpha, beta, t, coupling, units, cutoff", EXPANSION_CASES)
    def test_expansion_is_bit_identical_to_evaluate_per_state(
            self, alpha, beta, t, coupling, units, cutoff):
        x1, x2 = self.SAMPLES
        got, weight = br._evolved_expansion(alpha, beta, t, coupling.float_ells(), units,
                                            cutoff, x1, x2)
        want, want_weight = _expansion_by_evaluate(alpha, beta, t, coupling, units, cutoff,
                                                   x1, x2)
        assert got.tobytes() == want.tobytes()
        assert weight == want_weight

    def test_expansion_with_every_term_skipped_is_zero(self):
        # the vacuum factor underflows, so no eigenstate is kept and none is built
        x1, x2 = self.SAMPLES
        evolved, weight = br._evolved_expansion(1e100, 0, 0.5, (1.0, 1.0), br.Units(), 4, x1, x2)
        assert not evolved.any() and weight == 0.0

    @pytest.mark.parametrize("nmax", [3, 4])
    def test_overlap_matrix_matches_column_by_column(self, nmax):
        states = [br.eigenstate(n1, n2) for n1 in range(nmax + 1) for n2 in range(nmax + 1)]
        z, zb, weight, lam = br._quadrature_grid(states[-1], states[-1], 40)
        columns = np.stack([s.prefactor.at(z, zb).ravel() for s in states], axis=1)
        want = columns.conj().T @ (weight.reshape(-1, 1) * columns) / lam
        assert br.overlap_matrix(nmax).tobytes() == want.tobytes()

    @pytest.mark.parametrize("poly", [
        br.ZPolynomial({(3, 1): 1.5 - 0.25j, (0, 0): 2.0, (1, 3): -0.5j, (3, 0): 0.125}),
        br.eigenstate(7, 4).prefactor,
        br.eigenstate(0, 30).prefactor,
        br.ZPolynomial({}),
    ], ids=["mixed", "eigen-7-4", "eigen-0-30", "zero"])
    def test_at_is_unchanged(self, poly):
        xs = np.linspace(-1.3, 1.1, 7)
        z = xs[:, None] + 1j * xs[None, :]
        for u, v in ((z, np.conj(z)), (0.3 - 0.7j, 0.3 + 0.7j), (2, -1), (z[:1], 0.5)):
            got, want = poly.at(u, v), _at_term_by_term(poly, u, v)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert type(poly.at(0.3 - 0.7j, 0.3 + 0.7j)) is complex

    @pytest.mark.parametrize("state", [
        br.eigenstate(6, 2), br.coherent_state(0.4 - 0.1j, 0.2j),
        br.rotate(br.eigenstate(3, 5, br.Units(2.0, 0.5, 3.0)), 0.7)],
        ids=["eigenstate", "coherent", "rotated"])
    def test_evaluate_is_unchanged(self, state):
        x1, x2 = self.SAMPLES
        want = _evaluate_as_first_written(state, x1, x2)
        assert state.evaluate(x1, x2).tobytes() == want.tobytes()

    def test_values_share_one_power_table(self):
        polys = [br.eigenstate(n1, n2).prefactor for n1, n2 in ((0, 0), (5, 2), (1, 6))]
        z = np.array([0.4 - 0.2j, -1.0 + 0.5j])
        values = br._values_at(polys, z, np.conj(z))
        for poly, value in zip(polys, values):
            assert value.tobytes() == _at_term_by_term(poly, z, np.conj(z)).tobytes()


class TestCoherentEvolutionNotVacuous:
    """Mutants of the expansion that the coherent-evolution row must catch."""

    ARGS = (0.8 - 0.5j, 0.4 + 0.7j)
    KWARGS = dict(t=0.9, gamma=2.1, coupling=Coupling(F(1, 2)), cutoff=24)

    def _evolution_row(self):
        rows = {r.check_id: r for r in br.coherent_checks(*self.ARGS, **self.KWARGS).rows}
        return rows["coherent-evolution"]

    def test_unmutated_passes(self):
        assert self._evolution_row().passed

    def test_one_scaled_term_fails(self, monkeypatch):
        exact = br.eigenstate

        def scaled(n1, n2, units=br.Units()):
            state = exact(n1, n2, units)
            return state.scale(1 + 1e-6) if (n1, n2) == (1, 0) else state

        monkeypatch.setattr(br, "eigenstate", scaled)
        assert not self._evolution_row().passed

    def test_swapped_level_weights_fail(self, monkeypatch):
        exact = br._evolved_expansion

        def swapped(alpha, beta, t, ells, *rest):
            return exact(alpha, beta, t, ells[::-1], *rest)

        monkeypatch.setattr(br, "_evolved_expansion", swapped)
        assert not self._evolution_row().passed

    @pytest.mark.parametrize("name, value", [("exp_zzbar", -0.5 + 1e-9), ("exp_const", 1e-9)])
    def test_eigenstate_with_another_envelope_raises(self, monkeypatch, name, value):
        exact = br.eigenstate

        def moved(n1, n2, units=br.Units()):
            state = exact(n1, n2, units)
            return dataclasses.replace(state, **{name: value}) if (n1, n2) == (2, 3) else state

        monkeypatch.setattr(br, "eigenstate", moved)
        with pytest.raises(ValueError, match="share one envelope"):
            br.coherent_checks(*self.ARGS, **self.KWARGS)
