"""Bridge map, generator actions, eigenfunctions, coherent states.

Frozen closed forms were hand-traced through the three-factor bridge
composition (grading, finite free-Hamiltonian series, Gaussian) and the
first-order ladder operators.
"""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from riaho.coupling import Coupling
from riaho import bridge as br

F = Fraction
SQ2 = math.sqrt(2)


class TestZPolynomial:
    def test_pruning(self):
        p = br.ZPolynomial({(0, 0): 0.0, (1, 2): 3.0})
        assert p.terms == {(1, 2): 3.0}

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            br.ZPolynomial({(-1, 0): 1.0})

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

    def test_evaluate(self):
        p = br.ZPolynomial({(1, 1): 1.0})
        assert p.evaluate(1 + 2j) == pytest.approx(5.0)  # z zbar = |z|^2

    def test_conjugate(self):
        p = br.ZPolynomial({(2, 0): 1j})
        assert p.conjugate().terms == {(0, 2): -1j}


class TestActFree:
    def test_all_rules_on_phi23(self):
        s = br.monomial_state(2, 3)
        assert br.act_free("H", s).terms == {(1, 2): -12.0}
        assert br.act_free("K", s).terms == {(3, 4): 0.5}
        assert br.act_free("D2i", s).terms == {(2, 3): 6.0}
        assert br.act_free("Pphi", s).terms == {(2, 3): -1.0}
        assert br.act_free("Pminus", s).terms == {(1, 3): -4j}
        assert br.act_free("Pplus", s).terms == {(2, 2): -6j}
        assert br.act_free("XiPlus", s).terms == {(3, 3): 1.0}
        assert br.act_free("XiMinus", s).terms == {(2, 4): 1.0}

    def test_annihilation_edges(self):
        assert br.act_free("H", br.monomial_state(1, 0)).is_zero()
        assert br.act_free("H", br.monomial_state(0, 5)).is_zero()
        assert br.act_free("Pminus", br.monomial_state(0, 2)).is_zero()
        assert br.act_free("Pplus", br.monomial_state(2, 0)).is_zero()

    def test_frozen_paper_examples(self):
        assert br.act_free("H", br.monomial_state(1, 1)).terms == {(0, 0): -2.0}
        assert br.act_free("D2i", br.monomial_state(0, 0)).terms == {(0, 0): 1.0}

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            br.act_free("X", br.monomial_state(0, 0))

    def test_units_scaling(self):
        u = br.Units(m=2.0, omega=1.0, hbar=3.0)
        out = br.act_free("H", br.monomial_state(1, 1), u)
        assert out.terms == {(0, 0): -3.0}  # -(2*hbar/m) = -3
        assert br.act_free("K", br.monomial_state(0, 0), u).terms == {(1, 1): 1.0}

    def test_linearity(self):
        s = br.ZPolynomial({(1, 1): 2.0, (2, 2): -1.0})
        out = br.act_free("H", s)
        assert out.terms == {(0, 0): -4.0, (1, 1): 8.0}


class TestCbtApply:
    def test_frozen_ground(self):
        w = br.cbt_apply(br.monomial_state(0, 0))
        assert w.prefactor.terms == {(0, 0): pytest.approx(SQ2)}
        assert w.exp_zzbar == -0.5
        assert w.is_physical

    def test_frozen_first_excited(self):
        w = br.cbt_apply(br.monomial_state(1, 0))
        assert w.prefactor.terms == {(1, 0): pytest.approx(2.0)}

    def test_frozen_radial(self):
        w = br.cbt_apply(br.monomial_state(1, 1))
        assert w.prefactor.terms[(1, 1)] == pytest.approx(2 * SQ2)
        assert w.prefactor.terms[(0, 0)] == pytest.approx(-2 * SQ2)

    def test_linearity(self):
        a = br.monomial_state(1, 1)
        b = br.monomial_state(2, 0)
        combined = br.cbt_apply(br.ZPolynomial({(1, 1): 2.0, (2, 0): -3.0}))
        separate = br.cbt_apply(a).scale(2.0) + br.cbt_apply(b).scale(-3.0)
        assert br.wave_distance(combined, separate) < 1e-14

    def test_envelope_follows_units(self):
        u = br.Units(m=2.0, omega=3.0, hbar=1.0)
        w = br.cbt_apply(br.monomial_state(0, 0), u)
        assert w.exp_zzbar == pytest.approx(-3.0)

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError):
            br.cbt_apply("z*zbar")

    @pytest.mark.parametrize("n1", range(5))
    @pytest.mark.parametrize("n2", range(5))
    def test_intertwining_sweep(self, n1, n2):
        # bridging the free-Hamiltonian image equals -omega*hbar times the
        # two-mode lowering action on the bridged state
        phi = br.monomial_state(n1, n2)
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

    def test_lowering_annihilates_ground(self):
        out = br.apply_ladder(br.ground_state(), 1, "-")
        assert out.prefactor.max_abs() < 1e-15


class TestOrthonormality:
    def test_frozen_cases(self):
        assert br.orthonormality(0, 0, 0, 0) == pytest.approx(1.0, abs=1e-10)
        assert abs(br.orthonormality(1, 0, 0, 1)) < 1e-10
        assert br.orthonormality(2, 1, 2, 1) == pytest.approx(1.0, abs=1e-8)

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

    def test_index_cap(self):
        with pytest.raises(ValueError):
            br.orthonormality(7, 0, 0, 0)

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
        with pytest.raises(ValueError):
            br.orthonormality(6, 6, 6, 6, order=10)

    def test_combined_envelope_guard(self):
        grow = br.WaveState(br.ZPolynomial.monomial(0, 0, 1.0), exp_zzbar=+0.5)
        with pytest.raises(ValueError):
            br.inner_product(grow, grow)


class TestProportionality:
    def test_reduced_constant_matches_ground(self):
        r00 = br.verify_bridge_proportionality(0, 0)
        r10 = br.verify_bridge_proportionality(1, 0)
        assert r00.passed and r10.passed
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
        assert r.passed
        assert r.spread <= 1e-9
        assert 0 < r.points_used <= 441

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


class TestUnits:
    @pytest.mark.parametrize("kwargs", [
        {"hbar": float("nan")}, {"m": float("inf")}, {"omega": float("nan")}, {"hbar": 0.0},
    ])
    def test_non_positive_or_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="positive and finite"):
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


class TestWaveState:
    def test_envelope_mismatch(self):
        a = br.ground_state()
        b = br.WaveState(br.ZPolynomial.monomial(0, 0, 1.0), exp_zzbar=-1.0)
        with pytest.raises(ValueError):
            a + b

    def test_grid_matches_scalar_evaluate(self):
        psi = br.eigenstate(2, 1)
        xs = np.array([0.3, -1.2])
        ys = np.array([0.5, 0.8])
        grid = psi.evaluate_grid(xs, ys)
        for i in range(2):
            assert grid[i] == pytest.approx(psi.evaluate(xs[i], ys[i]))

    def test_physical_flag(self):
        assert br.ground_state().is_physical
        w = br.WaveState(br.ZPolynomial.monomial(0, 0, 1.0), exp_zzbar=0.5)
        assert not w.is_physical
