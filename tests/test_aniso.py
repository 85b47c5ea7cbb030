"""Anisotropic oscillators: spectra, resonance ladders, separable bridge, rescaling."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riaho.aniso import (
    FrequencyPair,
    aniso_cbt_apply,
    aniso_proportionality,
    closure_period,
    composite_spectrum_check,
    degeneracy_partition,
    detect_commensurability,
    hermite_eigenstate,
    hidden_operator,
    hidden_orbits,
    lissajous,
    mode_constant,
    rescale_canonical_check,
    rescale_map,
    signed_hamiltonian,
    so11_invariant_check,
    spectrum,
    verify_signed_spectrum,
)
from riaho.coupling import Coupling
from riaho.fockeng import FockBasis, InteriorMask, hidden_coefficient


class TestFrequencyPair:
    def test_exact_detection(self):
        fp = FrequencyPair.detect(Fraction(1), Fraction(3))
        assert (fp.l1, fp.l2) == (3, 1)
        assert fp.is_exact

    def test_exact_detection_halves(self):
        fp = FrequencyPair.detect(Fraction(3, 2), Fraction(1, 2))
        assert (fp.l1, fp.l2) == (1, 3)
        assert fp.l1 * fp.omega1 == fp.l2 * fp.omega2

    def test_exact_detection_has_no_cap(self):
        fp = FrequencyPair.detect(Fraction(1), Fraction(97))
        assert (fp.l1, fp.l2) == (97, 1)

    def test_float_detection(self):
        fp = FrequencyPair.detect(1.0, 3.0)
        assert (fp.l1, fp.l2) == (3, 1)
        scaled = FrequencyPair.detect(2 * math.pi, 6 * math.pi)
        assert (scaled.l1, scaled.l2) == (3, 1)

    def test_detected_float_labels_pass_the_constructor(self):
        # detection and the label check share one tolerance; at a relative
        # mismatch of 1e-10 the constructor used to reject the detected labels
        fp = FrequencyPair.detect(1.0, 3.0000000003)
        assert (fp.l1, fp.l2) == (3, 1)
        assert FrequencyPair(1.0, 3.0000000003, 3, 1).commensurate
        with pytest.raises(ValueError, match="labels do not satisfy"):
            FrequencyPair(1.0, 3.00001, 3, 1)

    def test_detection_near_the_top_of_the_float_range(self):
        # l_i * w_i overflowed to inf, inf - inf is nan, and a nan mismatch
        # passed: an irrational ratio was labelled 29:41
        assert not FrequencyPair.detect(1.5e308, 1.5e308 / math.sqrt(2)).commensurate
        fp = FrequencyPair.detect(1.7e308, 0.6e308)
        assert (fp.l1, fp.l2) == (6, 17)
        # a label past the float range raised OverflowError in l2 * float(w2)
        with pytest.raises(ValueError, match="labels do not satisfy"):
            FrequencyPair(1.0, 1e-300, 1, 10**400)

    def test_float_detection_rejects_irrational(self):
        fp = FrequencyPair.detect(1.0, math.sqrt(2))
        assert not fp.commensurate
        assert fp.l1 is None and fp.l2 is None

    def test_float_detection_denominator_cap(self):
        # ratio 1/97 needs l1 = 97 > 64, so the float path must give up
        assert detect_commensurability(1.0, 97.0) is None

    def test_positive_frequencies_required(self):
        with pytest.raises(ValueError):
            FrequencyPair(0, 1)
        with pytest.raises(ValueError):
            FrequencyPair(1, -2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequencies_rejected(self, bad):
        for pair in ((bad, 1.0), (1.0, bad), (bad, Fraction(1))):
            with pytest.raises(ValueError, match="frequency must be finite"):
                FrequencyPair(*pair)
            with pytest.raises(ValueError, match="frequency must be finite"):
                FrequencyPair.detect(*pair)

    def test_overflowing_float_ratio_is_not_commensurate(self):
        # 1e308 / 1e-308 is inf as a float; it used to raise OverflowError
        assert detect_commensurability(1e308, 1e-308) is None
        assert detect_commensurability(1e-308, 1e308) is None
        assert not FrequencyPair.detect(1e308, 1e-308).commensurate

    def test_labels_must_come_in_pairs(self):
        with pytest.raises(ValueError):
            FrequencyPair(1, 3, l1=3)

    def test_labels_must_be_coprime(self):
        with pytest.raises(ValueError):
            FrequencyPair(1, 3, 6, 2)

    def test_labels_must_be_resonant(self):
        with pytest.raises(ValueError):
            FrequencyPair(1, 3, 1, 1)
        with pytest.raises(ValueError):
            FrequencyPair(1.0, 3.0001, 3, 1)
        # within float tolerance is fine
        FrequencyPair(1.0, 3.0 * (1 + 1e-15), 3, 1)

    @given(
        l1=st.integers(min_value=1, max_value=12),
        l2=st.integers(min_value=1, max_value=12),
        num=st.integers(min_value=1, max_value=9),
        den=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_detection_round_trip(self, l1, l2, num, den):
        g = math.gcd(l1, l2)
        l1, l2 = l1 // g, l2 // g
        w2 = Fraction(num, den)
        w1 = Fraction(l2) * w2 / l1
        fp = FrequencyPair.detect(w1, w2)
        assert (fp.l1, fp.l2) == (l1, l2)
        assert fp.l1 * fp.omega1 == fp.l2 * fp.omega2


class TestSpectrum:
    def test_ground_energy_is_half_sum(self):
        freq = FrequencyPair(2, 3)
        e = spectrum(freq, "+", 0, 0)
        assert e == Fraction(5, 2)
        assert isinstance(e, Fraction)

    def test_minus_sign_single_quantum(self):
        w = Fraction(5, 4)
        freq = FrequencyPair(w, w, 1, 1)
        assert spectrum(freq, "-", 0, 1) == -w

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_minus_sign_diagonal_vanishes(self, n):
        freq = FrequencyPair(3, 3)
        assert spectrum(freq, "-", n, n) == 0

    def test_minus_sign_unbounded_below(self):
        freq = FrequencyPair(1, 3, 3, 1)
        assert spectrum(freq, "-", 0, 5) < spectrum(freq, "-", 0, 1) < 0

    def test_float_frequencies_give_floats(self):
        freq = FrequencyPair(1.0, 3.0)
        e = spectrum(freq, "+", 1, 1)
        assert isinstance(e, float)
        assert e == pytest.approx(6.0)

    def test_hbar_scaling(self):
        freq = FrequencyPair(1, 3)
        assert spectrum(freq, "+", 1, 0, hbar=Fraction(1, 2)) == Fraction(3, 2)

    def test_sign_validation(self):
        freq = FrequencyPair(1, 2)
        with pytest.raises(ValueError):
            spectrum(freq, "x", 0, 0)
        with pytest.raises(ValueError):
            spectrum(freq, "+", -1, 0)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("pair", [(1, 3), (3, 5)])
    def test_ladder_built_hamiltonian_matches_formula(self, pair, sign):
        basis = FockBasis(7)
        freq = FrequencyPair(*pair)
        row = verify_signed_spectrum(basis, freq, sign)
        assert row.passed
        assert row.residual <= 1e-12


class TestHiddenOperators:
    def setup_method(self):
        self.basis = FockBasis(8)
        self.f13 = FrequencyPair(1, 3, 3, 1)

    def test_j_one_one_maps_ground_to_diagonal(self):
        freq = FrequencyPair(1, 1, 1, 1)
        op = hidden_operator(self.basis, freq, "J")
        amp = op[self.basis.index(1, 1), self.basis.index(0, 0)]
        assert amp == 1.0

    def test_l_adjoint_annihilates_below_order(self):
        op = hidden_operator(self.basis, self.f13, "L", "-")
        col = op[:, self.basis.index(2, 0)]
        assert np.all(col == 0)

    def test_amplitudes_match_closed_form(self):
        lp = hidden_operator(self.basis, self.f13, "L")
        jp = hidden_operator(self.basis, self.f13, "J")
        for n1, n2 in [(0, 1), (1, 2), (2, 3), (4, 1)]:
            got = lp[self.basis.index(n1 + 3, n2 - 1), self.basis.index(n1, n2)]
            assert got == pytest.approx(hidden_coefficient("L", 3, 1, n1, n2), rel=1e-12)
            got = jp[self.basis.index(n1 + 3, n2 + 1), self.basis.index(n1, n2)]
            assert got == pytest.approx(hidden_coefficient("J", 3, 1, n1, n2), rel=1e-12)

    @pytest.mark.parametrize("pair,kind,sign", [
        ((1, 3), "L", "+"),
        ((1, 3), "J", "-"),
        ((3, 5), "L", "+"),
        ((3, 5), "J", "-"),
    ])
    def test_commutes_with_matching_hamiltonian(self, pair, kind, sign):
        freq = FrequencyPair.detect(*pair)
        ham = signed_hamiltonian(self.basis, freq, sign)
        op = hidden_operator(self.basis, freq, kind)
        comm = ham @ op - op @ ham
        assert np.max(np.abs(comm)) <= 1e-12

    def test_mismatched_pairing_does_not_commute(self):
        ham = signed_hamiltonian(self.basis, self.f13, "+")
        op = hidden_operator(self.basis, self.f13, "J")
        comm = ham @ op - op @ ham
        assert np.max(np.abs(comm)) > 1.0

    def test_minus_is_adjoint_of_plus(self):
        plus = hidden_operator(self.basis, self.f13, "L", "+")
        minus = hidden_operator(self.basis, self.f13, "L", "-")
        assert np.array_equal(minus, plus.conj().T)

    def test_requires_commensurability(self):
        loose = FrequencyPair(1.0, math.sqrt(2))
        with pytest.raises(ValueError):
            hidden_operator(self.basis, loose, "L")

    def test_kind_and_sign_validation(self):
        with pytest.raises(ValueError):
            hidden_operator(self.basis, self.f13, "K")
        with pytest.raises(ValueError):
            hidden_operator(self.basis, self.f13, "L", "*")


class TestOrbitsMatchDegeneracy:
    @pytest.mark.parametrize("pair", [(1, 3), (1, 1), (3, 5)])
    def test_plus_classes_are_l_orbits(self, pair):
        basis = FockBasis(8)
        freq = FrequencyPair.detect(Fraction(pair[0]), Fraction(pair[1]))
        assert degeneracy_partition(basis, freq, "+") == hidden_orbits(basis, freq, "L")

    @pytest.mark.parametrize("pair", [(1, 3), (1, 1), (3, 5)])
    def test_minus_classes_are_j_orbits(self, pair):
        basis = FockBasis(8)
        freq = FrequencyPair.detect(Fraction(pair[0]), Fraction(pair[1]))
        assert degeneracy_partition(basis, freq, "-") == hidden_orbits(basis, freq, "J")

    def test_masked_pools_agree_too(self):
        basis = FockBasis(9)
        freq = FrequencyPair.detect(Fraction(1), Fraction(3))
        mask = InteriorMask(basis, margin1=2, margin2=1)
        assert degeneracy_partition(basis, freq, "+", mask) == hidden_orbits(
            basis, freq, "L", mask
        )
        assert degeneracy_partition(basis, freq, "-", mask) == hidden_orbits(
            basis, freq, "J", mask
        )

    def test_j_orbit_content(self):
        basis = FockBasis(6)
        freq = FrequencyPair.detect(Fraction(1), Fraction(3))
        orbits = hidden_orbits(basis, freq, "J")
        assert frozenset({(0, 0), (3, 1), (6, 2)}) in orbits

    def test_l_orbit_content(self):
        basis = FockBasis(6)
        freq = FrequencyPair.detect(Fraction(1), Fraction(3))
        orbits = hidden_orbits(basis, freq, "L")
        assert frozenset({(0, 1), (3, 0)}) in orbits

    def test_partition_requires_exact_frequencies(self):
        basis = FockBasis(4)
        freq = FrequencyPair(1.0, 3.0, 3, 1)
        with pytest.raises(ValueError):
            degeneracy_partition(basis, freq, "+")


# exact frequencies that FrequencyPair accepts but no float can hold
HUGE = FrequencyPair(10**400, 10**400, 1, 1)
OVER = FrequencyPair(10**400, Fraction(1, 2))
UNDER = FrequencyPair(1, Fraction(1, 10**400))
TINY = FrequencyPair(Fraction(1, 10**400), Fraction(1, 10**400), 1, 1)
FLOAT_CALLS = {
    "verify_signed_spectrum": lambda f: verify_signed_spectrum(FockBasis(2), f, "+"),
    "aniso_cbt_apply": lambda f: aniso_cbt_apply((1, 0), f),
    "hermite_eigenstate": lambda f: hermite_eigenstate(1, 0, f),
    "aniso_proportionality": lambda f: aniso_proportionality(1, 0, f),
    "lissajous": lambda f: lissajous(1, 0, 0, 1, f, 0.5),
}


class TestFloatFrequencies:
    def test_float_omegas(self):
        assert FrequencyPair(Fraction(1, 2), 3).float_omegas() == (0.5, 3.0)
        assert FrequencyPair(1.5, 2.5).float_omegas() == (1.5, 2.5)

    @pytest.mark.parametrize("call", [None, *FLOAT_CALLS], ids=str)
    @pytest.mark.parametrize("freq, match", [
        (OVER, "omega1 lies outside the float range"), (HUGE, "float range"),
        (UNDER, "underflows to 0.0"), (TINY, "underflows to 0.0"),
    ])
    def test_out_of_range_pairs_raise_value_error(self, freq, match, call):
        with pytest.raises(ValueError, match=match):
            FLOAT_CALLS[call](freq) if call else freq.float_omegas()

    @pytest.mark.parametrize("freq", [HUGE, TINY])
    def test_closure_period_out_of_range(self, freq):
        # the periods 2 pi 10^-400 and 2 pi 10^400 have no float value, not even inf
        with pytest.raises(ValueError):
            closure_period(freq)

    def test_closure_period_past_the_float_range_is_inf(self):
        freq = FrequencyPair(Fraction(1, 10**308), Fraction(1, 10**308), 1, 1)
        assert closure_period(freq) == math.inf

    @pytest.mark.parametrize("omega", [HUGE, TINY, Fraction(10**400), Fraction(1, 10**400)])
    def test_so11_out_of_range_frequency(self, omega):
        with pytest.raises(ValueError):
            so11_invariant_check(omega, cutoff=3)

    def test_rescale_map_past_the_float_range(self):
        the_map = rescale_map(Coupling(10**400))
        with pytest.raises(ValueError, match="float range"):
            the_map.omegas()
        with pytest.raises(ValueError, match="float range"):
            the_map.weights

    def test_rescale_map_weight_underflow(self):
        # ell2 = 10^-400 is exact and non-zero but has no float value except 0.0
        coupling = Coupling(1 - Fraction(1, 10**400))
        the_map = rescale_map(coupling)
        for call in (the_map.omegas, lambda: the_map.weights,
                     lambda: the_map.apply(1.0, 1.0, 1.0, 1.0), coupling.float_ells):
            with pytest.raises(ValueError, match="underflows to 0.0"):
                call()

    def test_exact_checks_keep_working(self):
        # such pairs are accepted at construction: exact code paths never need floats
        assert composite_spectrum_check(Coupling(10**400)).passed
        assert spectrum(HUGE, "+", 1, 0) == 2 * 10**400


class TestSo11Invariant:
    def test_report_passes(self):
        report = so11_invariant_check(1.0, cutoff=9)
        assert report.passed
        for row in report.rows:
            assert row.residual <= 1e-12

    def test_expected_rows_present(self):
        report = so11_invariant_check(2.0, cutoff=6)
        ids = {row.check_id for row in report.rows}
        assert {
            "so11-quadrature-form",
            "so11-invariance",
            "sl2-raise",
            "sl2-lower",
            "sl2-ladder-bracket",
            "diagonal-pair",
        } <= ids

    def test_accepts_equal_frequency_pair(self):
        report = so11_invariant_check(FrequencyPair(1.5, 1.5), cutoff=5)
        assert report.passed

    def test_rejects_unequal_frequencies(self):
        with pytest.raises(ValueError):
            so11_invariant_check(FrequencyPair(1, 2), cutoff=5)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            so11_invariant_check(-1.0)


class TestAnisoBridge:
    def setup_method(self):
        self.f12 = FrequencyPair(1, 2, 2, 1)

    def test_ground_monomial(self):
        state = aniso_cbt_apply((0, 0), self.f12)
        assert set(state.poly.terms) == {(0, 0)}
        assert state.poly.terms[(0, 0)] == pytest.approx(math.sqrt(2))
        assert state.rate1 == pytest.approx(0.5)
        assert state.rate2 == pytest.approx(1.0)

    def test_first_excited_monomial(self):
        state = aniso_cbt_apply((1, 0), self.f12)
        # 2^(3/4) from mode 1 times 2^(1/4) from the mode-2 ground factor
        assert set(state.poly.terms) == {(1, 0)}
        assert state.poly.terms[(1, 0)] == pytest.approx(2.0)

    def test_quadratic_monomial_produces_hermite_pair(self):
        freq = FrequencyPair(1, 1, 1, 1)
        state = aniso_cbt_apply((2, 0), freq)
        # 2^(1/4)*2*(x^2 - 1/2) times the 2^(1/4) ground factor
        assert state.poly.terms[(2, 0)] == pytest.approx(2 ** 1.5)
        assert state.poly.terms[(0, 0)] == pytest.approx(-(2 ** 0.5))

    @pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (2, 1), (3, 3)])
    def test_proportional_to_product_eigenfunction(self, n1, n2):
        report = aniso_proportionality(n1, n2, self.f12)
        assert report.passed
        assert report.spread <= 1e-9
        assert report.reduced_constant == pytest.approx(1.0, abs=1e-12)

    def test_proportionality_with_general_units(self):
        report = aniso_proportionality(2, 1, FrequencyPair(1.5, 0.5), m=2.0, hbar=3.0)
        assert report.passed
        assert report.reduced_constant == pytest.approx(1.0, abs=1e-12)

    def test_equal_frequency_constant_matches_circular_bridge(self):
        # at w1 = w2 = 1 the per-mode product reduces to sqrt(2 pi n1! n2!)
        freq = FrequencyPair(1, 1, 1, 1)
        report = aniso_proportionality(0, 0, freq)
        assert report.constant == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)
        report = aniso_proportionality(2, 1, freq)
        assert report.constant == pytest.approx(
            math.sqrt(2 * math.pi * 2), rel=1e-12
        )

    def test_mode_constant_closed_form(self):
        lam_sq = 3.0 / (2.0 * 1.5)
        expected = 2 ** 0.25 * (math.pi * lam_sq) ** 0.25 * lam_sq * math.sqrt(2)
        assert mode_constant(2, 1.5, m=2.0, hbar=3.0) == pytest.approx(expected)

    def test_polynomial_input_is_linear(self):
        combined = aniso_cbt_apply({(2, 0): 1.0, (0, 2): 2.0}, self.f12)
        a = aniso_cbt_apply((2, 0), self.f12)
        b = aniso_cbt_apply((0, 2), self.f12)
        x1, x2 = 0.7, -0.4
        assert combined.evaluate(x1, x2) == pytest.approx(
            a.evaluate(x1, x2) + 2.0 * b.evaluate(x1, x2)
        )

    def test_rejects_non_polynomial_input(self):
        with pytest.raises(ValueError):
            aniso_cbt_apply("x1", self.f12)
        with pytest.raises(ValueError):
            aniso_cbt_apply({(0.5, 0): 1.0}, self.f12)
        with pytest.raises(ValueError):
            aniso_cbt_apply({(-1, 0): 1.0}, self.f12)

    def test_eigenstate_matches_explicit_formula(self):
        freq = FrequencyPair(2, 3)
        m, hbar = 1.5, 0.7
        state = hermite_eigenstate(1, 0, freq, m=m, hbar=hbar)
        x1, x2 = 0.8, -0.3
        a1, a2 = m * 2.0 / hbar, m * 3.0 / hbar
        psi1 = (a1 / math.pi) ** 0.25 / math.sqrt(2) * 2 * math.sqrt(a1) * x1
        psi1 *= math.exp(-a1 * x1 ** 2 / 2)
        psi0 = (a2 / math.pi) ** 0.25 * math.exp(-a2 * x2 ** 2 / 2)
        assert state.evaluate(x1, x2) == pytest.approx(psi1 * psi0, rel=1e-12)

    def test_grid_and_scalar_evaluation_agree(self):
        state = aniso_cbt_apply((1, 1), self.f12)
        xs = np.linspace(-1, 1, 5)
        grid = state.evaluate(xs[:, None], xs[None, :])
        assert grid[2, 3] == pytest.approx(state.evaluate(xs[2], xs[3]))


class TestLissajous:
    @pytest.mark.parametrize("pair", [(1, 3), (1, 4), (3, 5)])
    def test_closure_at_period(self, pair):
        freq = FrequencyPair.detect(*pair)
        period = closure_period(freq)
        x0 = lissajous(1.0, 0.5, -0.3, 0.8, freq, 0.0)
        xT = lissajous(1.0, 0.5, -0.3, 0.8, freq, period)
        assert abs(x0[0] - xT[0]) <= 1e-9
        assert abs(x0[1] - xT[1]) <= 1e-9

    def test_period_is_minimal_for_one_three(self):
        freq = FrequencyPair.detect(1, 3)
        period = closure_period(freq)
        assert period == pytest.approx(2 * math.pi)
        x0 = lissajous(1.0, 0.5, -0.3, 0.8, freq, 0.0)
        for frac in (period / 2, period / 3):
            xf = lissajous(1.0, 0.5, -0.3, 0.8, freq, frac)
            assert abs(x0[0] - xf[0]) + abs(x0[1] - xf[1]) > 1e-3

    def test_consistent_with_both_label_orderings(self):
        freq = FrequencyPair.detect(Fraction(3), Fraction(5))
        period = closure_period(freq)
        assert period == pytest.approx(2 * math.pi * freq.l2 / float(freq.omega1))
        assert period == pytest.approx(2 * math.pi * freq.l1 / float(freq.omega2))

    def test_zero_second_amplitude_gives_axis_segment(self):
        freq = FrequencyPair(1, 3)
        t = np.linspace(0, 10, 50)
        x1, x2 = lissajous(1.0, 2.0, 0.0, 0.0, freq, t)
        assert np.all(x2 == 0)
        assert np.max(np.abs(x1)) > 0

    def test_open_pair_has_no_period(self):
        freq = FrequencyPair.detect(1.0, math.sqrt(2))
        assert closure_period(freq) is None

    def test_solves_oscillator_equation(self):
        # x_i'' = -w_i^2 x_i holds for either Hamiltonian sign
        freq = FrequencyPair(1.0, 2.5)
        h = 1e-4
        for t0 in (0.3, 1.7):
            xm = lissajous(0.7, -0.2, 0.4, 0.9, freq, t0 - h)
            x0 = lissajous(0.7, -0.2, 0.4, 0.9, freq, t0)
            xp = lissajous(0.7, -0.2, 0.4, 0.9, freq, t0 + h)
            for i, w in enumerate((1.0, 2.5)):
                second = (xp[i] - 2 * x0[i] + xm[i]) / h ** 2
                assert second == pytest.approx(-w ** 2 * x0[i], rel=1e-5, abs=1e-5)

    def test_scalar_time_returns_floats(self):
        freq = FrequencyPair(1, 2)
        x1, x2 = lissajous(1.0, 0.0, 0.0, 1.0, freq, 0.0)
        assert isinstance(x1, float) and isinstance(x2, float)
        assert (x1, x2) == (1.0, 0.0)

    def test_exact_frequency_beyond_float_range_raises_value_error(self):
        freq = FrequencyPair(10**400, Fraction(1, 2))
        with pytest.raises(ValueError, match="float range"):
            lissajous(1, 0, 0, 1, freq, 0.5)


class TestRescaleMap:
    def test_euclidean_example(self):
        m = rescale_map(Fraction(1, 2))
        assert m.omega_factors() == (Fraction(3, 2), Fraction(1, 2))
        assert m.sigma == (1, 1)

    def test_minkowskian_example(self):
        m = rescale_map(3)
        assert m.omega_factors() == (Fraction(4), Fraction(2))
        assert m.sigma == (1, -1)

    def test_isotropic_is_identity_weights(self):
        m = rescale_map(0)
        assert m.omega_factors() == (Fraction(1), Fraction(1))
        assert m.weights == (1.0, 1.0)

    @pytest.mark.parametrize("g", [1, -1])
    def test_landau_values_rejected(self, g):
        with pytest.raises(ValueError):
            rescale_map(g)

    def test_omegas_scale_with_base_frequency(self):
        m = rescale_map(3)
        assert m.omegas(2.0) == (8.0, 4.0)

    def test_signed_form_euclidean(self):
        freq, sign, swapped = rescale_map(Fraction(1, 2)).signed_form()
        assert sign == "+" and not swapped
        assert (freq.omega1, freq.omega2) == (Fraction(3, 2), Fraction(1, 2))
        assert (freq.l1, freq.l2) == (1, 3)

    def test_signed_form_minkowskian(self):
        freq, sign, swapped = rescale_map(3).signed_form()
        assert sign == "-" and not swapped
        assert (freq.omega1, freq.omega2) == (Fraction(4), Fraction(2))
        assert (freq.l1, freq.l2) == (1, 2)

    def test_signed_form_negative_leading_weight(self):
        freq, sign, swapped = rescale_map(-3).signed_form()
        assert sign == "-" and swapped
        assert (freq.omega1, freq.omega2) == (Fraction(4), Fraction(2))

    def test_point_map_and_inverse(self):
        m = rescale_map(3)
        x1, p1, x2, p2 = m.apply(1.0, 2.0, 3.0, 4.0)
        w1, w2 = m.weights
        assert (x1, p1) == (w1, 2.0 / w1)
        assert (x2 / w2, p2 * w2) == (3.0, 4.0)

    @pytest.mark.parametrize("g", [Fraction(1, 2), 3, Fraction(1, 3), -3])
    def test_canonical_brackets_exact(self, g):
        row = rescale_canonical_check(g)
        assert row.passed
        assert row.residual == 0.0

    def test_canonical_check_uses_exact_ring_when_possible(self):
        assert "exact" in rescale_canonical_check(3).detail
        assert "witness" in rescale_canonical_check(Fraction(1, 2)).detail

    @pytest.mark.parametrize(
        "g", [Fraction(1, 2), 3, Fraction(1, 3), Fraction(5, 3), -3]
    )
    def test_composite_spectrum_transport(self, g):
        row = composite_spectrum_check(g, cutoff=7)
        assert row.passed

    def test_composite_rejects_isotropic_limit_flag(self):
        with pytest.raises(ValueError):
            composite_spectrum_check(Coupling(1, isotropic_mink=True))
