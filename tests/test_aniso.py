"""Anisotropic oscillators: spectra, resonance ladders, separable bridge, rescaling."""
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riaho import aniso, bridge
from riaho.aniso import (
    FrequencyPair,
    RescaleMap,
    aniso_cbt_apply,
    aniso_proportionality,
    closure_period,
    composite_spectrum_check,
    degeneracy_partition,
    hermite_eigenstate,
    hidden_operator,
    hidden_orbits,
    lissajous,
    mode_constant,
    rescale_canonical_check,
    signed_hamiltonian,
    so11_invariant_check,
    spectrum,
    suite_aniso,
    verify_signed_spectrum,
)
from riaho.coupling import Coupling
from riaho.fockeng import FockBasis, hidden_coefficient
from riaho.phasealg import cbt
from riaho.phasealg.verify import suite_algebra
from test_bridge import _proportional
from test_fockeng import _mutate_level

MONO = bridge.ZPolynomial.monomial


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

    def test_float_labels_hold_to_one_part_in_1e9(self):
        # a relative mismatch of 1e-10 resonates, one of 3e-6 does not
        fp = FrequencyPair(1.0, 3.0000000003)
        assert (fp.l1, fp.l2) == (3, 1)
        assert not FrequencyPair(1.0, 3.00001).commensurate

    def test_detection_near_the_top_of_the_float_range(self):
        # l_i * w_i overflowed to inf, inf - inf is nan, and a nan mismatch
        # passed: an irrational ratio was labelled 29:41
        assert not FrequencyPair.detect(1.5e308, 1.5e308 / math.sqrt(2)).commensurate
        fp = FrequencyPair.detect(1.7e308, 0.6e308)
        assert (fp.l1, fp.l2) == (6, 17)

    def test_float_detection_rejects_irrational(self):
        fp = FrequencyPair.detect(1.0, math.sqrt(2))
        assert not fp.commensurate
        assert fp.l1 is None and fp.l2 is None

    def test_float_detection_denominator_cap(self):
        # ratio 1/97 needs l1 = 97 > 64, so the float path must give up
        assert not FrequencyPair(1.0, 97.0).commensurate

    def test_positive_frequencies_required(self):
        with pytest.raises(ValueError):
            FrequencyPair(0, 1)
        with pytest.raises(ValueError):
            FrequencyPair(1, -2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequencies_rejected(self, bad):
        for pair in ((bad, 1.0), (1.0, bad), (bad, Fraction(1))):
            with pytest.raises(ValueError, match="omega[12] .* is not a finite real"):
                FrequencyPair(*pair)
            with pytest.raises(ValueError, match="omega[12] .* is not a finite real"):
                FrequencyPair.detect(*pair)

    def test_overflowing_float_ratio_is_not_commensurate(self):
        # 1e308 / 1e-308 is inf as a float; it used to raise OverflowError
        assert not FrequencyPair(1e308, 1e-308).commensurate
        assert not FrequencyPair(1e-308, 1e308).commensurate
        assert not FrequencyPair.detect(1e308, 1e-308).commensurate

    @pytest.mark.parametrize("pair", [(1.0, Fraction(1, 10**400)), (Fraction(10**400), 1.0),
                                      (5e-324, Fraction(1, 10**400))], ids=str)
    def test_mixed_pair_whose_ratio_leaves_the_float_range_is_not_commensurate(self, pair):
        # Fraction(1, 10**400) is 0.0 as a float, so the float ratio has no value
        assert not FrequencyPair(*pair).commensurate
        assert not FrequencyPair.detect(*pair).commensurate

    def test_exact_pairs_are_labelled_at_construction(self):
        # an exact pair always resonates, so the constructor labels it
        assert (FrequencyPair(1, 3).l1, FrequencyPair(1, 3).l2) == (3, 1)
        assert FrequencyPair(Fraction(3, 2), Fraction(1, 2)).commensurate

    def test_labels_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            FrequencyPair(1, 3, 3, 1)
        with pytest.raises(TypeError):
            FrequencyPair(1, 3, l1=3, l2=1)

    @staticmethod
    def _sweep_pairs(seed):
        """Seeded exact, float and mixed pairs, with the edge cases of each kind."""
        rng = np.random.default_rng(seed)
        big, small = Fraction(10**400), Fraction(1, 10**400)
        exact = [(big, 1), (small, 1), (1, small), (big, small), (small, big), (big, big),
                 (Fraction(10**30 + 1, 3), 7)]
        for _ in range(40):
            num = [int(rng.integers(1, 10**6)) * 10 ** int(rng.integers(0, 30)) for _ in range(2)]
            den = [int(rng.integers(1, 10**6)) for _ in range(2)]
            exact.append((Fraction(num[0], den[0]), Fraction(num[1], den[1])))
        floats = [(1.0, 3.0000000003), (1.0, 3.00001), (1.0, math.sqrt(2)), (1.0, 97.0),
                  (1e308, 1e-308), (1e-308, 1e308), (1.7e308, 0.6e308), (5e-324, 1.0),
                  (1.0, small), (big, 1.0)]
        for _ in range(40):
            w = float(rng.lognormal(0.0, 3.0))
            l1, l2 = (int(v) for v in rng.integers(1, 65, size=2))
            drift = 1 + float(rng.choice([0.0, 1e-12, 1e-10, 1e-8, 1e-3]))
            floats += [(w, w * l1 / l2 * drift), (w, float(rng.lognormal(0.0, 3.0)))]
        return exact, floats

    @staticmethod
    def _resonance_exists(w1, w2) -> bool:
        """Some l1 <= 64 with a whole l2 >= 1 resonates, and the float ratio is finite."""
        try:
            if not math.isfinite(float(w1) / float(w2)):
                return False
        except (OverflowError, ZeroDivisionError):
            return False
        ratio = Fraction(w1) / Fraction(w2)
        return any(l2 >= 1 and aniso._float_resonant(l1, l2, w1, w2)
                   for l1 in range(1, 65) for l2 in [round(l1 * ratio)])

    @pytest.mark.parametrize("seed", [20261021, 7, 41])
    def test_derived_labels_over_a_seeded_sweep(self, seed):
        exact, floats = self._sweep_pairs(seed)
        for w1, w2 in exact + floats:
            fp = FrequencyPair(w1, w2)
            assert FrequencyPair.detect(w1, w2) == fp
            if fp.is_exact:
                assert fp.commensurate and fp.l1 * fp.omega1 == fp.l2 * fp.omega2, (w1, w2)
            else:
                assert fp.commensurate == self._resonance_exists(w1, w2), (w1, w2)
            if fp.commensurate:
                assert math.gcd(fp.l1, fp.l2) == 1 and min(fp.l1, fp.l2) >= 1, (w1, w2)
                assert fp.is_exact or aniso._float_resonant(fp.l1, fp.l2, w1, w2), (w1, w2)
            else:
                assert fp.l1 is None and fp.l2 is None

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
        freq = FrequencyPair(w, w)
        assert spectrum(freq, "-", 0, 1) == -w

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_minus_sign_diagonal_vanishes(self, n):
        freq = FrequencyPair(3, 3)
        assert spectrum(freq, "-", n, n) == 0

    def test_minus_sign_unbounded_below(self):
        freq = FrequencyPair(1, 3)
        assert spectrum(freq, "-", 0, 5) < spectrum(freq, "-", 0, 1) < 0

    def test_float_frequencies_give_floats(self):
        freq = FrequencyPair(1.0, 3.0)
        e = spectrum(freq, "+", 1, 1)
        assert isinstance(e, float)
        assert e == pytest.approx(6.0)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("pair", [(1, 3), (Fraction(5, 4), Fraction(2, 7)), (9, 9)], ids=str)
    def test_level_in_units_of_hbar(self, pair, sign):
        freq, sigma = FrequencyPair(*pair), 1 if sign == "+" else -1
        w1, w2 = (Fraction(w) for w in pair)
        for n1, n2 in FockBasis(4).states():
            assert spectrum(freq, sign, n1, n2) == w1 * n1 + sigma * w2 * n2 + (w1 + sigma * w2) / 2

    def test_sign_validation(self):
        freq = FrequencyPair(1, 2)
        with pytest.raises(ValueError):
            spectrum(freq, "x", 0, 0)
        with pytest.raises(ValueError):
            spectrum(freq, "+", -1, 0)

    @pytest.mark.parametrize("sign", [True, 1, 1.0, -1])
    def test_sign_takes_only_plus_or_minus(self, sign):
        # the integers +-1 were a second encoding: spectrum(freq, True, 1, 1) and sign=1.0 read "+"
        freq = FrequencyPair(1, 3)
        for call in (lambda: spectrum(freq, sign, 1, 1),
                     lambda: signed_hamiltonian(FockBasis(2), freq, sign),
                     lambda: verify_signed_spectrum(FockBasis(2), freq, sign),
                     lambda: degeneracy_partition(FockBasis(2), freq, sign)):
            with pytest.raises(ValueError, match=rf"^sign {sign!r} is not one of '\+', '-'$"):
                call()

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("pair", [(1, 3), (3, 5)])
    def test_ladder_built_hamiltonian_matches_formula(self, pair, sign):
        basis = FockBasis(7)
        freq = FrequencyPair(*pair)
        row = verify_signed_spectrum(basis, freq, sign)
        assert row.passed
        assert row.residual <= 1e-12


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestSignedHamiltonianBits:
    """The exact path of signed_hamiltonian is float(spectrum(...)) bit for bit."""

    @staticmethod
    def _random_pairs(count, seed):
        rng = np.random.default_rng(seed)
        pairs = [FrequencyPair(1, Fraction(1, 10**400)), FrequencyPair(Fraction(10**30 + 1, 3), 7)]
        for _ in range(count):
            digits = int(rng.integers(1, 25))
            num = [int(rng.integers(1, 10**6)) * 10 ** int(rng.integers(0, digits)) + 1
                   for _ in range(2)]
            den = [int(rng.integers(1, 10**6)) for _ in range(2)]
            pairs.append(FrequencyPair(Fraction(num[0], den[0]), Fraction(num[1], den[1])))
        return pairs

    @pytest.mark.parametrize("seed", [20260417, 3, 11])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_matches_float_of_spectrum(self, sign, seed):
        basis = FockBasis(6)
        for freq in self._random_pairs(40, seed):
            got = np.diag(signed_hamiltonian(basis, freq, sign))
            want = [float(spectrum(freq, sign, n1, n2)) for n1, n2 in basis.states()]
            assert np.array_equal(_bits(got), _bits(want)), freq

    @pytest.mark.parametrize("seed", [20261019, 5])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_float_pairs_match_spectrum(self, sign, seed):
        # both read the kernel's correctly rounded level
        rng = np.random.default_rng(seed)
        basis = FockBasis(6)
        for _ in range(20):
            freq = FrequencyPair(*(float(rng.uniform(0.01, 50.0)) for _ in range(2)))
            got = np.diag(signed_hamiltonian(basis, freq, sign))
            want = [spectrum(freq, sign, n1, n2) for n1, n2 in basis.states()]
            assert np.array_equal(_bits(got), _bits(want)), freq

    def test_level_past_the_float_range_raises(self):
        with pytest.raises(ValueError, match="float range"):
            signed_hamiltonian(FockBasis(2), FrequencyPair(10**400, 1), "+")

    def test_float_pair_past_the_float_range_raises(self):
        # the float chain returned inf for spectrum, silently
        freq = FrequencyPair(1e308, 1e308)
        with pytest.raises(ValueError, match="float range"):
            spectrum(freq, "+", 5, 5)
        with pytest.raises(ValueError, match="float range"):
            signed_hamiltonian(FockBasis(5), freq, "+")

    def test_float_level_is_correctly_rounded(self):
        # 0.1*1 + 0.2*1 + 0.15 on the binary values; the float chain gives 0.45000000000000007
        freq = FrequencyPair(0.1, 0.2)
        exact = Fraction(0.1) + Fraction(0.2) + (Fraction(0.1) + Fraction(0.2)) / 2
        assert spectrum(freq, "+", 1, 1) == float(exact) == 0.45
        assert 0.1 * 1 + 0.2 * 1 + (0.1 + 0.2) * 0.5 != 0.45


class TestHiddenOperators:
    def setup_method(self):
        self.basis = FockBasis(8)
        self.f13 = FrequencyPair(1, 3)

    def test_j_one_one_maps_ground_to_diagonal(self):
        freq = FrequencyPair(1, 1)
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
        # only a float pair that does not resonate has no labels
        loose = FrequencyPair(1.0, math.sqrt(2))
        with pytest.raises(ValueError, match=r"^float frequencies 1\.0, 1\.4142135623730951 do "
                                             r"not resonate; hidden ladder"):
            hidden_operator(self.basis, loose, "L")
        with pytest.raises(ValueError, match="do not resonate"):
            hidden_orbits(self.basis, loose, "J")

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
        freq = FrequencyPair(1.0, 3.0)
        with pytest.raises(ValueError):
            degeneracy_partition(basis, freq, "+")


# exact frequencies that FrequencyPair accepts but no float can hold
HUGE = FrequencyPair(10**400, 10**400)
OVER = FrequencyPair(10**400, Fraction(1, 2))
UNDER = FrequencyPair(1, Fraction(1, 10**400))
TINY = FrequencyPair(Fraction(1, 10**400), Fraction(1, 10**400))
# the per-coordinate bridge calls also take a mode order n and the units m, hbar
FLOAT_CALLS = {
    "verify_signed_spectrum": lambda f: verify_signed_spectrum(FockBasis(2), f, "+"),
    "aniso_cbt_apply": lambda f, n=1, **units: aniso_cbt_apply(MONO(n, 0), f, **units),
    "hermite_eigenstate": lambda f, n=1, **units: hermite_eigenstate(n, 0, f, **units),
    "aniso_proportionality": lambda f, n=1, **units: aniso_proportionality(n, 0, f, **units),
    "mode_constant": lambda f, n=1, **units: mode_constant(n, f.float_omegas()[0], **units),
    "lissajous": lambda f: lissajous(1, 0, 0, 1, f, 0.5),
}
UNIT_CALLS = ["aniso_cbt_apply", "hermite_eigenstate", "aniso_proportionality", "mode_constant"]


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

    @pytest.mark.parametrize("call", UNIT_CALLS)
    @pytest.mark.parametrize("kwargs, match", [
        # m = 0 raised ZeroDivisionError, m = -1 returned a complex constant
        ({"m": 0.0}, "m 0.0 is not a positive finite real"),
        ({"m": -1.0}, "m -1.0 is not a positive finite real"),
        ({"hbar": 0.0}, "hbar 0.0 is not a positive finite real"),
        ({"hbar": math.inf}, "hbar inf is not a positive finite real"),
        ({"m": math.nan}, "m nan is not a positive finite real"), ({"m": 1e-300, "hbar": 1e300}, "float range"),
        # 400! and the series coefficients of x^400 raised OverflowError
        ({"n": 400}, "float range"), ({"n": 200, "m": 1e-200}, "float range"),
    ])
    def test_bad_units_and_orders_raise_value_error(self, kwargs, match, call):
        with pytest.raises(ValueError, match=match):
            FLOAT_CALLS[call](FrequencyPair(1, Fraction(3, 2)), **kwargs)

    def test_proportionality_without_grid_points_raises(self):
        # psi_170 is below the 1e-6 floor on all of [-3, 3]: numpy warned about the
        # mean of an empty slice, then raised on the empty maximum
        with pytest.raises(ValueError, match="no grid point"):
            aniso_proportionality(170, 0, FrequencyPair(1, Fraction(3, 2)))

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
    def test_mode_constant_rejects_bad_frequency(self, omega):
        # omega = 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match="omega .* is not a positive finite real"):
            mode_constant(1, omega)

    @pytest.mark.parametrize("freq", [HUGE, TINY])
    def test_closure_period_out_of_range(self, freq):
        # the periods 2 pi 10^-400 and 2 pi 10^400 have no float value, not even inf
        with pytest.raises(ValueError):
            closure_period(freq)

    def test_closure_period_past_the_float_range_is_inf(self):
        freq = FrequencyPair(Fraction(1, 10**308), Fraction(1, 10**308))
        assert closure_period(freq) == math.inf

    def test_rescale_map_weight_underflow(self):
        # ell2 = 10^-400 is exact and non-zero but has no float value except 0.0
        coupling = Coupling(1 - Fraction(1, 10**400))
        assert RescaleMap(coupling).weight_sq[1] == Fraction(1, 10**400)
        with pytest.raises(ValueError, match="underflows to 0.0"):
            coupling.float_ells()

    def test_exact_checks_keep_working(self):
        # such pairs are accepted at construction: exact code paths never need floats
        assert composite_spectrum_check(Coupling(10**400)).passed
        assert spectrum(HUGE, "+", 1, 0) == 2 * 10**400


class TestSo11Invariant:
    @pytest.mark.parametrize("cutoff", [1, 4, 9, 10])
    def test_report_passes(self, cutoff):
        # so11-invariance passes only at residual 0.0
        report = so11_invariant_check(cutoff=cutoff)
        assert report.passed
        for row in report.rows:
            assert row.residual <= 1e-12

    @pytest.mark.parametrize("omega", [1.0, 0.3, 7.0, Fraction(1, 2),
                                       FrequencyPair.detect(Fraction(3, 2), Fraction(3, 2)),
                                       FrequencyPair.detect(1, 2)])
    def test_a_frequency_is_no_longer_taken(self, omega):
        # the checks run at omega = 1; a frequency in the first place is refused as a cutoff
        with pytest.raises(ValueError, match="cutoff"):
            so11_invariant_check(omega)

    def test_expected_rows_present(self):
        report = so11_invariant_check(cutoff=6)
        ids = {row.check_id for row in report.rows}
        assert ids == {
            "so11-quadrature-form",
            "so11-invariance",
            "sl2-raise",
            "sl2-lower",
            "sl2-ladder-bracket",
        }

    def test_one_ulp_level_fails_invariance(self, monkeypatch):
        # L11 links (2, 1) to (3, 2) and (1, 0); its H(-) level moved by one ulp breaks that
        _mutate_level(monkeypatch, aniso, (2, 1), "one-ulp", label="H(-)")
        rows = {row.check_id: row for row in so11_invariant_check(cutoff=8).rows}
        assert not rows["so11-invariance"].passed and rows["so11-invariance"].residual > 0.0


def _series_eigen_poly(n, units):
    """The per-mode eigenfunction polynomial as read from inverse_weierstrass(n).series."""
    lam_sq = units.length_sq / 2
    norm = (math.pi * lam_sq) ** -0.25 / math.sqrt(2.0**n * math.factorial(n))
    return {p: norm * 2.0**n * float(c) * lam_sq ** (-p / 2.0)
            for p, c in bridge.inverse_weierstrass(n).series.items()}


def _term_bits(state):
    return [(key, repr(value)) for key, value in state.poly.terms.items()]


class TestHermiteRowCoefficients:
    """The bridge's heat series against the exact inverse-Weierstrass series, and the
    eigenfunction coefficients h / 2^n from hermite_rows against the .series read bit for bit."""

    UNITS = [(1.0, 1.0), (0.7, 1.9)]
    PAIRS = [FrequencyPair(1, Fraction(3, 2)), FrequencyPair(0.8, 2.3)]

    @pytest.mark.parametrize("m, hbar", UNITS)
    @pytest.mark.parametrize("freq", PAIRS, ids=["exact", "float"])
    def test_bridge_matches_the_exact_series(self, freq, m, hbar):
        # 2^((n1+n2+1)/2) prod_i [eta^p_i] e^{-(1/4) d^2} eta^n_i lam_i^(n_i - p_i)
        lam_sq = [bridge.Units(m, w, hbar).length_sq / 2 for w in freq.float_omegas()]
        for n1 in range(31):
            n2 = 30 - n1
            series = [bridge.inverse_weierstrass(n).series for n in (n1, n2)]
            want = {(p1, p2): 2.0 ** 15.5 * float(c1) * lam_sq[0] ** ((n1 - p1) / 2)
                    * float(c2) * lam_sq[1] ** ((n2 - p2) / 2)
                    for p1, c1 in series[0].items() for p2, c2 in series[1].items()}
            got = aniso_cbt_apply(MONO(n1, n2), freq, m, hbar).poly.terms
            assert got.keys() == want.keys()
            assert max(abs(got[key] / want[key] - 1) for key in want) <= 1e-14, n1

    @pytest.mark.parametrize("m, hbar", UNITS)
    @pytest.mark.parametrize("freq", PAIRS, ids=["exact", "float"])
    def test_per_mode_eigen_polynomials(self, freq, m, hbar):
        for w in freq.float_omegas():
            units = bridge.Units(m, w, hbar)
            for n in range(31):
                got, want = aniso._mode_eigen_poly(n, units), _series_eigen_poly(n, units)
                assert [(p, repr(c)) for p, c in got.items()] == \
                    [(p, repr(c)) for p, c in want.items()], n

    @pytest.mark.parametrize("m, hbar", UNITS)
    @pytest.mark.parametrize("freq", PAIRS, ids=["exact", "float"])
    def test_eigenstates_are_bit_identical(self, monkeypatch, freq, m, hbar):
        pairs = [(n, 30 - n) for n in range(31)]
        got = [_term_bits(hermite_eigenstate(*pair, freq, m, hbar)) for pair in pairs]
        monkeypatch.setattr(aniso, "_mode_eigen_poly", _series_eigen_poly)
        want = [_term_bits(hermite_eigenstate(*pair, freq, m, hbar)) for pair in pairs]
        assert got == want


class TestBridgeOraclesSeeMutants:
    """Each bridge and its eigenfunction oracle are built apart, so a fault on one side fails."""

    F12 = FrequencyPair(1, 2)

    def test_scaled_eigen_hermite_row_fails(self, monkeypatch):
        # the bridge read these rows too, so both sides moved together and the check passed
        real = aniso.hermite_rows

        def scaled(n):
            for row in real(n):
                yield tuple(1.3 * c if p < len(row) - 1 else c for p, c in enumerate(row))

        monkeypatch.setattr(aniso, "hermite_rows", scaled)
        assert not _proportional(aniso_proportionality(2, 1, self.F12))

    def test_perturbed_series_kernel_fails_every_bridge(self, monkeypatch):
        # one kernel sums the classical flows and both wavefunction bridges' heat series
        assert bridge._exp_series is cbt._exp_series
        real = cbt._exp_series

        def perturbed(start, step):
            def scaled(term, k):
                out = step(term, k)  # a ZPolynomial scales by a float, a PhasePoly exactly
                return (out.scale(1.3) if isinstance(out, bridge.ZPolynomial)
                        else out * Fraction(13, 10))
            return real(start, scaled)

        for module in (cbt, bridge):
            monkeypatch.setattr(module, "_exp_series", perturbed)
        rows = [row for row in suite_algebra(None).rows if row.check_id.startswith("cbt-")]
        assert rows and not all(row.passed for row in rows)
        assert not _proportional(bridge.verify_bridge_proportionality(2, 1))
        assert not _proportional(aniso_proportionality(2, 1, self.F12))


class TestAnisoBridge:
    def setup_method(self):
        self.f12 = FrequencyPair(1, 2)

    def test_ground_monomial(self):
        state = aniso_cbt_apply(MONO(0, 0), self.f12)
        assert set(state.poly.terms) == {(0, 0)}
        assert state.poly.terms[(0, 0)] == pytest.approx(math.sqrt(2))
        assert state.rate1 == pytest.approx(0.5)
        assert state.rate2 == pytest.approx(1.0)

    def test_first_excited_monomial(self):
        state = aniso_cbt_apply(MONO(1, 0), self.f12)
        # 2^(3/4) from mode 1 times 2^(1/4) from the mode-2 ground factor
        assert set(state.poly.terms) == {(1, 0)}
        assert state.poly.terms[(1, 0)] == pytest.approx(2.0)

    def test_quadratic_monomial_produces_hermite_pair(self):
        freq = FrequencyPair(1, 1)
        state = aniso_cbt_apply(MONO(2, 0), freq)
        # 2^(1/4)*2*(x^2 - 1/2) times the 2^(1/4) ground factor
        assert state.poly.terms[(2, 0)] == pytest.approx(2 ** 1.5)
        assert state.poly.terms[(0, 0)] == pytest.approx(-(2 ** 0.5))

    @pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (2, 1), (3, 3)])
    def test_proportional_to_product_eigenfunction(self, n1, n2):
        report = aniso_proportionality(n1, n2, self.f12)
        assert _proportional(report)
        assert report.spread <= 1e-9
        assert report.reduced_constant == pytest.approx(1.0, abs=1e-12)

    def test_proportionality_with_general_units(self):
        report = aniso_proportionality(2, 1, FrequencyPair(1.5, 0.5), m=2.0, hbar=3.0)
        assert _proportional(report)
        assert report.reduced_constant == pytest.approx(1.0, abs=1e-12)

    def test_equal_frequency_constant_matches_circular_bridge(self):
        # at w1 = w2 = 1 the per-mode product reduces to sqrt(2 pi n1! n2!)
        freq = FrequencyPair(1, 1)
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
        combined = aniso_cbt_apply(bridge.ZPolynomial({(2, 0): 1.0, (0, 2): 2.0}), self.f12)
        a = aniso_cbt_apply(MONO(2, 0), self.f12)
        b = aniso_cbt_apply(MONO(0, 2), self.f12)
        x1, x2 = 0.7, -0.4
        assert combined.evaluate(x1, x2) == pytest.approx(
            a.evaluate(x1, x2) + 2.0 * b.evaluate(x1, x2)
        )

    @pytest.mark.parametrize("poly", [{(0, 0): 1.0}, (0, 0), None], ids=repr)
    def test_separable_state_takes_a_zpolynomial_only(self, poly):
        # a term dict was converted
        with pytest.raises(ValueError, match=r"^poly .* is not a ZPolynomial$"):
            aniso.SeparableState(poly, 1, 1)

    @pytest.mark.parametrize("phi", ["x1", (1, 0), {(1, 0): 1.0}, None], ids=repr)
    def test_input_that_is_not_a_zpolynomial_raises(self, phi):
        # a pair (n1, n2) and an exponent dict were read by a parser of their own; the
        # exponents and coefficients of a ZPolynomial are checked where it is built
        with pytest.raises(ValueError, match=r"^phi .* is not a ZPolynomial$"):
            aniso_cbt_apply(phi, self.f12)

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
        state = aniso_cbt_apply(MONO(1, 1), self.f12)
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


def _signed_at_suite_inputs(w1, w2, sign):
    return verify_signed_spectrum(FockBasis(8), FrequencyPair.detect(Fraction(w1), Fraction(w2)),
                                  sign)


def _so11_at_suite_inputs(check_id):
    return next(row for row in so11_invariant_check(cutoff=8).rows if row.check_id == check_id)


SO11_IDS = ("so11-quadrature-form", "so11-invariance", "sl2-raise", "sl2-lower",
            "sl2-ladder-bracket")
# each aniso row of the claim families and of the so(1,1) check, keyed by its id, with the
# direct call at suite_aniso's inputs that should return it
SUITE_CALLS = {
    **{check_id: lambda check_id=check_id: _so11_at_suite_inputs(check_id)
       for check_id in SO11_IDS},
    "signed-spectrum:1:3:+": lambda: _signed_at_suite_inputs(1, 3, "+"),
    "signed-spectrum:1:3:-": lambda: _signed_at_suite_inputs(1, 3, "-"),
    "signed-spectrum:3:5:+": lambda: _signed_at_suite_inputs(3, 5, "+"),
    "signed-spectrum:3:5:-": lambda: _signed_at_suite_inputs(3, 5, "-"),
    "rescale-canonical:g=1/3": lambda: rescale_canonical_check(Fraction(1, 3)),
    "rescale-canonical:g=1/2": lambda: rescale_canonical_check(Fraction(1, 2)),
    "rescale-canonical:g=3": lambda: rescale_canonical_check(Fraction(3)),
    "composite-spectrum:g=1/3": lambda: composite_spectrum_check(Fraction(1, 3)),
    "composite-spectrum:g=1/2": lambda: composite_spectrum_check(Fraction(1, 2)),
    "composite-spectrum:g=3": lambda: composite_spectrum_check(Fraction(3)),
}


class TestRescaleMap:
    def test_euclidean_example(self):
        m = RescaleMap(Fraction(1, 2))
        assert m.weight_sq == (Fraction(3, 2), Fraction(1, 2))
        assert m.sigma == (1, 1)

    def test_minkowskian_example(self):
        m = RescaleMap(3)
        assert m.weight_sq == (Fraction(4), Fraction(2))
        assert m.sigma == (1, -1)

    def test_isotropic_is_identity_weights(self):
        m = RescaleMap(0)
        assert m.weight_sq == (Fraction(1), Fraction(1))

    @pytest.mark.parametrize("g", [1, -1, "1", Fraction(-1)])
    def test_landau_values_rejected(self, g):
        with pytest.raises(ValueError, match="^Landau coupling: a rescaling weight vanishes$"):
            RescaleMap(g)

    SWEEP = sorted({Fraction(p, q) for q in range(1, 6) for p in range(-7, 8)} - {1, -1})

    @pytest.mark.parametrize("coupling", [*map(Coupling, SWEEP),
                                          Coupling(1, isotropic_mink=True),
                                          Coupling(-1, isotropic_mink=True)], ids=str)
    def test_signs_and_weights_come_from_the_coupling(self, coupling):
        the_map = RescaleMap(coupling)
        assert the_map.coupling is coupling
        ells = (coupling.ell1, coupling.ell2)
        assert all(s * w == ell for s, w, ell in zip(the_map.sigma, the_map.weight_sq, ells))
        assert all(type(w) is Fraction and w > 0 for w in the_map.weight_sq)
        if not coupling.isotropic_mink:
            assert RescaleMap(coupling.g) == the_map == RescaleMap(str(coupling.g))

    def test_a_g_and_its_coupling_give_one_map(self):
        assert RescaleMap("1/3") == RescaleMap(Coupling("1/3"))
        assert RescaleMap("1/3").coupling == Coupling(Fraction(1, 3))

    def test_signs_and_weights_are_not_inputs(self):
        with pytest.raises(TypeError):
            RescaleMap(Coupling(3), (1, 1), (Fraction(4), Fraction(2)))

    def test_signed_form_euclidean(self):
        freq, sign, swapped = RescaleMap(Fraction(1, 2)).signed_form()
        assert sign == "+" and not swapped
        assert (freq.omega1, freq.omega2) == (Fraction(3, 2), Fraction(1, 2))
        assert (freq.l1, freq.l2) == (1, 3)

    def test_signed_form_minkowskian(self):
        freq, sign, swapped = RescaleMap(3).signed_form()
        assert sign == "-" and not swapped
        assert (freq.omega1, freq.omega2) == (Fraction(4), Fraction(2))
        assert (freq.l1, freq.l2) == (1, 2)

    def test_signed_form_negative_leading_weight(self):
        freq, sign, swapped = RescaleMap(-3).signed_form()
        assert sign == "-" and swapped
        assert (freq.omega1, freq.omega2) == (Fraction(4), Fraction(2))

    # g < -1 lists the signed pair swapped; the row holds each mode's transport too
    @pytest.mark.parametrize("g", [Fraction(1, 2), 3, Fraction(1, 3), -3, Fraction(-7, 2),
                                   Fraction(-2, 5), Fraction(5, 3), 7])
    def test_canonical_brackets_exact(self, g):
        row = rescale_canonical_check(g)
        assert row.passed
        assert row.residual == 0.0

    @pytest.mark.parametrize("g, gid", [(1, "inf"), (-1, "-inf")])
    def test_canonical_row_of_the_isotropic_limit_names_it(self, g, gid):
        # the limit's stored g is a direction sign; g=1 and g=-1 name the Landau couplings,
        # where rescale_canonical_check raises
        row = rescale_canonical_check(Coupling(g, isotropic_mink=True))
        assert row.passed and row.check_id == f"rescale-canonical:g={gid}"
        with pytest.raises(ValueError, match="a rescaling weight vanishes"):
            rescale_canonical_check(Coupling(g))

    @pytest.mark.parametrize("g", [Fraction(1, 2), 3, -3, 0, Fraction(-5, 2), Fraction(7, 2),
                                   "1/4"])
    def test_canonical_row_of_a_finite_coupling_names_its_g(self, g):
        # the id is built from str(coupling), which for a finite g is its exact value
        row = rescale_canonical_check(g)
        assert row.check_id == f"rescale-canonical:g={Coupling(g).g}"
        assert row.check_id == f"rescale-canonical:g={Fraction(g)}"

    SUITE_COUPLINGS = ("1/3", "1/2", "3")
    MUTANTS = {  # a wrong magnification or mode sign; the brackets {w x, p/w} cannot see either
        "weight 7|ell|+1": ("weight_sq", lambda m: (7 * abs(m.coupling.ell1) + 1,
                                                    7 * abs(m.coupling.ell2) + 1)),
        "weight (5|ell1|, |ell2|)": ("weight_sq", lambda m: (5 * abs(m.coupling.ell1),
                                                             abs(m.coupling.ell2))),
        "sigma flipped": ("sigma", lambda m: tuple(-1 if ell > 0 else 1
                                                   for ell in (m.coupling.ell1, m.coupling.ell2))),
    }

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_a_wrong_map_fails_every_suite_row(self, monkeypatch, mutant):
        # the row holds ell_j (w_j^2 X^2 + P^2/w_j^2)/2 = sigma_j (Omega_j^2 X^2 + P^2)/2 too;
        # with the bracket table alone each mutant passed all three rows
        assert all(rescale_canonical_check(g).passed for g in self.SUITE_COUPLINGS)
        name, mutated = self.MUTANTS[mutant]
        monkeypatch.setattr(RescaleMap, name, property(mutated))
        rows = [rescale_canonical_check(g) for g in self.SUITE_COUPLINGS]
        assert [row.check_id for row in rows] == [f"rescale-canonical:g={g}"
                                                  for g in self.SUITE_COUPLINGS]
        assert not any(row.passed for row in rows)

    def test_canonical_check_uses_exact_ring_when_possible(self):
        assert "exact" in rescale_canonical_check(3).detail
        assert "witness" in rescale_canonical_check(Fraction(1, 2)).detail

    @pytest.mark.parametrize(
        "g", [Fraction(1, 2), 3, Fraction(1, 3), Fraction(5, 3), -3, 0, 2, -2, Fraction(3, 2),
              Fraction(-1, 2), Fraction(-1, 3), Fraction(-5, 3)]
    )
    def test_composite_spectrum_transport(self, g):
        row = composite_spectrum_check(g)
        assert row.passed

    def test_composite_rejects_isotropic_limit_flag(self):
        with pytest.raises(ValueError):
            composite_spectrum_check(Coupling(1, isotropic_mink=True))

    @pytest.mark.parametrize("g", [-3, Fraction(-5, 2), -2])
    def test_composite_fails_when_the_swap_is_dropped(self, monkeypatch, g):
        # multisets over a square grid are swap-symmetric; a state-by-state comparison is not
        assert composite_spectrum_check(g).passed
        signed_form = RescaleMap.signed_form
        monkeypatch.setattr(RescaleMap, "signed_form", lambda self: (*signed_form(self)[:2], False))
        row = composite_spectrum_check(g)
        assert not row.passed
        assert row.check_id == f"composite-spectrum:g={Fraction(g)}" and row.residual is None

    @staticmethod
    def _composite_rows():
        report = suite_aniso(SimpleNamespace())
        return {row.check_id: row.passed for row in report.rows
                if row.check_id.startswith("composite-spectrum")}

    def test_suite_rows_fail_when_the_modes_are_swapped_without_the_flag(self, monkeypatch):
        # the suite's couplings have l1 > 0 and are never swapped; listing the pair the
        # other way round while ignoring the swap (flag False) breaks the transport
        assert self._composite_rows() == dict.fromkeys(
            ("composite-spectrum:g=1/3", "composite-spectrum:g=1/2", "composite-spectrum:g=3"),
            True)

        def unflagged(the_map):
            f1, f2 = the_map.weight_sq
            return FrequencyPair.detect(f2, f1), signed_form(the_map)[1], False

        signed_form = RescaleMap.signed_form
        monkeypatch.setattr(RescaleMap, "signed_form", unflagged)
        rows = self._composite_rows()
        assert not rows["composite-spectrum:g=3"]
        assert not any(rows.values())

    @pytest.fixture(scope="class")
    def suite_rows(self):
        return {row.check_id: row for row in suite_aniso(None).rows}

    @pytest.mark.parametrize("check_id", list(SUITE_CALLS))
    def test_direct_call_returns_the_suite_row(self, suite_rows, check_id):
        # each check builds its row under the id verify all reports, so a direct call at the
        # suite's inputs returns the suite's row unchanged
        row = SUITE_CALLS[check_id]()
        assert row.check_id == check_id and row == suite_rows[check_id]

    def test_direct_calls_cover_the_suite_rows(self, suite_rows):
        families = ("signed-spectrum:", "rescale-canonical:", "composite-spectrum:", *SO11_IDS)
        assert sorted(i for i in suite_rows if i.startswith(families)) == sorted(SUITE_CALLS)

    def test_suite_rows_fail_when_sigma_flips(self, monkeypatch):
        signed_form = RescaleMap.signed_form

        def flipped(the_map):
            freq, sign, swapped = signed_form(the_map)
            return freq, "-" if sign == "+" else "+", swapped

        monkeypatch.setattr(RescaleMap, "signed_form", flipped)
        rows = self._composite_rows()
        assert len(rows) == 3 and not any(rows.values())
