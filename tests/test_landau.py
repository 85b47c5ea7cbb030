"""Magnetic and rotating-frame parameter maps and phase classification."""
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riaho import landau as landau_mod
from riaho.coupling import Coupling, Phase
from riaho.landau import (
    CRITICAL,
    SUPERCRITICAL,
    LandauExtension,
    PhaseResult,
    RotatingFrame,
    classify,
    g_to_landau,
    landau_to_g,
    rotating_frame_to_g,
)
from riaho.phasealg import CANONICAL, CIRCULAR, Params, PhasePoly, hamiltonian


class TestLandauToG:
    def test_pure_magnetic_field_is_landau_phase(self):
        res = landau_to_g(LandauExtension(2, 0))
        assert res.phase == Phase.LANDAU
        assert res.omega == 2
        assert res.g == 1
        assert isinstance(res.g, Fraction)

    def test_sign_of_g_follows_omega_b(self):
        res = landau_to_g(LandauExtension(-2, 0))
        assert res.g == -1
        assert res.omega == 2

    def test_strong_trap_gives_euclidean_half(self):
        # Lambda = 3 omegaB^2: omega = 2|omegaB|, g = 1/2
        res = landau_to_g(LandauExtension(1, 3))
        assert res.phase == Phase.EUCLIDEAN
        assert res.omega == 2
        assert res.g == Fraction(1, 2)

    def test_inverted_trap_gives_minkowskian_two(self):
        # Lambda = -(3/4) omegaB^2: omega = |omegaB|/2, g = 2
        res = landau_to_g(LandauExtension(2, -3))
        assert res.phase == Phase.MINKOWSKIAN
        assert res.omega == 1
        assert res.g == 2

    def test_critical_boundary(self):
        res = landau_to_g(LandauExtension(3, -9))
        assert res.phase == CRITICAL
        assert res.omega is None and res.g is None

    def test_supercritical_reports_magnitude(self):
        res = landau_to_g(LandauExtension(1, -5))
        assert res.phase == SUPERCRITICAL
        assert res.omega == 2
        assert res.g is None

    def test_free_particle_is_critical(self):
        assert landau_to_g(LandauExtension(0, 0)).phase == CRITICAL

    def test_pure_trap_is_euclidean_zero_coupling(self):
        res = landau_to_g(LandauExtension(0, 9))
        assert res.phase == Phase.EUCLIDEAN
        assert res.g == 0
        assert res.omega == 3

    def test_float_inputs_give_floats(self):
        res = landau_to_g(LandauExtension(1.0, 3.0))
        assert isinstance(res.g, float)
        assert res.g == pytest.approx(0.5)

    def test_irrational_square_falls_back_to_float(self):
        res = landau_to_g(LandauExtension(1, 1))
        assert isinstance(res.omega, float)
        assert res.omega == pytest.approx(math.sqrt(2))

    def test_an_exact_g_is_a_coupling(self):
        res = landau_to_g(LandauExtension(1, 3))
        assert Coupling(res.g) == Coupling(Fraction(1, 2))
        with pytest.raises(ValueError, match="coupling g None"):
            Coupling(landau_to_g(LandauExtension(0, 0)).g)

    def test_defining_relation(self):
        # |Lambda| = |1 - g^2| omega^2 on the confined branch
        for omega_b, lam in [(1, 3), (2, -3), (5, 0), (-3, 7)]:
            res = landau_to_g(LandauExtension(omega_b, lam))
            assert abs(Fraction(lam)) == abs(1 - res.g**2) * res.omega**2


class TestGToLandau:
    def test_isotropic_is_pure_trap(self):
        ext = g_to_landau(0, 2)
        assert ext.omegaB == 0
        assert ext.Lambda == 4

    def test_landau_point_has_no_trap(self):
        ext = g_to_landau(1, 3)
        assert ext.Lambda == 0
        assert ext.omegaB == 3

    def test_minkowskian_couples_to_inverted_trap(self):
        ext = g_to_landau(2, 1)
        assert ext.Lambda == -3
        assert ext.omegaB == 2

    def test_rejects_isotropic_minkowskian_flag(self):
        with pytest.raises(ValueError):
            g_to_landau(Coupling(1, isotropic_mink=True), 1)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            g_to_landau(Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            g_to_landau(Fraction(1, 2), -1)

    @pytest.mark.parametrize(
        "g,omega",
        [
            (Fraction(1, 2), 2),
            (Fraction(3, 5), Fraction(5, 2)),
            (2, 1),
            (Fraction(-7, 3), 3),
            (0, 1),
        ],
    )
    def test_round_trip_exact_for_rationals(self, g, omega):
        res = landau_to_g(g_to_landau(g, omega))
        assert res.g == g
        assert res.omega == omega
        assert isinstance(res.g, Fraction)

    def test_round_trip_float(self):
        res = landau_to_g(g_to_landau(Coupling.coerce("3/10"), 1.7))
        assert res.g == pytest.approx(0.3, abs=1e-12)
        assert res.omega == pytest.approx(1.7, abs=1e-12)

    def test_float_branch_g_is_no_coupling(self):
        # the float g near 0.3 from float inputs: a Coupling takes no float
        res = landau_to_g(g_to_landau(Coupling("3/10"), 1.7))
        assert isinstance(res.g, float)
        with pytest.raises(ValueError, match="coupling g .* is not an int or Fraction"):
            Coupling(res.g)

    def test_exact_branch_g_is_a_coupling(self):
        res = landau_to_g(g_to_landau(Coupling("3/10"), Fraction(17, 10)))
        assert Coupling(res.g) == Coupling(Fraction(3, 10))

    @given(
        num=st.integers(min_value=-12, max_value=12),
        den=st.integers(min_value=1, max_value=9),
        wn=st.integers(min_value=1, max_value=9),
        wd=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_identity_on_rationals(self, num, den, wn, wd):
        g = Fraction(num, den)
        omega = Fraction(wn, wd)
        res = landau_to_g(g_to_landau(g, omega))
        assert res.g == g and res.omega == omega
        ext = g_to_landau(g, omega)
        assert abs(ext.Lambda) == abs(1 - g * g) * omega * omega


class TestRotatingFrame:
    def test_slow_rotation_is_euclidean(self):
        res = rotating_frame_to_g(RotatingFrame(k=4, m=1, Omega=1))
        assert res.phase == Phase.EUCLIDEAN
        assert res.g == Fraction(1, 2)
        assert res.omega == 2

    def test_matched_rotation_is_landau(self):
        res = rotating_frame_to_g(RotatingFrame(k=1, m=1, Omega=1))
        assert res.phase == Phase.LANDAU
        assert res.g == 1

    def test_sign_follows_rotation_direction(self):
        res = rotating_frame_to_g(RotatingFrame(k=1, m=1, Omega=-1))
        assert res.g == -1

    def test_fast_rotation_is_minkowskian(self):
        res = rotating_frame_to_g(RotatingFrame(k=1, m=4, Omega=1))
        assert res.phase == Phase.MINKOWSKIAN
        assert res.g == 2

    def test_free_particle_rotating_is_critical(self):
        res = rotating_frame_to_g(RotatingFrame(k=0, m=1, Omega=2))
        assert res.phase == CRITICAL

    def test_everything_at_rest_is_critical(self):
        assert rotating_frame_to_g(RotatingFrame(k=0, m=1, Omega=0)).phase == CRITICAL

    def test_no_rotation_is_zero_coupling(self):
        res = rotating_frame_to_g(RotatingFrame(k=9, m=1, Omega=0))
        assert res.g == 0
        assert res.omega == 3

    def test_float_fast_rotation(self):
        res = rotating_frame_to_g(RotatingFrame(k=2.0, m=1.0, Omega=5.0))
        assert res.phase == Phase.MINKOWSKIAN
        assert res.g == pytest.approx(5.0 / math.sqrt(2.0))

    def test_mass_scales_effective_frequency(self):
        res = rotating_frame_to_g(RotatingFrame(k=1, m=Fraction(1, 4), Omega=1))
        assert res.omega == 2
        assert res.g == Fraction(1, 2)

    def test_negative_spring_rejected(self):
        with pytest.raises(ValueError):
            RotatingFrame(k=-1, m=1, Omega=0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            RotatingFrame(k=1, m=0, Omega=0)

    def test_supercritical_never_occurs(self):
        for k, m, om in [(0, 1, 3), (1, 2, 10), (5, 1, 0)]:
            assert rotating_frame_to_g(RotatingFrame(k, m, om)).phase != SUPERCRITICAL


class TestClassify:
    def test_trap_dominated(self):
        assert classify(Fraction(1, 2), 1) == Phase.EUCLIDEAN

    def test_critical_line(self):
        assert classify(-1, 1) == CRITICAL

    def test_supercritical_region(self):
        assert classify(-2, 1) == SUPERCRITICAL

    def test_boundaries_flank_landau(self):
        eps = Fraction(1, 10**9)
        assert classify(eps, 1) == Phase.EUCLIDEAN
        assert classify(0, 1) == Phase.LANDAU
        assert classify(-eps, 1) == Phase.MINKOWSKIAN

    def test_boundary_above_critical_is_minkowskian(self):
        eps = Fraction(1, 10**9)
        assert classify(-1 + eps, 1) == Phase.MINKOWSKIAN
        assert classify(-1, 1) == CRITICAL
        assert classify(-1 - eps, 1) == SUPERCRITICAL


def _decimal_root(value: Fraction) -> float:
    """Correctly rounded float of sqrt(value), by 120-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 120
        return float((Decimal(value.numerator) / Decimal(value.denominator)).sqrt())


class TestFloatRange:
    def test_300_digit_integer_omega_b(self):
        # s = 10^600 + 1 has no float: float(s) raised OverflowError
        res = landau_to_g(LandauExtension(10**300, 1))
        assert res.phase == Phase.EUCLIDEAN
        assert (res.omega, res.g) == (1e300, 1.0)

    def test_float_omega_b_past_the_square_root_of_the_float_range(self):
        # omegaB * omegaB overflowed to inf: omega printed Infinity and g 0.0
        res = landau_to_g(LandauExtension(1e200, 1))
        assert (res.omega, res.g) == (1e200, 1.0)
        res = landau_to_g(LandauExtension(-1e-200, 0))
        assert res.phase == Phase.LANDAU and (res.omega, res.g) == (1e-200, -1.0)

    def test_rotating_frame_goes_through_the_same_path(self):
        # k/m = 1e600 overflowed to inf and Lambda was rejected as not finite
        res = rotating_frame_to_g(RotatingFrame(1e300, 1e-300, 1.0))
        assert res.phase == Phase.EUCLIDEAN
        assert (res.omega, res.g) == (1e300, 1e-300)

    @pytest.mark.parametrize("omega_b, Lambda", [
        (3 * 10**300, 7), (Fraction(1, 10**200), Fraction(1, 10**401)),
        (Fraction(2, 3 * 10**170), Fraction(1, 10**341)), (-(10**308), 10**300), (17 * 10**307, 10**600),
    ], ids=["3e300", "1e-200", "2/3e-170", "-1e308", "1.7e308"])
    def test_root_past_the_float_range_is_correctly_rounded(self, omega_b, Lambda):
        ext = LandauExtension(omega_b, Lambda)
        s = ext.omegaB**2 + ext.Lambda
        assert not sys.float_info.min <= s <= sys.float_info.max
        res = landau_to_g(ext)
        assert res.omega == _decimal_root(s)
        assert res.g == float(ext.omegaB) / res.omega

    @given(st.fractions(max_denominator=10**12), st.fractions(max_denominator=10**12))
    @settings(max_examples=200, deadline=None)
    def test_root_in_the_float_range_is_the_root_of_the_rounded_value(self, omega_b, Lambda):
        # the rounding exact inputs have always had, so their outputs keep every bit
        s = omega_b**2 + Lambda
        if not sys.float_info.min <= s <= sys.float_info.max:
            return
        res = landau_to_g(LandauExtension(omega_b, Lambda))
        if isinstance(res.omega, float):
            assert res.omega == math.sqrt(float(s))

    @pytest.mark.parametrize("make", [
        lambda: rotating_frame_to_g(RotatingFrame(1.7e308, 5e-324, 1.0)),  # omega ~ 6e315
        lambda: landau_to_g(LandauExtension(1, -1 + Fraction(2, 10**700))),  # omega ~ 1e-350
        lambda: landau_to_g(LandauExtension(-1, -1 - Fraction(2, 10**700))),  # supercritical
        lambda: landau_to_g(LandauExtension(10**308, -(10**616) + Fraction(2, 10**10))),  # g
    ])
    def test_omega_or_g_outside_the_float_range_raises(self, make):
        with pytest.raises(ValueError, match="float range"):
            make()


class TestOrientation:
    """The maps' sign of g, pinned by exact Hamiltonians in the canonical ring."""

    @staticmethod
    def _canonical(params):
        return [PhasePoly.variable(name, CANONICAL, params) for name in ("x1", "x2", "p1", "p2")]

    @staticmethod
    def _circular_equals(h, g, params) -> bool:
        return h.to_basis(CIRCULAR) == hamiltonian(Coupling(g), params)

    @pytest.mark.parametrize("omega_b, lam", [
        (Fraction(3, 5), Fraction(16, 25)), (Fraction(-3, 5), Fraction(16, 25)),
        (Fraction(5, 4), Fraction(-9, 16)), (Fraction(1), Fraction(0)), (Fraction(-2), Fraction(0)),
        (Fraction(1, 2), Fraction(2)),  # omega = m*omega = 3/2: neither a square nor twice one
    ])
    def test_magnetic_hamiltonian_is_h_g(self, omega_b, lam):
        # (p - qA/c)^2/2m + m Lambda r^2/2 at m = 1, qA/c = m omegaB (x2, -x1): field along -z
        res = landau_to_g(LandauExtension(omega_b, lam))
        params = Params(1, res.omega)
        x1, x2, p1, p2 = self._canonical(params)
        trap = (lam / 2) * (x1 * x1 + x2 * x2)
        h = ((p1 - omega_b * x2) ** 2 + (p2 + omega_b * x1) ** 2) * Fraction(1, 2) + trap
        assert self._circular_equals(h, res.g, params)
        # the textbook gauge qA/c = m omegaB (-x2, x1), field along +z, is H_{-g}
        h_textbook = ((p1 + omega_b * x2) ** 2 + (p2 - omega_b * x1) ** 2) * Fraction(1, 2) + trap
        assert self._circular_equals(h_textbook, -res.g, params)
        assert not self._circular_equals(h_textbook, res.g, params)

    def _assert_rotating_frame_is_h_g(self, k, m, omega_cap):
        # p^2/2m + k r^2/2 + Omega p_phi: a frame turning clockwise for Omega > 0
        res = rotating_frame_to_g(RotatingFrame(Fraction(k), Fraction(m), Fraction(omega_cap)))
        params = Params(m, res.omega)
        x1, x2, p1, p2 = self._canonical(params)
        h_osc = Fraction(1, 2) / m * (p1 * p1 + p2 * p2) + Fraction(k, 2) * (x1 * x1 + x2 * x2)
        p_phi = x1 * p2 - x2 * p1
        assert self._circular_equals(h_osc + omega_cap * p_phi, res.g, params)
        assert self._circular_equals(h_osc - omega_cap * p_phi, -res.g, params)

    # (9, 4, 2): omega = 3/2, so m*omega = 6 is neither a rational square nor twice one
    @pytest.mark.parametrize("k, m, omega_cap", [(4, 1, 1), (1, 4, -1), (9, 4, 2)])
    def test_rotating_frame_hamiltonian_is_h_g(self, k, m, omega_cap):
        self._assert_rotating_frame_is_h_g(k, m, omega_cap)

    @pytest.mark.parametrize("k", [Fraction(9), Fraction(2, 3), Fraction(5, 7)], ids=str)
    @pytest.mark.parametrize("omega", [Fraction(3, 2), Fraction(2), Fraction(1, 3)], ids=str)
    def test_rotating_frame_sweep(self, k, omega):
        # m = k/omega^2, so k/m is the rational square omega^2; Omega spans both signs,
        # the Euclidean and Minkowskian phases and both Landau boundaries g = +-1
        for omega_cap in (-3 * omega, -omega, Fraction(-1, 5), Fraction(2, 7), omega, 4):
            self._assert_rotating_frame_is_h_g(k, k / omega ** 2, omega_cap)


class TestSuiteRows:
    def test_failed_maps_report_what_they_got(self, monkeypatch):
        # a map whose g is off by one fails every row that reads landau_to_g: the roundtrip
        # rows report no residual, as every exact row does, and name the result in the detail
        real = landau_mod.landau_to_g

        def off_by_one(ext):
            res = real(ext)
            return res if res.g is None else PhaseResult(res.phase, res.omega, res.g + 1)

        monkeypatch.setattr(landau_mod, "landau_to_g", off_by_one)
        rows = {row.check_id: row for row in landau_mod.suite_landau(None).rows}
        roundtrip = rows["roundtrip:g=1/2,omega=1"]
        assert (roundtrip.passed, roundtrip.residual, roundtrip.detail) == (
            False, None, "got g = 3/2, omega = 1")
        assert [r.check_id for r in rows.values() if not r.passed] == [
            *(f"roundtrip:g={g},omega={w}"
              for g, w in (("1/2", "1"), ("3", "2"), ("-2/3", "5/7"), ("1", "3"), ("0", "2"))),
            "boundary-landau:+", "boundary-landau:-"]
        assert rows["boundary-landau:+"].identity == "phase = landau, g = 1"
        assert rows["boundary-landau:+"].detail == "got landau, g = 2"
