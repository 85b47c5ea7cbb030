"""Orbit closed form vs Hamilton flow, closure periods, orbit geometry."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from riaho import classdyn
from riaho.classdyn import (CUSP_GALLERY, ORBIT_GALLERY, PhaseState,
                            TrajectoryParams, closure_period, closure_turns,
                            conserved_values, hamiltonian_flow_rhs,
                            hamiltonian_value, integrate, integrate_many,
                            is_cusped, momentum,
                            pass_through_origin, position, state_from_params,
                            suite_classical, velocity)
from riaho.cli import RunConfig
from riaho.coupling import Coupling


def orbit(g, R1=1.0, R2=0.0, g1=0.0, g2=0.0, w=1.0):
    return TrajectoryParams(R1=R1, R2=R2, gamma1=g1, gamma2=g2, omega=w,
                            coupling=Coupling.coerce(g))


def minkowski_radius_sq(R1, R2, gamma1, gamma2):
    """Squared radius of the |g| -> inf circular orbit (law of cosines)."""
    return R1 ** 2 + R2 ** 2 + 2 * R1 * R2 * math.cos(gamma1 + gamma2)


def _rk4_stagewise(state0, coupling, omega, T, steps, m=1.0):
    """Reference RK4: four stages of hamiltonian_flow_rhs per step."""
    c = Coupling.coerce(coupling)
    y = state0.as_array() if isinstance(state0, PhaseState) else \
        np.asarray(state0, dtype=float).copy()
    h = T / steps
    out = np.empty((steps + 1, 4))
    out[0] = y
    for n in range(steps):
        k1 = hamiltonian_flow_rhs(y, c, omega, m)
        k2 = hamiltonian_flow_rhs(y + 0.5 * h * k1, c, omega, m)
        k3 = hamiltonian_flow_rhs(y + 0.5 * h * k2, c, omega, m)
        k4 = hamiltonian_flow_rhs(y + h * k3, c, omega, m)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[n + 1] = y
    return out


class TestClosedForm:
    def test_single_mode_landau_circle_rate(self):
        # g=1, R2=0: radius R1, angular rate 2w
        p = orbit("1", R1=1.5)
        t = np.linspace(0, 1.0, 7)
        x1, x2 = position(p, t)
        r = np.hypot(x1, x2)
        assert np.allclose(r, 1.5, atol=1e-12)
        angles = np.unwrap(np.arctan2(x2, x1))
        assert np.allclose(np.diff(angles) / np.diff(t), 2.0, atol=1e-9)

    def test_isotropic_circle_rate(self):
        p = orbit("0", R1=2.0)
        t = np.linspace(0, 1.0, 7)
        x1, x2 = position(p, t)
        angles = np.unwrap(np.arctan2(x2, x1))
        assert np.allclose(np.diff(angles) / np.diff(t), 1.0, atol=1e-9)

    def test_landau_orbit_is_offset_circle(self):
        p = orbit("1", R1=1.0, R2=0.7, g2=0.4)
        t = np.linspace(0, 2 * math.pi, 200)
        x1, x2 = position(p, t)
        cx, cy = 0.7 * math.cos(-0.4), 0.7 * math.sin(-0.4)
        r = np.hypot(x1 - cx, x2 - cy)
        assert np.allclose(r, 1.0, atol=1e-12)

    @pytest.mark.parametrize("g", ["1/3", "2/3", "3", "-1/2", "5/4"])
    def test_rotation_sense_of_the_two_terms(self, g):
        c = Coupling.coerce(g)
        same_sense = float(c.ell1) * (-float(c.ell2)) > 0
        assert same_sense == (abs(c.g) > 1)


class TestFlowField:
    def test_origin_is_fixed_point(self):
        rhs = hamiltonian_flow_rhs(PhaseState(0, 0, 0, 0), "1/2", 1.0)
        assert np.all(rhs == 0)

    @pytest.mark.parametrize("call", [hamiltonian_flow_rhs, hamiltonian_value,
                                      lambda s, c, w: integrate(s, c, w, 1.0, steps=1)],
                             ids=["flow_rhs", "hamiltonian_value", "integrate"])
    def test_omega_squared_past_the_float_range_raises(self, call):
        # m*omega^2 = 1e400 raised OverflowError from the float power
        with pytest.raises(ValueError, match="m\\*omega\\^2 .* leaves the float range"):
            call([1.0, 0.0, 0.0, 1.0], "1/2", 1e200)

    @pytest.mark.parametrize("call", [hamiltonian_flow_rhs, hamiltonian_value,
                                      lambda s, c, w, m: integrate(s, c, w, 1.0, steps=1, m=m)],
                             ids=["flow_rhs", "hamiltonian_value", "integrate"])
    @pytest.mark.parametrize("coupling, omega, m", [
        (Coupling(10**300), 1e10, 1.0),  # g*omega = 1e310 was inf, then nan in A y
        ("1/2", 1.0, 1e-310),            # 1/m = 1e310 was inf the same silent way
    ], ids=["g_omega", "inverse_mass"])
    def test_generator_entry_past_the_float_range_raises(self, call, coupling, omega, m):
        with np.errstate(all="raise"):  # raised before any numpy product is formed
            with pytest.raises(ValueError, match="leaves the float range"):
                call([1.0, 0.0, 0.0, 1.0], coupling, omega, m)

    def test_isotropic_field(self):
        rhs = hamiltonian_flow_rhs(PhaseState(1.0, 0.0, 0.0, 2.0), "0", 1.0)
        assert np.allclose(rhs, [0.0, 2.0, -1.0, 0.0])

    @pytest.mark.parametrize("g,t0", [("1/2", 0.3), ("2/3", 1.1), ("3", 0.7)])
    def test_rhs_matches_finite_difference_of_closed_form(self, g, t0):
        p = orbit(g, R1=1.0, R2=0.8, g1=0.2, g2=-0.5)
        h = 1e-5
        plus = state_from_params(p, t0 + h).as_array()
        minus = state_from_params(p, t0 - h).as_array()
        fd = (plus - minus) / (2 * h)
        rhs = hamiltonian_flow_rhs(state_from_params(p, t0), p.coupling,
                                   p.omega)
        assert np.max(np.abs(fd - rhs)) < 1e-8

    def test_energy_matches_mode_form(self):
        # H_g = w(ell1 R1^2 + ell2 R2^2) on the orbit
        p = orbit("2/3", R1=1.0, R2=0.5, g1=0.1, g2=0.9)
        s = state_from_params(p, 0.4)
        c = p.coupling
        want = float(c.ell1) * 1.0 + float(c.ell2) * 0.25
        assert math.isclose(hamiltonian_value(s, c, 1.0), want,
                            rel_tol=1e-12)


class TestIntegration:
    def test_isotropic_period_return(self):
        p = orbit("0", R1=1.0)
        s0 = state_from_params(p, 0.0)
        _, states = integrate(s0, p.coupling, 1.0, 2 * math.pi)
        assert np.max(np.abs(states[-1] - states[0])) < 1e-6

    def test_matches_closed_form_along_orbit(self):
        p = orbit("2/3", R1=1.0, R2=2.0)
        T = closure_period(p.coupling)  # 6 pi
        assert math.isclose(T, 6 * math.pi)
        ts, states = integrate(state_from_params(p), p.coupling, 1.0, T)
        x1, x2 = position(p, ts)
        dev = np.hypot(states[:, 0] - x1, states[:, 1] - x2)
        assert dev.max() <= 1e-6

    def test_energy_drift_over_period(self):
        p = orbit("2/3", R1=1.0, R2=2.0)
        T = closure_period(p.coupling)
        _, states = integrate(state_from_params(p), p.coupling, 1.0, T)
        e = np.array([hamiltonian_value(s, p.coupling, 1.0) for s in states])
        assert np.max(np.abs(e - e[0])) / abs(e[0]) <= 1e-8

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            integrate(PhaseState(1, 0, 0, 0), "0", 1.0, 1.0, steps=0)

    @pytest.mark.parametrize("bad", [
        {"steps": True}, {"steps": 2.5}, {"T": math.inf}, {"omega": math.nan},
        {"m": math.inf}, {"m": 0.0}, {"m": -1.0},
    ])
    def test_rejects_bad_input(self, bad):
        kwargs = {"omega": 1.0, "T": 1.0, "steps": 8, "m": 1.0, **bad}
        with pytest.raises(ValueError):
            integrate(PhaseState(1, 0, 0, 0), "1/2", **kwargs)

    @pytest.mark.parametrize("label,params", ORBIT_GALLERY + CUSP_GALLERY)
    def test_closed_form_matches_integration_everywhere(self, label, params):
        T = closure_period(params.coupling, params.omega)
        ts, states = integrate(state_from_params(params), params.coupling,
                               params.omega, T)
        x1, x2 = position(params, ts)
        dev = np.hypot(states[:, 0] - x1, states[:, 1] - x2)
        assert dev.max() <= 1e-6


class TestPropagatorMatchesStagewise:
    """The precomputed step matrix against the four-stage reference loop."""

    @staticmethod
    def check(state0, coupling, omega, T, steps, tol, m=1.0):
        ts, states = integrate(state0, coupling, omega, T, steps=steps, m=m)
        ref = _rk4_stagewise(state0, coupling, omega, T, steps, m=m)
        assert len(ts) == steps + 1 and ts[-1] == T
        assert np.max(np.abs(states - ref)) <= tol

    @pytest.mark.parametrize("label,params", ORBIT_GALLERY + CUSP_GALLERY)
    def test_gallery(self, label, params):
        T = closure_period(params.coupling, params.omega)
        self.check(state_from_params(params), params.coupling, params.omega,
                   T, 2048, 1e-12 * (params.R1 + params.R2))

    def test_isotropic_mink(self):
        c = Coupling(F(1), isotropic_mink=True)
        state = PhaseState(1.0, -0.5, 0.3, 0.8)
        self.check(state, c, 1.0, 2 * math.pi, 2048, 1e-12 * 3.0)

    def test_mass_two(self):
        p = orbit("2/3", R1=1.0, R2=2.0, g1=0.3, g2=-0.2)
        state = state_from_params(p, m=2.0)
        self.check(state, p.coupling, p.omega, closure_period(p.coupling),
                   2048, 1e-12 * 3.0, m=2.0)

    @pytest.mark.parametrize("label,params", ORBIT_GALLERY + CUSP_GALLERY)
    def test_single_step(self, label, params):
        h = closure_period(params.coupling, params.omega) / 2048
        state = state_from_params(params)
        _, states = integrate(state, params.coupling, params.omega, h, steps=1)
        ref = _rk4_stagewise(state, params.coupling, params.omega, h, 1)
        assert np.max(np.abs(states - ref)) <= 1e-15 * np.max(np.abs(ref))


def _gallery_problem(params):
    return (state_from_params(params), params.coupling, params.omega,
            closure_period(params.coupling, params.omega))


# the 15 gallery orbits, then the isotropic Minkowskian limit and g = -1
BATCH = [_gallery_problem(p) for _, p in ORBIT_GALLERY + CUSP_GALLERY] + [
    (PhaseState(1.0, -0.5, 0.3, 0.8), Coupling(F(1), isotropic_mink=True), 1.0, 2 * math.pi),
    _gallery_problem(orbit("-1", R1=1.0, R2=2.0, g1=0.3, w=1.5)),
]


def _matrix_loop(state0, coupling, omega, T, steps, m=1.0):
    """Reference: one problem, its step matrix applied by one product per step."""
    c = Coupling.coerce(coupling)
    y = state0.as_array() if isinstance(state0, PhaseState) else np.asarray(state0, dtype=float)
    step = classdyn._rk4_step_matrix(c, omega, T / steps, m)
    out = [y]
    for _ in range(steps):
        out.append(step @ out[-1])
    return np.array(out)


class TestIntegrateMany:
    def test_batch_equals_each_problem_alone(self):
        runs = integrate_many(BATCH, steps=2048)
        assert len(runs) == len(BATCH)
        for problem, (ts, states) in zip(BATCH, runs):
            ts_alone, states_alone = integrate(*problem, steps=2048)
            assert np.array_equal(ts, ts_alone) and np.array_equal(states, states_alone)

    def test_batch_makes_the_per_problem_step_products(self):
        # no shortcut powers: every state is its own matrix applied once per step
        for problem, (_, states) in zip(BATCH, integrate_many(BATCH, steps=512, m=2.0)):
            assert np.array_equal(states, _matrix_loop(*problem, 512, m=2.0))

    def test_reversed_batch_gives_the_same_arrays(self):
        forward = integrate_many(BATCH, steps=256)
        backward = integrate_many(BATCH[::-1], steps=256)[::-1]
        for (ts_f, states_f), (ts_b, states_b) in zip(forward, backward):
            assert np.array_equal(ts_f, ts_b) and np.array_equal(states_f, states_b)

    def test_times_end_at_each_problems_own_period(self):
        for (*_, T), (ts, states) in zip(BATCH, integrate_many(BATCH, steps=64)):
            assert len(ts) == 65 and ts[0] == 0.0 and ts[-1] == T
            assert states.shape == (65, 4)

    def test_empty_batch_names_problems(self):
        with pytest.raises(ValueError, match="problems"):
            integrate_many([], steps=8)

    @pytest.mark.parametrize("field,value", [
        ("T", math.nan), ("T", None), ("omega", math.inf), ("omega", 0.0), ("omega", "1"),
    ])
    def test_bad_third_problem_names_the_argument(self, field, value):
        problems = list(BATCH[:5])
        state0, coupling, omega, T = problems[2]
        problems[2] = (state0, coupling, value if field == "omega" else omega,
                       value if field == "T" else T)
        with pytest.raises(ValueError, match=rf"^{field} "):
            integrate_many(problems, steps=8)


INTEGRATE_IDS = [f"integrate:{which}:{label}"
                 for which, gallery in (("orbits", ORBIT_GALLERY), ("cusps", CUSP_GALLERY))
                 for label, _ in gallery]


class TestSuiteClassicalBatch:
    @pytest.mark.parametrize("index", range(15))
    def test_perturbed_step_matrix_fails_only_its_own_row(self, monkeypatch, index):
        # a mis-zipped batch would blame another orbit's row, or none
        built = []
        real = classdyn._rk4_step_matrix

        def perturbed(*args):
            step = real(*args)
            built.append(step)
            return step * (1 + 1e-6) if len(built) == index + 1 else step

        monkeypatch.setattr(classdyn, "_rk4_step_matrix", perturbed)
        report = suite_classical(RunConfig())
        assert len(built) == 15
        failed = [row.check_id for row in report.rows if not row.passed]
        assert failed == [INTEGRATE_IDS[index]]


class TestClosure:
    @pytest.mark.parametrize("g,turns", [
        ("0", F(1)), ("2/3", F(3)), ("1", F(1, 2)), ("1/3", F(3, 2)),
        ("1/2", F(2)), ("3/5", F(5, 2)), ("3", F(1, 2)), ("2", F(1)),
        ("5/3", F(3, 2)), ("5/4", F(4)), ("4/5", F(5)), ("3/2", F(2)),
    ])
    def test_exact_turn_counts(self, g, turns):
        assert closure_turns(Coupling.coerce(g)) == turns

    def test_period_examples(self):
        assert math.isclose(closure_period("2/3", 1.0), 6 * math.pi)
        assert math.isclose(closure_period("0", 1.0), 2 * math.pi)
        assert math.isclose(closure_period("1", 1.0), math.pi)
        assert math.isclose(closure_period("0", 2.0), math.pi)

    def test_isotropic_mink_period(self):
        c = Coupling(F(1), isotropic_mink=True)
        assert math.isclose(closure_period(c, 1.0), 2 * math.pi)

    @staticmethod
    def _gcd_turns(c: Coupling) -> F:
        """Oracle: 1/gcd of the nonzero |ell_i|, the gcd of two rationals taken as
        gcd of the numerators over lcm of the denominators."""
        ells = [abs(l) for l in (c.ell1, c.ell2) if l != 0]
        f = ells[0]
        for l in ells[1:]:
            f = F(math.gcd(f.numerator, l.numerator), math.lcm(f.denominator, l.denominator))
        return 1 / f

    def test_mode_orders_rule_matches_the_gcd_of_the_weights(self):
        couplings = [Coupling(F(p, q)) for p in range(-30, 31) for q in range(1, 13)]
        couplings += [Coupling(F(1), isotropic_mink=True), Coupling(F(-1), isotropic_mink=True)]
        assert len(couplings) == 732 + 2
        for c in couplings:
            assert closure_turns(c) == self._gcd_turns(c), c

    @pytest.mark.parametrize("label,params", ORBIT_GALLERY + CUSP_GALLERY)
    def test_orbit_returns_after_closure(self, label, params):
        T = closure_period(params.coupling, params.omega)
        x0 = np.array(position(params, 0.0))
        xT = np.array(position(params, T))
        assert np.max(np.abs(xT - x0)) < 1e-9 * max(1.0, params.R2)


class TestGeometry:
    @pytest.mark.parametrize("label,params", CUSP_GALLERY)
    def test_cusp_rows(self, label, params):
        assert is_cusped(params) == (label in ("a", "d"))

    def test_cusp_zero_second_radius(self):
        assert not is_cusped(orbit("0", R1=1.0, R2=0.0))

    @pytest.mark.parametrize("label,params", ORBIT_GALLERY)
    def test_origin_rows(self, label, params):
        assert pass_through_origin(params) == (label in ("b", "e", "h"))

    @pytest.mark.parametrize("label,params", ORBIT_GALLERY + CUSP_GALLERY)
    def test_predicates_match_sampled_geometry(self, label, params):
        T = closure_period(params.coupling, params.omega)
        t = np.linspace(0, T, 40000)
        x1, x2 = position(params, t)
        min_r = np.hypot(x1, x2).min()
        scale = params.R1 + params.R2
        if pass_through_origin(params):
            assert min_r < 1e-3 * scale
        else:
            assert min_r > 1e-4 * scale
        v1, v2 = velocity(params, t)
        min_v = np.hypot(v1, v2).min()
        vscale = max(abs(float(params.coupling.ell1)) * params.R1,
                     abs(float(params.coupling.ell2)) * params.R2)
        if is_cusped(params):
            assert min_v < 1e-3 * vscale
        else:
            assert min_v > 1e-4 * vscale

    def test_minkowski_radius(self):
        assert minkowski_radius_sq(1.0, 1.0, math.pi / 2, math.pi / 2) \
            == pytest.approx(0.0, abs=1e-12)
        assert minkowski_radius_sq(1.0, 2.0, 0.0, 0.0) == pytest.approx(9.0)
        r2 = minkowski_radius_sq(1.0, 2.0, 0.3, 0.4)
        assert (2.0 - 1.0) ** 2 <= r2 <= (2.0 + 1.0) ** 2

    def test_isotropic_mink_orbit_is_circle(self):
        c = Coupling(F(1), isotropic_mink=True)
        p = TrajectoryParams(R1=1.0, R2=2.0, gamma1=0.3, gamma2=0.4,
                             coupling=c)
        t = np.linspace(0, 2 * math.pi, 101)
        x1, x2 = position(p, t)
        want = minkowski_radius_sq(1.0, 2.0, 0.3, 0.4)
        assert np.allclose(x1 ** 2 + x2 ** 2, want, atol=1e-12)
        # closes after one turn
        assert np.allclose([x1[-1], x2[-1]], [x1[0], x2[0]], atol=1e-12)


class TestConservedValues:
    def test_single_mode_values(self):
        vals = conserved_values(orbit("1/3", R1=2.0, R2=0.0))
        assert vals["J0"] == pytest.approx(2.0)  # R1^2/2
        assert vals["L2"] == pytest.approx(2.0)
        assert vals["J+"] == pytest.approx(0.0)

    @pytest.mark.parametrize("g", ["0", "1/3", "1", "3"])
    def test_constant_along_orbit(self, g):
        p = orbit(g, R1=1.0, R2=0.8, g1=0.2, g2=-0.7)
        base = conserved_values(p, 0.0)
        T = closure_period(p.coupling)
        for t in np.linspace(0.1, T, 7):
            now = conserved_values(p, float(t))
            for k, v in base.items():
                assert abs(now[k] - v) <= 1e-12 * max(1.0, abs(v)), (k, t)

    def test_l2_is_half_angular_momentum(self):
        p = orbit("2/3", R1=1.0, R2=0.5, g1=0.3, g2=0.1)
        s = state_from_params(p, 0.9)
        p_phi = s.x1 * s.p2 - s.x2 * s.p1
        vals = conserved_values(p, 0.9)
        assert vals["L2"].real == pytest.approx(p_phi / 2, rel=1e-12)
        assert abs(vals["L2"].imag) < 1e-14

    def test_hamiltonian_entry_matches_canonical_value(self):
        p = orbit("5/4", R1=1.1, R2=0.6, g1=0.0, g2=1.0)
        s = state_from_params(p, 0.0)
        vals = conserved_values(p)
        assert vals["H_g"] == pytest.approx(
            hamiltonian_value(s, p.coupling, p.omega), rel=1e-12)


class TestValidation:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryParams(R1=-1.0, R2=0.0)

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryParams(R1=1.0, R2=0.0, omega=0.0)

    @pytest.mark.parametrize("field", ["R1", "R2", "gamma1", "gamma2", "omega"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, field, value):
        # NaN slips past R1 < 0 and omega <= 0, so finiteness is checked first
        kwargs = {"R1": 1.0, "R2": 0.5, **{field: value}}
        with pytest.raises(ValueError, match=f"{field} .* is not a (positive )?finite real"):
            TrajectoryParams(**kwargs)

    def test_exact_coupling_beyond_float_range_raises_value_error(self):
        # ell1 = 1 + 10^400 is a valid exact weight whose float overflows
        p = TrajectoryParams(R1=1, R2=1, coupling=Coupling(10**400))
        with pytest.raises(ValueError, match="float range"):
            position(p, 0.5)


class TestMomentum:
    def test_matches_state_from_params_and_rotational_shift(self):
        p = orbit("2/3", R1=1.0, R2=2.0, g1=0.3, g2=-0.2, w=1.5)
        ts = np.linspace(0.0, 4.0, 9)
        p1, p2 = momentum(p, ts, m=2.0)
        x1, x2 = position(p, ts)
        v1, v2 = velocity(p, ts)
        gw = 2 / 3 * 1.5
        assert np.array_equal(p1, 2.0 * (v1 + gw * x2))
        assert np.array_equal(p2, 2.0 * (v2 - gw * x1))
        s = state_from_params(p, ts[3], m=2.0)
        assert (s.p1, s.p2) == (p1[3], p2[3])


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


class TestOneModeEvaluation:
    """classdyn._path evaluates the modes once; position, velocity, momentum and the
    suite's stacked closed form read it and keep their arithmetic to the bit."""

    PARAMS = [orbit("2/3", R1=1.0, R2=2.0, g1=0.3, g2=-0.2, w=1.5), orbit("-5/4", R1=0.5, R2=3.0),
              orbit("1", R1=1.0, R2=0.7, g2=0.4), orbit("3", R1=1.0, R2=2.0, g1=-1.1)]

    @staticmethod
    def _per_call(params, t, m):
        """The closed forms as first written, each from its own _mode_values call."""
        w = params.omega
        l1, l2 = params.coupling.float_ells()
        b1p, b2m = classdyn._mode_values(params, t)
        z = b1p + b2m
        b1p, b2m = classdyn._mode_values(params, t)
        zdot = 1j * w * (l1 * b1p - l2 * b2m)
        gw = params.coupling.as_float() * params.omega
        return z.real, z.imag, zdot.real, zdot.imag, m * (zdot.real + gw * z.imag), \
            m * (zdot.imag - gw * z.real)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("t", [0.0, 1.7, -3, np.linspace(0.0, 9.0, 2049), [0.5, 2.5]],
                             ids=["zero", "float", "int", "array", "list"])
    def test_path_matches_each_closed_form(self, index, t):
        params = self.PARAMS[index]
        z, zdot = classdyn._path(params, t)
        x1, x2, v1, v2, p1, p2 = self._per_call(params, t, 2.0)
        assert _bits(z.real, z.imag) == _bits(*position(params, t)) == _bits(x1, x2)
        assert _bits(zdot.real, zdot.imag) == _bits(*velocity(params, t)) == _bits(v1, v2)
        assert _bits(*classdyn._momenta(params, z, zdot, 2.0)) == _bits(*momentum(params, t, 2.0))
        assert _bits(*momentum(params, t, 2.0)) == _bits(p1, p2)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("t", [0.0, 1.7, -3])
    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_state_from_params_evaluates_the_modes_once(self, monkeypatch, index, t, m):
        params = self.PARAMS[index]
        want = [float(v) for v in (*position(params, t), *momentum(params, t, m))]
        calls = []
        real = classdyn._mode_values
        monkeypatch.setattr(classdyn, "_mode_values", lambda *a: calls.append(a) or real(*a))
        state = state_from_params(params, t, m)
        assert _bits(state.as_array()) == _bits(np.array(want))
        assert len(calls) == 1

    @pytest.mark.parametrize("which", ["orbits", "cusps"])
    def test_suite_closed_form_matches_position_and_momentum(self, which):
        for _, params in classdyn.gallery_params(which):
            ts = np.linspace(0.0, closure_period(params.coupling, params.omega), 2049)
            z, zdot = classdyn._path(params, ts)
            stacked = np.stack([z.real, z.imag, *classdyn._momenta(params, z, zdot, 1.0)], axis=1)
            want = np.stack([*position(params, ts), *momentum(params, ts)], axis=1)
            assert stacked.tobytes() == want.tobytes()

    def test_one_mode_evaluation_per_orbit_in_the_suite(self, monkeypatch):
        calls = []
        real = classdyn._mode_values

        def counted(params, t):
            calls.append(np.ndim(t))
            return real(params, t)

        monkeypatch.setattr(classdyn, "_mode_values", counted)
        assert suite_classical(RunConfig()).passed
        # one array evaluation per orbit; the scalar ones are the start states and closures
        orbits = len(ORBIT_GALLERY) + len(CUSP_GALLERY)
        assert calls.count(1) == orbits
        # one per start state and two per closure check; a start state read through
        # position and momentum apart would add one per orbit
        assert calls.count(0) == 3 * orbits
