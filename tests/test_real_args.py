"""One real-argument rule: every mass, frequency, hbar, radius, time, angle and tolerance goes
through phasealg.exact, which raises ValueError naming the argument for anything that is not a
real number in range (bools, None, strings, complex, nan, inf, values past the float range)."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from riaho import aniso as an
from riaho import bridge as br
from riaho import classdyn as cd
from riaho import fockeng as fe
from riaho import landau as la
from riaho.cli import ConfigError, RunConfig
from riaho.coupling import Coupling
from riaho.phasealg.exact import coerce_real, require_real, to_float

BASIS = fe.FockBasis(2)
FREQ = an.FrequencyPair.detect(1, 2)
STATE = [1.0, 0.0, 0.0, 1.0]
PROBLEM = (STATE, Coupling(F(1, 3)), 1.0, 1.0)
ORBIT = cd.TrajectoryParams(R1=1, R2=1, coupling=Coupling(F(1, 3)))

NOT_REALS = (True, None, "1", 1j, math.nan, math.inf, -math.inf)
OUT_OF_RANGE = (10**400, F(1, 10**400))
NOT_POSITIVE = (0, -1)
VALID = (2, F(1, 2), 0.5, np.float64(0.25))

# (name in the message, call taking the value, exact, positive); an exact argument goes
# through coerce_real, where 10**400 and 1/10**400 are valid exact values
ENTRY_POINTS = [
    ("omega1", lambda v: an.FrequencyPair(v, 1), True, True),
    ("omega2", lambda v: an.FrequencyPair(1, v), True, True),
    ("omega1", lambda v: an.detect_commensurability(v, 1), True, True),
    ("omega2", lambda v: an.detect_commensurability(1, v), True, True),
    ("omega1", lambda v: an.so11_invariant_check(v, cutoff=4), False, True),  # used as a float
    ("hbar", lambda v: an.spectrum(FREQ, "+", 1, 0, v), True, False),
    ("omegaB", lambda v: la.LandauExtension(v, 1), True, False),
    ("Lambda", lambda v: la.LandauExtension(1, v), True, False),
    ("k", lambda v: la.RotatingFrame(v, 1, 1), True, False),
    ("m", lambda v: la.RotatingFrame(1, v, 1), True, True),
    ("Omega", lambda v: la.RotatingFrame(1, 1, v), True, False),
    ("omega", lambda v: la.g_to_landau(Coupling(F(1, 2)), v), True, True),
    ("coupling g", Coupling, True, False),
    ("m", lambda v: br.Units(m=v), False, True),
    ("omega", lambda v: br.Units(omega=v), False, True),
    ("hbar", lambda v: br.Units(hbar=v), False, True),
    ("gamma", lambda v: br.rotate(br.ground_state(), v), False, False),
    ("t", lambda v: br.evolved_labels(0.5, 0.2j, v, Coupling(F(1, 3))), False, False),
    ("t", lambda v: br.coherent_checks(0.5, 0.2j, v, 0.3, cutoff=4), False, False),
    ("R1", lambda v: cd.TrajectoryParams(R1=v, R2=1), False, False),
    ("R2", lambda v: cd.TrajectoryParams(R1=1, R2=v), False, False),
    ("gamma1", lambda v: cd.TrajectoryParams(R1=1, R2=1, gamma1=v), False, False),
    ("gamma2", lambda v: cd.TrajectoryParams(R1=1, R2=1, gamma2=v), False, False),
    ("omega", lambda v: cd.TrajectoryParams(R1=1, R2=1, omega=v), False, True),
    ("omega", lambda v: cd.integrate(STATE, Coupling(0), v, 1.0, steps=4), False, True),
    ("T", lambda v: cd.integrate(STATE, Coupling(0), 1.0, v, steps=4), False, False),
    ("m", lambda v: cd.integrate(STATE, Coupling(0), 1.0, 1.0, steps=4, m=v), False, True),
    ("omega", lambda v: cd.closure_period(Coupling(0), v), False, True),
    ("A1", lambda v: an.lissajous(v, 0, 0, 1, FREQ, 0.5), False, False),
    ("B1", lambda v: an.lissajous(1, v, 0, 1, FREQ, 0.5), False, False),
    ("A2", lambda v: an.lissajous(1, 0, v, 1, FREQ, 0.5), False, False),
    ("B2", lambda v: an.lissajous(1, 0, 0, v, FREQ, 0.5), False, False),
    ("t", lambda v: an.lissajous(1, 0, 0, 1, FREQ, v), False, False),
    ("hbar_omega", lambda v: fe.hamiltonian(BASIS, Coupling(F(1, 3)), v), False, False),
    ("hbar_omega", lambda v: fe.rni_hamiltonian(BASIS, Coupling(F(1, 3)), v), False, False),
    ("hbar", lambda v: fe.angular_momentum(BASIS, v), False, False),
    ("hbar", lambda v: an.signed_hamiltonian(BASIS, FREQ, "-", v), False, False),
    *((name, lambda v, name=name: RunConfig(**{name: v}), False, True)
      for name in ("m", "omega", "hbar", "tol_fock", "tol_quad", "tol_traj")),
    ("t", lambda v: cd.position(ORBIT, v), False, False),
    ("t", lambda v: cd.velocity(ORBIT, v), False, False),
    ("t", lambda v: cd.momentum(ORBIT, v), False, False),
    ("m", lambda v: cd.momentum(ORBIT, 0.5, v), False, True),
    ("t", lambda v: cd.state_from_params(ORBIT, v), False, False),
    ("m", lambda v: cd.state_from_params(ORBIT, 0.5, v), False, True),
    ("t", lambda v: cd.conserved_values(ORBIT, v), False, False),
    ("omega", lambda v: cd.hamiltonian_flow_rhs(STATE, Coupling(0), v), False, True),
    ("m", lambda v: cd.hamiltonian_flow_rhs(STATE, Coupling(0), 1.0, v), False, True),
    ("omega", lambda v: cd.hamiltonian_value(STATE, Coupling(0), v), False, True),
    ("m", lambda v: cd.hamiltonian_value(STATE, Coupling(0), 1.0, v), False, True),
    ("omega", lambda v: an.rescale_map(Coupling(F(1, 3))).omegas(v), False, True),
    ("omega", lambda v: cd.integrate_many([PROBLEM, (STATE, Coupling(0), v, 1.0)], 4), False, True),
    ("T", lambda v: cd.integrate_many([PROBLEM, (STATE, Coupling(0), 1.0, v)], 4), False, False),
    ("m", lambda v: cd.integrate_many([PROBLEM], 4, v), False, True),
]
IDS = [f"{name}-{i}" for i, (name, *_) in enumerate(ENTRY_POINTS)]


@pytest.mark.parametrize("value", VALID, ids=repr)
@pytest.mark.parametrize("name, call, exact, positive", ENTRY_POINTS, ids=IDS)
def test_valid_real_is_accepted(name, call, exact, positive, value):
    call(value)


@pytest.mark.parametrize("name, call, exact, positive", ENTRY_POINTS, ids=IDS)
def test_bad_value_raises_value_error_naming_the_argument(name, call, exact, positive):
    bad = NOT_REALS + (() if exact else OUT_OF_RANGE) + (NOT_POSITIVE if positive else ())
    for value in bad:
        if value == "1" and call is Coupling:
            continue  # a coupling string is parsed: "1" is g = 1
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(value)


@pytest.mark.parametrize("name, call, exact, positive", [e for e in ENTRY_POINTS if e[2]],
                         ids=[i for e, i in zip(ENTRY_POINTS, IDS) if e[2]])
def test_exact_arguments_keep_any_size(name, call, exact, positive):
    for value in OUT_OF_RANGE:
        call(value)


@pytest.mark.parametrize("value, message", [
    (0, "x 0 is not a positive finite real"),
    (-1.5, "x -1.5 is not a positive finite real"),
    (math.nan, "x nan is not a positive finite real"),
    (True, "x True is not a positive finite real"),
    ("1", "x '1' is not a positive finite real"),
    (10**400, "x lies outside the float range"),
    (F(1, 10**400), "x underflows to 0.0 as a float"),
])
def test_require_real_messages(value, message):
    with pytest.raises(ValueError) as info:
        require_real(value, "x", positive=True)
    assert str(info.value) == message


def test_converted_values():
    assert require_real(3, "x") == 3.0 and type(require_real(3, "x")) is float
    assert type(require_real(np.float64(0.5), "x")) is float
    assert require_real(F(-1, 4), "x") == -0.25
    assert coerce_real(3, "x") == F(3) and type(coerce_real(3, "x")) is F
    assert type(coerce_real(np.float64(0.5), "x")) is float
    assert coerce_real(10**400, "x") == 10**400
    assert to_float(F(1, 3), "x") == 1 / 3 and to_float(0, "x") == 0.0


def test_run_config_raises_config_error():
    with pytest.raises(ConfigError, match="^m True is not a positive finite real$"):
        RunConfig(m=True)
    with pytest.raises(ConfigError, match="^truncation 4.5 is not an integer >= 4$"):
        RunConfig(truncation=4.5)
    with pytest.raises(ConfigError, match="^truncation 3 is not an integer >= 4$"):
        RunConfig(truncation=3)


def test_array_times_are_sampled_as_given():
    x1, x2 = an.lissajous(1, 0, 0, 1, FREQ, [0.0, 0.5])
    assert x1.shape == x2.shape == (2,)
    assert an.lissajous(1, 0, 0, 1, FREQ, 0.5) == (x1[1], x2[1])
    for sample in (cd.position, cd.velocity, cd.momentum):
        x1, x2 = sample(ORBIT, np.array([0.0, 0.5]))
        assert x1.shape == x2.shape == (2,)
        assert sample(ORBIT, 0.5) == (x1[1], x2[1]) == sample(ORBIT, np.array(0.5))


def test_state_from_params_takes_one_time():
    # an array t raised TypeError in float(x1)
    with pytest.raises(ValueError, match=r"^t "):
        cd.state_from_params(ORBIT, np.array([0.0, 0.5]))
