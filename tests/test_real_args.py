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
from riaho.phasealg import CIRCULAR, ExactComplex, Params, PhasePoly
from riaho.phasealg.exact import (coerce_real, rational_sqrt, require_complex, require_int,
                                   require_real, ring_sqrt, to_float)

BASIS = fe.FockBasis(2)
FREQ = an.FrequencyPair.detect(1, 2)
STATE = [1.0, 0.0, 0.0, 1.0]
PROBLEM = (STATE, Coupling(F(1, 3)), 1.0, 1.0)
ORBIT = cd.TrajectoryParams(R1=1, R2=1, coupling=Coupling(F(1, 3)))
PSI = br.ground_state()
SEPARABLE = an.SeparableState({(1, 0): 1.0}, 0.5, 0.5)
POLY = PhasePoly.variable("b1+", CIRCULAR, mu=F(1))
POINT = {"b1+": 0.5, "b1-": 0.5, "b2+": 0, "b2-": 0}

NOT_REALS = (True, None, "1", 1j, math.nan, math.inf, -math.inf)
OUT_OF_RANGE = (10**400, F(1, 10**400))
NOT_POSITIVE = (0, -1)
VALID = (2, F(1, 2), 0.5, np.float64(0.25))

# (target parameter, name in the message, call taking the value, exact, positive); an exact
# argument goes through coerce_real, where 10**400 and 1/10**400 are valid exact values
ENTRY_POINTS = [
    ("aniso.FrequencyPair:omega1", "omega1", lambda v: an.FrequencyPair(v, 1), True, True),
    ("aniso.FrequencyPair:omega2", "omega2", lambda v: an.FrequencyPair(1, v), True, True),
    ("aniso.FrequencyPair.detect:omega1", "omega1", lambda v: an.FrequencyPair.detect(v, 1),
     True, True),
    ("aniso.FrequencyPair.detect:omega2", "omega2", lambda v: an.FrequencyPair.detect(1, v),
     True, True),
    ("aniso.detect_commensurability:omega1", "omega1", lambda v: an.detect_commensurability(v, 1),
     True, True),
    ("aniso.detect_commensurability:omega2", "omega2", lambda v: an.detect_commensurability(1, v),
     True, True),
    ("aniso.SeparableState:rate1", "rate1", lambda v: an.SeparableState({}, v, 1.0), False, True),
    ("aniso.SeparableState:rate2", "rate2", lambda v: an.SeparableState({}, 1.0, v), False, True),
    ("aniso.SeparableState.evaluate:x1", "x1", lambda v: SEPARABLE.evaluate(v, 0.5), False, False),
    ("aniso.SeparableState.evaluate:x2", "x2", lambda v: SEPARABLE.evaluate(0.5, v), False, False),
    ("aniso.aniso_cbt_apply:m", "m", lambda v: an.aniso_cbt_apply((1, 0), FREQ, m=v), False, True),
    ("aniso.aniso_cbt_apply:hbar", "hbar", lambda v: an.aniso_cbt_apply((1, 0), FREQ, hbar=v),
     False, True),
    ("aniso.hermite_eigenstate:m", "m", lambda v: an.hermite_eigenstate(1, 0, FREQ, m=v),
     False, True),
    ("aniso.hermite_eigenstate:hbar", "hbar", lambda v: an.hermite_eigenstate(1, 0, FREQ, hbar=v),
     False, True),
    ("aniso.mode_constant:omega", "omega", lambda v: an.mode_constant(1, v), False, True),
    ("aniso.mode_constant:m", "m", lambda v: an.mode_constant(1, 1.0, m=v), False, True),
    ("aniso.mode_constant:hbar", "hbar", lambda v: an.mode_constant(1, 1.0, hbar=v), False, True),
    ("aniso.aniso_proportionality:m", "m", lambda v: an.aniso_proportionality(1, 0, FREQ, m=v),
     False, True),
    ("aniso.aniso_proportionality:hbar", "hbar",
     lambda v: an.aniso_proportionality(1, 0, FREQ, hbar=v), False, True),
    ("landau.LandauExtension:omegaB", "omegaB", lambda v: la.LandauExtension(v, 1), True, False),
    ("landau.LandauExtension:Lambda", "Lambda", lambda v: la.LandauExtension(1, v), True, False),
    ("landau.RotatingFrame:k", "k", lambda v: la.RotatingFrame(v, 1, 1), True, False),
    ("landau.RotatingFrame:m", "m", lambda v: la.RotatingFrame(1, v, 1), True, True),
    ("landau.RotatingFrame:Omega", "Omega", lambda v: la.RotatingFrame(1, 1, v), True, False),
    ("landau.g_to_landau:omega", "omega", lambda v: la.g_to_landau(Coupling(F(1, 2)), v),
     True, True),
    # omegaB = 0 and Lambda = 0 keep every exact root rational or in the float range
    ("landau.classify:Lambda", "Lambda", lambda v: la.classify(v, 0), True, False),
    ("landau.classify:omegaB", "omegaB", lambda v: la.classify(0, v), True, False),
    ("coupling.Coupling:g", "coupling g", Coupling, True, False),
    ("fockeng.degeneracy_classes:emax", "emax",
     lambda v: fe.degeneracy_classes(Coupling(F(1, 3)), BASIS, v), True, False),
    ("bridge.Units:m", "m", lambda v: br.Units(m=v), False, True),
    ("bridge.Units:omega", "omega", lambda v: br.Units(omega=v), False, True),
    ("bridge.Units:hbar", "hbar", lambda v: br.Units(hbar=v), False, True),
    ("bridge.WaveState.evaluate:x1", "x1", lambda v: PSI.evaluate(v, 0.5), False, False),
    ("bridge.WaveState.evaluate:x2", "x2", lambda v: PSI.evaluate(0.5, v), False, False),
    ("bridge.rotate:gamma", "gamma", lambda v: br.rotate(PSI, v), False, False),
    ("bridge.grid_proportionality:expected", "expected",
     lambda v: br.grid_proportionality(0, 0, PSI.evaluate, PSI.evaluate, v), False, True),
    ("bridge.evolved_labels:t", "t", lambda v: br.evolved_labels(0.5, 0.2j, v, Coupling(F(1, 3))),
     False, False),
    ("bridge.coherent_checks:t", "t", lambda v: br.coherent_checks(0.5, 0.2j, v, 0.3, cutoff=4),
     False, False),
    ("bridge.coherent_checks:gamma", "gamma",
     lambda v: br.coherent_checks(0.5, 0.2j, 0.1, v, cutoff=4), False, False),
    ("classdyn.TrajectoryParams:R1", "R1", lambda v: cd.TrajectoryParams(R1=v, R2=1), False, False),
    ("classdyn.TrajectoryParams:R2", "R2", lambda v: cd.TrajectoryParams(R1=1, R2=v), False, False),
    ("classdyn.TrajectoryParams:gamma1", "gamma1",
     lambda v: cd.TrajectoryParams(R1=1, R2=1, gamma1=v), False, False),
    ("classdyn.TrajectoryParams:gamma2", "gamma2",
     lambda v: cd.TrajectoryParams(R1=1, R2=1, gamma2=v), False, False),
    ("classdyn.TrajectoryParams:omega", "omega", lambda v: cd.TrajectoryParams(R1=1, R2=1, omega=v),
     False, True),
    ("classdyn.PhaseState:x1", "x1", lambda v: cd.PhaseState(v, 0, 0, 0), False, False),
    ("classdyn.PhaseState:x2", "x2", lambda v: cd.PhaseState(0, v, 0, 0), False, False),
    ("classdyn.PhaseState:p1", "p1", lambda v: cd.PhaseState(0, 0, v, 0), False, False),
    ("classdyn.PhaseState:p2", "p2", lambda v: cd.PhaseState(0, 0, 0, v), False, False),
    ("classdyn.integrate:omega", "omega",
     lambda v: cd.integrate(STATE, Coupling(0), v, 1.0, steps=4), False, True),
    ("classdyn.integrate:T", "T", lambda v: cd.integrate(STATE, Coupling(0), 1.0, v, steps=4),
     False, False),
    ("classdyn.integrate:m", "m",
     lambda v: cd.integrate(STATE, Coupling(0), 1.0, 1.0, steps=4, m=v), False, True),
    ("classdyn.closure_period:omega", "omega", lambda v: cd.closure_period(Coupling(0), v),
     False, True),
    ("aniso.lissajous:A1", "A1", lambda v: an.lissajous(v, 0, 0, 1, FREQ, 0.5), False, False),
    ("aniso.lissajous:B1", "B1", lambda v: an.lissajous(1, v, 0, 1, FREQ, 0.5), False, False),
    ("aniso.lissajous:A2", "A2", lambda v: an.lissajous(1, 0, v, 1, FREQ, 0.5), False, False),
    ("aniso.lissajous:B2", "B2", lambda v: an.lissajous(1, 0, 0, v, FREQ, 0.5), False, False),
    ("aniso.lissajous:t", "t", lambda v: an.lissajous(1, 0, 0, 1, FREQ, v), False, False),
    ("phasealg.poly.PhasePoly.evaluate:t", "t", lambda v: POLY.evaluate(POINT, v), False, False),
    *((f"cli.RunConfig:{name}", name, lambda v, name=name: RunConfig(**{name: v}), False, True)
      for name in ("m", "omega", "hbar")),
    ("classdyn.position:t", "t", lambda v: cd.position(ORBIT, v), False, False),
    ("classdyn.velocity:t", "t", lambda v: cd.velocity(ORBIT, v), False, False),
    ("classdyn.momentum:t", "t", lambda v: cd.momentum(ORBIT, v), False, False),
    ("classdyn.momentum:m", "m", lambda v: cd.momentum(ORBIT, 0.5, v), False, True),
    ("classdyn.state_from_params:t", "t", lambda v: cd.state_from_params(ORBIT, v), False, False),
    ("classdyn.state_from_params:m", "m", lambda v: cd.state_from_params(ORBIT, 0.5, v),
     False, True),
    ("classdyn.conserved_values:t", "t", lambda v: cd.conserved_values(ORBIT, v), False, False),
    ("classdyn.hamiltonian_flow_rhs:omega", "omega",
     lambda v: cd.hamiltonian_flow_rhs(STATE, Coupling(0), v), False, True),
    ("classdyn.hamiltonian_flow_rhs:m", "m",
     lambda v: cd.hamiltonian_flow_rhs(STATE, Coupling(0), 1.0, v), False, True),
    ("classdyn.hamiltonian_value:omega", "omega",
     lambda v: cd.hamiltonian_value(STATE, Coupling(0), v), False, True),
    ("classdyn.hamiltonian_value:m", "m",
     lambda v: cd.hamiltonian_value(STATE, Coupling(0), 1.0, v), False, True),
    ("classdyn.integrate_many:problems", "omega",
     lambda v: cd.integrate_many([PROBLEM, (STATE, Coupling(0), v, 1.0)], 4), False, True),
    ("classdyn.integrate_many:problems", "T",
     lambda v: cd.integrate_many([PROBLEM, (STATE, Coupling(0), 1.0, v)], 4), False, False),
    ("classdyn.integrate_many:m", "m", lambda v: cd.integrate_many([PROBLEM], 4, v), False, True),
]
# exact-only arguments of the exact ring and its units: ints and Fractions of any size, and
# nothing else, floats and numpy scalars included; (target, name in the message, call, positive)
EXACT_VALID = (2, F(1, 2), *OUT_OF_RANGE)
NOT_EXACT = NOT_REALS + (0.5, np.float64(0.25), np.int64(2))
EXACT_ONLY = [
    ("phasealg.poly.Params:m", "m", lambda v: Params(m=v), True),
    ("phasealg.poly.Params:omega", "omega", lambda v: Params(omega=v), True),
    *((f"phasealg.exact.ExactComplex:{name}", name,
       lambda v, name=name: ExactComplex(**{name: v}), False) for name in ("ar", "ai", "br", "bi")),
    ("phasealg.exact.ExactComplex.coerce:value", "value", ExactComplex.coerce, False),
    ("phasealg.poly.PhasePoly.constant:value", "value", lambda v: PhasePoly.constant(v, CIRCULAR),
     False),
    ("phasealg.poly.PhasePoly.variable:mu", "mu", lambda v: PhasePoly.variable("b1+", CIRCULAR, mu=v),
     False),
    # a negative q has no rational root: None
    ("phasealg.exact.rational_sqrt:q", "q", rational_sqrt, False),
    ("phasealg.exact.ring_sqrt:q", "q", ring_sqrt, False),
]
# complex arguments (coherent-state labels) through require_complex: any finite number, as a
# complex float; (target, name in the message, call taking the value)
VALID_COMPLEX = VALID + (0.3 - 0.4j, np.complex128(-0.2j))
NOT_COMPLEX = (True, None, "1", math.nan, math.inf, -math.inf, complex(math.nan, 0),
               complex(0, -math.inf), *OUT_OF_RANGE)
LABEL_CALLS = {  # each function with the other label 0.2j
    "coherent_state": br.coherent_state,
    "coherent_eigenvalues": br.coherent_eigenvalues,
    "evolved_labels": lambda a, b: br.evolved_labels(a, b, 0.1, Coupling(F(1, 3))),
    "expansion_coefficient": lambda a, b: br.expansion_coefficient(a, b, 1, 0),
    "coherent_checks": lambda a, b: br.coherent_checks(a, b, 0.1, 0.3, cutoff=4),
}
COMPLEX_ENTRY_POINTS = [
    *((f"bridge.{fn}:alpha", "alpha", lambda v, call=call: call(v, 0.2j))
      for fn, call in LABEL_CALLS.items()),
    *((f"bridge.{fn}:beta", "beta", lambda v, call=call: call(0.2j, v))
      for fn, call in LABEL_CALLS.items()),
]
COMPLEX_IDS = [row[0] for row in COMPLEX_ENTRY_POINTS]

# bad values that an argument gives a meaning to: a coupling string is parsed ("1" is g = 1),
# and None leaves emax unbounded
MEANINGFUL = {"coupling g": ("1",), "emax": (None,)}
# and bad strings of an argument that parses them: a coupling string that names no rational
UNPARSED = {"coupling g": ("1/0", "x")}
TARGETS = [target for target, *_ in ENTRY_POINTS]
IDS = [t if TARGETS.count(t) == 1 else f"{t}({name})" for t, name, *_ in ENTRY_POINTS]
EXACT = [(row, i) for row, i in zip(ENTRY_POINTS, IDS) if row[3]]


@pytest.mark.parametrize("value", VALID, ids=repr)
@pytest.mark.parametrize("target, name, call, exact, positive", ENTRY_POINTS, ids=IDS)
def test_valid_real_is_accepted(target, name, call, exact, positive, value):
    call(value)


@pytest.mark.parametrize("target, name, call, exact, positive", ENTRY_POINTS, ids=IDS)
def test_bad_value_raises_value_error_naming_the_argument(target, name, call, exact, positive):
    bad = (NOT_REALS + (() if exact else OUT_OF_RANGE) + (NOT_POSITIVE if positive else ())
           + UNPARSED.get(name, ()))
    for value in bad:
        if value in MEANINGFUL.get(name, ()):
            continue
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(value)


@pytest.mark.parametrize("target, name, call, exact, positive", [row for row, _ in EXACT],
                         ids=[i for _, i in EXACT])
def test_exact_arguments_keep_any_size(target, name, call, exact, positive):
    for value in OUT_OF_RANGE:
        call(value)


@pytest.mark.parametrize("value", VALID_COMPLEX, ids=repr)
@pytest.mark.parametrize("target, name, call", COMPLEX_ENTRY_POINTS, ids=COMPLEX_IDS)
def test_valid_complex_is_accepted(target, name, call, value):
    call(value)


@pytest.mark.parametrize("target, name, call", COMPLEX_ENTRY_POINTS, ids=COMPLEX_IDS)
def test_bad_complex_raises_value_error_naming_the_argument(target, name, call):
    for value in NOT_COMPLEX:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(value)


@pytest.mark.parametrize("value", EXACT_VALID, ids=repr)
@pytest.mark.parametrize("target, name, call, positive", EXACT_ONLY, ids=[r[0] for r in EXACT_ONLY])
def test_exact_value_is_accepted(target, name, call, positive, value):
    call(value)


@pytest.mark.parametrize("target, name, call, positive", EXACT_ONLY, ids=[r[0] for r in EXACT_ONLY])
def test_inexact_value_raises_value_error_naming_the_argument(target, name, call, positive):
    for value in NOT_EXACT + (NOT_POSITIVE if positive else ()):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
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


@pytest.mark.parametrize("value, message", [
    (math.nan, "z nan is not a finite complex number"),
    (complex(1, math.inf), "z (1+infj) is not a finite complex number"),
    (True, "z True is not a finite complex number"),
    ("1", "z '1' is not a finite complex number"),
    (None, "z None is not a finite complex number"),
    (10**400, "z lies outside the float range"),
    (F(1, 10**400), "z underflows to 0.0 as a float"),
])
def test_require_complex_messages(value, message):
    with pytest.raises(ValueError) as info:
        require_complex(value, "z")
    assert str(info.value) == message


def test_converted_complex_values():
    for value, want in ((3, 3 + 0j), (F(-1, 4), -0.25 + 0j), (0.5, 0.5 + 0j),
                        (np.complex128(1 - 2j), 1 - 2j), (-0.0j, -0.0j)):
        got = require_complex(value, "z")
        assert type(got) is complex and got == want


@pytest.mark.parametrize("check, value, message", [
    # a Fraction printed as Fraction(-1, 2) and Fraction(0, 1)
    (lambda v: require_real(v, "m", True), F(-1, 2), "m -1/2 is not a positive finite real"),
    (lambda v: require_real(v, "omega", True), F(0), "omega 0 is not a positive finite real"),
    # the integer rule prints a Fraction by repr: "n 4 is not an integer" contradicts itself
    (lambda v: require_int(v, "n"), F(1, 2), "n Fraction(1, 2) is not an integer >= 0"),
    (lambda v: require_int(v, "n", 1, 3), F(4), "n Fraction(4, 1) is not an integer in 1..3"),
    # anything else keeps its repr, a str its quotes
    (lambda v: coerce_real(v, "x"), "1/2", "x '1/2' is not a finite real"),
    (lambda v: require_int(v, "n"), 2.0, "n 2.0 is not an integer >= 0"),
    (lambda v: require_complex(v, "alpha"), "1", "alpha '1' is not a finite complex number"),
    (lambda v: require_real(v, "t"), None, "t None is not a finite real"),
])
def test_rejected_values_print_as_typed(check, value, message):
    with pytest.raises(ValueError) as info:
        check(value)
    assert str(info.value) == message


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
    # a 0-d array is an array: np.array(0.5) was refused as "not a finite real"
    assert an.lissajous(1, 0, 0, 1, FREQ, np.array(0.5)) == (x1[1], x2[1])
    for sample in (cd.position, cd.velocity, cd.momentum):
        x1, x2 = sample(ORBIT, np.array([0.0, 0.5]))
        assert x1.shape == x2.shape == (2,)
        assert sample(ORBIT, 0.5) == (x1[1], x2[1]) == sample(ORBIT, np.array(0.5))


def test_state_from_params_takes_one_time():
    # an array t raised TypeError in float(x1)
    with pytest.raises(ValueError, match=r"^t "):
        cd.state_from_params(ORBIT, np.array([0.0, 0.5]))
