"""One choice-argument rule: every sign, direction, kind, basis, variable, generator, gallery and
format name goes through require_choice, which takes a Python str among its choices and raises
ValueError naming the argument, the value and the choices for anything else (wrong strings,
ints, bools, None, lists, numpy strings and numpy arrays)."""
from fractions import Fraction as F

import numpy as np
import pytest

from riaho import aniso as an
from riaho import bridge as br
from riaho import classdyn as cd
from riaho import fockeng as fe
from riaho.cli import RunConfig
from riaho.coupling import Coupling
from riaho.phasealg import CANONICAL, CIRCULAR, GENERATOR_NAMES, PhasePoly
from riaho.phasealg.catalog import (generator, hidden_integral, hidden_shift, is_true_integral,
                                    true_integral_coupling)
from riaho.phasealg.exact import require_choice

G13 = Coupling(F(1, 3))
BASIS = fe.FockBasis(2)
FREQ = an.FrequencyPair(1, 3, 3, 1)
PSI = br.ground_state()
X1 = PhasePoly.variable("x1", CANONICAL)
SIGNS = ("+", "-")
KINDS = ("L", "J")
BASES = (CANONICAL, CIRCULAR)
FREE = ("H", "K", "D2i", "Pphi", "Pplus", "Pminus", "XiPlus", "XiMinus")


def not_choices(good):
    """A wrong string, an int, a bool, None, and the valid choice as a list, a numpy string
    and a one-element numpy array."""
    return ("bogus", 1, True, None, [good], np.str_(good), np.array([good]))


# (target parameter, name in the message, call taking the value, a valid value, the choices)
ENTRY_POINTS = [
    ("fockeng.ladder:direction", "direction", lambda v: fe.ladder(BASIS, 1, v), "+", SIGNS),
    ("fockeng.hidden_operator:kind", "kind",
     lambda v: fe.hidden_operator(BASIS, G13, v, 1, 2), "L", KINDS),
    ("fockeng.hidden_operator:sign", "sign",
     lambda v: fe.hidden_operator(BASIS, G13, "L", 1, 2, v), "-", SIGNS),
    ("fockeng.hidden_coefficient:kind", "kind", lambda v: fe.hidden_coefficient(v, 1, 2, 1, 3),
     "J", KINDS),
    ("fockeng.hidden_orbit_partition:kind", "kind",
     lambda v: fe.hidden_orbit_partition(BASIS, G13, v, 1, 2), "L", KINDS),
    ("aniso.spectrum:sign", "sign", lambda v: an.spectrum(FREQ, v, 1, 1), "-", SIGNS),
    ("aniso.signed_hamiltonian:sign", "sign", lambda v: an.signed_hamiltonian(BASIS, FREQ, v),
     "+", SIGNS),
    ("aniso.verify_signed_spectrum:sign", "sign",
     lambda v: an.verify_signed_spectrum(BASIS, FREQ, v), "-", SIGNS),
    ("aniso.degeneracy_partition:sign", "sign", lambda v: an.degeneracy_partition(BASIS, FREQ, v),
     "+", SIGNS),
    ("aniso.hidden_operator:kind", "kind", lambda v: an.hidden_operator(BASIS, FREQ, v), "J",
     KINDS),
    ("aniso.hidden_operator:sign", "sign", lambda v: an.hidden_operator(BASIS, FREQ, "L", v),
     "-", SIGNS),
    ("aniso.hidden_orbits:kind", "kind", lambda v: an.hidden_orbits(BASIS, FREQ, v), "L", KINDS),
    ("bridge.apply_ladder:direction", "direction", lambda v: br.apply_ladder(PSI, 1, v), "+",
     SIGNS),
    ("bridge.act_free:generator", "generator", lambda v: br.act_free(v, PSI.prefactor), "K",
     FREE),
    ("classdyn.gallery_params:which", "gallery", cd.gallery_params, "cusps", ("orbits", "cusps")),
    ("phasealg.catalog.hidden_shift:kind", "kind", lambda v: hidden_shift(v, 1, 2), "J", KINDS),
    ("phasealg.catalog.hidden_integral:kind", "kind", lambda v: hidden_integral(G13, v, 1, 2),
     "L", KINDS),
    ("phasealg.catalog.hidden_integral:sign", "sign",
     lambda v: hidden_integral(G13, "L", 1, 2, v), "-", SIGNS),
    ("phasealg.catalog.is_true_integral:kind", "kind", lambda v: is_true_integral(G13, v, 1, 2),
     "J", KINDS),
    ("phasealg.catalog.true_integral_coupling:kind", "kind",
     lambda v: true_integral_coupling(v, 1, 2), "L", KINDS),
    ("phasealg.catalog.generator:name", "generator", lambda v: generator(v, G13), "L+",
     GENERATOR_NAMES),
    ("phasealg.poly.PhasePoly:basis", "basis", PhasePoly, CIRCULAR, BASES),
    ("phasealg.poly.PhasePoly.zero:basis", "basis", PhasePoly.zero, CANONICAL, BASES),
    ("phasealg.poly.PhasePoly.constant:basis", "basis", lambda v: PhasePoly.constant(2, v),
     CIRCULAR, BASES),
    ("phasealg.poly.PhasePoly.variable:name", "variable",
     lambda v: PhasePoly.variable(v, CANONICAL), "p2", ("x1", "x2", "p1", "p2")),
    ("phasealg.poly.PhasePoly.variable:basis", "basis", lambda v: PhasePoly.variable("x1", v),
     CANONICAL, BASES),
    # X1's own basis: to_basis checks the name before it returns the polynomial unchanged
    ("phasealg.poly.PhasePoly.to_basis:basis", "basis", X1.to_basis, CANONICAL, BASES),
    ("cli.RunConfig:format", "format", lambda v: RunConfig(format=v), "json", ("csv", "json")),
]
IDS = [row[0] for row in ENTRY_POINTS]


def test_each_target_has_one_row():
    assert len(set(IDS)) == len(IDS) == 28


@pytest.mark.parametrize("target, name, call, good, choices", ENTRY_POINTS, ids=IDS)
def test_valid_choice_is_accepted(target, name, call, good, choices):
    call(good)


@pytest.mark.parametrize("target, name, call, good, choices", ENTRY_POINTS, ids=IDS)
def test_non_choice_raises_value_error_naming_the_argument(target, name, call, good, choices):
    for value in not_choices(good):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} {value!r} is not one of {', '.join(map(repr, choices))}"


class _Hostile(str):
    """A str subclass whose comparisons and hash raise: the rule must not reach them."""

    def __eq__(self, other):
        raise AssertionError("compared")

    def __hash__(self):
        raise AssertionError("hashed")


def test_rule_returns_the_value_and_reads_dict_keys():
    assert require_choice("b", "letter", ("a", "b")) == "b"
    assert require_choice("b", "letter", {"a": 1, "b": 2}) == "b"
    with pytest.raises(ValueError, match=r"^letter 'c' is not one of 'a', 'b'$"):
        require_choice("c", "letter", {"a": 1, "b": 2})


@pytest.mark.parametrize("value", [_Hostile("a"), np.array(["a", "b"]), ["a"], {"a"}],
                         ids=["str subclass", "array", "list", "set"])
def test_rule_tests_the_type_before_membership(value):
    with pytest.raises(ValueError, match=r"^letter .* is not one of 'a', 'b'$"):
        require_choice(value, "letter", {"a": 1, "b": 2})
