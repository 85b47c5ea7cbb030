"""One integer-argument rule: every count, size, mode and quantum number goes through
require_int, which takes a Python int in range and raises ValueError naming the argument
for anything else (bools, floats, strings, numpy integers)."""
from fractions import Fraction as F

import numpy as np
import pytest

from riaho import aniso as an
from riaho import bridge as br
from riaho import classdyn as cd
from riaho import fockeng as fe
from riaho.coupling import Coupling
from riaho.phasealg import CANONICAL, PhasePoly
from riaho.phasealg.catalog import (hidden_integral, hidden_shift, is_true_integral,
                                    true_integral_coupling)
from riaho.phasealg.poly import krawtchouk_rows

FREQ = an.FrequencyPair(1, 3)
FREQ_FLOAT = an.FrequencyPair(1.0, 2.0)
G13 = Coupling(F(1, 3))
PSI = br.ground_state()
NOT_INTS = (True, False, 1.5, 2.0, "2", np.int64(2))

# (target parameter, name in the message, call taking the value, a valid value, lo, hi);
# lo None: any int is in range, and the message names no bounds
ENTRY_POINTS = [
    ("fockeng.FockBasis:cutoff", "cutoff", lambda v: fe.FockBasis(v), 2, 1, None),
    ("fockeng.FockBasis.index:n1", "n1", lambda v: fe.FockBasis(3).index(v, 0), 1, None, None),
    ("fockeng.FockBasis.index:n2", "n2", lambda v: fe.FockBasis(3).index(0, v), 1, None, None),
    ("fockeng.FockBasis.state:i", "i", lambda v: fe.FockBasis(3).state(v), 2, None, None),
    ("fockeng.InteriorMask:margin1", "margin1",
     lambda v: fe.InteriorMask(fe.FockBasis(4), margin1=v), 1, 0, None),
    ("fockeng.InteriorMask:margin2", "margin2",
     lambda v: fe.InteriorMask(fe.FockBasis(4), margin2=v), 1, 0, None),
    ("fockeng.ladder:mode", "mode", lambda v: fe.ladder(fe.FockBasis(2), v, "+"), 2, 1, 2),
    ("fockeng.exact_energy:n1", "n1", lambda v: fe.exact_energy(G13, v, 0), 2, 0, None),
    ("fockeng.exact_energy:n2", "n2", lambda v: fe.exact_energy(G13, 0, v), 2, 0, None),
    ("fockeng.hidden_operator:s1", "s1",
     lambda v: fe.hidden_operator(fe.FockBasis(2), G13, "L", v, 2), 1, 0, None),
    ("fockeng.hidden_operator:s2", "s2",
     lambda v: fe.hidden_operator(fe.FockBasis(2), G13, "L", 1, v), 2, 0, None),
    ("fockeng.hidden_coefficient:s1", "s1", lambda v: fe.hidden_coefficient("L", v, 2, 1, 3),
     1, 0, None),
    ("fockeng.hidden_coefficient:s2", "s2", lambda v: fe.hidden_coefficient("L", 1, v, 1, 3),
     2, 0, None),
    ("fockeng.hidden_coefficient:n1", "n1", lambda v: fe.hidden_coefficient("L", 1, 2, v, 3),
     1, 0, None),
    ("fockeng.hidden_coefficient:n2", "n2", lambda v: fe.hidden_coefficient("L", 1, 2, 1, v),
     3, 0, None),
    ("fockeng.hidden_orbit_partition:s1", "s1",
     lambda v: fe.hidden_orbit_partition(fe.FockBasis(3), G13, "L", v, 2), 1, 0, None),
    ("fockeng.hidden_orbit_partition:s2", "s2",
     lambda v: fe.hidden_orbit_partition(fe.FockBasis(3), G13, "L", 1, v), 2, 0, None),
    ("fockeng.ladder_orbits:step", "step", lambda v: fe.ladder_orbits([(0, 2), (1, 1)], (v, -1)),
     1, None, None),
    ("fockeng.hermite_rows:n", "n", lambda v: next(fe.hermite_rows(v)), 3, 0, None),
    ("fockeng.one_mode_bridge_unnormalized:size", "size", fe.one_mode_bridge_unnormalized,
     4, 1, None),
    ("fockeng.verify_one_mode_bridge:size", "size", fe.verify_one_mode_bridge, 3, 3, None),
    ("fockeng.one_mode_bridge:cutoff", "cutoff", fe.one_mode_bridge, 4, 0, 98),
    ("fockeng.verify_quantum_bridge:cutoff", "cutoff", fe.verify_quantum_bridge, 3, 3, 98),
    ("bridge.ZPolynomial.monomial:n1", "n1", lambda v: br.ZPolynomial.monomial(v, 0), 1, 0, None),
    ("bridge.ZPolynomial.monomial:n2", "n2", lambda v: br.ZPolynomial.monomial(0, v), 1, 0, None),
    ("bridge.ZPolynomial.shift:d1", "d1", lambda v: br.ZPolynomial({(1, 1): 1.0}).shift(v, 0),
     1, None, None),
    ("bridge.ZPolynomial.shift:d2", "d2", lambda v: br.ZPolynomial({(1, 1): 1.0}).shift(0, v),
     1, None, None),
    ("bridge.apply_ladder:mode", "mode", lambda v: br.apply_ladder(PSI, v, "+"), 1, 1, 2),
    ("bridge.eigenstate:n1", "n1", lambda v: br.eigenstate(v, 0), 1, 0, None),
    ("bridge.eigenstate:n2", "n2", lambda v: br.eigenstate(0, v), 1, 0, None),
    ("bridge.overlap_matrix:nmax", "nmax", br.overlap_matrix, 1, 0, None),
    ("bridge.verify_bridge_proportionality:n1", "n1",
     lambda v: br.verify_bridge_proportionality(v, 0), 1, 0, None),
    ("bridge.verify_bridge_proportionality:n2", "n2",
     lambda v: br.verify_bridge_proportionality(0, v), 1, 0, None),
    ("bridge.grid_proportionality:n1", "n1",
     lambda v: br.grid_proportionality(v, 0, PSI.evaluate, PSI.evaluate, 1.0), 1, 0, None),
    ("bridge.grid_proportionality:n2", "n2",
     lambda v: br.grid_proportionality(0, v, PSI.evaluate, PSI.evaluate, 1.0), 1, 0, None),
    ("bridge.inverse_weierstrass:n", "n", br.inverse_weierstrass, 4, 0, None),
    ("bridge.expansion_coefficient:n1", "n1", lambda v: br.expansion_coefficient(0.5, 0.2j, v, 0),
     2, 0, None),
    ("bridge.expansion_coefficient:n2", "n2", lambda v: br.expansion_coefficient(0.5, 0.2j, 0, v),
     2, 0, None),
    ("bridge.coherent_checks:cutoff", "cutoff",
     lambda v: br.coherent_checks(0.5, 0.2j, 0.1, 0.3, cutoff=v), 2, 0, 170),
    ("aniso.spectrum:n1", "n1", lambda v: an.spectrum(FREQ, "+", v, 0), 2, 0, None),
    ("aniso.spectrum:n2", "n2", lambda v: an.spectrum(FREQ_FLOAT, "-", 0, v), 2, 0, None),
    ("aniso.so11_invariant_check:cutoff", "cutoff", an.so11_invariant_check, 2, 1, None),
    ("aniso.hermite_eigenstate:n1", "n1", lambda v: an.hermite_eigenstate(v, 0, FREQ), 2, 0, None),
    ("aniso.hermite_eigenstate:n2", "n2", lambda v: an.hermite_eigenstate(0, v, FREQ), 2, 0, None),
    ("aniso.mode_constant:n", "n", lambda v: an.mode_constant(v, 1.0), 2, 0, None),
    ("aniso.aniso_proportionality:n1", "n1", lambda v: an.aniso_proportionality(v, 0, FREQ),
     1, 0, None),
    ("aniso.aniso_proportionality:n2", "n2", lambda v: an.aniso_proportionality(0, v, FREQ),
     1, 0, None),
    ("classdyn.integrate:steps", "steps",
     lambda v: cd.integrate([1.0, 0.0, 0.0, 1.0], Coupling(0), 1.0, 1.0, steps=v), 2, 1, None),
    ("classdyn.integrate_many:steps", "steps",
     lambda v: cd.integrate_many([([1.0, 0.0, 0.0, 1.0], Coupling(0), 1.0, 1.0)], v), 2, 1, None),
    ("phasealg.catalog.hidden_shift:s1", "s1", lambda v: hidden_shift("L", v, 1), 2, 0, None),
    ("phasealg.catalog.hidden_shift:s2", "s2", lambda v: hidden_shift("J", 1, v), 2, 0, None),
    ("phasealg.catalog.hidden_integral:s1", "s1", lambda v: hidden_integral(G13, "L", v, 2),
     1, 0, None),
    ("phasealg.catalog.hidden_integral:s2", "s2", lambda v: hidden_integral(G13, "L", 1, v),
     2, 0, None),
    ("phasealg.catalog.is_true_integral:s1", "s1", lambda v: is_true_integral(G13, "L", v, 2),
     1, 0, None),
    ("phasealg.catalog.is_true_integral:s2", "s2", lambda v: is_true_integral(G13, "L", 1, v),
     2, 0, None),
    ("phasealg.catalog.true_integral_coupling:s1", "s1",
     lambda v: true_integral_coupling("L", v, 2), 1, 0, None),
    ("phasealg.catalog.true_integral_coupling:s2", "s2",
     lambda v: true_integral_coupling("L", 1, v), 2, 0, None),
    ("phasealg.poly.PhasePoly.__pow__:n", "power",
     lambda v: PhasePoly.variable("x1", CANONICAL) ** v, 2, 0, None),
    ("phasealg.poly.krawtchouk_rows:n", "n", krawtchouk_rows, 3, 0, None),
]
TARGETS = [target for target, *_ in ENTRY_POINTS]
IDS = [t if TARGETS.count(t) == 1 else f"{t}({name})" for t, name, *_ in ENTRY_POINTS]
BOUNDED = [(row, i) for row, i in zip(ENTRY_POINTS, IDS) if row[4] is not None]


@pytest.mark.parametrize("target, name, call, good, lo, hi", ENTRY_POINTS, ids=IDS)
def test_valid_int_is_accepted(target, name, call, good, lo, hi):
    call(good)


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("target, name, call, good, lo, hi", ENTRY_POINTS, ids=IDS)
def test_non_int_raises_value_error_naming_the_argument(target, name, call, good, lo, hi, value):
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} {value!r} is not an integer{bounds}"


@pytest.mark.parametrize("target, name, call, good, lo, hi", [row for row, _ in BOUNDED],
                         ids=[i for _, i in BOUNDED])
def test_out_of_range_raises_value_error_naming_the_argument(target, name, call, good, lo, hi):
    for value in (lo - 1,) if hi is None else (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=f"^{name} {value} is not an integer"):
            call(value)


@pytest.mark.parametrize("call", [
    # silently accepted before
    lambda: fe.exact_energy(Coupling(F(1, 3)), 1.5, 0),
    lambda: fe.exact_energy(Coupling(F(1, 3)), True, 0),
    lambda: an.spectrum(an.FrequencyPair(1, 3), "+", 1.5, 0),
    lambda: br.ZPolynomial.monomial(True, 0),
    lambda: fe.ladder(fe.FockBasis(2), True, "+"),
    lambda: br.apply_ladder(br.ground_state(), 1.0, "+"),
    # TypeError before
    lambda: br.inverse_weierstrass(1.5),
    lambda: list(fe.hermite_rows(1.5)),
    lambda: an.hermite_eigenstate(1.5, 0, FREQ),
    lambda: an.mode_constant(1.5, 1.0),
    lambda: br.expansion_coefficient(0.5, 0.2j, 1.5, 0),
    lambda: br.coherent_checks(0.5, 0.2j, 0.1, 0.3, cutoff=1.5),
    lambda: PhasePoly.variable("x1", CANONICAL) ** 1.5,
    lambda: fe.ladder(fe.FockBasis(2), 1.0, "+"),
    # numpy integers: taken by some entry points, refused by others before
    lambda: cd.integrate([1.0, 0.0, 0.0, 1.0], Coupling(0), 1.0, 1.0, steps=np.int64(2)),
    lambda: an.spectrum(FREQ, "+", np.int64(1), 0),
    lambda: fe.FockBasis(np.int64(3)),
    lambda: br.eigenstate(np.int64(1), 0),
    lambda: fe.hidden_coefficient("L", 1, 2, np.int64(1), 0),
    lambda: fe.one_mode_bridge(np.int64(3)),
])
def test_formerly_disagreeing_inputs_raise_value_error(call):
    with pytest.raises(ValueError, match="is not an integer"):
        call()


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("name, call", [
    ("n1", lambda v: fe.FockBasis(3).index(v, 0)),
    ("n2", lambda v: fe.FockBasis(3).index(0, v)),
    ("i", lambda v: fe.FockBasis(3).state(v)),
])
def test_basis_index_and_state_take_ints_only(name, call, value):
    # index(1.5, 0) returned 6.0 and state(2.5) returned (0.0, 2.5)
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} {value!r} is not an integer"


@pytest.mark.parametrize("call", [
    lambda b: b.index(-1, 0), lambda b: b.index(4, 0), lambda b: b.index(0, 4),
    lambda b: b.state(-1), lambda b: b.state(16),
])
def test_basis_index_and_state_off_the_grid_raise_index_error(call):
    with pytest.raises(IndexError):
        call(fe.FockBasis(3))


@pytest.mark.parametrize("mask", [fe.InteriorMask(fe.FockBasis(5), 1, 2),
                                  fe.InteriorMask(fe.FockBasis(2), 2, 2)])
def test_interior_indices_are_the_checked_indices(mask):
    # computed on an int array, with no per-state call of FockBasis.index
    indices = mask.indices()
    assert indices.dtype == np.array([0]).dtype
    assert indices.tolist() == [mask.basis.index(n1, n2) for n1, n2 in mask.states()]


@pytest.mark.parametrize("key", [(True, 0), (0, 1.0), (0, -1), 5, (1,), (1, 2, 3), "ab",
                                 frozenset({3, 1}), range(2, 4)])
def test_zpolynomial_exponents_are_ints(key):
    # the per-term check keeps its inline type test; isinstance let bools in; a key that
    # is not a pair raised TypeError or an unpacking error that named nothing; a set or a
    # range unpacked as the pair (1, 3) or (2, 3)
    with pytest.raises(ValueError, match="^terms: a term key "):
        br.ZPolynomial({key: 1.0})


@pytest.mark.parametrize("key,rule", [
    ((1,), "is (n1, n2)"), ((0, -1), "needs int exponents >= 0"),
    ((True, 0), "needs int exponents >= 0"), (range(2, 4), "is (n1, n2)"),
])
def test_zpolynomial_bad_key_names_terms_and_the_key(key, rule):
    # the error said "bad exponents ...", naming no argument; it now reads as PhasePoly's
    # "a term key is ..." and shows the key as given
    with pytest.raises(ValueError) as err:
        br.ZPolynomial({key: 1.0})
    assert str(err.value) == f"terms: a term key {rule}, got {key!r}"

