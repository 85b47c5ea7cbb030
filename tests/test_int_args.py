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
from riaho.phasealg.catalog import hidden_shift
from riaho.phasealg.poly import krawtchouk_rows

FREQ = an.FrequencyPair(1, 3)
FREQ_FLOAT = an.FrequencyPair(1.0, 2.0)
NOT_INTS = (True, False, 1.5, 2.0, "2", np.int64(2))

# (name in the message, call taking the value, a valid value, lo, hi)
ENTRY_POINTS = [
    ("cutoff", lambda v: fe.FockBasis(v), 2, 1, None),
    ("margin1", lambda v: fe.InteriorMask(fe.FockBasis(4), margin1=v), 1, 0, None),
    ("margin2", lambda v: fe.InteriorMask(fe.FockBasis(4), margin2=v), 1, 0, None),
    ("total", lambda v: fe.InteriorMask(fe.FockBasis(4), total=v), 3, 0, None),
    ("mode", lambda v: fe.ladder(fe.FockBasis(2), v, "+"), 2, 1, 2),
    ("mode", lambda v: fe.number_operator(fe.FockBasis(2), v), 1, 1, 2),
    ("n1", lambda v: fe.exact_energy(Coupling(F(1, 3)), v, 0), 2, 0, None),
    ("n2", lambda v: fe.exact_energy(Coupling(F(1, 3)), 0, v), 2, 0, None),
    ("n1", lambda v: fe.hidden_coefficient("L", 1, 2, v, 3), 1, 0, None),
    ("n2", lambda v: fe.hidden_coefficient("L", 1, 2, 1, v), 3, 0, None),
    ("n", lambda v: next(fe.hermite_rows(v)), 3, 0, None),
    ("size", fe.one_mode_bridge_unnormalized, 4, 1, None),
    ("size", fe.verify_one_mode_bridge, 3, 3, None),
    ("cutoff", fe.one_mode_bridge, 4, 0, 98),
    ("n1", lambda v: br.monomial_state(v, 0), 1, 0, None),
    ("n2", lambda v: br.monomial_state(0, v), 1, 0, None),
    ("mode", lambda v: br.apply_ladder(br.ground_state(), v, "+"), 1, 1, 2),
    ("n1", lambda v: br.eigenstate(v, 0), 1, 0, None),
    ("n2", lambda v: br.eigenstate(0, v), 1, 0, None),
    ("n1", lambda v: br.orthonormality(v, 0, 0, 0), 1, 0, 6),
    ("n2", lambda v: br.orthonormality(0, v, 0, 0), 1, 0, 6),
    ("l1", lambda v: br.orthonormality(0, 0, v, 0), 1, 0, 6),
    ("l2", lambda v: br.orthonormality(0, 0, 0, v), 1, 0, 6),
    ("nmax", br.overlap_matrix, 1, 0, None),
    ("order", lambda v: br.inner_product(br.ground_state(), br.ground_state(), order=v), 4, 1, None),
    ("n", br.inverse_weierstrass, 4, 0, None),
    ("n1", lambda v: br.expansion_coefficient(0.5, 0.2j, v, 0), 2, 0, None),
    ("n2", lambda v: br.expansion_coefficient(0.5, 0.2j, 0, v), 2, 0, None),
    ("cutoff", lambda v: br.coherent_checks(0.5, 0.2j, 0.1, 0.3, cutoff=v), 2, 0, 170),
    ("l1", lambda v: an.FrequencyPair(3, 1, v, 3), 1, 1, None),
    ("l2", lambda v: an.FrequencyPair(3, 1, 1, v), 3, 1, None),
    ("n1", lambda v: an.spectrum(FREQ, "+", v, 0), 2, 0, None),
    ("n2", lambda v: an.spectrum(FREQ_FLOAT, "-", 0, v), 2, 0, None),
    ("exponent n1", lambda v: an.aniso_cbt_apply({(v, 0): 1.0}, FREQ), 2, 0, None),
    ("exponent n2", lambda v: an.aniso_cbt_apply({(0, v): 1.0}, FREQ), 2, 0, None),
    ("n1", lambda v: an.hermite_eigenstate(v, 0, FREQ), 2, 0, None),
    ("n2", lambda v: an.hermite_eigenstate(0, v, FREQ), 2, 0, None),
    ("n", lambda v: an.mode_constant(v, 1.0), 2, 0, None),
    ("cutoff", lambda v: an.composite_spectrum_check(Coupling(F(1, 3)), cutoff=v), 2, 0, None),
    ("steps", lambda v: cd.integrate([1.0, 0.0, 0.0, 1.0], Coupling(0), 1.0, 1.0, steps=v),
     2, 1, None),
    ("s1", lambda v: hidden_shift("L", v, 1), 2, 0, None),
    ("s2", lambda v: hidden_shift("J", 1, v), 2, 0, None),
    ("power", lambda v: PhasePoly.variable("x1", CANONICAL) ** v, 2, 0, None),
    ("n", krawtchouk_rows, 3, 0, None),
    ("steps", lambda v: cd.integrate_many([([1.0, 0.0, 0.0, 1.0], Coupling(0), 1.0, 1.0)], v),
     2, 1, None),
]
IDS = [f"{name}-{i}" for i, (name, *_) in enumerate(ENTRY_POINTS)]


@pytest.mark.parametrize("name, call, good, lo, hi", ENTRY_POINTS, ids=IDS)
def test_valid_int_is_accepted(name, call, good, lo, hi):
    call(good)


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("name, call, good, lo, hi", ENTRY_POINTS, ids=IDS)
def test_non_int_raises_value_error_naming_the_argument(name, call, good, lo, hi, value):
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} {value!r} is not an integer {bounds}"


@pytest.mark.parametrize("name, call, good, lo, hi", ENTRY_POINTS, ids=IDS)
def test_out_of_range_raises_value_error_naming_the_argument(name, call, good, lo, hi):
    for value in (lo - 1,) if hi is None else (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=f"^{name} {value} is not an integer"):
            call(value)


@pytest.mark.parametrize("call", [
    # silently accepted before: a truncated label, a string label, a bool label
    lambda: an.FrequencyPair(3, 1, 1.9, 3),
    lambda: an.FrequencyPair(3, 1, "1", "3"),
    lambda: an.FrequencyPair(3, 1, True, 3),
    lambda: fe.exact_energy(Coupling(F(1, 3)), 1.5, 0),
    lambda: fe.exact_energy(Coupling(F(1, 3)), True, 0),
    lambda: an.spectrum(an.FrequencyPair(1, 3), "+", 1.5, 0),
    lambda: an.composite_spectrum_check(Coupling(F(1, 3)), cutoff=True),
    lambda: br.monomial_state(True, 0),
    lambda: an.aniso_cbt_apply({(True, 0): 1.0}, FREQ),
    lambda: fe.ladder(fe.FockBasis(2), True, "+"),
    lambda: fe.number_operator(fe.FockBasis(2), 2.0),
    lambda: br.apply_ladder(br.ground_state(), 1.0, "+"),
    # TypeError before
    lambda: br.inverse_weierstrass(1.5),
    lambda: list(fe.hermite_rows(1.5)),
    lambda: an.hermite_eigenstate(1.5, 0, FREQ),
    lambda: an.mode_constant(1.5, 1.0),
    lambda: br.expansion_coefficient(0.5, 0.2j, 1.5, 0),
    lambda: an.composite_spectrum_check(Coupling(F(1, 3)), cutoff=1.5),
    lambda: br.coherent_checks(0.5, 0.2j, 0.1, 0.3, cutoff=1.5),
    lambda: PhasePoly.variable("x1", CANONICAL) ** 1.5,
    lambda: fe.ladder(fe.FockBasis(2), 1.0, "+"),
    # numpy integers: taken by some entry points, refused by others before
    lambda: cd.integrate([1.0, 0.0, 0.0, 1.0], Coupling(0), 1.0, 1.0, steps=np.int64(2)),
    lambda: an.spectrum(FREQ, "+", np.int64(1), 0),
    lambda: an.aniso_cbt_apply({(np.int64(1), 0): 1.0}, FREQ),
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


@pytest.mark.parametrize("mask", [
    fe.InteriorMask(fe.FockBasis(5), 1, 2, total=6), fe.InteriorMask(fe.FockBasis(2), total=0),
])
def test_interior_indices_are_the_checked_indices(mask):
    # computed on an int array, with no per-state call of FockBasis.index
    indices = mask.indices()
    assert indices.dtype == np.array([0]).dtype
    assert indices.tolist() == [mask.basis.index(n1, n2) for n1, n2 in mask.states()]


@pytest.mark.parametrize("key", [(1, 2, 3), (1,), "ab", 5])
def test_aniso_exponents_must_be_a_pair(key):
    # a 3-tuple key used its first two entries
    with pytest.raises(ValueError, match="not a pair"):
        an.aniso_cbt_apply({key: 1.0}, FREQ)


@pytest.mark.parametrize("key", [(True, 0), (0, 1.0), (0, -1)])
def test_zpolynomial_exponents_are_ints(key):
    # the per-term check keeps its inline type test; isinstance let bools in
    with pytest.raises(ValueError, match="bad exponents"):
        br.ZPolynomial({key: 1.0})

