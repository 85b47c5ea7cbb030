"""Truncated Fock engine: spectrum, hidden ladders, mode bridges.

Frozen amplitudes below were derived by hand from the ladder algebra
(sqrt(n) / sqrt(n+1) factors) and from column-by-column application of the
factored one-mode bridge to low unnormalized states.
"""
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from riaho.coupling import Coupling
from riaho.phasealg.catalog import hidden_shift
from riaho.phasealg.exact import ExactComplex
from riaho import aniso, fockeng as fe
from riaho.reports import check

F = Fraction


def ket(basis, n1, n2):
    """Unit vector of grid state (n1, n2)."""
    v = np.zeros(basis.dim)
    v[basis.index(n1, n2)] = 1.0
    return v


class TestBasis:
    def test_dim_and_roundtrip(self):
        b = fe.FockBasis(5)
        assert b.dim == 36
        for i in range(b.dim):
            assert b.index(*b.state(i)) == i

    def test_row_major_order(self):
        b = fe.FockBasis(2)
        assert b.states() == [
            (0, 0), (0, 1), (0, 2),
            (1, 0), (1, 1), (1, 2),
            (2, 0), (2, 1), (2, 2),
        ]
        assert b.index(1, 2) == 5

    def test_bounds(self):
        b = fe.FockBasis(3)
        with pytest.raises(IndexError):
            b.index(4, 0)
        with pytest.raises(IndexError):
            b.state(16)
        with pytest.raises(ValueError):
            fe.FockBasis(0)
        with pytest.raises(ValueError):
            fe.FockBasis(True)


_BUILDERS = {
    "ladder": (lambda b: fe.ladder(b, 2, "-"), np.float64),
    "hamiltonian": (lambda b: fe.hamiltonian(b, Coupling(F(1, 3))), np.float64),
    "angular_momentum": (fe.angular_momentum, np.float64),
    "hidden_operator": (lambda b: fe.hidden_operator(b, Coupling(3), "J", 1, 2, "-"), np.float64),
    "rni_hamiltonian": (lambda b: fe.rni_hamiltonian(b, Coupling(F(1, 2))), np.float64),
    "aniso.signed_hamiltonian": (
        lambda b: aniso.signed_hamiltonian(b, aniso.FrequencyPair.detect(1, 3), "-"), np.float64),
    "aniso.hidden_operator": (
        lambda b: aniso.hidden_operator(b, aniso.FrequencyPair.detect(1, 3), "L"), np.float64),
    "cartesian_modes:a1-": (lambda b: fe.cartesian_modes(b)["a1-"], np.float64),
    "cartesian_modes:a1+": (lambda b: fe.cartesian_modes(b)["a1+"], np.float64),
    "cartesian_modes:a2-": (lambda b: fe.cartesian_modes(b)["a2-"], np.complex128),
    "cartesian_modes:a2+": (lambda b: fe.cartesian_modes(b)["a2+"], np.complex128),
    "su2_generators:L1": (lambda b: fe.su2_generators(b)[0], np.complex128),
    "su2_generators:L2": (lambda b: fe.su2_generators(b)[1], np.complex128),
    "su2_generators:L3": (lambda b: fe.su2_generators(b)[2], np.complex128),
    "unitary_bridge": (fe.unitary_bridge, np.complex128),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builders_return_plain_arrays(name):
    # operators are plain ndarrays on the row-major (n1, n2) grid, complex only where needed
    build, dtype = _BUILDERS[name]
    b = fe.FockBasis(3)
    op = build(b)
    assert type(op) is np.ndarray
    assert op.shape == (b.dim, b.dim)
    assert op.dtype == dtype


class TestLadders:
    def test_raising_amplitude(self):
        b = fe.FockBasis(4)
        up = fe.ladder(b, 1, "+")
        v = up @ ket(b, 2, 1)
        assert v[b.index(3, 1)] == pytest.approx(math.sqrt(3))

    def test_lowering_amplitude_and_vacuum(self):
        b = fe.FockBasis(4)
        dn = fe.ladder(b, 2, "-")
        v = dn @ ket(b, 1, 3)
        assert v[b.index(1, 2)] == pytest.approx(math.sqrt(3))
        assert np.allclose(dn @ ket(b, 2, 0), 0.0)

    def test_canonical_commutator_interior(self):
        b = fe.FockBasis(6)
        mask = fe.InteriorMask(b, margin1=1)
        comm = fe.commutator(fe.ladder(b, 1, "-"), fe.ladder(b, 1, "+"))
        block = mask.restrict_columns(comm - np.eye(b.dim))
        assert fe.operator_norm(block) < 1e-14

    def test_modes_commute(self):
        b = fe.FockBasis(5)
        comm = fe.commutator(fe.ladder(b, 1, "+"), fe.ladder(b, 2, "-"))
        assert fe.operator_norm(comm) < 1e-14

    def test_validation(self):
        b = fe.FockBasis(3)
        with pytest.raises(ValueError):
            fe.ladder(b, 3, "+")
        with pytest.raises(ValueError):
            fe.ladder(b, 1, "up")

    @pytest.mark.parametrize("mode", [1, 2])
    @pytest.mark.parametrize("direction", ["+", "-"])
    def test_matches_state_by_state_construction(self, mode, direction):
        b = fe.FockBasis(3)
        ref = np.zeros((b.dim, b.dim), dtype=complex)
        step = 1 if direction == "+" else -1
        for n1, n2 in b.states():
            n = (n1, n2)[mode - 1]
            tgt = (n1 + step, n2) if mode == 1 else (n1, n2 + step)
            if 0 <= n + step <= b.cutoff:
                ref[b.index(*tgt), b.index(n1, n2)] = math.sqrt(n + 1 if step > 0 else n)
        assert np.array_equal(fe.ladder(b, mode, direction), ref)

    @pytest.mark.parametrize("cutoff", range(1, 21))
    def test_kronecker_product_is_the_block_assembly(self, cutoff):
        b = fe.FockBasis(cutoff)
        for mode in (1, 2):
            lowering = fe._assemble(b, lambda total: fe._lowering(total, mode), -1)
            for direction, want in (("-", lowering), ("+", lowering.T)):
                got = fe.ladder(b, mode, direction)
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                                 want.tobytes())


class TestInteriorMask:
    def test_margins(self):
        b = fe.FockBasis(3)
        m = fe.InteriorMask(b, margin1=1, margin2=2)
        assert m.states() == [(n1, n2) for n1 in range(3) for n2 in range(2)]

    def test_total_budget(self):
        b = fe.FockBasis(4)
        m = fe.InteriorMask(b, total=2)
        assert set(m.states()) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}

    def test_restrict_shapes(self):
        b = fe.FockBasis(3)
        m = fe.InteriorMask(b, margin1=1, margin2=1)
        mat = np.arange(b.dim * b.dim, dtype=float).reshape(b.dim, b.dim)
        assert m.restrict_columns(mat).shape == (16, 9)

    def test_validation(self):
        b = fe.FockBasis(3)
        with pytest.raises(ValueError):
            fe.InteriorMask(b, margin1=-1)
        with pytest.raises(ValueError):
            fe.InteriorMask(b, margin2=4)

    @pytest.mark.parametrize("kw", [{"total": -1}, {"total": -5}, {"total": 1.5},
                                    {"total": "2"}, {"margin1": 0.5}, {"margin2": 1.0},
                                    {"margin1": True}])
    def test_negative_total_or_non_int_raises(self, kw):
        # total=-1 kept no state, so verify_commutes passed with residual 0.0;
        # margin1=0.5 was read as "n1 + 0.5 <= cutoff"
        with pytest.raises(ValueError, match="not an integer >= 0"):
            fe.InteriorMask(fe.FockBasis(4), **kw)

    def test_total_zero_keeps_the_vacuum(self):
        assert fe.InteriorMask(fe.FockBasis(4), total=0).states() == [(0, 0)]


class TestSpectrum:
    def test_ground_state_energy(self):
        # zero-point level is hbar*omega for every coupling
        for g in (0, F(1, 3), 1, 3, F(-1, 2)):
            assert fe.exact_energy(Coupling(F(g)), 0, 0) == 1

    def test_frozen_levels(self):
        assert fe.exact_energy(Coupling(F(1, 2)), 1, 0) == F(5, 2)
        assert fe.exact_energy(Coupling(3), 0, 1) == -1
        assert fe.exact_energy(Coupling(F(1, 3)), 1, 0) == F(7, 3)
        assert fe.exact_energy(Coupling(F(1, 3)), 0, 2) == F(7, 3)

    def test_negative_quantum_numbers(self):
        with pytest.raises(ValueError):
            fe.exact_energy(Coupling(0), -1, 0)

    def test_hamiltonian_diagonal(self):
        b = fe.FockBasis(5)
        c = Coupling(F(2, 3))
        h = fe.hamiltonian(b, c)
        off = h - np.diag(np.diag(h))
        assert fe.operator_norm(off) == 0.0
        for n1, n2 in b.states():
            i = b.index(n1, n2)
            assert h[i, i] == pytest.approx(float(fe.exact_energy(c, n1, n2)))

    def test_angular_momentum_conserved(self):
        b = fe.FockBasis(6)
        for g in (0, F(1, 3), 3):
            comm = fe.commutator(fe.hamiltonian(b, Coupling(F(g))), fe.angular_momentum(b))
            assert fe.operator_norm(comm) == 0.0

    @pytest.mark.parametrize("cutoff", [1, 3, 6, 9])
    def test_angular_momentum_values(self, cutoff):
        # in units of hbar, the entry of (n1, n2) is n1 - n2
        b = fe.FockBasis(cutoff)
        pphi = fe.angular_momentum(b)
        assert np.array_equal(pphi, np.diag([float(n1 - n2) for n1, n2 in b.states()]))


class TestNonFiniteEntries:
    """An operator whose float entries leave the float range raises ValueError, not inf or nan."""

    @pytest.mark.parametrize("g", [10**308, -10**308, F(3, 2) * 10**308])
    def test_rejected_without_warnings(self, g):
        # l1 - l2 = 2g overflows the hopping of H_rni
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="an entry of H_rni is not finite"):
                fe.rni_hamiltonian(fe.FockBasis(2), Coupling(g))


def _chain_level(w1, w2, sigma, n1, n2):
    """The float chain aniso once used for float frequencies, for contrast with the kernel."""
    return w1 * n1 + sigma * w2 * n2 + (w1 + sigma * w2) * 0.5


class TestLevelKernel:
    """fockeng._levels is the correctly rounded exact level, bit for bit."""

    @staticmethod
    def _weight_sets(rng):
        """(exact weights, float frequencies and sign or None) of H_g and of H^(sigma)."""
        couplings = [Coupling(1), Coupling(-1), Coupling(1, isotropic_mink=True),
                     Coupling(-1, isotropic_mink=True)]
        couplings += [Coupling(F(int(rng.integers(-99, 100)), int(rng.integers(1, 50))))
                      for _ in range(8)]
        out = [((c.ell1, c.ell2, 1), None) for c in couplings]
        for _ in range(12):
            exact = aniso.FrequencyPair(F(int(rng.integers(1, 10**6)), int(rng.integers(1, 999))),
                                        F(int(rng.integers(1, 10**6)), int(rng.integers(1, 999))))
            floats = aniso.FrequencyPair(*(float(rng.uniform(0.01, 50.0)) for _ in range(2)))
            for freq in (exact, floats):
                for sigma in (1, -1):
                    w1, w2 = F(freq.omega1), sigma * F(freq.omega2)
                    chain = None if freq.is_exact else (freq.omega1, freq.omega2, sigma)
                    out.append(((w1, w2, (w1 + w2) / 2), chain))
        return out

    @pytest.mark.parametrize("seed", [20261019, 7, 401])
    def test_seeded_sweep(self, seed):
        basis = fe.FockBasis(9)
        chain_differs = 0
        for weights, chain in self._weight_sets(np.random.default_rng(seed)):
            got = fe._levels(basis, weights, "H")
            w1, w2, w0 = weights
            want = [float(w1 * n1 + w2 * n2 + w0) for n1, n2 in basis.states()]
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64)), weights
            if chain is not None:
                old = [_chain_level(*chain, n1, n2) for n1, n2 in basis.states()]
                chain_differs += int(np.sum(got != np.array(old)))
        # the sweep reaches float pairs where the old chain missed the rounded level
        assert chain_differs > 0

    def test_zero_point_weight_is_explicit(self):
        # at isotropic_mink l1 + l2 = 0 while H_g keeps the constant 1
        c = Coupling(1, isotropic_mink=True)
        assert c.ell1 + c.ell2 == 0
        h = fe._levels(fe.FockBasis(2), (c.ell1, c.ell2, 1), "H_g")
        assert h[0] == 1.0 and np.array_equal(np.diag(fe.hamiltonian(fe.FockBasis(2), c)), h)


class TestLevelUnderflow:
    """A non-zero level whose correctly rounded float is 0.0 raises, as spectrum does; a level
    that is exactly zero stays 0.0."""

    def test_hamiltonian(self):
        # ell1 = 1 + g = -1 + 10^-400, so the level of (1, 0) is 10^-400
        c = Coupling(F(-2) + F(1, 10**400))
        with pytest.raises(ValueError, match="non-zero diagonal entry of H_g underflows to 0.0"):
            fe.hamiltonian(fe.FockBasis(1), c)
        # at g = -2 that level is exactly 0
        h = np.diag(fe.hamiltonian(fe.FockBasis(1), Coupling(-2)))
        assert h[fe.FockBasis(1).index(1, 0)] == 0.0

    def test_angular_momentum(self):
        # integer weights never underflow; n1 = n2 is exactly 0 and stays +0.0
        basis = fe.FockBasis(3)
        levels = np.diag(fe.angular_momentum(basis))
        for (n1, n2), level in zip(basis.states(), levels):
            assert (level == 0.0) == (n1 == n2)
            assert math.copysign(1.0, level) == (-1.0 if n1 < n2 else 1.0)

    def test_signed_hamiltonian(self):
        # w1 = 5e-324, w2 = 1e-323: the H(-) level of (0, 0) is -2.5e-324, below the least float
        freq = aniso.FrequencyPair(5e-324, 1e-323)
        with pytest.raises(ValueError, match="underflows to 0.0"):
            aniso.spectrum(freq, "-", 0, 0)
        with pytest.raises(ValueError, match=r"non-zero diagonal entry of H\(-\) underflows"):
            aniso.signed_hamiltonian(fe.FockBasis(1), freq, "-")
        # equal frequencies put the exact zeros of H(-) on n1 = n2
        equal = aniso.FrequencyPair(3, 3)
        levels = np.diag(aniso.signed_hamiltonian(fe.FockBasis(2), equal, "-"))
        assert [n1 == n2 for n1, n2 in fe.FockBasis(2).states()] == list(levels == 0.0)


# a resonant state's level scaled by 1 + 1e-6, or moved by one ulp
LEVEL_MUTANTS = {"scaled": lambda level: level * (1 + 1e-6),
                 "one-ulp": lambda level: np.nextafter(level, np.inf)}


def _mutate_level(monkeypatch, module, state, mutant, label=None):
    """Patch ``module._levels`` so the level of ``state`` (of the operator ``label``, or of
    every operator) goes through ``LEVEL_MUTANTS[mutant]``."""
    exact = module._levels

    def mutated(basis, weights, name):
        levels = exact(basis, weights, name).copy()
        if label in (None, name):
            i = basis.index(*state)
            levels[i] = LEVEL_MUTANTS[mutant](levels[i])
        return levels

    monkeypatch.setattr(module, "_levels", mutated)


@pytest.mark.parametrize("mutant", sorted(LEVEL_MUTANTS))
class TestHiddenCommutatorNotVacuous:
    """One resonant state's level scaled by 1 + 1e-6, or moved by one ulp, fails its
    hidden-commutes row, which is held to 0."""

    @pytest.mark.parametrize("check_id, state", [
        ("hidden-commutes:g=1/3", (0, 2)),  # L+_12 sends (0, 2) to (1, 0)
        ("hidden-commutes:g=3", (0, 0)),    # J+_12 sends (0, 0) to (1, 2)
    ])
    def test_suite_fock(self, monkeypatch, mutant, check_id, state):
        config = SimpleNamespace(truncation=12)
        assert all(row.passed for row in fe.suite_fock(config).rows)
        _mutate_level(monkeypatch, fe, state, mutant)
        row = {row.check_id: row for row in fe.suite_fock(config).rows}[check_id]
        assert not row.passed and row.residual > (1e-7 if mutant == "scaled" else 0.0)

    @pytest.mark.parametrize("check_id, state", [
        ("hidden-commutes:L(1,3)", (0, 1)),  # L+ = (a1+)^3 a2- sends (0, 1) to (3, 0)
        ("hidden-commutes:J(1,3)", (0, 0)),
        ("hidden-commutes:L(3,5)", (0, 3)),  # (a1+)^5 (a2-)^3
        ("hidden-commutes:J(3,5)", (0, 0)),
    ])
    def test_suite_aniso(self, monkeypatch, mutant, check_id, state):
        config = SimpleNamespace()
        assert all(row.passed for row in aniso.suite_aniso(config).rows)
        _mutate_level(monkeypatch, aniso, state, mutant)
        row = {row.check_id: row for row in aniso.suite_aniso(config).rows}[check_id]
        assert not row.passed and row.residual > (1e-7 if mutant == "scaled" else 0.0)


def test_hidden_commutator_is_exactly_zero_at_every_small_rational_coupling():
    # the ladder links states of one level only, and _levels rounds each level once, so
    # the residual is exactly 0.0 at every resonant coupling, not just at the suite's two
    couplings = {Coupling(Fraction(p, q)) for q in range(1, 8) for p in range(-12, 13)}
    couplings = sorted((c for c in couplings if abs(c.g) != 1), key=lambda c: c.g)
    assert len(couplings) == 113
    basis = fe.FockBasis(30)
    for c in couplings:
        s1, s2 = c.mode_orders
        kind = "J" if c.phase == "minkowskian" else "L"
        h = fe._levels(basis, (c.ell1, c.ell2, 1), "H_g")
        assert fe._hidden_commutator(h, basis, kind, s1, s2) == 0.0, c


class TestDegeneracy:
    def test_resonant_pair(self):
        cls = {k.energy: k for k in fe.degeneracy_classes(Coupling(F(1, 3)), fe.FockBasis(6))}
        level = cls[F(7, 3)]
        assert level.states == ((0, 2), (1, 0))
        assert level.complete

    def test_isotropic_shell(self):
        cls = {k.energy: k for k in fe.degeneracy_classes(Coupling(0), fe.FockBasis(6))}
        assert cls[F(3)].states == ((0, 2), (1, 1), (2, 0))
        assert cls[F(3)].complete

    def test_landau_level_infinite(self):
        # l2 = 0: each level has one n1 and every n2, never complete
        cls = {k.energy: k for k in fe.degeneracy_classes(Coupling(1), fe.FockBasis(5))}
        level = cls[F(3)]
        assert level.states == tuple((1, n2) for n2 in range(6))
        assert not level.complete

    def test_supercritical_chain(self):
        cls = {k.energy: k for k in fe.degeneracy_classes(Coupling(3), fe.FockBasis(6))}
        level = cls[F(1)]
        assert level.states == ((0, 0), (1, 2), (2, 4), (3, 6))
        assert not level.complete

    def test_truncation_limited(self):
        # at cutoff 1 the partner (0, 2) of (1, 0) is off the grid
        cls = {k.energy: k for k in fe.degeneracy_classes(Coupling(F(1, 3)), fe.FockBasis(1))}
        level = cls[F(7, 3)]
        assert level.states == ((1, 0),)
        assert not level.complete

    def test_class_ids_ascend(self):
        classes = fe.degeneracy_classes(Coupling(F(1, 2)), fe.FockBasis(4))
        assert [k.class_id for k in classes] == list(range(len(classes)))
        energies = [k.energy for k in classes]
        assert energies == sorted(energies)

    def test_emax(self):
        classes = fe.degeneracy_classes(Coupling(0), fe.FockBasis(6), emax=3)
        assert [k.energy for k in classes] == [F(1), F(2), F(3)]
        assert [k.class_id for k in classes] == [0, 1, 2]

    @pytest.mark.parametrize("window", [(None, 3), (1, 2)], ids=repr)
    def test_a_window_pair_is_no_emax(self, window):
        with pytest.raises(ValueError, match=r"^emax .* is not a finite real$"):
            fe.degeneracy_classes(Coupling(0), fe.FockBasis(3), window)

    def test_emax_compares_exactly(self):
        # E = 2 + 10^-17 rounds to 2.0 as a float but lies above emax
        g = F(1, 10**17)
        classes = fe.degeneracy_classes(Coupling(g), fe.FockBasis(4), emax=2)
        assert classes[-1].energy == 2 - g
        assert all(k.energy <= 2 for k in classes)

    def test_spectrum_rows(self):
        rows = fe.spectrum_rows(Coupling(F(1, 3)), fe.FockBasis(3))
        assert len(rows) == 16
        assert set(rows[0]) == {"n1", "n2", "E_exact_num", "E_exact_den", "class_id"}
        assert rows[0]["n1"] == 0 and rows[0]["n2"] == 0
        assert rows[0]["E_exact_num"] == 1 and rows[0]["E_exact_den"] == 1
        by_state = {(r["n1"], r["n2"]): r for r in rows}
        assert by_state[(1, 0)]["class_id"] == by_state[(0, 2)]["class_id"]
        # exact energies reproduce from the integer columns
        for r in rows:
            assert F(r["E_exact_num"], r["E_exact_den"]) == fe.exact_energy(
                Coupling(F(1, 3)), r["n1"], r["n2"]
            )


def _level_is_complete(coupling, energy, cutoff):
    """Search every non-negative state of ``energy`` for one off the grid."""
    l1, l2 = coupling.ell1, coupling.ell2
    if l1 <= 0 or l2 <= 0:
        return False
    c = energy - 1
    for n1 in range(int(c / l1) + 1):
        rem = (c - l1 * n1) / l2
        if rem >= 0 and rem.denominator == 1 and (n1 > cutoff or int(rem) > cutoff):
            return False
    return True


def _reference_classes(coupling, basis, emax=None):
    """Oracle: one exact_energy Fraction per state, grouped in a dict, completeness by search."""
    groups = {}
    for n1, n2 in basis.states():
        groups.setdefault(fe.exact_energy(coupling, n1, n2), []).append((n1, n2))
    out = []
    for energy in sorted(groups):
        if emax is not None and energy > emax:
            continue
        out.append(fe.DegeneracyClass(energy, tuple(sorted(groups[energy])), len(out),
                                      _level_is_complete(coupling, energy, basis.cutoff)))
    return out


# g = p/q with |p| <= 20, q <= 8, each value once; includes g = 0 and g = +-1
SWEEP = sorted({F(p, q) for p in range(-20, 21) for q in range(1, 9)})


class TestDegeneracyOracle:
    """degeneracy_classes (integer keys, orbit-end completeness) against the Fraction oracle."""

    @pytest.mark.parametrize("emax", [None, 3, F(9, 2), 2.75, F(31, 7)], ids=repr)
    @pytest.mark.parametrize("cutoff", [1, 2, 3, 5, 8])
    def test_rational_sweep(self, cutoff, emax):
        basis = fe.FockBasis(cutoff)
        for g in SWEEP:
            coupling = Coupling(g)
            assert fe.degeneracy_classes(coupling, basis, emax) == _reference_classes(
                coupling, basis, emax), g

    # the levels of these couplings are integers, so 5/2 and 2.25 fall between two of them
    @pytest.mark.parametrize("emax", [None, 2, F(5, 2), 2.25, 0], ids=repr)
    @pytest.mark.parametrize("coupling", [
        Coupling(1), Coupling(-1), Coupling(1, isotropic_mink=True),
        Coupling(-1, isotropic_mink=True)])
    def test_special_couplings(self, coupling, emax):
        basis = fe.FockBasis(6)
        got = fe.degeneracy_classes(coupling, basis, emax)
        assert got == _reference_classes(coupling, basis, emax)
        assert not any(k.complete for k in got)

    @pytest.mark.parametrize("g", [F(1, 3), F(1, 2), 3, 0])
    def test_positional_fractional_emax(self, g):
        # the third positional argument is the inclusive upper bound
        coupling, basis = Coupling(g), fe.FockBasis(6)
        got = fe.degeneracy_classes(coupling, basis, F(7, 2))
        assert got == _reference_classes(coupling, basis, F(7, 2))
        assert got and all(k.energy <= F(7, 2) for k in got)


class TestHiddenOperators:
    def test_frozen_examples(self):
        b = fe.FockBasis(8)
        c = Coupling(F(1, 3))
        lp = fe.hidden_operator(b, c, "L", 1, 2)
        v = lp @ ket(b, 0, 2)
        assert v[b.index(1, 0)] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(np.abs(v) > 1e-14) == 1
        lm = fe.hidden_operator(b, c, "L", 1, 2, sign="-")
        assert np.allclose(lm @ ket(b, 0, 2), 0.0)
        jp = fe.hidden_operator(b, Coupling(3), "J", 1, 2)
        w = jp @ ket(b, 0, 0)
        assert w[b.index(1, 2)] == pytest.approx(math.sqrt(2))

    def test_coefficient_formula_matches_matrix(self):
        b = fe.FockBasis(7)
        c = Coupling(F(1, 3))
        lp = fe.hidden_operator(b, c, "L", 1, 2)
        for n1, n2 in b.states():
            coeff = fe.hidden_coefficient("L", 1, 2, n1, n2)
            j = b.index(n1, n2)
            if n2 >= 2 and n1 + 1 <= b.cutoff:
                assert lp[b.index(n1 + 1, n2 - 2), j] == pytest.approx(coeff, abs=1e-12)
            elif n2 < 2:
                assert coeff == 0.0
                assert np.allclose(lp[:, j], 0.0)

    def test_j_coefficient_formula(self):
        b = fe.FockBasis(7)
        jp = fe.hidden_operator(b, Coupling(3), "J", 1, 2)
        for n1, n2 in b.states():
            if n1 + 1 <= b.cutoff and n2 + 2 <= b.cutoff:
                expected = math.sqrt(
                    math.factorial(n1 + 1) * math.factorial(n2 + 2)
                    / (math.factorial(n1) * math.factorial(n2))
                )
                got = jp[b.index(n1 + 1, n2 + 2), b.index(n1, n2)]
                assert got == pytest.approx(expected, rel=1e-12)
                assert fe.hidden_coefficient("J", 1, 2, n1, n2) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_coefficient_beyond_float_range_raises(self):
        with pytest.raises(ValueError, match="float range"):
            fe.hidden_coefficient("J", 100, 100, 100, 100)

    def test_adjoint_pair(self):
        b = fe.FockBasis(6)
        c = Coupling(F(1, 3))
        lp = fe.hidden_operator(b, c, "L", 1, 2)
        lm = fe.hidden_operator(b, c, "L", 1, 2, sign="-")
        assert fe.operator_norm(lm - lp.conj().T) == 0.0

    def test_commutes_with_hamiltonian(self):
        # the commutator of the resonant ladder with the diagonal H vanishes
        # identically, truncation included, since it only links equal levels
        b = fe.FockBasis(8)
        for g, kind, s1, s2 in [
            (F(1, 3), "L", 1, 2),
            (F(1, 2), "L", 1, 3),
            (F(3), "J", 1, 2),
            (F(2), "J", 1, 3),
        ]:
            c = Coupling(g)
            x = fe.hidden_operator(b, c, kind, s1, s2)
            assert fe.operator_norm(fe.commutator(fe.hamiltonian(b, c), x)) <= 1e-12

    def test_resonance_mismatch_raises(self):
        b = fe.FockBasis(4)
        with pytest.raises(ValueError):
            fe.hidden_operator(b, Coupling(F(1, 3)), "L", 2, 1)
        with pytest.raises(ValueError):
            fe.hidden_operator(b, Coupling(F(1, 3)), "J", 1, 2)
        with pytest.raises(ValueError):
            fe.hidden_operator(b, Coupling(0), "J", 1, 1)

    def test_order_validation(self):
        b = fe.FockBasis(4)
        with pytest.raises(ValueError):
            fe.hidden_operator(b, Coupling(0), "L", 0, 0)
        with pytest.raises(ValueError):
            fe.hidden_operator(b, Coupling(F(1, 3)), "X", 1, 2)
        with pytest.raises(ValueError):
            fe.hidden_operator(b, Coupling(F(1, 3)), "L", 1, 2, sign="*")

    def test_raising_chain_terminates_only_for_l(self):
        b = fe.FockBasis(9)
        lp = fe.hidden_operator(b, Coupling(F(1, 3)), "L", 1, 2)
        # walk the E = 13/3 chain: (0,4) -> (1,2) -> (2,0) -> annihilated
        v = ket(b, 0, 4)
        for _ in range(2):
            v = lp @ v
            assert np.linalg.norm(v) > 0
        assert np.allclose(lp @ v, 0.0)
        # the J ladder never annihilates a grid state with room to grow
        jp = fe.hidden_operator(b, Coupling(3), "J", 1, 2)
        for n1, n2 in b.states():
            if n1 + 1 <= b.cutoff and n2 + 2 <= b.cutoff:
                assert np.linalg.norm(jp[:, b.index(n1, n2)]) > 0


def _matrix_power_hidden_ladder(basis, kind, s1, s2, sign):
    """Reference: (b1+)^Delta1 (b2+-)^|Delta2| as matrix powers of the dense truncated ladders."""
    d1, d2 = hidden_shift(kind, s1, s2)
    up1 = fe.ladder(basis, 1, "+")
    m2 = fe.ladder(basis, 2, "+" if d2 > 0 else "-")
    mat = np.linalg.matrix_power(up1, d1) @ np.linalg.matrix_power(m2, abs(d2))
    return mat if sign == "+" else mat.conj().T


class TestHiddenLadderAgainstMatrixPower:
    @pytest.mark.parametrize("cutoff", [4, 8, 12])
    @pytest.mark.parametrize("kind", ["L", "J"])
    @pytest.mark.parametrize("orders", [(1, 2), (2, 1), (1, 3), (3, 1)])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_same_sparsity_and_entries(self, cutoff, kind, orders, sign):
        b = fe.FockBasis(cutoff)
        got = fe._hidden_ladder_matrix(b, kind, *orders, sign)
        ref = _matrix_power_hidden_ladder(b, kind, *orders, sign)
        assert np.array_equal(got != 0, ref != 0)
        assert np.allclose(got, ref, rtol=1e-12, atol=0)


class TestOrbitStructure:
    @pytest.mark.parametrize(
        "g,kind,s1,s2",
        [(F(1, 3), "L", 1, 2), (F(3), "J", 1, 2), (F(1, 2), "L", 1, 3)],
    )
    def test_orbits_match_degeneracy_classes(self, g, kind, s1, s2):
        b = fe.FockBasis(8)
        c = Coupling(g)
        orbits = set(fe.hidden_orbit_partition(b, c, kind, s1, s2))
        classes = {frozenset(k.states) for k in fe.degeneracy_classes(c, b)}
        assert orbits == classes

    @pytest.mark.parametrize("margin1, margin2, total",
                             [(1, 2, None), (0, 0, None), (3, 1, None), (2, 2, 6), (0, 3, 4)])
    def test_masked_orbits(self, margin1, margin2, total):
        b = fe.FockBasis(8)
        c = Coupling(F(1, 3))
        mask = fe.InteriorMask(b, margin1=margin1, margin2=margin2, total=total)
        orbits = set(fe.hidden_orbit_partition(mask, c, "L", 1, 2))
        pool = set(mask.states())
        classes = {
            frozenset(set(k.states) & pool)
            for k in fe.degeneracy_classes(c, b)
            if set(k.states) & pool
        }
        assert orbits == classes

    def test_mismatch_raises(self):
        b = fe.FockBasis(4)
        with pytest.raises(ValueError):
            fe.hidden_orbit_partition(b, Coupling(F(1, 3)), "J", 1, 2)

    @pytest.mark.parametrize(
        "g,kind,s1,s2",
        [(F(1, 3), "L", 1, 2), (F(3), "J", 1, 2), (F(1, 2), "L", 1, 3)],
    )
    def test_marginless_mask_equals_whole_grid(self, g, kind, s1, s2):
        b, c = fe.FockBasis(8), Coupling(g)
        assert (fe.hidden_orbit_partition(fe.InteriorMask(b), c, kind, s1, s2)
                == fe.hidden_orbit_partition(b, c, kind, s1, s2))


def _bfs_orbits(pool, step):
    """Reference: components of ``pool`` under n -> n +/- step, by graph search."""
    pool = set(pool)
    seen = set()
    orbits = []
    for start in sorted(pool):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            n1, n2 = frontier.pop()
            for fwd in (1, -1):
                nxt = (n1 + fwd * step[0], n2 + fwd * step[1])
                if nxt in pool and nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        orbits.append(frozenset(comp))
    return sorted(orbits, key=min)


class TestLadderOrbitsAgainstSearch:
    STEPS = [hidden_shift(kind, s1, s2) for kind in "LJ"
             for s1, s2 in ((0, 1), (1, 0), (1, 2), (2, 1), (3, 1))]

    @pytest.mark.parametrize("cutoff", range(4, 13))
    def test_cosets_equal_searched_components(self, cutoff):
        b = fe.FockBasis(cutoff)
        pools = [b.states()] + [
            fe.InteriorMask(b, **kw).states()
            for kw in ({"margin1": 1, "margin2": 2}, {"margin1": 3},
                       {"total": cutoff - 2}, {"total": 0},
                       {"margin1": 1, "margin2": 1, "total": cutoff // 2})
        ]
        for pool in pools:
            for step in self.STEPS + [(0, 0)]:
                assert fe.ladder_orbits(pool, step) == _bfs_orbits(pool, step), (pool, step)


class TestCartesianModes:
    def test_canonical_algebra(self):
        b = fe.FockBasis(8)
        a = fe.cartesian_modes(b)
        mask = fe.InteriorMask(b, margin1=1, margin2=1)
        for j in ("1", "2"):
            comm = a[f"a{j}-"] @ a[f"a{j}+"] - a[f"a{j}+"] @ a[f"a{j}-"]
            assert fe.operator_norm(mask.restrict_columns(comm - np.eye(b.dim))) < 1e-13
        cross = a["a1-"] @ a["a2+"] - a["a2+"] @ a["a1-"]
        assert fe.operator_norm(mask.restrict_columns(cross)) < 1e-13

    def test_total_number_preserved(self):
        b = fe.FockBasis(6)
        a = fe.cartesian_modes(b)
        n_tot_a = a["a1+"] @ a["a1-"] + a["a2+"] @ a["a2-"]
        n_tot_b = sum(fe.ladder(b, k, "+") @ fe.ladder(b, k, "-") for k in (1, 2))
        mask = fe.InteriorMask(b, total=b.cutoff - 1)
        assert fe.operator_norm(mask.restrict_columns(n_tot_a - n_tot_b)) < 1e-13

    def test_su2_algebra(self):
        b = fe.FockBasis(8)
        l1, l2, l3 = fe.su2_generators(b)
        mask = fe.InteriorMask(b, total=b.cutoff - 2)
        triples = [(l1, l2, l3), (l2, l3, l1), (l3, l1, l2)]
        for x, y, z in triples:
            comm = fe.commutator(x, y) - 1j * z
            assert fe.operator_norm(mask.restrict_columns(comm)) < 1e-12

    def test_angular_momentum_is_2l2(self):
        b = fe.FockBasis(7)
        _, l2, _ = fe.su2_generators(b)
        mask = fe.InteriorMask(b, total=b.cutoff - 1)
        diff = fe.angular_momentum(b) - 2 * l2
        assert fe.operator_norm(mask.restrict_columns(diff)) < 1e-12


class TestUnitaryBridge:
    def setup_method(self):
        self.b = fe.FockBasis(12)
        self.u = fe.unitary_bridge(self.b)
        self.ud = self.u.conj().T
        self.mask = fe.InteriorMask(self.b, total=self.b.cutoff - 2)
        self.idx = self.mask.indices()

    def _resid(self, lhs, rhs):
        return fe.operator_norm((lhs - rhs)[:, self.idx])

    def _conj(self, op):
        return self.u @ op @ self.ud

    def test_unitarity(self):
        eye = self.u @ self.ud
        assert fe.operator_norm(eye - np.eye(self.b.dim)) < 1e-12

    def test_mode_rotation(self):
        a = fe.cartesian_modes(self.b)
        ph = np.exp(-1j * math.pi / 4)
        pairs = [
            ("a1-", fe.ladder(self.b, 1, "-"), ph),
            ("a2-", fe.ladder(self.b, 2, "-"), ph),
            ("a1+", fe.ladder(self.b, 1, "+"), ph.conjugate()),
            ("a2+", fe.ladder(self.b, 2, "+"), ph.conjugate()),
        ]
        for name, target, phase in pairs:
            assert self._resid(self._conj(a[name]), phase * target) < 1e-10

    def test_su2_cycling(self):
        l1, l2, l3 = fe.su2_generators(self.b)
        assert self._resid(self._conj(l1), l3) < 1e-10
        assert self._resid(self._conj(l2), l1) < 1e-10
        assert self._resid(self._conj(l3), l2) < 1e-10

    @pytest.mark.parametrize("g", [0, F(1, 3), F(1, 2), 3])
    def test_hamiltonian_equivalence(self, g):
        c = Coupling(F(g))
        h_rni = fe.rni_hamiltonian(self.b, c)
        h_g = fe.hamiltonian(self.b, c)
        assert self._resid(self._conj(h_rni), h_g) < 1e-10


class TestRniHamiltonian:
    @pytest.mark.parametrize("cutoff", [3, 7])
    @pytest.mark.parametrize("g", [0, F(1, 3), F(1, 2), 3, F(-2, 5), 1], ids=str)
    def test_blocks_carry_the_levels_in_units_of_hbar_omega(self, g, cutoff):
        # each block N <= cutoff lies whole on the grid, so its eigenvalues are the levels
        # l1 n1 + l2 n2 + 1 of its states
        b, c = fe.FockBasis(cutoff), Coupling(F(g))
        h = fe.rni_hamiltonian(b, c)
        for total in range(cutoff + 1):
            idx = [b.index(n1, total - n1) for n1 in range(total + 1)]
            got = np.linalg.eigvalsh(h[np.ix_(idx, idx)])
            want = sorted(float(fe.exact_energy(c, n1, total - n1)) for n1 in range(total + 1))
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13), total

    def test_breaks_rotational_symmetry(self):
        b = fe.FockBasis(10)
        mask = fe.InteriorMask(b, total=b.cutoff - 2)
        comm = fe.commutator(
            fe.rni_hamiltonian(b, Coupling(F(1, 2))), fe.angular_momentum(b)
        )
        assert fe.operator_norm(mask.restrict_columns(comm)) > 0.1

    def test_isotropic_point_is_symmetric(self):
        b = fe.FockBasis(10)
        mask = fe.InteriorMask(b, total=b.cutoff - 2)
        comm = fe.commutator(
            fe.rni_hamiltonian(b, Coupling(0)), fe.angular_momentum(b)
        )
        assert fe.operator_norm(mask.restrict_columns(comm)) < 1e-12


def _cartesian_rni_hamiltonian(basis, coupling):
    """Reference: l1 a1+ a1- + l2 a2+ a2- + 1 from dense products of the Cartesian ladders."""
    a = fe.cartesian_modes(basis)
    l1, l2 = coupling.float_ells()
    return (l1 * (a["a1+"] @ a["a1-"]) + l2 * (a["a2+"] @ a["a2-"])
            + np.eye(basis.dim))


class TestRniHamiltonianAgainstCartesianProducts:
    @pytest.mark.parametrize("cutoff", [4, 12, 22])
    @pytest.mark.parametrize("coupling", [Coupling(0), Coupling(F(1, 3)), Coupling(3),
                                          Coupling(F(-1, 2)), Coupling(1, isotropic_mink=True)],
                             ids=str)
    def test_whole_grid(self, cutoff, coupling):
        b = fe.FockBasis(cutoff)
        ref = _cartesian_rni_hamiltonian(b, coupling)
        diff = fe.rni_hamiltonian(b, coupling) - ref
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(ref))


def _reference_unitary_bridge(basis):
    """U = exp(i (2 pi/3)/sqrt(3) (L1 + L2 + L3)) as a dense scipy expm of the truncated generator."""
    import scipy.linalg

    l1, l2, l3 = fe.su2_generators(basis)
    axis = (l1 + l2 + l3) / math.sqrt(3)
    return scipy.linalg.expm(1j * (2 * math.pi / 3) * axis)


class TestUnitaryBridgeClosedForm:
    @pytest.mark.parametrize("cutoff", [12, 20, 30])
    def test_matches_expm_on_full_blocks(self, cutoff):
        # a block N = n1 + n2 <= cutoff lies wholly on the grid, so the truncated
        # generator leaves it invariant and its exponential is exact there
        b = fe.FockBasis(cutoff)
        full = [b.index(n1, n2) for n1, n2 in b.states() if n1 + n2 <= cutoff]
        diff = fe.unitary_bridge(b) - _reference_unitary_bridge(b)
        assert np.max(np.abs(diff[:, full])) <= 1e-13

    @pytest.mark.parametrize("cutoff", [1, 5, 12])
    def test_identity_on_partial_blocks(self, cutoff):
        b = fe.FockBasis(cutoff)
        partial = [b.index(n1, n2) for n1, n2 in b.states() if n1 + n2 > cutoff]
        u = fe.unitary_bridge(b)
        assert np.array_equal(u[:, partial], np.eye(b.dim)[:, partial])

    def test_one_particle_block(self):
        # U b_k+ |0) = sum_j u_jk b_j+ |0) with u = [[1+i, 1+i], [-1+i, 1-i]]/2
        b = fe.FockBasis(3)
        u = fe.unitary_bridge(b)
        one = [b.index(1, 0), b.index(0, 1)]
        expected = np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]]) / 2
        assert np.max(np.abs(u[np.ix_(one, one)] - expected)) <= 1e-15
        assert u[b.index(0, 0), b.index(0, 0)] == 1

    def test_conserves_total_number(self):
        b = fe.FockBasis(9)
        u = fe.unitary_bridge(b)
        total = np.array([n1 + n2 for n1, n2 in b.states()])
        assert not np.any(u[total[:, None] != total[None, :]])

    @pytest.mark.parametrize("total", range(31))
    def test_block_equals_numpy_recurrence(self, total):
        # the block before its integer rows came from phasealg's kernel: the same
        # recurrence on object arrays over n1, one row per m
        m = np.arange(total + 1)
        k = [np.ones(total + 1, dtype=object), (total - 2 * m).astype(object)]
        for row in range(1, total):
            k.append(((total - 2 * m) * k[row] - (total - row + 1) * k[row - 1]) // (row + 1))
        binom = np.array([math.comb(total, j) for j in m], dtype=object)
        scale = np.sqrt((binom / binom[:, None] / 2**total).astype(float))
        phase = np.exp(1j * np.pi / 4 * ((4 * m + 2 * m[:, None] - total) % 8))
        want = np.array(k[: total + 1]).astype(float) * scale * phase
        assert np.array_equal(fe._unitary_block(total), want)


def _reference_bridge(size):
    """S' of the one-mode bridge as ExactComplex entries over Q(i)[sqrt 2].

    The closed form evaluated term by term, the sqrt 2 of each odd k kept
    as a ring element instead of factored onto the rows.
    """
    s = [[ExactComplex.ZERO for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if (i - j) % 2:
                continue
            acc = ExactComplex.ZERO
            k = min(i, j)
            while k >= 0:
                a = (i - k) // 2
                b = (j - k) // 2
                coeff = Fraction((-1) ** (a + b), 2**a * math.factorial(a)) * Fraction(
                    math.factorial(j), 2**b * math.factorial(b) * math.factorial(k)
                )
                term = coeff * Fraction(2) ** (k // 2)
                if k % 2:
                    acc = acc + ExactComplex(0, 0, term, 0)
                else:
                    acc = acc + ExactComplex(term)
                k -= 2
            s[i][j] = acc
    return s


def _triple_sum_bridge(size):
    """R of the one-mode bridge as Fractions, from the entrywise closed form.

    S'[i, j] = sum over k = i-2a = j-2b >= 0 of (-1)^a/(2^a a!) * 2^(k/2) *
    (-1)^b j!/(2^b b! k!), with the sqrt 2 of an odd k factored onto the odd
    rows, summed over the denominator 2^((i+j)/2) i! j!.
    """
    fact = [math.factorial(n) for n in range(size)]
    r = np.full((size, size), Fraction(0), dtype=object)
    for i in range(size):
        for j in range(i % 2, size, 2):
            num = 0
            for k in range(min(i, j), -1, -2):
                a, b = (i - k) // 2, (j - k) // 2
                num += ((-1) ** (a + b) * 2 ** (k + k // 2) * fact[j]
                        * (fact[i] // (fact[a] * fact[k])) * (fact[j] // fact[b]))
            r[i, j] = Fraction(num, 2 ** ((i + j) // 2) * fact[i] * fact[j])
    return r


def _dense_bridge(size):
    """M = G Hm E as first written: dense object arrays G (the Gaussian's 2a-th
    subdiagonals), Hm (column j the Hermite row of H_j) and E, multiplied out."""
    top, index = (size - 1) // 2, np.arange(size)
    gauss = np.zeros((size, size), dtype=object)
    for a in range(top + 1):
        gauss[index[2 * a:], index[: size - 2 * a]] = (
            (-1) ** a * 2 ** (top - a) * (math.factorial(top) // math.factorial(a)))
    hermite = np.zeros((size, size), dtype=object)
    for j, row in enumerate(fe.hermite_rows(size - 1)):
        hermite[: j + 1, j] = row
    grading = np.array([2 ** (size // 2 - (j + 1) // 2) for j in range(size)], dtype=object)
    return gauss @ hermite * grading, 2 ** (size - 1) * math.factorial(top)


@pytest.fixture(scope="module")
def reference_bridge_99():
    # entries do not depend on the size, so smaller sizes are leading blocks
    return _reference_bridge(99)


class TestOneModeBridgeExact:
    def test_frozen_entries(self):
        # S' = diag(sqrt2^(i mod 2)) R: R[1, 1] = 1 is the entry sqrt 2 of S'
        m, scale = fe.one_mode_bridge_unnormalized(5)
        assert F(m[0, 0], scale) == 1
        assert F(m[1, 1], scale) == 1
        assert F(m[0, 2], scale) == -1
        assert F(m[2, 0], scale) == F(-1, 2)
        assert F(m[2, 2], scale) == F(5, 2)
        # opposite parity never couples
        assert m[1, 0] == 0 and m[0, 3] == 0

    def test_entries_are_integers_over_one_scale(self):
        # R = M/scale with scale = 2^(size-1) * ((size-1)//2)!
        m, scale = fe.one_mode_bridge_unnormalized(6)
        assert m.dtype == object and m.shape == (6, 6)
        assert all(type(q) is int for q in m.flat)
        assert type(scale) is int and scale == 2**5 * math.factorial(2)

    def test_matches_triple_sum(self):
        oracle = _triple_sum_bridge(60)
        for size in range(1, 61):
            m, scale = fe.one_mode_bridge_unnormalized(size)
            assert np.array_equal(m, oracle[:size, :size] * scale), size

    def test_column_form_equals_dense_product(self):
        # one column at a time over G's nonzero diagonals, entry for entry the dense G Hm E
        for size in range(1, 61):
            m, scale = fe.one_mode_bridge_unnormalized(size)
            dense, dense_scale = _dense_bridge(size)
            assert m.shape == dense.shape == (size, size) and scale == dense_scale
            assert all(type(v) is int for v in m.flat), size
            assert m.tolist() == dense.tolist(), size

    def test_parity_factored_matches_reference(self, reference_bridge_99):
        sqrt2 = ExactComplex.sqrt2()
        for size in range(1, 32):
            m, scale = fe.one_mode_bridge_unnormalized(size)
            for i in range(size):
                for j in range(size):
                    expected = reference_bridge_99[i][j]
                    entry = ExactComplex.coerce(F(m[i, j], scale))
                    assert (sqrt2 * entry if i % 2 else entry) == expected, (size, i, j)

    @pytest.mark.parametrize("cutoff", [4, 10, 16, 40, 98])
    def test_float_bridge_bit_identical_to_reference(self, cutoff, reference_bridge_99):
        size = cutoff + 1
        expected = np.zeros((size, size))
        for i in range(size):
            for j in range(size):
                entry = reference_bridge_99[i][j]
                if entry.is_zero():
                    continue
                ring = entry * ExactComplex.coerce(F(1, math.factorial(j)))
                expected[i, j] = (2.0**0.25 * ring.to_complex().real
                                  * math.sqrt(math.factorial(i) * math.factorial(j)))
        assert fe.one_mode_bridge(cutoff).tobytes() == expected.tobytes()

    def test_intertwining_exact(self):
        for row in fe.verify_one_mode_bridge(11):
            assert row.passed, row.check_id
            assert row.residual == 0.0

    @pytest.mark.parametrize("size", [-1, 0, 1, 2])
    def test_size_without_rows_raises(self, size):
        # sizes 1 and 2 compared empty blocks and passed all three rows
        with pytest.raises(ValueError, match="not an integer >= 3"):
            fe.verify_one_mode_bridge(size)

    @pytest.mark.parametrize("size", [3.5, 11.0, "11", True, None])
    def test_size_not_an_int_raises(self, size):
        # 3.5 raised TypeError from np.eye
        with pytest.raises(ValueError, match="not an integer"):
            fe.verify_one_mode_bridge(size)

    @pytest.mark.parametrize("size", [0, -1, 2.5, 3.0, True])
    def test_unnormalized_size_raises(self, size):
        with pytest.raises(ValueError, match="not an integer >= 1"):
            fe.one_mode_bridge_unnormalized(size)

    @pytest.mark.parametrize("entry", [(2, 2), (3, 1), (8, 4)])
    def test_perturbed_bridge_fails_every_row(self, monkeypatch, entry):
        exact = fe.one_mode_bridge_unnormalized

        def perturbed(size):
            # R[entry] += 1/3, i.e. M[entry] += scale/3
            m, scale = exact(size)
            assert scale % 3 == 0
            m[entry] += scale // 3
            return m, scale

        monkeypatch.setattr(fe, "one_mode_bridge_unnormalized", perturbed)
        rows = fe.verify_one_mode_bridge(11)
        assert [row.check_id for row in rows] == [
            "bridge-one-mode-H", "bridge-one-mode-iD", "bridge-one-mode-K"]
        for row in rows:
            assert not row.passed, row.check_id
            assert row.residual is None


def _object_ladders(size):
    """Reference one-mode ladders on Python-int object arrays: a+|n) = |n+1), a|n) = n|n-1)."""
    up = np.eye(size, k=-1, dtype=int).astype(object)
    return up, up.T * np.arange(size, dtype=object)


class TestBandedBridgeCheck:
    def test_band_products_match_dense_object_products(self):
        # oracle: the dense object products m @ x and y @ m the check used to form
        for size in range(3, 61):
            m, _ = fe.one_mode_bridge_unnormalized(size)
            up = np.eye(size, k=-1, dtype=np.int64)
            fast = fe._conformal_pairs(up, up.T * np.arange(size))
            for (x, y), (xo, yo) in zip(fast, fe._conformal_pairs(*_object_ladders(size))):
                mx, ym = fe._band_product(m, x), fe._band_product(m.T, y.T).T
                assert np.array_equal(mx, m @ xo), size
                assert np.array_equal(ym, yo @ m), size
                assert all(type(v) is int for v in mx.flat), size
                assert all(type(v) is int for v in ym.flat), size

    @pytest.mark.parametrize("size", [3, 4, 11, 31, 99])
    def test_int64_pairs_are_banded_and_bounded(self, size):
        up = np.eye(size, k=-1, dtype=np.int64)
        pairs = fe._conformal_pairs(up, up.T * np.arange(size))
        for (x, y), (xo, yo) in zip(pairs, fe._conformal_pairs(*_object_ladders(size))):
            for got, want in ((x, xo), (y, yo)):
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert np.abs(got).max() <= 4 * (size - 1) ** 2
                rows, cols = np.nonzero(got)
                assert set((cols - rows).tolist()) <= {-2, 0, 2}

    @pytest.mark.parametrize("k", range(1, 9))
    def test_off_by_one_ladder_fails_every_row(self, monkeypatch, k):
        exact = fe._conformal_pairs

        def mutated(up, dn):
            dn = dn.copy()
            dn[k - 1, k] = k + 1
            return exact(up, dn)

        monkeypatch.setattr(fe, "_conformal_pairs", mutated)
        rows = fe.verify_one_mode_bridge(11)
        assert [row.check_id for row in rows] == [
            "bridge-one-mode-H", "bridge-one-mode-iD", "bridge-one-mode-K"]
        assert not any(row.passed for row in rows)

    @pytest.mark.parametrize("offset", [-2, 0, 2])
    def test_skipped_diagonal_fails_a_row(self, monkeypatch, offset):
        exact = fe._band_product

        def skipping(m, x):
            x = x.copy()
            start = max(0, -offset)
            index = np.arange(start, len(x) - max(0, offset))
            x[index, index + offset] = 0
            return exact(m, x)

        monkeypatch.setattr(fe, "_band_product", skipping)
        assert not all(row.passed for row in fe.verify_one_mode_bridge(11))


class TestQuantumBridgeFloat:
    def test_vacuum_amplitude(self):
        s = fe.one_mode_bridge(4)
        assert s[0, 0] == pytest.approx(2.0**0.25, rel=1e-15)

    def test_symmetric(self):
        s = fe.one_mode_bridge(6)
        assert np.max(np.abs(s - s.T)) < 1e-12

    def test_cutoff_beyond_float_range_raises(self):
        with pytest.raises(ValueError, match="98"):
            fe.one_mode_bridge(99)

    @pytest.mark.parametrize("cutoff", [-1, -5, 1.5, 4.0, True])
    def test_cutoff_not_a_non_negative_int_raises(self, cutoff):
        # -1 returned an empty array, 1.5 raised TypeError
        with pytest.raises(ValueError, match="not an integer in 0..98"):
            fe.one_mode_bridge(cutoff)

    def test_two_mode_intertwining(self):
        for row in fe.verify_quantum_bridge(10):
            assert row.passed, row.check_id
            assert row.residual <= 1e-10


def _dense_unitary_rows(basis, u):
    """Reference: every unitary-* residual of suite_fock as the norm of a dense U M U+ - T."""
    ud = u.conj().T
    idx = fe.InteriorMask(basis, total=basis.cutoff - 2).indices()
    cart = fe.cartesian_modes(basis)
    phase = np.exp(-1j * math.pi / 4)
    rows = {}
    for name, mode, direction, ph in (("a1-", 1, "-", phase), ("a2-", 2, "-", phase),
                                      ("a1+", 1, "+", phase.conjugate()),
                                      ("a2+", 2, "+", phase.conjugate())):
        target = ph * fe.ladder(basis, mode, direction)
        rows[f"unitary-mode:{name}"] = fe.operator_norm(
            (u @ cart[name] @ ud - target)[:, idx])
    for gtext in ("0", "1/3", "1/2", "3"):
        c = Coupling(F(gtext))
        conj = u @ fe.rni_hamiltonian(basis, c) @ ud
        rows[f"unitary-hamiltonian:g={gtext}"] = fe.operator_norm(
            (conj - fe.hamiltonian(basis, c))[:, idx])
    return rows


class TestSuiteFockAgainstDenseProducts:
    def suite(self, cutoff):
        return {row.check_id: row for row in fe.suite_fock(
            SimpleNamespace(truncation=cutoff)).rows}

    @pytest.mark.parametrize("cutoff", [6, 12])
    def test_perturbed_unitary_block_residuals(self, monkeypatch, cutoff):
        # entry (row (1, 1), column (0, 2)) of the full block N = 2 scaled by 1 + 1e-6 moves
        # every unitary-* row; the dense U assembled from the same blocks carries it too
        exact = fe._unitary_block
        b = fe.FockBasis(cutoff)

        def perturbed(total):
            u = exact(total)
            if total == 2:
                u[1, 0] *= 1 + 1e-6
            return u

        monkeypatch.setattr(fe, "_unitary_block", perturbed)
        rows = self.suite(cutoff)
        u = fe.unitary_bridge(b)
        assert u[b.index(1, 1), b.index(0, 2)] == exact(2)[1, 0] * (1 + 1e-6)
        for check_id, want in _dense_unitary_rows(b, u).items():
            assert want > 1e-8, check_id
            assert rows[check_id].residual == pytest.approx(want, rel=1e-9), check_id

    def test_non_commuting_ladder_matches_dense_commutator(self, monkeypatch):
        # the other kind's ladder joins states of different energy, so the elementwise
        # commutator of the suite must equal the dense one, and be far from zero
        exact = fe._hidden_entries

        def swapped(basis, kind, s1, s2):
            return exact(basis, "J" if kind == "L" else "L", s1, s2)

        monkeypatch.setattr(fe, "_hidden_entries", swapped)
        b = fe.FockBasis(8)
        rows = self.suite(8)
        for gtext, kind in (("1/3", "L"), ("3", "J")):
            c = Coupling(F(gtext))
            other = "J" if kind == "L" else "L"
            ladder = _state_by_state_hidden_ladder(b, other, 1, 2)
            mask = fe.InteriorMask(b, margin1=1, margin2=2)
            dense = fe.operator_norm(mask.restrict_columns(fe.commutator(fe.hamiltonian(b, c),
                                                                         ladder)))
            got = rows[f"hidden-commutes:g={gtext}"]
            assert dense > 1
            assert got.residual == pytest.approx(dense, rel=1e-12)
            assert not got.passed

    @pytest.mark.parametrize("cutoff", [4, 9])
    def test_calls_no_dense_builder(self, monkeypatch, cutoff):
        # the suite reads the private block forms only; every dense builder is off limits
        def forbidden(*args, **kwargs):
            raise AssertionError("suite_fock called a dense grid builder")

        want = self.suite(cutoff)
        for name in ("ladder", "hamiltonian", "rni_hamiltonian", "cartesian_modes",
                     "su2_generators", "unitary_bridge", "hidden_operator",
                     "_hidden_ladder_matrix", "_assemble", "angular_momentum"):
            monkeypatch.setattr(fe, name, forbidden)
        got = self.suite(cutoff)
        assert [(r.check_id, r.passed, r.residual) for r in got.values()] == [
            (r.check_id, r.passed, r.residual) for r in want.values()]


def _state_by_state_hidden_ladder(basis, kind, s1, s2):
    """Reference '+' hidden ladder filled one grid state at a time from hidden_coefficient."""
    d1, d2 = hidden_shift(kind, s1, s2)
    mat = np.zeros((basis.dim, basis.dim))
    for n1, n2 in basis.states():
        if 0 <= n1 + d1 <= basis.cutoff and 0 <= n2 + d2 <= basis.cutoff:
            mat[basis.index(n1 + d1, n2 + d2), basis.index(n1, n2)] = fe.hidden_coefficient(
                kind, s1, s2, n1, n2)
    return mat


def _dense_bridge_residuals(s1):
    """Reference: each bridge-two-mode-* residual from the dense S = S1 (x) S1 on the whole grid,
    its columns kept at margin 3."""
    cutoff = len(s1) - 1
    s = np.kron(s1, s1)
    up, eye = fe._raising(cutoff + 1), np.eye(cutoff + 1)
    keep = fe.InteriorMask(fe.FockBasis(cutoff), margin1=3, margin2=3).indices()
    grid = np.ix_(keep, keep)
    out = []
    for pair in fe._conformal_pairs(up, up.T):
        x, y = ((np.kron(m, eye) + np.kron(eye, m)) / 4 for m in pair)
        sx = s @ x
        out.append(fe.operator_norm((sx - y @ s)[grid]) / max(fe.operator_norm(sx[grid]), 1.0))
    return out


def _padded_stack_norm(blocks):
    """Reference direct-sum norm: one stacked SVD of the blocks zero-padded to one shape."""
    if not blocks:
        return 0.0
    shape = np.max([block.shape for block in blocks], axis=0)
    stack = np.zeros((len(blocks), *shape), np.result_type(*blocks))
    for layer, block in zip(stack, blocks):
        layer[: block.shape[0], : block.shape[1]] = block
    return float(np.max(np.linalg.norm(stack, 2, axis=(1, 2))))


def _kron_loop_bridge_rows(cutoff):
    """Reference bridge-two-mode-* rows at margin 3: every Kronecker part, S's among them,
    rebuilt by np.kron for each row, and the direct sums normed by :func:`_padded_stack_norm`."""
    s1, side = fe.one_mode_bridge(cutoff), cutoff + 1
    up, eye = fe._raising(side), np.eye(side)

    def part(one, other, rows, cols):
        return np.kron(one[np.ix_(rows[0], cols[0])], other[np.ix_(rows[1], cols[1])])

    def two_mode(one, rows, cols):
        return (part(one, eye, rows, cols) + part(eye, one, rows, cols)) / 4

    classes = [[(np.arange(p1, end, 2), np.arange(p2, end, 2)) for end in (side, side - 3)]
               for p1 in (0, 1) for p2 in (0, 1)]
    rows = []
    for name, (x, y) in zip(fe._BRIDGE_ROWS, fe._conformal_pairs(up, up.T)):
        sx, diff = [], []
        for every, kept in classes:
            sx.append(part(s1, s1, kept, every) @ two_mode(x, every, kept))
            diff.append(sx[-1] - two_mode(y, kept, every) @ part(s1, s1, every, kept))
        resid = _padded_stack_norm(diff) / max(_padded_stack_norm(sx), 1.0)
        rows.append(check(f"bridge-two-mode-{name}", resid))
    return rows


class TestQuantumBridgeAgainstKronLoop:
    @pytest.mark.parametrize("cutoff", range(3, 25))
    def test_rows_equal_per_row_kron_loop(self, cutoff):
        got, want = fe.verify_quantum_bridge(cutoff), _kron_loop_bridge_rows(cutoff)
        assert [(r.check_id, r.identity, r.passed) for r in got] == [
            (r.check_id, r.identity, r.passed) for r in want]
        for row, ref in zip(got, want):
            assert row.residual == pytest.approx(ref.residual, rel=1e-13, abs=0.0), row.check_id


class TestQuantumBridgeAgainstDenseProducts:
    @pytest.mark.parametrize("cutoff,entry", [
        (10, (2, 0)), (10, (3, 5)), (10, (6, 6)), (16, (9, 13)), (9, (6, 8))])
    def test_perturbed_bridge_entry_matches_dense_residual(self, monkeypatch, cutoff, entry):
        # a parity-preserving entry of S1 scaled by 1 + 1e-6 keeps the parity blocks valid;
        # the rows must then read the dense grid residual, far above rounding
        exact = fe.one_mode_bridge

        def perturbed(size):
            s1 = exact(size)
            s1[entry] *= 1 + 1e-6
            return s1

        monkeypatch.setattr(fe, "one_mode_bridge", perturbed)
        rows = fe.verify_quantum_bridge(cutoff)
        wants = _dense_bridge_residuals(perturbed(cutoff))
        assert [row.check_id for row in rows] == [
            "bridge-two-mode-H", "bridge-two-mode-iD", "bridge-two-mode-K"]
        for row, want in zip(rows, wants):
            assert want > 1e-10, row.check_id
            assert row.residual == pytest.approx(want, rel=1e-9), row.check_id
            assert not row.passed, row.check_id

    @pytest.mark.parametrize("cutoff", [-1, 0, 2, 99])
    def test_cutoff_outside_the_fixed_margin_range_raises(self, cutoff):
        # the margin is 3, and one_mode_bridge holds up to cutoff 98
        with pytest.raises(ValueError, match=f"cutoff {cutoff} is not an integer in 3..98"):
            fe.verify_quantum_bridge(cutoff)


def _kron_ladder(basis, mode, direction):
    """Reference: the one-mode ladder kron the identity."""
    side = basis.cutoff + 1
    up = fe._raising(side)
    one, eye = (up if direction == "+" else up.T), np.eye(side)
    return np.kron(one, eye) if mode == 1 else np.kron(eye, one)


def _kron_cartesian_modes(basis):
    b1m, b2m = _kron_ladder(basis, 1, "-"), _kron_ladder(basis, 2, "-")
    a1m, a2m = (b1m + b2m) / math.sqrt(2), 1j * (b1m - b2m) / math.sqrt(2)
    return {"a1-": a1m, "a1+": a1m.T, "a2-": a2m, "a2+": a2m.conj().T}


def _kron_rni_hamiltonian(basis, coupling):
    """Reference: the hopping b1+ b2- + b2+ b1- as krons of one-mode ladders."""
    l1, l2 = coupling.float_ells()
    up, n = fe._raising(basis.cutoff + 1), np.arange(basis.cutoff + 1)
    total = np.add.outer(n, n).ravel()
    mat = (l1 - l2) / 2 * (np.kron(up, up.T) + np.kron(up.T, up))
    return mat + np.diag((l1 + l2) / 2 * total + 1)


def _diag_hamiltonian(basis, coupling):
    """Reference: np.diag of the exact levels (a n1 + b n2 + d)/d, one grid state at a time."""
    a, b, d = fe._integer_weights(coupling.ell1, coupling.ell2)
    return np.diag([(a * n1 + b * n2 + d) / d for n1, n2 in basis.states()])


_COUPLINGS = (Coupling(0), Coupling(F(1, 3)), Coupling(3), Coupling(F(-1, 2)),
              Coupling(1, isotropic_mink=True), Coupling(F(2, 7)), Coupling(-5),
              Coupling(F(-13, 11)), Coupling(-1, isotropic_mink=True), Coupling(1))

# _BUILDERS name -> [(block assembly, kron / np.diag reference)]
_KRON_ORACLES = {
    "ladder": [(lambda b, m=m, d=d: fe.ladder(b, m, d), lambda b, m=m, d=d: _kron_ladder(b, m, d))
               for m in (1, 2) for d in ("+", "-")],
    "hamiltonian": [(lambda b, c=c: fe.hamiltonian(b, c), lambda b, c=c: _diag_hamiltonian(b, c))
                    for c in _COUPLINGS],
    "rni_hamiltonian": [(lambda b, c=c: fe.rni_hamiltonian(b, c),
                         lambda b, c=c: _kron_rni_hamiltonian(b, c))
                        for c in _COUPLINGS],
    **{f"cartesian_modes:{name}": [(lambda b, name=name: fe.cartesian_modes(b)[name],
                                    lambda b, name=name: _kron_cartesian_modes(b)[name])]
       for name in ("a1-", "a1+", "a2-", "a2+")},
}


@pytest.mark.parametrize("cutoff", [1, 4, 7, 12])
@pytest.mark.parametrize("name", sorted(_KRON_ORACLES))
def test_block_assemblies_equal_kron_forms(name, cutoff):
    b = fe.FockBasis(cutoff)
    for build, reference in _KRON_ORACLES[name]:
        got, want = build(b), reference(b)
        assert got.dtype == want.dtype == _BUILDERS[name][1]
        assert np.array_equal(got, want)


class TestOperatorNormOfBlocks:
    def test_direct_sum_equals_dense_block_diagonal(self):
        import scipy.linalg

        rng = np.random.default_rng(7)
        blocks = [rng.normal(size=shape) + 1j * rng.normal(size=shape)
                  for shape in ((3, 4), (1, 1), (5, 2), (4, 4), (2, 6))]
        dense = scipy.linalg.block_diag(*blocks)
        assert fe.operator_norm(blocks) == pytest.approx(fe.operator_norm(dense), rel=1e-13)
        assert fe.operator_norm(blocks) == pytest.approx(
            max(fe.operator_norm(block) for block in blocks), rel=1e-13)

    def test_real_blocks_and_empty_sum(self):
        blocks = [np.diag([3.0, -1.0]), np.array([[0.5]]), np.zeros((0, 3))]
        assert fe.operator_norm(blocks) == pytest.approx(3.0, rel=1e-15)
        assert fe.operator_norm([]) == 0.0

    @pytest.mark.parametrize("shapes", [
        ((3, 0), (2, 2)), ((0, 3), (4, 1)), ((3, 0), (0, 3), (1, 5), (0, 0)), ((5, 3), (0, 7))])
    @pytest.mark.parametrize("dtypes", [(float,), (complex,), (float, complex)])
    def test_empty_and_mixed_blocks_match_padded_stack(self, shapes, dtypes):
        rng = np.random.default_rng(11)
        blocks = []
        for k, shape in enumerate(shapes):
            block = rng.normal(size=shape)
            blocks.append(block + 1j * rng.normal(size=shape)
                          if dtypes[k % len(dtypes)] is complex else block)
        got = fe.operator_norm(blocks)
        assert type(got) is float and got > 0.0
        assert got == pytest.approx(_padded_stack_norm(blocks), rel=1e-13)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_inf_block_gives_nan_wherever_it_stands(self, position):
        # a nan block norm after a finite one must not be dropped by the maximum
        blocks = [np.eye(2), 3.0 * np.eye(3)]
        blocks.insert(position, np.array([[np.inf]]))
        assert math.isnan(_padded_stack_norm(blocks))
        assert math.isnan(fe.operator_norm(blocks))

    @pytest.mark.parametrize("shapes", [[(3, 0)], [(0, 3)], [(3, 0), (0, 3), (0, 0)]])
    def test_only_empty_blocks_is_zero(self, shapes):
        blocks = [np.zeros(shape) for shape in shapes] + [np.zeros((0, 2), complex)]
        assert fe.operator_norm(blocks) == 0.0 == _padded_stack_norm(blocks)
