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

F = Fraction


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

    def test_vector(self):
        b = fe.FockBasis(2)
        v = b.vector(1, 1)
        assert v[b.index(1, 1)] == 1.0
        assert np.count_nonzero(v) == 1


_BUILDERS = {
    "ladder": (lambda b: fe.ladder(b, 2, "-"), np.float64),
    "number_operator": (lambda b: fe.number_operator(b, 1), np.float64),
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
        v = up @ b.vector(2, 1)
        assert v[b.index(3, 1)] == pytest.approx(math.sqrt(3))

    def test_lowering_amplitude_and_vacuum(self):
        b = fe.FockBasis(4)
        dn = fe.ladder(b, 2, "-")
        v = dn @ b.vector(1, 3)
        assert v[b.index(1, 2)] == pytest.approx(math.sqrt(3))
        assert np.allclose(dn @ b.vector(2, 0), 0.0)

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

    def test_number_operator(self):
        b = fe.FockBasis(4)
        n1 = fe.number_operator(b, 1)
        up, dn = fe.ladder(b, 1, "+"), fe.ladder(b, 1, "-")
        # a+ a- equals the number operator exactly, even at the edge
        assert fe.operator_norm(up @ dn - n1) < 1e-14


class TestInteriorMask:
    def test_margins(self):
        b = fe.FockBasis(3)
        m = fe.InteriorMask(b, margin1=1, margin2=2)
        assert m.contains(2, 1)
        assert not m.contains(3, 0)
        assert not m.contains(0, 2)

    def test_total_budget(self):
        b = fe.FockBasis(4)
        m = fe.InteriorMask(b, total=2)
        assert set(m.states()) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}

    def test_restrict_shapes(self):
        b = fe.FockBasis(3)
        m = fe.InteriorMask(b, margin1=1, margin2=1)
        mat = np.arange(b.dim * b.dim, dtype=float).reshape(b.dim, b.dim)
        assert m.restrict_columns(mat).shape == (16, 9)
        assert m.restrict(mat).shape == (9, 9)

    def test_validation(self):
        b = fe.FockBasis(3)
        with pytest.raises(ValueError):
            fe.InteriorMask(b, margin1=-1)
        with pytest.raises(ValueError):
            fe.InteriorMask(b, margin2=4)


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

    def test_hbar_omega_scaling(self):
        b = fe.FockBasis(3)
        h1 = fe.hamiltonian(b, Coupling(F(1, 2)), hbar_omega=1.0)
        h2 = fe.hamiltonian(b, Coupling(F(1, 2)), hbar_omega=2.5)
        assert fe.operator_norm(h2 - 2.5 * h1) < 1e-14

    def test_angular_momentum_conserved(self):
        b = fe.FockBasis(6)
        for g in (0, F(1, 3), 3):
            comm = fe.commutator(fe.hamiltonian(b, Coupling(F(g))), fe.angular_momentum(b))
            assert fe.operator_norm(comm) == 0.0

    def test_angular_momentum_values(self):
        b = fe.FockBasis(3)
        pphi = fe.angular_momentum(b, hbar=1.0)
        assert pphi[b.index(3, 1), b.index(3, 1)] == 2


class TestNonFiniteEntries:
    """An operator whose float entries leave the float range raises ValueError, not inf or nan."""

    @pytest.mark.parametrize("build", [
        lambda b: fe.hamiltonian(b, Coupling(F(1, 3)), 1e308),
        lambda b: fe.hamiltonian(b, Coupling(0), float("nan")),
        lambda b: fe.angular_momentum(b, 1e308),
        lambda b: fe.angular_momentum(b, float("nan")),
        lambda b: fe.rni_hamiltonian(b, Coupling(10**308)),
        lambda b: fe.rni_hamiltonian(b, Coupling(1), float("inf")),
    ])
    def test_rejected_without_warnings(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                build(fe.FockBasis(2))


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

    def test_energy_window(self):
        classes = fe.degeneracy_classes(Coupling(0), fe.FockBasis(6), energy_window=(2, 3))
        assert [k.energy for k in classes] == [F(2), F(3)]
        assert classes[0].class_id == 0

    def test_energy_window_compares_exactly(self):
        # E = 2 + 10^-17 rounds to 2.0 as a float but lies above the window
        g = F(1, 10**17)
        classes = fe.degeneracy_classes(Coupling(g), fe.FockBasis(4), energy_window=(None, 2))
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


class TestHiddenOperators:
    def test_frozen_examples(self):
        b = fe.FockBasis(8)
        c = Coupling(F(1, 3))
        lp = fe.hidden_operator(b, c, "L", 1, 2)
        v = lp @ b.vector(0, 2)
        assert v[b.index(1, 0)] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(np.abs(v) > 1e-14) == 1
        lm = fe.hidden_operator(b, c, "L", 1, 2, sign="-")
        assert np.allclose(lm @ b.vector(0, 2), 0.0)
        jp = fe.hidden_operator(b, Coupling(3), "J", 1, 2)
        w = jp @ b.vector(0, 0)
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
            row = fe.verify_commutes(fe.hamiltonian(b, c), x, tol=1e-12)
            assert row.passed and row.residual <= 1e-12

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
        v = b.vector(0, 4)
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

    def test_masked_orbits(self):
        b = fe.FockBasis(8)
        c = Coupling(F(1, 3))
        mask = fe.InteriorMask(b, margin1=1, margin2=2)
        orbits = set(fe.hidden_orbit_partition(b, c, "L", 1, 2, mask=mask))
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
        n_tot_b = fe.number_operator(b, 1) + fe.number_operator(b, 2)
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

    def test_hbar_omega_scaling(self):
        b = fe.FockBasis(4)
        h1 = fe.rni_hamiltonian(b, Coupling(F(1, 3)), hbar_omega=1.0)
        h3 = fe.rni_hamiltonian(b, Coupling(F(1, 3)), hbar_omega=3.0)
        assert fe.operator_norm(h3 - 3.0 * h1) < 1e-13


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


@pytest.fixture(scope="module")
def reference_bridge_99():
    # entries do not depend on the size, so smaller sizes are leading blocks
    return _reference_bridge(99)


class TestOneModeBridgeExact:
    def test_frozen_entries(self):
        # S' = diag(sqrt2^(i mod 2)) R: R[1, 1] = 1 is the entry sqrt 2 of S'
        r = fe.one_mode_bridge_unnormalized(5)
        assert r[0, 0] == 1
        assert r[1, 1] == 1
        assert r[0, 2] == -1
        assert r[2, 0] == F(-1, 2)
        assert r[2, 2] == F(5, 2)
        # opposite parity never couples
        assert r[1, 0] == 0 and r[0, 3] == 0

    def test_entries_are_fractions(self):
        r = fe.one_mode_bridge_unnormalized(6)
        assert r.dtype == object and r.shape == (6, 6)
        assert all(isinstance(q, Fraction) for q in r.flat)

    def test_parity_factored_matches_reference(self, reference_bridge_99):
        sqrt2 = ExactComplex.sqrt2()
        for size in range(1, 32):
            r = fe.one_mode_bridge_unnormalized(size)
            for i in range(size):
                for j in range(size):
                    expected = reference_bridge_99[i][j]
                    entry = ExactComplex.coerce(r[i, j])
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

    @pytest.mark.parametrize("entry", [(2, 2), (3, 1), (8, 4)])
    def test_perturbed_bridge_fails_every_row(self, monkeypatch, entry):
        exact = fe.one_mode_bridge_unnormalized

        def perturbed(size):
            r = exact(size)
            r[entry] += F(1, 3)
            return r

        monkeypatch.setattr(fe, "one_mode_bridge_unnormalized", perturbed)
        rows = fe.verify_one_mode_bridge(11)
        assert [row.check_id for row in rows] == [
            "bridge-one-mode-H", "bridge-one-mode-iD", "bridge-one-mode-K"]
        for row in rows:
            assert not row.passed, row.check_id
            assert row.residual is None


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

    def test_two_mode_intertwining(self):
        for row in fe.verify_quantum_bridge(10, margin=3):
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
            SimpleNamespace(truncation=cutoff, tol_fock=1e-12)).rows}

    @pytest.mark.parametrize("cutoff", [6, 12])
    def test_perturbed_unitary_block_residuals(self, monkeypatch, cutoff):
        # one entry of the full block N = 2 scaled by 1 + 1e-6 moves every unitary-* row
        exact = fe.unitary_bridge
        b = fe.FockBasis(cutoff)

        def perturbed(basis):
            u = exact(basis)
            u[basis.index(1, 1), basis.index(0, 2)] *= 1 + 1e-6
            return u

        monkeypatch.setattr(fe, "unitary_bridge", perturbed)
        rows = self.suite(cutoff)
        for check_id, want in _dense_unitary_rows(b, perturbed(b)).items():
            assert want > 1e-8, check_id
            assert rows[check_id].residual == pytest.approx(want, rel=1e-9), check_id

    def test_non_commuting_ladder_matches_dense_commutator(self, monkeypatch):
        # the other kind's ladder joins states of different energy, so the elementwise
        # commutator of the suite must equal the dense one, and be far from zero
        def swapped(basis, coupling, kind, s1, s2, sign="+"):
            other = "J" if kind == "L" else "L"
            return fe._hidden_ladder_matrix(basis, other, s1, s2, sign)

        monkeypatch.setattr(fe, "hidden_operator", swapped)
        b = fe.FockBasis(8)
        rows = self.suite(8)
        for gtext, kind in (("1/3", "L"), ("3", "J")):
            c = Coupling(F(gtext))
            dense = fe.verify_commutes(fe.hamiltonian(b, c), swapped(b, c, kind, 1, 2),
                                       fe.InteriorMask(b, margin1=1, margin2=2))
            got = rows[f"hidden-commutes:g={gtext}"]
            assert dense.residual > 1
            assert got.residual == pytest.approx(dense.residual, rel=1e-12)
            assert not got.passed
