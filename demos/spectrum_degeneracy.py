"""Exact spectra and their degeneracy structure at rational coupling.

Shows the closed-form energies E/(hbar w) = l1*n1 + l2*n2 + 1 as exact
fractions, groups states into degeneracy classes, and checks the classes
against the orbits of the hidden ladder operators.  The g = 1 point
reproduces infinitely degenerate Landau-like levels.

Run:  python3 demos/spectrum_degeneracy.py
"""
from fractions import Fraction as F

from riaho import fockeng
from riaho.coupling import Coupling
from riaho.fockeng import FockBasis, InteriorMask


def show_classes(gtext: str, emax):
    coupling = Coupling(F(gtext))
    basis = FockBasis(12)
    classes = fockeng.degeneracy_classes(coupling, basis, emax)
    print(f"g = {gtext}: levels up to E = {emax}")
    for cls in classes:
        members = " ".join(f"({n1},{n2})" for n1, n2 in cls.states)
        tag = "complete" if cls.complete else "cut by truncation"
        print(f"  E = {str(cls.energy):>5}  x{len(cls.states):<2} {tag:>18}  {members}")
    print()


def main():
    show_classes("1/3", F(3))
    show_classes("3", F(9))
    show_classes("1", F(4))

    print("hidden-ladder orbits vs exact degeneracy classes (interior):")
    basis = FockBasis(12)
    for gtext, kind, s1, s2 in (("1/3", "L", 1, 2), ("3", "J", 1, 2)):
        coupling = Coupling(F(gtext))
        mask = InteriorMask(basis, margin1=s1, margin2=s2)
        orbits = fockeng.hidden_orbit_partition(mask, coupling, kind, s1, s2)
        groups: dict = {}
        for n1, n2 in mask.states():
            groups.setdefault(fockeng.exact_energy(coupling, n1, n2), []).append((n1, n2))
        partition = sorted((frozenset(v) for v in groups.values()), key=min)
        h = fockeng.hamiltonian(basis, coupling)
        op = fockeng.hidden_operator(basis, coupling, kind, s1, s2, "+")
        comm = fockeng.operator_norm(mask.restrict_columns(fockeng.commutator(h, op)))
        print(f"  g = {gtext}, {kind}+_{s1}{s2}: {len(orbits)} orbits, "
              f"partitions {'match' if partition == orbits else 'DIFFER'}, "
              f"|[H, op]| = {comm:.1e}")


if __name__ == "__main__":
    main()
