"""Exact symbolic checks of the quadratic symmetry algebra.

Evaluates the full sp(4,R) bracket table and the four Casimir identities
over the exact polynomial ring (no floats anywhere), then sweeps ladder
orders to show exactly when the hidden combinations survive as true
integrals of motion.

Run:  python3 demos/symmetry_algebra.py
"""
from fractions import Fraction as F

from riaho.coupling import Coupling
from riaho.phasealg import (is_true_integral, verify_casimirs,
                            verify_sp4_table)


def main():
    for g in (F(1, 3), F(3)):
        checks = verify_sp4_table(g)
        bad = [c.check_id for c in checks if not c.passed]
        print(f"g = {g}: bracket table {len(checks)} identities, "
              f"{'all exact' if not bad else 'FAILED ' + ', '.join(bad)}")
        for c in verify_casimirs(g):
            print(f"  {c.check_id.removeprefix('casimir:')}: {'exact' if c.passed else c.detail}")

    print()
    print("hidden ladder combinations (orders s1, s2 up to 3):")
    couplings = [F(0), F(1, 3), F(1, 2), F(1), F(3), F(-1, 3), F(-3)]
    header = "      " + "  ".join(f"{str(g):>5}" for g in couplings)
    print("  kind s1 s2 | true integral at g =")
    print(header)
    for kind in ("L", "J"):
        for s1 in range(1, 4):
            for s2 in range(1, 4):
                marks = []
                for g in couplings:
                    ok = is_true_integral(Coupling(g), kind, s1, s2)
                    marks.append("yes" if ok else ".")
                print(f"  {kind}    {s1}  {s2} | " +
                      "  ".join(f"{m:>5}" for m in marks))
    print()
    print("The 'yes' entries solve s1*l1 = s2*l2 (kind L) or")
    print("s1*l1 + s2*l2 = 0 (kind J) with l1 = 1+g, l2 = 1-g.")


if __name__ == "__main__":
    main()
