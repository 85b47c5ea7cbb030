"""The two-frequency engine behind the coupled model.

An anisotropic oscillator with commensurable frequencies (w1, w2) carries
the same hidden ladder structure in both signed forms H^(+) and H^(-).
This demo prints the exact signed spectra, the resonant ladder operators
and their degeneracy orbits, the so(1,1) invariant of the equal-frequency
sign=- case, and Lissajous closure for a few frequency ratios.

Run:  python3 demos/signed_pair.py
"""
import math
from fractions import Fraction as F

from riaho import aniso
from riaho.fockeng import FockBasis


def main():
    basis = FockBasis(6)
    freq = aniso.FrequencyPair.detect(F(1), F(3))
    print(f"frequencies (w1, w2) = (1, 3), labels (l1, l2) = "
          f"({freq.l1}, {freq.l2})")
    for sign in ("+", "-"):
        levels: dict = {}
        for n1, n2 in basis.states():
            if n1 + n2 <= 3:
                levels.setdefault(aniso.spectrum(freq, sign, n1, n2),
                                  []).append((n1, n2))
        print(f"  H^({sign}) levels (n1+n2 <= 3):")
        for e in sorted(levels):
            members = " ".join(f"({a},{b})" for a, b in sorted(levels[e]))
            print(f"    E = {str(e):>5}: {members}")

    print("\nhidden ladders and degeneracy orbits:")
    for sign, kind in (("+", "L"), ("-", "J")):
        orbits = aniso.hidden_orbits(basis, freq, kind)
        classes = aniso.degeneracy_partition(basis, freq, sign)
        row = aniso.verify_signed_spectrum(basis, freq, sign)
        print(f"  sign {sign}, kind {kind}: {len(orbits)} orbits, "
              f"match classes: {orbits == classes}, "
              f"ladder-built spectrum residual {row.residual:.1e}")

    print("\nso(1,1) invariant at equal frequencies (sign -):")
    for chk in aniso.so11_invariant_check(cutoff=8).rows:
        res = "exact" if chk.residual in (None, 0.0) else f"{chk.residual:.1e}"
        print(f"  {chk.check_id:>22}: {res}  {'ok' if chk.passed else 'FAIL'}")

    print("\nLissajous closure:")
    for w1, w2 in ((1, 3), (1, 4), (3, 5)):
        fr = aniso.FrequencyPair.detect(F(w1), F(w2))
        T = aniso.closure_period(fr)
        x0 = aniso.lissajous(1.0, 0.3, 0.7, 1.0, fr, 0.0)
        xT = aniso.lissajous(1.0, 0.3, 0.7, 1.0, fr, T)
        gap = math.hypot(xT[0] - x0[0], xT[1] - x0[1])
        print(f"  w1:w2 = {w1}:{w2}  T = {T:8.4f}  |x(T)-x(0)| = {gap:.1e}")


if __name__ == "__main__":
    main()
