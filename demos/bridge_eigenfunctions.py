"""From monomials to oscillator eigenfunctions via the similarity map.

The bridged monomial z^n1 zbar^n2 lands on the (n1, n2) eigenfunction up
to a constant.  This demo prints the fitted constants, shows that the
reduced constant (the part left after stripping the known n-dependence)
is state independent, checks by quadrature that the eigenfunctions are
orthonormal, and verifies the Gaussian-smoothing identity behind the
one-coordinate version.

Run:  python3 demos/bridge_eigenfunctions.py
"""
import numpy as np

from riaho import bridge
from riaho.reports import check


def main():
    print("proportionality of bridged monomials to eigenfunctions:")
    print("  (n1,n2)   constant        reduced     spread")
    for n1, n2 in ((0, 0), (1, 0), (0, 2), (2, 1), (3, 3)):
        rep = bridge.verify_bridge_proportionality(n1, n2)
        row = check(f"proportionality:{n1}{n2}", rep.spread)
        print(f"  ({n1},{n2})    {rep.constant:11.6f}  {rep.reduced_constant:11.6f}"
              f"  {rep.spread:.1e}  {'ok' if row.passed else 'FAIL'}")

    gram = bridge.overlap_matrix(3)
    resid = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    print(f"\nGram matrix of eigenfunctions with n1,n2 <= 3: "
          f"max |G - I| = {resid:.1e}")

    print("\nGaussian smoothing of powers (exact rational identity):")
    for n in (0, 1, 4, 7, 10):
        rep = bridge.inverse_weierstrass(n)
        print(f"  n = {n:>2}: e^(-d^2/4) eta^n = 2^-n H_n(eta)"
              f" ... {'exact' if rep.passed else 'FAIL'}")

    psi = bridge.eigenstate(1, 2)
    norm = bridge.inner_product(psi, psi).real
    print(f"\n|<psi_12 | psi_12>| by quadrature = {norm:.12f}")


if __name__ == "__main__":
    main()
