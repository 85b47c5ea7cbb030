"""Coherent states: lowering-operator eigenvalues, time evolution, rotation.

Builds the joint coherent state Phi_{alpha beta}, confirms it is an exact
eigenstate of both lowering operators, then compares closed-form time
evolution (each label just rotates with its mode frequency) and rigid
rotation against direct evaluation on a grid.

Run:  python3 demos/coherent_motion.py
"""
from fractions import Fraction as F

import numpy as np

from riaho import bridge, classdyn
from riaho.coupling import Coupling


def main():
    alpha, beta = 0.9 - 0.2j, -0.3 + 0.6j
    coupling = Coupling(F(1, 3))
    report = bridge.coherent_checks(alpha, beta, t=1.7, gamma=0.8,
                                    coupling=coupling)
    print(f"alpha = {alpha}, beta = {beta}, g = {coupling.g}")
    for row in report.rows:
        print(f"  {row.check_id:>22}: residual {row.residual:.2e}"
              f"  {'ok' if row.passed else 'FAIL'}")

    # packet center <z> = (hbar/m w)(conj(alpha_t) + beta_t) traces the
    # classical two-circle orbit; labels rotate at w*l1 and w*l2
    units = bridge.Units()
    period = classdyn.closure_period(coupling, units.omega)
    scale = units.hbar / (units.m * units.omega)
    print(f"\npacket center over one closure period T = {period:.4f} (g = 1/3):")
    for t in np.linspace(0.0, period, 7):
        a_t, b_t = bridge.evolved_labels(alpha, beta, t, coupling, units)
        z = scale * (a_t.conjugate() + b_t)
        print(f"  t = {t:7.4f}: <x1> = {z.real:+.4f}, <x2> = {z.imag:+.4f}")


if __name__ == "__main__":
    main()
