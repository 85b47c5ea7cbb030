"""Walk the two orbit galleries and print what each trajectory does.

For every fixture: the rational coupling, the mode weights (l1, l2), the
closure period, whether the curve passes through the origin, whether it
cusps, and how far the closed form drifts from a fixed-step integration
over one full period.

Run:  python3 demos/orbit_gallery.py
"""
import math

import numpy as np

from riaho import classdyn


def describe(which: str):
    print(f"--- {which} gallery ---")
    gallery = classdyn.gallery_params(which)
    periods = [classdyn.closure_period(p.coupling, p.omega) for _, p in gallery]
    runs = classdyn.integrate_many(
        [(classdyn.state_from_params(p), p.coupling, p.omega, period)
         for (_, p), period in zip(gallery, periods)],
        steps=2048,
    )
    for (label, params), period, (ts, states) in zip(gallery, periods, runs):
        c = params.coupling

        x1a, x2a = classdyn.position(params, 0.0)
        x1b, x2b = classdyn.position(params, period)
        closure = math.hypot(float(x1b) - float(x1a), float(x2b) - float(x2a))

        x1, x2 = classdyn.position(params, ts)
        v1, v2 = classdyn.velocity(params, ts)
        gw = c.as_float() * params.omega
        closed = np.stack([x1, x2, v1 + gw * x2, v2 - gw * x1], axis=1)
        drift = float(np.max(np.abs(states - closed)))

        flags = []
        if classdyn.pass_through_origin(params):
            flags.append("origin")
        if classdyn.is_cusped(params):
            flags.append("cusp")
        print(
            f"  {label}: g={str(c.g):>4}  (l1,l2)=({c.ell1},{c.ell2})"
            f"  R=({params.R1:g},{params.R2:g})  T={period:.6f}"
            f"  closure={closure:.1e}  rk4 drift={drift:.1e}"
            f"  {','.join(flags) or '-'}"
        )


def main():
    describe("orbits")
    describe("cusps")
    print()
    print("Conserved values on orbit 'b' (g=1/3, R1=R2=1):")
    _, params = classdyn.gallery_params("orbits")[1]
    for name, value in classdyn.conserved_values(params).items():
        if isinstance(value, complex):
            print(f"  {name:>4} = {value.real:+.6f}{value.imag:+.6f}j")
        else:
            print(f"  {name:>4} = {value:+.6f}")


if __name__ == "__main__":
    main()
