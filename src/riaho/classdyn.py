"""Classical orbits of the rotationally invariant anisotropic oscillator.

The canonical Hamiltonian

    H_g = (p1^2 + p2^2)/2m + m w^2 (x1^2 + x2^2)/2 + g w (x1 p2 - x2 p1)

decouples into circular modes rotating at rates w*ell1 and -w*ell2, so the
orbit in the plane z = x1 + i x2 is the two-frequency epicycle

    z(t) = R1 e^{i gamma1} e^{i w ell1 t} + R2 e^{-i gamma2} e^{-i w ell2 t}.

This module gives the closed form, Hamilton's equations with a fixed-step
RK4 cross-check, exact closure periods, the cusp and origin-crossing
predicates that organize the orbit gallery, and evaluation of the catalog
integrals along orbits.  Everything here uses the m = 1 normalization (the
radii are in units of 1/sqrt(m*w) anyway); the flow helpers accept m for
completeness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coupling import Coupling
from .phasealg.catalog import GENERATOR_NAMES, generator
from .phasealg.exact import _sample, require_choice, require_int, require_real, to_float
from .phasealg.poly import Params
from .reports import VerificationReport, check

__all__ = [
    "TrajectoryParams", "PhaseState", "position", "velocity", "momentum",
    "state_from_params", "hamiltonian_flow_rhs", "hamiltonian_value",
    "integrate", "integrate_many", "closure_turns", "closure_period", "is_cusped",
    "pass_through_origin", "conserved_values",
    "ORBIT_GALLERY", "CUSP_GALLERY", "gallery_params", "suite_classical",
]


@dataclass(frozen=True)
class TrajectoryParams:
    """Two-mode orbit data: radii, phases, frequency, coupling.

    Radii and phases must be finite reals, radii non-negative, and omega a
    positive finite real; anything else raises ValueError.  They are stored as
    floats.
    """

    R1: float
    R2: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    omega: float = 1.0
    coupling: Coupling = Coupling(Fraction(0))

    def __post_init__(self):
        for name in ("R1", "R2", "gamma1", "gamma2", "omega"):
            value = require_real(getattr(self, name), name, positive=name == "omega")
            object.__setattr__(self, name, value)
        if self.R1 < 0 or self.R2 < 0:
            raise ValueError("radii must be non-negative")
        object.__setattr__(self, "coupling", Coupling.coerce(self.coupling))


@dataclass
class PhaseState:
    """Canonical phase-space point of finite reals (ValueError otherwise), stored as floats."""

    x1: float
    x2: float
    p1: float
    p2: float

    def __post_init__(self):
        for name in ("x1", "x2", "p1", "p2"):
            setattr(self, name, require_real(getattr(self, name), name))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.p1, self.p2], dtype=float)


def _mode_values(params: TrajectoryParams, t):
    """(b1plus, b2minus) along the orbit; z = b1plus + b2minus.  A scalar t goes
    through the real-argument rule; an array of times is used as given."""
    t = np.asarray(_sample(t, "t"), dtype=float)
    w = params.omega
    l1, l2 = params.coupling.float_ells()
    b1p = params.R1 * np.exp(1j * (params.gamma1 + w * l1 * t))
    b2m = params.R2 * np.exp(-1j * (params.gamma2 + w * l2 * t))
    return b1p, b2m


def _path(params: TrajectoryParams, t):
    """(z, dz/dt) along the orbit from one evaluation of the modes; t as in :func:`position`."""
    b1p, b2m = _mode_values(params, t)
    l1, l2 = params.coupling.float_ells()
    return b1p + b2m, 1j * params.omega * (l1 * b1p - l2 * b2m)


def _momenta(params: TrajectoryParams, z, zdot, m: float):
    """Canonical momenta (p1, p2) at the points z with velocities zdot."""
    gw = params.coupling.as_float() * params.omega
    return m * (zdot.real + gw * z.imag), m * (zdot.imag - gw * z.real)


def position(params: TrajectoryParams, t):
    """Closed-form (x1, x2) at time(s) t.

    A scalar t must be a finite real (ValueError otherwise); a numpy array or
    a sequence of times is used as given.
    """
    z, _ = _path(params, t)
    return z.real, z.imag


def velocity(params: TrajectoryParams, t):
    """Closed-form (dx1/dt, dx2/dt); t as in :func:`position`."""
    _, zdot = _path(params, t)
    return zdot.real, zdot.imag


def momentum(params: TrajectoryParams, t, m: float = 1.0):
    """Closed-form canonical momenta (p1, p2); they include the rotational
    shift p1 = m(dx1/dt + g w x2), p2 = m(dx2/dt - g w x1).  t as in
    :func:`position`; m must be a positive finite real (ValueError otherwise)."""
    m = require_real(m, "m", positive=True)
    return _momenta(params, *_path(params, t), m)


def state_from_params(params: TrajectoryParams, t: float = 0.0,
                      m: float = 1.0) -> PhaseState:
    """Canonical state on the orbit at one time t (see :func:`momentum`); t must
    be a finite real (ValueError otherwise)."""
    t, m = require_real(t, "t"), require_real(m, "m", positive=True)
    z, zdot = _path(params, t)  # the modes once, for both position and momenta
    return PhaseState(float(z.real), float(z.imag), *map(float, _momenta(params, z, zdot, m)))


# S of the canonical form: S A y is the gradient of H_g when A y is its flow
_SYMPLECTIC = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])


def _generator(coupling, omega: float, m: float) -> np.ndarray:
    """The 4x4 matrix A of Hamilton's equations y' = A y, y = (x1, x2, p1, p2), of
    H_g = s*H_osc + c*omega*p_phi with s = (ell1 + ell2)/2 and c = (ell1 - ell2)/2 taken
    exactly from the coupling: (1, g) at finite g, (0, +-1) in the |g| -> inf limit.
    ``omega`` and ``m`` must be positive finite reals, and c, m*omega^2 and every entry of A
    floats; an entry past the float range (c*omega or s/m) raises ValueError."""
    c = Coupling.coerce(coupling)
    omega, m = require_real(omega, "omega", positive=True), require_real(m, "m", positive=True)
    s = float((c.ell1 + c.ell2) / 2)  # 1, or 0 in the |g| -> inf limit
    rot = to_float((c.ell1 - c.ell2) / 2, "coupling g") * omega
    try:
        spring = s * m * omega ** 2
    except OverflowError:
        raise ValueError(f"m*omega^2 at omega {omega!r} leaves the float range") from None
    a = np.array([[0.0, -rot, s / m, 0.0], [rot, 0.0, 0.0, s / m],
                  [-spring, 0.0, 0.0, -rot], [0.0, -spring, rot, 0.0]])
    if not np.isfinite(a).all():
        raise ValueError(f"g*omega or 1/m at omega {omega!r}, m {m!r} leaves the float range")
    return a


def _state_vector(state) -> np.ndarray:
    return state.as_array() if isinstance(state, PhaseState) else np.asarray(state, dtype=float)


def hamiltonian_flow_rhs(state, coupling, omega: float, m: float = 1.0):
    """Hamilton's equations of H_g as the 4-vector A y = (dx1, dx2, dp1, dp2) at a PhaseState
    or length-4 sequence y; ``omega`` and ``m`` must be positive finite reals (ValueError
    otherwise)."""
    return _generator(coupling, omega, m) @ _state_vector(state)


def hamiltonian_value(state, coupling, omega: float, m: float = 1.0) -> float:
    """H_g = y.(S A y)/2 at a PhaseState or length-4 sequence y, S = [[0, -I], [I, 0]];
    ``omega`` and ``m`` as in :func:`hamiltonian_flow_rhs`."""
    y = _state_vector(state)
    return float(y @ _SYMPLECTIC @ _generator(coupling, omega, m) @ y) / 2


def _rk4_step_matrix(coupling: Coupling, omega: float, h: float, m: float) -> np.ndarray:
    """One classical RK4 step of y' = A y as the matrix
    P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, A from :func:`_generator`."""
    eye = np.eye(4)
    hA = h * _generator(coupling, omega, m)
    return eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4) / 3) / 2)


def integrate_many(problems, steps: int = 4096, m: float = 1.0) -> list:
    """Fixed-step RK4 over [0, T] for each ``(state0, coupling, omega, T)`` in
    ``problems``; returns one (times, states[steps+1, 4]) pair per problem, in order.

    Deterministic cross-check oracle for the closed form, not a production
    integrator.  H_g is quadratic, so Hamilton's equations are linear,
    y' = A y, and one RK4 step is a fixed 4x4 matrix per problem.  The k step
    matrices are stacked and all k states advance together, one batched
    product per step; every state sees the same per-step products as when it
    is integrated alone.  The truncation error of RK4 is kept, not the exact
    flow.  The states are views into one shared (steps+1, k, 4, 1) buffer.
    ``problems`` must be non-empty, ``steps`` an int >= 1, each ``T`` a finite
    real and each ``omega`` and ``m`` a positive finite real; anything else
    raises ValueError.
    """
    require_int(steps, "steps", 1)
    m = require_real(m, "m", positive=True)
    if len(problems) == 0:
        raise ValueError("problems is empty: give at least one (state0, coupling, omega, T)")
    step = np.empty((len(problems), 4, 4))
    out = np.empty((steps + 1, len(problems), 4, 1))  # column vectors, as matmul takes them
    times = []
    for i, (state0, coupling, omega, T) in enumerate(problems):
        T, omega = require_real(T, "T"), require_real(omega, "omega", positive=True)
        out[0, i, :, 0] = _state_vector(state0)
        step[i] = _rk4_step_matrix(Coupling.coerce(coupling), omega, T / steps, m)
        times.append(np.linspace(0.0, T, steps + 1))
    for now, after in zip(out[:-1], out[1:]):
        np.matmul(step, now, out=after)
    return [(ts, out[:, i, :, 0]) for i, ts in enumerate(times)]


def integrate(state0, coupling, omega: float, T: float, steps: int = 4096,
              m: float = 1.0):
    """Fixed-step RK4 over [0, T]; returns (times, states[steps+1, 4]).

    The one-problem form of :func:`integrate_many`, with the same checks.
    """
    return integrate_many([(state0, coupling, omega, T)], steps, m)[0]


def closure_turns(coupling) -> Fraction:
    """Closure period in units of 2*pi/omega, as an exact rational.

    Smallest T with w*ell_i*T in 2*pi*Z for every nonzero ell_i: s2/|ell1| from the
    coprime mode orders (s1*ell1 = +-s2*ell2), or 1/2 at |g| = 1, where the frozen
    mode only shifts the center.
    """
    c = Coupling.coerce(coupling)
    orders = c.mode_orders
    if orders is None:
        return Fraction(1, 2)
    return orders[1] / abs(c.ell1)


def closure_period(coupling, omega: float = 1.0) -> float:
    """Smallest positive orbit period, in the same time units as 1/omega;
    inf when it exceeds the float range.  An omega that is not a positive
    finite real raises ValueError."""
    omega = require_real(omega, "omega", positive=True)
    try:
        return float(closure_turns(coupling)) * 2.0 * math.pi / omega
    except OverflowError:
        return math.inf


def is_cusped(params: TrajectoryParams) -> bool:
    """True when the orbit has velocity zeros: R1|ell1| = R2|ell2| to 1e-9 relative."""
    l1, l2 = params.coupling.float_ells()
    return math.isclose(params.R1 * abs(l1), params.R2 * abs(l2), rel_tol=1e-9, abs_tol=0.0)


def pass_through_origin(params: TrajectoryParams) -> bool:
    """True when the orbit reaches z = 0, i.e. R1 = R2 (p_phi = 0) to 1e-9 relative.

    The relative phase of the two epicycle terms winds monotonically
    (at rate w*(ell1 + ell2) = 2w), so equal radii always produce an exact
    cancellation somewhere on the orbit.
    """
    if params.R1 == params.R2 == 0.0:
        return True
    return math.isclose(params.R1, params.R2, rel_tol=1e-9, abs_tol=0.0)


def conserved_values(params: TrajectoryParams, t: float = 0.0) -> dict:
    """All catalog integrals evaluated on the orbit at time t.

    Each value includes the generator's e^{i*mu*w*t} prefactor, so the
    returned numbers are time-independent; J0 and L2 are real.  A value
    outside the float range raises ValueError.
    """
    b1p, b2m = _mode_values(params, t)
    point = {
        "b1+": complex(b1p), "b1-": complex(np.conj(b1p)),
        "b2-": complex(b2m), "b2+": complex(np.conj(b2m)),
    }
    alg_params = Params(Fraction(1), Fraction(params.omega))
    out = {}
    for name in GENERATOR_NAMES:
        gen = generator(name, params.coupling, alg_params)
        out[name] = gen.evaluate(point, t)
    try:
        out["H_g"] = params.omega * (
            float(params.coupling.ell1) * params.R1 ** 2
            + float(params.coupling.ell2) * params.R2 ** 2)
    except OverflowError:
        raise ValueError("H_g of this orbit leaves the float range") from None
    return out


def _orbit(g, r1, r2, label) -> tuple:
    return (label, TrajectoryParams(R1=r1, R2=r2,
                                    coupling=Coupling(Fraction(g))))


# Orbit gallery spanning the three regimes; radius ratios chosen so rows
# b, e, h pass through the origin.
ORBIT_GALLERY = (
    _orbit("2/3", 1.0, 2.0, "a"),
    _orbit("1/3", 1.0, 1.0, "b"),
    _orbit("4/5", 2.0, 1.0, "c"),
    _orbit("1", 1.0, 2.0, "d"),
    _orbit("1", 1.0, 1.0, "e"),
    _orbit("1", 2.0, 1.0, "f"),
    _orbit("3/2", 1.0, 2.0, "g"),
    _orbit("3", 1.0, 1.0, "h"),
    _orbit("5/4", 2.0, 1.0, "i"),
)

# Large-ratio companions; rows a and d satisfy R1|ell1| = R2|ell2| and cusp.
CUSP_GALLERY = (
    _orbit("1/3", 1.0, 2.0, "a"),
    _orbit("1/2", 1.0, 6.0, "b"),
    _orbit("3/5", 1.0, 20.0, "c"),
    _orbit("3", 1.0, 2.0, "d"),
    _orbit("2", 1.0, 6.0, "e"),
    _orbit("5/3", 1.0, 20.0, "f"),
)


def gallery_params(which: str = "orbits") -> tuple:
    """Named fixtures: 'orbits' for the regime gallery, 'cusps' for the
    large-ratio set."""
    galleries = {"orbits": ORBIT_GALLERY, "cusps": CUSP_GALLERY}
    return galleries[require_choice(which, "gallery", galleries)]


def suite_classical(config) -> VerificationReport:
    """Trajectory gallery: closure, integrator cross-check, cusp/origin flags.

    Reads no run setting.
    """
    report = VerificationReport(suite="classical")
    flag_specs = (
        ("orbits", pass_through_origin, "origin", {"b", "e", "h"}),
        ("cusps", is_cusped, "cusp", {"a", "d"}),
    )
    # one batched RK4 run over both galleries, read back in gallery order
    runs = iter(integrate_many(
        [(state_from_params(params, 0.0), params.coupling, params.omega,
          closure_period(params.coupling, params.omega))
         for which, *_ in flag_specs for _, params in gallery_params(which)],
        steps=2048))
    for which, flag_fn, flag_name, expected in flag_specs:
        flagged = set()
        for label, params in gallery_params(which):
            ts, states = next(runs)
            period = ts[-1]  # each problem's times end at its own T
            scale = max(params.R1 + params.R2, 1e-300)
            x1a, x2a = position(params, 0.0)
            x1b, x2b = position(params, period)
            report.add(check(f"closure:{which}:{label}", math.hypot(
                float(x1b) - float(x1a), float(x2b) - float(x2a)) / scale))

            z, zdot = _path(params, ts)
            closed = np.stack([z.real, z.imag, *_momenta(params, z, zdot, 1.0)], axis=1)
            report.add(check(f"integrate:{which}:{label}", np.max(np.abs(states - closed)) / scale))
            if flag_fn(params):
                flagged.add(label)
        report.add(check(f"{flag_name}-flags:{which}", flagged == expected,
                         f"flagged {sorted(flagged)}", expected=sorted(expected)))
    return report
