"""Acceptance gate: the ten top-level claims, one test and one line each.

Each test prints a single PASS/FAIL line (visible with -s, and implied by
the pytest verdict) and asserts at the stated tolerance.  Everything runs
at desk scale.
"""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from riaho import aniso, bridge, classdyn, fockeng, landau
from riaho.coupling import Coupling
from riaho.fockeng import FockBasis, InteriorMask
from riaho.landau import LandauExtension, RotatingFrame
from riaho.phasealg import (Params, classical_cbt, conformal_k0, dilation_id0,
                            free_hamiltonian, generator, is_true_integral,
                            verify_casimirs, verify_sp4_table)
from riaho.phasealg.poly import CIRCULAR
from riaho.reports import check


def _report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. quadratic bracket table and Casimirs, exactly zero


def test_criterion_01_bracket_table_and_casimirs_exact():
    failures = []
    for g in (F(0), F(1, 3), F(3)):
        for chk in verify_sp4_table(g) + verify_casimirs(g):
            if not chk.passed:
                failures.append((g, chk.identity_name))
    _report(1, "sp(4,R) bracket table and Casimir identities exactly zero",
            not failures, f"{len(failures)} failures" if failures else "3 couplings")


# --------------------------------------------------------------------------
# 2. true-integral conditions over a rational sweep, exact


SWEEP_20 = [F(0), F(1), F(-1), F(3), F(-3),
            F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(-2, 3),
            F(3, 2), F(5, 3), F(-5, 3), F(1, 4), F(3, 4),
            F(5, 4), F(-1, 4), F(2, 5), F(7, 5), F(-7, 3)]


def test_criterion_02_true_integral_conditions_exact():
    assert len(SWEEP_20) == 20 and len(set(SWEEP_20)) == 20
    failures = 0
    checked = 0
    for g in SWEEP_20:
        c = Coupling(g)
        l1, l2 = c.ell1, c.ell2
        for s1 in range(1, 5):
            for s2 in range(1, 5):
                want_l = s1 * l1 == s2 * l2
                want_j = s1 * l1 + s2 * l2 == 0
                checked += 2
                if is_true_integral(c, "L", s1, s2) != want_l:
                    failures += 1
                if is_true_integral(c, "J", s1, s2) != want_j:
                    failures += 1
    _report(2, "hidden integrals are true exactly on the resonance conditions",
            failures == 0, f"{checked} exact checks over 20 couplings")


# --------------------------------------------------------------------------
# 3. classical bridge triple, symbolic and quantum


def test_criterion_03_conformal_bridge_triple():
    params = Params()
    w = params.omega
    symbolic = (
        classical_cbt(free_hamiltonian(params)).to_basis(CIRCULAR)
        == (-w) * generator("J-", 0, params).at_time_zero(),
        classical_cbt(dilation_id0(params)).to_basis(CIRCULAR)
        == generator("J0", 0, params),
        classical_cbt(conformal_k0(params)).to_basis(CIRCULAR)
        == (F(1) / w) * generator("J+", 0, params).at_time_zero(),
    )
    rows = fockeng.verify_quantum_bridge(cutoff=10)
    quantum_ok = all(
        r.passed and (r.residual is None or r.residual <= 1e-10) for r in rows
    )
    worst = max((r.residual for r in rows if r.residual is not None), default=0.0)
    _report(3, "bridge maps (H, iD0, K0) to (-w J-, J0, J+/w), N=10 residual <= 1e-10",
            all(symbolic) and quantum_ok, f"max quantum residual {worst:.2e}")


# --------------------------------------------------------------------------
# 4. trajectory galleries: closure, integrator, cusp and origin flags


def test_criterion_04_trajectory_galleries():
    ok = True
    details = []
    worst_close = 0.0
    worst_int = 0.0
    for which in ("orbits", "cusps"):
        for label, params in classdyn.gallery_params(which):
            period = classdyn.closure_period(params.coupling, params.omega)
            scale = max(params.R1 + params.R2, 1e-300)
            x1a, x2a = classdyn.position(params, 0.0)
            x1b, x2b = classdyn.position(params, period)
            resid = math.hypot(float(x1b) - float(x1a), float(x2b) - float(x2a)) / scale
            worst_close = max(worst_close, resid)
            if resid > 1e-9:
                ok = False
                details.append(f"closure {which}:{label}")

            state0 = classdyn.state_from_params(params, 0.0)
            ts, states = classdyn.integrate(state0, params.coupling,
                                            params.omega, period, steps=4096)
            x1c, x2c = classdyn.position(params, ts)
            v1c, v2c = classdyn.velocity(params, ts)
            gw = params.coupling.as_float() * params.omega
            closed = np.stack([x1c, x2c, v1c + gw * x2c, v2c - gw * x1c], axis=1)
            resid2 = float(np.max(np.abs(states - closed)))
            worst_int = max(worst_int, resid2)
            if resid2 > 1e-6:
                ok = False
                details.append(f"integrate {which}:{label}")

    cusped = {label for label, p in classdyn.gallery_params("cusps")
              if classdyn.is_cusped(p)}
    through = {label for label, p in classdyn.gallery_params("orbits")
               if classdyn.pass_through_origin(p)}
    if cusped != {"a", "d"}:
        ok = False
        details.append(f"cusp flags {sorted(cusped)}")
    if through != {"b", "e", "h"}:
        ok = False
        details.append(f"origin flags {sorted(through)}")
    _report(4, "all gallery orbits close (1e-9), match RK4 (1e-6), flags exact",
            ok, "; ".join(details) if details
            else f"close {worst_close:.1e}, rk4 {worst_int:.1e}")


# --------------------------------------------------------------------------
# 5. exact spectrum and degeneracy-orbit coincidence


def test_criterion_05_spectrum_and_degeneracy():
    ok = True
    details = []
    for g in (F(1, 3), F(3), F(-1, 2), F(5, 4)):
        c = Coupling(g)
        l1, l2 = 1 + g, 1 - g
        for n1 in range(25):
            for n2 in range(25):
                if fockeng.exact_energy(c, n1, n2) != l1 * n1 + l2 * n2 + 1:
                    ok = False
                    details.append(f"energy g={g} ({n1},{n2})")

    basis = FockBasis(12)
    worst = 0.0
    for gtext, kind, s1, s2 in (("1/3", "L", 1, 2), ("3", "J", 1, 2)):
        c = Coupling(F(gtext))
        h = fockeng.hamiltonian(basis, c)
        mask = InteriorMask(basis, margin1=s1, margin2=s2)
        for sign in ("+", "-"):
            op = fockeng.hidden_operator(basis, c, kind, s1, s2, sign)
            residual = fockeng.operator_norm(
                mask.restrict_columns(fockeng.commutator(h, op)))
            worst = max(worst, residual)
            if not residual <= 1e-12:
                ok = False
                details.append(f"[H_g, {kind}{sign}] g={gtext}")
        orbits = fockeng.hidden_orbit_partition(mask, c, kind, s1, s2)
        groups = {}
        for n1, n2 in mask.states():
            groups.setdefault(fockeng.exact_energy(c, n1, n2), []).append((n1, n2))
        partition = sorted((frozenset(v) for v in groups.values()), key=min)
        if partition != orbits:
            ok = False
            details.append(f"orbits g={gtext}")
    _report(5, "energies exact for n <= 24; degeneracy classes = hidden orbits, "
            "commutators <= 1e-12", ok,
            "; ".join(details) if details else f"worst commutator {worst:.1e}")


# --------------------------------------------------------------------------
# 6. Cartesian/circular unitary equivalence


def test_criterion_06_unitary_equivalence():
    basis = FockBasis(12)
    u = fockeng.unitary_bridge(basis)
    ud = u.conj().T
    idx = InteriorMask(basis, total=basis.cutoff - 2).indices()

    def resid(mat, target):
        return fockeng.operator_norm((u @ mat @ ud - target)[:, idx])

    ok = True
    details = []
    worst = 0.0
    cart = fockeng.cartesian_modes(basis)
    phase = complex(np.exp(-1j * math.pi / 4))
    for name, mode, direction, ph in (
        ("a1-", 1, "-", phase), ("a2-", 2, "-", phase),
        ("a1+", 1, "+", phase.conjugate()), ("a2+", 2, "+", phase.conjugate()),
    ):
        r = resid(cart[name], ph * fockeng.ladder(basis, mode, direction))
        worst = max(worst, r)
        if r > 1e-10:
            ok = False
            details.append(f"mode {name}")
    for gtext in ("0", "1/3", "1/2", "3"):
        c = Coupling(F(gtext))
        r = resid(fockeng.rni_hamiltonian(basis, c), fockeng.hamiltonian(basis, c))
        worst = max(worst, r)
        if r > 1e-10:
            ok = False
            details.append(f"H g={gtext}")
    _report(6, "U a_j U+ = e^(+-i pi/4) b_j and U H_rni U+ = H_g to 1e-10, N=12",
            ok, "; ".join(details) if details else f"worst residual {worst:.1e}")


# --------------------------------------------------------------------------
# 7. bridge eigenfunctions: proportionality, overlaps, Weierstrass


def test_criterion_07_bridge_eigenfunctions():
    ok = True
    details = []
    reduced = {}
    worst_spread = 0.0
    for n1 in range(6):
        for n2 in range(6):
            rep = bridge.verify_bridge_proportionality(n1, n2)
            worst_spread = max(worst_spread, rep.spread)
            if not check(f"proportionality:{n1}{n2}", rep.spread).passed:
                ok = False
                details.append(f"spread ({n1},{n2})")
            reduced[(n1, n2)] = rep.reduced_constant
    base = reduced[(0, 0)]
    drift = max(abs(c - base) / abs(base) for c in reduced.values())
    if drift > 1e-9:
        ok = False
        details.append(f"reduced constant drift {drift:.1e}")

    overlap = bridge.overlap_matrix(5)
    gram = float(np.max(np.abs(overlap - np.eye(overlap.shape[0]))))
    if gram > 1e-8:
        ok = False
        details.append(f"gram {gram:.1e}")

    if not all(bridge.inverse_weierstrass(n).passed for n in range(11)):
        ok = False
        details.append("weierstrass")
    _report(7, "bridged monomials proportional to eigenfunctions (n <= 5), "
            "Gram = identity to 1e-8, Weierstrass exact to n = 10", ok,
            "; ".join(details) if details
            else f"spread {worst_spread:.1e}, gram {gram:.1e}, drift {drift:.1e}")


# --------------------------------------------------------------------------
# 8. coherent states: eigenvalues, evolution, rotation


def test_criterion_08_coherent_states():
    rng = np.random.default_rng(20260819)
    couplings = [F(0), F(1, 3), F(1, 2), F(3), F(1)]
    ok = True
    details = []
    worst = 0.0
    for k in range(10):
        alpha = complex(*rng.uniform(-1, 1, 2))
        beta = complex(*rng.uniform(-1, 1, 2))
        t = float(rng.uniform(0, 2 * math.pi))
        gamma = float(rng.uniform(0, 2 * math.pi))
        coupling = Coupling(couplings[k % len(couplings)])
        report = bridge.coherent_checks(alpha, beta, t, gamma, coupling=coupling)
        for row in report.rows:
            if row.residual is not None:
                worst = max(worst, row.residual)
            if not row.passed or (row.residual is not None and row.residual > 1e-10):
                ok = False
                details.append(f"draw {k}: {row.check_id}")
    _report(8, "coherent eigenvalue/evolution/rotation residuals <= 1e-10, "
            "10 random draws", ok,
            "; ".join(details) if details else f"worst residual {worst:.1e}")


# --------------------------------------------------------------------------
# 9. two-frequency signed engine


def test_criterion_09_signed_oscillator():
    ok = True
    details = []
    basis = FockBasis(8)

    for w1, w2 in ((1, 3), (3, 5)):
        freq = aniso.FrequencyPair.detect(F(w1), F(w2))
        for sign in ("+", "-"):
            h = aniso.signed_hamiltonian(basis, freq, sign)
            diag = np.real(np.diag(h))
            want = np.array([
                float(aniso.spectrum(freq, sign, n1, n2))
                for n1, n2 in basis.states()
            ])
            if not np.array_equal(diag, want):
                ok = False
                details.append(f"spectrum ({w1},{w2},{sign})")
            row = aniso.verify_signed_spectrum(basis, freq, sign)
            if not row.passed:
                ok = False
                details.append(f"ladder spectrum ({w1},{w2},{sign})")

    rows = aniso.so11_invariant_check(cutoff=10).rows
    if not all(r.passed and (r.residual is None or r.residual <= 1e-12)
               for r in rows):
        ok = False
        details.append("so(1,1) invariant")

    freq = aniso.FrequencyPair.detect(F(1), F(3))
    l1, l2 = freq.l1, freq.l2
    worst = 0.0
    for kind in ("L", "J"):
        op = aniso.hidden_operator(basis, freq, kind, "+")
        for j, (n1, n2) in enumerate(basis.states()):
            tgt = (n1 + l1, n2 - l2) if kind == "L" else (n1 + l1, n2 + l2)
            want = fockeng.hidden_coefficient(kind, l1, l2, n1, n2)
            if 0 <= tgt[0] <= basis.cutoff and 0 <= tgt[1] <= basis.cutoff:
                got = op[basis.index(*tgt), j].real
                worst = max(worst, abs(got - want))
                if abs(got - want) > 1e-12:
                    ok = False
                    details.append(f"{kind} element ({n1},{n2})")

    for w1, w2 in ((1, 3), (1, 4), (3, 5)):
        fr = aniso.FrequencyPair.detect(F(w1), F(w2))
        period = aniso.closure_period(fr)
        a0 = aniso.lissajous(1.0, 0.3, 0.7, 1.0, fr, 0.0)
        a1 = aniso.lissajous(1.0, 0.3, 0.7, 1.0, fr, period)
        if math.hypot(a1[0] - a0[0], a1[1] - a0[1]) > 1e-9:
            ok = False
            details.append(f"lissajous {w1}:{w2}")
    _report(9, "signed spectra exact, so(1,1) invariant <= 1e-12, hidden matrix "
            "elements <= 1e-12, Lissajous ratios close", ok,
            "; ".join(details) if details else f"worst element error {worst:.1e}")


# --------------------------------------------------------------------------
# 10. Landau and rotating-frame parameter maps


ROTATING_TABLE = (
    (F(4), F(1), F(1), "euclidean", F(1, 2)),
    (F(1), F(1), F(1), "landau", F(1)),
    (F(1), F(1), F(-1), "landau", F(-1)),
    (F(1), F(4), F(1), "minkowskian", F(2)),
    (F(1), F(4), F(-1), "minkowskian", F(-2)),
    (F(9), F(1), F(1), "euclidean", F(1, 3)),
    (F(9), F(1), F(0), "euclidean", F(0)),
    (F(0), F(1), F(2), "critical", None),
    (F(0), F(1), F(0), "critical", None),
)


def test_criterion_10_landau_maps():
    ok = True
    details = []
    for g, w in ((F(1, 2), F(1)), (F(3), F(2)), (F(-2, 3), F(5, 7)),
                 (F(1), F(3)), (F(0), F(2)), (F(7, 5), F(11, 4))):
        res = landau.landau_to_g(landau.g_to_landau(Coupling(g), w))
        if res.g != g or res.omega != w:
            ok = False
            details.append(f"roundtrip g={g}")
    res = landau.landau_to_g(landau.g_to_landau(Coupling(F(3, 5)), 0.83))
    float_err = abs(float(res.g) - 0.6) + abs(float(res.omega) - 0.83)
    if float_err > 1e-12:
        ok = False
        details.append(f"float roundtrip {float_err:.1e}")

    for omegaB, want_g in ((F(3), F(1)), (F(-2), F(-1))):
        res = landau.landau_to_g(LandauExtension(omegaB, F(0)))
        if res.phase != "landau" or res.g != want_g:
            ok = False
            details.append(f"Lambda=0 boundary omegaB={omegaB}")
    res = landau.landau_to_g(LandauExtension(F(2), F(-4)))
    if res.phase != "critical":
        ok = False
        details.append("critical boundary")

    assert len(ROTATING_TABLE) == 9
    for k, m, Omega, phase, g in ROTATING_TABLE:
        res = landau.rotating_frame_to_g(RotatingFrame(k, m, Omega))
        if res.phase != phase or res.g != g:
            ok = False
            details.append(f"frame ({k},{m},{Omega})")
    _report(10, "landau round trips <= 1e-12 (exact for rationals), boundaries "
            "exact, 9 rotating-frame probes", ok,
            "; ".join(details) if details else "all probes matched")
