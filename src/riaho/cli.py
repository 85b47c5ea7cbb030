"""Command-line front end: dataset emission and verification suites.

Subcommands
-----------
trajectory   closed-form orbit of the rotating oscillator over one closure period
lissajous    two-frequency configuration curves x_i = A_i cos(w_i t) + B_i sin(w_i t)
spectrum     exact-rational energy table with degeneracy class ids
degeneracy   energy classes with completeness / infinite-multiplicity flags
eigenstate   wavefunction samples on a square grid for one (n1, n2)
coherent     coherent-state grid with its evolved and rotated images
landau       phase classification of a Landau extension or rotating frame
verify       identity check suites, written as JSON reports

Configuration resolves in three layers: built-in defaults, then the
key=value file named by the RIAHO_CONFIG environment variable, then
command-line flags.  Dataset emission is deterministic: identical
configuration yields byte-identical files (fixed sampling, fixed ordering,
"%.17g" float formatting).  Exit codes: 0 success, 1 failed verification,
2 invalid parameters or configuration.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import aniso, bridge, classdyn, fockeng, landau
from .coupling import Coupling
from .fockeng import FockBasis, InteriorMask
from .landau import LandauExtension, RotatingFrame
from .phasealg import (Params, classical_cbt, conformal_k0, dilation_id0,
                       free_hamiltonian, generator, verify_casimirs,
                       verify_dynamical_integrals, verify_sp4_table)
from .phasealg.poly import CIRCULAR
from .reports import CheckRow, VerificationReport

SCHEMA_VERSION = 1

VERIFY_SUITES = ("algebra", "classical", "fock", "bridge", "aniso", "landau")


class ConfigError(Exception):
    """Invalid configuration or command parameters; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Shared run settings: units, truncation, tolerances, output routing.

    The algebraic suites are exact and carry no tolerance knob; the three
    numeric tolerances cover Fock-space commutators, quadrature overlaps,
    and trajectory cross-checks respectively.
    """

    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    truncation: int = 12
    tol_fock: float = 1e-12
    tol_quad: float = 1e-8
    tol_traj: float = 1e-6
    outdir: str = "."
    format: str = "csv"

    def __post_init__(self):
        if self.m <= 0 or self.omega <= 0 or self.hbar <= 0:
            raise ConfigError("units m, omega, hbar must be positive")
        if self.truncation < 4:
            raise ConfigError("truncation must be at least 4")
        for name in ("tol_fock", "tol_quad", "tol_traj"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")

    @property
    def units(self) -> bridge.Units:
        return bridge.Units(self.m, self.omega, self.hbar)


_CONFIG_CASTS = {
    "m": float,
    "omega": float,
    "hbar": float,
    "truncation": int,
    "tol_fock": float,
    "tol_quad": float,
    "tol_traj": float,
    "outdir": str,
    "format": str,
}


def load_config_file(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment line."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_CASTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_CASTS[key](value.strip())
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value.strip()!r}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then RIAHO_CONFIG file, then flags; validated at the end."""
    values: dict = {}
    path = os.environ.get("RIAHO_CONFIG")
    if path:
        values.update(load_config_file(path))
    for key in _CONFIG_CASTS:
        flag = getattr(args, f"cfg_{key}", None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# input parsing and output formatting


def parse_rational(text: str, name: str = "value") -> Fraction:
    """Exact rational from "num/den", integer, or decimal strings."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{name} must be rational ('num/den', integer or decimal), got {text!r}")


def parse_real(text: str, name: str = "value"):
    """Fraction for explicit 'num/den' or integer text, float otherwise.

    Decimal and scientific notation deliberately land on the float branch:
    a decimal string usually stands in for a measured or irrational value,
    and treating it as the exact rational it happens to spell would, for
    example, declare any two decimals commensurate.
    """
    stripped = str(text).strip()
    if re.fullmatch(r"[+-]?\d+(/\d+)?", stripped):
        try:
            return Fraction(stripped)
        except ZeroDivisionError:
            raise ConfigError(f"{name} has a zero denominator: {text!r}")
    try:
        value = float(stripped)
    except ValueError:
        raise ConfigError(f"{name} must be a real number, got {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {text!r}")
    return value


def parse_complex(text: str, name: str = "value") -> complex:
    """Complex from the "re,im" pair convention."""
    parts = str(text).split(",")
    if len(parts) != 2:
        raise ConfigError(f"{name} must be a 're,im' pair, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"{name} must be a 're,im' pair of reals, got {text!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _frac_dict(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _float_rows(*columns) -> list:
    """Rows of Python floats from equally shaped arrays, one row per element in C order."""
    return np.stack(columns, axis=-1).reshape(-1, len(columns)).tolist()


def _out_stem(config: RunConfig, out: str | None, default: str) -> Path:
    stem = out if out else default
    for suffix in (".csv", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    path = Path(stem)
    if not path.is_absolute():
        path = Path(config.outdir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_json_file(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2) + "\n")


def write_dataset(stem: Path, columns: list, rows: list, config: RunConfig) -> Path:
    """Write rows either as CSV or as a columns/rows JSON document."""
    if config.format == "csv":
        path = stem.with_name(stem.name + ".csv")
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
        return path
    path = stem.with_name(stem.name + ".json")
    write_json_file(
        path,
        {"schema_version": SCHEMA_VERSION, "columns": list(columns), "rows": rows},
    )
    return path


def emit_dataset(
    config: RunConfig, out: str | None, command: str, columns: list, rows: list, meta: dict
) -> int:
    """Write the dataset and a sidecar: schema_version, command, meta, columns, dataset."""
    stem = _out_stem(config, out, command)
    data_path = write_dataset(stem, columns, rows, config)
    sidecar = stem.with_name(stem.name + ".meta.json")
    write_json_file(sidecar, {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        **meta,
        "columns": columns,
        "dataset": data_path.name,
    })
    print(f"wrote {data_path} and {sidecar}")
    return 0


# ---------------------------------------------------------------------------
# dataset commands


def cmd_trajectory(args, config: RunConfig) -> int:
    g = parse_rational(args.g, "g")
    coupling = Coupling(g)
    if args.samples < 2:
        raise ConfigError("samples must be at least 2")
    try:
        params = classdyn.TrajectoryParams(
            R1=args.r1, R2=args.r2, gamma1=args.gamma1, gamma2=args.gamma2,
            omega=config.omega, coupling=coupling,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    if args.window is not None:
        if args.window <= 0:
            raise ConfigError("window must be positive")
        horizon, closed = float(args.window), False
    else:
        horizon, closed = classdyn.closure_period(coupling, config.omega), True

    ts = np.linspace(0.0, horizon, args.samples)
    x1, x2 = classdyn.position(params, ts)
    v1, v2 = classdyn.velocity(params, ts)
    gw = coupling.as_float() * config.omega
    p1 = config.m * (v1 + gw * x2)
    p2 = config.m * (v2 - gw * x1)
    rows = _float_rows(ts, x1, x2, p1, p2)

    conserved = classdyn.conserved_values(params)
    return emit_dataset(config, args.out, "trajectory", ["t", "x1", "x2", "p1", "p2"], rows, {
        "g": _frac_dict(g),
        "ell1": _frac_dict(coupling.ell1),
        "ell2": _frac_dict(coupling.ell2),
        "omega": config.omega,
        "m": config.m,
        "R1": args.r1,
        "R2": args.r2,
        "gamma1": args.gamma1,
        "gamma2": args.gamma2,
        "samples": args.samples,
        "closed": closed,
        "period": horizon if closed else None,
        "window": None if closed else horizon,
        "cusp": classdyn.is_cusped(params),
        "origin_crossing": classdyn.pass_through_origin(params),
        "conserved": {name: _pair(value) for name, value in conserved.items()},
    })


def cmd_lissajous(args, config: RunConfig) -> int:
    w1 = parse_real(args.omega1, "omega1")
    w2 = parse_real(args.omega2, "omega2")
    if args.samples < 2:
        raise ConfigError("samples must be at least 2")
    try:
        freq = aniso.FrequencyPair.detect(w1, w2)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if args.window is not None:
        if args.window <= 0:
            raise ConfigError("window must be positive")
        horizon, closed = float(args.window), False
    elif freq.commensurate:
        horizon, closed = aniso.closure_period(freq), True
    else:
        raise ConfigError("frequencies are not commensurate; give --window")

    ts = np.linspace(0.0, horizon, args.samples)
    x1, x2 = aniso.lissajous(args.a1, args.b1, args.a2, args.b2, freq, ts)
    rows = _float_rows(ts, x1, x2)

    return emit_dataset(config, args.out, "lissajous", ["t", "x1", "x2"], rows, {
        "omega1": float(freq.omega1),
        "omega2": float(freq.omega2),
        "exact_frequencies": freq.is_exact,
        "commensurate": freq.commensurate,
        "l1": freq.l1,
        "l2": freq.l2,
        "A1": args.a1,
        "B1": args.b1,
        "A2": args.a2,
        "B2": args.b2,
        "samples": args.samples,
        "closed": closed,
        "period": horizon if closed else None,
        "window": None if closed else horizon,
    })


def cmd_spectrum(args, config: RunConfig) -> int:
    g = parse_rational(args.g, "g")
    coupling = Coupling(g)
    if args.nmax < 1:
        raise ConfigError("nmax must be at least 1")
    basis = FockBasis(args.nmax)
    rows_dicts = fockeng.spectrum_rows(coupling, basis)
    columns = ["n1", "n2", "E_exact_num", "E_exact_den", "class_id"]
    rows = [[r[c] for c in columns] for r in rows_dicts]

    return emit_dataset(config, args.out, "spectrum", columns, rows, {
        "g": _frac_dict(g),
        "nmax": args.nmax,
        "energy_unit": "hbar*omega",
        "hbar": config.hbar,
        "omega": config.omega,
        "states": len(rows),
        "classes": 1 + max(r["class_id"] for r in rows_dicts),
    })


def cmd_degeneracy(args, config: RunConfig) -> int:
    g = parse_rational(args.g, "g")
    coupling = Coupling(g)
    emax = parse_rational(args.emax, "emax")
    basis = FockBasis(config.truncation)
    classes = fockeng.degeneracy_classes(coupling, basis, energy_window=(None, emax))
    # a level with a non-positive mode weight repeats along a lattice
    # direction, so every populated class is infinite there
    infinite = coupling.ell1 <= 0 or coupling.ell2 <= 0
    columns = ["class_id", "E_num", "E_den", "multiplicity", "complete", "infinite", "states"]
    rows = []
    for cls in classes:
        states = ";".join(f"{n1}:{n2}" for n1, n2 in cls.states)
        rows.append(
            [cls.class_id, cls.energy.numerator, cls.energy.denominator,
             len(cls.states), cls.complete, infinite, states]
        )

    return emit_dataset(config, args.out, "degeneracy", columns, rows, {
        "g": _frac_dict(g),
        "emax": _frac_dict(emax),
        "energy_unit": "hbar*omega",
        "grid_cutoff": config.truncation,
        "classes": len(classes),
        "infinite_classes": infinite,
        "note": "complete=false marks levels whose members extend past the grid; "
                "with a non-positive mode weight those levels are infinitely degenerate",
    })


def _square_grid(args) -> tuple:
    """ij meshgrid of --points samples per axis over [-extent, extent]."""
    if args.points < 2:
        raise ConfigError("points must be at least 2")
    if args.extent <= 0:
        raise ConfigError("extent must be positive")
    xs = np.linspace(-args.extent, args.extent, args.points)
    return np.meshgrid(xs, xs, indexing="ij")


def cmd_eigenstate(args, config: RunConfig) -> int:
    if args.n1 < 0 or args.n2 < 0:
        raise ConfigError("quantum numbers must be non-negative")
    x1, x2 = _square_grid(args)
    units = config.units
    psi = bridge.eigenstate(args.n1, args.n2, units)
    values = psi.evaluate_grid(x1, x2)
    rows = _float_rows(x1, x2, values.real, values.imag)
    norm = bridge.inner_product(psi, psi).real
    return emit_dataset(config, args.out, "eigenstate", ["x1", "x2", "re_psi", "im_psi"], rows, {
        "n1": args.n1,
        "n2": args.n2,
        "m": config.m,
        "omega": config.omega,
        "hbar": config.hbar,
        "extent": args.extent,
        "points": args.points,
        "norm_quadrature": float(norm),
    })


def cmd_coherent(args, config: RunConfig) -> int:
    alpha = parse_complex(args.alpha, "alpha")
    beta = parse_complex(args.beta, "beta")
    g = parse_rational(args.g, "g")
    coupling = Coupling(g)
    x1, x2 = _square_grid(args)
    if args.cutoff < 4:
        raise ConfigError("cutoff must be at least 4")
    units = config.units

    state = bridge.coherent_state(alpha, beta, units)
    l1, l2 = float(coupling.ell1), float(coupling.ell2)
    w, t = config.omega, args.t
    alpha_t = alpha * complex(np.exp(-1j * w * l1 * t))
    beta_t = beta * complex(np.exp(-1j * w * l2 * t))
    evolved = bridge.coherent_state(alpha_t, beta_t, units)
    zero_point = complex(np.exp(-1j * w * t))
    rotated = bridge.rotate(state, args.gamma)

    base = state.evaluate_grid(x1, x2)
    evo = zero_point * evolved.evaluate_grid(x1, x2)
    rot = rotated.evaluate_grid(x1, x2)
    rows = _float_rows(x1, x2, base.real, base.imag, evo.real, evo.imag, rot.real, rot.imag)
    columns = ["x1", "x2", "re_phi", "im_phi", "re_evolved", "im_evolved",
               "re_rotated", "im_rotated"]
    lam1, lam2 = bridge.coherent_eigenvalues(alpha, beta, units)
    try:
        report = bridge.coherent_checks(
            alpha, beta, args.t, args.gamma, coupling=coupling, units=units,
            cutoff=args.cutoff,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    emit_dataset(config, args.out, "coherent", columns, rows, {
        "alpha": _pair(alpha),
        "beta": _pair(beta),
        "t": args.t,
        "gamma": args.gamma,
        "g": _frac_dict(g),
        "lambda1": _pair(lam1),
        "lambda2": _pair(lam2),
        "evolved_alpha": _pair(alpha_t),
        "evolved_beta": _pair(beta_t),
        "extent": args.extent,
        "points": args.points,
        "expansion_cutoff": args.cutoff,
        "checks": report.to_dict(),
    })
    return _exit_code(report)


def cmd_landau(args, config: RunConfig) -> int:
    extension_mode = args.omega_b is not None or args.lam is not None
    frame_mode = args.k is not None or args.mass is not None or args.omega_cap is not None
    if extension_mode == frame_mode:
        raise ConfigError("give either --omega-b with --lambda, or --k --mass --omega-cap")
    try:
        if extension_mode:
            if args.omega_b is None or args.lam is None:
                raise ConfigError("extension input needs both --omega-b and --lambda")
            result = landau.landau_to_g(
                LandauExtension(parse_real(args.omega_b, "omega_b"),
                                parse_real(args.lam, "lambda"))
            )
            source = "extension"
        else:
            if args.k is None or args.mass is None or args.omega_cap is None:
                raise ConfigError("rotating-frame input needs --k, --mass and --omega-cap")
            result = landau.rotating_frame_to_g(
                RotatingFrame(parse_real(args.k, "k"), parse_real(args.mass, "mass"),
                              parse_real(args.omega_cap, "omega_cap"))
            )
            source = "rotating-frame"
    except ValueError as exc:
        raise ConfigError(str(exc))

    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "landau",
        "source": source,
        "phase": result.phase,
        "omega": None if result.omega is None else float(result.omega),
    }
    if isinstance(result.g, Fraction):
        payload["g_num"] = result.g.numerator
        payload["g_den"] = result.g.denominator
    elif result.g is not None:
        payload["g_float"] = float(result.g)
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        stem = _out_stem(config, args.out, "landau")
        path = stem.with_name(stem.name + ".json")
        path.write_text(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _bracket_row(prefix: str, chk) -> CheckRow:
    return CheckRow(
        check_id=f"{prefix}:{chk.identity_name}",
        identity=f"{chk.identity_name} = {chk.rhs}",
        passed=chk.passed,
        residual=None,
        detail="" if chk.passed else f"residual polynomial {chk.residual}",
    )


def _symbolic_row(check_id: str, identity: str, got, want) -> CheckRow:
    passed = got == want
    return CheckRow(
        check_id=check_id,
        identity=identity,
        passed=passed,
        residual=None,
        detail="" if passed else f"difference {got - want}",
    )


def suite_algebra(config: RunConfig) -> VerificationReport:
    """Exact symbolic checks: bracket table, Casimirs, integrals, bridge triple."""
    report = VerificationReport(suite="algebra")
    g = Fraction(1, 3)
    for chk in verify_sp4_table(g):
        report.add(_bracket_row("sp4", chk))
    for chk in verify_casimirs(g):
        report.add(_bracket_row("casimir", chk))
    for label, gv in (("g=1/3", g), ("g=3", Fraction(3))):
        for chk in verify_dynamical_integrals(gv):
            report.add(_bracket_row(f"integral[{label}]", chk))

    params = Params()
    w = params.omega
    triple = (
        ("cbt-H", "T(H) = -w J-",
         classical_cbt(free_hamiltonian(params)).to_basis(CIRCULAR),
         (-w) * generator("J-", 0, params).at_time_zero()),
        ("cbt-iD0", "T(iD0) = J0",
         classical_cbt(dilation_id0(params)).to_basis(CIRCULAR),
         generator("J0", 0, params)),
        ("cbt-K0", "T(K0) = J+/w",
         classical_cbt(conformal_k0(params)).to_basis(CIRCULAR),
         (Fraction(1) / w) * generator("J+", 0, params).at_time_zero()),
    )
    for check_id, identity, got, want in triple:
        report.add(_symbolic_row(check_id, identity, got, want))
    return report


def suite_classical(config: RunConfig) -> VerificationReport:
    """Trajectory gallery: closure, integrator cross-check, cusp/origin flags."""
    report = VerificationReport(suite="classical")
    flag_specs = (
        ("orbits", classdyn.pass_through_origin, "origin", {"b", "e", "h"}),
        ("cusps", classdyn.is_cusped, "cusp", {"a", "d"}),
    )
    for which, flag_fn, flag_name, expected in flag_specs:
        flagged = set()
        for label, params in classdyn.gallery_params(which):
            period = classdyn.closure_period(params.coupling, params.omega)
            scale = max(params.R1 + params.R2, 1e-300)
            x1a, x2a = classdyn.position(params, 0.0)
            x1b, x2b = classdyn.position(params, period)
            resid = math.hypot(float(x1b) - float(x1a), float(x2b) - float(x2a)) / scale
            report.add(CheckRow(
                check_id=f"closure:{which}:{label}",
                identity="x(T) = x(0) at the closure period",
                passed=bool(resid <= 1e-9),
                residual=resid,
            ))

            state0 = classdyn.state_from_params(params, 0.0)
            ts, states = classdyn.integrate(state0, params.coupling, params.omega,
                                            period, steps=2048)
            x1c, x2c = classdyn.position(params, ts)
            v1c, v2c = classdyn.velocity(params, ts)
            gw = params.coupling.as_float() * params.omega
            closed = np.stack([x1c, x2c, v1c + gw * x2c, v2c - gw * x1c], axis=1)
            resid2 = float(np.max(np.abs(states - closed)) / scale)
            report.add(CheckRow(
                check_id=f"integrate:{which}:{label}",
                identity="closed form matches fixed-step RK4",
                passed=bool(resid2 <= config.tol_traj),
                residual=resid2,
            ))
            if flag_fn(params):
                flagged.add(label)
        report.add(CheckRow(
            check_id=f"{flag_name}-flags:{which}",
            identity=f"{flag_name} flags match {sorted(expected)}",
            passed=flagged == expected,
            residual=None,
            detail=f"flagged {sorted(flagged)}",
        ))
    return report


def suite_fock(config: RunConfig) -> VerificationReport:
    """Hidden integrals, degeneracy orbits, and the Cartesian/circular unitary."""
    report = VerificationReport(suite="fock")
    basis = FockBasis(config.truncation)
    for gtext, kind, s1, s2 in (("1/3", "L", 1, 2), ("3", "J", 1, 2)):
        coupling = Coupling(Fraction(gtext))
        h = fockeng.hamiltonian(basis, coupling)
        op = fockeng.hidden_operator(basis, coupling, kind, s1, s2, "+")
        mask = InteriorMask(basis, margin1=s1, margin2=s2)
        report.add(fockeng.verify_commutes(
            h, op, mask, tol=config.tol_fock,
            check_id=f"hidden-commutes:g={gtext}",
            identity=f"[H_g, {kind}+_{s1}{s2}] = 0",
        ))
        orbits = fockeng.hidden_orbit_partition(basis, coupling, kind, s1, s2, mask)
        partition = fockeng.level_sets(
            mask.states(), lambda n1, n2: fockeng.exact_energy(coupling, n1, n2)
        )
        report.add(CheckRow(
            check_id=f"orbits-match-degeneracy:g={gtext}",
            identity=f"{kind}+_{s1}{s2} orbits = exact energy classes on the interior",
            passed=partition == orbits,
            residual=None,
            detail=f"{len(orbits)} orbits",
        ))

    u = fockeng.unitary_bridge(basis)
    ud = u.dagger().matrix
    mask_u = InteriorMask(basis, total=basis.cutoff - 2)
    idx = mask_u.indices()

    def conj_resid(matrix, target):
        return fockeng.operator_norm((u.matrix @ matrix @ ud - target)[:, idx])

    cart = fockeng.cartesian_modes(basis)
    phase = complex(np.exp(-1j * math.pi / 4))
    for name, mode, direction, ph in (
        ("a1-", 1, "-", phase), ("a2-", 2, "-", phase),
        ("a1+", 1, "+", phase.conjugate()), ("a2+", 2, "+", phase.conjugate()),
    ):
        target = ph * fockeng.ladder(basis, mode, direction).matrix
        resid = conj_resid(cart[name].matrix, target)
        report.add(CheckRow(
            check_id=f"unitary-mode:{name}",
            identity=f"U {name} U+ = e^{{{'+' if direction == '+' else '-'}i pi/4}} b{mode}{direction}",
            passed=bool(resid <= 1e-10),
            residual=resid,
        ))
    for gtext in ("0", "1/3", "1/2", "3"):
        coupling = Coupling(Fraction(gtext))
        h_rni = fockeng.rni_hamiltonian(basis, coupling)
        h_g = fockeng.hamiltonian(basis, coupling)
        resid = conj_resid(h_rni.matrix, h_g.matrix)
        report.add(CheckRow(
            check_id=f"unitary-hamiltonian:g={gtext}",
            identity="U H_rni U+ = H_g",
            passed=bool(resid <= 1e-10),
            residual=resid,
        ))
    return report


def suite_bridge(config: RunConfig) -> VerificationReport:
    """Bridge eigenfunctions, overlaps, Weierstrass identity, coherent states."""
    report = VerificationReport(suite="bridge")
    report.extend(fockeng.verify_one_mode_bridge(size=11))
    report.extend(fockeng.verify_quantum_bridge(cutoff=10))

    units = config.units
    reduced = []
    for n1, n2 in ((0, 0), (1, 0), (2, 1), (3, 3)):
        rep = bridge.verify_bridge_proportionality(n1, n2, units)
        reduced.append(rep.reduced_constant)
        report.add(CheckRow(
            check_id=f"proportionality:{n1}{n2}",
            identity="bridged monomial is grid-proportional to the eigenfunction",
            passed=rep.passed,
            residual=rep.spread,
        ))
    base = reduced[0]
    drift = max(abs(c - base) / abs(base) for c in reduced)
    report.add(CheckRow(
        check_id="reduced-constant",
        identity="reduced proportionality constant is state-independent",
        passed=bool(drift <= 1e-9),
        residual=float(drift),
    ))

    overlap = bridge.overlap_matrix(3, units)
    resid = float(np.max(np.abs(overlap - np.eye(overlap.shape[0]))))
    report.add(CheckRow(
        check_id="overlap-identity",
        identity="eigenfunction Gram matrix = identity by quadrature",
        passed=bool(resid <= config.tol_quad),
        residual=resid,
    ))

    weier_ok = all(bridge.inverse_weierstrass(n).passed for n in range(11))
    report.add(CheckRow(
        check_id="inverse-weierstrass",
        identity="exp(-(1/4) d^2) eta^n = 2^-n H_n(eta) exactly for n <= 10",
        passed=weier_ok,
        residual=None,
    ))

    coherent = bridge.coherent_checks(
        complex(0.8, -0.5), complex(0.4, 0.7), t=0.9, gamma=2.1,
        coupling=Coupling(Fraction(1, 2)), units=units, cutoff=24,
    )
    report.extend(coherent.rows)
    return report


def suite_aniso(config: RunConfig) -> VerificationReport:
    """Signed two-frequency engine: spectra, hidden pairs, Lissajous, rescaling."""
    report = VerificationReport(suite="aniso")
    report.extend(aniso.so11_invariant_check(omega=1.0, cutoff=8).rows)

    basis = FockBasis(8)
    for w1, w2 in ((1, 3), (3, 5)):
        freq = aniso.FrequencyPair.detect(Fraction(w1), Fraction(w2))
        for sign in ("+", "-"):
            report.add(dataclasses.replace(
                aniso.verify_signed_spectrum(basis, freq, sign),
                check_id=f"signed-spectrum:{w1}:{w2}:{sign}",
            ))
        for sign, kind in (("+", "L"), ("-", "J")):
            h = aniso.signed_hamiltonian(basis, freq, sign)
            op = aniso.hidden_operator(basis, freq, kind, "+")
            resid = fockeng.operator_norm(fockeng.commutator(h, op).matrix)
            report.add(CheckRow(
                check_id=f"hidden-commutes:{kind}({w1},{w2})",
                identity=f"[H^({sign}), {kind}+] = 0",
                passed=bool(resid <= config.tol_fock),
                residual=resid,
            ))
            orbits = aniso.hidden_orbits(basis, freq, kind)
            partition = aniso.degeneracy_partition(basis, freq, sign)
            report.add(CheckRow(
                check_id=f"orbits-match-degeneracy:{kind}({w1},{w2})",
                identity=f"{kind} orbits = H^({sign}) degeneracy classes",
                passed=orbits == partition,
                residual=None,
                detail=f"{len(orbits)} orbits",
            ))

    for w1, w2 in ((1, 3), (1, 4), (3, 5)):
        freq = aniso.FrequencyPair.detect(Fraction(w1), Fraction(w2))
        period = aniso.closure_period(freq)
        a0 = aniso.lissajous(1.0, 0.3, 0.7, 1.0, freq, 0.0)
        a1 = aniso.lissajous(1.0, 0.3, 0.7, 1.0, freq, period)
        resid = math.hypot(a1[0] - a0[0], a1[1] - a0[1]) / 2.0
        report.add(CheckRow(
            check_id=f"lissajous-closure:{w1}:{w2}",
            identity="curve closes at 2 pi l2 / omega1",
            passed=bool(resid <= 1e-9),
            residual=resid,
        ))

    for gtext in ("1/3", "1/2", "3"):
        coupling = Coupling(Fraction(gtext))
        report.add(dataclasses.replace(
            aniso.rescale_canonical_check(coupling),
            check_id=f"rescale-canonical:g={gtext}",
        ))
        report.add(dataclasses.replace(
            aniso.composite_spectrum_check(coupling),
            check_id=f"composite-spectrum:g={gtext}",
        ))
    return report


def _phase_row(check_id: str, result, phase, g) -> CheckRow:
    return CheckRow(
        check_id=check_id,
        identity=f"phase = {phase}" + ("" if g is None else f", g = {g}"),
        passed=result.phase == phase and result.g == g,
        residual=None,
        detail=f"got {result.phase}, g = {result.g}",
    )


def suite_landau(config: RunConfig) -> VerificationReport:
    """Parameter-map round trips, phase boundaries, rotating-frame table."""
    report = VerificationReport(suite="landau")
    for gtext, wtext in (("1/2", "1"), ("3", "2"), ("-2/3", "5/7"), ("1", "3"), ("0", "2")):
        g, w = Fraction(gtext), Fraction(wtext)
        ext = landau.g_to_landau(Coupling(g), w)
        result = landau.landau_to_g(ext)
        passed = result.g == g and result.omega == w
        report.add(CheckRow(
            check_id=f"roundtrip:g={gtext},omega={wtext}",
            identity="landau_to_g(g_to_landau(g, w)) = (g, w) exactly",
            passed=passed,
            residual=0.0 if passed else float(abs(result.g - g) + abs(result.omega - w)),
        ))

    boundary = (
        ("boundary-landau:+", LandauExtension(Fraction(3), Fraction(0)),
         landau.Phase.LANDAU, Fraction(1)),
        ("boundary-landau:-", LandauExtension(Fraction(-2), Fraction(0)),
         landau.Phase.LANDAU, Fraction(-1)),
        ("boundary-critical", LandauExtension(Fraction(2), Fraction(-4)),
         landau.CRITICAL, None),
    )
    for check_id, ext, phase, g in boundary:
        report.add(_phase_row(check_id, landau.landau_to_g(ext), phase, g))

    probes = (
        ("4", "1", "1", landau.Phase.EUCLIDEAN, Fraction(1, 2)),
        ("1", "1", "1", landau.Phase.LANDAU, Fraction(1)),
        ("1", "1", "-1", landau.Phase.LANDAU, Fraction(-1)),
        ("1", "4", "1", landau.Phase.MINKOWSKIAN, Fraction(2)),
        ("1", "4", "-1", landau.Phase.MINKOWSKIAN, Fraction(-2)),
        ("9", "1", "1", landau.Phase.EUCLIDEAN, Fraction(1, 3)),
        ("9", "1", "0", landau.Phase.EUCLIDEAN, Fraction(0)),
        ("0", "1", "2", landau.CRITICAL, None),
        ("0", "1", "0", landau.CRITICAL, None),
    )
    for k, mass, Omega, phase, g in probes:
        frame = RotatingFrame(Fraction(k), Fraction(mass), Fraction(Omega))
        report.add(_phase_row(f"rotating-frame:k={k},m={mass},Omega={Omega}",
                              landau.rotating_frame_to_g(frame), phase, g))
    return report


_SUITE_BUILDERS = {
    "algebra": suite_algebra,
    "classical": suite_classical,
    "fock": suite_fock,
    "bridge": suite_bridge,
    "aniso": suite_aniso,
    "landau": suite_landau,
}


def cmd_verify(args, config: RunConfig) -> int:
    suite = args.suite
    if suite == "all":
        report = VerificationReport(suite="all")
        for name in VERIFY_SUITES:
            report.extend(_SUITE_BUILDERS[name](config).rows)
    else:
        report = _SUITE_BUILDERS[suite](config)

    stem = _out_stem(config, args.out, f"verify_{suite}")
    path = stem.with_name(stem.name + ".json")
    path.write_text(report.to_json() + "\n")

    ok, total = report.counts
    print(f"{report.suite}: {ok}/{total} checks passed ({path})")
    return _exit_code(report)


def _exit_code(report: VerificationReport) -> int:
    """Print a FAIL line per failed row; 0 when every row passed, else 1."""
    for row in report.rows:
        if not row.passed:
            print(f"  FAIL {row.check_id}"
                  + (f" residual={_fmt(row.residual)}" if row.residual is not None else "")
                  + (f" {row.detail}" if row.detail else ""))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("run configuration")
    group.add_argument("--m", dest="cfg_m", type=float, default=None,
                       help="particle mass (default 1)")
    group.add_argument("--omega", dest="cfg_omega", type=float, default=None,
                       help="trap frequency (default 1)")
    group.add_argument("--hbar", dest="cfg_hbar", type=float, default=None,
                       help="Planck constant (default 1)")
    group.add_argument("--truncation", dest="cfg_truncation", type=int, default=None,
                       help="Fock grid cutoff per mode, >= 4 (default 12)")
    group.add_argument("--tol-fock", dest="cfg_tol_fock", type=float, default=None,
                       help="operator commutator tolerance (default 1e-12)")
    group.add_argument("--tol-quad", dest="cfg_tol_quad", type=float, default=None,
                       help="quadrature overlap tolerance (default 1e-8)")
    group.add_argument("--tol-traj", dest="cfg_tol_traj", type=float, default=None,
                       help="trajectory cross-check tolerance (default 1e-6)")
    group.add_argument("--outdir", dest="cfg_outdir", default=None,
                       help="directory for output files (default .)")
    group.add_argument("--format", dest="cfg_format", choices=("csv", "json"),
                       default=None, help="dataset format (default csv)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parent = _config_parent()
    parser = argparse.ArgumentParser(
        prog="riaho",
        description="Rotationally invariant anisotropic oscillator datasets and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trajectory", parents=[parent],
                       help="closed-form orbit over one closure period")
    p.add_argument("--g", required=True, help="coupling, exact rational like 2/3")
    p.add_argument("--r1", type=float, default=1.0, help="mode-1 radius")
    p.add_argument("--r2", type=float, default=1.0, help="mode-2 radius")
    p.add_argument("--gamma1", type=float, default=0.0, help="mode-1 phase")
    p.add_argument("--gamma2", type=float, default=0.0, help="mode-2 phase")
    p.add_argument("--samples", type=int, default=512, help="number of samples")
    p.add_argument("--window", type=float, default=None,
                   help="override time window instead of the closure period")
    p.add_argument("--out", default=None, help="output stem (default trajectory)")
    p.set_defaults(handler=cmd_trajectory)

    p = sub.add_parser("lissajous", parents=[parent],
                       help="two-frequency configuration curve")
    p.add_argument("--omega1", required=True, help="first frequency (rational or float)")
    p.add_argument("--omega2", required=True, help="second frequency (rational or float)")
    p.add_argument("--a1", type=float, default=1.0, help="cos amplitude, mode 1")
    p.add_argument("--b1", type=float, default=0.0, help="sin amplitude, mode 1")
    p.add_argument("--a2", type=float, default=0.0, help="cos amplitude, mode 2")
    p.add_argument("--b2", type=float, default=1.0, help="sin amplitude, mode 2")
    p.add_argument("--samples", type=int, default=512, help="number of samples")
    p.add_argument("--window", type=float, default=None,
                   help="time window, required when frequencies are incommensurate")
    p.add_argument("--out", default=None, help="output stem (default lissajous)")
    p.set_defaults(handler=cmd_lissajous)

    p = sub.add_parser("spectrum", parents=[parent],
                       help="exact-rational energy table")
    p.add_argument("--g", required=True, help="coupling, exact rational like 1/3")
    p.add_argument("--nmax", type=int, default=8, help="per-mode grid cutoff")
    p.add_argument("--out", default=None, help="output stem (default spectrum)")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("degeneracy", parents=[parent],
                       help="energy classes with completeness flags")
    p.add_argument("--g", required=True, help="coupling, exact rational like 1/3")
    p.add_argument("--emax", required=True,
                   help="inclusive energy bound in units of hbar*omega (rational)")
    p.add_argument("--out", default=None, help="output stem (default degeneracy)")
    p.set_defaults(handler=cmd_degeneracy)

    p = sub.add_parser("eigenstate", parents=[parent],
                       help="wavefunction samples for one (n1, n2)")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--extent", type=float, default=3.0, help="grid half-width")
    p.add_argument("--points", type=int, default=41, help="grid points per axis")
    p.add_argument("--out", default=None, help="output stem (default eigenstate)")
    p.set_defaults(handler=cmd_eigenstate)

    p = sub.add_parser("coherent", parents=[parent],
                       help="coherent state with evolved and rotated images")
    p.add_argument("--alpha", required=True, help="label, 're,im' pair")
    p.add_argument("--beta", required=True, help="label, 're,im' pair")
    p.add_argument("--t", type=float, default=0.0, help="evolution time")
    p.add_argument("--gamma", type=float, default=0.0, help="rotation angle")
    p.add_argument("--g", default="0", help="coupling for the evolution (default 0)")
    p.add_argument("--extent", type=float, default=3.0, help="grid half-width")
    p.add_argument("--points", type=int, default=21, help="grid points per axis")
    p.add_argument("--cutoff", type=int, default=30,
                   help="eigenstate expansion cutoff for the consistency checks")
    p.add_argument("--out", default=None, help="output stem (default coherent)")
    p.set_defaults(handler=cmd_coherent)

    p = sub.add_parser("landau", parents=[parent],
                       help="phase classification of equivalent realizations")
    p.add_argument("--omega-b", dest="omega_b", default=None,
                   help="half cyclotron frequency, sign carried")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="additional quadratic strength")
    p.add_argument("--k", default=None, help="spring constant (rotating frame)")
    p.add_argument("--mass", default=None, help="mass (rotating frame)")
    p.add_argument("--omega-cap", dest="omega_cap", default=None,
                   help="signed rotation rate (rotating frame)")
    p.add_argument("--out", default=None, help="optional output stem")
    p.set_defaults(handler=cmd_landau)

    p = sub.add_parser("verify", parents=[parent],
                       help="run an identity check suite and write a JSON report")
    p.add_argument("suite", nargs="?", default="all",
                   choices=VERIFY_SUITES + ("all",))
    p.add_argument("--out", default=None, help="report stem (default verify_<suite>)")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        config = resolve_config(args)
        return args.handler(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
