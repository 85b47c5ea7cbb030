"""Command-line front end: dataset emission and verification suites.

This module parses arguments, routes them to the library and writes the
files; each verify suite is built beside the math it checks.

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
import cmath
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
from .fockeng import FockBasis
from .landau import LandauExtension, RotatingFrame
from .phasealg.verify import suite_algebra
from .reports import VerificationReport

SCHEMA_VERSION = 1

VERIFY_SUITES = ("algebra", "classical", "fock", "bridge", "aniso", "landau")


class ConfigError(ValueError):
    """Invalid configuration or parameters; main maps it, like any ValueError, to exit 2."""


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
        if not all(0 < v < math.inf for v in (self.m, self.omega, self.hbar)):
            raise ConfigError("units m, omega, hbar must be positive and finite")
        if self.truncation < 4:
            raise ConfigError("truncation must be at least 4")
        for name in ("tol_fock", "tol_quad", "tol_traj"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
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
    except (OSError, UnicodeDecodeError) as exc:
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
    """Exact rational from "num/den", integer, or decimal strings, within the float range."""
    try:
        value = Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{name} must be rational ('num/den', integer or decimal), got {text!r}")
    if abs(value) > sys.float_info.max or (value and not float(value)):
        raise ConfigError(f"{name} must lie within the float range, got {text!r}")
    return value


def parse_real(text: str, name: str = "value"):
    """Fraction for explicit 'num/den' or integer text, float otherwise.

    Decimal and scientific notation deliberately land on the float branch:
    a decimal string usually stands in for a measured or irrational value,
    and treating it as the exact rational it happens to spell would, for
    example, declare any two decimals commensurate.
    """
    stripped = str(text).strip()
    if re.fullmatch(r"[+-]?\d+(/\d+)?", stripped):
        return parse_rational(stripped, name)
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
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"{name} must be a 're,im' pair of reals, got {text!r}")
    if not cmath.isfinite(z):
        raise ConfigError(f"{name} must be finite, got {text!r}")
    return z


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
    table = np.stack(columns, axis=-1).reshape(-1, len(columns))
    if not np.isfinite(table).all():
        raise ConfigError("the samples leave the float range for these parameters")
    return table.tolist()


def _out_stem(config: RunConfig, out: str | None, default: str) -> Path:
    stem = out if out else default
    for suffix in (".csv", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    path = Path(stem)
    if not path.is_absolute():
        path = Path(config.outdir) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path.parent}: {exc}") from None
    return path


def _write_text(path: Path, text: str):
    """Write ``text`` to ``path``; ConfigError naming the path when that fails."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_json_file(path: Path, payload: dict):
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def write_dataset(stem: Path, columns: list, rows: list, config: RunConfig) -> Path:
    """Write rows either as CSV or as a columns/rows JSON document."""
    if config.format == "csv":
        path = stem.with_name(stem.name + ".csv")
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        _write_text(path, "\n".join(lines) + "\n")
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


def _sample_times(args, period) -> tuple:
    """--samples times over --window, else over the closure ``period``.

    Returns the times and their sidecar fields; ``period`` None means the
    motion does not close, so --window is required.
    """
    if args.samples < 2:
        raise ConfigError("samples must be at least 2")
    if args.window is not None:
        if not args.window > 0:  # also rejects nan; an infinite window fails as samples
            raise ConfigError("window must be positive")
        horizon, closed = float(args.window), False
    elif period is None:
        raise ConfigError("frequencies are not commensurate; give --window")
    else:
        horizon, closed = period, True
    return np.linspace(0.0, horizon, args.samples), {
        "samples": args.samples,
        "closed": closed,
        "period": horizon if closed else None,
        "window": None if closed else horizon,
    }


def cmd_trajectory(args, config: RunConfig) -> int:
    g = parse_rational(args.g, "g")
    coupling = Coupling(g)
    params = classdyn.TrajectoryParams(
        R1=args.r1, R2=args.r2, gamma1=args.gamma1, gamma2=args.gamma2,
        omega=config.omega, coupling=coupling,
    )
    conserved = classdyn.conserved_values(params)
    with np.errstate(over="ignore", invalid="ignore"):  # _float_rows rejects non-finite samples
        ts, window = _sample_times(args, classdyn.closure_period(coupling, config.omega))
        x1, x2 = classdyn.position(params, ts)
        p1, p2 = classdyn.momentum(params, ts, config.m)
    rows = _float_rows(ts, x1, x2, p1, p2)
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
        **window,
        "cusp": classdyn.is_cusped(params),
        "origin_crossing": classdyn.pass_through_origin(params),
        "conserved": {name: _pair(value) for name, value in conserved.items()},
    })


def cmd_lissajous(args, config: RunConfig) -> int:
    w1 = parse_real(args.omega1, "omega1")
    w2 = parse_real(args.omega2, "omega2")
    freq = aniso.FrequencyPair.detect(w1, w2)
    with np.errstate(over="ignore", invalid="ignore"):  # _float_rows rejects non-finite samples
        ts, window = _sample_times(args, aniso.closure_period(freq))
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
        **window,
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


def _require_finite(args, *names):
    for name in names:
        if not math.isfinite(getattr(args, name)):
            raise ConfigError(f"{name} must be finite")


def _square_grid(args) -> tuple:
    """ij meshgrid of --points samples per axis over [-extent, extent]."""
    if args.points < 2:
        raise ConfigError("points must be at least 2")
    _require_finite(args, "extent")
    if args.extent <= 0:
        raise ConfigError("extent must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # _float_rows rejects non-finite samples
        xs = np.linspace(-args.extent, args.extent, args.points)
    return np.meshgrid(xs, xs, indexing="ij")


def cmd_eigenstate(args, config: RunConfig) -> int:
    if args.n1 < 0 or args.n2 < 0:
        raise ConfigError("quantum numbers must be non-negative")
    x1, x2 = _square_grid(args)
    units = config.units
    psi = bridge.eigenstate(args.n1, args.n2, units)
    with np.errstate(over="ignore", invalid="ignore"):  # _float_rows rejects non-finite samples
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
    _require_finite(args, "t", "gamma")
    x1, x2 = _square_grid(args)
    if args.cutoff < 4:
        raise ConfigError("cutoff must be at least 4")
    units = config.units
    report = bridge.coherent_checks(
        alpha, beta, args.t, args.gamma, coupling=coupling, units=units, cutoff=args.cutoff,
    )

    state = bridge.coherent_state(alpha, beta, units)
    l1, l2 = coupling.float_ells()
    w, t = config.omega, args.t
    alpha_t = alpha * complex(np.exp(-1j * w * l1 * t))
    beta_t = beta * complex(np.exp(-1j * w * l2 * t))
    evolved = bridge.coherent_state(alpha_t, beta_t, units)
    zero_point = complex(np.exp(-1j * w * t))
    rotated = bridge.rotate(state, args.gamma)

    with np.errstate(over="ignore", invalid="ignore"):  # _float_rows rejects non-finite samples
        base = state.evaluate_grid(x1, x2)
        evo = zero_point * evolved.evaluate_grid(x1, x2)
        rot = rotated.evaluate_grid(x1, x2)
    rows = _float_rows(x1, x2, base.real, base.imag, evo.real, evo.imag, rot.real, rot.imag)
    columns = ["x1", "x2", "re_phi", "im_phi", "re_evolved", "im_evolved",
               "re_rotated", "im_rotated"]
    lam1, lam2 = bridge.coherent_eigenvalues(alpha, beta, units)
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
    if extension_mode:
        if args.omega_b is None or args.lam is None:
            raise ConfigError("extension input needs both --omega-b and --lambda")
        result = landau.landau_to_g(
            LandauExtension(parse_real(args.omega_b, "omega_b"), parse_real(args.lam, "lambda"))
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
        _write_text(path, text + "\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites


_SUITE_BUILDERS = {
    "algebra": suite_algebra,
    "classical": classdyn.suite_classical,
    "fock": fockeng.suite_fock,
    "bridge": bridge.suite_bridge,
    "aniso": aniso.suite_aniso,
    "landau": landau.suite_landau,
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
    _write_text(path, report.to_json() + "\n")

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
    p.add_argument("--t", type=float, default=0.0,
                   help="evolution time; at g = 1/3 the evolution check fails by design from "
                        "|t| ~ 1e6 (float phase rounding); a phase past the float range exits 2")
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
    except ValueError as exc:  # ConfigError and rejected library inputs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
