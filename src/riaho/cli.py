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
fixed float text).  A CSV dataset writes each float with "%.17g"; a JSON
dataset writes Python's shortest round-trip repr, laid out as
``json.dumps(indent=2)`` does, one cell per line.  Exit codes: 0 success,
1 failed verification, 2 invalid parameters or configuration.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
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
from .phasealg.exact import require_choice, require_int, require_real, to_float
from .phasealg.verify import suite_algebra
from .reports import VerificationReport

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration or parameters; main maps it, like any ValueError, to exit 2."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Shared run settings: units, truncation, output routing.

    No check tolerance is a run setting; each is fixed where its row is built.  Units
    must be positive finite reals and the truncation an int >= 4, else ConfigError.
    """

    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    truncation: int = 12
    outdir: str = "."
    format: str = "csv"

    def __post_init__(self):
        try:
            for name in ("m", "omega", "hbar"):
                value = require_real(getattr(self, name), name, positive=True)
                object.__setattr__(self, name, value)
            require_int(self.truncation, "truncation", 4)
            require_choice(self.format, "format", ("csv", "json"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def units(self) -> bridge.Units:
        return bridge.Units(self.m, self.omega, self.hbar)


# run setting -> help text of its flag; each command offers the flags its handler reads
_SETTINGS = {
    "m": "particle mass (default 1)",
    "omega": "trap frequency (default 1)",
    "hbar": "Planck constant (default 1)",
    "truncation": "Fock grid cutoff per mode, >= 4 (default 12)",
    "outdir": "directory for output files (default .)",
    "format": "dataset format, csv or json (default csv)",
}


def _parse_setting(key: str, text: str):
    """A run setting from its flag or RIAHO_CONFIG text: an int for truncation, the text
    for outdir and format, :func:`parse_real` (so 'num/den' too) for units."""
    if key == "truncation":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"truncation must be an integer, got {text!r}") from None
    return text if key in ("outdir", "format") else parse_real(text, key)


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
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_setting(key, value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then RIAHO_CONFIG file, then the command's flags; validated at the end."""
    values: dict = {}
    path = os.environ.get("RIAHO_CONFIG")
    if path:
        values.update(load_config_file(path))
    for key in _SETTINGS:
        flag = getattr(args, f"cfg_{key}", None)
        if flag is not None:
            values[key] = _parse_setting(key, flag)
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


def _float_columns(*samples) -> list:
    """Equally shaped sample arrays as raveled float64 columns, one cell per element in C
    order; ConfigError when any sample is not finite."""
    columns = [np.ravel(sample) for sample in samples]
    if not all(np.isfinite(column).all() for column in columns):
        raise ConfigError("the samples leave the float range for these parameters")
    return columns


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
    """Write ``text`` to ``path``; ConfigError naming the path when that fails.

    A write that fails part way (a full disk) removes the file it began, so
    no truncated output is left behind.
    """
    opened = False
    try:
        with path.open("w") as handle:
            opened = True
            handle.write(text)
    except OSError as exc:
        if opened:
            with contextlib.suppress(OSError):
                path.unlink()
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_json_file(path: Path, payload: dict):
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _column_cells(name: str, column, csv: bool) -> tuple:
    """The row-template part of one dataset column and the cells it fills, by the rules
    of :func:`write_dataset`."""
    if not isinstance(column, np.ndarray):
        kinds = set(map(type, column))
        if len(kinds) > 1:
            raise ValueError(f"dataset column {name!r} mixes cell types "
                             f"{sorted(kind.__name__ for kind in kinds)}")
        kind = kinds.pop() if kinds else type(None)
        if kind is int or issubclass(kind, np.integer):
            return "%d", column
        if kind is not float and not issubclass(kind, np.floating):
            try:
                return "%s", list(map(_fmt if csv else json.dumps, column))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"dataset column {name!r} has a cell the "
                                 f"{'csv' if csv else 'json'} format cannot write: {exc}") from None
        column = np.array(column, dtype=np.float64)
    if column.dtype != np.float64 or column.ndim != 1:
        raise ValueError(f"dataset column {name!r} is a {column.ndim}-d {column.dtype} array, "
                         "not a 1-d float64 one")
    if not np.isfinite(column).all():
        raise ValueError(f"dataset column {name!r} holds a non-finite float")
    spec = "%.17g" if csv else "%r"  # float.__repr__ is what json writes
    # the int64 view keeps -0.0 apart from 0.0
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    if 2 * len(distinct) > len(column):  # splicing mostly distinct texts costs more than it saves
        return spec, column.tolist()
    texts = np.array([spec % v for v in distinct.view(np.float64).tolist()], dtype=object)
    return "%s", texts[inverse].tolist()


def write_dataset(stem: Path, header: list, columns: list, config: RunConfig) -> Path:
    """Write equal-length columns under ``header`` either as CSV or as a columns/rows JSON
    document, and return the path written.

    A column is a 1-d float64 array (the sampling commands) or a list of cells of one type
    (spectrum, degeneracy).  Each row is formatted by one %-template built from its
    columns: a float column (Python or numpy floats, taken as float64) as "%.17g" (CSV) or
    its repr (JSON), an int column (Python or numpy ints) in decimal, and any other column
    rendered cell by cell, by ``_fmt`` (CSV) or ``json.dumps`` (JSON).
    A float column with at most half as many distinct values as cells (a meshgrid axis)
    converts each distinct value once, keeping -0.0 apart from 0.0, and fills its cells
    with those texts; the bytes are the same either way.  The JSON text is what
    ``json.dumps(payload, indent=2)`` writes.  No columns, a header whose length differs
    from the columns', columns of unequal length, a list column mixing cell types or
    holding a cell the format cannot write, an array that is not 1-d float64 and a
    non-finite float raise ValueError before any file is written.
    """
    csv = config.format == "csv"
    if not columns:
        raise ValueError("a dataset needs at least one column")
    if len(header) != len(columns):
        raise ValueError(f"a dataset of {len(header)} named columns got {len(columns)}")
    if len(set(map(len, columns))) > 1:
        raise ValueError("the dataset columns differ in length")
    parts, cells = zip(*[_column_cells(name, column, csv)
                         for name, column in zip(header, columns)])
    table = zip(*cells)  # row tuples, as % takes them
    if csv:
        path = stem.with_name(stem.name + ".csv")
        template = ",".join(parts)
        lines = [",".join(header), *[template % row for row in table]]
        _write_text(path, "\n".join(lines) + "\n")
        return path
    path = stem.with_name(stem.name + ".json")
    text = json.dumps({"schema_version": SCHEMA_VERSION, "columns": list(header), "rows": []},
                      indent=2)
    if len(columns[0]):  # splice the rows into the empty list json.dumps wrote last
        template = "[\n      " + ",\n      ".join(parts) + "\n    ]"
        head, tail = text.rsplit("[]", 1)
        body = ",\n    ".join([template % row for row in table])
        text = f"{head}[\n    {body}\n  ]{tail}"
    _write_text(path, text + "\n")
    return path


def emit_dataset(
    config: RunConfig, out: str | None, command: str, header: list, columns: list, meta: dict
) -> int:
    """Write the dataset (``header`` over ``columns``, as :func:`write_dataset` takes them)
    and a sidecar: schema_version, command, meta, columns (the header), dataset."""
    stem = _out_stem(config, out, command)
    data_path = write_dataset(stem, header, columns, config)
    sidecar = stem.with_name(stem.name + ".meta.json")
    try:
        write_json_file(sidecar, {"schema_version": SCHEMA_VERSION, "command": command, **meta,
                                  "columns": header, "dataset": data_path.name})
    except ConfigError:  # leave no dataset without its sidecar
        data_path.unlink()
        raise
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
    with np.errstate(over="ignore", invalid="ignore"):  # _float_columns rejects inf and nan
        ts, window = _sample_times(args, classdyn.closure_period(coupling, config.omega))
        x1, x2 = classdyn.position(params, ts)
        p1, p2 = classdyn.momentum(params, ts, config.m)
    columns = _float_columns(ts, x1, x2, p1, p2)
    return emit_dataset(config, args.out, "trajectory", ["t", "x1", "x2", "p1", "p2"], columns, {
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
    with np.errstate(over="ignore", invalid="ignore"):  # _float_columns rejects inf and nan
        ts, window = _sample_times(args, aniso.closure_period(freq))
        x1, x2 = aniso.lissajous(args.a1, args.b1, args.a2, args.b2, freq, ts)
    columns = _float_columns(ts, x1, x2)

    return emit_dataset(config, args.out, "lissajous", ["t", "x1", "x2"], columns, {
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
    header = ["n1", "n2", "E_exact_num", "E_exact_den", "class_id"]
    columns = [[r[c] for r in rows_dicts] for c in header]

    return emit_dataset(config, args.out, "spectrum", header, columns, {
        "g": _frac_dict(g),
        "nmax": args.nmax,
        "energy_unit": "hbar*omega",
        "hbar": config.hbar,
        "omega": config.omega,
        "states": len(rows_dicts),
        "classes": 1 + max(r["class_id"] for r in rows_dicts),
    })


def cmd_degeneracy(args, config: RunConfig) -> int:
    g = parse_rational(args.g, "g")
    coupling = Coupling(g)
    emax = parse_rational(args.emax, "emax")
    basis = FockBasis(config.truncation)
    classes = fockeng.degeneracy_classes(coupling, basis, emax)
    # a level with a non-positive mode weight repeats along a lattice
    # direction, so every populated class is infinite there
    infinite = coupling.ell1 <= 0 or coupling.ell2 <= 0
    header = ["class_id", "E_num", "E_den", "multiplicity", "complete", "infinite", "states"]
    columns = [[cls.class_id for cls in classes],
               [cls.energy.numerator for cls in classes],
               [cls.energy.denominator for cls in classes],
               [len(cls.states) for cls in classes],
               [cls.complete for cls in classes],
               [infinite] * len(classes),
               [";".join(f"{n1}:{n2}" for n1, n2 in cls.states) for cls in classes]]

    return emit_dataset(config, args.out, "degeneracy", header, columns, {
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
    extent = require_real(args.extent, "extent", positive=True)
    with np.errstate(over="ignore", invalid="ignore"):  # _float_columns rejects inf and nan
        xs = np.linspace(-extent, extent, args.points)
    return np.meshgrid(xs, xs, indexing="ij")


def cmd_eigenstate(args, config: RunConfig) -> int:
    if args.n1 < 0 or args.n2 < 0:
        raise ConfigError("quantum numbers must be non-negative")
    x1, x2 = _square_grid(args)
    units = config.units
    psi = bridge.eigenstate(args.n1, args.n2, units)
    norm = bridge.inner_product(psi, psi).real
    if not abs(norm - 1.0) <= bridge._QUAD_TOL:  # the prefactor cancels at the outer nodes
        raise ConfigError(f"eigenstate norm {norm!r} is off from 1 by more than {bridge._QUAD_TOL}")
    with np.errstate(over="ignore", invalid="ignore"):  # _float_columns rejects inf and nan
        values = psi.evaluate(x1, x2)
    columns = _float_columns(x1, x2, values.real, values.imag)
    header = ["x1", "x2", "re_psi", "im_psi"]
    return emit_dataset(config, args.out, "eigenstate", header, columns, {
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
    for name in ("t", "gamma"):  # rejected before any grid sample or check is computed
        require_real(getattr(args, name), name)
    x1, x2 = _square_grid(args)
    if args.cutoff < 4:
        raise ConfigError("cutoff must be at least 4")
    units = config.units
    report = bridge.coherent_checks(
        alpha, beta, args.t, args.gamma, coupling=coupling, units=units, cutoff=args.cutoff,
    )

    state = bridge.coherent_state(alpha, beta, units)
    alpha_t, beta_t = bridge.evolved_labels(alpha, beta, args.t, coupling, units)
    evolved = bridge.coherent_state(alpha_t, beta_t, units)
    zero_point = complex(np.exp(-1j * units.omega * args.t))
    rotated = bridge.rotate(state, args.gamma)

    with np.errstate(over="ignore", invalid="ignore"):  # _float_columns rejects inf and nan
        base = state.evaluate(x1, x2)
        evo = zero_point * evolved.evaluate(x1, x2)
        rot = rotated.evaluate(x1, x2)
    columns = _float_columns(x1, x2, base.real, base.imag, evo.real, evo.imag,
                             rot.real, rot.imag)
    header = ["x1", "x2", "re_phi", "im_phi", "re_evolved", "im_evolved",
              "re_rotated", "im_rotated"]
    lam1, lam2 = bridge.coherent_eigenvalues(alpha, beta, units)
    emit_dataset(config, args.out, "coherent", header, columns, {
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
        "omega": None if result.omega is None else to_float(result.omega, "omega"),
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
VERIFY_SUITES = tuple(_SUITE_BUILDERS)
# suite -> the run settings it reads; verify <suite> refuses the flag of any other
_SUITE_SETTINGS = {"algebra": (), "classical": (), "fock": ("truncation",),
                   "bridge": ("m", "omega", "hbar"), "aniso": (), "landau": ()}


def cmd_verify(args, config: RunConfig) -> int:
    suite = args.suite
    if suite == "all":
        report = VerificationReport(suite="all")
        for name in VERIFY_SUITES:
            report.extend(_SUITE_BUILDERS[name](config).rows)
    else:
        unread = [key for key in _SETTINGS if getattr(args, f"cfg_{key}", None) is not None
                  and key not in (*_SUITE_SETTINGS[suite], "outdir")]
        if unread:
            raise ConfigError(f"verify {suite} does not read "
                              + ", ".join("--" + key.replace("_", "-") for key in unread))
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


def _command(sub, name: str, handler, summary: str, *settings: str) -> argparse.ArgumentParser:
    """Subcommand ``name`` run by ``handler``, with --outdir and the flags of the run settings
    its handler reads; the flag of a setting is its name with "-" for "_".  A flag is never
    abbreviated, so a setting a command does not read cannot pass for another flag (--m for
    landau's --mass)."""
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.set_defaults(handler=handler)
    group = p.add_argument_group("run configuration")
    for key in (*settings, "outdir"):
        group.add_argument("--" + key.replace("_", "-"), dest=f"cfg_{key}", help=_SETTINGS[key])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riaho",
        description="Rotationally invariant anisotropic oscillator datasets and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "trajectory", cmd_trajectory, "closed-form orbit over one closure period",
                 "m", "omega", "format")
    p.add_argument("--g", required=True, help="coupling, exact rational like 2/3")
    p.add_argument("--r1", type=float, default=1.0, help="mode-1 radius")
    p.add_argument("--r2", type=float, default=1.0, help="mode-2 radius")
    p.add_argument("--gamma1", type=float, default=0.0, help="mode-1 phase")
    p.add_argument("--gamma2", type=float, default=0.0, help="mode-2 phase")
    p.add_argument("--samples", type=int, default=512, help="number of samples")
    p.add_argument("--window", type=float, default=None,
                   help="override time window instead of the closure period")
    p.add_argument("--out", default=None, help="output stem (default trajectory)")

    p = _command(sub, "lissajous", cmd_lissajous, "two-frequency configuration curve", "format")
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

    p = _command(sub, "spectrum", cmd_spectrum, "exact-rational energy table",
                 "hbar", "omega", "format")  # hbar and omega go to the sidecar
    p.add_argument("--g", required=True, help="coupling, exact rational like 1/3")
    p.add_argument("--nmax", type=int, default=8, help="per-mode grid cutoff")
    p.add_argument("--out", default=None, help="output stem (default spectrum)")

    p = _command(sub, "degeneracy", cmd_degeneracy, "energy classes with completeness flags",
                 "truncation", "format")
    p.add_argument("--g", required=True, help="coupling, exact rational like 1/3")
    p.add_argument("--emax", required=True,
                   help="inclusive energy bound in units of hbar*omega (rational)")
    p.add_argument("--out", default=None, help="output stem (default degeneracy)")

    p = _command(sub, "eigenstate", cmd_eigenstate, "wavefunction samples for one (n1, n2)",
                 "m", "omega", "hbar", "format")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--extent", type=float, default=3.0, help="grid half-width")
    p.add_argument("--points", type=int, default=41, help="grid points per axis")
    p.add_argument("--out", default=None, help="output stem (default eigenstate)")

    p = _command(sub, "coherent", cmd_coherent, "coherent state with evolved and rotated images",
                 "m", "omega", "hbar", "format")
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

    p = _command(sub, "landau", cmd_landau, "phase classification of equivalent realizations")
    p.add_argument("--omega-b", dest="omega_b", default=None,
                   help="half cyclotron frequency, sign carried")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="additional quadratic strength")
    p.add_argument("--k", default=None, help="spring constant (rotating frame)")
    p.add_argument("--mass", default=None, help="mass (rotating frame)")
    p.add_argument("--omega-cap", dest="omega_cap", default=None,
                   help="signed rotation rate (rotating frame)")
    p.add_argument("--out", default=None, help="optional output stem")

    p = _command(sub, "verify", cmd_verify, "run an identity check suite and write a JSON report",
                 "m", "omega", "hbar", "truncation")
    p.add_argument("suite", nargs="?", default="all",
                   choices=VERIFY_SUITES + ("all",))
    p.add_argument("--out", default=None, help="report stem (default verify_<suite>)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: built by the first :func:`main` call, which parsing
    leaves unchanged; not at import, which commands that never parse would pay for."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
