"""The four workloads: seeded inputs, one operation each, and its oracle.

Inputs are plain data made by a ``random.Random`` seeded from the workload
name, the benchmark seed and a stream number, so the same seed gives the
same inputs.  They come in blocks: a block holds every input class of the
workload once (in seeded order), and a run measures whole blocks, so each
run times the same mix of input sizes whatever the seed.

An operation calls riaho's public API; its check raises ``CheckFailed`` when
the output is wrong.  Nothing here imports riaho at module level:
:func:`load_riaho` does, during set-up.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An operation's output did not pass its oracle."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def load_riaho():
    """Import the parts of riaho the operations call."""
    import numpy
    import riaho.bridge
    import riaho.cli
    import riaho.fockeng
    import riaho.phasealg
    import scipy
    return types.SimpleNamespace(
        cli=riaho.cli, fockeng=riaho.fockeng, bridge=riaho.bridge,
        phasealg=riaho.phasealg, numpy=numpy, scipy=scipy,
    )


@dataclass
class Context:
    """What operations share inside one process."""

    riaho: types.SimpleNamespace
    workdir: Path
    reference: bytes | None = None

    def cli(self, argv) -> int:
        """``riaho.cli.main`` in-process, with its chatter kept off stdout."""
        with contextlib.redirect_stdout(io.StringIO()):
            return self.riaho.cli.main([*argv, "--outdir", str(self.workdir)])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    block: Callable[[random.Random], list]   # one block of op inputs
    warmup: dict                             # fixed input, same for every seed
    run: Callable[[Context, dict], object]
    check: Callable[[Context, dict, object], None]


def blocks(workload: Workload, seed: int, stream: int = 0):
    """Endless seeded sequence of input blocks."""
    rng = random.Random(f"{workload.name}/{seed}/{stream}")
    while True:
        yield workload.block(rng)


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


def _require_all_passed(report: dict, what: str):
    failed = [c["check_id"] for c in report["checks"] if c["status"] != "pass"]
    require(report["passed"] and not failed and report["checks"], f"{what}: failed {failed}")


def _require_rows_passed(rows, what: str):
    failed = [r.check_id for r in rows if not r.passed]
    require(rows and not failed, f"{what}: failed {failed}")


# ---------------------------------------------------------------------------
# verify-all


def _verify_all_block(rng):
    return [{}]


def _verify_all_run(ctx, inp):
    return ctx.cli(["verify", "all"])


def _verify_all_check(ctx, inp, rc):
    require(rc == 0, f"verify all exited {rc}")
    data = (ctx.workdir / "verify_all.json").read_bytes()
    _require_all_passed(json.loads(data), "verify all")
    if ctx.reference is None:
        ctx.reference = data
    require(data == ctx.reference, "verify all report differs from the run's first report")


VERIFY_ALL = Workload(
    name="verify-all",
    why="riaho verify all at the default config: the command users run; mostly RK4, "
        "quadrature and Fock at truncation 12, little exact algebra",
    block=_verify_all_block, warmup={}, run=_verify_all_run, check=_verify_all_check,
)


# ---------------------------------------------------------------------------
# exact-algebra

# (m, omega) pairs of tests/test_phase_poly.py::test_conversion_round_trip
UNIT_PAIRS = (("1", "1"), ("1", "4"), ("2", "1"), ("1", "2"), ("1/2", "1"), ("9", "2"))
COUPLINGS = ("1/3", "1/2", "2/3", "3", "-1/3")


# Exponents of the round-trip poly's three terms, up to a seeded permutation
# of the variables: total degrees 2, 4 and 6, each exponent 0-2.  Fixing the
# degrees keeps the cost of an operation steady; with exponents drawn freely
# a degree-8 term costs ten times a typical poly and sets the run's figures.
ROUND_TRIP_SHAPES = ((1, 1, 0, 0), (2, 1, 1, 0), (2, 2, 1, 1))


def _coefficient(rng):
    # (re, im, sqrt2 / 2 part), the ranges of tests/test_phase_poly.py::random_poly
    return [rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2)]


def random_poly_terms(rng, nterms=3, maxexp=2):
    """Terms as in tests/test_phase_poly.py::random_poly, as plain data.

    Each term is (e_x1, e_x2, e_p1, e_p2, re, im, sqrt2_halves): the
    coefficient is re + i im + (sqrt2_halves / 2) sqrt2.
    """
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(0, maxexp) for _ in range(4))
        terms[key] = _coefficient(rng)
    return [list(k) + v for k, v in terms.items()]


def round_trip_terms(rng):
    """Three terms with the exponents of ROUND_TRIP_SHAPES, seeded placement."""
    terms = []
    for shape in ROUND_TRIP_SHAPES:
        exponents = list(shape)
        rng.shuffle(exponents)
        terms.append(exponents + _coefficient(rng))
    return terms


def _exact_block(rng):
    pairs = list(UNIT_PAIRS)
    rng.shuffle(pairs)
    return [
        {"units": list(pair), "poly": round_trip_terms(rng),
         "a": random_poly_terms(rng), "b": random_poly_terms(rng),
         "g": rng.choice(COUPLINGS)}
        for pair in pairs
    ]


def _poly(pa, terms, units=None):
    params = None if units is None else pa.Params(*(Fraction(u) for u in units))
    return pa.PhasePoly(pa.CANONICAL, {
        (e1, e2, e3, e4, Fraction(0)): pa.ExactComplex(Fraction(re), Fraction(im),
                                                       Fraction(s2, 2), 0)
        for e1, e2, e3, e4, re, im, s2 in terms
    }, params)


def _exact_run(ctx, inp):
    pa = ctx.riaho.phasealg
    p = _poly(pa, inp["poly"], inp["units"])
    back = p.to_basis(pa.CIRCULAR).to_basis(pa.CANONICAL)
    a, b = _poly(pa, inp["a"]), _poly(pa, inp["b"])
    ab, ba = pa.poisson_bracket(a, b), pa.poisson_bracket(b, a)
    g = Fraction(inp["g"])
    checks = pa.verify_sp4_table(g) + pa.verify_casimirs(g) + pa.verify_dynamical_integrals(g)
    bridge_rows = ctx.riaho.fockeng.verify_one_mode_bridge(size=31)
    return p, back, ab, ba, checks, bridge_rows


def _exact_check(ctx, inp, out):
    p, back, ab, ba, checks, bridge_rows = out
    require(back == p, f"to_basis round trip changed the poly at units {inp['units']}")
    require((ab + ba).is_zero(), "Poisson bracket is not antisymmetric")
    failed = [c.identity_name for c in checks if not c.passed]
    require(checks and not failed, f"exact identities failed at g={inp['g']}: {failed}")
    _require_rows_passed(bridge_rows, "one-mode bridge (size 31)")


EXACT_ALGEBRA = Workload(
    name="exact-algebra",
    why="to_basis round trip, bracket antisymmetry, sp4/Casimir/integral identities and "
        "the size-31 one-mode bridge: ExactComplex arithmetic, numpy and RK4 idle",
    block=_exact_block,
    warmup={"units": ["1", "1"],
            "poly": [[1, 0, 1, 0, 1, -2, 1], [0, 2, 1, 1, 3, 0, -1], [1, 2, 1, 2, -1, 2, 2]],
            "a": [[1, 1, 0, 0, 1, 0, 0]], "b": [[0, 0, 1, 2, 0, 1, 1]], "g": "1/3"},
    run=_exact_run, check=_exact_check,
)


# ---------------------------------------------------------------------------
# fock-scale

TRUNCATIONS = (18, 20, 22)
OVERLAP_NMAX = (3, 4)


def _fock_block(rng):
    combos = [{"truncation": t, "nmax": n} for t in TRUNCATIONS for n in OVERLAP_NMAX]
    rng.shuffle(combos)
    return combos


def _fock_run(ctx, inp):
    t = inp["truncation"]
    rc = ctx.cli(["verify", "fock", "--truncation", str(t), "--out", f"fock_{t}"])
    gram = ctx.riaho.bridge.overlap_matrix(inp["nmax"])
    rows = ctx.riaho.fockeng.verify_quantum_bridge(cutoff=16)
    return rc, gram, rows


def _fock_check(ctx, inp, out):
    np = ctx.riaho.numpy
    rc, gram, rows = out
    t = inp["truncation"]
    require(rc == 0, f"verify fock --truncation {t} exited {rc}")
    _require_all_passed(_report(ctx.workdir / f"fock_{t}.json"), f"verify fock at {t}")
    dim = (inp["nmax"] + 1) ** 2
    require(gram.shape == (dim, dim), f"overlap matrix shape {gram.shape}")
    resid = float(np.max(np.abs(gram - np.eye(dim))))
    require(resid <= 1e-8, f"overlap matrix differs from identity by {resid:.3g}")
    _require_rows_passed(rows, "two-mode bridge (cutoff 16)")


FOCK_SCALE = Workload(
    name="fock-scale",
    why="verify fock at truncation 18-22, the quadrature Gram matrix and the cutoff-16 "
        "bridge: dense linear algebra on (T+1)^2 states; exact algebra and RK4 idle",
    block=_fock_block, warmup={"truncation": 18, "nmax": 4},
    run=_fock_run, check=_fock_check,
)


# ---------------------------------------------------------------------------
# datasets

TRAJECTORY_G = ("1/3", "1/2", "2/3", "3/2", "2", "3", "-1/2")
LISSAJOUS_PAIRS = (("1", "3"), ("3", "5"), ("1", "4"), ("2", "3"))
SPECTRUM_G = ("1/3", "1/2", "2/3", "3", "-1/3", "5/4")


def _dataset_args(rng):
    """Flag -> value per command; values may start with '-' (negative g)."""
    u = lambda lo, hi: f"{rng.uniform(lo, hi):.6f}"
    w1, w2 = rng.choice(LISSAJOUS_PAIRS)
    return {
        "trajectory": {"g": rng.choice(TRAJECTORY_G), "r1": u(0.5, 2), "r2": u(0.5, 2),
                       "gamma1": u(0, 6.28), "gamma2": u(0, 6.28), "samples": "4096"},
        "lissajous": {"omega1": w1, "omega2": w2, "a1": u(-1, 1), "b1": u(-1, 1),
                      "a2": u(-1, 1), "b2": u(-1, 1), "samples": "4096"},
        "spectrum": {"g": rng.choice(SPECTRUM_G), "nmax": "40"},
        "degeneracy": {"g": rng.choice(SPECTRUM_G), "emax": str(rng.randint(10, 30)),
                       "truncation": "30"},
        "eigenstate": {"n1": str(rng.randint(0, 4)), "n2": str(rng.randint(0, 4)),
                       "points": "101"},
        "coherent": {"alpha": _complex_arg(rng), "beta": _complex_arg(rng), "t": u(0, 3),
                     "gamma": u(0, 6.28), "g": rng.choice(SPECTRUM_G), "points": "61"},
    }


def _complex_arg(rng):
    # |z| <= 1
    while True:
        re, im = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if re * re + im * im <= 1:
            return f"{re:.6f},{im:.6f}"


def _datasets_block(rng):
    return [{"format": fmt, "args": _dataset_args(rng)} for fmt in ("csv", "json")]


def _datasets_run(ctx, inp):
    return {
        command: ctx.cli([command, *(f"--{k}={v}" for k, v in flags.items()),
                          f"--format={inp['format']}"])
        for command, flags in inp["args"].items()
    }


def _read_rows(path: Path, fmt: str):
    if fmt == "csv":
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            columns = next(reader)
            return columns, list(reader)
    data = json.loads(path.read_text())
    return data["columns"], data["rows"]


def _datasets_check(ctx, inp, codes):
    bad = {c: rc for c, rc in codes.items() if rc != 0}
    require(not bad, f"dataset commands exited non-zero: {bad}")
    fmt, args, work = inp["format"], inp["args"], ctx.workdir

    # spectrum: exact energies recomputed here, E = (1+g) n1 + (1-g) n2 + 1
    g = Fraction(args["spectrum"]["g"])
    nmax = int(args["spectrum"]["nmax"])
    columns, rows = _read_rows(work / f"spectrum.{fmt}", fmt)
    col = {name: i for i, name in enumerate(columns)}
    seen = set()
    for row in rows:
        n1, n2 = int(row[col["n1"]]), int(row[col["n2"]])
        got = Fraction(int(row[col["E_exact_num"]]), int(row[col["E_exact_den"]]))
        require(got == (1 + g) * n1 + (1 - g) * n2 + 1, f"spectrum energy of ({n1}, {n2})")
        seen.add((n1, n2))
    require(len(rows) == len(seen) == (nmax + 1) ** 2, "spectrum does not list every state once")

    # trajectory: the orbit closes over the period it was sampled on
    _, rows = _read_rows(work / f"trajectory.{fmt}", fmt)
    first, last = [float(v) for v in rows[0][1:]], [float(v) for v in rows[-1][1:]]
    gap = max(abs(a - b) for a, b in zip(first, last))
    require(gap <= 1e-9, f"trajectory first and last rows differ by {gap:.3g}")

    norm = _report(work / "eigenstate.meta.json")["norm_quadrature"]
    require(abs(norm - 1) <= 1e-8, f"eigenstate norm by quadrature is {norm!r}")

    checks = _report(work / "coherent.meta.json")["checks"]
    _require_all_passed(checks, "coherent-state checks")


DATASETS = Workload(
    name="datasets",
    why="the six dataset commands alternating csv and json: the write path (%.17g "
        "formatting), closed-form orbits and grid evaluation that verify all never reaches",
    block=_datasets_block,
    warmup={"format": "csv", "args": {
        "trajectory": {"g": "2/3", "samples": "4096"},
        "lissajous": {"omega1": "1", "omega2": "3", "samples": "4096"},
        "spectrum": {"g": "1/3", "nmax": "40"},
        "degeneracy": {"g": "1/3", "emax": "20", "truncation": "30"},
        "eigenstate": {"n1": "2", "n2": "2", "points": "101"},
        "coherent": {"alpha": "0.5,-0.3", "beta": "0.2,0.6", "t": "1.0", "gamma": "0.5",
                     "g": "1/2", "points": "61"}}},
    run=_datasets_run, check=_datasets_check,
)


WORKLOADS = {w.name: w for w in (VERIFY_ALL, EXACT_ALGEBRA, FOCK_SCALE, DATASETS)}
