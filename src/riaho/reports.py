"""Verification report containers shared by the check suites and the CLI.

A report is a named list of check rows; each row records the identity
tested, pass/fail status, a numeric residual where one makes sense (None
for exact symbolic checks, which either pass with residual 0 or carry the
offending polynomial in `detail`), and wall time.  Serialization matches
the JSON schema shipped under ``riaho/schemas``.  :func:`check` is the only row
constructor: it builds every row from :data:`FAMILIES`, the one table of each check
family's identity, tolerance and exactness.  It alone applies a tolerance: a measured
family's row passes when its residual is within the family's tol.  An exact family's
outcome is the bool its check function computes, with no tolerance anywhere.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["CheckRow", "VerificationReport", "FAMILIES", "check"]


@dataclass(frozen=True)
class CheckRow:
    check_id: str
    identity: str
    passed: bool
    residual: float | None = None
    elapsed: float = 0.0
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "identity": self.identity,
            "status": self.status,
            "residual": self.residual,
            "elapsed": self.elapsed,
            "detail": self.detail,
        }


class _Family(NamedTuple):
    identity: str  # format string over the row's fields and the family's tol
    tol: float | None = None  # a measured family passes at residual <= tol; None: decided exactly
    on_pass: float | None = None  # the residual a passing exact row reports: None or 0.0


# Each check family, keyed by its check ids cut at the first ":" or "[", suite by suite.
FAMILIES = {
    **dict.fromkeys(("sp4", "casimir", "integral"), _Family("{lhs} = {rhs}")),
    "cbt-H": _Family("T(H) = -w J-"), "cbt-iD0": _Family("T(iD0) = J0"),
    "cbt-K0": _Family("T(K0) = J+/w"),
    "closure": _Family("x(T) = x(0) at the closure period", 1e-9),
    "integrate": _Family("closed form matches fixed-step RK4", 1e-6),
    "origin-flags": _Family("origin flags match {expected}"),
    "cusp-flags": _Family("cusp flags match {expected}"),
    "hidden-commutes": _Family("[{h}, {x}] = 0", 0.0),
    "orbits-match-degeneracy": _Family("{x} orbits = {classes}"),
    "unitary-mode": _Family("U a{mode}{sign} U+ = e^{{{sign}i pi/4}} b{mode}{sign}", 1e-10),
    "unitary-hamiltonian": _Family("U H_rni U+ = H_g", 1e-10),
    "bridge-one-mode-H": _Family("S H = -K_- S", on_pass=0.0),
    "bridge-one-mode-iD": _Family("S iD = K_0 S", on_pass=0.0),
    "bridge-one-mode-K": _Family("S K = K_+ S", on_pass=0.0),
    "bridge-two-mode-H": _Family("S H_free = -J_- S", 1e-10),
    "bridge-two-mode-iD": _Family("S iD = J_0 S", 1e-10),
    "bridge-two-mode-K": _Family("S K = J_+ S", 1e-10),
    "proportionality": _Family("bridged monomial is grid-proportional to the eigenfunction", 1e-9),
    "reduced-constant": _Family("reduced proportionality constant is state-independent", 1e-9),
    "overlap-identity": _Family("eigenfunction Gram matrix = identity by quadrature", 1e-8),
    "inverse-weierstrass": _Family("exp(-(1/4) d^2) eta^n = 2^-n H_n(eta) exactly for n <= 10"),
    "coherent-eigenvalue-b1": _Family("b1- Phi = lambda1 Phi", 1e-10),
    "coherent-eigenvalue-b2": _Family("b2- Phi = lambda2 Phi", 1e-10),
    "coherent-evolution": _Family(
        "exp(-itH/hbar) Phi(a,b) = Phi(a e^{{-i w l1 t}}, b e^{{-i w l2 t}})", 1e-10),
    "coherent-truncation": _Family("retained expansion weight = 1 within {tol}", 1e-10),
    "coherent-rotation": _Family(
        "R(gamma) Phi(a,b) = Phi(a e^{{i gamma}}, b e^{{-i gamma}})", 1e-12),
    "so11-quadrature-form": _Family("x1 p2 + x2 p1 = i hbar (J+ - J-)", 1e-12),
    "so11-invariance": _Family("[H(-), L11] = 0", 0.0),
    "sl2-raise": _Family("[J0, J+] = +J+", 1e-12), "sl2-lower": _Family("[J0, J-] = -J-", 1e-12),
    "sl2-ladder-bracket": _Family("[J-, J+] = H_osc/(hbar w) = 2 J0 + 1", 1e-12),
    "signed-spectrum": _Family(
        "diag(H^(sigma)) = hbar*(w1 n1 + sigma w2 n2 + (w1+sigma w2)/2)", 1e-12),
    "lissajous-closure": _Family("curve closes at 2 pi l2 / omega1", 1e-9),
    "rescale-canonical": _Family(
        "{{x_i', p_j'}} = delta_ij, {{x', x'}} = {{p', p'}} = 0", on_pass=0.0),
    "composite-spectrum": _Family(
        "spec(H_g) = spec(H^(sigma), Omega_i=|ell_i| w) with multiplicity", on_pass=0.0),
    "roundtrip": _Family("landau_to_g(g_to_landau(g, w)) = (g, w) exactly", on_pass=0.0),
    **dict.fromkeys(("boundary-landau", "boundary-critical", "rotating-frame"),
                    _Family("phase = {phase}{g}")),
}


def _family(check_id: str) -> str:
    return re.split(r"[:\[]", check_id, maxsplit=1)[0]


def check(check_id: str, outcome, detail: str = "", **fields) -> CheckRow:
    """Row ``check_id`` of its family in :data:`FAMILIES`, the identity filled from ``fields``.
    A measured family's outcome is the residual, passing at most tol (a NaN fails); an exact
    family's is a bool.  An id of no family, an outcome of the other kind or a missing field
    raises ValueError."""
    family = FAMILIES.get(_family(check_id))
    if family is None:
        raise ValueError(f"check id {check_id!r} is of no check family")
    if (family.tol is None) != isinstance(outcome, bool):
        kind = "a bool" if family.tol is None else "a residual"
        raise ValueError(f"check {check_id!r} takes {kind}, got {outcome!r}")
    try:
        identity = family.identity.format(tol=family.tol, **fields)
    except KeyError as exc:
        raise ValueError(f"check {check_id!r} needs the field {exc}") from None
    if family.tol is None:
        return CheckRow(check_id, identity, outcome, family.on_pass if outcome else None,
                        detail=detail)
    return CheckRow(check_id, identity, bool(outcome <= family.tol), float(outcome),
                    detail=detail)


@dataclass
class VerificationReport:
    suite: str
    rows: list = field(default_factory=list)

    def add(self, row: CheckRow):
        self.rows.append(row)

    def extend(self, rows):
        self.rows.extend(rows)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(1 for r in self.rows if r.passed)
        return ok, len(self.rows)

    def to_dict(self) -> dict:
        ok, total = self.counts
        return {
            "suite": self.suite,
            "passed": self.passed,
            "total": total,
            "failures": total - ok,
            "checks": [r.to_dict() for r in self.rows],
        }

    def to_json(self) -> str:
        """The report as JSON, indented by 2 spaces, keys in schema order."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)
