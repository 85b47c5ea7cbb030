"""Verification report containers shared by the check suites and the CLI.

A report is a named list of check rows; each row records the identity
tested, pass/fail status, a numeric residual where one makes sense (None
for exact symbolic checks, which either pass with residual 0 or carry the
offending polynomial in `detail`), and wall time.  Serialization matches
the JSON schema shipped under ``riaho/schemas``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .phasealg.exact import require_real

__all__ = ["CheckRow", "VerificationReport"]


@dataclass(frozen=True)
class CheckRow:
    check_id: str
    identity: str
    passed: bool
    residual: float | None = None
    elapsed: float = 0.0
    detail: str = ""

    @classmethod
    def within(cls, check_id: str, identity: str, residual, tol: float,
               detail: str = "") -> "CheckRow":
        """Row that passes when ``residual <= tol``; a NaN residual fails.  A ``tol`` that is
        not a finite real raises ValueError."""
        tol = require_real(tol, "tol")
        return cls(check_id=check_id, identity=identity, passed=bool(residual <= tol),
                   residual=float(residual), detail=detail)

    @classmethod
    def exact(cls, check_id: str, identity: str, passed: bool, detail: str = "") -> "CheckRow":
        """Row of a check decided in exact arithmetic: residual 0.0 if it passed, else None."""
        return cls(check_id=check_id, identity=identity, passed=passed,
                   residual=0.0 if passed else None, detail=detail)

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
