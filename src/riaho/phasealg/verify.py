"""Structure-constant and integral checks for the circular-mode algebra.

Every identity is evaluated in the exact coefficient ring, so a "pass" means
the residual polynomial is literally zero, not small.  Each check is
reported as :class:`BracketCheck` (identity name, rhs label, residual
polynomial as text, pass flag).  :func:`suite_algebra` collects them, with
the classical bridge triple, into the ``algebra`` verify suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..coupling import Coupling
from ..reports import VerificationReport, check
from .catalog import GENERATOR_NAMES, catalog, generator, hamiltonian
from .cbt import classical_cbt, conformal_k0, dilation_id0, free_hamiltonian
from .exact import ExactComplex
from .poly import (CIRCULAR, Params, PhasePoly, poisson_bracket,
                   total_time_derivative)

__all__ = [
    "BracketCheck", "SP4_TABLE",
    "verify_sp4_table", "verify_casimirs", "verify_dynamical_integrals",
    "suite_algebra",
]

_I = ExactComplex.I


@dataclass(frozen=True)
class BracketCheck:
    """One verified identity: its name, the rhs label, the residual as text, pass flag."""

    identity_name: str
    rhs: str
    residual: str
    passed: bool


def _check(name: str, lhs: PhasePoly, rhs: PhasePoly, rhs_label: str) -> BracketCheck:
    residual = lhs - rhs
    return BracketCheck(identity_name=name, rhs=rhs_label, residual=str(residual),
                        passed=residual.is_zero())


# Nonzero bracket table among the quadratic generators: rows are
# (A, B, scale, targets) meaning {A, B} = scale * i * sum(targets).
SP4_TABLE = (
    ("J0", "J+", -1, ("J+",)),
    ("J0", "J-", +1, ("J-",)),
    ("J-", "J+", -2, ("J0",)),
    ("L2", "L+", -1, ("L+",)),
    ("L2", "L-", +1, ("L-",)),
    ("L+", "L-", -2, ("L2",)),
    ("J+", "L-", +1, ("B2+",)),
    ("J-", "L+", -1, ("B2-",)),
    ("J+", "L+", +1, ("B1+",)),
    ("J-", "L-", -1, ("B1-",)),
    ("J0", "B1+", -1, ("B1+",)),
    ("J0", "B1-", +1, ("B1-",)),
    ("J0", "B2+", -1, ("B2+",)),
    ("J0", "B2-", +1, ("B2-",)),
    ("J-", "B2+", -2, ("L-",)),
    ("J+", "B2-", +2, ("L+",)),
    ("J-", "B1+", -2, ("L+",)),
    ("J+", "B1-", +2, ("L-",)),
    ("L2", "B1+", -1, ("B1+",)),
    ("L2", "B1-", +1, ("B1-",)),
    ("L2", "B2+", +1, ("B2+",)),
    ("L2", "B2-", -1, ("B2-",)),
    ("L+", "B1-", +2, ("J-",)),
    ("L-", "B1+", -2, ("J+",)),
    ("L+", "B2+", -2, ("J+",)),
    ("L-", "B2-", +2, ("J-",)),
    ("B1-", "B1+", -4, ("J0", "L2")),
    ("B2-", "B2+", -4, ("J0", "-L2")),
)


def _named(cat: dict, label: str) -> PhasePoly:
    if label.startswith("-"):
        return -cat[label[1:]]
    return cat[label]


def verify_sp4_table(coupling) -> list[BracketCheck]:
    """Evaluate the full nonzero bracket table of the quadratic algebra, at m = omega = 1."""
    cat = catalog(coupling)
    checks = []
    for a, b, scale, targets in SP4_TABLE:
        lhs = poisson_bracket(cat[a], cat[b])
        rhs = PhasePoly.zero(lhs.basis, lhs.params)
        for t in targets:
            rhs = rhs + _named(cat, t)
        rhs = rhs * (_I * Fraction(scale))
        label = f"{scale}*i*(" + "+".join(targets) + ")"
        checks.append(_check("{%s,%s}" % (a, b), lhs, rhs, label))
    # commuting Cartan pair
    checks.append(_check("{J0,L2}", poisson_bracket(cat["J0"], cat["L2"]),
                         PhasePoly.zero(cat["J0"].basis, cat["J0"].params),
                         "0"))
    return checks


def verify_casimirs(coupling=0) -> list[BracketCheck]:
    """The four quadratic Casimir identities of the su(2) and sl(2,R) pieces, at m = omega = 1.

    S1: L2^2 + L+L- = J0^2
    S2: -J0^2 + J+J- = -L2^2
    S3: -(1/2(J0 - L2))^2 + 1/4 B2+ B2- = 0
    S4: -(1/2(J0 + L2))^2 + 1/4 B1+ B1- = 0
    """
    cat = catalog(coupling)
    J0, L2 = cat["J0"], cat["L2"]
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    zero = PhasePoly.zero(J0.basis, J0.params)
    s1 = _check("S1", L2 * L2 + cat["L+"] * cat["L-"], J0 * J0, "J0^2")
    s2 = _check("S2", -(J0 * J0) + cat["J+"] * cat["J-"], -(L2 * L2),
                "-L2^2")
    m = (J0 - L2) * half
    s3 = _check("S3", -(m * m) + quarter * cat["B2+"] * cat["B2-"], zero, "0")
    p = (J0 + L2) * half
    s4 = _check("S4", -(p * p) + quarter * cat["B1+"] * cat["B1-"], zero, "0")
    return [s1, s2, s3, s4]


def verify_dynamical_integrals(coupling) -> list[BracketCheck]:
    """total_time_derivative(G, H_g) = 0 for every catalog generator, at m = omega = 1."""
    c = Coupling.coerce(coupling)
    h = hamiltonian(c)
    checks = []
    for name in GENERATOR_NAMES:
        gen = generator(name, c)
        lhs = total_time_derivative(gen, h)
        checks.append(_check(f"d/dt {name}", lhs,
                             PhasePoly.zero(h.basis, h.params), "0"))
    return checks


def suite_algebra(config) -> VerificationReport:
    """Exact symbolic checks: bracket table, Casimirs, integrals, bridge triple.

    Exact throughout, so no setting of the run ``config`` applies.
    """
    report = VerificationReport(suite="algebra")
    g = Fraction(1, 3)
    for prefix, checks in (("sp4", verify_sp4_table(g)), ("casimir", verify_casimirs(g)),
                           ("integral[g=1/3]", verify_dynamical_integrals(g)),
                           ("integral[g=3]", verify_dynamical_integrals(Fraction(3)))):
        for chk in checks:
            report.add(check(f"{prefix}:{chk.identity_name}", chk.passed,
                             "" if chk.passed else f"residual polynomial {chk.residual}",
                             lhs=chk.identity_name, rhs=chk.rhs))

    params = Params()
    w = params.omega
    triple = (
        ("cbt-H", classical_cbt(free_hamiltonian(params)).to_basis(CIRCULAR),
         (-w) * generator("J-", 0, params).at_time_zero()),
        ("cbt-iD0", classical_cbt(dilation_id0(params)).to_basis(CIRCULAR),
         generator("J0", 0, params)),
        ("cbt-K0", classical_cbt(conformal_k0(params)).to_basis(CIRCULAR),
         (Fraction(1) / w) * generator("J+", 0, params).at_time_zero()),
    )
    for check_id, got, want in triple:
        passed = got == want
        report.add(check(check_id, passed, "" if passed else f"difference {got - want}"))
    return report
