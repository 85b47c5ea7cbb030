"""Structure-constant and integral checks for the circular-mode algebra.

Every identity is evaluated in the exact coefficient ring, so a "pass" means
the residual polynomial is literally zero, not small.  Each check function
returns the :class:`~riaho.reports.CheckRow` list that ``verify algebra`` reports
for its coupling, a failing row carrying the residual polynomial in its detail;
:func:`suite_algebra` collects them, with the classical bridge triple, into the
``algebra`` verify suite.
"""
from __future__ import annotations

from fractions import Fraction

from ..coupling import Coupling
from ..reports import CheckRow, VerificationReport, check
from .catalog import catalog, generator, hamiltonian
from .cbt import classical_cbt, conformal_k0, dilation_id0, free_hamiltonian
from .exact import ExactComplex
from .poly import (CIRCULAR, Params, PhasePoly, poisson_bracket,
                   total_time_derivative)

__all__ = [
    "SP4_TABLE", "verify_sp4_table", "verify_casimirs", "verify_dynamical_integrals",
    "suite_algebra",
]

_I = ExactComplex.I


def _row(prefix: str, name: str, lhs: PhasePoly, rhs: PhasePoly, rhs_label: str) -> CheckRow:
    """Row ``prefix:name`` of the identity ``name`` = ``rhs_label``, exact: lhs == rhs, which
    compares canonical coefficients term by term; the residual lhs - rhs is formed only for
    a failing row's detail."""
    passed = lhs == rhs
    return check(f"{prefix}:{name}", passed, "" if passed else f"residual polynomial {lhs - rhs}",
                 lhs=name, rhs=rhs_label)


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


def verify_sp4_table(coupling) -> list[CheckRow]:
    """The ``sp4:{A,B}`` rows: the nonzero bracket table of the quadratic algebra, m = omega = 1."""
    cat = catalog(coupling)
    rows = []
    for a, b, scale, targets in SP4_TABLE:
        rhs = _named(cat, targets[0])
        for t in targets[1:]:
            rhs = rhs + _named(cat, t)
        label = f"{scale}*i*(" + "+".join(targets) + ")"
        rows.append(_row("sp4", "{%s,%s}" % (a, b), poisson_bracket(cat[a], cat[b]),
                         rhs * (_I * scale), label))
    # commuting Cartan pair
    rows.append(_row("sp4", "{J0,L2}", poisson_bracket(cat["J0"], cat["L2"]),
                     PhasePoly.zero(cat["J0"].basis, cat["J0"].params), "0"))
    return rows


def verify_casimirs(coupling=0) -> list[CheckRow]:
    """The ``casimir:S1`` .. ``casimir:S4`` rows: the four quadratic Casimir identities of
    the su(2) and sl(2,R) pieces, at m = omega = 1.

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
    m = (J0 - L2) * half
    p = (J0 + L2) * half
    return [
        _row("casimir", "S1", L2 * L2 + cat["L+"] * cat["L-"], J0 * J0, "J0^2"),
        _row("casimir", "S2", -(J0 * J0) + cat["J+"] * cat["J-"], -(L2 * L2), "-L2^2"),
        _row("casimir", "S3", -(m * m) + quarter * cat["B2+"] * cat["B2-"], zero, "0"),
        _row("casimir", "S4", -(p * p) + quarter * cat["B1+"] * cat["B1-"], zero, "0"),
    ]


def verify_dynamical_integrals(coupling) -> list[CheckRow]:
    """The ``integral[g={coupling}]:d/dt G`` rows: total_time_derivative(G, H_g) = 0 for every
    catalog generator G, at m = omega = 1."""
    c = Coupling.coerce(coupling)
    h = hamiltonian(c)
    zero = PhasePoly.zero(h.basis, h.params)
    return [_row(f"integral[g={c}]", f"d/dt {name}", total_time_derivative(g, h), zero, "0")
            for name, g in catalog(c).items()]


def suite_algebra(config) -> VerificationReport:
    """Exact symbolic checks: bracket table, Casimirs, integrals, bridge triple.

    Exact throughout, so no setting of the run ``config`` applies.
    """
    report = VerificationReport(suite="algebra")
    couplings = (Fraction(1, 3), Fraction(3))  # the bracket table and Casimirs run at the first
    report.extend(verify_sp4_table(couplings[0]) + verify_casimirs(couplings[0]))
    for g in couplings:
        report.extend(verify_dynamical_integrals(g))

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
