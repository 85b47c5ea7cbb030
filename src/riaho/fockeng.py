"""Truncated two-mode Fock-space engine.

The basis is the number basis of the circular modes, in which the rotating
oscillator Hamiltonian is diagonal with exact rational spectrum
``E/(hbar*omega) = l1*n1 + l2*n2 + 1`` where ``l1 = 1+g`` and ``l2 = 1-g``.
Every operator builder returns a plain dense ``np.ndarray`` on the finite grid
``0 <= n1, n2 <= cutoff``, indexed row-major over (n1, n2) as in :class:`FockBasis`:
float64, except the complex a2+-, su(2) generators and unitary.  The checks of
:func:`suite_fock` are evaluated one block of N = n1 + n2 at a time, since every
operator they involve keeps N or shifts it by a constant.  Exact statements use
Fractions or integers (energies, degeneracy grouping) or integer and Fraction
object arrays (the one-mode conformal bridge), so equality is never a
floating-point question.  The
Cartesian-to-circular unitary is built in closed form from its 2x2
one-particle block, block by block in N, with no matrix exponential.

Truncation corrupts matrix elements near the grid edge, so checks that
involve raising operators are restricted to interior columns via
:class:`InteriorMask`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coupling import Coupling
from .phasealg.catalog import hidden_shift, is_true_integral
from .reports import CheckRow, VerificationReport

__all__ = [
    "FockBasis",
    "InteriorMask",
    "DegeneracyClass",
    "ladder",
    "number_operator",
    "hamiltonian",
    "exact_energy",
    "angular_momentum",
    "degeneracy_classes",
    "spectrum_rows",
    "hidden_operator",
    "hidden_coefficient",
    "hidden_orbit_partition",
    "ladder_orbits",
    "level_sets",
    "commutator",
    "verify_commutes",
    "operator_norm",
    "cartesian_modes",
    "su2_generators",
    "unitary_bridge",
    "rni_hamiltonian",
    "one_mode_bridge_unnormalized",
    "one_mode_bridge",
    "verify_one_mode_bridge",
    "verify_quantum_bridge",
    "suite_fock",
]


# ---------------------------------------------------------------------------
# basis and operator containers


@dataclass(frozen=True)
class FockBasis:
    """Two-mode number basis truncated at ``cutoff`` quanta per mode.

    States are ordered row-major over (n1, n2), i.e. index = n1*(cutoff+1)+n2.
    """

    cutoff: int

    def __post_init__(self):
        if isinstance(self.cutoff, bool) or not isinstance(self.cutoff, int) or self.cutoff < 1:
            raise ValueError("cutoff must be a positive integer")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** 2

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 <= self.cutoff and 0 <= n2 <= self.cutoff):
            raise IndexError(f"state ({n1}, {n2}) outside cutoff {self.cutoff}")
        return n1 * (self.cutoff + 1) + n2

    def state(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.dim:
            raise IndexError(f"index {i} outside basis of dimension {self.dim}")
        return divmod(i, self.cutoff + 1)

    def states(self):
        """All (n1, n2) pairs in index order."""
        side = self.cutoff + 1
        return [(n1, n2) for n1 in range(side) for n2 in range(side)]

    def vector(self, n1: int, n2: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(n1, n2)] = 1.0
        return v


@dataclass(frozen=True)
class InteriorMask:
    """Column selector keeping states safely away from the truncation edge.

    A state (n1, n2) is interior when ``n1 + margin1 <= cutoff`` and
    ``n2 + margin2 <= cutoff``; if ``total`` is set it must additionally
    satisfy ``n1 + n2 <= total``.  The total budget is the right notion for
    number-conserving conjugation checks, the per-mode margins for ladder
    compositions with a known per-mode reach.
    """

    basis: FockBasis
    margin1: int = 0
    margin2: int = 0
    total: int | None = None

    def __post_init__(self):
        if self.margin1 < 0 or self.margin2 < 0:
            raise ValueError("margins must be non-negative")
        if self.margin1 > self.basis.cutoff or self.margin2 > self.basis.cutoff:
            raise ValueError("margin exceeds cutoff, interior is empty")

    def contains(self, n1: int, n2: int) -> bool:
        if n1 + self.margin1 > self.basis.cutoff:
            return False
        if n2 + self.margin2 > self.basis.cutoff:
            return False
        if self.total is not None and n1 + n2 > self.total:
            return False
        return True

    def states(self) -> list[tuple[int, int]]:
        return [s for s in self.basis.states() if self.contains(*s)]

    def indices(self) -> np.ndarray:
        return np.array(
            [self.basis.index(n1, n2) for (n1, n2) in self.states()], dtype=int
        )

    def restrict_columns(self, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(matrix)[:, self.indices()]

    def restrict(self, matrix: np.ndarray) -> np.ndarray:
        idx = self.indices()
        return np.asarray(matrix)[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# elementary operators


def _raising(side: int) -> np.ndarray:
    """One-mode raising operator |n> -> sqrt(n+1) |n+1> on ``side`` levels, real."""
    return np.diag(np.sqrt(np.arange(1.0, side)), -1)


def _block(basis: FockBasis, total: int) -> np.ndarray:
    """Grid indices of the states (m, total - m), m = 0..total, of a block N = total <= cutoff."""
    m = np.arange(total + 1)
    return m * (basis.cutoff + 1) + total - m


def ladder(basis: FockBasis, mode: int, direction: str) -> np.ndarray:
    """Raising ("+") or lowering ("-") operator for mode 1 or 2."""
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    side = basis.cutoff + 1
    one_mode = _raising(side) if direction == "+" else _raising(side).T
    eye = np.eye(side)
    return np.kron(one_mode, eye) if mode == 1 else np.kron(eye, one_mode)


def _finite(matrix: np.ndarray, label: str) -> np.ndarray:
    """``matrix`` unchanged; ValueError when an entry is inf or nan."""
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"an entry of {label} is not finite (inf or nan)")
    return matrix


def _diagonal(basis: FockBasis, value, label: str) -> np.ndarray:
    """Diagonal operator with float entries ``value(n1, n2)``; ValueError past the float range."""
    try:
        diag = np.array([value(n1, n2) for (n1, n2) in basis.states()], dtype=float)
    except OverflowError:
        raise ValueError(f"a diagonal entry of {label} lies outside the float range") from None
    return np.diag(_finite(diag, label))


def number_operator(basis: FockBasis, mode: int) -> np.ndarray:
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    return _diagonal(basis, lambda n1, n2: float(n1 if mode == 1 else n2), f"n{mode}")


def exact_energy(coupling: Coupling, n1: int, n2: int) -> Fraction:
    """Level of state (n1, n2) in units of hbar*omega, exactly."""
    if n1 < 0 or n2 < 0:
        raise ValueError("quantum numbers must be non-negative")
    return coupling.ell1 * n1 + coupling.ell2 * n2 + 1


def _integer_weights(coupling: Coupling) -> tuple[int, int, int]:
    """Integers (a, b, d) with l1 = a/d and l2 = b/d, d the lcm of the two denominators."""
    l1, l2 = coupling.ell1, coupling.ell2
    d = math.lcm(l1.denominator, l2.denominator)
    return l1.numerator * (d // l1.denominator), l2.numerator * (d // l2.denominator), d


def hamiltonian(
    basis: FockBasis, coupling: Coupling, hbar_omega: float = 1.0
) -> np.ndarray:
    """Diagonal rotating-oscillator Hamiltonian, entries hbar*omega*(l1 n1 + l2 n2 + 1).

    Each level is the int quotient (a n1 + b n2 + d)/d with l1 = a/d and l2 = b/d, which
    rounds exactly as the float of its :func:`exact_energy` Fraction does.
    """
    a, b, d = _integer_weights(coupling)
    return _diagonal(basis, lambda n1, n2: hbar_omega * ((a * n1 + b * n2 + d) / d), "H_g")


def angular_momentum(basis: FockBasis, hbar: float = 1.0) -> np.ndarray:
    """Conserved angular momentum, diagonal with entries hbar*(n1 - n2)."""
    return _diagonal(basis, lambda n1, n2: hbar * float(n1 - n2), "p_phi")


# ---------------------------------------------------------------------------
# spectrum and degeneracy structure


@dataclass(frozen=True)
class DegeneracyClass:
    """One exact energy level with all grid states belonging to it.

    ``complete`` is True when the grid holds every state of the level;
    levels of infinite multiplicity (which occur whenever some mode
    frequency is non-positive) are never complete.
    """

    energy: Fraction
    states: tuple[tuple[int, int], ...]
    class_id: int
    complete: bool


def _level_is_complete(coupling: Coupling, energy: Fraction, cutoff: int) -> bool:
    l1, l2 = coupling.ell1, coupling.ell2
    if l1 <= 0 or l2 <= 0:
        return False
    c = energy - 1
    n1_max = int(c / l1)  # Fraction floor division toward zero; c/l1 >= 0 here
    for n1 in range(n1_max + 1):
        rem = (c - l1 * n1) / l2
        if rem < 0:
            continue
        if rem.denominator == 1:
            n2 = int(rem)
            if n1 > cutoff or n2 > cutoff:
                return False
    return True


def degeneracy_classes(
    coupling: Coupling,
    basis: FockBasis,
    energy_window: tuple | None = None,
) -> list[DegeneracyClass]:
    """Group grid states into exact-energy classes, ascending in energy.

    ``energy_window`` is an optional inclusive (lo, hi) pair in units of
    hbar*omega; either end may be None.  States within a class are ordered
    by ascending n1, and ``class_id`` numbers the returned classes from 0
    in ascending energy order.
    """
    groups: dict[Fraction, list[tuple[int, int]]] = {}
    for n1, n2 in basis.states():
        groups.setdefault(exact_energy(coupling, n1, n2), []).append((n1, n2))

    lo, hi = (None, None) if energy_window is None else energy_window
    energies = sorted(groups)
    out = []
    for energy in energies:
        if lo is not None and energy < lo:
            continue
        if hi is not None and energy > hi:
            continue
        states = tuple(sorted(groups[energy]))
        out.append(
            DegeneracyClass(
                energy=energy,
                states=states,
                class_id=len(out),
                complete=_level_is_complete(coupling, energy, basis.cutoff),
            )
        )
    return out


def spectrum_rows(coupling: Coupling, basis: FockBasis) -> list[dict]:
    """Flat per-state spectrum listing with exact energies and class ids.

    Rows are ordered by (energy, n1) ascending; each row maps the column
    names used by the spectrum export: n1, n2, E_exact_num, E_exact_den,
    class_id.
    """
    rows = []
    for cls in degeneracy_classes(coupling, basis):
        for n1, n2 in cls.states:
            rows.append(
                {
                    "n1": n1,
                    "n2": n2,
                    "E_exact_num": cls.energy.numerator,
                    "E_exact_den": cls.energy.denominator,
                    "class_id": cls.class_id,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# hidden symmetry operators


def _resonant_shift(coupling: Coupling, kind: str, s1: int, s2: int) -> tuple[int, int]:
    """:func:`hidden_shift` of a ladder that must commute with H_g, else ValueError."""
    if not is_true_integral(coupling, kind, s1, s2):
        raise ValueError(f"orders ({s1}, {s2}) are not resonant with coupling {coupling}")
    return hidden_shift(kind, s1, s2)


def _hidden_ladder_matrix(basis: FockBasis, kind: str, s1: int, s2: int, sign: str) -> np.ndarray:
    """(b1+)^Delta1 (b2+-)^|Delta2|, shifting (n1, n2) by Delta = ``hidden_shift(kind, s1, s2)``.

    Column (n1, n2) holds the :func:`hidden_coefficient` at row (n1, n2) + Delta when that
    state is on the grid, as the product of truncated ladders does.  Adjoint for sign "-".
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    d1, d2 = hidden_shift(kind, s1, s2)
    mat = np.zeros((basis.dim, basis.dim))
    for n1, n2 in basis.states():
        if 0 <= n1 + d1 <= basis.cutoff and 0 <= n2 + d2 <= basis.cutoff:
            mat[basis.index(n1 + d1, n2 + d2), basis.index(n1, n2)] = hidden_coefficient(
                kind, s1, s2, n1, n2)
    return mat if sign == "+" else mat.T


def hidden_operator(
    basis: FockBasis,
    coupling: Coupling,
    kind: str,
    s1: int,
    s2: int,
    sign: str = "+",
) -> np.ndarray:
    """Ladder-composed integral of motion L^(+/-)_{s1,s2} or J^(+/-)_{s1,s2}.

    Kind "L" composes s1 raisings of mode 1 with s2 lowerings of mode 2 and
    commutes with the Hamiltonian when s1*l1 = s2*l2; kind "J" composes
    raisings on both modes and requires s1*l1 + s2*l2 = 0.  A coupling that
    does not satisfy the matching resonance raises ValueError.
    """
    _resonant_shift(coupling, kind, s1, s2)
    return _hidden_ladder_matrix(basis, kind, s1, s2, sign)


def hidden_coefficient(kind: str, s1: int, s2: int, n1: int, n2: int) -> float:
    """Amplitude of the '+' hidden operator on state (n1, n2).

    It sends (n1, n2) to (n1, n2) + Delta, Delta = :func:`hidden_shift`, with
    amplitude sqrt(prod_j max(n_j, n_j + Delta_j)! / min(n_j, n_j + Delta_j)!),
    zero when a mode number would turn negative.  An n1 or n2 that is not a
    non-negative int (bools included), or an amplitude beyond the float
    range, raises ValueError.
    """
    shift = hidden_shift(kind, s1, s2)
    if not (type(n1) is int and type(n2) is int) or n1 < 0 or n2 < 0:  # no bools
        raise ValueError(f"quantum numbers must be non-negative integers, got ({n1!r}, {n2!r})")
    ratio = 1
    for n, d in zip((n1, n2), shift):
        if n + d < 0:
            return 0.0
        ratio *= math.perm(max(n, n + d), abs(d))  # max(n, n + d)! / min(n, n + d)!
    try:
        return math.sqrt(ratio)
    except OverflowError:
        raise ValueError(f"amplitude of {kind}+_{s1}{s2} on ({n1}, {n2}) exceeds the "
                         "float range (squared amplitude above 1.8e308)") from None


def hidden_orbit_partition(
    basis: FockBasis,
    coupling: Coupling,
    kind: str,
    s1: int,
    s2: int,
    mask: InteriorMask | None = None,
) -> list[frozenset]:
    """Orbits of grid states under the hidden ladder pair and its adjoint.

    Two states are linked when the '+' operator maps one to the other with
    both endpoints on the grid (or inside ``mask`` when given).  Returns
    the connected components as frozensets, sorted by their minimal state.
    """
    step = _resonant_shift(coupling, kind, s1, s2)
    return ladder_orbits(basis.states() if mask is None else mask.states(), step)


def ladder_orbits(pool, step: tuple[int, int]) -> list[frozenset]:
    """Components of a convex ``pool`` under n -> n +/- step, sorted by minimal state.

    In a convex pool (the grid, or an :class:`InteriorMask`: a rectangle cut
    by n1 + n2 <= total) two states are linked exactly when they differ by a
    whole multiple of ``step``, so the components are the cosets modulo step.
    """
    axis = 0 if step[0] else 1  # a non-zero component, e.g. step[1] for (0, -1)

    def coset(n1, n2):
        k = (n1, n2)[axis] // step[axis] if step[axis] else 0
        return (n1 - k * step[0], n2 - k * step[1])

    return level_sets(pool, coset)


def level_sets(pool, energy) -> list[frozenset]:
    """States of ``pool`` grouped by exact ``energy(n1, n2)``, sorted by minimal state."""
    levels: dict = {}
    for n1, n2 in pool:
        levels.setdefault(energy(n1, n2), set()).add((n1, n2))
    return sorted((frozenset(s) for s in levels.values()), key=min)


def _orbit_row(tag: str, identity: str, orbits: list, classes: list) -> CheckRow:
    """Row ``orbits-match-degeneracy:<tag>``: the ladder orbits are the level classes."""
    return CheckRow(check_id=f"orbits-match-degeneracy:{tag}", identity=identity,
                    passed=orbits == classes, detail=f"{len(orbits)} orbits")


# ---------------------------------------------------------------------------
# commutators and norms


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def operator_norm(matrix: np.ndarray) -> float:
    """Spectral norm."""
    return float(np.linalg.norm(np.asarray(matrix), 2))


def verify_commutes(
    a: np.ndarray,
    b: np.ndarray,
    mask: InteriorMask | None = None,
    tol: float = 1e-12,
    check_id: str = "commutator",
    identity: str = "[A, B] = 0",
) -> CheckRow:
    """Check [a, b] = 0 on interior columns, returning a report row."""
    comm = commutator(a, b)
    if mask is not None:
        comm = mask.restrict_columns(comm)
    return CheckRow.within(check_id, identity, operator_norm(comm), tol)


# ---------------------------------------------------------------------------
# Cartesian modes, su(2) bridge, and the non-invariant form


def cartesian_modes(basis: FockBasis) -> dict[str, np.ndarray]:
    """Cartesian-mode ladders expressed in the circular number basis.

    a1- = (b1- + b2-)/sqrt(2) and a2- = i (b1- - b2-)/sqrt(2), with the
    raisings their adjoints.  These satisfy the standard two-mode ladder
    algebra on the interior of the grid.
    """
    b1m, b2m = ladder(basis, 1, "-"), ladder(basis, 2, "-")
    a1m = (b1m + b2m) / math.sqrt(2)
    a2m = 1j * (b1m - b2m) / math.sqrt(2)
    return {"a1-": a1m, "a1+": a1m.T, "a2-": a2m, "a2+": a2m.conj().T}


def su2_generators(basis: FockBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schwinger su(2) generators built on the Cartesian modes.

    L1 = (a1+ a2- + a2+ a1-)/2, L2 = (a1+ a2- - a2+ a1-)/(2i),
    L3 = (a1+ a1- - a2+ a2-)/2.  The conserved angular momentum is 2*hbar*L2.
    """
    a = cartesian_modes(basis)
    up1, dn1, up2, dn2 = a["a1+"], a["a1-"], a["a2+"], a["a2-"]
    return ((up1 @ dn2 + up2 @ dn1) / 2, (up1 @ dn2 - up2 @ dn1) / 2j,
            (up1 @ dn1 - up2 @ dn2) / 2)


def unitary_bridge(basis: FockBasis) -> np.ndarray:
    """Unitary rotating the Cartesian modes into the circular modes.

    U = exp(i (2 pi/3)/sqrt(3) (L1 + L2 + L3)): a 2pi/3 rotation about the
    diagonal su(2) axis, cycling L1 -> L3 -> L2 -> L1 and conjugating each
    Cartesian ladder into the matching circular ladder times exp(+/- i pi/4).
    All conjugation identities hold on a total-number interior mask.

    U fixes |0) and N = n1 + n2, so U|n1, n2) = (c1+)^n1 (c2+)^n2 |0)/sqrt(n1! n2!) with
    c_k+ = sum_j u_jk b_j+, u = [[z, z], [z^3, z^-1]]/sqrt2 and z = exp(i pi/4).  Its row
    (m1, N - m1) is z^(4 n1 + 2 m1 - N) K sqrt(C(N, n1)/(C(N, m1) 2^N)), K the integer x^m1
    coefficient of (1 - x)^n1 (1 + x)^(N - n1).  Blocks N > cutoff lie partly off the grid;
    U is the identity there, so it stays exactly unitary on the whole grid.
    """
    side = basis.cutoff + 1
    plus = [np.array([math.comb(n, k) for k in range(n + 1)], dtype=object) for n in range(side)]
    minus = [np.array([(-1) ** k * c for k, c in enumerate(p)], dtype=object) for p in plus]
    u = np.eye(basis.dim, dtype=complex)
    for total in range(side):
        m = np.arange(total + 1)
        kraw = np.array([np.convolve(minus[n], plus[total - n]) for n in m]).T.astype(float)
        scale = np.sqrt((plus[total] / plus[total][:, None] / 2**total).astype(float))
        phase = np.exp(1j * np.pi / 4 * ((4 * m + 2 * m[:, None] - total) % 8))
        idx = _block(basis, total)
        u[np.ix_(idx, idx)] = kraw * scale * phase
    return u


def rni_hamiltonian(
    basis: FockBasis, coupling: Coupling, hbar_omega: float = 1.0
) -> np.ndarray:
    """Rotationally non-invariant anisotropic form of the same spectrum.

    H = hbar*omega*(l1 a1+ a1- + l2 a2+ a2- + 1) on the Cartesian modes, which in the
    circular modes reads hbar*omega*((l1+l2)/2 (n1+n2) + (l1-l2)/2 (b1+ b2- + b2+ b1-) + 1);
    unitarily equivalent to the rotating-oscillator Hamiltonian but lacking
    [H, p_phi] = 0 away from g = 0.  An entry past the float range raises
    ValueError.
    """
    l1, l2 = coupling.float_ells()
    up, n = _raising(basis.cutoff + 1), np.arange(basis.cutoff + 1)
    total = np.add.outer(n, n).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        mat = (l1 - l2) / 2 * (np.kron(up, up.T) + np.kron(up.T, up))
        mat = hbar_omega * (mat + np.diag((l1 + l2) / 2 * total + 1))
    return _finite(mat, "H_rni")


# ---------------------------------------------------------------------------
# one-mode oscillator bridge, exact and floating


# check-id suffix and identity of each _conformal_pairs pair: one mode, two modes
_BRIDGE_ROWS = (
    ("H", "S H = -K_- S", "S H_free = -J_- S"),
    ("iD", "S iD = K_0 S", "S iD = J_0 S"),
    ("K", "S K = K_+ S", "S K = J_+ S"),
)


def _conformal_pairs(up, dn):
    """The bridge pairs (4X, 4Y) from one mode's ladders, so that S X = Y S.

    X runs over the free-particle triple H = -(a+ - a)^2/4,
    iD = (a^2 - a+^2)/4, K = (a+ + a)^2/4 and Y over the oscillator's
    -K- = -a^2/2, K0 = (2 a+ a + 1)/4, K+ = a+^2/2.  Only products, sums,
    integer scalars and an identity of the ladders' dtype appear, so integer
    object arrays and float arrays both work.
    """
    minus, plus, up2, dn2 = up - dn, up + dn, up @ up, dn @ dn
    return ((-(minus @ minus), -2 * dn2),
            (dn2 - up2, 2 * (up @ dn) + np.eye(len(up), dtype=up.dtype)),
            (plus @ plus, 2 * up2))


def one_mode_bridge_unnormalized(size: int) -> np.ndarray:
    """Rational part R of the exact one-mode bridge, unnormalized basis.

    S' = exp(-a+^2/2) * diag(2^(n/2)) * exp(-a^2/2) with 2^(1/4) factored
    out, evaluated entrywise: S'[i, j] = sum over k = i-2a = j-2b >= 0 of
    (-1)^a/(2^a a!) * 2^(k/2) * (-1)^b j!/(2^b b! k!).  Entries vanish
    unless i = j (mod 2), so the sqrt 2 of an odd k always falls on an odd
    row: S' = diag(sqrt2^(i mod 2)) R, with R an object array of Fractions.
    R[0, 0] = 1.  Entries are summed over the denominator 2^((i+j)/2) i! j!.
    """
    fact = [math.factorial(n) for n in range(size)]
    r = np.full((size, size), Fraction(0), dtype=object)
    for i in range(size):
        for j in range(i % 2, size, 2):
            num = 0
            for k in range(min(i, j), -1, -2):
                a, b = (i - k) // 2, (j - k) // 2
                num += ((-1) ** (a + b) * 2 ** (k + k // 2) * fact[j]
                        * (fact[i] // (fact[a] * fact[k])) * (fact[j] // fact[b]))
            r[i, j] = Fraction(num, 2 ** ((i + j) // 2) * fact[i] * fact[j])
    return r


def verify_one_mode_bridge(size: int = 11) -> list[CheckRow]:
    """Exact intertwining S'X = YS' for the one-mode conformal triple.

    X and Y preserve parity, so the sqrt 2 row factor of S' commutes
    through them and S'X = YS' holds iff RX = YR.  That identity is checked
    on integers (R times the lcm of its denominators; ladders a+|n) = |n+1),
    a|n) = n|n-1)) on rows and columns 0..size-3: the raising parts of X
    corrupt the last two columns of the truncated RX, and the lowering Y
    pulls truncated rows into YR.  Residual is exactly zero or the check fails.
    """
    r = one_mode_bridge_unnormalized(size)
    lcm = math.lcm(*(q.denominator for q in r.flat))
    r_int = np.array([int(q * lcm) for q in r.flat], dtype=object).reshape(r.shape)
    up = np.eye(size, k=-1, dtype=int).astype(object)
    dn = up.T * np.arange(size, dtype=object)  # column n scaled by n
    block = np.s_[: size - 2, : size - 2]
    return [
        CheckRow.exact(f"bridge-one-mode-{name}", identity,
                       np.array_equal((r_int @ x)[block], (y @ r_int)[block]))
        for (name, identity, _), (x, y) in zip(_BRIDGE_ROWS, _conformal_pairs(up, dn))
    ]


def one_mode_bridge(cutoff: int) -> np.ndarray:
    """One-mode bridge matrix in the normalized number basis, as floats.

    Entries are S[i, j] = 2^(1/4) * ring(i, j) * sqrt(i! j!) where
    ring(i, j) = S'[i, j]/j!, i.e. R[i, j]/j! times sqrt 2 on odd rows, is
    exact; each float entry therefore carries only a few ulp of rounding.
    sqrt(i! j!) leaves the float range above cutoff 98, which raises
    ValueError.
    """
    if cutoff > 98:
        raise ValueError(f"cutoff {cutoff} above 98: sqrt(99! 99!) exceeds the float range")
    size = cutoff + 1
    r = one_mode_bridge_unnormalized(size)
    out = np.zeros((size, size))
    for i in range(size):
        for j in range(i % 2, size, 2):
            ring = float(r[i, j] / math.factorial(j)) * (math.sqrt(2.0) if i % 2 else 1.0)
            out[i, j] = 2.0**0.25 * ring * math.sqrt(math.factorial(i) * math.factorial(j))
    return out


def verify_quantum_bridge(cutoff: int = 10, margin: int = 3) -> list[CheckRow]:
    """Intertwining checks for the two-mode bridge, floating point.

    Builds S = S1 (x) S1 on the Cartesian product grid, each two-mode
    operator as (m (x) 1 + 1 (x) m)/4 from the one-mode pairs, and verifies
    S H_free = -J_- S, S iD = J_0 S, S K = J_+ S with operator-norm
    residuals on columns with both occupation numbers <= cutoff - margin.
    """
    s1 = one_mode_bridge(cutoff)
    s = np.kron(s1, s1)
    up, eye = _raising(cutoff + 1), np.eye(cutoff + 1)
    keep = InteriorMask(FockBasis(cutoff), margin1=margin, margin2=margin).indices()
    grid = np.ix_(keep, keep)
    rows = []
    for (name, _, identity), pair in zip(_BRIDGE_ROWS, _conformal_pairs(up, up.T)):
        x, y = ((np.kron(m, eye) + np.kron(eye, m)) / 4 for m in pair)
        sx = s @ x
        resid = operator_norm((sx - y @ s)[grid]) / max(operator_norm(sx[grid]), 1.0)
        rows.append(CheckRow.within(f"bridge-two-mode-{name}", identity, resid, 1e-10))
    return rows


def suite_fock(config) -> VerificationReport:
    """Hidden integrals, degeneracy orbits, and the Cartesian/circular unitary.

    Reads ``config.truncation`` and ``config.tol_fock``.
    """
    report = VerificationReport(suite="fock")
    basis = FockBasis(config.truncation)
    for gtext, kind, s1, s2 in (("1/3", "L", 1, 2), ("3", "J", 1, 2)):
        coupling = Coupling(Fraction(gtext))
        a, b, _ = _integer_weights(coupling)
        h = np.diag(hamiltonian(basis, coupling))
        op = hidden_operator(basis, coupling, kind, s1, s2, "+")
        mask = InteriorMask(basis, margin1=s1, margin2=s2)
        # [H_g, X]_ij = (h_i - h_j) X_ij.  X has at most one nonzero per row and per
        # column, so the spectral norm of its column restriction is its largest |entry|.
        idx = mask.indices()
        comm = (h[:, None] - h[idx]) * op[:, idx]
        report.add(CheckRow.within(f"hidden-commutes:g={gtext}", f"[H_g, {kind}+_{s1}{s2}] = 0",
                                   float(np.max(np.abs(comm))), config.tol_fock))
        report.add(_orbit_row(
            f"g={gtext}", f"{kind}+_{s1}{s2} orbits = exact energy classes on the interior",
            hidden_orbit_partition(basis, coupling, kind, s1, s2, mask),
            level_sets(mask.states(), lambda n1, n2: a * n1 + b * n2)))

    u = unitary_bridge(basis)

    def conj_resid(matrix, target, shift):
        # ||(U M U+ - T)[:, N <= cutoff - 2]||_2 for M, T taking block N to N + shift.  U keeps
        # each block, so the restriction is a direct sum of blocks; its norm is their largest.
        worst = 0.0
        for total in range(max(0, -shift), basis.cutoff - 1):
            col, row = _block(basis, total), _block(basis, total + shift)
            conj = u[np.ix_(row, row)] @ matrix[np.ix_(row, col)] @ u[np.ix_(col, col)].conj().T
            worst = max(worst, operator_norm(conj - target[np.ix_(row, col)]))
        return worst

    cart = cartesian_modes(basis)
    for mode, direction in ((1, "-"), (2, "-"), (1, "+"), (2, "+")):
        name, shift = f"a{mode}{direction}", 1 if direction == "+" else -1
        target = complex(np.exp(1j * math.pi / 4 * shift)) * ladder(basis, mode, direction)
        report.add(CheckRow.within(
            f"unitary-mode:{name}", f"U {name} U+ = e^{{{direction}i pi/4}} b{mode}{direction}",
            conj_resid(cart[name], target, shift), 1e-10))
    for gtext in ("0", "1/3", "1/2", "3"):
        coupling = Coupling(Fraction(gtext))
        report.add(CheckRow.within(
            f"unitary-hamiltonian:g={gtext}", "U H_rni U+ = H_g",
            conj_resid(rni_hamiltonian(basis, coupling), hamiltonian(basis, coupling), 0), 1e-10))
    return report
