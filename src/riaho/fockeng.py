"""Truncated two-mode Fock-space engine.

The basis is the number basis of the circular modes, in which the rotating
oscillator Hamiltonian is diagonal with exact rational spectrum
``E/(hbar*omega) = l1*n1 + l2*n2 + 1`` where ``l1 = 1+g`` and ``l2 = 1-g``.
Every operator builder returns a plain dense ``np.ndarray`` on the finite grid
``0 <= n1, n2 <= cutoff``, indexed row-major over (n1, n2) as in :class:`FockBasis`:
float64, except the complex a2+-, su(2) generators and unitary.  Each operator keeps
N = n1 + n2 or shifts it by one, and the builders assemble private per-block forms (the
unitary's closed form, ladders, tridiagonal H_rni, the levels of H_g, hidden-ladder
entries) that :func:`suite_fock` reads directly, forming no grid-sized matrix.  Exact
statements use Fractions or integers (energies, degeneracy grouping) or an integer object
array over one known scale (the one-mode conformal bridge, from :func:`hermite_rows`), so
equality is never a floating-point question.

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
from .phasealg.exact import coerce_real, require_choice, require_int
from .phasealg.poly import krawtchouk_rows
from .reports import CheckRow, VerificationReport, check

__all__ = [
    "FockBasis",
    "InteriorMask",
    "DegeneracyClass",
    "ladder",
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
    "operator_norm",
    "cartesian_modes",
    "su2_generators",
    "unitary_bridge",
    "rni_hamiltonian",
    "hermite_rows",
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

    States are ordered row-major over (n1, n2), i.e. index = n1*(cutoff+1)+n2.  ``index``
    and ``state`` raise ValueError for a non-int and IndexError for an int off the grid.
    """

    cutoff: int

    def __post_init__(self):
        require_int(self.cutoff, "cutoff", 1)

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** 2

    def index(self, n1: int, n2: int) -> int:
        n1, n2 = require_int(n1, "n1", None), require_int(n2, "n2", None)
        if not (0 <= n1 <= self.cutoff and 0 <= n2 <= self.cutoff):
            raise IndexError(f"state ({n1}, {n2}) outside cutoff {self.cutoff}")
        return n1 * (self.cutoff + 1) + n2

    def _indices(self, states) -> np.ndarray:
        """Int array of the indices n1*(cutoff+1) + n2 of a list of grid states, unchecked."""
        n = np.array(states, dtype=int).reshape(-1, 2)
        return n[:, 0] * (self.cutoff + 1) + n[:, 1]

    def state(self, i: int) -> tuple[int, int]:
        if not 0 <= require_int(i, "i", None) < self.dim:
            raise IndexError(f"index {i} outside basis of dimension {self.dim}")
        return divmod(i, self.cutoff + 1)

    def states(self):
        """All (n1, n2) pairs in index order."""
        side = self.cutoff + 1
        return [(n1, n2) for n1 in range(side) for n2 in range(side)]


@dataclass(frozen=True)
class InteriorMask:
    """Column selector keeping states safely away from the truncation edge.

    A state (n1, n2) is interior when ``n1 + margin1 <= cutoff`` and
    ``n2 + margin2 <= cutoff``; if ``total`` is set it must additionally
    satisfy ``n1 + n2 <= total``.  The total budget is the right notion for
    number-conserving conjugation checks, the per-mode margins for ladder
    compositions with a known per-mode reach.  Margins and total are
    non-negative ints, else ValueError: a negative total keeps no state, and a
    check over no state passes vacuously.
    """

    basis: FockBasis
    margin1: int = 0
    margin2: int = 0
    total: int | None = None

    def __post_init__(self):
        require_int(self.margin1, "margin1")
        require_int(self.margin2, "margin2")
        if self.total is not None:
            require_int(self.total, "total")
        if self.margin1 > self.basis.cutoff or self.margin2 > self.basis.cutoff:
            raise ValueError("margin exceeds cutoff, interior is empty")

    def states(self) -> list[tuple[int, int]]:
        """The interior states in index order."""
        cut, total = self.basis.cutoff, self.total
        return [(n1, n2) for n1 in range(cut - self.margin1 + 1)
                for n2 in range(cut - self.margin2 + 1) if total is None or n1 + n2 <= total]

    def indices(self) -> np.ndarray:
        return self.basis._indices(self.states())

    def restrict_columns(self, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(matrix)[:, self.indices()]


# ---------------------------------------------------------------------------
# elementary operators


def _raising(side: int) -> np.ndarray:
    """One-mode raising operator |n> -> sqrt(n+1) |n+1> on ``side`` levels, real."""
    return np.diag(np.sqrt(np.arange(1.0, side)), -1)


def _block(basis: FockBasis, total: int) -> tuple[slice, slice]:
    """Slices of n1 = m and of the grid index m*cutoff + total of the grid states (m, total - m)."""
    lo, hi, step = max(0, total - basis.cutoff), min(total, basis.cutoff), basis.cutoff
    return slice(lo, hi + 1), slice(lo * step + total, hi * step + total + 1, step)


def _assemble(basis: FockBasis, block, shift: int, dtype=float) -> np.ndarray:
    """Grid operator taking N to N + shift from ``block(N)`` (indexed by n1), cut to the grid."""
    out = np.zeros((basis.dim, basis.dim), dtype)
    for total in range(max(0, -shift), 2 * basis.cutoff + 1 - max(0, shift)):
        (m_col, col), (m_row, row) = _block(basis, total), _block(basis, total + shift)
        out[row, col] = block(total)[m_row, m_col]
    return out


def _lowering(total: int, mode: int) -> np.ndarray:
    """Block N = total -> N - 1 of b_mode-, rows and columns indexed by n1: sqrt(n_mode) entries."""
    n = np.arange(total + 1.0)
    return np.diag(np.sqrt(n[1:] if mode == 1 else total - n), 2 - mode)[:-1]


def ladder(basis: FockBasis, mode: int, direction: str) -> np.ndarray:
    """Raising ("+") or lowering ("-") operator for mode 1 or 2: the one-mode lowering
    diag(sqrt(1..cutoff), 1) (x) 1 in the mode's slot, the bits of the per-block assembly."""
    require_int(mode, "mode", 1, 2)
    require_choice(direction, "direction", ("+", "-"))
    one, eye = _raising(basis.cutoff + 1).T, np.eye(basis.cutoff + 1)
    lowering = np.kron(one, eye) if mode == 1 else np.kron(eye, one)
    return lowering if direction == "-" else lowering.T


def _finite(matrix: np.ndarray, label: str) -> np.ndarray:
    """``matrix`` unchanged; ValueError when an entry is inf or nan."""
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"an entry of {label} is not finite (inf or nan)")
    return matrix


def exact_energy(coupling: Coupling, n1: int, n2: int) -> Fraction:
    """Level of state (n1, n2) in units of hbar*omega, exactly."""
    return coupling.ell1 * require_int(n1, "n1") + coupling.ell2 * require_int(n2, "n2") + 1


def _integer_weights(*weights: Fraction) -> tuple[int, ...]:
    """Integers (a, b, ..., d) with weights = (a/d, b/d, ...), d > 0 the lcm of the denominators."""
    d = math.lcm(*(w.denominator for w in weights))
    return (*(w.numerator * (d // w.denominator) for w in weights), d)


def _levels(basis: FockBasis, weights, label: str) -> np.ndarray:
    """Grid-order levels w1 n1 + w2 n2 + w0 of exact weights (w1, w2, w0), the one two-mode
    level kernel: each is the int quotient (a n1 + b n2 + c)/d of :func:`_integer_weights`,
    correctly rounded.  ValueError past the float range, or when a non-zero quotient
    underflows to 0.0; a level that is exactly 0 stays 0.0."""
    a, b, c, d = _integer_weights(*weights)
    numerators = [a * n1 + b * n2 + c for n1, n2 in basis.states()]
    try:
        quotients = [num / d for num in numerators]
    except OverflowError:
        raise ValueError(f"a diagonal entry of {label} lies outside the float range") from None
    if any(q == 0.0 and num for num, q in zip(numerators, quotients)):
        raise ValueError(f"a non-zero diagonal entry of {label} underflows to 0.0 as a float")
    return np.array(quotients)


def hamiltonian(basis: FockBasis, coupling: Coupling) -> np.ndarray:
    """Diagonal rotating-oscillator Hamiltonian in units of hbar*omega, entries l1 n1 + l2 n2 + 1.

    Each level comes from :func:`_levels` with weights (l1, l2, 1), so it rounds exactly as
    the float of its :func:`exact_energy` Fraction does.
    """
    return np.diag(_levels(basis, (coupling.ell1, coupling.ell2, 1), "H_g"))


def angular_momentum(basis: FockBasis) -> np.ndarray:
    """Conserved angular momentum in units of hbar, diagonal with entries n1 - n2."""
    return np.diag(_levels(basis, (1, -1, 0), "p_phi"))


# ---------------------------------------------------------------------------
# spectrum and degeneracy structure


@dataclass(frozen=True)
class DegeneracyClass:
    """One exact energy level with all grid states belonging to it.

    ``complete`` is True when the grid holds every state of the level.  With
    both mode weights positive a level is a run of the L step (s1, -s2),
    (s1, s2) = ``coupling.mode_orders``, cut by the grid; it is complete when
    neither neighbour of the run, (n1 - s1, n2 + s2) before its first state
    or (n1 + s1, n2 - s2) after its last, is a non-negative state.  Levels of
    infinite multiplicity (some mode weight non-positive) are never complete.
    """

    energy: Fraction
    states: tuple[tuple[int, int], ...]
    class_id: int
    complete: bool


def degeneracy_classes(coupling: Coupling, basis: FockBasis, emax=None) -> list[DegeneracyClass]:
    """Group grid states into exact-energy classes, ascending in energy, in units of hbar*omega.

    States of a level share the integer key a*n1 + b*n2 (l1 = a/d, l2 = b/d,
    d > 0); the level is (key + d)/d.  ``emax``, when not None, is an inclusive upper
    bound on the level; it goes through ``coerce_real``, so an int or Fraction stays exact.
    States within a class ascend in n1, and ``class_id`` numbers the returned
    classes from 0 in ascending energy.  ``complete`` reads the orbit ends:
    l1, l2 > 0, the first state has n1 < s1 and the last n2 < s2.
    """
    a, b, d = _integer_weights(coupling.ell1, coupling.ell2)
    # orders (0, 0) leave no class complete, as a non-positive weight requires
    s1, s2 = coupling.mode_orders if coupling.ell1 > 0 and coupling.ell2 > 0 else (0, 0)
    emax = emax if emax is None else coerce_real(emax, "emax")

    def key(n1, n2):
        return a * n1 + b * n2

    out = []
    for group in sorted(level_sets(basis.states(), key), key=lambda group: key(*min(group))):
        states = tuple(sorted(group))
        energy = Fraction(key(*states[0]) + d, d)
        if emax is not None and energy > emax:
            continue
        out.append(DegeneracyClass(energy=energy, states=states, class_id=len(out),
                                   complete=states[0][0] < s1 and states[-1][1] < s2))
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


def _hidden_entries(basis: FockBasis, kind: str, s1: int, s2: int):
    """(rows, cols, values) of the '+' hidden ladder: column (n1, n2) holds the
    :func:`hidden_coefficient` at row (n1, n2) + ``hidden_shift`` when that lies on the grid."""
    (d1, d2), label = hidden_shift(kind, s1, s2), f"{kind}+_{s1}{s2}"
    states = [(n1, n2) for n1, n2 in basis.states()
              if 0 <= n1 + d1 <= basis.cutoff and 0 <= n2 + d2 <= basis.cutoff]
    cols = basis._indices(states)
    values = np.array([_amplitude((d1, d2), n1, n2, label) for n1, n2 in states])
    return cols + d1 * (basis.cutoff + 1) + d2, cols, values


def _hidden_commutator(levels, basis: FockBasis, kind: str, s1: int, s2: int, keep=None) -> float:
    """||[diag(levels), X]|| on the columns ``keep`` (all when None), X the '+' ladder of
    :func:`_hidden_entries`: its entries are (h_row - h_col) x, at most one per row and per
    column, so the spectral norm is their largest |entry|."""
    rows, cols, values = _hidden_entries(basis, kind, s1, s2)
    kept = slice(None) if keep is None else np.isin(cols, keep)
    return float(np.max(np.abs((levels[rows] - levels[cols]) * values)[kept], initial=0.0))


def _hidden_ladder_matrix(basis: FockBasis, kind: str, s1: int, s2: int, sign: str) -> np.ndarray:
    """Dense (b1+)^Delta1 (b2+-)^|Delta2| from :func:`_hidden_entries`; its adjoint for sign "-"."""
    require_choice(sign, "sign", ("+", "-"))
    rows, cols, values = _hidden_entries(basis, kind, s1, s2)
    mat = np.zeros((basis.dim, basis.dim))
    mat[rows, cols] = values
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
    non-negative int, or an amplitude beyond the float range, raises ValueError.
    """
    return _amplitude(hidden_shift(kind, s1, s2), require_int(n1, "n1"), require_int(n2, "n2"),
                      f"{kind}+_{s1}{s2}")


def _amplitude(shift: tuple[int, int], n1: int, n2: int, label: str) -> float:
    """:func:`hidden_coefficient` of the ``label`` ladder, shift given and nothing checked."""
    ratio = 1
    for n, d in zip((n1, n2), shift):
        if n + d < 0:
            return 0.0
        ratio *= math.perm(max(n, n + d), abs(d))  # max(n, n + d)! / min(n, n + d)!
    try:
        return math.sqrt(ratio)
    except OverflowError:
        raise ValueError(f"amplitude of {label} on ({n1}, {n2}) exceeds the "
                         "float range (squared amplitude above 1.8e308)") from None


def hidden_orbit_partition(
    pool: FockBasis | InteriorMask,
    coupling: Coupling,
    kind: str,
    s1: int,
    s2: int,
) -> list[frozenset]:
    """Orbits of the states of ``pool`` under the hidden ladder pair and its adjoint.

    ``pool`` is the whole grid (a :class:`FockBasis`) or an :class:`InteriorMask`, whose
    ``states()`` are partitioned.  Two states are linked when the '+' operator maps one to
    the other with both endpoints in the pool.  Returns the connected components as
    frozensets, sorted by their minimal state.
    """
    step = _resonant_shift(coupling, kind, s1, s2)
    return ladder_orbits(pool.states(), step)


def ladder_orbits(pool, step: tuple[int, int]) -> list[frozenset]:
    """Components of a convex ``pool`` under n -> n +/- step, sorted by minimal state.

    In a convex pool (the grid, or an :class:`InteriorMask`: a rectangle cut
    by n1 + n2 <= total) two states are linked exactly when they differ by a
    whole multiple of ``step``, so the components are the cosets modulo step.  A step
    entry that is not an int, or a pool that is not an iterable of (n1, n2) pairs
    (:func:`level_sets`), raises ValueError.
    """
    step = tuple(require_int(d, "step", None) for d in step)
    axis = 0 if step[0] else 1  # a non-zero component, e.g. step[1] for (0, -1)

    def coset(n1, n2):
        k = (n1, n2)[axis] // step[axis] if step[axis] else 0
        return (n1 - k * step[0], n2 - k * step[1])

    return level_sets(pool, coset)


def level_sets(pool, energy) -> list[frozenset]:
    """States of ``pool`` grouped by exact ``energy(n1, n2)``, sorted by minimal state.
    A pool that is not an iterable of (n1, n2) pairs raises ValueError."""
    try:
        pool = [(n1, n2) for n1, n2 in pool]
    except (TypeError, ValueError):
        raise ValueError(f"pool {pool!r} is not an iterable of (n1, n2) states") from None
    levels: dict = {}
    for n1, n2 in pool:
        levels.setdefault(energy(n1, n2), set()).add((n1, n2))
    return sorted((frozenset(s) for s in levels.values()), key=min)


# ---------------------------------------------------------------------------
# commutators and norms


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def operator_norm(matrix) -> float:
    """Spectral norm of a matrix, or of the direct sum of a list of blocks: the largest
    singular value over the blocks, each taken at its own shape; an empty block (a zero
    side) and an empty list add nothing, so blocks with no entry give 0.  A nan norm (from
    an inf entry) propagates."""
    if isinstance(matrix, np.ndarray):
        return float(np.linalg.norm(matrix, 2))
    return float(np.max([np.linalg.svd(block, compute_uv=False)[0] for block in matrix
                         if block.size], initial=0.0))


# ---------------------------------------------------------------------------
# Cartesian modes, su(2) bridge, and the non-invariant form


def cartesian_modes(basis: FockBasis) -> dict[str, np.ndarray]:
    """Cartesian-mode ladders expressed in the circular number basis.

    a1- = (b1- + b2-)/sqrt(2) and a2- = i (b1- - b2-)/sqrt(2), with the
    raisings their adjoints.  These satisfy the standard two-mode ladder
    algebra on the interior of the grid.
    """
    a1m, a2m = _cartesian(ladder(basis, 1, "-"), ladder(basis, 2, "-"))
    return {"a1-": a1m, "a1+": a1m.T, "a2-": a2m, "a2+": a2m.conj().T}


def _cartesian(b1m: np.ndarray, b2m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a1-, a2-) from the circular lowerings, on the grid or on one block."""
    return (b1m + b2m) / math.sqrt(2), 1j * (b1m - b2m) / math.sqrt(2)


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

    U is :func:`_unitary_block` on each N <= cutoff and the identity on the blocks N > cutoff,
    partly off the grid, so it stays exactly unitary on the whole grid.
    """
    return _assemble(basis, lambda total: _unitary_block(total) if total <= basis.cutoff
                     else np.eye(total + 1), 0, complex)


def _unitary_block(total: int) -> np.ndarray:
    """Block N = total of :func:`unitary_bridge`, indexed by n1.  U fixes |0), so
    U|n1, n2) = (c1+)^n1 (c2+)^n2 |0)/sqrt(n1! n2!) with c_k+ = sum_j u_jk b_j+,
    u = [[z, z], [z^3, z^-1]]/sqrt2 and z = exp(i pi/4).  Its row (m1, N - m1) is
    z^(4 n1 + 2 m1 - N) K sqrt(C(N, n1)/(C(N, m1) 2^N)), K the integer x^m1 coefficient of
    G = (1 - x)^n1 (1 + x)^(N - n1), which is row n1 of :func:`krawtchouk_rows`.
    """
    m = np.arange(total + 1)
    binom = np.array([math.comb(total, j) for j in m], dtype=object)
    scale = np.sqrt((binom / binom[:, None] / 2**total).astype(float))
    phase = np.exp(1j * np.pi / 4 * ((4 * m + 2 * m[:, None] - total) % 8))
    return np.array(krawtchouk_rows(total), dtype=object).T.astype(float) * scale * phase


def rni_hamiltonian(basis: FockBasis, coupling: Coupling) -> np.ndarray:
    """Rotationally non-invariant anisotropic form of the same spectrum, in units of hbar*omega.

    H = l1 a1+ a1- + l2 a2+ a2- + 1 on the Cartesian modes, which in the circular modes reads
    (l1+l2)/2 (n1+n2) + (l1-l2)/2 (b1+ b2- + b2+ b1-) + 1; unitarily equivalent to the
    rotating-oscillator Hamiltonian but lacking [H, p_phi] = 0 away from g = 0.  An entry
    past the float range raises ValueError.
    """
    l1, l2 = coupling.float_ells()
    with np.errstate(over="ignore", invalid="ignore"):
        mat = _assemble(basis, lambda total: _rni_block(total, l1, l2), 0)
    return _finite(mat, "H_rni")


def _rni_block(total: int, l1: float, l2: float) -> np.ndarray:
    """Block N = total of :func:`rni_hamiltonian`; b1+ b2- is sqrt(m+1) sqrt(N-m) at [m+1, m]."""
    hop = (l1 - l2) / 2 * (np.sqrt(np.arange(1.0, total + 1)) * np.sqrt(np.arange(total, 0.0, -1)))
    level = np.full(total + 1, (l1 + l2) / 2 * total + 1)
    return np.diag(hop, -1) + np.diag(hop, 1) + np.diag(level)


# ---------------------------------------------------------------------------
# one-mode oscillator bridge, exact and floating


# check-id suffix of each _conformal_pairs pair, after bridge-one-mode- or bridge-two-mode-
_BRIDGE_ROWS = ("H", "iD", "K")


def _conformal_pairs(up, dn):
    """The bridge pairs (4X, 4Y) from one mode's ladders, so that S X = Y S.

    X runs over the free-particle triple H = -(a+ - a)^2/4,
    iD = (a^2 - a+^2)/4, K = (a+ + a)^2/4 and Y over the oscillator's
    -K- = -a^2/2, K0 = (2 a+ a + 1)/4, K+ = a+^2/2.  Only products, sums,
    integer scalars and an identity of the ladders' dtype appear, so int64,
    object and float ladders all work.  With the exact ladders of size s (a+|n) = |n+1),
    a|n) = n|n-1)) every pair is nonzero only on the diagonals -2, 0 and +2 and
    every entry obeys |entry| <= 4 (s-1)^2, far inside int64 for any s whose
    dense s x s array fits in memory.
    """
    minus, plus, up2, dn2 = up - dn, up + dn, up @ up, dn @ dn
    return ((-(minus @ minus), -2 * dn2),
            (dn2 - up2, 2 * (up @ dn) + np.eye(len(up), dtype=up.dtype)),
            (plus @ plus, 2 * up2))


def _band_product(m, x):
    """m @ x for an integer matrix x, one term per nonzero diagonal of x.

    The offsets d come from ``np.nonzero(x)``, so any band works; column c of the
    product gains m[:, c - d] * x[c - d, c].  Each diagonal is turned into Python
    ints first, so an object array m of big ints is never multiplied by an int64.
    """
    out = np.zeros(m.shape, dtype=object)
    rows, cols = np.nonzero(x)
    size = x.shape[0]
    for d in sorted(set((cols - rows).tolist())):  # np.unique would import numpy.ma
        coeff = np.array(np.diagonal(x, d).tolist(), dtype=object)
        if d >= 0:
            out[:, d:] += m[:, : size - d] * coeff
        else:
            out[:, : size + d] += m[:, -d:] * coeff
    return out


def hermite_rows(n: int):
    """Rows ([x^0] H_j, ..., [x^j] H_j), j = 0..n, of the physicists' Hermite polynomials.

    Integer tuples from H_{j+1} = 2x H_j - 2j H_{j-1}, two rows held at a time, nothing
    cached.  An n that is not an int >= 0 raises ValueError.
    """
    require_int(n, "n")
    prev, row = (), (1,)
    yield row
    for j in range(n):
        prev, row = row, tuple(2 * a - 2 * j * b for a, b in zip((0, *row), (*prev, 0, 0)))
        yield row


def one_mode_bridge_unnormalized(size: int) -> tuple[np.ndarray, int]:
    """Rational part R of the exact one-mode bridge as (M, scale), R = M / scale.

    In the picture |n) = x^n, a+ = x, a = d/dx, the bridge S' = exp(-a+^2/2)
    diag(2^(n/2)) exp(-a^2/2) (2^(1/4) factored out) sends x^j to 2^(-j/2) e^(-x^2/2) H_j(x):
    with eta = x/sqrt 2, exp(-a^2/2) x^j = 2^(j/2) e^(-(1/4) d^2/d eta^2) eta^j =
    2^(-j/2) H_j(x/sqrt 2) (inverse Weierstrass), the grading substitutes x -> sqrt 2 x and
    exp(-a+^2/2) multiplies by e^(-x^2/2).  Only i = j (mod 2) couples, so the sqrt 2 of an
    odd j falls on an odd row: S' = diag(sqrt2^(i mod 2)) R with
    R[i, j] = 2^(-ceil(j/2)) sum_a (-1)^a/(2^a a!) [x^(i-2a)] H_j, and R[0, 0] = 1.
    With s = size and A = (s-1)//2, scale = 2^(s-1) A! and M = G Hm E, integer object arrays
    with G[i, i-2a] = (-1)^a 2^(A-a) A!/a!, Hm[k, j] = [x^k] H_j from :func:`hermite_rows`
    and E = diag(2^(s//2 - ceil(j/2))).  G Hm is formed one column at a time on Python ints:
    column j sums G's A + 1 nonzero diagonals, diagonal a moving H_j's coefficients (of x^k,
    k = j mod 2) down by 2a.  A size that is not an int >= 1 raises ValueError.
    """
    require_int(size, "size", 1)
    top, columns = (size - 1) // 2, []
    gauss = [(-1) ** a * 2 ** (top - a) * (math.factorial(top) // math.factorial(a))
             for a in range(top + 1)]
    for j, row in enumerate(hermite_rows(size - 1)):
        coeffs, half = row[j % 2::2], [0] * ((size - j % 2 + 1) // 2)  # rows i = j (mod 2)
        for a, g in enumerate(gauss):
            for t, h in enumerate(coeffs[: len(half) - a], a):
                half[t] += g * h
        column = [0] * size
        column[j % 2::2] = [c * 2 ** (size // 2 - (j + 1) // 2) for c in half]
        columns.append(column)
    return np.array(columns, dtype=object).T, 2 ** (size - 1) * math.factorial(top)


def verify_one_mode_bridge(size: int = 11) -> list[CheckRow]:
    """Exact intertwining S'X = YS' for the one-mode conformal triple.

    X and Y preserve parity, so the sqrt 2 row factor of S' commutes
    through them and S'X = YS' holds iff RX = YR, i.e. MX = YM for the integer
    M = scale * R.  The pairs come from :func:`_conformal_pairs` on int64 ladders
    (a+|n) = |n+1), a|n) = n|n-1)), whose entries stay below 4 (size-1)^2; MX and
    (M^T Y^T)^T are formed by :func:`_band_product` over their three nonzero
    diagonals, on Python ints, and compared entry for entry on rows and columns
    0..size-3: the raising parts of X corrupt the last two columns of the truncated
    MX, and the lowering Y pulls truncated rows into YM.  Residual is exactly zero or
    the check fails.  A size below 3 leaves no row to compare; it raises ValueError,
    as does a non-int.
    """
    require_int(size, "size", 3)
    m, _ = one_mode_bridge_unnormalized(size)
    up = np.eye(size, k=-1, dtype=np.int64)
    dn = up.T * np.arange(size)  # column n scaled by n
    block = np.s_[: size - 2, : size - 2]
    return [
        check(f"bridge-one-mode-{name}", np.array_equal(
            _band_product(m, x)[block], _band_product(m.T, y.T).T[block]))
        for name, (x, y) in zip(_BRIDGE_ROWS, _conformal_pairs(up, dn))
    ]


def one_mode_bridge(cutoff: int) -> np.ndarray:
    """One-mode bridge matrix in the normalized number basis, as floats.

    Entries are S[i, j] = 2^(1/4) * ring(i, j) * sqrt(i! j!) where
    ring(i, j) = S'[i, j]/j!, i.e. R[i, j]/j! times sqrt 2 on odd rows, is
    exact; R[i, j]/j! is the int quotient M[i, j]/(scale j!), correctly rounded,
    so each float entry carries only a few ulp of rounding.  A cutoff that is
    not an int in 0..98 raises ValueError: above 98, sqrt(i! j!) leaves the float range.
    """
    require_int(cutoff, "cutoff", 0, 98)
    m, scale = one_mode_bridge_unnormalized(cutoff + 1)
    fact = np.array([math.factorial(n) for n in range(cutoff + 1)], dtype=object)
    odd_rows = np.where(np.arange(cutoff + 1) % 2, math.sqrt(2.0), 1.0)[:, None]
    ring = (m / (scale * fact)).astype(float) * odd_rows
    return 2.0**0.25 * ring * np.sqrt(np.outer(fact, fact).astype(float))


def verify_quantum_bridge(cutoff: int = 10) -> list[CheckRow]:
    """Intertwining checks for the two-mode bridge, floating point.

    Builds S = S1 (x) S1 on the Cartesian product grid, each two-mode
    operator as (m (x) 1 + 1 (x) m)/4 from the one-mode pairs, and verifies
    S H_free = -J_- S, S iD = J_0 S, S K = J_+ S with operator-norm
    residuals on columns with both occupation numbers <= cutoff - 3: the margin is fixed at 3.
    S1 and the generators keep each n's parity, so only each parity class's block is formed,
    and its two S parts, (kept rows, all columns) and (all rows, kept columns), once for all
    three rows.  Each Kronecker part is one broadcast product, entry for entry np.kron's.
    A cutoff that is not an int in 3..98 raises ValueError.
    """
    s1, side = one_mode_bridge(require_int(cutoff, "cutoff", 3, 98)), cutoff + 1
    up, eye = _raising(side), np.eye(side)

    def part(one, other, rows, cols):  # the (rows, cols) part of one (x) other
        a, b = one[np.ix_(rows[0], cols[0])], other[np.ix_(rows[1], cols[1])]
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(
            a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])

    def two_mode(one, rows, cols):  # the (rows, cols) part of (one (x) 1 + 1 (x) one)/4
        return (part(one, eye, rows, cols) + part(eye, one, rows, cols)) / 4

    # per parity class (n1, n2 mod 2): all its levels (summed over), then the kept n <= cutoff - 3
    classes = [[(np.arange(p1, end, 2), np.arange(p2, end, 2)) for end in (side, side - 3)]
               for p1 in (0, 1) for p2 in (0, 1)]
    s_parts = [(part(s1, s1, kept, every), part(s1, s1, every, kept)) for every, kept in classes]
    checks = []
    for name, (x, y) in zip(_BRIDGE_ROWS, _conformal_pairs(up, up.T)):
        sx, diff = [], []
        for (every, kept), (s_left, s_right) in zip(classes, s_parts):
            sx.append(s_left @ two_mode(x, every, kept))
            diff.append(sx[-1] - two_mode(y, kept, every) @ s_right)
        resid = operator_norm(diff) / max(operator_norm(sx), 1.0)
        checks.append(check(f"bridge-two-mode-{name}", resid))
    return checks


def suite_fock(config) -> VerificationReport:
    """Hidden integrals, degeneracy orbits, and the Cartesian/circular unitary.

    Reads ``config.truncation``.  Every check is evaluated on the
    blocks of N = n1 + n2; no grid-sized matrix is formed.
    """
    report = VerificationReport(suite="fock")
    basis = FockBasis(config.truncation)
    couplings = {gtext: Coupling(Fraction(gtext)) for gtext in ("0", "1/3", "1/2", "3")}
    levels = {gtext: _levels(basis, (c.ell1, c.ell2, 1), "H_g")
              for gtext, c in couplings.items()}
    for gtext, kind, s1, s2 in (("1/3", "L", 1, 2), ("3", "J", 1, 2)):
        coupling = couplings[gtext]
        a, b, _ = _integer_weights(coupling.ell1, coupling.ell2)
        mask = InteriorMask(basis, margin1=s1, margin2=s2)
        orbits = hidden_orbit_partition(mask, coupling, kind, s1, s2)  # checks resonance
        # the ladder links only states of one level, and _levels gives those one float
        report.add(check(f"hidden-commutes:g={gtext}", _hidden_commutator(
            levels[gtext], basis, kind, s1, s2, mask.indices()), h="H_g", x=f"{kind}+_{s1}{s2}"))
        report.add(check(f"orbits-match-degeneracy:g={gtext}", orbits == level_sets(
            mask.states(), lambda n1, n2: a * n1 + b * n2), f"{len(orbits)} orbits",
            x=f"{kind}+_{s1}{s2}", classes="exact energy classes on the interior"))

    # Columns N <= cutoff - 2 (the total-number interior); rows reach N = cutoff - 1.
    top = basis.cutoff - 2
    u = [_unitary_block(total) for total in range(top + 2)]
    u_adj = [block.conj().T for block in u]
    low = [None] + [(_lowering(total, 1), _lowering(total, 2)) for total in range(1, top + 2)]
    cart = [None] + [_cartesian(*pair) for pair in low[1:]]

    def conj_resid(pairs, shift):
        # ||(U M U+ - T)[:, N <= cutoff - 2]||_2, a direct sum of the (M, T) blocks N -> N + shift
        return operator_norm([u[n + shift] @ m @ u_adj[n] - t
                              for n, (m, t) in enumerate(pairs, start=max(0, -shift))])

    for mode, direction in ((1, "-"), (2, "-"), (1, "+"), (2, "+")):
        name, shift, k = f"a{mode}{direction}", 1 if direction == "+" else -1, mode - 1
        phase = complex(np.exp(1j * math.pi / 4 * shift))
        if direction == "-":
            pairs = [(cart[n][k], phase * low[n][k]) for n in range(1, top + 1)]
        else:  # the adjoints of the lowering blocks N + 1 -> N
            pairs = [(cart[n][k].conj().T, phase * low[n][k].T) for n in range(1, top + 2)]
        report.add(check(f"unitary-mode:{name}", conj_resid(pairs, shift),
                         mode=mode, sign=direction))
    for gtext, coupling in couplings.items():
        ells, h = coupling.float_ells(), levels[gtext]
        pairs = [(_rni_block(n, *ells), np.diag(h[_block(basis, n)[1]])) for n in range(top + 1)]
        report.add(check(f"unitary-hamiltonian:g={gtext}", conj_resid(pairs, 0)))
    return report
