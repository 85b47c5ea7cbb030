"""Coupling constant of the rotationally invariant anisotropic oscillator.

The model Hamiltonian is H_g = H_osc + g*omega*p_phi.  In circular-mode
variables it separates as H_g = omega*(ell1*N1 + ell2*N2) with frequency
weights ell1 = 1+g, ell2 = 1-g, so everything about spectra, degeneracies
and trajectory closure is controlled by the exact rational value of g.

For rational g with |g| != 1 the frequency ratio is rational and the model
carries hidden integrals built from coprime mode orders (s1, s2):

* 0 <= |g| < 1 ("euclidean" side): g = (s2 - s1)/(s1 + s2)
* |g| > 1 ("minkowskian" side):    g = (s1 + s2)/(s2 - s1)

g = 0 is the isotropic oscillator (s1 = s2 = 1); the isotropic limit on the
minkowskian side is |g| -> infinity, which is representable only as a flag,
not a finite rational.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .phasealg.exact import coerce_real, to_float

__all__ = ["Coupling", "Phase"]


class Phase:
    """Regime labels, a pure function of g."""

    ISOTROPIC = "isotropic"      # g = 0: ordinary 2D oscillator
    EUCLIDEAN = "euclidean"      # 0 < |g| < 1: both mode frequencies positive
    LANDAU = "landau"            # |g| = 1: one frozen mode, circular orbits
    MINKOWSKIAN = "minkowskian"  # |g| > 1: mode frequencies of opposite sign
    ISOTROPIC_MINK = "isotropic-minkowskian"  # |g| -> inf limit (flag only)


def _check_exact_float(x: float) -> None:
    """Reject a float that is not exactly the rational its repr names."""
    meant = Fraction(repr(float(x)))
    if Fraction(x) != meant:
        raise ValueError(
            f"float coupling {x!r} is not exact in binary; pass "
            f'"{meant}" or Fraction({meant.numerator}, {meant.denominator})')


@dataclass(frozen=True)
class Coupling:
    """Exact rational anisotropy coupling g.

    Parameters
    ----------
    g : Fraction
        Coerced to an exact rational; strings like ``"2/3"``, ints, Fractions
        and floats with exact binary representation are accepted.  A string that
        names no rational (``"1/0"``) raises ValueError naming ``coupling g``.  A float
        whose binary value differs from its decimal repr (``0.1``) raises
        ValueError naming the exact alternative; a non-finite float and any
        other type (bool, None, complex) raise ValueError through
        :func:`~riaho.phasealg.exact.coerce_real`.
    isotropic_mink : bool
        Marks the |g| -> infinity limit; anything but a bool raises ValueError.
        The stored g is then only a direction sign, not a number to compute with.
    """

    g: Fraction
    isotropic_mink: bool = False

    def __post_init__(self):
        if type(self.isotropic_mink) is not bool:
            raise ValueError(f"isotropic_mink {self.isotropic_mink!r} is not a bool")
        if not isinstance(self.g, str):
            g = coerce_real(self.g, "coupling g")
        else:
            try:
                g = Fraction(self.g)
            except (ValueError, ZeroDivisionError):  # "x", "1/0"
                raise ValueError(f"coupling g {self.g!r} is not a rational") from None
        if isinstance(g, float):
            _check_exact_float(g)
        object.__setattr__(self, "g", Fraction(g))

    @classmethod
    def coerce(cls, value) -> "Coupling":
        if isinstance(value, Coupling):
            return value
        return cls(value)

    # the weights depend only on the frozen fields, so each is derived once per instance
    @cached_property
    def ell1(self) -> Fraction:
        # the |g| -> inf limit (after w -> w/|g|) has weights (+-1, -+1)
        if self.isotropic_mink:
            return Fraction(1 if self.g >= 0 else -1)
        return 1 + self.g

    @cached_property
    def ell2(self) -> Fraction:
        if self.isotropic_mink:
            return Fraction(-1 if self.g >= 0 else 1)
        return 1 - self.g

    @property
    def phase(self) -> str:
        if self.isotropic_mink:
            return Phase.ISOTROPIC_MINK
        a = abs(self.g)
        if a == 0:
            return Phase.ISOTROPIC
        if a < 1:
            return Phase.EUCLIDEAN
        if a == 1:
            return Phase.LANDAU
        return Phase.MINKOWSKIAN

    @property
    def mode_orders(self) -> tuple[int, int] | None:
        """Coprime hidden-symmetry orders (s1, s2), or None at |g| = 1.

        Solves s1*ell1 = s2*ell2 off the minkowskian side and
        s1*ell1 = -s2*ell2 on it, in lowest terms.  Both phases give
        s1/s2 = |ell2|/|ell1| = |ell2/ell1| as positive integers.
        """
        if self.isotropic_mink:
            return (1, 1)
        if abs(self.g) == 1:
            return None
        r = abs(self.ell2 / self.ell1)
        return (r.numerator, r.denominator)

    def as_float(self) -> float:
        """g as a float; ValueError in the |g| -> inf limit or past the float range."""
        if self.isotropic_mink:
            raise ValueError("isotropic minkowskian limit has no finite g")
        return to_float(self.g, "coupling g")

    def float_ells(self) -> tuple[float, float]:
        """(ell1, ell2) as floats; ValueError, on every call, when one lies past the float range."""
        return self._float_ells

    @cached_property
    def _float_ells(self) -> tuple[float, float]:
        return to_float(self.ell1, "mode weight ell1"), to_float(self.ell2, "mode weight ell2")

    def __str__(self) -> str:
        if self.isotropic_mink:
            return "inf" if self.g >= 0 else "-inf"
        return str(self.g)
