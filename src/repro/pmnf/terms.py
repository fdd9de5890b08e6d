"""Elementary PMNF building blocks: exponent pairs and compound terms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _as_fraction(value: "Fraction | int | float | str") -> Fraction:
    """Convert ``value`` to an exact fraction.

    Floats are snapped through ``limit_denominator`` so that e.g. the float
    ``1/3`` round-trips to the exact exponent ``Fraction(1, 3)`` used in the
    search space.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(64)
    raise TypeError(f"cannot interpret {value!r} as an exponent")


@dataclass(frozen=True, order=True)
class ExponentPair:
    """A polynomial/logarithmic exponent pair ``(i, j)`` from the set ``E``.

    ``i`` is the polynomial exponent of :math:`x^i` and ``j`` the integer
    exponent of :math:`\\log_2^j(x)`.
    """

    i: Fraction
    j: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "i", _as_fraction(self.i))
        object.__setattr__(self, "j", int(self.j))
        # Pairs key every hypothesis dict and set; hashing the Fraction on
        # each lookup dominated the fit path. The cache is not a dataclass
        # field, so repr, ordering and fingerprints see only (i, j).
        object.__setattr__(self, "_hash", hash((self.i, self.j)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_constant(self) -> bool:
        """True for the pair ``(0, 0)``, i.e. no dependence on the parameter."""
        return self.i == 0 and self.j == 0

    def distance(self, other: "ExponentPair", log_weight: float = 0.0) -> float:
        """Distance between two exponent pairs: ``|Δi| + log_weight * |Δj|``.

        The paper does not define the lead-exponent distance ``d`` formally,
        but its accuracy buckets (1/4, 1/3, 1/2) index the spacing of the
        *polynomial* exponent grid of ``E``, so the default compares only
        ``i`` -- a missed logarithmic factor is free, a convention under
        which confusing the near-identical ``x^(2/3) log x`` with
        ``x^(1/2) log^2 x`` costs 1/6, not 5/12. Set ``log_weight`` to
        penalize log mismatches too (see DESIGN.md for the sensitivity
        discussion)."""
        return abs(float(self.i - other.i)) + log_weight * abs(self.j - other.j)

    def growth_key(self) -> tuple[float, int]:
        """Sort key ordering pairs by asymptotic growth (i first, then j)."""
        return (float(self.i), self.j)

    def __str__(self) -> str:
        return f"({self.i}, {self.j})"


def require_positive(x: np.ndarray) -> None:
    """Refuse parameter values a PMNF term is undefined for (``x <= 0``)."""
    if np.any(x <= 0):
        raise ValueError("PMNF terms are defined for positive parameter values only")


class CompoundTerm:
    """A single-parameter PMNF factor :math:`x^i \\cdot \\log_2^j(x)`."""

    __slots__ = ("exponents", "power")

    def __init__(self, i: "Fraction | int | float | str", j: int = 0):
        self.exponents = ExponentPair(_as_fraction(i), j)
        #: ``float(i)``, the scalar exponent handed to ``np.power``.
        self.power = float(self.exponents.i)

    @classmethod
    def from_pair(cls, pair: ExponentPair) -> "CompoundTerm":
        return cls(pair.i, pair.j)

    @property
    def i(self) -> Fraction:
        return self.exponents.i

    @property
    def j(self) -> int:
        return self.exponents.j

    @property
    def is_constant(self) -> bool:
        return self.exponents.is_constant

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the factor on positive parameter values ``x``."""
        x = np.asarray(x, dtype=float)
        require_positive(x)
        out = np.power(x, self.power) if self.i != 0 else np.ones_like(x)
        if self.j != 0:
            out = out * np.power(np.log2(x), self.j)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompoundTerm) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def format(self, symbol: str = "x") -> str:
        """Human-readable rendering, e.g. ``p^(3/2) * log2(p)^2``."""
        parts = []
        if self.i != 0:
            parts.append(symbol if self.i == 1 else f"{symbol}^({self.i})")
        if self.j != 0:
            parts.append(f"log2({symbol})" if self.j == 1 else f"log2({symbol})^{self.j}")
        return " * ".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"CompoundTerm({self.i}, {self.j})"

    def __str__(self) -> str:
        return self.format()
