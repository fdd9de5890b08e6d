"""Multi-parameter PMNF performance functions."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.pmnf.terms import CompoundTerm, ExponentPair


class MultiTerm:
    """One summand of a PMNF function: ``c * prod_l x_l^{i_l} log2^{j_l}(x_l)``.

    ``factors`` maps parameter indices to their compound term; parameters
    absent from the map do not occur in the summand. Constant factors
    ``(0, 0)`` are dropped on construction so two representations of the same
    term compare equal.
    """

    __slots__ = ("coefficient", "factors")

    def __init__(self, coefficient: float, factors: Mapping[int, CompoundTerm]):
        self.coefficient = float(coefficient)
        self.factors: dict[int, CompoundTerm] = {
            int(l): t for l, t in sorted(factors.items()) if not t.is_constant
        }

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on ``points`` of shape ``(n, m)``; returns shape ``(n,)``."""
        out = np.full(points.shape[0], self.coefficient, dtype=float)
        for l, term in self.factors.items():
            out *= term.evaluate(points[:, l])
        return out

    def structure_key(self) -> tuple[tuple[int, ExponentPair], ...]:
        """Hashable key identifying the term structure (ignores coefficient)."""
        return tuple((l, t.exponents) for l, t in self.factors.items())

    def format(self, parameter_names: Sequence[str]) -> str:
        if not self.factors:
            return f"{self.coefficient:.6g}"
        body = " * ".join(t.format(parameter_names[l]) for l, t in self.factors.items())
        return f"{self.coefficient:.6g} * {body}"

    def __repr__(self) -> str:
        return f"MultiTerm({self.coefficient!r}, {self.factors!r})"


class PerformanceFunction:
    """A complete PMNF model: ``constant + sum of MultiTerms``.

    This is the object both modelers produce and the synthetic generator
    draws ground truths from. It knows how to evaluate itself on measurement
    points, expose its per-parameter lead exponents (the basis of the model
    accuracy metric), and print itself in human-readable form.
    """

    __slots__ = ("constant", "terms", "n_params")

    def __init__(self, constant: float, terms: Sequence[MultiTerm], n_params: int):
        if n_params < 1:
            raise ValueError("a performance function needs at least one parameter")
        self.constant = float(constant)
        self.terms = tuple(terms)
        self.n_params = int(n_params)
        for term in self.terms:
            if term.factors and max(term.factors) >= n_params:
                raise ValueError("term references a parameter index outside the function arity")

    # ------------------------------------------------------------------ build
    @classmethod
    def constant_function(cls, constant: float, n_params: int = 1) -> "PerformanceFunction":
        return cls(constant, (), n_params)

    @classmethod
    def single_term(
        cls,
        constant: float,
        coefficient: float,
        pairs: Sequence[ExponentPair],
    ) -> "PerformanceFunction":
        """Build ``c0 + c1 * prod_l x_l^{i_l} log2^{j_l}(x_l)`` from one pair per parameter."""
        factors = {l: CompoundTerm.from_pair(p) for l, p in enumerate(pairs)}
        return cls(constant, (MultiTerm(coefficient, factors),), len(pairs))

    @classmethod
    def additive(
        cls,
        constant: float,
        coefficients: Sequence[float],
        pairs: Sequence[ExponentPair],
    ) -> "PerformanceFunction":
        """Build ``c0 + sum_l c_l * x_l^{i_l} log2^{j_l}(x_l)`` (one summand per parameter)."""
        terms = [
            MultiTerm(c, {l: CompoundTerm.from_pair(p)})
            for l, (c, p) in enumerate(zip(coefficients, pairs))
        ]
        return cls(constant, terms, len(pairs))

    # --------------------------------------------------------------- evaluate
    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the function.

        ``points`` may be a single point of shape ``(m,)`` (returns a scalar)
        or a batch of shape ``(n, m)`` (returns shape ``(n,)``).
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[np.newaxis, :]
        if pts.ndim != 2 or pts.shape[1] != self.n_params:
            raise ValueError(
                f"expected points of shape (n, {self.n_params}), got {np.shape(points)}"
            )
        out = np.full(pts.shape[0], self.constant, dtype=float)
        for term in self.terms:
            out += term.evaluate(pts)
        return float(out[0]) if single else out

    # ---------------------------------------------------------------- inspect
    def lead_exponents(self) -> tuple[ExponentPair, ...]:
        """Per-parameter lead exponent pair.

        For each parameter the factor with the largest asymptotic growth among
        all summands containing it; ``(0, 0)`` if the parameter is absent.
        This is the quantity the model-accuracy metric (Fig. 3a-c) compares.
        """
        constant = ExponentPair(0, 0)
        lead = [constant] * self.n_params
        for term in self.terms:
            for l, factor in term.factors.items():
                if factor.exponents.growth_key() > lead[l].growth_key():
                    lead[l] = factor.exponents
        return tuple(lead)

    def is_constant(self) -> bool:
        return all(not term.factors for term in self.terms)

    def structure_key(self) -> tuple:
        """Hashable key identifying the full structure (ignores coefficients)."""
        return tuple(sorted(term.structure_key() for term in self.terms))

    def format(self, parameter_names: Sequence[str] | None = None) -> str:
        names = parameter_names or [f"x{l + 1}" for l in range(self.n_params)]
        if len(names) < self.n_params:
            raise ValueError("not enough parameter names")
        parts = [f"{self.constant:.6g}"]
        parts += [term.format(names) for term in self.terms if term.factors]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PerformanceFunction({self.format()!r})"

    def __str__(self) -> str:
        return self.format()
