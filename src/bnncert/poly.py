"""Exact polynomial arithmetic over network variables.

Variables are identified by (layer, index): layer 0 holds the continuous
input coordinates, layers >= 1 the +/-1 activations.  Binary variables obey
x^2 = 1, applied explicitly via `reduce_binary_squares`; input variables are
never reduced.  Coefficients are exact: ints stay ints, and a float (a binary64
value, hence a dyadic rational) is stored as the `fractions.Fraction` it
equals, so arithmetic never rounds and every check that claims a polynomial is
*identically* zero is an exact statement.  An infinite or NaN coefficient
raises `ValueError`.

Everything here is a pure value; polynomials are immutable once built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Tuple, Union

__all__ = ["Var", "MultilinearPoly"]

Scalar = Union[int, float, Fraction]


class Var(NamedTuple):
    """Network variable x_{layer,index}; index is 1-based."""

    layer: int
    index: int

    @property
    def is_binary(self) -> bool:
        return self.layer >= 1

    def __repr__(self) -> str:  # compact enough to appear in rendered polynomials
        return f"x[{self.layer},{self.index}]"


# A monomial is a sorted tuple of (variable, exponent>=1) pairs; () is the
# constant monomial.
Monomial = Tuple[Tuple[Var, int], ...]


def _mono(pairs: Iterable[Tuple[Var, int]]) -> Monomial:
    return tuple(sorted((v, e) for v, e in pairs if e != 0))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[Var, int] = {}
    for v, e in a:
        exps[v] = exps.get(v, 0) + e
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return _mono(exps.items())


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _exact(c: Scalar) -> Scalar:
    """The coefficient c as an exact number: a float becomes its Fraction."""
    if isinstance(c, float):
        if not math.isfinite(c):
            raise ValueError(f"coefficient {c!r} is not finite")
        return Fraction(c)
    return c


class MultilinearPoly:
    """Sparse polynomial in the network variables.

    Stored as monomial -> exact coefficient with zero coefficients dropped,
    so `is_zero` means the polynomial is identically zero over the rationals.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff == 0:
                    continue
                mono = _mono(mono)
                if mono in clean:
                    coeff = clean[mono] + coeff
                    if coeff == 0:
                        del clean[mono]
                        continue
                clean[mono] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultilinearPoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "MultilinearPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, v: Var, coeff: Scalar = 1) -> "MultilinearPoly":
        return cls({((v, 1),): coeff})

    @classmethod
    def linear(cls, coeffs: Mapping[Var, Scalar], const: Scalar = 0) -> "MultilinearPoly":
        terms: dict[Monomial, Scalar] = {((v, 1),): c for v, c in coeffs.items()}
        terms[()] = const
        return cls(terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "MultilinearPoly | Scalar") -> "MultilinearPoly":
        if not isinstance(other, MultilinearPoly):
            other = MultilinearPoly.constant(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            merged[mono] = merged.get(mono, 0) + coeff
        return MultilinearPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> "MultilinearPoly":
        return MultilinearPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultilinearPoly | Scalar") -> "MultilinearPoly":
        if not isinstance(other, MultilinearPoly):
            other = MultilinearPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MultilinearPoly":
        return MultilinearPoly.constant(other) + (-self)

    def scale(self, c: Scalar) -> "MultilinearPoly":
        c = _exact(c)
        if c == 0:
            return MultilinearPoly.zero()
        return MultilinearPoly({m: coeff * c for m, coeff in self.terms.items()})

    def __mul__(self, other: "MultilinearPoly | Scalar") -> "MultilinearPoly":
        if not isinstance(other, MultilinearPoly):
            return self.scale(other)
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return MultilinearPoly(out)

    def __rmul__(self, other: Scalar) -> "MultilinearPoly":
        return self.scale(other)

    # -- reduction and queries ----------------------------------------------

    def reduce_binary_squares(self) -> "MultilinearPoly":
        """Apply x^2 = 1 for every binary (layer >= 1) variable, by parity.

        Input-layer variables keep their exponents.  Idempotent.
        """
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            reduced = _mono(
                (v, e if not v.is_binary else e % 2) for v, e in mono
            )
            out[reduced] = out.get(reduced, 0) + coeff
        return MultilinearPoly(out)

    def is_zero(self) -> bool:
        return not self.terms

    def identity_zero(self) -> bool:
        """True iff the polynomial reduces to exactly zero modulo x^2 = 1."""
        return self.reduce_binary_squares().is_zero()

    @property
    def degree(self) -> int:
        return max((_mono_degree(m) for m in self.terms), default=0)

    def constant_term(self) -> Scalar:
        return self.terms.get((), 0)

    def variables(self) -> set[Var]:
        return {v for mono in self.terms for v, _ in mono}

    def coefficient(self, mono: Iterable[Tuple[Var, int]]) -> Scalar:
        return self.terms.get(_mono(mono), 0)

    def to_exact(self) -> "MultilinearPoly":
        """This polynomial: its coefficients are stored exact already."""
        return self

    def evaluate(self, assignment: Mapping[Var, Scalar]) -> Scalar:
        """Evaluate at a point; raises on any unassigned variable."""
        total: Scalar = 0
        for mono, coeff in self.terms.items():
            val = coeff
            for v, e in mono:
                if v not in assignment:
                    raise ValueError(f"unassigned variable {v}")
                val = val * assignment[v] ** e
            total = total + val
        return total

    # -- presentation ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Graded order: degree descending, then variable sequence ascending."""
        return sorted(self.terms.items(), key=lambda kv: (-_mono_degree(kv[0]), kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = [f"{v}^{e}" if e > 1 else f"{v}" for v, e in mono]
            body = "*".join(factors)
            if not body:
                parts.append(f"{coeff}")
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                c = f"({coeff})" if isinstance(coeff, Fraction) and coeff.denominator != 1 else f"{coeff}"
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- equality (value semantics, used heavily in tests) ---------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultilinearPoly):
            return self.terms == other.terms
        if isinstance(other, (int, float, Fraction)):
            return self.terms == MultilinearPoly.constant(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))
