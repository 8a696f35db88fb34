"""Exact polynomial arithmetic over network variables.

Variables are identified by (layer, index): layer 0 holds the continuous
input coordinates, layers >= 1 the +/-1 activations.  Binary variables obey
x^2 = 1, applied explicitly via `reduce_binary_squares`; input variables are
never reduced.  Coefficients are exact: ints stay ints, and a float (a binary64
value, hence a dyadic rational) is stored as the `fractions.Fraction` it
equals, so arithmetic never rounds and every check that claims a polynomial is
*identically* zero is an exact statement.  An infinite or NaN coefficient
raises `ValueError`.

Every polynomial is kept in one normal form: each monomial is a tuple of
(variable, exponent) pairs sorted by variable, each variable at most once and
every exponent at least 1, and each coefficient is exact and nonzero.  The
public constructor sets it up from any mapping (it sorts each monomial, sums
the exponents of a repeated variable, converts floats and merges monomials
that coincide); the ring operations and `reduce_binary_squares` keep it,
building their results from operands already in normal form without
normalizing them again.  So equal polynomials have equal `terms`, and the
moment assembly and the rigorization read each monomial as it is stored.
The monomial product `mono_mul` and the x^2 = 1 reduction `reduce_mono` are
module functions: the rigorization builds and reduces its Gram-entry
monomials with them, so the certificate check applies the same x^2 = 1 rule
as `reduce_binary_squares`.

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

    def __repr__(self) -> str:  # compact enough to appear in rendered polynomials
        return f"x[{self.layer},{self.index}]"


# A monomial is a tuple of (variable, exponent >= 1) pairs sorted by
# variable, each variable once; () is the constant monomial.
Monomial = Tuple[Tuple[Var, int], ...]


def _mono(pairs: Iterable[Tuple[Var, int]]) -> Monomial:
    """The normal form of a product of powers: the exponents of a repeated
    variable summed, zero exponents dropped, sorted by variable."""
    exps: dict[Var, int] = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    if any(e < 0 for e in exps.values()):
        raise ValueError(f"negative exponent in monomial {sorted(exps.items())}")
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two normal-form monomials, merged in one sorted pass."""
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (va, ea), (vb, eb) = a[0], b[0]
        if va < vb:
            return a + b
        if vb < va:
            return b + a
        return ((va, ea + eb),)
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, vb = a[i][0], b[j][0]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, a[i][1] + b[j][1]))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def reduce_mono(mono: Monomial) -> Monomial:
    """A normal-form monomial modulo x^2 = 1 for every binary (layer >= 1)
    variable, by parity; input variables keep their exponents.  One whose
    exponents are all 1 is already reduced and comes back as it is."""
    for _, e in mono:
        if e != 1:
            break
    else:
        return mono
    return tuple((v, e % 2 if v.layer else e) for v, e in mono if not v.layer or e % 2)


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

    Stored as normal-form monomial -> exact nonzero coefficient (see the
    module docstring), so `is_zero` means the polynomial is identically zero
    over the rationals.
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

    @classmethod
    def _normal(cls, terms: dict[Monomial, Scalar]) -> "MultilinearPoly":
        """The polynomial of `terms`, whose monomials are in normal form and
        whose coefficients are exact; only zero coefficients are dropped."""
        poly = object.__new__(cls)
        poly.terms = {mono: coeff for mono, coeff in terms.items() if coeff}
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultilinearPoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "MultilinearPoly":
        return cls._normal({(): _exact(c)})

    @classmethod
    def variable(cls, v: Var, coeff: Scalar = 1) -> "MultilinearPoly":
        return cls._normal({((v, 1),): _exact(coeff)})

    @classmethod
    def linear(cls, coeffs: Mapping[Var, Scalar], const: Scalar = 0) -> "MultilinearPoly":
        terms: dict[Monomial, Scalar] = {((v, 1),): _exact(c) for v, c in coeffs.items()}
        terms[()] = _exact(const)
        return cls._normal(terms)

    # -- ring operations ----------------------------------------------------
    #
    # Each builds its result from operands in normal form: a product of two
    # normal monomials is merged by `mono_mul`, and coefficients combine
    # only where two terms land on one monomial.

    def __add__(self, other: "MultilinearPoly | Scalar") -> "MultilinearPoly":
        terms = dict(self.terms)
        if isinstance(other, MultilinearPoly):
            for mono, coeff in other.terms.items():
                terms[mono] = terms[mono] + coeff if mono in terms else coeff
        else:
            c = _exact(other)
            if c:
                terms[()] = terms[()] + c if () in terms else c
        return MultilinearPoly._normal(terms)

    __radd__ = __add__

    def __neg__(self) -> "MultilinearPoly":
        return MultilinearPoly._normal({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultilinearPoly | Scalar") -> "MultilinearPoly":
        terms = dict(self.terms)
        if isinstance(other, MultilinearPoly):
            for mono, coeff in other.terms.items():
                terms[mono] = terms[mono] - coeff if mono in terms else -coeff
        else:
            c = _exact(other)
            if c:
                terms[()] = terms[()] - c if () in terms else -c
        return MultilinearPoly._normal(terms)

    def __rsub__(self, other: Scalar) -> "MultilinearPoly":
        c = _exact(other)
        terms: dict[Monomial, Scalar] = {(): c} if c else {}
        for mono, coeff in self.terms.items():
            terms[mono] = terms[mono] - coeff if mono in terms else -coeff
        return MultilinearPoly._normal(terms)

    def scale(self, c: Scalar) -> "MultilinearPoly":
        c = _exact(c)
        if c == 0:
            return MultilinearPoly.zero()
        return MultilinearPoly._normal({m: coeff * c for m, coeff in self.terms.items()})

    def __mul__(self, other: "MultilinearPoly | Scalar") -> "MultilinearPoly":
        if not isinstance(other, MultilinearPoly):
            return self.scale(other)
        terms: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                terms[m] = terms[m] + ca * cb if m in terms else ca * cb
        return MultilinearPoly._normal(terms)

    def __rmul__(self, other: Scalar) -> "MultilinearPoly":
        return self.scale(other)

    # -- reduction and queries ----------------------------------------------

    def reduce_binary_squares(self) -> "MultilinearPoly":
        """Apply x^2 = 1 for every binary (layer >= 1) variable, by parity
        (`reduce_mono` on each monomial).

        Input-layer variables keep their exponents.  Idempotent.
        """
        terms: dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            reduced = reduce_mono(mono)
            terms[reduced] = terms[reduced] + coeff if reduced in terms else coeff
        return MultilinearPoly._normal(terms)

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
