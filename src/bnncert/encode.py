"""Optimization encodings of network robustness queries.

Given a folded, stabilized network and a perturbation region around a
reference input, this module builds the four encodings used throughout the
package:

* ``standard``  -- quadratic sign-consistency products x*(Wx'+b) >= 0 plus
  the binary-square equalities x^2 = 1;
* ``tightened`` -- the four-product family per hidden neuron: both one-sided
  sign products (x+1)*(Wx'+b) and (x-1)*(Wx'+b) and two always-valid
  "row-bound" products derived from |<W_row, x' - c>| <= R, which enlarge
  the order-1 multiplier cone without changing the feasible set;
* ``lp``        -- the linear relaxation: per-neuron linear envelopes of the
  sign constraint, box rows for the relaxed binaries, and interval rows for
  the inputs;
* ``milp``      -- the LP rows plus integrality marks on the hidden variables
  (exact once the region rows are exact).

An encoding is polynomials only.  `bnncert.sdp` turns every kind into matrix
rows through one moment assembly (the linear kinds without PSD blocks), and
also writes the MPS file of a linear encoding.

Polynomial coefficients are exact rationals end to end (weights are integers,
biases are binary64 and hence dyadic rationals), so identity checks downstream
are exact and the numeric layers decide when to round.

Every hidden neuron is modelled once, by `neuron_rows`, over the box [l, u]
of its previous layer: with c = (l+u)/2 and r = (u-l)/2 the row bound is
R = sum_k |W_jk| r_k and the effective bias is beta = b_j + <W_row, c>.  The
row-bound products and the linear envelopes are built from that record.  The
box is the only difference between layers: layer 1 sees the region's box,
a deeper layer the +/-1 box (c = 0, r = 1, so R is the row 1-norm and beta
the bias).  A neuron whose envelope slope R +/- beta is non-positive is
constant over the box; we signal `StabilizationNeeded` rather than emit a
vacuous constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from bnncert.model import FoldedBnn
from bnncert.poly import MultilinearPoly, Var

__all__ = [
    "Clique",
    "Constraint",
    "ConstraintSet",
    "NeuronRow",
    "PerturbationRegion",
    "StabilizationNeeded",
    "VerificationInstance",
    "build_cliques",
    "check_rip",
    "encode_lp",
    "encode_milp",
    "encode_standard",
    "encode_tightened",
    "linear_identity_residuals",
    "neuron_rows",
    "objective_targeted",
    "region_polynomials",
]


class StabilizationNeeded(ValueError):
    """A hidden neuron is constant over the given region.

    Raised by the linear encodings when an envelope slope is non-positive
    (on a stabilized net only layer 1, whose box is the region's, can have
    one); the caller should constant-propagate the neuron (see
    `bnncert.model.stabilize`, applied after shrinking the region) and retry.
    """

    def __init__(self, layer: int, neuron: int, detail: str):
        self.layer = layer
        self.neuron = neuron
        super().__init__(
            f"neuron ({layer},{neuron}) is constant over the region ({detail}); "
            "stabilize against the region and re-encode"
        )


@dataclass(frozen=True)
class PerturbationRegion:
    """A norm ball around a reference input, intersected with [-1,1]^n0.

    kind "linf": the ball is itself a box; per-coordinate bounds are the
    clipped interval [center - radius, center + radius].
    kind "l2": a Euclidean ball; `lower`/`upper` hold its box enclosure
    (used by the linear encodings, which are then sound relaxations).

    radius = 0 describes the single point {center}; the polynomial and linear
    encoders reject it (they need interior), but exact evaluation paths
    accept it.
    """

    kind: str
    center: np.ndarray
    radius: float
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in ("linf", "l2"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1:
            raise ValueError("region center must be a vector")
        if not np.all(np.abs(center) <= 1):  # NaN fails this test too
            raise ValueError("region center must be finite and lie in [-1,1]^n0")
        if not self.radius >= 0:
            raise ValueError("region radius must be nonnegative")
        center = center.copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        lower = np.clip(center - self.radius, -1.0, 1.0)
        upper = np.clip(center + self.radius, -1.0, 1.0)
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def linf(cls, center: Sequence[float], radius: float) -> "PerturbationRegion":
        return cls("linf", np.asarray(center, dtype=float), radius)

    @classmethod
    def l2(cls, center: Sequence[float], radius: float) -> "PerturbationRegion":
        return cls("l2", np.asarray(center, dtype=float), radius)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, x0: np.ndarray, slack: float = 1e-12) -> bool:
        x0 = np.asarray(x0, dtype=float)
        if np.any(np.abs(x0) > 1 + slack):
            return False
        if self.kind == "linf":
            return bool(np.all(np.abs(x0 - self.center) <= self.radius + slack))
        return bool(np.linalg.norm(x0 - self.center) <= self.radius + slack)


@dataclass(frozen=True)
class Constraint:
    """One tagged constraint polynomial; equalities mean poly = 0, else poly >= 0."""

    family: str
    layer: int
    neuron: int
    poly: MultilinearPoly


@dataclass(frozen=True)
class ConstraintSet:
    equalities: tuple[Constraint, ...]
    inequalities: tuple[Constraint, ...]
    objective: MultilinearPoly

    def by_family(self, family: str) -> list[Constraint]:
        return [c for c in self.inequalities if c.family == family]

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for c in self.inequalities:
            counts[c.family] = counts.get(c.family, 0) + 1
        return counts


@dataclass(frozen=True)
class Clique:
    id: int
    variables: tuple[Var, ...]


@dataclass(frozen=True)
class VerificationInstance:
    """A network, a region, an objective, and one encoding of the semantics."""

    net: FoldedBnn
    region: PerturbationRegion
    constraints: ConstraintSet
    encoding_kind: str
    true_label: Optional[int] = None
    target: Optional[int] = None
    binary_vars: tuple[Var, ...] = ()
    feasibility_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.encoding_kind not in ("standard", "tightened", "lp", "milp"):
            raise ValueError(f"unknown encoding kind {self.encoding_kind!r}")
        if self.true_label is not None and self.target is not None:
            if self.true_label == self.target:
                raise ValueError("attack target must differ from the true label")

    @property
    def objective(self) -> MultilinearPoly:
        return self.constraints.objective

    def variables(self) -> tuple[Var, ...]:
        """All decision variables: inputs, then hidden activations, sorted."""
        out = [Var(0, k) for k in range(1, self.net.input_dim + 1)]
        for i, n in enumerate(self.net.hidden_widths, start=1):
            out.extend(Var(i, j) for j in range(1, n + 1))
        return tuple(out)


# ---------------------------------------------------------------------------
# polynomial builders
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class NeuronRow:
    """Exact model of one hidden neuron over the box of its previous layer.

    With c and r the box center and half-width, `z` = <W_row, x'> + b is the
    pre-activation, `zeta` = <W_row, x' - c> the centered row sum,
    `row_bound` R = sum_k |W_jk| r_k (so |zeta| <= R on the box) and `beta`
    = b + <W_row, c> the effective bias.  Over the box z = zeta + beta ranges
    over [beta - R, beta + R], so the envelope slopes c_plus = R + beta and
    c_minus = R - beta are z_max and -z_min.
    """

    var: Var
    z: MultilinearPoly
    row_bound: Fraction
    beta: Fraction

    @property
    def zeta(self) -> MultilinearPoly:
        return self.z - self.beta

    def envelope_slopes(self) -> tuple[Fraction, Fraction]:
        """(c_plus, c_minus); a non-positive slope means the neuron is
        constant over the box and raises `StabilizationNeeded`."""
        c_plus = self.row_bound + self.beta
        c_minus = self.row_bound - self.beta
        if c_plus <= 0 or c_minus <= 0:
            sign = "never" if c_plus <= 0 else "always"
            raise StabilizationNeeded(self.var.layer, self.var.index, f"{sign} activated")
        return c_plus, c_minus

    def unit_envelopes(self) -> tuple[MultilinearPoly, MultilinearPoly]:
        """The linear envelopes scaled to unit slack: (x+1) - 2z/c_plus and
        (1-x) + 2z/c_minus, both >= 0 on the box wherever x = sign(z)."""
        c_plus, c_minus = self.envelope_slopes()
        x = MultilinearPoly.variable(self.var)
        up = (x + 1) - self.z * (Fraction(2) / c_plus)
        down = (1 - x) + self.z * (Fraction(2) / c_minus)
        return up, down


def neuron_rows(
    net: FoldedBnn, layer: int, region: Optional[PerturbationRegion] = None
) -> list[NeuronRow]:
    """The `NeuronRow` of every neuron of hidden `layer` (1-based); layer 1
    needs the `region`.

    The box of layer 1's inputs is the region's box, in exact rationals; the
    box of a deeper layer's +/-1 inputs is [-1, 1] (c = 0, r = 1), so its row
    bound is the row 1-norm and every sum stays a Python integer.
    """
    weights = net.weight(layer).tolist()
    n_prev = net.widths[layer - 1]
    if layer == 1:
        # c = center / den and r = half / den, over one common denominator
        lo = [Fraction(v) for v in region.lower.tolist()]
        hi = [Fraction(v) for v in region.upper.tolist()]
        den = 2 * math.lcm(*(e.denominator for e in lo + hi))
        center = [int((a + b) / 2 * den) for a, b in zip(lo, hi)]
        half = [int((b - a) / 2 * den) for a, b in zip(lo, hi)]
    else:
        center, half, den = [0] * n_prev, [1] * n_prev, 1
    rows = []
    for j, (w, b) in enumerate(zip(weights, net.bias(layer).tolist()), start=1):
        nonzero = [(k, wk) for k, wk in enumerate(w) if wk]
        coeffs = {Var(layer - 1, k + 1): wk for k, wk in nonzero}
        b = Fraction(b)
        shift = Fraction(sum(wk * center[k] for k, wk in nonzero), den)
        rows.append(
            NeuronRow(
                var=Var(layer, j),
                z=MultilinearPoly.linear(coeffs, b),
                row_bound=Fraction(sum(abs(wk) * half[k] for k, wk in nonzero), den),
                beta=b + shift,
            )
        )
    return rows


def region_polynomials(region: PerturbationRegion) -> list[MultilinearPoly]:
    """Nonnegativity certificates of region membership.

    linf: one (u_j - x)(x - l_j) per coordinate.  l2: the ball quadratic
    radius^2 - |x0 - center|^2 followed by a (1-x)(1+x) box quadratic per
    coordinate (the ball is only meaningful inside the global box, and the
    box rows keep every layer-1 construction valid).  Every point of
    [-1,1]^n0 lies within 2*sqrt(n0) <= 2*n0 of the center, so the ball row
    uses min(radius, 2*n0): the same region, with a radius^2 that stays
    finite in binary64 however large (or infinite) the radius is.
    """
    if not region.radius > 0:
        raise ValueError("region radius must be positive for polynomial encodings")
    n0 = region.dim
    polys: list[MultilinearPoly] = []
    if region.kind == "linf":
        for j in range(1, n0 + 1):
            v = Var(0, j)
            lo, hi = _frac(region.lower[j - 1]), _frac(region.upper[j - 1])
            upper = MultilinearPoly.linear({v: -1}, hi)
            above = MultilinearPoly.linear({v: 1}, -lo)
            polys.append(upper * above)
        return polys
    ball = MultilinearPoly.constant(_frac(min(region.radius, 2 * n0)) ** 2)
    for j in range(1, n0 + 1):
        v = Var(0, j)
        diff = MultilinearPoly.linear({v: 1}, -_frac(region.center[j - 1]))
        ball = ball - diff * diff
    polys.append(ball)
    for j in range(1, n0 + 1):
        v = Var(0, j)
        polys.append(MultilinearPoly.linear({v: -1}, 1) * MultilinearPoly.linear({v: 1}, 1))
    return polys


def _region_constraints(region: PerturbationRegion) -> list[Constraint]:
    polys = region_polynomials(region)
    if region.kind == "linf":
        return [Constraint("region", 0, j, p) for j, p in enumerate(polys, start=1)]
    out = [Constraint("region", 0, 0, polys[0])]
    out.extend(Constraint("box", 0, j, p) for j, p in enumerate(polys[1:], start=1))
    return out


def objective_targeted(net: FoldedBnn, true_label: int, target: int) -> MultilinearPoly:
    """Logit margin <out_row(true) - out_row(target), x_L> + bias difference.

    Positive on the whole region means no perturbation can push the target
    class above the true class.
    """
    n_out = net.n_classes
    if not (1 <= true_label <= n_out and 1 <= target <= n_out):
        raise ValueError(f"labels must lie in [1, {n_out}]")
    if target == true_label:
        raise ValueError("attack target must differ from the true label")
    w = net.weight(net.depth + 1)
    b = net.bias(net.depth + 1)
    row = w[true_label - 1] - w[target - 1]
    coeffs = {
        Var(net.depth, k + 1): int(row[k]) for k in range(row.shape[0]) if row[k] != 0
    }
    const = _frac(b[true_label - 1]) - _frac(b[target - 1])
    return MultilinearPoly.linear(coeffs, const)


def _check_objective(net: FoldedBnn, objective: MultilinearPoly) -> None:
    if objective.degree > 2:
        raise ValueError("objective degree must be at most 2")
    for v in objective.variables():
        if v.layer < 0 or v.layer > net.depth:
            raise ValueError(f"objective variable {v} outside network layers")
        width = net.widths[v.layer]
        if not (1 <= v.index <= width):
            raise ValueError(f"objective variable {v} outside layer width {width}")


def _equalities(net: FoldedBnn) -> list[Constraint]:
    eqs = []
    for i, n in enumerate(net.hidden_widths, start=1):
        for j in range(1, n + 1):
            v = Var(i, j)
            sq = MultilinearPoly({((v, 2),): 1, (): -1})
            eqs.append(Constraint("h", i, j, sq))
    return eqs


def encode_standard(
    net: FoldedBnn,
    region: PerturbationRegion,
    objective: MultilinearPoly,
    *,
    true_label: Optional[int] = None,
    target: Optional[int] = None,
) -> VerificationInstance:
    """Quadratic sign-consistency encoding: x^2 = 1 and x*(Wx'+b) >= 0."""
    net.require_stabilized()
    _check_objective(net, objective)
    ineqs: list[Constraint] = []
    for i in range(1, net.depth + 1):
        for row in neuron_rows(net, i, region):
            x = MultilinearPoly.variable(row.var)
            ineqs.append(Constraint("std", i, row.var.index, x * row.z))
    ineqs.extend(_region_constraints(region))
    cs = ConstraintSet(tuple(_equalities(net)), tuple(ineqs), objective)
    return VerificationInstance(net, region, cs, "standard", true_label, target)


def encode_tightened(
    net: FoldedBnn,
    region: PerturbationRegion,
    objective: MultilinearPoly,
    *,
    true_label: Optional[int] = None,
    target: Optional[int] = None,
) -> VerificationInstance:
    """Four products per neuron: one-sided sign products plus row-bound products.

    The one-sided products (x+1)*(Wx'+b) and (x-1)*(Wx'+b) average to the
    standard product; the row-bound products pair (x+1) and (1-x) with the
    always-nonnegative row slack R -/+ <W_row, x' - c> of the neuron's
    `NeuronRow`.  All four are redundant for the exact feasible set but
    strictly enlarge the order-1 relaxation's multiplier cone.
    """
    net.require_stabilized()
    _check_objective(net, objective)
    ineqs: list[Constraint] = []
    for i in range(1, net.depth + 1):
        for row in neuron_rows(net, i, region):
            j = row.var.index
            x = MultilinearPoly.variable(row.var)
            up = x + 1
            ineqs.append(Constraint("g1", i, j, up * row.z))
            ineqs.append(Constraint("g2", i, j, (x - 1) * row.z))
            ineqs.append(Constraint("t1", i, j, up * (row.row_bound - row.zeta)))
            ineqs.append(Constraint("t2", i, j, (1 - x) * (row.row_bound + row.zeta)))
    ineqs.extend(_region_constraints(region))
    cs = ConstraintSet(tuple(_equalities(net)), tuple(ineqs), objective)
    return VerificationInstance(net, region, cs, "tightened", true_label, target)


def _lp_rows(
    net: FoldedBnn, region: PerturbationRegion, objective: MultilinearPoly
) -> list[Constraint]:
    if not region.radius > 0:
        raise ValueError("region radius must be positive for the linear encodings")
    _check_objective(net, objective)
    if objective.degree > 1:
        raise ValueError("linear encodings need an affine objective")
    rows: list[Constraint] = []
    for i in range(1, net.depth + 1):
        for row in neuron_rows(net, i, region):
            c_plus, c_minus = row.envelope_slopes()
            x = MultilinearPoly.variable(row.var)
            j = row.var.index
            rows.append(Constraint("lin1", i, j, (x + 1) * c_plus - row.z * 2))
            rows.append(Constraint("lin2", i, j, (1 - x) * c_minus + row.z * 2))
    for i, n in enumerate(net.hidden_widths, start=1):
        for j in range(1, n + 1):
            x = MultilinearPoly.variable(Var(i, j))
            rows.append(Constraint("lin0", i, j, 1 - x))
            rows.append(Constraint("lin0", i, j, x + 1))
    for j in range(1, region.dim + 1):
        v = Var(0, j)
        lo, hi = _frac(region.lower[j - 1]), _frac(region.upper[j - 1])
        rows.append(Constraint("region", 0, j, MultilinearPoly.linear({v: -1}, hi)))
        rows.append(Constraint("region", 0, j, MultilinearPoly.linear({v: 1}, -lo)))
    return rows


def encode_lp(
    net: FoldedBnn,
    region: PerturbationRegion,
    objective: MultilinearPoly,
    *,
    true_label: Optional[int] = None,
    target: Optional[int] = None,
) -> VerificationInstance:
    """All-linear relaxation: envelopes, box rows, interval rows; no equalities.

    For an l2 region the interval rows describe the ball's box enclosure, so
    the LP optimum stays a valid lower bound.
    """
    net.require_stabilized()
    rows = _lp_rows(net, region, objective)
    cs = ConstraintSet((), tuple(rows), objective)
    return VerificationInstance(net, region, cs, "lp", true_label, target)


def encode_milp(
    net: FoldedBnn,
    region: PerturbationRegion,
    objective: MultilinearPoly,
    feasibility_threshold: Optional[float] = None,
    *,
    true_label: Optional[int] = None,
    target: Optional[int] = None,
) -> VerificationInstance:
    """LP rows plus integrality marks; exact for the sign semantics.

    For an l2 region the exact ball quadratic is appended so the encoding
    stays faithful to the region (such instances export to SDPA-free formats
    only after dropping to linf; the MPS writer rejects them).

    With `feasibility_threshold` the objective moves into a constraint
    objective <= threshold and the reported objective becomes the constant 0:
    the instance then encodes attack feasibility rather than bound computation.
    """
    net.require_stabilized()
    if feasibility_threshold is not None and not math.isfinite(feasibility_threshold):
        raise ValueError(f"feasibility threshold {feasibility_threshold!r} is not finite")
    rows = _lp_rows(net, region, objective)
    if region.kind == "l2":
        ball = region_polynomials(region)[0]
        rows.append(Constraint("region", 0, 0, ball))
    reported = objective
    if feasibility_threshold is not None:
        cut = MultilinearPoly.constant(_frac(feasibility_threshold)) - objective
        rows.append(Constraint("threshold", 0, 0, cut))
        reported = MultilinearPoly.zero()
    binaries = tuple(
        Var(i, j)
        for i, n in enumerate(net.hidden_widths, start=1)
        for j in range(1, n + 1)
    )
    cs = ConstraintSet((), tuple(rows), reported)
    return VerificationInstance(
        net,
        region,
        cs,
        "milp",
        true_label,
        target,
        binary_vars=binaries,
        feasibility_threshold=feasibility_threshold,
    )


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def build_cliques(net: FoldedBnn) -> list[Clique]:
    """Variable cliques covering all constraint interactions, in an order
    whose running intersections are each contained in one earlier clique.

    Depth 1: one clique per input coordinate, {x0_k} + layer 1.
    Depth 2: the depth-1 cliques, then layer 1 + each last-layer variable.
    Depth >= 3: adjacent hidden-layer pairs first, then input cliques, then
    last-hidden-layer + each last-layer variable.
    """
    L = net.depth
    widths = net.widths

    def layer_vars(i: int) -> list[Var]:
        return [Var(i, j) for j in range(1, widths[i] + 1)]

    cliques: list[list[Var]] = []
    if L >= 3:
        for i in range(1, L - 1):
            cliques.append(layer_vars(i) + layer_vars(i + 1))
    for k in range(1, widths[0] + 1):
        cliques.append([Var(0, k)] + layer_vars(1))
    if L >= 2:
        for k in range(1, widths[L] + 1):
            cliques.append(layer_vars(L - 1) + [Var(L, k)])
    return [
        Clique(i, tuple(sorted(vs))) for i, vs in enumerate(cliques, start=1)
    ]


def check_rip(cliques: Sequence[Clique]) -> bool:
    """Running intersection: each clique's overlap with all earlier ones is
    contained in a single earlier clique."""
    seen: set[Var] = set()
    for idx, clique in enumerate(cliques):
        if idx > 0:
            overlap = set(clique.variables) & seen
            if overlap and not any(
                overlap <= set(prev.variables) for prev in cliques[:idx]
            ):
                return False
        seen.update(clique.variables)
    return True


# ---------------------------------------------------------------------------
# identity suite: the linear envelopes as explicit combinations
# ---------------------------------------------------------------------------


def linear_identity_residuals(
    net: FoldedBnn, region: PerturbationRegion
) -> list[tuple[str, MultilinearPoly]]:
    """Differences that vanish identically modulo x^2 = 1, per hidden neuron.

    Each entry is (label, lhs - rhs) where lhs is a normalized linear-envelope
    polynomial and rhs an explicit nonnegative combination of encoding
    polynomials; a correct implementation reduces every residual to the exact
    zero polynomial.  Families:

    * box+/box-  : box rows as half-squares plus half the binary equality;
    * sos+/sos-  : normalized envelopes as square-weighted combinations of the
      sign product and per-coordinate slack squares (deep layers) or centered
      slack terms (layer 1);
    * comb+/comb-: normalized envelopes as plain sums of a one-sided product
      and a row-bound product, scaled by the envelope slope.

    All coefficients are exact rationals.
    """
    net.require_stabilized()
    out: list[tuple[str, MultilinearPoly]] = []
    half = Fraction(1, 2)
    for i in range(1, net.depth + 1):
        for row in neuron_rows(net, i, region):
            v = row.var
            j = v.index
            x = MultilinearPoly.variable(v)
            up = x + 1
            dn = 1 - x
            h = MultilinearPoly({((v, 2),): 1, (): -1})
            c_plus, c_minus = row.envelope_slopes()
            lhs_pos, lhs_neg = row.unit_envelopes()
            g_std = x * row.z
            slack_pos = row.row_bound - row.zeta
            slack_neg = row.row_bound + row.zeta

            out.append((f"box+[{i},{j}]", dn - (dn * dn * half + h * half)))
            out.append((f"box-[{i},{j}]", up - (up * up * half + h * half)))

            if i == 1:
                sq_pos, sq_neg, weight = slack_pos, slack_neg, half
            else:
                w = net.weight(i)[j - 1]
                sq_pos = MultilinearPoly.zero()
                sq_neg = MultilinearPoly.zero()
                for k in range(w.shape[0]):
                    if w[k] == 0:
                        continue
                    pred = MultilinearPoly.variable(Var(i - 1, k + 1), int(w[k]))
                    sq_pos = sq_pos + (1 - pred) * (1 - pred)
                    sq_neg = sq_neg + (1 + pred) * (1 + pred)
                weight = Fraction(1, 4)
            sos_pos = dn * dn * g_std * (half / c_plus) + up * up * sq_pos * (weight / c_plus)
            sos_neg = up * up * g_std * (half / c_minus) + dn * dn * sq_neg * (weight / c_minus)
            out.append((f"sos+[{i},{j}]", lhs_pos - sos_pos))
            out.append((f"sos-[{i},{j}]", lhs_neg - sos_neg))

            comb_pos = ((x - 1) * row.z + up * slack_pos) * (Fraction(1) / c_plus)
            comb_neg = (up * row.z + dn * slack_neg) * (Fraction(1) / c_minus)
            out.append((f"comb+[{i},{j}]", lhs_pos - comb_pos))
            out.append((f"comb-[{i},{j}]", lhs_neg - comb_neg))
    return out
