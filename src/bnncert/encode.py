"""Optimization encodings of network robustness queries.

Given a folded, stabilized network and a perturbation region around a
reference input, this module builds the four encodings used throughout the
package:

* ``standard``  -- quadratic sign-consistency products x*(Wx'+b) >= 0;
* ``tightened`` -- the four-product family per hidden neuron: both one-sided
  sign products (x+1)*(Wx'+b) and (x-1)*(Wx'+b) and two always-valid
  "row-bound" products derived from |<W_row, x' - c>| <= R, which enlarge
  the order-1 multiplier cone without changing the feasible set;
* ``lp``        -- the linear relaxation: per-neuron linear envelopes of the
  sign constraint, box rows for the relaxed binaries, and interval rows for
  the inputs;
* ``milp``      -- the LP rows plus integrality marks on the hidden variables
  (exact once the region rows are exact).

An encoding is polynomial inequalities only: x^2 = 1 is applied
structurally, not stored, since the moment assembly fixes every binary square
to 1 and the rigorization reduces modulo x^2 = 1.  `bnncert.sdp` turns every
kind into matrix rows through one moment assembly (the linear kinds without
PSD blocks), and also writes the MPS file of the MILP encoding.

Polynomial coefficients are exact rationals end to end (weights are integers,
exact biases b + d are dyadic rationals), so identity checks downstream
are exact and the numeric layers decide when to round.

A `PerturbationRegion` is an exact set of reals.  Its box is held in
integers, and the region rows of every encoding, like layer 1's box in
`neuron_rows`, are read from it exactly, so every relaxation covers the
whole region; only its inward binary64 copy `lower`/`upper` is rounded.

Every hidden neuron is modelled once, by `neuron_rows`, over the box [l, u]
of its previous layer: with c = (l+u)/2 and r = (u-l)/2 the row bound is
R = sum_k |W_jk| r_k and the effective bias is beta = b_j + d_j + <W_row, c>
with b_j + d_j the exact bias (`FoldedBnn.exact_bias`), so the pre-activation
ranges over [beta - R, beta + R].  `neuron_ranges` (`bnncert.model`, where
`stabilize` reads it to fold the neurons that are constant over a query's
region) computes that exact range, and `neuron_rows` reads it.  The
row-bound products and the linear envelopes are built from that record.
The box is the only difference between layers: layer 1 sees the region's
box, a deeper layer the +/-1 box (c = 0, r = 1, so R is the row 1-norm).
Every row holds for every neuron, one that is constant over the box
included: the linear envelopes are exact sums of a one-sided sign product
and a row-bound product of the tightened encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from bnncert.model import FoldedBnn, neuron_ranges
from bnncert.poly import MultilinearPoly, Var

__all__ = [
    "EXACT_PSD_ORDER",
    "Clique",
    "Constraint",
    "ConstraintSet",
    "NeuronRow",
    "PerturbationRegion",
    "VerificationInstance",
    "build_cliques",
    "check_rip",
    "encode_lp",
    "encode_milp",
    "encode_standard",
    "encode_tightened",
    "linear_identity_residuals",
    "merge_cliques",
    "neuron_ranges",
    "neuron_rows",
    "objective_targeted",
    "region_polynomials",
]


def _round_toward(num: int, den: int, target: float) -> float:
    """num / den (den > 0) in binary64: exactly where binary64 holds it,
    else the float next to it on the side of `target`."""
    f = num / den  # correctly rounded
    n, d = f.as_integer_ratio()
    over = n * den - num * d  # the sign of f - num / den
    if over > 0 and target < f or over < 0 and target > f:
        return math.nextafter(f, target)
    return f


@dataclass(frozen=True)
class PerturbationRegion:
    """A norm ball around a reference input, intersected with [-1,1]^n0:
    the exact real set of x in [-1,1]^n0 with |x - center| <= radius.

    Every point of [-1,1]^n0 lies within 2*sqrt(n0) <= 2*n0 of the center,
    so `capped_radius` = min(radius, 2*n0) gives the same set with a radius
    that stays finite, however large (or infinite) the radius is.  The box
    clip(center -/+ capped_radius) to [-1, 1] is the region for kind
    "linf" and its enclosure for kind "l2".  It is held exactly, as the
    integers `box_lower`/`box_upper` over one power-of-two denominator
    `box_den` (`box` gives the rationals), and every proof reads it.
    `lower`/`upper` are that box rounded inward to binary64: a float lies
    in the box exactly when it lies in [lower, upper].  `contains` decides
    membership exactly, with no slack.

    radius = 0 describes the single point {center}; the polynomial and linear
    encoders reject it (they need interior), but exact evaluation paths
    accept it.
    """

    kind: str
    center: np.ndarray
    radius: float
    capped_radius: float = field(init=False)
    box_lower: tuple[int, ...] = field(init=False)
    box_upper: tuple[int, ...] = field(init=False)
    box_den: int = field(init=False)
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
        capped = min(self.radius, 2.0 * center.shape[0])
        # a float's denominator is a power of two, so the largest is the lcm
        c = center.tolist()
        ratios = [v.as_integer_ratio() for v in c]
        rn, rd = capped.as_integer_ratio()
        den = max(rd, *(d for _, d in ratios))
        r = rn * (den // rd)
        box_lower = tuple(max(n * (den // d) - r, -den) for n, d in ratios)
        box_upper = tuple(min(n * (den // d) + r, den) for n, d in ratios)
        lower = np.array([_round_toward(v, den, ck) for v, ck in zip(box_lower, c)])
        upper = np.array([_round_toward(v, den, ck) for v, ck in zip(box_upper, c)])
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "capped_radius", capped)
        object.__setattr__(self, "box_lower", box_lower)
        object.__setattr__(self, "box_upper", box_upper)
        object.__setattr__(self, "box_den", den)
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

    def box(self) -> tuple[list[Fraction], list[Fraction]]:
        """The exact box's lower and upper bounds, as rationals."""
        den = self.box_den
        return (
            [Fraction(v, den) for v in self.box_lower],
            [Fraction(v, den) for v in self.box_upper],
        )

    def contains(self, x0: Sequence) -> bool:
        """Whether the point `x0`, of floats or rationals, lies in the
        region, decided exactly."""
        if len(x0) != self.dim or not all(map(math.isfinite, x0)):
            return False
        x = [Fraction(v) for v in x0]
        den = self.box_den
        if not all(lo <= v * den <= hi for v, lo, hi in zip(x, self.box_lower, self.box_upper)):
            return False
        if self.kind == "linf":
            return True
        dist = sum((v - Fraction(c)) ** 2 for v, c in zip(x, self.center.tolist()))
        return dist <= Fraction(self.capped_radius) ** 2

    def round_inward(self, x0: Sequence[Fraction]) -> np.ndarray:
        """The rational point `x0` in binary64, each coordinate rounded
        toward the center's where binary64 does not hold it, so a point of
        the region (a box, or a box and a ball, around the center) stays
        in it."""
        c = self.center.tolist()
        return np.array([_round_toward(q.numerator, q.denominator, ck) for q, ck in zip(x0, c)])


@dataclass(frozen=True)
class Constraint:
    """One tagged constraint polynomial, poly >= 0."""

    family: str
    layer: int
    neuron: int
    poly: MultilinearPoly


@dataclass(frozen=True)
class ConstraintSet:
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
    """A set of variables, held sorted: each pair of `variables` in order
    is already a sorted pair."""

    variables: tuple[Var, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(sorted(self.variables)))


@dataclass(frozen=True)
class VerificationInstance:
    """A network, a region, an objective, and one encoding of the semantics."""

    net: FoldedBnn
    region: PerturbationRegion
    constraints: ConstraintSet
    encoding_kind: str
    true_label: Optional[int] = None
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.encoding_kind not in ("standard", "tightened", "lp", "milp"):
            raise ValueError(f"unknown encoding kind {self.encoding_kind!r}")
        if self.true_label is not None and self.target is not None:
            if self.true_label == self.target:
                raise ValueError("attack target must differ from the true label")

    @property
    def objective(self) -> MultilinearPoly:
        return self.constraints.objective

    @property
    def binary_vars(self) -> tuple[Var, ...]:
        """The integer variables: every hidden activation, in layer order, for
        the MILP; none for the relaxations."""
        if self.encoding_kind != "milp":
            return ()
        return self.variables()[self.net.input_dim :]

    def variables(self) -> tuple[Var, ...]:
        """All decision variables: inputs, then hidden activations, sorted."""
        out = [Var(0, k) for k in range(1, self.net.input_dim + 1)]
        for i, n in enumerate(self.net.hidden_widths, start=1):
            out.extend(Var(i, j) for j in range(1, n + 1))
        return tuple(out)


# ---------------------------------------------------------------------------
# polynomial builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeuronRow:
    """Exact model of one hidden neuron over the box of its previous layer.

    With c and r the box center and half-width, `z` = <W_row, x'> + b is the
    pre-activation, `zeta` = <W_row, x' - c> the centered row sum,
    `row_bound` R = sum_k |W_jk| r_k (so |zeta| <= R on the box) and `beta`
    = b + <W_row, c> the effective bias.  Over the box z = zeta + beta ranges
    over [beta - R, beta + R], so the envelope slopes c_plus = R + beta and
    c_minus = R - beta are z_max and -z_min.  A slope is non-positive only
    where the neuron is constant over the box; the envelopes
    (x+1)*c_plus - 2z and (1-x)*c_minus + 2z stay valid there, as the exact
    sums (x-1)*z + (x+1)*(R - zeta) and (x+1)*z + (1-x)*(R + zeta).
    """

    var: Var
    z: MultilinearPoly
    row_bound: Fraction
    beta: Fraction

    @property
    def zeta(self) -> MultilinearPoly:
        return self.z - self.beta

    def envelope_slopes(self) -> tuple[Fraction, Fraction]:
        """(c_plus, c_minus) = (z_max, -z_min) over the box."""
        return self.row_bound + self.beta, self.row_bound - self.beta

    def unit_envelopes(self) -> tuple[MultilinearPoly, MultilinearPoly]:
        """The linear envelopes scaled to unit slack: (x+1) - 2z/c_plus and
        (1-x) + 2z/c_minus, both >= 0 on the box wherever x = sign(z).
        Raises `ValueError` where a slope is non-positive."""
        c_plus, c_minus = self.envelope_slopes()
        if c_plus <= 0 or c_minus <= 0:
            raise ValueError(
                f"neuron {self.var!r}: z_max = {c_plus} and z_min = {-c_minus} "
                "over the box leave no unit envelopes"
            )
        x = MultilinearPoly.variable(self.var)
        up = (x + 1) - self.z * (Fraction(2) / c_plus)
        down = (1 - x) + self.z * (Fraction(2) / c_minus)
        return up, down


def neuron_rows(
    net: FoldedBnn, layer: int, region: Optional[PerturbationRegion] = None
) -> list[NeuronRow]:
    """The `NeuronRow` of every neuron of hidden `layer` (1-based), with the
    exact ranges of `neuron_ranges`; layer 1 reads the `region`'s box."""
    rows = []
    ranges = neuron_ranges(net, layer, region)
    for j, (w, b, (beta, bound)) in enumerate(
        zip(net.weight(layer).tolist(), net.exact_bias(layer), ranges), start=1
    ):
        coeffs = {Var(layer - 1, k): wk for k, wk in enumerate(w, start=1) if wk}
        rows.append(
            NeuronRow(
                var=Var(layer, j),
                z=MultilinearPoly.linear(coeffs, b),
                row_bound=bound,
                beta=beta,
            )
        )
    return rows


def region_polynomials(region: PerturbationRegion) -> list[MultilinearPoly]:
    """Nonnegativity certificates of region membership.

    linf: one (u_j - x)(x - l_j) per coordinate of the exact box.  l2: the
    ball quadratic capped_radius^2 - |x0 - center|^2 followed by a
    (1-x)(1+x) box quadratic per coordinate (the ball is only meaningful
    inside the global box, and the box rows keep every layer-1 construction
    valid).
    """
    if not region.radius > 0:
        raise ValueError("region radius must be positive for polynomial encodings")
    n0 = region.dim
    polys: list[MultilinearPoly] = []
    if region.kind == "linf":
        for j, (lo, hi) in enumerate(zip(*region.box()), start=1):
            v = Var(0, j)
            upper = MultilinearPoly.linear({v: -1}, hi)
            above = MultilinearPoly.linear({v: 1}, -lo)
            polys.append(upper * above)
        return polys
    radius = MultilinearPoly.constant(region.capped_radius)
    ball = radius * radius
    for j in range(1, n0 + 1):
        v = Var(0, j)
        diff = MultilinearPoly.linear({v: 1}, -region.center[j - 1])
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
    """Logit margin <out_row(true) - out_row(target), x_L> + the difference
    of the two classes' exact biases.

    Positive on the whole region means no perturbation can push the target
    class above the true class.
    """
    n_out = net.n_classes
    if not (1 <= true_label <= n_out and 1 <= target <= n_out):
        raise ValueError(f"labels must lie in [1, {n_out}]")
    if target == true_label:
        raise ValueError("attack target must differ from the true label")
    w = net.weight(net.depth + 1)
    b = net.exact_bias(net.depth + 1)
    row = w[true_label - 1] - w[target - 1]
    coeffs = {
        Var(net.depth, k + 1): int(row[k]) for k in range(row.shape[0]) if row[k] != 0
    }
    return MultilinearPoly.linear(coeffs, b[true_label - 1]) - b[target - 1]


def _check_objective(net: FoldedBnn, objective: MultilinearPoly) -> None:
    if objective.degree > 2:
        raise ValueError("objective degree must be at most 2")
    for v in objective.variables():
        if v.layer < 0 or v.layer > net.depth:
            raise ValueError(f"objective variable {v} outside network layers")
        width = net.widths[v.layer]
        if not (1 <= v.index <= width):
            raise ValueError(f"objective variable {v} outside layer width {width}")


def encode_standard(
    net: FoldedBnn,
    region: PerturbationRegion,
    objective: MultilinearPoly,
    *,
    true_label: Optional[int] = None,
    target: Optional[int] = None,
) -> VerificationInstance:
    """Quadratic sign-consistency encoding: x*(Wx'+b) >= 0 (with x^2 = 1)."""
    net.require_stabilized()
    _check_objective(net, objective)
    ineqs: list[Constraint] = []
    for i in range(1, net.depth + 1):
        for row in neuron_rows(net, i, region):
            x = MultilinearPoly.variable(row.var)
            ineqs.append(Constraint("std", i, row.var.index, x * row.z))
    ineqs.extend(_region_constraints(region))
    cs = ConstraintSet(tuple(ineqs), objective)
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
            zeta = row.zeta
            ineqs.append(Constraint("g1", i, j, up * row.z))
            ineqs.append(Constraint("g2", i, j, (x - 1) * row.z))
            ineqs.append(Constraint("t1", i, j, up * (row.row_bound - zeta)))
            ineqs.append(Constraint("t2", i, j, (1 - x) * (row.row_bound + zeta)))
    ineqs.extend(_region_constraints(region))
    cs = ConstraintSet(tuple(ineqs), objective)
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
    for j, (lo, hi) in enumerate(zip(*region.box()), start=1):
        v = Var(0, j)
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
    """All-linear relaxation: envelopes, box rows, interval rows.

    For an l2 region the interval rows describe the ball's exact box
    enclosure, so the LP optimum stays a valid lower bound.
    """
    net.require_stabilized()
    rows = _lp_rows(net, region, objective)
    cs = ConstraintSet(tuple(rows), objective)
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
        cut = MultilinearPoly.constant(feasibility_threshold) - objective
        rows.append(Constraint("threshold", 0, 0, cut))
        reported = MultilinearPoly.zero()
    cs = ConstraintSet(tuple(rows), reported)
    return VerificationInstance(net, region, cs, "milp", true_label, target)


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
    return [Clique(tuple(vs)) for vs in cliques]


#: order of the largest Gram block that `rigorous_lower_bound` proves PSD
#: exactly; a larger block always pays the float-estimated eigenvalue
#: deficit, which nothing proves yet, so `merge_cliques` never builds one
EXACT_PSD_ORDER = 64


def _svec_len(n_vars: int) -> int:
    """svec entries of the moment block over (1, x) of `n_vars` variables."""
    return (n_vars + 1) * (n_vars + 2) // 2


def merge_cliques(cliques: Sequence[Clique]) -> list[Clique]:
    """A coarser cover: cliques joined where one block costs less than two.

    One pass in the given order.  Each clique joins the block whose union
    saves the most svec entries (the first such block on a tie), provided
    the union's block has strictly fewer entries than the two it replaces
    and its order (variables + 1) is at most `EXACT_PSD_ORDER`; otherwise it
    starts a new block.  Only an overlapping block can save: joining
    disjoint sets of a and b variables saves 1 - ab <= 0 entries.  Blocks
    keep the order in which they were started.  A 10-8-8-3 net's 18 blocks
    of order 10 become one of order 27; cliques already larger than the
    limit stay as they are.

    For the cliques of `build_cliques` the relaxation's optimum does not
    change:

    * every input clique lies inside one merged block, and the rows and the
      objective read only monomials of the input cliques.  The pairs a merge
      adds (x0_a*x0_b, x0_a*x2_j, x2_i*x2_j, ...) appear in no row, so a
      merged solution restricted to the original moments is an original
      solution;
    * conversely, `build_cliques` has running intersection (`check_rip`), so
      its clique graph is chordal, and any original moment vector whose
      clique blocks are PSD completes to a PSD moment matrix over all
      variables (Grone, Johnson, Sa & Wolkowicz 1984).  Every merged block
      is a principal submatrix of that completion, which supplies the new
      pairs consistently across blocks.

    Soundness does not depend on the cover either way: `rigorous_lower_bound`
    reads the cliques of the assembly it rigorizes.
    """
    blocks: list[set[Var]] = []
    for clique in cliques:
        vs = set(clique.variables)
        best, best_saving = None, 0
        # every union holds the clique: one past the limit joins nothing
        for i, block in enumerate(blocks if len(vs) < EXACT_PSD_ORDER else ()):
            union = len(block | vs)
            if union + 1 > EXACT_PSD_ORDER:
                continue
            saving = _svec_len(len(block)) + _svec_len(len(vs)) - _svec_len(union)
            if saving > best_saving:
                best, best_saving = i, saving
        if best is None:
            blocks.append(vs)
        else:
            blocks[best] |= vs
    return [Clique(tuple(block)) for block in blocks]


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

    * box+/box-  : box rows as half-squares plus half of x^2 - 1;
    * sos+/sos-  : normalized envelopes as square-weighted combinations of the
      sign product and per-coordinate slack squares (deep layers) or centered
      slack terms (layer 1);
    * comb+/comb-: normalized envelopes as plain sums of a one-sided product
      and a row-bound product, scaled by the envelope slope.

    All coefficients are exact rationals.  The normalized forms divide by
    the envelope slopes, so a neuron with a non-positive slope (one constant
    over its box, or a tie whose z_max is 0) raises `ValueError`.
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
