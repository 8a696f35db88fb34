"""Ground-truth verification by activation-pattern enumeration.

For small networks the exact optimum of a robustness query is computable by
walking the layer-1 sign vectors, of at most `DEFAULT_PATTERN_CAP` layer-1
neurons (deeper layers may be wider).  Each one fixes a cell of the input
space, and "does some admissible input produce these signs?" is a polytope
membership query, decided once per cell and exactly, in rationals: a
simplex maximizes the cell's least row slack over the region's exact box
(`_max_slack`), and for Euclidean balls a cell whose max-slack point lies
outside the ball is decided by its nearest point to the center, found by
least-distance programming (an NNLS in rationals).  A cell's witness is
rounded to binary64 toward the center, so it lies in the region
(`PerturbationRegion.contains`).  The signs of every deeper layer then
follow from the layer before; they are computed, not searched.

A pattern is *feasible* when the non-strict system sigma * (W x' + b) >= 0 is
satisfiable over the region -- the closure semantics every encoding in this
package relaxes.  This coincides with the forward semantics except on
measure-zero ties (exact zero pre-activations, where sign(0) := +1 picks one
branch while the closure admits both); `ForwardTrace.zero_preactivation_flags`
reports when that matters.

The exact optimum `tau` is the minimum of the objective over feasible
patterns (which do not depend on it, so one walk serves every target of a
query), computed in exact rational arithmetic; it is the yardstick every
relaxation bound is tested against, so nothing here shares code with the
relaxation pipeline (the MILP route in `milp_feasible_patterns` reuses only
the cell decider `_cell_witness`, on an independently built constraint
system; the decider alone holds the region, so the walk skips the
encoding's region rows).

The other side of the yardstick is sampled: `sample_logits` runs the
network on the center and seeded region points in one batched pass.  Every
row is a true execution, so a row's logit margin bounds the exact optimum
from above, up to the rounding of the logits, and a row of the region whose
`forward` label differs is a counterexample.
`relative_improvement` measures a relaxation against the sampled bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from bnncert.encode import PerturbationRegion, VerificationInstance
from bnncert.model import FoldedBnn, forward_logits
from bnncert.poly import MultilinearPoly, Var

__all__ = [
    "DEFAULT_PATTERN_CAP",
    "ExactResult",
    "PatternRecord",
    "exact_minimum",
    "exact_verify",
    "feasible_patterns",
    "milp_feasible_patterns",
    "pattern_assignment",
    "relative_improvement",
    "sample_logits",
    "sample_region",
]

DEFAULT_PATTERN_CAP = 20

#: a pattern is one +/-1 tuple per hidden layer
Pattern = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PatternRecord:
    pattern: Pattern
    witness: np.ndarray  # an input realizing the pattern (closure semantics)


@dataclass(frozen=True)
class ExactResult:
    """Exact optimum of an objective over all feasible activation patterns."""

    tau: Fraction
    minimizer: Pattern
    witness: np.ndarray
    n_feasible: int

    @property
    def value(self) -> float:
        return float(self.tau)


# ---------------------------------------------------------------------------
# pattern enumeration
# ---------------------------------------------------------------------------


def _require_cap(net: FoldedBnn) -> None:
    """The walks branch on the layer-1 signs, one cell each; the deeper
    signs are computed, so only layer 1's width is capped."""
    if net.hidden_widths[0] > DEFAULT_PATTERN_CAP:
        raise ValueError(
            f"pattern enumeration needs at most {DEFAULT_PATTERN_CAP} layer-1 neurons, "
            f"got {net.hidden_widths[0]}"
        )


def pattern_assignment(pattern: Pattern) -> dict[Var, int]:
    """The value of each hidden variable under `pattern`."""
    out: dict[Var, int] = {}
    for i, layer in enumerate(pattern, start=1):
        for j, s in enumerate(layer, start=1):
            out[Var(i, j)] = int(s)
    return out


# ---------------------------------------------------------------------------
# exact polytope feasibility (box regions): the max-slack simplex
# ---------------------------------------------------------------------------

Row = tuple[tuple[Fraction, ...], Fraction]  # sum coeffs*x + const >= 0


def _max_slack(rows: list[Row], lower, upper) -> tuple[Fraction, list[Fraction]]:
    """(t, x) maximizing t subject to every row >= t, lower <= x <= upper
    and t <= 1, in exact rationals.

    A bounded-variable primal simplex with Bland's rule, so it cannot cycle.
    Its variables are x and the slacks s_i = row_i(x) - t; the cap t <= 1 is
    one more row, the constant 1.  It starts feasible at x = lower, where t
    is the least row value: t enters the basis in place of that row's slack
    and, being free, never leaves it, so t's own row is the objective.  The
    dictionary holds each basic variable as its value and its coefficients
    over the n + 1 nonbasic columns, each nonbasic variable sitting at a
    bound (a slack at 0).  Variable v < n is x_v, variable n + i is s_i.
    """
    n = len(lower)
    rows = [*rows, ((Fraction(0),) * n, Fraction(1))]
    lo = [Fraction(v) for v in lower] + [Fraction(0)] * len(rows)
    hi = [Fraction(v) for v in upper] + [None] * len(rows)
    vals = [const + sum(a * v for a, v in zip(coeffs, lo) if a) for coeffs, const in rows]
    k = min(range(len(rows)), key=vals.__getitem__)
    ak = rows[k][0]
    cols = [*range(n), n + k]  # the nonbasic variable of each column
    at = lo[:n] + [Fraction(0)]  # and its value
    obj = [vals[k], [*ak, Fraction(-1)]]  # t = row_k(x) - s_k
    basis = {
        n + i: [vals[i] - vals[k], [a - b for a, b in zip(coeffs, ak)] + [Fraction(1)]]
        for i, (coeffs, _) in enumerate(rows)
        if i != k
    }
    while True:
        # entering: the lowest-numbered nonbasic variable whose move raises t
        for q in sorted(range(n + 1), key=cols.__getitem__):
            d, e = obj[1][q], cols[q]
            if d > 0 and (hi[e] is None or at[q] < hi[e]) or d < 0 and at[q] > lo[e]:
                break
        else:
            break
        step = 1 if d > 0 else -1
        # leaving: the lowest-numbered variable among the first to meet a
        # bound, the entering one included (a bound flip)
        best = None if hi[e] is None else (hi[e] - lo[e], e)
        for v, (val, coeffs) in basis.items():
            rate = coeffs[q] * step
            if rate < 0:
                room = (val - lo[v]) / -rate
            elif rate > 0 and hi[v] is not None:
                room = (hi[v] - val) / rate
            else:
                continue
            if best is None or (room, v) < best:
                best = (room, v)
        theta = best[0] * step
        obj[0] += obj[1][q] * theta
        for row in basis.values():
            row[0] += row[1][q] * theta
        at[q] += theta
        out = best[1]
        if out == e:
            continue
        val, coeffs = basis.pop(out)
        piv = coeffs[q]
        entered = [-c / piv for c in coeffs]
        entered[q] = 1 / piv
        for row in (obj, *basis.values()):
            f = row[1][q]
            if f:
                row[1][q] = 0
                row[1] = [c + f * c2 for c, c2 in zip(row[1], entered)]
        basis[e] = [at[q], entered]
        cols[q], at[q] = out, val
    value = dict(zip(cols, at)) | {v: row[0] for v, row in basis.items()}
    return obj[0], [value[v] for v in range(n)]


# ---------------------------------------------------------------------------
# ball-region feasibility: nearest point in a polytope by least distance
# ---------------------------------------------------------------------------


def _solve(G: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """The solution of the nonsingular system G z = b, by Gauss-Jordan
    elimination in exact rationals."""
    m = [[*row, v] for row, v in zip(G, b)]
    k = len(m)
    for c in range(k):
        p = next(i for i in range(c, k) if m[i][c])
        m[c], m[p] = m[p], m[c]
        pivot = m[c]
        for i in range(k):
            if i != c and m[i][c]:
                f = m[i][c] / pivot[c]
                m[i] = [a - f * q for a, q in zip(m[i], pivot)]
    return [row[k] / row[c] for c, row in enumerate(m)]


def _nearest_in_polytope(rows: list[Row], center: list[Fraction]) -> list[Fraction]:
    """Nearest point of the nonempty polytope {x : every row >= 0} to
    `center`, in exact rationals.

    Least-distance programming (Lawson & Hanson 1974, ch. 23): with column
    i of E the row's coefficients a_i over -row_i(center), and f = e_{n+1},
    the NNLS residual r = E w - f has r[n] < 0 (the set being nonempty) and
    x = center - r[:n] / r[n].  The NNLS is Lawson & Hanson's active-set
    algorithm, which ends after finitely many steps in exact arithmetic and
    keeps the passive columns linearly independent, so each of its least
    squares problems is one nonsingular system of normal equations.
    """
    n = len(center)
    cols = [
        [*coeffs, -const - sum(a * c for a, c in zip(coeffs, center))] for coeffs, const in rows
    ]
    w: dict[int, Fraction] = {}  # the passive columns and their positive weights

    def residual() -> list[Fraction]:
        r = [sum((v * cols[j][k] for j, v in w.items()), Fraction(0)) for k in range(n + 1)]
        r[n] -= 1
        return r

    while True:
        r = residual()
        gain = {j: -sum(a * b for a, b in zip(col, r)) for j, col in enumerate(cols) if j not in w}
        j = max(gain, key=gain.__getitem__, default=None)
        if j is None or gain[j] <= 0:
            break
        w[j] = Fraction(0)
        while True:  # least squares over the passive columns, kept feasible
            passive = list(w)
            z = _solve(
                [[sum(a * b for a, b in zip(cols[p], cols[q])) for q in passive] for p in passive],
                [cols[p][n] for p in passive],
            )
            if all(v > 0 for v in z):
                w = dict(zip(passive, z))
                break
            alpha = min(w[p] / (w[p] - v) for p, v in zip(passive, z) if v <= 0)
            w = {p: w[p] + alpha * (v - w[p]) for p, v in zip(passive, z)}
            w = {p: v for p, v in w.items() if v > 0}
    r = residual()
    return [c - v / r[n] for c, v in zip(center, r)]


def _cell_witness(rows: list[Row], region: PerturbationRegion) -> Optional[np.ndarray]:
    """A point of the region that meets every row, or None, decided in
    exact rationals.

    The cell is nonempty over the region's exact box iff the `_max_slack`
    optimum t is >= 0 (closure semantics), and its x is strictly inside the
    cell when t > 0.  That x lies in the region unless the region is an l2
    ball and x lies outside it; the cell then meets the ball iff the cell's
    nearest point xn to the center (`_nearest_in_polytope`) does.  xn is
    taken over the rows and the faces of [-1, 1]^n0 that cut the ball; the
    whole ball lies on the inner side of every other face, so those faces
    cannot change the answer.  The witness is then xn + lam (x - xn) for
    the first lam of 1/2, 1/4, ... that stays in the ball, strictly inside
    the cell when t > 0, and xn itself only when xn lies on the sphere.  It
    is returned rounded toward the center (`round_inward`), so it stays in
    the region.
    """
    t, x = _max_slack(rows, *region.box())
    if t < 0:
        return None
    if not region.contains(x):
        center = [Fraction(v) for v in region.center.tolist()]
        radius = Fraction(region.capped_radius)

        def excess(point) -> Fraction:
            return sum((v - c) ** 2 for v, c in zip(point, center)) - radius * radius

        faces = [  # s * x_j + 1 >= 0, for each face of the cube that cuts the ball
            (tuple(Fraction(s * (k == j)) for k in range(region.dim)), Fraction(1))
            for j, c in enumerate(center)
            for s in (1, -1)
            if s * c - radius < -1
        ]
        xn = _nearest_in_polytope([*rows, *faces], center)
        gap = excess(xn)
        if gap > 0:
            return None
        lam = Fraction(1, 2) if gap < 0 else Fraction(0)
        while excess(y := [a + lam * (b - a) for a, b in zip(xn, x)]) > 0:
            lam /= 2
        x = y
    return region.round_inward(x)


# ---------------------------------------------------------------------------
# the pattern set from the network itself: layer-1 cells, computed completions
# ---------------------------------------------------------------------------


def _layer1_rows(net: FoldedBnn, signs: tuple[int, ...]) -> list[Row]:
    """sigma_j * (<W1_j, x0> + b_j) >= 0 as exact rows over x0."""
    w = net.weight(1)
    b = net.exact_bias(1)
    n0 = net.input_dim
    rows: list[Row] = []
    for j, s in enumerate(signs):
        coeffs = tuple(Fraction(s * int(w[j, k])) for k in range(n0))
        rows.append((coeffs, s * b[j]))
    return rows


def _completions(net: FoldedBnn, first: tuple[int, ...]) -> list[Pattern]:
    """Every full pattern with layer-1 signs `first`, in enumeration order.

    A deeper pre-activation z = (W s + d) + b (`FoldedBnn.preactivation`)
    is an integer sum plus one rounding of b, so its sign is exact; z = 0
    admits both signs (closure semantics).
    """
    patterns: list[Pattern] = [(first,)]
    for i in range(2, net.depth + 1):
        patterns = [
            p + (layer,)
            for p in patterns
            for layer in itertools.product(
                *[
                    (-1, 1) if z == 0 else (1,) if z > 0 else (-1,)
                    for z in net.preactivation(i, p[-1])
                ]
            )
        ]
    return patterns


def feasible_patterns(net: FoldedBnn, region: PerturbationRegion) -> list[PatternRecord]:
    """All feasible patterns with witnesses, in enumeration order.

    Each layer-1 cell is decided once, exactly, by `_cell_witness`; a
    feasible cell contributes every pattern of `_completions`, all with the
    cell's witness.
    """
    net.require_stabilized()
    if region.dim != net.input_dim:
        raise ValueError("region dimension does not match the network input")
    _require_cap(net)
    out = []
    for first in itertools.product((-1, 1), repeat=net.hidden_widths[0]):
        witness = _cell_witness(_layer1_rows(net, first), region)
        if witness is not None:
            out.extend(PatternRecord(p, witness) for p in _completions(net, first))
    return out


def exact_minimum(records: Sequence[PatternRecord], objective: MultilinearPoly) -> ExactResult:
    """Exact minimum of a binary-variable objective over the patterns
    `records` of `feasible_patterns`, which serve every objective alike.

    The objective must involve hidden (binary) variables only, so its value
    is constant on each pattern; tau is then the exact rational minimum over
    the records, the first minimal record supplying minimizer and witness.
    """
    if any(v.layer == 0 for v in objective.variables()):
        raise ValueError("exact verification needs an objective over binary variables only")
    if not records:
        raise ValueError("no feasible pattern; region is empty or network unstable")

    def value(rec: PatternRecord) -> Fraction:
        return Fraction(objective.evaluate(pattern_assignment(rec.pattern)))

    rec = min(records, key=value)
    return ExactResult(
        tau=value(rec), minimizer=rec.pattern, witness=rec.witness, n_feasible=len(records)
    )


def exact_verify(
    net: FoldedBnn, region: PerturbationRegion, objective: MultilinearPoly
) -> ExactResult:
    """`exact_minimum` over the region's feasible patterns."""
    return exact_minimum(feasible_patterns(net, region), objective)


# ---------------------------------------------------------------------------
# the MILP side of the same pattern question, from the encoded rows
# ---------------------------------------------------------------------------


def milp_feasible_patterns(instance: VerificationInstance) -> list[PatternRecord]:
    """Feasible patterns of a MILP instance, decided from its own rows.

    Fixes +/-1 assignments in the encoded constraints and feeds the
    restricted system to the same polytope deciders as the enumeration
    oracle; the constraint systems themselves are built independently, so
    agreement with `feasible_patterns` is a meaningful exactness check.

    The region's own rows (the box rows, for l2 the box enclosure and the
    ball quadratic) are skipped: `_cell_witness` already holds the region,
    as its box and, for l2, its center and radius.  Every
    other MILP row is jointly affine in the inputs and the binaries, so the
    rows are split once into an exact input part and binary part.  The
    binaries are fixed one at a time, layer-major and -1 before +1, so the
    records come in `feasible_patterns` order.  A row without inputs is
    evaluated once, when its last binary is fixed, and a failing row drops
    the whole prefix; the input rows (layer 1's envelopes) are decided by
    `_cell_witness` once, when their last binary (at the latest, layer 1's)
    is fixed.
    """
    if instance.encoding_kind != "milp":
        raise ValueError("expected a MILP instance")
    net = instance.net
    region = instance.region
    n0 = net.input_dim
    binary_order = instance.binary_vars
    _require_cap(net)

    # one-time exact split: row = <x0_coeffs, x0> + <bin_coeffs, sigma> + const
    input_rows = []
    checks: list[list] = [[] for _ in binary_order]  # by the row's last binary
    cell_at = net.hidden_widths[0] - 1  # where the input rows are decided
    for con in instance.constraints.inequalities:
        if con.family == "region":
            continue  # `_cell_witness` holds the region itself
        if con.poly.degree > 1:
            raise ValueError(f"row {con.family} is not affine; cannot fix a pattern")
        x0_coeffs = [Fraction(0)] * n0
        bin_coeffs: dict[int, Fraction] = {}
        const = Fraction(0)
        for mono, coeff in con.poly.terms.items():
            if not mono:
                const += coeff
            else:
                v = mono[0][0]
                if v.layer == 0:
                    x0_coeffs[v.index - 1] += coeff
                else:
                    pos = binary_order.index(v)
                    bin_coeffs[pos] = bin_coeffs.get(pos, Fraction(0)) + coeff
        last = max(bin_coeffs, default=-1)
        if any(x0_coeffs):
            input_rows.append((tuple(x0_coeffs), tuple(bin_coeffs.items()), const))
            cell_at = max(cell_at, last)
        else:  # a constant row is checked with the first binary
            checks[max(last, 0)].append((tuple(bin_coeffs.items()), const))

    def value(bin_coeffs, const) -> Fraction:
        return const + sum((c * signs[p] for p, c in bin_coeffs), Fraction(0))

    ends = list(itertools.accumulate(net.hidden_widths, initial=0))
    signs = [0] * len(binary_order)
    out = []

    def walk(p: int, witness: Optional[np.ndarray]) -> None:
        if p == len(signs):
            pattern = tuple(tuple(signs[a:b]) for a, b in zip(ends, ends[1:]))
            out.append(PatternRecord(pattern, witness))
            return
        for s in (-1, 1):
            signs[p] = s
            if any(value(bc, const) < 0 for bc, const in checks[p]):
                continue
            if p == cell_at:
                rows = [(x0c, value(bc, const)) for x0c, bc, const in input_rows]
                witness = _cell_witness(rows, region)
                if witness is None:
                    continue
            walk(p + 1, witness)

    walk(0, None)
    return out


# ---------------------------------------------------------------------------
# sampled logits and the improvement metric
# ---------------------------------------------------------------------------


def sample_region(
    region: PerturbationRegion, n: int, rng: np.random.Generator
) -> np.ndarray:
    """`n` points of the region, one per row, drawn from `rng` in row order.

    A linf point is drawn from the box's inward float copy [lower, upper],
    so it lies in the region.  An l2 point is drawn in the ball, but
    rounding can put it an ulp outside; `PerturbationRegion.contains`
    tells."""
    if region.kind == "linf":
        return rng.uniform(region.lower, region.upper, size=(n, region.dim))
    dim = region.dim
    raw = rng.normal(size=(n, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = region.capped_radius * rng.uniform(size=(n, 1)) ** (1.0 / dim)
    pts = region.center + raw / norms * radii
    # clipping to the global box cannot increase the distance to the center
    # (the center lies in the box and coordinate-wise projection is
    # non-expansive)
    return np.clip(pts, -1.0, 1.0)


def sample_logits(
    net: FoldedBnn, region: PerturbationRegion, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded region points, one per row, and their logits.

    Row 0 is the center; `n_samples` points of `sample_region` follow
    (none at radius 0).  The logits come from one batched pass and equal
    `forward`'s byte for byte, so every row is a true network execution and
    min_rows(logits[:, label-1] - logits[:, k-1]) is an upper bound on the
    exact margin against target k, up to the rounding of the logits and
    their difference.  Where a row's float logits tie at the maximum, its
    label is `forward`'s, decided exactly, not necessarily the float
    argmax.  Deterministic for a fixed seed.
    """
    points = region.center[None, :]
    if region.radius > 0:
        drawn = sample_region(region, n_samples, np.random.default_rng(seed))
        points = np.vstack([points, drawn])
    return points, forward_logits(net, points)


def relative_improvement(
    tau_sdp: float, tau_lp: float, upper: float
) -> Optional[float]:
    """(tau_sdp - tau_lp) / (upper - tau_lp); None when the denominator is
    not positive (the sampling bound failed to separate from the LP bound)."""
    if not upper > tau_lp:
        return None
    return (tau_sdp - tau_lp) / (upper - tau_lp)
