"""Ground-truth verification by activation-pattern enumeration.

For small networks the exact optimum of a robustness query is computable by
walking the layer-1 sign vectors.  Each one fixes a cell of the input space,
and "does some admissible input produce these signs?" is a polytope
membership query, decided once per cell: exactly by Fourier-Motzkin
elimination for box regions and, for Euclidean balls, by the cell's nearest
point to the center, found by least-distance programming (one NNLS solve) and
checked against the rows and the radius.  The signs of every deeper layer
then follow from the layer before; they are computed, not searched.

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
the polytope deciders, on an independently built constraint system).

The other side of the yardstick is sampled: `sample_logits` runs the
network on the center and seeded region points in one batched pass.  Every
row is a true execution, so a row's logit margin bounds the exact optimum
from above and a row whose label differs is a counterexample.
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
    "enumerate_patterns",
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
    if net.hidden_count() > DEFAULT_PATTERN_CAP:
        raise ValueError(
            f"pattern enumeration needs at most {DEFAULT_PATTERN_CAP} hidden neurons, "
            f"got {net.hidden_count()}"
        )


def enumerate_patterns(net: FoldedBnn):
    """Yield every hidden sign pattern, layer-major; at most
    `DEFAULT_PATTERN_CAP` hidden neurons."""
    _require_cap(net)
    widths = net.hidden_widths
    per_layer = [list(itertools.product((-1, 1), repeat=n)) for n in widths]
    for combo in itertools.product(*per_layer):
        yield tuple(combo)


def pattern_assignment(net: FoldedBnn, pattern: Pattern) -> dict[Var, int]:
    out: dict[Var, int] = {}
    for i, layer in enumerate(pattern, start=1):
        for j, s in enumerate(layer, start=1):
            out[Var(i, j)] = int(s)
    return out


# ---------------------------------------------------------------------------
# exact polytope feasibility (box regions): Fourier-Motzkin with witness
# ---------------------------------------------------------------------------

Row = tuple[tuple[Fraction, ...], Fraction]  # sum coeffs*x + const >= 0


def _normalize_row(coeffs: Sequence[Fraction], const: Fraction) -> Row:
    scale = max((abs(c) for c in coeffs), default=Fraction(0))
    if scale == 0:
        scale = abs(const) if const else Fraction(1)
    return tuple(c / scale for c in coeffs), const / scale


def _strongest(rows) -> list[Row]:
    """Among rows sharing a (normalized) coefficient vector, only the one
    with the smallest constant can bind; the rest are implied."""
    best: dict[tuple[Fraction, ...], Fraction] = {}
    for coeffs, const in rows:
        prev = best.get(coeffs)
        if prev is None or const < prev:
            best[coeffs] = const
    return list(best.items())


def _fm_witness(rows: list[Row], n: int) -> Optional[list[Fraction]]:
    """Exact witness of {x : rows hold}, or None if empty.

    The caller must include finite lower/upper bound rows for every variable
    (the box rows), which keeps each back-substitution interval bounded.
    """
    stages: list[list[Row]] = [[] for _ in range(n)]
    cur = _strongest(_normalize_row(c, d) for c, d in rows)
    for k in range(n - 1, -1, -1):
        stages[k] = cur
        lows, ups, rest = [], [], []
        for coeffs, const in cur:
            a = coeffs[k]
            if a > 0:
                lows.append((coeffs, const))
            elif a < 0:
                ups.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        new: list[Row] = list(rest)
        for lc, ld in lows:
            for uc, ud in ups:
                al, au = lc[k], -uc[k]
                coeffs = tuple(au * a + al * b for a, b in zip(lc, uc))
                new.append(_normalize_row(coeffs, au * ld + al * ud))
        cur = _strongest(new)
        if len(cur) > 200_000:
            raise RuntimeError("elimination blow-up; region system too large")
    if any(const < 0 for coeffs, const in cur if all(c == 0 for c in coeffs)):
        return None
    x: list[Fraction] = [Fraction(0)] * n
    for k in range(n):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for coeffs, const in stages[k]:
            a = coeffs[k]
            if a == 0:
                continue
            val = const + sum(
                (coeffs[j] * x[j] for j in range(k) if coeffs[j]), Fraction(0)
            )
            bound = -val / a
            if a > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        if lo is None or hi is None:
            raise AssertionError("unbounded variable; box rows missing")
        if lo > hi:
            return None
        x[k] = (lo + hi) / 2
    return x


def _box_rows(region: PerturbationRegion) -> list[Row]:
    n = region.dim
    rows: list[Row] = []
    for k, (lo, hi) in enumerate(zip(region.lower, region.upper)):
        e = [Fraction(0)] * n
        e[k] = Fraction(1)
        rows.append((tuple(e), -Fraction(lo)))
        e2 = [Fraction(0)] * n
        e2[k] = Fraction(-1)
        rows.append((tuple(e2), Fraction(hi)))
    return rows


# ---------------------------------------------------------------------------
# ball-region feasibility: nearest point in a polytope by least distance
# ---------------------------------------------------------------------------


def _nearest_in_polytope(
    A: np.ndarray, d: np.ndarray, center: np.ndarray
) -> Optional[np.ndarray]:
    """Nearest point of {x : A x >= d} to `center`, or None when the
    least-distance program finds the set empty.

    Least-distance programming (Lawson & Hanson 1974, ch. 23): with
    h = d - A center, E = [A^T; h^T] and f = e_{n+1}, the NNLS residual
    r = E w - f has r[n] < 0 exactly when the set is nonempty, and then
    x = center - r[:n] / r[n]; r = 0 is a Farkas certificate of emptiness.
    """
    from scipy.optimize import nnls  # deferred: keeps `import bnncert.cli` lean

    n = center.shape[0]
    E = np.vstack([A.T, d - A @ center])
    f = np.zeros(n + 1)
    f[n] = 1.0
    w, _ = nnls(E, f)
    r = E @ w - f
    if not r[n] < 0:
        return None
    return center - r[:n] / r[n]


def _ball_feasible(
    rows_A: np.ndarray, rows_d: np.ndarray, region: PerturbationRegion
) -> Optional[np.ndarray]:
    """Witness of {A x >= d} intersected with the l2 region, or None.

    The nearest point x of the cell (the rows plus the region's box rows) to
    the center is accepted when it satisfies every row to within
    1e-9 * (1 + max|d|) and lies within radius * (1 + 1e-9) + 1e-12 of the
    center, so borderline cells that touch the ball are accepted.  A center
    that meets every row in floating point is its own nearest point: the NNLS
    solve starts and stops at w = 0 and returns the center unchanged.
    """
    center = region.center
    A = np.vstack([rows_A, np.eye(region.dim), -np.eye(region.dim)])
    d = np.concatenate([rows_d, region.lower, -region.upper])
    x = _nearest_in_polytope(A, d, center)
    if x is None:
        return None
    on_rows = np.all(A @ x - d >= -1e-9 * (1.0 + np.max(np.abs(d))))
    in_ball = np.linalg.norm(x - center) <= region.radius * (1.0 + 1e-9) + 1e-12
    return x if on_rows and in_ball else None


def _cell_witness(rows: list[Row], region: PerturbationRegion) -> Optional[np.ndarray]:
    """A point of the region that meets every row, or None: Fourier-Motzkin
    with the region's box rows for linf, least distance for l2."""
    if region.kind == "linf":
        x = _fm_witness(rows + _box_rows(region), region.dim)
        return None if x is None else np.array([float(v) for v in x])
    A = np.array([[float(c) for c in coeffs] for coeffs, _ in rows])
    d = np.array([-float(const) for _, const in rows])
    return _ball_feasible(A.reshape(len(rows), region.dim), d, region)


# ---------------------------------------------------------------------------
# the pattern set from the network itself: layer-1 cells, computed completions
# ---------------------------------------------------------------------------


def _layer1_rows(net: FoldedBnn, signs: tuple[int, ...]) -> list[Row]:
    """sigma_j * (<W1_j, x0> + b_j) >= 0 as exact rows over x0."""
    w = net.weight(1)
    b = net.bias(1)
    n0 = net.input_dim
    rows: list[Row] = []
    for j, s in enumerate(signs):
        coeffs = tuple(Fraction(s * int(w[j, k])) for k in range(n0))
        rows.append((coeffs, Fraction(s) * Fraction(b[j])))
    return rows


def _completions(net: FoldedBnn, first: tuple[int, ...]) -> list[Pattern]:
    """Every full pattern with layer-1 signs `first`, in enumeration order.

    A deeper pre-activation z = W s + b is an integer sum plus one rounding
    of b, so its sign is exact; z = 0 admits both signs (closure semantics).
    """
    patterns: list[Pattern] = [(first,)]
    for i in range(2, net.depth + 1):
        w, b = net.weight(i), net.bias(i)
        patterns = [
            p + (layer,)
            for p in patterns
            for layer in itertools.product(
                *[(-1, 1) if z == 0 else (1,) if z > 0 else (-1,) for z in w @ p[-1] + b]
            )
        ]
    return patterns


def feasible_patterns(net: FoldedBnn, region: PerturbationRegion) -> list[PatternRecord]:
    """All feasible patterns with witnesses, in enumeration order.

    Each layer-1 cell is decided once by `_cell_witness` (for l2 in floating
    point, with the slacks of `_ball_feasible`); a feasible cell contributes
    every pattern of `_completions`, all with the cell's witness.
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


def exact_minimum(
    net: FoldedBnn, records: Sequence[PatternRecord], objective: MultilinearPoly
) -> ExactResult:
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
        return Fraction(objective.evaluate(pattern_assignment(net, rec.pattern)))

    rec = min(records, key=value)
    return ExactResult(
        tau=value(rec), minimizer=rec.pattern, witness=rec.witness, n_feasible=len(records)
    )


def exact_verify(
    net: FoldedBnn, region: PerturbationRegion, objective: MultilinearPoly
) -> ExactResult:
    """`exact_minimum` over the region's feasible patterns."""
    return exact_minimum(net, feasible_patterns(net, region), objective)


# ---------------------------------------------------------------------------
# the MILP side of the same pattern question, from the encoded rows
# ---------------------------------------------------------------------------


def milp_feasible_patterns(instance: VerificationInstance) -> list[PatternRecord]:
    """Feasible patterns of a MILP instance, decided from its own rows.

    Fixes +/-1 assignments in the encoded constraints and feeds the
    restricted system to the same polytope deciders as the enumeration
    oracle; the constraint systems themselves are built independently, so
    agreement with `feasible_patterns` is a meaningful exactness check.

    Every MILP row except the l2 ball quadratic is jointly affine in the
    inputs and the binaries, so the rows are split once into an exact input
    part and binary part.  The binaries are fixed one at a time in
    `enumerate_patterns` order.  A row without inputs is evaluated once, when
    its last binary is fixed, and a failing row drops the whole prefix; the
    input rows are decided by `_cell_witness` once, when their last binary
    (at the latest, layer 1's) is fixed.
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
    has_ball = False
    for con in instance.constraints.inequalities:
        if con.poly.degree > 1:
            if region.kind == "l2" and con.family == "region" and con.neuron == 0:
                has_ball = True  # handled by the ball decider below
                continue
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
    if region.kind == "l2" and not has_ball:
        raise ValueError("l2 MILP instance lost its ball row")

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
    """`n` points of the region, one per row, drawn from `rng` in row order."""
    if region.kind == "linf":
        return rng.uniform(region.lower, region.upper, size=(n, region.dim))
    dim = region.dim
    raw = rng.normal(size=(n, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = region.radius * rng.uniform(size=(n, 1)) ** (1.0 / dim)
    pts = region.center + raw / norms * radii
    # clipping to the global box cannot increase the distance to the center
    # (the center lies in the box and coordinate-wise projection is
    # non-expansive), so clipped samples stay inside the region
    return np.clip(pts, -1.0, 1.0)


def sample_logits(
    net: FoldedBnn, region: PerturbationRegion, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded region points, one per row, and their logits.

    Row 0 is the center; `n_samples` points of `sample_region` follow
    (none at radius 0).  The logits come from one batched pass and equal
    `forward`'s byte for byte, so every row is a true network execution and
    min_rows(logits[:, label-1] - logits[:, k-1]) is an upper bound on the
    exact margin against target k.  Deterministic for a fixed seed.
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
