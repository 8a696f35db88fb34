"""First-order sparse pseudo-moment relaxation as a block conic problem.

Every encoding relaxes to one form, whose variables are pseudo-moments y
indexed by monomials of degree at most 2: one variable per network
variable, per clique-covered variable pair, and per input-coordinate square
on a clique.  The constant moment is pinned to 1 and every binary square
collapses to 1, so neither is a variable; shared moments across cliques are
literally the same variable (aliasing), which enforces clique consistency
structurally.

Every constraint polynomial contributes one scalar inequality row, its
linearization L_y(g) >= 0, and each clique contributes one
(|clique|+1)-dimensional PSD block -- its moment matrix over (1, x_clique).
The quadratic encodings (standard and tightened) use
`merge_cliques(build_cliques(net))`: every clique of `build_cliques` repeats
a whole hidden layer, so merging the cliques that share one shrinks the
cone (a 10-8-8-3 net's 18 blocks of order 10, 990 svec rows, become one
block of order 27, 378 rows) without changing the optimum.  The linear
encodings (lp and milp) use no cliques, so their relaxation is the rows
alone.  `MomentIndex.linearize` is the one place where a polynomial becomes
a matrix row.  The optimum of the resulting conic program is a certified
lower bound for the encoded instance.

The conic form keeps its constraint matrix as a `SparseMatrix`: sorted
(row, column, value) triplets with a matrix-vector product and a transpose,
all in numpy.  The problems are small (a 10-8-8-3 net has about 360
columns), so a general sparse library buys nothing here, and importing
`scipy.sparse` alone costs a verify process more time than a small solve.

This module also hosts two small analytic constructions used to compare the
relaxation against the LP bound (`sdp_below_lp_witness`,
`tightened_gap_witness`), SDPA ".dat-s" export/ingest, and the MPS export of
the MILP encoding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from bnncert.encode import (
    Clique,
    NeuronRow,
    VerificationInstance,
    _round_toward,
    build_cliques,
    merge_cliques,
    neuron_rows,
)
from bnncert.model import FoldedBnn
from bnncert.poly import MultilinearPoly, Var

__all__ = [
    "ConicProblem",
    "MomentIndex",
    "MomentSdp",
    "MomentWitness",
    "SdpaProblem",
    "SparseMatrix",
    "assemble_moment_sdp",
    "export_sdpa",
    "read_sdpa",
    "sdp_below_lp_witness",
    "smat",
    "svec",
    "tightened_gap_witness",
    "to_conic",
    "write_mps",
]

SQRT2 = math.sqrt(2.0)

# An exact coefficient of a linearized row
Exact = Union[int, Fraction]

# Moment keys: () constant, (v,) single, (v, w) sorted distinct pair,
# (v, v) input-coordinate square.
MomentKey = tuple


class MomentIndex:
    """Canonical id per degree-<=2 monomial of a relaxation: one per variable
    (of `variables` or of a clique), and the input squares and variable pairs
    of the clique blocks.

    Id 0 is the constant; binary squares are not indexed (they are the
    constant 1 after substitution).  Input squares are indexed: they sit on
    input-clique diagonals and appear in ball/box region rows.
    """

    def __init__(self, cliques: Sequence[Clique], variables: Sequence[Var]):
        singles: set[MomentKey] = {(v,) for v in variables}
        pairs: set[MomentKey] = set()
        squares: set[MomentKey] = set()
        for clique in cliques:
            vs = clique.variables
            for v in vs:
                singles.add((v,))
                if v.layer == 0:
                    squares.add((v, v))
            # a clique's variables are sorted, so each pair is a sorted key
            for a in range(len(vs)):
                for b in range(a + 1, len(vs)):
                    pairs.add((vs[a], vs[b]))
        order: list[MomentKey] = [()]
        order.extend(sorted(singles))
        order.extend(sorted(squares))
        order.extend(sorted(pairs))
        self.order: tuple[MomentKey, ...] = tuple(order)
        self.ids: dict[MomentKey, int] = {key: i for i, key in enumerate(order)}
        self.n_singles = len(singles)
        self.n_pairs = len(pairs)
        self.n_input_squares = len(squares)

    @property
    def canonical_count(self) -> int:
        """Constant + singles + distinct-variable pairs (square ids excluded)."""
        return 1 + self.n_singles + self.n_pairs

    @property
    def total_count(self) -> int:
        return len(self.order)

    def resolve(self, mono) -> Optional[MomentKey]:
        """Map a monomial to its key; None means the constant 1, which is
        also what a binary square is (x^2 = 1 is applied here, and only here,
        in linearization).

        `mono` is in `MultilinearPoly`'s normal form (sorted, each variable
        once), so a product of two variables is already its sorted pair key.
        Raises on monomials outside the degree-2 clique-covered structure,
        naming the offending variables.
        """
        if not mono:
            return None
        if len(mono) == 1:
            v, e = mono[0]
            if e == 1:
                key = (v,)
            elif e == 2 and v.layer == 0:
                key = (v, v)
            elif e == 2:
                return None  # binary square == 1
            else:
                raise ValueError(f"monomial degree too high: {v}^{e}")
            if key not in self.ids:
                name = f"{v}^2" if e == 2 else f"{v}"
                raise ValueError(f"monomial {name} not covered by any clique")
            return key
        if len(mono) == 2 and mono[0][1] == 1 and mono[1][1] == 1:
            key = (mono[0][0], mono[1][0])
            if key not in self.ids:
                raise ValueError(
                    f"variable pair ({key[0]}, {key[1]}) not covered by any clique"
                )
            return key
        raise ValueError(f"monomial not representable at order 1: {mono}")

    def linearize(self, poly: MultilinearPoly) -> tuple[Exact, dict[int, Exact]]:
        """L_y(poly): constant part plus coefficients over moment ids, as
        exact numbers.

        In normal form distinct monomials resolve to distinct moment ids, so
        each id takes one coefficient as stored; only the constant monomial
        and binary squares, which all resolve to the constant, are summed.
        """
        const: Exact = 0
        coeffs: dict[int, Exact] = {}
        for mono, coeff in poly.terms.items():
            key = self.resolve(mono)
            if key is None:
                const += coeff
            else:
                coeffs[self.ids[key]] = coeff
        return const, coeffs


@dataclass(frozen=True)
class MomentSdp:
    """Assembled block problem: per-clique PSD moment blocks + scalar rows."""

    index: MomentIndex
    cliques: tuple[Clique, ...]
    block_fixed: tuple[np.ndarray, ...]  # constant part of each block
    block_entries: tuple[tuple[tuple[int, int, int], ...], ...]  # (p, q, id), p <= q
    rows: tuple[tuple[Exact, tuple[tuple[int, Exact], ...]], ...]
    objective_const: Exact
    objective: tuple[tuple[int, Exact], ...]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.block_fixed)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def assemble_moment_sdp(
    instance: VerificationInstance, cliques: Optional[Sequence[Clique]] = None
) -> MomentSdp:
    """Build the order-1 relaxation of an instance of any encoding kind.

    By default a linear instance (lp, milp) gets no cliques, so no PSD
    blocks, and a quadratic one gets `merge_cliques(build_cliques(net))`.
    """
    if cliques is None:
        linear = instance.encoding_kind in ("lp", "milp")
        cliques = () if linear else merge_cliques(build_cliques(instance.net))
    cliques = tuple(cliques)
    index = MomentIndex(cliques, instance.variables())

    block_fixed = []
    block_entries = []
    for clique in cliques:
        vs = clique.variables
        s = len(vs) + 1
        fixed = np.zeros((s, s))
        fixed[0, 0] = 1.0
        entries: list[tuple[int, int, int]] = []
        for p, v in enumerate(vs, start=1):
            entries.append((0, p, index.ids[(v,)]))
            if v.layer == 0:
                entries.append((p, p, index.ids[(v, v)]))
            else:
                fixed[p, p] = 1.0
        for p in range(len(vs)):
            for q in range(p + 1, len(vs)):
                entries.append((p + 1, q + 1, index.ids[vs[p], vs[q]]))
        block_fixed.append(fixed)
        block_entries.append(tuple(entries))

    rows = []
    for c in instance.constraints.inequalities:
        const, coeffs = index.linearize(c.poly)
        rows.append((const, tuple(sorted(coeffs.items()))))
    obj_const, obj_coeffs = index.linearize(instance.objective)
    return MomentSdp(
        index=index,
        cliques=cliques,
        block_fixed=tuple(block_fixed),
        block_entries=tuple(block_entries),
        rows=tuple(rows),
        objective_const=obj_const,
        objective=tuple(sorted(obj_coeffs.items())),
    )


# ---------------------------------------------------------------------------
# conic form
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _svec_map(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row/column of each svec position (row-major upper triangle) and the
    factor that entry carries: 1 on the diagonal, sqrt(2) off it."""
    rows, cols = np.triu_indices(s)
    maps = (rows, cols, np.where(rows == cols, 1.0, SQRT2))
    for a in maps:  # shared by every caller through the cache
        a.setflags(write=False)
    return maps


def svec(M: np.ndarray) -> np.ndarray:
    """Symmetric vectorization, row-major upper triangle, off-diagonals * sqrt(2).

    Broadcasts over leading axes: `M[..., s, s]` maps to `[..., s(s+1)/2]`.
    """
    rows, cols, scale = _svec_map(M.shape[-1])
    return M[..., rows, cols] * scale


def smat(vec: np.ndarray, s: int) -> np.ndarray:
    """Inverse of `svec`; broadcasts `vec[..., s(s+1)/2]` to `[..., s, s]`."""
    rows, cols, scale = _svec_map(s)
    vals = vec / scale
    M = np.empty(vec.shape[:-1] + (s, s))
    M[..., rows, cols] = vals
    M[..., cols, rows] = vals
    return M


def _dense(n: int, terms) -> np.ndarray:
    """The length-n vector of linearized `terms` (moment id, coefficient):
    moment id i is column i-1 (the constant id 0 is not a variable)."""
    vec = np.zeros(n)
    for idx, coeff in terms:
        vec[idx - 1] = float(coeff)
    return vec


def _svec_pos(s: int, p: int, q: int) -> int:
    """Position of entry (p, q), p <= q, in the svec of a size-s matrix."""
    return p * s - p * (p - 1) // 2 + (q - p)


class SparseMatrix:
    """An m x n matrix stored as (row, col, data) triplets sorted by row,
    then by column, in read-only arrays.  `A @ x` is one weighted
    `np.bincount`, so each row's terms are summed in column order, and `A.T`
    is the transpose."""

    __slots__ = ("row", "col", "data", "shape")

    def __init__(self, row, col, data, shape: tuple[int, int]):
        row = np.asarray(row, dtype=np.intp)
        col = np.asarray(col, dtype=np.intp)
        order = np.lexsort((col, row))
        self.row, self.col = row[order], col[order]
        self.data = np.asarray(data, dtype=float)[order]
        self.shape = (int(shape[0]), int(shape[1]))
        for a in (self.row, self.col, self.data):
            a.setflags(write=False)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row, weights=self.data * x[self.col], minlength=self.shape[0])

    @property
    def T(self) -> "SparseMatrix":
        return SparseMatrix(self.col, self.row, self.data, self.shape[::-1])


@dataclass(frozen=True)
class ConicProblem:
    """min c0 + c^T y  s.t.  b - A y in (R+)^n_nonneg x PSD(s_1) x ... x PSD(s_k).

    `A` is a `SparseMatrix`.  Its rows are ordered: the nonnegative rows
    first, then each PSD block's svec rows.  Column j corresponds to moment
    id j+1 of `index` (the constant id 0 is not a variable).
    """

    A: SparseMatrix
    b: np.ndarray
    c: np.ndarray
    c0: float
    n_nonneg: int
    psd_sizes: tuple[int, ...]
    index: MomentIndex

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def block_offsets(self) -> list[int]:
        """Start row of each PSD block's svec segment."""
        offsets = []
        pos = self.n_nonneg
        for s in self.psd_sizes:
            offsets.append(pos)
            pos += s * (s + 1) // 2
        return offsets

    def with_objective(self, objective: MultilinearPoly) -> "ConicProblem":
        """This problem with the cost c0 + c^T y of `objective`.

        A, b and the cones are shared (the same objects), so one solver
        setup serves every objective.
        """
        const, coeffs = self.index.linearize(objective)
        return replace(self, c=_dense(self.n_vars, coeffs.items()), c0=float(const))

    def split_cone_vector(self, vec: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Split a cone-space vector into (nonneg part, PSD matrices)."""
        nonneg = vec[: self.n_nonneg].copy()
        mats = []
        pos = self.n_nonneg
        for s in self.psd_sizes:
            ln = s * (s + 1) // 2
            mats.append(smat(vec[pos : pos + ln], s))
            pos += ln
        return nonneg, mats


def to_conic(msdp: MomentSdp) -> ConicProblem:
    """Materialize the block problem in sparse conic form."""
    n_vars = msdp.index.total_count - 1  # constant is not a variable

    rows_i: list[int] = []
    cols_j: list[int] = []
    vals: list[float] = []
    b_parts = [np.array([float(const) for const, _ in msdp.rows], dtype=float)]

    for r, (_, coeffs) in enumerate(msdp.rows):
        for idx, coeff in coeffs:
            rows_i.append(r)
            cols_j.append(idx - 1)
            vals.append(-float(coeff))

    r = msdp.n_rows
    for fixed, entries in zip(msdp.block_fixed, msdp.block_entries):
        s = fixed.shape[0]
        b_parts.append(svec(fixed))
        for p, q, idx in entries:
            pos = r + _svec_pos(s, p, q)
            rows_i.append(pos)
            cols_j.append(idx - 1)
            vals.append(-1.0 if p == q else -SQRT2)
        r += s * (s + 1) // 2

    A = SparseMatrix(rows_i, cols_j, vals, (r, n_vars))
    return ConicProblem(
        A=A,
        b=np.concatenate(b_parts),
        c=_dense(n_vars, msdp.objective),
        c0=float(msdp.objective_const),
        n_nonneg=msdp.n_rows,
        psd_sizes=msdp.block_sizes,
        index=msdp.index,
    )


# ---------------------------------------------------------------------------
# analytic witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentWitness:
    """An explicit pseudo-moment matrix over one clique (1, clique variables).

    `matrix[0,0]` is the constant moment; `variables[p-1]` labels row/column p.
    `objective` is the polynomial whose pseudo-expectation the construction
    pins down; `params` carries any analytic scalars of the construction.
    """

    variables: tuple[Var, ...]
    matrix: np.ndarray
    objective: MultilinearPoly
    params: dict

    def moment_value(self, poly: MultilinearPoly) -> float:
        """Pseudo-expectation of a degree-<=2 polynomial over this block."""
        return float(self.moment_value_exact(poly))

    def moment_value_exact(self, poly: MultilinearPoly) -> Fraction:
        """Pseudo-expectation in exact rational arithmetic (binary64 entries
        are dyadic rationals, so matrices built from exact data evaluate
        exactly)."""
        pos = {v: p for p, v in enumerate(self.variables, start=1)}
        total = Fraction(0)
        for mono, coeff in poly.reduce_binary_squares().terms.items():
            if not mono:
                total += coeff * Fraction(self.matrix[0, 0])
            elif len(mono) == 1 and mono[0][1] == 1:
                total += coeff * Fraction(self.matrix[0, pos[mono[0][0]]])
            elif len(mono) == 1 and mono[0][1] == 2:
                p = pos[mono[0][0]]
                total += coeff * Fraction(self.matrix[p, p])
            elif len(mono) == 2:
                p, q = pos[mono[0][0]], pos[mono[1][0]]
                total += coeff * Fraction(self.matrix[p, q])
            else:
                raise ValueError(f"monomial outside the block: {mono}")
        return total

    def eigmin(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def _witness_clique(
    net: FoldedBnn, neuron: int
) -> tuple[NeuronRow, np.ndarray, tuple[Var, ...]]:
    """The `NeuronRow` of last-hidden-layer `neuron` (1-based), its weight row
    as floats, and its clique: the previous layer, then the neuron."""
    net.require_stabilized()
    L = net.depth
    if L < 2:
        raise ValueError("construction needs at least two hidden layers")
    rows = neuron_rows(net, L)
    if not 1 <= neuron <= len(rows):
        raise ValueError(f"neuron {neuron} outside 1..{len(rows)} of layer {L}")
    row = rows[neuron - 1]
    wf = net.weight(L)[neuron - 1].astype(float)
    vs = tuple(Var(L - 1, k) for k in range(1, wf.shape[0] + 1)) + (row.var,)
    return row, wf, vs


def sdp_below_lp_witness(net: FoldedBnn, neuron: int = 1) -> MomentWitness:
    """A pseudo-moment matrix on which the order-1 relaxation undercuts the LP.

    For the normalized linear envelope of one last-hidden-layer neuron as
    objective -- a polynomial that is one of the LP rows scaled positive, so
    the LP bound is >= 0 -- the returned matrix is feasible for the standard
    order-1 relaxation restricted to its clique and evaluates the objective
    to exactly -1.

    Construction: pseudo-means of the predecessor layer equal the weight row,
    the neuron's own mean is 0, predecessor pair moments are the rank-1
    products (diagonal lifted to 1 where the weight is zero), and all
    cross-moments with the neuron vanish.
    """
    row, wf, vs = _witness_clique(net, neuron)
    m = wf.shape[0]

    M = np.zeros((m + 2, m + 2))
    M[0, 0] = 1.0
    M[0, 1 : m + 1] = wf
    M[1 : m + 1, 0] = wf
    inner = np.outer(wf, wf)
    np.fill_diagonal(inner, 1.0)
    M[1 : m + 1, 1 : m + 1] = inner
    M[m + 1, m + 1] = 1.0

    c_plus, _ = row.envelope_slopes()
    return MomentWitness(
        variables=vs,
        matrix=M,
        objective=row.unit_envelopes()[0],
        params={"c_plus": float(c_plus)},
    )


def tightened_gap_witness(net: FoldedBnn, neuron: int = 1) -> MomentWitness:
    """A standard-feasible pseudo-moment matrix that the row-bound products cut.

    Same clique and objective as `sdp_below_lp_witness`, but with correlated
    moments: predecessor means a*w, neuron/predecessor cross-moments t*w,
    with a chosen so the matrix stays PSD with spectrum {0 x m, 1, nv+1} and
    the objective strictly negative; the row-bound product rows evaluate
    negative on it, so the tightened relaxation excludes the matrix while the
    standard one admits it.  The construction needs |bias| < nv; the tie
    bias = -nv, which a stabilized net keeps, raises `ValueError`.
    """
    row, wf, vs = _witness_clique(net, neuron)
    objective = row.unit_envelopes()[0]
    nv, b = float(row.row_bound), float(row.beta)
    a = 0.5 * math.sqrt(2.0 - (b / nv) ** 2) - b / (2.0 * nv)
    t = math.sqrt(1.0 - a * a)
    m = wf.shape[0]

    M = np.zeros((m + 2, m + 2))
    M[0, 0] = 1.0
    M[0, 1 : m + 1] = a * wf
    M[1 : m + 1, 0] = a * wf
    M[1 : m + 1, 1 : m + 1] = np.outer(wf, wf)
    M[1 : m + 1, m + 1] = t * wf
    M[m + 1, 1 : m + 1] = t * wf
    M[m + 1, m + 1] = 1.0

    value = -(nv / (nv + b)) * (math.sqrt(2.0 - (b / nv) ** 2) - 1.0)
    return MomentWitness(
        variables=vs,
        matrix=M,
        objective=objective,
        params={"a": a, "t": t, "objective_value": value, "nv": nv, "bias": b},
    )


# ---------------------------------------------------------------------------
# SDPA exchange format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SdpaProblem:
    """Parsed ".dat-s" content: sizes, objective, and coefficient entries."""

    n_constraints: int
    block_sizes: tuple[int, ...]
    objective: np.ndarray
    entries: dict  # (matno, blockno, i, j) -> value; 1-based, i <= j
    objective_const: float = 0.0


def export_sdpa(msdp: MomentSdp, path) -> None:
    """Write the block problem as a sparse SDPA ".dat-s" file.

    Variables are the moment ids; matrix 0 holds the negated fixed parts, and
    matrix alpha the coefficient pattern of moment variable alpha.  Clique
    blocks come first (positive sizes), then one diagonal block bundling all
    scalar inequality rows (negative size).  The objective constant, which the
    format cannot carry, is recorded on a comment line and restored by
    `read_sdpa`.
    """
    n_vars = msdp.index.total_count - 1
    n_rows = msdp.n_rows
    if n_vars == 0 or (not msdp.block_fixed and n_rows == 0):
        raise ValueError("nothing to export")
    sizes = [str(s) for s in msdp.block_sizes]
    if n_rows:
        sizes.append(str(-n_rows))
    lines = []
    lines.append(f'"objective constant: {float(msdp.objective_const)!r}')
    lines.append('"problem: order-1 moment relaxation (minimization)')
    lines.append(f"{n_vars}")
    lines.append(f"{len(sizes)}")
    lines.append(" ".join(sizes))
    lines.append(" ".join(repr(float(v)) for v in _dense(n_vars, msdp.objective)))

    def entry(matno: int, blk: int, i: int, j: int, val: float) -> None:
        if val != 0.0:
            lines.append(f"{matno} {blk} {i} {j} {val!r}")

    # matrix 0: F_0 = -fixed parts (so that sum y_a F_a - F_0 reproduces blocks)
    for k, fixed in enumerate(msdp.block_fixed, start=1):
        s = fixed.shape[0]
        for p in range(s):
            for q in range(p, s):
                entry(0, k, p + 1, q + 1, -float(fixed[p, q]))
    lp_block = len(msdp.block_fixed) + 1
    for r, (const, _) in enumerate(msdp.rows, start=1):
        entry(0, lp_block, r, r, -float(const))
    # matrices alpha: entries of each moment variable
    per_var: dict[int, list[tuple[int, int, int, float]]] = {}
    for k, entries in enumerate(msdp.block_entries, start=1):
        for p, q, idx in entries:
            per_var.setdefault(idx, []).append((k, p + 1, q + 1, 1.0))
    for r, (_, coeffs) in enumerate(msdp.rows, start=1):
        for idx, coeff in coeffs:
            per_var.setdefault(idx, []).append((lp_block, r, r, float(coeff)))
    for idx in sorted(per_var):
        for blk, i, j, val in per_var[idx]:
            entry(idx, blk, i, j, val)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sdpa(path) -> SdpaProblem:
    """Parse a sparse SDPA file written by `export_sdpa` (or compatible)."""
    objective_const = 0.0
    header: list[str] = []
    entries: dict = {}
    with open(path, "r") as fh:
        raw = [ln.strip() for ln in fh]
    body: list[str] = []
    for ln in raw:
        if not ln:
            continue
        if ln.startswith('"') or ln.startswith("*"):
            marker = "objective constant:"
            if marker in ln:
                objective_const = float(ln.split(marker, 1)[1].strip())
            continue
        body.append(ln)
    if len(body) < 4:
        raise ValueError(f"SDPA file {path}: truncated header")
    n_constraints = int(body[0].split()[0])
    n_blocks = int(body[1].split()[0])
    sizes = tuple(
        int(tok.strip("(){},")) for tok in body[2].replace(",", " ").split()
    )[:n_blocks]
    if len(sizes) < n_blocks:
        raise ValueError(f"SDPA file {path}: {n_blocks} blocks but {len(sizes)} sizes")
    objective = np.array([float(tok) for tok in body[3].replace(",", " ").split()])
    if objective.shape[0] != n_constraints:
        raise ValueError(f"SDPA file {path}: objective length mismatch")
    for ln in body[4:]:
        toks = ln.split()
        if len(toks) != 5:
            raise ValueError(f"SDPA file {path}: bad entry line {ln!r}")
        matno, blk, i, j = (int(t) for t in toks[:4])
        val = float(toks[4])
        key = (matno, blk, i, j)
        if not (0 <= matno <= n_constraints and 1 <= blk <= n_blocks):
            raise ValueError(f"SDPA file {path}: entry {key} outside the header's matrices")
        size = sizes[blk - 1]
        if not (1 <= i <= abs(size) and 1 <= j <= abs(size)) or (size < 0 and i != j):
            raise ValueError(f"SDPA file {path}: entry {key} outside its block")
        # one symmetric element: a lower-triangle entry reads as its mirror
        key = (matno, blk, min(i, j), max(i, j))
        if key in entries:
            raise ValueError(f"SDPA file {path}: duplicate entry {key}")
        entries[key] = val
    return SdpaProblem(
        n_constraints=n_constraints,
        block_sizes=sizes,
        objective=objective,
        entries=entries,
        objective_const=objective_const,
    )


# ---------------------------------------------------------------------------
# MPS export of the MILP encoding
# ---------------------------------------------------------------------------


def _mps_name(v: Var) -> str:
    return f"Z{v.layer}_{v.index}"


def _shifted_row(const, coeffs) -> tuple[dict[int, float], float]:
    """The row const + sum_v a_v x_v >= 0 over z = (x + 1)/2 in binary64:
    sum_v 2 a_v z_v >= sum_v a_v - const, each 2 a_v rounded to nearest and
    the right-hand side lowered by the most those roundings can take away
    over [0, 1], then rounded down.  So at every z in [0, 1] the written
    row's slack is at least the exact one's: every z that meets the exact
    row meets the written one."""
    written, rhs = {}, -Fraction(const)
    for idx, a in coeffs:
        a = Fraction(a)
        rhs += a
        if a:
            written[idx] = float(2 * a)
            rhs += min(0, Fraction(written[idx]) - 2 * a)
    return written, _round_toward(rhs.numerator, rhs.denominator, -math.inf)


def write_mps(instance: VerificationInstance, path) -> None:
    """Write the MILP encoding as an MPS file over shifted variables.

    Every variable x in [-1,1] is written as z = (x+1)/2 in [0,1]; hidden
    variables are declared integer (hence binary).  The leading comment block
    records the affine map and the objective constant.  Rows are all of type
    G (>=) after the shift, each rounded so that it keeps every exact point
    (`_shifted_row`), and the objective is rounded so that it lies nowhere
    above the exact one on [0, 1]: a solver's optimum plus the constant is
    at most the exact minimum.  The region's box is written as the inputs' BOUNDS,
    rounded outward, and not repeated as rows.
    """
    if instance.encoding_kind != "milp":
        raise ValueError("only the MILP encoding exports to MPS")
    for c in instance.constraints.inequalities:
        if c.poly.degree > 1:
            raise ValueError(
                "quadratic region constraint cannot be exported in a linear format; "
                "use an linf region"
            )
    msdp = assemble_moment_sdp(instance)
    # without cliques the moment ids past the constant are the variables
    variables = tuple(key[0] for key in msdp.index.order[1:])
    rows = [
        _shifted_row(*row)
        for row, c in zip(msdp.rows, instance.constraints.inequalities)
        if c.family != "region"
    ]
    # the objective goes in as the row -objective >= 0, whose written slack
    # is nowhere below the exact one (`_shifted_row`): negated back, the
    # written objective is nowhere above the exact one on [0, 1]
    negated, obj_const_z = _shifted_row(
        -msdp.objective_const, [(idx, -a) for idx, a in msdp.objective]
    )
    binaries = set(instance.binary_vars)
    row_names = [f"R{r+1:06d}" for r in range(len(rows))]
    entries: list[list] = [[] for _ in variables]
    for idx, w in negated.items():
        entries[idx - 1].append(("OBJ", -w))
    for name, (written, _) in zip(row_names, rows):
        for idx, w in written.items():
            entries[idx - 1].append((name, w))
    lines: list[str] = []
    lines.append("* Linear robustness encoding; variables shifted by x = 2z - 1.")
    lines.append("* Original variables lie in [-1,1]; integer z columns are the")
    lines.append("* hidden +/-1 activations (x = -1 <-> z = 0, x = +1 <-> z = 1).")
    lines.append(f"* Objective constant (add to solver optimum): {obj_const_z!r}")
    lines.append("* The constant is also encoded as RHS on the objective row")
    lines.append("* with the usual sign convention (rhs = -constant).")
    for v in variables:
        kind = "integer" if v in binaries else "continuous"
        lines.append(f"* map {_mps_name(v)} <-> x[{v.layer},{v.index}] ({kind})")
    lines += ["NAME          ROBUST", "ROWS", " N  OBJ", *(f" G  {n}" for n in row_names)]
    lines.append("COLUMNS")
    # integer columns go between the markers, continuous ones after them
    columns: dict[bool, list[str]] = {True: [], False: []}
    for j, v in enumerate(variables):
        columns[v in binaries] += [f"    {_mps_name(v):<10}{r:<10}{a!r}" for r, a in entries[j]]
    if any(v in binaries for v in variables):
        lines.append("    MK0001    'MARKER'                 'INTORG'")
        lines += columns[True]
        lines.append("    MK0002    'MARKER'                 'INTEND'")
    lines += columns[False]
    lines.append("RHS")
    if obj_const_z != 0.0:
        lines.append(f"    RHS       OBJ       {-obj_const_z!r}")
    for name, (_, rhs) in zip(row_names, rows):
        if rhs != 0.0:
            lines.append(f"    RHS       {name:<10}{rhs!r}")
    lines.append("BOUNDS")
    region = instance.region
    den = 2 * region.box_den  # z = (x + 1) / 2
    for v in variables:
        name = _mps_name(v)
        if v in binaries:
            lines.append(f" BV BND       {name}")
        else:  # an input: the region's exact interval, shifted, rounded outward
            lo = _round_toward(region.box_lower[v.index - 1] + region.box_den, den, -math.inf)
            hi = _round_toward(region.box_upper[v.index - 1] + region.box_den, den, math.inf)
            lines.append(f" LO BND       {name:<10}{lo!r}")
            lines.append(f" UP BND       {name:<10}{hi!r}")
    lines.append("ENDATA")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
