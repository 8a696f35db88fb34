"""Operator-splitting solver for the block conic problems, plus certificate
rigorization.

One code path serves both the LP relaxation (no PSD blocks) and the moment
SDPs.  The iteration alternates a least-squares affine step with a projection
onto the cone product; the scaled dual variable is, by construction, always a
member of the dual cone (clipping for the nonnegative rows, an eigenvalue
floor for PSD blocks), so the final iterate doubles as a certificate:
nonnegative multipliers for the scalar rows and one Gram matrix per clique
block.  The PSD blocks are grouped by size, and each group carries the index
maps between the cone vector and its stacked matrices, built once per
problem in `conic_setup`.  Each iteration then projects every group with
one gather, one stacked `eigh`, one product and one scatter (a moment
relaxation has one to a few sizes), bit for bit the per-block smat -> eigh
-> svec loop; the affine step runs in buffers allocated once per solve.

Everything that depends only on `A` -- the equilibration, the scaled matrix,
the normal-equation factorization and the size groups with their maps -- is
a `ConicSetup`, built once by `conic_setup` and shared by problems that
differ only in their objective (the attack targets of one query).  All of
it runs on numpy arrays: `A` is a `SparseMatrix` of sorted triplets.  A row
of `A` that holds one entry (every PSD row of a moment relaxation, the LP's
box and interval rows) adds only to the diagonal of A^T A, so A^T A is a
diagonal plus the low-rank term of the other rows.  The matrix inversion
lemma solves the normal equations through a dense matrix with one row per
such row (the capacitance matrix, as in CDCS: Zheng et al. 2020), inverted
once; see `_make_solver`.

A caller that only needs a verdict passes `solve_conic` a `settled`
callback: at each convergence check whose float screen could certify, the
current iterate is offered to it, and the solve stops with status "settled"
as soon as it accepts.

`rigorous_lower_bound` turns that approximate certificate into a bound that
holds despite floating-point error: the certificate combination is expanded
exactly, reduced modulo x^2 = 1, and the leftover polynomial is bounded
coefficient-wise using |x| <= 1 for every variable.  The expansion runs in
Python integers at one common scale (binary64 values are dyadic rationals),
over numbered reduced monomials.  The Gram entries' monomials are numbered
once per clique cover (`_gram_numbering`), so every target and settled
check of one relaxation reads that numbering; a Gram entry's monomial is
built and reduced by `poly.mono_mul` and `poly.reduce_mono`, the algebra of
every exact polynomial.  Each Gram upper triangle becomes integers once,
at that scale, and the expansion, the PSD proof and its disproof all read
that one image: a block costs nothing when a fraction-free integer LDL^T
proves it PSD, and pays an eigenvalue-deficit term otherwise; an exact
negative Rayleigh quotient disproves PSD-ness before the factorization
runs.  Everything here is deterministic: same problem, same options,
bit-identical output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from bnncert.encode import EXACT_PSD_ORDER, Clique, VerificationInstance, _round_toward
from bnncert.poly import mono_mul, reduce_mono
from bnncert.sdp import (
    ConicProblem,
    SparseMatrix,
    _svec_map,
    assemble_moment_sdp,
    # unused here; perfbench's tracer counts calls through solver.smat/svec
    smat,
    svec,
    to_conic,
)

__all__ = [
    "ConicSetup",
    "RigorousBound",
    "SolveOptions",
    "SolveResult",
    "conic_setup",
    "rigorous_lower_bound",
    "solve_conic",
    "solve_lp",
]


#: iterations between convergence checks; a divisor of 200, so the
#: every-200 residual balancing falls on a check
CHECK_EVERY = 25
#: Ruiz scaling sweeps of `_equilibrate`
EQUILIBRATE_SWEEPS = 10
#: entry pairs `_gram` forms at a time
GRAM_PAIRS = 1 << 16


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 50000

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome with the full approximate primal/dual pair.

    `sigmas` are the multipliers of the scalar inequality rows (entrywise
    nonnegative up to projection roundoff) and `grams` the dual PSD blocks,
    both in problem row order; together with `primal_objective` and
    `dual_objective` they form the approximate certificate consumed by
    `rigorous_lower_bound`.
    """

    status: str  # optimal | settled | max_iter
    primal_objective: float
    dual_objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    gap: float
    y: np.ndarray
    slack_nonneg: np.ndarray
    slack_psd: tuple[np.ndarray, ...]
    sigmas: np.ndarray
    grams: tuple[np.ndarray, ...]
    options: SolveOptions


@dataclass(frozen=True)
class RigorousBound:
    """A floor under the true optimum, valid despite solver inexactness.

    value = anchor - coefficient_residual - sum(eigenvalue_deficits), where
    the anchor is the exact-rational evaluation of the certificate's constant
    term.  All three reductions are themselves outward-rounded.
    """

    value: float
    anchor: float
    coefficient_residual: float
    eigenvalue_deficits: tuple[float, ...]

    @property
    def budget(self) -> float:
        """coefficient_residual + sum(eigenvalue_deficits), summed exactly
        and rounded up: no less than what `value` subtracts from the anchor."""
        exact = sum(map(Fraction, self.eigenvalue_deficits), Fraction(self.coefficient_residual))
        return _round_toward(exact.numerator, exact.denominator, math.inf)


# ---------------------------------------------------------------------------
# cone projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PsdGroup:
    """The PSD blocks of one size and the index maps of their projection.

    `rows[b]` holds the cone rows of the group's b-th block.  On the way in,
    `w[gather] / divisor` is the stack of the blocks' symmetric matrices:
    entries (p, q) and (q, p) read the same svec row and divide by its svec
    factor.  On the way back, `upper` and `lower` are the flat positions of
    entries (p, q) and (q, p), p <= q, of each block's svec position in the
    stacked matrices, in `rows` order, and `scale` the svec factor of each.
    """

    size: int
    rows: np.ndarray
    gather: np.ndarray
    divisor: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    scale: np.ndarray


def _psd_groups(problem: ConicProblem) -> list[_PsdGroup]:
    """PSD blocks grouped by size, each group with its projection maps."""
    starts: dict[int, list[int]] = {}
    for size, start in zip(problem.psd_sizes, problem.block_offsets()):
        starts.setdefault(size, []).append(start)
    groups = []
    for size, offsets in starts.items():
        rows = np.add.outer(offsets, np.arange(size * (size + 1) // 2))
        p, q, scale = _svec_map(size)
        # the svec position of every matrix entry, (p, q) and (q, p) alike
        position = np.empty((size, size), dtype=np.intp)
        position[p, q] = position[q, p] = np.arange(p.size)
        blocks = np.arange(len(offsets))[:, None] * (size * size)
        groups.append(_PsdGroup(
            size=size,
            rows=rows,
            gather=rows[:, position],
            divisor=scale[position],
            upper=blocks + (p * size + q),
            lower=blocks + (q * size + p),
            scale=scale,
        ))
    return groups


def _project_cone(
    w: np.ndarray,
    n_nonneg: int,
    groups: Sequence[_PsdGroup],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Projection onto (R+)^n_nonneg x PSD blocks, into `out` if given.

    Per group of equal-size blocks (see `_psd_groups`, whose maps
    `conic_setup` builds once per problem): one gather-and-divide into the
    stacked matrices, one stacked `eigh`, one product V diag(max(lam, 0))
    V^T and one symmetrized scatter back to svec form.  Bit for bit the
    per-block smat -> eigh -> svec of (P + P^T) / 2.
    """
    s = np.empty_like(w) if out is None else out
    np.maximum(w[:n_nonneg], 0.0, out=s[:n_nonneg])
    for g in groups:
        lam, V = np.linalg.eigh(w[g.gather] / g.divisor)
        np.maximum(lam, 0.0, out=lam)
        P = ((V * lam[:, None, :]) @ V.transpose(0, 2, 1)).reshape(-1)
        s[g.rows] = (P[g.upper] + P[g.lower]) * 0.5 * g.scale
    return s


# ---------------------------------------------------------------------------
# equilibration
# ---------------------------------------------------------------------------


def _row_groups(
    n_nonneg: int, psd_sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the maximal row ranges that must share one scale:
    one per nonnegative row, one per PSD block (PSD blocks are rigid)."""
    lengths = np.array(
        [1] * n_nonneg + [size * (size + 1) // 2 for size in psd_sizes], dtype=np.intp
    )
    starts = np.zeros_like(lengths)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts, lengths


def _equilibrate(problem: ConicProblem):
    """Ruiz-style scaling with cone-respecting row groups; returns (E, D)."""
    A = problem.A
    m, n = A.shape
    E = np.ones(m)
    D = np.ones(n)
    starts, lengths = _row_groups(problem.n_nonneg, problem.psd_sizes)
    absA = np.abs(A.data)
    for _ in range(EQUILIBRATE_SWEEPS):
        rmax = np.zeros(m)
        np.maximum.at(rmax, A.row, absA)
        g = np.maximum.reduceat(rmax, starts)
        e = np.repeat(1.0 / np.sqrt(np.where(g > 0, g, 1.0)), lengths)
        cmax = np.zeros(n)
        np.maximum.at(cmax, A.col, absA)
        d = np.where(cmax > 0, 1.0 / np.sqrt(cmax), 1.0)
        absA = (e[A.row] * absA) * d[A.col]
        E *= e
        D *= d
    return E, D


# ---------------------------------------------------------------------------
# main iteration
# ---------------------------------------------------------------------------


def _gram(M: SparseMatrix) -> np.ndarray:
    """Dense M^T M, summed from each row's outer product: every entry is
    paired with each entry of its own row.  Rows are taken in runs of at
    most `GRAM_PAIRS` pairs (a longer row alone), so the pair arrays stay
    bounded however many pairs M holds; `_make_solver` forms C with it."""
    m, n = M.shape
    counts = np.bincount(M.row, minlength=m)
    ends = np.cumsum(counts)
    pairs = np.cumsum(counts * counts)
    gram = np.zeros(n * n)
    r0 = 0
    while r0 < m:
        done = pairs[r0 - 1] if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(pairs, done + GRAM_PAIRS, side="right")))
        lo, hi = ends[r0] - counts[r0], ends[r1 - 1]
        row, col, data = M.row[lo:hi], M.col[lo:hi], M.data[lo:hi]
        per_entry = counts[row]
        left = np.repeat(np.arange(row.size), per_entry)
        # the first entry of each entry's row, then the offset within that row
        first = np.searchsorted(row, row)
        offset = np.arange(left.size) - np.repeat(np.cumsum(per_entry) - per_entry, per_entry)
        right = first[left] + offset
        gram += np.bincount(
            col[left] * n + col[right], weights=data[left] * data[right], minlength=n * n
        )
        r0 = r1
    return gram.reshape(n, n)


def _make_solver(A: SparseMatrix):
    """A solver for the normal equations (A^T A) y = rhs.

    A row that holds one entry adds only to the diagonal of A^T A, whatever
    its cone: a PSD svec row (`to_conic` puts one moment id in each), an LP
    box or interval row.  So A^T A = D + R^T R, with D diagonal (each
    column's squared single-entry coefficients) and R the rows with two or
    more entries.  The matrix inversion lemma applies the inverse through
    the capacitance matrix C = I + R D^-1 R^T, inverted once:

        (D + R^T R)^-1 r = D^-1 r - D^-1 R^T C^-1 R D^-1 r.

    A column that no row holds alone leaves D singular and raises
    `ValueError`; with D > 0 the system is positive definite.
    """
    m, n = A.shape
    counts = np.bincount(A.row, minlength=m)
    single = counts[A.row] == 1
    d = np.bincount(A.col[single], weights=A.data[single] ** 2, minlength=n)
    if not np.all(d > 0):
        raise ValueError("a column of A has no row that holds it alone")
    rows, many = np.flatnonzero(counts > 1), ~single
    R = SparseMatrix(np.searchsorted(rows, A.row[many]), A.col[many], A.data[many], (rows.size, n))
    Rt = R.T
    # C = I + S S^T with S = R D^-1/2: `_gram` of S^T, whose rows are R's columns
    St = SparseMatrix(Rt.row, Rt.col, Rt.data / np.sqrt(d)[Rt.row], Rt.shape)
    C_inverse = np.linalg.inv(np.eye(rows.size) + _gram(St))

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = rhs / d
        return x - (Rt @ (C_inverse @ (R @ x))) / d

    return solve


@dataclass(frozen=True)
class ConicSetup:
    """The part of a solve that depends only on `A` and the cones.

    Problems that differ only in `c` and `c0` (the attack targets of one
    query) share `A`, and with it one setup: the equilibration (E, D), the
    scaled A and A^T, the normal-equation solver and the PSD size groups.
    `A0` is the unscaled matrix the setup was built from, and `A0t` its
    transpose, which the residuals read.
    """

    A0: SparseMatrix = field(repr=False)
    A0t: SparseMatrix = field(repr=False)
    E: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    A: SparseMatrix = field(repr=False)
    At: SparseMatrix = field(repr=False)
    solve_normal: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    groups: list = field(repr=False)


def conic_setup(problem: ConicProblem) -> ConicSetup:
    """Equilibrate and factor `problem.A` once for any number of solves."""
    A0 = problem.A
    m, n = A0.shape
    if m and n:
        E, D = _equilibrate(problem)
    else:
        E, D = np.ones(m), np.ones(n)
    A = SparseMatrix(A0.row, A0.col, (E[A0.row] * A0.data) * D[A0.col], A0.shape)
    return ConicSetup(
        A0=A0,
        A0t=A0.T,
        E=E,
        D=D,
        A=A,
        At=A.T,
        solve_normal=_make_solver(A),
        groups=_psd_groups(problem),
    )


def solve_conic(
    problem: ConicProblem,
    opts: Optional[SolveOptions] = None,
    setup: Optional[ConicSetup] = None,
    settled: Optional[Callable[[SolveResult], bool]] = None,
) -> SolveResult:
    """Alternating projections with an exact affine step; deterministic.

    Residuals and the duality gap in the returned result are recomputed on
    the original (unscaled) problem from the final iterates, so re-deriving
    them from the result's vectors reproduces them exactly.

    `setup`, from `conic_setup` on a problem with this very `A`, skips the
    per-solve equilibration and factorization; without it one is built
    here.  The iterates are the same either way.

    `settled`, when given, is asked at a convergence check whether the
    current iterate already decides the caller's question; the solve then
    stops with status "settled" and returns that very result.  It is only
    asked when the float screen min(pobj, dobj - ||c + A^T z||_1) is
    positive: the float image of the rigorous bound's cap, anchor and
    coefficient residual, so a non-positive screen means the rigorous bound
    cannot be positive either (up to rounding, which the callback's own
    exact check decides).
    """
    opts = opts or SolveOptions()
    if setup is None:
        setup = conic_setup(problem)
    elif setup.A0 is not problem.A:
        raise ValueError("the conic setup was built for another problem")
    A0, A0t, b0, c0vec = problem.A, setup.A0t, problem.b, problem.c
    E, D, A, At = setup.E, setup.D, setup.A, setup.At
    solve_normal, groups = setup.solve_normal, setup.groups
    m, n = A0.shape
    b = E * b0
    c = D * c0vec

    rho = 1.0
    c_rho = c / rho
    y = np.zeros(n)
    s = _project_cone(b, problem.n_nonneg, groups)
    u = np.zeros(m)
    v, w = np.empty(m), np.empty(m)

    bnorm = 1.0 + np.linalg.norm(b0)
    cnorm = 1.0 + np.linalg.norm(c0vec)

    def unscaled(yv, sv, uv):
        y_o = D * yv
        s_o = sv / E
        z_o = E * (rho * uv)
        return y_o, s_o, z_o

    def true_residuals(y_o, s_o, z_o):
        pres = np.linalg.norm(A0 @ y_o + s_o - b0) / bnorm
        dual_res = c0vec + A0t @ z_o
        dres = np.linalg.norm(dual_res) / cnorm
        pobj = problem.c0 + float(c0vec @ y_o)
        dobj = problem.c0 - float(b0 @ z_o)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return pres, dres, gap, pobj, dobj, dual_res

    def result(status, it, point, residuals):
        y_o, s_o, z_o = point
        pres, dres, gap, pobj, dobj, _ = residuals
        sig, grams = problem.split_cone_vector(z_o)
        s_nonneg, s_psd = problem.split_cone_vector(s_o)
        return SolveResult(
            status=status,
            primal_objective=pobj,
            dual_objective=dobj,
            iterations=it,
            primal_residual=pres,
            dual_residual=dres,
            gap=gap,
            y=y_o,
            slack_nonneg=s_nonneg,
            slack_psd=tuple(s_psd),
            sigmas=sig,
            grams=tuple(grams),
            options=opts,
        )

    status = "max_iter"
    for it in range(1, opts.max_iter + 1):
        # in place, each difference in a fixed order: (b - s) - u, then
        # A^T v - c/rho, then (b - Ay) - u
        np.subtract(b, s, out=v)
        np.subtract(v, u, out=v)
        rhs = At @ v
        np.subtract(rhs, c_rho, out=rhs)
        y = solve_normal(rhs)
        np.subtract(b, A @ y, out=w)
        np.subtract(w, u, out=w)
        _project_cone(w, problem.n_nonneg, groups, out=s)
        np.subtract(s, w, out=u)  # = u + Ay + s - b

        if it % CHECK_EVERY and it != opts.max_iter:
            continue
        # the last iteration always checks, so the result reads its values
        point = unscaled(y, s, u)
        residuals = pres, dres, gap, pobj, dobj, dual_res = true_residuals(*point)
        if pres <= opts.tol and dres <= opts.tol and gap <= opts.tol:
            status = "optimal"
            break
        if settled is not None and min(pobj, dobj - float(np.abs(dual_res).sum())) > 0:
            candidate = result("settled", it, point, residuals)
            if settled(candidate):
                return candidate
        if it % 200 == 0:  # residual balancing
            if pres > 10.0 * dres and rho < 1e6:
                u *= 0.5
                rho *= 2.0
                c_rho = c / rho
            elif dres > 10.0 * pres and rho > 1e-6:
                u *= 2.0
                rho *= 0.5
                c_rho = c / rho

    return result(status, it, point, residuals)


def solve_lp(
    instance: VerificationInstance, opts: Optional[SolveOptions] = None
) -> SolveResult:
    """Solve the linear relaxation: its moment form has no PSD blocks."""
    return solve_conic(to_conic(assemble_moment_sdp(instance)), opts)


# ---------------------------------------------------------------------------
# rigorous certificate bound
# ---------------------------------------------------------------------------


def _exact_psd_check(upper: Sequence[Sequence[int]]) -> bool:
    """Exact LDL^T with PSD pivoting rules; True proves G >= 0.

    `upper[p]` holds G's row p from the diagonal on, integer-scaled -- the
    certificate's integer image, which `_disproves_psd` reads too.  The rows
    are eliminated fraction-free (Bareiss): every step divides exactly by
    the previous pivot, so entries stay integers and each pivot is the
    LDL^T pivot times a positive leading minor.  A negative pivot disproves
    PSD-ness; a zero pivot needs a zero row and is skipped, and the previous
    divisor carries over.
    """
    rows = list(upper)
    prev = 1
    for k, row_k in enumerate(rows):
        pivot = row_k[0]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(row_k[1:]):
                return False
            continue
        for i in range(k + 1, len(rows)):
            f = row_k[i - k]
            rows[i] = [(pivot * a - f * b) // prev for a, b in zip(rows[i], row_k[i - k :])]
        prev = pivot
    return True


@functools.lru_cache(maxsize=8)
def _gram_numbering(
    cliques: tuple[Clique, ...]
) -> tuple[Mapping, tuple[tuple[int, ...], ...]]:
    """The reduced monomials of the Gram entries of `cliques`, numbered in
    a read-only table whose slot 0 is the constant monomial, and per clique
    the slot of every upper-triangle entry of its Gram matrix, row by row.

    Every target and every settled check of one relaxation reads the same
    clique cover, so the table is built once per cover; `_number_terms`
    copies it before adding to it.
    """
    slots: dict = {(): 0}
    gram_slots = []
    for clique in cliques:
        # entry (p, q) of the Gram matrix of (1, x_clique) multiplies x_p x_q
        # (x_0 = 1, the monomial ())
        xs = ((),) + tuple(((v, 1),) for v in clique.variables)
        gram_slots.append(tuple(
            slots.setdefault(reduce_mono(mono_mul(xs[p], xs[q])), len(slots))
            for p in range(len(xs))
            for q in range(p, len(xs))
        ))
    return MappingProxyType(slots), tuple(gram_slots)


def _number_terms(objective, rows, cliques: Sequence[Clique]):
    """Number the reduced monomials of `objective`, of the constraint `rows`
    and of the Gram entries of `cliques` (slot 0 is the constant monomial),
    starting from the cover's `_gram_numbering`.

    Returns the slot count, the objective's and each row's terms as (slot,
    exact coefficient), and per clique the slot of every upper-triangle
    entry of its Gram matrix, row by row.  The slot order is immaterial to
    the caller's sums.
    """
    gram_table, gram_slots = _gram_numbering(tuple(cliques))
    slots = dict(gram_table)

    def slot(mono) -> int:
        return slots.setdefault(reduce_mono(mono), len(slots))

    def terms(poly):
        return [(slot(mono), c) for mono, c in poly.terms.items()]

    objective_terms = terms(objective)
    row_terms = [terms(row) for row in rows]
    return len(slots), objective_terms, row_terms, gram_slots


def _disproves_psd(G: np.ndarray, upper: Sequence[Sequence[int]]) -> bool:
    """True when v^T G v < 0 exactly, v the float eigenvector of G's smallest
    eigenvalue: a proof that G is not PSD.  `upper[p]` holds G's row p from
    the diagonal on, integer-scaled -- the entries `_exact_psd_check` reads."""
    v = np.linalg.eigh(G, UPLO="U")[1][:, 0]
    ratios = [x.as_integer_ratio() for x in v.tolist()]
    scale = max(den for _, den in ratios)
    a = [num * (scale // den) for num, den in ratios]
    quotient = 0
    for p, row in enumerate(upper):
        if a[p]:
            off = sum(aq * g for aq, g in zip(a[p + 1 :], row[1:]))
            quotient += a[p] * (a[p] * row[0] + 2 * off)
    return quotient < 0


def rigorous_lower_bound(
    result: SolveResult,
    instance: VerificationInstance,
    cliques: Sequence[Clique] = (),
) -> RigorousBound:
    """Bound the encoded optimum from below using only the dual certificate.

    Expands f - sum sigma_g * g - sum v_k^T G_k v_k exactly (negative sigmas
    are clamped to zero first, which simply moves their term into the
    remainder), reduces modulo x^2 = 1, and charges the remainder
    coefficient-wise (every variable and variable product has magnitude at
    most 1 on the feasible set).  The expansion runs in Python integers at
    one scale: the common denominator of the objective and of the rows with
    a positive sigma, times the largest power-of-two denominator of those
    sigmas and of the Gram entries; the anchor and the budget become
    fractions once, at the end.

    Gram blocks pay an eigenvalue deficit (block size) * max(0,
    -lambda_min_lower); exactly PSD blocks of order at most
    `EXACT_PSD_ORDER` are recognized by an exact factorization of the
    expansion's own integer upper triangle and pay zero.  A block whose
    exact Rayleigh quotient at the float minimal eigenvector is negative is
    proven not PSD without the factorization.
    The reported value is finally capped at the solve's primal objective.

    `cliques` are the assembly's (`MomentSdp.cliques`), one per Gram block;
    a certificate with Gram blocks but without them raises `ValueError`.
    """
    sig = np.asarray(result.sigmas, dtype=float)
    grams = result.grams
    if not np.all(np.isfinite(sig)) or any(
        not np.all(np.isfinite(G)) for G in grams
    ):
        raise ValueError("non-finite certificate entries")
    ineqs = instance.constraints.inequalities
    if sig.shape[0] != len(ineqs):
        raise ValueError(
            f"certificate has {sig.shape[0]} multipliers for {len(ineqs)} rows"
        )
    if not grams:
        cliques = ()
    sizes = [G.shape[0] for G in grams]
    if sizes != [len(clique.variables) + 1 for clique in cliques]:
        raise ValueError(
            f"Gram blocks of sizes {sizes} do not fit the {len(cliques)} cliques"
        )

    # exact ratios of the positive sigmas and of every Gram upper triangle
    sig_ratios = [(r, m.as_integer_ratio()) for r, m in enumerate(sig.tolist()) if m > 0]
    gram_ratios = [
        [[x.as_integer_ratio() for x in row[p:]] for p, row in enumerate(G.tolist())]
        for G in grams
    ]
    two_e = max(
        [den for _, (_, den) in sig_ratios]
        + [den for upper in gram_ratios for row in upper for _, den in row],
        default=1,
    )
    n_slots, objective, rows, gram_slots = _number_terms(
        instance.objective, [ineqs[r].poly for r, _ in sig_ratios], cliques
    )
    L = math.lcm(*(c.denominator for terms in [objective] + rows for _, c in terms))
    scale = L * two_e

    acc = [0] * n_slots
    for k, c in objective:
        acc[k] += c.numerator * (L // c.denominator) * two_e
    for (_, (num, den)), terms in zip(sig_ratios, rows):
        m = num * (two_e // den)
        for k, c in terms:
            acc[k] -= m * c.numerator * (L // c.denominator)
    gram_ints = []
    for upper, slots in zip(gram_ratios, gram_slots):
        ints = [[num * (two_e // den) for num, den in row] for row in upper]
        gram_ints.append(ints)
        flat = iter(slots)
        for row in ints:
            # off-diagonal entries appear twice in (1, x)^T G (1, x)
            acc[next(flat)] -= row[0] * L
            for g in row[1:]:
                acc[next(flat)] -= 2 * g * L
    anchor_int = acc[0]
    budget_int = sum(map(abs, acc[1:]))

    deficits: list[float] = []
    eps = float(np.finfo(float).eps)
    for G, upper in zip(grams, gram_ints):
        size = G.shape[0]
        if size <= EXACT_PSD_ORDER and not _disproves_psd(G, upper) and _exact_psd_check(upper):
            deficits.append(0.0)
            continue
        lam_min = float(np.linalg.eigvalsh(G)[0])
        widen = size * eps * float(np.linalg.norm(G, "fro"))
        deficit = size * max(Fraction(0), Fraction(widen) - Fraction(lam_min))
        deficits.append(_round_toward(deficit.numerator, deficit.denominator, math.inf))

    exact = Fraction(anchor_int - budget_int, scale) - sum(map(Fraction, deficits))
    value = _round_toward(exact.numerator, exact.denominator, -math.inf)
    # never report more than the solve's own objective estimate; anything
    # below a valid lower bound is still a valid lower bound
    pobj = float(result.primal_objective)
    if math.isfinite(pobj) and pobj < value:
        value = pobj
    return RigorousBound(
        value=value,
        anchor=_round_toward(anchor_int, scale, -math.inf),
        coefficient_residual=_round_toward(budget_int, scale, math.inf),
        eigenvalue_deficits=tuple(deficits),
    )
