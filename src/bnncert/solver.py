"""Operator-splitting solver for the block conic problems, plus certificate
rigorization.

One code path serves both the LP relaxation (no PSD blocks) and the moment
SDPs.  The iteration alternates a least-squares affine step with a projection
onto the cone product; the scaled dual variable is, by construction, always a
member of the dual cone (clipping for the nonnegative rows, an eigenvalue
floor for PSD blocks), so the final iterate doubles as a certificate:
nonnegative multipliers for the scalar rows and one Gram matrix per clique
block.  The PSD blocks are grouped by size; each iteration then projects
every group with one stacked `eigh` (cliques come in one or two sizes), with
the same result as a per-block loop.

Everything that depends only on `A` -- the equilibration, the scaled matrix,
the normal-equation factorization and the size groups -- is a `ConicSetup`,
built once by `conic_setup` and shared by problems that differ only in their
objective (the attack targets of one query).  All of it runs on numpy
arrays: `A` is a `SparseMatrix` of sorted triplets, and a normal matrix of
at most 400 columns is inverted once and applied as one dense product per
iteration.  Only a larger one loads scipy, for its sparse LU (`splu`).

A caller that only needs a verdict passes `solve_conic` a `settled`
callback: at each convergence check whose float screen could certify, the
current iterate is offered to it, and the solve stops with status "settled"
as soon as it accepts.

`rigorous_lower_bound` turns that approximate certificate into a bound that
holds despite floating-point error: the certificate combination is expanded
exactly, reduced modulo x^2 = 1, and the leftover polynomial is bounded
coefficient-wise using |x| <= 1 for every variable.  The expansion runs in
Python integers at one common scale (binary64 values are dyadic rationals),
over the reduced monomials numbered once per call.  A Gram block costs
nothing when a fraction-free integer LDL^T proves it PSD, and pays an
eigenvalue-deficit term otherwise; an exact negative Rayleigh quotient
disproves PSD-ness before the factorization runs.  Everything here is
deterministic: same problem, same options, bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from bnncert.encode import Clique, VerificationInstance, build_cliques
from bnncert.poly import Var
from bnncert.sdp import (
    ConicProblem,
    SparseMatrix,
    assemble_moment_sdp,
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
#: every-200 infeasibility test and residual balancing fall on a check
CHECK_EVERY = 25
#: Ruiz scaling sweeps of `_equilibrate`
EQUILIBRATE_SWEEPS = 10


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 50000
    #: not read by the solver, whose iteration is deterministic
    seed: int = 0

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

    status: str  # optimal | settled | max_iter | infeasible_certificate
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
        return self.coefficient_residual + float(sum(self.eigenvalue_deficits))


# ---------------------------------------------------------------------------
# cone projection
# ---------------------------------------------------------------------------


def _psd_groups(problem: ConicProblem) -> list[tuple[int, np.ndarray]]:
    """PSD blocks grouped by size: (size, rows) with `rows[b]` the cone rows
    of the group's b-th block, so `w[rows]` gathers the group's svecs."""
    starts: dict[int, list[int]] = {}
    for size, start in zip(problem.psd_sizes, problem.block_offsets()):
        starts.setdefault(size, []).append(start)
    return [
        (size, np.add.outer(offsets, np.arange(size * (size + 1) // 2)))
        for size, offsets in starts.items()
    ]


def _project_cone(
    w: np.ndarray, n_nonneg: int, groups: Sequence[tuple[int, np.ndarray]]
) -> np.ndarray:
    """Projection onto (R+)^n_nonneg x PSD blocks; one stacked `eigh` per
    group of equal-size blocks (see `_psd_groups`)."""
    s = w.copy()
    if n_nonneg:
        np.maximum(w[:n_nonneg], 0.0, out=s[:n_nonneg])
    for size, rows in groups:
        lam, V = np.linalg.eigh(smat(w[rows], size))
        np.maximum(lam, 0.0, out=lam)
        P = (V * lam[:, None, :]) @ V.transpose(0, 2, 1)
        P = (P + P.transpose(0, 2, 1)) * 0.5
        s[rows] = svec(P)
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


def _normal_matrix(A: SparseMatrix) -> np.ndarray:
    """Dense A^T A, summed from each row's outer product: every entry is
    paired with each entry of its own row (rows hold a few entries)."""
    n = A.shape[1]
    counts = np.bincount(A.row, minlength=A.shape[0])[A.row]
    left = np.repeat(np.arange(A.row.size), counts)
    # the first entry of each entry's row, then the offset within that row
    first = np.searchsorted(A.row, A.row)
    offset = np.arange(left.size) - np.repeat(np.cumsum(counts) - counts, counts)
    right = first[left] + offset
    AtA = np.bincount(
        A.col[left] * n + A.col[right], weights=A.data[left] * A.data[right], minlength=n * n
    )
    return AtA.reshape(n, n)


def _make_solver(A: SparseMatrix):
    """A solver for the normal equations (A^T A) y = rhs."""
    n = A.shape[1]
    if n == 0:
        return lambda rhs: rhs
    if n <= 400:
        inverse = np.linalg.inv(_normal_matrix(A))
        return lambda rhs: inverse @ rhs
    # imported here: only problems this large need it, and loading scipy
    # adds about 0.4 s and 25 MB of resident memory to a verify process
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import splu

    S = csr_matrix((A.data, (A.row, A.col)), shape=A.shape)
    return splu((S.T @ S).tocsc()).solve


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
    y = np.zeros(n)
    s = _project_cone(b, problem.n_nonneg, groups)
    u = np.zeros(m)

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

    def result(status, it, y_o, s_o, z_o):
        pres, dres, gap, pobj, dobj, _ = true_residuals(y_o, s_o, z_o)
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
    it = 0
    for it in range(1, opts.max_iter + 1):
        rhs = At @ (b - s - u) - c / rho
        y = solve_normal(rhs)
        Ay = A @ y
        w = b - Ay - u
        s = _project_cone(w, problem.n_nonneg, groups)
        u = s - w  # = u + Ay + s - b

        if it % CHECK_EVERY and it != opts.max_iter:
            continue
        y_o, s_o, z_o = unscaled(y, s, u)
        pres, dres, gap, pobj, dobj, dual_res = true_residuals(y_o, s_o, z_o)
        if pres <= opts.tol and dres <= opts.tol and gap <= opts.tol:
            status = "optimal"
            break
        if settled is not None and min(pobj, dobj - float(np.abs(dual_res).sum())) > 0:
            candidate = result("settled", it, y_o, s_o, z_o)
            if settled(candidate):
                return candidate
        if it % 200 == 0:
            # certified infeasibility: a dual ray
            znorm = np.linalg.norm(z_o)
            if znorm > 1e-10:
                ray = z_o / znorm
                if np.linalg.norm(A0t @ ray) <= 1e-9 and float(b0 @ ray) < -1e-9:
                    status = "infeasible_certificate"
                    break
            # residual balancing
            if pres > 10.0 * dres and rho < 1e6:
                u *= 0.5
                rho *= 2.0
            elif dres > 10.0 * pres and rho > 1e-6:
                u *= 2.0
                rho *= 0.5

    return result(status, it, *unscaled(y, s, u))


def solve_lp(
    instance: VerificationInstance, opts: Optional[SolveOptions] = None
) -> SolveResult:
    """Solve the linear relaxation: its moment form has no PSD blocks."""
    return solve_conic(to_conic(assemble_moment_sdp(instance)), opts)


# ---------------------------------------------------------------------------
# rigorous certificate bound
# ---------------------------------------------------------------------------


def _float_down(x: Fraction) -> float:
    f = float(x)
    if Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return f


def _float_up(x: Fraction) -> float:
    f = float(x)
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


def _exact_psd_check(G: np.ndarray) -> bool:
    """Exact LDL^T with PSD pivoting rules; True proves G >= 0.

    G (upper triangle, the entries the certificate reads) is scaled by one
    power of two to integers, then eliminated fraction-free (Bareiss): every
    step divides exactly by the previous pivot, so entries stay integers and
    each pivot is the LDL^T pivot times a positive leading minor.  A negative
    pivot disproves PSD-ness; a zero pivot needs a zero row and is skipped,
    and the previous divisor carries over.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in G.tolist()]
    scale = max((den for row in ratios for _, den in row), default=1)
    M = [[num * (scale // den) for num, den in row] for row in ratios]
    n = len(M)
    prev = 1
    for k in range(n):
        row_k = M[k]
        pivot = row_k[k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(row_k[k + 1 :]):
                return False
            continue
        for i in range(k + 1, n):
            f = row_k[i]
            row_i = M[i]
            row_i[i:] = [
                (pivot * a - f * b) // prev for a, b in zip(row_i[i:], row_k[i:])
            ]
        prev = pivot
    return True


def _reduce_mono(mono: tuple) -> tuple:
    """A monomial modulo x^2 = 1 for every binary (layer >= 1) variable."""
    return tuple(
        (v, e % 2 if v.layer else e) for v, e in mono if not v.layer or e % 2
    )


def _mono_of(u: Optional[Var], v: Optional[Var]) -> tuple:
    """The monomial u * v, where None stands for the constant 1."""
    if u is None:
        return () if v is None else ((v, 1),)
    if u == v:
        return ((u, 2),)
    return tuple(sorted(((u, 1), (v, 1))))


def _number_terms(objective, rows, cliques: Sequence[Clique]):
    """Number the reduced monomials of `objective`, of the constraint `rows`
    and of the Gram entries of `cliques` (slot 0 is the constant monomial).

    Returns the slot count, the objective's and each row's terms as (slot,
    exact coefficient), and per clique the slot of every upper-triangle
    entry of its Gram matrix, row by row.
    """
    slots: dict = {(): 0}
    seen: dict = {}  # unreduced monomial -> slot

    def slot(mono) -> int:
        k = seen.get(mono)
        if k is None:
            k = seen[mono] = slots.setdefault(_reduce_mono(mono), len(slots))
        return k

    def terms(poly):
        return [(slot(mono), c) for mono, c in poly.terms.items()]

    objective_terms = terms(objective)
    row_terms = [terms(row) for row in rows]
    gram_slots = []
    for clique in cliques:
        # entry (p, q) of the Gram matrix of (1, x_clique) multiplies x_p x_q
        # (x_0 = 1)
        xs = (None,) + clique.variables
        gram_slots.append(
            [slot(_mono_of(xs[p], xs[q])) for p in range(len(xs)) for q in range(p, len(xs))]
        )
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
    cliques: Optional[Sequence[Clique]] = None,
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
    -lambda_min_lower); exactly PSD blocks are recognized by an exact
    integer factorization and pay zero.  A block whose exact Rayleigh
    quotient at the float minimal eigenvector is negative is proven not PSD
    without the factorization.  The reported value is finally capped at the
    solve's primal objective.
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
    elif cliques is None:
        cliques = build_cliques(instance.net)
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
        if size <= 64 and not _disproves_psd(G, upper) and _exact_psd_check(G):
            deficits.append(0.0)
            continue
        lam_min = float(np.linalg.eigvalsh(G)[0])
        widen = size * eps * float(np.linalg.norm(G, "fro"))
        lower = lam_min - widen
        deficits.append(size * max(0.0, -lower))

    value = _float_down(Fraction(anchor_int - budget_int, scale)) - float(sum(deficits))
    # never report more than the solve's own objective estimate; anything
    # below a valid lower bound is still a valid lower bound
    pobj = float(result.primal_objective)
    if math.isfinite(pobj) and pobj < value:
        value = pobj
    return RigorousBound(
        value=value,
        anchor=_float_down(Fraction(anchor_int, scale)),
        coefficient_residual=_float_up(Fraction(budget_int, scale)),
        eigenvalue_deficits=tuple(deficits),
    )
