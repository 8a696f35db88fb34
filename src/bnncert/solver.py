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
objective (the attack targets of one query).  A caller that only needs a
verdict passes `solve_conic` a `settled` callback: at each convergence check
whose float screen could certify, the current iterate is offered to it, and
the solve stops with status "settled" as soon as it accepts.

`rigorous_lower_bound` turns that approximate certificate into a bound that
holds despite floating-point error: the certificate combination is expanded
in exact rational arithmetic (binary64 values are dyadic rationals) into one
accumulator, reduced modulo x^2 = 1 term by term, and the leftover polynomial
is bounded coefficient-wise using |x| <= 1 for every variable.  A Gram block
costs nothing when a fraction-free integer LDL^T proves it PSD, and pays an
eigenvalue-deficit term otherwise.  Everything here is deterministic: same
problem, same options, bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from bnncert.encode import (
    Clique,
    VerificationInstance,
    build_cliques,
    linear_inequalities,
)
from bnncert.poly import Var
from bnncert.sdp import ConicProblem, smat, svec

__all__ = [
    "ConicSetup",
    "RigorousBound",
    "SolveOptions",
    "SolveResult",
    "conic_setup",
    "lp_to_conic",
    "rigorous_lower_bound",
    "solve_conic",
    "solve_lp",
]


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 50000
    scaling: bool = True
    seed: int = 0
    rho: float = 1.0
    check_every: int = 25

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")


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
    problem: ConicProblem = field(repr=False)


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


def _row_groups(n_nonneg: int, psd_sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal row ranges that must share one scale (PSD blocks are rigid)."""
    groups = [(r, r + 1) for r in range(n_nonneg)]
    pos = n_nonneg
    for size in psd_sizes:
        ln = size * (size + 1) // 2
        groups.append((pos, pos + ln))
        pos += ln
    return groups


def _equilibrate(problem: ConicProblem, iters: int = 10):
    """Ruiz-style scaling with cone-respecting row groups; returns (E, D)."""
    A = problem.A.tocsr(copy=True)
    m, n = A.shape
    E = np.ones(m)
    D = np.ones(n)
    groups = _row_groups(problem.n_nonneg, problem.psd_sizes)
    for _ in range(iters):
        absA = abs(A)
        rmax = np.asarray(absA.max(axis=1).todense()).ravel()
        e = np.ones(m)
        for lo, hi in groups:
            g = rmax[lo:hi].max() if hi > lo else 0.0
            e[lo:hi] = 1.0 / math.sqrt(g) if g > 0 else 1.0
        cmax = np.asarray(absA.max(axis=0).todense()).ravel()
        d = np.where(cmax > 0, 1.0 / np.sqrt(cmax), 1.0)
        A = sp.diags(e) @ A @ sp.diags(d)
        E *= e
        D *= d
    return E, D


# ---------------------------------------------------------------------------
# main iteration
# ---------------------------------------------------------------------------


def _make_solver(AtA: sp.csc_matrix):
    n = AtA.shape[0]
    if n == 0:
        return lambda rhs: rhs
    if n <= 400:
        dense = AtA.toarray()
        chol = scipy.linalg.cho_factor(dense, lower=True)
        return lambda rhs: scipy.linalg.cho_solve(chol, rhs)
    # imported here: only problems this large need it, and importing it
    # costs about 4 MB of resident memory
    from scipy.sparse.linalg import splu

    lu = splu(AtA.tocsc())
    return lambda rhs: lu.solve(rhs)


@dataclass(frozen=True)
class ConicSetup:
    """The part of a solve that depends only on `A` and the cones.

    Problems that differ only in `c` and `c0` (the attack targets of one
    query) share `A`, and with it one setup: the equilibration (E, D), the
    scaled A and A^T, the normal-equation factorization and the PSD size
    groups.  `A0` is the unscaled matrix the setup was built from.
    """

    A0: sp.spmatrix = field(repr=False)
    scaling: bool
    E: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    A: sp.csr_matrix = field(repr=False)
    At: sp.csr_matrix = field(repr=False)
    solve_normal: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    groups: list = field(repr=False)


def conic_setup(problem: ConicProblem, scaling: bool = True) -> ConicSetup:
    """Equilibrate and factor `problem.A` once for any number of solves."""
    A0 = problem.A
    m, n = A0.shape
    if scaling and m and n:
        E, D = _equilibrate(problem)
    else:
        E, D = np.ones(m), np.ones(n)
    A = (sp.diags(E) @ A0 @ sp.diags(D)).tocsr()
    At = A.T.tocsr()
    return ConicSetup(
        A0=A0,
        scaling=scaling,
        E=E,
        D=D,
        A=A,
        At=At,
        solve_normal=_make_solver((At @ A).tocsc()),
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
        setup = conic_setup(problem, opts.scaling)
    elif setup.A0 is not problem.A or setup.scaling != opts.scaling:
        raise ValueError("the conic setup was built for another problem or scaling")
    A0, b0, c0vec = problem.A, problem.b, problem.c
    E, D, A, At = setup.E, setup.D, setup.A, setup.At
    solve_normal, groups = setup.solve_normal, setup.groups
    m, n = A0.shape
    b = E * b0
    c = D * c0vec

    rho = opts.rho
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
        dual_res = c0vec + A0.T @ z_o
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
            problem=problem,
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

        if it % opts.check_every == 0 or it == opts.max_iter:
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
                    if (
                        np.linalg.norm(A0.T @ ray) <= 1e-9
                        and float(b0 @ ray) < -1e-9
                    ):
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


# ---------------------------------------------------------------------------
# LP routing
# ---------------------------------------------------------------------------


def lp_to_conic(instance: VerificationInstance) -> ConicProblem:
    """Materialize an all-linear instance as a conic problem without PSD blocks."""
    if instance.encoding_kind != "lp":
        raise ValueError("expected an LP instance")
    variables, A_ge, d = linear_inequalities(instance)
    return ConicProblem(
        A=sp.csc_matrix(-A_ge),
        b=-d,
        c=np.zeros(len(variables)),
        c0=0.0,
        n_nonneg=A_ge.shape[0],
        psd_sizes=(),
        ids_order=tuple((v,) for v in variables),
    ).with_objective(instance.objective)


def solve_lp(
    instance: VerificationInstance, opts: Optional[SolveOptions] = None
) -> SolveResult:
    """Solve the linear relaxation through the same conic iteration."""
    return solve_conic(lp_to_conic(instance), opts)


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


def _accumulate(acc: dict, terms, factor) -> None:
    """acc += factor * sum(terms), exactly, with monomials reduced."""
    for mono, coeff in terms:
        if not isinstance(coeff, (int, Fraction)):
            coeff = Fraction(coeff)
        key = _reduce_mono(mono)
        acc[key] = acc.get(key, 0) + coeff * factor


def _gram_terms(G: np.ndarray, variables: Sequence[Var]):
    """Terms of (1, x_clique)^T G (1, x_clique), exact, upper triangle of G."""
    rows = G.tolist()
    yield (), Fraction(rows[0][0])
    for p, v in enumerate(variables, start=1):
        yield ((v, 1),), 2 * Fraction(rows[0][p])
        yield ((v, 2),), Fraction(rows[p][p])
        for q in range(p + 1, len(rows)):
            pair = tuple(sorted(((v, 1), (variables[q - 1], 1))))
            yield pair, 2 * Fraction(rows[p][q])


def rigorous_lower_bound(
    result: SolveResult,
    instance: VerificationInstance,
    cliques: Optional[Sequence[Clique]] = None,
) -> RigorousBound:
    """Bound the encoded optimum from below using only the dual certificate.

    Expands f - sum sigma_g * g - sum v_k^T G_k v_k in exact rational
    arithmetic (negative sigmas are clamped to zero first, which simply moves
    their term into the remainder), reduces modulo x^2 = 1, and charges the
    remainder coefficient-wise (every variable and variable product has
    magnitude at most 1 on the feasible set).  Gram blocks pay an eigenvalue
    deficit (block size) * max(0, -lambda_min_lower); exactly PSD blocks are
    recognized by an exact integer factorization and pay zero.  The reported
    value is finally capped at the solve's primal objective.
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
    remainder: dict = {}
    _accumulate(remainder, instance.objective.terms.items(), 1)
    for mult, con in zip(sig.tolist(), ineqs):
        if mult > 0:
            _accumulate(remainder, con.poly.terms.items(), -Fraction(mult))
    if grams:
        if cliques is None:
            cliques = build_cliques(instance.net)
        if len(grams) != len(cliques):
            raise ValueError(f"{len(grams)} Gram blocks for {len(cliques)} cliques")
        for G, clique in zip(grams, cliques):
            _accumulate(remainder, _gram_terms(G, clique.variables), -1)

    anchor_exact = Fraction(remainder.pop((), 0))
    coeff_budget = Fraction(sum(abs(coeff) for coeff in remainder.values()))

    deficits: list[float] = []
    eps = float(np.finfo(float).eps)
    for G in grams:
        size = G.shape[0]
        if size <= 64 and _exact_psd_check(G):
            deficits.append(0.0)
            continue
        lam_min = float(np.linalg.eigvalsh(G)[0])
        widen = size * eps * float(np.linalg.norm(G, "fro"))
        lower = lam_min - widen
        deficits.append(size * max(0.0, -lower))

    value_exact = anchor_exact - coeff_budget
    value = _float_down(value_exact) - float(sum(deficits))
    # never report more than the solve's own objective estimate; anything
    # below a valid lower bound is still a valid lower bound
    pobj = float(result.primal_objective)
    if math.isfinite(pobj) and pobj < value:
        value = pobj
    return RigorousBound(
        value=value,
        anchor=_float_down(anchor_exact),
        coefficient_residual=_float_up(coeff_budget),
        eigenvalue_deficits=tuple(deficits),
    )
